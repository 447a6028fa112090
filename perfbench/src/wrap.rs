//! Timing wrappers that measure a layer from outside.
//!
//! Both wrappers must be *transparent*: they forward every trait method,
//! including the defaulted ones. A `TimingModel` wrapper that let
//! `simulate_batch`, `sweep_terms`, `phase_determined`, `fidelity_key` or
//! `device_key` fall back to the trait default would silently change sweep
//! caching; a `Governor` wrapper that let `set_trace` or `condition` fall
//! back would silently drop telemetry or bypass the sanitizer. The tests in
//! `tests.rs` check that wrapped and unwrapped runs are byte-identical.

use crate::span::{SpanId, Tracer, ROOT};
use harmonia::governor::Governor;
use harmonia::telemetry::TraceHandle;
use harmonia_sim::{
    CounterSample, GpuDescriptor, KernelProfile, SimResult, SweepTerms, TimingModel,
};
use harmonia_types::{HwConfig, Seconds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts and times every simulation call into the wrapped model. With a
/// tracer attached, each call is also a span under [`parent`](Self::set_parent).
pub struct TimedModel<'t, M> {
    inner: M,
    span: &'static str,
    tracer: Option<&'t Tracer>,
    parent: AtomicU64,
    op: AtomicU64,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl<'t, M: TimingModel> TimedModel<'t, M> {
    /// Counters only (safe to share across pool workers).
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            span: "",
            tracer: None,
            parent: AtomicU64::new(ROOT),
            op: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Counters plus one `span` per call.
    pub fn traced(inner: M, tracer: &'t Tracer, span: &'static str) -> Self {
        Self {
            span,
            tracer: Some(tracer),
            ..Self::new(inner)
        }
    }

    /// Parents the spans of subsequent calls.
    pub fn set_parent(&self, parent: SpanId, op: u64) {
        // Relaxed: set and read on the thread driving the session.
        self.parent.store(parent, Ordering::Relaxed);
        self.op.store(op, Ordering::Relaxed);
    }

    /// `(calls, busy ns)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }

    fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        let open = self.tracer.map(|t| {
            t.open(
                self.span,
                self.parent.load(Ordering::Relaxed),
                self.op.load(Ordering::Relaxed),
            )
        });
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: statistics only, read after the pool has joined.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if let (Some(t), Some(open)) = (self.tracer, open) {
            t.close(open);
        }
        out
    }
}

impl<M: TimingModel> TimingModel for TimedModel<'_, M> {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        self.measure(|| self.inner.simulate(cfg, kernel, iteration))
    }

    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        self.measure(|| self.inner.simulate_batch(cfgs, kernel, iteration))
    }

    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        self.measure(|| self.inner.sweep_terms(cfgs, kernel))
    }

    fn gpu(&self) -> &GpuDescriptor {
        self.inner.gpu()
    }

    fn phase_determined(&self) -> bool {
        self.inner.phase_determined()
    }

    fn fidelity_key(&self) -> u64 {
        self.inner.fidelity_key()
    }

    fn device_key(&self) -> u64 {
        self.inner.device_key()
    }
}

/// Span names for one governor stack's three hooks.
#[derive(Debug, Clone, Copy)]
pub struct GovSpans {
    pub decide: &'static str,
    pub condition: &'static str,
    pub observe: &'static str,
}

/// Records a span around every `decide`, `condition` and `observe` call of
/// the wrapped stack.
pub struct TimedGovernor<'t, G> {
    inner: G,
    tracer: &'t Tracer,
    names: GovSpans,
    parent: SpanId,
    op: u64,
    busy_ns: u64,
}

impl<'t, G: Governor> TimedGovernor<'t, G> {
    pub fn new(inner: G, tracer: &'t Tracer, names: GovSpans, parent: SpanId, op: u64) -> Self {
        Self {
            inner,
            tracer,
            names,
            parent,
            op,
            busy_ns: 0,
        }
    }

    /// Host ns spent in the wrapped stack so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    fn measure<T>(&mut self, name: &'static str, f: impl FnOnce(&mut G) -> T) -> T {
        let open = self.tracer.open(name, self.parent, self.op);
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracer.close(open);
        out
    }
}

impl<G: Governor> Governor for TimedGovernor<'_, G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.measure(self.names.decide, |g| g.decide(kernel, iteration))
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        self.measure(self.names.condition, |g| {
            g.condition(kernel, iteration, cfg, time, counters)
        })
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        self.measure(self.names.observe, |g| {
            g.observe(kernel, iteration, cfg, counters)
        });
    }
}
