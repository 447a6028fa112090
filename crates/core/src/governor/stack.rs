//! Composable governor middleware: tower-style decorator layers over
//! `dyn Governor`.
//!
//! Cross-cutting hardening does not live inside the governors. It is a set
//! of [`GovernorLayer`] decorators that wrap any [`Governor`] and compose
//! freely:
//!
//! * [`DegradeLayer`](super::DegradeLayer) — the one safe-state /
//!   degradation state machine, as a four-rung ladder or a two-rung park.
//!   What counts as anomalous is pluggable via [`AnomalyCheck`]:
//!   [`CounterCheck`] judges counter plausibility and throughput collapse,
//!   [`CapCheck`] judges power-cap violations.
//! * [`SanitizeLayer`] — per-kernel counter sanitization
//!   ([`CounterSanitizer`]), applied through the
//!   [`Governor::condition`] hook so the *conditioned* measurement feeds
//!   the runtime's power accounting.
//! * [`TraceLayer`] — tees every trace event the inner governor emits into
//!   a side [`TraceHandle`] tap without stealing it from the primary sink.
//!
//! Layers are name-transparent (`name()` forwards inward) so report and
//! trace bytes do not change when a stack replaces a plain governor.
//! Named stacks are assembled by the [`PolicySpec`](super::PolicySpec)
//! registry.
//!
//! Two pieces of shared state thread through a stack:
//!
//! * [`DecisionLedger`] — the per-kernel *granted* configuration, written
//!   by whichever layer decided last (the outermost cap decorator
//!   overwrites a park's pre-clamp decision), read by actuation checks.
//! * [`PolicyStats`] — cloneable atomic counters (cap violations,
//!   violations while parked, safe-state entries, sanitizer rejects, rung
//!   residency) that stay readable after the stack is boxed into a
//!   `dyn Governor`.

use crate::governor::{Governor, Rung};
use crate::sanitize::{self, CounterSanitizer, SanitizerConfig};
use crate::telemetry::TraceHandle;
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Watts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A boxed dynamic governor — the currency [`GovernorLayer`]s trade in.
pub type BoxGovernor<'a> = Box<dyn Governor + 'a>;

/// A middleware blueprint: consumes an inner governor and returns the
/// decorated stack. Mirrors tower's `Layer<S>`, specialized to boxed
/// governors so heterogeneous stacks compose without generic bloat.
pub trait GovernorLayer<'a> {
    /// Wraps `inner` in this layer's decorator.
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a>;
}

// ---------------------------------------------------------------------------
// Shared stack state
// ---------------------------------------------------------------------------

/// Cloneable handle to the per-kernel *granted* (post-decision, post-clamp)
/// configuration. Every decorator that decides writes its output here, so
/// the outermost writer — the cap clamp, when present — wins, and actuation
/// checks deeper in the stack compare against what was actually granted.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    inner: Arc<Mutex<HashMap<String, HwConfig>>>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cfg` as the granted configuration for `kernel`.
    pub fn grant(&self, kernel: &str, cfg: HwConfig) {
        let mut granted = self.inner.lock().expect("ledger poisoned");
        // Only a kernel's first grant allocates its name.
        match granted.get_mut(kernel) {
            Some(slot) => *slot = cfg,
            None => {
                granted.insert(kernel.to_string(), cfg);
            }
        }
    }

    /// The most recently granted configuration for `kernel`.
    pub fn granted(&self, kernel: &str) -> Option<HwConfig> {
        self.inner.lock().expect("ledger poisoned").get(kernel).copied()
    }
}

/// Cloneable atomic counters exposing a stack's hardening activity after it
/// has been boxed into a `dyn Governor`. All handles cloned from one
/// `PolicyStats` share the same counters.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    counters: Arc<Counters>,
}

/// The counters behind a [`PolicyStats`] handle.
#[derive(Debug, Default)]
struct Counters {
    cap_violations: AtomicU64,
    violations_while_fallback: AtomicU64,
    fallback_engagements: AtomicU64,
    sanitizer_rejects: AtomicU64,
    /// Observation intervals spent on each rung, indexed by
    /// `Rung::index()` (full / cg-only / freq-only / safe-state).
    rung_residency: [AtomicU64; 4],
    rung_demotions: AtomicU64,
    rung_promotions: AtomicU64,
    /// Degradation layers sharing these counters; each takes the next
    /// ordinal when it is layered.
    degrade_layers: AtomicU64,
    /// Degradation layers currently on the safe-state rung.
    parked: AtomicU64,
}

impl PolicyStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observed intervals whose projected card power exceeded the cap
    /// (5% enforcement tolerance), parked or not.
    pub fn cap_violations(&self) -> u64 {
        self.counters.cap_violations.load(Ordering::Relaxed)
    }

    /// Cap violations a cap park observed while it held the safe state,
    /// outside sanitizer pressure.
    pub fn violations_while_fallback(&self) -> u64 {
        self.counters.violations_while_fallback.load(Ordering::Relaxed)
    }

    /// Demotions into the safe-state rung, across every park and ladder.
    pub fn fallback_engagements(&self) -> u64 {
        self.counters.fallback_engagements.load(Ordering::Relaxed)
    }

    /// Total counter readings rejected and substituted by sanitize layers.
    pub fn sanitizer_rejects(&self) -> u64 {
        self.counters.sanitizer_rejects.load(Ordering::Relaxed)
    }

    /// Observation intervals spent on each rung, indexed by
    /// `Rung::index()`. Each interval counts once per stack, on the safe
    /// state while any of its degradation layers is parked. All zero for
    /// stacks without a [`DegradeLayer`](super::DegradeLayer).
    pub fn rung_residency(&self) -> [u64; 4] {
        self.counters.rung_residency.each_ref().map(|n| n.load(Ordering::Relaxed))
    }

    /// Total demotions (one rung down each), parks included.
    pub fn rung_demotions(&self) -> u64 {
        self.counters.rung_demotions.load(Ordering::Relaxed)
    }

    /// Total promotions (one rung up each), parks included.
    pub fn rung_promotions(&self) -> u64 {
        self.counters.rung_promotions.load(Ordering::Relaxed)
    }

    pub(crate) fn count_cap_violation(&self) {
        self.counters.cap_violations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_violation_while_fallback(&self) {
        self.counters.violations_while_fallback.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_sanitizer_rejects(&self, total: u64) {
        self.counters.sanitizer_rejects.store(total, Ordering::Relaxed);
    }

    /// Registers one more degradation layer on these counters and returns
    /// its ordinal.
    pub(crate) fn register_degrade_layer(&self) -> u64 {
        self.counters.degrade_layers.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts one observed interval on `rung` for the layer with
    /// `ordinal`. Stacks are layered inside-out, so the last-registered
    /// layer is the outermost: it observes every interval, before any
    /// inner layer moves, and is the only one that counts.
    pub(crate) fn count_rung_residency(&self, ordinal: u64, rung: Rung) {
        if ordinal + 1 != self.counters.degrade_layers.load(Ordering::Relaxed) {
            return;
        }
        let rung = if self.counters.parked.load(Ordering::Relaxed) > 0 {
            Rung::SafeState
        } else {
            rung
        };
        self.counters.rung_residency[rung.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_rung_demotion(&self, to: Rung) {
        self.counters.rung_demotions.fetch_add(1, Ordering::Relaxed);
        if to == Rung::SafeState {
            self.counters.fallback_engagements.fetch_add(1, Ordering::Relaxed);
            self.counters.parked.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_rung_promotion(&self, from: Rung) {
        self.counters.rung_promotions.fetch_add(1, Ordering::Relaxed);
        if from == Rung::SafeState {
            self.counters.parked.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Sanitizer-pressure detector: whether the shared sanitizer reject total
/// rose since the previous observation. Under pressure the sample in hand
/// is a substituted stand-in recorded at an *earlier* operating point, so
/// it says little about this interval.
#[derive(Debug, Default)]
pub(crate) struct SanitizerPressure {
    last_rejects: u64,
}

impl SanitizerPressure {
    /// Whether `stats` recorded new rejects since the previous call. Call
    /// it once per observed interval.
    pub(crate) fn under_pressure(&mut self, stats: &PolicyStats) -> bool {
        let rejects = stats.sanitizer_rejects();
        let rising = rejects > self.last_rejects;
        self.last_rejects = rejects;
        rising
    }
}

// ---------------------------------------------------------------------------
// Anomaly checks
// ---------------------------------------------------------------------------

/// Throughput-collapse ratio: an interval whose VALU rate falls below
/// `COLLAPSE_RATIO × peak` clean rate is anomalous.
const COLLAPSE_RATIO: f64 = 0.02;

/// The pluggable "what counts as anomalous" half of a
/// [`DegradeLayer`](super::DegradeLayer). The layer owns the ladder state
/// machine and transition telemetry; the check owns the domain judgement.
pub trait AnomalyCheck {
    /// Judges one observation interval. Returns the anomaly label to report
    /// via `TraceEvent::FaultDetected`, or `None` for a clean interval.
    ///
    /// `granted` is the ledger's post-decision configuration for the kernel
    /// (for actuation-mismatch checks) and `parked` whether the layer sat
    /// on the safe state when the interval was observed — checks that
    /// learn from clean intervals (peak-rate tracking) or gate on
    /// actuation must respect it.
    fn verdict(
        &mut self,
        kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        granted: Option<HwConfig>,
        parked: bool,
    ) -> Option<&'static str>;

    /// Whether anomalous (or parked) samples must be withheld from the
    /// inner governor's learning loops. Counter anomalies quarantine — the
    /// sample is garbage or was produced under the pinned safe state; cap
    /// violations do not — the inner policy must keep learning from real
    /// counters to steer back under the envelope.
    fn quarantines(&self) -> bool;
}

/// Whether the granted-vs-ran actuation check fails: `cfg` ran while the
/// ledger granted something else. Parked intervals are exempt.
fn actuation_mismatch(
    armed: bool,
    granted: Option<HwConfig>,
    cfg: HwConfig,
    parked: bool,
) -> bool {
    armed && !parked && granted.is_some_and(|g| g != cfg)
}

/// Counter-plausibility anomaly check: implausible or dead samples and
/// throughput collapse relative to the kernel's best clean rate, plus an
/// optional granted-vs-ran actuation check. Quarantines.
#[derive(Debug)]
pub struct CounterCheck {
    check_actuation: bool,
    /// Best clean VALU rate per kernel, for the collapse check.
    peak_rate: HashMap<String, f64>,
}

impl CounterCheck {
    /// A check with no throughput history yet. `check_actuation` arms the
    /// actuation check; leave it off for governors whose decisions are
    /// legitimately overridden downstream (e.g. wrapped by a power-cap
    /// decorator that does not share its ledger).
    pub fn new(check_actuation: bool) -> Self {
        Self {
            check_actuation,
            peak_rate: HashMap::new(),
        }
    }
}

impl AnomalyCheck for CounterCheck {
    fn verdict(
        &mut self,
        kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        granted: Option<HwConfig>,
        parked: bool,
    ) -> Option<&'static str> {
        let rate_now = if counters.duration.value() > 0.0 {
            counters.valu_insts as f64 / counters.duration.value()
        } else {
            0.0
        };
        let peak = self.peak_rate.get(&kernel.name).copied().unwrap_or(0.0);
        let what: Option<&'static str> = if !sanitize::counters_plausible(counters) {
            Some("implausible counters")
        } else if sanitize::dead_sample(counters) {
            Some("dead counter sample")
        } else if peak > 0.0 && rate_now < COLLAPSE_RATIO * peak {
            Some("throughput collapse")
        } else if actuation_mismatch(self.check_actuation, granted, cfg, parked) {
            Some("actuation mismatch")
        } else {
            None
        };
        if what.is_none() && !parked && rate_now.is_finite() && rate_now > peak {
            self.peak_rate.insert(kernel.name.clone(), rate_now);
        }
        what
    }

    fn quarantines(&self) -> bool {
        true
    }
}

/// Power-envelope anomaly check: projected card power over the cap (with
/// the 5% enforcement tolerance), plus an optional granted-vs-ran actuation
/// check. Does not quarantine — the inner policy keeps learning so it can
/// steer back under the envelope.
pub struct CapCheck<'a> {
    power: &'a PowerModel,
    cap: Watts,
    check_actuation: bool,
    stats: PolicyStats,
    pressure: SanitizerPressure,
}

impl<'a> CapCheck<'a> {
    /// A check enforcing `cap` under `power`'s projection, accounting
    /// violations-while-parked into `stats`. `check_actuation` arms the
    /// actuation check.
    pub fn new(
        power: &'a PowerModel,
        cap: Watts,
        stats: &PolicyStats,
        check_actuation: bool,
    ) -> Self {
        Self {
            power,
            cap,
            check_actuation,
            stats: stats.clone(),
            pressure: SanitizerPressure::default(),
        }
    }
}

impl AnomalyCheck for CapCheck<'_> {
    fn verdict(
        &mut self,
        _kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        granted: Option<HwConfig>,
        parked: bool,
    ) -> Option<&'static str> {
        let activity = Activity {
            valu_activity: counters.valu_activity(),
            dram_bytes_per_sec: counters.dram_bytes_per_sec(),
            dram_traffic_fraction: counters.ic_activity,
        };
        // Like the cap decorator's accounting, a parked violation only
        // counts on a measured interval: under sanitizer pressure the
        // projection runs a stand-in sample from an earlier operating
        // point at the safe state and manufactures phantom violations. The
        // verdict itself still counts toward the park's streak.
        let pressure = self.pressure.under_pressure(&self.stats);
        // NaN projections (glitched telemetry) fail the comparison and are
        // not counted — the counter park catches implausible samples.
        let over = self.power.card_pwr(cfg, &activity).value() > self.cap.value() * 1.05;
        if over {
            if parked && !pressure {
                self.stats.count_violation_while_fallback();
            }
            Some("cap violation")
        } else if actuation_mismatch(self.check_actuation, granted, cfg, parked) {
            Some("actuation mismatch")
        } else {
            None
        }
    }

    fn quarantines(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// SanitizeLayer
// ---------------------------------------------------------------------------

/// Blueprint for the counter-sanitization decorator: every raw measurement
/// is finite/range-checked, outlier-filtered, and substituted from the last
/// good reading *before* the runtime accounts power/energy from it and
/// before any inner governor observes it (the [`Governor::condition`]
/// hook).
#[derive(Debug, Clone, Default)]
pub struct SanitizeLayer<'a> {
    config: SanitizerConfig,
    stats: PolicyStats,
    power: Option<&'a PowerModel>,
}

impl<'a> SanitizeLayer<'a> {
    /// A sanitize layer with the given tuning.
    pub fn new(config: SanitizerConfig) -> Self {
        Self {
            config,
            stats: PolicyStats::new(),
            power: None,
        }
    }

    /// Shares `stats` so rejects are counted into an external handle.
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// Arms the sanitizer's power-aware plausibility check (see
    /// [`CounterSanitizer::with_power`]).
    pub fn with_power(mut self, power: &'a PowerModel) -> Self {
        self.power = Some(power);
        self
    }
}

impl<'a> GovernorLayer<'a> for SanitizeLayer<'a> {
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a> {
        let mut sanitizer = CounterSanitizer::new(self.config);
        if let Some(power) = self.power {
            sanitizer = sanitizer.with_power(power);
        }
        Box::new(SanitizeGovernor {
            inner,
            sanitizer,
            stats: self.stats,
            trace: TraceHandle::disabled(),
        })
    }
}

/// The decorator produced by [`SanitizeLayer`].
struct SanitizeGovernor<'a> {
    inner: BoxGovernor<'a>,
    sanitizer: CounterSanitizer<'a>,
    stats: PolicyStats,
    trace: TraceHandle,
}

impl Governor for SanitizeGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.inner.decide(kernel, iteration)
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        let (time, counters) =
            self.sanitizer
                .sanitize(&kernel.name, iteration, cfg, time, counters, &self.trace);
        self.stats.record_sanitizer_rejects(self.sanitizer.rejects());
        self.inner.condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        self.inner.observe(kernel, iteration, cfg, counters);
    }
}

// ---------------------------------------------------------------------------
// TraceLayer
// ---------------------------------------------------------------------------

/// Blueprint for the trace-tap decorator: the inner governor's events are
/// teed into this layer's side [`TraceHandle`] *in addition to* whatever
/// primary handle the runtime installs — observing a stack's decisions
/// without stealing them from the main trace.
#[derive(Debug, Clone)]
pub struct TraceLayer {
    tap: TraceHandle,
}

impl TraceLayer {
    /// A layer teeing into `tap`.
    pub fn new(tap: TraceHandle) -> Self {
        Self { tap }
    }

    /// The side handle events are teed into.
    pub fn tap(&self) -> &TraceHandle {
        &self.tap
    }
}

impl<'a> GovernorLayer<'a> for TraceLayer {
    fn layer(self, mut inner: BoxGovernor<'a>) -> BoxGovernor<'a> {
        // Seed the tap immediately: a stack that never sees the runtime's
        // set_trace still records into the tap.
        inner.set_trace(TraceHandle::disabled().tee(&self.tap));
        Box::new(TraceGovernor {
            inner,
            tap: self.tap,
        })
    }
}

/// The decorator produced by [`TraceLayer`].
struct TraceGovernor<'a> {
    inner: BoxGovernor<'a>,
    tap: TraceHandle,
}

impl Governor for TraceGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace.tee(&self.tap));
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.inner.decide(kernel, iteration)
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        self.inner.condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        self.inner.observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BaselineGovernor;

    fn kernel() -> KernelProfile {
        KernelProfile::builder("k").build()
    }

    fn garbage() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: f64::NAN,
            ..CounterSample::default()
        }
    }

    fn clean() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: 60.0,
            valu_utilization_pct: 90.0,
            mem_unit_busy_pct: 30.0,
            ic_activity: 0.4,
            norm_vgpr: 0.4,
            norm_sgpr: 0.3,
            valu_insts: 1_000_000,
            dram_bytes: 1e7,
            achieved_bw_gbps: 80.0,
            occupancy_fraction: 0.8,
            l2_hit_rate: 0.5,
            ..CounterSample::default()
        }
    }

    #[test]
    fn cap_check_counts_parked_violations_only_on_measured_intervals() {
        let power = PowerModel::hd7970();
        let stats = PolicyStats::new();
        let mut check = CapCheck::new(&power, Watts(50.0), &stats, false);
        let k = kernel();
        let boost = HwConfig::max_hd7970();
        assert_eq!(check.verdict(&k, boost, &clean(), None, true), Some("cap violation"));
        assert_eq!(stats.violations_while_fallback(), 1);
        // New sanitizer rejects: the sample is a stand-in, so the verdict
        // stands but the parked violation is not counted.
        stats.record_sanitizer_rejects(2);
        assert_eq!(check.verdict(&k, boost, &clean(), None, true), Some("cap violation"));
        assert_eq!(stats.violations_while_fallback(), 1);
        // Quiet again: counted.
        assert_eq!(check.verdict(&k, boost, &clean(), None, true), Some("cap violation"));
        assert_eq!(stats.violations_while_fallback(), 2);
        // Unparked violations never count as parked ones.
        check.verdict(&k, boost, &clean(), None, false);
        assert_eq!(stats.violations_while_fallback(), 2);
    }

    #[test]
    fn actuation_check_compares_the_grant_unless_parked() {
        let mut check = CounterCheck::new(true);
        let k = kernel();
        let boost = HwConfig::max_hd7970();
        let other = HwConfig::min_hd7970();
        assert_eq!(check.verdict(&k, boost, &clean(), Some(boost), false), None);
        assert_eq!(
            check.verdict(&k, boost, &clean(), Some(other), false),
            Some("actuation mismatch")
        );
        assert_eq!(check.verdict(&k, boost, &clean(), Some(other), true), None);
        let mut unarmed = CounterCheck::new(false);
        assert_eq!(unarmed.verdict(&k, boost, &clean(), Some(other), false), None);
    }

    #[test]
    fn sanitize_layer_conditions_measurements() {
        let mut g = SanitizeLayer::new(SanitizerConfig::default())
            .layer(Box::new(BaselineGovernor::new()));
        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        let (t, c) = g.condition(&k, 0, cfg, Seconds(0.01), clean());
        assert_eq!(t, Seconds(0.01));
        assert_eq!(c, clean());
        let (_, c) = g.condition(&k, 1, cfg, Seconds(0.01), garbage());
        assert!(c.valu_busy_pct.is_finite(), "NaN must not pass the layer");
    }

    #[test]
    fn sanitize_layer_reports_rejects_through_stats() {
        let stats = PolicyStats::new();
        let mut g = SanitizeLayer::new(SanitizerConfig::default())
            .with_stats(&stats)
            .layer(Box::new(BaselineGovernor::new()));
        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        g.condition(&k, 0, cfg, Seconds(0.01), clean());
        assert_eq!(stats.sanitizer_rejects(), 0);
        g.condition(&k, 1, cfg, Seconds(0.01), garbage());
        assert!(stats.sanitizer_rejects() > 0);
    }

    #[test]
    fn ledger_records_latest_grant() {
        let ledger = DecisionLedger::new();
        assert_eq!(ledger.granted("k"), None);
        let boost = HwConfig::max_hd7970();
        ledger.grant("k", boost);
        assert_eq!(ledger.granted("k"), Some(boost));
        let min = HwConfig::min_hd7970();
        ledger.grant("k", min);
        assert_eq!(ledger.granted("k"), Some(min));
    }
}
