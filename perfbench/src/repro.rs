//! `repro`: one op is the full paper reproduction — all 32
//! `ALL_EXPERIMENTS` on a fresh `Context`, as every CLI user pays cold
//! caches. The seed picks the order the experiments run in; every
//! report's rendered bytes must match the digest recorded in
//! `repro_digests.txt`.

use crate::common::{self, Metric, OpResult, Outcome};
use crate::host::Host;
use crate::layers::Layers;
use crate::span::{Tracer, ROOT};
use crate::stats;
use harmonia_experiments::{Context, ALL_EXPERIMENTS};
use harmonia_sim::{EventModel, TimingModel, TraceModel};
use harmonia_types::{DeviceSpec, HwConfig};
use harmonia_workloads::suite;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reference digests of every report at the commit the benchmark was
/// defined on, `<id> <fnv1a-64 hex>` per line. Regenerate with
/// `--record-digests` only when a change is meant to alter a report.
const DIGESTS: &str = include_str!("../repro_digests.txt");

/// Passes the closed loop completes at least, whatever `--seconds` says.
const MIN_OPS: usize = 3;

fn digests() -> BTreeMap<&'static str, u64> {
    DIGESTS
        .lines()
        .filter_map(|l| {
            let (id, hex) = l.split_once(' ')?;
            Some((id, u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// The rendered-bytes digest of one report.
pub fn digest(report: &harmonia_experiments::Report) -> u64 {
    common::fnv1a(report.to_string().as_bytes())
}

/// Writes the digests of the current program's reports.
pub fn record_digests(path: &std::path::Path) -> std::io::Result<()> {
    let ctx = Context::new();
    let mut out = String::new();
    for id in ALL_EXPERIMENTS {
        let report = harmonia_experiments::run(&ctx, id).expect("every listed id runs");
        out.push_str(&format!("{id} {:016x}\n", digest(&report)));
    }
    std::fs::write(path, out)
}

/// Experiment order of pass `op`.
fn order(seed: u64, op: u64) -> Vec<&'static str> {
    let mut state = common::stream(seed, op);
    common::permutation(ALL_EXPERIMENTS.len(), &mut state)
        .into_iter()
        .map(|i| ALL_EXPERIMENTS[i])
        .collect()
}

/// Governor decisions in the context's evaluation matrix (5 governors ×
/// the 14-app suite): the decision count of one pass.
fn matrix_decisions(ctx: &Context) -> u64 {
    ctx.matrix()
        .iter()
        .map(|e| {
            [&e.baseline, &e.cg, &e.harmonia, &e.oracle, &e.freq_only]
                .iter()
                .map(|r| r.trace.len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// The fig10 Harmonia ED² geomean improvement (accuracy context: the
/// paper reports 12%).
fn fig10_geomean(ctx: &Context) -> f64 {
    ctx.geomean_improvement(|e| (e.baseline.ed2(), e.harmonia.ed2()), false)
}

fn check(
    reference: &BTreeMap<&str, u64>,
    id: &str,
    report: &harmonia_experiments::Report,
) -> Option<String> {
    let got = digest(report);
    match reference.get(id) {
        Some(&want) if want == got => None,
        Some(&want) => Some(format!("{id}: digest {got:016x}, reference {want:016x}")),
        None => Some(format!("{id}: no reference digest")),
    }
}

fn pass(reference: &BTreeMap<&str, u64>, ids: &[&str]) -> OpResult {
    let ctx = Context::new();
    let mut wrong = Vec::new();
    for id in ids {
        match harmonia_experiments::run(&ctx, id) {
            Some(report) => wrong.extend(check(reference, id, &report)),
            None => wrong.push(format!("{id}: unknown experiment")),
        }
    }
    OpResult {
        failure: None,
        wrong: (!wrong.is_empty()).then(|| wrong.join("; ")),
        decisions: matrix_decisions(&ctx),
    }
}

/// Set-up: a context with training set, predictor and evaluation matrix
/// (the shared sweep pool starts on the first one).
fn setup() -> Context {
    let ctx = Context::new();
    let _ = ctx.matrix();
    ctx
}

pub fn measure(seed: u64, seconds: u64, host: &Host) -> Outcome {
    let reference = digests();
    let (setup_s, ctx) = common::repeated_setup(5, setup);
    eprintln!(
        "repro: fig10 Harmonia ED² geomean {:.1}% (paper: 12%) — accuracy context, not gated",
        fig10_geomean(&ctx) * 100.0
    );
    drop(ctx);
    let lp = common::closed_loop(seconds, MIN_OPS, |i| pass(&reference, &order(seed, i)));
    common::end_to_end(setup_s, &lp, host)
}

/// The traced per-layer run: untraced and traced passes alternate over the
/// same experiment order; the boost-config model calls `ablation-models`
/// makes are replayed outside the op so its share splits by model.
pub fn traced(seed: u64, seconds: u64, host: &Host, tracer: &Tracer, names: &Names) -> Outcome {
    let reference = digests();
    let gpu = DeviceSpec::hd7970().gpu;
    let (interval, event, trace) = (
        harmonia_sim::IntervalModel::new(gpu),
        EventModel::new(gpu),
        TraceModel::new(gpu),
    );
    let cfg = HwConfig::max_on(&gpu.grid);
    let kernels = suite::training_kernels();
    let mut pairs = Vec::new();
    let mut wrong = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs() < seconds || pairs.len() < MIN_OPS {
        let ids = order(seed, op);
        let t = Instant::now();
        let untraced = pass(&reference, &ids);
        let untraced_s = t.elapsed().as_secs_f64();
        wrong.extend(untraced.wrong);
        let t = Instant::now();
        tracer.time("repro.op", ROOT, op, |root| {
            let ctx = Context::new();
            tracer.time("repro.context.training", root, op, |_| {
                let _ = ctx.training();
            });
            tracer.time("repro.context.predictor", root, op, |_| {
                let _ = ctx.predictor();
            });
            tracer.time("repro.context.matrix", root, op, |_| {
                let _ = ctx.matrix();
            });
            for id in &ids {
                let report = tracer.time(names.exp(id), root, op, |_| {
                    harmonia_experiments::run(&ctx, id)
                });
                match report {
                    Some(r) => wrong.extend(check(&reference, id, &r)),
                    None => wrong.push(format!("{id}: unknown experiment")),
                }
            }
        });
        pairs.push((untraced_s, t.elapsed().as_secs_f64()));
        tracer.time("repro.sim", ROOT, op, |sim| {
            for (_, k) in &kernels {
                tracer.time("repro.sim.interval.simulate", sim, op, |_| {
                    interval.simulate(cfg, k, 0)
                });
                tracer.time("repro.sim.event.simulate", sim, op, |_| {
                    event.simulate(cfg, k, 0)
                });
                tracer.time("repro.sim.trace.simulate", sim, op, |_| {
                    trace.simulate(cfg, k, 0)
                });
            }
        });
        op += 1;
    }
    let layers = Layers::new(&tracer.spans(), "repro.");
    let per_op_ms = |name: &str| layers.self_per_op_ns(name) / 1e6;
    let mut metrics = Vec::new();
    for name in [
        "repro.context.training",
        "repro.context.predictor",
        "repro.context.matrix",
    ] {
        metrics.push(Metric::new(format!("{name}_ms"), per_op_ms(name), "ms"));
    }
    for id in ALL_EXPERIMENTS {
        metrics.push(Metric::new(
            format!("{}_ms", names.exp(id)),
            per_op_ms(names.exp(id)),
            "ms",
        ));
    }
    let (event_ms, trace_ms) = (
        per_op_ms("repro.sim.event.simulate"),
        per_op_ms("repro.sim.trace.simulate"),
    );
    metrics.push(Metric::new("repro.sim.event.simulate_ms", event_ms, "ms"));
    metrics.push(Metric::new("repro.sim.trace.simulate_ms", trace_ms, "ms"));
    metrics.push(Metric::new(
        "repro.sim.interval.simulate_us",
        per_op_ms("repro.sim.interval.simulate") * 1e3,
        "us",
    ));
    let op_ms = layers.dur_per_op_ns("repro.op") / 1e6;
    let ablation_ms = per_op_ms(names.exp("ablation-models"));
    let share = ablation_ms / op_ms * 100.0;
    metrics.push(Metric::new(
        "repro.exp.ablation-models.share_pct",
        share,
        "%",
    ));
    metrics.push(Metric::new(
        "repro.trace_overhead_pct",
        common::paired_overhead_pct(&pairs),
        "%",
    ));
    layers.print_breakdown("repro.op", &host.tag());
    let untraced_ms: Vec<f64> = pairs.iter().map(|p| p.0 * 1e3).collect();
    eprintln!(
        "  repro: {} pass pairs, untraced pass p50 {:.1} ms; ablation-models is {share:.1}% of a traced pass; \
         replayed outside the op, its boost-config calls take event {event_ms:.1} ms + trace {trace_ms:.1} ms of its {ablation_ms:.1} ms  [{}]",
        pairs.len(),
        stats::median(&untraced_ms).unwrap_or(f64::NAN),
        host.tag()
    );
    common::traced_outcome(metrics, wrong, pairs.len() as u64, 0)
}

/// Leaked, process-lifetime span names for the 32 experiment ids.
pub struct Names {
    exp: BTreeMap<&'static str, &'static str>,
}

impl Names {
    pub fn new() -> Self {
        let exp = ALL_EXPERIMENTS
            .iter()
            .map(|id| (*id, &*Box::leak(format!("repro.exp.{id}").into_boxed_str())))
            .collect();
        Self { exp }
    }

    pub fn exp(&self, id: &str) -> &'static str {
        self.exp[id]
    }
}
