//! `chaos`: one op is one seeded record/replay fault case of the
//! `hardened:ladder` stack on the hd7970. The seed picks the fault plan
//! (`campaign_cmd::generate_plan`) and the app (full suite). A case runs
//! record → `codec::encode` → `codec::decode` → `rr_cmd::replay_session`
//! → diff, and fails when it breaks a campaign invariant:
//! cap-while-parked, grid-valid (on the case's own device grid), finite
//! accounting or bit-exact replay.
//!
//! No timed case fails. Two other kinds of case do, at the commit this
//! benchmark was defined on: on the v100, a case whose trace holds an
//! actuation resolution fails replay (the replayer checks configurations
//! against the hd7970 grid), and about one `hardened:capped` case in a
//! thousand on the hd7970 breaks cap-while-parked. Timed, they would fail
//! by a count that varies with the run's length, so the traced run
//! counts them instead, over a fixed prefix of the seed's cases
//! ([`PROBE_CASES`]): `chaos.v100.failed_cases` and
//! `chaos.capped.failed_cases`, with the reasons on stderr. The traced run
//! also traces `hardened:capped` cases for the capped stack's layer costs.

use crate::common::{self, Metric, OpResult, Outcome};
use crate::host::Host;
use crate::layers::Layers;
use crate::span::{SpanId, Tracer, ROOT};
use crate::stats;
use crate::wrap::{GovSpans, TimedGovernor, TimedModel};
use harmonia::governor::{Governor, PolicySpec, PolicyStats};
use harmonia::metrics::RunReport;
use harmonia::runtime::{RetryPolicy, Runtime};
use harmonia::sanitize::{CounterSanitizer, SanitizerConfig};
use harmonia::telemetry::TraceHandle;
use harmonia_experiments::{campaign_cmd, rr_cmd, Context};
use harmonia_power::Activity;
use harmonia_rr::{codec, differ, CfgPoint, Recorder, ReplayModel, Replayer, SessionEvent};
use harmonia_sim::{CounterSample, FaultPlan, TimingModel};
use harmonia_types::{DeviceSpec, GridSpec, HwConfig, Seconds, Watts};
use harmonia_workloads::{suite, Application};
use std::hint::black_box;
use std::time::Instant;

/// The chaos cap every case's policy enforces.
const CAP: Watts = Watts(185.0);

/// Cases the closed loop completes at least.
const MIN_OPS: usize = 64;

/// Traced cases whose counts are reported: a fixed prefix of the seed's
/// case sequence, so every count repeats exactly for a seed.
const COUNTED_CASES: u64 = 64;

/// Upper bound on traced cases (about 180 spans each).
const MAX_TRACED: u64 = 600;

/// Cases per kind whose failures the traced run counts.
const PROBE_CASES: u64 = 8192;

/// Index of the hd7970 context in [`contexts`]; the timed cases run there.
pub const HD7970: usize = 0;

/// Index of the v100 context in [`contexts`].
pub const V100: usize = 1;

/// The timed cases' stack.
pub const LADDER: PolicySpec = PolicySpec::HardenedLadder(CAP);

/// The stack whose cases the traced run probes and traces beside them.
pub const CAPPED: PolicySpec = PolicySpec::HardenedCapped(CAP);

/// One seeded case.
pub struct Case {
    pub device: usize,
    pub app: Application,
    pub policy: PolicySpec,
    pub plan: FaultPlan,
}

impl Case {
    pub fn new(seed: u64, index: u64, device: usize, policy: PolicySpec) -> Self {
        let apps = suite::all();
        let mut state = common::stream(seed, index ^ 0xC4A0_5000_0000_0000);
        let app = apps[(common::splitmix64(&mut state) % apps.len() as u64) as usize].clone();
        Self {
            device,
            app,
            policy,
            plan: campaign_cmd::generate_plan(seed, index),
        }
    }

    fn ladder(&self) -> bool {
        matches!(self.policy, PolicySpec::HardenedLadder(_))
    }
}

/// Contexts for both devices, predictors fitted.
pub fn contexts() -> [Context; 2] {
    let ctxs = [
        Context::new(),
        Context::for_device(DeviceSpec::lookup("v100").expect("v100 is in the catalog")),
    ];
    for ctx in &ctxs {
        let _ = ctx.predictor();
    }
    ctxs
}

fn on_grid(grid: &GridSpec, c: CfgPoint) -> bool {
    grid.cu_levels().contains(&c.cu)
        && grid.cu_freq_levels().iter().any(|f| f.value() == c.cu_mhz)
        && grid
            .mem_freq_levels()
            .iter()
            .any(|f| f.value() == c.mem_mhz)
}

fn configs(ev: &SessionEvent) -> Vec<CfgPoint> {
    match ev {
        SessionEvent::Decision { cfg, .. } | SessionEvent::Sample { cfg, .. } => vec![*cfg],
        SessionEvent::Actuation { wanted, actual, .. }
        | SessionEvent::ActuationResolved { wanted, actual, .. } => {
            vec![*wanted, *actual]
        }
        _ => Vec::new(),
    }
}

fn finite_end(events: &[SessionEvent]) -> bool {
    events.iter().all(|ev| match ev {
        SessionEvent::SessionEnd {
            total_time_s,
            card_energy_j,
            gpu_energy_j,
            mem_energy_j,
        } => [total_time_s, card_energy_j, gpu_energy_j, mem_energy_j]
            .iter()
            .all(|x| x.is_finite()),
        _ => true,
    })
}

fn count(events: &[SessionEvent], label: &str) -> u64 {
    events.iter().filter(|e| e.label() == label).count() as u64
}

/// Everything one case produced, for the checks and the counts.
pub(crate) struct CaseRun {
    pub events: Vec<SessionEvent>,
    bytes: usize,
    run: RunReport,
    /// The recording policy stack's counters.
    stats: PolicyStats,
    pub replay_events: Vec<SessionEvent>,
    replay_error: Option<String>,
    diverged: bool,
}

/// The campaign invariants plus the benchmark's own consistency checks.
fn verdict(grid: &GridSpec, decoded: Result<&[SessionEvent], String>, c: &CaseRun) -> OpResult {
    let mut failed = Vec::new();
    let mut wrong = Vec::new();
    if c.stats.violations_while_fallback() > 0 {
        failed.push("cap-while-parked".to_string());
    }
    if c.events
        .iter()
        .flat_map(configs)
        .any(|cfg| !on_grid(grid, cfg))
    {
        failed.push("grid-valid".to_string());
    }
    if !(c.run.ed2().is_finite() && finite_end(&c.events)) {
        failed.push("finite-accounting".to_string());
    }
    match (&c.replay_error, c.diverged) {
        (Some(e), _) => failed.push(format!("replay-bit-exact ({e})")),
        // A divergence the replayer did not report is a wrong output.
        (None, true) => wrong.push("replay diverged without a replay error".to_string()),
        (None, false) => {}
    }
    match decoded {
        Ok(d) if d == c.events.as_slice() => {}
        Ok(_) => wrong.push("codec round trip changed the events".to_string()),
        Err(e) => wrong.push(format!("codec round trip failed: {e}")),
    }
    OpResult {
        failure: (!failed.is_empty()).then(|| failed.join("+")),
        wrong: (!wrong.is_empty()).then(|| wrong.join("; ")),
        decisions: count(&c.events, "decision"),
    }
}

/// The untraced op, through the program's own record and replay entry
/// points.
pub(crate) fn run_case(ctxs: &[Context; 2], case: &Case) -> (OpResult, CaseRun) {
    let ctx = &ctxs[case.device];
    let rec = rr_cmd::record_session_with(
        ctx,
        &case.app.name,
        case.policy,
        Some(&case.plan),
        Some(RetryPolicy::default()),
    )
    .expect("suite apps record");
    let decoded = codec::decode(&rec.bytes).map_err(|e| e.to_string());
    let replayed = decoded
        .as_deref()
        .map_err(Clone::clone)
        .and_then(|d| rr_cmd::replay_session(ctx, d));
    let (replay_events, replay_error, diverged) = match replayed {
        Ok(r) => (
            r.events,
            r.replay_error.map(|e| e.to_string()),
            r.divergence.is_some(),
        ),
        Err(e) => (Vec::new(), Some(e), true),
    };
    let c = CaseRun {
        bytes: rec.bytes.len(),
        run: rec.run,
        stats: rec.stats,
        events: rec.events,
        replay_events,
        replay_error,
        diverged,
    };
    (
        verdict(
            ctx.device().grid(),
            decoded.as_deref().map_err(Clone::clone),
            &c,
        ),
        c,
    )
}

fn session_start(case: &Case) -> SessionEvent {
    SessionEvent::SessionStart {
        app: case.app.name.clone(),
        policy: case.policy.name(),
        fault_seed: case.plan.seed(),
    }
}

/// Records `case` the way `rr_cmd::record_session_with` does, over any
/// governor and inner model (the wrappers go here).
pub(crate) fn record(
    ctx: &Context,
    case: &Case,
    governor: &mut dyn Governor,
    model: &dyn TimingModel,
    telemetry: Option<TraceHandle>,
) -> (Vec<SessionEvent>, RunReport) {
    let recorder = Recorder::new();
    recorder.record(session_start(case));
    let faulty = harmonia_sim::FaultyModel::new(model, case.plan.clone());
    let mut rt = Runtime::new(&faulty, ctx.power())
        .with_faults(&case.plan)
        .with_recorder(recorder.clone())
        .with_actuator(RetryPolicy::default());
    if let Some(t) = telemetry {
        rt = rt.with_telemetry(t);
    }
    let run = rt.run(&case.app, governor);
    (recorder.events(), run)
}

/// Replays `recorded` the way `rr_cmd::replay_session` does, over any
/// governor, with a span under `span` per replay-model call.
fn replay(
    ctx: &Context,
    case: &Case,
    recorded: &[SessionEvent],
    governor: &mut dyn Governor,
    (tracer, span, op): (&Tracer, SpanId, u64),
) -> (Vec<SessionEvent>, Option<String>) {
    let replayer = Replayer::new(recorded.to_vec());
    let model = TimedModel::traced(
        ReplayModel::new(replayer.clone(), *ctx.model().gpu()),
        tracer,
        "chaos.rr.replay_model",
    );
    model.set_parent(span, op);
    let recorder = Recorder::new();
    recorder.record(session_start(case));
    Runtime::new(&model, ctx.power())
        .with_replay(replayer.clone())
        .with_recorder(recorder.clone())
        .run(&case.app, governor);
    (recorder.events(), replayer.error().map(|e| e.to_string()))
}

pub fn measure(seed: u64, seconds: u64, host: &Host) -> Outcome {
    let (setup_s, ctxs) = common::repeated_setup(15, contexts);
    let lp = common::closed_loop(seconds, MIN_OPS, |i| {
        run_case(&ctxs, &Case::new(seed, i, HD7970, LADDER)).0
    });
    eprintln!("chaos: {} hd7970 cases", lp.latencies_s.len());
    common::end_to_end(setup_s, &lp, host)
}

fn gov_spans(case: &Case) -> GovSpans {
    if case.ladder() {
        GovSpans {
            decide: "chaos.gov.ladder.decide",
            condition: "chaos.gov.ladder.condition",
            observe: "chaos.gov.ladder.observe",
        }
    } else {
        GovSpans {
            decide: "chaos.gov.capped.decide",
            condition: "chaos.gov.capped.condition",
            observe: "chaos.gov.capped.observe",
        }
    }
}

/// One traced op: the same case as [`run_case`], through [`record`] and
/// [`replay`] with every layer wrapped.
pub(crate) fn traced_case(
    ctxs: &[Context; 2],
    case: &Case,
    tracer: &Tracer,
    op: u64,
) -> (OpResult, CaseRun, u64) {
    let ctx = &ctxs[case.device];
    let names = gov_spans(case);
    tracer.time("chaos.op", ROOT, op, |root| {
        let sim = TimedModel::traced(ctx.model(), tracer, "chaos.sim.simulate");
        let (events, run, stats, gov_ns) = tracer.time("chaos.record", root, op, |span: SpanId| {
            sim.set_parent(span, op);
            let policy = tracer.time("chaos.policy.build", span, op, |_| ctx.policy(case.policy));
            let mut gov = TimedGovernor::new(policy.governor, tracer, names, span, op);
            let (events, run) = record(ctx, case, &mut gov, &sim, None);
            (events, run, policy.stats, gov.busy_ns())
        });
        let bytes = tracer.time("chaos.rr.encode", root, op, |_| codec::encode(&events));
        let decoded = tracer
            .time("chaos.rr.decode", root, op, |_| codec::decode(&bytes))
            .map_err(|e| e.to_string());
        let recorded = decoded.as_deref().unwrap_or(&events);
        let (replay_events, replay_error) = tracer.time("chaos.replay", root, op, |span| {
            let policy = tracer.time("chaos.policy.build", span, op, |_| ctx.policy(case.policy));
            let mut gov = TimedGovernor::new(policy.governor, tracer, names, span, op);
            replay(ctx, case, recorded, &mut gov, (tracer, span, op))
        });
        let diverged = tracer.time("chaos.rr.diff", root, op, |_| {
            differ::first_divergence(recorded, &replay_events).is_some()
        });
        tracer.time("chaos.check", root, op, |_| {
            let c = CaseRun {
                bytes: bytes.len(),
                run,
                stats,
                events,
                replay_events,
                replay_error,
                diverged,
            };
            let r = verdict(
                ctx.device().grid(),
                decoded.as_deref().map_err(Clone::clone),
                &c,
            );
            (r, c, gov_ns)
        })
    })
}

/// Inputs captured from recorded hd7970 samples, for isolated layer costs.
struct Captured {
    kernel: String,
    iteration: u64,
    cfg: HwConfig,
    time: Seconds,
    counters: CounterSample,
}

fn capture(events: &[SessionEvent], out: &mut Vec<Captured>) {
    for ev in events {
        if let SessionEvent::Sample {
            kernel,
            iteration,
            cfg,
            time_s,
            counters,
            ..
        } = ev
        {
            if let Some(cfg) = cfg.to_hw() {
                out.push(Captured {
                    kernel: kernel.clone(),
                    iteration: *iteration,
                    cfg,
                    time: Seconds(*time_s),
                    counters: *counters,
                });
            }
        }
    }
}

/// Median ns per call of `f` over every captured input (15 repetitions).
fn per_call_ns(inputs: &[Captured], mut f: impl FnMut(&Captured)) -> f64 {
    let reps: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for c in inputs {
                f(black_box(c));
            }
            t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64
        })
        .collect();
    stats::median(&reps).unwrap_or(f64::NAN)
}

fn activity(c: &CounterSample) -> Activity {
    Activity {
        valu_activity: c.valu_activity(),
        dram_bytes_per_sec: c.dram_bytes_per_sec(),
        dram_traffic_fraction: c.ic_activity,
    }
}

/// How many of the seed's first [`PROBE_CASES`] cases of one kind fail,
/// the first reasons printed. Untimed, and not ops of the run.
fn failed_cases(
    ctxs: &[Context; 2],
    kind: &str,
    case: impl Fn(u64) -> Case,
    wrong: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for i in 0..PROBE_CASES {
        let (r, _) = run_case(ctxs, &case(i));
        wrong.extend(r.wrong.map(|w| format!("{kind} case {i}: {w}")));
        if let Some(f) = r.failure {
            if failed < 3 {
                eprintln!("  {kind} case {i} failed: {f}");
            }
            failed += 1;
        }
    }
    eprintln!("  chaos: {failed} of the first {PROBE_CASES} {kind} cases fail");
    failed
}

/// Runs `case` untraced and traced as op `op`, and checks that the two
/// record and replay the same streams with the same verdict.
fn paired_case(
    ctxs: &[Context; 2],
    case: &Case,
    tracer: &Tracer,
    op: u64,
    wrong: &mut Vec<String>,
) -> (OpResult, CaseRun, u64, (f64, f64)) {
    let t = Instant::now();
    let (plain, plain_run) = run_case(ctxs, case);
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (r, c, ns) = traced_case(ctxs, case, tracer, op);
    let traced_s = t.elapsed().as_secs_f64();
    if c.events != plain_run.events || c.replay_events != plain_run.replay_events {
        wrong.push(format!(
            "case {op}: wrapped and unwrapped event streams differ"
        ));
    }
    if r.failure != plain.failure {
        wrong.push(format!(
            "case {op}: wrapped verdict {:?}, unwrapped {:?}",
            r.failure, plain.failure
        ));
    }
    wrong.extend(r.wrong.as_ref().map(|w| format!("case {op}: {w}")));
    (r, c, ns, (untraced_s, traced_s))
}

/// The traced per-layer run: each case runs untraced (the end-to-end op),
/// then traced, then twice more unwrapped — without and with decision
/// telemetry. Then [`COUNTED_CASES`] `hardened:capped` cases run traced
/// for the capped stack's layers, and the failure probes run.
pub fn traced(seed: u64, seconds: u64, host: &Host, tracer: &Tracer) -> Outcome {
    let ctxs = contexts();
    let (mut wrong, mut failed) = (Vec::new(), 0u64);
    let mut pairs = Vec::new();
    let mut telemetry_pairs = Vec::new();
    let (mut resolutions, mut rejects, mut bytes, mut residency) = (0u64, 0u64, 0u64, [0u64; 4]);
    let (mut gov_ns, mut sim_s) = (0u64, 0.0f64);
    let mut captured = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while (start.elapsed().as_secs() < seconds && op < MAX_TRACED) || op < COUNTED_CASES {
        let case = Case::new(seed, op, HD7970, LADDER);
        let (r, c, ns, pair) = paired_case(&ctxs, &case, tracer, op, &mut wrong);
        pairs.push(pair);
        failed += u64::from(r.failure.is_some());
        gov_ns += ns;
        sim_s += c.run.total_time.value();
        let ctx = &ctxs[case.device];
        let timed_record = |telemetry: Option<TraceHandle>| {
            let mut gov = ctx.policy(case.policy).governor;
            let t = Instant::now();
            let (events, _) = record(ctx, &case, &mut gov, ctx.model(), telemetry);
            (t.elapsed().as_secs_f64(), events)
        };
        let (off_s, off_events) = timed_record(None);
        let (on_s, on_events) = timed_record(Some(TraceHandle::new()));
        telemetry_pairs.push((off_s, on_s));
        if off_events != c.events || on_events != c.events {
            wrong.push(format!("case {op}: telemetry changed the recorded session"));
        }
        if op < COUNTED_CASES {
            resolutions += count(&c.events, "actuation-resolved");
            rejects += c.stats.sanitizer_rejects();
            bytes += c.bytes as u64;
            for (total, n) in residency.iter_mut().zip(c.stats.rung_residency()) {
                *total += n;
            }
            capture(&c.events, &mut captured);
        }
        op += 1;
    }
    for i in 0..COUNTED_CASES {
        let case = Case::new(seed, i, HD7970, CAPPED);
        paired_case(&ctxs, &case, tracer, op + i, &mut wrong);
    }
    let v100_failed = failed_cases(
        &ctxs,
        "v100",
        |i| Case::new(seed, i, V100, if i.is_multiple_of(2) { LADDER } else { CAPPED }),
        &mut wrong,
    );
    let capped_failed = failed_cases(
        &ctxs,
        "hd7970 hardened:capped",
        |i| Case::new(seed, i, HD7970, CAPPED),
        &mut wrong,
    );
    let layers = Layers::new(&tracer.spans(), "chaos.");
    let us = |name: &str| layers.median_call_ns(name) / 1e3;
    let per_op_us = |name: &str| layers.self_per_op_ns(name) / 1e3;
    let (predictor, power) = (ctxs[0].predictor(), ctxs[0].power());
    let predict_ns = per_call_ns(&captured, |c| {
        black_box(predictor.predict(&c.counters));
    });
    let disabled = TraceHandle::disabled();
    let sanitize_ns = {
        let mut sanitizer = CounterSanitizer::new(SanitizerConfig::default()).with_power(power);
        per_call_ns(&captured, |c| {
            black_box(sanitizer.sanitize(
                &c.kernel,
                c.iteration,
                c.cfg,
                c.time,
                c.counters,
                &disabled,
            ));
        })
    };
    let card_pwr_ns = per_call_ns(&captured, |c| {
        black_box(power.card_pwr(c.cfg, &activity(&c.counters)));
    });
    let mut metrics = Vec::new();
    for policy in ["capped", "ladder"] {
        for hook in ["decide", "condition", "observe"] {
            let name = format!("chaos.gov.{policy}.{hook}");
            metrics.push(Metric::new(format!("{name}_us"), us(&name), "us"));
        }
    }
    let rungs = ["full", "cg_only", "freq_only", "safe"];
    metrics.extend([
        Metric::new("chaos.sim.simulate_us", us("chaos.sim.simulate"), "us"),
        Metric::new(
            "chaos.runtime.self_us",
            per_op_us("chaos.record") + per_op_us("chaos.replay"),
            "us",
        ),
        Metric::new(
            "chaos.rr.replay_model_us",
            us("chaos.rr.replay_model"),
            "us",
        ),
        Metric::new("chaos.rr.encode_us", per_op_us("chaos.rr.encode"), "us"),
        Metric::new("chaos.rr.decode_us", per_op_us("chaos.rr.decode"), "us"),
        Metric::new("chaos.rr.diff_us", per_op_us("chaos.rr.diff"), "us"),
        Metric::new(
            "chaos.rr.bytes_per_case",
            bytes as f64 / COUNTED_CASES as f64,
            "B",
        ),
        Metric::new("chaos.actuation.resolutions", resolutions as f64, "count"),
        Metric::new("chaos.sanitizer.rejects", rejects as f64, "count"),
        Metric::new("chaos.v100.failed_cases", v100_failed as f64, "count"),
        Metric::new("chaos.capped.failed_cases", capped_failed as f64, "count"),
    ]);
    for (rung, n) in rungs.iter().zip(residency) {
        metrics.push(Metric::new(
            format!("chaos.ladder.rung_residency.{rung}"),
            n as f64,
            "count",
        ));
    }
    metrics.extend([
        Metric::new(
            "chaos.gov.host_per_sim_ppm",
            gov_ns as f64 / 1e9 / sim_s * 1e6,
            "ppm",
        ),
        Metric::new("layer.predictor.predict_ns", predict_ns, "ns"),
        Metric::new("layer.sanitize_ns", sanitize_ns, "ns"),
        Metric::new("layer.power.card_pwr_ns", card_pwr_ns, "ns"),
        Metric::new(
            "chaos.telemetry.on_overhead_pct",
            common::paired_overhead_pct(&telemetry_pairs),
            "%",
        ),
        Metric::new(
            "chaos.trace_overhead_pct",
            common::paired_overhead_pct(&pairs),
            "%",
        ),
    ]);
    layers.print_breakdown("chaos.op", &host.tag());
    eprintln!(
        "  chaos: {op} traced cases; counts over the first {COUNTED_CASES}; {} captured hd7970 samples for isolated layer costs  [{}]",
        captured.len(),
        host.tag()
    );
    common::traced_outcome(metrics, wrong, op, failed)
}
