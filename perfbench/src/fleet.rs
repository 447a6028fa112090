//! `fleet`: one op is one warm `FleetScheduler::run_mixed` of 1024 capped
//! devices. The seed gives each device a class (hd7970 or v100) and an
//! app from the 14-app suite, so demands differ and water-filling does
//! real work. The decision and partition path at scale, with almost no
//! simulation.

use crate::common::{self, Metric, OpResult, Outcome};
use crate::host::Host;
use crate::layers::Layers;
use crate::span::{Tracer, ROOT};
use crate::wrap::TimedModel;
use harmonia_fleet::{
    ClusterGovernor, DeviceDemand, DeviceReport, DeviceSession, FleetReport, FleetScheduler,
    FleetSpec,
};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{IntervalModel, TimingModel};
use harmonia_types::{DeviceSpec, Watts};
use harmonia_workloads::{suite, Application};
use std::sync::Mutex;
use std::time::Instant;

pub const DEVICES: usize = 1024;
pub const TICKS: u64 = 16;

/// The global cap as a share of the fleet's uncapped peak draw. At 1.0 the
/// cap still binds — the sum of per-device demands exceeds the fleet peak,
/// so water-filling grants range from about 90 W to 265 W — and no device
/// breaks its grant at the defining commit.
pub const CAP_SHARE: f64 = 1.0;

/// A tighter share, run once in the traced run: there some devices draw
/// more than 5% above their grant (`fleet.binding_cap.device_violations`).
const TIGHT_CAP_SHARE: f64 = 0.9;

/// Warm runs the closed loop completes at least.
const MIN_OPS: usize = 5;

/// Upper bound on traced ops (about 16.5k spans each).
const MAX_TRACED: u64 = 10;

/// The two device classes' models; class 0 is hd7970, class 1 is v100.
pub struct Classes<M> {
    models: [M; 2],
    powers: [PowerModel; 2],
}

impl Classes<IntervalModel> {
    pub fn new() -> Self {
        Self::map(IntervalModel::new)
    }
}

impl<M: TimingModel> Classes<M> {
    pub fn map(wrap: impl Fn(harmonia_sim::GpuDescriptor) -> M) -> Self {
        let specs = [
            DeviceSpec::hd7970(),
            DeviceSpec::lookup("v100").expect("v100 is in the catalog"),
        ];
        Self {
            models: [wrap(specs[0].gpu), wrap(specs[1].gpu)],
            powers: [
                PowerModel::for_device(&specs[0]),
                PowerModel::for_device(&specs[1]),
            ],
        }
    }

    pub fn models(&self) -> &[M; 2] {
        &self.models
    }

    fn scheduler(&self, spec: FleetSpec) -> FleetScheduler<'_> {
        FleetScheduler::new(&self.models[0], &self.powers[0], spec)
            .with_class(&self.models[1], &self.powers[1])
            .with_ticks(TICKS)
    }

    /// A capped scheduler for `fleet`, its cap `share` of the peak draw of
    /// an uncapped (oracle) run of the same fleet.
    pub fn capped_scheduler(
        &self,
        fleet: &[(usize, Application)],
        share: f64,
    ) -> FleetScheduler<'_> {
        let peak = self
            .scheduler(FleetSpec::Oracle)
            .run_mixed(fleet)
            .report
            .max_cluster_power_w;
        self.scheduler(FleetSpec::Capped(Some(Watts(share * peak))))
    }
}

/// The seeded fleet: `(class, app)` per device.
pub fn assignments(seed: u64, devices: usize) -> Vec<(usize, Application)> {
    let apps = suite::all();
    let mut state = common::stream(seed, 0xF1EE7);
    (0..devices)
        .map(|_| {
            let class = (common::splitmix64(&mut state) % 2) as usize;
            let app = apps[(common::splitmix64(&mut state) % apps.len() as u64) as usize].clone();
            (class, app)
        })
        .collect()
}

/// The canonical report without its store lines: the shared store's
/// cache and plan counters are cumulative across runs of one scheduler,
/// every other line must repeat exactly.
fn canonical_without_store(report: &FleetReport) -> String {
    report
        .canonical()
        .lines()
        .filter(|l| !l.starts_with("cache ") && !l.starts_with("plans "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn violations(report: &FleetReport) -> Option<String> {
    let (ticks, devices) = (
        report.cluster_violation_ticks,
        report.total_device_violations(),
    );
    (ticks > 0 || devices > 0 || report.infeasible_ticks > 0).then(|| {
        format!(
            "{ticks} cluster-violation ticks, {devices} device cap violations, {} infeasible ticks",
            report.infeasible_ticks
        )
    })
}

pub fn measure(seed: u64, seconds: u64, host: &Host) -> Outcome {
    let fleet = assignments(seed, DEVICES);
    // Set-up: both classes' models, the uncapped run that sets the cap, and
    // the capped scheduler's cold run (the cold plan-store sweeps);
    // repeated, each on fresh stores.
    let mut cold_canonicals = Vec::new();
    let (setup_s, classes) = common::repeated_setup(9, || {
        let classes = Classes::new();
        let cold = classes
            .capped_scheduler(&fleet, CAP_SHARE)
            .run_mixed(&fleet);
        cold_canonicals.push(cold.report.canonical());
        classes
    });
    let sched = classes.capped_scheduler(&fleet, CAP_SHARE);
    let cold = sched.run_mixed(&fleet).report;
    cold_canonicals.push(cold.canonical());
    let reference = canonical_without_store(&cold);
    let cold_differ = cold_canonicals.iter().any(|c| *c != cold_canonicals[0]);
    let finals: Vec<f64> = cold
        .per_device
        .iter()
        .filter_map(|d| d.final_cap_w)
        .collect();
    eprintln!(
        "fleet: {DEVICES} devices ({} v100), {TICKS} ticks, cap {:.0} W, max draw {:.0} W, final grants {:.1}–{:.1} W, {} kernels planned",
        fleet.iter().filter(|(c, _)| *c == 1).count(),
        cold.global_cap_w.unwrap_or(f64::NAN),
        cold.max_cluster_power_w,
        finals.iter().copied().fold(f64::INFINITY, f64::min),
        finals.iter().copied().fold(0.0, f64::max),
        cold.unique_kernels,
    );
    let mut lp = common::closed_loop(seconds, MIN_OPS, |_| {
        let report = sched.run_mixed(&fleet).report;
        let wrong = (canonical_without_store(&report) != reference)
            .then(|| "canonical report differs from the first run of this seed".to_string());
        OpResult {
            failure: violations(&report),
            wrong,
            decisions: report.total_decisions(),
        }
    });
    if cold_differ {
        lp.wrong.push("cold runs of one seed differ".to_string());
    }
    common::end_to_end(setup_s, &lp, host)
}

/// What one manually driven run produced.
pub(crate) struct Driven {
    per_device: Vec<DeviceReport>,
    cluster_violation_ticks: u64,
    infeasible_ticks: u64,
    max_cluster_power_w: f64,
}

/// One fleet run driven tick by tick from the public partition and step
/// API, with a span per phase — the same three phases
/// `FleetScheduler::run_mixed` runs, on the same (warm) store.
pub(crate) fn drive(
    sched: &FleetScheduler<'_>,
    fleet: &[(usize, Application)],
    tracer: &Tracer,
    op: u64,
) -> Driven {
    tracer.time("fleet.op", ROOT, op, |root| {
        let store = sched.store();
        let devices = fleet.len();
        let cap = sched
            .spec()
            .global_cap(devices)
            .expect("the benchmark fleet is capped");
        let cluster = ClusterGovernor::new(cap);
        let conservative: Vec<(f64, f64)> = (0..store.classes())
            .map(|c| {
                let power = store.power_of(c);
                let busy = Activity::streaming_on(store.grid_of(c), 1.0, 1.0);
                (
                    power.card_pwr(store.floor_of(c), &busy).value(),
                    power.card_pwr(store.boost_of(c), &busy).value(),
                )
            })
            .collect();
        let mut telemetry: Vec<DeviceDemand> = fleet
            .iter()
            .map(|&(class, _)| DeviceDemand {
                floor: conservative[class].0,
                demand: conservative[class].1,
                weight: 0.0,
            })
            .collect();
        let sessions: Vec<Mutex<DeviceSession<'_, '_>>> = fleet
            .iter()
            .enumerate()
            .map(|(id, (class, app))| {
                Mutex::new(DeviceSession::capped_in_class(
                    id,
                    *class,
                    app.clone(),
                    store,
                    cap * (1.0 / devices as f64),
                ))
            })
            .collect();
        let mut out = Driven {
            per_device: Vec::new(),
            cluster_violation_ticks: 0,
            infeasible_ticks: 0,
            max_cluster_power_w: 0.0,
        };
        for tick in 0..TICKS {
            tracer.time("fleet.tick", root, op, |tick_span| {
                tracer.time("fleet.partition", tick_span, op, |_| {
                    let alloc = cluster.partition(&telemetry);
                    out.infeasible_ticks += u64::from(alloc.infeasible);
                    for (session, cap) in sessions.iter().zip(&alloc.caps) {
                        session.lock().expect("no step panicked").set_cap(*cap);
                    }
                });
                let outcomes = tracer.time("fleet.step", tick_span, op, |step| {
                    harmonia_sim::sweep::run_indexed_on(
                        harmonia_sim::pool::shared(),
                        devices,
                        devices,
                        |i| {
                            tracer.time("fleet.step.device", step, op, |_| {
                                sessions[i].lock().expect("no step panicked").step(tick)
                            })
                        },
                    )
                });
                tracer.time("fleet.merge", tick_span, op, |_| {
                    let mut power = 0.0f64;
                    for (slot, outcome) in telemetry.iter_mut().zip(&outcomes) {
                        power += outcome.tick_power_w;
                        *slot = outcome.demand;
                    }
                    out.max_cluster_power_w = out.max_cluster_power_w.max(power);
                    out.cluster_violation_ticks += u64::from(power > cap.value());
                });
            });
        }
        out.per_device = sessions
            .iter()
            .map(|s| s.lock().expect("no step panicked").report())
            .collect();
        out
    })
}

pub(crate) fn same_run(driven: &Driven, report: &FleetReport) -> bool {
    driven.per_device == report.per_device
        && driven.cluster_violation_ticks == report.cluster_violation_ticks
        && driven.infeasible_ticks == report.infeasible_ticks
        && driven.max_cluster_power_w.to_bits() == report.max_cluster_power_w.to_bits()
}

/// The traced per-layer run: a plain scheduler and one over
/// [`TimedModel`]-wrapped classes; untraced `run_mixed` ops on the first
/// alternate with tick-by-tick driven ops on the second.
pub fn traced(seed: u64, seconds: u64, host: &Host, tracer: &Tracer) -> Outcome {
    let fleet = assignments(seed, DEVICES);
    let plain = Classes::new();
    let timed = Classes::map(|gpu| TimedModel::new(IntervalModel::new(gpu)));
    let (plain_sched, timed_sched) = (
        plain.capped_scheduler(&fleet, CAP_SHARE),
        timed.capped_scheduler(&fleet, CAP_SHARE),
    );
    let (mut wrong, mut failed) = (Vec::new(), 0u64);
    let cold_plain = plain_sched.run_mixed(&fleet).report;
    let cold_timed = timed_sched.run_mixed(&fleet).report;
    if cold_plain.canonical() != cold_timed.canonical() {
        wrong.push("wrapped and unwrapped cold fleet reports differ".to_string());
    }
    let sim_counters = || {
        let [a, b] = timed.models().each_ref().map(TimedModel::counters);
        (a.0 + b.0, a.1 + b.1)
    };
    // The cold run is the only one that simulates: warm runs are served
    // from the plan store's caches.
    let cold_sim = sim_counters();
    let mut pairs = Vec::new();
    let mut sim_calls = Vec::new();
    let mut sim_busy_ms = Vec::new();
    let mut store_after_first = None;
    let start = Instant::now();
    let mut op = 0u64;
    while (start.elapsed().as_secs() < seconds && op < MAX_TRACED) || op < 3 {
        let t = Instant::now();
        let report = plain_sched.run_mixed(&fleet).report;
        let untraced_s = t.elapsed().as_secs_f64();
        let before = sim_counters();
        let t = Instant::now();
        let driven = drive(&timed_sched, &fleet, tracer, op);
        pairs.push((untraced_s, t.elapsed().as_secs_f64()));
        let after = sim_counters();
        sim_calls.push((after.0 - before.0) as f64);
        sim_busy_ms.push((after.1 - before.1) as f64 / 1e6);
        failed += u64::from(violations(&report).is_some());
        if !same_run(&driven, &report) {
            wrong.push(format!("op {op}: tick-by-tick run differs from run_mixed"));
        }
        store_after_first.get_or_insert_with(|| {
            (
                timed_sched.store().cache_stats(),
                timed_sched.store().plan_stats(),
            )
        });
        op += 1;
    }
    let (cache, plans) = store_after_first.expect("at least one op ran");
    // The same fleet under a tighter cap: one cold and one warm run.
    let tight = plain.capped_scheduler(&fleet, TIGHT_CAP_SHARE);
    tight.run_mixed(&fleet);
    let tight_violations = tight.run_mixed(&fleet).report.total_device_violations();
    let layers = Layers::new(&tracer.spans(), "fleet.");
    let us = |name: &str| layers.median_call_ns(name) / 1e3;
    let median = |xs: &[f64]| crate::stats::median(xs).unwrap_or(f64::NAN);
    let metrics = vec![
        Metric::new("fleet.partition_us", us("fleet.partition"), "us"),
        Metric::new("fleet.step_us", us("fleet.step"), "us"),
        Metric::new("fleet.step.device_us", us("fleet.step.device"), "us"),
        Metric::new("fleet.merge_us", us("fleet.merge"), "us"),
        Metric::new("fleet.sim.calls", median(&sim_calls), "count"),
        Metric::new("fleet.sim.busy_ms", median(&sim_busy_ms), "ms"),
        Metric::new("fleet.sim.cold_calls", cold_sim.0 as f64, "count"),
        Metric::new("fleet.sim.cold_busy_ms", cold_sim.1 as f64 / 1e6, "ms"),
        Metric::new(
            "fleet.store.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("fleet.store.cold_sweeps", plans.cold_sweeps as f64, "count"),
        Metric::new(
            "fleet.binding_cap.device_violations",
            tight_violations as f64,
            "count",
        ),
        Metric::new(
            "fleet.trace_overhead_pct",
            common::paired_overhead_pct(&pairs),
            "%",
        ),
    ];
    layers.print_breakdown("fleet.op", &host.tag());
    let tick_ns = layers.self_per_op_ns("fleet.partition") + layers.self_per_op_ns("fleet.merge");
    eprintln!(
        "  fleet: serial partition+merge is {:.1}% of a traced op, the rest the device steps on {} executor(s); {} sim calls/op  [{}]",
        tick_ns / layers.dur_per_op_ns("fleet.op") * 100.0,
        host.pool_workers + 1,
        median(&sim_calls),
        host.tag()
    );
    common::traced_outcome(metrics, wrong, op, failed)
}
