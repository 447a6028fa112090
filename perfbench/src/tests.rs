//! The timing wrappers are transparent: wrapped and unwrapped runs produce
//! byte-identical fleet reports, chaos event streams and telemetry.

use crate::chaos::{self, Case};
use crate::fleet::{self, Classes};
use crate::span::Tracer;
use crate::wrap::{GovSpans, TimedGovernor, TimedModel};
use harmonia::telemetry::TraceHandle;
use harmonia_sim::{EventModel, IntervalModel, TimingModel};
use harmonia_types::{DeviceSpec, HwConfig};
use harmonia_workloads::suite;

const SPANS: GovSpans = GovSpans {
    decide: "t.decide",
    condition: "t.condition",
    observe: "t.observe",
};

#[test]
fn the_model_wrapper_forwards_every_method() {
    let gpu = DeviceSpec::hd7970().gpu;
    let models: [Box<dyn TimingModel>; 2] = [
        Box::new(IntervalModel::new(gpu)),
        Box::new(EventModel::new(gpu)),
    ];
    let cfgs = [HwConfig::max_on(&gpu.grid), HwConfig::min_on(&gpu.grid)];
    let kernel = suite::training_kernels().remove(0).1;
    for inner in &models {
        let wrapped = TimedModel::new(inner.as_ref());
        assert_eq!(wrapped.phase_determined(), inner.phase_determined());
        assert_eq!(wrapped.fidelity_key(), inner.fidelity_key());
        assert_eq!(wrapped.device_key(), inner.device_key());
        assert_eq!(
            wrapped.sweep_terms(&cfgs, &kernel).is_some(),
            inner.sweep_terms(&cfgs, &kernel).is_some()
        );
        let a = format!("{:?}", wrapped.simulate_batch(&cfgs, &kernel, 3));
        assert_eq!(a, format!("{:?}", inner.simulate_batch(&cfgs, &kernel, 3)));
        assert_eq!(
            wrapped.counters().0,
            2,
            "sweep_terms and simulate_batch are each one timed call"
        );
    }
}

#[test]
fn wrapped_and_unwrapped_fleets_render_identical_canonical_reports() {
    let fleet = fleet::assignments(7, 48);
    let plain = Classes::new();
    let timed = Classes::map(|gpu| TimedModel::new(IntervalModel::new(gpu)));
    let share = fleet::CAP_SHARE;
    let (plain_sched, timed_sched) = (
        plain.capped_scheduler(&fleet, share),
        timed.capped_scheduler(&fleet, share),
    );
    for _ in 0..2 {
        let a = plain_sched.run_mixed(&fleet).report;
        let b = timed_sched.run_mixed(&fleet).report;
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.cluster_violation_ticks, 0);
    }
    // The tick-by-tick traced drive reproduces the scheduler's run.
    let tracer = Tracer::new();
    let driven = fleet::drive(&timed_sched, &fleet, &tracer, 0);
    assert!(fleet::same_run(
        &driven,
        &plain_sched.run_mixed(&fleet).report
    ));
}

/// Both hardened stacks in turn.
fn stack(i: u64) -> harmonia::governor::PolicySpec {
    if i.is_multiple_of(2) {
        chaos::LADDER
    } else {
        chaos::CAPPED
    }
}

#[test]
fn wrapped_and_unwrapped_chaos_cases_record_and_replay_identical_streams() {
    let ctxs = chaos::contexts();
    let tracer = Tracer::new();
    let mut seen = [[false; 2]; 2];
    for index in 0..24 {
        let case = Case::new(11, index, (index % 2) as usize, stack(index / 2));
        seen[case.device][usize::from(matches!(
            case.policy,
            harmonia::governor::PolicySpec::HardenedLadder(_)
        ))] = true;
        let (plain, plain_run) = chaos::run_case(&ctxs, &case);
        let (traced, traced_run, _) = chaos::traced_case(&ctxs, &case, &tracer, index);
        assert!(
            plain_run.events.len() > 2,
            "case {index} recorded a session"
        );
        assert!(
            plain_run.events == traced_run.events,
            "case {index}: recorded streams differ"
        );
        assert!(
            plain_run.replay_events == traced_run.replay_events,
            "case {index}: replayed streams differ"
        );
        assert_eq!(plain.failure, traced.failure, "case {index}");
        assert!(
            plain.wrong.is_none() && traced.wrong.is_none(),
            "case {index}"
        );
    }
    assert_eq!(seen, [[true; 2]; 2], "both devices under both policies");
}

#[test]
fn the_governor_wrapper_forwards_telemetry_and_conditioning() {
    // Under faults the sanitizer rewrites samples through `condition` and
    // the stacks emit telemetry through the handle `set_trace` installs:
    // dropping either would change the recorded session or the events.
    let ctxs = chaos::contexts();
    let tracer = Tracer::new();
    let mut conditioned = 0;
    for index in 0..16 {
        let case = Case::new(3, index, (index % 2) as usize, stack(index / 2));
        let ctx = &ctxs[case.device];
        let (plain_t, timed_t) = (TraceHandle::new(), TraceHandle::new());
        let mut plain_gov = ctx.policy(case.policy).governor;
        let (plain, _) = chaos::record(
            ctx,
            &case,
            &mut plain_gov,
            ctx.model(),
            Some(plain_t.clone()),
        );
        let mut timed_gov =
            TimedGovernor::new(ctx.policy(case.policy).governor, &tracer, SPANS, 0, index);
        let (timed, _) = chaos::record(
            ctx,
            &case,
            &mut timed_gov,
            ctx.model(),
            Some(timed_t.clone()),
        );
        assert!(plain == timed, "case {index}: recorded streams differ");
        assert!(
            !plain_t.events().is_empty(),
            "case {index}: telemetry is on"
        );
        assert_eq!(
            plain_t.events(),
            timed_t.events(),
            "case {index}: telemetry differs"
        );
        conditioned += plain.iter().filter(|e| e.label() == "conditioned").count();
    }
    assert!(conditioned > 0, "the cases exercise the sanitizer");
}
