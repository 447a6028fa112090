//! Integration smoke for the seeded chaos campaign (the
//! `chaos-campaign` subcommand): generated fault plans across the
//! app × hardened-policy grid must uphold every robustness invariant,
//! exercise the retry/backoff actuation pipeline, and reproduce exactly
//! from the campaign seed.

use harmonia_experiments::campaign_cmd::{
    chaos_campaign, generate_plan, CampaignRun, CAMPAIGN_APPS,
};
use harmonia_experiments::Context;

fn campaign(seeds: u32) -> CampaignRun {
    chaos_campaign(&Context::new(), seeds)
}

#[test]
fn campaign_upholds_every_invariant() {
    let run = campaign(4);
    assert_eq!(run.cases.len(), 4 * CAMPAIGN_APPS.len() * 2);
    assert_eq!(run.violations(), 0, "report:\n{}", run.report);
    for case in &run.cases {
        assert!(case.violated.is_empty(), "case {} violated {:?}", case.index, case.violated);
        assert!(case.minimal.is_none(), "passing cases are not shrunk");
        assert!(case.ed2.is_finite());
        assert!(case.events > 0);
    }
}

#[test]
fn campaign_exercises_the_retry_pipeline() {
    // The point of fuzzing with the actuator engaged: some generated plan
    // must hit DVFS faults so retried/rolled-back actuations land in the
    // traces — and those same traces replayed bit-exactly above.
    let run = campaign(4);
    let resolved: usize = run.cases.iter().map(|c| c.resolutions).sum();
    assert!(
        resolved > 0,
        "no actuation resolutions across the whole campaign — the fuzzer lost its DVFS coverage"
    );
}

#[test]
fn campaign_is_a_pure_function_of_the_seed() {
    let a = campaign(2);
    let b = campaign(2);
    assert_eq!(a.report, b.report);
    assert_eq!(a.seed, b.seed);
    // The plan stream is stable index-by-index too (resuming a campaign
    // re-generates identical cases).
    for idx in 0..8 {
        assert_eq!(generate_plan(a.seed, idx).specs(), generate_plan(b.seed, idx).specs());
    }
}

/// Regression cases for phantom cap-while-parked failures: each of these
/// seeded `hardened:capped` sessions projected a sanitizer stand-in sample
/// at the safe state and counted a cap violation "while parked" that the
/// measured intervals never showed. The cap park must count parked
/// violations only outside sanitizer pressure, like the cap decorator.
#[test]
fn cap_park_counts_no_phantom_violations_under_sanitizer_pressure() {
    use harmonia::governor::PolicySpec;
    use harmonia::runtime::RetryPolicy;
    use harmonia_experiments::rr_cmd;
    use harmonia_repro::types::Watts;

    let ctx = Context::new();
    for (app, case) in [("Graph500", 901), ("SRAD", 712), ("Sort", 7909)] {
        let plan = generate_plan(9, case);
        let recorded = rr_cmd::record_session_with(
            &ctx,
            app,
            PolicySpec::HardenedCapped(Watts(185.0)),
            Some(&plan),
            Some(RetryPolicy::default()),
        )
        .expect("suite app");
        assert!(recorded.stats.fallback_engagements() > 0, "{app}: the cap park never engaged");
        assert!(recorded.stats.sanitizer_rejects() > 0, "{app}: no sanitizer pressure");
        assert_eq!(recorded.stats.violations_while_fallback(), 0, "{app} case {case}");
    }
}

/// Replay validates recorded actuations on the live run's device grid: a
/// v100 `hardened:capped` chaos session whose retry shim resolved DVFS
/// faults (configurations off the HD7970 grid) replays bit-exactly.
#[test]
fn v100_capped_session_with_resolutions_replays_bit_exactly() {
    use harmonia::governor::PolicySpec;
    use harmonia::runtime::RetryPolicy;
    use harmonia_experiments::rr_cmd::{self, chaos_plan};
    use harmonia_repro::rr::{differ, SessionEvent};
    use harmonia_repro::types::{DeviceSpec, Watts};

    let ctx = Context::for_device(DeviceSpec::v100());
    let recorded = rr_cmd::record_session_with(
        &ctx,
        "Graph500",
        PolicySpec::HardenedCapped(Watts(185.0)),
        Some(&chaos_plan(9)),
        Some(RetryPolicy::default()),
    )
    .expect("suite app");
    let resolutions = recorded
        .events
        .iter()
        .filter(|e| matches!(e, SessionEvent::ActuationResolved { .. }))
        .count();
    assert!(resolutions > 0, "the session resolved no actuations");
    let replayed = rr_cmd::replay_session(&ctx, &recorded.events).expect("session replays");
    assert!(
        replayed.divergence.is_none(),
        "v100 replay diverged:\n{}",
        differ::diff_report(&recorded.events, &replayed.events)
    );
    assert!(replayed.replay_error.is_none(), "{:?}", replayed.replay_error);
    assert_eq!(replayed.run, recorded.run);
}
