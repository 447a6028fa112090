//! Chaos-matrix acceptance (ROADMAP robustness criteria): the resilience
//! table is deterministic per seed, and on the stress set the hardened
//! pipeline degrades strictly less than stock, never violates the power cap
//! while parked in the safe state, and does not live in fallback.

use harmonia_experiments::chaos_cmd::{self, RESIDENCY_BOUND};
use harmonia_experiments::Context;

#[test]
fn chaos_tables_are_deterministic_per_seed() {
    let ctx = Context::new();
    let a = chaos_cmd::chaos_app(&ctx, "Graph500").expect("Graph500 in suite");
    let b = chaos_cmd::chaos_app(&ctx, "Graph500").expect("Graph500 in suite");
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.cells, b.cells, "fault outcomes drifted between runs");
    assert_eq!(a.report, b.report, "same seed must render the same table");
}

#[test]
fn hardening_beats_stock_on_the_stress_set() {
    let ctx = Context::new();
    for app in ["MaxFlops", "DeviceMemory", "Graph500"] {
        let run = chaos_cmd::chaos_app(&ctx, app).expect("stress app in suite");
        assert!(run.clean.hardened.ed2.is_finite(), "{app}: clean ED² poisoned");
        assert_eq!(
            run.clean.unhardened.faults_injected, 0,
            "{app}: clean cell injected faults"
        );
        assert!(
            run.hardened_wins(),
            "{app}: hardened degradation {} not below unhardened {}",
            run.hardened_degradation(),
            run.unhardened_degradation()
        );
        assert!(
            run.zero_violations_while_fallback(),
            "{app}: power cap violated while fallback was engaged"
        );
        assert!(
            run.max_safe_residency() < RESIDENCY_BOUND,
            "{app}: safe-state residency {:.2} exceeds the bound",
            run.max_safe_residency()
        );
    }
}

#[test]
fn ladder_degrades_gracefully_on_the_stress_set() {
    // The degradation-ladder acceptance: stepping down rung-by-rung (with
    // the retry actuator engaged) must match the parked stack's ED²
    // while spending strictly less time in the terminal safe state, and no
    // rung may ever let a cap violation through.
    let ctx = Context::new();
    for app in ["MaxFlops", "DeviceMemory", "Graph500"] {
        let run = chaos_cmd::chaos_app(&ctx, app).expect("stress app in suite");
        assert!(
            run.ladder_not_worse(),
            "{app}: ladder degradation {} worse than parked hardened {}",
            run.ladder_degradation(),
            run.hardened_degradation()
        );
        assert!(
            run.ladder_lower_residency(),
            "{app}: ladder safe residency {:.2} not strictly below parked {:.2}",
            run.ladder_max_safe_residency(),
            run.max_safe_residency()
        );
        assert!(
            run.ladder_zero_cap_violations(),
            "{app}: a ladder rung let a cap violation through"
        );
    }
}
