//! Property tests for the degradation state machine: the two-rung park's
//! trip → park → backoff-doubling → cap cycle, its exact equivalence with
//! the reference safe-state watchdog it replaced, and the four-rung
//! ladder's non-oscillation guarantee under square-wave (flapping) faults.
//!
//! The machine is a pure `tick(anomalous) -> transition` counter, so the
//! properties drive it with generated inputs and check the invariants
//! the chaos table relies on: engagements only after a full anomaly
//! streak, hold lengths that double exactly until the configured ceiling,
//! and hysteresis that keeps a flapping fault from ping-ponging a rung
//! boundary.

use harmonia::governor::{Ladder, LadderConfig, LadderTransition, Rung};
use proptest::prelude::*;

/// Test-local reference copy of the safe-state watchdog the park
/// replaced: `threshold` consecutive anomalies engage, the safe state is
/// held for `hold` intervals whatever they look like, each engagement
/// doubles the next hold up to `max_hold`, and `clean_reset` consecutive
/// clean (disengaged) intervals reset it to `base_hold`.
struct ReferenceFallback {
    threshold: u32,
    base_hold: u64,
    max_hold: u64,
    clean_reset: u32,
    streak: u32,
    clean: u32,
    engaged: bool,
    hold: u64,
    remaining: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReferenceTransition {
    None,
    Engaged { hold: u64 },
    Released,
}

impl ReferenceFallback {
    fn new(threshold: u32, base_hold: u64, max_hold: u64, clean_reset: u32) -> Self {
        Self {
            threshold,
            base_hold,
            max_hold,
            clean_reset,
            streak: 0,
            clean: 0,
            engaged: false,
            hold: base_hold.max(1),
            remaining: 0,
        }
    }

    fn tick(&mut self, anomalous: bool) -> ReferenceTransition {
        if self.engaged {
            self.remaining = self.remaining.saturating_sub(1);
            if self.remaining == 0 {
                self.engaged = false;
                self.streak = 0;
                self.clean = 0;
                return ReferenceTransition::Released;
            }
            return ReferenceTransition::None;
        }
        if anomalous {
            self.clean = 0;
            self.streak += 1;
            if self.streak >= self.threshold {
                self.engaged = true;
                self.streak = 0;
                self.remaining = self.hold;
                self.hold = (self.hold * 2).min(self.max_hold.max(1));
                return ReferenceTransition::Engaged {
                    hold: self.remaining,
                };
            }
        } else {
            self.streak = 0;
            self.clean = self.clean.saturating_add(1);
            if self.clean >= self.clean_reset {
                self.hold = self.base_hold.max(1);
            }
        }
        ReferenceTransition::None
    }
}

/// The reference transition a park transition stands for.
fn as_reference(t: LadderTransition) -> ReferenceTransition {
    match t {
        LadderTransition::None => ReferenceTransition::None,
        LadderTransition::Demoted {
            from: Rung::Full,
            to: Rung::SafeState,
            hold,
        } => ReferenceTransition::Engaged { hold },
        LadderTransition::Promoted {
            from: Rung::SafeState,
            to: Rung::Full,
        } => ReferenceTransition::Released,
        other => panic!("a park only moves between full and safe-state, got {other:?}"),
    }
}

fn park(threshold: u32, base_hold: u64, max_hold: u64, clean_reset: u64) -> Ladder {
    Ladder::park(LadderConfig {
        safe_demote_threshold: threshold,
        base_hold,
        max_hold,
        clean_reset,
        ..LadderConfig::park()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A persistently-anomalous stream trips the park after exactly
    /// `threshold` intervals, parks for the advertised hold, and each
    /// re-engagement doubles the hold until it saturates at `max_hold` —
    /// never past it, and never skipping a doubling step.
    #[test]
    fn watchdog_trip_park_backoff_doubles_to_cap(
        threshold in 1u32..6,
        base_hold in 1u64..8,
        doublings in 2u32..7,
        engagements in 2usize..8,
    ) {
        let max_hold = base_hold << doublings;
        let mut p = park(threshold, base_hold, max_hold, 16);
        let parked = |p: &Ladder| p.rung() == Rung::SafeState;
        let mut expected_hold = base_hold;
        for engagement in 0..engagements {
            // Trip: exactly `threshold` anomalies engage, none earlier.
            for i in 0..threshold {
                prop_assert!(!parked(&p), "engagement {engagement}: early at streak {i}");
                let t = p.tick(true);
                if i + 1 < threshold {
                    prop_assert_eq!(t, LadderTransition::None);
                } else {
                    prop_assert_eq!(
                        t,
                        LadderTransition::Demoted {
                            from: Rung::Full,
                            to: Rung::SafeState,
                            hold: expected_hold,
                        }
                    );
                }
            }
            // Park: the hold is the expected power-of-two multiple of the
            // base, and the park stays engaged until it runs out.
            prop_assert_eq!(p.hold(), expected_hold, "engagement {}", engagement);
            for _ in 0..expected_hold - 1 {
                prop_assert_eq!(p.tick(true), LadderTransition::None);
                prop_assert!(parked(&p));
            }
            prop_assert_eq!(
                p.tick(true),
                LadderTransition::Promoted { from: Rung::SafeState, to: Rung::Full }
            );
            prop_assert!(!parked(&p));
            // Backoff: doubles, capped.
            expected_hold = (expected_hold * 2).min(max_hold);
            prop_assert!(p.hold() <= max_hold, "hold must never exceed the cap");
        }
    }

    /// The two-rung park is the reference watchdog: for any anomaly
    /// stream, threshold, hold and reset, both make the same transition on
    /// every interval and agree on whether the safe state is held.
    #[test]
    fn park_makes_the_reference_watchdog_transitions(
        threshold in 0u32..6,
        base_hold in 0u64..9,
        max_hold in 0u64..40,
        clean_reset in 0u32..20,
        // Percentile draws: below `anomaly_pct` is an anomalous interval.
        stream in proptest::collection::vec(0u8..100, 0..400),
        anomaly_pct in 10u8..90,
    ) {
        let mut reference = ReferenceFallback::new(threshold, base_hold, max_hold, clean_reset);
        let mut p = park(threshold, base_hold, max_hold, u64::from(clean_reset));
        for (i, &draw) in stream.iter().enumerate() {
            let anomalous = draw < anomaly_pct;
            let expected = reference.tick(anomalous);
            prop_assert_eq!(as_reference(p.tick(anomalous)), expected, "interval {}", i);
            prop_assert_eq!(p.rung() == Rung::SafeState, reference.engaged, "interval {}", i);
        }
    }

    /// A square-wave fault — `burst` anomalous intervals alternating with
    /// `quiet` clean intervals — can demote the ladder but never makes it
    /// oscillate: once demoted, a clean half-period shorter than the
    /// promotion hold never climbs back, so there are zero promotions and
    /// the rung is monotonically non-increasing.
    #[test]
    fn ladder_square_wave_never_oscillates(
        demote_threshold in 1u32..5,
        base_hold in 2u64..10,
        burst_extra in 0u32..4,
        cycles in 4u64..40,
    ) {
        let burst = demote_threshold + burst_extra;
        // The non-oscillation precondition: the clean half-period is
        // shorter than the smallest possible promotion hold.
        let quiet = base_hold - 1;
        let mut ladder = Ladder::new(LadderConfig {
            demote_threshold,
            safe_demote_threshold: demote_threshold * 2,
            base_hold,
            max_hold: base_hold * 16,
            clean_reset: base_hold * 4,
            ..LadderConfig::default()
        });
        let mut min_rung_index = Rung::Full.index();
        for cycle in 0..cycles {
            for _ in 0..burst {
                let t = ladder.tick(true);
                prop_assert!(
                    !matches!(t, LadderTransition::Promoted { .. }),
                    "cycle {cycle}: promotion during an anomaly burst"
                );
            }
            for _ in 0..quiet {
                let t = ladder.tick(false);
                prop_assert!(
                    !matches!(t, LadderTransition::Promoted { .. }),
                    "cycle {cycle}: clean half-period {quiet} beat hold {}",
                    ladder.hold()
                );
            }
            // Monotone: the rung only ever moves down.
            prop_assert!(
                ladder.rung().index() >= min_rung_index,
                "cycle {cycle}: rung climbed back up"
            );
            min_rung_index = min_rung_index.max(ladder.rung().index());
        }
        prop_assert_eq!(ladder.promotions(), 0, "square wave must never promote");
        // The first burst crosses the demote threshold, so the ladder must
        // actually have left the top rung — the property is not vacuous.
        prop_assert!(ladder.rung() != Rung::Full, "ladder never demoted");
        prop_assert!(ladder.demotions() > 0);
    }
}
