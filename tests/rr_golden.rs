//! Golden *session* traces: three chaos (fault-seeded) sessions, one per
//! hardened stack, and one power-capped session are committed under
//! `tests/golden/` as versioned binary artifacts. A live re-recording must
//! reproduce the artifact bytes, a replay from the artifact must be
//! bit-exact (differ reports no
//! divergence, run totals identical), and a single mutated draw must be
//! localized by the differ to exactly the mutated event — no earlier, no
//! later.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! cargo run -p harmonia-experiments -- \
//!     rr record Graph500 hardened:capped --chaos rr record Stencil capped \
//!     rr record LUD hardened:ladder --chaos --out tests/golden
//! HARMONIA_FAULT_SEED=64032 cargo run -p harmonia-experiments -- \
//!     rr record CFD hardened:harmonia --chaos --out tests/golden
//! ```
//!
//! (the first with `HARMONIA_FAULT_SEED` unset, so the chaos plan uses the
//! default seed the tests pin explicitly). CI refuses a pull request that
//! modifies an existing golden, so a regenerated artifact needs a new name.

use harmonia::governor::PolicySpec;
use harmonia_experiments::rr_cmd::{self, chaos_plan};
use harmonia_experiments::Context;
use harmonia_repro::rr::{codec, differ, SessionEvent};
use harmonia_repro::types::Watts;

const GOLDEN_CHAOS: &[u8] = include_bytes!("golden/rr_graph500_hardened-capped_chaos.hrr");
const GOLDEN_CAPPED: &[u8] = include_bytes!("golden/rr_stencil_capped.hrr");
const GOLDEN_LADDER: &[u8] = include_bytes!("golden/rr_lud_hardened-ladder_chaos.hrr");
const GOLDEN_HARDENED: &[u8] = include_bytes!("golden/rr_cfd_hardened-harmonia_chaos.hrr");

/// The chaos golden's fault seed — pinned explicitly (NOT read from
/// `HARMONIA_FAULT_SEED`) so the fault-seeded CI leg cannot drift this
/// test; matches `FaultPlan::seed_from_env()`'s default for CLI regen.
const GOLDEN_SEED: u64 = 0xFA17;

/// The `hardened:harmonia` golden's fault seed: the first seed near the
/// default whose CFD session trips the counter park.
const HARDENED_SEED: u64 = 0xFA20;

fn record_chaos(ctx: &Context) -> rr_cmd::RecordedSession {
    let plan = chaos_plan(GOLDEN_SEED);
    rr_cmd::record_session(ctx, "Graph500", PolicySpec::HardenedCapped(Watts(185.0)), Some(&plan))
        .expect("Graph500 in suite")
}

fn record_capped(ctx: &Context) -> rr_cmd::RecordedSession {
    rr_cmd::record_session(ctx, "Stencil", PolicySpec::Capped(Watts(185.0)), None)
        .expect("Stencil in suite")
}

fn record_ladder(ctx: &Context) -> rr_cmd::RecordedSession {
    let plan = chaos_plan(GOLDEN_SEED);
    rr_cmd::record_session(ctx, "LUD", PolicySpec::HardenedLadder(Watts(185.0)), Some(&plan))
        .expect("LUD in suite")
}

fn record_hardened(ctx: &Context) -> rr_cmd::RecordedSession {
    let plan = chaos_plan(HARDENED_SEED);
    rr_cmd::record_session(ctx, "CFD", PolicySpec::HardenedHarmonia, Some(&plan))
        .expect("CFD in suite")
}

/// Replays a golden artifact and asserts the replay is bit-exact against
/// the live recording.
fn assert_replays_bit_exactly(ctx: &Context, live: &rr_cmd::RecordedSession, golden: &[u8]) {
    let golden_events = codec::decode(golden).expect("golden decodes");
    let replayed = rr_cmd::replay_session(ctx, &golden_events).expect("golden replays");
    assert!(
        replayed.divergence.is_none(),
        "replay diverged:\n{}",
        differ::diff_report(&golden_events, &replayed.events)
    );
    assert!(replayed.replay_error.is_none(), "{:?}", replayed.replay_error);
    assert_eq!(replayed.run, live.run, "replayed run totals must be identical");
}

/// Asserts a live re-recording matches a golden artifact, reporting the
/// first divergent *event* (not a byte offset) on mismatch.
fn assert_matches_golden(live: &rr_cmd::RecordedSession, golden: &[u8], name: &str) {
    if live.bytes == golden {
        return;
    }
    let golden_events = codec::decode(golden).expect("golden artifact decodes");
    panic!(
        "live session diverged from {name} (regenerate per tests/rr_golden.rs header if intentional):\n{}",
        differ::diff_report(&golden_events, &live.events)
    );
}

#[test]
fn chaos_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_chaos(&ctx);
    assert_matches_golden(&live, GOLDEN_CHAOS, "rr_graph500_hardened-capped_chaos.hrr");

    // The session is genuinely chaotic: actuator faults fired and the
    // sanitizer substituted measurements, and all of it is in the trace.
    let actuations = live
        .events
        .iter()
        .filter(|e| matches!(e, SessionEvent::Actuation { .. }))
        .count();
    assert!(actuations > 0, "chaos golden recorded no actuator faults");

    // Replay from the artifact alone: bit-exact, including ED² totals.
    let golden_events = codec::decode(GOLDEN_CHAOS).expect("golden decodes");
    let replayed = rr_cmd::replay_session(&ctx, &golden_events).expect("golden replays");
    assert!(
        replayed.divergence.is_none(),
        "chaos replay diverged:\n{}",
        differ::diff_report(&golden_events, &replayed.events)
    );
    assert!(replayed.replay_error.is_none(), "{:?}", replayed.replay_error);
    assert_eq!(replayed.run, live.run, "replayed run totals must be identical");
    assert_eq!(replayed.run.ed2().to_bits(), live.run.ed2().to_bits(), "bit-exact ED²");
}

#[test]
fn capped_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_capped(&ctx);
    assert_matches_golden(&live, GOLDEN_CAPPED, "rr_stencil_capped.hrr");

    let golden_events = codec::decode(GOLDEN_CAPPED).expect("golden decodes");
    let replayed = rr_cmd::replay_session(&ctx, &golden_events).expect("golden replays");
    assert!(
        replayed.divergence.is_none(),
        "capped replay diverged:\n{}",
        differ::diff_report(&golden_events, &replayed.events)
    );
    assert_eq!(replayed.run, live.run);
}

/// Pins the degradation ladder's full descent: this session walks every
/// rung down to the safe state.
#[test]
fn ladder_golden_reaches_the_safe_state_rung() {
    let ctx = Context::new();
    let live = record_ladder(&ctx);
    assert_matches_golden(&live, GOLDEN_LADDER, "rr_lud_hardened-ladder_chaos.hrr");
    assert_eq!(live.stats.rung_residency(), [7, 4, 6, 31]);
    assert_eq!(live.stats.rung_demotions(), 3);
    assert_eq!(live.stats.fallback_engagements(), 1, "one descent into the safe state");
    assert_replays_bit_exactly(&ctx, &live, GOLDEN_LADDER);
}

/// Pins the `hardened:harmonia` counter park: this session engages it
/// once while the sanitizer substitutes samples.
#[test]
fn hardened_harmonia_golden_engages_the_counter_park() {
    let ctx = Context::new();
    let live = record_hardened(&ctx);
    assert_matches_golden(&live, GOLDEN_HARDENED, "rr_cfd_hardened-harmonia_chaos.hrr");
    assert_eq!(live.stats.fallback_engagements(), 1);
    assert_eq!(live.stats.sanitizer_rejects(), 40);
    assert_replays_bit_exactly(&ctx, &live, GOLDEN_HARDENED);
}

/// Applies `f` to event `i` of a decoded golden stream.
fn mutated(events: &[SessionEvent], i: usize, f: impl FnOnce(&mut SessionEvent)) -> Vec<SessionEvent> {
    let mut out = events.to_vec();
    f(&mut out[i]);
    out
}

fn golden_chaos_events() -> Vec<SessionEvent> {
    codec::decode(GOLDEN_CHAOS).expect("golden decodes")
}

/// Index of the first event matching `pred`.
fn find(events: &[SessionEvent], pred: impl Fn(&SessionEvent) -> bool) -> usize {
    events.iter().position(pred).expect("event present in golden")
}

#[test]
fn differ_pinpoints_a_mutated_fault_draw() {
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Actuation { .. }));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Actuation { kind, .. } = e else { unreachable!() };
        use harmonia_repro::sim::FaultKind;
        *kind = if *kind == FaultKind::DvfsDeny { FaultKind::DvfsDelay } else { FaultKind::DvfsDeny };
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated fault draw exactly");
    assert!(div.expected.is_some() && div.actual.is_some());
    // And nothing else differs: the streams agree on both sides of it.
    assert_eq!(events[..i], bad[..i]);
    assert_eq!(events[i + 1..], bad[i + 1..]);
}

#[test]
fn differ_pinpoints_a_mutated_noise_draw() {
    let events = golden_chaos_events();
    // A mid-session sample: flip the lowest mantissa bit of its time —
    // the smallest representable measurement-noise perturbation.
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 2));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { time_s, .. } = e else { unreachable!() };
        *time_s = f64::from_bits(time_s.to_bits() ^ 1);
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated noise draw exactly");
    let rendered = div.render();
    assert!(rendered.contains("time_s"), "delta must name the field:\n{rendered}");
}

#[test]
fn differ_pinpoints_a_mutated_counter_draw() {
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 1));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { counters, .. } = e else { unreachable!() };
        counters.valu_busy_pct += 17.0;
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated counter draw exactly");
    let rendered = div.render();
    assert!(
        rendered.contains("counters.valu_busy_pct"),
        "delta must name the counter field:\n{rendered}"
    );
}

/// End-to-end damage localization: replaying a trace with one mutated
/// counter draw re-executes from the damaged artifact, and diffing the
/// replay against the *original* recording still pinpoints the mutated
/// event as the first divergence — the governor consumed the bad counters
/// only at and after that point.
#[test]
fn replaying_a_mutated_trace_localizes_the_damage() {
    let ctx = Context::new();
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 1));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { counters, .. } = e else { unreachable!() };
        counters.valu_busy_pct += 17.0;
    });
    let replayed = rr_cmd::replay_session(&ctx, &bad).expect("mutated trace still replays");
    let div = differ::first_divergence(&events, &replayed.events)
        .expect("replay of a damaged trace must diverge from the original");
    assert_eq!(
        div.index, i,
        "first divergence vs the original recording must be the mutated draw itself"
    );
}
