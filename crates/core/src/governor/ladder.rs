//! Graceful degradation: the one state machine behind every safe-state
//! fallback.
//!
//! A [`Ladder`] walks named [`Rung`]s: sustained anomalies demote it one
//! rung toward the pinned safe state, and a served hold promotes it back.
//! Every hardened stack is one of two configurations of it:
//!
//! ```text
//!   ladder:  Full (CG + FG) ──▶ CG-only ──▶ freq-only ──▶ safe-state
//!   park:    Full ─────────────────────────────────────▶ safe-state
//!        ◀──promote (after a hold that doubles per demotion)──
//! ```
//!
//! * The four-rung **ladder** ([`DegradeLayer::new`], registry
//!   `hardened:ladder`) rides out partial failures at reduced capability.
//!   Each demotion takes `demote_threshold` consecutive anomalous
//!   intervals (the terminal step into the safe state the longer
//!   `safe_demote_threshold`), and promotion needs `hold` consecutive
//!   clean intervals per step ([`Release::CleanHold`]), so a flapping
//!   fault settles onto a low rung instead of oscillating.
//! * The two-rung **park** ([`DegradeLayer::park`], registry
//!   `hardened:harmonia` and `hardened:capped`) is all-or-nothing: three
//!   anomalies pin the safe state, which is released after `hold`
//!   observed intervals whatever they looked like ([`Release::Timed`]) —
//!   the discipline of PowerTune-style firmware, which drops to a known
//!   DPM state and re-engages cautiously.
//!
//! Both double the hold per demotion (exponential backoff, capped at
//! `max_hold`), and a `clean_reset` streak at the top rung resets it.
//!
//! What counts as anomalous is the layer's [`AnomalyCheck`]:
//! [`CounterCheck`] judges counter plausibility and throughput collapse,
//! [`CapCheck`](super::CapCheck) power-cap violations. The ladder also
//! reads sanitizer pressure (new rejects recorded into the shared
//! [`PolicyStats`] since the previous interval) when
//! [`LadderConfig::pressure_is_suspect`] is set.
//! The two sources carry different weight ([`LadderSignal`]): a check
//! verdict is *harmful* and can demote any rung, while pressure alone is
//! only *suspect* — it demotes the capability rungs (whose learning loops
//! would otherwise ingest substituted samples) but never takes the
//! terminal park, because a fault the sanitizer already contains is no
//! reason to surrender the last knob.
//!
//! Rung residency, demotions, promotions and safe-state entries are
//! exported through [`PolicyStats`], and every shift emits
//! [`TraceEvent::RungShift`]; trace summaries count safe-state residency
//! from the shifts into and out of `safe-state`.

use crate::governor::stack::{
    AnomalyCheck, BoxGovernor, CounterCheck, DecisionLedger, GovernorLayer, PolicyStats,
    SanitizerPressure,
};
use crate::governor::Governor;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds};

/// A named capability level of the degradation ladder, ordered from full
/// capability (index 0) to the pinned safe state (index 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Full Harmonia: coarse-grain + fine-grain tuning.
    Full,
    /// Coarse-grain tuning only; the (probe-heavy) FG loop is disabled.
    CgOnly,
    /// Compute-DVFS-only: CU frequency is the single remaining knob.
    FreqOnly,
    /// Pinned safe state (the device's mid-ladder DPM clock on every CU,
    /// memory untouched).
    SafeState,
}

impl Rung {
    /// The four-rung ladder, top to bottom.
    pub const ALL: [Rung; 4] = [Rung::Full, Rung::CgOnly, Rung::FreqOnly, Rung::SafeState];

    /// The two-rung park, top to bottom.
    pub const PARK: [Rung; 2] = [Rung::Full, Rung::SafeState];

    /// Stable index into per-rung arrays ([`PolicyStats::rung_residency`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable rung name (trace events, reports).
    pub fn label(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::CgOnly => "cg-only",
            Rung::FreqOnly => "freq-only",
            Rung::SafeState => "safe-state",
        }
    }
}

/// How a demoted [`Ladder`] earns its way back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Each promotion needs `hold` *consecutive clean* intervals; any
    /// anomaly restarts the count (hysteresis against flapping faults).
    CleanHold,
    /// Each promotion comes after `hold` observed intervals, anomalous or
    /// not: a timed park whose backoff doubling handles recurrence.
    Timed,
}

/// Tuning for the [`Ladder`] state machine. The default is the four-rung
/// ladder's; [`LadderConfig::park`] is the two-rung park's.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Consecutive anomalous intervals before demoting one rung.
    pub demote_threshold: u32,
    /// Consecutive anomalous intervals before the *terminal* demotion into
    /// [`Rung::SafeState`]. On the four-rung ladder the park discards all
    /// remaining control authority, so it demands a longer streak than the
    /// intermediate steps — this is what keeps the ladder's safe-state
    /// residency strictly below a park's under faults the degraded rungs
    /// can ride out.
    pub safe_demote_threshold: u32,
    /// Hold of the first demotion, in intervals (doubles per demotion —
    /// exponential backoff).
    pub base_hold: u64,
    /// Backoff ceiling for the hold.
    pub max_hold: u64,
    /// Consecutive clean intervals at [`Rung::Full`] that reset the
    /// backoff to `base_hold`.
    pub clean_reset: u64,
    /// How a demoted rung is promoted.
    pub release: Release,
    /// Whether sanitizer pressure alone counts as a
    /// [`Suspect`](LadderSignal::Suspect) interval.
    pub pressure_is_suspect: bool,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            demote_threshold: 3,
            safe_demote_threshold: 6,
            base_hold: 4,
            max_hold: 64,
            clean_reset: 16,
            release: Release::CleanHold,
            pressure_is_suspect: true,
        }
    }
}

impl LadderConfig {
    /// The park's tuning: three anomalies trip it, the hold is timed, and
    /// sanitizer pressure is ignored (the park's check alone judges).
    pub fn park() -> Self {
        Self {
            safe_demote_threshold: 3,
            release: Release::Timed,
            pressure_is_suspect: false,
            ..Self::default()
        }
    }
}

/// How bad one observation interval looked, from the ladder's point of
/// view.
///
/// The split matters at the rung just above the safe state: a
/// [`Suspect`](LadderSignal) interval (the sanitizer substituted a lying
/// sample, but the substitute is plausible and the decision loop is still
/// functioning) holds that rung in place — it earns no promotion credit,
/// but it is not evidence that the last remaining knob must be discarded.
/// Only [`Harmful`](LadderSignal) intervals (implausible counters,
/// actuation mismatch, performance collapse) grow the terminal-demotion
/// streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderSignal {
    /// Interval looked healthy.
    Clean,
    /// Telemetry was untrustworthy but already contained (sanitizer
    /// substitution); degraded rungs may still be demoted, the terminal
    /// park may not.
    Suspect,
    /// The current rung demonstrably failed to contain the fault.
    Harmful,
}

/// What one [`Ladder::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderTransition {
    /// No rung change this interval.
    None,
    /// Stepped one rung down; the rung is held for `hold` intervals (see
    /// [`Release`]) before the first promotion back up.
    Demoted { from: Rung, to: Rung, hold: u64 },
    /// Stepped one rung up after the hold was served.
    Promoted { from: Rung, to: Rung },
}

/// The ladder state machine: anomaly streaks demote, served holds
/// promote, and the hold doubles per demotion. Pure state — the
/// [`DegradeLayer`] decorator wires it to checks, governors, and
/// telemetry.
#[derive(Debug)]
pub struct Ladder {
    config: LadderConfig,
    /// The rungs walked, top to bottom ([`Rung::ALL`] or [`Rung::PARK`]).
    rungs: &'static [Rung],
    /// Index of the current rung in `rungs`.
    at: usize,
    /// Consecutive anomalous intervals at the current rung.
    streak: u32,
    /// Intervals served toward the next promotion (consecutive clean ones
    /// under [`Release::CleanHold`]); at the top, the clean streak.
    clean: u64,
    /// Next demotion's hold (doubles per demotion).
    hold: u64,
    /// Intervals required per promotion step, fixed at demotion time. A
    /// square-wave fault whose clean half-period is shorter than this can
    /// never promote a clean-hold ladder — the non-oscillation property.
    required: u64,
    demotions: u64,
    promotions: u64,
}

impl Ladder {
    /// A four-rung ladder at [`Rung::Full`] with fresh backoff.
    pub fn new(config: LadderConfig) -> Self {
        Self::with_rungs(config, &Rung::ALL)
    }

    /// A two-rung park at [`Rung::Full`] with fresh backoff.
    pub fn park(config: LadderConfig) -> Self {
        Self::with_rungs(config, &Rung::PARK)
    }

    fn with_rungs(config: LadderConfig, rungs: &'static [Rung]) -> Self {
        let hold = config.base_hold.max(1);
        Self {
            config,
            rungs,
            at: 0,
            streak: 0,
            clean: 0,
            hold,
            required: hold,
            demotions: 0,
            promotions: 0,
        }
    }

    /// The current rung.
    pub fn rung(&self) -> Rung {
        self.rungs[self.at]
    }

    /// The rung one step down, `None` at the bottom.
    fn below(&self) -> Option<Rung> {
        self.rungs.get(self.at + 1).copied()
    }

    /// The tuning in effect.
    pub fn config(&self) -> &LadderConfig {
        &self.config
    }

    /// Intervals currently required per promotion step.
    ///
    /// Reads `required`, not the `hold` field: `hold` is the *next*
    /// backoff value, fixed into `required` at demotion time.
    #[allow(clippy::misnamed_getters)]
    pub fn hold(&self) -> u64 {
        self.required
    }

    /// Total demotions so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Total promotions so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Advances one observation interval with the full three-valued
    /// signal. [`LadderSignal::Suspect`] behaves like
    /// [`LadderSignal::Harmful`] on every rung except the one just above
    /// the safe state, where it freezes the ladder: the clean streak
    /// resets (no promotion on lying telemetry) but the demotion streak
    /// does not grow (no parking on contained noise).
    pub fn signal(&mut self, signal: LadderSignal) -> LadderTransition {
        match signal {
            LadderSignal::Clean => self.tick(false),
            LadderSignal::Harmful => self.tick(true),
            LadderSignal::Suspect if self.below() == Some(Rung::SafeState) => {
                self.clean = 0;
                LadderTransition::None
            }
            LadderSignal::Suspect => self.tick(true),
        }
    }

    /// Advances one observation interval with the binary signal
    /// (`anomalous` maps to [`LadderSignal::Harmful`]).
    pub fn tick(&mut self, anomalous: bool) -> LadderTransition {
        if anomalous {
            self.streak += 1;
            let threshold = if self.below() == Some(Rung::SafeState) {
                self.config.safe_demote_threshold
            } else {
                self.config.demote_threshold
            };
            if self.streak >= threshold.max(1) {
                self.streak = 0;
                if let Some(to) = self.below() {
                    let from = self.rung();
                    self.at += 1;
                    self.clean = 0;
                    self.required = self.hold;
                    self.hold = (self.hold.saturating_mul(2)).min(self.config.max_hold.max(1));
                    self.demotions += 1;
                    return LadderTransition::Demoted {
                        from,
                        to,
                        hold: self.required,
                    };
                }
            }
            // A timed hold runs out whatever the interval looked like;
            // everywhere else an anomaly restarts the clean count.
            if self.at == 0 || self.config.release == Release::CleanHold {
                self.clean = 0;
                return LadderTransition::None;
            }
        } else {
            self.streak = 0;
        }
        self.clean = self.clean.saturating_add(1);
        if self.at == 0 {
            if self.clean >= self.config.clean_reset {
                self.hold = self.config.base_hold.max(1);
            }
            return LadderTransition::None;
        }
        if self.clean >= self.required {
            let from = self.rung();
            self.at -= 1;
            self.clean = 0;
            self.streak = 0;
            self.promotions += 1;
            return LadderTransition::Promoted {
                from,
                to: self.rung(),
            };
        }
        LadderTransition::None
    }
}

/// Blueprint for the degradation decorator. [`layer`] wraps the inner
/// governor as the [`Rung::Full`] policy: as a four-rung ladder
/// ([`new`](Self::new)) with CG-only and frequency-only alternates supplied
/// up front (the registry builds them from the same predictor), or as a
/// two-rung park ([`park`](Self::park)).
///
/// [`layer`]: GovernorLayer::layer
pub struct DegradeLayer<'a> {
    ladder: Ladder,
    check: Box<dyn AnomalyCheck + 'a>,
    cg: Option<BoxGovernor<'a>>,
    freq: Option<BoxGovernor<'a>>,
    safe: HwConfig,
    ledger: DecisionLedger,
    stats: PolicyStats,
}

impl<'a> DegradeLayer<'a> {
    /// A four-rung ladder stepping down from the (future) inner governor
    /// through `cg` and `freq` to `safe` (a catalog device's
    /// [`DeviceSpec::safe_state`](harmonia_types::DeviceSpec::safe_state)),
    /// judged by a [`CounterCheck`] with the actuation check armed.
    pub fn new(
        config: LadderConfig,
        safe: HwConfig,
        cg: BoxGovernor<'a>,
        freq: BoxGovernor<'a>,
    ) -> Self {
        Self::build(
            Ladder::new(config),
            safe,
            Box::new(CounterCheck::new(true)),
            Some(cg),
            Some(freq),
        )
    }

    /// A two-rung park judged by `check`: while parked, decisions pin to
    /// `safe` and the inner governor's `decide` is bypassed. Quarantining
    /// checks also withhold tainted samples from the inner governor's
    /// learning loops; the others let it keep learning.
    pub fn park(config: LadderConfig, safe: HwConfig, check: Box<dyn AnomalyCheck + 'a>) -> Self {
        Self::build(Ladder::park(config), safe, check, None, None)
    }

    fn build(
        ladder: Ladder,
        safe: HwConfig,
        check: Box<dyn AnomalyCheck + 'a>,
        cg: Option<BoxGovernor<'a>>,
        freq: Option<BoxGovernor<'a>>,
    ) -> Self {
        Self {
            ladder,
            check,
            cg,
            freq,
            safe,
            ledger: DecisionLedger::new(),
            stats: PolicyStats::new(),
        }
    }

    /// Shares `stats` so rung residency, shifts and safe-state entries are
    /// counted into an external handle (registry-built stacks report
    /// through [`Policy::stats`](super::Policy)).
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// The ledger this layer's decisions are recorded in; hand it to an
    /// outer [`CappedGovernor`](super::CappedGovernor) so the post-clamp
    /// grant is what the actuation check compares against.
    pub fn ledger(&self) -> DecisionLedger {
        self.ledger.clone()
    }
}

impl<'a> GovernorLayer<'a> for DegradeLayer<'a> {
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a> {
        let ordinal = self.stats.register_degrade_layer();
        Box::new(DegradeGovernor {
            full: inner,
            cg: self.cg,
            freq: self.freq,
            safe: self.safe,
            ladder: self.ladder,
            check: self.check,
            ledger: self.ledger,
            stats: self.stats,
            ordinal,
            pressure: SanitizerPressure::default(),
            trace: TraceHandle::disabled(),
        })
    }
}

/// The decorator produced by [`DegradeLayer`]: routes decisions to the
/// active rung's governor and walks the [`Ladder`] on every observation.
struct DegradeGovernor<'a> {
    full: BoxGovernor<'a>,
    cg: Option<BoxGovernor<'a>>,
    freq: Option<BoxGovernor<'a>>,
    safe: HwConfig,
    ladder: Ladder,
    check: Box<dyn AnomalyCheck + 'a>,
    ledger: DecisionLedger,
    stats: PolicyStats,
    /// This layer's place among the degradation layers sharing `stats`.
    ordinal: u64,
    pressure: SanitizerPressure,
    trace: TraceHandle,
}

impl DegradeGovernor<'_> {
    /// The governor behind `rung`. The safe state decides nothing itself,
    /// but the Full-rung stack it parks still conditions every measurement
    /// and, under a non-quarantining check, keeps learning.
    fn rung_governor(&mut self, rung: Rung) -> &mut dyn Governor {
        match rung {
            Rung::Full | Rung::SafeState => &mut self.full,
            Rung::CgOnly => self.cg.as_mut().expect("only four-rung ladders visit cg-only"),
            Rung::FreqOnly => self.freq.as_mut().expect("only four-rung ladders visit freq-only"),
        }
    }
}

impl Governor for DegradeGovernor<'_> {
    fn name(&self) -> &str {
        // Name-transparent to the Full-rung policy, like every other
        // layer: reports keep the inner governor's identity.
        self.full.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.full.set_trace(trace.clone());
        for g in [self.cg.as_mut(), self.freq.as_mut()].into_iter().flatten() {
            g.set_trace(trace.clone());
        }
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let cfg = match self.ladder.rung() {
            Rung::SafeState => self.safe,
            rung => self.rung_governor(rung).decide(kernel, iteration),
        };
        self.ledger.grant(&kernel.name, cfg);
        cfg
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        self.rung_governor(self.ladder.rung())
            .condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let rung_before = self.ladder.rung();
        self.stats.count_rung_residency(self.ordinal, rung_before);
        let parked = rung_before == Rung::SafeState;
        let granted = self.ledger.granted(&kernel.name);
        let verdict = self.check.verdict(kernel, cfg, counters, granted, parked);
        // Sanitizer pressure: the conditioned sample we just saw was
        // (partly) substituted — the counters are lying even though the
        // substitute passes plausibility. That is *suspect* (the
        // substitution contained the damage), not *harmful*: it demotes the
        // capability rungs whose learning loops would ingest the
        // substitutes, but it can never justify the terminal park.
        let pressure = self.pressure.under_pressure(&self.stats);
        let suspect = self.ladder.config().pressure_is_suspect && verdict.is_none() && pressure;
        let what = verdict.or(suspect.then_some("sanitizer pressure"));
        if let Some(what) = what {
            self.trace.emit(|| TraceEvent::FaultDetected {
                kernel: kernel.name.clone(),
                iteration,
                what: what.to_string(),
            });
        }
        let signal = if verdict.is_some() {
            LadderSignal::Harmful
        } else if suspect {
            LadderSignal::Suspect
        } else {
            LadderSignal::Clean
        };
        let shift = match self.ladder.signal(signal) {
            LadderTransition::Demoted { from, to, hold } => {
                self.stats.count_rung_demotion(to);
                Some((from, to, hold))
            }
            LadderTransition::Promoted { from, to } => {
                self.stats.count_rung_promotion(from);
                Some((from, to, 0))
            }
            LadderTransition::None => None,
        };
        if let Some((from, to, hold)) = shift {
            self.trace.emit(|| TraceEvent::RungShift {
                kernel: kernel.name.clone(),
                iteration,
                from: from.label().to_string(),
                to: to.label().to_string(),
                hold,
            });
        }
        // Quarantine: an anomalous sample is garbage, and one observed
        // while parked was produced under the pinned safe state — neither
        // may reach a quarantining layer's learning loops.
        if self.check.quarantines() && (parked || what.is_some()) {
            return;
        }
        // The sample was produced under `rung_before`'s decision: only
        // that rung's governor learns from it.
        self.rung_governor(rung_before)
            .observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BaselineGovernor;

    fn safe() -> HwConfig {
        harmonia_types::DeviceSpec::hd7970().safe_state()
    }

    fn garbage() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: f64::NAN,
            ..CounterSample::default()
        }
    }

    fn ladder() -> Ladder {
        Ladder::new(LadderConfig::default())
    }

    fn drive(l: &mut Ladder, anomalous: bool, n: u64) {
        for _ in 0..n {
            l.tick(anomalous);
        }
    }

    #[test]
    fn demotes_one_rung_per_threshold_streak() {
        let mut l = ladder();
        drive(&mut l, true, 2);
        assert_eq!(l.rung(), Rung::Full, "below threshold");
        assert_eq!(
            l.tick(true),
            LadderTransition::Demoted {
                from: Rung::Full,
                to: Rung::CgOnly,
                hold: 4
            }
        );
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::FreqOnly);
        // The terminal park demands a doubled streak.
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::FreqOnly, "below safe_demote_threshold");
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::SafeState);
        // Bottom rung: further anomalies change nothing.
        drive(&mut l, true, 10);
        assert_eq!(l.rung(), Rung::SafeState);
        assert_eq!(l.demotions(), 3);
    }

    #[test]
    fn backoff_doubles_per_demotion_and_caps() {
        let mut l = ladder();
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 4);
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 8);
        drive(&mut l, true, 6); // terminal step: safe_demote_threshold
        assert_eq!(l.hold(), 16);
        // Climb back up, then demote repeatedly: the hold saturates.
        drive(&mut l, false, 16 + 16 + 16);
        assert_eq!(l.rung(), Rung::Full);
        for _ in 0..4 {
            drive(&mut l, true, 3);
        }
        assert_eq!(l.rung(), Rung::SafeState);
        assert_eq!(l.hold(), 64, "capped at max_hold");
    }

    #[test]
    fn suspect_pressure_never_takes_the_terminal_park() {
        let mut l = ladder();
        // Suspect intervals demote the capability rungs like harm does...
        for _ in 0..6 {
            l.signal(LadderSignal::Suspect);
        }
        assert_eq!(l.rung(), Rung::FreqOnly);
        // ...but at freq-only they hold: no amount of contained noise
        // surrenders the last knob, and no promotion credit accrues.
        for _ in 0..100 {
            assert_eq!(l.signal(LadderSignal::Suspect), LadderTransition::None);
        }
        assert_eq!(l.rung(), Rung::FreqOnly, "suspect never parks");
        assert_eq!(l.promotions(), 0);
        // Demonstrated harm still does, at the doubled terminal threshold.
        for _ in 0..6 {
            l.signal(LadderSignal::Harmful);
        }
        assert_eq!(l.rung(), Rung::SafeState);
    }

    #[test]
    fn suspect_blocks_promotion_without_growing_the_streak() {
        let mut l = ladder();
        drive(&mut l, true, 6); // -> FreqOnly, required hold 8
        assert_eq!(l.rung(), Rung::FreqOnly);
        // Alternate clean and suspect: the clean streak never reaches the
        // hold, so the rung neither promotes nor parks.
        for _ in 0..40 {
            l.signal(LadderSignal::Clean);
            l.signal(LadderSignal::Suspect);
        }
        assert_eq!(l.rung(), Rung::FreqOnly);
        assert_eq!(l.promotions(), 0, "suspect intervals reset promotion credit");
    }

    #[test]
    fn promotion_requires_full_hold_per_step() {
        let mut l = ladder();
        drive(&mut l, true, 6); // -> FreqOnly, required hold 8
        assert_eq!(l.rung(), Rung::FreqOnly);
        drive(&mut l, false, 7);
        assert_eq!(l.rung(), Rung::FreqOnly, "7 clean < hold 8");
        assert_eq!(
            l.tick(false),
            LadderTransition::Promoted {
                from: Rung::FreqOnly,
                to: Rung::CgOnly
            }
        );
        drive(&mut l, false, 8);
        assert_eq!(l.rung(), Rung::Full);
        assert_eq!(l.promotions(), 2);
    }

    #[test]
    fn clean_streak_at_full_resets_backoff() {
        let mut l = ladder();
        drive(&mut l, true, 6); // two demotions, hold now 8
        drive(&mut l, false, 16); // promote back to Full
        assert_eq!(l.rung(), Rung::Full);
        drive(&mut l, false, 16); // clean_reset at Full
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 4, "backoff reset to base_hold");
    }

    #[test]
    fn square_wave_never_oscillates_once_demoted() {
        // Fault pattern: 3 anomalous, 3 clean, repeating. The first burst
        // demotes (hold 4 > clean half-period 3), and no later clean burst
        // is ever long enough to promote.
        let mut l = ladder();
        let mut promoted = 0;
        for cycle in 0..50 {
            for _ in 0..3 {
                l.tick(true);
            }
            for _ in 0..3 {
                if matches!(l.tick(false), LadderTransition::Promoted { .. }) {
                    promoted += 1;
                }
            }
            assert!(l.rung() != Rung::Full, "cycle {cycle}: demoted for good");
        }
        assert_eq!(promoted, 0, "hysteresis holds against the square wave");
        // Bursts of 3 never reach the terminal threshold of 6, so the
        // flapping fault settles one rung above the park.
        assert_eq!(l.rung(), Rung::FreqOnly, "flapping settles off the floor");
    }

    #[test]
    fn degrade_governor_routes_decisions_by_rung() {
        let stats = PolicyStats::new();
        let mut g = DegradeLayer::new(
            LadderConfig::default(),
            safe(),
            Box::new(BaselineGovernor::new()),
            Box::new(BaselineGovernor::new()),
        )
        .with_stats(&stats)
        .layer(Box::new(BaselineGovernor::new()));
        let k = KernelProfile::builder("k").build();
        // Drive all the way down: 3 + 3 anomalies through the intermediate
        // rungs, then the doubled terminal streak of 6.
        for i in 0..12 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &garbage());
        }
        assert_eq!(g.decide(&k, 12), safe());
        assert_eq!(stats.rung_demotions(), 3);
        assert_eq!(stats.fallback_engagements(), 1, "bottom rung counts as park");
        let residency = stats.rung_residency();
        assert_eq!(residency[Rung::Full.index()], 3);
        assert_eq!(residency[Rung::CgOnly.index()], 3);
        assert_eq!(residency[Rung::FreqOnly.index()], 6);
    }

    fn park() -> Ladder {
        Ladder::park(LadderConfig::park())
    }

    fn counter_park() -> DegradeLayer<'static> {
        DegradeLayer::park(LadderConfig::park(), safe(), Box::new(CounterCheck::new(false)))
    }

    fn parked(l: &Ladder) -> bool {
        l.rung() == Rung::SafeState
    }

    const ENGAGED: LadderTransition = LadderTransition::Demoted {
        from: Rung::Full,
        to: Rung::SafeState,
        hold: 4,
    };
    const RELEASED: LadderTransition = LadderTransition::Promoted {
        from: Rung::SafeState,
        to: Rung::Full,
    };

    #[test]
    fn park_engages_only_after_consecutive_threshold() {
        let mut p = park();
        assert_eq!(p.tick(true), LadderTransition::None);
        assert_eq!(p.tick(true), LadderTransition::None);
        // A clean interval breaks the streak.
        assert_eq!(p.tick(false), LadderTransition::None);
        assert_eq!(p.tick(true), LadderTransition::None);
        assert_eq!(p.tick(true), LadderTransition::None);
        assert_eq!(p.tick(true), ENGAGED);
        assert!(parked(&p));
    }

    #[test]
    fn park_hold_expires_whatever_the_intervals_look_like() {
        let mut p = park();
        drive(&mut p, true, 3);
        assert!(parked(&p));
        // base_hold = 4: three more ticks stay parked, the fourth releases
        // — anomalous or not.
        assert_eq!(p.tick(true), LadderTransition::None);
        assert_eq!(p.tick(false), LadderTransition::None);
        assert_eq!(p.tick(true), LadderTransition::None);
        assert_eq!(p.tick(false), RELEASED);
        assert!(!parked(&p));
    }

    #[test]
    fn park_backoff_doubles_up_to_cap_and_resets_after_clean_streak() {
        let mut p = park();
        let engage_and_release = |p: &mut Ladder| {
            while !parked(p) {
                p.tick(true);
            }
            let held = p.hold();
            while parked(p) {
                p.tick(true);
            }
            held
        };
        assert_eq!(engage_and_release(&mut p), 4);
        assert_eq!(engage_and_release(&mut p), 8);
        assert_eq!(engage_and_release(&mut p), 16);
        // A long clean run resets the backoff to base.
        drive(&mut p, false, 16);
        assert_eq!(engage_and_release(&mut p), 4);
    }

    #[test]
    fn park_backoff_caps_at_max_hold() {
        let mut p = Ladder::park(LadderConfig {
            max_hold: 8,
            ..LadderConfig::park()
        });
        for _ in 0..10 {
            while !parked(&p) {
                p.tick(true);
            }
            assert!(p.hold() <= 8);
            while parked(&p) {
                p.tick(true);
            }
        }
        assert_eq!(p.demotions(), 10);
    }

    #[test]
    fn park_layer_engages_after_threshold_and_pins_safe_state() {
        let stats = PolicyStats::new();
        let mut g = counter_park()
            .with_stats(&stats)
            .layer(Box::new(BaselineGovernor::new()));
        let k = KernelProfile::builder("k").build();
        let boost = HwConfig::max_hd7970();
        for i in 0..3 {
            assert_eq!(g.decide(&k, i), boost);
            g.observe(&k, i, boost, &garbage());
        }
        assert_eq!(stats.fallback_engagements(), 1);
        assert_eq!(g.decide(&k, 3), safe());
        // base_hold = 4: the hold runs out after four parked intervals.
        for i in 3..7 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &garbage());
        }
        assert_eq!(g.decide(&k, 7), boost, "released after the hold expires");
        assert_eq!(stats.rung_residency(), [3, 0, 0, 4]);
    }

    #[test]
    fn park_layer_is_name_transparent() {
        let g = counter_park().layer(Box::new(BaselineGovernor::new()));
        assert_eq!(g.name(), "baseline");
    }

    #[test]
    fn nested_parks_count_residency_once_per_interval() {
        // Outer park over inner park, both on one stats handle: only the
        // inner one trips (the outer's check never fires), and every
        // interval is counted exactly once, as safe while either is parked.
        struct Never;
        impl AnomalyCheck for Never {
            fn verdict(
                &mut self,
                _: &KernelProfile,
                _: HwConfig,
                _: &CounterSample,
                _: Option<HwConfig>,
                _: bool,
            ) -> Option<&'static str> {
                None
            }
            fn quarantines(&self) -> bool {
                false
            }
        }
        let stats = PolicyStats::new();
        let inner = counter_park()
            .with_stats(&stats)
            .layer(Box::new(BaselineGovernor::new()));
        let mut g = DegradeLayer::park(LadderConfig::park(), safe(), Box::new(Never))
            .with_stats(&stats)
            .layer(inner);
        let k = KernelProfile::builder("k").build();
        for i in 0..10 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &garbage());
        }
        // 3 full intervals trip the inner park, 4 parked, 3 more to trip it
        // again.
        assert_eq!(stats.rung_residency(), [6, 0, 0, 4]);
        assert_eq!(stats.fallback_engagements(), 2);
    }
}
