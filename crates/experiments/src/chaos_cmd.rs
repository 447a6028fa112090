//! The `chaos <app>` subcommand: run one application through the full
//! fault matrix, with and without the hardening stack, and report a
//! resilience table.
//!
//! Every matrix cell pits two pipelines against the *same* fault
//! environment ([`FaultyModel`] on the measurement path, the runtime
//! actuator shim on the decision path, both driven by one seeded
//! [`FaultPlan`]):
//!
//! * **unhardened** — the registry's `capped@185` stack, as the
//!   evaluation pipeline runs it;
//! * **hardened** — the registry's `hardened:capped@185` stack: the same
//!   governor with the counter sanitizer enabled and a safe-state park
//!   armed on both the counter and the cap path;
//! * **ladder** — the registry's `hardened:ladder@185` stack: instead of
//!   an all-or-nothing park, anomalies step the policy down a
//!   graceful-degradation ladder (full Harmonia → CG-only → frequency-only
//!   → safe state) with hysteresis and exponential backoff on the way
//!   back up.
//!
//! Fault firing is a pure function of the plan seed
//! ([`FaultPlan::seed_from_env`], overridable via `HARMONIA_FAULT_SEED`),
//! so the whole table is exactly repeatable: same seed, same bytes.

use crate::context::Context;
use crate::report::Report;
use harmonia::governor::{PolicyResources, PolicySpec, Rung};
use harmonia::runtime::{RetryPolicy, Runtime};
use harmonia::telemetry::{self, TraceHandle};
use harmonia_sim::{FaultKind, FaultPlan, FaultSpec, FaultyModel};
use harmonia_types::Watts;
use harmonia_workloads::{suite, Application};

/// The power envelope every chaos cell runs under.
pub const CHAOS_CAP: Watts = Watts(185.0);

/// Safe-state residency ceiling the smoke test and CI grep assert: fallback
/// must be a refuge, not the steady state.
pub const RESIDENCY_BOUND: f64 = 0.90;

/// One pipeline's measurements in one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Energy-delay² of the run (may be non-finite when glitched telemetry
    /// poisons an unhardened pipeline's accounting).
    pub ed2: f64,
    /// Intervals whose projected card power exceeded the cap (5%
    /// tolerance).
    pub cap_violations: u64,
    /// Cap violations observed while the cap park was engaged.
    pub violations_while_fallback: u64,
    /// Kernel invocations executed.
    pub invocations: u64,
    /// Invocations that ran while any park or the ladder's bottom rung
    /// held the safe state.
    pub fallback_invocations: u64,
    /// Counter samples (or fields) the sanitizer rejected.
    pub sanitizer_rejects: u64,
    /// Anomalous intervals the parks or the ladder flagged.
    pub faults_detected: u64,
    /// Actuator faults the runtime shim injected.
    pub faults_injected: u64,
    /// Invocations spent on each degradation rung (full, cg-only,
    /// freq-only, safe-state); all zero for stacks without a park or
    /// ladder.
    pub rung_residency: [u64; 4],
    /// Rung steps down, park engagements included.
    pub rung_demotions: u64,
    /// Rung steps back up, park releases included.
    pub rung_promotions: u64,
}

impl ChaosOutcome {
    /// Fraction of invocations spent in the safe state.
    pub fn safe_residency(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.fallback_invocations as f64 / self.invocations as f64
        }
    }
}

/// One row of the fault matrix: both pipelines under one fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Fault-class label (`clean`, `counter-dropout`, ...).
    pub fault: String,
    /// The stock pipeline's outcome.
    pub unhardened: ChaosOutcome,
    /// The hardened (parked) pipeline's outcome.
    pub hardened: ChaosOutcome,
    /// The degradation-ladder pipeline's outcome.
    pub ladder: ChaosOutcome,
}

/// The outcome of a chaos run: the printable resilience table plus the
/// machine-readable cells the smoke tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// Tabular resilience report.
    pub report: Report,
    /// Application name.
    pub app: String,
    /// The plan seed every cell was derived from.
    pub seed: u64,
    /// The fault-free reference cell.
    pub clean: ChaosCell,
    /// One cell per fault class.
    pub cells: Vec<ChaosCell>,
}

impl ChaosRun {
    /// ED² degradation ratio of one outcome versus its clean counterpart;
    /// non-finite ED² (poisoned accounting) counts as infinite degradation.
    fn degradation(ed2: f64, clean_ed2: f64) -> f64 {
        let r = ed2 / clean_ed2;
        if r.is_finite() {
            r
        } else {
            f64::INFINITY
        }
    }

    /// Geometric mean of the hardened pipeline's ED² degradation over the
    /// fault cells.
    pub fn hardened_degradation(&self) -> f64 {
        self.geomean(|c| Self::degradation(c.hardened.ed2, self.clean.hardened.ed2))
    }

    /// Geometric mean of the unhardened pipeline's ED² degradation over the
    /// fault cells.
    pub fn unhardened_degradation(&self) -> f64 {
        self.geomean(|c| Self::degradation(c.unhardened.ed2, self.clean.unhardened.ed2))
    }

    fn geomean<F: Fn(&ChaosCell) -> f64>(&self, ratio: F) -> f64 {
        let ratios: Vec<f64> = self.cells.iter().map(ratio).collect();
        if ratios.iter().any(|r| !r.is_finite()) {
            return f64::INFINITY;
        }
        harmonia_stats::geometric_mean(&ratios).unwrap_or(f64::INFINITY)
    }

    /// Whether the hardened pipeline degraded strictly less than the
    /// unhardened one across the fault matrix.
    pub fn hardened_wins(&self) -> bool {
        self.hardened_degradation() < self.unhardened_degradation()
    }

    /// Whether the cap held whenever fallback was engaged, in every cell.
    pub fn zero_violations_while_fallback(&self) -> bool {
        self.cells
            .iter()
            .chain(std::iter::once(&self.clean))
            .all(|c| c.hardened.violations_while_fallback == 0)
    }

    /// The worst hardened safe-state residency across the fault cells.
    pub fn max_safe_residency(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.hardened.safe_residency())
            .fold(0.0, f64::max)
    }

    /// Geometric mean of the ladder pipeline's ED² degradation over the
    /// fault cells.
    pub fn ladder_degradation(&self) -> f64 {
        self.geomean(|c| Self::degradation(c.ladder.ed2, self.clean.ladder.ed2))
    }

    /// The worst ladder safe-state (bottom-rung) residency across the
    /// fault cells.
    pub fn ladder_max_safe_residency(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.ladder.safe_residency())
            .fold(0.0, f64::max)
    }

    /// Whether the ladder degrades no worse than the parked hardened
    /// stack across the fault matrix.
    pub fn ladder_not_worse(&self) -> bool {
        self.ladder_degradation() <= self.hardened_degradation() * 1.0001
    }

    /// Whether the ladder spends strictly less time in the safe state than
    /// the parked stack — the point of degrading stepwise.
    pub fn ladder_lower_residency(&self) -> bool {
        let (ladder, parked) = (self.ladder_max_safe_residency(), self.max_safe_residency());
        ladder < parked || (parked == 0.0 && ladder == 0.0)
    }

    /// Whether the cap held in every cell, whatever rung the ladder sat
    /// on: no violations at all from the ladder stack.
    pub fn ladder_zero_cap_violations(&self) -> bool {
        self.cells
            .iter()
            .chain(std::iter::once(&self.clean))
            .all(|c| c.ladder.cap_violations == 0 && c.ladder.violations_while_fallback == 0)
    }
}

/// The fault matrix: one plan per fault class, all under one seed. The
/// `clean` head cell carries an empty (bit-transparent) plan.
pub fn fault_matrix(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::new(seed)),
        (
            "counter-dropout",
            FaultPlan::new(seed).with(FaultSpec::new(FaultKind::CounterDropout, 0.25)),
        ),
        (
            "counter-stuck",
            FaultPlan::new(seed)
                .with(FaultSpec::new(FaultKind::CounterStuck, 1.0).with_window(3, 9)),
        ),
        (
            "counter-spike",
            FaultPlan::new(seed)
                .with(FaultSpec::new(FaultKind::CounterSpike, 0.2).with_magnitude(8.0)),
        ),
        (
            "sensor-bias",
            FaultPlan::new(seed)
                .with(FaultSpec::new(FaultKind::SensorBias, 1.0).with_magnitude(0.3)),
        ),
        (
            "power-glitch",
            FaultPlan::new(seed).with(FaultSpec::new(FaultKind::PowerGlitch, 0.15)),
        ),
        (
            "dvfs-deny",
            FaultPlan::new(seed).with(FaultSpec::new(FaultKind::DvfsDeny, 0.35)),
        ),
        (
            "dvfs-delay",
            FaultPlan::new(seed).with(FaultSpec::new(FaultKind::DvfsDelay, 0.35)),
        ),
        (
            "dvfs-neighbor",
            FaultPlan::new(seed).with(FaultSpec::new(FaultKind::DvfsNeighbor, 0.35)),
        ),
        (
            "thermal-throttle",
            FaultPlan::new(seed)
                .with(FaultSpec::new(FaultKind::ThermalThrottle, 1.0).with_window(4, 12)),
        ),
    ]
}

/// Runs one registry stack under one fault plan.
fn run_pipeline(ctx: &Context, app: &Application, plan: &FaultPlan, spec: PolicySpec) -> ChaosOutcome {
    let faulty = FaultyModel::new(ctx.model(), plan.clone());
    let handle = TraceHandle::new();
    let mut rt = Runtime::new(&faulty, ctx.power())
        .with_telemetry(handle.clone())
        .with_faults(plan);
    // The ladder cell runs the full robustness pipeline: graceful
    // degradation *plus* the retry/backoff actuator, so denied and
    // partially-applied DVFS transitions are retried or rolled back
    // instead of silently running at the wrong operating point.
    if matches!(spec, PolicySpec::HardenedLadder(_)) {
        rt = rt.with_actuator(RetryPolicy::default());
    }
    // Every cell comes from the registry, so the table measures exactly
    // the stacks users can name on the command line.
    let resources = PolicyResources::new(ctx.predictor(), &faulty, ctx.power());
    let policy = spec.build(&resources);
    let mut gov = policy.governor;
    let run = rt.run(app, &mut gov);
    let s = telemetry::summarize(&handle.events(), &ctx.device().gpu.grid);
    let rung_residency = policy.stats.rung_residency();
    ChaosOutcome {
        ed2: run.ed2(),
        cap_violations: policy.stats.cap_violations(),
        violations_while_fallback: policy.stats.violations_while_fallback(),
        invocations: s.invocations,
        fallback_invocations: rung_residency[Rung::SafeState.index()],
        sanitizer_rejects: s.sanitizer_rejects,
        faults_detected: s.faults_detected,
        faults_injected: s.faults_injected,
        rung_residency,
        rung_demotions: policy.stats.rung_demotions(),
        rung_promotions: policy.stats.rung_promotions(),
    }
}

fn fmt_ed2(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3e}")
    } else {
        "poisoned".to_string()
    }
}

fn fmt_ratio(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}x")
    } else {
        "∞".to_string()
    }
}

/// Runs the full fault matrix for `name` (case-insensitive suite lookup).
/// Returns `None` for an unknown application.
pub fn chaos_app(ctx: &Context, name: &str) -> Option<ChaosRun> {
    let app = suite::all()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))?;
    let seed = FaultPlan::seed_from_env();
    let mut all: Vec<ChaosCell> = fault_matrix(seed)
        .into_iter()
        .map(|(label, plan)| ChaosCell {
            fault: label.to_string(),
            unhardened: run_pipeline(ctx, &app, &plan, PolicySpec::Capped(CHAOS_CAP)),
            hardened: run_pipeline(ctx, &app, &plan, PolicySpec::HardenedCapped(CHAOS_CAP)),
            ladder: run_pipeline(ctx, &app, &plan, PolicySpec::HardenedLadder(CHAOS_CAP)),
        })
        .collect();
    let clean = all.remove(0);
    let mut run = ChaosRun {
        report: Report::new("", "", &[]),
        app: app.name.clone(),
        seed,
        clean,
        cells: all,
    };

    let mut report = Report::new(
        format!("chaos-{}", app.name.to_lowercase()),
        format!(
            "Resilience under injected faults, {} at {:.0} W (seed {seed})",
            app.name,
            CHAOS_CAP.value()
        ),
        &[
            "fault",
            "ED² unhardened",
            "ED² hardened",
            "ED² ladder",
            "×clean (unhard)",
            "×clean (hard)",
            "×clean (ladder)",
            "cap viol (u/h/l)",
            "viol@fallback",
            "safe res (h/l)",
            "rungs f/c/q/s",
            "rejects",
            "detected",
        ],
    );
    for cell in std::iter::once(&run.clean).chain(run.cells.iter()) {
        let u = &cell.unhardened;
        let h = &cell.hardened;
        let l = &cell.ladder;
        let [rf, rc, rq, rs] = l.rung_residency;
        report.push_row(vec![
            cell.fault.clone(),
            fmt_ed2(u.ed2),
            fmt_ed2(h.ed2),
            fmt_ed2(l.ed2),
            fmt_ratio(ChaosRun::degradation(u.ed2, run.clean.unhardened.ed2)),
            fmt_ratio(ChaosRun::degradation(h.ed2, run.clean.hardened.ed2)),
            fmt_ratio(ChaosRun::degradation(l.ed2, run.clean.ladder.ed2)),
            format!("{}/{}/{}", u.cap_violations, h.cap_violations, l.cap_violations),
            h.violations_while_fallback.to_string(),
            format!(
                "{:.1}%/{:.1}%",
                h.safe_residency() * 100.0,
                l.safe_residency() * 100.0
            ),
            format!("{rf}/{rc}/{rq}/{rs}"),
            h.sanitizer_rejects.to_string(),
            h.faults_detected.to_string(),
        ]);
    }
    report.note(format!(
        "fault seed: {seed} (set {} to change; same seed reproduces this table exactly)",
        harmonia_sim::faults::FAULT_SEED_ENV
    ));
    report.note(format!(
        "zero cap violations while fallback engaged: {}",
        if run.zero_violations_while_fallback() {
            "yes"
        } else {
            "NO"
        }
    ));
    report.note(format!(
        "ED² degradation geomean over fault cells: hardened {} vs unhardened {} — hardened strictly better: {}",
        fmt_ratio(run.hardened_degradation()),
        fmt_ratio(run.unhardened_degradation()),
        if run.hardened_wins() { "yes" } else { "NO" }
    ));
    report.note(format!(
        "max safe-state residency: {:.1}% (bounded below {:.0}%: {})",
        run.max_safe_residency() * 100.0,
        RESIDENCY_BOUND * 100.0,
        if run.max_safe_residency() < RESIDENCY_BOUND {
            "yes"
        } else {
            "NO"
        }
    ));
    report.note(format!(
        "ladder ED² degradation geomean {} vs hardened {} — ladder degradation within hardened: {}",
        fmt_ratio(run.ladder_degradation()),
        fmt_ratio(run.hardened_degradation()),
        if run.ladder_not_worse() { "yes" } else { "NO" }
    ));
    report.note(format!(
        "ladder max safe-state residency {:.1}% vs parked hardened {:.1}% — ladder residency strictly lower: {}",
        run.ladder_max_safe_residency() * 100.0,
        run.max_safe_residency() * 100.0,
        if run.ladder_lower_residency() { "yes" } else { "NO" }
    ));
    report.note(format!(
        "zero cap violations in any ladder rung: {}",
        if run.ladder_zero_cap_violations() {
            "yes"
        } else {
            "NO"
        }
    ));
    run.report = report;
    Some(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_app_is_rejected() {
        let ctx = Context::new();
        assert!(chaos_app(&ctx, "NotAnApp").is_none());
    }

    #[test]
    fn matrix_covers_every_fault_kind() {
        let matrix = fault_matrix(1);
        assert_eq!(matrix[0].0, "clean");
        assert!(matrix[0].1.is_empty());
        let kinds: Vec<FaultKind> = matrix
            .iter()
            .flat_map(|(_, p)| p.specs().iter().map(|s| s.kind))
            .collect();
        for kind in [
            FaultKind::CounterDropout,
            FaultKind::CounterStuck,
            FaultKind::CounterSpike,
            FaultKind::SensorBias,
            FaultKind::PowerGlitch,
            FaultKind::DvfsDeny,
            FaultKind::DvfsDelay,
            FaultKind::DvfsNeighbor,
            FaultKind::ThermalThrottle,
        ] {
            assert!(kinds.contains(&kind), "{} missing", kind.label());
        }
        // Labels match the kind's stable label so trace events and table
        // rows agree.
        for (label, plan) in &matrix[1..] {
            assert_eq!(*label, plan.specs()[0].kind.label());
        }
    }

    #[test]
    fn chaos_run_is_deterministic_and_hardening_helps() {
        let ctx = Context::new();
        let a = chaos_app(&ctx, "maxflops").expect("MaxFlops is in the suite");
        let b = chaos_app(&ctx, "maxflops").expect("MaxFlops is in the suite");
        assert_eq!(a.report, b.report, "same seed must reproduce the table");
        assert_eq!(a.cells.len(), fault_matrix(a.seed).len() - 1);
        // The clean cell is genuinely fault-free.
        assert_eq!(a.clean.unhardened.faults_injected, 0);
        assert_eq!(a.clean.hardened.sanitizer_rejects, 0);
        assert!(a.clean.hardened.ed2.is_finite());
        // Acceptance: the hardened pipeline degrades strictly less, never
        // violates the cap while parked in the safe state, and does not
        // live there permanently.
        assert!(a.hardened_wins(), "hardened must degrade less than stock");
        assert!(a.zero_violations_while_fallback());
        assert!(a.max_safe_residency() < RESIDENCY_BOUND);
        // Ladder acceptance: degrades no worse than the parked hardened
        // pipeline, spends strictly less time in the safe state, and honours
        // the power cap in every rung.
        assert!(
            a.ladder_not_worse(),
            "ladder geomean degradation {} must not exceed hardened {}",
            a.ladder_degradation(),
            a.hardened_degradation()
        );
        assert!(
            a.ladder_lower_residency(),
            "ladder safe residency {} must be strictly below parked {}",
            a.ladder_max_safe_residency(),
            a.max_safe_residency()
        );
        assert!(a.ladder_zero_cap_violations());
    }
}

