//! The closed loop, metric records and seeded draws shared by every
//! workload.

use crate::host::{self, Host};
use crate::stats;
use std::time::{Duration, Instant};

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports: the verdict, op counts and its metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// False when any op produced a wrong output (as opposed to failing
    /// with a detected, reported error).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The verdict of one op.
#[derive(Debug)]
pub struct OpResult {
    /// The op completed but the program reported an error (counted as a
    /// failed op).
    pub failure: Option<String>,
    /// The op produced a wrong output (the run is not correct).
    pub wrong: Option<String>,
    /// Governor decisions the op made.
    pub decisions: u64,
}

/// Measurements of one closed loop: one client, the next op starts when
/// the previous one returns.
pub struct LoopStats {
    pub latencies_s: Vec<f64>,
    pub elapsed_s: f64,
    pub failed: u64,
    pub decisions: u64,
    pub wrong: Vec<String>,
    pub failures: Vec<String>,
}

/// Runs `op(0), op(1), …` until `seconds` have elapsed and at least
/// `min_ops` ops completed.
pub fn closed_loop(seconds: u64, min_ops: usize, mut op: impl FnMut(u64) -> OpResult) -> LoopStats {
    let budget = Duration::from_secs(seconds);
    let mut stats = LoopStats {
        latencies_s: Vec::new(),
        elapsed_s: 0.0,
        failed: 0,
        decisions: 0,
        wrong: Vec::new(),
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || stats.latencies_s.len() < min_ops {
        let t = Instant::now();
        let r = op(i);
        stats.latencies_s.push(t.elapsed().as_secs_f64());
        stats.decisions += r.decisions;
        if let Some(f) = r.failure {
            stats.failed += 1;
            stats.failures.push(format!("op {i}: {f}"));
        }
        if let Some(w) = r.wrong {
            stats.wrong.push(format!("op {i}: {w}"));
        }
        i += 1;
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats
}

/// The reported op-latency tail: p90, or the highest percentile with ten
/// samples beyond it when a run has fewer than 101 ops.
const TAIL_CAP: f64 = 0.9;

/// Runs `setup` `times` times and returns the median seconds with the last
/// result.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        stats::median(&secs).expect("setup runs at least once"),
        last.expect("setup runs at least once"),
    )
}

/// The end-to-end metrics of a closed loop. The latency tail is printed
/// beside them but not gated: on a shared host one contention episode in a
/// run moves it far more than the median.
pub fn end_to_end(setup_s: f64, lp: &LoopStats, host: &Host) -> Outcome {
    let n = lp.latencies_s.len();
    let ms: Vec<f64> = lp.latencies_s.iter().map(|s| s * 1e3).collect();
    let summary = stats::summarize(&ms, TAIL_CAP).expect("the loop runs at least one op");
    let (level, tail) = summary
        .tail
        .unwrap_or((1.0, ms.iter().copied().fold(0.0, f64::max)));
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", n as f64 / lp.elapsed_s, "1/s"),
        Metric::new("op_p50_ms", summary.median, "ms"),
        Metric::new("decisions_per_s", lp.decisions as f64 / lp.elapsed_s, "1/s"),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
    ];
    eprintln!(
        "  ops={n} failed={} error_rate={:.6} op_p50_ms={:.6} op_tail_ms={tail:.6} (p{:.1}, {} samples beyond)  [{}]",
        lp.failed,
        lp.failed as f64 / n as f64,
        summary.median,
        level * 100.0,
        ms.iter().filter(|&&x| x > tail).count(),
        host.tag()
    );
    for f in lp.failures.iter().take(3) {
        eprintln!("  failed {f}");
    }
    for w in &lp.wrong {
        eprintln!("  WRONG {w}");
    }
    Outcome {
        correct: lp.wrong.is_empty(),
        attempted: n as u64,
        failed: lp.failed,
        metrics,
    }
}

/// splitmix64: expands a seed into independent draws.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw stream keyed on `(seed, stream)`.
pub fn stream(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Fisher–Yates shuffle of `0..n` driven by `state`.
pub fn permutation(n: usize, state: &mut u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of paired relative differences `(b − a) / a`, in percent.
pub fn paired_overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let rel: Vec<f64> = pairs
        .iter()
        .filter(|(a, _)| *a > 0.0)
        .map(|(a, b)| (b - a) / a * 100.0)
        .collect();
    stats::median(&rel).unwrap_or(f64::NAN)
}

/// The outcome of one workload's traced run, its wrong outputs printed.
pub fn traced_outcome(
    metrics: Vec<Metric>,
    wrong: Vec<String>,
    attempted: u64,
    failed: u64,
) -> Outcome {
    for w in &wrong {
        eprintln!("  WRONG {w}");
    }
    Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
