//! Host descriptor printed beside every absolute number, and process
//! memory.

use std::hint::black_box;
use std::time::Instant;

/// What the numbers were measured on: absolute host times only compare
/// between runs with the same descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    /// Persistent workers of the shared sweep pool (the caller of each
    /// sweep is one more executor).
    pub pool_workers: usize,
    /// Median ns of [`calibration_loop`], a fixed integer workload.
    pub calib_ns: f64,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let pool_workers = harmonia_sim::pool::shared().workers();
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                black_box(calibration_loop(black_box(1 << 20)));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        Self {
            nproc,
            pool_workers,
            calib_ns: samples[samples.len() / 2],
        }
    }

    /// One-line form appended to every printed absolute number.
    pub fn tag(&self) -> String {
        format!(
            "nproc={} pool_workers={} calib_ns={:.0}",
            self.nproc, self.pool_workers, self.calib_ns
        )
    }
}

/// A fixed, dependency-free integer workload: `n` xorshift64 steps.
pub fn calibration_loop(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
