//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => {
            let hi = v.swap_remove(n / 2);
            Some((v[n / 2 - 1] + hi) / 2.0)
        }
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as a fraction in `[0, 1)`, capped at `cap`; `None`
/// when fewer than eleven samples exist. With `n` samples the value at
/// sorted index `k` has `n − 1 − k` samples above it, so the highest
/// admissible index is `n − 11` and its percentile is `(n − 11) / (n − 1)`.
pub fn tail_level(n: usize, cap: f64) -> Option<f64> {
    if n < 11 {
        return None;
    }
    let level = (n - 11) as f64 / (n - 1) as f64;
    Some(level.min(cap))
}

/// The `level` percentile of `xs` (nearest-rank on the sorted samples,
/// rounding the rank down so at least `(1 − level)·(n − 1)` samples lie
/// above it); `None` when empty.
pub fn percentile(xs: &[f64], level: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    // The epsilon keeps ranks like `9/19 · 19` from flooring to 8.
    let idx = (level.clamp(0.0, 1.0) * (v.len() - 1) as f64 + 1e-9).floor() as usize;
    Some(v[idx])
}

/// A timing distribution as reported: median, the highest percentile with
/// at least ten samples beyond it (at most `cap`), and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(level, value)`; `None` when there are too few samples.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

/// Summarizes `xs`; `None` when empty.
pub fn summarize(xs: &[f64], cap: f64) -> Option<Summary> {
    let median = median(xs)?;
    let tail = tail_level(xs.len(), cap).map(|level| {
        let value = percentile(xs, level).expect("non-empty");
        (level, value)
    });
    Some(Summary {
        median,
        tail,
        n: xs.len(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn the_tail_percentile_keeps_ten_samples_beyond_it() {
        // Too few samples: no percentile has ten beyond it.
        assert_eq!(tail_level(10, 1.0), None);
        // Eleven samples: only the minimum has ten above it.
        assert_eq!(tail_level(11, 1.0), Some(0.0));
        for n in [11usize, 20, 35, 100, 101, 1000, 40_000] {
            let level = tail_level(n, 1.0).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&xs, level).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, 10, "n={n}: exactly ten samples beyond the tail");
        }
        // The cap wins when the sample count would allow a higher level.
        assert_eq!(tail_level(1000, 0.9), Some(0.9));
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let v = percentile(&xs, 0.9).unwrap();
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10);
    }

    #[test]
    fn summaries_carry_the_sample_count() {
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = summarize(&xs, 0.9).unwrap();
        assert_eq!(s.n, 30);
        assert_eq!(s.median, 15.5);
        let (level, value) = s.tail.unwrap();
        assert!((level - 19.0 / 29.0).abs() < 1e-12);
        assert_eq!(value, 20.0);
        assert!(summarize(&xs[..5], 0.9).unwrap().tail.is_none());
    }
}
