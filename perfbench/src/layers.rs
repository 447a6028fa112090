//! Per-layer aggregation of a traced run's spans.

use crate::span::{self_times, Span, SpanId, ROOT};
use crate::stats;
use std::collections::{BTreeMap, HashMap};

#[derive(Default, Clone, Copy)]
struct Acc {
    self_ns: u64,
    dur_ns: u64,
}

/// Spans of one workload (by name prefix), aggregated per op and per call.
pub struct Layers {
    per_op: BTreeMap<&'static str, BTreeMap<u64, Acc>>,
    per_call: BTreeMap<&'static str, Vec<f64>>,
    /// Name of the top-level span each span name sits under.
    root_of: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    pub fn new(spans: &[Span], prefix: &str) -> Self {
        let spans: Vec<Span> = spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .cloned()
            .collect();
        let selfs = self_times(&spans);
        let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut layers = Self {
            per_op: BTreeMap::new(),
            per_call: BTreeMap::new(),
            root_of: BTreeMap::new(),
        };
        for s in &spans {
            let self_ns = selfs[&s.id];
            let acc = layers
                .per_op
                .entry(s.name)
                .or_default()
                .entry(s.op)
                .or_default();
            acc.self_ns += self_ns;
            acc.dur_ns += s.duration_ns();
            layers
                .per_call
                .entry(s.name)
                .or_default()
                .push(self_ns as f64);
            layers.root_of.entry(s.name).or_insert_with(|| {
                let mut top = s;
                while top.parent != ROOT {
                    match by_id.get(&top.parent) {
                        Some(p) => top = p,
                        None => break,
                    }
                }
                top.name
            });
        }
        layers
    }

    fn per_op_values(&self, name: &str, f: impl Fn(Acc) -> u64) -> Vec<f64> {
        self.per_op
            .get(name)
            .map_or_else(Vec::new, |ops| ops.values().map(|a| f(*a) as f64).collect())
    }

    /// Median over ops of the summed self time of `name` spans, in ns.
    pub fn self_per_op_ns(&self, name: &str) -> f64 {
        stats::median(&self.per_op_values(name, |a| a.self_ns)).unwrap_or(f64::NAN)
    }

    /// Median over ops of the summed duration of `name` spans, in ns.
    pub fn dur_per_op_ns(&self, name: &str) -> f64 {
        stats::median(&self.per_op_values(name, |a| a.dur_ns)).unwrap_or(f64::NAN)
    }

    /// Self time of every `name` span, in ns.
    pub fn per_call_ns(&self, name: &str) -> &[f64] {
        self.per_call.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median self time per `name` span, in ns.
    pub fn median_call_ns(&self, name: &str) -> f64 {
        stats::median(self.per_call_ns(name)).unwrap_or(f64::NAN)
    }

    /// Prints, for every span name under the `op` spans, its median per-op
    /// self time, its share of the median op, and its per-span
    /// distribution (median, highest percentile with ten samples beyond
    /// it, sample count). Shares sum to about 100% when no children run in
    /// parallel; above that by the parallel overlap.
    pub fn print_breakdown(&self, op: &str, host: &str) {
        let op_ns = self.dur_per_op_ns(op);
        eprintln!(
            "  {op}: median {:.3} ms over {} ops  [{host}]",
            op_ns / 1e6,
            self.per_op.get(op).map_or(0, BTreeMap::len)
        );
        eprintln!(
            "    {:<40} {:>12} {:>7} {:>12} {:>18} {:>8}",
            "layer (self time)", "per op ms", "share", "per span us", "tail us", "spans"
        );
        for (name, root) in &self.root_of {
            if *root != op {
                continue;
            }
            let per_op = self.self_per_op_ns(name);
            let calls = stats::summarize(self.per_call_ns(name), 1.0);
            let (median, tail, n) = calls.map_or((f64::NAN, None, 0), |s| (s.median, s.tail, s.n));
            let tail = tail.map_or_else(
                || "—".to_string(),
                |(l, v)| format!("p{:.3} {:.3}", l * 100.0, v / 1e3),
            );
            eprintln!(
                "    {:<40} {:>12.4} {:>6.1}% {:>12.3} {:>18} {:>8}",
                name,
                per_op / 1e6,
                per_op / op_ns * 100.0,
                median / 1e3,
                tail,
                n
            );
        }
        // Per op: the summed self times of every span in the op's tree over
        // the op's duration. Exactly 100% without parallel children.
        let ratios: Vec<f64> = self.per_op.get(op).map_or_else(Vec::new, |ops| {
            ops.iter()
                .map(|(id, acc)| {
                    let sum: u64 = self
                        .root_of
                        .iter()
                        .filter(|(_, root)| **root == op)
                        .filter_map(|(name, _)| self.per_op[name].get(id).map(|a| a.self_ns))
                        .sum();
                    sum as f64 / acc.dur_ns as f64
                })
                .collect()
        });
        let unattributed = self.self_per_op_ns(op) / op_ns;
        eprintln!(
            "    self times sum to {:.1}% of the op (median over ops; above 100% by parallel overlap); the op's own unattributed self time is {:.2}%",
            stats::median(&ratios).unwrap_or(f64::NAN) * 100.0,
            unattributed * 100.0
        );
    }
}
