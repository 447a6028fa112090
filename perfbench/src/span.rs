//! In-memory spans for the traced run.
//!
//! Every span has a name, a start and end (ns since the tracer's epoch), a
//! parent and the op it belongs to. Spans are appended when they close and
//! written out once, at exit. A span's *self time* is its duration minus
//! the part of its interval covered by its children; children may overlap
//! (parallel device steps under one tick), so coverage is an interval
//! union, clipped to the parent.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span identifier; [`ROOT`] marks a span without a parent.
pub type SpanId = u64;

/// The parent id of top-level spans.
pub const ROOT: SpanId = 0;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: closed by [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    pub fn open(&self, name: &'static str, parent: SpanId, op: u64) -> Open {
        Open {
            // Relaxed: ids only need to be unique, they publish nothing.
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let open = self.open(name, parent, op);
        let out = f(open.id);
        self.close(open);
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes spans as tab-separated `op id parent name start_ns end_ns self_ns`.
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_serial_children() {
        // op [0,100) with children [10,30) and [40,90): self = 100 − 70.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 30);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 50);
        // Self times of a tree without overlap sum to the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children covering [10,60) ∪ [20,80) = 70 ns of 100.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 20, 80),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 0, 50), span(3, 2, 10, 40)];
        let t = self_times(&spans);
        assert_eq!(t[&1], 50);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 30);
    }

    #[test]
    fn coverage_is_clipped_to_the_parent() {
        let mut iv = [(90, 130), (0, 5), (3, 20)];
        assert_eq!(covered_ns(10, 100, &mut iv), 10 + 10);
        assert_eq!(covered_ns(0, 10, &mut []), 0);
    }

    #[test]
    fn tracer_links_parents_and_closes_in_order() {
        let tracer = Tracer::new();
        tracer.time("outer", ROOT, 7, |outer| {
            tracer.time("inner", outer, 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, ROOT);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let mut buf = Vec::new();
        write_tsv(&mut buf, &spans).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }
}
