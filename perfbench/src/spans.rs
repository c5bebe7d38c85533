//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each crate's public functions in a
//! [`Recorder::span`]; nothing inside the simulator is instrumented. Spans
//! are kept in memory and written out once the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The enclosing span, possibly on another thread (nested pools).
    pub parent: Option<u64>,
    /// The operation (matrix cell, sampled cell, sweep point) the span
    /// belongs to; `0` for set-up.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Small per-process thread index.
    pub thread: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: its operation and parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Operation id.
    pub op: u64,
    /// Parent span id.
    pub parent: Option<u64>,
}

impl Ctx {
    /// The root context of operation `op`.
    pub fn op(op: u64) -> Self {
        Ctx { op, parent: None }
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context for the span's children.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx {
            op: ctx.op,
            parent: Some(id),
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name,
            thread: thread_index(),
            start_ns,
            end_ns,
        });
        out
    }

    /// The recorded spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total length covered by the union of `intervals` (half-open, ns).
pub fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children may overlap one another (parallel slices) or run past
/// the parent; only their union inside the parent counts.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    span.dur_ns() - union_ns(&clipped)
}

/// The largest number of `intervals` open at one instant.
pub fn peak_overlap(intervals: &[(u64, u64)]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        events.push((s, 1));
        events.push((e, -1));
    }
    // Ends sort before starts at the same instant: touching is not overlap.
    events.sort_unstable();
    let (mut open, mut peak) = (0i32, 0i32);
    for (_, delta) in events {
        open += delta;
        peak = peak.max(open);
    }
    usize::try_from(peak).unwrap_or(0)
}

/// Renders spans as tab-separated lines with a header, for the trace file.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\top\tname\tthread\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent: None,
            op: 1,
            name: "t",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&[(20, 30), (0, 10), (10, 20)]), 30);
        assert_eq!(union_ns(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, 100, 200);
        // Two parallel children overlap on [130, 150); one runs past the
        // parent's end and is clipped.
        let a = span(2, 110, 150);
        let b = span(3, 130, 160);
        let c = span(4, 190, 250);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // A child that covers the whole parent leaves no self time.
        let all = span(5, 0, 300);
        assert_eq!(self_time_ns(&parent, &[&all, &a]), 0);
    }

    #[test]
    fn peak_overlap_counts_concurrent_intervals() {
        assert_eq!(peak_overlap(&[]), 0);
        assert_eq!(peak_overlap(&[(0, 10), (10, 20)]), 1);
        assert_eq!(peak_overlap(&[(0, 10), (5, 20), (6, 7), (30, 40)]), 3);
    }

    #[test]
    fn recorder_links_children_to_parents_across_threads() {
        let rec = Recorder::new();
        rec.span("outer", Ctx::op(7), |ctx| {
            std::thread::scope(|s| {
                s.spawn(|| rec.span("inner", ctx, |_| ()));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.op, outer.op), (7, 7));
        assert_ne!(inner.thread, outer.thread);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_tsv(&spans).lines().count() == 3);
    }
}
