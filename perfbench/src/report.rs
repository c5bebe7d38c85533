//! Metrics: the per-layer numbers of a traced batch, and the result line.

use crate::bench::{Batch, Layers, Plan};
use crate::spans::{peak_overlap, self_time_ns, Span};
use crate::stats::median;
use pre_runahead::Technique;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced batch, from its spans and counts.
/// A layer that does not run on the workload reads 0.
pub fn layer_metrics(plan: &Plan, batch: &Batch, spans: &[Span], layers: &Layers) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum_ms = |name| ms(named(name).map(Span::dur_ns).sum());
    let p50 = |name, per_ns: f64| {
        median(
            &named(name)
                .map(|s| s.dur_ns() as f64 / per_ns)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };

    // Pool usage, per group: busy share, and the tail from the first
    // worker going idle to the group's end.
    let (mut busy, mut capacity, mut tail_ns) = (0u64, 0f64, 0u64);
    for w in &batch.windows {
        let ids: HashSet<u64> = w.ops.iter().copied().collect();
        let mut last_end: HashMap<u64, u64> = HashMap::new();
        for s in named("runner.op").filter(|s| ids.contains(&s.op)) {
            busy += s.dur_ns();
            let end = last_end.entry(s.thread).or_insert(0);
            *end = (*end).max(s.end_ns);
        }
        capacity += (w.end_ns - w.start_ns) as f64 * w.workers as f64;
        tail_ns += last_end
            .values()
            .min()
            .map_or(0, |&first_idle| w.end_ns - first_idle);
    }
    let parents: HashSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let leaves: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !parents.contains(&s.id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();

    let children: HashMap<u64, Vec<&Span>> = spans.iter().fold(HashMap::new(), |mut m, s| {
        if let Some(p) = s.parent {
            m.entry(p).or_default().push(s);
        }
        m
    });
    let runner_self_ns: u64 = named("runner.op")
        .map(|s| self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)))
        .sum();

    let runs = layers.runs.lock().expect("run samples poisoned").clone();
    let total = |f: fn(&crate::bench::RunSample) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let sampled = layers
        .sampled
        .lock()
        .expect("sample counters poisoned")
        .clone();
    let profile_ms = sum_ms("model.profile");

    let outcomes: Vec<_> = plan.ops().zip(&batch.outcomes).collect();
    let pass2: Vec<_> = outcomes
        .iter()
        .filter(|(op, _)| op.label.starts_with("p2 "))
        .collect();
    let pass2_hits = pass2
        .iter()
        .filter(|(_, out)| out.as_ref().is_ok_and(|r| r.cache_hit))
        .count();

    let mut m = vec![
        Metric::new(
            "workloads.build_ms",
            ms(named("workloads.program_for")
                .filter(|s| s.op == 0)
                .map(Span::dur_ns)
                .sum()),
            "ms",
        ),
        Metric::new("par.busy_frac", ratio(busy as f64, capacity), "ratio"),
        Metric::new("par.tail_s", tail_ns as f64 / 1e9, "s"),
        Metric::new("par.threads_max", peak_overlap(&leaves) as f64, "count"),
        Metric::new("core.new_ms", sum_ms("core.new"), "ms"),
        Metric::new("core.fork_ms", sum_ms("core.fork"), "ms"),
        Metric::new("core.run_ms", sum_ms("core.run"), "ms"),
    ];
    for t in Technique::ALL {
        let (uops, ns) = runs
            .iter()
            .filter(|r| r.technique == t)
            .fold((0u64, 0u64), |(u, n), r| (u + r.committed, n + r.run_ns));
        m.push(Metric::new(
            format!(
                "core.kuops_per_s.{}",
                t.label().to_lowercase().replace('+', "-")
            ),
            ratio(uops as f64 / 1e3, ns as f64 / 1e9),
            "kuop/s",
        ));
    }
    m.extend([
        Metric::new(
            "core.ff_frac",
            ratio(total(|r| r.ff_cycles), total(|r| r.cycles)),
            "ratio",
        ),
        Metric::new(
            "core.exec_per_commit",
            ratio(total(|r| r.executed), total(|r| r.committed)),
            "ratio",
        ),
        Metric::new("core.cycles", total(|r| r.cycles), "cycles"),
        Metric::new("mem.warm_replay_ms", sum_ms("mem.warmed_for"), "ms"),
        Metric::new("mem.l1d_accesses", total(|r| r.l1d_accesses), "count"),
        Metric::new("mem.l2_misses", total(|r| r.l2_misses), "count"),
        Metric::new("mem.l3_misses", total(|r| r.l3_misses), "count"),
        Metric::new("model.profile_ms", profile_ms, "ms"),
        Metric::new(
            "model.interp_muops_per_s",
            ratio(
                layers
                    .profiled_uops
                    .load(std::sync::atomic::Ordering::Relaxed) as f64
                    / 1e6,
                profile_ms / 1e3,
            ),
            "Muop/s",
        ),
        Metric::new("model.cluster_ms", sum_ms("model.cluster"), "ms"),
        Metric::new("model.snapshot_ms", sum_ms("model.snapshot"), "ms"),
        Metric::new("stores.lookup_us.p50", p50("stores.lookup", 1e3), "us"),
        Metric::new("stores.store_us.p50", p50("stores.store", 1e3), "us"),
        Metric::new(
            "stores.hit_frac",
            ratio(pass2_hits as f64, pass2.len() as f64),
            "ratio",
        ),
        Metric::new("stores.disk_bytes", batch.disk_bytes as f64, "B"),
        Metric::new(
            "sample.slices",
            sampled.iter().map(|&(n, _)| n).sum::<usize>() as f64,
            "count",
        ),
        Metric::new("sample.slice_ms", p50("sample.slice", 1e6), "ms"),
        Metric::new(
            "sample.coverage",
            ratio(sampled.iter().map(|&(_, c)| c).sum(), sampled.len() as f64),
            "ratio",
        ),
        Metric::new("runner.self_ms", ms(runner_self_ns), "ms"),
    ]);
    m
}

/// The last line of a run: `correct`, `attempted`, `failed` and the
/// metrics, as one JSON object.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let metrics = vec![
            Metric::new("wall_s", 1.234_567_890_123_456_7, "s"),
            Metric::new("cell_ms.p90", 12.0, "ms"),
            Metric::new("nan", f64::NAN, "ratio"),
        ];
        let line = result_line(10, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.2345678901234567, \"unit\": \"s\"}, \
             \"cell_ms.p90\": {\"value\": 12.0, \"unit\": \"ms\"}, \
             \"nan\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(
            result_line(3, 1, &[]),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
