//! SimPoint-style sampled simulation: profile → cluster → simulate
//! representatives → extrapolate.
//!
//! [`run_sampled`] estimates a full run's statistics from a handful of
//! detailed-simulation slices:
//!
//! ```text
//!  functional profile        deterministic k-means        detailed sim (parallel)
//!  ┌──────────────────┐      ┌──────────────────┐      ┌─────────────────────────┐
//!  │ interval BBVs    │ ───► │ K clusters,      │ ───► │ fork each representative │
//!  │ (pre_model::     │      │ 1 representative │      │ from a windowed snapshot,│
//!  │  profile)        │      │ + weight each    │      │ warm-replay, run 1 slice │
//!  └──────────────────┘      └──────────────────┘      └─────────────────────────┘
//!                                                                 │
//!                                              weighted extrapolation (SimStats
//!                                              × cluster weight, exact integers)
//! ```
//!
//! The profiling/clustering plan and the representative snapshots are
//! memoized per (program, sampling parameters, budget), so the five
//! techniques of one evaluation cell pay for a single functional profile.
//! Representatives run as one batch ([`crate::batch::run_batch`]), nested
//! inside the caller's batch when the sampled run is itself a matrix cell,
//! and inherit its failure isolation: a panic in one slice surfaces as
//! [`SimError::Panic`] for the sampled run instead of tearing anything down.
//!
//! Every extrapolated result carries a [`SampleMeta`] so downstream
//! reporting can mark estimates (`~`) and show K / coverage / weights;
//! sampled results enter the result cache under keys that include the
//! sampling parameters, independent of full runs.

// Sampled results feed the same caches and reports as measured ones; any
// failure here must surface as a typed error, never an unwind.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batch::{run_batch, BatchPolicy};
use crate::runner::{run_one, RunResult, RunSpec};
use pre_energy::EnergyModel;
use pre_model::error::SimError;
use pre_model::hash::StableHasher;
use pre_model::profile::{cluster_intervals, profile_intervals, Clustering, IntervalProfile};
use pre_model::program::{Interpreter, Program};
use pre_model::snapshot::{SimSnapshot, WarmTrace};
use pre_model::stats::SimStats;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Sampling parameters: how many clusters (representative slices) and how
/// long each interval is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Number of k-means clusters (`n=` in the CLI grammar); one
    /// representative interval is simulated per cluster.
    pub clusters: usize,
    /// Interval size in committed micro-ops (`interval=` in the CLI
    /// grammar); also the warm-trace window for representative snapshots.
    pub interval_uops: u64,
}

impl SampleSpec {
    /// Default number of clusters.
    pub const DEFAULT_CLUSTERS: usize = 8;
    /// Default interval size in committed micro-ops.
    pub const DEFAULT_INTERVAL_UOPS: u64 = 10_000;

    /// Creates a spec with explicit parameters.
    pub fn new(clusters: usize, interval_uops: u64) -> Self {
        SampleSpec {
            clusters,
            interval_uops,
        }
    }

    /// Parses the `--sample` value grammar: `n=K,interval=N`, with either
    /// part optional (`n=4`, `interval=5000`, `n=4,interval=5000`); omitted
    /// parts take the defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed part.
    pub fn parse(text: &str) -> Result<SampleSpec, String> {
        let mut spec = SampleSpec::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad sample part `{part}` (expected key=value)"))?;
            match key.trim() {
                "n" => {
                    spec.clusters = value
                        .trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad cluster count `{value}`"))?;
                }
                "interval" => {
                    spec.interval_uops = value
                        .trim()
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad interval size `{value}`"))?;
                }
                other => return Err(format!("unknown sample key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Canonical rendering of the spec in the CLI grammar.
    pub fn label(&self) -> String {
        format!("n={},interval={}", self.clusters, self.interval_uops)
    }
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec {
            clusters: SampleSpec::DEFAULT_CLUSTERS,
            interval_uops: SampleSpec::DEFAULT_INTERVAL_UOPS,
        }
    }
}

impl FromStr for SampleSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SampleSpec::parse(s)
    }
}

impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One representative slice's contribution to the extrapolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepWeight {
    /// Index of the representative interval in profiling order.
    pub interval: u64,
    /// Cluster population it stands for (extrapolation weight).
    pub weight: u64,
    /// Committed micro-ops of the interval (the interval size, except for a
    /// shorter final slice).
    pub uops: u64,
}

/// Sampling metadata attached to an extrapolated [`RunResult`], so sampled
/// numbers are never mistaken for measured ones.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleMeta {
    /// The sampling parameters the run was performed with.
    pub spec: SampleSpec,
    /// Total intervals the profiling pass produced.
    pub intervals_total: u64,
    /// Committed micro-ops covered by the profile (what the extrapolation
    /// stands for).
    pub total_uops: u64,
    /// Committed micro-ops actually simulated in detail (sum of the
    /// representatives' interval lengths, unweighted).
    pub simulated_uops: u64,
    /// Per-representative weights, sorted by interval index.
    pub weights: Vec<RepWeight>,
}

impl SampleMeta {
    /// Number of representative intervals simulated (= number of clusters
    /// actually produced).
    pub fn intervals_simulated(&self) -> usize {
        self.weights.len()
    }

    /// Fraction of the profiled micro-ops that were simulated in detail.
    pub fn coverage(&self) -> f64 {
        if self.total_uops == 0 {
            0.0
        } else {
            self.simulated_uops as f64 / self.total_uops as f64
        }
    }

    /// One-line human-readable summary (`K=…, coverage=…%, weights=[…]`).
    pub fn summary(&self) -> String {
        let weights: Vec<String> = self
            .weights
            .iter()
            .map(|w| format!("{}×{}", w.interval, w.weight))
            .collect();
        format!(
            "K={} of {} intervals ({}), coverage={:.1}%, weights=[{}]",
            self.intervals_simulated(),
            self.intervals_total,
            self.spec.label(),
            self.coverage() * 100.0,
            weights.join(" ")
        )
    }
}

// The default SampleSpec is what `Default for SampleMeta` needs; both derive.

/// The memoized profile + clustering for one (program, sampling, budget)
/// tuple, shared by all techniques of an evaluation cell.
#[derive(Debug)]
struct SamplePlan {
    profile: IntervalProfile,
    clustering: Clustering,
}

/// Plan memo entry: the full key description (collision safety) plus the
/// shared plan.
type PlanEntry = (String, Arc<SamplePlan>);

static PLANS: OnceLock<Mutex<HashMap<u64, PlanEntry>>> = OnceLock::new();

fn plans() -> &'static Mutex<HashMap<u64, PlanEntry>> {
    PLANS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_plans() -> MutexGuard<'static, HashMap<u64, PlanEntry>> {
    plans().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Empties the in-process plan memo (profiles, clusterings). Benches call
/// this through [`crate::stores::clear_stores`] to measure cold paths.
pub fn clear_plans() {
    lock_plans().clear();
}

/// Fixed seed component for the clustering rng; combined with the program
/// content hash so different programs explore different centroid seeds while
/// every run of the same program clusters identically.
const CLUSTER_SEED: u64 = 0x5a3c_9d11_7e24_c0de;

fn plan_key(
    program: &Program,
    sample: &SampleSpec,
    max_uops: u64,
    skip_uops: u64,
) -> (u64, String) {
    let desc = format!(
        "plan v1 program={:016x} sample={} budget={} skip={}",
        program.content_hash(),
        sample.label(),
        max_uops,
        skip_uops
    );
    let mut h = StableHasher::new();
    h.write_str(&desc);
    (h.finish(), desc)
}

/// The profile + clustering for a sampled run, computed once per (program,
/// sampling parameters, budget) and shared across techniques. On first
/// computation the representative snapshots are also captured (in one
/// interpreter pass) and published to the snapshot store.
fn plan_for(
    program: &Program,
    sample: &SampleSpec,
    max_uops: u64,
    skip_uops: u64,
) -> Arc<SamplePlan> {
    let (key, desc) = plan_key(program, sample, max_uops, skip_uops);
    if let Some((stored_desc, plan)) = lock_plans().get(&key) {
        if *stored_desc == desc {
            return Arc::clone(plan);
        }
    }
    let profile = profile_intervals(program, sample.interval_uops, max_uops, skip_uops);
    let clustering = cluster_intervals(
        &profile,
        sample.clusters,
        program.content_hash() ^ CLUSTER_SEED,
    );
    capture_representative_snapshots(program, &profile, &clustering, sample.interval_uops);
    let plan = Arc::new(SamplePlan {
        profile,
        clustering,
    });
    let mut map = lock_plans();
    let entry = map
        .entry(key)
        .or_insert_with(|| (desc.clone(), Arc::clone(&plan)));
    if entry.0 == desc {
        Arc::clone(&entry.1)
    } else {
        // 64-bit collision between two live plans: serve ours uncached.
        plan
    }
}

/// Captures every representative's windowed snapshot in **one** functional
/// pass over the program (representatives are visited in offset order) and
/// publishes them to the snapshot store, where the per-technique detailed
/// runs will find them. Equivalent to — and bit-identical with —
/// [`SimSnapshot::capture_windowed`] per offset, but O(last offset) total
/// instead of O(sum of offsets).
fn capture_representative_snapshots(
    program: &Program,
    profile: &IntervalProfile,
    clustering: &Clustering,
    interval_uops: u64,
) {
    let disk = crate::stores::env_cache_dir();
    let mut wanted: Vec<(u64, u64)> = clustering
        .representatives
        .iter()
        .map(|rep| profile.intervals[rep.interval].start_uop)
        .filter(|&offset| offset > 0)
        .map(|offset| (offset, interval_uops.min(offset)))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    wanted.retain(|&(offset, window)| {
        crate::stores::snapshot_lookup(program, offset, window, disk.as_deref()).is_none()
    });
    if wanted.is_empty() {
        return;
    }
    let mut interp = Interpreter::new(program);
    let mut executed = 0u64;
    for &(offset, window) in &wanted {
        // Run untraced up to the window start, then traced to the offset.
        // Windows never overlap: consecutive representative offsets differ
        // by at least one interval, and windows are at most one interval.
        executed += interp.run(offset - window - executed.min(offset - window));
        let mut trace = WarmTrace::new();
        executed += interp.run_warm(offset - executed, &mut trace);
        let snap = SimSnapshot {
            warmup_uops: offset,
            executed,
            halted: interp.halted(),
            regs: *interp.regs(),
            pc: interp.pc(),
            mem: interp.fork_memory(),
            trace,
        };
        crate::stores::snapshot_publish(program, offset, window, snap, disk.as_deref());
    }
}

/// Runs `spec` in sampled mode (`spec.sample` must be set): profiles the
/// functional execution into intervals, clusters them, simulates one
/// representative per cluster in detail (fanned out over the supervised
/// pool) and extrapolates a full-run [`RunResult`] carrying [`SampleMeta`].
///
/// # Errors
///
/// Returns [`SimError`] when the spec carries no sampling parameters or
/// requests tracing (unsupported in sampled mode), and propagates the first
/// per-slice failure (validation errors, watchdog aborts as data, panics as
/// [`SimError::Panic`]).
pub fn run_sampled(spec: &RunSpec) -> Result<RunResult, SimError> {
    let Some(sample) = spec.sample else {
        return Err(SimError::Snapshot {
            detail: "run_sampled called without sampling parameters".to_string(),
        });
    };
    if spec.trace.is_some() {
        return Err(SimError::Trace(
            "tracing is not supported with --sample (trace a full run instead)".to_string(),
        ));
    }
    let program = crate::stores::program_for(spec.workload, &spec.params);
    let disk = crate::stores::env_cache_dir();
    let (key, desc) = crate::stores::result_key(spec, &program);
    if spec.use_result_cache {
        if let Some(hit) = crate::stores::result_lookup(key, &desc, disk.as_deref()) {
            return Ok(hit);
        }
    }

    let plan = plan_for(&program, &sample, spec.max_uops, spec.warmup_uops);
    if plan.clustering.representatives.is_empty() {
        // Nothing to profile (zero budget or the program halts before the
        // warm-up ends): degrade to an unsampled run of the same spec.
        let mut fallback = spec.clone();
        fallback.sample = None;
        fallback.use_result_cache = false;
        let mut result = run_one(&fallback)?;
        result.sample = Some(SampleMeta {
            spec: sample,
            ..SampleMeta::default()
        });
        if spec.use_result_cache {
            crate::stores::result_store(key, &desc, &result, disk.as_deref());
        }
        return Ok(result);
    }

    // One detailed-run spec per representative: fork from the interval
    // snapshot (warm window = one interval), simulate exactly the interval.
    let rep_specs: Vec<RunSpec> = plan
        .clustering
        .representatives
        .iter()
        .map(|rep| {
            let iv = &plan.profile.intervals[rep.interval];
            let mut s = spec.clone();
            s.sample = None;
            s.warmup_uops = iv.start_uop;
            s.warm_window = (iv.start_uop > 0).then(|| sample.interval_uops.min(iv.start_uop));
            s.max_uops = iv.len_uops;
            s.max_cycles = iv.len_uops.saturating_mul(200).max(1_000_000);
            s
        })
        .collect();

    let slices = run_batch(&rep_specs, &BatchPolicy::default(), |_, _| {})
        .into_iter()
        .map(|outcome| outcome.map_err(|failure| failure.error))
        .collect::<Result<Vec<_>, _>>()?;

    // Weighted extrapolation: integer counters are exact functions of the
    // per-slice stats and weights.
    let mut stats = SimStats::new();
    for (rep, slice) in plan.clustering.representatives.iter().zip(&slices) {
        stats.merge_scaled(&slice.stats, rep.weight);
    }
    let energy = EnergyModel::default().evaluate(&stats, &spec.config);
    let meta = SampleMeta {
        spec: sample,
        intervals_total: plan.profile.intervals.len() as u64,
        total_uops: plan.profile.total_uops(),
        simulated_uops: plan
            .clustering
            .representatives
            .iter()
            .map(|rep| plan.profile.intervals[rep.interval].len_uops)
            .sum(),
        weights: plan
            .clustering
            .representatives
            .iter()
            .map(|rep| RepWeight {
                interval: rep.interval as u64,
                weight: rep.weight,
                uops: plan.profile.intervals[rep.interval].len_uops,
            })
            .collect(),
    };
    let result = RunResult {
        workload: spec.workload,
        technique: spec.technique,
        stats,
        energy,
        deadlocked: slices.iter().any(|s| s.deadlocked),
        cache_hit: slices.iter().all(|s| s.cache_hit),
        watchdog: slices.iter().find_map(|s| s.watchdog.clone()),
        sample: Some(meta),
    };
    if spec.use_result_cache {
        crate::stores::result_store(key, &desc, &result, disk.as_deref());
    }
    Ok(result)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pre_runahead::Technique;
    use pre_workloads::Workload;

    #[test]
    fn sample_spec_grammar_roundtrips() {
        assert_eq!(
            SampleSpec::parse("n=4,interval=5000").unwrap(),
            SampleSpec::new(4, 5_000)
        );
        assert_eq!(
            SampleSpec::parse("interval=2000").unwrap(),
            SampleSpec::new(SampleSpec::DEFAULT_CLUSTERS, 2_000)
        );
        assert_eq!(
            SampleSpec::parse("n=3").unwrap(),
            SampleSpec::new(3, SampleSpec::DEFAULT_INTERVAL_UOPS)
        );
        assert_eq!(SampleSpec::parse("").unwrap(), SampleSpec::default());
        let spec = SampleSpec::new(6, 12_000);
        assert_eq!(spec.label().parse::<SampleSpec>().unwrap(), spec);
        assert!(SampleSpec::parse("n=0").is_err());
        assert!(SampleSpec::parse("interval=x").is_err());
        assert!(SampleSpec::parse("clusters=4").is_err());
        assert!(SampleSpec::parse("n4").is_err());
    }

    #[test]
    fn sample_meta_coverage_and_summary() {
        let meta = SampleMeta {
            spec: SampleSpec::new(2, 100),
            intervals_total: 10,
            total_uops: 1_000,
            simulated_uops: 200,
            weights: vec![
                RepWeight {
                    interval: 1,
                    weight: 7,
                    uops: 100,
                },
                RepWeight {
                    interval: 8,
                    weight: 3,
                    uops: 100,
                },
            ],
        };
        assert_eq!(meta.intervals_simulated(), 2);
        assert!((meta.coverage() - 0.2).abs() < 1e-12);
        let summary = meta.summary();
        assert!(summary.contains("K=2 of 10"), "{summary}");
        assert!(summary.contains("coverage=20.0%"), "{summary}");
        assert!(summary.contains("1×7"), "{summary}");
        assert_eq!(SampleMeta::default().coverage(), 0.0);
    }

    #[test]
    fn sampled_run_reports_metadata_and_reasonable_ipc() {
        crate::stores::clear_stores();
        let spec = RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder)
            .with_budget(20_000)
            .sampled(SampleSpec::new(3, 2_000));
        let sampled = run_sampled(&spec).expect("sampled run succeeds");
        let meta = sampled.sample.as_ref().expect("metadata attached");
        assert!(meta.intervals_simulated() >= 1);
        assert!(meta.intervals_total >= meta.intervals_simulated() as u64);
        assert!(meta.coverage() > 0.0 && meta.coverage() <= 1.0);
        assert_eq!(
            meta.weights.iter().map(|w| w.weight).sum::<u64>(),
            meta.intervals_total
        );
        // The extrapolated uop count matches the profiled total up to the
        // per-slice commit-batch overshoot (the core stops at >= max_uops).
        assert!(sampled.stats.committed_uops >= meta.total_uops);
        assert!(sampled.stats.committed_uops < meta.total_uops + meta.intervals_total * 8);

        let full = run_one(
            &RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder).with_budget(20_000),
        )
        .expect("full run succeeds");
        assert!(full.sample.is_none());
        let err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
        assert!(
            err < 0.05,
            "sampled IPC {:.4} vs full {:.4}: {:.2}% error",
            sampled.ipc(),
            full.ipc(),
            err * 100.0
        );
    }

    #[test]
    fn sampled_runs_are_deterministic_and_cache_cleanly() {
        crate::stores::clear_stores();
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(12_000)
            .sampled(SampleSpec::new(2, 3_000))
            .with_result_cache(true);
        let a = run_sampled(&spec).expect("first run");
        let b = run_sampled(&spec).expect("second run");
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "second sampled run is a cache hit");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.to_kv(), b.stats.to_kv());
        assert_eq!(a.sample, b.sample);

        // A full (unsampled) run of the same cell caches independently.
        let full_spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(12_000)
            .with_result_cache(true);
        let full = run_one(&full_spec).expect("full run");
        assert!(
            !full.cache_hit,
            "sampled entry must not shadow the full run"
        );
    }

    #[test]
    fn sampled_run_rejects_tracing() {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(4_000)
            .sampled(SampleSpec::default())
            .with_trace(pre_trace::TraceSpec::default());
        assert!(matches!(run_sampled(&spec), Err(SimError::Trace(_))));
    }
}
