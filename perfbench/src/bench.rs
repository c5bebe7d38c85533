//! The three workloads: their inputs, the untraced runs through the
//! simulator's own batch entry points, and the traced outside-in replays.

use crate::spans::{Ctx, Recorder};
use pre_core::OooCore;
use pre_energy::EnergyModel;
use pre_model::profile::{cluster_intervals, profile_intervals, Clustering, IntervalProfile};
use pre_model::stats::SimStats;
use pre_model::Program;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::sweep::{GridDim, Sweep, SweepDim};
use pre_sim::{stores, EvaluationMatrix, RunResult, RunSpec, SampleSpec};
use pre_workloads::{Workload, WorkloadParams};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// The workload seed the pinned reference data was generated with
/// (`WorkloadParams::default().seed`).
pub const DEFAULT_SEED: u64 = 42;

/// Committed-uop budget per cell of `matrix-mixed` (`full_eval`'s 20 k
/// smoke horizon).
pub const MATRIX_UOPS: u64 = 20_000;
/// Horizon of `sampled-long` (the experiment binaries' default budget).
pub const LONG_UOPS: u64 = 300_000;
/// `sampled-long`'s sampling parameters (`--sample n=6,interval=6000`).
pub const LONG_SAMPLE: SampleSpec = SampleSpec {
    clusters: 6,
    interval_uops: 6_000,
};
/// Functional warm-up every `sweep-cache` point forks from.
pub const SWEEP_WARMUP: u64 = 40_000;
/// Detailed budget of one `sweep-cache` point.
pub const SWEEP_UOPS: u64 = 4_000;

/// Mirrors the private clustering seed of `pre_sim::sample`, so the traced
/// replay of a sampled cell picks the same representatives. Drift shows up
/// as a traced-versus-untraced mismatch, which fails the run.
const CLUSTER_SEED: u64 = 0x5a3c_9d11_7e24_c0de;

/// Paper Figure 2: mean speedup over the out-of-order core, in percent.
pub const PAPER_FIG2: [(Technique, f64); 4] = [
    (Technique::Runahead, 14.5),
    (Technique::RunaheadBuffer, 14.4),
    (Technique::Pre, 35.5),
    (Technique::PreEmq, 28.6),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The cold 22 × 5 mixed matrix at 20 k uops.
    MatrixMixed,
    /// The same 110 cells at 300 k uops, sampled.
    SampledLong,
    /// A warm-forked parameter grid against an empty disk cache, twice.
    SweepCache,
}

impl Bench {
    /// Every workload, in documentation order.
    pub const ALL: [Bench; 3] = [Bench::MatrixMixed, Bench::SampledLong, Bench::SweepCache];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::MatrixMixed => "matrix-mixed",
            Bench::SampledLong => "sampled-long",
            Bench::SweepCache => "sweep-cache",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the known names.
    pub fn parse(name: &str) -> Result<Bench, String> {
        Bench::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Bench::ALL.iter().map(|b| b.name()).collect();
                format!("unknown workload `{name}` (expected {})", names.join(", "))
            })
    }

    /// Whether the workload uses the on-disk result cache.
    pub fn uses_disk_cache(self) -> bool {
        self == Bench::SweepCache
    }
}

/// One operation: a matrix cell, a sampled cell or a sweep point.
#[derive(Debug, Clone)]
pub struct Op {
    /// Unique id within the batch (span operation id, from 1).
    pub id: u64,
    /// Stable label, e.g. `mcf-like_pre` or `p2 lbm-like_pre-emq emq=192 …`.
    pub label: String,
    /// For a pass-2 sweep point that repeats a pass-1 point: that point's
    /// label.
    pub repeats: Option<String>,
    /// Content hash of the program the operation runs.
    pub program: u64,
    /// What to run.
    pub spec: RunSpec,
}

/// A set of operations submitted to the worker pool together.
#[derive(Debug, Clone)]
pub struct Group {
    /// The operations, in submission order.
    pub ops: Vec<Op>,
    /// For sweep groups, the sweep the untraced run hands to
    /// `Sweep::run_isolated`; otherwise the ops go to
    /// `EvaluationMatrix::run_specs_isolated`.
    pub sweep: Option<Sweep>,
    /// Empty the in-process stores before this group (sweep pass 2).
    pub clear_before: bool,
}

/// Everything set-up builds for one batch.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub bench: Bench,
    /// The groups, run one after another.
    pub groups: Vec<Group>,
}

impl Plan {
    /// All operations in order.
    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.groups.iter().flat_map(|g| g.ops.iter())
    }
}

fn cell_specs(params: WorkloadParams, budget: u64, sample: Option<SampleSpec>) -> Vec<RunSpec> {
    Suite::Mixed
        .cells()
        .map(|(w, t)| {
            let mut spec = RunSpec::new(w, t).with_budget(budget).with_params(params);
            spec.sample = sample;
            spec
        })
        .collect()
}

fn sweep_of(workload: Workload, params: WorkloadParams, sst: &[u64]) -> Sweep {
    let dim = |dim, values: &[u64]| GridDim {
        dim,
        values: values.to_vec(),
    };
    let mut sweep = Sweep::new(workload, Technique::PreEmq)
        .with_dim(dim(SweepDim::Emq, &[192, 384, 768, 1536]))
        .with_dim(dim(SweepDim::Rob, &[128, 160, 192, 224, 256]))
        .with_dim(dim(SweepDim::Sst, sst));
    sweep.params = params;
    sweep.budget = SWEEP_UOPS;
    sweep.warmup_uops = SWEEP_WARMUP;
    sweep.use_result_cache = true;
    sweep
}

/// Pass 1 of `sweep-cache`: SST sizes of the first grid.
const SWEEP_SST_PASS1: [u64; 3] = [16, 64, 256];
/// Pass 2 extends the grid: the pass-1 sizes repeat, the rest are new.
const SWEEP_SST_PASS2: [u64; 6] = [16, 32, 64, 128, 256, 512];
/// `sweep-cache`'s streaming and pointer-chasing workloads.
const SWEEP_WORKLOADS: [Workload; 2] = [Workload::LbmLike, Workload::McfLike];

/// Set-up: empties the in-process stores, builds every program the batch
/// runs (`stores::program_for`, timed under `rec` when tracing) and the
/// specs. The caller times it as `setup_s`.
pub fn setup(bench: Bench, seed: u64, rec: Option<&Recorder>) -> Plan {
    stores::clear_stores();
    let params = WorkloadParams {
        seed,
        ..WorkloadParams::default()
    };
    let workloads = match bench {
        Bench::MatrixMixed | Bench::SampledLong => Suite::Mixed.workloads(),
        Bench::SweepCache => SWEEP_WORKLOADS.to_vec(),
    };
    let programs: HashMap<Workload, u64> = workloads
        .into_iter()
        .map(|w| {
            let build = || stores::program_for(w, &params).content_hash();
            let hash = match rec {
                Some(rec) => rec.span("workloads.program_for", Ctx::op(0), |_| build()),
                None => build(),
            };
            (w, hash)
        })
        .collect();
    let mut next_id = 0u64;
    let mut op = |label: String, repeats: Option<String>, spec: RunSpec| {
        next_id += 1;
        Op {
            id: next_id,
            label,
            repeats,
            program: programs[&spec.workload],
            spec,
        }
    };
    let groups = match bench {
        Bench::MatrixMixed | Bench::SampledLong => {
            let specs = if bench == Bench::MatrixMixed {
                cell_specs(params, MATRIX_UOPS, None)
            } else {
                cell_specs(params, LONG_UOPS, Some(LONG_SAMPLE))
            };
            let ops = specs
                .into_iter()
                .map(|s| op(s.cell_name(), None, s))
                .collect();
            vec![Group {
                ops,
                sweep: None,
                clear_before: false,
            }]
        }
        Bench::SweepCache => {
            let mut groups = Vec::new();
            for (pass, sst) in [(1, &SWEEP_SST_PASS1[..]), (2, &SWEEP_SST_PASS2[..])] {
                for (i, w) in SWEEP_WORKLOADS.into_iter().enumerate() {
                    let sweep = sweep_of(w, params, sst);
                    let ops = sweep
                        .specs()
                        .into_iter()
                        .map(|(settings, spec)| {
                            let point = format!(
                                "{} {}",
                                spec.cell_name(),
                                settings
                                    .iter()
                                    .map(|(d, v)| format!("{d}={v}"))
                                    .collect::<Vec<_>>()
                                    .join(" ")
                            );
                            let sst = settings
                                .iter()
                                .find(|(d, _)| *d == SweepDim::Sst)
                                .map(|&(_, v)| v);
                            let repeats = (pass == 2
                                && sst.is_some_and(|v| SWEEP_SST_PASS1.contains(&v)))
                            .then(|| format!("p1 {point}"));
                            op(format!("p{pass} {point}"), repeats, spec)
                        })
                        .collect();
                    groups.push(Group {
                        ops,
                        sweep: Some(sweep),
                        clear_before: pass == 2 && i == 0,
                    });
                }
            }
            groups
        }
    };
    Plan { bench, groups }
}

/// The outcome of one operation.
pub type Outcome = Result<RunResult, String>;

/// What one batch produced.
#[derive(Debug)]
pub struct Batch {
    /// Time to result for the whole batch, in seconds.
    pub wall_s: f64,
    /// One outcome per operation, in [`Plan::ops`] order.
    pub outcomes: Vec<Outcome>,
    /// Per-operation latency in milliseconds, timed by the caller, keyed by
    /// operation (one per completed operation; untraced batches only).
    pub latencies_ms: Vec<(String, f64)>,
    /// Bytes in the disk cache directory at the end of the batch.
    pub disk_bytes: u64,
    /// Traced runs only: one window per group (start, end, workers, op ids).
    pub windows: Vec<Window>,
}

/// The time window of one traced group.
#[derive(Debug, Clone)]
pub struct Window {
    /// Group start, recorder clock.
    pub start_ns: u64,
    /// Group end, recorder clock.
    pub end_ns: u64,
    /// Pool width the group ran on.
    pub workers: usize,
    /// Operation ids of the group.
    pub ops: Vec<u64>,
}

/// Prepares an empty disk cache directory for a batch (sweep-cache only).
///
/// # Errors
///
/// Reports I/O failures.
pub fn reset_cache_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn dir_bytes(dir: Option<&Path>) -> u64 {
    let Some(Ok(entries)) = dir.map(std::fs::read_dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Latencies from completion stamps: each pool worker runs its operations
/// back to back, so an operation's latency is the gap since the same
/// thread's previous completion (or since the group started).
///
/// That holds only while the batch runner calls back on the worker that
/// ran the operation. A runner that reported completions from one thread
/// would turn every latency into the gap between any two completions, so
/// fewer distinct threads than `min(workers, stamps)` is an error.
///
/// # Errors
///
/// Reports stamps from too few threads.
fn latencies_from_stamps(
    group_start: Instant,
    stamps: Vec<(ThreadId, Instant, String)>,
    workers: usize,
) -> Result<Vec<(String, f64)>, String> {
    let mut last: HashMap<ThreadId, Instant> = HashMap::new();
    let mut out = Vec::with_capacity(stamps.len());
    for (thread, at, key) in stamps {
        let prev = last.insert(thread, at).unwrap_or(group_start);
        out.push((key, at.duration_since(prev).as_secs_f64() * 1e3));
    }
    let expected = workers.min(out.len());
    if last.len() < expected {
        return Err(format!(
            "completion callbacks came from {} threads, expected {expected}: \
             operation latencies cannot be told apart",
            last.len()
        ));
    }
    Ok(out)
}

/// Re-threads a failure-isolated run (successes in order plus indexed
/// failures) into one outcome per operation.
fn merge_outcomes(
    total: usize,
    ok: impl IntoIterator<Item = RunResult>,
    failures: impl IntoIterator<Item = (usize, String)>,
) -> Vec<Outcome> {
    let mut failures: HashMap<usize, String> = failures.into_iter().collect();
    let mut ok = ok.into_iter();
    (0..total)
        .map(|i| match failures.remove(&i) {
            Some(e) => Err(e),
            None => ok.next().ok_or_else(|| "missing result".to_string()),
        })
        .collect()
}

/// Runs a batch through the simulator's own batch entry points
/// (`EvaluationMatrix::run_specs_isolated`, `Sweep::run_isolated`), timing
/// operations from their completion callbacks.
///
/// # Errors
///
/// Reports completion callbacks that cannot time operations (see
/// `latencies_from_stamps`). Failed operations are outcomes, not errors.
pub fn run_untraced(plan: &Plan, cache_dir: Option<&Path>) -> Result<Batch, String> {
    let start = Instant::now();
    let mut outcomes = Vec::new();
    let mut latencies_ms = Vec::new();
    for (g, group) in plan.groups.iter().enumerate() {
        if group.clear_before {
            stores::clear_stores();
        }
        let stamps = Mutex::new(Vec::new());
        let stamp = |op: String| {
            let at = Instant::now();
            stamps.lock().expect("stamp list poisoned").push((
                std::thread::current().id(),
                at,
                format!("{g} {op}"),
            ));
        };
        let group_start = Instant::now();
        match &group.sweep {
            Some(sweep) => {
                let run = sweep.run_isolated(|p| stamp(p.label()));
                outcomes.extend(merge_outcomes(
                    run.total,
                    run.points.into_iter().map(|p| p.result),
                    run.failures
                        .into_iter()
                        .map(|f| (f.index, f.error.to_string())),
                ));
            }
            None => {
                let specs: Vec<RunSpec> = group.ops.iter().map(|o| o.spec.clone()).collect();
                let run = EvaluationMatrix::run_specs_isolated(&specs, |r| {
                    stamp(pre_sim::cell_name(r.workload, r.technique));
                });
                outcomes.extend(merge_outcomes(
                    run.cells,
                    run.matrix.results().iter().cloned(),
                    run.failures
                        .into_iter()
                        .map(|f| (f.index, f.error.to_string())),
                ));
            }
        }
        let stamps = stamps.into_inner().expect("stamp list poisoned");
        let workers = pre_par::num_threads(group.ops.len());
        latencies_ms.extend(latencies_from_stamps(group_start, stamps, workers)?);
    }
    Ok(Batch {
        wall_s: start.elapsed().as_secs_f64(),
        outcomes,
        latencies_ms,
        disk_bytes: dir_bytes(cache_dir),
        windows: Vec::new(),
    })
}

/// Host-side counters of one detailed run in the traced replay.
#[derive(Debug, Clone, Copy)]
pub struct RunSample {
    /// The technique simulated.
    pub technique: Technique,
    /// Host time inside `OooCore::run`, ns.
    pub run_ns: u64,
    /// Committed micro-ops.
    pub committed: u64,
    /// Executed micro-ops (runahead and wrong path included).
    pub executed: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Fast-forwarded cycles (normal + runahead).
    pub ff_cycles: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
}

/// Counts the traced replay gathers next to its spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every detailed run (matrix cells, sampled slices, simulated sweep
    /// points).
    pub runs: Mutex<Vec<RunSample>>,
    /// Micro-ops the interval profiler executed.
    pub profiled_uops: AtomicU64,
    /// Per sampled cell: (slices simulated, coverage).
    pub sampled: Mutex<Vec<(usize, f64)>>,
}

#[derive(Debug)]
struct SampledPlan {
    profile: IntervalProfile,
    clustering: Clustering,
}

type PlanMemo = HashMap<Workload, OnceLock<SampledPlan>>;

/// Replays a batch outside-in through each crate's public functions, with
/// a span around every call, over the same `pre_par` pool (nested for
/// sampled slices, as in `pre_sim::sample`).
pub fn run_traced(plan: &Plan, rec: &Recorder, layers: &Layers, cache_dir: Option<&Path>) -> Batch {
    let start = Instant::now();
    let memo: PlanMemo = plan
        .ops()
        .map(|o| (o.spec.workload, OnceLock::new()))
        .collect();
    let mut outcomes = Vec::new();
    let mut windows = Vec::new();
    for group in &plan.groups {
        if group.clear_before {
            stores::clear_stores();
        }
        let start_ns = rec.now_ns();
        let results = pre_par::try_par_map(&group.ops, |op| {
            rec.span("runner.op", Ctx::op(op.id), |ctx| {
                replay_op(&op.spec, rec, ctx, layers, &memo)
            })
        });
        windows.push(Window {
            start_ns,
            end_ns: rec.now_ns(),
            workers: pre_par::num_threads(group.ops.len()),
            ops: group.ops.iter().map(|o| o.id).collect(),
        });
        outcomes.extend(
            results
                .into_iter()
                .map(|r| r.unwrap_or_else(|job| Err(format!("panic: {}", job.payload)))),
        );
    }
    Batch {
        wall_s: start.elapsed().as_secs_f64(),
        outcomes,
        latencies_ms: Vec::new(),
        disk_bytes: dir_bytes(cache_dir),
        windows,
    }
}

fn replay_op(
    spec: &RunSpec,
    rec: &Recorder,
    ctx: Ctx,
    layers: &Layers,
    memo: &PlanMemo,
) -> Outcome {
    let program = rec.span("workloads.program_for", ctx, |_| {
        stores::program_for(spec.workload, &spec.params)
    });
    if spec.sample.is_some() {
        replay_sampled(spec, &program, rec, ctx, layers, memo)
    } else if spec.use_result_cache {
        replay_cached(spec, &program, rec, ctx, layers)
    } else {
        replay_detailed(spec, &program, rec, ctx, layers)
    }
}

/// `run_one` for a detailed run: build (cold, or forked from the shared
/// snapshot and warmed state), run, evaluate energy.
fn replay_detailed(
    spec: &RunSpec,
    program: &Program,
    rec: &Recorder,
    ctx: Ctx,
    layers: &Layers,
) -> Outcome {
    let built = if spec.warmup_uops == 0 {
        rec.span("core.new", ctx, |_| {
            OooCore::new(&spec.config, program, spec.technique)
        })
    } else {
        let window = spec
            .warm_window
            .map_or(spec.warmup_uops, |w| w.min(spec.warmup_uops));
        let snap = rec.span("model.snapshot", ctx, |_| {
            stores::snapshot_for_windowed(program, spec.warmup_uops, window)
        });
        let warmed = rec.span("mem.warmed_for", ctx, |_| {
            stores::warmed_for(&spec.config, program, spec.warmup_uops, window, &snap)
        });
        rec.span("core.fork", ctx, |_| {
            OooCore::from_snapshot(&spec.config, program, spec.technique, &snap, &warmed)
        })
    };
    let mut core = built.map_err(|e| e.to_string())?;
    let run_ns = rec.span("core.run", ctx, |_| {
        let t = rec.now_ns();
        core.run(spec.max_uops, spec.max_cycles);
        rec.now_ns() - t
    });
    let stats = core.stats().clone();
    layers
        .runs
        .lock()
        .expect("run samples poisoned")
        .push(RunSample {
            technique: spec.technique,
            run_ns,
            committed: stats.committed_uops,
            executed: stats.executed_uops,
            cycles: stats.cycles,
            ff_cycles: stats.ff_cycles.normal + stats.ff_cycles.runahead,
            l1d_accesses: stats.l1d_accesses,
            l2_misses: stats.l2_misses,
            l3_misses: stats.l3_misses,
        });
    let energy = EnergyModel::default().evaluate(&stats, &spec.config);
    Ok(RunResult {
        workload: spec.workload,
        technique: spec.technique,
        stats,
        energy,
        deadlocked: core.deadlocked(),
        cache_hit: false,
        watchdog: core.watchdog_diag().map(Box::new),
        sample: None,
    })
}

/// `run_one` with the result cache: lookup, else simulate and store.
fn replay_cached(
    spec: &RunSpec,
    program: &Program,
    rec: &Recorder,
    ctx: Ctx,
    layers: &Layers,
) -> Outcome {
    let (key, desc) = stores::result_key(spec, program);
    let disk = stores::env_cache_dir();
    let hit = rec.span("stores.lookup", ctx, |_| {
        stores::result_lookup(key, &desc, disk.as_deref())
    });
    if let Some(hit) = hit {
        return Ok(hit);
    }
    let result = replay_detailed(spec, program, rec, ctx, layers)?;
    rec.span("stores.store", ctx, |_| {
        stores::result_store(key, &desc, &result, disk.as_deref());
    });
    Ok(result)
}

/// A sampled cell from the public pieces: profile and cluster once per
/// workload (shared by its five techniques, as `pre_sim::sample` memoizes
/// its plan), capture each representative's snapshot, then run the slices
/// on a nested pool and extrapolate.
fn replay_sampled(
    spec: &RunSpec,
    program: &Program,
    rec: &Recorder,
    ctx: Ctx,
    layers: &Layers,
    memo: &PlanMemo,
) -> Outcome {
    let sample = spec.sample.ok_or("not a sampled spec")?;
    let plan = memo[&spec.workload].get_or_init(|| {
        let profile = rec.span("model.profile", ctx, |_| {
            profile_intervals(
                program,
                sample.interval_uops,
                spec.max_uops,
                spec.warmup_uops,
            )
        });
        layers
            .profiled_uops
            .fetch_add(profile.total_uops(), Ordering::Relaxed);
        let clustering = rec.span("model.cluster", ctx, |_| {
            cluster_intervals(
                &profile,
                sample.clusters,
                program.content_hash() ^ CLUSTER_SEED,
            )
        });
        for rep in &clustering.representatives {
            let start = profile.intervals[rep.interval].start_uop;
            if start > 0 {
                rec.span("model.snapshot", ctx, |_| {
                    stores::snapshot_for_windowed(program, start, sample.interval_uops.min(start))
                });
            }
        }
        SampledPlan {
            profile,
            clustering,
        }
    });
    if plan.clustering.representatives.is_empty() {
        return Err("sampling plan has no representatives".to_string());
    }
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
    let slices = pre_par::try_par_map(&rep_specs, |s| {
        rec.span("sample.slice", ctx, |c| {
            replay_detailed(s, program, rec, c, layers)
        })
    });
    let mut stats = SimStats::new();
    let mut deadlocked = false;
    for (rep, slice) in plan.clustering.representatives.iter().zip(slices) {
        let slice = slice.map_err(|job| format!("panic: {}", job.payload))??;
        deadlocked |= slice.deadlocked;
        stats.merge_scaled(&slice.stats, rep.weight);
    }
    let simulated: u64 = plan
        .clustering
        .representatives
        .iter()
        .map(|rep| plan.profile.intervals[rep.interval].len_uops)
        .sum();
    let total = plan.profile.total_uops().max(1);
    layers
        .sampled
        .lock()
        .expect("sample counters poisoned")
        .push((rep_specs.len(), simulated as f64 / total as f64));
    let energy = EnergyModel::default().evaluate(&stats, &spec.config);
    Ok(RunResult {
        workload: spec.workload,
        technique: spec.technique,
        stats,
        energy,
        deadlocked,
        cache_hit: false,
        watchdog: None,
        sample: None,
    })
}

/// Mean, over RA, RA-buffer, PRE and PRE+EMQ, of |gmean speedup over the
/// 13 synthetic workloads − the paper's Figure 2 number|, in
/// percentage points. `None` unless the batch is a full matrix.
pub fn paper_gap_pct(plan: &Plan, outcomes: &[Outcome]) -> Option<f64> {
    if plan.bench == Bench::SweepCache {
        return None;
    }
    let mut matrix = EvaluationMatrix::new();
    for (op, outcome) in plan.ops().zip(outcomes) {
        if !op.spec.workload.is_asm() {
            matrix.push(outcome.as_ref().ok()?.clone());
        }
    }
    let gaps: f64 = PAPER_FIG2
        .iter()
        .map(|&(t, paper)| ((matrix.gmean_speedup(t) - 1.0) * 100.0 - paper).abs())
        .sum();
    Some(gaps / PAPER_FIG2.len() as f64)
}

/// Mean |sampled IPC − full IPC| / full IPC, in percent, over the sampled
/// cells that have a pinned full-run IPC for their program.
pub fn sample_err_pct(
    plan: &Plan,
    outcomes: &[Outcome],
    full_ipc: &crate::digest::Table,
) -> Option<f64> {
    if plan.bench != Bench::SampledLong {
        return None;
    }
    let errors: Vec<f64> = plan
        .ops()
        .zip(outcomes)
        .filter_map(|(op, outcome)| {
            let crate::digest::Lookup::Pinned(bits) =
                full_ipc.get(plan.bench.name(), &op.label, op.program)
            else {
                return None;
            };
            let full = f64::from_bits(bits);
            let sampled = outcome.as_ref().ok()?.ipc();
            Some((sampled - full).abs() / full * 100.0)
        })
        .collect();
    (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_roundtrip() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Ok(b));
        }
        assert!(Bench::parse("nope").is_err());
    }

    #[test]
    fn sweep_plan_repeats_about_half_of_pass_two() {
        let plan = setup(Bench::SweepCache, DEFAULT_SEED, None);
        let ops: Vec<&Op> = plan.ops().collect();
        let pass1 = ops.iter().filter(|o| o.label.starts_with("p1 ")).count();
        let pass2: Vec<_> = ops.iter().filter(|o| o.label.starts_with("p2 ")).collect();
        let repeats = pass2.iter().filter(|o| o.repeats.is_some()).count();
        assert!(ops.len() >= 100);
        assert_eq!(repeats, pass1);
        assert_eq!(repeats * 2, pass2.len());
        for o in pass2.iter().filter_map(|o| o.repeats.as_ref()) {
            assert!(ops.iter().any(|p| &p.label == o), "{o}");
        }
        let mut labels: Vec<_> = ops.iter().map(|o| &o.label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ops.len(), "labels are unique");
    }

    #[test]
    fn latencies_chain_per_thread() {
        let t0 = Instant::now();
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let key = |k: &str| k.to_string();
        let stamps = vec![
            (a, ms(10), key("x")),
            (b, ms(15), key("y")),
            (a, ms(30), key("z")),
        ];
        let got = latencies_from_stamps(t0, stamps, 2).unwrap();
        let want = [("x", 10.0), ("y", 15.0), ("z", 20.0)];
        for ((gk, g), (wk, w)) in got.iter().zip(want) {
            assert!(gk == wk && (g - w).abs() < 1e-6, "{got:?}");
        }
    }

    #[test]
    fn completions_reported_from_one_thread_are_an_error() {
        let t0 = Instant::now();
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        let a = std::thread::current().id();
        let key = |k: &str| k.to_string();
        let stamps = || vec![(a, ms(10), key("x")), (a, ms(15), key("y"))];
        let err = latencies_from_stamps(t0, stamps(), 2).unwrap_err();
        assert!(err.contains("1 threads, expected 2"), "{err}");
        // A one-worker pool, or a lone operation, has only one thread.
        assert!(latencies_from_stamps(t0, stamps(), 1).is_ok());
        assert!(latencies_from_stamps(t0, stamps()[..1].to_vec(), 2).is_ok());
    }
}
