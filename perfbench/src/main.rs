//! `perfbench`: the repository's time-to-result benchmark.
//!
//! ```text
//! perfbench --workload <matrix-mixed|sampled-long|sweep-cache> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench pin --out <dir>
//! ```
//!
//! A run sets up, then repeats its workload's batch until `--seconds` have
//! passed, checks every operation's output and prints the metrics, the last
//! line being one JSON object. `--trace 0` gives the end-to-end metrics,
//! `--trace 1` the per-layer ones from an outside-in traced replay. `pin`
//! regenerates the reference data under `data/`. See `README.md` next to
//! this file.

mod bench;
mod calib;
mod check;
mod digest;
mod report;
mod spans;
mod stats;

use bench::{Batch, Bench, Layers, Plan, DEFAULT_SEED};
use check::Checker;
use digest::Table;
use pre_model::stats::SimStats;
use pre_sim::experiments::Suite;
use pre_sim::{stores, EvaluationMatrix, RunSpec};
use report::Metric;
use spans::Recorder;
use stats::{harrell_davis, median, percentile, quartiles};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Digests of every operation at the default seed.
const PINNED_DIGESTS: &str = include_str!("../data/digests.txt");
/// Full-run (unsampled) 300 k-uop IPC of every mixed-matrix cell at the
/// default seed, the reference of `sim.sample_err_pct`.
const PINNED_FULL_IPC: &str = include_str!("../data/full_ipc_300k.txt");

/// Scratch space inside the checkout: the sweep's disk cache and the span
/// files.
const OUT_DIR: &str = ".bench_build/perfbench";
/// Set-up is repeated at least this many times per run...
const SETUP_MIN_REPS: usize = 7;
/// ...and for at least this long, and its median reported.
const SETUP_MIN_TIME: Duration = Duration::from_millis(300);
/// Failure reasons printed per run (the count is always complete).
const MAX_REPORTED_FAILURES: usize = 10;

struct RunOpts {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("pin") => pin(&args[1..]),
        _ => parse_run(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn number(f: &HashMap<&str, &str>, name: &str) -> Result<u64, String> {
    let v = f.get(name).ok_or_else(|| format!("missing --{name}"))?;
    v.parse().map_err(|_| format!("bad --{name} `{v}`"))
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let f = flags(args)?;
    for k in f.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(k) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let trace = match f.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    Ok(RunOpts {
        bench: Bench::parse(f.get("workload").ok_or("missing --workload")?)?,
        seed: number(&f, "seed")?,
        seconds: number(&f, "seconds")?,
        trace,
    })
}

/// Points `PRE_CACHE_DIR` at a per-process directory for the workloads that
/// use the disk cache, and away from any inherited one for the others.
fn cache_env(bench: Bench) -> Option<PathBuf> {
    if !bench.uses_disk_cache() {
        std::env::remove_var("PRE_CACHE_DIR");
        return None;
    }
    let dir = Path::new(OUT_DIR).join(format!("cache-{}", std::process::id()));
    std::env::set_var("PRE_CACHE_DIR", &dir);
    Some(dir)
}

fn fresh_cache(dir: Option<&Path>) -> Result<(), String> {
    dir.map_or(Ok(()), bench::reset_cache_dir)
}

/// Restarts the peak-RSS count from the current RSS, so `VmHWM` measures
/// one batch. Best effort: without it the peak covers the whole run.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn timed_setup(opts: &RunOpts, rec: Option<&Recorder>, setups: &mut Vec<f64>) -> Plan {
    let t = Instant::now();
    let plan = bench::setup(opts.bench, opts.seed, rec);
    setups.push(t.elapsed().as_secs_f64());
    plan
}

struct Tally {
    attempted: usize,
    failed: usize,
    reported: usize,
}

impl Tally {
    fn add(&mut self, batch: &Batch, failures: Vec<(String, String)>) {
        self.attempted += batch.outcomes.len();
        self.failed += failures.len();
        for (label, reason) in failures {
            if self.reported < MAX_REPORTED_FAILURES {
                eprintln!("FAILED {label}: {reason}");
                self.reported += 1;
            }
        }
    }
}

fn line(m: &Metric, note: &str) {
    println!(
        "  {:<28} {:>16} {:<7} {note}",
        m.name,
        format!("{:.6}", m.value),
        m.unit
    );
}

/// Whether another round, as long as the median one so far, still ends
/// inside the measuring window.
fn room_for_another(start: Instant, budget: Duration, rounds: &[f64]) -> bool {
    let next = median(rounds).unwrap_or(0.0);
    start.elapsed().as_secs_f64() + next <= budget.as_secs_f64()
}

fn run(opts: &RunOpts) -> Result<(), String> {
    let pinned = Table::parse(PINNED_DIGESTS).map_err(|e| format!("pinned digests: {e}"))?;
    let full_ipc = Table::parse(PINNED_FULL_IPC).map_err(|e| format!("pinned IPCs: {e}"))?;
    let cache_dir = cache_env(opts.bench);
    let budget = Duration::from_secs(opts.seconds);

    let mut setups = Vec::new();
    let t = Instant::now();
    while setups.len() + 1 < SETUP_MIN_REPS || t.elapsed() < SETUP_MIN_TIME {
        timed_setup(opts, None, &mut setups);
    }
    let mut checker = Checker::new(opts.bench, opts.seed, &pinned);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reported: 0,
    };

    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} pool={}",
        opts.bench.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        pre_par::num_threads(usize::MAX),
    );

    // Untraced batches (the only ones end-to-end numbers come from), each
    // followed in a traced run by a traced batch, so both sample the same
    // stretch of machine speed and their difference is the tracing
    // overhead.
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut cals = Vec::new();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut latencies: HashMap<String, Vec<f64>> = HashMap::new();
    let mut reference: Option<(Plan, Batch, HashMap<String, SimStats>)> = None;
    let mut traced_walls = Vec::new();
    let mut per_batch: Vec<Vec<Metric>> = Vec::new();
    loop {
        let round = Instant::now();
        cals.push(calib::calibrate());
        let plan = timed_setup(opts, None, &mut setups);
        fresh_cache(cache_dir.as_deref())?;
        reset_peak_rss();
        let batch = bench::run_untraced(&plan, cache_dir.as_deref())?;
        rss.push(peak_rss_mb()?);
        tally.add(&batch, checker.check(&plan, &batch, None));
        eprintln!(
            "batch {}: wall {:.4} s, calibration {:.4} s",
            walls.len() + 1,
            batch.wall_s,
            cals[cals.len() - 1]
        );
        walls.push(batch.wall_s);
        for (op, ms) in &batch.latencies_ms {
            latencies.entry(op.clone()).or_default().push(*ms);
        }
        let (_, _, stats_of) = reference.get_or_insert_with(|| {
            let stats_of = plan
                .ops()
                .zip(&batch.outcomes)
                .filter_map(|(op, o)| Some((op.label.clone(), o.as_ref().ok()?.stats.clone())))
                .collect();
            (plan, batch, stats_of)
        });
        if opts.trace {
            let rec = Recorder::new();
            let layers = Layers::default();
            let plan = timed_setup(opts, Some(&rec), &mut setups);
            fresh_cache(cache_dir.as_deref())?;
            let batch = bench::run_traced(&plan, &rec, &layers, cache_dir.as_deref());
            tally.add(&batch, checker.check(&plan, &batch, Some(stats_of)));
            eprintln!(
                "traced batch {}: wall {:.4} s",
                traced_walls.len() + 1,
                batch.wall_s
            );
            traced_walls.push(batch.wall_s);
            let spans = rec.spans();
            per_batch.push(report::layer_metrics(&plan, &batch, &spans, &layers));
            let file = Path::new(OUT_DIR).join(format!(
                "spans-{}-seed{}.tsv",
                opts.bench.name(),
                opts.seed
            ));
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            std::fs::write(&file, spans::to_tsv(&spans))
                .map_err(|e| format!("{}: {e}", file.display()))?;
        }
        rounds.push(round.elapsed().as_secs_f64());
        if !room_for_another(start, budget, &rounds) {
            break;
        }
    }
    let (plan, reference, _) = reference.ok_or("no batch ran")?;
    let calibration = median(&cals).unwrap_or(calib::REFERENCE_S);
    // Host times at the reference machine speed (see `calib`).
    let speed = calib::REFERENCE_S / calibration;
    let paper_gap = bench::paper_gap_pct(&plan, &reference.outcomes);
    let sample_err = bench::sample_err_pct(&plan, &reference.outcomes, &full_ipc);

    let metrics = if opts.trace {
        let untraced = median(&walls).unwrap_or(0.0);
        let traced = median(&traced_walls).unwrap_or(0.0);
        println!(
            "  per-layer: median of {} traced batches, interleaved with as many untraced ones",
            per_batch.len()
        );
        per_batch[0]
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = per_batch.iter().map(|b| b[i].value).collect();
                Metric::new(m.name.clone(), median(&values).unwrap_or(0.0), m.unit)
            })
            .chain([
                Metric::new("trace.calibration_s", calibration, "s"),
                Metric::new("trace.wall_s", traced, "s"),
                Metric::new("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%"),
                Metric::new("sim.paper_gap_pct", paper_gap.unwrap_or(0.0), "pp"),
                Metric::new("sim.sample_err_pct", sample_err.unwrap_or(0.0), "%"),
            ])
            .inspect(|m| line(m, ""))
            .collect()
    } else {
        // Each operation's median over the batches, then quantiles over
        // operations: repeats of one operation differ only by jitter. The
        // p90 of ~110 operations falls where the slowest cells are few and
        // far apart, so one cell's jitter would move a single order
        // statistic by the gap to its neighbour; Harrell-Davis spreads that
        // over the neighbouring ranks. The p50 lies among dense values.
        let per_op: Vec<f64> = latencies.values().filter_map(|v| median(v)).collect();
        let samples: usize = latencies.values().map(Vec::len).sum();
        let raw = [
            median(&setups).unwrap_or(0.0),
            median(&walls).unwrap_or(0.0),
            percentile(&per_op, 0.5).unwrap_or(0.0),
            harrell_davis(&per_op, 0.9).unwrap_or(0.0),
        ];
        let metrics = vec![
            Metric::new("setup_s", raw[0] * speed, "s"),
            Metric::new("wall_s", raw[1] * speed, "s"),
            Metric::new("cell_ms.p50", raw[2] * speed, "ms"),
            Metric::new("cell_ms.p90", raw[3] * speed, "ms"),
            Metric::new("peak_rss_mb", median(&rss).unwrap_or(0.0), "MB"),
        ];
        let ops = format!("{} operations, {samples} samples", per_op.len());
        let notes = [
            format!("raw {:.6}; median of {} set-ups", raw[0], setups.len()),
            match quartiles(&walls) {
                Some([q1, _, q3]) => format!(
                    "raw {:.4}; median of {} batches, raw quartiles {q1:.4} .. {q3:.4}",
                    raw[1],
                    walls.len()
                ),
                None => format!("raw {:.4}; {} batch", raw[1], walls.len()),
            },
            format!("raw {:.4}; {ops}", raw[2]),
            format!("raw {:.4}; {ops}; Harrell-Davis", raw[3]),
            format!("median of {} per-batch VmHWM", rss.len()),
        ];
        println!(
            "  host times scaled by {speed:.4}: calibration median {calibration:.4} s over {} rounds, reference {} s",
            cals.len(),
            calib::REFERENCE_S
        );
        for (m, note) in metrics.iter().zip(&notes) {
            line(m, note);
        }
        let simulated = [
            Metric::new("paper_gap_pct", paper_gap.unwrap_or(0.0), "pp"),
            Metric::new("sample_err_pct", sample_err.unwrap_or(0.0), "%"),
        ];
        for m in &simulated {
            line(m, "simulated; 0 = not measured on this workload");
        }
        metrics
    };
    line(
        &Metric::new(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        &format!("{} of {} operations", tally.failed, tally.attempted),
    );
    if let Some(dir) = &cache_dir {
        // Best effort: the directory only holds this run's cache entries.
        let _ = std::fs::remove_dir_all(dir);
    }
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

/// Regenerates the reference data at the default seed: every operation's
/// digest, and the full-run 300 k IPC of each mixed-matrix cell.
fn pin(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let out = PathBuf::from(f.get("out").ok_or("missing --out <dir>")?);
    let command =
        "cargo run --release --manifest-path perfbench/Cargo.toml -- pin --out perfbench/data";
    let mut digests = Table::default();
    for b in Bench::ALL {
        let cache_dir = cache_env(b);
        let plan = bench::setup(b, DEFAULT_SEED, None);
        fresh_cache(cache_dir.as_deref())?;
        let batch = bench::run_untraced(&plan, cache_dir.as_deref())?;
        // Only failures unrelated to pinning may stop it.
        let failures: Vec<_> =
            Checker::new(b, DEFAULT_SEED + 1, &Table::default()).check(&plan, &batch, None);
        if let Some((label, reason)) = failures.first() {
            return Err(format!("{}: {label}: {reason}", b.name()));
        }
        for (op, o) in plan.ops().zip(&batch.outcomes) {
            let r = o.as_ref().map_err(|e| format!("{}: {e}", op.label))?;
            digests.insert(b.name(), &op.label, op.program, digest::digest(r));
        }
        if let Some(dir) = &cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        eprintln!("pinned {} operations of {}", plan.ops().count(), b.name());
    }

    stores::clear_stores();
    std::env::remove_var("PRE_CACHE_DIR");
    let params = pre_workloads::WorkloadParams::default();
    let specs: Vec<RunSpec> = Suite::Mixed
        .cells()
        .map(|(w, t)| {
            RunSpec::new(w, t)
                .with_budget(bench::LONG_UOPS)
                .with_params(params)
        })
        .collect();
    let t = Instant::now();
    let full = EvaluationMatrix::run_specs_isolated(&specs, |_| {});
    if let Some(f) = full.failures.first() {
        return Err(format!(
            "full run {}: {}",
            specs[f.index].cell_name(),
            f.error
        ));
    }
    let mut ipc = Table::default();
    for (spec, r) in specs.iter().zip(full.matrix.results()) {
        let program = stores::program_for(spec.workload, &spec.params).content_hash();
        ipc.insert(
            Bench::SampledLong.name(),
            &spec.cell_name(),
            program,
            r.ipc().to_bits(),
        );
    }
    eprintln!("full 300 k matrix in {:.1} s", t.elapsed().as_secs_f64());

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let write = |name: &str, text: String| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        "digests.txt",
        digests.render(
            &format!(
                "Per-operation output digests at seed {DEFAULT_SEED} (perfbench/src/digest.rs).\n\
                 workload, operation, program content hash, digest. Regenerate with:\n{command}"
            ),
            |_| String::new(),
        ),
    )?;
    write(
        "full_ipc_300k.txt",
        ipc.render(
            &format!(
                "Full-run (unsampled) IPC at {} uops, seed {DEFAULT_SEED}: the reference of\n\
                 sim.sample_err_pct. workload, cell, program content hash, IPC as f64 bits, IPC.\n\
                 Regenerate with:\n{command}",
                bench::LONG_UOPS
            ),
            |bits| format!("{:.6}", f64::from_bits(bits)),
        ),
    )
}
