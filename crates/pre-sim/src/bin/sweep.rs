//! Declarative parameter sweeps over one (workload, technique) pair.
//!
//! Expands a grid (`--grid dim=v1,v2,... --grid dim=...`) into its Cartesian
//! product, runs every point over the worker pool, and prints a table plus
//! an optional JSON/CSV dump. Points share one warm-up snapshot per workload
//! (`--warmup`) and answer from the result cache when they have run before
//! (in-memory within one invocation; across invocations when `PRE_CACHE_DIR`
//! names a directory).
//!
//! Usage:
//!
//! ```text
//! sweep [--workload <name>] [--technique <name>] [--budget <uops>]
//!       [--warmup <uops>] [--grid dim=v1,v2,...]... [--json <path>]
//!       [--csv <path>] [--no-cache] [--expect-min-hit-rate <pct>]
//!       [--reference-scheduler] [--fail-fast] [--max-retries <n>]
//!       [--sample [n=K,interval=N]]
//! ```
//!
//! Dimensions: `emq`, `sst`, `rob`, `iq`, `prdq`, `min-free-int`,
//! `min-free-fp`, `l3-kb`, `min-ra-cycles`.
//!
//! `--sample` estimates every point by SimPoint-style interval sampling
//! instead of a full detailed run: point IPCs are printed with a `~` prefix,
//! and the JSON report records the sampling parameters and marks the points
//! `"sampled": true`. The profile and clustering are computed once per
//! (workload, budget) and shared by all points.
//!
//! Failures are isolated: a point that errors or panics is reported (and
//! retried `--max-retries` times) while the rest of the grid completes; the
//! exit code is then 1 and the JSON report lists the failed points.
//! `--fail-fast` stops launching new points after the first failure.

use pre_runahead::Technique;
use pre_sim::experiments::{cli_from_args, exit_with_usage, Flag};
use pre_sim::sweep::{cache_hit_rate, sweep_csv, sweep_json, Sweep, ALL_DIMS};
use pre_workloads::Workload;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag::Opt("--workload", "<name>"),
    Flag::Opt("--technique", "<name>"),
    Flag::Opt("--budget", "<uops>"),
    Flag::Warmup,
    Flag::Opt("--grid", "dim=v1,v2,..."),
    Flag::Opt("--json", "<path>"),
    Flag::Opt("--csv", "<path>"),
    Flag::Switch("--no-cache"),
    Flag::Opt("--expect-min-hit-rate", "<pct>"),
    Flag::ReferenceScheduler,
    Flag::Switch("--fail-fast"),
    Flag::Opt("--max-retries", "<n>"),
    Flag::Sample,
];

struct Args {
    sweep: Sweep,
    json: Option<String>,
    csv: Option<String>,
    expect_min_hit_rate: Option<f64>,
}

fn parse_args() -> Args {
    let dims: Vec<_> = ALL_DIMS.iter().map(|d| d.name()).collect();
    let about = format!("dimensions: {}\n", dims.join(", "));
    let bail = |msg: String| -> ! { exit_with_usage(&msg, FLAGS, &about) };
    // `--budget` overrides the default budget below; there is no positional.
    let cli = cli_from_args(150_000, FLAGS, &about);
    // Defaults mirror the EMQ ablation: lbm-like under PRE+EMQ.
    let mut sweep = Sweep::new(Workload::LbmLike, Technique::PreEmq);
    sweep.budget = cli.budget;
    sweep.base_config = cli.config();
    sweep.warmup_uops = cli.warmup;
    sweep.sample = cli.sample;
    sweep.use_result_cache = true;
    let mut json = None;
    let mut csv = None;
    let mut expect_min_hit_rate = None;
    for (name, value) in cli.own {
        match name {
            "--workload" => sweep.workload = value.parse().unwrap_or_else(|e| bail(format!("{e}"))),
            "--technique" => {
                sweep.technique = value.parse().unwrap_or_else(|e| bail(format!("{e}")))
            }
            "--budget" => {
                sweep.budget = value
                    .parse()
                    .unwrap_or_else(|_| bail("bad --budget value".to_string()))
            }
            "--grid" => sweep
                .dims
                .push(value.parse().unwrap_or_else(|e| bail(format!("{e}")))),
            "--json" => json = Some(value),
            "--csv" => csv = Some(value),
            "--no-cache" => sweep.use_result_cache = false,
            "--expect-min-hit-rate" => match value.parse::<f64>() {
                Ok(p) => expect_min_hit_rate = Some(p / 100.0),
                Err(_) => bail("bad --expect-min-hit-rate value".to_string()),
            },
            "--fail-fast" => sweep.fail_fast = true,
            "--max-retries" => {
                sweep.max_retries = value
                    .parse()
                    .unwrap_or_else(|_| bail("bad --max-retries value".to_string()))
            }
            _ => unreachable!("every option in FLAGS is handled"),
        }
    }
    Args {
        sweep,
        json,
        csv,
        expect_min_hit_rate,
    }
}

fn main() {
    let args = parse_args();
    let sweep = &args.sweep;
    eprintln!(
        "sweep: {} / {} — {} points, budget {} uops, warmup {} uops, cache {}",
        sweep.workload.name(),
        sweep.technique.label(),
        sweep.num_points(),
        sweep.budget,
        sweep.warmup_uops,
        if sweep.use_result_cache { "on" } else { "off" },
    );
    let start = Instant::now();
    let run = sweep.run_isolated(|p| {
        eprintln!(
            "  [{:>7.2}s] {:<28} ipc {}{:.3}{}",
            start.elapsed().as_secs_f64(),
            p.label(),
            if p.result.sample.is_some() { "~" } else { "" },
            p.result.ipc(),
            if p.result.cache_hit { "  (cached)" } else { "" },
        );
    });
    let elapsed = start.elapsed().as_secs_f64();
    let points = &run.points;

    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>7} {:>9}",
        "point", "ipc", "cycles", "energy-mJ", "cache", "deadlock"
    );
    for p in points {
        println!(
            "{:<28} {:>8} {:>12} {:>10.2} {:>7} {:>9}",
            p.label(),
            format!(
                "{}{:.3}",
                if p.result.sample.is_some() { "~" } else { "" },
                p.result.ipc()
            ),
            p.result.stats.cycles,
            p.result.energy_mj(),
            if p.result.cache_hit { "hit" } else { "sim" },
            if p.result.deadlocked { "YES" } else { "-" },
        );
    }
    for f in &run.failures {
        println!(
            "{:<28} FAILED ({} attempts): {}",
            f.label, f.attempts, f.error
        );
    }
    let hit_rate = cache_hit_rate(points);
    println!(
        "{} of {} points in {:.2}s ({:.1} points/s), cache hit rate {:.1}%{}",
        points.len(),
        run.total,
        elapsed,
        points.len() as f64 / elapsed.max(1e-9),
        hit_rate * 100.0,
        if run.failures.is_empty() {
            String::new()
        } else {
            format!(", {} FAILED", run.failures.len())
        },
    );

    if let Some(path) = &args.json {
        let text = sweep_json(sweep, points, &run.failures, elapsed);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        let text = sweep_csv(sweep, points);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    let mut failed = points.iter().any(|p| p.result.deadlocked) || !run.failures.is_empty();
    if let Some(min) = args.expect_min_hit_rate {
        if hit_rate < min {
            eprintln!(
                "cache hit rate {:.1}% below required {:.1}%",
                hit_rate * 100.0,
                min * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
