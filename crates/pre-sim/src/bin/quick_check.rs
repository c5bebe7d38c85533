//! Quick sanity check: run a few representative workloads under every
//! technique with a small budget and print IPC, runahead activity and
//! energy. Intended for development and for a fast "does the reproduction
//! behave sensibly" smoke test; the real figures come from the
//! `fig2_performance` / `fig3_energy` binaries.
//!
//! Usage: `quick_check [--suite synthetic|asm|mixed] [--reference-scheduler]
//! [--warmup <uops>] [--trace <spec>] [--sample [n=K,interval=N]]
//! [max_uops]` (`--suite asm` smoke-tests every assembled RISC-V kernel). Cells consult the result
//! cache (persisted when `PRE_CACHE_DIR` is set); the `cache` column shows
//! `hit` for cells answered from it and `sim` for cells actually simulated.
//! With `--sample`, cells are *estimated* by SimPoint-style interval
//! sampling: their IPC is printed with a `~` prefix and the sampling
//! metadata (clusters, coverage, weights) follows the table.
//!
//! The cells run as one batch over the worker pool and print in cell order.
//! They are failure-isolated: a cell that errors or panics prints its
//! failure and the remaining cells still run; the exit code is then 1. A
//! watchdog-terminated cell additionally dumps its diagnostics (cycle,
//! occupancies, last committed PCs).

use pre_model::stats::TerminationKind;
use pre_runahead::Technique;
use pre_sim::experiments::{cli_from_args, MATRIX_FLAGS};
use pre_sim::runner::RunSpec;
use pre_sim::{run_batch, BatchPolicy};

fn main() {
    let cli = cli_from_args(60_000, MATRIX_FLAGS, "");
    println!(
        "{:<18} {:<10} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>6} {:>8} {:>6}",
        "workload",
        "technique",
        "ipc",
        "speedup",
        "entries",
        "ra-cycles",
        "prefetches",
        "useful",
        "prdq",
        "fwd",
        "fwd-blk",
        "ff",
        "mJ",
        "cache"
    );
    // The synthetic suite is large, so the quick check runs the reduced
    // representative matrix; the cell order is the canonical
    // `Suite::quick_cells` order shared with the other binaries.
    let specs: Vec<RunSpec> = cli
        .suite
        .quick_cells()
        .map(|(workload, technique)| cli.spec(workload, technique))
        .collect();
    // One batch: a cell that errors or panics (including PRE_FAULT-injected
    // panics) fails alone and the others' rows still print.
    let outcomes = run_batch(&specs, &BatchPolicy::default(), |_, _| {});
    let mut failed = false;
    let mut base_ipc = 0.0;
    let mut sample_lines: Vec<String> = Vec::new();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let (workload, technique) = (spec.workload, spec.technique);
        let result = match outcome {
            Ok(result) => result,
            Err(failure) => {
                failed = true;
                println!("{workload} / {technique}: FAILED: {}", failure.error);
                continue;
            }
        };
        if technique == Technique::OutOfOrder {
            base_ipc = result.ipc();
        }
        let speedup = if base_ipc > 0.0 {
            result.ipc() / base_ipc
        } else {
            0.0
        };
        let marker = match result.terminated() {
            TerminationKind::Completed => "",
            TerminationKind::MaxCycles => "  ! MAX-CYCLES",
            TerminationKind::Watchdog => "  ! WATCHDOG",
        };
        failed |= result.terminated() == TerminationKind::Watchdog;
        // `~` marks extrapolated (sampled) numbers so they are never
        // mistaken for measured ones.
        let est = if result.sample.is_some() { "~" } else { "" };
        if let Some(meta) = &result.sample {
            sample_lines.push(format!(
                "  {} {}: {}",
                workload.name(),
                technique.label(),
                meta.summary()
            ));
        }
        println!(
            "{:<18} {:<10} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>6.3} {:>8.2} {:>6}{}",
            workload.name(),
            technique.label(),
            format!("{est}{:.3}", result.ipc()),
            format!("{est}{speedup:.3}"),
            result.stats.runahead_entries,
            result.stats.runahead_cycles,
            result.stats.runahead_prefetches_issued,
            result.stats.runahead_prefetches_useful,
            result.stats.prdq_allocations,
            result.stats.lsq_forwards,
            result.stats.forward_blocked_partial,
            result.stats.ff_fraction(),
            result.energy_mj(),
            if result.cache_hit { "hit" } else { "sim" },
            marker,
        );
        if let Some(e) = result.watchdog_error() {
            eprintln!("  {e}");
        }
    }
    if !sample_lines.is_empty() {
        println!("sampling metadata (~ rows are extrapolated):");
        for line in sample_lines {
            println!("{line}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
