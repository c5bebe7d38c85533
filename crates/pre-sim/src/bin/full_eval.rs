//! Runs the complete evaluation matrix once and prints every result that
//! depends on it: Figure 2 (performance), Figure 3 (energy) and Stat D
//! (runahead invocation ratios). This is the cheapest way to regenerate the
//! paper's headline numbers because the matrix is simulated only once.
//!
//! Usage: `full_eval [--suite synthetic|asm|mixed] [--warmup <uops>]
//! [--trace <spec>] [--sample [n=K,interval=N]] [max_uops_per_run]`
//! (defaults: the synthetic memory-intensive suite, 300 000 uops).
//! `--sample` estimates every cell by SimPoint-style interval sampling
//! (profile → cluster → simulate one representative per cluster →
//! extrapolate); sampled numbers are marked `~` in the tables and the
//! sampling metadata is printed after them. `--warmup` shares one
//! functional warm-up snapshot per workload across its cells. `--trace dir=traces,all`
//! additionally writes per-cell trace files (pipeview/Chrome/time-series/
//! commit streams). Cells consult the result cache (persisted when
//! `PRE_CACHE_DIR` names a directory), so a repeated invocation answers
//! unchanged cells in milliseconds; the progress log marks those `(cached)`.

use pre_model::stats::TerminationKind;
use pre_sim::experiments::{
    cli_from_args, fig2_summary, fig2_table, fig3_summary, fig3_table, stat_invocations, Suite,
    DEFAULT_EVAL_UOPS, MATRIX_FLAGS,
};
use pre_sim::runner::cell_name;
use pre_sim::EvaluationMatrix;

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS, MATRIX_FLAGS, "");
    eprintln!(
        "running the full evaluation matrix over the {} suite ({} committed uops per run)...",
        cli.suite, cli.budget
    );
    if let Some(trace) = &cli.trace {
        eprintln!("writing per-cell traces under {}", trace.dir.display());
    }
    let start = std::time::Instant::now();
    // Failure-isolated: a cell that errors or panics degrades the report
    // (and the exit code) instead of aborting the other cells.
    let run = EvaluationMatrix::run_specs_isolated(&cli.matrix_specs(), |r| {
        eprintln!(
            "  [{:>6.1}s] {:<18} {:<10} ipc {}{:.3}{}{}",
            start.elapsed().as_secs_f64(),
            r.workload.name(),
            r.technique.label(),
            if r.sample.is_some() { "~" } else { "" },
            r.ipc(),
            if r.cache_hit { "  (cached)" } else { "" },
            match r.terminated() {
                TerminationKind::Completed => "",
                TerminationKind::MaxCycles => "  ! hit cycle budget",
                TerminationKind::Watchdog => "  ! WATCHDOG",
            },
        );
    });
    let matrix = run.matrix;

    let fig2 = fig2_table(&matrix);
    println!("{}", fig2.render());
    let fig3 = fig3_table(&matrix);
    println!("{}", fig3.render());
    if cli.suite == Suite::Synthetic {
        println!("paper-vs-measured (Figure 2):\n{}", fig2_summary(&matrix));
        println!("paper-vs-measured (Figure 3):\n{}", fig3_summary(&matrix));
    }
    println!("{}", stat_invocations(&matrix).render());

    if cli.sample.is_some() {
        println!("sampling metadata (~ numbers above are extrapolated):");
        // The profile is functional (technique-independent), so one line per
        // workload describes every cell of its row.
        let mut seen = Vec::new();
        for r in matrix.results() {
            if seen.contains(&r.workload) {
                continue;
            }
            if let Some(meta) = &r.sample {
                seen.push(r.workload);
                println!("  {:<18} {}", r.workload.name(), meta.summary());
            }
        }
        println!();
    }

    let _ = fig2.write_csv("fig2_performance.csv");
    let _ = fig3.write_csv("fig3_energy.csv");
    eprintln!(
        "total wall-clock time: {:.1}s",
        start.elapsed().as_secs_f64()
    );

    let mut failed = false;
    for r in matrix.results() {
        match r.terminated() {
            TerminationKind::Completed => {}
            TerminationKind::MaxCycles => eprintln!(
                "WARNING: {} stopped at the cycle budget before committing its uop budget",
                cell_name(r.workload, r.technique)
            ),
            TerminationKind::Watchdog => {
                match r.watchdog_error() {
                    Some(e) => eprintln!("WARNING: {}: {e}", cell_name(r.workload, r.technique)),
                    None => eprintln!(
                        "WARNING: {} hit the deadlock watchdog",
                        cell_name(r.workload, r.technique)
                    ),
                }
                failed = true;
            }
        }
    }
    for f in &run.failures {
        eprintln!("FAILED: {f}");
        failed = true;
    }
    if !run.failures.is_empty() {
        eprintln!(
            "{} of {} cells failed; the tables above cover the {} that completed",
            run.failures.len(),
            run.cells,
            matrix.results().len()
        );
    }
    if failed {
        std::process::exit(1);
    }
}
