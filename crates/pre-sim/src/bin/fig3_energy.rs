//! Regenerates Figure 3: energy savings (core + DRAM) of RA, RA-buffer, PRE
//! and PRE+EMQ relative to the out-of-order baseline.
//!
//! Usage: `fig3_energy [--suite synthetic|asm|mixed] [--reference-scheduler]
//! [max_uops_per_run]` (defaults: the synthetic memory-intensive suite,
//! 300 000 uops, event-driven scheduler).

use pre_sim::experiments::{
    cli_from_args, fig3_summary, fig3_table, Flag, Suite, DEFAULT_EVAL_UOPS,
};
use pre_sim::EvaluationMatrix;

fn main() {
    let flags = [Flag::Suite, Flag::ReferenceScheduler, Flag::MaxUops];
    let cli = cli_from_args(DEFAULT_EVAL_UOPS, &flags, "");
    eprintln!(
        "running the Figure 3 evaluation matrix over the {} suite ({} committed uops per run)...",
        cli.suite, cli.budget
    );
    let matrix = EvaluationMatrix::run_specs_isolated(&cli.matrix_specs(), |r| {
        eprintln!(
            "  {:<18} {:<10} energy {:.3} mJ",
            r.workload.name(),
            r.technique.label(),
            r.energy_mj()
        );
    })
    .into_result()
    .expect("evaluation matrix");
    let table = fig3_table(&matrix);
    println!("{}", table.render());
    if cli.suite == Suite::Synthetic {
        println!("paper-vs-measured (average energy savings over OoO):");
        println!("{}", fig3_summary(&matrix));
    }
    if let Err(e) = table.write_csv("fig3_energy.csv") {
        eprintln!("could not write fig3_energy.csv: {e}");
    } else {
        eprintln!("wrote fig3_energy.csv");
    }
}
