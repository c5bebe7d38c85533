//! Stat D (Section 5.1): PRE and PRE+EMQ invoke runahead execution more often
//! than traditional runahead (1.62× and 1.95× in the paper) because entry and
//! exit are cheap enough to profit from short intervals.
//!
//! Usage: `stat_invocations [max_uops_per_run]` (the synthetic suite; for
//! other suites `full_eval --suite <name>` prints the same table).

use pre_sim::experiments::{cli_from_args, stat_invocations, Flag, DEFAULT_EVAL_UOPS};
use pre_sim::EvaluationMatrix;

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS / 2, &[Flag::MaxUops], "");
    let matrix = EvaluationMatrix::run_specs_isolated(&cli.matrix_specs(), |_| {})
        .into_result()
        .expect("evaluation matrix");
    println!("{}", stat_invocations(&matrix).render());
}
