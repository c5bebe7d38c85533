//! Stat B (Section 2.4): distribution of runahead-interval lengths. The paper
//! reports that 27 % of runahead intervals take less than 20 cycles on
//! average for memory-intensive workloads, which is why PRE's ability to
//! profit from short intervals matters.
//!
//! Usage: `stat_intervals [max_uops_per_run]`.

use pre_sim::experiments::{cli_from_args, stat_intervals, Flag, DEFAULT_EVAL_UOPS};

fn main() {
    let budget = cli_from_args(DEFAULT_EVAL_UOPS / 2, &[Flag::MaxUops], "").budget;
    let table = stat_intervals(budget).expect("stat B runs");
    println!("{}", table.render());
    println!("paper: ~27 % of runahead intervals are shorter than 20 cycles");
}
