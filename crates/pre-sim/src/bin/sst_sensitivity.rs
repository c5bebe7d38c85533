//! Stat F (Section 3.6): SST capacity sensitivity. The paper provisions 256
//! entries and observes that this holds the stalling slices with almost no
//! misses; this sweep shows the speedup and SST behaviour across capacities.
//!
//! Usage: `sst_sensitivity [max_uops_per_run]`.

use pre_sim::experiments::{cli_from_args, sst_sensitivity, Flag, DEFAULT_EVAL_UOPS};

fn main() {
    let budget = cli_from_args(DEFAULT_EVAL_UOPS / 2, &[Flag::MaxUops], "").budget;
    let table = sst_sensitivity(budget, &[4, 8, 16, 64, 256]).expect("SST sweep");
    println!("{}", table.render());
    println!("paper: a 256-entry SST holds the stalling slices with almost no misses");
}
