//! Ablation: EMQ capacity sensitivity. The EMQ bounds how far PRE+EMQ can run
//! ahead (Section 3.3); the paper evaluates 768 entries (4 × ROB).
//!
//! Usage: `emq_sensitivity [max_uops_per_run]`.

use pre_sim::experiments::{cli_from_args, emq_sensitivity, Flag, DEFAULT_EVAL_UOPS};

fn main() {
    let budget = cli_from_args(DEFAULT_EVAL_UOPS / 2, &[Flag::MaxUops], "").budget;
    let table = emq_sensitivity(budget, &[192, 384, 768, 1536]).expect("EMQ sweep");
    println!("{}", table.render());
    println!(
        "paper: PRE+EMQ with a 768-entry EMQ improves performance by 28.6 % vs 35.5 % for PRE"
    );
}
