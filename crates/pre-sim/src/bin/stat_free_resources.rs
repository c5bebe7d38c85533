//! Stat C (Section 3.4): free back-end resources at runahead entry. The paper
//! reports ≈37 % of issue-queue entries, ≈51 % of integer and ≈59 % of
//! floating-point physical registers free on average — the headroom PRE uses
//! to execute stalling slices without discarding the window.
//!
//! Usage: `stat_free_resources [--suite synthetic|asm|mixed]
//! [max_uops_per_run]`.

use pre_sim::experiments::{cli_from_args, stat_free_resources, Flag, DEFAULT_EVAL_UOPS};

fn main() {
    let flags = [Flag::Suite, Flag::MaxUops];
    let cli = cli_from_args(DEFAULT_EVAL_UOPS / 2, &flags, "");
    let table = stat_free_resources(cli.suite, cli.budget).expect("stat C runs");
    println!("{}", table.render());
    println!("paper: ~37 % IQ, ~51 % integer registers, ~59 % FP registers free at entry");
    println!("note: see README.md, \"Register reclamation and the PRDQ\" — our synthetic");
    println!("integer kernels are denser in destination-writing micro-ops than SPEC x86");
    println!("code, so the integer-register headroom is smaller for the integer workloads.");
}
