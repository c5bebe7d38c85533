//! Prints Table 1 (the baseline core configuration) from the live simulator
//! defaults, plus the hardware-overhead accounting of Section 3.6.

use pre_energy::HardwareOverhead;
use pre_model::config::SimConfig;
use pre_sim::experiments::{cli_from_args, table1};

fn main() {
    // Takes no arguments: anything given is rejected with the usage.
    cli_from_args(0, &[], "");
    println!("{}", table1().render());
    let cfg = SimConfig::haswell_like();
    println!("== Section 3.6 — hardware overhead ==");
    println!("{}", HardwareOverhead::for_config(&cfg.runahead));
    println!();
    println!(
        "isolated LLC-miss latency (closed page): {} core cycles",
        cfg.dram_closed_page_latency() + cfg.l1d.latency + cfg.l2.latency + cfg.l3.latency
    );
}
