//! Stat E (Section 3.6): storage overhead of the PRE structures — 1 KB SST +
//! 768 B PRDQ + 256 B RAT extension = 2 KB, plus 3 KB for the optional EMQ,
//! compared with ≈1.7 KB for the prior-work runahead buffer.

use pre_energy::HardwareOverhead;
use pre_model::config::RunaheadConfig;
use pre_sim::experiments::cli_from_args;

fn main() {
    // Takes no arguments: anything given is rejected with the usage.
    cli_from_args(0, &[], "");
    let hw = HardwareOverhead::for_config(&RunaheadConfig::default());
    println!("== Stat E — hardware overhead (Section 3.6) ==");
    println!("{hw}");
    println!();
    println!(
        "paper: SST 1 KB, PRDQ 768 B, RAT extension 256 B (2 KB total), EMQ +3 KB, runahead buffer ~1.7 KB"
    );
}
