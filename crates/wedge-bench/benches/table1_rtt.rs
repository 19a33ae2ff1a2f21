//! Table I: round-trip times between the five datacenters.
//!
//! Prints the configured RTT matrix (the California row is the paper's
//! verbatim measurement; see `wedge_sim::net::RTT_MS`) and verifies the
//! simulator actually delivers those RTTs end to end.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, record, write_json};
use wedge_sim::{format_table1, NetConfig, NetworkModel, Region, SimTime, RTT_MS};

fn main() {
    banner("Table I", "Average RTTs (ms) between California and other datacenters");
    print!("{}", format_table1());

    // Verify the model: measured delivery RTT == configured matrix.
    let mut net = NetworkModel::new(NetConfig::default(), 1);
    println!("\nmeasured end-to-end RTTs from California (model check):");
    for (to, cfg_ms) in Region::ALL.into_iter().zip(RTT_MS[0]) {
        net.reset_queues();
        let t1 = net.delivery_at(SimTime::ZERO, Region::California, to, 64);
        net.reset_queues();
        let t2 = net.delivery_at(t1, to, Region::California, 64);
        println!("  C -> {} -> C : {:>7.1} ms", to.code(), t2.as_millis_f64());
        record(&format!("table1/cfg_rtt_ms_C_{}", to.code()), cfg_ms as f64, "ms");
        record(&format!("table1/measured_rtt_ms_C_{}", to.code()), t2.as_millis_f64(), "ms");
    }
    write_json("table1_rtt");
}
