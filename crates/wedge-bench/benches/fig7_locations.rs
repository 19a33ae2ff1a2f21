//! Figure 7: commit latency while varying node locations.
//!
//! (a) Cloud node sweeps O/V/I/M with client+edge fixed in California:
//! WedgeChain stays flat (15–17 ms) while Cloud-only (37–247 ms) and
//! Edge-baseline (59–321 ms) track the cloud's distance.
//!
//! (b) Edge node sweeps C/O/V/I/M with the client in California and
//! the cloud in Mumbai: WedgeChain tracks the client↔edge RTT
//! (17–247 ms); all three systems converge when the edge is co-located
//! with the cloud.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, latency_header, record, run_all, write_json};
use wedge_core::config::SystemConfig;
use wedge_sim::Region;
use wedge_workload::Scenario;

fn scenario() -> Scenario {
    Scenario { batches_per_client: 20, ..Scenario::paper_default() }
}

fn main() {
    banner("Figure 7(a)", "Put latency (ms) vs cloud location (edge+client in C)");
    latency_header("cloud@");
    let mut flat_wc = Vec::new();
    for cloud in [Region::Oregon, Region::Virginia, Region::Ireland, Region::Mumbai] {
        let cfg = SystemConfig { cloud_region: cloud, ..SystemConfig::default() };
        let out = run_all(&cfg, &scenario());
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>16.1}",
            cloud.code(),
            out[0].agg.p1_latency_ms,
            out[1].agg.p1_latency_ms,
            out[2].agg.p1_latency_ms
        );
        flat_wc.push(out[0].agg.p1_latency_ms);
        for (sys, o) in ["wc", "co", "eb"].iter().zip(out.iter()) {
            let name = format!("fig7a/cloud_{}/p1_ms_{sys}", cloud.code());
            record(&name, o.agg.p1_latency_ms, "ms");
        }
    }
    let spread = flat_wc.iter().cloned().fold(f64::MIN, f64::max)
        - flat_wc.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "\n  WedgeChain latency spread across cloud locations: {spread:.1} ms (paper: ~2 ms — the cloud is off the write path)"
    );
    record("fig7a/summary/wc_spread_ms", spread, "ms");

    banner("Figure 7(b)", "Put latency (ms) vs edge location (client in C, cloud in M)");
    latency_header("edge@");
    for edge in Region::ALL {
        let cfg = SystemConfig {
            edge_region: edge,
            cloud_region: Region::Mumbai,
            ..SystemConfig::default()
        };
        let out = run_all(&cfg, &scenario());
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>16.1}",
            edge.code(),
            out[0].agg.p1_latency_ms,
            out[1].agg.p1_latency_ms,
            out[2].agg.p1_latency_ms
        );
        for (sys, o) in ["wc", "co", "eb"].iter().zip(out.iter()) {
            record(&format!("fig7b/edge_{}/p1_ms_{sys}", edge.code()), o.agg.p1_latency_ms, "ms");
        }
    }
    println!(
        "\n  (paper: WedgeChain tracks client→edge RTT; with edge co-located at the cloud (M), all three systems converge)"
    );
    write_json("fig7_locations");
}
