//! Figure 5(a–c): throughput under multi-client and mixed workloads.
//!
//! Clients sweep 1–9 with (a) all-write, (b) 50/50 mixed with
//! interactive reads, and (c) all-read workloads.
//!
//! Paper reference shapes: (a) Cloud-only gains the most from added
//! concurrency (+433%) and approaches WedgeChain; (b) WedgeChain ~4 K,
//! Edge-baseline ~1.3 K, Cloud-only ~0.27 K ops/s; (c) WedgeChain ≈
//! Edge-baseline ≫ Cloud-only.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, latency_header, record, run_all, write_json};
use wedge_core::config::SystemConfig;
use wedge_workload::{Mix, Scenario};

fn sweep(mix: Mix, caption: &str, tag: &str) -> Vec<(usize, [wedge_baselines::RunOutput; 3])> {
    banner(caption, "Throughput (K ops/s) vs number of clients");
    latency_header("clients");
    let cfg = SystemConfig::default();
    let mut rows = Vec::new();
    for &clients in &Scenario::fig5_client_counts() {
        // Writes: 12 batches/client for the write sweep; the mixed
        // sweep drops to 4 batches so the 50/50 op ratio holds exactly
        // (4 batches of 100 writes + 400 interactive reads). Reads are
        // strictly interactive: one outstanding request per client, as
        // the paper's "interactive" reads imply.
        let batches = if mix == Mix::AllWrite { 12 } else { 4 };
        let scenario = Scenario {
            clients,
            batches_per_client: batches,
            key_space: 20_000,
            read_pipeline: 1,
            ..Scenario::paper_default()
        }
        .with_mix(mix);
        let scenario = Scenario {
            reads_per_client: if mix == Mix::AllRead { 400 } else { scenario.reads_per_client },
            ..scenario
        };
        let out = run_all(&cfg, &scenario);
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>16.2}",
            clients,
            out[0].agg.throughput_kops,
            out[1].agg.throughput_kops,
            out[2].agg.throughput_kops
        );
        rows.push((clients, out));
    }
    for (clients, out) in &rows {
        for (sys, o) in ["wc", "co", "eb"].iter().zip(out.iter()) {
            record(&format!("{tag}/clients_{clients}/kops_{sys}"), o.agg.throughput_kops, "kops");
        }
    }
    rows
}

fn main() {
    let a = sweep(Mix::AllWrite, "Figure 5(a) all-write", "fig5a");
    let b = sweep(Mix::Mixed5050, "Figure 5(b) 50% reads / 50% writes", "fig5b");
    let c = sweep(Mix::AllRead, "Figure 5(c) all-read", "fig5c");

    println!("\nshape checks:");
    let gain = |rows: &[(usize, [wedge_baselines::RunOutput; 3])], i: usize| {
        let first = rows.first().unwrap().1[i].agg.throughput_kops;
        let last = rows.last().unwrap().1[i].agg.throughput_kops;
        if first > 0.0 {
            (last / first - 1.0) * 100.0
        } else {
            0.0
        }
    };
    println!(
        "  (a) concurrency gain 1→9 clients: WC {:+.0}%  CO {:+.0}% (paper: CO gains most, +433%)",
        gain(&a, 0),
        gain(&a, 1)
    );
    let b_last = &b.last().unwrap().1;
    println!(
        "  (b) mixed @9 clients: WC {:.2}K > EB {:.2}K > CO {:.2}K : {}",
        b_last[0].agg.throughput_kops,
        b_last[2].agg.throughput_kops,
        b_last[1].agg.throughput_kops,
        b_last[0].agg.throughput_kops > b_last[2].agg.throughput_kops
            && b_last[2].agg.throughput_kops > b_last[1].agg.throughput_kops
    );
    let c_last = &c.last().unwrap().1;
    println!(
        "  (c) all-read @9 clients: WC≈EB ({:.2}K vs {:.2}K), CO far behind ({:.2}K): {}",
        c_last[0].agg.throughput_kops,
        c_last[2].agg.throughput_kops,
        c_last[1].agg.throughput_kops,
        c_last[1].agg.throughput_kops < c_last[0].agg.throughput_kops / 2.0
    );
    record("fig5/summary/a_co_gain_pct", gain(&a, 1), "%");
    record("fig5/summary/a_wc_gain_pct", gain(&a, 0), "%");
    write_json("fig5_clients");
}
