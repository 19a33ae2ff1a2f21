//! §VI-E: the dataset-size experiment (100 K → 100 M keys).
//!
//! The paper finds write latency flat across three orders of magnitude
//! of key-range growth, because communication and verification (tens
//! of ms) dwarf per-operation storage I/O (sub-ms). We reproduce it by
//! scaling the cost model's I/O term with the configured key count
//! (a log-factor probe cost; see `CostModel::io_probe` and the root
//! README's "Substitutions" — 100 M resident keys are simulated, not
//! materialized).

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, latency_header, record, run_all, write_json};
use wedge_core::config::SystemConfig;
use wedge_workload::Scenario;

fn main() {
    banner("Section VI-E", "Put latency (ms) vs dataset size (keys per partition)");
    latency_header("keys");
    let mut first: Option<[f64; 3]> = None;
    let mut last = [0.0f64; 3];
    for &keys in &Scenario::dataset_sizes() {
        let mut cfg = SystemConfig::default();
        cfg.cost.dataset_keys = keys;
        let scenario =
            Scenario { key_space: keys, batches_per_client: 20, ..Scenario::paper_default() };
        let out = run_all(&cfg, &scenario);
        let row = [out[0].agg.p1_latency_ms, out[1].agg.p1_latency_ms, out[2].agg.p1_latency_ms];
        println!("{:<14} {:>14.1} {:>14.1} {:>16.1}", keys, row[0], row[1], row[2]);
        for (sys, ms) in ["wc", "co", "eb"].into_iter().zip(row) {
            record(&format!("dataset_size/keys_{keys}/p1_ms_{sys}"), ms, "ms");
        }
        if first.is_none() {
            first = Some(row);
        }
        last = row;
    }
    let first = first.unwrap();
    println!("\nshape checks (paper: flat — WedgeChain 15–16 ms, Edge-baseline 88–95 ms, Cloud-only 78–79 ms):");
    let systems = [("WedgeChain", "wc"), ("Cloud-only", "co"), ("Edge-baseline", "eb")];
    for (i, (name, sys)) in systems.into_iter().enumerate() {
        let drift = (last[i] / first[i] - 1.0) * 100.0;
        println!("  {name}: {:.1} → {:.1} ms ({drift:+.1}% across 1000x keys)", first[i], last[i]);
        record(&format!("dataset_size/summary/drift_pct_{sys}"), drift, "%");
    }
    write_json("dataset_size");
}
