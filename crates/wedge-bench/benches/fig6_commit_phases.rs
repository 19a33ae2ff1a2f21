//! Figure 6: Phase I vs Phase II commit rates.
//!
//! One WedgeChain client streams 4000 add() batches (the logging
//! workload) for B ∈ {100, 500, 1000}. The paper's takeaway: P1
//! finishes ~60 s in every case; P2 keeps pace at B=100 but lags
//! behind at B=500/1000 because the (asynchronous) certification
//! pipeline's per-batch cost grows with the batch size.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, record, write_json};
use wedge_core::client::ClientPlan;
use wedge_core::config::SystemConfig;
use wedge_core::fault::FaultPlan;
use wedge_core::harness::SystemHarness;
use wedge_workload::Scenario;

const BATCHES: u64 = 4000;

fn main() {
    banner("Figure 6", "P1 vs P2 commit progress over time, 4000 batches (logging workload)");
    for &batch in &Scenario::fig6_batch_sizes() {
        let cfg = SystemConfig {
            // Logging workload: gossip/freshness machinery off the
            // timeline, long dispute timeout (no disputes expected).
            gossip_period_ms: 0,
            dispute_timeout_ms: 600_000,
            ..SystemConfig::default()
        };
        let plan = ClientPlan {
            kv: false, // raw log entries: add(), not put()
            value_size: 16,
            ..ClientPlan::writer(BATCHES, batch, 16, 1_000_000)
        };
        let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
        h.run(None);
        let m = h.client_metrics(0);
        let p1_done = m.p1_timeline.time_to_reach(BATCHES);
        let p2_done = m.p2_timeline.time_to_reach(BATCHES);
        println!("\nB={batch} ops/batch:");
        println!(
            "  P1: {} batches committed, all by {:>7.1} s",
            m.p1_timeline.total(),
            p1_done.unwrap_or(f64::NAN)
        );
        println!(
            "  P2: {} batches committed, all by {:>7.1} s",
            m.p2_timeline.total(),
            p2_done.unwrap_or(f64::NAN)
        );
        // The time series the paper plots (sampled every 30 s).
        println!("  t(s)    P1-committed  P2-committed");
        let horizon = p2_done.unwrap_or(240.0).max(p1_done.unwrap_or(60.0)).ceil() as u64 + 30;
        let mut t = 30u64;
        while t <= horizon.min(600) {
            println!(
                "  {:>4}    {:>12}  {:>12}",
                t,
                m.p1_timeline.count_at(t as f64),
                m.p2_timeline.count_at(t as f64)
            );
            t += 30;
        }
        if let (Some(p1), Some(p2)) = (p1_done, p2_done) {
            println!("  P2 lag vs P1: {:.1}x (paper: ~1x at B=100, >1.7x at B>=500)", p2 / p1);
            record(&format!("fig6/batch_{batch}/p1_done_s"), p1, "s");
            record(&format!("fig6/batch_{batch}/p2_done_s"), p2, "s");
            record(&format!("fig6/batch_{batch}/p2_lag"), p2 / p1, "ratio");
        }
    }
    write_json("fig6_commit_phases");
}
