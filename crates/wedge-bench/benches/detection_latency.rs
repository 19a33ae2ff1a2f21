//! Detection latency vs gossip period (§IV-E / §V staleness bound).
//!
//! An omission attack — the edge denies a block it stores — is only
//! *provable* once the client holds a cloud gossip watermark covering
//! the denied block id. The gossip period therefore bounds how stale
//! an edge's lie can stay undetected: an auditing client catches the
//! omission within roughly one gossip period (plus a dispute round
//! trip). This sweep measures that bound on the deterministic
//! simulator as a pure `SystemConfig` exercise: same workload, same
//! fault, only `gossip_period_ms` varies. The reported latency is
//! **virtual time** from the moment the audit loop starts to the
//! moment the cloud punishes the edge — deterministic, so the series
//! is exactly reproducible.
//!
//! Expected shape: detection latency grows linearly with the gossip
//! period (the watermark wait dominates), with a floor set by the
//! audit cadence and the WAN round trip.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, record, write_json};
use wedge_core::config::SystemConfig;
use wedge_core::fault::FaultPlan;
use wedge_core::harness::SystemHarness;
use wedge_core::messages::Msg;
use wedge_core::ClientPlan;
use wedge_log::BlockId;
use wedge_sim::{SimDuration, SimTime};

/// Virtual-time audit cadence: how often the client re-reads the
/// denied block. Much finer than any swept gossip period, so the
/// measured latency tracks the watermark wait, not the audit loop.
const AUDIT_EVERY_MS: u64 = 20;

fn detection_latency(gossip_period_ms: u64) -> SimDuration {
    let cfg = SystemConfig {
        batch_size: 1,
        gossip_period_ms,
        // Keep the withholding path out of the picture: this sweep
        // isolates the gossip-driven omission bound.
        dispute_timeout_ms: 600_000,
        ..SystemConfig::real_crypto()
    };
    // The edge stores block 0 honestly but denies every read of it.
    let mut h = SystemHarness::wedgechain_with(cfg, ClientPlan::idle(), FaultPlan::omit_on(0));
    for k in 0..3u64 {
        let put = h.put_certified(0, k, vec![0xAB; 64]);
        assert!(put.phase2_latency.is_some(), "setup block {k} certified");
    }
    let (client, cloud) = (h.clients[0], h.cloud);
    let start = h.sim.now();
    // Audit loop: keep asking for the denied block until the cloud
    // convicts. Each denial before the first covering watermark is
    // unprovable and goes nowhere; the first one after it files an
    // Omission dispute.
    let mut deadline = start;
    for _ in 0..10_000 {
        h.sim.inject(cloud, client, Msg::DoLogRead { bid: BlockId(0) });
        deadline += SimDuration::from_millis(AUDIT_EVERY_MS);
        h.sim.run_until(deadline, 1_000_000);
        if !h.cloud_node().punished.is_empty() {
            let detected: SimTime = h.sim.now();
            return detected - start;
        }
    }
    panic!("omission never detected with gossip period {gossip_period_ms} ms");
}

fn main() {
    banner(
        "detection-latency",
        "omission-detection latency vs gossip period (virtual time, §IV-E staleness bound)",
    );
    println!("{:<22} {:>18}", "gossip period", "detection latency");
    for period_ms in [100u64, 200, 500, 1000, 2000] {
        let latency = detection_latency(period_ms);
        let latency_ms = latency.as_millis_f64();
        println!("{:<22} {:>15.1} ms", format!("{period_ms} ms"), latency_ms);
        record(&format!("detection_latency/gossip_{period_ms}ms"), latency.as_nanos() as f64, "ns");
        // The staleness bound: detection should not take much longer
        // than one gossip period + audit cadence + dispute round trip.
        assert!(
            latency_ms <= (period_ms + 4 * AUDIT_EVERY_MS + 300) as f64,
            "gossip {period_ms} ms: detection took {latency_ms:.1} ms, beyond the bound"
        );
    }
    write_json("detection_latency");
}
