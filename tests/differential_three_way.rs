//! The three-way differential: one scripted workload executed on the
//! deterministic **simulator**, the **threaded** runtime, and the
//! **loopback-TCP** runtime (`wedge-net`) must produce byte-identical
//! protocol outcomes — per-edge block digests, edge-side Phase-II
//! proof digests, cloud-certified digests, gossip watermark content,
//! verified-read verdicts, dispute verdicts, and punished sets.
//!
//! This is the proof that the sans-IO engines are genuinely
//! transport-independent: the simulator passes enum values through a
//! virtual WAN, the threads pass them over `mpsc` channels, and the
//! socket runtime serializes every message into the length-framed
//! `WireMsg` envelope and decodes it (hostile-input-hardened) on the
//! other side of a real TCP connection. If any codec dropped, mangled
//! or reordered a field, the digests and verdicts below would diverge.
//! Each runtime's outcome is its `RunReport` (the simulator's from
//! `MultiPartitionHarness::report`), and one comparison holds threads,
//! then sockets, to the simulator's.
//!
//! The scenario includes a withholding edge whose conviction is
//! reached purely through the client engine's dispute deadline — over
//! TCP, the dispute and verdict cross real sockets.

mod common;

use std::time::Duration;
use wedgechain::core::client::ClientPlan;
use wedgechain::core::config::SystemConfig;
use wedgechain::core::driver::{Cluster, RunReport, RuntimeConfig, Transport};
use wedgechain::core::fault::FaultPlan;
use wedgechain::core::harness::MultiPartitionHarness;
use wedgechain::core::messages::DisputeVerdict;
use wedgechain::core::threaded::Threads;
use wedgechain::lsmerkle::LsmConfig;
use wedgechain::net::Tcp;
use wedgechain::sim::SimDuration;

/// Per-edge scripted puts: edge 0 crosses the merge threshold (merge
/// requests/results ship pages over each transport), edge 1 includes
/// the withheld block, edge 2 is small and honest.
fn per_edge_workload() -> Vec<Vec<(u64, Vec<u8>)>> {
    vec![
        (0..12u64).map(|k| (k, format!("p0-{k}").into_bytes())).collect(),
        (0..4u64).map(|k| (100 + k, format!("p1-{k}").into_bytes())).collect(),
        (0..3u64).map(|k| (200 + k, format!("p2-{k}").into_bytes())).collect(),
    ]
}

const WITHHELD_BID: u64 = 1;

#[test]
fn sim_threads_and_sockets_agree_end_to_end() {
    let partitions = 3;
    let faults =
        vec![FaultPlan::honest(), FaultPlan::withhold_on(WITHHELD_BID), FaultPlan::honest()];
    let per_edge = per_edge_workload();

    // ---------------- simulator (the reference) ----------------
    let cfg = SystemConfig {
        batch_size: 1,
        dispute_timeout_ms: 1_000,
        gossip_period_ms: 200,
        ..SystemConfig::real_crypto()
    };
    let mut sim =
        MultiPartitionHarness::new(cfg, partitions, 1, ClientPlan::idle(), faults.clone());
    let mut sim_reads = vec![Vec::new(); partitions];
    for (p, ops) in per_edge.iter().enumerate() {
        for (i, (k, v)) in ops.iter().enumerate() {
            if p == 1 && i as u64 == WITHHELD_BID {
                sim.put(p, 0, *k, v.clone()); // Phase I only
            } else {
                let put = sim.put_certified(p, 0, *k, v.clone());
                assert!(put.phase2_latency.is_some(), "sim p{p} block {i} certified");
            }
        }
    }
    // Dispute deadline + verdict + one more gossip round.
    sim.run_for(SimDuration::from_millis(3_000));
    // Verified reads (after the dispute so the halted client 1 skips).
    for (p, ops) in per_edge.iter().enumerate() {
        if p == 1 {
            continue; // halted by the verdict
        }
        for (k, _) in ops {
            let got = sim.get(p, 0, *k);
            assert!(got.verify_error.is_none(), "sim read p{p}/{k} verifies");
            sim_reads[p].push(got.value);
        }
    }

    let sim_report = sim.report();
    let withholder = sim_report.edges[1].edge;
    assert_eq!(sim_report.punished, vec![withholder], "sim convicted exactly edge 1");
    assert!(
        matches!(
            &sim_report.edges[1].verdicts[..],
            [DisputeVerdict::EdgePunished { edge, .. }] if *edge == withholder
        ),
        "sim client 1 received the verdict against its edge: {:?}",
        sim_report.edges[1].verdicts
    );
    for p in [0, 2] {
        assert!(sim_report.edges[p].verdicts.is_empty(), "sim client {p} received no verdict");
    }
    assert_eq!(sim_report.cloud_stats.disputes_upheld, 1, "sim: one dispute upheld");
    assert!(sim.client_node(1, 0).halted, "sim client 1 halted on the verdict");
    let filed: Vec<u64> =
        sim_report.edges.iter().map(|e| e.client_metrics.disputes_filed).collect();
    assert_eq!(filed, vec![0, 1, 0], "sim: one engine-deadline dispute, on edge 1");
    let certified: Vec<u64> = sim_report.edges.iter().map(|e| e.certified_len).collect();
    assert_eq!(certified, vec![12, WITHHELD_BID, 3], "withheld block splits edge 1's prefix");
    for p in [0, 2] {
        let honest = &sim_report.edges[p];
        assert_eq!(
            honest.watermark_len,
            Some(honest.certified_len),
            "sim edge {p}: the client's watermark is the certified prefix"
        );
    }
    let sim_stats = &sim_report.cloud_stats;
    assert!(sim_stats.merges_processed >= 1, "sim merge ran");
    assert!(sim_stats.merge_req_pages_full > 0, "the cold-start merge shipped its pages in full");
    assert_eq!(sim_stats.merge_req_nacks, 0, "no resend nacks in a warm, eviction-free run");
    let seal_times = (0..partitions)
        .map(|p| sim.edge_node(p).log.iter().map(|sb| sb.block.sealed_at_ns).collect())
        .collect();

    // One config and one driver, so threads and sockets run the *same*
    // script.
    let cfg = RuntimeConfig {
        lsm: LsmConfig::paper_eval(),
        num_edges: partitions,
        batch_size: 1,
        faults,
        gossip_period: Some(Duration::from_millis(40)),
        dispute_timeout: Duration::from_millis(300),
        seal_times: Some(seal_times),
        ..RuntimeConfig::default()
    };

    // ---------------- threaded runtime ----------------
    let (threaded_report, threaded_reads) = run_script::<Threads>(cfg.clone(), &per_edge);
    common::assert_same_outcome("threads-vs-sim", &threaded_report, &sim_report);
    assert_eq!(threaded_reads, sim_reads, "threads: same verified-read values");

    // ---------------- socket runtime (loopback TCP) ----------------
    let (net_report, net_reads) = run_script::<Tcp>(cfg, &per_edge);
    common::assert_same_outcome("sockets-vs-sim", &net_report, &sim_report);
    assert_eq!(net_reads, sim_reads, "sockets: same verified-read values");
    assert_eq!(
        net_report.failed_sends, 0,
        "sockets: zero dropped frames — every write_frame failure is counted per peer: {:?}",
        net_report.failed_sends_by_peer
    );

    // The shared proof cache is wired identically in both OS-thread
    // runtimes: the scripted reads run synchronously in script order,
    // so the witness-check sequence — and with it the hit/miss split —
    // matches exactly. Unmerged partitions carry several L0 witnesses
    // per proof, so repeat reads genuinely hit.
    assert_eq!(
        (threaded_report.proof_cache_hits, threaded_report.proof_cache_misses),
        (net_report.proof_cache_hits, net_report.proof_cache_misses),
        "same shared-cache hit/miss split across runtimes"
    );
    assert!(threaded_report.proof_cache_hits > 0, "repeat L0 witnesses hit the shared cache");
}

/// Runs the scripted workload on transport `T`: puts (waiting for
/// Phase II on all but the withheld block, whose conviction the
/// dispute deadline handles), then verified reads on the honest
/// partitions, then time for the dispute to settle. Returns the run
/// report and the read values per partition.
fn run_script<T: Transport>(
    cfg: RuntimeConfig,
    per_edge: &[Vec<(u64, Vec<u8>)>],
) -> (RunReport, Vec<Vec<Option<Vec<u8>>>>) {
    let cluster = Cluster::<T>::start(cfg);
    for (p, ops) in per_edge.iter().enumerate() {
        for (i, (k, v)) in ops.iter().enumerate() {
            let reply = cluster.put_on(p, *k, v.clone()).expect("batch size 1 seals every put");
            if !(p == 1 && i as u64 == WITHHELD_BID) {
                let proof =
                    reply.certified.recv_timeout(Duration::from_secs(10)).expect("block certified");
                assert_eq!(proof.digest, reply.receipt.block_digest, "cert matches receipt");
            }
        }
    }
    let mut reads = vec![Vec::new(); per_edge.len()];
    for (p, ops) in per_edge.iter().enumerate() {
        if p == 1 {
            continue; // the withheld partition's client halts on the verdict
        }
        for (k, _) in ops {
            reads[p].push(cluster.get_on(p, *k).expect("read verifies").value);
        }
    }
    std::thread::sleep(Duration::from_millis(600));
    (cluster.shutdown().expect("report"), reads)
}
