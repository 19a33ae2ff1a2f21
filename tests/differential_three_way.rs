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
//!
//! The scenario includes a withholding edge whose conviction is
//! reached purely through the client engine's dispute deadline — over
//! TCP, the dispute and verdict cross real sockets.

use std::time::Duration;
use wedgechain::core::client::ClientPlan;
use wedgechain::core::config::SystemConfig;
use wedgechain::core::driver::{Cluster, RunReport, RuntimeConfig, Transport};
use wedgechain::core::fault::FaultPlan;
use wedgechain::core::harness::MultiPartitionHarness;
use wedgechain::core::messages::DisputeVerdict;
use wedgechain::core::threaded::{EdgeRunReport, Threads};
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

/// One block's comparable state: (bid, block digest, edge-side proof
/// digest, certified digest).
type BlockOutcome = (u64, [u8; 32], Option<[u8; 32]>, Option<[u8; 32]>);

/// What one runtime's run is reduced to for comparison.
struct EdgeOutcome {
    blocks: Vec<BlockOutcome>,
    certified_len: u64,
    watermark_len: Option<u64>,
    disputes_filed: u64,
    disputes_upheld: u64,
    verdicts: Vec<DisputeVerdict>,
}

fn reduce_report(edge: &EdgeRunReport) -> EdgeOutcome {
    EdgeOutcome {
        blocks: edge
            .blocks
            .iter()
            .map(|(bid, d, p, c)| {
                (
                    bid.0,
                    *d.as_bytes(),
                    p.as_ref().map(|x| *x.as_bytes()),
                    c.as_ref().map(|x| *x.as_bytes()),
                )
            })
            .collect(),
        certified_len: edge.certified_len,
        watermark_len: edge.watermark_len,
        disputes_filed: edge.client_metrics.disputes_filed,
        disputes_upheld: edge.client_metrics.disputes_upheld,
        verdicts: edge.verdicts.clone(),
    }
}

fn assert_outcomes_agree(label: &str, got: &[EdgeOutcome], want: &[EdgeOutcome]) {
    assert_eq!(got.len(), want.len(), "{label}: partition count");
    for (p, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.blocks, w.blocks, "{label} edge {p}: blocks/digests/proofs/certs");
        assert_eq!(g.certified_len, w.certified_len, "{label} edge {p}: certified prefix");
        if p != 1 {
            // The withheld edge's client may or may not have received
            // a fresher watermark after the conviction (the punished
            // edge is dropped from gossip) — compare honest edges.
            assert_eq!(g.watermark_len, w.watermark_len, "{label} edge {p}: watermark content");
        }
        assert_eq!(g.disputes_filed, w.disputes_filed, "{label} edge {p}: disputes filed");
        assert_eq!(g.disputes_upheld, w.disputes_upheld, "{label} edge {p}: disputes upheld");
        assert_eq!(g.verdicts, w.verdicts, "{label} edge {p}: verdicts");
    }
}

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

    let mut seal_times = Vec::new();
    let mut sim_outcomes = Vec::new();
    for p in 0..partitions {
        let edge_id = sim.edge_node(p).id();
        let blocks: Vec<BlockOutcome> = sim
            .edge_node(p)
            .log
            .iter()
            .map(|sb| {
                (
                    sb.block.id.0,
                    *sb.block.digest().as_bytes(),
                    sb.proof.as_ref().map(|pr| *pr.digest.as_bytes()),
                    sim.cloud_node().ledger.lookup(edge_id, sb.block.id).map(|d| *d.as_bytes()),
                )
            })
            .collect();
        seal_times
            .push(sim.edge_node(p).log.iter().map(|sb| sb.block.sealed_at_ns).collect::<Vec<_>>());
        sim_outcomes.push(EdgeOutcome {
            blocks,
            certified_len: sim.cloud_node().ledger.contiguous_len(edge_id),
            watermark_len: sim.client_node(p, 0).watermarks.latest(edge_id).map(|wm| wm.log_len),
            disputes_filed: sim.client_metrics(p, 0).disputes_filed,
            disputes_upheld: sim.client_metrics(p, 0).disputes_upheld,
            verdicts: if p == 1 {
                vec![DisputeVerdict::EdgePunished {
                    edge: sim.edge_node(1).id(),
                    grounds: "block never certified after timeout".into(),
                }]
            } else {
                Vec::new()
            },
        });
    }
    let sim_punished: Vec<_> = {
        let mut v: Vec<_> = sim.cloud_node().punished.iter().copied().collect();
        v.sort_by_key(|id| id.0);
        v
    };
    assert_eq!(sim_punished, vec![sim.edge_node(1).id()], "sim convicted exactly edge 1");
    assert_eq!(sim.cloud_node().stats.disputes_upheld, 1, "sim: one dispute upheld");
    assert!(sim.client_node(1, 0).halted, "sim client 1 halted on the verdict");
    let filed: Vec<u64> = sim_outcomes.iter().map(|o| o.disputes_filed).collect();
    assert_eq!(filed, vec![0, 1, 0], "sim: one engine-deadline dispute, on edge 1");
    let certified: Vec<u64> = sim_outcomes.iter().map(|o| o.certified_len).collect();
    assert_eq!(certified, vec![12, WITHHELD_BID, 3], "withheld block splits edge 1's prefix");
    for p in [0, 2] {
        let honest = &sim_outcomes[p];
        assert_eq!(
            honest.watermark_len,
            Some(honest.certified_len),
            "sim edge {p}: the client's watermark is the certified prefix"
        );
    }

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
        // The sim reference runs inline (width 1); running the OS-thread
        // runtimes with real worker pools proves pooling never changes
        // a digest, verdict, or counter.
        pool_threads: 2,
        ..RuntimeConfig::default()
    };

    // ---------------- threaded runtime ----------------
    let (threaded_report, threaded_reads) = run_script::<Threads>(cfg.clone(), &per_edge);
    let threaded_outcomes: Vec<_> = threaded_report.edges.iter().map(reduce_report).collect();
    assert_outcomes_agree("threads-vs-sim", &threaded_outcomes, &sim_outcomes);
    assert_eq!(threaded_report.punished, sim_punished, "threads: same punished set");
    assert_eq!(threaded_reads, sim_reads, "threads: same verified-read values");

    // ---------------- socket runtime (loopback TCP) ----------------
    let (net_report, net_reads) = run_script::<Tcp>(cfg, &per_edge);
    let net_outcomes: Vec<_> = net_report.edges.iter().map(reduce_report).collect();
    assert_outcomes_agree("sockets-vs-sim", &net_outcomes, &sim_outcomes);
    assert_eq!(net_report.punished, sim_punished, "sockets: same punished set");
    assert_eq!(net_reads, sim_reads, "sockets: same verified-read values");
    assert_eq!(
        net_report.failed_sends, 0,
        "sockets: zero dropped frames — every write_frame failure is counted per peer: {:?}",
        net_report.failed_sends_by_peer
    );

    // All three exercised the merge path with the shared engine.
    assert!(sim.cloud_node().stats.merges_processed >= 1, "sim merge ran");
    assert!(threaded_report.cloud_stats.merges_processed >= 1, "threaded merge ran");
    assert!(net_report.cloud_stats.merges_processed >= 1, "socket merge ran");

    // Merge replies are delta-encoded identically everywhere: the
    // same pages ship in full, the same pages ship as references —
    // whether the reference resolves through an in-process Arc or a
    // decoded wire frame.
    let sim_stats = &sim.cloud_node().stats;
    let sim_delta = (
        sim_stats.merge_reply_pages_full,
        sim_stats.merge_reply_pages_reused,
        sim_stats.merge_reply_bytes_saved,
    );
    let threaded_delta = (
        threaded_report.cloud_stats.merge_reply_pages_full,
        threaded_report.cloud_stats.merge_reply_pages_reused,
        threaded_report.cloud_stats.merge_reply_bytes_saved,
    );
    let net_delta = (
        net_report.cloud_stats.merge_reply_pages_full,
        net_report.cloud_stats.merge_reply_pages_reused,
        net_report.cloud_stats.merge_reply_bytes_saved,
    );
    assert_eq!(threaded_delta, sim_delta, "threads: same delta reuse as sim");
    assert_eq!(net_delta, sim_delta, "sockets: same delta reuse as sim");

    // And so are merge *requests*: the edge's full-vs-delta choice and
    // the per-page full/reference split are a pure function of the
    // replayed merge sequence, so the request-side counters must agree
    // byte-for-byte across all three transports (including zero nacks
    // — nothing was evicted in this scenario).
    let sim_req = (
        sim_stats.merge_req_pages_full,
        sim_stats.merge_req_pages_reused,
        sim_stats.merge_req_bytes_saved,
        sim_stats.merge_req_nacks,
    );
    let threaded_req = (
        threaded_report.cloud_stats.merge_req_pages_full,
        threaded_report.cloud_stats.merge_req_pages_reused,
        threaded_report.cloud_stats.merge_req_bytes_saved,
        threaded_report.cloud_stats.merge_req_nacks,
    );
    let net_req = (
        net_report.cloud_stats.merge_req_pages_full,
        net_report.cloud_stats.merge_req_pages_reused,
        net_report.cloud_stats.merge_req_bytes_saved,
        net_report.cloud_stats.merge_req_nacks,
    );
    assert_eq!(threaded_req, sim_req, "threads: same request-side delta split as sim");
    assert_eq!(net_req, sim_req, "sockets: same request-side delta split as sim");
    assert!(sim_req.0 > 0, "the cold-start merge shipped its pages in full");
    assert_eq!(sim_req.3, 0, "no resend nacks in a warm, eviction-free run");

    // Compaction stats are a pure function of the replayed merge
    // sequence, so the three runtimes must agree byte-for-byte. In
    // this scenario the compaction clock is unarmed (seal_times and
    // wall-clock deadlines cannot combine) and no organic merge
    // folds, so agreeing means agreeing on zero — the sim-side
    // compaction e2e test covers the non-zero case deterministically.
    let sim_compaction = sim.cloud_node().index.compaction_stats();
    assert_eq!(threaded_report.compaction, sim_compaction, "threads: same compaction stats");
    assert_eq!(net_report.compaction, sim_compaction, "sockets: same compaction stats");

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
