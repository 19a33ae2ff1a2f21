//! Differential test: the simulator-driven and thread-driven runtimes
//! are two drivers over the *same* sans-IO protocol engines, so the
//! same scripted single-edge workload must end in the same `RunReport`
//! outcome — byte-identical block digests, identical certification
//! results and merge delta split — and identical verified-read values,
//! with a merge on the way.
//!
//! The only nondeterministic input to a block digest is its seal time,
//! so the threaded run replays the simulator's `sealed_at_ns` values
//! via `ThreadedConfig::seal_times`. Entries are byte-identical by
//! construction: both runtimes take their client/edge/cloud identities
//! from one deployment builder, assign sequence numbers from 0 inside
//! the shared `ClientEngine`, and sign with the same deterministic
//! Schnorr scheme.
//!
//! Blocks hold two puts, so the threaded run's client signing and edge
//! signature checks fan out over its worker pool (`WEDGE_POOL_THREADS`,
//! else the host's parallelism) while the simulator's run inline: the
//! comparison proves pooling never changes an entry or a digest.
//!
//! The N-edge case — gossip watermarks and a dispute reached through
//! engine-owned deadlines — is `differential_three_way`, which runs it
//! on the simulator, threads and sockets.

mod common;

use std::time::Duration;
use wedgechain::core::config::SystemConfig;
use wedgechain::core::harness::SystemHarness;
use wedgechain::core::threaded::{ThreadedCluster, ThreadedConfig};
use wedgechain::lsmerkle::LsmConfig;

/// Puts per block in the scripted workload.
const BATCH: usize = 2;

/// The scripted workload: distinct keys, deterministic values. 12
/// blocks of [`BATCH`] puts cross the paper-eval L0 threshold (10), so
/// a cloud-verified merge runs in both runtimes too.
fn workload() -> Vec<(u64, Vec<u8>)> {
    (0..12 * BATCH as u64).map(|k| (k, format!("value-{k}").into_bytes())).collect()
}

#[test]
fn sim_and_threads_agree_on_digests_certs_and_reads() {
    let ops = workload();

    // --- simulator run (real crypto, paper-eval tree shape, no
    // gossip: the threaded run below has none either) ---
    let cfg =
        SystemConfig { batch_size: BATCH, gossip_period_ms: 0, ..SystemConfig::real_crypto() };
    let mut sim = SystemHarness::wedgechain(cfg);
    for (i, batch) in ops.chunks(BATCH).enumerate() {
        let put = sim.put_batch_certified(0, batch.to_vec());
        assert!(put.phase2_latency.is_some(), "sim block {i} certified");
    }
    let mut sim_reads = Vec::new();
    for (k, _) in &ops {
        let got = sim.get(0, *k);
        assert!(got.verify_error.is_none(), "sim read of key {k} verifies");
        sim_reads.push(got.value);
    }
    let sim_report = sim.report();
    assert_eq!(sim_report.edges[0].blocks.len(), ops.len() / BATCH, "one block per batch");
    let seal_times = sim.edge_node().log.iter().map(|sb| sb.block.sealed_at_ns).collect();

    // --- threaded run, replaying the simulator's seal times ---
    let cluster = ThreadedCluster::start(ThreadedConfig {
        lsm: LsmConfig::paper_eval(),
        batch_size: BATCH,
        seal_times: Some(vec![seal_times]),
        ..ThreadedConfig::default()
    });
    for batch in ops.chunks(BATCH) {
        // The batch's last put seals it and returns its reply.
        let reply = batch
            .iter()
            .fold(None, |_, (k, v)| cluster.put(*k, v.clone()))
            .expect("a full batch seals");
        let proof = reply
            .certified
            .recv_timeout(Duration::from_secs(10))
            .expect("threaded block certified");
        assert_eq!(proof.digest, reply.receipt.block_digest, "threaded cert matches receipt");
    }
    let mut thread_reads = Vec::new();
    for (k, _) in &ops {
        let read = cluster.get(*k).expect("threaded read verifies");
        thread_reads.push(read.value);
    }
    let report = cluster.shutdown().expect("sole owner receives the final state");

    // --- identical block digests, edge proofs, cloud certifications ---
    common::assert_same_outcome("threads-vs-sim", &report, &sim_report);
    for (bid, digest, _, certified) in &sim_report.edges[0].blocks {
        assert_eq!(
            certified.as_ref(),
            Some(digest),
            "block {bid}: certification outcome is the honest digest"
        );
    }
    assert_eq!(
        report.edges[0].edge_stats.blocks_sealed, sim_report.edges[0].edge_stats.blocks_sealed,
        "same number of blocks sealed"
    );

    // --- identical verified-read verdicts ---
    assert_eq!(sim_reads, thread_reads, "verified reads return the same values");
    for ((k, v), got) in ops.iter().zip(&thread_reads) {
        assert_eq!(got.as_ref(), Some(v), "key {k} returns its written value");
    }

    // Both runtimes ran the same merges (12 blocks > L0 threshold of
    // 10) with the shared engine.
    assert!(sim_report.cloud_stats.merges_processed >= 1, "sim merge ran");
}

/// The same workload absent scripted seal times still agrees on
/// everything except the (time-bearing) digests — certification is
/// content-honest in both runtimes.
#[test]
fn threads_certify_exactly_what_they_seal_without_scripting() {
    let cluster = ThreadedCluster::start(ThreadedConfig {
        lsm: LsmConfig::paper_eval(),
        batch_size: 1,
        ..ThreadedConfig::default()
    });
    for (k, v) in workload() {
        let reply = cluster.put(k, v).expect("sealed");
        let proof = reply.certified.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest);
    }
    let report = cluster.shutdown().expect("report");
    for (bid, digest, edge_proof, certified) in &report.edges[0].blocks {
        assert_eq!(certified.as_ref(), Some(digest), "block {bid} certified honestly");
        assert_eq!(edge_proof.as_ref(), Some(digest), "block {bid} proof attached");
    }
}
