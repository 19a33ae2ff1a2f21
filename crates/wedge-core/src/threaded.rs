//! The real-threads runtime: the shared [`crate::driver`] skeleton on
//! in-process channels.
//!
//! The simulator is the measurement substrate; this runtime is the
//! proof that the *same protocol engines* run on actual concurrency
//! primitives with all cryptography real. An N-edge cluster mirrors
//! the simulator's `MultiPartitionHarness` topology: one service
//! thread per edge, one per partition client, one cloud thread and one
//! cloud→edge gate flusher per edge.
//!
//! Everything but the transport — config, engine construction, the
//! caller API, the service loops, backpressure and the report — is
//! the driver's. [`Threads`] only connects nodes: a node sends to a
//! peer by delivering straight into the peer's inbox, so a link has
//! nothing to frame and nothing to flush, and the report's socket
//! counters are zero.

use crate::driver::{Cluster, Inlet, Node, RunReport, RuntimeConfig, Transport, WireCounters};

pub use crate::driver::{EdgeRunReport, PutOps, PutReply, PutShed};

/// Configuration for the threaded runtime (the shared runtime config).
pub type ThreadedConfig = RuntimeConfig;

/// Final state of a threaded run (the shared run report).
pub type ThreadedReport = RunReport;

/// A running N-edge + cloud cluster on real threads.
pub type ThreadedCluster = Cluster<Threads>;

/// In-process transport: every link is the receiving node's inlet.
#[derive(Debug, Default)]
pub struct Threads;

impl Transport for Threads {
    type Link = Inlet;

    fn connect(&mut self, (_, a): (Node, Inlet), (_, b): (Node, Inlet)) -> (Inlet, Inlet) {
        (b, a)
    }

    fn close(&mut self) -> WireCounters {
        WireCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use std::time::Duration;

    #[test]
    fn threaded_put_get_roundtrip() {
        conformance::put_get_roundtrip::<Threads>();
    }

    #[test]
    fn threaded_merges_preserve_data() {
        conformance::merges_preserve_data::<Threads>();
    }

    #[test]
    fn threaded_absent_key_is_none() {
        let cluster = ThreadedCluster::start(ThreadedConfig::default());
        cluster.put(5, b"x".to_vec());
        cluster.flush();
        let read = cluster.get(999).unwrap();
        assert_eq!(read.value, None);
        cluster.shutdown();
    }

    #[test]
    fn threaded_with_injected_latency() {
        conformance::phase1_skips_the_cloud_hop::<Threads>();
    }

    #[test]
    fn threaded_concurrent_writers_lose_nothing() {
        // Regression: batches must reach the client engine in
        // submission order (sequence numbers are assigned on the
        // client thread) — otherwise the engine's replay window
        // silently drops a late batch.
        let cluster =
            ThreadedCluster::start(ThreadedConfig { batch_size: 2, ..ThreadedConfig::default() });
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..25u64 {
                        cluster.put(t * 1000 + i, vec![t as u8, i as u8]);
                    }
                });
            }
        });
        cluster.flush();
        // Every one of the 100 distinct keys must be readable: no
        // batch was rejected by the replay window.
        for t in 0..4u64 {
            for i in 0..25u64 {
                let read = cluster.get(t * 1000 + i).unwrap();
                assert_eq!(read.value, Some(vec![t as u8, i as u8]), "key {t}/{i}");
            }
        }
        let report = cluster.shutdown().expect("report");
        assert_eq!(report.edges[0].edge_stats.blocks_sealed, 50, "100 entries in batches of 2");
    }

    #[test]
    fn threaded_pipelined_writers_lose_nothing() {
        conformance::pipelined_writers_lose_nothing::<Threads>();
    }

    #[test]
    fn threaded_scripted_seal_times_are_deterministic() {
        let run = || {
            let cluster = ThreadedCluster::start(ThreadedConfig {
                batch_size: 2,
                seal_times: Some(vec![vec![1_000, 2_000, 3_000]]),
                ..ThreadedConfig::default()
            });
            for k in 0..6u64 {
                cluster.put(k, vec![k as u8; 8]);
            }
            cluster.shutdown().expect("report")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.edges[0].blocks.len(), 3);
        for (x, y) in a.edges[0].blocks.iter().zip(&b.edges[0].blocks) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1, "scripted seal times make digests reproducible");
        }
    }

    #[test]
    fn threaded_n_edges_partition_data_and_certification() {
        conformance::n_edges_partition_data::<Threads>();
    }

    #[test]
    fn threaded_gossip_reaches_clients_via_engine_deadline() {
        // No driver schedules gossip: the cadence lives in the cloud
        // engine, the thread just sleeps until the engine's deadline.
        let cluster = ThreadedCluster::start(ThreadedConfig {
            batch_size: 1,
            gossip_period: Some(Duration::from_millis(5)),
            ..ThreadedConfig::default()
        });
        for k in 0..3u64 {
            let reply = cluster.put(k, b"v".to_vec()).unwrap();
            let _ = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // Let at least one gossip round fire after the last cert.
        std::thread::sleep(Duration::from_millis(30));
        let report = cluster.shutdown().expect("report");
        assert!(report.cloud_stats.gossip_rounds >= 1, "engine-owned gossip fired");
        assert_eq!(
            report.edges[0].watermark_len,
            Some(3),
            "client holds the freshest watermark (certified prefix)"
        );
    }

    #[test]
    fn threaded_admission_sheds_puts_instead_of_blocking() {
        conformance::admission_sheds_puts_instead_of_blocking::<Threads>();
    }

    #[test]
    fn threaded_backpressure_sheds_gossip_but_defers_proofs() {
        conformance::backpressure_sheds_gossip_but_defers_proofs::<Threads>();
    }

    #[test]
    fn threaded_audit_convicts_a_wrong_read() {
        conformance::audit_convicts_a_wrong_read::<Threads>();
    }
}
