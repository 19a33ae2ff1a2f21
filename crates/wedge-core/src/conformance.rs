//! Runtime behaviours written once and checked on every transport.
//!
//! Each function starts a [`Cluster`] on transport `T`, drives one
//! scenario through the caller API and asserts on the replies and the
//! [`RunReport`]; it panics when the behaviour does not hold. The
//! threaded runtime's tests and `wedge-net`'s tests call the same
//! bodies, so a behaviour cannot drift between transports.

use crate::driver::{Cluster, PutShed, RunReport, RuntimeConfig, Transport};
use std::time::{Duration, Instant};

/// A batch seals once full, its Phase-I receipt verifies, Phase II
/// certifies the receipt's digest, and a verified read returns the
/// value.
pub fn put_get_roundtrip<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig { batch_size: 2, ..RuntimeConfig::default() });
    assert!(cluster.put(1, b"a".to_vec()).is_none()); // buffered
    let reply = cluster.put(2, b"b".to_vec()).expect("batch sealed");
    assert!(reply.receipt.verify(&cluster.registry));
    // Phase II arrives asynchronously.
    let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(proof.digest, reply.receipt.block_digest);
    let read = cluster.get(1).unwrap();
    assert_eq!(read.value.as_deref(), Some(b"a".as_ref()));
    cluster.shutdown();
}

/// Twenty single-put blocks cross the exposition L0 threshold
/// repeatedly, so merge requests and results (whole pages) cross the
/// transport; every key stays readable and no frame is lost.
pub fn merges_preserve_data<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig { batch_size: 1, ..RuntimeConfig::default() });
    let mut last = None;
    for k in 0..20u64 {
        last = cluster.put(k, format!("v{k}").into_bytes());
    }
    // Wait for the final certification so merges settle.
    if let Some(reply) = last {
        let _ = reply.certified.recv_timeout(Duration::from_secs(5));
    }
    for k in 0..20u64 {
        let read = cluster.get(k).unwrap();
        assert_eq!(read.value, Some(format!("v{k}").into_bytes()), "key {k}");
    }
    let report = cluster.shutdown().expect("sole owner gets the report");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 20);
    assert!(report.cloud_stats.merges_processed > 0, "merges ran");
    assert_eq!(
        report.failed_sends, 0,
        "no frame may be dropped: {:?}",
        report.failed_sends_by_peer
    );
}

/// Three partitions: each edge seals and certifies its own keys, serves
/// them, and does not serve its neighbours'.
pub fn n_edges_partition_data<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig {
        num_edges: 3,
        batch_size: 1,
        ..RuntimeConfig::default()
    });
    let mut last = Vec::new();
    for p in 0..3usize {
        for k in 0..4u64 {
            last.push(cluster.put_on(p, k + 10 * p as u64, vec![p as u8, k as u8]).unwrap());
        }
    }
    for reply in last {
        let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest);
    }
    // Partitioned keyspaces: each edge serves its own keys...
    for p in 0..3usize {
        for k in 0..4u64 {
            let read = cluster.get_on(p, k + 10 * p as u64).unwrap();
            assert_eq!(read.value, Some(vec![p as u8, k as u8]));
        }
    }
    // ...and not its neighbours'.
    assert_eq!(cluster.get_on(0, 21).unwrap().value, None);
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.edges.len(), 3);
    for (p, edge) in report.edges.iter().enumerate() {
        assert_eq!(edge.edge_stats.blocks_sealed, 4, "edge {p}");
        assert_eq!(edge.certified_len, 4, "edge {p} fully certified");
    }
    assert!(report.punished.is_empty());
    every_block_certified_honestly(&report);
}

fn every_block_certified_honestly(report: &RunReport) {
    for edge in &report.edges {
        for (bid, digest, edge_proof, certified) in &edge.blocks {
            assert_eq!(certified.as_ref(), Some(digest), "block {bid} certified honestly");
            assert_eq!(edge_proof.as_ref(), Some(digest), "block {bid} proof attached");
        }
    }
}

/// Four writers share one partition with four batches in flight:
/// queued batches drain eagerly into the free pipeline slots, yet
/// every batch seals exactly once, certifies its own digest, and every
/// key is readable.
pub fn pipelined_writers_lose_nothing<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig {
        batch_size: 2,
        pipeline_depth: 4,
        ..RuntimeConfig::default()
    });
    let mut replies: Vec<_> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let cluster = &cluster;
                scope.spawn(move || {
                    (0..25u64)
                        .filter_map(|i| cluster.put(t * 1000 + i, vec![t as u8, i as u8]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers.into_iter().flat_map(|w| w.join().expect("writer")).collect()
    });
    replies.extend(cluster.flush());
    assert_eq!(replies.len(), 50, "every sealed batch replied");
    for reply in replies {
        let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest);
    }
    for t in 0..4u64 {
        for i in 0..25u64 {
            let read = cluster.get(t * 1000 + i).unwrap();
            assert_eq!(read.value, Some(vec![t as u8, i as u8]), "key {t}/{i}");
        }
    }
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 50, "100 entries in batches of 2");
}

/// Phase I returns without waiting for the injected cloud hop; Phase
/// II pays it.
pub fn phase1_skips_the_cloud_hop<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig {
        batch_size: 1,
        cloud_hop_latency: Duration::from_millis(5),
        ..RuntimeConfig::default()
    });
    let t0 = Instant::now();
    let reply = cluster.put(1, b"v".to_vec()).unwrap();
    let p1 = t0.elapsed();
    let _ = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    let p2 = t0.elapsed();
    assert!(p2 >= Duration::from_millis(5));
    assert!(p1 < p2);
    cluster.shutdown();
}

/// A slow edge (5 ms per cloud message) with a tiny inbox and a 1 ms
/// gossip cadence: the cloud→edge gate must shed gossip, but every
/// certification proof must still arrive (deferred, not lost).
pub fn backpressure_sheds_gossip_but_defers_proofs<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig {
        batch_size: 1,
        gossip_period: Some(Duration::from_millis(1)),
        edge_apply_latency: Duration::from_millis(5),
        edge_inbox_cap: 2,
        ..RuntimeConfig::default()
    });
    let mut replies = Vec::new();
    for k in 0..6u64 {
        replies.push(cluster.put(k, vec![k as u8]).unwrap());
    }
    for reply in replies {
        let proof = reply.certified.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest, "no proof lost to shedding");
    }
    // Keep the gossip flood running against the slow edge a while.
    std::thread::sleep(Duration::from_millis(100));
    let report = cluster.shutdown().expect("report");
    assert!(
        report.shed_cloud_msgs > 0,
        "overloaded edge inbox must shed droppable traffic (shed {}, deferred {})",
        report.shed_cloud_msgs,
        report.deferred_cloud_msgs
    );
    assert_eq!(report.edges[0].certified_len, 6, "certification complete despite overload");
}

/// A slow edge (20 ms per cloud message) with a tiny inbox and a 1 ms
/// gossip flood keeps the edge inbox full, so Phase I lags far past
/// the 2 ms admission timeout: `try_put_on` must shed (fail fast)
/// rather than wedge the caller. A shed put is not cancelled, so every
/// key must still become readable.
pub fn admission_sheds_puts_instead_of_blocking<T: Transport>() {
    let cluster = Cluster::<T>::start(RuntimeConfig {
        batch_size: 1,
        gossip_period: Some(Duration::from_millis(1)),
        edge_apply_latency: Duration::from_millis(20),
        edge_inbox_cap: 2,
        admission_timeout: Some(Duration::from_millis(2)),
        ..RuntimeConfig::default()
    });
    let mut shed = 0u64;
    for k in 0..8u64 {
        match cluster.try_put_on(0, k, vec![k as u8]) {
            Ok(Some(_)) | Ok(None) => {}
            Err(PutShed::AdmissionTimeout) => shed += 1,
            Err(PutShed::Rejected) => panic!("batches must not be rejected here"),
        }
    }
    assert!(shed > 0, "an overloaded edge must shed puts, not block the caller");
    // Shed puts still commit: wait for the pipeline to drain, then
    // read everything back.
    for k in 0..8u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if cluster.get(k).unwrap().value == Some(vec![k as u8]) {
                break;
            }
            assert!(Instant::now() < deadline, "key {k} never committed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.puts_shed, shed, "every shed counted exactly once");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 8, "shed puts still sealed");
}
