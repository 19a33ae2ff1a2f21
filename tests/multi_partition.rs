//! Multi-partition deployments: several untrusted edges, one trusted
//! cloud. Punishment is per-edge — a lying partition burns while the
//! others keep working.

mod common;

use wedgechain::core::client::ClientPlan;
use wedgechain::core::config::SystemConfig;
use wedgechain::core::fault::FaultPlan;
use wedgechain::core::harness::{MultiPartitionHarness, SystemHarness};

#[test]
fn partitions_progress_independently() {
    let cfg = SystemConfig::default();
    let plan = ClientPlan::writer(6, 50, 100, 5_000);
    let mut h = MultiPartitionHarness::new(cfg, 3, 2, plan, vec![]);
    h.run(10_000_000);
    for p in 0..3 {
        for c in 0..2 {
            let m = h.client_metrics(p, c);
            assert_eq!(m.ops_p1, 300, "partition {p} client {c}");
        }
        assert_eq!(h.edge_node(p).stats.blocks_sealed, 12, "partition {p}");
    }
    // The shared cloud certified all partitions' blocks.
    assert_eq!(h.cloud_node().stats.certs_issued, 36);
    assert!(h.cloud_node().punished.is_empty());
}

#[test]
fn one_malicious_partition_does_not_poison_the_rest() {
    let cfg = SystemConfig { dispute_timeout_ms: 1_000, ..SystemConfig::default() };
    let plan = ClientPlan::writer(5, 40, 100, 5_000);
    // Partition 1's edge equivocates on its block 2.
    let faults = vec![FaultPlan::honest(), FaultPlan::equivocate_on(2), FaultPlan::honest()];
    let mut h = MultiPartitionHarness::new(cfg, 3, 1, plan, faults);
    h.run(10_000_000);
    let cloud = h.cloud_node();
    // Exactly the guilty edge was punished.
    assert_eq!(cloud.punished.len(), 1);
    assert!(cloud.punished.contains(&h.edge_node(1).id()));
    // Honest partitions completed their workloads fully certified.
    for p in [0usize, 2] {
        let m = h.client_metrics(p, 0);
        assert_eq!(m.ops_p1, 200, "partition {p}");
        assert_eq!(m.ops_p2, 200, "partition {p} certification incomplete");
    }
}

#[test]
fn block_ids_are_per_partition() {
    // §III: "ids are unique relative to an edge node, but are not
    // unique across edge nodes" — the cert ledger must key by edge.
    let cfg = SystemConfig::default();
    let plan = ClientPlan::writer(3, 10, 50, 1_000);
    let mut h = MultiPartitionHarness::new(cfg, 2, 1, plan, vec![]);
    h.run(10_000_000);
    // Both partitions used block ids 0..3; all six got certified.
    assert_eq!(h.cloud_node().stats.certs_issued, 6);
    assert_eq!(h.cloud_node().stats.equivocations_detected, 0);
}

/// `SystemHarness` is the one-partition `MultiPartitionHarness`: the
/// same actor ids and identities, and after the same scripted puts the
/// same run report.
#[test]
fn system_harness_is_the_one_partition_case() {
    let cfg = SystemConfig { num_clients: 2, batch_size: 1, ..SystemConfig::real_crypto() };
    let mut single =
        SystemHarness::wedgechain_with(cfg.clone(), ClientPlan::idle(), FaultPlan::honest());
    let mut multi = MultiPartitionHarness::new(cfg, 1, 2, ClientPlan::idle(), vec![]);

    assert_eq!(single.cloud, multi.cloud, "cloud actor");
    assert_eq!(vec![single.edge], multi.edges, "edge actor");
    assert_eq!(vec![single.clients.clone()], multi.clients, "client actors");
    assert_eq!(single.cloud_node().id(), multi.cloud_node().id(), "cloud identity");
    assert_eq!(single.edge_node().id(), multi.edge_node(0).id(), "edge identity");
    for c in 0..2 {
        assert_eq!(single.client_mut(c).id(), multi.client_node(0, c).id(), "client {c} identity");
    }

    // Both clients write; 12 single-put blocks cross the L0 threshold,
    // so a cloud-verified merge runs in both.
    for k in 0..12u64 {
        let c = (k % 2) as usize;
        let value = format!("value-{k}").into_bytes();
        let a = single.put_certified(c, k, value.clone());
        let b = multi.put_certified(0, c, k, value);
        assert!(a.phase2_latency.is_some(), "put {k} certified");
        assert_eq!(a.phase2_latency, b.phase2_latency, "put {k}: same virtual Phase II");
    }
    let report = single.report();
    assert!(report.cloud_stats.merges_processed >= 1, "a merge ran");
    assert_eq!(report.edges[0].blocks.len(), 12, "one block per put");
    assert_eq!(report.edges[0].certified_len, 12, "every block certified");
    common::assert_same_outcome("single-vs-multi", &report, &multi.report());
    for k in 0..12u64 {
        let got = single.get(1, k).value;
        assert_eq!(got, Some(format!("value-{k}").into_bytes()), "read of key {k}");
        assert_eq!(got, multi.get(0, 1, k).value, "same read of key {k}");
    }
}
