//! End-to-end smoke tests of the simulated WedgeChain deployment.

use wedge_core::client::ClientPlan;
use wedge_core::config::SystemConfig;
use wedge_core::fault::FaultPlan;
use wedge_core::harness::SystemHarness;
use wedge_log::CommitPhase;
use wedge_sim::SimDuration;

#[test]
fn single_put_phase1_is_local_latency() {
    let mut h = SystemHarness::wedgechain(SystemConfig::real_crypto());
    let put = h.put(0, 42, b"hello".to_vec());
    let p1 = put.phase1_latency.as_millis_f64();
    // Client and edge are both in California (10 ms local RTT) plus
    // edge processing — far below the 61 ms cloud RTT.
    assert!(p1 < 30.0, "phase-1 latency {p1} ms too high");
    assert!(p1 >= 10.0, "phase-1 latency {p1} ms below the local RTT");
}

#[test]
fn single_put_reaches_phase2() {
    let mut h = SystemHarness::wedgechain(SystemConfig::real_crypto());
    let put = h.put_certified(0, 42, b"hello".to_vec());
    let p2 = put.phase2_latency.expect("phase 2 must arrive").as_millis_f64();
    // Phase II pays the California↔Virginia RTT (61 ms) on top.
    assert!(p2 > put.phase1_latency.as_millis_f64());
    assert!(p2 >= 61.0, "phase-2 latency {p2} ms below the WAN RTT");
}

#[test]
fn put_then_get_roundtrip() {
    let mut h = SystemHarness::wedgechain(SystemConfig::real_crypto());
    h.put_certified(0, 7, b"value-7".to_vec());
    let got = h.get(0, 7);
    assert_eq!(got.verify_error, None);
    assert_eq!(got.value.as_deref(), Some(b"value-7".as_ref()));
    assert_eq!(got.phase, CommitPhase::Phase2);
    let missing = h.get(0, 9999);
    assert_eq!(missing.value, None);
}

#[test]
fn phase1_read_before_certification() {
    let mut h = SystemHarness::wedgechain(SystemConfig::real_crypto());
    // put() returns at Phase I; the get races the certification.
    h.put(0, 7, b"v".to_vec());
    let got = h.get(0, 7);
    assert_eq!(got.verify_error, None);
    assert_eq!(got.value.as_deref(), Some(b"v".as_ref()));
    // The read may be Phase1 (uncertified L0) or Phase2 depending on
    // timing; both are legal — what matters is the value verifies.
}

#[test]
fn batch_workload_runs_to_completion() {
    let cfg = SystemConfig::default();
    let plan = ClientPlan::writer(20, 100, 100, 100_000);
    let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
    h.run(None);
    let agg = h.aggregate();
    assert_eq!(agg.total_ops, 2_000);
    assert!(agg.p1_latency_ms > 10.0 && agg.p1_latency_ms < 40.0, "p1 {}", agg.p1_latency_ms);
    assert!(agg.p2_latency_ms > agg.p1_latency_ms, "p2 {}", agg.p2_latency_ms);
    assert!(agg.throughput_kops > 1.0, "throughput {}", agg.throughput_kops);
    // All batches certified.
    let m = h.client_metrics(0);
    assert_eq!(m.ops_p2, 2_000);
    // The edge saw merges (20 blocks > L0 threshold of 10).
    assert!(h.edge_node().stats.merges_completed >= 1);
}

#[test]
fn mixed_workload_reads_verify() {
    let cfg = SystemConfig { num_clients: 2, ..SystemConfig::default() };
    let plan = ClientPlan {
        write_batches: 5,
        reads: 50,
        interleave: true,
        ..ClientPlan::writer(5, 20, 100, 1_000)
    };
    let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
    h.run(None);
    for i in 0..2 {
        let m = h.client_metrics(i);
        assert_eq!(m.reads_ok + m.reads_rejected, 50, "client {i}");
        assert_eq!(m.reads_rejected, 0, "client {i} had rejected reads");
        assert!(m.read_latency.mean() > 5.0);
    }
}

#[test]
fn deterministic_runs() {
    let run = || {
        let plan = ClientPlan::writer(10, 50, 100, 10_000);
        let mut h =
            SystemHarness::wedgechain_with(SystemConfig::default(), plan, FaultPlan::honest());
        h.run(None);
        let a = h.aggregate();
        (a.p1_latency_ms, a.p2_latency_ms, a.total_ops)
    };
    assert_eq!(run(), run());
}

#[test]
fn certification_does_not_delay_phase1() {
    // The edge dispatches certification on its background lane after
    // the receipt leaves, so Phase I is the same whether the block's
    // certify is sent or withheld.
    let put = |fault: FaultPlan| {
        let mut h =
            SystemHarness::wedgechain_with(SystemConfig::real_crypto(), ClientPlan::idle(), fault);
        h.put(0, 1, b"v".to_vec());
        let until = h.sim.now() + SimDuration::from_secs(1);
        h.sim.run_until(until, 1_000_000);
        h.client_mut(0).last_put.clone().expect("put completed")
    };
    let honest = put(FaultPlan::honest());
    let withheld = put(FaultPlan::withhold_on(0));
    assert_eq!(honest.phase1_latency, withheld.phase1_latency);
    let p2 = honest.phase2_latency.expect("the honest put reaches Phase II");
    assert!(p2 > honest.phase1_latency);
    assert_eq!(withheld.phase2_latency, None, "a withheld block was certified");
}
