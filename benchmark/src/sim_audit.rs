//! `sim_audit`: the deterministic simulator under real crypto, with a
//! fault injected — the exact-repeat workload.
//!
//! Each round builds a `SystemHarness` whose edge denies every read of
//! the last block it will seal (`FaultPlan::omit_on`), commits
//! [`PUTS_PER_ROUND`] certified puts, reads them back, then audits
//! that block every [`AUDIT_EVERY_MS`] of virtual time until the cloud
//! punishes the edge — which it can only do once a gossip watermark
//! covering the block has reached the client. The virtual-time figures (Phase I / II under the WAN model,
//! detection latency) repeat bit-for-bit for a seed and are reported
//! as exact counts; the end-to-end metrics are the same rounds timed
//! on the wall clock — the protocol engines on one thread with no
//! queues, which is the baseline the threaded and TCP runtimes add
//! their hops to.

use crate::cluster::{counter_metrics, Counters, NetCounters, Outcome};
use crate::ops::{value_for, Keys, Mix, Op, OpGen, Shadow};
use crate::stats::{median, Latencies, Metric};
use std::time::{Duration, Instant};
use wedge_core::config::SystemConfig;
use wedge_core::engine::{CloudStats, EdgeStats};
use wedge_core::fault::FaultPlan;
use wedge_core::harness::SystemHarness;
use wedge_core::messages::Msg;
use wedge_core::{ClientPlan, PutOutcome};
use wedge_log::BlockId;
use wedge_sim::SimDuration;

pub const PUTS_PER_ROUND: u64 = 50;
pub const GOSSIP_MS: u64 = 1_000;
pub const AUDIT_EVERY_MS: u64 = 20;
/// Sized so that a run's rounds take about `--seconds` on the commit
/// that defined the benchmark (a round is ≈ 0.27 s of wall time).
pub const ROUNDS_PER_SECOND: f64 = 3.5;

/// The paper's bound on how long an omission can stay unproven: one
/// gossip period, the audit cadence, and a dispute round trip.
pub const DETECT_BOUND_MS: f64 = (GOSSIP_MS + 4 * AUDIT_EVERY_MS + 300) as f64;

/// What one round measured.
struct Round {
    setup: Duration,
    wall_p1: Latencies,
    wall_p2: Latencies,
    wall_get: Latencies,
    /// Previous op returned → next op issued: the generator's share.
    late: Latencies,
    virt_p1: Latencies,
    virt_p2: Latencies,
    ops_secs: f64,
    edge: EdgeStats,
    cloud: CloudStats,
    proof_cache: (u64, u64),
    detect_ms: Option<f64>,
    failures: Vec<String>,
    failed: u64,
}

impl Round {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// The op stream both the simulator and the inline replay consume:
/// each put followed by a get of the key it wrote.
pub fn ops(seed: u64) -> impl Iterator<Item = Op> {
    OpGen::new(seed, 0, 1, Keys::Uniform(100_000), Mix::PutOnly).flat_map(|put| {
        let (Op::Put { key, .. } | Op::Get { key }) = put;
        [put, Op::Get { key }]
    })
}

fn run_round(seed: u64, puts: u64) -> Round {
    let setup_start = Instant::now();
    let cfg = SystemConfig {
        batch_size: 1,
        gossip_period_ms: GOSSIP_MS,
        // Keep the withholding path out of the picture: detection here
        // is the gossip-driven omission bound.
        dispute_timeout_ms: 600_000,
        seed,
        ..SystemConfig::real_crypto()
    };
    // Batch size 1: put `i` seals block `i`. Denying the newest block
    // makes detection wait for the next gossip round, which is the
    // bound the paper states.
    let denied = puts.saturating_sub(1);
    let mut h = SystemHarness::wedgechain_with(cfg, ClientPlan::idle(), FaultPlan::omit_on(denied));
    let mut round = Round {
        setup: setup_start.elapsed(),
        wall_p1: Latencies::default(),
        wall_p2: Latencies::default(),
        wall_get: Latencies::default(),
        late: Latencies::default(),
        virt_p1: Latencies::default(),
        virt_p2: Latencies::default(),
        ops_secs: 0.0,
        edge: EdgeStats::default(),
        cloud: CloudStats::default(),
        proof_cache: (0, 0),
        detect_ms: None,
        failures: Vec::new(),
        failed: 0,
    };

    // --- certified puts, each read back before the next ---
    let mut shadow = Shadow::default();
    let ops_start = Instant::now();
    let mut due = ops_start;
    for op in ops(seed).take(2 * puts as usize) {
        let start = Instant::now();
        round.late.record(start.saturating_duration_since(due));
        match op {
            Op::Put { key, seq } => {
                shadow.record_put(key, seq);
                // `put_certified` is `put` (returns at Phase I) and
                // then stepping until Phase II; timing both needs the
                // two halves.
                h.put(0, key, value_for(key, seq));
                round.wall_p1.record(start.elapsed());
                for _ in 0..1_000_000 {
                    let certified = h
                        .client_mut(0)
                        .last_put
                        .as_ref()
                        .is_some_and(|p| p.phase2_latency.is_some());
                    if certified || !h.sim.step() {
                        break;
                    }
                }
                round.wall_p2.record(start.elapsed());
                match h.client_mut(0).last_put.clone() {
                    Some(PutOutcome {
                        phase1_latency,
                        phase2_latency: Some(phase2_latency),
                        ..
                    }) => {
                        round.virt_p1.record_us(phase1_latency.as_nanos() as f64 / 1e3);
                        round.virt_p2.record_us(phase2_latency.as_nanos() as f64 / 1e3);
                    }
                    _ => round.fail(format!("put on key {key} never reached Phase II")),
                }
            }
            Op::Get { key } => {
                let got = h.get(0, key);
                round.wall_get.record(start.elapsed());
                if got.verify_error.is_some() || !shadow.matches(key, got.value.as_deref()) {
                    round.fail(format!("get on key {key} returned a value nobody wrote"));
                }
            }
        }
        due = Instant::now();
    }
    round.ops_secs = ops_start.elapsed().as_secs_f64();
    round.edge = h.edge_node().stats.clone();
    round.cloud = h.cloud_node().stats.clone();
    let cache = h.client_mut(0).proof_cache().clone();
    round.proof_cache = (cache.hits(), cache.misses());
    if !h.cloud_node().punished.is_empty() {
        round.fail("an edge was punished before it lied".into());
    }

    // --- audit the denied block until the cloud convicts ---
    let (client, cloud) = (h.clients[0], h.cloud);
    let audit_start = h.sim.now();
    let mut deadline = audit_start;
    for _ in 0..10_000 {
        h.sim.inject(cloud, client, Msg::DoLogRead { bid: BlockId(denied) });
        deadline += SimDuration::from_millis(AUDIT_EVERY_MS);
        h.sim.run_until(deadline, 1_000_000);
        if !h.cloud_node().punished.is_empty() {
            round.detect_ms = Some((h.sim.now() - audit_start).as_millis_f64());
            break;
        }
    }
    let edge_id = h.edge_node().id();
    let only_the_liar =
        h.cloud_node().punished.len() == 1 && h.cloud_node().punished.contains(&edge_id);
    match round.detect_ms {
        Some(ms) if ms <= DETECT_BOUND_MS && only_the_liar => {}
        other => round.fail(format!(
            "omission detected after {other:?} ms (bound {DETECT_BOUND_MS}); \
             only the liar punished: {only_the_liar}"
        )),
    }
    round
}

/// Runs [`ROUNDS_PER_SECOND`] rounds per second of `--seconds` (seeds
/// `seed`, `seed + 1`, …). The exact-repeat figures come from the
/// first round alone, so they depend on `--seed` and nothing else.
pub fn run(seed: u64, seconds: f64, puts: u64) -> Outcome {
    let count = ((ROUNDS_PER_SECOND * seconds).ceil() as u64).max(1);
    let rounds: Vec<Round> = (0..count).map(|r| run_round(seed.wrapping_add(r), puts)).collect();
    let measured: f64 = rounds.iter().map(|r| r.ops_secs).sum();

    let mut wall_p1 = Latencies::default();
    let mut wall_p2 = Latencies::default();
    let mut wall_get = Latencies::default();
    let mut late = Latencies::default();
    let (mut failed, mut failures) = (0, Vec::new());
    for r in &rounds {
        wall_p1.extend(&r.wall_p1);
        wall_p2.extend(&r.wall_p2);
        wall_get.extend(&r.wall_get);
        late.extend(&r.late);
        failed += r.failed;
        failures.extend(r.failures.iter().cloned());
    }
    let n = rounds.len() as u64;
    let (puts_done, gets_done) = (wall_p1.count(), wall_get.count());
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let wan_bytes: u64 = rounds.iter().map(|r| r.edge.wan_bytes_to_cloud).sum();

    let mut e2e = vec![
        Metric::new("setup_s", median(&setups), "s", n),
        Metric::new(
            "throughput_ops_s",
            (puts_done + gets_done) as f64 / measured,
            "ops/s",
            puts_done + gets_done,
        ),
    ];
    e2e.extend(wall_p1.gated("put_p1"));
    e2e.extend(wall_p2.gated("put_p2"));
    e2e.extend(wall_get.gated("get"));
    e2e.push(Metric::new(
        "wan_bytes_per_put",
        wan_bytes as f64 / puts_done.max(1) as f64,
        "B",
        puts_done,
    ));

    let first = &rounds[0];
    let mut layer = Vec::new();
    layer.extend(wall_p1.diagnostics("put_p1"));
    layer.extend(wall_p2.diagnostics("put_p2"));
    layer.extend(wall_get.diagnostics("get"));
    layer.push(Metric::new("driver.late_p95_us", late.quantile_us(0.95), "us", late.count()));
    layer.extend(counter_metrics(&Counters {
        edge: &first.edge,
        cloud: &first.cloud,
        puts,
        gets: puts,
        proof_cache_hits: first.proof_cache.0,
        proof_cache_misses: first.proof_cache.1,
        // The simulator has no inboxes to shed from and no sockets.
        shed_cloud_msgs: 0,
        deferred_cloud_msgs: 0,
        puts_shed: 0,
        net: NetCounters::default(),
    }));
    layer.extend([
        Metric::new("detect_ms", first.detect_ms.unwrap_or(0.0), "ms_virtual", 1),
        Metric::new("sim.put_p1_p50_us", first.virt_p1.quantile_us(0.5), "us_virtual", puts),
        Metric::new("sim.put_p1_p95_us", first.virt_p1.quantile_us(0.95), "us_virtual", puts),
        Metric::new("sim.put_p2_p50_us", first.virt_p2.quantile_us(0.5), "us_virtual", puts),
        Metric::new("sim.put_p2_p95_us", first.virt_p2.quantile_us(0.95), "us_virtual", puts),
    ]);

    Outcome {
        e2e,
        layer,
        attempted: puts_done + gets_done + n,
        failed,
        failures,
        counts: vec![
            ("rounds", n),
            ("puts_per_round", puts),
            ("timed_puts", puts_done),
            ("timed_gets", gets_done),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(out: &Outcome, name: &str) -> f64 {
        out.layer.iter().find(|m| m.name == name).map(|m| m.value).unwrap()
    }

    #[test]
    fn the_liar_is_caught_inside_the_bound_and_virtual_time_repeats_exactly() {
        let (a, b) = (run(42, 0.0, 8), run(42, 0.0, 8));
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        let detect = layer(&a, "detect_ms");
        assert!(detect > 0.0 && detect <= DETECT_BOUND_MS, "detected after {detect} ms");
        for name in ["detect_ms", "sim.put_p1_p50_us", "sim.put_p2_p50_us", "sim.put_p2_p95_us"] {
            assert_eq!(layer(&a, name).to_bits(), layer(&b, name).to_bits(), "{name} repeats");
        }
        // Phase I commits at edge speed; Phase II pays the WAN.
        assert!(layer(&a, "sim.put_p1_p50_us") * 5.0 < layer(&a, "sim.put_p2_p50_us"));
    }
}
