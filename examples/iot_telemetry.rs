//! High-velocity IoT log ingestion on the *real-threads* runtime.
//!
//! Most examples run on the deterministic simulator; this one runs
//! WedgeChain's actual data path on OS threads — edge, client, and
//! cloud services exchanging messages over bounded `std::sync::mpsc`
//! channels, with every signature and Merkle proof real. An injected
//! 30 ms cloud hop shows Phase I committing far ahead of Phase II on
//! a real clock.
//!
//! Run with: `cargo run --release --example iot_telemetry`

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::{Duration, Instant};
use wedgechain::core::threaded::{ThreadedCluster, ThreadedConfig};
use wedgechain::lsmerkle::LsmConfig;

fn main() {
    println!("IoT telemetry on the threaded runtime (real crypto, real clock)\n");

    let cluster = ThreadedCluster::start(ThreadedConfig {
        lsm: LsmConfig { level_thresholds: vec![4, 4, 16, 64], page_capacity: 64 },
        batch_size: 32,
        cloud_hop_latency: Duration::from_millis(30), // simulated WAN hop
        ..ThreadedConfig::default()
    });

    // 64 sensors, 16 readings each: 1024 puts, batched 32 per block.
    let sensors = 64u64;
    let rounds = 16u64;
    let t0 = Instant::now();
    let mut phase1_acks = 0u64;
    let mut last_reply = None;
    for round in 0..rounds {
        for sensor in 0..sensors {
            let key = sensor; // newest reading per sensor wins
            let value = format!("sensor={sensor} round={round} temp={}F", 60 + (round % 20));
            if let Some(reply) = cluster.put(key, value.into_bytes()) {
                assert!(reply.receipt.verify(&cluster.registry));
                phase1_acks += 1;
                last_reply = Some(reply);
            }
        }
    }
    if let Some(r) = cluster.flush() {
        phase1_acks += 1;
        last_reply = Some(r);
    }
    let ingest_time = t0.elapsed();
    println!(
        "ingested {} readings in {} blocks: {:.1} ms wall ({:.0} puts/s), every receipt Schnorr-verified",
        sensors * rounds,
        phase1_acks,
        ingest_time.as_secs_f64() * 1e3,
        (sensors * rounds) as f64 / ingest_time.as_secs_f64()
    );

    // Phase II trails by the one-way hop: wait for the last block's
    // certification.
    if let Some(reply) = last_reply {
        let t1 = Instant::now();
        let proof = reply
            .certified
            .recv_timeout(Duration::from_secs(10))
            .expect("cloud certifies eventually");
        println!(
            "last block Phase II: +{:.1} ms after Phase I (cloud hop 30 ms one way) — digest {}…",
            t1.elapsed().as_secs_f64() * 1e3 + 0.0,
            &proof.digest.to_hex()[..12]
        );
    }

    // Verified reads of the freshest value per sensor.
    let t2 = Instant::now();
    let mut verified = 0;
    for sensor in (0..sensors).step_by(8) {
        let read = cluster.get(sensor).expect("proof verifies");
        let v = read.value.expect("sensor has data");
        let text = String::from_utf8_lossy(&v).to_string();
        assert!(text.contains(&format!("round={}", rounds - 1)), "freshest reading wins: {text}");
        verified += 1;
    }
    println!(
        "{verified} proof-carrying reads verified in {:.1} ms — newest version returned for every sensor",
        t2.elapsed().as_secs_f64() * 1e3
    );

    cluster.shutdown();
    println!("\nSame protocol objects as the simulator — blocks, receipts, ledger,");
    println!("LSMerkle, read proofs — running on real threads and channels.");
}
