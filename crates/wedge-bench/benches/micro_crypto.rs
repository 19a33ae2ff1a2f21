//! Microbenches of the cryptographic substrate.
//!
//! These quantify the constants behind the cost model: SHA-256
//! throughput (data-free certification hashes each block once), the
//! field multiply and exponentiation under Schnorr, Schnorr
//! sign/verify over 64 distinct messages (every receipt and proof;
//! verify both plain and from a registered key's table, and that
//! table's build), and Merkle build/prove/verify (every LSMerkle level
//! and read proof).

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::hint::black_box;
use std::time::Instant;
use wedge_bench::{bench_fn, bench_with_setup, record, recorded_results};
use wedge_crypto::modmath::{modpow, mulmod};
use wedge_crypto::schnorr::{G, P, Q};
use wedge_crypto::{sha256, IdentityId, KeyRegistry, Keypair, MerkleTree, Sha256};

fn bench_sha256() {
    println!("\n-- sha256 --");
    for size in [64usize, 1024, 16 * 1024, 256 * 1024] {
        let data = vec![0xABu8; size];
        // Throughput line: time a fixed batch, report MB/s.
        let reps = (4 * 1024 * 1024 / size).max(8);
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(sha256(black_box(&data)));
        }
        let dt = t0.elapsed();
        let mbs = (reps * size) as f64 / dt.as_secs_f64() / 1e6;
        println!("sha256/{size:<40} {mbs:>10.1} MB/s");
        record(&format!("sha256/{size}_mb_s"), mbs, "MB/s");
    }

    bench_fn("sha256_incremental_1mb_in_4k_chunks", 40, || {
        let chunk = vec![0u8; 4096];
        let mut h = Sha256::new();
        for _ in 0..256 {
            h.update(black_box(&chunk));
        }
        black_box(h.finalize())
    });
}

/// One call is well under a microsecond: time a dependent chain of
/// `CHAIN` and record the per-call figure.
fn bench_modmath() {
    println!("\n-- modmath --");
    const CHAIN: u32 = 1000;
    let (a, b) = (P - 0x1234_5678_9abc_def0, Q + 0x0fed_cba9_8765_4321);
    bench_fn("mulmod_p/chain_1000", 40, || {
        (0..CHAIN).fold(black_box(a), |acc, _| mulmod(acc, black_box(b), P))
    });
    let chain = recorded_results().pop().expect("just recorded");
    let per_call = chain.value / f64::from(CHAIN);
    println!("{:<48} {per_call:>8.1} ns/call", "mulmod_p");
    record("mulmod_p", per_call, "ns");
    // Alternating exponent bits: the multiply count of a typical scalar.
    bench_fn("modpow_p", 40, || modpow(black_box(G), black_box(Q / 3), P));
}

/// Distinct messages the signature benches cycle through: each has its
/// own nonce, so the timings average over the table entries many
/// exponents pick instead of resting on one exponent's digits.
const MESSAGES: usize = 64;

fn bench_schnorr() {
    println!("\n-- schnorr --");
    let kp = Keypair::from_seed(b"bench");
    let msgs: Vec<Vec<u8>> = (0..MESSAGES as u8).map(|i| vec![i; 256]).collect();
    let sigs: Vec<_> = msgs.iter().map(|m| kp.sign(m)).collect();
    let mut turn = 0;
    let mut next = || {
        turn = (turn + 1) % MESSAGES;
        (&msgs[turn], &sigs[turn])
    };
    let iters = 2 * MESSAGES as u32;
    bench_fn("schnorr_sign_256b", iters, || black_box(kp.sign(black_box(next().0))));
    bench_fn("schnorr_verify_256b", iters, || {
        let (msg, sig) = next();
        black_box(kp.public().verify(black_box(msg), black_box(sig)))
    });

    // The protocol's checks go through the registry, which raises the
    // key from its table. Warm: the table is already built.
    let id = IdentityId(0);
    let registered = || {
        let mut registry = KeyRegistry::new();
        registry.register(id, kp.public()).expect("one id");
        registry
    };
    let registry = registered();
    bench_fn("schnorr_verify_registered_256b", iters, || {
        let (msg, sig) = next();
        black_box(registry.verify(id, black_box(msg), black_box(sig)))
    });
    // The table is private to the registry: time the first check of a
    // fresh registry and take a warm one off it.
    bench_with_setup("registry_first_verify_256b", iters, registered, |registry| {
        let (msg, sig) = next();
        black_box(registry.verify(id, black_box(msg), black_box(sig)))
    });
    let results = recorded_results();
    let median = |name: &str| results.iter().find(|r| r.name == name).expect("just recorded").value;
    let build =
        (median("registry_first_verify_256b") - median("schnorr_verify_registered_256b")).max(0.0);
    println!("{:<48} {build:>8} ns", "registry_table_build");
    record("registry_table_build", build, "ns");
}

fn bench_merkle() {
    println!("\n-- merkle --");
    for n in [10usize, 100, 1000] {
        let leaves: Vec<_> = (0..n).map(|i| sha256(format!("page-{i}").as_bytes())).collect();
        bench_fn(&format!("merkle/build/{n}"), 40, || {
            black_box(MerkleTree::from_leaves(black_box(&leaves)))
        });
        let tree = MerkleTree::from_leaves(&leaves);
        bench_fn(&format!("merkle/prove/{n}"), 40, || {
            black_box(tree.prove(black_box(n / 2)).unwrap())
        });
        let proof = tree.prove(n / 2).unwrap();
        let root = tree.root();
        let leaf = leaves[n / 2];
        bench_fn(&format!("merkle/verify/{n}"), 40, || {
            assert!(MerkleTree::verify(black_box(&root), black_box(&leaf), black_box(&proof)))
        });
    }
}

fn main() {
    bench_sha256();
    bench_modmath();
    bench_schnorr();
    bench_merkle();
    wedge_bench::write_json("micro_crypto");
}
