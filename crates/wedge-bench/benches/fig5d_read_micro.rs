//! Figure 5(d): best-case read latency and verification overhead.
//!
//! The paper measures reads directly at the serving node (no WAN):
//! WedgeChain/Edge-baseline ≈ 0.71 ms of which ~0.19 ms is client-side
//! verification; Cloud-only ≈ 0.50 ms with no verification. This is a
//! *real-time* microbenchmark over the actual data structures — proof
//! construction, proof verification, and a plain trusted lookup — so
//! the numbers here are hardware-dependent; the shape to check is
//! `verify > 0` and `trusted read < proof-carrying read`.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::BTreeMap;
use std::hint::black_box;
use wedge_bench::bench_fn;
use wedge_crypto::{Identity, IdentityId, KeyRegistry};
use wedge_log::{Block, BlockId, CertLedger};
use wedge_lsmerkle::{
    build_read_proof, certify_block, kv_entry, verify_read_proof, CloudIndex, KvOp, LsMerkle,
    LsmConfig,
};

struct Fixture {
    tree: LsMerkle,
    registry: KeyRegistry,
    edge: IdentityId,
    cloud: IdentityId,
    trusted: BTreeMap<u64, Vec<u8>>,
}

/// Builds an edge tree holding `n` keys (batches of 100), fully
/// certified and compacted, plus a trusted map of the same content.
fn fixture(n: u64) -> Fixture {
    let cloud_ident = Identity::derive("cloud", 1);
    let edge_ident = Identity::derive("edge", 100);
    let client = Identity::derive("client", 1000);
    let mut registry = KeyRegistry::new();
    registry.register(cloud_ident.id, cloud_ident.public()).unwrap();
    registry.register(edge_ident.id, edge_ident.public()).unwrap();
    registry.register(client.id, client.public()).unwrap();
    let mut index = CloudIndex::new(LsmConfig::paper_eval());
    let init = index.init_edge(&cloud_ident, edge_ident.id, 0);
    let mut tree = LsMerkle::new(edge_ident.id, LsmConfig::paper_eval(), init);
    let mut ledger = CertLedger::new();
    let mut trusted = BTreeMap::new();

    let mut key = 0u64;
    let mut bid = 0u64;
    while key < n {
        let entries: Vec<_> = (0..100.min(n - key))
            .map(|_| {
                let e = kv_entry(&client, key, &KvOp::put(key, vec![0xAB; 100]));
                trusted.insert(key, vec![0xAB; 100]);
                key += 1;
                e
            })
            .collect();
        let block = Block { edge: edge_ident.id, id: BlockId(bid), entries, sealed_at_ns: bid };
        bid += 1;
        certify_block(&cloud_ident, &mut ledger, &mut tree, block);
        index.merge_until_settled(&cloud_ident, &ledger, &mut tree, 0);
    }
    Fixture { tree, registry, edge: edge_ident.id, cloud: cloud_ident.id, trusted }
}

fn main() {
    let fx = fixture(10_000);
    println!("\n-- fig5d_best_case_read --");

    // WedgeChain / Edge-baseline edge-side: build the proof.
    let mut k = 0u64;
    bench_fn("edge_build_read_proof", 30, || {
        k = (k + 7) % 10_000;
        black_box(build_read_proof(&fx.tree, black_box(k)))
    });

    // Client-side: verify the proof (the paper's 0.19 ms overhead).
    let proof = build_read_proof(&fx.tree, 5_000);
    bench_fn("client_verify_read_proof", 30, || {
        black_box(
            verify_read_proof(black_box(&proof), fx.edge, fx.cloud, &fx.registry, u64::MAX, None)
                .unwrap(),
        )
    });

    // End-to-end proof-carrying read (paper: ~0.71 ms total).
    let mut k = 0u64;
    bench_fn("wedgechain_read_total", 30, || {
        k = (k + 7) % 10_000;
        let p = build_read_proof(&fx.tree, black_box(k));
        black_box(verify_read_proof(&p, fx.edge, fx.cloud, &fx.registry, u64::MAX, None).unwrap())
    });

    // Cloud-only: trusted read, no verification (paper: ~0.50 ms
    // including their server stack; here it is a bare map probe, so
    // expect it far below the proof-carrying read).
    let mut k = 0u64;
    bench_fn("cloud_only_trusted_read", 30, || {
        k = (k + 7) % 10_000;
        black_box(fx.trusted.get(&black_box(k)))
    });

    wedge_bench::write_json("fig5d_read_micro");
}
