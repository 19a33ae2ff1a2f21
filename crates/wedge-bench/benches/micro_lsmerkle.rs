//! Microbenches of the LSMerkle index and logging layer.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::hint::black_box;
use wedge_bench::{bench_fn, bench_with_setup};
use wedge_crypto::{Identity, IdentityId};
use wedge_log::{Block, BlockBuffer, BlockId, BlockProof, CertLedger, Entry};
use wedge_lsmerkle::{
    build_read_proof, certify_block, kv_entry, CloudIndex, KvOp, LsMerkle, LsmConfig, MergeRequest,
};

fn kv_block(client: &Identity, edge: IdentityId, bid: u64, base_key: u64, n: u64) -> Block {
    let entries: Vec<Entry> = (0..n)
        .map(|i| kv_entry(client, bid * 10_000 + i, &KvOp::put(base_key + i, vec![0xAB; 100])))
        .collect();
    Block { edge, id: BlockId(bid), entries, sealed_at_ns: bid }
}

/// A fully settled tree with `n` keys plus its cloud state.
fn settled_tree(n: u64) -> (LsMerkle, CloudIndex, CertLedger, Identity) {
    let cloud = Identity::derive("cloud", 1);
    let edge = IdentityId(100);
    let client = Identity::derive("client", 1000);
    let mut index = CloudIndex::new(LsmConfig::paper_eval());
    let init = index.init_edge(&cloud, edge, 0);
    let mut tree = LsMerkle::new(edge, LsmConfig::paper_eval(), init);
    let mut ledger = CertLedger::new();
    let mut key = 0u64;
    let mut bid = 0u64;
    while key < n {
        let take = 100.min(n - key);
        let block = kv_block(&client, edge, bid, key, take);
        key += take;
        bid += 1;
        certify_block(&cloud, &mut ledger, &mut tree, block);
        index.merge_until_settled(&cloud, &ledger, &mut tree, 0);
    }
    (tree, index, ledger, cloud)
}

fn bench_log() {
    println!("\n-- log --");
    let client = Identity::derive("client", 1000);
    let entries: Vec<Entry> =
        (0..100).map(|i| kv_entry(&client, i, &KvOp::put(i, vec![0xAB; 100]))).collect();
    bench_fn("log_buffer_push_and_seal_100", 25, || {
        let mut buf = BlockBuffer::new(IdentityId(100));
        for (i, e) in entries.iter().enumerate() {
            let mut e = e.clone();
            e.sequence = i as u64; // fresh sequences per iteration
            buf.push(e);
        }
        black_box(buf.seal(0))
    });
    let block = kv_block(&client, IdentityId(100), 0, 0, 100);
    bench_fn("block_digest_100x100b", 25, || black_box(block.digest()));
}

fn bench_tree_ops() {
    println!("\n-- lsmerkle --");
    for n in [1_000u64, 10_000] {
        let (tree, ..) = settled_tree(n);
        let mut k = 0u64;
        bench_fn(&format!("lsmerkle/get_proof/{n}"), 25, || {
            k = (k + 13) % n;
            black_box(build_read_proof(&tree, black_box(k)))
        });
        let mut k = 0u64;
        bench_fn(&format!("lsmerkle/find_newest/{n}"), 25, || {
            k = (k + 13) % n;
            black_box(tree.find_newest(black_box(k)))
        });
    }
}

fn bench_ingest_merge_cycle() {
    println!("\n-- ingest+merge cycle --");
    // Full index lifecycle: ingest pre-sealed blocks of 100 records,
    // attach each certification, and drain every cascading merge until
    // the tree holds `n` keys. This is the hot loop every write-heavy
    // workload drives. Client entry signing and the cloud's block
    // certifications are prepared once, outside the timed region —
    // neither depends on index state (workload generation and a replay
    // of the cloud's acks); merge-time root signing stays timed, it is
    // part of the cycle.
    let cloud = Identity::derive("cloud", 1);
    let edge = IdentityId(100);
    let client = Identity::derive("client", 1000);
    for n in [10_000u64, 50_000] {
        let blocks: Vec<Block> = (0..n.div_ceil(100))
            .map(|bid| kv_block(&client, edge, bid, bid * 100, 100.min(n - bid * 100)))
            .collect();
        let mut ledger = CertLedger::new();
        let proofs: Vec<BlockProof> = blocks
            .iter()
            .map(|b| {
                let digest = b.digest();
                ledger.offer(edge, b.id, digest);
                BlockProof::issue(&cloud, edge, b.id, digest)
            })
            .collect();
        bench_with_setup(
            &format!("lsmerkle/ingest_merge_cycle/{n}"),
            10,
            || blocks.clone(),
            |blocks| {
                let mut index = CloudIndex::new(LsmConfig::paper_eval());
                let init = index.init_edge(&cloud, edge, 0);
                let mut tree = LsMerkle::new(edge, LsmConfig::paper_eval(), init);
                for (block, proof) in blocks.into_iter().zip(proofs.iter()) {
                    let digest = block.digest();
                    tree.apply_block_with_digest(block, digest);
                    tree.attach_block_proof(proof.clone());
                    index.merge_until_settled(&cloud, &ledger, &mut tree, 0);
                }
                std::hint::black_box(tree.record_count())
            },
        );
    }
}

fn bench_merge() {
    println!("\n-- merge --");
    // One L0→L1 merge of 11 certified blocks of 100 records.
    let cloud = Identity::derive("cloud", 1);
    let edge = IdentityId(100);
    let client = Identity::derive("client", 1000);
    bench_with_setup(
        "cloud_merge_l0_1100_records",
        25,
        || {
            let mut index = CloudIndex::new(LsmConfig::paper_eval());
            let init = index.init_edge(&cloud, edge, 0);
            let mut tree = LsMerkle::new(edge, LsmConfig::paper_eval(), init);
            let mut ledger = CertLedger::new();
            for bid in 0..11u64 {
                let block = kv_block(&client, edge, bid, bid * 100, 100);
                certify_block(&cloud, &mut ledger, &mut tree, block);
            }
            let req: MergeRequest = tree.build_merge_request(0);
            (index, ledger, req)
        },
        |(mut index, ledger, req)| {
            black_box(index.process_merge(&cloud, &ledger, &req, 0).unwrap())
        },
    );
}

fn main() {
    bench_log();
    bench_tree_ops();
    bench_ingest_merge_cycle();
    bench_merge();
    wedge_bench::write_json("micro_lsmerkle");
}
