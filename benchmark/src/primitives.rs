//! Direct calls into single layers: the constants the spans are made
//! of. Each figure is the median of its iterations; counts are sized
//! so the whole set takes about two seconds of a traced run.

use crate::ops::value_for;
use crate::stats::{median, Metric};
use std::hint::black_box;
use std::time::Instant;
use wedge_core::messages::WireMsg;
use wedge_crypto::{sha256, Identity, IdentityId, KeyRegistry, Keypair, MerkleTree};
use wedge_log::{Block, BlockId, BlockProof, CertLedger, Entry};
use wedge_lsmerkle::{kv_entry, CloudIndex, KvOp, LsMerkle, LsmConfig};

/// Median microseconds of `f` over `iters` runs, each on a fresh
/// untimed `setup()`.
fn median_us<S, T>(iters: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(f(black_box(input)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn us(name: &str, value: f64, iters: usize) -> Metric {
    Metric::new(name, value, "us", iters as u64)
}

/// A `BatchAdd` of 100 signed 100-byte puts, as `ingest_b100` sends.
fn batch_add_b100(client: &Identity) -> WireMsg {
    let entries = (0..100).map(|i| kv_entry(client, i, &KvOp::put(i, value_for(i, i)))).collect();
    WireMsg::BatchAdd { req_id: 7, entries }
}

pub fn run() -> Vec<Metric> {
    const N: usize = 200;
    let mut out = Vec::new();

    // --- wedge-crypto ---
    let kp = Keypair::from_seed(b"benchmark");
    let msg = vec![0x42u8; 256];
    let sig = kp.sign(&msg);
    out.push(us("crypto.sign_us", median_us(N, || (), |()| kp.sign(black_box(&msg))), N));
    out.push(us(
        "crypto.verify_us",
        median_us(N, || (), |()| kp.public().verify(black_box(&msg), black_box(&sig))),
        N,
    ));
    let mb = vec![0xABu8; 1 << 20];
    let sha_us = median_us(20, || (), |()| sha256(black_box(&mb)));
    out.push(Metric::new("crypto.sha256_mb_s", (1u64 << 20) as f64 / sha_us, "MB/s", 20));
    let leaves: Vec<_> = (0..1000).map(|i| sha256(format!("page-{i}").as_bytes())).collect();
    out.push(us(
        "crypto.merkle_build_1k_us",
        median_us(N, || (), |()| MerkleTree::from_leaves(black_box(&leaves))),
        N,
    ));
    let tree = MerkleTree::from_leaves(&leaves);
    let (root, proof) = (tree.root(), tree.prove(500).expect("leaf 500 of 1000"));
    out.push(us(
        "crypto.merkle_verify_1k_us",
        median_us(N, || (), |()| MerkleTree::verify(&root, black_box(&leaves[500]), &proof)),
        N,
    ));

    // --- wedge-log ---
    let client = Identity::derive("client", 1000);
    let mut seq = 0u64;
    out.push(us(
        "log.entry_sign_us",
        median_us(
            N,
            || {
                seq += 1;
                KvOp::put(seq, value_for(seq, seq)).encode()
            },
            |payload| Entry::new_signed(&client, 0, payload),
        ),
        N,
    ));

    // --- wire codec ---
    let batch = batch_add_b100(&client);
    let mut buf = Vec::new();
    out.push(us(
        "wire.encode_batch_add_b100_us",
        median_us(
            N,
            || (),
            |()| {
                buf.clear();
                batch.append_frame_to(&mut buf).expect("fits a frame")
            },
        ),
        N,
    ));
    let frame = batch.encode_frame();
    out.push(us(
        "wire.decode_batch_add_b100_us",
        median_us(N, || (), |()| WireMsg::decode_frame(black_box(&frame)).expect("own frame")),
        N,
    ));

    // --- wedge-lsmerkle: ten certified 100-record L0 pages into an
    // empty L1, on a fresh cloud index each time ---
    let cloud = Identity::derive("cloud", 1);
    let edge = IdentityId(100);
    let lsm = LsmConfig::paper_eval();
    let fresh_index = || {
        let mut index = CloudIndex::new(lsm.clone());
        let init = index.init_edge(&cloud, edge, 0);
        (index, init)
    };
    let (_, init) = fresh_index();
    let mut l0_tree = LsMerkle::new(edge, lsm.clone(), init);
    let mut ledger = CertLedger::new();
    for bid in 0..10u64 {
        let entries = (0..100)
            .map(|i| {
                let key = bid * 100 + i;
                kv_entry(&client, key, &KvOp::put(key, value_for(key, key)))
            })
            .collect();
        let block = Block { edge, id: BlockId(bid), entries, sealed_at_ns: bid };
        let digest = block.digest();
        ledger.offer(edge, block.id, digest);
        l0_tree.apply_block_with_digest(block, digest);
        l0_tree.attach_block_proof(BlockProof::issue(&cloud, edge, BlockId(bid), digest));
    }
    let req = l0_tree.build_merge_request(0);
    const MERGES: usize = 50;
    out.push(us(
        "lsmerkle.process_merge_l0_us",
        median_us(
            MERGES,
            || fresh_index().0,
            |mut index| index.process_merge(&cloud, &ledger, &req, 0).expect("merge applies"),
        ),
        MERGES,
    ));

    // --- wedge-pool: 64 signature checks at the width in effect ---
    let pool = wedge_pool::Pool::new(wedge_pool::threads_from_env());
    let mut registry = KeyRegistry::new();
    registry.register(client.id, client.public()).expect("one id");
    let entries: Vec<Entry> =
        (0..64).map(|i| kv_entry(&client, i, &KvOp::put(i, value_for(i, i)))).collect();
    const MAPS: usize = 15;
    out.push(us(
        "pool.map_64_verify_us",
        median_us(MAPS, || (), |()| pool.map(&entries, |e| e.verify(&registry))),
        MAPS,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_primitive_is_measured() {
        let metrics = super::run();
        assert_eq!(metrics.len(), 10);
        for m in &metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}
