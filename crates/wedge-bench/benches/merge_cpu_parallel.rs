//! CPU scaling of the cloud merge path across worker-pool widths.
//!
//! The scenario is the networked runtime's hot path: a merge request
//! decoded off the wire, so every page arrives memo-free and the cloud
//! pays the full hash-and-verify bill — L0 block re-encoding, page
//! digests over the whole shipped level, dirty-region rebuilds, and a
//! serial forest re-hash. All but the last fan out across a
//! `wedge_pool::Pool`; this bench sweeps pool widths {1, 2, 4, 8} over
//! the identical request and records, per width:
//!
//! - `merge_wall_ns_p<w>`   — median wall-clock per merge.
//! - `merge_cpu_ns_p<w>`    — median *caller-thread* CPU per merge
//!   (`CLOCK_THREAD_CPUTIME_ID`). Lane 0 takes part in every parallel
//!   section, and when it finishes it also runs every lane no worker
//!   has joined yet. So its CPU time is `serial + parallel/w` only
//!   when all `w - 1` workers wake in time; on a host with fewer free
//!   cores than lanes, the caller runs the late lanes itself and the
//!   figure moves towards the width-1 cost. It depends on the
//!   scheduler and swings run to run on a small host.
//! - `roots_match`          — 1 iff the wire-encoded `MergeResult` is
//!   byte-identical across every width (the determinism contract).
//! - `host_parallelism`     — what the host actually offers; CI gates
//!   the wall-clock speedup assertion on it.
//! - `speedup_cpu_p4` / `speedup_wall_p4` — width-4 speedups over
//!   width 1 (unit `ratio`).
//!
//! The source level touches *alternating* target pages so the dirty
//! regions stay disjoint — the shape that exercises parallel region
//! rebuilds rather than collapsing into one coalesced run.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Arc;
use wedge_bench::{banner, bench_with_setup, record, recorded_results, write_json};
use wedge_crypto::{Identity, IdentityId, Signature};
use wedge_log::{Block, BlockId, CertLedger, Decoder, Encoder, Entry};
use wedge_lsmerkle::{CloudIndex, KvOp, L0Page, LsmConfig, MergeRequest};
use wedge_pool::{thread_cpu_ns, Pool};

/// Records per setup L0 block (one merged target page each).
const SETUP_BLOCK_OPS: u64 = 64;
/// Target pages in the merged level (denser = more hash work).
const TARGET_BLOCKS: u64 = 48;
/// Value payload per record — large enough that page digests dominate.
const VALUE_BYTES: usize = 256;
/// Pool widths swept.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// Timed merges per width.
const ITERS: u32 = 10;

fn kv_put_entry(seq: u64, key: u64, value: Vec<u8>) -> Entry {
    // The cloud's merge checks never verify entry signatures (that is
    // the edge's ingest job), so the bench skips real signing.
    Entry {
        client: IdentityId(1000),
        sequence: seq,
        payload: KvOp::put(key, value).encode(),
        signature: Signature { e: 0, s: 0 },
    }
}

const EDGE: IdentityId = IdentityId(100);

fn certified_block(
    ledger: &mut CertLedger,
    next_bid: &mut u64,
    next_seq: &mut u64,
    keys: impl Iterator<Item = u64>,
) -> Arc<L0Page> {
    let entries: Vec<Entry> = keys
        .map(|k| {
            let e = kv_put_entry(*next_seq, k, vec![0xAB; VALUE_BYTES]);
            *next_seq += 1;
            e
        })
        .collect();
    let block = Block { edge: EDGE, id: BlockId(*next_bid), entries, sealed_at_ns: 0 };
    *next_bid += 1;
    let page = Arc::new(L0Page::from_block(block));
    ledger.offer(EDGE, page.block().id, page.digest());
    page
}

/// A fresh index holding the merged target level, the ledger that
/// certifies the follow-up source, and that follow-up request
/// wire-encoded (decoding it per iteration yields memo-free pages,
/// like real socket traffic).
fn build(cloud: &Identity) -> (CloudIndex, CertLedger, Vec<u8>) {
    let mut ledger = CertLedger::new();
    let (mut next_bid, mut next_seq) = (0u64, 0u64);
    let mut index = CloudIndex::new(LsmConfig {
        level_thresholds: vec![2, 1_000_000],
        page_capacity: SETUP_BLOCK_OPS as usize,
    });
    index.init_edge(cloud, EDGE, 0);
    // Keys spaced by 8 so the touch writes land strictly inside
    // existing page ranges.
    let blocks: Vec<Arc<L0Page>> = (0..TARGET_BLOCKS)
        .map(|b| {
            let base = b * SETUP_BLOCK_OPS;
            certified_block(
                &mut ledger,
                &mut next_bid,
                &mut next_seq,
                (base..base + SETUP_BLOCK_OPS).map(|i| i * 8),
            )
        })
        .collect();
    let req1 = MergeRequest {
        edge: EDGE,
        source_level: 0,
        source_l0: blocks,
        source_pages: vec![],
        target_pages: vec![],
        epoch: 0,
    };
    let res1 = index.process_merge(cloud, &ledger, &req1, 10).expect("setup merge");
    // Touch every *other* target page: maximally many disjoint dirty
    // regions, so the region rebuild phase actually fans out.
    let touch_keys = (0..TARGET_BLOCKS).step_by(2).map(|b| b * SETUP_BLOCK_OPS * 8 + 4);
    let touch = certified_block(&mut ledger, &mut next_bid, &mut next_seq, touch_keys);
    let req2 = MergeRequest {
        edge: EDGE,
        source_level: 0,
        source_l0: vec![touch],
        source_pages: vec![],
        target_pages: res1.new_target_pages.clone(),
        epoch: res1.new_epoch,
    };
    let mut enc = Encoder::default();
    req2.encode_into(&mut enc);
    (index, ledger, enc.finish())
}

fn main() {
    banner(
        "merge_cpu_parallel",
        "cloud merge hash-and-verify vs pool width (wire-decoded, memo-free requests)",
    );
    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host parallelism: {host_parallelism}\n");

    let cloud = Identity::derive("cloud", 1);
    let mut reference_reply: Option<Vec<u8>> = None;
    let mut roots_match = true;
    let mut cpu_ns: Vec<(usize, f64)> = Vec::new();

    for &width in &WIDTHS {
        let pool = Pool::new(width);
        let mut cpu_samples: Vec<u64> = Vec::new();
        bench_with_setup(
            &format!("merge_wall_ns_p{width}"),
            ITERS,
            || {
                // Untimed: fresh index (the merge advances its epoch)
                // and a fresh wire decode (memo-free pages).
                let (mut index, ledger, req_bytes) = build(&cloud);
                index.set_pool(pool.clone());
                let mut dec = Decoder::new(&req_bytes);
                let req = MergeRequest::decode_from(&mut dec).expect("request round-trips");
                (index, ledger, req)
            },
            |(mut index, ledger, req)| {
                let cpu0 = thread_cpu_ns();
                index.prime_request_digests(&req);
                let res = index.process_merge(&cloud, &ledger, &req, 20).expect("timed merge");
                cpu_samples.push(thread_cpu_ns() - cpu0);
                let mut enc = Encoder::default();
                res.encode_into(&mut enc);
                let bytes = enc.finish();
                match &reference_reply {
                    Some(want) => roots_match &= bytes == *want,
                    None => reference_reply = Some(bytes),
                }
            },
        );
        cpu_samples.sort();
        let median_cpu = cpu_samples[cpu_samples.len() / 2] as f64;
        record(&format!("merge_cpu_ns_p{width}"), median_cpu, "ns");
        cpu_ns.push((width, median_cpu));
    }

    let wall: Vec<(usize, f64)> = recorded_results()
        .iter()
        .filter_map(|r| {
            let w = r.name.strip_prefix("merge_wall_ns_p")?.parse().ok()?;
            Some((w, r.value))
        })
        .collect();
    let wall_of = |w: usize| wall.iter().find(|(x, _)| *x == w).unwrap().1.max(1.0);
    let cpu_of = |w: usize| cpu_ns.iter().find(|(x, _)| *x == w).unwrap().1.max(1.0);

    record("host_parallelism", host_parallelism as f64, "threads");
    record("roots_match", f64::from(u8::from(roots_match)), "bool");
    record("speedup_cpu_p4", cpu_of(1) / cpu_of(4), "ratio");
    record("speedup_wall_p4", wall_of(1) / wall_of(4), "ratio");

    println!();
    for &w in &WIDTHS {
        println!(
            "width {w}: wall {:>12} ns   lane0-cpu {:>12} ns   cpu-speedup x{:.2}",
            wall_of(w),
            cpu_of(w),
            cpu_of(1) / cpu_of(w)
        );
    }
    println!(
        "\nroots byte-identical across widths: {roots_match}\ncpu speedup @4: x{:.2}   \
         wall speedup @4: x{:.2} (host parallelism {host_parallelism})",
        cpu_of(1) / cpu_of(4),
        wall_of(1) / wall_of(4),
    );

    write_json("merge_cpu_parallel");
}
