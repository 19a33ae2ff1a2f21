//! Merge-reply wire size: full encoding vs the delta encoding that
//! actually ships (`MergeResDelta`, envelope tag 18).
//!
//! The scenario is the paper's worst case for §V-B merges: a big
//! target level touched by a small source (a handful of new keys
//! landing in one page's range). The *full* reply re-ships the entire
//! rebuilt target level, so its size scales with the target; the
//! delta reply ships only the rebuilt pages plus 5-byte references to
//! every page the edge already holds, so its size scales with the
//! *changed* pages. Past ~16 MiB the full reply would not fit in a
//! frame at all — delta encoding is a correctness fix first and a
//! bandwidth optimisation second.
//!
//! Reported numbers are exact encoded sizes in `B` and page counts in
//! `pages` (deterministic), recorded through the same JSON pipeline CI
//! tracks latency with:
//! a regression shows up as `delta_reply_bytes` growing with target
//! size instead of staying flat.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Arc;
use wedge_bench::{banner, record, write_json};
use wedge_core::messages::WireMsg;
use wedge_crypto::{Identity, IdentityId, Signature};
use wedge_log::{Block, BlockId, CertLedger, Entry, MAX_FRAME_PAYLOAD};
use wedge_lsmerkle::{CloudIndex, DeltaMergeResult, KvOp, L0Page, LsmConfig, MergeRequest};

/// Records per L0 block in the setup phase.
const SETUP_BLOCK_OPS: u64 = 64;
/// Value payload per record.
const VALUE_BYTES: usize = 64;
/// Keys the small follow-up merge writes (all landing in one page).
const TOUCH_OPS: u64 = 4;

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

struct Setup {
    cloud: Identity,
    ledger: CertLedger,
    index: CloudIndex,
    edge: IdentityId,
    next_bid: u64,
    next_seq: u64,
}

impl Setup {
    fn new(page_capacity: usize) -> Self {
        let cloud = Identity::derive("cloud", 1);
        let edge = IdentityId(100);
        let mut index =
            CloudIndex::new(LsmConfig { level_thresholds: vec![2, 1_000_000], page_capacity });
        index.init_edge(&cloud, edge, 0);
        Setup { cloud, ledger: CertLedger::new(), index, edge, next_bid: 0, next_seq: 0 }
    }

    fn certified_block(&mut self, keys: impl Iterator<Item = u64>) -> Arc<L0Page> {
        let entries: Vec<Entry> = keys
            .map(|k| {
                let e = kv_put_entry(self.next_seq, k, vec![0xAB; VALUE_BYTES]);
                self.next_seq += 1;
                e
            })
            .collect();
        let block = Block { edge: self.edge, id: BlockId(self.next_bid), entries, sealed_at_ns: 0 };
        self.next_bid += 1;
        let page = Arc::new(L0Page::from_block(block));
        self.ledger.offer(self.edge, page.block().id, page.digest());
        page
    }
}

/// One sweep point: build a target level of `target_records`, then
/// merge a `TOUCH_OPS`-record source into it and measure both reply
/// encodings.
fn sweep_point(target_records: u64) -> (u64, u64, u64, u64) {
    let mut s = Setup::new(64);
    // Keys spaced by 8 so the follow-up touch lands between them.
    let blocks: Vec<Arc<L0Page>> = (0..target_records / SETUP_BLOCK_OPS)
        .map(|b| {
            let base = b * SETUP_BLOCK_OPS;
            s.certified_block((base..base + SETUP_BLOCK_OPS).map(|i| i * 8))
        })
        .collect();
    let req1 = MergeRequest {
        edge: s.edge,
        source_level: 0,
        source_l0: blocks,
        source_pages: vec![],
        target_pages: vec![],
        epoch: 0,
    };
    let res1 = s.index.process_merge(&s.cloud, &s.ledger, &req1, 0).expect("setup merge");

    // The measured merge: TOUCH_OPS new keys inside one page's range,
    // in the middle of the level.
    let mid = target_records / 2 * 8;
    let touch = s.certified_block((0..TOUCH_OPS).map(|i| mid + 1 + i));
    let req2 = MergeRequest {
        edge: s.edge,
        source_level: 0,
        source_l0: vec![touch],
        source_pages: vec![],
        target_pages: res1.new_target_pages.clone(),
        epoch: res1.new_epoch,
    };
    let res2 = s.index.process_merge(&s.cloud, &s.ledger, &req2, 0).expect("measured merge");

    let full_bytes = WireMsg::MergeRes(Box::new(res2.clone())).encode_payload().len() as u64;
    let delta = DeltaMergeResult::delta_against(&res2, &req2);
    let (reused, full_pages) = (delta.reused_pages(), delta.full_pages());
    let delta_bytes = WireMsg::MergeResDelta(Box::new(delta)).encode_frame().len() as u64;
    (full_bytes, delta_bytes, reused, full_pages)
}

fn main() {
    banner(
        "merge_reply_bytes",
        "cloud→edge merge reply: full re-ship vs delta (changed pages + references)",
    );
    println!(
        "{:<16} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "target_records", "full_bytes", "delta_bytes", "reused", "shipped", "ratio"
    );
    for target_records in [2_048u64, 8_192, 32_768] {
        let (full, delta, reused, shipped) = sweep_point(target_records);
        println!(
            "{:<16} {:>14} {:>14} {:>8} {:>8} {:>7.1}x{}",
            target_records,
            full,
            delta,
            reused,
            shipped,
            full as f64 / delta as f64,
            if full > MAX_FRAME_PAYLOAD as u64 {
                "  (full reply would exceed the frame cap)"
            } else {
                ""
            },
        );
        let label = |metric: &str| format!("merge_reply_bytes/target_{target_records}/{metric}");
        record(&label("full_reply_bytes"), full as f64, "B");
        record(&label("delta_reply_bytes"), delta as f64, "B");
        record(&label("pages_reused"), reused as f64, "pages");
        record(&label("pages_shipped"), shipped as f64, "pages");
    }
    println!(
        "\ndelta_reply_bytes must stay ~flat across target sizes (it scales with the {TOUCH_OPS} \
         changed records, plus one 5-byte reference per untouched page); full_reply_bytes grows \
         linearly and is the size that used to wedge partitions past the 16 MiB frame cap."
    );
    write_json("merge_reply_bytes");
}
