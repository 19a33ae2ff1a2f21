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
use wedge_bench::{banner, record, write_json, LedgerFixture};
use wedge_core::messages::WireMsg;
use wedge_log::MAX_FRAME_PAYLOAD;
use wedge_lsmerkle::{DeltaMergeResult, L0Page, MergeRequest};

/// Records per L0 block in the setup phase.
const SETUP_BLOCK_OPS: u64 = 64;
/// Value payload per record.
const VALUE_BYTES: usize = 64;
/// Keys the small follow-up merge writes (all landing in one page).
const TOUCH_OPS: u64 = 4;

/// One sweep point: build a target level of `target_records`, then
/// merge a `TOUCH_OPS`-record source into it and measure both reply
/// encodings.
fn sweep_point(target_records: u64) -> (u64, u64, u64, u64) {
    let mut s = LedgerFixture::new(64, VALUE_BYTES);
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
