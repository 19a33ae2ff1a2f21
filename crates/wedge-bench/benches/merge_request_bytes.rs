//! Merge-request wire size: full encoding vs the delta encoding that
//! actually ships (`MergeReqDelta`, envelope tag 19).
//!
//! The mirror image of `merge_reply_bytes`: once a merge has run, the
//! cloud retains the target run it shipped back, so the *next* merge
//! request only needs to carry the new L0 blocks plus 5-byte
//! `(level, index)` references into the cloud's retained set. The full
//! request re-uploads the entire target level edge→cloud — the
//! expensive WAN direction in the paper's §V-B deployment — and past
//! ~16 MiB it stops fitting in a frame at all.
//!
//! Reported numbers are exact encoded sizes in `B` and page counts in
//! `pages` (deterministic), recorded through the same JSON pipeline CI
//! tracks latency with:
//! a regression shows up as `delta_request_bytes` growing with target
//! size instead of staying flat.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::HashMap;
use std::sync::Arc;
use wedge_bench::{banner, record, write_json, LedgerFixture};
use wedge_core::messages::WireMsg;
use wedge_log::MAX_FRAME_PAYLOAD;
use wedge_lsmerkle::{DeltaMergeRequest, L0Page, MergeRequest, RetainedLevel};

/// Records per L0 block in the setup phase.
const SETUP_BLOCK_OPS: u64 = 64;
/// Value payload per record.
const VALUE_BYTES: usize = 64;
/// Keys the small follow-up merge writes (all landing in one page).
const TOUCH_OPS: u64 = 4;

/// One sweep point: build a target level of `target_records` with a
/// first merge, then encode the follow-up `TOUCH_OPS`-record merge
/// request both ways against what the cloud retained from the first.
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

    // The measured request: TOUCH_OPS new keys plus the whole retained
    // target level, exactly what the edge sends for the next merge.
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

    // What the edge learned from reply 1 — the same run the cloud
    // captured in its retention cache when it processed merge 1.
    let retained = HashMap::from([(1u32, RetainedLevel::over(s.edge, 1, &res1.new_target_pages))]);

    let full_bytes = WireMsg::MergeReq(Box::new(req2.clone())).encode_payload().len() as u64;
    let delta = DeltaMergeRequest::delta_against(&req2, &retained);
    let (reused, full_pages) = (delta.reused_pages(), delta.full_pages());
    let resolved = s.index.resolve_delta_request(&delta).expect("cloud resolves its own run");
    assert_eq!(resolved.fingerprint(), req2.fingerprint(), "delta must resolve losslessly");
    let delta_bytes = WireMsg::MergeReqDelta(Box::new(delta)).encode_frame().len() as u64;
    (full_bytes, delta_bytes, reused, full_pages)
}

fn main() {
    banner(
        "merge_request_bytes",
        "edge→cloud merge request: full re-upload vs delta (new blocks + references)",
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
                "  (full request would exceed the frame cap)"
            } else {
                ""
            },
        );
        let label = |metric: &str| format!("merge_request_bytes/target_{target_records}/{metric}");
        record(&label("full_request_bytes"), full as f64, "B");
        record(&label("delta_request_bytes"), delta as f64, "B");
        record(&label("pages_reused"), reused as f64, "pages");
        record(&label("pages_shipped"), shipped as f64, "pages");
    }
    println!(
        "\ndelta_request_bytes must stay ~flat across target sizes (it scales with the \
         {TOUCH_OPS} changed records, plus one 5-byte reference per retained page); \
         full_request_bytes grows linearly and is the upload that used to wedge partitions \
         past the 16 MiB frame cap."
    );
    write_json("merge_request_bytes");
}
