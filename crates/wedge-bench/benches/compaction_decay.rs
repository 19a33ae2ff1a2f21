//! Long-lived store decay: does sustained small-merge traffic keep
//! the LSMerkle O(delta), or does it degrade to O(level)?
//!
//! Two failure modes threaten a store that lives for months:
//!
//! 1. **Hash work creep** — if every merge rebuilds the target
//!    level's whole Merkle tree, a 4-record write into a 16k-record
//!    level pays ~16k interior hashes. The incremental forest must
//!    keep that cost proportional to the *pages changed*.
//! 2. **Fragmentation creep** — every insert or delete that changes
//!    a dirty region's record count leaves a partial boundary page
//!    behind. Organic merges only heal fragmentation the workload
//!    happens to revisit; debris in a range the hot set has moved
//!    away from sits there forever unless the background compactor
//!    folds it back toward `records / capacity` pages.
//!
//! Part 1 sweeps target-level size with a fixed 4-record touch merge
//! and reports interior hashes per merge — flat across sizes is the
//! O(delta) signature (the old rebuild-everything tree grew linearly).
//! Part 2 runs ≥20 sustained cycles over twin fixtures — compaction
//! on vs off — where delete-heavy churn decays the store and then the
//! hot range moves elsewhere; the per-cycle partial-page count must
//! stay bounded (and below the off twin's frozen debris) on the
//! compacting store.
//!
//! All reported numbers are exact counts (unit `hashes`, `pages` or
//! `runs`), recorded through the same JSON pipeline CI tracks latency
//! with, so a
//! regression shows up as `interior_hashes` scaling with level size
//! or `partial_pages_on` drifting upward across cycles.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Arc;
use wedge_bench::{banner, record, write_json, LedgerFixture};
use wedge_crypto::merkle::hash_stats;
use wedge_crypto::{Identity, IdentityId, Signature};
use wedge_log::{Block, BlockId, CertLedger, Entry};
use wedge_lsmerkle::{certify_block, CloudIndex, KvOp, L0Page, LsMerkle, LsmConfig, MergeRequest};

/// Records per setup block in the part-1 level build.
const SETUP_BLOCK_OPS: u64 = 64;
/// Keys the measured small merge writes (all landing in one page).
const TOUCH_OPS: u64 = 4;
/// Sustained ingest cycles in part 2 (the issue demands ≥ 20).
const CYCLES: u64 = 24;

// ---------------------------------------------------------------
// Part 1: interior hashes per small merge vs target-level size
// ---------------------------------------------------------------

/// Builds a target level of `target_records`, then merges a
/// `TOUCH_OPS`-record source into one page's range and returns
/// (interior hashes spent on the small merge, target page count).
fn touch_merge_hashes(target_records: u64) -> (u64, u64) {
    let mut s = LedgerFixture::new(64, 16);
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
    let pages = res1.new_target_pages.len() as u64;

    // Overwrite TOUCH_OPS *existing* keys in one page's range: the
    // dirty region re-splits into the same page count, so the forest
    // patches leaves in place and pays O(k log n). (An *insert* would
    // shift every leaf after the splice point — position-indexed
    // Merkle trees can't reuse shifted suffixes — which is why the
    // compactor folds rather than leaving short pages behind.)
    let mid = target_records / 2 * 8;
    let touch = s.certified_block((0..TOUCH_OPS).map(|i| mid + i * 8));
    let req2 = MergeRequest {
        edge: s.edge,
        source_level: 0,
        source_l0: vec![touch],
        source_pages: vec![],
        target_pages: res1.new_target_pages.clone(),
        epoch: res1.new_epoch,
    };
    let before = hash_stats::interior_hashes();
    s.index.process_merge(&s.cloud, &s.ledger, &req2, 0).expect("measured merge");
    (hash_stats::interior_hashes() - before, pages)
}

// ---------------------------------------------------------------
// Part 2: partial-page decay under sustained cycles, on vs off
// ---------------------------------------------------------------

/// A full edge+cloud fixture ingesting scripted blocks, optionally
/// running the background compactor after each cycle.
struct Twin {
    cloud: Identity,
    ledger: CertLedger,
    index: CloudIndex,
    tree: LsMerkle,
    edge: IdentityId,
    next_bid: u64,
    next_seq: u64,
}

impl Twin {
    fn new(cfg: LsmConfig) -> Self {
        let cloud = Identity::derive("cloud", 1);
        let edge = IdentityId(100);
        let mut index = CloudIndex::new(cfg.clone());
        let init = index.init_edge(&cloud, edge, 0);
        let tree = LsMerkle::new(edge, cfg, init);
        Twin { cloud, ledger: CertLedger::new(), index, tree, edge, next_bid: 0, next_seq: 0 }
    }

    fn ingest(&mut self, ops: &[(u64, bool)]) {
        let entries: Vec<Entry> = ops
            .iter()
            .map(|&(k, delete)| {
                let op = if delete { KvOp::delete(k) } else { KvOp::put(k, vec![0xCD; 16]) };
                let e = Entry {
                    client: IdentityId(1000),
                    sequence: self.next_seq,
                    payload: op.encode(),
                    signature: Signature { e: 0, s: 0 },
                };
                self.next_seq += 1;
                e
            })
            .collect();
        let block = Block {
            edge: self.edge,
            id: BlockId(self.next_bid),
            entries,
            sealed_at_ns: self.next_bid,
        };
        self.next_bid += 1;
        certify_block(&self.cloud, &mut self.ledger, &mut self.tree, block);
        self.index.merge_until_settled(&self.cloud, &self.ledger, &mut self.tree, 0);
    }

    /// Runs the background compactor to quiescence, exactly as the
    /// edge engine's sweep does: empty-source requests until no level
    /// has a foldable run left.
    fn compact(&mut self) {
        while let Some(req) = self.tree.build_compaction_request() {
            let res = self.index.process_merge(&self.cloud, &self.ledger, &req, 0).unwrap();
            self.tree.apply_merge_result(&req, res).unwrap();
        }
    }

    /// Pages holding fewer than `page_capacity` records, across all
    /// Merkle levels.
    fn partial_pages(&self) -> u64 {
        let cap = self.tree.config().page_capacity;
        self.tree
            .levels()
            .iter()
            .flat_map(|l| l.pages())
            .filter(|p| p.records().len() < cap)
            .count() as u64
    }

    fn total_pages(&self) -> u64 {
        self.tree.levels().iter().map(|l| l.page_count() as u64).sum()
    }

    fn record_count(&self) -> u64 {
        self.tree.record_count() as u64
    }
}

/// Cycles before the workload's hot range moves away from the
/// decayed low range.
const CHURN_CYCLES: u64 = 8;
/// Wide-fill keys (`k*8` for `k in 0..FILL`).
const FILL: u64 = 512;

/// Per-fixture workload state: which wide keys have been deleted and
/// how many in-gap inserts each gap has seen.
#[derive(Default)]
struct BandState {
    deleted: Vec<bool>,
    slots: Vec<u64>,
}

impl BandState {
    fn new() -> Self {
        BandState { deleted: vec![false; FILL as usize], slots: vec![0; FILL as usize] }
    }
}

/// The ops one cycle performs, in three 5-op bands.
///
/// The first [`CHURN_CYCLES`] cycles *decay* the wide fill: striding
/// deletes empty out most of the original keys (shrinking pages all
/// over the level), with fresh in-gap inserts mixed in where a key is
/// already gone (shifting region record counts). Both op shapes leave
/// short pages behind. After that the hot range moves on: bands
/// upsert keys in the middle `1024..3072` range only, so the decayed
/// outer ranges are never organically re-split again — cold debris that
/// only the background compactor can fold. A long-lived store sees
/// exactly this shape: yesterday's hot range is today's half-empty
/// pages.
fn cycle_bands(cycle: u64, st: &mut BandState) -> Vec<Vec<(u64, bool)>> {
    (0..3u64)
        .map(|band| {
            if cycle < CHURN_CYCLES {
                let base = (cycle * 3 + band) * 97 % FILL;
                (0..16u64)
                    .map(|i| {
                        let k = ((base + i * 13) % FILL) as usize;
                        if !st.deleted[k] {
                            st.deleted[k] = true;
                            (k as u64 * 8, true)
                        } else {
                            let slot = st.slots[k] % 7;
                            st.slots[k] += 1;
                            (k as u64 * 8 + 1 + slot, false)
                        }
                    })
                    .collect()
            } else {
                let s = (cycle * 3 + band) * 7 % 127;
                (0..16u64).map(|i| ((128 + (s * 2 + i) % 256) * 8, false)).collect()
            }
        })
        .collect()
}

fn main() {
    banner(
        "compaction_decay",
        "sustained ingest+merge: interior hashes stay O(pages changed), partials stay bounded",
    );

    // Part 1: hash cost of a 4-record merge as the level grows 16x.
    println!(
        "{:<16} {:>12} {:>18} {:>22}",
        "target_records", "level_pages", "interior_hashes", "hashes_if_rebuilt(~)"
    );
    for target_records in [1_024u64, 4_096, 16_384] {
        let (hashes, pages) = touch_merge_hashes(target_records);
        // A full rebuild hashes every interior node: ~pages-1 of them.
        println!("{target_records:<16} {pages:>12} {hashes:>18} {:>22}", pages.saturating_sub(1));
        let label = |m: &str| format!("compaction_decay/target_{target_records}/{m}");
        record(&label("interior_hashes_small_merge"), hashes as f64, "hashes");
        record(&label("level_pages"), pages as f64, "pages");
    }

    // Part 2: twin fixtures, identical workload, compactor on vs off.
    let cfg = LsmConfig { level_thresholds: vec![2, 2, 1_000_000], page_capacity: 16 };
    let mut on = Twin::new(cfg.clone());
    let mut off = Twin::new(cfg);
    // Wide fill: keys 8 apart so the bands insert *between* existing
    // keys — the only workload shape that fragments (pure overwrites
    // re-split into the same full pages).
    for chunk in (0..FILL).collect::<Vec<_>>().chunks(16) {
        let ops: Vec<(u64, bool)> = chunk.iter().map(|k| (k * 8, false)).collect();
        on.ingest(&ops);
        off.ingest(&ops);
    }
    on.compact();

    println!(
        "\n{:<8} {:>9} {:>16} {:>17} {:>15} {:>12}",
        "cycle", "records", "partials_on", "partials_off", "pages_on", "pages_off"
    );
    let mut st_on = BandState::new();
    let mut st_off = BandState::new();
    let mut max_partials_on = 0u64;
    for cycle in 0..CYCLES {
        for band in cycle_bands(cycle, &mut st_on) {
            on.ingest(&band);
        }
        for band in cycle_bands(cycle, &mut st_off) {
            off.ingest(&band);
        }
        on.compact();
        let (p_on, p_off) = (on.partial_pages(), off.partial_pages());
        max_partials_on = max_partials_on.max(p_on);
        println!(
            "{cycle:<8} {:>9} {p_on:>16} {p_off:>17} {:>15} {:>12}",
            on.record_count(),
            on.total_pages(),
            off.total_pages(),
        );
        let label = |m: &str| format!("compaction_decay/cycle_{cycle}/{m}");
        record(&label("partial_pages_on"), p_on as f64, "pages");
        record(&label("partial_pages_off"), p_off as f64, "pages");
        record(&label("total_pages_on"), on.total_pages() as f64, "pages");
        record(&label("total_pages_off"), off.total_pages() as f64, "pages");
    }
    let stats = on.index.compaction_stats();
    record("compaction_decay/summary/fold_runs", stats.fold_runs as f64, "runs");
    record("compaction_decay/summary/pages_folded_in", stats.pages_folded_in as f64, "pages");
    record("compaction_decay/summary/pages_folded_out", stats.pages_folded_out as f64, "pages");
    record("compaction_decay/summary/max_partial_pages_on", max_partials_on as f64, "pages");

    println!(
        "\nfolds: {} runs, {} pages -> {} pages. interior_hashes_small_merge must stay ~flat \
         while the level grows 16x (O(pages changed), not O(level)); after the hot range moves \
         on (cycle {CHURN_CYCLES}), partial_pages_off stays frozen at its churn peak while \
         partial_pages_on is folded down and stays bounded through cycle {CYCLES}.",
        stats.fold_runs, stats.pages_folded_in, stats.pages_folded_out
    );
    write_json("compaction_decay");
}
