//! Size-tiered page compaction: folds fragmentation back out of a
//! level.
//!
//! The incremental merge (PR 5) re-splits only the *dirty regions* of
//! a level, confined to the original page boundaries. The price is one
//! partial page per region boundary, so a long-lived level decays
//! toward many tiny pages — and proof size, verification cost, and
//! merge fan-out all track page count.
//!
//! The fold here is the size-tiered scheme of the LSM engines in
//! SNIPPETS.md, specialized to LSMerkle's invariant that a page never
//! exceeds `page_capacity` records: there are only two size tiers,
//! **full** (`== capacity`) and **small** (`< capacity`, the "small
//! bucket"). A maximal run of *adjacent* small pages is folded — their
//! records concatenated (adjacent pages cover disjoint, touching key
//! ranges, so concatenation is already sorted) and re-split across the
//! run's exact key range — whenever that provably shrinks the run.
//! Neighbouring full pages are untouched and keep their `Arc`s, so a
//! fold is itself an incremental change the level forest absorbs in
//! O(k log n) hashes.
//!
//! Folding is a pure function of the page layout: every runtime that
//! replays the same merge sequence computes the same folds, which is
//! what lets the three-way differential assert compaction stats
//! byte-for-byte.
//!
//! Exactly one path runs it: the edge engine's compaction clock
//! issues an *empty-source* merge request for a fragmented level, and
//! [`CloudIndex::process_merge`](crate::merge::CloudIndex) folds while
//! re-signing it — no new wire messages, and replay/delta/epoch
//! machinery come for free. Organic merges do **not** fold: their
//! dirty regions are already re-split to capacity by the rebuild, and
//! folding the clean remainder would rehash — and re-ship — pages the
//! merge never touched, breaking the reply's delta encoding.

use std::ops::Range;
use std::sync::Arc;

use crate::kv::KvRecord;
use crate::page::{split_into_range_pages, Page};

/// Counters describing fold work; deterministic across runtimes for a
/// given merge sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Runs of adjacent small pages folded.
    pub fold_runs: u64,
    /// Pages consumed by folds.
    pub pages_folded_in: u64,
    /// Pages emitted by folds (strictly fewer than consumed).
    pub pages_folded_out: u64,
}

impl CompactionStats {
    /// Accumulates another stats block into this one.
    pub fn absorb(&mut self, other: CompactionStats) {
        self.fold_runs += other.fold_runs;
        self.pages_folded_in += other.pages_folded_in;
        self.pages_folded_out += other.pages_folded_out;
    }
}

/// The result of [`fold_partial_pages`].
#[derive(Clone, Debug)]
pub struct FoldOutcome {
    pub pages: Vec<Arc<Page>>,
    pub stats: CompactionStats,
}

/// Maximal runs of adjacent small (`< page_capacity` records) pages
/// whose fold strictly reduces the page count. Pure layout function —
/// no clocks, no randomness.
fn fold_plan(pages: &[Arc<Page>], page_capacity: usize) -> Vec<Range<usize>> {
    assert!(page_capacity > 0);
    let mut plan = Vec::new();
    let mut i = 0;
    while i < pages.len() {
        if pages[i].records().len() >= page_capacity {
            i += 1;
            continue;
        }
        let start = i;
        let mut total = 0usize;
        while i < pages.len() && pages[i].records().len() < page_capacity {
            total += pages[i].records().len();
            i += 1;
        }
        // Shrinks iff the records repack into fewer pages than the run
        // holds (an empty run still needs one covering page).
        if total.div_ceil(page_capacity).max(1) < i - start {
            plan.push(start..i);
        }
    }
    plan
}

/// True iff [`fold_partial_pages`] would change the level.
pub fn needs_compaction(pages: &[Arc<Page>], page_capacity: usize) -> bool {
    !fold_plan(pages, page_capacity).is_empty()
}

/// Folds every shrinkable run of adjacent small pages back to
/// `page_capacity`-sized pages. Pages outside the folded runs are
/// passed through by `Arc`, and each run's key coverage is preserved
/// exactly, so [`check_level_ranges`](crate::page::check_level_ranges)
/// keeps holding. The output has no further foldable runs (folding is
/// stable).
pub fn fold_partial_pages(pages: &[Arc<Page>], page_capacity: usize, now_ns: u64) -> FoldOutcome {
    let plan = fold_plan(pages, page_capacity);
    if plan.is_empty() {
        return FoldOutcome { pages: pages.to_vec(), stats: CompactionStats::default() };
    }
    let mut out = Vec::with_capacity(pages.len());
    let mut stats = CompactionStats::default();
    let mut cursor = 0;
    for run in plan {
        out.extend_from_slice(&pages[cursor..run.start]);
        let records: Vec<KvRecord> =
            pages[run.clone()].iter().flat_map(|p| p.records().iter().cloned()).collect();
        let folded = split_into_range_pages(
            records,
            page_capacity,
            now_ns,
            pages[run.start].min(),
            pages[run.end - 1].max(),
        );
        stats.fold_runs += 1;
        stats.pages_folded_in += (run.end - run.start) as u64;
        stats.pages_folded_out += folded.len() as u64;
        out.extend(folded);
        cursor = run.end;
    }
    out.extend_from_slice(&pages[cursor..]);
    FoldOutcome { pages: out, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Key, Version};
    use crate::page::check_level_ranges;

    fn rec(key: Key) -> KvRecord {
        KvRecord { key, version: Version { bid: 1, pos: 0 }, value: Some(b"v".to_vec()) }
    }

    /// A level of pages with the given record counts, ranges assigned
    /// to satisfy the adjacency invariant.
    fn level(counts: &[usize], cap: usize) -> Vec<Arc<Page>> {
        let mut pages = Vec::new();
        let mut next_key = 0u64;
        let mut next_min = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(c <= cap);
            let records: Vec<KvRecord> = (0..c)
                .map(|_| {
                    let r = rec(next_key);
                    next_key += 1;
                    r
                })
                .collect();
            let max = if i + 1 == counts.len() { Key::MAX } else { next_key.max(next_min) };
            pages.push(Arc::new(Page::new(next_min, max, records, 7)));
            next_key = max.wrapping_add(1);
            next_min = max.wrapping_add(1);
        }
        check_level_ranges(&pages).unwrap();
        pages
    }

    #[test]
    fn adjacent_partials_fold_to_capacity() {
        let cap = 4;
        let pages = level(&[4, 2, 2, 4], cap);
        assert!(needs_compaction(&pages, cap));
        let out = fold_partial_pages(&pages, cap, 99);
        assert_eq!(out.pages.len(), 3);
        check_level_ranges(&out.pages).unwrap();
        assert_eq!(
            out.stats,
            CompactionStats { fold_runs: 1, pages_folded_in: 2, pages_folded_out: 1 }
        );
        // The records all survive, repacked to capacity.
        let total: usize = out.pages.iter().map(|p| p.records().len()).sum();
        assert_eq!(total, 12);
        assert_eq!(out.pages[1].records().len(), 4);
        // Full neighbours pass through by pointer.
        assert!(Arc::ptr_eq(&pages[0], &out.pages[0]));
        assert!(Arc::ptr_eq(&pages[3], &out.pages[2]));
    }

    #[test]
    fn lone_partial_page_is_left_alone() {
        let cap = 4;
        let pages = level(&[4, 1, 4], cap);
        assert!(!needs_compaction(&pages, cap));
        let out = fold_partial_pages(&pages, cap, 0);
        assert_eq!(out.stats, CompactionStats::default());
        for (a, b) in pages.iter().zip(&out.pages) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn empty_region_pages_fold_away() {
        let cap = 4;
        let pages = level(&[0, 0, 0], cap);
        assert!(needs_compaction(&pages, cap));
        let out = fold_partial_pages(&pages, cap, 0);
        assert_eq!(out.pages.len(), 1);
        assert!(out.pages[0].records().is_empty());
        check_level_ranges(&out.pages).unwrap();
    }

    #[test]
    fn folding_is_stable() {
        let cap = 3;
        let pages = level(&[1, 1, 3, 2, 2, 2, 3, 0, 1], cap);
        let out = fold_partial_pages(&pages, cap, 5);
        check_level_ranges(&out.pages).unwrap();
        assert!(!needs_compaction(&out.pages, cap), "fold output must not refold");
        let total_in: usize = pages.iter().map(|p| p.records().len()).sum();
        let total_out: usize = out.pages.iter().map(|p| p.records().len()).sum();
        assert_eq!(total_in, total_out);
    }

    #[test]
    fn run_that_cannot_shrink_is_skipped() {
        // Two adjacent pages at cap-1: 6 records still need 2 pages.
        let cap = 4;
        let pages = level(&[3, 3], cap);
        assert!(!needs_compaction(&pages, cap));
    }
}
