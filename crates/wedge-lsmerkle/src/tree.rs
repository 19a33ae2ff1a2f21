//! The edge-resident LSMerkle tree (§V-B).
//!
//! L0 is a list of block-backed pages (the WedgeChain log/buffer acting
//! as mLSM's memory component); levels 1..n are Merkle-covered sorted
//! runs whose roots the cloud signs. This type holds the edge's state
//! and produces/applies the merge protocol messages; it never signs
//! anything itself — an untrusted edge only *relays* cloud signatures.

use crate::compact::needs_compaction;
use crate::config::LsmConfig;
use crate::kv::Key;
use crate::level::{empty_level_root, forest_over_reusing, GlobalRootCert, Level};
use crate::merge::{InitBundle, MergeRequest, MergeResult};
use crate::page::L0Page;
use std::sync::Arc;
use wedge_crypto::{Digest, IdentityId};
use wedge_log::{Block, BlockId, BlockProof};

/// The edge node's LSMerkle state.
#[derive(Debug)]
pub struct LsMerkle {
    edge: IdentityId,
    cfg: LsmConfig,
    /// L0 pages in block order, each optionally carrying its cloud
    /// certification (attached when the block-proof arrives).
    l0: Vec<(Arc<L0Page>, Option<BlockProof>)>,
    /// Merkle levels; index 0 is L1.
    levels: Vec<Level>,
    /// The freshest signed global root.
    global: GlobalRootCert,
    /// Current index epoch (must match the cloud's).
    epoch: u64,
}

impl LsMerkle {
    /// Creates an empty tree from the cloud's [`InitBundle`].
    pub fn new(edge: IdentityId, cfg: LsmConfig, init: InitBundle) -> Self {
        cfg.validate().expect("invalid LSMerkle config");
        assert_eq!(init.level_roots.len(), cfg.num_merkle_levels());
        let levels = init.level_roots.into_iter().map(Level::empty).collect();
        LsMerkle { edge, cfg, l0: Vec::new(), levels, global: init.global, epoch: 0 }
    }

    /// The owning edge identity.
    pub fn edge(&self) -> IdentityId {
        self.edge
    }

    /// The configured shape.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The freshest signed global root.
    pub fn global(&self) -> &GlobalRootCert {
        &self.global
    }

    /// Replaces the global cert with a fresher one (same root/epoch,
    /// newer timestamp) from the cloud's freshness refresh path.
    /// Returns `false` (rejecting the cert) if it is for another
    /// edge/epoch or older than the current cert — a mismatched-epoch
    /// cert must never silently replace the global root.
    pub fn refresh_global(&mut self, cert: GlobalRootCert) -> bool {
        if cert.edge != self.edge || cert.epoch != self.epoch {
            return false;
        }
        if cert.timestamp_ns < self.global.timestamp_ns {
            return false;
        }
        self.global = cert;
        true
    }

    /// L0 pages with their certification status.
    pub fn l0_pages(&self) -> &[(Arc<L0Page>, Option<BlockProof>)] {
        &self.l0
    }

    /// Number of L0 pages whose block-proof has arrived. Only these
    /// are eligible for merging (the cloud rejects uncertified ones).
    fn certified_l0_count(&self) -> usize {
        self.l0.iter().filter(|(_, proof)| proof.is_some()).count()
    }

    /// The Merkle levels (index 0 = L1).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Current roots of all Merkle levels, L1..Ln.
    pub fn level_roots(&self) -> Vec<Digest> {
        self.levels.iter().map(|l| l.root()).collect()
    }

    /// Total records across the tree (diagnostics).
    pub fn record_count(&self) -> usize {
        let l0: usize = self.l0.iter().map(|(p, _)| p.records().len()).sum();
        let lv: usize =
            self.levels.iter().flat_map(|l| l.pages().iter()).map(|p| p.records().len()).sum();
        l0 + lv
    }

    /// Ingests a sealed block as a new L0 page.
    pub fn apply_block(&mut self, block: Block) {
        self.l0.push((Arc::new(L0Page::from_block(block)), None));
    }

    /// Ingests a sealed block whose digest the caller already computed
    /// (the seal path always has), so the block is never hashed again.
    pub fn apply_block_with_digest(&mut self, block: Block, digest: Digest) {
        self.l0.push((Arc::new(L0Page::from_block_with_digest(block, digest)), None));
    }

    /// Attaches a cloud block-proof to its L0 page (if still present —
    /// the page may already have been merged away).
    pub fn attach_block_proof(&mut self, proof: BlockProof) -> bool {
        for (page, slot) in &mut self.l0 {
            if page.block().id == proof.bid {
                *slot = Some(proof);
                return true;
            }
        }
        false
    }

    /// The shallowest level whose page count exceeds its threshold, if
    /// any. Only levels that *can* merge downward are reported (the
    /// deepest level has nowhere to go).
    ///
    /// L0 counts only *certified* pages: `build_merge_request` ships
    /// nothing else, so counting uncertified pages would report an
    /// overflow that an L0 merge cannot drain — merge loops would spin
    /// forever on empty requests (livelock).
    pub fn overflowing_level(&self) -> Option<u32> {
        if self.certified_l0_count() > self.cfg.level_thresholds[0] {
            return Some(0);
        }
        for (i, level) in self.levels.iter().enumerate() {
            let level_no = i + 1;
            // A merge from `level_no` targets `level_no + 1`, which must
            // exist; the deepest level never merges out.
            if level_no < self.cfg.num_merkle_levels()
                && level.page_count() > self.cfg.level_thresholds[level_no]
            {
                return Some(level_no as u32);
            }
        }
        None
    }

    /// Builds the merge request draining `source_level`. Only L0 pages
    /// that are already certified are included (the cloud would reject
    /// uncertified ones); uncertified pages stay in L0 for the next
    /// merge.
    pub fn build_merge_request(&self, source_level: u32) -> MergeRequest {
        if source_level == 0 {
            // Arc clones: the request shares the tree's pages.
            let source_l0: Vec<Arc<L0Page>> = self
                .l0
                .iter()
                .filter(|(_, proof)| proof.is_some())
                .map(|(p, _)| Arc::clone(p))
                .collect();
            MergeRequest {
                edge: self.edge,
                source_level: 0,
                source_l0,
                source_pages: Vec::new(),
                target_pages: self.levels[0].pages().to_vec(),
                epoch: self.epoch,
            }
        } else {
            let s = (source_level - 1) as usize;
            MergeRequest {
                edge: self.edge,
                source_level,
                source_l0: Vec::new(),
                source_pages: self.levels[s].pages().to_vec(),
                target_pages: self.levels[s + 1].pages().to_vec(),
                epoch: self.epoch,
            }
        }
    }

    /// The shallowest Merkle level with a foldable run of fragmented
    /// pages, if any (1-based level number). Fragmentation comes from
    /// incremental merges re-splitting dirty regions within old page
    /// boundaries — one partial page per region boundary.
    pub fn fragmented_level(&self) -> Option<u32> {
        self.levels
            .iter()
            .position(|l| needs_compaction(l.pages(), self.cfg.page_capacity))
            .map(|i| (i + 1) as u32)
    }

    /// Builds a background-compaction merge request for the shallowest
    /// fragmented level, or `None` when nothing is worth compacting.
    ///
    /// A compaction is an ordinary [`MergeRequest`] with an *empty
    /// source*: the cloud verifies it, folds the target's fragmented
    /// runs, and re-signs — same wire messages, same replay and delta
    /// machinery, same epoch bump as any merge. For level 1 the empty
    /// source is L0 (ship no blocks); for deeper levels the level
    /// above must currently be empty, otherwise the fold simply rides
    /// the next organic merge into that level.
    pub fn build_compaction_request(&self) -> Option<MergeRequest> {
        for t_idx in 0..self.levels.len() {
            if !needs_compaction(self.levels[t_idx].pages(), self.cfg.page_capacity) {
                continue;
            }
            if t_idx > 0 && !self.levels[t_idx - 1].pages().is_empty() {
                // Draining that level would carry real records; let the
                // next organic merge into this level fold instead.
                continue;
            }
            return Some(MergeRequest {
                edge: self.edge,
                source_level: t_idx as u32,
                source_l0: Vec::new(),
                source_pages: if t_idx == 0 {
                    Vec::new()
                } else {
                    self.levels[t_idx - 1].pages().to_vec()
                },
                target_pages: self.levels[t_idx].pages().to_vec(),
                epoch: self.epoch,
            });
        }
        None
    }

    /// Applies a cloud merge result produced for `req`.
    ///
    /// Validates that the returned pages hash to the signed roots
    /// before mutating any state (the edge distrusts nothing — the
    /// cloud is trusted — but a transport corruption would otherwise
    /// poison the index).
    pub fn apply_merge_result(
        &mut self,
        req: &MergeRequest,
        res: MergeResult,
    ) -> Result<(), String> {
        if res.edge != self.edge || res.source_level != req.source_level {
            return Err("merge result does not match request".into());
        }
        if res.new_epoch != self.epoch + 1 {
            return Err(format!("epoch gap: have {}, result is {}", self.epoch, res.new_epoch));
        }
        // The target level's index in `self.levels`.
        let t_idx = res.source_level as usize;
        // Build the target forest exactly once: it both validates the
        // signed root and becomes the installed level's forest. It
        // reuses the outgoing level's subtrees, so a k-page merge costs
        // O(k log n) interior hashes, not O(n).
        let new_forest = forest_over_reusing(&res.new_target_pages, self.levels[t_idx].forest());
        if new_forest.root() != res.new_target_root.root {
            return Err("target pages do not hash to signed root".into());
        }
        if res.all_level_roots.len() != self.levels.len() {
            return Err("level root count mismatch".into());
        }
        // Install the new target level.
        self.levels[t_idx] =
            Level::from_parts(res.new_target_pages, new_forest, res.new_target_root);
        // Drain the source.
        if res.source_level == 0 {
            let merged: std::collections::HashSet<BlockId> =
                req.source_l0.iter().map(|p| p.block().id).collect();
            self.l0.retain(|(p, _)| !merged.contains(&p.block().id));
        } else {
            let s_idx = (res.source_level - 1) as usize;
            let slr = res.new_source_root.ok_or("missing source root")?;
            if slr.root != empty_level_root() {
                return Err("source root is not the empty root".into());
            }
            self.levels[s_idx] = Level::empty(slr);
        }
        // Sanity: our level roots must now match the cloud's.
        let ours = self.level_roots();
        if ours != res.all_level_roots {
            return Err("level roots diverged after merge".into());
        }
        self.epoch = res.new_epoch;
        self.global = res.global;
        Ok(())
    }

    /// Looks up the newest record for `key` across L0 and all levels,
    /// returning where it was found. Levels report `(level_no, page
    /// index within level)`.
    pub fn find_newest(&self, key: Key) -> Option<(crate::kv::KvRecord, RecordLocation)> {
        let mut best: Option<(crate::kv::KvRecord, RecordLocation)> = None;
        for (page, _) in &self.l0 {
            if let Some(r) = page.lookup(key) {
                if best.as_ref().is_none_or(|(b, _)| r.version > b.version) {
                    best = Some((r.clone(), RecordLocation::L0 { bid: page.bid() }));
                }
            }
        }
        for (i, level) in self.levels.iter().enumerate() {
            if let Some((pidx, page)) = crate::page::find_covering(level.pages(), key) {
                if let Some(r) = page.lookup(key) {
                    if best.as_ref().is_none_or(|(b, _)| r.version > b.version) {
                        best = Some((
                            r.clone(),
                            RecordLocation::Level { level: (i + 1) as u32, page: pidx },
                        ));
                    }
                }
            }
        }
        best
    }
}

/// Where a record was found in the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordLocation {
    /// In an L0 page (identified by block id).
    L0 {
        /// Block id of the containing page.
        bid: u64,
    },
    /// In a Merkle level.
    Level {
        /// Level number (1-based).
        level: u32,
        /// Page index within the level.
        page: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvOp;
    use crate::testkit::Fixture;

    /// The schedule tests' SplitMix64 stream.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// One random block for the schedule tests: 1–3 ops over a small
    /// keyspace, ~25% tombstones, so merges collide and delete.
    fn random_ops(rng: &mut impl FnMut() -> u64) -> Vec<KvOp> {
        (0..1 + rng() % 3)
            .map(|_| {
                let key = rng() % 32;
                if rng().is_multiple_of(4) {
                    KvOp::delete(key)
                } else {
                    KvOp::put(key, rng().to_be_bytes().to_vec())
                }
            })
            .collect()
    }

    #[test]
    fn ingest_and_find_in_l0() {
        let mut fx = Fixture::new();
        fx.ingest(&[(5, b"a"), (7, b"b")]);
        let (rec, loc) = fx.tree.find_newest(5).unwrap();
        assert_eq!(rec.value.as_deref(), Some(b"a".as_ref()));
        assert_eq!(loc, RecordLocation::L0 { bid: 0 });
        assert!(fx.tree.find_newest(6).is_none());
    }

    #[test]
    fn overflow_triggers_merge_and_lookup_moves_to_level() {
        let mut fx = Fixture::new();
        // Exposition config: L0 threshold 2 — the third block overflows.
        fx.ingest(&[(1, b"a")]);
        fx.ingest(&[(2, b"b")]);
        fx.ingest(&[(3, b"c")]);
        assert_eq!(fx.tree.overflowing_level(), Some(0));
        fx.drain_merges();
        assert_eq!(fx.tree.l0_pages().len(), 0);
        assert!(fx.tree.levels()[0].page_count() > 0);
        let (rec, loc) = fx.tree.find_newest(2).unwrap();
        assert_eq!(rec.value.as_deref(), Some(b"b".as_ref()));
        assert!(matches!(loc, RecordLocation::Level { level: 1, .. }));
    }

    #[test]
    fn newest_version_wins_across_l0_and_levels() {
        let mut fx = Fixture::new();
        fx.ingest(&[(1, b"old")]);
        fx.ingest(&[(9, b"x")]);
        fx.ingest(&[(8, b"y")]);
        fx.drain_merges();
        // Now overwrite key 1 in L0.
        fx.ingest(&[(1, b"new")]);
        let (rec, loc) = fx.tree.find_newest(1).unwrap();
        assert_eq!(rec.value.as_deref(), Some(b"new".as_ref()));
        assert!(matches!(loc, RecordLocation::L0 { .. }));
    }

    #[test]
    fn uncertified_pages_stay_in_l0_during_merge() {
        let mut fx = Fixture::new();
        fx.ingest(&[(1, b"a")]);
        fx.ingest(&[(2, b"b")]);
        fx.ingest(&[(4, b"d")]);
        // A fourth, *uncertified* block.
        fx.ingest_uncertified(3);
        // Three certified pages overflow the threshold of 2; the
        // uncertified page does not count.
        assert_eq!(fx.tree.certified_l0_count(), 3);
        assert_eq!(fx.tree.overflowing_level(), Some(0));
        let req = fx.tree.build_merge_request(0);
        // Only the three certified pages are shipped.
        assert_eq!(req.source_l0.len(), 3);
        let res = fx.index.process_merge(&fx.cloud, &fx.ledger, &req, 0).unwrap();
        fx.tree.apply_merge_result(&req, res).unwrap();
        // The uncertified page remains in L0.
        assert_eq!(fx.tree.l0_pages().len(), 1);
        assert_eq!(fx.tree.find_newest(3).unwrap().0.value.as_deref(), Some(b"u".as_ref()));
    }

    /// Regression: uncertified pages alone must never report an L0
    /// overflow — `build_merge_request(0)` would ship zero pages and
    /// `CloudIndex::merge_until_settled`, which has no empty-source
    /// guard, would spin forever on empty merges.
    #[test]
    fn uncertified_pages_alone_never_overflow() {
        let mut fx = Fixture::new();
        // Four uncertified blocks: past the raw threshold of 2, but
        // nothing is eligible to merge.
        for key in 0..4u64 {
            fx.ingest_uncertified(key);
        }
        assert_eq!(fx.tree.certified_l0_count(), 0);
        assert_eq!(fx.tree.overflowing_level(), None);
        // The shared loop returns at once instead of livelocking.
        assert!(fx.drain_merges().is_empty());
        assert_eq!(fx.tree.l0_pages().len(), 4);
    }

    /// The shared loop drains a whole cascade in one call: its pairs
    /// come back in application order (L0 first, consecutive epochs),
    /// nothing overflows afterwards, and an uncertified L0 page stays.
    #[test]
    fn merge_until_settled_returns_a_cascade_in_order() {
        let mut fx = Fixture::new();
        // Three certified blocks of four keys overflow L0 (threshold
        // 2); their 12 records fill three L1 pages (threshold 2), so
        // L1 merges into L2 in the same call.
        for b in 0..3u64 {
            let kvs: Vec<(u64, &[u8])> = (0..4).map(|i| (b * 4 + i, b"v".as_ref())).collect();
            fx.ingest(&kvs);
        }
        fx.ingest_uncertified(99);
        let applied = fx.drain_merges();
        let order: Vec<(u32, u64, u64)> =
            applied.iter().map(|(req, res)| (req.source_level, req.epoch, res.new_epoch)).collect();
        assert_eq!(order, vec![(0, 0, 1), (1, 1, 2)]);
        assert_eq!(fx.tree.overflowing_level(), None);
        assert_eq!(fx.tree.l0_pages().len(), 1);
        let (page, proof) = &fx.tree.l0_pages()[0];
        assert!(proof.is_none());
        assert_eq!(page.block().id, BlockId(3));
        assert!(fx.tree.levels()[1].page_count() > 0);
    }

    /// Regression: a global cert from another epoch (or edge) must be
    /// rejected outright, not just debug-asserted away.
    #[test]
    fn refresh_global_rejects_wrong_epoch_or_edge() {
        let mut fx = Fixture::new();
        let good = fx.tree.global().clone();
        // Wrong epoch.
        let wrong_epoch =
            crate::level::GlobalRootCert::issue(&fx.cloud, fx.edge, 99, 5_000, good.root);
        assert!(!fx.tree.refresh_global(wrong_epoch));
        assert_eq!(*fx.tree.global(), good);
        // Wrong edge.
        let wrong_edge =
            crate::level::GlobalRootCert::issue(&fx.cloud, IdentityId(77), 0, 5_000, good.root);
        assert!(!fx.tree.refresh_global(wrong_edge));
        assert_eq!(*fx.tree.global(), good);
        // Older timestamp.
        let stale = crate::level::GlobalRootCert::issue(&fx.cloud, fx.edge, 0, 0, good.root);
        let newer = crate::level::GlobalRootCert::issue(&fx.cloud, fx.edge, 0, 9_000, good.root);
        assert!(fx.tree.refresh_global(newer));
        assert!(!fx.tree.refresh_global(stale));
        assert_eq!(fx.tree.global().timestamp_ns, 9_000);
    }

    #[test]
    fn epoch_advances_per_merge() {
        let mut fx = Fixture::new();
        assert_eq!(fx.tree.epoch(), 0);
        fx.ingest(&[(1, b"a")]);
        fx.ingest(&[(2, b"b")]);
        fx.ingest(&[(3, b"c")]);
        fx.drain_merges();
        assert!(fx.tree.epoch() >= 1);
        let roots = fx.tree.level_roots();
        assert_eq!(roots, fx.index.state(fx.edge).unwrap().level_roots);
    }

    #[test]
    fn deletes_shadow_older_values() {
        let mut fx = Fixture::new();
        fx.ingest(&[(5, b"v1")]);
        // Tombstone in a later block.
        fx.ingest_ops(&[KvOp::delete(5)]);
        let (rec, _) = fx.tree.find_newest(5).unwrap();
        assert_eq!(rec.value, None); // tombstone is the newest
    }

    /// Property: the incremental dirty-region rebuild inside
    /// `process_merge` produces exactly the records the old
    /// whole-level k-way rebuild produced, on random put/delete
    /// schedules across cascading merges. All three runtimes share the
    /// incremental code, so the three-way differential cannot catch a
    /// divergence here — only a reference model can (same idea as
    /// PR 2's k-way-equals-sort property).
    #[test]
    fn incremental_rebuild_equals_full_rebuild_on_random_schedules() {
        use crate::kv::KvRecord;
        use crate::merge::kway_merge_newest;
        let mut rng = splitmix(0x9E37_79B9_7F4A_7C15);
        for _seed in 0..5 {
            let mut fx = Fixture::new();
            let n_merkle = fx.tree.config().num_merkle_levels();
            for _step in 0..24 {
                fx.ingest_ops(&random_ops(&mut rng));
                // Check every merge the shared loop applied against
                // the full-rebuild reference model.
                for (req, res) in fx.drain_merges() {
                    let deepest = (req.source_level + 1) as usize == n_merkle;
                    let runs: Vec<&[crate::kv::KvRecord]> = req
                        .source_l0
                        .iter()
                        .map(|p| p.records())
                        .chain(req.source_pages.iter().map(|p| p.records()))
                        .chain(req.target_pages.iter().map(|p| p.records()))
                        .collect();
                    let expected = kway_merge_newest(&runs, deepest);
                    let got: Vec<KvRecord> = res
                        .new_target_pages
                        .iter()
                        .flat_map(|p| p.records().iter().cloned())
                        .collect();
                    assert_eq!(got, expected, "incremental rebuild diverged from full rebuild");
                    crate::page::check_level_ranges(&res.new_target_pages).unwrap();
                }
            }
        }
    }

    #[test]
    fn many_blocks_cascade_correctly() {
        let mut fx = Fixture::new();
        // 40 single-put blocks over 20 keys: forces repeated L0->L1 and
        // L1->L2 merges in the tiny exposition config.
        for i in 0..40u64 {
            let key = i % 20;
            let val = format!("v{i}");
            fx.ingest(&[(key, val.as_bytes())]);
            fx.drain_merges();
        }
        // Every key resolves to its newest write.
        for key in 0..20u64 {
            let expect = format!("v{}", key + 20);
            let (rec, _) = fx.tree.find_newest(key).unwrap();
            assert_eq!(rec.value.as_deref(), Some(expect.as_bytes()), "key {key}");
        }
        // All levels obey range invariants.
        for level in fx.tree.levels() {
            crate::page::check_level_ranges(level.pages()).unwrap();
        }
    }
}
