//! Merge/compaction: the cloud-coordinated protocol of §V-B.
//!
//! When level `i` exceeds its page threshold, the edge ships *all* of
//! level `i`'s pages plus level `i+1`'s pages to the cloud. The cloud
//! verifies their authenticity (L0 pages against the block-cert
//! ledger, deeper levels leaf-for-leaf against the level forests it
//! maintains), performs a streaming k-way LSM merge over the
//! already-sorted runs (newest version per key wins, tombstones
//! dropped at the deepest level), re-partitions into range-covering
//! pages, patches the level's Merkle forest incrementally (O(k log n)
//! interior hashes for a k-page change), and signs the new level roots
//! and a fresh timestamped global root. An *empty-source* request is
//! background compaction: the same path, where the only change is
//! folding fragmented page runs back to capacity ([`crate::compact`]).
//!
//! Pages travel as `Arc`s: building a [`MergeRequest`] clones
//! pointers, not records.

use crate::compact::{fold_partial_pages, CompactionStats};
use crate::config::LsmConfig;
use crate::forest::MerkleForest;
use crate::kv::KvRecord;
use crate::level::{
    compute_global_root, empty_level_root, forest_over_reusing, GlobalRootCert, SignedLevelRoot,
};
use crate::page::{
    check_level_ranges, find_covering, split_into_pages, split_into_range_pages, L0Page, Page,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use wedge_crypto::{Digest, Identity, IdentityId};
use wedge_log::{BlockId, CertLedger, DecodeError};
use wedge_pool::Pool;

/// A merge request from an edge node.
#[derive(Clone, Debug, PartialEq)]
pub struct MergeRequest {
    /// The requesting edge.
    pub edge: IdentityId,
    /// Source level (0 = L0). All its pages move to `source_level+1`.
    pub source_level: u32,
    /// Source pages when `source_level == 0` (blocks ride along so the
    /// cloud can re-verify digests against its cert ledger).
    pub source_l0: Vec<Arc<L0Page>>,
    /// Source pages when `source_level >= 1`.
    pub source_pages: Vec<Arc<Page>>,
    /// The current pages of the target level.
    pub target_pages: Vec<Arc<Page>>,
    /// The edge's view of the index epoch (stale views are rejected).
    pub epoch: u64,
}

impl MergeRequest {
    /// Bytes shipped edge→cloud for this merge. `u64`: a multi-GiB
    /// merge must not wrap the cost accounting in release builds.
    pub fn wire_size(&self) -> u64 {
        let l0: u64 = self.source_l0.iter().map(|p| p.wire_size()).sum();
        let src: u64 = self.source_pages.iter().map(|p| p.wire_size()).sum();
        let tgt: u64 = self.target_pages.iter().map(|p| p.wire_size()).sum();
        32 + l0 + src + tgt
    }

    /// Exact byte length of [`MergeRequest::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        let l0: usize = self.source_l0.iter().map(|p| p.encoded_len()).sum();
        let src: usize = self.source_pages.iter().map(|p| p.encoded_len()).sum();
        let tgt: usize = self.target_pages.iter().map(|p| p.encoded_len()).sum();
        // edge + source_level + epoch + three counted page runs.
        8 + 4 + 8 + (8 + l0) + (8 + src) + (8 + tgt)
    }

    /// Canonical nestable wire encoding.
    pub fn encode_into(&self, enc: &mut wedge_log::Encoder) {
        enc.put_u64(self.edge.0).put_u32(self.source_level).put_u64(self.epoch);
        enc.put_u64(self.source_l0.len() as u64);
        for p in &self.source_l0 {
            p.encode_into(enc);
        }
        enc.put_u64(self.source_pages.len() as u64);
        for p in &self.source_pages {
            p.encode_into(enc);
        }
        enc.put_u64(self.target_pages.len() as u64);
        for p in &self.target_pages {
            p.encode_into(enc);
        }
    }

    /// Inverse of [`MergeRequest::encode_into`]; pages come back as
    /// fresh `Arc`s ready for sharing.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, wedge_log::DecodeError> {
        let edge = IdentityId(dec.get_u64()?);
        let source_level = dec.get_u32()?;
        let epoch = dec.get_u64()?;
        let n_l0 = dec.get_count(L0Page::MIN_ENCODED_LEN)?;
        let mut source_l0 = Vec::with_capacity(n_l0);
        for _ in 0..n_l0 {
            source_l0.push(L0Page::decode_from(dec)?);
        }
        let n_src = dec.get_count(Page::MIN_ENCODED_LEN)?;
        let mut source_pages = Vec::with_capacity(n_src);
        for _ in 0..n_src {
            source_pages.push(Page::decode_from(dec)?);
        }
        let n_tgt = dec.get_count(Page::MIN_ENCODED_LEN)?;
        let mut target_pages = Vec::with_capacity(n_tgt);
        for _ in 0..n_tgt {
            target_pages.push(Page::decode_from(dec)?);
        }
        Ok(MergeRequest { edge, source_level, source_l0, source_pages, target_pages, epoch })
    }

    /// A cheap identity for retry deduplication: a digest over the
    /// request's scalar fields and the (memoized) digests of every
    /// page it ships. Two requests with equal fingerprints carry the
    /// same pages, so replaying the cached [`MergeResult`] is sound.
    pub fn fingerprint(&self) -> Digest {
        let n_pages = self.source_l0.len() + self.source_pages.len() + self.target_pages.len();
        let mut enc =
            wedge_log::Encoder::with_tag_and_capacity("wedge-merge-fp-v1", 44 + 32 * n_pages);
        enc.put_u64(self.edge.0).put_u32(self.source_level).put_u64(self.epoch);
        enc.put_u64(self.source_l0.len() as u64);
        for p in &self.source_l0 {
            enc.put_digest(&p.digest());
        }
        enc.put_u64(self.source_pages.len() as u64);
        for p in &self.source_pages {
            enc.put_digest(&p.digest());
        }
        enc.put_u64(self.target_pages.len() as u64);
        for p in &self.target_pages {
            enc.put_digest(&p.digest());
        }
        wedge_crypto::sha256(&enc.finish())
    }
}

/// The cloud's reply to a successful merge.
#[derive(Clone, Debug, PartialEq)]
pub struct MergeResult {
    /// The edge whose index was merged.
    pub edge: IdentityId,
    /// Source level that was drained.
    pub source_level: u32,
    /// New pages of the target level (`source_level + 1`).
    pub new_target_pages: Vec<Arc<Page>>,
    /// Signed root for the (now empty) source level; `None` for L0,
    /// which is not Merkle-covered.
    pub new_source_root: Option<SignedLevelRoot>,
    /// Signed root for the rebuilt target level.
    pub new_target_root: SignedLevelRoot,
    /// Authoritative roots of every Merkle level (L1..Ln) after the
    /// merge, in level order.
    pub all_level_roots: Vec<Digest>,
    /// Fresh timestamped global root.
    pub global: GlobalRootCert,
    /// The epoch after this merge.
    pub new_epoch: u64,
}

impl MergeResult {
    /// Bytes shipped cloud→edge when the reply is sent *in full*. The
    /// delta encoding ([`DeltaMergeResult`]) is what actually crosses
    /// the wire; this is the baseline it is measured against.
    pub fn wire_size(&self) -> u64 {
        let pages: u64 = self.new_target_pages.iter().map(|p| p.wire_size()).sum();
        let roots = (self.all_level_roots.len() as u64) * 32;
        pages + roots + 2 * 96 + 32
    }

    /// Exact byte length of [`MergeResult::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        let pages: usize = self.new_target_pages.iter().map(|p| p.encoded_len()).sum();
        8 + 4
            + (8 + pages)
            + 1
            + self.new_source_root.as_ref().map_or(0, |_| SignedLevelRoot::ENCODED_LEN)
            + SignedLevelRoot::ENCODED_LEN
            + (8 + 32 * self.all_level_roots.len())
            + GlobalRootCert::ENCODED_LEN
            + 8
    }

    /// Canonical nestable wire encoding.
    pub fn encode_into(&self, enc: &mut wedge_log::Encoder) {
        enc.put_u64(self.edge.0).put_u32(self.source_level);
        enc.put_u64(self.new_target_pages.len() as u64);
        for p in &self.new_target_pages {
            p.encode_into(enc);
        }
        enc.put_option(self.new_source_root.as_ref(), |e, r| r.encode_into(e));
        self.new_target_root.encode_into(enc);
        enc.put_u64(self.all_level_roots.len() as u64);
        for r in &self.all_level_roots {
            enc.put_digest(r);
        }
        self.global.encode_into(enc);
        enc.put_u64(self.new_epoch);
    }

    /// Inverse of [`MergeResult::encode_into`]; pages come back as
    /// fresh `Arc`s that [`crate::tree::LsMerkle::apply_merge_result`]
    /// shares into the level, exactly like in-process results.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, wedge_log::DecodeError> {
        let edge = IdentityId(dec.get_u64()?);
        let source_level = dec.get_u32()?;
        let n_pages = dec.get_count(Page::MIN_ENCODED_LEN)?;
        let mut new_target_pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            new_target_pages.push(Page::decode_from(dec)?);
        }
        let new_source_root = dec.get_option(SignedLevelRoot::decode_from)?;
        let new_target_root = SignedLevelRoot::decode_from(dec)?;
        let n_roots = dec.get_count(32)?;
        let mut all_level_roots = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            all_level_roots.push(dec.get_digest()?);
        }
        let global = GlobalRootCert::decode_from(dec)?;
        let new_epoch = dec.get_u64()?;
        Ok(MergeResult {
            edge,
            source_level,
            new_target_pages,
            new_source_root,
            new_target_root,
            all_level_roots,
            global,
            new_epoch,
        })
    }
}

/// One target-page slot in a delta-encoded merge reply.
#[derive(Clone, Debug, PartialEq)]
pub enum PageDelta {
    /// A page the edge does not already hold: shipped in full.
    Full(Arc<Page>),
    /// Byte-identical to a page of the originating [`MergeRequest`]:
    /// indices cover `target_pages` first, then `source_pages` shifted
    /// by `target_pages.len()`. Resolution rehydrates the reference
    /// into the request's own `Arc`, so nothing is re-shipped and
    /// nothing is re-hashed.
    Reused(u32),
}

/// A [`MergeResult`] delta-encoded against its [`MergeRequest`]: every
/// new target page that is byte-identical to a page the edge already
/// holds (a reused `Arc` from the request) travels as a 5-byte
/// reference instead of its full records. This is what keeps the
/// largest cloud→edge message proportional to the *changed* pages of a
/// merge, not the target level's size — without it, a big-target/
/// small-source merge reply can exceed the frame cap and silently
/// wedge the partition.
///
/// The codec is deliberately not self-contained: decoding yields this
/// struct, and [`DeltaMergeResult::resolve`] needs the outstanding
/// request to rehydrate references. The edge keys that request by
/// [`MergeRequest::fingerprint`], which also makes replayed results
/// work: a retried request carries the same pages (same fingerprint),
/// so the cloud's replay cache can delta-encode against the *retry*
/// and the references still resolve.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaMergeResult {
    /// [`MergeRequest::fingerprint`] of the request this reply answers
    /// — [`DeltaMergeResult::resolve`] refuses any other request.
    pub request_fp: Digest,
    /// The edge whose index was merged.
    pub edge: IdentityId,
    /// Source level that was drained.
    pub source_level: u32,
    /// New pages of the target level, full or by reference.
    pub pages: Vec<PageDelta>,
    /// Signed root for the (now empty) source level; `None` for L0.
    pub new_source_root: Option<SignedLevelRoot>,
    /// Signed root for the rebuilt target level.
    pub new_target_root: SignedLevelRoot,
    /// Authoritative roots of every Merkle level after the merge.
    pub all_level_roots: Vec<Digest>,
    /// Fresh timestamped global root.
    pub global: GlobalRootCert,
    /// The epoch after this merge.
    pub new_epoch: u64,
}

impl DeltaMergeResult {
    /// Delta-encodes `res` against `req` by memoized page digest (not
    /// pointer identity, so a replay delta-encoded against a retried
    /// request — equal pages, fresh `Arc`s — still dedups fully).
    pub fn delta_against(res: &MergeResult, req: &MergeRequest) -> Self {
        let mut by_digest: HashMap<Digest, u32> = HashMap::new();
        for (i, p) in req.target_pages.iter().chain(req.source_pages.iter()).enumerate() {
            by_digest.entry(p.digest()).or_insert(i as u32);
        }
        let pages = res
            .new_target_pages
            .iter()
            .map(|p| match by_digest.get(&p.digest()) {
                Some(&i) => PageDelta::Reused(i),
                None => PageDelta::Full(Arc::clone(p)),
            })
            .collect();
        DeltaMergeResult {
            request_fp: req.fingerprint(),
            edge: res.edge,
            source_level: res.source_level,
            pages,
            new_source_root: res.new_source_root.clone(),
            new_target_root: res.new_target_root.clone(),
            all_level_roots: res.all_level_roots.clone(),
            global: res.global.clone(),
            new_epoch: res.new_epoch,
        }
    }

    /// Rehydrates into the full [`MergeResult`] by resolving every
    /// reference into `req`'s own `Arc`s. A fingerprint mismatch (the
    /// reply answers a different request) or an out-of-range reference
    /// is a typed [`DecodeError`] — hostile or stale replies can never
    /// panic the edge, and the in-flight request stays armed for the
    /// retry clock.
    pub fn resolve(&self, req: &MergeRequest) -> Result<MergeResult, DecodeError> {
        if self.request_fp != req.fingerprint() {
            return Err(DecodeError::Malformed("merge delta answers a different request"));
        }
        let targets = req.target_pages.len();
        let mut new_target_pages = Vec::with_capacity(self.pages.len());
        for slot in &self.pages {
            new_target_pages.push(match slot {
                PageDelta::Full(p) => Arc::clone(p),
                PageDelta::Reused(i) => {
                    let i = *i as usize;
                    let page = if i < targets {
                        req.target_pages.get(i)
                    } else {
                        req.source_pages.get(i - targets)
                    };
                    Arc::clone(
                        page.ok_or(DecodeError::Malformed("merge reuse index out of range"))?,
                    )
                }
            });
        }
        Ok(MergeResult {
            edge: self.edge,
            source_level: self.source_level,
            new_target_pages,
            new_source_root: self.new_source_root.clone(),
            new_target_root: self.new_target_root.clone(),
            all_level_roots: self.all_level_roots.clone(),
            global: self.global.clone(),
            new_epoch: self.new_epoch,
        })
    }

    /// Pages travelling as references.
    pub fn reused_pages(&self) -> u64 {
        self.pages.iter().filter(|p| matches!(p, PageDelta::Reused(_))).count() as u64
    }

    /// Pages travelling in full.
    pub fn full_pages(&self) -> u64 {
        self.pages.iter().filter(|p| matches!(p, PageDelta::Full(_))).count() as u64
    }

    /// Bytes shipped cloud→edge for this delta reply: full pages plus
    /// 5 bytes per reference — the number the `merge_reply_bytes`
    /// bench tracks against [`MergeResult::wire_size`].
    pub fn wire_size(&self) -> u64 {
        let pages: u64 = self
            .pages
            .iter()
            .map(|p| match p {
                PageDelta::Full(p) => 1 + p.wire_size(),
                PageDelta::Reused(_) => 5,
            })
            .sum();
        let roots = (self.all_level_roots.len() as u64) * 32;
        32 + pages + roots + 2 * 96 + 32
    }

    /// Exact byte length of [`DeltaMergeResult::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        let pages: usize = self
            .pages
            .iter()
            .map(|p| match p {
                PageDelta::Full(p) => 1 + p.encoded_len(),
                PageDelta::Reused(_) => 1 + 4,
            })
            .sum();
        32 + 8
            + 4
            + (8 + pages)
            + 1
            + self.new_source_root.as_ref().map_or(0, |_| SignedLevelRoot::ENCODED_LEN)
            + SignedLevelRoot::ENCODED_LEN
            + (8 + 32 * self.all_level_roots.len())
            + GlobalRootCert::ENCODED_LEN
            + 8
    }

    /// Canonical nestable wire encoding.
    pub fn encode_into(&self, enc: &mut wedge_log::Encoder) {
        enc.put_digest(&self.request_fp).put_u64(self.edge.0).put_u32(self.source_level);
        enc.put_u64(self.pages.len() as u64);
        for slot in &self.pages {
            match slot {
                PageDelta::Full(p) => {
                    enc.put_u8(0);
                    p.encode_into(enc);
                }
                PageDelta::Reused(i) => {
                    enc.put_u8(1);
                    enc.put_u32(*i);
                }
            }
        }
        enc.put_option(self.new_source_root.as_ref(), |e, r| r.encode_into(e));
        self.new_target_root.encode_into(enc);
        enc.put_u64(self.all_level_roots.len() as u64);
        for r in &self.all_level_roots {
            enc.put_digest(r);
        }
        self.global.encode_into(enc);
        enc.put_u64(self.new_epoch);
    }

    /// Inverse of [`DeltaMergeResult::encode_into`]. Context-free:
    /// references stay references until [`DeltaMergeResult::resolve`]
    /// is handed the matching request.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, DecodeError> {
        let request_fp = dec.get_digest()?;
        let edge = IdentityId(dec.get_u64()?);
        let source_level = dec.get_u32()?;
        // A reference is the smallest slot: tag byte + u32 index.
        let n_pages = dec.get_count(5)?;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(match dec.get_u8()? {
                0 => PageDelta::Full(Page::decode_from(dec)?),
                1 => PageDelta::Reused(dec.get_u32()?),
                _ => return Err(DecodeError::Malformed("page delta tag")),
            });
        }
        let new_source_root = dec.get_option(SignedLevelRoot::decode_from)?;
        let new_target_root = SignedLevelRoot::decode_from(dec)?;
        let n_roots = dec.get_count(32)?;
        let mut all_level_roots = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            all_level_roots.push(dec.get_digest()?);
        }
        let global = GlobalRootCert::decode_from(dec)?;
        let new_epoch = dec.get_u64()?;
        Ok(DeltaMergeResult {
            request_fp,
            edge,
            source_level,
            pages,
            new_source_root,
            new_target_root,
            all_level_roots,
            global,
            new_epoch,
        })
    }
}

/// One page slot in a delta-encoded merge request.
///
/// The tag byte *is* the level: `0` means a full page follows; any
/// other value `L` is a reference into the cloud's retained run for
/// Merkle level `L` followed by a `u32` index — exactly 5 bytes on
/// the wire. L0 is never retained (its pages are blocks, re-verified
/// against the cert ledger every merge), so `0` is unambiguous.
#[derive(Clone, Debug, PartialEq)]
pub enum ReqPageSlot {
    /// A page the cloud does not retain: shipped in full.
    Full(Arc<Page>),
    /// Byte-identical to the page at `index` of the run the cloud
    /// retains for `level` — resolution rehydrates it into the
    /// cloud's own `Arc`, so nothing is re-shipped or re-hashed.
    Retained {
        /// Merkle level whose retained run holds the page.
        level: u8,
        /// Index into that run.
        index: u32,
    },
}

/// The fingerprint a retained run is claimed under: a digest over the
/// edge, the level, and the run's page digests in order. Both sides
/// derive it independently — the cloud over the pages it just shipped
/// in a reply, the edge over the pages that reply installed — so a
/// reference is resolvable iff both still mean the same run.
pub fn retention_fingerprint(edge: IdentityId, level: u32, pages: &[Arc<Page>]) -> Digest {
    let mut enc =
        wedge_log::Encoder::with_tag_and_capacity("wedge-retain-fp-v1", 20 + 32 * pages.len());
    enc.put_u64(edge.0).put_u32(level).put_u64(pages.len() as u64);
    for p in pages {
        enc.put_digest(&p.digest());
    }
    wedge_crypto::sha256(&enc.finish())
}

/// One retained page run: the `Arc` pages the cloud shipped (or
/// passed through) for a level in its last merge reply, under the
/// fingerprint the edge will claim them by. Shared pointers, not
/// copies — retaining a run costs O(pages) pointers, never records.
#[derive(Clone, Debug, PartialEq)]
pub struct RetainedLevel {
    /// [`retention_fingerprint`] over the run.
    pub fingerprint: Digest,
    /// The run's pages in level order.
    pub pages: Vec<Arc<Page>>,
}

impl RetainedLevel {
    /// Captures `pages` as the retained run for `level`.
    pub fn over(edge: IdentityId, level: u32, pages: &[Arc<Page>]) -> Self {
        RetainedLevel {
            fingerprint: retention_fingerprint(edge, level, pages),
            pages: pages.to_vec(),
        }
    }
}

fn encode_req_slots(slots: &[ReqPageSlot], enc: &mut wedge_log::Encoder) {
    enc.put_u64(slots.len() as u64);
    for slot in slots {
        match slot {
            ReqPageSlot::Full(p) => {
                enc.put_u8(0);
                p.encode_into(enc);
            }
            ReqPageSlot::Retained { level, index } => {
                debug_assert_ne!(*level, 0, "level 0 is the Full tag");
                enc.put_u8(*level);
                enc.put_u32(*index);
            }
        }
    }
}

fn decode_req_slots(
    dec: &mut wedge_log::Decoder<'_>,
) -> Result<Vec<ReqPageSlot>, wedge_log::DecodeError> {
    // A reference is the smallest slot: tag byte + u32 index.
    let n = dec.get_count(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match dec.get_u8()? {
            0 => ReqPageSlot::Full(Page::decode_from(dec)?),
            level => ReqPageSlot::Retained { level, index: dec.get_u32()? },
        });
    }
    Ok(out)
}

/// A [`MergeRequest`] delta-encoded against the pages the cloud
/// retains from its own last replies: every source or target page the
/// last applied reply proves the cloud already holds travels as a
/// 5-byte [`ReqPageSlot::Retained`] reference instead of its full
/// records. This is the request-side mirror of [`DeltaMergeResult`]:
/// it keeps the largest edge→cloud message proportional to the
/// *changed* pages of a merge, not the target level's size — without
/// it, a big-target merge request can exceed the frame cap and wedge
/// the partition before the cloud ever sees it.
///
/// The codec is deliberately not self-contained: decoding yields this
/// struct, and [`DeltaMergeRequest::resolve`] needs the cloud's
/// retained runs to rehydrate references. Each referenced run is
/// claimed by `(level, fingerprint)`; a claim the cloud cannot match
/// (restart, eviction, a run two merges old) is a typed error the
/// engine answers with a full-request resend nack — one round trip,
/// never a wedge and never a panic.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaMergeRequest {
    /// The requesting edge.
    pub edge: IdentityId,
    /// Source level (0 = L0). All its pages move to `source_level+1`.
    pub source_level: u32,
    /// The edge's view of the index epoch.
    pub epoch: u64,
    /// The retained runs this request references, as `(level,
    /// fingerprint)` claims. Resolution checks every claim before
    /// honouring a single reference; levels the request does not
    /// reference are not claimed.
    pub retention: Vec<(u32, Digest)>,
    /// L0 source pages always travel in full (blocks are re-verified
    /// against the cert ledger, never retained).
    pub source_l0: Vec<Arc<L0Page>>,
    /// Source pages when `source_level >= 1`, full or by reference.
    pub source_pages: Vec<ReqPageSlot>,
    /// The current pages of the target level, full or by reference.
    pub target_pages: Vec<ReqPageSlot>,
}

impl DeltaMergeRequest {
    /// Delta-encodes `req` against the runs the edge knows the cloud
    /// retains (proven by the last applied reply), by memoized page
    /// digest. Levels are scanned in ascending order so the encoding
    /// — and therefore every byte-level stat downstream — is
    /// deterministic across runtimes.
    pub fn delta_against(req: &MergeRequest, retained: &HashMap<u32, RetainedLevel>) -> Self {
        let mut levels: Vec<u32> =
            retained.keys().copied().filter(|l| (1..=255).contains(l)).collect();
        levels.sort_unstable();
        let mut by_digest: HashMap<Digest, (u8, u32)> = HashMap::new();
        for &level in &levels {
            for (i, p) in retained[&level].pages.iter().enumerate() {
                by_digest.entry(p.digest()).or_insert((level as u8, i as u32));
            }
        }
        let mut used: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut encode = |pages: &[Arc<Page>]| -> Vec<ReqPageSlot> {
            pages
                .iter()
                .map(|p| match by_digest.get(&p.digest()) {
                    Some(&(level, index)) => {
                        used.insert(level as u32);
                        ReqPageSlot::Retained { level, index }
                    }
                    None => ReqPageSlot::Full(Arc::clone(p)),
                })
                .collect()
        };
        let source_pages = encode(&req.source_pages);
        let target_pages = encode(&req.target_pages);
        let retention = used.into_iter().map(|l| (l, retained[&l].fingerprint)).collect();
        DeltaMergeRequest {
            edge: req.edge,
            source_level: req.source_level,
            epoch: req.epoch,
            retention,
            source_l0: req.source_l0.clone(),
            source_pages,
            target_pages,
        }
    }

    /// Rehydrates into the full [`MergeRequest`] by resolving every
    /// reference into the cloud's own retained `Arc`s. `retained` maps
    /// a `(level, fingerprint)` claim to the run it names, or `None`
    /// if the cloud no longer holds it. Any unresolvable claim, a
    /// slot referencing an undeclared level, or an out-of-range index
    /// is a typed [`DecodeError`] — hostile or stale deltas can never
    /// panic the cloud, only earn a resend nack.
    pub fn resolve<'a>(
        &self,
        retained: impl Fn(u32, &Digest) -> Option<&'a [Arc<Page>]>,
    ) -> Result<MergeRequest, DecodeError> {
        let mut runs: HashMap<u32, &[Arc<Page>]> = HashMap::with_capacity(self.retention.len());
        for (level, fp) in &self.retention {
            let run = retained(*level, fp)
                .ok_or(DecodeError::Malformed("merge request retention claim stale or unknown"))?;
            runs.insert(*level, run);
        }
        let rehydrate = |slots: &[ReqPageSlot]| -> Result<Vec<Arc<Page>>, DecodeError> {
            slots
                .iter()
                .map(|slot| match slot {
                    ReqPageSlot::Full(p) => Ok(Arc::clone(p)),
                    ReqPageSlot::Retained { level, index } => {
                        let run = runs.get(&(*level as u32)).ok_or(DecodeError::Malformed(
                            "merge request references an undeclared level",
                        ))?;
                        run.get(*index as usize)
                            .map(Arc::clone)
                            .ok_or(DecodeError::Malformed("merge request reuse index out of range"))
                    }
                })
                .collect()
        };
        Ok(MergeRequest {
            edge: self.edge,
            source_level: self.source_level,
            source_l0: self.source_l0.clone(),
            source_pages: rehydrate(&self.source_pages)?,
            target_pages: rehydrate(&self.target_pages)?,
            epoch: self.epoch,
        })
    }

    /// Pages travelling as references (source + target slots).
    pub fn reused_pages(&self) -> u64 {
        self.source_pages
            .iter()
            .chain(self.target_pages.iter())
            .filter(|s| matches!(s, ReqPageSlot::Retained { .. }))
            .count() as u64
    }

    /// Pages travelling in full (L0 blocks plus full slots).
    pub fn full_pages(&self) -> u64 {
        self.source_l0.len() as u64
            + self
                .source_pages
                .iter()
                .chain(self.target_pages.iter())
                .filter(|s| matches!(s, ReqPageSlot::Full(_)))
                .count() as u64
    }

    /// Bytes shipped edge→cloud for this delta request: full pages
    /// plus 5 bytes per reference plus 36 per retention claim — the
    /// number the `merge_request_bytes` bench tracks against
    /// [`MergeRequest::wire_size`].
    pub fn wire_size(&self) -> u64 {
        let l0: u64 = self.source_l0.iter().map(|p| p.wire_size()).sum();
        let slots = |s: &[ReqPageSlot]| -> u64 {
            s.iter()
                .map(|s| match s {
                    ReqPageSlot::Full(p) => 1 + p.wire_size(),
                    ReqPageSlot::Retained { .. } => 5,
                })
                .sum()
        };
        32 + 36 * self.retention.len() as u64
            + l0
            + slots(&self.source_pages)
            + slots(&self.target_pages)
    }

    /// Exact byte length of [`DeltaMergeRequest::encode_into`]'s
    /// output.
    pub fn encoded_len(&self) -> usize {
        let slots = |s: &[ReqPageSlot]| -> usize {
            8 + s
                .iter()
                .map(|s| match s {
                    ReqPageSlot::Full(p) => 1 + p.encoded_len(),
                    ReqPageSlot::Retained { .. } => 1 + 4,
                })
                .sum::<usize>()
        };
        let l0: usize = self.source_l0.iter().map(|p| p.encoded_len()).sum();
        8 + 4
            + 8
            + (8 + (4 + 32) * self.retention.len())
            + (8 + l0)
            + slots(&self.source_pages)
            + slots(&self.target_pages)
    }

    /// Canonical nestable wire encoding.
    pub fn encode_into(&self, enc: &mut wedge_log::Encoder) {
        enc.put_u64(self.edge.0).put_u32(self.source_level).put_u64(self.epoch);
        enc.put_u64(self.retention.len() as u64);
        for (level, fp) in &self.retention {
            enc.put_u32(*level);
            enc.put_digest(fp);
        }
        enc.put_u64(self.source_l0.len() as u64);
        for p in &self.source_l0 {
            p.encode_into(enc);
        }
        encode_req_slots(&self.source_pages, enc);
        encode_req_slots(&self.target_pages, enc);
    }

    /// Inverse of [`DeltaMergeRequest::encode_into`]. Context-free:
    /// references stay references until [`DeltaMergeRequest::resolve`]
    /// is handed the cloud's retained runs.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, DecodeError> {
        let edge = IdentityId(dec.get_u64()?);
        let source_level = dec.get_u32()?;
        let epoch = dec.get_u64()?;
        let n_ret = dec.get_count(36)?;
        let mut retention = Vec::with_capacity(n_ret);
        for _ in 0..n_ret {
            let level = dec.get_u32()?;
            retention.push((level, dec.get_digest()?));
        }
        let n_l0 = dec.get_count(L0Page::MIN_ENCODED_LEN)?;
        let mut source_l0 = Vec::with_capacity(n_l0);
        for _ in 0..n_l0 {
            source_l0.push(L0Page::decode_from(dec)?);
        }
        let source_pages = decode_req_slots(dec)?;
        let target_pages = decode_req_slots(dec)?;
        Ok(DeltaMergeRequest {
            edge,
            source_level,
            epoch,
            retention,
            source_l0,
            source_pages,
            target_pages,
        })
    }
}

/// Why the cloud refused a merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The edge is not initialized in the cloud index.
    UnknownEdge(IdentityId),
    /// The edge's epoch is stale or from the future.
    EpochMismatch { expected: u64, got: u64 },
    /// An L0 page's block was never certified — the edge is trying to
    /// merge data the cloud never saw a digest for.
    UncertifiedBlock(BlockId),
    /// An L0 page's block digest does not match the certified digest —
    /// equivocation at merge time.
    BlockDigestMismatch(BlockId),
    /// Source pages do not hash to the root the cloud signed.
    SourceRootMismatch,
    /// Target pages do not hash to the root the cloud signed.
    TargetRootMismatch,
    /// Merging out of the deepest level is impossible.
    BadLevel(u32),
    /// The L0 page's advertised records don't match its block content.
    L0RecordsMismatch(BlockId),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for MergeError {}

/// Streaming k-way merge over runs each sorted by `(key asc, version
/// desc)`: emits the newest version of every key in ascending key
/// order, cloning only the surviving records. `drop_tombstones` skips
/// deleted keys (the deepest-level rule). This replaces the old
/// materialize-all + `sort_by` + `dedup_by` compaction: O(n log k)
/// comparisons on keys instead of O(n log n) on full records, and no
/// clones of shadowed versions.
pub fn kway_merge_newest(runs: &[&[KvRecord]], drop_tombstones: bool) -> Vec<KvRecord> {
    // Max-heap of Reverse(ordering key) ⇒ pops the smallest key; among
    // equal keys the largest version; run index breaks exact ties
    // deterministically.
    type HeapKey = Reverse<(u64, Reverse<crate::kv::Version>, usize)>;
    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::with_capacity(runs.len());
    let mut cursors: Vec<usize> = vec![0; runs.len()];
    let push_head = |heap: &mut BinaryHeap<HeapKey>, cursors: &[usize], run_idx: usize| {
        if let Some(r) = runs[run_idx].get(cursors[run_idx]) {
            heap.push(Reverse((r.key, Reverse(r.version), run_idx)));
        }
    };
    for i in 0..runs.len() {
        push_head(&mut heap, &cursors, i);
    }
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut last_key: Option<u64> = None;
    while let Some(Reverse((key, _, run_idx))) = heap.pop() {
        let rec = &runs[run_idx][cursors[run_idx]];
        cursors[run_idx] += 1;
        push_head(&mut heap, &cursors, run_idx);
        if last_key == Some(key) {
            continue; // an older (or duplicate) version: shadowed
        }
        last_key = Some(key);
        if drop_tombstones && rec.value.is_none() {
            continue;
        }
        out.push(rec.clone());
    }
    out
}

/// Rebuilds the target level for `req`, reusing (as `Arc` clones)
/// every target page the merge does not touch.
///
/// A target page is *dirty* — and must be rebuilt — iff a source
/// record's key falls in its range, or the merge targets the deepest
/// level and the page holds a tombstone that must now drop. Contiguous
/// dirty pages form a region whose records (dirty target pages plus
/// the source records within the region's range) are k-way merged and
/// re-split inside the region's original boundaries, so the clean
/// pages on either side keep their exact ranges. Clean pages pass
/// through untouched — same records, same range, same `created_at_ns`,
/// therefore the same memoized digest — which is what lets the wire
/// codec ship them as [`PageDelta::Reused`] references.
///
/// A pure level move (level ≥ 1 into an empty target, nothing to
/// drop) reuses the source pages verbatim: they already form a valid
/// range-covering level.
fn rebuilt_target_pages(
    req: &MergeRequest,
    deepest: bool,
    page_capacity: usize,
    now_ns: u64,
    pool: &Pool,
) -> Vec<Arc<Page>> {
    let source_runs: Vec<&[KvRecord]> = req
        .source_l0
        .iter()
        .map(|p| p.records())
        .chain(req.source_pages.iter().map(|p| p.records()))
        .collect();
    let targets = &req.target_pages;
    if targets.is_empty() {
        let tombstones = || source_runs.iter().any(|run| run.iter().any(|r| r.value.is_none()));
        if req.source_l0.is_empty() && !req.source_pages.is_empty() && !(deepest && tombstones()) {
            return req.source_pages.clone();
        }
        let merged = kway_merge_newest(&source_runs, deepest);
        return split_into_pages(merged, page_capacity, now_ns);
    }
    // Mark dirty pages. Every source key lands in exactly one target
    // page (the level covers [0, ∞]), found by binary search.
    let mut dirty = vec![false; targets.len()];
    for run in &source_runs {
        for r in run.iter() {
            if let Some((idx, _)) = find_covering(targets, r.key) {
                dirty[idx] = true;
            }
        }
    }
    // Deepest-level target pages can never hold tombstones: every
    // record there came out of a previous merge into the deepest level
    // — either a k-way merge with `drop_tombstones` or the tombstone-
    // guarded pure-move path above — and a hostile edge cannot forge
    // target pages past the signed-root check. So no extra dirtying is
    // needed for tombstone dropping; debug builds verify the
    // invariant instead of release builds paying an O(level) scan.
    debug_assert!(
        !deepest || targets.iter().all(|p| p.records().iter().all(|r| r.value.is_some())),
        "deepest-level target page holds a tombstone"
    );
    // Walk the dirty map into slots first: clean pages pass through as
    // the same `Arc`s, and each contiguous dirty run becomes a region.
    // Regions are confined to disjoint key ranges, so their k-way
    // merges and re-splits are independent — the pool rebuilds them on
    // separate lanes and the slot order makes the stitch-back
    // deterministic regardless of which lane finished first.
    enum Slot {
        Clean(usize),
        Region,
    }
    let mut slots = Vec::new();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < targets.len() {
        if !dirty[i] {
            slots.push(Slot::Clean(i));
            i += 1;
            continue;
        }
        let start = i;
        while i < targets.len() && dirty[i] {
            i += 1;
        }
        slots.push(Slot::Region);
        regions.push((start, i));
    }
    let rebuild_region = |&(start, end): &(usize, usize)| -> Vec<Arc<Page>> {
        let (rmin, rmax) = (targets[start].min(), targets[end - 1].max());
        let mut runs: Vec<&[KvRecord]> = targets[start..end].iter().map(|p| p.records()).collect();
        for run in &source_runs {
            let lo = run.partition_point(|r| r.key < rmin);
            let hi = run.partition_point(|r| r.key <= rmax);
            if lo < hi {
                runs.push(&run[lo..hi]);
            }
        }
        let merged = kway_merge_newest(&runs, deepest);
        let pages = split_into_range_pages(merged, page_capacity, now_ns, rmin, rmax);
        // Memoize the fresh pages' digests while still on this lane —
        // the forest rebuild and the reply's delta encoding both need
        // them, and a memo is idempotent.
        for p in &pages {
            p.digest();
        }
        pages
    };
    let mut rebuilt = pool.map(&regions, rebuild_region).into_iter();
    let mut out = Vec::with_capacity(targets.len());
    for slot in slots {
        match slot {
            Slot::Clean(i) => out.push(Arc::clone(&targets[i])),
            Slot::Region => out.extend(rebuilt.next().expect("one rebuilt run per region")),
        }
    }
    out
}

/// The roots + global cert an edge starts from.
#[derive(Clone, Debug)]
pub struct InitBundle {
    /// Signed (empty) roots for L1..Ln at epoch 0.
    pub level_roots: Vec<SignedLevelRoot>,
    /// The signed global root at epoch 0.
    pub global: GlobalRootCert,
}

/// Per-edge authoritative index state at the cloud.
#[derive(Clone, Debug)]
pub struct CloudIndexState {
    /// Roots of L1..Ln.
    pub level_roots: Vec<Digest>,
    /// Current epoch (merge count).
    pub epoch: u64,
    /// The last merge processed: the request's
    /// [`MergeRequest::fingerprint`] and the signed result. A retried
    /// request (same fingerprint, one epoch behind — its `MergeRes`
    /// was lost in transit) is answered from here instead of being
    /// rejected as stale, which is what makes edge-side merge retries
    /// self-healing under a lossy transport.
    last_merge: Option<(Digest, MergeResult)>,
    /// The Merkle forest of each level, kept in lockstep with
    /// `level_roots` (`level_forests[i].root() == level_roots[i]`).
    /// Caching it buys two things per merge: request verification is a
    /// leaf-run digest comparison (no hashing at all — digest equality
    /// is content equality), and re-signing patches the forest
    /// incrementally instead of rebuilding O(level) interior nodes.
    level_forests: Vec<MerkleForest>,
    /// The page runs retained per Merkle level for delta-request
    /// resolution: newest last, bounded at **two** (the current run
    /// plus one prior, so a delta retried after its reply was lost —
    /// retention has advanced past the retry's view — still resolves
    /// and hits the replay cache). Older runs are evicted as epochs
    /// advance; losing the cache entirely costs one full-request
    /// resend, never a wedge.
    retained: HashMap<u32, Vec<RetainedLevel>>,
}

/// The cloud node's view of every edge's LSMerkle.
///
/// The cloud is the *only* writer of level roots, which is what lets
/// it verify merge inputs without re-reading any data: pages either
/// hash to a root it signed, or they are forged.
#[derive(Debug)]
pub struct CloudIndex {
    cfg: LsmConfig,
    states: HashMap<IdentityId, CloudIndexState>,
    compaction: CompactionStats,
    /// Worker pool for the embarrassingly-parallel phases of a merge:
    /// digest memoization of wire-decoded and fresh pages, L0 record
    /// re-derivation and per-region rebuilds. Every width runs the
    /// same code and gives byte-identical results; width 1 (the
    /// default) runs each fan-out as a plain loop on the caller.
    pool: Pool,
}

/// True iff the pages' digest run matches the forest leaf-for-leaf.
/// Digest equality is content equality (collision resistance), so this
/// is equivalent to — and strictly cheaper than — rebuilding the tree
/// and comparing roots: page digests are memoized, so no hashing runs.
fn digest_run_matches(pages: &[Arc<Page>], forest: &MerkleForest) -> bool {
    pages.len() == forest.leaf_count()
        && pages.iter().map(|p| p.digest()).eq(forest.leaves().iter().copied())
}

impl CloudIndex {
    /// Creates a cloud index for the given LSMerkle shape.
    pub fn new(cfg: LsmConfig) -> Self {
        cfg.validate().expect("invalid LSMerkle config");
        CloudIndex {
            cfg,
            states: HashMap::new(),
            compaction: CompactionStats::default(),
            pool: Pool::default(),
        }
    }

    /// The configured shape.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// Installs the worker pool merge processing fans out on. The
    /// drivers call this with their configured `pool_threads`; the
    /// default is width 1, which runs every fan-out on the caller.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// The installed worker pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Memoizes, across the pool, every page digest the merge path
    /// will ask for: fingerprinting (replay lookup), run verification,
    /// retention, and the reply's delta encoding all force them.
    /// Pages rehydrated from retained `Arc`s already carry their memo
    /// and cost nothing; wire-decoded pages hash once each, spread
    /// over the lanes. Idempotent, pure, byte-identical at any size.
    pub fn prime_request_digests(&self, req: &MergeRequest) {
        self.pool.for_each(&req.source_l0, |p| {
            p.digest();
        });
        let pages: Vec<&Arc<Page>> =
            req.source_pages.iter().chain(req.target_pages.iter()).collect();
        self.pool.for_each(&pages, |p| {
            p.digest();
        });
    }

    /// Cumulative fold work across every merge this cloud processed.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    /// Initializes (or re-issues) the empty index for an edge and
    /// returns the signed roots the edge starts from.
    pub fn init_edge(&mut self, cloud: &Identity, edge: IdentityId, now_ns: u64) -> InitBundle {
        let n = self.cfg.num_merkle_levels();
        let roots: Vec<Digest> = vec![empty_level_root(); n];
        self.states.insert(
            edge,
            CloudIndexState {
                level_roots: roots.clone(),
                epoch: 0,
                last_merge: None,
                level_forests: vec![MerkleForest::empty(); n],
                retained: HashMap::new(),
            },
        );
        let level_roots = (0..n)
            .map(|i| SignedLevelRoot::issue(cloud, edge, (i + 1) as u32, 0, roots[i]))
            .collect();
        let global = GlobalRootCert::issue(cloud, edge, 0, now_ns, compute_global_root(&roots));
        InitBundle { level_roots, global }
    }

    /// The cloud's recorded state for an edge.
    pub fn state(&self, edge: IdentityId) -> Option<&CloudIndexState> {
        self.states.get(&edge)
    }

    /// Re-signs the current global root with a fresh timestamp (the
    /// freshness "no-op" path of §V-D).
    pub fn refresh_global(
        &self,
        cloud: &Identity,
        edge: IdentityId,
        now_ns: u64,
    ) -> Option<GlobalRootCert> {
        let st = self.states.get(&edge)?;
        Some(GlobalRootCert::issue(
            cloud,
            edge,
            st.epoch,
            now_ns,
            compute_global_root(&st.level_roots),
        ))
    }

    /// Idempotent-retry lookup: if `req` is byte-for-byte the merge
    /// this edge's state was last advanced by (fingerprint match, one
    /// epoch behind — its `MergeRes` was lost in transit), returns the
    /// cached signed result without touching any state. Replaying it
    /// is sound, and it is the only way the edge can ever catch up
    /// under a lossy transport. `checked_add` keeps a hostile
    /// `epoch == u64::MAX` a clean miss, never an overflow.
    pub fn replay_for(&self, req: &MergeRequest) -> Option<MergeResult> {
        let state = self.states.get(&req.edge)?;
        if req.epoch.checked_add(1) != Some(state.epoch) {
            return None;
        }
        let (fp, cached) = state.last_merge.as_ref()?;
        (*fp == req.fingerprint()).then(|| cached.clone())
    }

    /// Resolves a delta-encoded request against this cloud's retained
    /// runs, rehydrating every reference into the cloud's own `Arc`s.
    /// An unknown edge, a stale retention claim, an undeclared level,
    /// or an out-of-range index is a typed [`DecodeError`] — the
    /// engine answers it with a `MergeReqResend` nack, never a panic.
    pub fn resolve_delta_request(
        &self,
        dreq: &DeltaMergeRequest,
    ) -> Result<MergeRequest, DecodeError> {
        let state = self
            .states
            .get(&dreq.edge)
            .ok_or(DecodeError::Malformed("delta merge request from unknown edge"))?;
        dreq.resolve(|level, fp| {
            state
                .retained
                .get(&level)?
                .iter()
                .rev()
                .find(|r| r.fingerprint == *fp)
                .map(|r| r.pages.as_slice())
        })
    }

    /// Drops every retained run for `edge` — a cloud restart or cache
    /// eviction in miniature. The next delta request fails to resolve
    /// and is answered with a full-request resend nack: one extra
    /// round trip, no wedge.
    pub fn evict_retained(&mut self, edge: IdentityId) {
        if let Some(state) = self.states.get_mut(&edge) {
            state.retained.clear();
        }
    }

    /// Verifies and performs a merge, returning the signed result.
    /// A repeated request is a stale-epoch error here — retries are
    /// answered through [`CloudIndex::replay_for`], which the caller
    /// consults first.
    pub fn process_merge(
        &mut self,
        cloud: &Identity,
        ledger: &CertLedger,
        req: &MergeRequest,
        now_ns: u64,
    ) -> Result<MergeResult, MergeError> {
        let n_levels = self.cfg.num_merkle_levels();
        let target_level = req.source_level + 1;
        if target_level as usize > n_levels {
            return Err(MergeError::BadLevel(req.source_level));
        }
        let state = self.states.get(&req.edge).ok_or(MergeError::UnknownEdge(req.edge))?;
        if state.epoch != req.epoch {
            return Err(MergeError::EpochMismatch { expected: state.epoch, got: req.epoch });
        }
        // Hash every shipped page across the pool before the serial
        // verification below forces the digests one by one.
        self.prime_request_digests(req);
        let pool = &self.pool;

        // --- Verify sources ---
        if req.source_level == 0 {
            // `matches_block` re-derives each block's records — the
            // expensive half of L0 verification — so precompute the
            // verdicts across the pool. They are consumed in page
            // order below, keeping error precedence identical.
            let records_ok = pool.map(&req.source_l0, |p| p.matches_block());
            for (page, records_ok) in req.source_l0.iter().zip(records_ok) {
                // Memoized: the block is hashed at most once per page
                // lifetime, even across certify → merge → proof.
                let digest = page.digest();
                match ledger.lookup(req.edge, page.block().id) {
                    None => return Err(MergeError::UncertifiedBlock(page.block().id)),
                    Some(d) if *d != digest => {
                        return Err(MergeError::BlockDigestMismatch(page.block().id))
                    }
                    Some(_) => {}
                }
                // Never trust the edge's decoded records; re-derive.
                if !records_ok {
                    return Err(MergeError::L0RecordsMismatch(page.block().id));
                }
            }
        } else {
            let idx = (req.source_level - 1) as usize;
            // The shipped pages are authentic iff their digest run
            // matches the cached forest leaf-for-leaf (digest equality
            // *is* content equality): the forest's leaves are exactly
            // the page digests whose root the cloud last signed, so
            // this is the old root comparison with zero hashing.
            if !digest_run_matches(&req.source_pages, &state.level_forests[idx]) {
                return Err(MergeError::SourceRootMismatch);
            }
        }

        // --- Verify target ---
        let t_idx = (target_level - 1) as usize;
        if !digest_run_matches(&req.target_pages, &state.level_forests[t_idx]) {
            return Err(MergeError::TargetRootMismatch);
        }

        // --- Merge: streaming k-way over the already-sorted runs,
        // confined to the dirty regions — pages the source does not
        // touch are *reused* (the same `Arc`s the request shipped), so
        // the reply's delta encoding ships only what changed.
        let deepest = target_level as usize == n_levels;
        let mut new_pages =
            rebuilt_target_pages(req, deepest, self.cfg.page_capacity, now_ns, pool);

        // --- Compact: an *empty-source* request is the background
        // compactor asking for a whole-level fold — nothing was merged,
        // so every `Arc` above was reused and the fold is the only
        // change. Organic merges do NOT fold: their dirty regions are
        // already re-split to capacity by the rebuild, and folding the
        // clean remainder would rehash — and re-ship, breaking the
        // reply's delta encoding — pages the merge never touched.
        let is_compaction = req.source_l0.is_empty() && req.source_pages.is_empty();
        let fold_stats = if is_compaction {
            let fold = fold_partial_pages(&new_pages, self.cfg.page_capacity, now_ns);
            new_pages = fold.pages;
            fold.stats
        } else {
            CompactionStats::default()
        };
        debug_assert!(check_level_ranges(&new_pages).is_ok());

        // --- Re-sign roots. The target forest is patched from the
        // cached one: O(k log n) interior hashes for a k-page change,
        // not O(level) — this is what keeps a long-lived store's merge
        // cost proportional to the delta. Fresh pages from a full
        // merge or a compaction fold have no digest memo yet; the
        // rebuild hashes them across the lanes first.
        let state = self.states.get_mut(&req.edge).expect("checked above");
        let new_forest = forest_over_reusing(&new_pages, &state.level_forests[t_idx], pool);
        let new_epoch = state.epoch + 1;
        state.epoch = new_epoch;
        state.level_roots[t_idx] = new_forest.root();
        state.level_forests[t_idx] = new_forest;
        self.compaction.absorb(fold_stats);
        let new_source_root = if req.source_level >= 1 {
            let s_idx = (req.source_level - 1) as usize;
            state.level_roots[s_idx] = empty_level_root();
            state.level_forests[s_idx] = MerkleForest::empty();
            Some(SignedLevelRoot::issue(
                cloud,
                req.edge,
                req.source_level,
                new_epoch,
                state.level_roots[s_idx],
            ))
        } else {
            None
        };
        let new_target_root = SignedLevelRoot::issue(
            cloud,
            req.edge,
            target_level,
            new_epoch,
            state.level_roots[t_idx],
        );
        let all_level_roots = state.level_roots.clone();
        let global = GlobalRootCert::issue(
            cloud,
            req.edge,
            new_epoch,
            now_ns,
            compute_global_root(&all_level_roots),
        );
        let result = MergeResult {
            edge: req.edge,
            source_level: req.source_level,
            new_target_pages: new_pages,
            new_source_root,
            new_target_root,
            all_level_roots,
            global,
            new_epoch,
        };
        // Retain the rebuilt target run (and the drained source's
        // now-empty run) so the *next* request can reference these
        // pages instead of re-shipping them. Newest last, capped at
        // two runs per level — see `CloudIndexState::retained`.
        let mut retain = |level: u32, pages: &[Arc<Page>]| {
            let runs = state.retained.entry(level).or_default();
            runs.push(RetainedLevel::over(req.edge, level, pages));
            if runs.len() > 2 {
                runs.remove(0);
            }
        };
        retain(target_level, &result.new_target_pages);
        if req.source_level >= 1 {
            retain(req.source_level, &[]);
        }
        state.last_merge = Some((req.fingerprint(), result.clone()));
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{kv_entry, KvOp};
    use wedge_log::{Block, CertOutcome};

    fn setup() -> (Identity, CertLedger, CloudIndex, IdentityId) {
        let cloud = Identity::derive("cloud", 0);
        let ledger = CertLedger::new();
        let index = CloudIndex::new(LsmConfig::exposition());
        (cloud, ledger, index, IdentityId(9))
    }

    fn kv_block(edge: IdentityId, bid: u64, kvs: &[(u64, &[u8])]) -> Block {
        let client = Identity::derive("client", 1);
        let entries = kvs
            .iter()
            .enumerate()
            .map(|(i, (k, v))| kv_entry(&client, bid * 100 + i as u64, &KvOp::put(*k, v.to_vec())))
            .collect();
        Block { edge, id: BlockId(bid), entries, sealed_at_ns: bid }
    }

    fn certified_l0(
        ledger: &mut CertLedger,
        edge: IdentityId,
        bid: u64,
        kvs: &[(u64, &[u8])],
    ) -> Arc<L0Page> {
        let block = kv_block(edge, bid, kvs);
        assert_eq!(ledger.offer(edge, block.id, block.digest()), CertOutcome::Certified);
        Arc::new(L0Page::from_block(block))
    }

    #[test]
    fn l0_merge_produces_sorted_level() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let p0 = certified_l0(&mut ledger, edge, 0, &[(5, b"a"), (1, b"b")]);
        let p1 = certified_l0(&mut ledger, edge, 1, &[(5, b"c"), (9, b"d")]);
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0, p1],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res = index.process_merge(&cloud, &ledger, &req, 1000).unwrap();
        assert_eq!(res.new_epoch, 1);
        assert!(check_level_ranges(&res.new_target_pages).is_ok());
        let all: Vec<(u64, Vec<u8>)> = res
            .new_target_pages
            .iter()
            .flat_map(|p| p.records().iter())
            .map(|r| (r.key, r.value.clone().unwrap()))
            .collect();
        // Key 5 resolved to the newer block's value "c".
        assert_eq!(all, vec![(1, b"b".to_vec()), (5, b"c".to_vec()), (9, b"d".to_vec())]);
    }

    fn l0_request(edge: IdentityId, source_l0: Vec<Arc<L0Page>>) -> MergeRequest {
        MergeRequest {
            edge,
            source_level: 0,
            source_l0,
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        }
    }

    /// An uncertified page is rejected at every pool width, also when
    /// a forged page follows it: the ledger check of the first page
    /// still answers, although every page's records are re-derived.
    #[test]
    fn uncertified_block_rejected() {
        for threads in [1, 4] {
            let (cloud, mut ledger, mut index, edge) = setup();
            index.set_pool(Pool::new(threads));
            index.init_edge(&cloud, edge, 0);
            let uncertified = Arc::new(L0Page::from_block(kv_block(edge, 1, &[(1, b"x")])));
            let req = l0_request(edge, vec![uncertified.clone()]);
            assert_eq!(
                index.process_merge(&cloud, &ledger, &req, 0),
                Err(MergeError::UncertifiedBlock(BlockId(1)))
            );
            let certified = certified_l0(&mut ledger, edge, 0, &[(2, b"y")]);
            let forged = Arc::new(L0Page::forged(certified.block().clone(), vec![]));
            let req = l0_request(edge, vec![uncertified, forged]);
            assert_eq!(
                index.process_merge(&cloud, &ledger, &req, 0),
                Err(MergeError::UncertifiedBlock(BlockId(1))),
                "width {threads}"
            );
        }
    }

    /// A lying edge is caught at every pool width, whether it ships a
    /// different block under a certified id or the certified block
    /// with records that do not derive from it.
    #[test]
    fn tampered_block_rejected() {
        for threads in [1, 4] {
            let (cloud, mut ledger, mut index, edge) = setup();
            index.set_pool(Pool::new(threads));
            index.init_edge(&cloud, edge, 0);
            // Certify an honest block, then try to merge a different
            // one with the same id.
            let honest = certified_l0(&mut ledger, edge, 0, &[(1, b"honest")]);
            let lying = Arc::new(L0Page::from_block(kv_block(edge, 0, &[(1, b"lying")])));
            assert_eq!(
                index.process_merge(&cloud, &ledger, &l0_request(edge, vec![lying]), 0),
                Err(MergeError::BlockDigestMismatch(BlockId(0))),
                "width {threads}"
            );
            // The certified block itself, carrying forged records.
            let mut records = honest.records().to_vec();
            records[0].value = Some(b"lying".to_vec());
            let forged = Arc::new(L0Page::forged(honest.block().clone(), records));
            assert_eq!(
                index.process_merge(&cloud, &ledger, &l0_request(edge, vec![forged]), 0),
                Err(MergeError::L0RecordsMismatch(BlockId(0))),
                "width {threads}"
            );
        }
    }

    #[test]
    fn stale_epoch_rejected_but_identical_retry_replayed() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let p0 = certified_l0(&mut ledger, edge, 0, &[(1, b"a")]);
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0.clone()],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let first = index.process_merge(&cloud, &ledger, &req, 0).unwrap();
        // A byte-identical retry (its MergeRes was lost in transit) is
        // answered from the replay cache — this is what makes edge
        // merge retries self-healing — while `process_merge` itself
        // still rejects the stale epoch.
        assert_eq!(index.replay_for(&req), Some(first.clone()));
        assert_eq!(
            index.process_merge(&cloud, &ledger, &req, 99),
            Err(MergeError::EpochMismatch { expected: 1, got: 0 })
        );
        // A *different* request at the stale epoch never replays.
        let p1 = certified_l0(&mut ledger, edge, 1, &[(2, b"b")]);
        let other = MergeRequest { source_l0: vec![p1], ..req.clone() };
        assert_eq!(index.replay_for(&other), None);
        assert_eq!(
            index.process_merge(&cloud, &ledger, &other, 0),
            Err(MergeError::EpochMismatch { expected: 1, got: 0 })
        );
        // A hostile epoch of u64::MAX is a clean miss, not an overflow.
        let hostile = MergeRequest { epoch: u64::MAX, ..req.clone() };
        assert_eq!(index.replay_for(&hostile), None);
        // And a two-epochs-stale replay never matches the cache.
        let req2 = MergeRequest {
            edge,
            source_level: 1,
            source_l0: vec![],
            source_pages: first.new_target_pages.clone(),
            target_pages: vec![],
            epoch: 1,
        };
        index.process_merge(&cloud, &ledger, &req2, 0).unwrap();
        assert_eq!(index.replay_for(&req), None, "two epochs stale: no replay");
        assert_eq!(
            index.process_merge(&cloud, &ledger, &req, 0),
            Err(MergeError::EpochMismatch { expected: 2, got: 0 })
        );
    }

    #[test]
    fn forged_target_pages_rejected() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let p0 = certified_l0(&mut ledger, edge, 0, &[(1, b"a")]);
        // Target level is empty at the cloud; sending a forged page
        // must fail the root check.
        let forged = Arc::new(Page::new(
            0,
            u64::MAX,
            vec![KvRecord {
                key: 3,
                version: crate::kv::Version { bid: 0, pos: 0 },
                value: Some(b"evil".to_vec()),
            }],
            0,
        ));
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0],
            source_pages: vec![],
            target_pages: vec![forged],
            epoch: 0,
        };
        assert_eq!(
            index.process_merge(&cloud, &ledger, &req, 0),
            Err(MergeError::TargetRootMismatch)
        );
    }

    #[test]
    fn cascading_merge_level1_to_level2() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        // First: L0 -> L1.
        let p0 = certified_l0(&mut ledger, edge, 0, &[(1, b"a"), (2, b"b")]);
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = index.process_merge(&cloud, &ledger, &req, 10).unwrap();
        // Then: L1 -> L2 (deepest in the exposition config).
        let req2 = MergeRequest {
            edge,
            source_level: 1,
            source_l0: vec![],
            source_pages: res1.new_target_pages.clone(),
            target_pages: vec![],
            epoch: res1.new_epoch,
        };
        let res2 = index.process_merge(&cloud, &ledger, &req2, 20).unwrap();
        assert_eq!(res2.new_epoch, 2);
        assert_eq!(res2.new_source_root.as_ref().unwrap().root, empty_level_root());
        let keys: Vec<u64> =
            res2.new_target_pages.iter().flat_map(|p| p.records().iter().map(|r| r.key)).collect();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn tombstones_dropped_only_at_deepest_level() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let client = Identity::derive("client", 1);
        let entries = vec![
            kv_entry(&client, 0, &KvOp::put(1, b"v".to_vec())),
            kv_entry(&client, 1, &KvOp::delete(2)),
        ];
        let block = Block { edge, id: BlockId(0), entries, sealed_at_ns: 0 };
        ledger.offer(edge, block.id, block.digest());
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![Arc::new(L0Page::from_block(block))],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        // L0 -> L1: tombstone for key 2 survives (L1 is not deepest).
        let res1 = index.process_merge(&cloud, &ledger, &req, 0).unwrap();
        let has_tombstone = res1
            .new_target_pages
            .iter()
            .flat_map(|p| p.records().iter())
            .any(|r| r.key == 2 && r.value.is_none());
        assert!(has_tombstone);
        // L1 -> L2 (deepest): tombstone dropped.
        let req2 = MergeRequest {
            edge,
            source_level: 1,
            source_l0: vec![],
            source_pages: res1.new_target_pages.clone(),
            target_pages: vec![],
            epoch: res1.new_epoch,
        };
        let res2 = index.process_merge(&cloud, &ledger, &req2, 0).unwrap();
        let keys: Vec<u64> =
            res2.new_target_pages.iter().flat_map(|p| p.records().iter().map(|r| r.key)).collect();
        assert_eq!(keys, vec![1]);
    }

    /// The incremental rebuild: target pages the source does not touch
    /// come back as the *request's own* `Arc`s — same records, same
    /// range, same `created_at_ns`, same memoized digest — which is
    /// what the wire delta encodes as references.
    #[test]
    fn untouched_target_pages_are_reused_by_pointer() {
        let cloud = Identity::derive("cloud", 0);
        let mut ledger = CertLedger::new();
        let mut index =
            CloudIndex::new(LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 });
        let edge = IdentityId(9);
        index.init_edge(&cloud, edge, 0);
        // Merge 1: keys 0..8 → two L1 pages of 4 records each.
        let kvs: Vec<(u64, &[u8])> = (0..8u64).map(|k| (k, b"v".as_ref())).collect();
        let p0 = certified_l0(&mut ledger, edge, 0, &kvs[..4]);
        let p1 = certified_l0(&mut ledger, edge, 1, &kvs[4..]);
        let req1 = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0, p1],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = index.process_merge(&cloud, &ledger, &req1, 10).unwrap();
        assert_eq!(res1.new_target_pages.len(), 2);
        // Merge 2: one new key far to the right — only the last page's
        // range is dirty.
        let touch = certified_l0(&mut ledger, edge, 2, &[(1_000, b"t")]);
        let req2 = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };
        let res2 = index.process_merge(&cloud, &ledger, &req2, 20).unwrap();
        assert!(
            Arc::ptr_eq(&res2.new_target_pages[0], &req2.target_pages[0]),
            "clean page reused as the same Arc"
        );
        assert!(
            !Arc::ptr_eq(&res2.new_target_pages[1], &req2.target_pages[1]),
            "dirty region rebuilt"
        );
        assert!(check_level_ranges(&res2.new_target_pages).is_ok());
        // The delta reply names exactly that sharing.
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert_eq!(delta.reused_pages(), 1);
        assert_eq!(delta.pages[0], PageDelta::Reused(0));
        let resolved = delta.resolve(&req2).unwrap();
        assert_eq!(resolved, res2);
    }

    /// A pure level move (level ≥ 1 into an empty target, nothing to
    /// drop) reuses the source pages verbatim: the reply is all
    /// references.
    #[test]
    fn pure_level_move_reuses_source_pages() {
        let (cloud, mut ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let p0 = certified_l0(&mut ledger, edge, 0, &[(1, b"a"), (2, b"b")]);
        let req1 = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = index.process_merge(&cloud, &ledger, &req1, 10).unwrap();
        // L1 → empty L2: no tombstones, so the pages move as-is.
        let req2 = MergeRequest {
            edge,
            source_level: 1,
            source_l0: vec![],
            source_pages: res1.new_target_pages.clone(),
            target_pages: vec![],
            epoch: res1.new_epoch,
        };
        let res2 = index.process_merge(&cloud, &ledger, &req2, 20).unwrap();
        assert_eq!(res2.new_target_pages.len(), req2.source_pages.len());
        for (new, old) in res2.new_target_pages.iter().zip(&req2.source_pages) {
            assert!(Arc::ptr_eq(new, old), "pure move reuses the source Arc");
        }
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert_eq!(delta.full_pages(), 0, "a pure move ships zero pages");
        assert_eq!(delta.resolve(&req2).unwrap(), res2);
    }

    #[test]
    fn refresh_global_updates_timestamp_only() {
        let (cloud, _ledger, mut index, edge) = setup();
        let init = index.init_edge(&cloud, edge, 100);
        let refreshed = index.refresh_global(&cloud, edge, 500).unwrap();
        assert_eq!(refreshed.root, init.global.root);
        assert_eq!(refreshed.epoch, init.global.epoch);
        assert_eq!(refreshed.timestamp_ns, 500);
    }

    #[test]
    fn merge_out_of_deepest_level_rejected() {
        let (cloud, ledger, mut index, edge) = setup();
        index.init_edge(&cloud, edge, 0);
        let req = MergeRequest {
            edge,
            source_level: 2, // exposition config has merkle levels 1..2
            source_l0: vec![],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        assert_eq!(index.process_merge(&cloud, &ledger, &req, 0), Err(MergeError::BadLevel(2)));
    }

    #[test]
    fn unknown_edge_rejected() {
        let (cloud, ledger, mut index, edge) = setup();
        let req = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        assert_eq!(
            index.process_merge(&cloud, &ledger, &req, 0),
            Err(MergeError::UnknownEdge(edge))
        );
    }

    /// Builds a two-page L1 via merge 1, then a touch request whose
    /// target pages are exactly the run the cloud now retains —
    /// the shape every delta-request test starts from.
    fn retained_setup() -> (Identity, CertLedger, CloudIndex, IdentityId, MergeRequest, MergeResult)
    {
        let cloud = Identity::derive("cloud", 0);
        let mut ledger = CertLedger::new();
        let mut index =
            CloudIndex::new(LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 });
        let edge = IdentityId(9);
        index.init_edge(&cloud, edge, 0);
        let kvs: Vec<(u64, &[u8])> = (0..8u64).map(|k| (k, b"v".as_ref())).collect();
        let p0 = certified_l0(&mut ledger, edge, 0, &kvs[..4]);
        let p1 = certified_l0(&mut ledger, edge, 1, &kvs[4..]);
        let req1 = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![p0, p1],
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = index.process_merge(&cloud, &ledger, &req1, 10).unwrap();
        assert_eq!(res1.new_target_pages.len(), 2);
        let touch = certified_l0(&mut ledger, edge, 2, &[(1_000, b"t")]);
        let req2 = MergeRequest {
            edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };
        (cloud, ledger, index, edge, req2, res1)
    }

    /// The edge's view of what the cloud retains after `res1`.
    fn edge_view(edge: IdentityId, res1: &MergeResult) -> HashMap<u32, RetainedLevel> {
        let mut view = HashMap::new();
        view.insert(1, RetainedLevel::over(edge, 1, &res1.new_target_pages));
        view
    }

    #[test]
    fn delta_request_references_resolve_to_cloud_arcs() {
        let (cloud, ledger, mut index, edge, req2, res1) = retained_setup();
        let dreq = DeltaMergeRequest::delta_against(&req2, &edge_view(edge, &res1));
        // Both target pages are references; only the L0 block ships.
        assert_eq!(dreq.reused_pages(), 2);
        assert_eq!(dreq.full_pages(), 1);
        assert_eq!(dreq.retention, vec![(1, retention_fingerprint(edge, 1, &req2.target_pages))]);
        assert!(dreq.wire_size() < req2.wire_size());
        let resolved = index.resolve_delta_request(&dreq).unwrap();
        assert_eq!(resolved, req2);
        // Same fingerprint ⇒ the replay cache keyed on the resolved
        // request behaves identically for delta and full retries.
        assert_eq!(resolved.fingerprint(), req2.fingerprint());
        // References rehydrate into the cloud's *own* retained Arcs.
        let cloud_run = &index.state(edge).unwrap().retained.get(&1).unwrap().last().unwrap().pages;
        for (r, c) in resolved.target_pages.iter().zip(cloud_run) {
            assert!(Arc::ptr_eq(r, c), "resolution shares the cloud's Arc");
        }
        // Codec round-trip preserves the delta exactly.
        let mut enc = wedge_log::Encoder::default();
        dreq.encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = wedge_log::Decoder::new(&bytes);
        assert_eq!(DeltaMergeRequest::decode_from(&mut dec).unwrap(), dreq);
        dec.finish().unwrap();
        // And the resolved request merges.
        index.process_merge(&cloud, &ledger, &resolved, 20).unwrap();
    }

    #[test]
    fn stale_or_hostile_delta_requests_are_typed_errors() {
        let (_cloud, _ledger, mut index, edge, req2, res1) = retained_setup();
        let view = edge_view(edge, &res1);
        let dreq = DeltaMergeRequest::delta_against(&req2, &view);

        // Stale / forged retention claim.
        let mut stale = dreq.clone();
        stale.retention[0].1 = wedge_crypto::sha256(b"not the retained run");
        assert_eq!(
            index.resolve_delta_request(&stale),
            Err(DecodeError::Malformed("merge request retention claim stale or unknown"))
        );
        // Reference into a level the request never claimed.
        let mut undeclared = dreq.clone();
        undeclared.retention.clear();
        assert_eq!(
            index.resolve_delta_request(&undeclared),
            Err(DecodeError::Malformed("merge request references an undeclared level"))
        );
        // Out-of-range index.
        let mut hostile = dreq.clone();
        hostile.target_pages[0] = ReqPageSlot::Retained { level: 1, index: u32::MAX };
        assert_eq!(
            index.resolve_delta_request(&hostile),
            Err(DecodeError::Malformed("merge request reuse index out of range"))
        );
        // Unknown edge.
        let mut stranger = dreq.clone();
        stranger.edge = IdentityId(404);
        assert_eq!(
            index.resolve_delta_request(&stranger),
            Err(DecodeError::Malformed("delta merge request from unknown edge"))
        );
        // Evicted cache (cloud restart in miniature): same delta that
        // resolved fine a moment ago now earns a typed error.
        assert!(index.resolve_delta_request(&dreq).is_ok());
        index.evict_retained(edge);
        assert_eq!(
            index.resolve_delta_request(&dreq),
            Err(DecodeError::Malformed("merge request retention claim stale or unknown"))
        );
    }

    /// A delta retried after its reply was lost references runs that
    /// retention has since advanced past — the bounded one-prior-run
    /// window is exactly what keeps that retry resolvable, and the
    /// resolved fingerprint is what lets the replay cache answer it.
    #[test]
    fn delta_retry_after_lost_reply_resolves_against_prior_run_and_replays() {
        let (cloud, ledger, mut index, edge, req2, res1) = retained_setup();
        let dreq = DeltaMergeRequest::delta_against(&req2, &edge_view(edge, &res1));
        let resolved = index.resolve_delta_request(&dreq).unwrap();
        let res2 = index.process_merge(&cloud, &ledger, &resolved, 20).unwrap();
        // Reply lost; the edge retries the same delta. Level 1's
        // retained runs have advanced (the merge pushed a new run),
        // but the prior run still resolves the retry...
        let retried = index.resolve_delta_request(&dreq).unwrap();
        assert_eq!(retried, req2);
        // ...and the replay cache answers it without re-merging.
        assert_eq!(index.replay_for(&retried), Some(res2));
        // Runs per level stay bounded at two across further merges.
        let retained = &index.state(edge).unwrap().retained;
        assert!(retained.values().all(|runs| runs.len() <= 2));
    }

    /// Satellite: delta rehydration reuses memoized digests end to
    /// end. Request side: references resolve into the cloud's retained
    /// `Arc`s, whose digests were memoized when the prior merge built
    /// them — resolving hashes nothing, and fingerprinting the
    /// resolved request hashes exactly the wire-shipped full pages.
    /// Reply side: the edge resolves reply references into its own
    /// request `Arc`s, so only the pages shipped in full are ever
    /// hashed again.
    #[test]
    fn delta_paths_never_rehash_retained_pages() {
        use crate::page::hash_stats;
        let (cloud, ledger, mut index, edge, req2, res1) = retained_setup();
        // Request fingerprint baseline before any wire traffic: req2's
        // pages get their memos here, as on a real edge.
        let want_fp = req2.fingerprint();
        let dreq = DeltaMergeRequest::delta_against(&req2, &edge_view(edge, &res1));
        // Wire round-trip: the delta's full pages arrive memo-free,
        // the references as indices — exactly what the cloud decodes.
        let mut enc = wedge_log::Encoder::default();
        dreq.encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = wedge_log::Decoder::new(&bytes);
        let dreq = DeltaMergeRequest::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();

        let h0 = hash_stats::computed();
        let resolved = index.resolve_delta_request(&dreq).unwrap();
        assert_eq!(hash_stats::computed() - h0, 0, "request rehydration hashes nothing");

        let h1 = hash_stats::computed();
        assert_eq!(resolved.fingerprint(), want_fp, "delta and full retries share a fingerprint");
        assert_eq!(
            hash_stats::computed() - h1,
            dreq.full_pages(),
            "fingerprinting hashes only wire-shipped pages; retained references keep their memos"
        );

        // Reply side: merge, delta-encode the reply, round-trip it,
        // and resolve it against the request the way the edge does.
        let res2 = index.process_merge(&cloud, &ledger, &resolved, 20).unwrap();
        let dres = DeltaMergeResult::delta_against(&res2, &resolved);
        assert!(dres.reused_pages() > 0, "the reply must actually reference request pages");
        let mut enc = wedge_log::Encoder::default();
        dres.encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = wedge_log::Decoder::new(&bytes);
        let dres = DeltaMergeResult::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();

        let h2 = hash_stats::computed();
        let reply = dres.resolve(&resolved).unwrap();
        assert_eq!(hash_stats::computed() - h2, 0, "reply rehydration hashes nothing");
        let h3 = hash_stats::computed();
        for p in &reply.new_target_pages {
            p.digest();
        }
        assert_eq!(
            hash_stats::computed() - h3,
            dres.full_pages(),
            "only the reply's wire-shipped pages are hashed; reused references keep their memos"
        );
        assert_eq!(reply, res2, "the resolved reply is the full result, byte for byte");
    }

    #[test]
    fn page_counts_past_the_minimum_encoding_are_rejected() {
        use wedge_log::{DecodeError, Decoder, Encoder};
        // Enough elements that a bound one byte short of the minimum
        // would admit `K + 1`.
        const K: u64 = 64;
        fn encoded(put: impl FnOnce(&mut Encoder)) -> Vec<u8> {
            let mut enc = Encoder::default();
            put(&mut enc);
            enc.finish()
        }
        /// Decodes `head`, a count, and `K` copies of `elem`, for a
        /// count of `K` and of `K + 1`.
        fn verdicts<T>(
            decode: fn(&mut Decoder<'_>) -> Result<T, DecodeError>,
            head: &[u8],
            elem: &[u8],
        ) -> [Option<DecodeError>; 2] {
            [K, K + 1].map(|count| {
                let mut bytes = head.to_vec();
                bytes.extend(encoded(|e| {
                    e.put_u64(count);
                }));
                for _ in 0..K {
                    bytes.extend_from_slice(elem);
                }
                decode(&mut Decoder::new(&bytes)).err()
            })
        }
        let block = Block { edge: IdentityId(9), id: BlockId(0), entries: vec![], sealed_at_ns: 0 };
        let l0 = encoded(|e| L0Page::from_block(block).encode_into(e));
        let page = encoded(|e| Page::new(0, u64::MAX, vec![], 0).encode_into(e));
        assert_eq!((l0.len(), page.len()), (L0Page::MIN_ENCODED_LEN, Page::MIN_ENCODED_LEN));
        // Edge, level and epoch, then an empty count per earlier section.
        let request_head = |empty_sections: usize| {
            encoded(|e| {
                e.put_u64(9).put_u32(0).put_u64(0);
                for _ in 0..empty_sections {
                    e.put_u64(0);
                }
            })
        };
        let result_head = encoded(|e| {
            e.put_u64(9).put_u32(0);
        });
        let sites = [
            ("request L0", verdicts(MergeRequest::decode_from, &request_head(0), &l0)),
            ("request source", verdicts(MergeRequest::decode_from, &request_head(1), &page)),
            ("request target", verdicts(MergeRequest::decode_from, &request_head(2), &page)),
            ("delta request L0", verdicts(DeltaMergeRequest::decode_from, &request_head(1), &l0)),
            ("result target", verdicts(MergeResult::decode_from, &result_head, &page)),
        ];
        for (site, [at_k, past_k]) in sites {
            assert_ne!(at_k, Some(DecodeError::BadLength), "{site}: count K");
            assert_eq!(past_k, Some(DecodeError::BadLength), "{site}: count K + 1");
        }
    }
}
