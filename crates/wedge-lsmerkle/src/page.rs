//! Pages: the immutable storage unit of LSMerkle levels.
//!
//! Two kinds exist (§V-B):
//!
//! - **L0 pages** ([`L0Page`]) wrap a sealed WedgeChain block: the
//!   page's digest *is* the block digest, so one block-certify /
//!   block-proof exchange certifies both the log block and the index
//!   page. Records are pre-sorted by `(key, newest version first)` at
//!   construction so lookups binary-search; several versions of a key
//!   may coexist.
//! - **Sorted pages** ([`Page`]) for levels ≥ 1: records sorted by
//!   key, at most one version per key, and an explicit `[min, max]`
//!   key range obeying the adjacency invariant `p_x.max = p_y.min − 1`
//!   with the first page's min = 0 and the last page's max = ∞
//!   (`u64::MAX`).
//!
//! Both kinds are **immutable after construction** and carry a
//! lazily-computed, memoized digest: a page is hashed at most once per
//! lifetime, no matter how many merge requests, read proofs, or
//! verifications it flows through. Pages are shared as `Arc<Page>` /
//! `Arc<L0Page>` between the tree, merge messages, and read proofs,
//! so building those clones pointers, not records.

use crate::kv::{Key, KvRecord};
use std::sync::{Arc, OnceLock};
use wedge_crypto::Digest;
use wedge_log::{DecodeError, Decoder, Encoder, Wire};

/// Test-only instrumentation proving the hash-once property: pages
/// constructed and page digests actually computed (cache misses) on
/// the current thread. Thread-local so concurrently running tests
/// cannot pollute each other's counts.
#[cfg(test)]
pub(crate) mod hash_stats {
    use std::cell::Cell;

    thread_local! {
        pub static PAGES_CONSTRUCTED: Cell<u64> = const { Cell::new(0) };
        pub static DIGESTS_COMPUTED: Cell<u64> = const { Cell::new(0) };
        pub static L0_DECODE_CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    pub fn constructed() -> u64 {
        PAGES_CONSTRUCTED.with(|c| c.get())
    }

    pub fn computed() -> u64 {
        DIGESTS_COMPUTED.with(|c| c.get())
    }

    /// `L0Page::matches_block` executions (each one re-decodes and
    /// re-sorts the block) — what the read-proof cache avoids.
    pub fn l0_decode_checks() -> u64 {
        L0_DECODE_CHECKS.with(|c| c.get())
    }

    pub(super) fn note_constructed() {
        PAGES_CONSTRUCTED.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn note_computed() {
        DIGESTS_COMPUTED.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn note_l0_decode_check() {
        L0_DECODE_CHECKS.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
use hash_stats::{note_computed, note_constructed, note_l0_decode_check};

#[cfg(not(test))]
fn note_constructed() {}

#[cfg(not(test))]
fn note_computed() {}

#[cfg(not(test))]
fn note_l0_decode_check() {}

/// A sorted, range-covering page in level ≥ 1. Immutable: fields are
/// fixed at construction so the memoized digest can never go stale.
#[derive(Debug)]
pub struct Page {
    min: Key,
    max: Key,
    records: Vec<KvRecord>,
    created_at_ns: u64,
    digest: OnceLock<Digest>,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        // The cached digest stays valid on a clone because the logical
        // fields are immutable.
        Page {
            min: self.min,
            max: self.max,
            records: self.records.clone(),
            created_at_ns: self.created_at_ns,
            digest: self.digest.clone(),
        }
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.min == other.min
            && self.max == other.max
            && self.created_at_ns == other.created_at_ns
            && self.records == other.records
    }
}

impl Eq for Page {}

impl Page {
    /// Builds a page. `records` must be strictly sorted by key and lie
    /// within `[min, max]` ([`check_level_ranges`] checks both).
    pub fn new(min: Key, max: Key, records: Vec<KvRecord>, created_at_ns: u64) -> Self {
        note_constructed();
        Page { min, max, records, created_at_ns, digest: OnceLock::new() }
    }

    /// Smallest key this page is responsible for (inclusive).
    pub fn min(&self) -> Key {
        self.min
    }

    /// Largest key this page is responsible for (inclusive).
    pub fn max(&self) -> Key {
        self.max
    }

    /// Records sorted by key; at most one version per key.
    pub fn records(&self) -> &[KvRecord] {
        &self.records
    }

    /// Virtual time (ns) the page was created (at merge time).
    pub fn created_at_ns(&self) -> u64 {
        self.created_at_ns
    }

    /// The digest if it is memoized already (computed, or cloned with
    /// the page); `None` for a page nobody has hashed yet, such as one
    /// just decoded off the wire. Never hashes.
    pub fn memoized_digest(&self) -> Option<Digest> {
        self.digest.get().copied()
    }

    /// Canonical digest of the page — computed on first use, memoized
    /// for the page's lifetime.
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| {
            note_computed();
            // The tag, then exactly the wire encoding.
            let mut enc = Encoder::with_tag_and_capacity("wedge-page-v1", self.encoded_len());
            self.encode_into(&mut enc);
            wedge_crypto::sha256(&enc.finish())
        })
    }

    /// True iff `key` falls in this page's responsibility range.
    pub fn covers(&self, key: Key) -> bool {
        self.min <= key && key <= self.max
    }

    /// Binary-searches for `key` among the sorted records.
    pub fn lookup(&self, key: Key) -> Option<&KvRecord> {
        self.records.binary_search_by_key(&key, |r| r.key).ok().map(|i| &self.records[i])
    }

    /// Checks internal well-formedness: sorted unique keys, all within
    /// `[min, max]`.
    fn check_invariants(&self) -> Result<(), String> {
        for w in self.records.windows(2) {
            if w[0].key >= w[1].key {
                return Err(format!("records not strictly sorted: {} !< {}", w[0].key, w[1].key));
            }
        }
        for r in &self.records {
            if !self.covers(r.key) {
                return Err(format!(
                    "record key {} outside range [{}, {}]",
                    r.key, self.min, self.max
                ));
            }
        }
        if self.min > self.max {
            return Err(format!("inverted range [{}, {}]", self.min, self.max));
        }
        Ok(())
    }

    /// Approximate wire size (for the network model). `u64`: levels
    /// can exceed 4 GiB, and a wrapped size corrupts cost accounting.
    pub fn wire_size(&self) -> u64 {
        28 + self.records.iter().map(|r| r.wire_size()).sum::<u64>()
    }
}

/// Exactly the logical fields, so decode∘encode is the identity and
/// the decoded page's (lazily recomputed) digest equals the original's.
/// Decoded pages come back as `Arc<Page>`s through `Arc`'s impl: the
/// same shared representation the in-process paths use, so merge
/// results and read proofs decoded off the wire share pages with the
/// tree exactly like local ones.
impl Wire for Page {
    const MIN_LEN: usize = 3 * u64::MIN_LEN + Vec::<KvRecord>::MIN_LEN;
    fn encoded_len(&self) -> usize {
        3 * u64::MIN_LEN + self.records.encoded_len()
    }
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.min).put_u64(self.max).put_u64(self.created_at_ns).put(&self.records);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let (min, max, created_at_ns) = (dec.get_u64()?, dec.get_u64()?, dec.get_u64()?);
        Ok(Page::new(min, max, dec.get()?, created_at_ns))
    }
}

/// Checks the paper's level-wide range invariants over adjacent pages:
/// first `min = 0`, last `max = ∞`, and `p_x.max = p_y.min − 1`.
pub fn check_level_ranges(pages: &[Arc<Page>]) -> Result<(), String> {
    if pages.is_empty() {
        return Ok(());
    }
    if pages[0].min() != 0 {
        return Err(format!("first page min is {}, expected 0", pages[0].min()));
    }
    if pages[pages.len() - 1].max() != Key::MAX {
        return Err("last page max is not infinity".into());
    }
    for w in pages.windows(2) {
        if w[0].max() != w[1].min() - 1 {
            return Err(format!("adjacency violated: max {} then min {}", w[0].max(), w[1].min()));
        }
    }
    for p in pages {
        p.check_invariants()?;
    }
    Ok(())
}

/// An L0 page: a sealed block viewed as index records. Immutable, with
/// a memoized digest (= the block digest).
#[derive(Debug)]
pub struct L0Page {
    /// The underlying block (kept so the cloud can re-verify the block
    /// digest against its cert ledger during merges).
    block: wedge_log::Block,
    /// KV records decoded from the block, sorted by `(key asc, version
    /// desc)` — the newest version of a key comes first.
    records: Vec<KvRecord>,
    digest: OnceLock<Digest>,
}

impl Clone for L0Page {
    fn clone(&self) -> Self {
        L0Page {
            block: self.block.clone(),
            records: self.records.clone(),
            digest: self.digest.clone(),
        }
    }
}

impl PartialEq for L0Page {
    fn eq(&self, other: &Self) -> bool {
        self.block == other.block && self.records == other.records
    }
}

impl Eq for L0Page {}

impl L0Page {
    /// Builds an L0 page from a sealed block.
    pub fn from_block(block: wedge_log::Block) -> Self {
        let records = Self::sorted_records(&block);
        note_constructed();
        L0Page { block, records, digest: OnceLock::new() }
    }

    /// Builds an L0 page from a sealed block whose digest the caller
    /// already computed (e.g. at seal time), seeding the memo so the
    /// block is never hashed again. `digest` **must** be
    /// `block.digest()` — passing anything else poisons every check
    /// downstream (debug-asserted).
    pub fn from_block_with_digest(block: wedge_log::Block, digest: Digest) -> Self {
        debug_assert_eq!(digest, block.digest(), "seeded digest must match the block");
        let records = Self::sorted_records(&block);
        note_constructed();
        let memo = OnceLock::new();
        let _ = memo.set(digest);
        L0Page { block, records, digest: memo }
    }

    /// Adversarial/test constructor: an L0 page whose advertised
    /// records need *not* match its block. Merge and proof
    /// verification must catch the mismatch — this models a lying
    /// edge, never honest code.
    #[doc(hidden)]
    pub fn forged(block: wedge_log::Block, records: Vec<KvRecord>) -> Self {
        note_constructed();
        L0Page { block, records, digest: OnceLock::new() }
    }

    /// The canonical record decode of `block`, in L0 page order:
    /// `(key asc, version desc)`.
    fn sorted_records(block: &wedge_log::Block) -> Vec<KvRecord> {
        let mut records = crate::kv::records_from_block(block);
        records.sort_unstable_by(|a, b| a.key.cmp(&b.key).then(b.version.cmp(&a.version)));
        records
    }

    /// True iff the advertised records are exactly the canonical
    /// decode of the underlying block. Verifiers must never trust the
    /// denormalized `records` (they are not covered by the block
    /// digest) without this check.
    pub fn matches_block(&self) -> bool {
        note_l0_decode_check();
        Self::sorted_records(&self.block) == self.records
    }

    /// The underlying sealed block.
    pub fn block(&self) -> &wedge_log::Block {
        &self.block
    }

    /// Records sorted by `(key asc, version desc)`.
    pub fn records(&self) -> &[KvRecord] {
        &self.records
    }

    /// The page digest — identical to the block digest, so one
    /// certification covers both (§V-B "Put operations"). Memoized.
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| {
            note_computed();
            self.block.digest()
        })
    }

    /// The newest record for `key` within this page, if any. Binary
    /// search: records are sorted by `(key asc, version desc)`, so the
    /// first record of a key run is the newest.
    pub fn lookup(&self, key: Key) -> Option<&KvRecord> {
        let idx = self.records.partition_point(|r| r.key < key);
        self.records.get(idx).filter(|r| r.key == key)
    }

    /// The page's block id (doubles as its version epoch).
    pub fn bid(&self) -> u64 {
        self.block.id.0
    }

    /// Wire size when shipped to the cloud for merging.
    pub fn wire_size(&self) -> u64 {
        self.block.wire_size()
    }
}

/// The underlying block's wire form, nothing else. The denormalized
/// `records` are *derived* state — re-deriving them on decode means a
/// forged L0 page (records ≠ block) is not even representable on the
/// wire, and the decoded page's digest is the block digest by
/// construction.
impl Wire for L0Page {
    const MIN_LEN: usize = wedge_log::Block::MIN_LEN;
    fn encoded_len(&self) -> usize {
        self.block.encoded_len()
    }
    fn encode_into(&self, enc: &mut Encoder) {
        self.block.encode_into(enc);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(L0Page::from_block(dec.get()?))
    }
}

/// The newest record for `key` across a set of L0 pages (used by
/// proof verification, which holds references into a proof structure).
pub fn l0_lookup_pages<'a>(pages: &[&'a L0Page], key: Key) -> Option<&'a KvRecord> {
    pages.iter().filter_map(|p| p.lookup(key)).max_by_key(|r| r.version)
}

/// Splits merged, sorted records into range-covering pages of at most
/// `page_capacity` records, assigning ranges that satisfy
/// [`check_level_ranges`].
pub fn split_into_pages(
    records: Vec<KvRecord>,
    page_capacity: usize,
    now_ns: u64,
) -> Vec<Arc<Page>> {
    if records.is_empty() {
        assert!(page_capacity > 0);
        return Vec::new();
    }
    split_into_range_pages(records, page_capacity, now_ns, 0, Key::MAX)
}

/// Like [`split_into_pages`], but confined to the key range
/// `[range_min, range_max]`: the first page's min is `range_min`, the
/// last page's max is `range_max`, adjacency holds in between. Used to
/// rebuild only the *dirty region* of a level during an incremental
/// merge, so the pages on either side keep their ranges untouched.
/// Empty `records` still emit one empty page — the region's range must
/// stay covered for the level-wide adjacency invariant to survive.
pub fn split_into_range_pages(
    records: Vec<KvRecord>,
    page_capacity: usize,
    now_ns: u64,
    range_min: Key,
    range_max: Key,
) -> Vec<Arc<Page>> {
    assert!(page_capacity > 0);
    assert!(range_min <= range_max, "inverted region range");
    if records.is_empty() {
        return vec![Arc::new(Page::new(range_min, range_max, Vec::new(), now_ns))];
    }
    debug_assert!(records.first().is_some_and(|r| r.key >= range_min));
    debug_assert!(records.last().is_some_and(|r| r.key <= range_max));
    let n = records.len().div_ceil(page_capacity);
    let mut pages = Vec::with_capacity(n);
    let mut next_min: Key = range_min;
    let mut chunks = records.chunks(page_capacity).peekable();
    while let Some(chunk) = chunks.next() {
        let max = match chunks.peek() {
            // Boundary: one below the next chunk's first key.
            Some(next) => next[0].key - 1,
            None => range_max,
        };
        pages.push(Arc::new(Page::new(next_min, max, chunk.to_vec(), now_ns)));
        next_min = max.wrapping_add(1);
    }
    pages
}

/// Finds the unique page covering `key` in a range-partitioned level.
pub fn find_covering(pages: &[Arc<Page>], key: Key) -> Option<(usize, &Arc<Page>)> {
    // Pages are sorted by min; binary search the partition point.
    let idx = pages.partition_point(|p| p.max() < key);
    pages.get(idx).filter(|p| p.covers(key)).map(|p| (idx, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Version;
    use crate::kv::{kv_entry, KvOp};
    use wedge_crypto::{Identity, IdentityId};
    use wedge_log::{Block, BlockId};

    fn rec(key: Key, bid: u64, val: &[u8]) -> KvRecord {
        KvRecord { key, version: Version { bid, pos: 0 }, value: Some(val.to_vec()) }
    }

    #[test]
    fn page_lookup_and_covers() {
        let p = Page::new(10, 20, vec![rec(11, 1, b"a"), rec(15, 1, b"b"), rec(20, 1, b"c")], 0);
        assert!(p.covers(10) && p.covers(20));
        assert!(!p.covers(9) && !p.covers(21));
        assert_eq!(p.lookup(15).unwrap().value.as_deref(), Some(b"b".as_ref()));
        assert!(p.lookup(12).is_none());
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn invariant_checks_catch_violations() {
        let unsorted = Page::new(0, Key::MAX, vec![rec(5, 1, b"a"), rec(3, 1, b"b")], 0);
        assert!(unsorted.check_invariants().is_err());
        let out_of_range = Page::new(10, 20, vec![rec(5, 1, b"a")], 0);
        assert!(out_of_range.check_invariants().is_err());
    }

    #[test]
    fn split_satisfies_level_ranges() {
        let records: Vec<KvRecord> = (0..10).map(|i| rec(i * 7 + 3, 1, b"v")).collect();
        let pages = split_into_pages(records, 3, 99);
        assert_eq!(pages.len(), 4);
        assert!(check_level_ranges(&pages).is_ok());
        assert_eq!(pages[0].min(), 0);
        assert_eq!(pages.last().unwrap().max(), Key::MAX);
        // Adjacency: p_x.max = p_y.min - 1 (checked), and every key
        // findable via find_covering.
        for i in 0..10u64 {
            let key = i * 7 + 3;
            let (_, p) = find_covering(&pages, key).unwrap();
            assert_eq!(p.lookup(key).unwrap().key, key);
        }
    }

    #[test]
    fn split_empty_is_empty() {
        assert!(split_into_pages(vec![], 4, 0).is_empty());
    }

    #[test]
    fn find_covering_misses_nothing() {
        let records: Vec<KvRecord> = [10u64, 20, 30, 40].iter().map(|&k| rec(k, 1, b"v")).collect();
        let pages = split_into_pages(records, 2, 0);
        // Keys between records still map to exactly one covering page.
        for key in [0u64, 10, 15, 25, 39, 40, 41, Key::MAX] {
            let hits = pages.iter().filter(|p| p.covers(key)).count();
            assert_eq!(hits, 1, "key {key} covered by {hits} pages");
            assert!(find_covering(&pages, key).is_some());
        }
    }

    #[test]
    fn page_digest_binds_everything() {
        let p = Page::new(0, Key::MAX, vec![rec(1, 1, b"a")], 0);
        let q = Page::new(0, 100, vec![rec(1, 1, b"a")], 0);
        assert_ne!(p.digest(), q.digest());
        let q = Page::new(0, Key::MAX, vec![rec(1, 1, b"b")], 0);
        assert_ne!(p.digest(), q.digest());
        let q = Page::new(
            0,
            Key::MAX,
            vec![KvRecord {
                key: 1,
                version: Version { bid: 2, pos: 0 },
                value: Some(b"a".to_vec()),
            }],
            0,
        );
        assert_ne!(p.digest(), q.digest());
    }

    #[test]
    fn cloned_page_keeps_digest() {
        let p = Page::new(0, Key::MAX, vec![rec(1, 1, b"a")], 0);
        let d = p.digest();
        let q = p.clone();
        assert_eq!(q.digest(), d);
    }

    #[test]
    fn l0_page_digest_equals_block_digest() {
        let client = Identity::derive("client", 1);
        let block = Block {
            edge: IdentityId(9),
            id: BlockId(0),
            entries: vec![kv_entry(&client, 0, &KvOp::put(1, b"v".to_vec()))],
            sealed_at_ns: 0,
        };
        let digest = block.digest();
        let page = L0Page::from_block(block.clone());
        assert_eq!(page.digest(), digest);
        let seeded = L0Page::from_block_with_digest(block, digest);
        assert_eq!(seeded.digest(), digest);
    }

    #[test]
    fn l0_lookup_newest_version_wins() {
        let client = Identity::derive("client", 1);
        let mk_block = |bid: u64, val: &[u8]| Block {
            edge: IdentityId(9),
            id: BlockId(bid),
            entries: vec![kv_entry(&client, bid, &KvOp::put(5, val.to_vec()))],
            sealed_at_ns: 0,
        };
        let pages =
            [L0Page::from_block(mk_block(0, b"old")), L0Page::from_block(mk_block(1, b"new"))];
        let refs: Vec<&L0Page> = pages.iter().collect();
        let r = l0_lookup_pages(&refs, 5).unwrap();
        assert_eq!(r.value.as_deref(), Some(b"new".as_ref()));
        assert!(l0_lookup_pages(&refs, 6).is_none());
    }

    #[test]
    fn l0_page_multiple_versions_within_block() {
        let client = Identity::derive("client", 1);
        let block = Block {
            edge: IdentityId(9),
            id: BlockId(0),
            entries: vec![
                kv_entry(&client, 0, &KvOp::put(5, b"first".to_vec())),
                kv_entry(&client, 1, &KvOp::put(5, b"second".to_vec())),
            ],
            sealed_at_ns: 0,
        };
        let page = L0Page::from_block(block);
        assert_eq!(page.lookup(5).unwrap().value.as_deref(), Some(b"second".as_ref()));
    }

    #[test]
    fn l0_records_sorted_and_match_block() {
        let client = Identity::derive("client", 1);
        let block = Block {
            edge: IdentityId(9),
            id: BlockId(3),
            entries: vec![
                kv_entry(&client, 0, &KvOp::put(9, b"a".to_vec())),
                kv_entry(&client, 1, &KvOp::put(2, b"b".to_vec())),
                kv_entry(&client, 2, &KvOp::put(9, b"c".to_vec())),
            ],
            sealed_at_ns: 0,
        };
        let page = L0Page::from_block(block);
        let keys: Vec<u64> = page.records().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 9, 9]);
        // Newest version of key 9 first.
        assert_eq!(page.records()[1].value.as_deref(), Some(b"c".as_ref()));
        assert!(page.matches_block());
        // A forged page (records not matching the block) is detected.
        let forged = L0Page::forged(page.block().clone(), vec![]);
        assert!(!forged.matches_block());
    }
}
