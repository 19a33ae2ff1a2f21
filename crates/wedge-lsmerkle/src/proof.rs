//! Read proofs: trusted gets from an untrusted edge (§V-B "Reading").
//!
//! A get's response must prove the returned version is the *newest*
//! one. The edge therefore returns: every L0 page (any could hold a
//! newer version), the unique range-covering page of every Merkle
//! level down to the hit (its `[min, max]` proves no other page in
//! that level can hold the key), each page's Merkle inclusion proof,
//! all level roots, and the cloud-signed timestamped global root. A
//! missing key returns the same material for *all* levels — an absence
//! proof.
//!
//! The client recomputes everything: inclusion paths, the global root
//! hash, the newest-version selection, and the freshness window. L0
//! pages certified by block-proofs make the read Phase II; any
//! uncertified L0 page downgrades it to Phase I (lazy trust: the
//! signed response is dispute evidence).

use crate::kv::{Key, KvRecord, Value};
use crate::level::{compute_global_root, empty_level_root, GlobalRootCert};
use crate::page::{l0_lookup_pages, L0Page, Page};
use crate::tree::LsMerkle;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use wedge_crypto::{Digest, IdentityId, InclusionProof, KeyRegistry, MerkleTree};
use wedge_log::{BlockProof, CommitPhase, Encoder};

/// An L0 page plus its certification, if any. The page is shared with
/// the tree (`Arc`): building a witness clones a pointer, not records.
#[derive(Clone, Debug, PartialEq)]
pub struct L0Witness {
    /// The page (block-backed).
    pub page: Arc<L0Page>,
    /// The cloud's block-proof; `None` ⇒ the read is Phase I.
    pub proof: Option<BlockProof>,
}

/// The covering page of one Merkle level, with its inclusion proof.
/// The page is shared with the tree (`Arc`).
#[derive(Clone, Debug, PartialEq)]
pub struct LevelWitness {
    /// Level number (1-based).
    pub level: u32,
    /// The unique page whose `[min, max]` covers the key.
    pub page: Arc<Page>,
    /// Merkle inclusion proof of the page under the level's root.
    pub inclusion: InclusionProof,
}

/// Everything a client needs to verify a get response.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexReadProof {
    /// The edge that served the read.
    pub edge: IdentityId,
    /// The requested key.
    pub key: Key,
    /// The newest record, or `None` if the key is absent (or deleted).
    pub outcome: Option<KvRecord>,
    /// Every L0 page.
    pub l0: Vec<L0Witness>,
    /// Covering pages for levels `1..=hit_level` (or all non-empty
    /// levels for an absence proof).
    pub witnesses: Vec<LevelWitness>,
    /// Roots of all Merkle levels L1..Ln.
    pub level_roots: Vec<Digest>,
    /// The cloud-signed timestamped global root.
    pub global: GlobalRootCert,
}

impl IndexReadProof {
    /// Approximate wire size of the proof (drives the network model).
    pub fn wire_size(&self) -> u64 {
        let l0: u64 = self.l0.iter().map(|w| w.page.wire_size() + 88).sum();
        let lv: u64 = self
            .witnesses
            .iter()
            .map(|w| w.page.wire_size() + 32 * (w.inclusion.siblings.len() as u64 + 1))
            .sum();
        l0 + lv + 32 * self.level_roots.len() as u64 + 96
    }

    /// Exact byte length of [`IndexReadProof::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        let l0: usize = self
            .l0
            .iter()
            .map(|w| {
                w.page.encoded_len()
                    + 1
                    + w.proof.as_ref().map_or(0, |_| wedge_log::BlockProof::ENCODED_LEN)
            })
            .sum();
        let wit: usize = self
            .witnesses
            .iter()
            .map(|w| 4 + w.page.encoded_len() + 8 + 8 + 32 * w.inclusion.siblings.len())
            .sum();
        8 + 8
            + 1
            + self.outcome.as_ref().map_or(0, |r| r.encoded_len())
            + (8 + l0)
            + (8 + wit)
            + (8 + 32 * self.level_roots.len())
            + GlobalRootCert::ENCODED_LEN
    }

    /// Canonical nestable wire encoding of the whole proof.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.edge.0).put_u64(self.key);
        enc.put_option(self.outcome.as_ref(), |e, r| r.encode_into(e));
        enc.put_u64(self.l0.len() as u64);
        for w in &self.l0 {
            w.page.encode_into(enc);
            enc.put_option(w.proof.as_ref(), |e, p| p.encode_into(e));
        }
        enc.put_u64(self.witnesses.len() as u64);
        for w in &self.witnesses {
            enc.put_u32(w.level);
            w.page.encode_into(enc);
            enc.put_u64(w.inclusion.leaf_index as u64);
            enc.put_u64(w.inclusion.siblings.len() as u64);
            for s in &w.inclusion.siblings {
                enc.put_digest(s);
            }
        }
        enc.put_u64(self.level_roots.len() as u64);
        for r in &self.level_roots {
            enc.put_digest(r);
        }
        self.global.encode_into(enc);
    }

    /// Inverse of [`IndexReadProof::encode_into`]. Decoded pages are
    /// fresh `Arc`s with no digest memo; nothing is verified here — the
    /// decoded proof goes through [`verify_read_proof`] like any other.
    /// A level page is therefore hashed on its first verification. A
    /// verifier with a [`ReadProofCache`] hashes each distinct level
    /// page once: a later decode of an equal page takes the digest the
    /// cache remembers. Each witness count is bounded by the fewest bytes one
    /// witness can encode to, so a hostile count cannot reserve memory
    /// the remaining input could never fill.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, wedge_log::DecodeError> {
        use wedge_log::DecodeError;
        let edge = IdentityId(dec.get_u64()?);
        let key = dec.get_u64()?;
        let outcome = dec.get_option(KvRecord::decode_from)?;
        let n_l0 = dec.get_count(L0_WITNESS_MIN_LEN)?;
        let mut l0 = Vec::with_capacity(n_l0);
        for _ in 0..n_l0 {
            let page = L0Page::decode_from(dec)?;
            let proof = dec.get_option(BlockProof::decode_from)?;
            l0.push(L0Witness { page, proof });
        }
        let n_wit = dec.get_count(LEVEL_WITNESS_MIN_LEN)?;
        let mut witnesses = Vec::with_capacity(n_wit);
        for _ in 0..n_wit {
            let level = dec.get_u32()?;
            let page = Page::decode_from(dec)?;
            let leaf_index = dec.get_u64()?;
            let leaf_index =
                usize::try_from(leaf_index).map_err(|_| DecodeError::Malformed("leaf index"))?;
            let n_sib = dec.get_count(32)?;
            let mut siblings = Vec::with_capacity(n_sib);
            for _ in 0..n_sib {
                siblings.push(dec.get_digest()?);
            }
            witnesses.push(LevelWitness {
                level,
                page,
                inclusion: InclusionProof { leaf_index, siblings },
            });
        }
        let n_roots = dec.get_count(32)?;
        let mut level_roots = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            level_roots.push(dec.get_digest()?);
        }
        let global = GlobalRootCert::decode_from(dec)?;
        Ok(IndexReadProof { edge, key, outcome, l0, witnesses, level_roots, global })
    }
}

/// Fewest bytes one encoded L0 witness takes: an empty block's page
/// and the proof's option tag.
const L0_WITNESS_MIN_LEN: usize = L0Page::MIN_ENCODED_LEN + 1;

/// Fewest bytes one encoded level witness takes: the level, an empty
/// page, the leaf index and the sibling count.
const LEVEL_WITNESS_MIN_LEN: usize = 4 + Page::MIN_ENCODED_LEN + 8 + 8;

/// A verified read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedRead {
    /// The value (`None` = key absent or deleted).
    pub value: Option<Value>,
    /// Phase II iff every L0 page in the proof was certified.
    pub phase: CommitPhase,
    /// The global root's freshness timestamp.
    pub timestamp_ns: u64,
}

/// Why proof verification failed — each variant is evidence of a
/// malformed or malicious response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// Global root signature invalid or from the wrong edge.
    BadGlobalCert,
    /// Level roots do not hash to the signed global root.
    RootsMismatch,
    /// The global root is older than the freshness window allows.
    Stale {
        /// Timestamp in the proof.
        timestamp_ns: u64,
        /// Verifier's current time.
        now_ns: u64,
    },
    /// A level witness's inclusion proof failed.
    BadInclusion(u32),
    /// A level witness's page does not cover the key.
    NotCovering(u32),
    /// A required level witness is missing.
    MissingLevel(u32),
    /// An L0 page's block-proof does not verify or does not match.
    BadL0Proof(u64),
    /// The claimed outcome is not the newest record in the material.
    WrongOutcome,
    /// Duplicate witness for a level.
    DuplicateLevel(u32),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ProofError {}

/// A verifying client's memo of the §V-B read-proof material it has
/// already checked. Every get re-ships all L0 pages with their
/// block-proofs and one page per Merkle level, so without it a client
/// that reads repeatedly re-decodes each L0 block
/// ([`L0Page::matches_block`]), re-checks cloud signatures it usually
/// checked already at Phase II (§IV), and re-hashes every level page
/// decoded off the wire.
///
/// Trust rule: the memo answers only for a fact equal to one it
/// admitted, admits a fact only after its full check passed, and keeps
/// no trace of a failed check. Equal means, per fact:
///
/// - L0 page: pointer-identical (`Arc::ptr_eq`) to the verified page,
///   or with equal records. The block digest does not cover the
///   denormalized records, so a digest match alone never suffices.
/// - Block-proof ([`check_block_proof`](Self::check_block_proof)):
///   byte-equal. It vouches for its signature only; its binding to a
///   witness (edge, block id, digest) is checked on every witness.
/// - Level page: equal `min`, `max`, `created_at_ns` and records, every
///   input of its digest. Only pages without a digest memo (decoded
///   off the wire) consult it; it saves the hash, not the checks.
///
/// L0 pages and proofs share one entry per block digest, at most `cap`
/// entries. Level pages are keyed by range and timestamp, at most
/// [`LEVEL_MEMO_PAGES`] and [`LEVEL_MEMO_BYTES`]. Both evict the least
/// recently used first. One mutex guards the memo, held for one lookup
/// or admit and never across a decode, hash or signature check. One
/// cache serves one cloud: its verifiers share its identity and key
/// registry.
#[derive(Debug)]
pub struct ReadProofCache {
    memo: Mutex<Memo>,
}

/// Most wire-decoded level pages a [`ReadProofCache`] remembers.
pub const LEVEL_MEMO_PAGES: usize = 16;

/// Most encoded bytes of level pages a [`ReadProofCache`] remembers; a
/// larger page is hashed on every get.
pub const LEVEL_MEMO_BYTES: usize = 1 << 20;

#[derive(Debug)]
struct Memo {
    l0: Lru<Digest, L0Entry>,
    /// Verified level pages with the digests the verifier computed.
    levels: Lru<(Key, Key, u64), (Arc<Page>, Digest)>,
    /// L0 page consults answered from the memo.
    hits: u64,
    /// L0 page consults that had to run `matches_block`.
    misses: u64,
    signature_checks: u64,
    level_page_hashes: u64,
}

/// A verified page, a verified block-proof, or both, for one digest.
#[derive(Debug, Default)]
struct L0Entry {
    page: Option<Arc<L0Page>>,
    proof: Option<BlockProof>,
}

/// A map capped by entries and by bytes that evicts the least recently
/// used entry first. Keys are also ordered by last use, so an eviction
/// takes the first key instead of scanning up to 4 096 entries.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Keys by last use, least recent first.
    order: BTreeMap<u64, K>,
    /// Access clock, advanced and stamped on every lookup and insert.
    clock: u64,
    bytes: usize,
    max_len: usize,
    max_bytes: usize,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    used: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new(max_len: usize, max_bytes: usize) -> Self {
        let (map, order) = (HashMap::new(), BTreeMap::new());
        Lru { map, order, clock: 0, bytes: 0, max_len: max_len.max(1), max_bytes }
    }

    /// The value under `key`, now the most recently used.
    fn get(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.map.get_mut(key)?;
        self.order.remove(&slot.used);
        self.clock += 1;
        slot.used = self.clock;
        self.order.insert(self.clock, *key);
        Some(&mut slot.value)
    }

    /// Stores `value` of `bytes` under an absent `key` as the most
    /// recently used, then evicts past either cap. A present key keeps
    /// its value, and a value over the byte cap is not stored.
    fn insert(&mut self, key: K, value: V, bytes: usize) {
        if bytes > self.max_bytes || self.map.contains_key(&key) {
            return;
        }
        self.clock += 1;
        self.map.insert(key, Slot { value, bytes, used: self.clock });
        self.order.insert(self.clock, key);
        self.bytes += bytes;
        while self.map.len() > self.max_len || self.bytes > self.max_bytes {
            let (_, lru) = self.order.pop_first().expect("over a cap, so not empty");
            self.bytes -= self.map.remove(&lru).expect("every ordered key is stored").bytes;
        }
    }
}

impl Memo {
    /// The L0 entry for `digest`, created empty if absent.
    fn l0_entry(&mut self, digest: Digest) -> &mut L0Entry {
        self.l0.insert(digest, L0Entry::default(), 0);
        self.l0.get(&digest).expect("the newest entry is never evicted")
    }
}

/// A level page's memo key: its range and timestamp.
fn level_key(page: &Page) -> (Key, Key, u64) {
    (page.min(), page.max(), page.created_at_ns())
}

impl ReadProofCache {
    /// A cache of at most `cap` L0 entries (at least one).
    pub fn new(cap: usize) -> Self {
        let memo = Memo {
            l0: Lru::new(cap, usize::MAX),
            levels: Lru::new(LEVEL_MEMO_PAGES, LEVEL_MEMO_BYTES),
            hits: 0,
            misses: 0,
            signature_checks: 0,
            level_page_hashes: 0,
        };
        ReadProofCache { memo: Mutex::new(memo) }
    }

    /// The memo, locked. Poison-tolerant: a panicking verifier must not
    /// wedge every other client's reads, and no update leaves a
    /// half-written entry behind.
    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `w`'s page equals the verified page under `digest`,
    /// counted as a hit or a miss.
    fn recall_l0_page(&self, digest: &Digest, w: &L0Witness) -> bool {
        let mut memo = self.memo();
        let known =
            memo.l0.get(digest).and_then(|e| e.page.as_ref()).is_some_and(|page| {
                Arc::ptr_eq(page, &w.page) || page.records() == w.page.records()
            });
        if known {
            memo.hits += 1;
        } else {
            memo.misses += 1;
        }
        known
    }

    fn admit_l0_page(&self, digest: Digest, page: &Arc<L0Page>) {
        self.memo().l0_entry(digest).page = Some(Arc::clone(page));
    }

    /// Checks the cloud's signature on `proof`, once per proof per
    /// cache: `true` at once for a proof byte-equal to one verified
    /// before, otherwise [`BlockProof::verify`], admitting the proof
    /// only if it verifies. Checks the signature only — binding the
    /// proof to a block (edge, id, digest) is the caller's job.
    pub fn check_block_proof(
        &self,
        proof: &BlockProof,
        cloud: IdentityId,
        registry: &KeyRegistry,
    ) -> bool {
        {
            let mut memo = self.memo();
            if memo.l0.get(&proof.digest).is_some_and(|e| e.proof.as_ref() == Some(proof)) {
                return true;
            }
            memo.signature_checks += 1;
        }
        if !verify_signature(proof, cloud, registry) {
            return false;
        }
        self.memo().l0_entry(proof.digest).proof = Some(proof.clone());
        true
    }

    /// The digest of a verified level page equal to `page`, if any; a
    /// miss counts in [`level_page_hashes`](Self::level_page_hashes).
    fn recall_level_page(&self, page: &Page) -> Option<Digest> {
        let mut memo = self.memo();
        let remembered = memo.levels.get(&level_key(page));
        let digest = remembered.filter(|(p, _)| **p == *page).map(|(_, d)| *d);
        if digest.is_none() {
            memo.level_page_hashes += 1;
        }
        digest
    }

    fn admit_level_page(&self, page: &Arc<Page>, digest: Digest) {
        let entry = (Arc::clone(page), digest);
        self.memo().levels.insert(level_key(page), entry, page.encoded_len());
    }

    /// Cached L0 entries (pages, proofs or both).
    pub fn len(&self) -> usize {
        self.memo().l0.map.len()
    }

    /// True iff no L0 entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// L0 page checks answered from the cache (block re-decode
    /// skipped). Cumulative over the cache's lifetime — for a shared
    /// cache, over every client.
    pub fn hits(&self) -> u64 {
        self.memo().hits
    }

    /// L0 page checks that paid the full re-derivation.
    pub fn misses(&self) -> u64 {
        self.memo().misses
    }

    /// Block-proof signatures [`check_block_proof`](Self::check_block_proof)
    /// had to verify (no byte-equal proof cached).
    pub fn signature_checks(&self) -> u64 {
        self.memo().signature_checks
    }

    /// Level witness pages without a digest memo that the verifier
    /// had to hash, because no remembered page was equal. Cumulative
    /// over the cache's lifetime.
    pub fn level_page_hashes(&self) -> u64 {
        self.memo().level_page_hashes
    }
}

impl Default for ReadProofCache {
    /// 4096 L0 entries.
    fn default() -> Self {
        ReadProofCache::new(4096)
    }
}

/// Block-proof signature checks made on the read path on the current
/// thread, cached or not. Thread-local so concurrently running tests
/// cannot pollute each other's counts.
#[cfg(test)]
pub(crate) mod proof_stats {
    use std::cell::Cell;

    thread_local! {
        static SIGNATURE_CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    pub fn signature_checks() -> u64 {
        SIGNATURE_CHECKS.with(|c| c.get())
    }

    pub fn note_signature_check() {
        SIGNATURE_CHECKS.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
use proof_stats::note_signature_check;

#[cfg(not(test))]
fn note_signature_check() {}

/// The cloud signature check of a block-proof: the one place a
/// verifier pays for it.
fn verify_signature(proof: &BlockProof, cloud: IdentityId, registry: &KeyRegistry) -> bool {
    note_signature_check();
    proof.verify(cloud, registry)
}

/// The two L0 witness checks — canonical-records
/// ([`L0Page::matches_block`]) and block-proof binding + signature —
/// implemented exactly once for the cached and uncached verifiers.
/// With a cache, a page or proof whose verdict is memoized (under the
/// trust rule documented on [`ReadProofCache`]) skips its check, and a
/// freshly verified page is admitted afterwards. Returns
/// whether the witness is certified (Phase II material).
fn check_l0_witness(
    w: &L0Witness,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    cache: Option<&ReadProofCache>,
) -> Result<bool, ProofError> {
    let digest = w.page.digest();
    let page_ok = cache.is_some_and(|c| c.recall_l0_page(&digest, w));
    if !page_ok && !w.page.matches_block() {
        return Err(ProofError::BadL0Proof(w.page.bid()));
    }
    let certified = match &w.proof {
        Some(bp) => {
            let proof_ok = bp.edge == edge
                && bp.bid == w.page.block().id
                && bp.digest == digest
                && match cache {
                    Some(c) => c.check_block_proof(bp, cloud, registry),
                    None => verify_signature(bp, cloud, registry),
                };
            if !proof_ok {
                return Err(ProofError::BadL0Proof(w.page.bid()));
            }
            true
        }
        None => false,
    };
    // Admit a freshly checked page; a hit is cached and stamped already.
    if !page_ok {
        if let Some(c) = cache {
            c.admit_l0_page(digest, &w.page);
        }
    }
    Ok(certified)
}

/// Builds the read proof for `key` from the edge's tree state.
pub fn build_read_proof(tree: &LsMerkle, key: Key) -> IndexReadProof {
    let l0: Vec<L0Witness> = tree
        .l0_pages()
        .iter()
        .map(|(page, proof)| L0Witness { page: Arc::clone(page), proof: proof.clone() })
        .collect();

    let best = tree.find_newest(key);
    let hit_level: Option<u32> = match &best {
        Some((_, crate::tree::RecordLocation::Level { level, .. })) => Some(*level),
        Some((_, crate::tree::RecordLocation::L0 { .. })) => None,
        None => None,
    };
    // Which levels need witnesses: 1..=hit for a level hit; none for an
    // L0 hit; all for absence.
    let deepest_needed: u32 = match (&best, hit_level) {
        (Some(_), Some(l)) => l,
        (Some(_), None) => 0,
        (None, _) => tree.levels().len() as u32,
    };
    let mut witnesses = Vec::new();
    for level_no in 1..=deepest_needed {
        let level = &tree.levels()[(level_no - 1) as usize];
        if level.pages().is_empty() {
            continue; // client checks the empty root instead
        }
        let (pidx, page) = crate::page::find_covering(level.pages(), key)
            .expect("non-empty level ranges span the whole key space");
        let inclusion = level.forest().prove(pidx).expect("page index in range");
        witnesses.push(LevelWitness { level: level_no, page: Arc::clone(page), inclusion });
    }
    IndexReadProof {
        edge: tree.edge(),
        key,
        outcome: best.map(|(r, _)| r),
        l0,
        witnesses,
        level_roots: tree.level_roots(),
        global: tree.global().clone(),
    }
}

/// Verifies a read proof end-to-end.
///
/// `freshness_window_ns = None` skips the staleness check (the paper's
/// default guarantee is a consistent snapshot, not recency; §V-D adds
/// the window as an option).
pub fn verify_read_proof(
    proof: &IndexReadProof,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    now_ns: u64,
    freshness_window_ns: Option<u64>,
) -> Result<VerifiedRead, ProofError> {
    verify_read_proof_inner(proof, edge, cloud, registry, now_ns, freshness_window_ns, None)
}

/// [`verify_read_proof`] with the repeat-read fast path: L0 witnesses
/// already verified through `cache` skip block re-decoding and
/// signature re-checking. Same verdict as the uncached verifier for
/// every input (the cache can only skip work it has proven redundant).
/// The cache is taken by shared reference, so verifier threads may
/// share it.
pub fn verify_read_proof_cached(
    proof: &IndexReadProof,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    now_ns: u64,
    freshness_window_ns: Option<u64>,
    cache: &ReadProofCache,
) -> Result<VerifiedRead, ProofError> {
    verify_read_proof_inner(proof, edge, cloud, registry, now_ns, freshness_window_ns, Some(cache))
}

fn verify_read_proof_inner(
    proof: &IndexReadProof,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    now_ns: u64,
    freshness_window_ns: Option<u64>,
    cache: Option<&ReadProofCache>,
) -> Result<VerifiedRead, ProofError> {
    // 1. Global cert: signature, binding to edge.
    if proof.edge != edge || proof.global.edge != edge {
        return Err(ProofError::BadGlobalCert);
    }
    if !proof.global.verify(cloud, registry) {
        return Err(ProofError::BadGlobalCert);
    }
    // 2. Level roots -> global root.
    if compute_global_root(&proof.level_roots) != proof.global.root {
        return Err(ProofError::RootsMismatch);
    }
    // 3. Freshness.
    if let Some(window) = freshness_window_ns {
        if proof.global.timestamp_ns + window < now_ns {
            return Err(ProofError::Stale { timestamp_ns: proof.global.timestamp_ns, now_ns });
        }
    }
    // 4. L0 witnesses: verify certifications where present, and
    //    re-derive the records from the block itself — the `records`
    //    field is denormalized and NOT covered by the block digest, so
    //    trusting it would let the edge hide a newer version behind an
    //    honestly-certified block.
    let mut phase = CommitPhase::Phase2;
    for w in &proof.l0 {
        if !check_l0_witness(w, edge, cloud, registry, cache)? {
            phase = CommitPhase::Phase1;
        }
    }
    // 5. Level witnesses: inclusion + coverage + uniqueness.
    let mut seen = std::collections::HashSet::new();
    for w in &proof.witnesses {
        if w.level == 0 || w.level as usize > proof.level_roots.len() {
            return Err(ProofError::MissingLevel(w.level));
        }
        if !seen.insert(w.level) {
            return Err(ProofError::DuplicateLevel(w.level));
        }
        let root = proof.level_roots[(w.level - 1) as usize];
        // A page decoded off the wire has no digest memo; the cache may
        // remember an equal page. A page hashed here is admitted once
        // its checks pass.
        let memo = cache.filter(|_| w.page.memoized_digest().is_none());
        let recalled = memo.and_then(|c| c.recall_level_page(&w.page));
        let digest = recalled.unwrap_or_else(|| w.page.digest());
        if !MerkleTree::verify(&root, &digest, &w.inclusion) {
            return Err(ProofError::BadInclusion(w.level));
        }
        if !w.page.covers(proof.key) {
            return Err(ProofError::NotCovering(w.level));
        }
        if let (Some(c), None) = (memo, recalled) {
            c.admit_level_page(&w.page, digest);
        }
    }
    // 6. Recompute the newest record from the supplied material.
    let l0_pages: Vec<&L0Page> = proof.l0.iter().map(|w| w.page.as_ref()).collect();
    let mut best: Option<&KvRecord> = l0_lookup_pages(&l0_pages, proof.key);
    let mut best_level: Option<u32> = None;
    for w in &proof.witnesses {
        if let Some(r) = w.page.lookup(proof.key) {
            if best.is_none_or(|b| r.version > b.version) {
                best = Some(r);
                best_level = Some(w.level);
            }
        }
    }
    // 7. Coverage completeness: levels 1..=hit (or all, for absence)
    //    must each have a witness or an empty root.
    let deepest_needed: u32 = match (&best, best_level) {
        (Some(_), Some(l)) => l,
        (Some(_), None) => 0, // newest is in L0: deeper levels are older
        (None, _) => proof.level_roots.len() as u32,
    };
    let empty = empty_level_root();
    for level_no in 1..=deepest_needed {
        let has_witness = proof.witnesses.iter().any(|w| w.level == level_no);
        let is_empty = proof.level_roots[(level_no - 1) as usize] == empty;
        if !has_witness && !is_empty {
            return Err(ProofError::MissingLevel(level_no));
        }
    }
    // 8. The claimed outcome must equal the recomputed best.
    if proof.outcome.as_ref() != best {
        return Err(ProofError::WrongOutcome);
    }
    let value = best.and_then(|r| r.value.clone());
    Ok(VerifiedRead { value, phase, timestamp_ns: proof.global.timestamp_ns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::kv::{kv_entry, KvOp};
    use crate::merge::CloudIndex;
    use wedge_crypto::Identity;
    use wedge_log::{Block, BlockId, CertLedger, Entry};

    struct Fixture {
        cloud: Identity,
        ledger: CertLedger,
        index: CloudIndex,
        tree: LsMerkle,
        edge: IdentityId,
        client: Identity,
        registry: KeyRegistry,
        next_bid: u64,
        next_seq: u64,
    }

    impl Fixture {
        fn new() -> Self {
            let cloud = Identity::derive("cloud", 0);
            let client = Identity::derive("client", 1);
            let edge = IdentityId(9);
            let mut registry = KeyRegistry::new();
            registry.register(cloud.id, cloud.public()).unwrap();
            registry.register(client.id, client.public()).unwrap();
            let mut index = CloudIndex::new(LsmConfig::exposition());
            let init = index.init_edge(&cloud, edge, 0);
            let tree = LsMerkle::new(edge, LsmConfig::exposition(), init);
            Fixture {
                cloud,
                ledger: CertLedger::new(),
                index,
                tree,
                edge,
                client,
                registry,
                next_bid: 0,
                next_seq: 0,
            }
        }

        fn ingest_certified(&mut self, kvs: &[(u64, Option<&[u8]>)]) {
            let entries: Vec<Entry> = kvs
                .iter()
                .map(|(k, v)| {
                    let op = match v {
                        Some(v) => KvOp::put(*k, v.to_vec()),
                        None => KvOp::delete(*k),
                    };
                    let e = kv_entry(&self.client, self.next_seq, &op);
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
            let digest = block.digest();
            self.ledger.offer(self.edge, block.id, digest);
            let proof = BlockProof::issue(&self.cloud, self.edge, block.id, digest);
            self.tree.apply_block(block);
            self.tree.attach_block_proof(proof);
        }

        fn drain_merges(&mut self) {
            while let Some(level) = self.tree.overflowing_level() {
                let req = self.tree.build_merge_request(level);
                let res = self.index.process_merge(&self.cloud, &self.ledger, &req, 1_000).unwrap();
                self.tree.apply_merge_result(&req, res).unwrap();
            }
        }

        fn verify(&self, proof: &IndexReadProof) -> Result<VerifiedRead, ProofError> {
            verify_read_proof(proof, self.edge, self.cloud.id, &self.registry, 2_000, None)
        }

        fn verify_with(
            &self,
            proof: &IndexReadProof,
            cache: &ReadProofCache,
        ) -> Result<VerifiedRead, ProofError> {
            verify_read_proof_cached(
                proof,
                self.edge,
                self.cloud.id,
                &self.registry,
                2_000,
                None,
                cache,
            )
        }

        /// The read proof for `key` after a trip through the codec:
        /// every page a fresh `Arc` with no digest memo, as a client
        /// receives it off the wire.
        fn decoded(&self, key: u64) -> IndexReadProof {
            let mut enc = Encoder::default();
            build_read_proof(&self.tree, key).encode_into(&mut enc);
            let bytes = enc.finish();
            let mut dec = wedge_log::Decoder::new(&bytes);
            let proof = IndexReadProof::decode_from(&mut dec).unwrap();
            dec.finish().unwrap();
            proof
        }

        /// The client's Phase II for every L0 block of `proof`: each
        /// block-proof is checked, and so admitted, without its page.
        fn phase2(&self, proof: &IndexReadProof, cache: &ReadProofCache) {
            for w in &proof.l0 {
                let bp = w.proof.as_ref().expect("certified block");
                assert!(cache.check_block_proof(bp, self.cloud.id, &self.registry));
            }
        }
    }

    #[test]
    fn l0_hit_verifies_phase2() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        let proof = build_read_proof(&fx.tree, 5);
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.value.as_deref(), Some(b"v".as_ref()));
        assert_eq!(read.phase, CommitPhase::Phase2);
        // L0 hit needs no level witnesses.
        assert!(proof.witnesses.is_empty());
    }

    #[test]
    fn level_hit_verifies_with_witnesses() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        let proof = build_read_proof(&fx.tree, 2);
        assert!(!proof.witnesses.is_empty());
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.value.as_deref(), Some(b"b".as_ref()));
    }

    #[test]
    fn absence_proof_verifies() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        let proof = build_read_proof(&fx.tree, 999);
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.value, None);
        assert_eq!(proof.outcome, None);
    }

    #[test]
    fn deleted_key_reads_as_absent() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        fx.ingest_certified(&[(5, None)]);
        let proof = build_read_proof(&fx.tree, 5);
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.value, None);
        // But the outcome records the tombstone (a version exists).
        assert!(proof.outcome.as_ref().unwrap().value.is_none());
    }

    #[test]
    fn uncertified_l0_downgrades_to_phase1() {
        let mut fx = Fixture::new();
        // Certified block, then an uncertified one.
        fx.ingest_certified(&[(1, Some(b"a"))]);
        let entries = vec![kv_entry(&fx.client, 999, &KvOp::put(2, b"b".to_vec()))];
        let block = Block { edge: fx.edge, id: BlockId(fx.next_bid), entries, sealed_at_ns: 0 };
        fx.tree.apply_block(block);
        let proof = build_read_proof(&fx.tree, 1);
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.phase, CommitPhase::Phase1);
    }

    #[test]
    fn tampered_value_detected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"honest"))]);
        let mut proof = build_read_proof(&fx.tree, 5);
        // Edge swaps the outcome value without touching the pages.
        proof.outcome.as_mut().unwrap().value = Some(b"evil".to_vec());
        assert_eq!(fx.verify(&proof), Err(ProofError::WrongOutcome));
    }

    #[test]
    fn hidden_newer_version_detected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"old"))]);
        fx.ingest_certified(&[(5, Some(b"new"))]);
        let mut proof = build_read_proof(&fx.tree, 5);
        // Edge claims the old version is newest.
        let old = proof.l0[0].page.lookup(5).unwrap().clone();
        proof.outcome = Some(old);
        assert_eq!(fx.verify(&proof), Err(ProofError::WrongOutcome));
    }

    #[test]
    fn tampered_page_fails_inclusion() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        let mut proof = build_read_proof(&fx.tree, 2);
        // Rebuild the witness page with a tampered record (pages are
        // immutable, as a lying edge would construct a fresh one).
        let honest = &proof.witnesses[0].page;
        let mut records = honest.records().to_vec();
        records[0].value = Some(b"evil".to_vec());
        proof.witnesses[0].page =
            Arc::new(Page::new(honest.min(), honest.max(), records, honest.created_at_ns()));
        // Outcome check or inclusion check fails depending on which
        // record was tampered; both are detection.
        assert!(fx.verify(&proof).is_err());
    }

    #[test]
    fn forged_global_cert_rejected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        let mut proof = build_read_proof(&fx.tree, 1);
        let evil = Identity::derive("edge", 66);
        proof.global =
            GlobalRootCert::issue(&evil, fx.edge, proof.global.epoch, 0, proof.global.root);
        assert_eq!(fx.verify(&proof), Err(ProofError::BadGlobalCert));
    }

    #[test]
    fn dropped_l0_proof_only_downgrades_never_forges() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        let mut proof = build_read_proof(&fx.tree, 5);
        proof.l0[0].proof = None; // edge withholds the certification
        let read = fx.verify(&proof).unwrap();
        assert_eq!(read.phase, CommitPhase::Phase1);
        assert_eq!(read.value.as_deref(), Some(b"v".as_ref()));
    }

    #[test]
    fn mismatched_l0_proof_rejected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        fx.ingest_certified(&[(6, Some(b"w"))]);
        let mut proof = build_read_proof(&fx.tree, 5);
        // Attach block 1's proof to block 0's page.
        let stolen = proof.l0[1].proof.clone();
        proof.l0[0].proof = stolen;
        assert!(matches!(fx.verify(&proof), Err(ProofError::BadL0Proof(_))));
    }

    /// The hash-once property, end-to-end: across build → merge →
    /// read-proof → verify in one process, every page's digest is
    /// computed at most once (memoized on first use), and re-serving
    /// reads from a settled tree computes no page digest at all.
    /// Counters are thread-local, so concurrent tests cannot skew
    /// this test's arithmetic.
    #[test]
    fn page_digests_computed_at_most_once_end_to_end() {
        use crate::page::hash_stats;
        let mut fx = Fixture::new();
        let c0 = hash_stats::constructed();
        let d0 = hash_stats::computed();
        // Build: enough certified blocks to cascade several merges.
        for i in 0..12u64 {
            fx.ingest_certified(&[(i, Some(b"v")), (i + 100, Some(b"w"))]);
        }
        fx.drain_merges();
        // Read-proof + client verify, hits and misses.
        for key in [0u64, 5, 11, 105, 999] {
            let proof = build_read_proof(&fx.tree, key);
            fx.verify(&proof).unwrap();
        }
        let constructed = hash_stats::constructed() - c0;
        let computed = hash_stats::computed() - d0;
        assert!(constructed > 0, "pipeline must have created pages");
        assert!(
            computed <= constructed,
            "{computed} digest computations for {constructed} pages: some page was hashed twice"
        );
        // A second pass over the settled tree re-uses every memo: zero
        // additional hash work.
        let d1 = hash_stats::computed();
        for key in [0u64, 5, 11, 105, 999] {
            let proof = build_read_proof(&fx.tree, key);
            fx.verify(&proof).unwrap();
        }
        assert_eq!(hash_stats::computed(), d1, "settled-tree reads must not hash any page");
    }

    /// The repeat-read fast path: a second verification of the same
    /// tree's proofs re-decodes zero L0 blocks (the cache remembers the
    /// `matches_block` verdict per shared page).
    #[test]
    fn read_proof_cache_skips_block_redecoding() {
        use crate::page::hash_stats;
        let mut fx = Fixture::new();
        for i in 0..6u64 {
            fx.ingest_certified(&[(i, Some(b"v"))]);
        }
        let cache = ReadProofCache::new(4096);
        let verify_cached = |fx: &Fixture, proof: &IndexReadProof| {
            verify_read_proof_cached(proof, fx.edge, fx.cloud.id, &fx.registry, 2_000, None, &cache)
        };
        let proof = build_read_proof(&fx.tree, 3);
        let cold = hash_stats::l0_decode_checks();
        verify_cached(&fx, &proof).unwrap();
        assert!(hash_stats::l0_decode_checks() > cold, "first verification must decode the blocks");
        // Re-read (fresh proof, same shared Arc pages): zero decodes.
        let warm = hash_stats::l0_decode_checks();
        for key in [0u64, 3, 5, 999] {
            let proof = build_read_proof(&fx.tree, key);
            verify_cached(&fx, &proof).unwrap();
        }
        assert_eq!(
            hash_stats::l0_decode_checks(),
            warm,
            "cached witnesses must skip matches_block re-decoding"
        );
    }

    /// Proofs decoded off the wire arrive as fresh `Arc`s every time;
    /// the cache must still serve them (by digest + record equality),
    /// or the networked runtime would re-decode and re-verify every
    /// hot page on every read.
    #[test]
    fn read_proof_cache_hits_for_wire_decoded_proofs() {
        use crate::page::hash_stats;
        let mut fx = Fixture::new();
        for i in 0..4u64 {
            fx.ingest_certified(&[(i, Some(b"v"))]);
        }
        let cache = ReadProofCache::new(4096);
        // Decoded pages are fresh Arcs, pointer-distinct from anything
        // cached.
        fx.verify_with(&fx.decoded(0), &cache).unwrap();
        // Second decoded read: zero block re-decodes despite fresh Arcs.
        let warm = hash_stats::l0_decode_checks();
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        assert_eq!(
            hash_stats::l0_decode_checks(),
            warm,
            "wire-decoded witnesses must hit the cache by digest + record equality"
        );
    }

    /// Soundness: a forged page sharing an honestly-certified block
    /// (same digest, different records) is still caught when the
    /// honest page is cached — digest equality must never stand in for
    /// the records check.
    #[test]
    fn read_proof_cache_never_trusts_forged_records() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"honest"))]);
        let cache = ReadProofCache::new(4096);
        let verify = |proof: &IndexReadProof| {
            verify_read_proof_cached(proof, fx.edge, fx.cloud.id, &fx.registry, 2_000, None, &cache)
        };
        verify(&build_read_proof(&fx.tree, 5)).unwrap();
        // Forge: honest block, fabricated records hiding the value.
        let mut forged = build_read_proof(&fx.tree, 5);
        let honest = Arc::clone(&forged.l0[0].page);
        forged.l0[0].page = Arc::new(L0Page::forged(honest.block().clone(), vec![]));
        forged.outcome = None;
        assert_eq!(forged.l0[0].page.digest(), honest.digest(), "same digest by construction");
        // Twice: a forgery admitted before its records check would be
        // answered from the cache the second time.
        for _ in 0..2 {
            let res = verify(&forged);
            assert!(matches!(res, Err(ProofError::BadL0Proof(_))), "forgery got {res:?}");
        }
        // And the forgery must not have poisoned the cache for the
        // honest page.
        verify(&build_read_proof(&fx.tree, 5)).unwrap();
    }

    /// A cached proof vouches only for its own bytes: one with the
    /// genuine proof's edge, block id and digest but another `s` is
    /// still checked, and rejected.
    #[test]
    fn admitted_proof_never_vouches_for_another_signature() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        let cache = ReadProofCache::new(4096);
        let mut proof = build_read_proof(&fx.tree, 5);
        fx.phase2(&proof, &cache);
        proof.l0[0].proof.as_mut().expect("certified").signature.s ^= 1;
        assert_eq!(fx.verify_with(&proof, &cache), Err(ProofError::BadL0Proof(0)));
    }

    /// A proof admitted for digest D never certifies a page with
    /// another digest: the binding check runs on every witness.
    #[test]
    fn admitted_proof_never_vouches_for_another_digest() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        fx.ingest_certified(&[(6, Some(b"w"))]);
        let cache = ReadProofCache::new(4096);
        let mut proof = build_read_proof(&fx.tree, 5);
        fx.phase2(&proof, &cache);
        // Attach block 1's (cached, genuine) proof to block 0's page.
        proof.l0[0].proof = proof.l0[1].proof.clone();
        assert!(matches!(fx.verify_with(&proof, &cache), Err(ProofError::BadL0Proof(_))));
    }

    /// A proof-only entry never stands in for the page rule: a forged-
    /// records page sharing the certified digest D still fails the
    /// records check.
    #[test]
    fn admitted_proof_never_vouches_for_forged_records() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"honest"))]);
        let cache = ReadProofCache::new(4096);
        let mut forged = build_read_proof(&fx.tree, 5);
        fx.phase2(&forged, &cache);
        let honest = Arc::clone(&forged.l0[0].page);
        forged.l0[0].page = Arc::new(L0Page::forged(honest.block().clone(), vec![]));
        forged.outcome = None;
        assert!(matches!(fx.verify_with(&forged, &cache), Err(ProofError::BadL0Proof(_))));
    }

    /// The point of the proof memo: a read whose L0 proofs the client
    /// verified at Phase II checks no block-proof signature at all.
    #[test]
    fn phase2_admitted_proofs_spare_the_read_every_signature_check() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        fx.ingest_certified(&[(6, Some(b"w"))]);
        let cache = ReadProofCache::new(4096);
        let proof = build_read_proof(&fx.tree, 5);
        fx.phase2(&proof, &cache);
        let before = proof_stats::signature_checks();
        assert_eq!(fx.verify_with(&proof, &cache).map(|r| r.phase), Ok(CommitPhase::Phase2));
        assert_eq!(proof_stats::signature_checks(), before, "Phase-II proofs re-verified");
    }

    /// Once an entry is evicted the full check runs again, with the
    /// uncached verifier's verdict. One entry in all, so the read's two
    /// blocks evict each other.
    #[test]
    fn evicted_proof_pays_the_full_check_with_the_same_verdict() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(5, Some(b"v"))]);
        fx.ingest_certified(&[(6, Some(b"w"))]);
        let cache = ReadProofCache::new(1);
        let proof = build_read_proof(&fx.tree, 5);
        fx.phase2(&proof, &cache);
        let before = proof_stats::signature_checks();
        let cached = fx.verify_with(&proof, &cache);
        assert_eq!(proof_stats::signature_checks() - before, 2, "both evicted proofs re-verified");
        assert_eq!(cached, fx.verify(&proof));
    }

    /// LRU eviction: a hot working set that keeps being re-verified
    /// survives a stream of cold one-off proofs through the same
    /// cache. The old clear-on-full policy threw the hot entries away
    /// at the first overflow; LRU evicts only the cold tail, so hot
    /// re-reads never re-decode their blocks under pressure.
    #[test]
    fn read_proof_cache_lru_keeps_hot_working_set() {
        use crate::page::hash_stats;
        let verify = |fx: &Fixture, key: u64, cache: &ReadProofCache| {
            let proof = build_read_proof(&fx.tree, key);
            verify_read_proof_cached(
                &proof,
                fx.edge,
                fx.cloud.id,
                &fx.registry,
                2_000,
                None,
                cache,
            )
            .unwrap();
        };
        // Hot tree: 3 L0 pages, read repeatedly.
        let mut hot = Fixture::new();
        for i in 0..3u64 {
            hot.ingest_certified(&[(i, Some(b"hot"))]);
        }
        // Cap 4 = the 3 hot pages + room for exactly one cold page:
        // every cold proof forces an eviction.
        let cache = ReadProofCache::new(4);
        verify(&hot, 0, &cache);
        // Cold traffic: 6 single-page trees streamed through the
        // cache, with hot reads interleaved (keeping hot recent).
        for i in 0..6u64 {
            let mut cold = Fixture::new();
            cold.ingest_certified(&[(1_000 + i, Some(b"cold"))]);
            verify(&cold, 1_000 + i, &cache);
            verify(&hot, i % 3, &cache);
        }
        assert_eq!(cache.len(), 4, "cap respected under pressure");
        // The hot set survived: re-verifying decodes zero blocks.
        let before = hash_stats::l0_decode_checks();
        verify(&hot, 2, &cache);
        assert_eq!(
            hash_stats::l0_decode_checks(),
            before,
            "hot witnesses must survive cold-stream pressure without re-decoding"
        );
    }

    /// Concurrent verifiers against one shared cache: every verdict is
    /// correct and the hit/miss stats account for every consult
    /// exactly — no lost updates under contention.
    #[test]
    fn shared_cache_concurrent_verifiers_stay_exact() {
        let mut fx = Fixture::new();
        for i in 0..4u64 {
            fx.ingest_certified(&[(i, Some(b"v"))]);
        }
        let proof = build_read_proof(&fx.tree, 2);
        let l0_pages = proof.l0.len() as u64;
        let mut enc = Encoder::default();
        proof.encode_into(&mut enc);
        let bytes = enc.finish();
        let cache = ReadProofCache::new(4096);
        const THREADS: u64 = 4;
        const ITERS: u64 = 25;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        // Fresh Arcs per decode: hits go through the
                        // record-equality trust rule, like real wire
                        // traffic.
                        let mut dec = wedge_log::Decoder::new(&bytes);
                        let p = IndexReadProof::decode_from(&mut dec).unwrap();
                        verify_read_proof_cached(
                            &p,
                            fx.edge,
                            fx.cloud.id,
                            &fx.registry,
                            2_000,
                            None,
                            &cache,
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            cache.hits() + cache.misses(),
            THREADS * ITERS * l0_pages,
            "every consult must be counted exactly once"
        );
        // Each distinct page digest misses at least once (cold) and at
        // most once per racing thread (threads can each miss the same
        // cold page before any admit lands).
        assert!(cache.misses() >= l0_pages, "cold consults must miss");
        assert!(cache.misses() <= l0_pages * THREADS, "after admission every consult must hit");
        assert_eq!(cache.len() as u64, l0_pages, "one entry per distinct page");
    }

    /// A settled tree with both Merkle levels non-empty (one L1 page
    /// over keys 10..=12, three L2 pages): a read of key 2 ships a
    /// witness from each level.
    fn leveled_fixture() -> Fixture {
        let mut fx = Fixture::new();
        for k in 1..=12u64 {
            fx.ingest_certified(&[(k, Some(b"v"))]);
            fx.drain_merges();
        }
        fx
    }

    /// Level pages decoded off the wire are hashed once per content:
    /// a repeated get takes every level digest from the memo, and the
    /// verdict is the uncached verifier's.
    #[test]
    fn level_memo_hashes_each_wire_decoded_page_once() {
        let fx = leveled_fixture();
        let cache = ReadProofCache::new(4096);
        let proof = fx.decoded(2);
        let levels = proof.witnesses.len() as u64;
        assert!(levels >= 2, "the read must cross several levels, got {levels}");
        assert_eq!(fx.verify_with(&proof, &cache), fx.verify(&fx.decoded(2)));
        assert_eq!(cache.level_page_hashes(), levels, "a cold get hashes each level page");
        for _ in 0..5 {
            let again = fx.decoded(2);
            assert_eq!(fx.verify_with(&again, &cache), fx.verify(&proof));
            assert!(again.witnesses.iter().all(|w| w.page.memoized_digest().is_none()));
        }
        assert_eq!(cache.level_page_hashes(), levels, "repeat gets hashed a level page again");
    }

    /// The memo answers only for an equal page. One with the same
    /// range, timestamp and encoded length but one changed record is
    /// hashed, rejected by its inclusion proof, never admitted, and
    /// never displaces the honest page under their shared key.
    #[test]
    fn level_memo_never_answers_for_a_changed_record() {
        let fx = leveled_fixture();
        let cache = ReadProofCache::new(4096);
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        let remembered = cache.memo().levels.map.len();
        for round in 0..2 {
            let mut forged = fx.decoded(2);
            let honest = Arc::clone(&forged.witnesses[0].page);
            let mut records = honest.records().to_vec();
            records[0].value = Some(b"w".to_vec());
            let page = Page::new(honest.min(), honest.max(), records, honest.created_at_ns());
            assert_eq!(page.encoded_len(), honest.encoded_len());
            forged.witnesses[0].page = Arc::new(page);
            let hashes = cache.level_page_hashes();
            let level = forged.witnesses[0].level;
            assert_eq!(fx.verify_with(&forged, &cache), Err(ProofError::BadInclusion(level)));
            assert_eq!(cache.level_page_hashes(), hashes + 1, "round {round}: not hashed");
            assert_eq!(cache.memo().levels.map.len(), remembered, "round {round}: admitted");
        }
        // The forgery shares the honest page's key, and never displaced it.
        let hashes = cache.level_page_hashes();
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        assert_eq!(cache.level_page_hashes(), hashes, "the honest page was displaced");
    }

    /// A page whose inclusion proof fails leaves no trace: the next
    /// get of the same page hashes it again. The L1 witness before it
    /// passes, so it is remembered.
    #[test]
    fn level_page_failing_inclusion_is_not_admitted() {
        let fx = leveled_fixture();
        let cache = ReadProofCache::new(4096);
        let mut broken = fx.decoded(2);
        let l2 = &mut broken.witnesses[1];
        assert!(!l2.inclusion.siblings.is_empty(), "L2 holds several pages");
        l2.inclusion.leaf_index ^= 1;
        let level = l2.level;
        assert_eq!(fx.verify_with(&broken, &cache), Err(ProofError::BadInclusion(level)));
        assert_eq!(cache.level_page_hashes(), 2);
        let memo =
            cache.memo().levels.map.values().map(|s| Arc::clone(&s.value.0)).collect::<Vec<_>>();
        assert_eq!(memo, vec![Arc::clone(&broken.witnesses[0].page)], "only L1 admitted");
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        assert_eq!(cache.level_page_hashes(), 3, "the failed page was remembered");
    }

    /// Pages carrying a digest memo — every in-process page — never
    /// consult or enter the level memo.
    #[test]
    fn in_process_pages_never_enter_the_level_memo() {
        let fx = leveled_fixture();
        let cache = ReadProofCache::new(4096);
        for key in [1u64, 2, 3, 999] {
            fx.verify_with(&build_read_proof(&fx.tree, key), &cache).unwrap();
        }
        assert_eq!(cache.level_page_hashes(), 0);
        assert!(cache.memo().levels.map.is_empty());
    }

    /// The memo holds at most `LEVEL_MEMO_PAGES` pages and
    /// `LEVEL_MEMO_BYTES` encoded bytes, evicting the least recently
    /// used, and never holds a page over the byte cap.
    #[test]
    fn level_memo_caps_hold() {
        use crate::kv::Version;
        let page = |key: u64, value_len: usize| {
            let record = KvRecord {
                key,
                version: Version { bid: key, pos: 0 },
                value: Some(vec![7; value_len]),
            };
            let page = Arc::new(Page::new(key, key, vec![record], 0));
            let digest = page.digest();
            (page, digest)
        };
        let cache = ReadProofCache::new(4096);
        for key in 0..2 * LEVEL_MEMO_PAGES as u64 {
            let (p, d) = page(key, 8);
            cache.admit_level_page(&p, d);
            assert!(cache.memo().levels.map.len() <= LEVEL_MEMO_PAGES);
        }
        assert_eq!(cache.memo().levels.map.len(), LEVEL_MEMO_PAGES);
        assert_eq!(cache.recall_level_page(&page(0, 8).0), None, "the oldest page was kept");
        let newest = page(2 * LEVEL_MEMO_PAGES as u64 - 1, 8);
        assert_eq!(cache.recall_level_page(&newest.0), Some(newest.1));

        let cache = ReadProofCache::new(4096);
        let quarter = LEVEL_MEMO_BYTES / 4;
        for key in 0..8 {
            let (p, d) = page(key, quarter);
            cache.admit_level_page(&p, d);
            assert!(cache.memo().levels.bytes <= LEVEL_MEMO_BYTES);
        }
        let (huge, d) = page(99, LEVEL_MEMO_BYTES);
        cache.admit_level_page(&huge, d);
        let memo = cache.memo();
        let levels = &memo.levels;
        assert_eq!(levels.map.len(), 3, "four quarter-MiB pages exceed the byte cap");
        let pages = || levels.map.values().map(|s| &s.value.0);
        assert_eq!(levels.bytes, pages().map(|p| p.encoded_len()).sum::<usize>());
        assert!(pages().all(|p| !Arc::ptr_eq(p, &huge)), "oversized page kept");
    }

    /// Each witness count is bounded by the fewest bytes one witness
    /// encodes to. After a count, the input holds `K` minimal
    /// witnesses and ends: a count of `K` gets past the bound and runs
    /// out of input after the last witness, and a count of `K + 1` is
    /// rejected as `BadLength` before any witness decodes.
    #[test]
    fn witness_counts_past_the_minimum_encoding_are_rejected() {
        use wedge_log::{DecodeError, Decoder};
        // Enough witnesses that a bound one byte short would admit
        // `K + 1` (`K` ≥ the minimum minus one).
        const K: u64 = 64;
        let fx = Fixture::new();
        let mut proof = build_read_proof(&fx.tree, 1);
        assert!(proof.outcome.is_none() && proof.l0.is_empty() && proof.witnesses.is_empty());
        let empty = Block { edge: fx.edge, id: BlockId(0), entries: vec![], sealed_at_ns: 0 };
        let l0 = L0Witness { page: Arc::new(L0Page::from_block(empty)), proof: None };
        let page = Arc::new(Page::new(0, Key::MAX, vec![], 0));
        let inclusion = InclusionProof { leaf_index: 0, siblings: vec![] };
        let level = LevelWitness { level: 1, page, inclusion };
        let before = proof.encoded_len();
        proof.l0.push(l0);
        assert_eq!(proof.encoded_len() - before, L0_WITNESS_MIN_LEN, "L0 minimum");
        proof.witnesses.push(level);
        assert_eq!(proof.encoded_len() - before, L0_WITNESS_MIN_LEN + LEVEL_WITNESS_MIN_LEN);

        // Edge, key and the outcome's `None` tag, then the L0 count.
        let mut enc = Encoder::default();
        proof.encode_into(&mut enc);
        let full = enc.finish();
        let l0_count_at = 8 + 8 + 1;
        let l0_bytes = &full[l0_count_at + 8..][..L0_WITNESS_MIN_LEN];
        let level_count_at = l0_count_at + 8 + L0_WITNESS_MIN_LEN;
        let level_bytes = &full[level_count_at + 8..][..LEVEL_WITNESS_MIN_LEN];
        // K L0 witnesses after the L0 count; no L0 witness and K level
        // witnesses after the level count.
        let stream = |count: u64, level_section: bool| {
            let mut bytes = full[..l0_count_at].to_vec();
            let witness = if level_section {
                bytes.extend_from_slice(&0u64.to_be_bytes());
                level_bytes
            } else {
                l0_bytes
            };
            bytes.extend_from_slice(&count.to_be_bytes());
            for _ in 0..K {
                bytes.extend_from_slice(witness);
            }
            bytes
        };
        for level_section in [false, true] {
            let decode = |count| {
                IndexReadProof::decode_from(&mut Decoder::new(&stream(count, level_section)))
            };
            assert_eq!(decode(K), Err(DecodeError::UnexpectedEof), "level {level_section}");
            assert_eq!(decode(K + 1), Err(DecodeError::BadLength), "level {level_section}");
        }
    }

    /// Wire round-trip: a decoded proof is field-identical and — the
    /// property verification depends on — verifies exactly like the
    /// original, including the Phase-II certification witnesses.
    #[test]
    fn read_proof_wire_roundtrip_verifies() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        for key in [2u64, 999] {
            let proof = build_read_proof(&fx.tree, key);
            let mut enc = Encoder::default();
            proof.encode_into(&mut enc);
            let bytes = enc.finish();
            let mut dec = wedge_log::Decoder::new(&bytes);
            let back = IndexReadProof::decode_from(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(back, proof, "key {key}: decoded proof field-identical");
            assert_eq!(
                fx.verify(&back),
                fx.verify(&proof),
                "key {key}: decoded proof verifies identically"
            );
        }
    }

    #[test]
    fn staleness_enforced_when_window_set() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        let proof = build_read_proof(&fx.tree, 1);
        // Global cert was signed at ts 0; now = 10s; window = 1s.
        let res = verify_read_proof(
            &proof,
            fx.edge,
            fx.cloud.id,
            &fx.registry,
            10_000_000_000,
            Some(1_000_000_000),
        );
        assert!(matches!(res, Err(ProofError::Stale { .. })));
        // Refresh the global cert and retry.
        let fresh = fx.index.refresh_global(&fx.cloud, fx.edge, 9_500_000_000).unwrap();
        fx.tree.refresh_global(fresh);
        let proof = build_read_proof(&fx.tree, 1);
        let res = verify_read_proof(
            &proof,
            fx.edge,
            fx.cloud.id,
            &fx.registry,
            10_000_000_000,
            Some(1_000_000_000),
        );
        assert!(res.is_ok());
    }

    #[test]
    fn missing_required_witness_detected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        let mut proof = build_read_proof(&fx.tree, 2);
        // Strip the L1 witness: now nothing proves L1 lacks a newer
        // version, and the recomputed best (None) mismatches the
        // outcome.
        proof.witnesses.clear();
        assert!(fx.verify(&proof).is_err());
    }

    #[test]
    fn absence_with_missing_level_witness_detected() {
        let mut fx = Fixture::new();
        fx.ingest_certified(&[(1, Some(b"a"))]);
        fx.ingest_certified(&[(2, Some(b"b"))]);
        fx.ingest_certified(&[(3, Some(b"c"))]);
        fx.drain_merges();
        let mut proof = build_read_proof(&fx.tree, 999);
        proof.witnesses.clear(); // absence proof must cover all levels
        assert!(matches!(fx.verify(&proof), Err(ProofError::MissingLevel(_))));
    }
}
