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
use std::collections::HashMap;
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
    /// verifier with a [`ShardedReadProofCache`] hashes each distinct
    /// level page once: a later decode of an equal page takes the
    /// digest the cache remembers (the level-page rule on its type
    /// docs). Each witness count is bounded by the fewest bytes one
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

/// A verifying client's memo of L0 witnesses, cloud block-proofs and
/// wire-decoded level pages it has already checked — the §V-B
/// read-proof fast path — split into independently-locked shards so
/// verifier threads can share it.
///
/// Every read proof re-ships *all* L0 pages with their block-proofs,
/// so a client that reads repeatedly re-verifies the same material on
/// every get: re-decoding the block behind each page
/// ([`L0Page::matches_block`]) and re-checking the cloud's signature on
/// each proof — a signature the client usually checked already, at
/// Phase II (§IV). Both checks are pure functions of immutable data,
/// so a client may cache the verdicts.
///
/// L0 entries are keyed by page digest, which is the block digest. An
/// entry holds a verified page, a verified proof, or both; those two
/// memos and the level-page memo have separate trust rules.
///
/// Page rule: the denormalized `records` field is NOT covered by the
/// block digest — a forged page can share an honestly-certified block
/// (and hence its digest) while advertising different records, so
/// digest equality alone must never skip the records check. A cached
/// page verdict is therefore trusted only when the witness is
/// *pointer-identical* (`Arc::ptr_eq`) to the verified page — the
/// in-process sharing the tree already does — or, failing that, when
/// its records compare equal to the verified page's (same digest ⇒
/// same block, so equal records are exactly the records already proven
/// canonical). The equality path is what lets proofs decoded off the
/// wire (fresh `Arc`s every read) hit the cache: a record compare is
/// far cheaper than the block re-decode it replaces.
///
/// Proof rule ([`check_block_proof`](Self::check_block_proof)): a
/// proof byte-equal to one already verified (edge, block id, digest
/// and signature) is valid, since its validity depends on nothing
/// else. An entry may hold a proof and no page — a proof checked at
/// Phase II or on an audit before any read shipped its page. Such an
/// entry vouches for the signature only: it never stands in for the
/// page rule above, and the proof's binding to a witness (its edge,
/// block id and digest) is checked on every witness. Only successful
/// checks are cached; a failed one leaves no trace. One cache serves
/// one cloud: every verifier sharing it checks proofs against the same
/// cloud identity and key registry.
///
/// Level-page rule: a level witness's digest is what its inclusion
/// proof checks, and a page decoded off the wire carries no digest
/// memo, so without help the client re-encodes and re-hashes every
/// level page of every get. The cache therefore remembers up to
/// [`LEVEL_MEMO_PAGES`] verified, wire-decoded level pages (at most
/// [`LEVEL_MEMO_BYTES`] of encoded pages), least-recently-used first
/// out, each with the digest the verifier computed itself. A witness
/// page equal to a remembered one — same `min`, `max`,
/// `created_at_ns` and records, which are every input of the digest —
/// takes that digest instead of being hashed. A page is admitted only
/// after its inclusion proof and coverage check pass, so a failed
/// witness leaves no trace. A page whose digest is already memoized
/// never consults or enters this memo: in-process pages on the
/// threaded and simulated paths cost one `OnceLock` read here. The
/// memo only saves the hash; every get still runs the inclusion,
/// coverage, newest-version, roots-to-global and global-cert checks.
///
/// Sharing: a process-wide cache behind one mutex serializes every
/// concurrent verifier on every witness check — exactly the hot path
/// the cache exists to speed up. Sharding by digest means two
/// verifiers contend only when they touch the *same* shard, and each
/// lock is held for a single lookup or admit, never across the block
/// decode or signature check.
///
/// Stats stay exact: every page consult bumps hit or miss on exactly
/// one shard (under that shard's lock), and [`hits`](Self::hits) /
/// [`misses`](Self::misses) / [`len`](Self::len) sum over shards; a
/// proof check touches neither, and counts in
/// [`signature_checks`](Self::signature_checks) when it must verify.
/// Eviction is per-shard LRU — capacity is split evenly, so the
/// worst-case total never exceeds `cap` rounded up per shard. The
/// level-page memo sits behind its own mutex, held for one recall or
/// admit and never across a hash; it counts the level pages the
/// verifier had to hash in [`level_page_hashes`](Self::level_page_hashes).
#[derive(Debug)]
pub struct ShardedReadProofCache {
    shards: Vec<Mutex<ReadProofCache>>,
    levels: Mutex<LevelPageMemo>,
}

/// Most wire-decoded level pages a [`ShardedReadProofCache`] remembers.
pub const LEVEL_MEMO_PAGES: usize = 16;

/// Most encoded bytes of level pages a [`ShardedReadProofCache`]
/// remembers; a larger page is hashed on every get.
pub const LEVEL_MEMO_BYTES: usize = 1 << 20;

/// Verified level pages that were decoded off the wire, with the
/// digests the verifier computed for them, most recently used last.
#[derive(Debug, Default)]
struct LevelPageMemo {
    pages: Vec<RememberedPage>,
    /// Encoded bytes of `pages`.
    bytes: usize,
    /// Level pages without a digest memo that no remembered page
    /// answered, so the verifier hashed them.
    hashes: u64,
}

#[derive(Debug)]
struct RememberedPage {
    page: Arc<Page>,
    digest: Digest,
    bytes: usize,
}

impl LevelPageMemo {
    /// The digest of a remembered page equal to `page`, which becomes
    /// the most recently used; otherwise counts the hash to come.
    fn recall(&mut self, page: &Page) -> Option<Digest> {
        let Some(i) = self.pages.iter().rposition(|r| *r.page == *page) else {
            self.hashes += 1;
            return None;
        };
        let hit = self.pages.remove(i);
        let digest = hit.digest;
        self.pages.push(hit);
        Some(digest)
    }

    /// Remembers `page`, whose digest the verifier computed and whose
    /// inclusion passed, evicting the least recently used pages past
    /// either cap. A page over the byte cap, or one already remembered
    /// (two verifiers racing on the same miss), is left out.
    fn admit(&mut self, page: &Arc<Page>, digest: Digest) {
        let bytes = page.encoded_len();
        if bytes > LEVEL_MEMO_BYTES || self.pages.iter().any(|r| r.digest == digest) {
            return;
        }
        self.pages.push(RememberedPage { page: Arc::clone(page), digest, bytes });
        self.bytes += bytes;
        while self.pages.len() > LEVEL_MEMO_PAGES || self.bytes > LEVEL_MEMO_BYTES {
            let old = self.pages.remove(0);
            self.bytes -= old.bytes;
        }
    }
}

/// One shard of a [`ShardedReadProofCache`]: verified pages and proofs
/// by page digest, evicted least-recently-used first.
#[derive(Debug)]
struct ReadProofCache {
    map: HashMap<Digest, CachedL0>,
    cap: usize,
    /// Monotonic access clock for LRU eviction: bumped on every
    /// lookup, stamped onto the touched entry.
    tick: u64,
    /// Page checks answered from the cache (trust rule satisfied).
    hits: u64,
    /// Page checks that had to re-derive (absent or untrusted).
    misses: u64,
    /// Proof checks that had to verify the signature.
    signature_checks: u64,
}

#[derive(Debug)]
struct CachedL0 {
    /// The verified page; `None` while only the proof is known.
    page: Option<Arc<L0Page>>,
    /// A verified block-proof for this digest.
    proof: Option<BlockProof>,
    last_used: u64,
}

impl ReadProofCache {
    /// A shard holding at most `cap` entries. At capacity the
    /// least-recently-used entry is evicted, so a hot working set
    /// keeps its verdicts under cache pressure (the old wholesale
    /// clear threw the hot set away with the cold tail).
    fn new(cap: usize) -> Self {
        ReadProofCache {
            map: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            signature_checks: 0,
        }
    }

    /// The entry for `digest`, recency-stamped, if present.
    fn touch(&mut self, digest: &Digest) -> Option<&CachedL0> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(digest)?;
        e.last_used = tick;
        Some(e)
    }

    /// One page consult for witness `w` under the page rule documented
    /// on [`ShardedReadProofCache`]. Exactly one of `hits`/`misses` is
    /// bumped per call.
    fn consult(&mut self, digest: &Digest, w: &L0Witness) -> bool {
        let page_ok = self
            .touch(digest)
            .and_then(|e| e.page.as_ref())
            .is_some_and(|page| Arc::ptr_eq(page, &w.page) || page.records() == w.page.records());
        if page_ok {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        page_ok
    }

    /// True iff `proof` is byte-equal to the verified proof cached for
    /// its digest; otherwise counts the signature check to come.
    fn remembers(&mut self, proof: &BlockProof) -> bool {
        let known = self.touch(&proof.digest).is_some_and(|e| e.proof.as_ref() == Some(proof));
        if !known {
            self.signature_checks += 1;
        }
        known
    }

    /// The entry for `digest`, created empty if absent — evicting the
    /// least-recently-used one first when at capacity.
    fn slot(&mut self, digest: Digest) -> &mut CachedL0 {
        if self.map.len() >= self.cap && !self.map.contains_key(&digest) {
            // O(cap) scan, but only on inserts past capacity; each
            // shard's cap (512 under the default 4096 over 8 shards)
            // keeps this cheap relative to the signature checks the
            // cache exists to avoid.
            if let Some(lru) = self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(d, _)| *d) {
                self.map.remove(&lru);
            }
        }
        let last_used = self.tick;
        let e = self.map.entry(digest).or_insert(CachedL0 { page: None, proof: None, last_used });
        e.last_used = last_used;
        e
    }
}

impl ShardedReadProofCache {
    /// A cache of `cap` total entries spread over `shards` mutexed
    /// shards. The shard count is rounded up to a power of two (so a
    /// digest byte masks to a shard index uniformly); each shard holds
    /// `cap / shards` entries, at least one.
    pub fn new(cap: usize, shards: usize) -> Self {
        let n = shards.clamp(1, 256).next_power_of_two();
        let per_shard = cap.div_ceil(n).max(1);
        ShardedReadProofCache {
            shards: (0..n).map(|_| Mutex::new(ReadProofCache::new(per_shard))).collect(),
            levels: Mutex::new(LevelPageMemo::default()),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `digest`, locked. Digests are hash outputs, so
    /// the first byte is already uniform — masking it picks a shard
    /// without re-hashing. Poison-tolerant: a panicking verifier must
    /// not wedge every other client's reads.
    fn shard(&self, digest: &Digest) -> MutexGuard<'_, ReadProofCache> {
        let idx = digest.as_bytes()[0] as usize & (self.shards.len() - 1);
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The level-page memo, locked; poison-tolerant like the shards.
    fn level_memo(&self) -> MutexGuard<'_, LevelPageMemo> {
        self.levels.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The digest of a remembered level page equal to `page`, if any;
    /// a miss counts in [`level_page_hashes`](Self::level_page_hashes).
    /// The memo is locked for the lookup only, so the caller hashes a
    /// missed page without holding it.
    fn recall_level_page(&self, page: &Page) -> Option<Digest> {
        self.level_memo().recall(page)
    }

    /// Consults the owning shard for `w`'s page, locked for just this
    /// call.
    fn consult(&self, digest: &Digest, w: &L0Witness) -> bool {
        self.shard(digest).consult(digest, w)
    }

    /// Admits (or refreshes) a verified page, keeping any proof the
    /// entry already holds.
    fn admit_page(&self, digest: Digest, page: &Arc<L0Page>) {
        self.shard(&digest).slot(digest).page = Some(Arc::clone(page));
    }

    /// Checks the cloud's signature on `proof`, once per proof per
    /// cache: `true` at once for a proof byte-equal to one verified
    /// before, otherwise [`BlockProof::verify`], admitting the proof
    /// only if it verifies. Checks the signature only — binding the
    /// proof to a block (edge, id, digest) is the caller's job. The
    /// owning shard is locked for the lookup and again for the admit,
    /// never across the signature check.
    pub fn check_block_proof(
        &self,
        proof: &BlockProof,
        cloud: IdentityId,
        registry: &KeyRegistry,
    ) -> bool {
        if self.shard(&proof.digest).remembers(proof) {
            return true;
        }
        if !verify_signature(proof, cloud, registry) {
            return false;
        }
        self.shard(&proof.digest).slot(proof.digest).proof = Some(proof.clone());
        true
    }

    /// Sums `f` over every shard.
    fn total<T: std::iter::Sum>(&self, f: impl Fn(&ReadProofCache) -> T) -> T {
        self.shards.iter().map(|s| f(&s.lock().unwrap_or_else(|e| e.into_inner()))).sum()
    }

    /// Total cached entries (pages, proofs or both) across shards.
    pub fn len(&self) -> usize {
        self.total(|s| s.map.len())
    }

    /// True iff nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Page checks answered from the cache (block re-decode skipped),
    /// summed over shards. Cumulative over the cache's lifetime — for
    /// a process-shared cache, over every client.
    pub fn hits(&self) -> u64 {
        self.total(|s| s.hits)
    }

    /// Page checks that paid the full re-derivation, summed over
    /// shards.
    pub fn misses(&self) -> u64 {
        self.total(|s| s.misses)
    }

    /// Block-proof signatures [`check_block_proof`](Self::check_block_proof)
    /// had to verify (no byte-equal proof cached), summed over shards.
    pub fn signature_checks(&self) -> u64 {
        self.total(|s| s.signature_checks)
    }

    /// Level witness pages without a digest memo that the verifier
    /// had to hash, because no remembered page was equal. Cumulative
    /// over the cache's lifetime.
    pub fn level_page_hashes(&self) -> u64 {
        self.level_memo().hashes
    }
}

impl Default for ShardedReadProofCache {
    /// 4096 entries over 8 shards.
    fn default() -> Self {
        ShardedReadProofCache::new(4096, 8)
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
/// trust rules documented on [`ShardedReadProofCache`]) skips its
/// check, and a freshly verified page is admitted afterwards. Returns
/// whether the witness is certified (Phase II material).
fn check_l0_witness(
    w: &L0Witness,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    cache: Option<&ShardedReadProofCache>,
) -> Result<bool, ProofError> {
    let digest = w.page.digest();
    // Consult the cache, stamping recency on the touched entry (LRU).
    // Trust rule (see the type docs): pointer identity, or — for
    // pages decoded off the wire into fresh Arcs — record equality
    // against the already-verified page with the same digest.
    let page_ok = cache.is_some_and(|c| c.consult(&digest, w));
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
            c.admit_page(digest, &w.page);
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
/// The cache is taken by shared reference, so any number of verifier
/// threads call this concurrently and only contend per-shard,
/// per-consult.
pub fn verify_read_proof_sharded(
    proof: &IndexReadProof,
    edge: IdentityId,
    cloud: IdentityId,
    registry: &KeyRegistry,
    now_ns: u64,
    freshness_window_ns: Option<u64>,
    cache: &ShardedReadProofCache,
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
    cache: Option<&ShardedReadProofCache>,
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
        // remember an equal page (the level-page rule on its type docs).
        // A page hashed here is admitted once its checks pass.
        let (digest, admit_to) = match (w.page.memoized_digest(), cache) {
            (Some(digest), _) => (digest, None),
            (None, Some(c)) => match c.recall_level_page(&w.page) {
                Some(digest) => (digest, None),
                None => (w.page.digest(), Some(c)),
            },
            (None, None) => (w.page.digest(), None),
        };
        if !MerkleTree::verify(&root, &digest, &w.inclusion) {
            return Err(ProofError::BadInclusion(w.level));
        }
        if !w.page.covers(proof.key) {
            return Err(ProofError::NotCovering(w.level));
        }
        if let Some(c) = admit_to {
            c.level_memo().admit(&w.page, digest);
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
            cache: &ShardedReadProofCache,
        ) -> Result<VerifiedRead, ProofError> {
            verify_read_proof_sharded(
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
        fn phase2(&self, proof: &IndexReadProof, cache: &ShardedReadProofCache) {
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
        let cache = ShardedReadProofCache::new(4096, 1);
        let verify_cached = |fx: &Fixture, proof: &IndexReadProof| {
            verify_read_proof_sharded(
                proof,
                fx.edge,
                fx.cloud.id,
                &fx.registry,
                2_000,
                None,
                &cache,
            )
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
        let cache = ShardedReadProofCache::new(4096, 1);
        let verify = |proof: &IndexReadProof| {
            verify_read_proof_sharded(
                proof,
                fx.edge,
                fx.cloud.id,
                &fx.registry,
                2_000,
                None,
                &cache,
            )
        };
        verify(&build_read_proof(&fx.tree, 5)).unwrap();
        // Forge: honest block, fabricated records hiding the value.
        let mut forged = build_read_proof(&fx.tree, 5);
        let honest = Arc::clone(&forged.l0[0].page);
        forged.l0[0].page = Arc::new(L0Page::forged(honest.block().clone(), vec![]));
        forged.outcome = None;
        assert_eq!(forged.l0[0].page.digest(), honest.digest(), "same digest by construction");
        let res = verify(&forged);
        assert!(matches!(res, Err(ProofError::BadL0Proof(_))), "forgery got {res:?}");
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
        let cache = ShardedReadProofCache::new(1, 1);
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
        let verify = |fx: &Fixture, key: u64, cache: &ShardedReadProofCache| {
            let proof = build_read_proof(&fx.tree, key);
            verify_read_proof_sharded(
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
        // every cold proof forces an eviction. One shard, so the cap is
        // the whole cache's.
        let cache = ShardedReadProofCache::new(4, 1);
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

    /// Concurrent verifiers against one shared sharded cache: every
    /// verdict is correct and the summed hit/miss stats account for
    /// every consult exactly — no lost updates under contention.
    #[test]
    fn sharded_cache_concurrent_verifiers_stay_exact() {
        let mut fx = Fixture::new();
        for i in 0..4u64 {
            fx.ingest_certified(&[(i, Some(b"v"))]);
        }
        let proof = build_read_proof(&fx.tree, 2);
        let l0_pages = proof.l0.len() as u64;
        let mut enc = Encoder::default();
        proof.encode_into(&mut enc);
        let bytes = enc.finish();
        let cache = ShardedReadProofCache::new(4096, 8);
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
                        verify_read_proof_sharded(
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
        let cache = ShardedReadProofCache::new(4096, 1);
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
    /// hashed, rejected by its inclusion proof, and never admitted.
    #[test]
    fn level_memo_never_answers_for_a_changed_record() {
        let fx = leveled_fixture();
        let cache = ShardedReadProofCache::new(4096, 1);
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        let remembered = cache.level_memo().pages.len();
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
            assert_eq!(cache.level_memo().pages.len(), remembered, "round {round}: admitted");
        }
    }

    /// A page whose inclusion proof fails leaves no trace: the next
    /// get of the same page hashes it again. The L1 witness before it
    /// passes, so it is remembered.
    #[test]
    fn level_page_failing_inclusion_is_not_admitted() {
        let fx = leveled_fixture();
        let cache = ShardedReadProofCache::new(4096, 1);
        let mut broken = fx.decoded(2);
        let l2 = &mut broken.witnesses[1];
        assert!(!l2.inclusion.siblings.is_empty(), "L2 holds several pages");
        l2.inclusion.leaf_index ^= 1;
        let level = l2.level;
        assert_eq!(fx.verify_with(&broken, &cache), Err(ProofError::BadInclusion(level)));
        assert_eq!(cache.level_page_hashes(), 2);
        let memo = cache.level_memo().pages.iter().map(|r| Arc::clone(&r.page)).collect::<Vec<_>>();
        assert_eq!(memo, vec![Arc::clone(&broken.witnesses[0].page)], "only L1 admitted");
        fx.verify_with(&fx.decoded(2), &cache).unwrap();
        assert_eq!(cache.level_page_hashes(), 3, "the failed page was remembered");
    }

    /// Pages carrying a digest memo — every in-process page — never
    /// consult or enter the level memo.
    #[test]
    fn in_process_pages_never_enter_the_level_memo() {
        let fx = leveled_fixture();
        let cache = ShardedReadProofCache::new(4096, 1);
        for key in [1u64, 2, 3, 999] {
            fx.verify_with(&build_read_proof(&fx.tree, key), &cache).unwrap();
        }
        assert_eq!(cache.level_page_hashes(), 0);
        assert!(cache.level_memo().pages.is_empty());
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
        let mut memo = LevelPageMemo::default();
        for key in 0..2 * LEVEL_MEMO_PAGES as u64 {
            let (p, d) = page(key, 8);
            memo.admit(&p, d);
            assert!(memo.pages.len() <= LEVEL_MEMO_PAGES);
        }
        assert_eq!(memo.pages.len(), LEVEL_MEMO_PAGES);
        assert_eq!(memo.recall(&page(0, 8).0), None, "the oldest page was kept");
        let newest = page(2 * LEVEL_MEMO_PAGES as u64 - 1, 8);
        assert_eq!(memo.recall(&newest.0), Some(newest.1));

        let mut memo = LevelPageMemo::default();
        let quarter = LEVEL_MEMO_BYTES / 4;
        for key in 0..8 {
            let (p, d) = page(key, quarter);
            memo.admit(&p, d);
            assert!(memo.bytes <= LEVEL_MEMO_BYTES);
        }
        assert_eq!(memo.pages.len(), 3, "four quarter-MiB pages exceed the byte cap");
        assert_eq!(memo.bytes, memo.pages.iter().map(|r| r.page.encoded_len()).sum::<usize>());
        let (huge, d) = page(99, LEVEL_MEMO_BYTES);
        memo.admit(&huge, d);
        assert!(memo.pages.iter().all(|r| !Arc::ptr_eq(&r.page, &huge)), "oversized page kept");
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
