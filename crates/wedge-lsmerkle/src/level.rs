//! Merkle-covered levels and cloud-signed roots.
//!
//! Each level ≥ 1 keeps a Merkle tree over its page digests; the root
//! is signed by the cloud at merge time. The *global root* — the hash
//! of all level roots — is signed together with a timestamp and epoch,
//! which is what read freshness (§V-D) checks against.

use crate::forest::MerkleForest;
use crate::page::Page;
use std::sync::Arc;
use wedge_crypto::{Digest, Identity, IdentityId, KeyRegistry, Signature};
use wedge_log::Encoder;

/// A cloud-signed statement binding a level's Merkle root to an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedLevelRoot {
    /// The edge node whose index this root describes.
    pub edge: IdentityId,
    /// Level number (1-based: L1 is the first Merkle level).
    pub level: u32,
    /// Index epoch; incremented by every merge.
    pub epoch: u64,
    /// Merkle root over the level's page digests.
    pub root: Digest,
    /// Cloud signature.
    pub signature: Signature,
}

impl SignedLevelRoot {
    fn signing_bytes(edge: IdentityId, level: u32, epoch: u64, root: &Digest) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-level-root-v1", 8 + 4 + 8 + 32);
        enc.put_u64(edge.0).put_u32(level).put_u64(epoch).put_digest(root);
        enc.finish()
    }

    /// Issues a signed level root as the cloud.
    pub fn issue(cloud: &Identity, edge: IdentityId, level: u32, epoch: u64, root: Digest) -> Self {
        let signature = cloud.sign(&Self::signing_bytes(edge, level, epoch, &root));
        SignedLevelRoot { edge, level, epoch, root, signature }
    }

    /// Verifies the cloud signature.
    pub fn verify(&self, cloud_id: IdentityId, registry: &KeyRegistry) -> bool {
        registry.verify(
            cloud_id,
            &Self::signing_bytes(self.edge, self.level, self.epoch, &self.root),
            &self.signature,
        )
    }

    /// Canonical nestable wire encoding: the signed fields plus the
    /// signature.
    /// Exact byte length of [`SignedLevelRoot::encode_into`]'s output.
    pub const ENCODED_LEN: usize = 8 + 4 + 8 + 32 + 32;

    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.edge.0)
            .put_u32(self.level)
            .put_u64(self.epoch)
            .put_digest(&self.root)
            .put_signature(&self.signature);
    }

    /// Inverse of [`SignedLevelRoot::encode_into`]. The signature is
    /// *not* verified here.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, wedge_log::DecodeError> {
        Ok(SignedLevelRoot {
            edge: IdentityId(dec.get_u64()?),
            level: dec.get_u32()?,
            epoch: dec.get_u64()?,
            root: dec.get_digest()?,
            signature: dec.get_signature()?,
        })
    }
}

/// A cloud-signed global root: hash of all level roots, plus the
/// freshness timestamp (§V-D: "The cloud node timestamps the global
/// root of each merged LSMerkle").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalRootCert {
    /// The edge node whose index this describes.
    pub edge: IdentityId,
    /// Index epoch.
    pub epoch: u64,
    /// Cloud-side virtual time when signed.
    pub timestamp_ns: u64,
    /// `H(root(L1) || … || root(Ln))`.
    pub root: Digest,
    /// Cloud signature over (edge, epoch, timestamp, root).
    pub signature: Signature,
}

impl GlobalRootCert {
    fn signing_bytes(edge: IdentityId, epoch: u64, timestamp_ns: u64, root: &Digest) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-global-root-v1", 8 + 8 + 8 + 32);
        enc.put_u64(edge.0).put_u64(epoch).put_u64(timestamp_ns).put_digest(root);
        enc.finish()
    }

    /// Issues a signed global root as the cloud.
    pub fn issue(
        cloud: &Identity,
        edge: IdentityId,
        epoch: u64,
        timestamp_ns: u64,
        root: Digest,
    ) -> Self {
        let signature = cloud.sign(&Self::signing_bytes(edge, epoch, timestamp_ns, &root));
        GlobalRootCert { edge, epoch, timestamp_ns, root, signature }
    }

    /// Verifies the cloud signature.
    pub fn verify(&self, cloud_id: IdentityId, registry: &KeyRegistry) -> bool {
        registry.verify(
            cloud_id,
            &Self::signing_bytes(self.edge, self.epoch, self.timestamp_ns, &self.root),
            &self.signature,
        )
    }

    /// Exact byte length of [`GlobalRootCert::encode_into`]'s output.
    pub const ENCODED_LEN: usize = 8 + 8 + 8 + 32 + 32;

    /// Canonical nestable wire encoding: the signed fields plus the
    /// signature.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.edge.0)
            .put_u64(self.epoch)
            .put_u64(self.timestamp_ns)
            .put_digest(&self.root)
            .put_signature(&self.signature);
    }

    /// Inverse of [`GlobalRootCert::encode_into`]. The signature is
    /// *not* verified here.
    pub fn decode_from(dec: &mut wedge_log::Decoder<'_>) -> Result<Self, wedge_log::DecodeError> {
        Ok(GlobalRootCert {
            edge: IdentityId(dec.get_u64()?),
            epoch: dec.get_u64()?,
            timestamp_ns: dec.get_u64()?,
            root: dec.get_digest()?,
            signature: dec.get_signature()?,
        })
    }
}

/// A Merkle level held at the edge: pages plus the Merkle forest over
/// their digests and the cloud's signature on the root.
///
/// Immutable after construction: the forest is built exactly once
/// (from memoized page digests, reusing the previous level's subtrees
/// where possible) and reused for every root read and inclusion proof
/// until the level is replaced by a merge.
#[derive(Clone, Debug)]
pub struct Level {
    /// Range-partitioned pages, sorted by `min`.
    pages: Vec<Arc<Page>>,
    /// Merkle forest over page digests (built once per level
    /// lifetime); root-compatible with the flat
    /// [`MerkleTree`](wedge_crypto::MerkleTree).
    forest: MerkleForest,
    /// The cloud's signature on `forest.root()` at the current epoch.
    signed_root: SignedLevelRoot,
}

impl Level {
    /// Builds a level from pages, the forest already computed over
    /// their digests, and a matching signed root. The caller builds
    /// the forest once (usually to validate the signed root) and hands
    /// it over — the level never rebuilds it.
    ///
    /// # Panics
    /// Panics (debug) if the forest does not match the signed root or
    /// the pages — that would mean the edge accepted a bogus merge
    /// result.
    pub fn from_parts(
        pages: Vec<Arc<Page>>,
        forest: MerkleForest,
        signed_root: SignedLevelRoot,
    ) -> Self {
        debug_assert_eq!(forest.root(), signed_root.root, "signed root mismatch");
        debug_assert!(
            forest.leaves().iter().copied().eq(pages.iter().map(|p| p.digest())),
            "forest does not cover pages"
        );
        Level { pages, forest, signed_root }
    }

    /// An empty level under a signed empty root.
    pub fn empty(signed_root: SignedLevelRoot) -> Self {
        Self::from_parts(Vec::new(), MerkleForest::empty(), signed_root)
    }

    /// Range-partitioned pages, sorted by `min`.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// The Merkle forest over the page digests.
    pub fn forest(&self) -> &MerkleForest {
        &self.forest
    }

    /// The cloud's signature on the level root.
    pub fn signed_root(&self) -> &SignedLevelRoot {
        &self.signed_root
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The level's current Merkle root.
    pub fn root(&self) -> Digest {
        self.forest.root()
    }
}

/// Builds the Merkle forest over a page list, reusing every unchanged
/// aligned subtree of `old` — O(k log n) interior hashes for a k-page
/// change instead of O(n). This is the construction every merge and
/// compaction uses. Page content digests are memoized across `pool`
/// first: they are the dominant cost when pages were decoded off the
/// wire and carry no memo. Byte-identical at every pool width, because
/// digest memoization is idempotent.
pub fn forest_over_reusing(
    pages: &[Arc<Page>],
    old: &MerkleForest,
    pool: &wedge_pool::Pool,
) -> MerkleForest {
    pool.for_each(pages, |p| {
        p.digest();
    });
    MerkleForest::rebuild(pages.iter().map(|p| p.digest()).collect(), old)
}

/// The root of an empty level (computed once per process).
pub fn empty_level_root() -> Digest {
    wedge_crypto::merkle::empty_root()
}

/// Computes the global root digest from level roots (L1..Ln order).
pub fn compute_global_root(level_roots: &[Digest]) -> Digest {
    wedge_crypto::merkle::global_root(level_roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvRecord, Version};
    use crate::page::split_into_pages;
    use wedge_crypto::MerkleTree;

    /// Builds the flat Merkle tree over a page list (empty list ⇒
    /// sentinel empty-tree root): the reference construction the
    /// forest must agree with byte-for-byte.
    fn tree_over(pages: &[Arc<Page>]) -> MerkleTree {
        MerkleTree::from_leaf_iter(pages.iter().map(|p| p.digest()))
    }

    /// Builds the Merkle forest over a page list from scratch.
    fn forest_over(pages: &[Arc<Page>]) -> MerkleForest {
        MerkleForest::from_digests(pages.iter().map(|p| p.digest()).collect())
    }

    fn cloud_reg() -> (Identity, KeyRegistry) {
        let cloud = Identity::derive("cloud", 0);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        (cloud, reg)
    }

    fn sample_pages(n: usize) -> Vec<Arc<Page>> {
        let records: Vec<KvRecord> = (0..n as u64 * 3)
            .map(|k| KvRecord { key: k, version: Version { bid: 1, pos: 0 }, value: Some(vec![1]) })
            .collect();
        split_into_pages(records, 3, 0)
    }

    #[test]
    fn signed_level_root_roundtrip() {
        let (cloud, reg) = cloud_reg();
        let pages = sample_pages(2);
        let root = tree_over(&pages).root();
        let slr = SignedLevelRoot::issue(&cloud, IdentityId(9), 1, 5, root);
        assert!(slr.verify(cloud.id, &reg));
        let mut bad = slr.clone();
        bad.epoch = 6;
        assert!(!bad.verify(cloud.id, &reg));
        let mut bad = slr;
        bad.level = 2;
        assert!(!bad.verify(cloud.id, &reg));
    }

    #[test]
    fn global_root_cert_roundtrip() {
        let (cloud, reg) = cloud_reg();
        let root = compute_global_root(&[empty_level_root(), empty_level_root()]);
        let cert = GlobalRootCert::issue(&cloud, IdentityId(9), 0, 123, root);
        assert!(cert.verify(cloud.id, &reg));
        let mut bad = cert;
        bad.timestamp_ns = 999;
        assert!(!bad.verify(cloud.id, &reg));
    }

    #[test]
    fn level_forest_matches_pages() {
        let (cloud, _) = cloud_reg();
        let pages = sample_pages(3);
        let forest = forest_over(&pages);
        let root = forest.root();
        // The forest root is the flat-tree root — the signed value is
        // unchanged by the forest representation.
        assert_eq!(root, tree_over(&pages).root());
        let slr = SignedLevelRoot::issue(&cloud, IdentityId(9), 1, 0, root);
        let level = Level::from_parts(pages.clone(), forest, slr);
        assert_eq!(level.page_count(), pages.len());
        assert_eq!(level.root(), root);
        // Inclusion proofs work for each page and verify against the
        // flat-tree verifier (wire format unchanged).
        for (i, p) in pages.iter().enumerate() {
            let proof = level.forest().prove(i).unwrap();
            assert!(MerkleTree::verify(&level.root(), &p.digest(), &proof));
        }
    }

    #[test]
    fn empty_level_root_is_stable() {
        assert_eq!(empty_level_root(), empty_level_root());
        let pages = sample_pages(1);
        assert_ne!(empty_level_root(), tree_over(&pages).root());
    }
}
