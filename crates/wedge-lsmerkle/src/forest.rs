//! Incremental Merkle forests for level trees.
//!
//! Every merge used to rebuild the target level's
//! [`MerkleTree`](wedge_crypto::MerkleTree) from
//! scratch: O(level) interior hashes even when the incremental merge
//! (PR 5) rebuilt only a handful of pages. A [`MerkleForest`] keeps the
//! level root *byte-identical* to the flat duplicate-last tree while
//! making a k-page change cost O(k log n) new hashes.
//!
//! ## Shape
//!
//! For `n` leaves the forest holds one **peak** — a perfect subtree —
//! per set bit of `n`, in decreasing height order (the classic
//! Merkle-mountain-range decomposition): `n = 13 = 8 + 4 + 1` gives
//! peaks of 8, 4, and 1 leaves at offsets 0, 8, 12. Peaks start at
//! offsets divisible by their size, so every interior node of a peak
//! is *also* a node of the flat tree at the same (level, position).
//!
//! The flat duplicate-last tree has exactly one node per level that a
//! peak cannot supply: the last node, which spans peak boundaries by
//! repeatedly self-pairing the tail. The forest materializes those as
//! per-level **accumulators** (O(log n) of them, recomputed on every
//! rebuild) and *bags* the peaks right-to-left through them, which
//! reproduces the flat root exactly — no wire or signature change,
//! proven by the `forest_matches_flat_tree_*` property tests below.
//!
//! ## Incremental rebuild
//!
//! [`MerkleForest::rebuild`] diffs the new leaf run against the old
//! forest and reuses every aligned clean subtree (and, via a digest
//! map, the leaf tags of moved leaves). Aligned replacements and
//! appends — the shape of every merge and compaction — recompute only
//! the dirty root-paths plus the accumulators: O(k log n). A splice
//! that shifts leaf positions genuinely changes the flat tree's node
//! values, so no scheme that preserves the root can do better there.

use std::collections::HashMap;

use wedge_crypto::digest::Digest;
use wedge_crypto::merkle::{empty_root, hash_leaf_digest, hash_node, InclusionProof};

/// One perfect subtree of the forest.
#[derive(Clone, Debug)]
struct Peak {
    /// Absolute index of the peak's first leaf; a multiple of the
    /// peak's size.
    start: usize,
    /// `levels[0]` holds the tagged leaves (len `2^h`); the last level
    /// is the single peak root.
    levels: Vec<Vec<Digest>>,
}

impl Peak {
    fn height(&self) -> usize {
        self.levels.len() - 1
    }

    fn size(&self) -> usize {
        1usize << self.height()
    }

    /// Merges an adjacent equal-height right sibling into `self`,
    /// producing one peak of double size. Every existing row is the
    /// concatenation of the two peaks' rows (no rehashing); only the
    /// new top node is hashed.
    fn absorb_right(&mut self, right: Peak) {
        debug_assert_eq!(self.height(), right.height(), "carry merges equal heights only");
        debug_assert_eq!(right.start, self.start + self.size(), "peaks must be adjacent");
        for (lv, row) in right.levels.into_iter().enumerate() {
            self.levels[lv].extend(row);
        }
        let top = self.levels.last().expect("peaks have at least one level");
        let new_top = hash_node(&top[0], &top[1]);
        self.levels.push(vec![new_top]);
    }
}

/// A Merkle forest over page digests, root-compatible with
/// [`MerkleTree`](wedge_crypto::MerkleTree) built over the same run.
#[derive(Clone, Debug)]
pub struct MerkleForest {
    /// Untagged leaf content digests (page digests), in order.
    leaves: Vec<Digest>,
    /// Perfect subtrees, heights strictly decreasing; empty iff no leaves.
    peaks: Vec<Peak>,
    /// `accs[lv]` is the flat tree's last node at level `lv` when that
    /// node spans peak boundaries (`n mod 2^lv != 0`), else `None`.
    accs: Vec<Option<Digest>>,
    root: Digest,
}

fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

impl MerkleForest {
    /// The forest over no leaves; root equals the flat tree's empty
    /// sentinel.
    pub fn empty() -> Self {
        MerkleForest { leaves: Vec::new(), peaks: Vec::new(), accs: vec![None], root: empty_root() }
    }

    /// Builds a forest from scratch over leaf content digests.
    pub fn from_digests(leaves: Vec<Digest>) -> Self {
        Self::build(leaves, None)
    }

    /// Rebuilds a forest over `leaves`, reusing every subtree of `old`
    /// whose aligned leaf run is unchanged. Identical input returns a
    /// clone with zero hashing.
    pub fn rebuild(leaves: Vec<Digest>, old: &MerkleForest) -> Self {
        Self::build(leaves, Some(old))
    }

    fn build(leaves: Vec<Digest>, old: Option<&MerkleForest>) -> Self {
        let n = leaves.len();
        if n == 0 {
            return Self::empty();
        }
        if let Some(o) = old {
            if o.leaves == leaves {
                return o.clone();
            }
            // Pure append — the shape of every merge that only adds
            // pages past the current boundary — takes the carry-merge
            // fast path instead of the generic aligned-diff rebuild.
            if n > o.leaves.len() && leaves[..o.leaves.len()] == o.leaves[..] {
                return o.appended(&leaves[o.leaves.len()..]);
            }
        }

        // Aligned-diff prefix sums: node [a, b) is byte-reusable from
        // `old` iff no leaf in [a, b) changed position or value.
        let old_n = old.map_or(0, |o| o.leaves.len());
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0usize);
        for i in 0..n {
            let dirty = match old {
                Some(o) if i < old_n => o.leaves[i] != leaves[i],
                _ => true,
            };
            prefix.push(prefix[i] + usize::from(dirty));
        }
        let clean = |a: usize, b: usize| prefix[b] == prefix[a];

        // Leaf tags depend only on the digest, not the position, so a
        // moved leaf still reuses its tag through this map.
        let old_tags: HashMap<Digest, Digest> = old
            .map(|o| {
                o.peaks
                    .iter()
                    .flat_map(|p| {
                        p.levels[0]
                            .iter()
                            .enumerate()
                            .map(move |(i, t)| (o.leaves[p.start + i], *t))
                    })
                    .collect()
            })
            .unwrap_or_default();

        let mut peaks = Vec::new();
        let mut start = 0usize;
        for bit in (0..usize::BITS as usize).rev() {
            if n & (1usize << bit) == 0 {
                continue;
            }
            let size = 1usize << bit;
            let mut levels: Vec<Vec<Digest>> = Vec::with_capacity(bit + 1);
            let mut lvl0 = Vec::with_capacity(size);
            for (i, leaf) in leaves.iter().enumerate().skip(start).take(size) {
                let reused = if clean(i, i + 1) {
                    old.and_then(|o| o.peak_node(i, 0)).copied()
                } else {
                    None
                };
                lvl0.push(
                    reused
                        .or_else(|| old_tags.get(leaf).copied())
                        .unwrap_or_else(|| hash_leaf_digest(leaf)),
                );
            }
            levels.push(lvl0);
            for lv in 1..=bit {
                let width = size >> lv;
                let mut row = Vec::with_capacity(width);
                for j in 0..width {
                    let a = start + (j << lv);
                    let b = a + (1usize << lv);
                    let reused = if clean(a, b) {
                        old.and_then(|o| o.peak_node(a, lv)).copied()
                    } else {
                        None
                    };
                    row.push(reused.unwrap_or_else(|| {
                        hash_node(&levels[lv - 1][2 * j], &levels[lv - 1][2 * j + 1])
                    }));
                }
                levels.push(row);
            }
            peaks.push(Peak { start, levels });
            start += size;
        }

        let mut forest = MerkleForest { leaves, peaks, accs: Vec::new(), root: empty_root() };
        forest.bag_peaks();
        forest
    }

    /// Pure-append fast path: extends the forest by `new` leaves with
    /// the Merkle-mountain-range carry rule. Each leaf becomes a
    /// height-0 peak; while the two trailing peaks have equal height
    /// they merge (one hash for the new top, rows concatenated). No
    /// interior peak row is revisited and leading peaks are reused
    /// untouched, so hash work is one leaf tag per new leaf plus
    /// O(log n) carries and accumulators — not O(n).
    fn appended(&self, new: &[Digest]) -> Self {
        let mut leaves = self.leaves.clone();
        let mut peaks = self.peaks.clone();
        for leaf in new {
            let start = leaves.len();
            leaves.push(*leaf);
            peaks.push(Peak { start, levels: vec![vec![hash_leaf_digest(leaf)]] });
            while peaks.len() >= 2
                && peaks[peaks.len() - 1].height() == peaks[peaks.len() - 2].height()
            {
                let right = peaks.pop().expect("just checked len >= 2");
                peaks.last_mut().expect("just checked len >= 2").absorb_right(right);
            }
        }
        let mut forest = MerkleForest { leaves, peaks, accs: Vec::new(), root: empty_root() };
        forest.bag_peaks();
        forest
    }

    /// Computes the per-level accumulators and the root by bagging the
    /// peaks exactly as the flat duplicate-last construction would:
    /// the last node at level `lv` either self-pairs (odd width below)
    /// or pairs with the preceding peak node.
    fn bag_peaks(&mut self) {
        let n = self.leaves.len();
        let hgt = ceil_log2(n);
        let mut accs: Vec<Option<Digest>> = vec![None; hgt + 1];
        for lv in 1..=hgt {
            if n & ((1usize << lv) - 1) == 0 {
                continue; // level boundary aligns with a peak: no spanning node
            }
            let width_prev = (n + (1usize << (lv - 1)) - 1) >> (lv - 1);
            let node = match accs[lv - 1] {
                Some(a) if width_prev % 2 == 1 => hash_node(&a, &a),
                Some(a) => {
                    let left = self
                        .peak_node((width_prev - 2) << (lv - 1), lv - 1)
                        .expect("left partner of the accumulator is a peak node");
                    hash_node(left, &a)
                }
                None => {
                    // Tail starts here: the unpaired last node below is
                    // the smallest peak's root, self-paired.
                    let p = self
                        .peak_node((width_prev - 1) << (lv - 1), lv - 1)
                        .expect("unpaired last node is a peak node");
                    hash_node(p, p)
                }
            };
            accs[lv] = Some(node);
        }
        self.root = match accs[hgt] {
            Some(a) => a,
            None => self.peaks[0].levels[hgt][0],
        };
        self.accs = accs;
    }

    /// The flat-tree node at `lv` covering absolute leaves
    /// `[abs, abs + 2^lv)`, if that node lies inside a single peak.
    fn peak_node(&self, abs: usize, lv: usize) -> Option<&Digest> {
        let p = self.peaks.iter().take_while(|p| p.start <= abs).last()?;
        let off = abs - p.start;
        if off >= p.size() || lv > p.height() || off & ((1usize << lv) - 1) != 0 {
            return None;
        }
        Some(&p.levels[lv][off >> lv])
    }

    /// The flat-tree node at (`lv`, `j`) — a peak node or, for the
    /// spanning last node, the accumulator.
    fn node_at(&self, lv: usize, j: usize) -> Digest {
        let full = self.leaves.len() >> lv;
        if j < full {
            *self.peak_node(j << lv, lv).expect("full nodes live inside peaks")
        } else {
            self.accs[lv].expect("past the full nodes only the accumulator remains")
        }
    }

    /// The level root; byte-identical to
    /// `MerkleTree::from_leaves(self.leaves()).root()`.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The leaf content digests the forest covers.
    pub fn leaves(&self) -> &[Digest] {
        &self.leaves
    }

    /// Number of leaves (0 for the empty forest).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of perfect subtrees — `popcount(leaf_count)`.
    #[cfg(test)]
    fn peak_count(&self) -> usize {
        self.peaks.len()
    }

    /// Produces an inclusion proof byte-identical to the flat tree's
    /// [`MerkleTree::prove`](wedge_crypto::MerkleTree::prove), so
    /// verifiers and the wire format are unchanged.
    pub fn prove(&self, index: usize) -> Option<InclusionProof> {
        let n = self.leaves.len();
        if index >= n {
            return None;
        }
        let hgt = ceil_log2(n);
        let mut siblings = Vec::with_capacity(hgt);
        for lv in 0..hgt {
            let width = (n + (1usize << lv) - 1) >> lv;
            let idx = index >> lv;
            let sib = idx ^ 1;
            // Odd level width: the last node is its own sibling.
            let d = if sib < width { self.node_at(lv, sib) } else { self.node_at(lv, idx) };
            siblings.push(d);
        }
        Some(InclusionProof { leaf_index: index, siblings })
    }
}

impl PartialEq for MerkleForest {
    fn eq(&self, other: &Self) -> bool {
        // Peaks and accumulators are a pure function of the leaves.
        self.leaves == other.leaves
    }
}

impl Eq for MerkleForest {}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::merkle::hash_stats;
    use wedge_crypto::sha256::sha256;
    use wedge_crypto::MerkleTree;

    fn digests(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(format!("page-{i}").as_bytes())).collect()
    }

    /// Tiny deterministic PRNG (same scheme as the tree.rs property
    /// tests) — no external crates.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    #[test]
    fn forest_matches_flat_tree_roots_all_small_sizes() {
        for n in 0..=67 {
            let leaves = digests(n);
            let f = MerkleForest::from_digests(leaves.clone());
            let t = MerkleTree::from_leaves(&leaves);
            assert_eq!(f.root(), t.root(), "n={n}");
            assert_eq!(f.peak_count(), n.count_ones() as usize, "n={n}");
        }
    }

    #[test]
    fn forest_matches_flat_tree_proofs_all_small_sizes() {
        for n in 1..=35 {
            let leaves = digests(n);
            let f = MerkleForest::from_digests(leaves.clone());
            let t = MerkleTree::from_leaves(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                assert_eq!(f.prove(i), t.prove(i), "n={n} i={i}");
                let p = f.prove(i).unwrap();
                assert!(MerkleTree::verify(&t.root(), leaf, &p), "n={n} i={i}");
            }
            assert!(f.prove(n).is_none());
        }
    }

    #[test]
    fn empty_forest_matches_empty_tree() {
        let f = MerkleForest::empty();
        assert_eq!(f.root(), MerkleTree::from_leaves(&[]).root());
        assert_eq!(f.leaf_count(), 0);
        assert!(f.prove(0).is_none());
    }

    #[test]
    fn rebuild_equals_fresh_build_on_random_splice_schedules() {
        let mut rng = SplitMix64(0xC0FFEE);
        for schedule in 0..40 {
            let mut leaves = digests(1 + rng.below(24));
            let mut forest = MerkleForest::from_digests(leaves.clone());
            for step in 0..12 {
                // Random splice: replace [at, at+del) with `ins` fresh leaves.
                let at = rng.below(leaves.len() + 1);
                let del = rng.below(leaves.len() - at + 1);
                let ins = rng.below(5);
                let fresh: Vec<Digest> = (0..ins)
                    .map(|i| sha256(format!("s{schedule}-t{step}-{i}").as_bytes()))
                    .collect();
                leaves.splice(at..at + del, fresh);

                forest = MerkleForest::rebuild(leaves.clone(), &forest);
                let reference = MerkleTree::from_leaves(&leaves);
                assert_eq!(forest.root(), reference.root(), "schedule={schedule} step={step}");
                for i in 0..leaves.len() {
                    assert_eq!(
                        forest.prove(i),
                        reference.prove(i),
                        "schedule={schedule} step={step} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn identical_rebuild_hashes_nothing() {
        let leaves = digests(100);
        let forest = MerkleForest::from_digests(leaves.clone());
        let before = (hash_stats::interior_hashes(), hash_stats::leaf_hashes());
        let again = MerkleForest::rebuild(leaves, &forest);
        let after = (hash_stats::interior_hashes(), hash_stats::leaf_hashes());
        assert_eq!(before, after, "identical rebuild must not hash");
        assert_eq!(again.root(), forest.root());
    }

    #[test]
    fn aligned_single_leaf_change_hashes_o_log_n() {
        let n = 1024; // one perfect peak: the strictest case
        let mut leaves = digests(n);
        let forest = MerkleForest::from_digests(leaves.clone());
        leaves[137] = sha256(b"replacement");
        let before = hash_stats::interior_hashes();
        let rebuilt = MerkleForest::rebuild(leaves.clone(), &forest);
        let interior = hash_stats::interior_hashes() - before;
        // Root path is log2(1024) = 10 interior nodes; accumulators
        // are absent for a power-of-two count.
        assert_eq!(interior, 10, "expected exactly the root path to rehash");
        assert_eq!(rebuilt.root(), MerkleTree::from_leaves(&leaves).root());
    }

    #[test]
    fn append_hashes_o_log_n_not_o_n() {
        let n = 1000;
        let mut leaves = digests(n);
        let forest = MerkleForest::from_digests(leaves.clone());
        leaves.push(sha256(b"appended"));
        let before = hash_stats::interior_hashes();
        let rebuilt = MerkleForest::rebuild(leaves.clone(), &forest);
        let interior = hash_stats::interior_hashes() - before;
        assert!(interior <= 2 * ceil_log2(n + 1) as u64 + 2, "append cost {interior} too high");
        assert_eq!(rebuilt.root(), MerkleTree::from_leaves(&leaves).root());
    }

    /// The append fast path must be observationally identical to a
    /// fresh build: byte-identical roots and proofs across random
    /// append schedules of every alignment (including appends onto an
    /// empty forest and one-leaf growth through carry cascades).
    #[test]
    fn append_fast_path_matches_full_rebuild_on_random_schedules() {
        let mut rng = SplitMix64(0xAB5EED);
        for schedule in 0..30 {
            let mut leaves = digests(rng.below(40));
            let mut forest = MerkleForest::from_digests(leaves.clone());
            for step in 0..10 {
                let k = 1 + rng.below(6);
                let fresh: Vec<Digest> =
                    (0..k).map(|i| sha256(format!("a{schedule}-{step}-{i}").as_bytes())).collect();
                leaves.extend(fresh);
                forest = MerkleForest::rebuild(leaves.clone(), &forest);
                let reference = MerkleForest::from_digests(leaves.clone());
                assert_eq!(
                    forest.root(),
                    reference.root(),
                    "schedule={schedule} step={step}: append root == fresh-build root"
                );
                assert_eq!(forest.root(), MerkleTree::from_leaves(&leaves).root());
                assert_eq!(forest.peak_count(), leaves.len().count_ones() as usize);
                for i in 0..leaves.len() {
                    assert_eq!(
                        forest.prove(i),
                        reference.prove(i),
                        "schedule={schedule} step={step} i={i}"
                    );
                }
            }
        }
    }

    /// The strictest carry cascade: appending one leaf to 1023 (ten
    /// peaks) collapses everything into a single 1024-leaf peak with
    /// exactly ten interior hashes — one per carry — and one leaf tag.
    #[test]
    fn append_carry_cascade_hashes_exactly_log_n() {
        let mut leaves = digests(1023);
        let forest = MerkleForest::from_digests(leaves.clone());
        assert_eq!(forest.peak_count(), 10);
        leaves.push(sha256(b"the-1024th"));
        let before = (hash_stats::interior_hashes(), hash_stats::leaf_hashes());
        let rebuilt = MerkleForest::rebuild(leaves.clone(), &forest);
        let interior = hash_stats::interior_hashes() - before.0;
        let tags = hash_stats::leaf_hashes() - before.1;
        assert_eq!(tags, 1, "one new leaf, one tag");
        assert_eq!(interior, 10, "ten carry merges, no accumulator (power of two)");
        assert_eq!(rebuilt.peak_count(), 1);
        assert_eq!(rebuilt.root(), MerkleTree::from_leaves(&leaves).root());
    }

    #[test]
    fn moved_leaves_reuse_tags() {
        // A shift re-hashes interior nodes (their flat values really
        // change) but must not re-tag the unchanged page digests.
        let leaves = digests(64);
        let forest = MerkleForest::from_digests(leaves.clone());
        let mut shifted = vec![sha256(b"new-head")];
        shifted.extend_from_slice(&leaves);
        let before = hash_stats::leaf_hashes();
        let rebuilt = MerkleForest::rebuild(shifted.clone(), &forest);
        let leaf_hashes = hash_stats::leaf_hashes() - before;
        assert_eq!(leaf_hashes, 1, "only the genuinely new leaf gets tagged");
        assert_eq!(rebuilt.root(), MerkleTree::from_leaves(&shifted).root());
    }
}
