//! Property-style tests for LSMerkle: model-based equivalence against
//! a plain ordered map, plus structural invariants under arbitrary
//! workloads.
//!
//! No third-party crates are available in the build environment, so
//! these run each property over deterministic SplitMix64-generated
//! case streams instead of proptest.

use std::collections::BTreeMap;
use std::sync::Arc;
use wedge_crypto::{Identity, IdentityId, KeyRegistry, MerkleTree};
use wedge_log::{Block, BlockId, CertLedger, Entry};
use wedge_lsmerkle::{
    build_read_proof, certify_block, check_level_ranges, kv_entry, needs_compaction,
    records_from_block, verify_read_proof, CloudIndex, KvOp, KvRecord, L0Page, LsMerkle, LsmConfig,
    MergeRequest, MerkleForest, Page,
};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Arbitrary op stream: (key in a small space, Some(value) | None).
    fn ops(&mut self) -> Vec<(u64, Option<Vec<u8>>)> {
        let n = 1 + self.below(119);
        (0..n)
            .map(|_| {
                let key = self.below(64);
                let value = if self.below(10) < 8 {
                    let len = 1 + self.below(7) as usize;
                    Some((0..len).map(|_| self.next() as u8).collect())
                } else {
                    None
                };
                (key, value)
            })
            .collect()
    }
}

/// A full edge+cloud fixture that ingests scripted ops.
struct Fixture {
    cloud: Identity,
    client: Identity,
    registry: KeyRegistry,
    ledger: CertLedger,
    index: CloudIndex,
    tree: LsMerkle,
    edge: IdentityId,
    next_bid: u64,
    next_seq: u64,
}

impl Fixture {
    fn new(cfg: LsmConfig) -> Self {
        let cloud = Identity::derive("cloud", 1);
        let client = Identity::derive("client", 1000);
        let edge = IdentityId(100);
        let mut registry = KeyRegistry::new();
        registry.register(cloud.id, cloud.public()).unwrap();
        registry.register(client.id, client.public()).unwrap();
        let mut index = CloudIndex::new(cfg.clone());
        let init = index.init_edge(&cloud, edge, 0);
        let tree = LsMerkle::new(edge, cfg, init);
        Fixture {
            cloud,
            client,
            registry,
            ledger: CertLedger::new(),
            index,
            tree,
            edge,
            next_bid: 0,
            next_seq: 0,
        }
    }

    /// The pre-optimization compaction, kept as a reference model:
    /// materialize every record, full-sort newest-first, dedup per
    /// key, drop tombstones at the deepest level. The streaming k-way
    /// merge must reproduce this byte-for-byte.
    fn reference_merge(&self, req: &MergeRequest) -> Vec<KvRecord> {
        let mut combined: Vec<KvRecord> = Vec::new();
        for p in &req.source_l0 {
            combined.extend(records_from_block(p.block()));
        }
        for p in req.source_pages.iter().chain(req.target_pages.iter()) {
            combined.extend(p.records().iter().cloned());
        }
        combined.sort_by(|a, b| a.key.cmp(&b.key).then(b.version.cmp(&a.version)));
        combined.dedup_by(|a, b| a.key == b.key); // keeps first = newest
        let deepest = (req.source_level + 1) as usize == self.index.config().num_merkle_levels();
        if deepest {
            combined.retain(|r| r.value.is_some());
        }
        combined
    }

    fn ingest_block(&mut self, ops: &[(u64, Option<Vec<u8>>)]) {
        let entries: Vec<Entry> = ops
            .iter()
            .map(|(k, v)| {
                let op = match v {
                    Some(v) => KvOp::put(*k, v.clone()),
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
        certify_block(&self.cloud, &mut self.ledger, &mut self.tree, block);
        for (req, res) in
            self.index.merge_until_settled(&self.cloud, &self.ledger, &mut self.tree, 0)
        {
            // The k-way merge output must equal the old sort-based
            // merge, record for record.
            let merged: Vec<KvRecord> =
                res.new_target_pages.iter().flat_map(|p| p.records().iter().cloned()).collect();
            assert_eq!(merged, self.reference_merge(&req), "k-way merge diverged from reference");
        }
    }

    /// Recomputes every digest/root in the tree from scratch and
    /// asserts the memoized values are byte-identical.
    fn assert_caches_fresh(&self) {
        for (page, _) in self.tree.l0_pages() {
            assert_eq!(page.digest(), page.block().digest(), "stale L0 digest memo");
        }
        let mut fresh_roots = Vec::new();
        for level in self.tree.levels() {
            for page in level.pages() {
                let fresh = Page::new(
                    page.min(),
                    page.max(),
                    page.records().to_vec(),
                    page.created_at_ns(),
                );
                assert_eq!(page.digest(), fresh.digest(), "stale page digest memo");
            }
            let fresh_tree = MerkleTree::from_leaf_iter(level.pages().iter().map(|p| p.digest()));
            assert_eq!(level.root(), fresh_tree.root(), "stale level tree");
            fresh_roots.push(fresh_tree.root());
        }
        assert_eq!(self.tree.level_roots(), fresh_roots);
        assert_eq!(
            self.tree.global().root,
            wedge_crypto::merkle::global_root(&fresh_roots),
            "global cert does not cover the freshly recomputed roots"
        );
    }
}

/// LSMerkle agrees with a plain BTreeMap model under arbitrary
/// put/delete streams and arbitrary batching (merges included).
#[test]
fn model_equivalence() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x30DE1 ^ case);
        let ops = rng.ops();
        let batch = 1 + rng.below(6) as usize;
        let mut fx = Fixture::new(LsmConfig::exposition());
        let mut model: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        for chunk in ops.chunks(batch) {
            fx.ingest_block(chunk);
            for (k, v) in chunk {
                model.insert(*k, v.clone());
            }
        }
        for key in 0u64..64 {
            let expect = model.get(&key).cloned().flatten();
            let got = fx.tree.find_newest(key).and_then(|(r, _)| r.value);
            assert_eq!(expect, got, "case {case} key {key}");
        }
    }
}

/// Every level obeys the paper's range invariants after any sequence
/// of merges.
#[test]
fn level_invariants_hold() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x1E7E1 ^ case);
        let ops = rng.ops();
        let batch = 1 + rng.below(6) as usize;
        let mut fx = Fixture::new(LsmConfig::exposition());
        for chunk in ops.chunks(batch) {
            fx.ingest_block(chunk);
            for level in fx.tree.levels() {
                assert!(check_level_ranges(level.pages()).is_ok(), "case {case}");
            }
        }
    }
}

/// Read proofs for every key — present or absent — verify, and the
/// verified value matches the model.
#[test]
fn read_proofs_verify_and_match() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x9200F ^ case);
        let ops = rng.ops();
        let batch = 1 + rng.below(6) as usize;
        let mut fx = Fixture::new(LsmConfig::exposition());
        let mut model: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        for chunk in ops.chunks(batch) {
            fx.ingest_block(chunk);
            for (k, v) in chunk {
                model.insert(*k, v.clone());
            }
        }
        for _ in 0..1 + rng.below(11) {
            let key = rng.below(80);
            let proof = build_read_proof(&fx.tree, key);
            let read =
                verify_read_proof(&proof, fx.edge, fx.cloud.id, &fx.registry, u64::MAX, None);
            assert!(read.is_ok(), "case {case} key {key}: {:?}", read.err());
            let expect = model.get(&key).cloned().flatten();
            assert_eq!(read.unwrap().value, expect, "case {case} key {key}");
        }
    }
}

/// The epoch advances exactly once per merge, and the edge's level
/// roots always equal the cloud's authoritative roots.
#[test]
fn edge_cloud_root_agreement() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xA62EE ^ case);
        let ops = rng.ops();
        let batch = 1 + rng.below(6) as usize;
        let mut fx = Fixture::new(LsmConfig::exposition());
        for chunk in ops.chunks(batch) {
            fx.ingest_block(chunk);
            let cloud_state = fx.index.state(fx.edge).unwrap();
            assert_eq!(fx.tree.epoch(), cloud_state.epoch);
            assert_eq!(fx.tree.level_roots(), cloud_state.level_roots.clone());
        }
    }
}

/// Tampering with any page in a proof is always detected.
#[test]
fn tampered_proofs_rejected() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x7A27E ^ case);
        let ops = rng.ops();
        let key = rng.below(64);
        let tamper_value: Vec<u8> = (0..1 + rng.below(3)).map(|_| rng.next() as u8).collect();
        let mut fx = Fixture::new(LsmConfig::exposition());
        for chunk in ops.chunks(3) {
            fx.ingest_block(chunk);
        }
        let mut proof = build_read_proof(&fx.tree, key);
        // Tamper wherever there is material.
        // Pages are immutable; a lying edge constructs replacements.
        let mut tampered = false;
        if let Some(w) = proof.witnesses.first_mut() {
            let mut records = w.page.records().to_vec();
            if let Some(r) = records.first_mut() {
                if r.value.as_ref() != Some(&tamper_value) {
                    r.value = Some(tamper_value.clone());
                    w.page = Arc::new(Page::new(
                        w.page.min(),
                        w.page.max(),
                        records,
                        w.page.created_at_ns(),
                    ));
                    tampered = true;
                }
            }
        } else if let Some(w) = proof.l0.first_mut() {
            let mut records = w.page.records().to_vec();
            if let Some(r) = records.first_mut() {
                if r.value.as_ref() != Some(&tamper_value) {
                    r.value = Some(tamper_value.clone());
                    w.page = Arc::new(L0Page::forged(w.page.block().clone(), records));
                    tampered = true;
                }
            }
        }
        if !tampered {
            continue;
        }
        let read = verify_read_proof(&proof, fx.edge, fx.cloud.id, &fx.registry, u64::MAX, None);
        assert!(read.is_err(), "case {case}: tampered proof accepted");
    }
}

/// Tentpole property: a Merkle forest carried through any random
/// schedule of appends, run replacements, point edits, and
/// truncations has the same root as a flat `MerkleTree` rebuilt from
/// scratch over the same leaf run — and its inclusion proofs verify
/// through the flat verifier. This is what makes swapping the level
/// trees for forests invisible at the signed-root level: no wire or
/// signature change.
#[test]
fn forest_root_matches_flat_tree_under_random_schedules() {
    use wedge_crypto::merkle::hash_leaf;
    for case in 0..64u64 {
        let mut rng = Rng::new(0xF0BE57 ^ case);
        let mut leaves: Vec<wedge_crypto::Digest> = Vec::new();
        let mut forest = MerkleForest::empty();
        for step in 0..2 + rng.below(24) {
            match rng.below(4) {
                // Append a short run (a merge growing the level).
                0 => {
                    for _ in 0..=rng.below(5) {
                        leaves.push(hash_leaf(&rng.next().to_le_bytes()));
                    }
                }
                // Replace a contiguous run with one of a different
                // length (an incremental merge re-chunking a region).
                1 if !leaves.is_empty() => {
                    let start = rng.below(leaves.len() as u64) as usize;
                    let end = start + 1 + rng.below((leaves.len() - start) as u64) as usize;
                    let repl: Vec<_> =
                        (0..rng.below(6)).map(|_| hash_leaf(&rng.next().to_le_bytes())).collect();
                    leaves.splice(start..end, repl);
                }
                // Truncate (a drained or folded level shrinking).
                2 if !leaves.is_empty() => {
                    let keep = rng.below(leaves.len() as u64 + 1) as usize;
                    leaves.truncate(keep);
                }
                // Point edit (a single dirty page).
                _ => {
                    if !leaves.is_empty() {
                        let i = rng.below(leaves.len() as u64) as usize;
                        leaves[i] = hash_leaf(&rng.next().to_le_bytes());
                    }
                }
            }
            forest = MerkleForest::rebuild(leaves.clone(), &forest);
            let flat = MerkleTree::from_leaf_iter(leaves.iter().copied());
            assert_eq!(
                forest.root(),
                flat.root(),
                "case {case} step {step}: forest root diverged from flat tree"
            );
            assert_eq!(forest.leaf_count(), leaves.len());
            if !leaves.is_empty() {
                let i = rng.below(leaves.len() as u64) as usize;
                let proof = forest.prove(i).expect("in-range leaf proves");
                assert!(
                    MerkleTree::verify(&flat.root(), &leaves[i], &proof),
                    "case {case} step {step}: forest proof rejected by the flat verifier"
                );
            }
        }
    }
}

/// Fragmentation regression: incremental merges confined to dirty
/// regions leave one partial page per region boundary, so narrow
/// updates decay a level toward tiny pages. A background-compaction
/// request (empty source, same merge path) must fold every shrinkable
/// run back to the configured page capacity — without disturbing a
/// single record.
#[test]
fn background_compaction_folds_partial_pages_back_to_capacity() {
    let cap = LsmConfig::exposition().page_capacity;
    let partials = |fx: &Fixture| -> usize {
        fx.tree.levels().iter().flat_map(|l| l.pages()).filter(|p| p.records().len() < cap).count()
    };
    let mut fx = Fixture::new(LsmConfig::exposition());
    let mut model: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
    let mut ingest = |fx: &mut Fixture, ops: Vec<(u64, Option<Vec<u8>>)>| {
        fx.ingest_block(&ops);
        for (k, v) in ops {
            model.insert(k, v);
        }
    };
    // Fill a sparse key space wide so deep levels hold full pages...
    let wide: Vec<(u64, Option<Vec<u8>>)> = (0..64).map(|k| (k * 8, Some(vec![k as u8]))).collect();
    for chunk in wide.chunks(4) {
        ingest(&mut fx, chunk.to_vec());
    }
    // ...then hammer narrow key bands with *inserts and deletes*:
    // each merge dirties one or two deep pages, and a region whose
    // record count changed re-splits into full pages plus a partial
    // boundary page. (Pure updates would not fragment — counts are
    // preserved and regions re-split into the same full pages.)
    let mut rng = Rng::new(0xF01D);
    let mut fragmented = false;
    for round in 0..400u64 {
        let base = rng.below(500);
        let ops: Vec<(u64, Option<Vec<u8>>)> = (0..3)
            .map(|i| {
                let key = base + i;
                let value = if rng.below(5) == 0 { None } else { Some(vec![round as u8, i as u8]) };
                (key, value)
            })
            .collect();
        ingest(&mut fx, ops);
        if fx.tree.fragmented_level().is_some() {
            fragmented = true;
            break;
        }
    }
    assert!(fragmented, "narrow insert/delete workload failed to fragment any level");
    let partial_before = partials(&fx);

    // Drive the compactor exactly as the edge engine's clock does:
    // build an empty-source request, have the cloud fold + re-sign,
    // apply the result. Repeat while eligible levels remain.
    let stats_before = fx.index.compaction_stats();
    while let Some(req) = fx.tree.build_compaction_request() {
        assert!(req.source_l0.is_empty() && req.source_pages.is_empty());
        let res = fx.index.process_merge(&fx.cloud, &fx.ledger, &req, 0).unwrap();
        fx.tree.apply_merge_result(&req, res).unwrap();
    }
    let stats = fx.index.compaction_stats();
    assert!(stats.fold_runs > stats_before.fold_runs, "compaction folded nothing");
    assert!(stats.pages_folded_in > stats.pages_folded_out, "folds must shrink the level");

    // Partial boundary pages are folded back to capacity: fewer
    // partial pages overall, and no level the compactor may touch
    // still holds a shrinkable run.
    assert!(partials(&fx) < partial_before, "partial page count did not drop");
    for (i, level) in fx.tree.levels().iter().enumerate() {
        let above_empty = i == 0 || fx.tree.levels()[i - 1].pages().is_empty();
        if above_empty {
            assert!(!needs_compaction(level.pages(), cap), "level {} still foldable", i + 1);
        }
    }
    fx.assert_caches_fresh();

    // Folding moved records between pages but changed none of them.
    for key in 0u64..512 {
        let expect = model.get(&key).cloned().flatten();
        let got = fx.tree.find_newest(key).and_then(|(r, _)| r.value);
        assert_eq!(expect, got, "key {key} corrupted by compaction");
    }
}

/// Differential property: across random ingest/merge/read schedules,
/// every memoized digest, level root, and the global root are
/// byte-identical to freshly recomputed ones, and the streaming k-way
/// merge matches the old sort-based compaction (checked per merge
/// inside `ingest_block`).
#[test]
fn cached_digests_match_fresh_recompute() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xD1FF ^ case);
        let ops = rng.ops();
        let batch = 1 + rng.below(6) as usize;
        let mut fx = Fixture::new(LsmConfig::exposition());
        for chunk in ops.chunks(batch) {
            fx.ingest_block(chunk);
            // Exercise the read path so proof construction populates
            // any lazily computed digests before the audit.
            let key = rng.below(80);
            let proof = build_read_proof(&fx.tree, key);
            verify_read_proof(&proof, fx.edge, fx.cloud.id, &fx.registry, u64::MAX, None)
                .expect("honest proof verifies");
            fx.assert_caches_fresh();
        }
    }
}
