//! # wedge-lsmerkle
//!
//! The LSMerkle trusted index (§V of the paper): an mLSM-style
//! LSM-tree-of-Merkle-trees extended with WedgeChain's lazy
//! certification.
//!
//! - [`kv`]: keys, values, versions, and the KV op encoding carried in
//!   log entries.
//! - [`page`]: immutable pages — block-backed L0 pages and sorted,
//!   range-covering pages for deeper levels (with the paper's
//!   `p_x.max = p_y.min − 1` adjacency invariant). Pages memoize
//!   their digest (hashed at most once per lifetime) and are shared
//!   as `Arc`s between the tree, merge messages, and read proofs.
//! - [`level`]: Merkle-covered levels, cloud-signed level roots, and
//!   the timestamped global root.
//! - [`tree`]: the edge-resident [`tree::LsMerkle`] state machine.
//! - [`merge`]: the cloud-verified merge/compaction protocol
//!   ([`merge::CloudIndex`]), and the in-process cloud written once:
//!   [`merge::certify_block`] certifies a sealed block into a tree and
//!   [`merge::CloudIndex::merge_until_settled`] answers every merge it
//!   owes (the Edge-baseline's cloud, preloads, fixtures).
//! - [`proof`]: read proofs — build at the edge, verify at the client
//!   ([`proof::build_read_proof`] / [`proof::verify_read_proof`]).
//! - [`config`]: tree shape ([`config::LsmConfig`]), including the
//!   paper's evaluation configuration (thresholds 10/10/100/1000).

#![forbid(unsafe_code)]

pub mod compact;
pub mod config;
pub mod forest;
pub mod kv;
pub mod level;
pub mod merge;
pub mod page;
pub mod proof;
#[cfg(test)]
mod testkit;
pub mod tree;

pub use compact::{fold_partial_pages, needs_compaction, CompactionStats, FoldOutcome};
pub use config::LsmConfig;
pub use forest::MerkleForest;
pub use kv::{kv_entry, records_from_block, Key, KvOp, KvRecord, Value, Version};
pub use level::{GlobalRootCert, Level, SignedLevelRoot};
pub use merge::{
    certify_block, kway_merge_newest, retention_fingerprint, CloudIndex, DeltaMergeRequest,
    DeltaMergeResult, InitBundle, MergeError, MergeRequest, MergeResult, PageDelta, ReqPageSlot,
    RetainedLevel,
};
pub use page::{
    check_level_ranges, find_covering, split_into_pages, split_into_range_pages, L0Page, Page,
};
pub use proof::{
    build_read_proof, verify_read_proof, verify_read_proof_cached, IndexReadProof, L0Witness,
    LevelWitness, ProofError, ReadProofCache, VerifiedRead,
};
pub use tree::{LsMerkle, RecordLocation};
