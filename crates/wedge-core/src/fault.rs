//! Malicious-edge fault injection (§IV-E's threat catalogue).
//!
//! A [`FaultPlan`] scripts the lies an edge node tells, so tests and
//! benchmarks can demonstrate that every attack the paper considers is
//! *detected* and *punished*: equivocation (different digest to the
//! cloud than promised to the client), omission (denying stored
//! blocks), wrong-read (serving the wrong block), certification
//! withholding (never Phase-II-ing), and stale serving (freshness
//! violations).

use std::collections::{HashMap, HashSet};
use wedge_log::BlockId;

/// Scripted misbehaviour for an edge node. Default: fully honest.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// For these blocks, certify a *tampered* digest at the cloud
    /// while promising the honest one to the client (equivocation —
    /// caught by the client's Phase-II digest comparison and provable
    /// with the [`crate::messages::AddReceipt`]).
    pub equivocate_blocks: HashSet<u64>,
    /// For these blocks, answer log reads with a signed "not
    /// available" even though the block exists (omission — caught via
    /// gossip watermarks).
    pub omit_reads: HashSet<u64>,
    /// For a read of key `k`, serve block `v`'s content instead
    /// (wrong-read — the proof cannot match the certified digest).
    pub wrong_read: HashMap<u64, u64>,
    /// Never send block-certify for these blocks (withholding — the
    /// client's dispute timeout fires and the cloud finds no
    /// certification).
    pub withhold_cert: HashSet<u64>,
    /// Serve gets from a stale snapshot: stop applying merge results
    /// and global-root refreshes after this epoch (staleness — caught
    /// by the freshness window).
    pub freeze_after_epoch: Option<u64>,
    /// Drop Phase-II forwards to clients (suppression — clients still
    /// learn via dispute path; distinguishes "lazy" from "lying").
    pub suppress_proof_forwards: bool,
}

impl FaultPlan {
    /// A fully honest edge.
    pub fn honest() -> Self {
        FaultPlan::default()
    }

    /// Equivocate on one block id.
    pub fn equivocate_on(bid: u64) -> Self {
        FaultPlan { equivocate_blocks: [bid].into(), ..Default::default() }
    }

    /// Withhold certification of one block id.
    pub fn withhold_on(bid: u64) -> Self {
        FaultPlan { withhold_cert: [bid].into(), ..Default::default() }
    }

    /// Deny reads of one block id.
    pub fn omit_on(bid: u64) -> Self {
        FaultPlan { omit_reads: [bid].into(), ..Default::default() }
    }

    /// Should this block's certification be tampered?
    pub fn tamper_cert(&self, bid: BlockId) -> bool {
        self.equivocate_blocks.contains(&bid.0)
    }

    /// Should this block's certification be dropped?
    pub fn drop_cert(&self, bid: BlockId) -> bool {
        self.withhold_cert.contains(&bid.0)
    }

    /// Should a read of this block be denied?
    pub fn deny_read(&self, bid: BlockId) -> bool {
        self.omit_reads.contains(&bid.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_plan_is_honest() {
        let p = FaultPlan::honest();
        assert!((0..8)
            .map(BlockId)
            .all(|b| !p.tamper_cert(b) && !p.drop_cert(b) && !p.deny_read(b)));
        assert!(p.wrong_read.is_empty() && p.freeze_after_epoch.is_none());
        assert!(!p.suppress_proof_forwards);
    }

    #[test]
    fn predicates_match_plans() {
        let p = FaultPlan::equivocate_on(3);
        assert!(p.tamper_cert(BlockId(3)));
        assert!(!p.tamper_cert(BlockId(4)));
        let p = FaultPlan::withhold_on(5);
        assert!(p.drop_cert(BlockId(5)));
        assert!(!p.drop_cert(BlockId(6)));
        let p = FaultPlan::omit_on(7);
        assert!(p.deny_read(BlockId(7)));
        assert!(!p.deny_read(BlockId(8)));
    }
}
