//! Certification: block proofs, commit phases, and the cloud's ledger.
//!
//! The heart of *lazy certification* (§IV-B). A block is **Phase I
//! committed** once the edge returns a signed response; it is
//! **Phase II committed** once the cloud signs a [`BlockProof`] over
//! `(edge, bid, digest)`. The cloud's [`CertLedger`] accepts exactly
//! one digest per `(edge, bid)` — a second, different digest is
//! equivocation and flags the edge as malicious.

use crate::block::BlockId;
use crate::enc::Encoder;
use std::collections::HashMap;
use wedge_crypto::{Digest, Identity, IdentityId, KeyRegistry, Signature};

/// The two commit phases of lazy certification (Definitions 1 and 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitPhase {
    /// Edge acknowledged; dispute evidence held; cloud not yet heard.
    Phase1,
    /// Cloud certified the digest; equivocation now impossible.
    Phase2,
}

/// A cloud-signed certification that block `bid` at `edge` has digest
/// `digest` — the paper's *block-proof* message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockProof {
    /// The edge node whose log contains the block.
    pub edge: IdentityId,
    /// The certified block id.
    pub bid: BlockId,
    /// The certified digest.
    pub digest: Digest,
    /// Cloud signature over the canonical encoding.
    pub signature: Signature,
}

impl BlockProof {
    /// Canonical bytes covered by the cloud signature.
    pub fn signing_bytes(edge: IdentityId, bid: BlockId, digest: &Digest) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-block-proof-v1", 48);
        enc.put_u64(edge.0).put_u64(bid.0).put_digest(digest);
        enc.finish()
    }

    /// Issues a proof signed by the cloud identity.
    pub fn issue(cloud: &Identity, edge: IdentityId, bid: BlockId, digest: Digest) -> Self {
        let signature = cloud.sign(&Self::signing_bytes(edge, bid, &digest));
        BlockProof { edge, bid, digest, signature }
    }

    /// Verifies the proof against the cloud's registered key.
    pub fn verify(&self, cloud_id: IdentityId, registry: &KeyRegistry) -> bool {
        registry.verify(
            cloud_id,
            &Self::signing_bytes(self.edge, self.bid, &self.digest),
            &self.signature,
        )
    }

    /// Wire size of a proof message: ids + digest + signature.
    pub const WIRE_SIZE: u64 = 8 + 8 + 32 + 32;
}

crate::wire_struct!(BlockProof {
    edge: IdentityId,
    bid: BlockId,
    digest: Digest,
    signature: Signature
});

/// Result of offering a digest to the cloud ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertOutcome {
    /// First digest for this `(edge, bid)`: certified.
    Certified,
    /// Same digest re-submitted: idempotent, already certified.
    AlreadyCertified,
    /// A *different* digest was previously certified — the edge is
    /// equivocating. Carries the originally certified digest.
    Equivocation(Digest),
}

/// The cloud node's record of every certified digest.
///
/// This is the state that makes detection inevitable: the cloud
/// "maintains the digests of all committed blocks of edge nodes"
/// (§IV-B) and rejects a second certify request for the same block id.
#[derive(Default, Debug)]
pub struct CertLedger {
    certified: HashMap<(IdentityId, BlockId), Digest>,
    /// Per-edge contiguous log-length watermark (for gossip).
    log_len: HashMap<IdentityId, u64>,
}

impl CertLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers `(edge, bid, digest)` for certification.
    pub fn offer(&mut self, edge: IdentityId, bid: BlockId, digest: Digest) -> CertOutcome {
        match self.certified.get(&(edge, bid)) {
            Some(existing) if *existing == digest => CertOutcome::AlreadyCertified,
            Some(existing) => CertOutcome::Equivocation(*existing),
            None => {
                self.certified.insert((edge, bid), digest);
                let len = self.log_len.entry(edge).or_insert(0);
                // Watermark = count of contiguously certified blocks
                // from 0; advance while the next id is present.
                while self.certified.contains_key(&(edge, BlockId(*len))) {
                    *len += 1;
                }
                CertOutcome::Certified
            }
        }
    }

    /// The digest certified for `(edge, bid)`, if any.
    pub fn lookup(&self, edge: IdentityId, bid: BlockId) -> Option<&Digest> {
        self.certified.get(&(edge, bid))
    }

    /// Number of contiguously certified blocks for `edge` starting at
    /// block 0 — the log length gossiped to clients for omission
    /// detection (§IV-E).
    pub fn contiguous_len(&self, edge: IdentityId) -> u64 {
        self.log_len.get(&edge).copied().unwrap_or(0)
    }

    /// Total number of certified blocks across all edges.
    pub fn len(&self) -> usize {
        self.certified.len()
    }

    /// True iff nothing has been certified.
    pub fn is_empty(&self) -> bool {
        self.certified.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::sha256;

    #[test]
    fn first_offer_certifies() {
        let mut ledger = CertLedger::new();
        let d = sha256(b"block0");
        assert_eq!(ledger.offer(IdentityId(1), BlockId(0), d), CertOutcome::Certified);
        assert_eq!(ledger.lookup(IdentityId(1), BlockId(0)), Some(&d));
    }

    #[test]
    fn same_digest_is_idempotent() {
        let mut ledger = CertLedger::new();
        let d = sha256(b"block0");
        ledger.offer(IdentityId(1), BlockId(0), d);
        assert_eq!(ledger.offer(IdentityId(1), BlockId(0), d), CertOutcome::AlreadyCertified);
    }

    #[test]
    fn different_digest_is_equivocation() {
        let mut ledger = CertLedger::new();
        let d1 = sha256(b"honest");
        let d2 = sha256(b"lying");
        ledger.offer(IdentityId(1), BlockId(0), d1);
        assert_eq!(ledger.offer(IdentityId(1), BlockId(0), d2), CertOutcome::Equivocation(d1));
    }

    #[test]
    fn edges_are_independent() {
        let mut ledger = CertLedger::new();
        let d1 = sha256(b"a");
        let d2 = sha256(b"b");
        assert_eq!(ledger.offer(IdentityId(1), BlockId(0), d1), CertOutcome::Certified);
        assert_eq!(ledger.offer(IdentityId(2), BlockId(0), d2), CertOutcome::Certified);
    }

    #[test]
    fn contiguous_watermark_advances_in_order() {
        let mut ledger = CertLedger::new();
        let e = IdentityId(1);
        ledger.offer(e, BlockId(0), sha256(b"0"));
        assert_eq!(ledger.contiguous_len(e), 1);
        // Gap: certify bid 2 before bid 1.
        ledger.offer(e, BlockId(2), sha256(b"2"));
        assert_eq!(ledger.contiguous_len(e), 1);
        ledger.offer(e, BlockId(1), sha256(b"1"));
        assert_eq!(ledger.contiguous_len(e), 3);
    }

    #[test]
    fn block_proof_roundtrip() {
        let cloud = Identity::derive("cloud", 0);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        let d = sha256(b"block");
        let proof = BlockProof::issue(&cloud, IdentityId(5), BlockId(3), d);
        assert!(proof.verify(cloud.id, &reg));
    }

    #[test]
    fn forged_proof_rejected() {
        let cloud = Identity::derive("cloud", 0);
        let evil = Identity::derive("edge", 66);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        let d = sha256(b"block");
        // Edge signs its own "proof" pretending to be the cloud.
        let forged = BlockProof {
            edge: IdentityId(5),
            bid: BlockId(3),
            digest: d,
            signature: evil.sign(&BlockProof::signing_bytes(IdentityId(5), BlockId(3), &d)),
        };
        assert!(!forged.verify(cloud.id, &reg));
    }

    #[test]
    fn proof_binds_all_fields() {
        let cloud = Identity::derive("cloud", 0);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        let d = sha256(b"block");
        let proof = BlockProof::issue(&cloud, IdentityId(5), BlockId(3), d);
        let mut p = proof.clone();
        p.bid = BlockId(4);
        assert!(!p.verify(cloud.id, &reg));
        let mut p = proof.clone();
        p.edge = IdentityId(6);
        assert!(!p.verify(cloud.id, &reg));
        let mut p = proof;
        p.digest = sha256(b"other");
        assert!(!p.verify(cloud.id, &reg));
    }
}
