//! Gossip watermarks for omission detection (§IV-E).
//!
//! A malicious edge can deny having a block ("omission attack"). The
//! cloud bounds this by periodically gossiping a signed
//! `(timestamp, log length)` statement per edge; a client holding a
//! gossip message knows every block id below `log_len` exists, so a
//! negative read response for such an id is provable misbehaviour.

use crate::enc::Encoder;
use wedge_crypto::{Identity, IdentityId, KeyRegistry, Signature};

/// A cloud-signed statement: "as of `timestamp_ns`, edge `edge`'s log
/// has `log_len` contiguously certified blocks".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipWatermark {
    /// The edge node the statement is about.
    pub edge: IdentityId,
    /// Virtual time at which the cloud issued the statement.
    pub timestamp_ns: u64,
    /// Number of contiguously certified blocks (ids `0..log_len`).
    pub log_len: u64,
    /// Cloud signature.
    pub signature: Signature,
}

impl GossipWatermark {
    fn signing_bytes(edge: IdentityId, timestamp_ns: u64, log_len: u64) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-gossip-v1", 24);
        enc.put_u64(edge.0).put_u64(timestamp_ns).put_u64(log_len);
        enc.finish()
    }

    /// Issues a signed watermark as the cloud.
    pub fn issue(cloud: &Identity, edge: IdentityId, timestamp_ns: u64, log_len: u64) -> Self {
        let signature = cloud.sign(&Self::signing_bytes(edge, timestamp_ns, log_len));
        GossipWatermark { edge, timestamp_ns, log_len, signature }
    }

    /// Verifies the cloud's signature.
    pub fn verify(&self, cloud_id: IdentityId, registry: &KeyRegistry) -> bool {
        registry.verify(
            cloud_id,
            &Self::signing_bytes(self.edge, self.timestamp_ns, self.log_len),
            &self.signature,
        )
    }

    /// True iff this watermark proves block `bid` exists.
    pub fn proves_existence(&self, bid: u64) -> bool {
        bid < self.log_len
    }

    /// Wire size of a gossip message.
    pub const WIRE_SIZE: u64 = 8 + 8 + 8 + 32;
}

crate::wire_struct!(GossipWatermark {
    edge: IdentityId,
    timestamp_ns: u64,
    log_len: u64,
    signature: Signature,
});

/// Client-side tracker keeping the freshest watermark per edge.
#[derive(Default, Debug)]
pub struct WatermarkTracker {
    latest: std::collections::HashMap<IdentityId, GossipWatermark>,
}

impl WatermarkTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a verified watermark, keeping the freshest per edge.
    pub fn record(&mut self, wm: GossipWatermark) {
        let keep = match self.latest.get(&wm.edge) {
            Some(existing) => wm.timestamp_ns >= existing.timestamp_ns,
            None => true,
        };
        if keep {
            self.latest.insert(wm.edge, wm);
        }
    }

    /// The freshest watermark for `edge`.
    pub fn latest(&self, edge: IdentityId) -> Option<&GossipWatermark> {
        self.latest.get(&edge)
    }

    /// True iff a recorded watermark proves block `bid` exists at
    /// `edge` — i.e. a "not available" answer is an omission attack.
    pub fn detects_omission(&self, edge: IdentityId, bid: u64) -> bool {
        self.latest(edge).is_some_and(|wm| wm.proves_existence(bid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud_and_registry() -> (Identity, KeyRegistry) {
        let cloud = Identity::derive("cloud", 0);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        (cloud, reg)
    }

    #[test]
    fn watermark_roundtrip() {
        let (cloud, reg) = cloud_and_registry();
        let wm = GossipWatermark::issue(&cloud, IdentityId(3), 1_000, 42);
        assert!(wm.verify(cloud.id, &reg));
        assert!(wm.proves_existence(41));
        assert!(!wm.proves_existence(42));
    }

    #[test]
    fn tampered_watermark_rejected() {
        let (cloud, reg) = cloud_and_registry();
        let mut wm = GossipWatermark::issue(&cloud, IdentityId(3), 1_000, 42);
        wm.log_len = 100;
        assert!(!wm.verify(cloud.id, &reg));
    }

    #[test]
    fn tracker_keeps_freshest() {
        let (cloud, _) = cloud_and_registry();
        let mut tr = WatermarkTracker::new();
        tr.record(GossipWatermark::issue(&cloud, IdentityId(3), 2_000, 50));
        tr.record(GossipWatermark::issue(&cloud, IdentityId(3), 1_000, 40)); // stale
        assert_eq!(tr.latest(IdentityId(3)).unwrap().log_len, 50);
    }

    #[test]
    fn omission_detection() {
        let (cloud, _) = cloud_and_registry();
        let mut tr = WatermarkTracker::new();
        tr.record(GossipWatermark::issue(&cloud, IdentityId(3), 2_000, 10));
        // Edge claims block 5 (< 10) is unavailable: provable omission.
        assert!(tr.detects_omission(IdentityId(3), 5));
        // Block 10 is beyond the watermark: not provable (yet).
        assert!(!tr.detects_omission(IdentityId(3), 10));
        // Unknown edge: nothing to prove.
        assert!(!tr.detects_omission(IdentityId(4), 0));
    }
}
