//! Log entries: client-signed units of data.
//!
//! Clients are authenticated (§III): every entry carries the producing
//! client's identity, a client-local sequence number (the replay /
//! idempotence handle of §IV-E), and the client's signature over the
//! canonical encoding.

use crate::enc::Encoder;
use wedge_crypto::{Identity, IdentityId, KeyRegistry, Signature};

/// A single client-signed log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The producing client.
    pub client: IdentityId,
    /// Client-local monotonic sequence number. Duplicate `(client,
    /// sequence)` pairs are rejected by the edge, defeating replay
    /// attacks without extra edge-cloud communication (§IV-E).
    pub sequence: u64,
    /// Opaque payload (raw sensor data, or an encoded key-value op).
    pub payload: Vec<u8>,
    /// Client signature over the canonical encoding.
    pub signature: Signature,
}

impl Entry {
    /// Builds and signs an entry as `identity`.
    pub fn new_signed(identity: &Identity, sequence: u64, payload: Vec<u8>) -> Self {
        let mut e =
            Entry { client: identity.id, sequence, payload, signature: Signature { e: 0, s: 0 } };
        e.signature = identity.sign(&e.signing_bytes());
        e
    }

    /// The canonical bytes covered by the signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-entry-v1", 24 + self.payload.len());
        enc.put_u64(self.client.0).put_u64(self.sequence).put_bytes(&self.payload);
        enc.finish()
    }

    /// Verifies the client signature against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(self.client, &self.signing_bytes(), &self.signature)
    }

    /// Approximate wire size in bytes (payload + fixed fields).
    pub fn wire_size(&self) -> u64 {
        (8 + 8 + 8 + self.payload.len() + 32) as u64
    }
}

crate::wire_struct!(Entry { client: IdentityId, sequence: u64, payload: Vec<u8>, signature: Signature });

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::RevocationReason;

    fn setup() -> (Identity, KeyRegistry) {
        let ident = Identity::derive("client", 1);
        let mut reg = KeyRegistry::new();
        reg.register(ident.id, ident.public()).unwrap();
        (ident, reg)
    }

    #[test]
    fn signed_entry_verifies() {
        let (ident, reg) = setup();
        let e = Entry::new_signed(&ident, 0, b"temp=72F".to_vec());
        assert!(e.verify(&reg));
    }

    #[test]
    fn tampered_payload_fails() {
        let (ident, reg) = setup();
        let mut e = Entry::new_signed(&ident, 0, b"temp=72F".to_vec());
        e.payload = b"temp=99F".to_vec();
        assert!(!e.verify(&reg));
    }

    #[test]
    fn tampered_sequence_fails() {
        let (ident, reg) = setup();
        let mut e = Entry::new_signed(&ident, 0, b"x".to_vec());
        e.sequence = 1;
        assert!(!e.verify(&reg));
    }

    #[test]
    fn unregistered_client_fails() {
        let ident = Identity::derive("client", 2);
        let reg = KeyRegistry::new();
        let e = Entry::new_signed(&ident, 0, b"x".to_vec());
        assert!(!e.verify(&reg));
    }

    #[test]
    fn revoked_client_fails() {
        let (ident, mut reg) = setup();
        let e = Entry::new_signed(&ident, 0, b"x".to_vec());
        reg.revoke(ident.id, RevocationReason::Administrative("test".into()));
        assert!(!e.verify(&reg));
    }

    #[test]
    fn wire_size_tracks_payload() {
        let (ident, _) = setup();
        let small = Entry::new_signed(&ident, 0, vec![0; 10]);
        let large = Entry::new_signed(&ident, 0, vec![0; 1000]);
        assert_eq!(large.wire_size() - small.wire_size(), 990);
    }
}
