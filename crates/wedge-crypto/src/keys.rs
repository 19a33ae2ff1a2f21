//! Identities and the public-key registry.
//!
//! WedgeChain's security model (§II-D) assumes node identities are
//! *known*: an edge node belongs to an identifiable provider, so a
//! malicious act can be punished and the node barred from re-entry
//! (assumption 2). The [`KeyRegistry`] models exactly that: it maps
//! identity ids to public keys, records revocations, and refuses to
//! re-register a revoked identity.
//!
//! It is also where signatures are checked fast: each registered key
//! carries a table of its powers, built by the first
//! [`KeyRegistry::verify`] of that key and shared by every clone of the
//! registry (see the "Cost" section of [`crate::schnorr`]).

use crate::modmath::WindowTable;
use crate::schnorr::{Keypair, PublicKey, Signature, P};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A stable identity for a participant (client, edge node, or cloud).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdentityId(pub u64);

impl fmt::Debug for IdentityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id:{}", self.0)
    }
}

impl fmt::Display for IdentityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A participant's identity: id plus signing keypair.
#[derive(Clone)]
pub struct Identity {
    pub id: IdentityId,
    keypair: Keypair,
}

impl Identity {
    /// Derives an identity deterministically from an id and a domain
    /// label (e.g. `"edge"`, `"client"`, `"cloud"`).
    pub fn derive(label: &str, id: u64) -> Self {
        let seed = format!("wedge-identity:{label}:{id}");
        Identity { id: IdentityId(id), keypair: Keypair::from_seed(seed.as_bytes()) }
    }

    /// The public verification key.
    pub fn public(&self) -> PublicKey {
        self.keypair.public()
    }

    /// Signs a message as this identity.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.keypair.sign(message)
    }
}

/// Why an identity was revoked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RevocationReason {
    /// The cloud proved the node certified two different digests for
    /// the same block id (equivocation).
    Equivocation,
    /// The node claimed a block was unavailable that the cloud knows
    /// was reported (omission attack).
    Omission,
    /// A client dispute was upheld: the node's signed response does not
    /// match the certified digest.
    DisputeUpheld,
    /// Operator decision outside the protocol.
    Administrative(String),
}

/// Registry of known identities, with revocation ("punishment").
///
/// The registry is the trusted PKI substrate the paper assumes: all
/// parties can resolve an [`IdentityId`] to a public key, and a revoked
/// (punished) identity can never re-enter (§II-D, assumption 2).
#[derive(Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<IdentityId, Registered>,
    revoked: HashMap<IdentityId, RevocationReason>,
}

/// Rows of a registered key's table: 512 bytes, 60 squarings and 31
/// multiplies per `y^(q−e)`. Why not more yet: the `schnorr` "Cost"
/// section.
const KEY_TABLE_ROWS: usize = 2;

/// A registered key and its table of powers. The table is built by the
/// first [`Registered::verify`], not at registration, and the `Arc` is
/// made at registration so every clone of the registry shares one build.
#[derive(Clone)]
struct Registered {
    key: PublicKey,
    table: Arc<OnceLock<WindowTable<KEY_TABLE_ROWS>>>,
}

impl Registered {
    fn new(key: PublicKey) -> Self {
        Registered { key, table: Arc::default() }
    }

    /// [`PublicKey::verify`], with `y^(q−e)` from the table. The table
    /// is built only after the range checks, so a degenerate key never
    /// gets one.
    fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.key.verify_with(message, sig, |k| {
            let table = self.table.get_or_init(|| {
                #[cfg(test)]
                table_builds::note();
                WindowTable::new(self.key.to_u128(), P)
            });
            table.pow(k)
        })
    }
}

/// Key tables built on the current thread. Thread-local so concurrently
/// running tests cannot pollute each other's counts.
#[cfg(test)]
mod table_builds {
    use std::cell::Cell;

    thread_local! {
        static BUILDS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count() -> u64 {
        BUILDS.with(|c| c.get())
    }

    pub(super) fn note() {
        BUILDS.with(|c| c.set(c.get() + 1));
    }
}

/// Errors from registry operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The identity was revoked and may not re-register.
    Revoked(RevocationReason),
    /// The identity is already registered with a different key.
    KeyMismatch,
    /// The identity is not known to the registry.
    Unknown(IdentityId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Revoked(r) => write!(f, "identity revoked: {r:?}"),
            RegistryError::KeyMismatch => f.write_str("identity registered with different key"),
            RegistryError::Unknown(id) => write!(f, "unknown identity {id}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl KeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `id → key`. Registration is idempotent for the same
    /// key, which keeps the existing entry and any table it has built;
    /// revoked identities are refused (no re-entry). Builds no table.
    pub fn register(&mut self, id: IdentityId, key: PublicKey) -> Result<(), RegistryError> {
        if let Some(reason) = self.revoked.get(&id) {
            return Err(RegistryError::Revoked(reason.clone()));
        }
        match self.keys.entry(id) {
            Entry::Occupied(existing) if existing.get().key != key => {
                Err(RegistryError::KeyMismatch)
            }
            Entry::Occupied(_) => Ok(()),
            Entry::Vacant(slot) => {
                slot.insert(Registered::new(key));
                Ok(())
            }
        }
    }

    fn entry(&self, id: IdentityId) -> Result<&Registered, RegistryError> {
        if let Some(reason) = self.revoked.get(&id) {
            return Err(RegistryError::Revoked(reason.clone()));
        }
        self.keys.get(&id).ok_or(RegistryError::Unknown(id))
    }

    /// Resolves an identity to its public key, failing for unknown or
    /// revoked identities.
    pub fn lookup(&self, id: IdentityId) -> Result<PublicKey, RegistryError> {
        self.entry(id).map(|registered| registered.key)
    }

    /// Verifies `sig` over `message` as `id`, with the same verdict as
    /// [`PublicKey::verify`] under the registered key but from the key's
    /// table, built on the first call. Returns `false` for unknown or
    /// revoked identities.
    pub fn verify(&self, id: IdentityId, message: &[u8], sig: &Signature) -> bool {
        self.entry(id).is_ok_and(|registered| registered.verify(message, sig))
    }

    /// Punishes an identity: removes it and bars re-entry.
    pub fn revoke(&mut self, id: IdentityId, reason: RevocationReason) {
        self.keys.remove(&id);
        self.revoked.insert(id, reason);
    }

    /// True iff `id` has been revoked.
    pub fn is_revoked(&self, id: IdentityId) -> bool {
        self.revoked.contains_key(&id)
    }

    /// Reason an identity was revoked, if it was.
    pub fn revocation_reason(&self, id: IdentityId) -> Option<&RevocationReason> {
        self.revoked.get(&id)
    }

    /// Number of live (non-revoked) registered identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no identities are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_verify() {
        let ident = Identity::derive("edge", 1);
        let mut reg = KeyRegistry::new();
        reg.register(ident.id, ident.public()).unwrap();
        let sig = ident.sign(b"hello");
        assert!(reg.verify(ident.id, b"hello", &sig));
        assert!(!reg.verify(ident.id, b"tampered", &sig));
    }

    #[test]
    fn unknown_identity_fails() {
        let reg = KeyRegistry::new();
        assert_eq!(reg.lookup(IdentityId(9)), Err(RegistryError::Unknown(IdentityId(9))));
    }

    #[test]
    fn revoked_identity_cannot_verify_or_reenter() {
        let ident = Identity::derive("edge", 2);
        let mut reg = KeyRegistry::new();
        reg.register(ident.id, ident.public()).unwrap();
        reg.revoke(ident.id, RevocationReason::Equivocation);
        let sig = ident.sign(b"m");
        assert!(!reg.verify(ident.id, b"m", &sig));
        assert!(matches!(
            reg.register(ident.id, ident.public()),
            Err(RegistryError::Revoked(RevocationReason::Equivocation))
        ));
        assert!(reg.is_revoked(ident.id));
    }

    #[test]
    fn key_mismatch_rejected() {
        let a = Identity::derive("edge", 3);
        let b = Identity::derive("edge", 4);
        let mut reg = KeyRegistry::new();
        reg.register(a.id, a.public()).unwrap();
        assert_eq!(reg.register(a.id, b.public()), Err(RegistryError::KeyMismatch));
        // Idempotent same-key registration is fine.
        assert!(reg.register(a.id, a.public()).is_ok());
    }

    #[test]
    fn register_builds_no_table_and_clones_share_one_build() {
        let ident = Identity::derive("edge", 5);
        let sig = ident.sign(b"m");
        let builds = table_builds::count();
        let mut reg = KeyRegistry::new();
        reg.register(ident.id, ident.public()).unwrap();
        let clone = reg.clone();
        assert_eq!(table_builds::count(), builds, "register and clone build nothing");
        assert!(clone.verify(ident.id, b"m", &sig));
        assert_eq!(table_builds::count(), builds + 1, "the first verify builds");
        assert!(reg.verify(ident.id, b"m", &sig));
        assert!(!reg.verify(ident.id, b"n", &sig));
        assert!(clone.verify(ident.id, b"m", &sig));
        assert_eq!(table_builds::count(), builds + 1, "the clone's build is shared");
    }

    /// In a debug build, a table built for `y >= P` would trip
    /// `WindowTable::new`'s `debug_assert!(base < m)`.
    #[test]
    fn degenerate_keys_are_rejected_before_any_table_is_built() {
        let signer = Identity::derive("edge", 6);
        let sig = signer.sign(b"m");
        let builds = table_builds::count();
        let mut reg = KeyRegistry::new();
        for (i, y) in [0, 1, P, u128::MAX].into_iter().enumerate() {
            let id = IdentityId(i as u64);
            reg.register(id, PublicKey::from_u128(y)).unwrap();
            assert!(!reg.verify(id, b"m", &sig), "y = {y:#x}");
        }
        assert_eq!(table_builds::count(), builds);
    }

    #[test]
    fn reregistering_keeps_the_entry_and_its_table() {
        let ident = Identity::derive("edge", 8);
        let sig = ident.sign(b"m");
        let mut reg = KeyRegistry::new();
        reg.register(ident.id, ident.public()).unwrap();
        assert!(reg.verify(ident.id, b"m", &sig));
        let table = Arc::clone(&reg.keys[&ident.id].table);
        let builds = table_builds::count();
        reg.register(ident.id, ident.public()).unwrap();
        assert!(Arc::ptr_eq(&table, &reg.keys[&ident.id].table));
        assert!(reg.verify(ident.id, b"m", &sig));
        assert_eq!(table_builds::count(), builds);
    }

    #[test]
    fn derive_is_deterministic_and_label_scoped() {
        let a1 = Identity::derive("edge", 7);
        let a2 = Identity::derive("edge", 7);
        let b = Identity::derive("client", 7);
        assert_eq!(a1.public(), a2.public());
        assert_ne!(a1.public(), b.public());
    }
}
