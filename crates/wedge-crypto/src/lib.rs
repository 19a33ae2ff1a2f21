//! # wedge-crypto
//!
//! The cryptographic substrate for the WedgeChain reproduction
//! (ICDE 2021, arXiv:2012.02258). Everything is implemented from
//! scratch — no external crypto crates — so the reproduction is
//! self-contained and deterministic:
//!
//! - [`sha256`](mod@sha256): SHA-256 (FIPS 180-4) with incremental hashing,
//!   validated against NIST vectors. The one-way hash that makes
//!   *data-free certification* sound.
//! - [`hmac`]: HMAC-SHA256 (RFC 2104), used for deterministic Schnorr
//!   nonces.
//! - [`schnorr`]: Schnorr signatures over a 127-bit safe-prime group.
//!   Structurally identical to the production signatures the paper
//!   assumes (sign with secret, verify with public); see the root
//!   README's "Substitutions" for the strength caveat. The arithmetic
//!   under it is [`modmath`]: `u128` modular arithmetic and windowed
//!   exponentiation.
//! - [`merkle`]: domain-separated Merkle trees with inclusion proofs
//!   and the LSMerkle *global root* combinator.
//! - [`keys`]: identities and a revocation-aware key registry — the
//!   "known identities, punishable, no re-entry" PKI of §II-D — which
//!   checks signatures from a per-key table of powers.
//! - [`digest`]: the 32-byte [`digest::Digest`] type.

#![forbid(unsafe_code)]

pub mod digest;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod modmath;
pub mod schnorr;
pub mod sha256;

pub use digest::Digest;
pub use keys::{Identity, IdentityId, KeyRegistry, RegistryError, RevocationReason};
pub use merkle::{
    empty_root, global_root, hash_leaf_digest, hash_node, InclusionProof, MerkleTree,
};
pub use schnorr::{Keypair, PublicKey, Signature};
pub use sha256::{sha256, sha256_concat, Sha256};
