//! 32-byte digest type used throughout WedgeChain.
//!
//! Blocks, pages, Merkle nodes and certification messages all identify
//! data by its SHA-256 digest; this newtype keeps those 32 bytes
//! strongly typed and cheap to copy/compare.

use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// `Digest` is `Copy` (32 bytes) and ordered, so it can serve as a map
/// key. The `Display`/`Debug` impls render lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest; used as a sentinel for "no proof yet".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Returns the underlying bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Interprets the first 16 bytes as a big-endian u128. Used to fold
    /// digests into the Schnorr scalar field.
    pub fn to_u128(&self) -> u128 {
        let mut b = [0u8; 16];
        b.copy_from_slice(&self.0[..16]);
        u128::from_be_bytes(b)
    }

    /// True iff this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = crate::sha256::sha256(b"roundtrip");
        let hex = d.to_hex();
        assert_eq!(hex, hex.to_lowercase());
        let parsed: Vec<u8> =
            (0..32).map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap()).collect();
        assert_eq!(parsed, d.as_bytes());
    }

    #[test]
    fn zero_sentinel() {
        assert!(Digest::ZERO.is_zero());
        assert!(!crate::sha256::sha256(b"x").is_zero());
    }

    #[test]
    fn ordering_is_total() {
        let a = crate::sha256::sha256(b"a");
        let b = crate::sha256::sha256(b"b");
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn to_u128_uses_high_bytes() {
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        assert_eq!(Digest::from_bytes(bytes).to_u128(), 1 << 120);
    }
}
