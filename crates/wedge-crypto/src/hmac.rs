//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the from-scratch
//! [`crate::sha256`](mod@crate::sha256) module.
//!
//! WedgeChain uses HMAC for deterministic nonce derivation in Schnorr
//! signing (an RFC 6979-style construction) and for keyed integrity
//! checks in tests.

use crate::digest::Digest;
use crate::sha256::Sha256;

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key`. Keys longer than the SHA-256
    /// block size are hashed first, per the HMAC specification.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..32].copy_from_slice(d.as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 { inner, opad_key: opad }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let d = hmac_sha256(&key, b"Hi There");
        assert_eq!(d.to_hex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        let d = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(d.to_hex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let d = hmac_sha256(&key, &msg);
        assert_eq!(d.to_hex(), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let d = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(d.to_hex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"edge-node-7";
        let mut mac = HmacSha256::new(key);
        mac.update(b"block ");
        mac.update(b"digest");
        assert_eq!(mac.finalize(), hmac_sha256(key, b"block digest"));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
