//! Blocks: the unit of commitment and certification.
//!
//! An edge node batches client entries into blocks (§III). Block ids
//! are unique monotonic numbers *per edge node*. The block's digest —
//! a one-way hash over the id, the owning edge, and every entry — is
//! what the cloud certifies (data-free certification, §IV-B): agreeing
//! on the digest is agreeing on the content.

use crate::enc::{DecodeError, Decoder, Encoder, Wire};
use crate::entry::Entry;
use std::fmt;
use wedge_crypto::{Digest, IdentityId};

/// Domain tag of a block's canonical bytes.
const TAG: &str = "wedge-block-v1";

/// Monotonic per-edge block identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The next block id.
    pub fn next(&self) -> BlockId {
        BlockId(self.0 + 1)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bid:{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A sealed batch of entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The edge node that sealed this block. Block ids are only unique
    /// relative to one edge node (§III), so the digest binds both.
    pub edge: IdentityId,
    /// This block's id in the edge node's log.
    pub id: BlockId,
    /// The batched client entries.
    pub entries: Vec<Entry>,
    /// Virtual time (ns) at which the block was sealed; feeds the
    /// LSMerkle page timestamp and freshness checks.
    pub sealed_at_ns: u64,
}

impl Block {
    /// Exact byte length of [`Block::canonical_bytes`]: the tag
    /// behind its length prefix, edge, id, sealed_at_ns and entries.
    pub fn canonical_len(&self) -> usize {
        Self::TAG_LEN + Self::FIXED_LEN + self.entries.encoded_len()
    }

    /// Bytes of the domain tag behind its length prefix.
    const TAG_LEN: usize = u64::MIN_LEN + TAG.len();

    /// Bytes of edge, id and sealed_at_ns.
    const FIXED_LEN: usize = IdentityId::MIN_LEN + BlockId::MIN_LEN + u64::MIN_LEN;

    /// Canonical bytes of the whole block (id + edge + entries).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity(TAG, self.canonical_len() - Self::TAG_LEN);
        self.encode_canonical_body(&mut enc);
        enc.finish()
    }

    /// Appends everything after the domain tag to `enc`.
    fn encode_canonical_body(&self, enc: &mut Encoder) {
        enc.put(&self.edge).put(&self.id).put_u64(self.sealed_at_ns).put(&self.entries);
    }

    /// The block digest the cloud certifies.
    pub fn digest(&self) -> Digest {
        wedge_crypto::sha256(&self.canonical_bytes())
    }

    /// Inverse of [`Block::canonical_bytes`]: decodes a whole block,
    /// rejecting truncation and trailing bytes. Because the canonical
    /// bytes are exactly what [`Block::digest`] hashes, a decoded
    /// block re-encodes to the same bytes and therefore the same
    /// digest — the property the networked driver's certification
    /// path depends on.
    pub fn decode(bytes: &[u8]) -> Result<Block, DecodeError> {
        let mut dec = Decoder::new(bytes);
        dec.expect_tag(TAG)?;
        let block = Block {
            edge: dec.get()?,
            id: dec.get()?,
            sealed_at_ns: dec.get()?,
            entries: dec.get()?,
        };
        dec.finish()?;
        Ok(block)
    }

    /// Approximate wire size when shipping the full block. `u64`:
    /// merge requests sum page sizes into this — a multi-GiB merge
    /// must not wrap the accounting in release builds.
    pub fn wire_size(&self) -> u64 {
        24 + self.entries.iter().map(|e| e.wire_size()).sum::<u64>()
    }

    /// Number of operations (entries) in the block.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Wire for BlockId {
    const MIN_LEN: usize = u64::MIN_LEN;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BlockId(dec.get_u64()?))
    }
}

/// A block nested in a message travels as its canonical bytes behind
/// a length prefix, byte-identical to
/// `enc.put_bytes(&block.canonical_bytes())` without building the
/// intermediate buffer.
impl Wire for Block {
    const MIN_LEN: usize = u64::MIN_LEN + Self::TAG_LEN + Self::FIXED_LEN + Vec::<Entry>::MIN_LEN;
    #[inline]
    fn encoded_len(&self) -> usize {
        u64::MIN_LEN + self.canonical_len()
    }
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.canonical_len() as u64).put_bytes(TAG.as_bytes());
        self.encode_canonical_body(enc);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Block::decode(dec.get_bytes()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::Identity;

    fn sample_block(n: usize) -> Block {
        let client = Identity::derive("client", 1);
        let entries =
            (0..n).map(|i| Entry::new_signed(&client, i as u64, vec![i as u8; 16])).collect();
        Block { edge: IdentityId(100), id: BlockId(7), entries, sealed_at_ns: 5_000 }
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(sample_block(3).digest(), sample_block(3).digest());
    }

    #[test]
    fn digest_binds_id_edge_and_content() {
        let b = sample_block(3);
        let mut other = b.clone();
        other.id = BlockId(8);
        assert_ne!(b.digest(), other.digest());
        let mut other = b.clone();
        other.edge = IdentityId(101);
        assert_ne!(b.digest(), other.digest());
        let mut other = b.clone();
        other.entries.pop();
        assert_ne!(b.digest(), other.digest());
    }

    #[test]
    fn block_id_ordering() {
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(BlockId(1).next(), BlockId(2));
    }

    #[test]
    fn wire_size_scales() {
        assert!(sample_block(10).wire_size() > sample_block(1).wire_size());
    }
}
