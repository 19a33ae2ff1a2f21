//! Key-value types for the LSMerkle index.
//!
//! The paper's evaluation uses integer key ranges (100 K – 100 M keys,
//! §VI-E) and its page-range invariant `p_x.max = p_y.min − 1` (§V-B)
//! is stated over integers, so keys are `u64` here; values are opaque
//! bytes. Versions are `(block id, position)` pairs: block ids are
//! monotonic per edge, so version order is write order.

use wedge_log::{wire_struct, Block, Decoder, Encoder, Entry, Wire};

/// An index key. `0` and `u64::MAX` act as the paper's "min of 0" and
/// "max of infinity" range sentinels.
pub type Key = u64;

/// An opaque value.
pub type Value = Vec<u8>;

/// Totally ordered write version: `(block id, position in block)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Version {
    /// Sealing block's id (monotonic per edge).
    pub bid: u64,
    /// Position of the originating entry within the block.
    pub pos: u32,
}

impl Version {
    /// The smallest possible version.
    pub const MIN: Version = Version { bid: 0, pos: 0 };
}

/// A key-value operation as carried in a log entry payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// The key being written.
    pub key: Key,
    /// `Some(value)` for a put, `None` for a delete (tombstone).
    pub value: Option<Value>,
}

impl KvOp {
    /// A put operation.
    pub fn put(key: Key, value: Value) -> Self {
        KvOp { key, value: Some(value) }
    }

    /// A delete operation.
    pub fn delete(key: Key) -> Self {
        KvOp { key, value: None }
    }

    /// Encodes into an entry payload: the tag, the key, then the
    /// value as an option (`0` is a delete).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity(KV_OP_TAG, 8 + self.value.encoded_len());
        enc.put_u64(self.key).put(&self.value);
        enc.finish()
    }

    /// Decodes an entry payload. Returns `None` for non-KV payloads:
    /// anything [`KvOp::encode`] could not have written.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut dec = Decoder::new(payload);
        dec.expect_tag(KV_OP_TAG).ok()?;
        let op = KvOp { key: dec.get_u64().ok()?, value: dec.get().ok()? };
        dec.finish().ok().map(|()| op)
    }
}

/// Domain tag of a [`KvOp`] entry payload.
const KV_OP_TAG: &str = "wedge-kvop-v1";

/// A versioned record stored in pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvRecord {
    /// The key.
    pub key: Key,
    /// Write version (newest wins).
    pub version: Version,
    /// `None` is a tombstone.
    pub value: Option<Value>,
}

impl KvRecord {
    /// Approximate in-memory/wire size.
    pub fn wire_size(&self) -> u64 {
        (8 + 12 + 1 + self.value.as_ref().map_or(0, |v| v.len())) as u64
    }
}

wire_struct!(Version { bid: u64, pos: u32 });

// Field order matches what `Page::digest` hashes, so a decoded page
// re-hashes to the same digest.
wire_struct!(KvRecord { key: Key, version: Version, value: Option<Value> });

/// Decodes every KV op in a block into versioned records, in block
/// order. Entries with non-KV payloads are skipped.
pub fn records_from_block(block: &Block) -> Vec<KvRecord> {
    block
        .entries
        .iter()
        .enumerate()
        .filter_map(|(pos, entry)| {
            KvOp::decode(&entry.payload).map(|op| KvRecord {
                key: op.key,
                version: Version { bid: block.id.0, pos: pos as u32 },
                value: op.value,
            })
        })
        .collect()
}

/// Convenience: builds the signed entry for a KV op.
pub fn kv_entry(client: &wedge_crypto::Identity, sequence: u64, op: &KvOp) -> Entry {
    Entry::new_signed(client, sequence, op.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::{Identity, IdentityId};
    use wedge_log::BlockId;

    #[test]
    fn op_encode_decode_roundtrip() {
        let put = KvOp::put(42, b"value".to_vec());
        assert_eq!(KvOp::decode(&put.encode()), Some(put));
        let del = KvOp::delete(7);
        assert_eq!(KvOp::decode(&del.encode()), Some(del));
        let empty_val = KvOp::put(0, vec![]);
        assert_eq!(KvOp::decode(&empty_val.encode()), Some(empty_val));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(KvOp::decode(b""), None);
        assert_eq!(KvOp::decode(b"random bytes here"), None);
        // Truncated valid encoding.
        let enc = KvOp::put(1, b"xyz".to_vec()).encode();
        assert_eq!(KvOp::decode(&enc[..enc.len() - 1]), None);
        // Trailing garbage.
        let mut padded = enc.clone();
        padded.push(0);
        assert_eq!(KvOp::decode(&padded), None);
        // Another payload's tag.
        let mut other = Encoder::with_tag("wedge-kvop-v2");
        other.put_u64(1).put_u8(0);
        assert_eq!(KvOp::decode(&other.finish()), None);
        // Kind byte 2: neither a delete nor a put.
        let mut kind2 = KvOp::delete(1).encode();
        *kind2.last_mut().unwrap() = 2;
        assert_eq!(KvOp::decode(&kind2), None);
        // A trailing byte after a tombstone.
        let mut tomb = KvOp::delete(1).encode();
        tomb.push(0);
        assert_eq!(KvOp::decode(&tomb), None);
        // A value length running past the end.
        let mut long = enc;
        let len_at = long.len() - 3 - 8;
        long[len_at..len_at + 8].copy_from_slice(&4u64.to_be_bytes());
        assert_eq!(KvOp::decode(&long), None);
    }

    #[test]
    fn version_ordering() {
        let a = Version { bid: 1, pos: 9 };
        let b = Version { bid: 2, pos: 0 };
        assert!(b > a);
        let c = Version { bid: 1, pos: 10 };
        assert!(c > a);
    }

    #[test]
    fn records_from_block_versions() {
        let client = Identity::derive("client", 1);
        let entries = vec![
            kv_entry(&client, 0, &KvOp::put(5, b"a".to_vec())),
            kv_entry(&client, 1, &KvOp::put(3, b"b".to_vec())),
            kv_entry(&client, 2, &KvOp::delete(5)),
        ];
        let block = Block { edge: IdentityId(9), id: BlockId(4), entries, sealed_at_ns: 0 };
        let recs = records_from_block(&block);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].version, Version { bid: 4, pos: 0 });
        assert_eq!(recs[2].version, Version { bid: 4, pos: 2 });
        assert_eq!(recs[2].value, None); // tombstone
    }

    #[test]
    fn non_kv_entries_skipped() {
        let client = Identity::derive("client", 1);
        let entries = vec![
            Entry::new_signed(&client, 0, b"raw log line".to_vec()),
            kv_entry(&client, 1, &KvOp::put(1, b"v".to_vec())),
        ];
        let block = Block { edge: IdentityId(9), id: BlockId(0), entries, sealed_at_ns: 0 };
        let recs = records_from_block(&block);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].version.pos, 1);
    }
}
