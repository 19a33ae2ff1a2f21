//! Round-trip property tests for the canonical wire format: whatever
//! `Encoder` writes, `Decoder` reads back verbatim — and every way an
//! adversary can mangle the bytes (truncation, hostile length
//! prefixes, trailing garbage, tag swaps) decodes to a typed error,
//! never a panic or a wrong value.
//!
//! No third-party crates are available in the build environment, so
//! these run each property over deterministic SplitMix64-generated
//! case streams instead of proptest (matching `tests/prop.rs`).

use wedge_crypto::{IdentityId, Signature};
use wedge_log::{Block, BlockId, DecodeError, Decoder, Encoder, Entry, GossipWatermark};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// A structurally arbitrary entry: the signature need not verify —
/// decode round-trips bytes, it does not judge them.
fn arb_entry(rng: &mut Rng) -> Entry {
    let payload_len = rng.below(200) as usize;
    Entry {
        client: IdentityId(rng.next()),
        sequence: rng.next(),
        payload: rng.bytes(payload_len),
        signature: Signature {
            e: (rng.next() as u128) << 64 | rng.next() as u128,
            s: (rng.next() as u128) << 64 | rng.next() as u128,
        },
    }
}

fn arb_block(rng: &mut Rng) -> Block {
    let entries = (0..rng.below(12)).map(|_| arb_entry(rng)).collect();
    Block {
        edge: IdentityId(rng.next()),
        id: BlockId(rng.next()),
        entries,
        sealed_at_ns: rng.next(),
    }
}

#[test]
fn block_roundtrip_preserves_digest() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xB10C ^ case);
        let block = arb_block(&mut rng);
        let bytes = block.canonical_bytes();
        let back = Block::decode(&bytes).expect("well-formed block decodes");
        assert_eq!(back, block, "case {case}");
        // Decode∘encode is the identity on bytes, hence on digests —
        // what data-free certification over the wire relies on.
        assert_eq!(back.canonical_bytes(), bytes, "case {case}: bytes");
        assert_eq!(back.digest(), block.digest(), "case {case}: digest");
    }
}

#[test]
fn truncation_always_errors_never_panics() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x7C ^ case);
        let block = arb_block(&mut rng);
        let bytes = block.canonical_bytes();
        for cut in 0..bytes.len() {
            let err = Block::decode(&bytes[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(
                    err,
                    DecodeError::UnexpectedEof | DecodeError::BadTag | DecodeError::BadLength
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let wm = GossipWatermark::issue(
            &wedge_crypto::Identity::derive("cloud", 1),
            IdentityId(5),
            rng.next(),
            rng.next(),
        );
        let mut enc = Encoder::default();
        enc.put(&wm);
        let wm_bytes = enc.finish();
        for cut in 0..wm_bytes.len() {
            Decoder::new(&wm_bytes[..cut])
                .get::<GossipWatermark>()
                .expect_err("truncated wm must fail");
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    let mut rng = Rng::new(0x7A11);
    let block = arb_block(&mut rng);
    let mut bytes = block.canonical_bytes();
    bytes.push(0);
    assert_eq!(Block::decode(&bytes), Err(DecodeError::TrailingBytes));
}

#[test]
fn hostile_length_prefix_fails_before_allocating() {
    // A "block" claiming u64::MAX entries / payload bytes must fail on
    // the length check, not attempt the allocation.
    let mut enc = Encoder::with_tag("wedge-block-v1");
    enc.put_u64(1).put_u64(2).put_u64(3);
    enc.put_u64(u64::MAX); // entry count
    let bytes = enc.finish();
    assert_eq!(Block::decode(&bytes), Err(DecodeError::BadLength));

    let mut enc = Encoder::default();
    enc.put_u64(7).put_u64(0); // client, sequence
    enc.put_u64(u64::MAX); // payload length prefix, no payload
    let bytes = enc.finish();
    let mut dec = Decoder::new(&bytes);
    assert_eq!(dec.get::<Entry>(), Err(DecodeError::BadLength));
}

#[test]
fn wrong_tag_rejected() {
    // A key-value entry payload is not a block: the tag check refuses
    // cross-type replay before any field is interpreted.
    let mut kv_op = Encoder::with_tag("wedge-kvop-v1");
    kv_op.put_u64(7).put_u8(1).put_bytes(b"a value long enough to read as block fields");
    assert_eq!(Block::decode(&kv_op.finish()), Err(DecodeError::BadTag));
    // And a block whose tag byte is flipped no longer decodes.
    let mut rng = Rng::new(0x7A6);
    let mut bytes = arb_block(&mut rng).canonical_bytes();
    bytes[9] ^= 1; // inside the tag string (after its 8-byte length)
    assert_eq!(Block::decode(&bytes).unwrap_err(), DecodeError::BadTag);
}

#[test]
fn decoder_primitives_roundtrip() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xDEC ^ case);
        let (a, b, c) = (rng.next() as u8, rng.next() as u32, rng.next());
        let d = (rng.next() as u128) << 64 | rng.next() as u128;
        let blob_len = rng.below(64) as usize;
        let blob = rng.bytes(blob_len);
        let digest = wedge_crypto::sha256(&rng.next().to_be_bytes());
        let mut enc = Encoder::with_tag("prim-v1");
        enc.put_u8(a).put_u32(b).put_u64(c).put_u128(d).put_bytes(&blob).put_digest(&digest);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        dec.expect_tag("prim-v1").unwrap();
        assert_eq!(dec.get_u8().unwrap(), a);
        assert_eq!(dec.get_u32().unwrap(), b);
        assert_eq!(dec.get_u64().unwrap(), c);
        assert_eq!(dec.get_u128().unwrap(), d);
        assert_eq!(dec.get_bytes().unwrap(), &blob[..]);
        assert_eq!(dec.get_digest().unwrap(), digest);
        dec.finish().unwrap();
    }
}
