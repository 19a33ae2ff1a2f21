//! Round-trip and corruption property tests for the full protocol
//! codec: **every** [`WireMsg`] variant encodes to a framed byte
//! string and decodes back to an equal value, and every way an
//! adversary can mangle those bytes — truncation at any offset, bit
//! flips, trailing garbage, unknown type tags, bad magic/version —
//! decodes to a typed error or a *different* value, never a panic and
//! never a silent false equality.
//!
//! The harness-control stratum (`Msg::Start`, `Msg::DoPut`, …) is
//! deliberately absent here: control variants live on [`Msg`], not
//! [`WireMsg`], and have **no** encoding — putting a workload command
//! on the wire is unrepresentable by construction, which is the
//! type-level guarantee this suite rides on.
//!
//! Below the frames, every [`Wire`] type passes one generic
//! conformance check, and a completeness guard fails when a `Wire`
//! impl in `crates/*/src` has no conformance case.
//!
//! No third-party crates are available in the build environment, so
//! each property runs over deterministic SplitMix64-generated case
//! streams (matching `wedge-log/tests/wire_roundtrip.rs`).

use std::fmt::Debug;
use std::sync::Arc;
use wedge_core::messages::{AddReceipt, Dispute, DisputeVerdict, ReadReceipt, WireMsg};
use wedge_crypto::{sha256, Digest, Identity, IdentityId, InclusionProof, Signature};
use wedge_log::{
    Block, BlockId, BlockProof, DecodeError, Decoder, Encoder, Entry, GossipWatermark, Wire,
    FRAME_HEADER_LEN,
};
use wedge_lsmerkle::{
    DeltaMergeRequest, DeltaMergeResult, GlobalRootCert, IndexReadProof, KvRecord, L0Page,
    L0Witness, LevelWitness, MergeRequest, MergeResult, Page, PageDelta, ReqPageSlot,
    SignedLevelRoot, Version,
};

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn sig(&mut self) -> Signature {
        Signature {
            e: (self.next() as u128) << 64 | self.next() as u128,
            s: (self.next() as u128) << 64 | self.next() as u128,
        }
    }

    fn digest(&mut self) -> Digest {
        sha256(&self.next().to_be_bytes())
    }
}

// --- structurally arbitrary protocol values (signatures need not
// verify: codecs round-trip bytes, they do not judge them) ---

fn arb_entry(rng: &mut Rng) -> Entry {
    let payload_len = rng.below(80) as usize;
    Entry {
        client: IdentityId(rng.next()),
        sequence: rng.next(),
        payload: rng.bytes(payload_len),
        signature: rng.sig(),
    }
}

fn arb_block(rng: &mut Rng) -> Block {
    Block {
        edge: IdentityId(rng.next()),
        id: BlockId(rng.next()),
        entries: (0..1 + rng.below(5)).map(|_| arb_entry(rng)).collect(),
        sealed_at_ns: rng.next(),
    }
}

fn arb_add_receipt(rng: &mut Rng) -> AddReceipt {
    AddReceipt {
        edge: IdentityId(rng.next()),
        client: IdentityId(rng.next()),
        req_id: rng.next(),
        entries_digest: rng.digest(),
        bid: BlockId(rng.next()),
        block_digest: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_read_receipt(rng: &mut Rng) -> ReadReceipt {
    ReadReceipt {
        edge: IdentityId(rng.next()),
        client: IdentityId(rng.next()),
        bid: BlockId(rng.next()),
        digest: if rng.below(2) == 0 { Some(rng.digest()) } else { None },
        signature: rng.sig(),
    }
}

fn arb_block_proof(rng: &mut Rng) -> BlockProof {
    BlockProof {
        edge: IdentityId(rng.next()),
        bid: BlockId(rng.next()),
        digest: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_watermark(rng: &mut Rng) -> GossipWatermark {
    GossipWatermark {
        edge: IdentityId(rng.next()),
        timestamp_ns: rng.next(),
        log_len: rng.next(),
        signature: rng.sig(),
    }
}

fn arb_records(rng: &mut Rng, n: usize) -> Vec<KvRecord> {
    // Strictly increasing keys (page invariant); arbitrary versions
    // and values/tombstones.
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            key += 1 + rng.below(50);
            KvRecord {
                key,
                version: Version { bid: rng.next(), pos: rng.next() as u32 },
                value: if rng.below(4) == 0 {
                    None
                } else {
                    let len = rng.below(30) as usize;
                    Some(rng.bytes(len))
                },
            }
        })
        .collect()
}

fn arb_page(rng: &mut Rng) -> Arc<Page> {
    let n = 1 + rng.below(4) as usize;
    let records = arb_records(rng, n);
    let min = records.first().map_or(0, |r| r.key.saturating_sub(rng.below(5)));
    let max = records.last().map_or(u64::MAX, |r| r.key + rng.below(5));
    Arc::new(Page::new(min, max, records, rng.next()))
}

fn arb_l0_page(rng: &mut Rng) -> Arc<L0Page> {
    Arc::new(L0Page::from_block(arb_block(rng)))
}

fn arb_level_root(rng: &mut Rng) -> SignedLevelRoot {
    SignedLevelRoot {
        edge: IdentityId(rng.next()),
        level: 1 + rng.next() as u32 % 4,
        epoch: rng.next(),
        root: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_global(rng: &mut Rng) -> GlobalRootCert {
    GlobalRootCert {
        edge: IdentityId(rng.next()),
        epoch: rng.next(),
        timestamp_ns: rng.next(),
        root: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_merge_request(rng: &mut Rng) -> MergeRequest {
    MergeRequest {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        source_l0: (0..rng.below(3)).map(|_| arb_l0_page(rng)).collect(),
        source_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        target_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        epoch: rng.next(),
    }
}

fn arb_merge_result(rng: &mut Rng) -> MergeResult {
    MergeResult {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        new_target_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        new_source_root: if rng.below(2) == 0 { Some(arb_level_root(rng)) } else { None },
        new_target_root: arb_level_root(rng),
        all_level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
        new_epoch: rng.next(),
    }
}

fn arb_delta_merge_result(rng: &mut Rng) -> DeltaMergeResult {
    DeltaMergeResult {
        request_fp: rng.digest(),
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        pages: (0..rng.below(4))
            .map(|_| {
                if rng.below(2) == 0 {
                    PageDelta::Full(arb_page(rng))
                } else {
                    // Codec round-trips arbitrary indices; range checks
                    // happen at resolve time, against a real request.
                    PageDelta::Reused(rng.next() as u32)
                }
            })
            .collect(),
        new_source_root: if rng.below(2) == 0 { Some(arb_level_root(rng)) } else { None },
        new_target_root: arb_level_root(rng),
        all_level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
        new_epoch: rng.next(),
    }
}

fn arb_req_slot(rng: &mut Rng) -> ReqPageSlot {
    if rng.below(2) == 0 {
        ReqPageSlot::Full(arb_page(rng))
    } else {
        // Codec round-trips arbitrary references; level/index checks
        // happen at resolve time, against the real retention cache.
        ReqPageSlot::Retained { level: 1 + (rng.next() as u8 % 4), index: rng.next() as u32 }
    }
}

fn arb_delta_merge_request(rng: &mut Rng) -> DeltaMergeRequest {
    DeltaMergeRequest {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        epoch: rng.next(),
        retention: (0..rng.below(3)).map(|_| (1 + rng.next() as u32 % 4, rng.digest())).collect(),
        source_l0: (0..rng.below(3)).map(|_| arb_l0_page(rng)).collect(),
        source_pages: (0..rng.below(3)).map(|_| arb_req_slot(rng)).collect(),
        target_pages: (0..rng.below(3)).map(|_| arb_req_slot(rng)).collect(),
    }
}

fn arb_index_read_proof(rng: &mut Rng) -> IndexReadProof {
    IndexReadProof {
        edge: IdentityId(rng.next()),
        key: rng.next(),
        outcome: if rng.below(2) == 0 {
            Some(KvRecord {
                key: rng.next(),
                version: Version { bid: rng.next(), pos: rng.next() as u32 },
                value: Some(rng.bytes(8)),
            })
        } else {
            None
        },
        l0: (0..rng.below(3))
            .map(|_| L0Witness {
                page: arb_l0_page(rng),
                proof: if rng.below(2) == 0 { Some(arb_block_proof(rng)) } else { None },
            })
            .collect(),
        witnesses: (0..rng.below(3))
            .map(|_| LevelWitness {
                level: 1 + rng.next() as u32 % 3,
                page: arb_page(rng),
                inclusion: InclusionProof {
                    leaf_index: rng.below(64) as usize,
                    siblings: (0..rng.below(5)).map(|_| rng.digest()).collect(),
                },
            })
            .collect(),
        level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
    }
}

fn arb_dispute(rng: &mut Rng) -> Dispute {
    match rng.below(3) {
        0 => Dispute::MissingCertification { receipt: arb_add_receipt(rng) },
        1 => Dispute::WrongRead { receipt: arb_read_receipt(rng) },
        _ => Dispute::Omission { receipt: arb_read_receipt(rng), watermark: arb_watermark(rng) },
    }
}

fn arb_verdict(rng: &mut Rng) -> DisputeVerdict {
    if rng.below(2) == 0 {
        DisputeVerdict::Dismissed
    } else {
        DisputeVerdict::EdgePunished {
            edge: IdentityId(rng.next()),
            grounds: {
                let len = rng.below(24) as usize;
                String::from_utf8(rng.bytes(len).iter().map(|b| b'a' + b % 26).collect()).unwrap()
            },
        }
    }
}

/// One structurally arbitrary instance of every `WireMsg` variant —
/// adding a variant without extending this list fails the
/// `all_20_variants_covered` assertion below.
fn arb_all_variants(rng: &mut Rng) -> Vec<WireMsg> {
    vec![
        WireMsg::BatchAdd {
            req_id: rng.next(),
            entries: (0..rng.below(4)).map(|_| arb_entry(rng)).collect(),
        },
        WireMsg::LogRead { bid: BlockId(rng.next()) },
        WireMsg::Get { req_id: rng.next(), key: rng.next() },
        WireMsg::AddResponse { receipt: arb_add_receipt(rng) },
        WireMsg::LogReadResponse {
            receipt: arb_read_receipt(rng),
            block: if rng.below(2) == 0 { Some(arb_block(rng)) } else { None },
            proof: if rng.below(2) == 0 { Some(arb_block_proof(rng)) } else { None },
        },
        WireMsg::GetResponse { req_id: rng.next(), proof: Box::new(arb_index_read_proof(rng)) },
        WireMsg::BlockProofForward(arb_block_proof(rng)),
        WireMsg::GossipForward(arb_watermark(rng)),
        WireMsg::BlockCertify {
            bid: BlockId(rng.next()),
            digest: rng.digest(),
            signature: rng.sig(),
        },
        WireMsg::MergeReq(Box::new(arb_merge_request(rng))),
        WireMsg::BlockProofMsg(arb_block_proof(rng)),
        WireMsg::MergeRes(Box::new(arb_merge_result(rng))),
        WireMsg::CertRejected { bid: BlockId(rng.next()) },
        WireMsg::GlobalRefresh(arb_global(rng)),
        WireMsg::DisputeMsg(Box::new(arb_dispute(rng))),
        WireMsg::VerdictMsg(arb_verdict(rng)),
        WireMsg::Gossip(arb_watermark(rng)),
        WireMsg::MergeResDelta(Box::new(arb_delta_merge_result(rng))),
        WireMsg::MergeReqDelta(Box::new(arb_delta_merge_request(rng))),
        WireMsg::MergeReqResend {
            edge: IdentityId(rng.next()),
            source_level: rng.next() as u32,
            epoch: rng.next(),
        },
    ]
}

#[test]
fn all_20_variants_covered() {
    let mut rng = Rng::new(0);
    let msgs = arb_all_variants(&mut rng);
    let mut kinds: Vec<u8> = msgs.iter().map(|m| m.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, (1..=20).collect::<Vec<u8>>(), "one instance per variant, no gaps");
}

// --- one conformance check for every `Wire` type ---

/// How one type is put on the wire and read back: a `Wire` impl, or a
/// byte form that is not one (a block's canonical bytes, a message
/// payload routed by its kind).
struct Codec<T> {
    encode: fn(&T) -> Vec<u8>,
    /// Decodes a whole input, requiring every byte to be consumed.
    decode: Decode<T>,
    encoded_len: fn(&T) -> usize,
    min_len: usize,
}

type Decode<T> = fn(&[u8]) -> Result<T, DecodeError>;

fn wire<T: Wire>() -> Codec<T> {
    Codec {
        encode: |v| {
            let mut enc = Encoder::default();
            v.encode_into(&mut enc);
            enc.finish()
        },
        decode: |bytes| {
            let mut dec = Decoder::new(bytes);
            let v = T::decode_from(&mut dec)?;
            dec.finish()?;
            Ok(v)
        },
        encoded_len: T::encoded_len,
        min_len: T::MIN_LEN,
    }
}

/// The conformance check. For arbitrary values, `smallest` and every
/// value of `grown`: decode∘encode is the identity on values and on
/// bytes, `encoded_len` is the byte count, and every strict prefix is
/// an error. `smallest` encodes to exactly `min_len`. Each value of
/// `grown` is `smallest` with one smallest element in one `Vec` field:
/// at that field, a count one past what the remaining input could hold
/// at the element's minimum size is `BadLength`, and a count that fits
/// is not.
fn conform<T: PartialEq + Debug>(
    name: &str,
    codec: &Codec<T>,
    arb: impl Fn(&mut Rng) -> T,
    smallest: T,
    grown: Vec<T>,
) {
    let base = (codec.encode)(&smallest);
    assert_eq!(base.len(), codec.min_len, "{name}: the smallest value encodes to MIN_LEN");
    for (i, more) in grown.iter().map(|g| (codec.encode)(g)).enumerate() {
        // The grown field's count goes from 0 to 1: only its last byte
        // differs, and one smallest element follows it.
        let first_diff = base.iter().zip(&more).position(|(a, b)| a != b);
        let at = first_diff.unwrap_or_else(|| panic!("{name} grown {i}: encoding unchanged")) - 7;
        assert_eq!(base[at..at + 8], 0u64.to_be_bytes(), "{name} grown {i}: count 0");
        assert_eq!(more[at..at + 8], 1u64.to_be_bytes(), "{name} grown {i}: count 1");
        let elem = &more[at + 8..][..more.len() - base.len()];
        const K: u64 = 64;
        let decoded_with_count = |count: u64| {
            let mut bytes = base[..at].to_vec();
            bytes.extend_from_slice(&count.to_be_bytes());
            for _ in 0..K {
                bytes.extend_from_slice(elem);
            }
            (codec.decode)(&bytes).err()
        };
        assert_ne!(decoded_with_count(K), Some(DecodeError::BadLength), "{name} grown {i}: fits");
        assert_eq!(
            decoded_with_count(K + 1),
            Some(DecodeError::BadLength),
            "{name} grown {i}: a count past the remaining input"
        );
    }
    let arbitrary = (0..16u64).map(|case| arb(&mut Rng::new(0xC0F0 ^ case)));
    for (i, v) in arbitrary.chain(std::iter::once(smallest)).chain(grown).enumerate() {
        let bytes = (codec.encode)(&v);
        assert_eq!(bytes.len(), (codec.encoded_len)(&v), "{name} value {i}: encoded_len");
        let back = (codec.decode)(&bytes).unwrap_or_else(|e| panic!("{name} value {i}: {e}"));
        assert_eq!(back, v, "{name} value {i}: round-trips");
        assert_eq!((codec.encode)(&back), bytes, "{name} value {i}: bytes stable");
        for cut in 0..bytes.len() {
            assert!((codec.decode)(&bytes[..cut]).is_err(), "{name} value {i}: cut at {cut}");
        }
    }
}

/// Runs [`conform`] over a `Wire` type.
fn conform_wire<T: Wire + PartialEq + Debug>(
    name: &str,
    arb: impl Fn(&mut Rng) -> T,
    smallest: T,
    grown: Vec<T>,
) {
    conform(name, &wire::<T>(), arb, smallest, grown);
}

const SIG0: Signature = Signature { e: 0, s: 0 };

fn entry0() -> Entry {
    Entry { client: IdentityId(0), sequence: 0, payload: vec![], signature: SIG0 }
}

fn block0() -> Block {
    Block { edge: IdentityId(0), id: BlockId(0), entries: vec![], sealed_at_ns: 0 }
}

fn page0() -> Page {
    Page::new(0, 0, vec![], 0)
}

fn record0() -> KvRecord {
    KvRecord { key: 0, version: Version { bid: 0, pos: 0 }, value: None }
}

fn read_receipt0() -> ReadReceipt {
    ReadReceipt {
        edge: IdentityId(0),
        client: IdentityId(0),
        bid: BlockId(0),
        digest: None,
        signature: SIG0,
    }
}

fn level_root0() -> SignedLevelRoot {
    SignedLevelRoot { edge: IdentityId(0), level: 0, epoch: 0, root: Digest::ZERO, signature: SIG0 }
}

fn global0() -> GlobalRootCert {
    GlobalRootCert {
        edge: IdentityId(0),
        epoch: 0,
        timestamp_ns: 0,
        root: Digest::ZERO,
        signature: SIG0,
    }
}

fn inclusion0() -> InclusionProof {
    InclusionProof { leaf_index: 0, siblings: vec![] }
}

fn l0_witness0() -> L0Witness {
    L0Witness { page: Arc::new(L0Page::from_block(block0())), proof: None }
}

fn level_witness0() -> LevelWitness {
    LevelWitness { level: 0, page: Arc::new(page0()), inclusion: inclusion0() }
}

fn read_proof0() -> IndexReadProof {
    IndexReadProof {
        edge: IdentityId(0),
        key: 0,
        outcome: None,
        l0: vec![],
        witnesses: vec![],
        level_roots: vec![],
        global: global0(),
    }
}

fn merge_request0() -> MergeRequest {
    MergeRequest {
        edge: IdentityId(0),
        source_level: 0,
        source_l0: vec![],
        source_pages: vec![],
        target_pages: vec![],
        epoch: 0,
    }
}

fn merge_result0() -> MergeResult {
    MergeResult {
        edge: IdentityId(0),
        source_level: 0,
        new_target_pages: vec![],
        new_source_root: None,
        new_target_root: level_root0(),
        all_level_roots: vec![],
        global: global0(),
        new_epoch: 0,
    }
}

fn delta_result0() -> DeltaMergeResult {
    DeltaMergeResult {
        request_fp: Digest::ZERO,
        edge: IdentityId(0),
        source_level: 0,
        pages: vec![],
        new_source_root: None,
        new_target_root: level_root0(),
        all_level_roots: vec![],
        global: global0(),
        new_epoch: 0,
    }
}

fn delta_request0() -> DeltaMergeRequest {
    DeltaMergeRequest {
        edge: IdentityId(0),
        source_level: 0,
        epoch: 0,
        retention: vec![],
        source_l0: vec![],
        source_pages: vec![],
        target_pages: vec![],
    }
}

const RETAINED0: ReqPageSlot = ReqPageSlot::Retained { level: 1, index: 0 };

/// One conformance case per type that implements `Wire`, named as the
/// type appears after `Wire for` (generic arguments dropped).
/// `every_wire_impl_has_a_conformance_case` holds this list to the
/// impls in the source.
fn wire_cases() -> Vec<(&'static str, fn())> {
    vec![
        ("u8", || conform_wire("u8", |r| r.next() as u8, 0u8, vec![])),
        ("u32", || conform_wire("u32", |r| r.next() as u32, 0u32, vec![])),
        ("u64", || conform_wire("u64", Rng::next, 0u64, vec![])),
        ("u128", || conform_wire("u128", |r| (r.next() as u128) << 64 | 1, 0u128, vec![])),
        ("Digest", || conform_wire("Digest", Rng::digest, Digest::ZERO, vec![])),
        ("Signature", || conform_wire("Signature", Rng::sig, SIG0, vec![])),
        ("IdentityId", || {
            conform_wire("IdentityId", |r| IdentityId(r.next()), IdentityId(0), vec![])
        }),
        ("BlockId", || conform_wire("BlockId", |r| BlockId(r.next()), BlockId(0), vec![])),
        ("InclusionProof", || {
            let grown = InclusionProof { siblings: vec![Digest::ZERO], ..inclusion0() };
            let arb = |r: &mut Rng| InclusionProof {
                leaf_index: r.below(1 << 20) as usize,
                siblings: (0..r.below(5)).map(|_| r.digest()).collect(),
            };
            conform_wire("InclusionProof", arb, inclusion0(), vec![grown]);
        }),
        ("Option", || {
            let arb = |r: &mut Rng| if r.below(2) == 0 { Some(r.digest()) } else { None };
            conform_wire("Option<Digest>", arb, None, vec![]);
        }),
        ("Vec", || {
            let arb = |r: &mut Rng| {
                let len = r.below(40) as usize;
                r.bytes(len)
            };
            conform_wire("Vec<u8>", arb, vec![], vec![vec![0u8]]);
            let arb = |r: &mut Rng| (0..r.below(5)).map(|_| r.digest()).collect::<Vec<_>>();
            conform_wire("Vec<Digest>", arb, vec![], vec![vec![Digest::ZERO]]);
        }),
        ("Arc", || conform_wire("Arc<Page>", arb_page, Arc::new(page0()), vec![])),
        ("Box", || {
            let arb = |r: &mut Rng| Box::new(arb_index_read_proof(r));
            conform_wire("Box<IndexReadProof>", arb, Box::new(read_proof0()), vec![]);
        }),
        ("(A, B)", || {
            let arb = |r: &mut Rng| (r.next() as u32, r.digest());
            conform_wire("(u32, Digest)", arb, (0u32, Digest::ZERO), vec![]);
        }),
        ("Entry", || {
            let grown = Entry { payload: vec![0], ..entry0() };
            conform_wire("Entry", arb_entry, entry0(), vec![grown]);
        }),
        ("Block", || {
            conform_wire("Block", arb_block, block0(), vec![]);
            // The entry count sits inside the length prefix: probe it
            // on the canonical bytes the prefix wraps.
            let canonical = Codec {
                encode: Block::canonical_bytes,
                decode: Block::decode,
                encoded_len: Block::canonical_len,
                min_len: Block::MIN_LEN - 8,
            };
            let grown = Block { entries: vec![entry0()], ..block0() };
            conform("Block canonical bytes", &canonical, arb_block, block0(), vec![grown]);
        }),
        ("BlockProof", || {
            let smallest = BlockProof {
                edge: IdentityId(0),
                bid: BlockId(0),
                digest: Digest::ZERO,
                signature: SIG0,
            };
            conform_wire("BlockProof", arb_block_proof, smallest, vec![]);
        }),
        ("GossipWatermark", || {
            let smallest = GossipWatermark {
                edge: IdentityId(0),
                timestamp_ns: 0,
                log_len: 0,
                signature: SIG0,
            };
            conform_wire("GossipWatermark", arb_watermark, smallest, vec![]);
        }),
        ("Version", || {
            let arb = |r: &mut Rng| Version { bid: r.next(), pos: r.next() as u32 };
            conform_wire("Version", arb, Version { bid: 0, pos: 0 }, vec![]);
        }),
        ("KvRecord", || {
            let arb = |r: &mut Rng| arb_records(r, 1).remove(0);
            conform_wire("KvRecord", arb, record0(), vec![]);
        }),
        ("Page", || {
            let grown = Page::new(0, 0, vec![record0()], 0);
            conform_wire("Page", |r| (*arb_page(r)).clone(), page0(), vec![grown]);
        }),
        ("L0Page", || {
            let arb = |r: &mut Rng| (*arb_l0_page(r)).clone();
            conform_wire("L0Page", arb, L0Page::from_block(block0()), vec![]);
        }),
        ("SignedLevelRoot", || {
            conform_wire("SignedLevelRoot", arb_level_root, level_root0(), vec![])
        }),
        ("GlobalRootCert", || conform_wire("GlobalRootCert", arb_global, global0(), vec![])),
        ("L0Witness", || {
            let arb = |r: &mut Rng| arb_index_read_proof(r).l0.pop().unwrap_or_else(l0_witness0);
            conform_wire("L0Witness", arb, l0_witness0(), vec![]);
        }),
        ("LevelWitness", || {
            let arb = |r: &mut Rng| {
                arb_index_read_proof(r).witnesses.pop().unwrap_or_else(level_witness0)
            };
            conform_wire("LevelWitness", arb, level_witness0(), vec![]);
        }),
        ("IndexReadProof", || {
            let grown = vec![
                IndexReadProof { l0: vec![l0_witness0()], ..read_proof0() },
                IndexReadProof { witnesses: vec![level_witness0()], ..read_proof0() },
                IndexReadProof { level_roots: vec![Digest::ZERO], ..read_proof0() },
            ];
            conform_wire("IndexReadProof", arb_index_read_proof, read_proof0(), grown);
        }),
        ("MergeRequest", || {
            let grown = vec![
                MergeRequest { source_l0: vec![l0_witness0().page], ..merge_request0() },
                MergeRequest { source_pages: vec![Arc::new(page0())], ..merge_request0() },
                MergeRequest { target_pages: vec![Arc::new(page0())], ..merge_request0() },
            ];
            conform_wire("MergeRequest", arb_merge_request, merge_request0(), grown);
        }),
        ("MergeResult", || {
            let grown = vec![
                MergeResult { new_target_pages: vec![Arc::new(page0())], ..merge_result0() },
                MergeResult { all_level_roots: vec![Digest::ZERO], ..merge_result0() },
            ];
            conform_wire("MergeResult", arb_merge_result, merge_result0(), grown);
        }),
        ("PageDelta", || {
            let arb =
                |r: &mut Rng| arb_delta_merge_result(r).pages.pop().unwrap_or(PageDelta::Reused(7));
            conform_wire("PageDelta", arb, PageDelta::Reused(0), vec![]);
        }),
        ("DeltaMergeResult", || {
            let grown = vec![
                DeltaMergeResult { pages: vec![PageDelta::Reused(0)], ..delta_result0() },
                DeltaMergeResult { all_level_roots: vec![Digest::ZERO], ..delta_result0() },
            ];
            conform_wire("DeltaMergeResult", arb_delta_merge_result, delta_result0(), grown);
        }),
        ("ReqPageSlot", || conform_wire("ReqPageSlot", arb_req_slot, RETAINED0, vec![])),
        ("DeltaMergeRequest", || {
            let grown = vec![
                DeltaMergeRequest { retention: vec![(0, Digest::ZERO)], ..delta_request0() },
                DeltaMergeRequest { source_l0: vec![l0_witness0().page], ..delta_request0() },
                DeltaMergeRequest { source_pages: vec![RETAINED0], ..delta_request0() },
                DeltaMergeRequest { target_pages: vec![RETAINED0], ..delta_request0() },
            ];
            conform_wire("DeltaMergeRequest", arb_delta_merge_request, delta_request0(), grown);
        }),
        ("AddReceipt", || {
            let smallest = AddReceipt {
                edge: IdentityId(0),
                client: IdentityId(0),
                req_id: 0,
                entries_digest: Digest::ZERO,
                bid: BlockId(0),
                block_digest: Digest::ZERO,
                signature: SIG0,
            };
            conform_wire("AddReceipt", arb_add_receipt, smallest, vec![]);
        }),
        ("ReadReceipt", || conform_wire("ReadReceipt", arb_read_receipt, read_receipt0(), vec![])),
        ("Dispute", || {
            let smallest = Dispute::WrongRead { receipt: read_receipt0() };
            conform_wire("Dispute", arb_dispute, smallest, vec![]);
        }),
        ("DisputeVerdict", || {
            conform_wire("DisputeVerdict", arb_verdict, DisputeVerdict::Dismissed, vec![])
        }),
    ]
}

#[test]
fn every_wire_type_conforms() {
    for (_, case) in wire_cases() {
        case();
    }
}

/// The one message payload with a `Vec` field of its own: a batch's
/// entry count is bounded by the smallest entry.
#[test]
fn batch_add_payload_conforms() {
    let codec = Codec {
        encode: WireMsg::encode_payload,
        decode: |bytes| WireMsg::decode_payload(1, bytes),
        encoded_len: WireMsg::encoded_len,
        min_len: u64::MIN_LEN + Vec::<Entry>::MIN_LEN,
    };
    let batch = |entries| WireMsg::BatchAdd { req_id: 0, entries };
    let arb = |r: &mut Rng| WireMsg::BatchAdd {
        req_id: r.next(),
        entries: (0..r.below(4)).map(|_| arb_entry(r)).collect(),
    };
    conform("BatchAdd payload", &codec, arb, batch(vec![]), vec![batch(vec![entry0()])]);
}

/// The `Wire` analogue of `all_20_variants_covered`: every type named
/// by `impl … Wire for X` or `wire_struct!(X …)` under `crates/*/src`
/// has a case in [`wire_cases`].
#[test]
fn every_wire_impl_has_a_conformance_case() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    let mut impls = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for line in text.lines().map(str::trim_start).filter(|l| !l.starts_with("//")) {
            let named =
                if let Some(at) = line.find("Wire for ").filter(|_| line.starts_with("impl")) {
                    let ty = &line[at + "Wire for ".len()..];
                    let end = if ty.starts_with('(') {
                        ty.find(')').map(|i| i + 1)
                    } else {
                        ty.find(['<', ' '])
                    };
                    &ty[..end.unwrap_or(ty.len())]
                } else if let Some(rest) = line.split("wire_struct!(").nth(1) {
                    rest.split([' ', '{']).next().unwrap_or("")
                } else {
                    continue;
                };
            if !named.starts_with('$') {
                impls.push((named.to_string(), file.display().to_string()));
            }
        }
    }
    assert!(impls.len() >= 30, "the scan found only {} Wire impls", impls.len());
    let cases: Vec<&str> = wire_cases().iter().map(|(name, _)| *name).collect();
    for (ty, file) in &impls {
        assert!(cases.contains(&ty.as_str()), "`Wire for {ty}` in {file} has no conformance case");
    }
    for case in &cases {
        assert!(impls.iter().any(|(ty, _)| ty == case), "conformance case {case} names no impl");
    }
}

#[test]
fn every_variant_roundtrips_framed() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x3117 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            let back = WireMsg::decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("case {case} {}: {e}", msg.name()));
            assert_eq!(back, msg, "case {case}: {} round-trips", msg.name());
            // Decode∘encode is the identity on bytes too: re-encoding
            // yields the exact frame, so digests/signatures computed
            // over decoded values match the sender's.
            assert_eq!(back.encode_frame(), bytes, "case {case}: {} bytes stable", msg.name());
        }
    }
}

#[test]
fn encode_into_reused_dirty_buffer_is_byte_identical() {
    // The pooled encode path: one buffer reused across every variant
    // and case, pre-filled with garbage each time, must produce bytes
    // identical to the allocating `encode_payload()`, and
    // `encoded_len()` must predict the exact byte count — that
    // arithmetic is what lets the wire path pre-size without growth
    // reallocation.
    let mut buf = Vec::new();
    for case in 0..24u64 {
        let mut rng = Rng::new(0xB0F5 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let fresh = msg.encode_payload();
            assert_eq!(
                fresh.len(),
                msg.encoded_len(),
                "case {case}: {} encoded_len is exact",
                msg.name()
            );
            // Dirty the scratch so stale bytes would be caught.
            buf.clear();
            buf.extend_from_slice(&[0xAA; 37]);
            msg.encode_payload_into(&mut buf);
            assert_eq!(buf, fresh, "case {case}: {} pooled encode byte-identical", msg.name());
        }
    }
}

#[test]
fn append_frame_to_packs_contiguous_frames() {
    // The coalescing primitive: appending several frames to one
    // buffer yields exactly the concatenation of their standalone
    // frames — header and payload contiguous, nothing between them.
    for case in 0..8u64 {
        let mut rng = Rng::new(0xC0A1 ^ case);
        let msgs = arb_all_variants(&mut rng);
        let mut packed = Vec::new();
        let mut expect = Vec::new();
        for msg in &msgs {
            msg.append_frame_to(&mut packed).expect("in-cap frame");
            expect.extend_from_slice(&msg.encode_frame());
        }
        assert_eq!(packed, expect, "case {case}: packed batch is the frame concatenation");
        // And the batch decodes back to the same sequence, frame by
        // frame.
        let mut off = 0;
        for msg in &msgs {
            let len = FRAME_HEADER_LEN + msg.encoded_len();
            let back = WireMsg::decode_frame(&packed[off..off + len]).expect("decode");
            assert_eq!(&back, msg, "case {case}: {} survives packing", msg.name());
            off += len;
        }
        assert_eq!(off, packed.len(), "case {case}: no trailing bytes");
    }
}

#[test]
fn truncation_always_errors_never_panics() {
    for case in 0..4u64 {
        let mut rng = Rng::new(0x7C91 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            for cut in 0..bytes.len() {
                assert!(
                    WireMsg::decode_frame(&bytes[..cut]).is_err(),
                    "case {case} {}: cut at {cut} must fail",
                    msg.name()
                );
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_forge_equality() {
    for case in 0..4u64 {
        let mut rng = Rng::new(0xF11F ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            // Flip one bit at a sample of positions (every position for
            // small frames).
            let stride = (bytes.len() / 64).max(1);
            for pos in (0..bytes.len()).step_by(stride) {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << (rng.below(8) as u8);
                if let Ok(decoded) = WireMsg::decode_frame(&bad) {
                    assert_ne!(
                        decoded,
                        msg,
                        "{}: flipped byte {pos} must not decode to the original",
                        msg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    let mut rng = Rng::new(0x7A11);
    for msg in arb_all_variants(&mut rng) {
        let mut bytes = msg.encode_frame();
        bytes.push(0);
        assert!(WireMsg::decode_frame(&bytes).is_err(), "{}: trailing byte", msg.name());
    }
}

#[test]
fn unknown_kind_rejected() {
    // A structurally valid frame whose type tag names no message.
    for kind in [0u8, 21, 0x7F, 0xF0, 0xFF] {
        let frame = wedge_log::Frame { kind, payload: vec![] }.encode();
        assert!(
            matches!(WireMsg::decode_frame(&frame), Err(DecodeError::Malformed(_))),
            "kind {kind} must be rejected"
        );
    }
}

#[test]
fn cross_variant_payloads_rejected() {
    // Re-tagging a message's payload as a different kind must fail
    // (or at minimum decode to a different message — it cannot be
    // silently accepted as the original).
    let mut rng = Rng::new(0xC402);
    let msg = WireMsg::AddResponse { receipt: arb_add_receipt(&mut rng) };
    let mut bytes = msg.encode_frame();
    bytes[FRAME_HEADER_LEN - 5] = WireMsg::LogRead { bid: BlockId(0) }.kind();
    assert!(WireMsg::decode_frame(&bytes).is_err(), "receipt bytes are not a LogRead");
}

// --- delta-encoded merge replies: resolution semantics ---
//
// The delta codec is deliberately not self-contained: references
// rehydrate against the outstanding request, keyed by its fingerprint.
// These tests build *real* merges through `CloudIndex` (entry
// signatures are irrelevant to the cloud's merge checks, so they are
// fake) and exercise the request-context step end to end.

mod delta_resolution {
    use super::*;
    use std::collections::HashMap;
    use wedge_core::messages::WireMsg;
    use wedge_log::{write_frame, CertLedger, MAX_FRAME_PAYLOAD};
    use wedge_lsmerkle::{CloudIndex, KvOp, LsmConfig, RetainedLevel};

    fn kv_put_entry(seq: u64, key: u64, value: Vec<u8>) -> Entry {
        Entry {
            client: IdentityId(1000),
            sequence: seq,
            payload: KvOp::put(key, value).encode(),
            signature: Signature { e: 0, s: 0 },
        }
    }

    struct Cloud {
        cloud: Identity,
        ledger: CertLedger,
        index: CloudIndex,
        edge: IdentityId,
        next_bid: u64,
    }

    impl Cloud {
        fn new(cfg: LsmConfig) -> Self {
            let cloud = Identity::derive("cloud", 1);
            let edge = IdentityId(100);
            let mut index = CloudIndex::new(cfg);
            index.init_edge(&cloud, edge, 0);
            Cloud { cloud, ledger: CertLedger::new(), index, edge, next_bid: 0 }
        }

        /// Seals + certifies one single-put block as an L0 page.
        fn certified_l0(&mut self, key: u64, value: Vec<u8>) -> std::sync::Arc<L0Page> {
            let block = Block {
                edge: self.edge,
                id: BlockId(self.next_bid),
                entries: vec![kv_put_entry(self.next_bid, key, value)],
                sealed_at_ns: self.next_bid,
            };
            self.next_bid += 1;
            let page = std::sync::Arc::new(L0Page::from_block(block));
            self.ledger.offer(self.edge, page.block().id, page.digest());
            page
        }

        fn merge(&mut self, req: &MergeRequest) -> MergeResult {
            self.index.process_merge(&self.cloud, &self.ledger, req, 1_000).expect("merge ok")
        }
    }

    /// A big-target/small-source scenario: merge 1 builds the target
    /// level, merge 2 touches only its last page.
    fn big_target_small_source(
        cfg: LsmConfig,
        keys: u64,
        value: Vec<u8>,
    ) -> (Cloud, MergeRequest, MergeResult) {
        let mut cloud = Cloud::new(cfg);
        let source_l0 = (0..keys).map(|k| cloud.certified_l0(k, value.clone())).collect();
        let req1 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0,
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = cloud.merge(&req1);
        // Merge 2: one small put far to the right — only the last
        // target page's range is touched.
        let touch = cloud.certified_l0(1 << 40, b"small".to_vec());
        let req2 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };
        let res2 = cloud.merge(&req2);
        (cloud, req2, res2)
    }

    #[test]
    fn delta_resolves_into_the_requests_own_arcs() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (_, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert!(delta.reused_pages() >= 1, "untouched pages travel as references");
        assert!(delta.full_pages() >= 1, "the touched region travels in full");
        assert!(delta.wire_size() < res2.wire_size(), "delta is smaller than the full reply");

        // The framed message round-trips like every other variant.
        let msg = WireMsg::MergeResDelta(Box::new(delta.clone()));
        let bytes = msg.encode_frame();
        let back = WireMsg::decode_frame(&bytes).expect("delta frame decodes");
        assert_eq!(back, msg);

        // Resolution rehydrates references into the request's own
        // pages: pointer identity, not copies.
        let resolved = delta.resolve(&req2).expect("fingerprint-matched request resolves");
        assert_eq!(resolved, res2);
        let reused_idx = delta
            .pages
            .iter()
            .position(|p| matches!(p, PageDelta::Reused(_)))
            .expect("at least one reference");
        assert!(
            std::sync::Arc::ptr_eq(
                &resolved.new_target_pages[reused_idx],
                &req2.target_pages[reused_idx]
            ),
            "reference resolves to the request's Arc, byte-for-byte shared"
        );
    }

    /// The replay-cache interaction: a *retried* request decoded off
    /// the wire carries fresh `Arc`s but the same fingerprint, so the
    /// cloud's cached result delta-encodes against the retry and every
    /// reference resolves against the retry's own pages.
    #[test]
    fn replayed_delta_resolves_against_the_retried_request() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (cloud, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        // The retry crosses the wire: fresh Arcs on the cloud side.
        let retry_bytes = WireMsg::MergeReq(Box::new(req2.clone())).encode_frame();
        let Ok(WireMsg::MergeReq(retry)) = WireMsg::decode_frame(&retry_bytes) else {
            panic!("retry decodes as a merge request");
        };
        let cached = cloud.index.replay_for(&retry).expect("fingerprint-matched retry replays");
        assert_eq!(cached, res2);
        let delta = DeltaMergeResult::delta_against(&cached, &retry);
        assert!(delta.reused_pages() >= 1, "replay still dedups (digest match, not ptr match)");
        let resolved = delta.resolve(&retry).expect("resolves against the retry");
        assert_eq!(resolved, res2);
        // And NOT against a different request (the original pre-wire
        // request has the same fingerprint, so that one also resolves;
        // a *mutated* one must not — see the hostile test below).
    }

    #[test]
    fn hostile_out_of_range_index_and_wrong_fingerprint_are_typed_errors() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (_, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeResult::delta_against(&res2, &req2);

        // An out-of-range reuse index — as a hostile peer could put on
        // the wire — is a typed error, never a panic.
        let mut hostile = delta.clone();
        hostile.pages[0] = PageDelta::Reused(u32::MAX);
        assert_eq!(
            hostile.resolve(&req2),
            Err(DecodeError::Malformed("merge reuse index out of range"))
        );
        // The hostile frame still round-trips as bytes (range checks
        // are resolution-time, against a real request).
        let bytes = WireMsg::MergeResDelta(Box::new(hostile.clone())).encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(WireMsg::MergeResDelta(Box::new(hostile))));

        // A delta for a different request (dangling reference context)
        // is refused by fingerprint before any index is looked at.
        let mut dangling = delta.clone();
        dangling.request_fp = sha256(b"some other request");
        assert_eq!(
            dangling.resolve(&req2),
            Err(DecodeError::Malformed("merge delta answers a different request"))
        );

        // A bad page-delta tag on the wire is a decode error.
        let mut enc = wedge_log::Encoder::default();
        delta.encode_into(&mut enc);
        let mut payload = enc.finish();
        // tag byte of the first page slot: fp(32) + edge(8) + level(4)
        // + count(8).
        payload[52] = 7;
        assert!(DeltaMergeResult::decode_from(&mut wedge_log::Decoder::new(&payload)).is_err());
    }

    /// The motivating failure: a big-target/small-source merge whose
    /// *full* reply exceeds the 16 MiB frame cap — `write_frame` would
    /// refuse it and the partition would wedge. The delta encoding of
    /// the same reply is a few pages plus references and sails through.
    #[test]
    fn oversized_full_reply_ships_as_small_delta() {
        let cfg = LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 };
        let value = vec![0xAB; 256 * 1024];
        let (_, req2, res2) = big_target_small_source(cfg, 65, value);

        // The full reply is genuinely over the frame cap: the old
        // representation could not have been sent at all.
        let full = WireMsg::MergeRes(Box::new(res2.clone()));
        let full_payload = full.encode_payload();
        assert!(
            full_payload.len() > MAX_FRAME_PAYLOAD as usize,
            "full reply must exceed the cap ({} <= {MAX_FRAME_PAYLOAD})",
            full_payload.len()
        );
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, full.kind(), &full_payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "write_frame refuses it");

        // The delta reply for the same merge is tiny and round-trips.
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert!(delta.reused_pages() >= 60, "almost everything is a reference");
        let msg = WireMsg::MergeResDelta(Box::new(delta));
        let bytes = msg.encode_frame();
        assert!(
            bytes.len() < 1024 * 1024,
            "delta frame scales with changed pages, not target size (got {})",
            bytes.len()
        );
        let Ok(WireMsg::MergeResDelta(back)) = WireMsg::decode_frame(&bytes) else {
            panic!("delta frame decodes");
        };
        assert_eq!(back.resolve(&req2).expect("resolves"), res2);
    }

    // --- the request direction: references rehydrate against the
    // cloud's retention cache, keyed by per-level fingerprints ---

    /// Builds the third merge of a warm partition: the target run is
    /// retained on both sides, so its pages can travel as references.
    fn warm_third_merge(
        cfg: LsmConfig,
        keys: u64,
        value: Vec<u8>,
    ) -> (Cloud, MergeRequest, HashMap<u32, RetainedLevel>) {
        let (mut cloud, _req2, res2) = big_target_small_source(cfg, keys, value);
        let touch = cloud.certified_l0(2 << 40, b"next".to_vec());
        let req3 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res2.new_target_pages.clone(),
            epoch: res2.new_epoch,
        };
        // What the edge learned from res2's reply — the same run the
        // cloud retained when it processed that merge.
        let mut retained = HashMap::new();
        retained.insert(1u32, RetainedLevel::over(cloud.edge, 1, &res2.new_target_pages));
        (cloud, req3, retained)
    }

    #[test]
    fn delta_request_resolves_into_the_clouds_own_arcs() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (mut cloud, req3, retained) = warm_third_merge(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeRequest::delta_against(&req3, &retained);
        assert!(delta.reused_pages() >= 1, "retained target pages travel as references");
        assert!(delta.full_pages() >= 1, "the new L0 page travels in full");
        assert!(delta.wire_size() < req3.wire_size(), "delta is smaller than the full request");

        // The framed message round-trips like every other variant.
        let msg = WireMsg::MergeReqDelta(Box::new(delta.clone()));
        let bytes = msg.encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(msg));

        // Resolution rehydrates references into the cloud's own
        // retained pages: pointer identity, not copies.
        let resolved = cloud.index.resolve_delta_request(&delta).expect("warm cache resolves");
        assert_eq!(resolved, req3);
        let reused_idx = delta
            .target_pages
            .iter()
            .position(|s| matches!(s, ReqPageSlot::Retained { .. }))
            .expect("at least one reference");
        assert!(
            Arc::ptr_eq(&resolved.target_pages[reused_idx], &req3.target_pages[reused_idx]),
            "reference resolves to the cloud's retained Arc, byte-for-byte shared"
        );
        // The resolved request is a processable merge.
        cloud.merge(&resolved);
    }

    #[test]
    fn hostile_delta_requests_are_typed_errors() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (mut cloud, req3, retained) = warm_third_merge(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeRequest::delta_against(&req3, &retained);

        // A fingerprint naming a run the cloud never retained.
        let mut stale = delta.clone();
        stale.retention[0].1 = sha256(b"never retained");
        assert_eq!(
            cloud.index.resolve_delta_request(&stale),
            Err(DecodeError::Malformed("merge request retention claim stale or unknown"))
        );

        // A reference into a level the request never declared.
        let mut undeclared = delta.clone();
        undeclared.retention.clear();
        assert_eq!(
            cloud.index.resolve_delta_request(&undeclared),
            Err(DecodeError::Malformed("merge request references an undeclared level"))
        );

        // An out-of-range reuse index — as a hostile peer could put on
        // the wire — is a typed error, never a panic.
        let mut oob = delta.clone();
        let pos = oob
            .target_pages
            .iter()
            .position(|s| matches!(s, ReqPageSlot::Retained { .. }))
            .expect("a reference to corrupt");
        let ReqPageSlot::Retained { level, .. } = oob.target_pages[pos] else { unreachable!() };
        oob.target_pages[pos] = ReqPageSlot::Retained { level, index: u32::MAX };
        assert_eq!(
            cloud.index.resolve_delta_request(&oob),
            Err(DecodeError::Malformed("merge request reuse index out of range"))
        );
        // The hostile frame still round-trips as bytes (range checks
        // are resolution-time, against the real retention cache).
        let bytes = WireMsg::MergeReqDelta(Box::new(oob.clone())).encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(WireMsg::MergeReqDelta(Box::new(oob))));

        // After eviction even the honest delta no longer resolves —
        // the typed error is what the engine turns into a resend nack.
        cloud.index.evict_retained(cloud.edge);
        assert!(matches!(
            cloud.index.resolve_delta_request(&delta),
            Err(DecodeError::Malformed(_))
        ));
    }

    /// The request-direction motivating failure: a merge whose *full*
    /// request re-ships a 16 MiB+ target level — `write_frame` would
    /// refuse the frame and the merge could never be submitted. The
    /// delta encoding of the same request is one new page plus 5-byte
    /// references and sails through.
    #[test]
    fn oversized_full_request_ships_as_small_delta() {
        let cfg = LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 };
        let value = vec![0xCD; 256 * 1024];
        let mut cloud = Cloud::new(cfg.clone());
        let source_l0 = (0..65).map(|k| cloud.certified_l0(k, value.clone())).collect();
        let req1 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0,
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = cloud.merge(&req1);
        let touch = cloud.certified_l0(1 << 40, b"small".to_vec());
        let req2 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };

        // The full request is genuinely over the frame cap.
        let full = WireMsg::MergeReq(Box::new(req2.clone()));
        let full_payload = full.encode_payload();
        assert!(
            full_payload.len() > MAX_FRAME_PAYLOAD as usize,
            "full request must exceed the cap ({} <= {MAX_FRAME_PAYLOAD})",
            full_payload.len()
        );
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, full.kind(), &full_payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "write_frame refuses it");

        // The delta request for the same merge is tiny and round-trips.
        let mut retained = HashMap::new();
        retained.insert(1u32, RetainedLevel::over(cloud.edge, 1, &res1.new_target_pages));
        let delta = DeltaMergeRequest::delta_against(&req2, &retained);
        assert!(delta.reused_pages() >= 60, "almost everything is a reference");
        let msg = WireMsg::MergeReqDelta(Box::new(delta));
        let bytes = msg.encode_frame();
        assert!(
            bytes.len() < 1024 * 1024,
            "delta frame scales with changed pages, not target size (got {})",
            bytes.len()
        );
        let Ok(WireMsg::MergeReqDelta(back)) = WireMsg::decode_frame(&bytes) else {
            panic!("delta request frame decodes");
        };
        let resolved = cloud.index.resolve_delta_request(&back).expect("resolves");
        assert_eq!(resolved, req2);
        cloud.merge(&resolved);
    }
}

/// The framed encoding of the certify message stays O(1): data-free
/// certification survives the trip onto real bytes.
#[test]
fn framed_certify_is_still_data_free() {
    let edge = Identity::derive("edge", 1);
    let d = sha256(b"block");
    let msg = WireMsg::BlockCertify { bid: BlockId(1), digest: d, signature: edge.sign(b"x") };
    assert!(msg.encode_frame().len() < 100, "digest-only certification on the wire");
}

/// Bit-flipped, truncated and spliced frames of every variant: each
/// frame that still decodes is injected into a real-crypto deployment,
/// at every engine a peer can reach, and the simulation stepped. No
/// engine panics, none punishes the honest edge for a frame it did
/// not send, and afterwards an honest put and get still round-trip.
#[test]
fn hostile_frames_at_the_engines_never_panic_or_wedge() {
    use wedge_core::config::SystemConfig;
    use wedge_core::harness::SystemHarness;
    use wedge_core::messages::Msg;
    use wedge_sim::SimDuration;

    let mut rng = Rng::new(0xE61E);
    let frames: Vec<Vec<u8>> =
        (0..4).flat_map(|_| arb_all_variants(&mut rng)).map(|m| m.encode_frame()).collect();
    let mut hostile: Vec<WireMsg> = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let mut mutants = Vec::new();
        for _ in 0..6 {
            let mut bad = frame.clone();
            let pos = rng.below(bad.len() as u64) as usize;
            bad[pos] ^= 1 << rng.below(8);
            mutants.push(bad);
        }
        mutants.push(frame[..rng.below(frame.len() as u64) as usize].to_vec());
        for _ in 0..3 {
            // This frame's kind and payload head on another frame's
            // payload tail.
            let other =
                &frames[(i + 1 + rng.below(frames.len() as u64 - 1) as usize) % frames.len()];
            let head = &frame[FRAME_HEADER_LEN..];
            let tail = &other[FRAME_HEADER_LEN..];
            let mut payload = head[..rng.below(head.len() as u64 + 1) as usize].to_vec();
            payload.extend_from_slice(&tail[rng.below(tail.len() as u64 + 1) as usize..]);
            mutants.push(wedge_log::Frame { kind: frame[FRAME_HEADER_LEN - 5], payload }.encode());
        }
        hostile.extend(mutants.iter().filter_map(|m| WireMsg::decode_frame(m).ok()));
    }
    assert!(hostile.len() >= 200, "only {} mutated frames decode", hostile.len());

    // (sender, receiver, whether punishing the edge can be correct)
    type Route = fn(&SystemHarness) -> (wedge_sim::ActorId, wedge_sim::ActorId, bool);
    let routes: [(&str, Route); 4] = [
        ("client to edge", |h| (h.clients[0], h.edge, false)),
        ("edge to client", |h| (h.edge, h.clients[0], false)),
        ("client to cloud", |h| (h.clients[0], h.cloud, false)),
        // Impersonates the edge: a punishment may be earned.
        ("edge to cloud", |h| (h.edge, h.cloud, true)),
    ];
    for (name, route) in routes {
        let mut h = SystemHarness::wedgechain(SystemConfig::real_crypto());
        h.put_certified(0, 1, b"before".to_vec());
        let (from, to, may_punish) = route(&h);
        for msg in &hostile {
            h.sim.inject(from, to, Msg::Wire(msg.clone()));
            let until = h.sim.now() + SimDuration::from_millis(100);
            h.sim.run_until(until, 10_000);
            assert!(
                may_punish || h.cloud_node().punished.is_empty(),
                "{name}: a hostile {} punished the honest edge",
                msg.name()
            );
        }
        if !h.cloud_node().punished.is_empty() {
            continue;
        }
        let put = h.put_certified(0, 2, b"after".to_vec());
        assert!(put.phase2_latency.is_some(), "{name}: the honest put is certified");
        let got = h.get(0, 2);
        assert_eq!(got.verify_error, None, "{name}: the honest get verifies");
        assert_eq!(got.value.as_deref(), Some(b"after".as_ref()), "{name}");
    }
}
