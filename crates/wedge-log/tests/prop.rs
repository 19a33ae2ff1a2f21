//! Property-style tests for the logging layer.
//!
//! No third-party crates are available in the build environment, so
//! these run each property over deterministic SplitMix64-generated
//! case streams instead of proptest.

use std::collections::{HashMap, HashSet};
use wedge_crypto::{sha256, Identity, IdentityId, KeyRegistry};
use wedge_log::{
    BlockBuffer, BlockId, BlockProof, CertLedger, CertOutcome, Entry, GossipWatermark,
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

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[test]
fn buffer_seals_preserve_order() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xB0FF ^ case);
        let client = Identity::derive("client", 1);
        let batch = 1 + rng.below(9) as usize;
        let mut buf = BlockBuffer::new(IdentityId(9));
        let mut pending = 0;
        let mut seq = 0u64;
        let mut sealed = Vec::new();
        for _ in 0..1 + rng.below(11) {
            for _ in 0..1 + rng.below(29) {
                assert!(buf.push(Entry::new_signed(&client, seq, vec![1])));
                seq += 1;
                pending += 1;
                if pending >= batch {
                    sealed.push(buf.seal(0).unwrap());
                    pending = 0;
                }
            }
        }
        if let Some(b) = buf.seal(0) {
            sealed.push(b);
        }
        // Monotonic ids, contiguous from 0.
        for (i, b) in sealed.iter().enumerate() {
            assert_eq!(b.id, BlockId(i as u64));
        }
        // Entries across blocks are the original sequence order.
        let seqs: Vec<u64> =
            sealed.iter().flat_map(|b| b.entries.iter().map(|e| e.sequence)).collect();
        let expect: Vec<u64> = (0..seq).collect();
        assert_eq!(seqs, expect, "case {case}");
    }
}

#[test]
fn replay_window() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x3E9 ^ case);
        let client = Identity::derive("client", 1);
        let mut buf = BlockBuffer::new(IdentityId(9));
        let mut hi: Option<u64> = None;
        for _ in 0..1 + rng.below(79) {
            let s = rng.below(40);
            let accepted = buf.push(Entry::new_signed(&client, s, vec![0]));
            let fresh = hi.is_none_or(|h| s > h);
            assert_eq!(accepted, fresh);
            if fresh {
                hi = Some(s);
            }
        }
    }
}

#[test]
fn ledger_agreement() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xA9EE ^ case);
        let mut ledger = CertLedger::new();
        let mut first: HashMap<(u64, u64), u64> = Default::default();
        for _ in 0..1 + rng.below(59) {
            let (edge, bid, content) = (rng.below(4), rng.below(6), rng.below(3));
            let digest = sha256(format!("{content}").as_bytes());
            let outcome = ledger.offer(IdentityId(edge), BlockId(bid), digest);
            match first.get(&(edge, bid)) {
                None => {
                    assert_eq!(outcome, CertOutcome::Certified);
                    first.insert((edge, bid), content);
                }
                Some(&c) if c == content => {
                    assert_eq!(outcome, CertOutcome::AlreadyCertified);
                }
                Some(&c) => {
                    let expected = sha256(format!("{c}").as_bytes());
                    assert_eq!(outcome, CertOutcome::Equivocation(expected));
                }
            }
            // The certified digest never changes after first write.
            let want = sha256(format!("{}", first[&(edge, bid)]).as_bytes());
            assert_eq!(ledger.lookup(IdentityId(edge), BlockId(bid)), Some(&want));
        }
    }
}

#[test]
fn watermark_is_contiguous_prefix() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x3A7E2 ^ case);
        let mut ledger = CertLedger::new();
        let edge = IdentityId(1);
        let mut seen = HashSet::new();
        for _ in 0..1 + rng.below(39) {
            let bid = rng.below(20);
            ledger.offer(edge, BlockId(bid), sha256(&bid.to_be_bytes()));
            seen.insert(bid);
            let expect = (0u64..).take_while(|b| seen.contains(b)).count() as u64;
            assert_eq!(ledger.contiguous_len(edge), expect);
        }
    }
}

#[test]
fn signed_artifacts_bind_fields() {
    for case in 0..16u64 {
        let mut rng = Rng::new(0x516E ^ case);
        let (bid, len, ts) = (rng.below(1000), rng.below(1000), rng.below(10_000));
        let cloud = Identity::derive("cloud", 0);
        let evil = Identity::derive("evil", 7);
        let mut reg = KeyRegistry::new();
        reg.register(cloud.id, cloud.public()).unwrap();
        let d = sha256(&bid.to_be_bytes());
        let proof = BlockProof::issue(&cloud, IdentityId(5), BlockId(bid), d);
        assert!(proof.verify(cloud.id, &reg));
        let forged = BlockProof::issue(&evil, IdentityId(5), BlockId(bid), d);
        assert!(!forged.verify(cloud.id, &reg));
        let wm = GossipWatermark::issue(&cloud, IdentityId(5), ts, len);
        assert!(wm.verify(cloud.id, &reg));
        let mut bad = wm.clone();
        bad.log_len = len + 1;
        assert!(!bad.verify(cloud.id, &reg));
        assert_eq!(wm.proves_existence(bid), bid < len);
    }
}
