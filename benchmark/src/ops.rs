//! Seeded operation streams and the driver-side shadow map.
//!
//! `--seed` drives every key stream; the program under test receives
//! only the generated operations. A stream is unbounded (runs are
//! time-limited) and a pure function of `(seed, caller index)`: the
//! same seed gives the same operations in the same order.

use std::collections::HashMap;
use wedge_sim::SimRng;
use wedge_workload::{KeyDist, KeySampler};

/// Value payload size (paper §VI).
pub const VALUE_BYTES: usize = 100;

/// One generated operation. A put carries the sequence number its
/// value is derived from (see [`value_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put { key: u64, seq: u64 },
    Get { key: u64 },
}

/// Which operation comes next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    PutOnly,
    GetOnly,
    /// put, get, put, get, …
    Alternate,
    /// Every fifth operation reads: 80 % put / 20 % get.
    FourPutsOneGet,
}

/// Where keys come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    Uniform(u64),
    Zipf(u64),
    /// Even draws Zipf(0.99), odd draws uniform, over one key space.
    ZipfUniform(u64),
}

/// The YCSB skew every Zipf stream here uses.
const ZIPF_ALPHA: f64 = 0.99;

/// An unbounded, seeded operation stream for one caller.
pub struct OpGen {
    rng: SimRng,
    /// Draw `i` comes from `samplers[i % len]`.
    samplers: Vec<KeySampler>,
    mix: Mix,
    /// Callers draw from disjoint key sets (`key * callers + caller`),
    /// so each caller's shadow map is exact without cross-thread
    /// ordering.
    callers: u64,
    caller: u64,
    issued: u64,
}

impl OpGen {
    pub fn new(seed: u64, caller: usize, callers: usize, keys: Keys, mix: Mix) -> Self {
        let zipf = |n| KeySampler::new(KeyDist::Zipf { alpha: ZIPF_ALPHA }, n);
        let uniform = |n| KeySampler::new(KeyDist::Uniform, n);
        let samplers = match keys {
            Keys::Uniform(n) => vec![uniform(n)],
            Keys::Zipf(n) => vec![zipf(n)],
            Keys::ZipfUniform(n) => vec![zipf(n), uniform(n)],
        };
        OpGen {
            rng: SimRng::new(caller_seed(seed, caller)),
            samplers,
            mix,
            callers: callers.max(1) as u64,
            caller: caller as u64,
            issued: 0,
        }
    }

    fn next_key(&mut self) -> u64 {
        let turn = self.issued as usize % self.samplers.len();
        let key = self.samplers[turn].sample(&mut self.rng);
        key * self.callers + self.caller
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let key = self.next_key();
        let i = self.issued;
        self.issued += 1;
        let is_get = match self.mix {
            Mix::PutOnly => false,
            Mix::GetOnly => true,
            Mix::Alternate => i % 2 == 1,
            Mix::FourPutsOneGet => i % 5 == 4,
        };
        Some(if is_get { Op::Get { key } } else { Op::Put { key, seq: i } })
    }
}

/// Per-caller stream seed: callers are offset by index.
pub fn caller_seed(seed: u64, caller: usize) -> u64 {
    seed ^ (caller as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The 100-byte value of put `seq` on `key`: both are recoverable
/// from the bytes, so a stale or foreign value cannot pass the shadow
/// check by accident.
pub fn value_for(key: u64, seq: u64) -> Vec<u8> {
    let mut v = vec![(seq % 251) as u8; VALUE_BYTES];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&seq.to_le_bytes());
    v
}

/// What this driver wrote: key → sequence of its last put. Proves a
/// get returns the last value written for the key, or absent.
#[derive(Default)]
pub struct Shadow {
    last: HashMap<u64, u64>,
    /// Distinct keys in first-write order (read-back sampling).
    keys: Vec<u64>,
}

impl Shadow {
    pub fn record_put(&mut self, key: u64, seq: u64) {
        if self.last.insert(key, seq).is_none() {
            self.keys.push(key);
        }
    }

    /// True when `got` is exactly what the last put on `key` wrote
    /// (or absent when nothing was written).
    pub fn matches(&self, key: u64, got: Option<&[u8]>) -> bool {
        match (self.last.get(&key), got) {
            (None, None) => true,
            (Some(&seq), Some(bytes)) => bytes == value_for(key, seq).as_slice(),
            _ => false,
        }
    }

    /// The distinct keys written so far.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, caller: usize, n: usize) -> Vec<Op> {
        OpGen::new(seed, caller, 2, Keys::ZipfUniform(100_000), Mix::FourPutsOneGet)
            .take(n)
            .collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(take(7, 0, 500), take(7, 0, 500));
        assert_ne!(take(7, 0, 500), take(8, 0, 500));
        assert_ne!(take(7, 0, 500), take(7, 1, 500), "callers are offset by index");
    }

    #[test]
    fn callers_draw_disjoint_keys_and_mix_is_as_stated() {
        let ops = take(3, 1, 1000);
        let gets = ops.iter().filter(|o| matches!(o, Op::Get { .. })).count();
        assert_eq!(gets, 200, "every fifth op reads");
        for op in &ops {
            let (Op::Put { key, .. } | Op::Get { key }) = op;
            assert_eq!(key % 2, 1, "caller 1 of 2 owns the odd keys");
        }
    }

    #[test]
    fn shadow_accepts_only_the_last_written_value() {
        let mut shadow = Shadow::default();
        assert!(shadow.matches(9, None));
        assert!(!shadow.matches(9, Some(&value_for(9, 0))), "never written: must be absent");
        shadow.record_put(9, 0);
        shadow.record_put(9, 4);
        assert!(shadow.matches(9, Some(&value_for(9, 4))));
        assert!(!shadow.matches(9, Some(&value_for(9, 0))), "stale value");
        assert!(!shadow.matches(9, None), "lost write");
        assert_eq!(shadow.keys(), &[9]);
    }
}
