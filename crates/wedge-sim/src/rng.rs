//! Deterministic pseudo-random number generator for simulations.
//!
//! A self-contained SplitMix64: tiny, fast, stable across platforms and
//! library versions, which keeps every simulation run reproducible from
//! its seed alone. (The `rand` crate is used elsewhere for workload
//! generation where cross-version stability does not matter.)

/// SplitMix64 PRNG (public-domain algorithm by Sebastiano Vigna).
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift rejection-free mapping (slight bias acceptable
        // for workload generation; bounds here are tiny vs 2^64).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_f64_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
