//! The arithmetic under [`crate::schnorr`]: modular arithmetic over
//! `u128` for moduli below 2^127, and windowed exponentiation.
//!
//! The Schnorr group lives in a 127-bit safe-prime field, so every
//! value fits a `u128` and `a + b` never overflows when `a, b < 2^127`.
//!
//! - **Multiply** ([`mulmod`]) is a double-and-add ladder: one modular
//!   doubling per bit of the smaller operand and an addition per set
//!   bit, up to 127 of each. It needs no intermediate wider than a
//!   `u128`, and it is the whole cost of a signature: an
//!   exponentiation by square-and-multiply ([`modpow`]) is ~190 of
//!   them.
//! - **Exponentiation of a fixed base** goes through a
//!   [`WindowTable`]: 4-bit windows, with `ROWS` rows so that
//!   `128 / ROWS − 4` squarings remain. The generator's table has a
//!   row per window and needs none: 31 multiplies for `g^k`.
//!
//! Nothing here is constant-time (the ladder branches on operand bits,
//! table rows are indexed by exponent digits); see the security note
//! in [`crate::schnorr`].
//!
//! **Not yet on this path:** both moduli have the shape `2^BITS + C`
//! with a ten-bit `C` (`P = 2^126 + 0x337`, `Q = 2^125 + 0x19b`), which
//! allows a far cheaper multiply — a 128×128→256 product from four
//! 64-bit-limb multiplies, folded back with `2^BITS ≡ −C`, in place of
//! the ladder's ~250 additions. It is written, and the unit tests
//! below hold it equal to [`mulmod`] on every edge operand and 200 000
//! random pairs (`tests::wide`); putting it under [`mulmod`]'s callers
//! is ROADMAP item 2's last step.

/// Adds `a + b (mod m)`. Requires `a, b < m < 2^127`.
#[inline]
pub const fn addmod(a: u128, b: u128, m: u128) -> u128 {
    debug_assert!(a < m && b < m);
    let s = a + b; // cannot overflow: a, b < 2^127
    if s >= m {
        s - m
    } else {
        s
    }
}

/// Subtracts `a - b (mod m)`. Requires `a, b < m`.
#[inline]
pub const fn submod(a: u128, b: u128, m: u128) -> u128 {
    debug_assert!(a < m && b < m);
    if a >= b {
        a - b
    } else {
        m - (b - a)
    }
}

/// Multiplies `a * b (mod m)` via double-and-add, for any `a`, `b`.
/// Requires `m < 2^127`.
pub const fn mulmod(mut a: u128, mut b: u128, m: u128) -> u128 {
    debug_assert!(m < (1u128 << 127), "modulus must fit in 127 bits");
    a %= m;
    b %= m;
    // Keep the smaller operand as the ladder counter.
    if a < b {
        (a, b) = (b, a);
    }
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc = addmod(acc, a, m);
        }
        a = addmod(a, a, m);
        b >>= 1;
    }
    acc
}

/// Computes `base^exp (mod m)` by square-and-multiply. Requires
/// `base < m < 2^127`. For a base that is raised more than once, build
/// a [`WindowTable`].
pub const fn modpow(mut base: u128, mut exp: u128, m: u128) -> u128 {
    debug_assert!(m > 1 && base < m);
    let mut acc: u128 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Modular inverse via Fermat's little theorem: `a^(m-2) mod m`.
/// Requires `m` prime and `a != 0 (mod m)`.
pub const fn invmod(a: u128, m: u128) -> u128 {
    debug_assert!(!a.is_multiple_of(m), "zero has no inverse");
    modpow(a % m, m - 2, m)
}

/// Bits per exponent window.
const WINDOW: u32 = 4;

/// Precomputed powers of one base modulo `m`, for 4-bit windowed
/// exponentiation: row `r` holds `base^(j · 2^(r · 128/ROWS))` for
/// `j = 0..16`.
///
/// Raising to `k` walks the `128 / ROWS / 4` window positions from the
/// top; at each it raises the accumulator to the 16th and multiplies
/// in one entry per row, so all rows share the squarings (Straus's
/// interleaving, applied to the `ROWS` slices of one exponent). That
/// is 32 multiplies and `128 / ROWS − 4` squarings whatever `ROWS`
/// is, for `256 · ROWS` bytes of table:
///
/// | `ROWS` | bytes | squarings | built in | |
/// |---|---|---|---|---|
/// | 1 | 256 | 124 | 15 multiplies | |
/// | 4 | 1 024 | 28 | 156 | sized for a registered key; not in use yet |
/// | 32 | 8 192 | 0 | 604, at compile time | the generator |
#[derive(Clone)]
pub struct WindowTable<const ROWS: usize> {
    modulus: u128,
    rows: [[u128; 1 << WINDOW]; ROWS],
}

impl<const ROWS: usize> WindowTable<ROWS> {
    /// Exponent bits covered by one row.
    const STRIDE: u32 = {
        assert!(ROWS > 0 && (128 / WINDOW as usize).is_multiple_of(ROWS));
        128 / ROWS as u32
    };

    /// Builds the table for `base < m < 2^127`.
    pub const fn new(mut base: u128, m: u128) -> Self {
        debug_assert!(base < m);
        let mut rows = [[1; 1 << WINDOW]; ROWS];
        let mut r = 0;
        while r < ROWS {
            let mut j = 1;
            while j < 1 << WINDOW {
                rows[r][j] = mulmod(rows[r][j - 1], base, m);
                j += 1;
            }
            r += 1;
            if r < ROWS {
                // The next row's base is this one raised to 2^STRIDE.
                let mut s = 0;
                while s < Self::STRIDE {
                    base = mulmod(base, base, m);
                    s += 1;
                }
            }
        }
        WindowTable { modulus: m, rows }
    }

    /// `base^k (mod m)` for any `k`.
    pub fn pow(&self, k: u128) -> u128 {
        let m = self.modulus;
        let digit = |row: usize, pos: u32| {
            self.rows[row][(k >> (row as u32 * Self::STRIDE + pos)) as usize & 0xf]
        };
        let top = Self::STRIDE - WINDOW;
        let mut acc = digit(0, top);
        for row in 1..ROWS {
            acc = mulmod(acc, digit(row, top), m);
        }
        for pos in (0..top).step_by(WINDOW as usize).rev() {
            for _ in 0..WINDOW {
                acc = mulmod(acc, acc, m);
            }
            for row in 0..ROWS {
                acc = mulmod(acc, digit(row, pos), m);
            }
        }
        acc
    }
}

/// SplitMix64 for this crate's unit tests (`tests/prop.rs` has its own
/// copy: integration tests cannot see this one).
#[cfg(test)]
pub(crate) mod testing {
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn u128(&mut self) -> u128 {
            ((self.next() as u128) << 64) | self.next() as u128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Rng;
    use super::*;

    /// The multiply that is to replace the ladder (see the module
    /// docs): schoolbook 128×128→256, then reduction by the moduli's
    /// shape. No division, no Montgomery domain to convert into and out
    /// of. Held equal to [`mulmod`] by the tests below until it ships.
    mod wide {
        /// Full 256-bit product of two `u128`s as `(high, low)`.
        pub const fn mul_wide(a: u128, b: u128) -> (u128, u128) {
            const LIMB: u128 = u64::MAX as u128;
            let (a0, a1) = (a & LIMB, a >> 64);
            let (b0, b1) = (b & LIMB, b >> 64);
            let (ll, lh, hl, hh) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
            // Three 64-bit values: cannot overflow.
            let mid = (ll >> 64) + (lh & LIMB) + (hl & LIMB);
            ((hh + (lh >> 64) + (hl >> 64) + (mid >> 64)), (ll & LIMB) | (mid << 64))
        }

        /// `hi·2^128 + lo (mod 2^BITS + C)`, for a value below
        /// `2^(2·BITS + 2)` — any product of two values below
        /// `2^(BITS + 1)` — with `64 <= BITS <= 126` and `C < 2^32`.
        pub const fn reduce_wide<const BITS: u32, const C: u128>(hi: u128, lo: u128) -> u128 {
            let (low_mask, modulus) = ((1 << BITS) - 1, (1 << BITS) + C);
            assert!(hi >> (2 * BITS - 126) == 0);
            // value = h0·2^BITS + l0 ≡ l0 − C·h0, with h0 < 2^(BITS + 2).
            let l0 = lo & low_mask;
            let h0 = (hi << (128 - BITS)) | (lo >> BITS);
            // C·h0 = h1·2^BITS + l1 ≡ l1 − C·h1, with h1 < 4·C.
            let (c_h0_hi, c_h0_lo) = mul_wide(h0, C);
            let l1 = c_h0_lo & low_mask;
            let h1 = (c_h0_hi << (128 - BITS)) | (c_h0_lo >> BITS);
            // value ≡ l0 + C·h1 − l1, which lies in (−2^BITS, m + 4·C²).
            let t = l0 + C * h1;
            if t < l1 {
                t + modulus - l1
            } else if t - l1 >= modulus {
                t - l1 - modulus
            } else {
                t - l1
            }
        }

        /// `a · b (mod 2^BITS + C)` for reduced `a`, `b`.
        pub const fn mul<const BITS: u32, const C: u128>(a: u128, b: u128) -> u128 {
            let (hi, lo) = mul_wide(a, b);
            reduce_wide::<BITS, C>(hi, lo)
        }
    }

    const P: u128 = 0x4000_0000_0000_0000_0000_0000_0000_0337; // 127-bit safe prime

    #[test]
    fn addmod_wraps() {
        assert_eq!(addmod(P - 1, 1, P), 0);
        assert_eq!(addmod(P - 1, 2, P), 1);
        assert_eq!(addmod(0, 0, P), 0);
    }

    #[test]
    fn submod_wraps() {
        assert_eq!(submod(0, 1, P), P - 1);
        assert_eq!(submod(5, 3, P), 2);
    }

    #[test]
    fn mulmod_small_cases() {
        assert_eq!(mulmod(7, 6, 41), 1);
        assert_eq!(mulmod(0, 12345, P), 0);
        assert_eq!(mulmod(1, 12345, P), 12345);
    }

    #[test]
    fn mulmod_large_operands() {
        // (P-1)^2 mod P == 1 since P-1 ≡ -1.
        assert_eq!(mulmod(P - 1, P - 1, P), 1);
        // (P-1) * 2 mod P == P - 2.
        assert_eq!(mulmod(P - 1, 2, P), P - 2);
    }

    #[test]
    fn modpow_matches_naive() {
        let m = 1_000_003u128;
        for base in [2u128, 3, 65537] {
            let mut naive = 1u128;
            for e in 0..20u128 {
                assert_eq!(modpow(base, e, m), naive, "base {base} exp {e}");
                naive = naive * base % m;
            }
        }
    }

    #[test]
    fn fermat_holds_in_group() {
        // a^(P-1) == 1 mod P for P prime.
        for a in [2u128, 3, 0x1234_5678_9abc_def0] {
            assert_eq!(modpow(a, P - 1, P), 1);
        }
    }

    #[test]
    fn invmod_is_inverse() {
        for a in [2u128, 999, 0xdead_beef, P - 2] {
            let inv = invmod(a, P);
            assert_eq!(mulmod(a, inv, P), 1);
        }
    }

    const Q: u128 = 0x2000_0000_0000_0000_0000_0000_0000_019b;

    /// Operands where a carry, a fold or the final correction changes
    /// behaviour; the last three are not reduced for either modulus.
    fn edge_operands(m: u128) -> [u128; 10] {
        [0, 1, 2, m - 1, m - 2, 1 << 125, 1 << 126, m, (1 << 127) - 1, u128::MAX]
    }

    /// The wide multiply against the ladder for the modulus
    /// `2^BITS + C`: the edge set squared, then `pairs` random pairs.
    fn wide_matches_ladder<const BITS: u32, const C: u128>(pairs: u32) {
        let m = (1 << BITS) + C;
        let check = |a: u128, b: u128| {
            let (ra, rb) = (wide::reduce_wide::<BITS, C>(0, a), wide::reduce_wide::<BITS, C>(0, b));
            assert_eq!((ra, rb), (a % m, b % m), "reduce {a:#x} / {b:#x}");
            assert_eq!(wide::mul::<BITS, C>(ra, rb), mulmod(a, b, m), "{a:#x} * {b:#x}");
        };
        for a in edge_operands(m) {
            for b in edge_operands(m) {
                check(a, b);
            }
        }
        let mut rng = Rng(0x00C0_FFEE ^ m as u64);
        for i in 0..pairs {
            // Mostly full-width (unreduced) operands; every fourth pair
            // short ones, where the high folds see zeros.
            let (a, b) = (rng.u128(), rng.u128());
            let shift = if i % 4 == 3 { rng.next() % 128 } else { 0 };
            check(a >> shift, b >> (rng.next() % 2 * shift));
        }
    }

    #[test]
    fn wide_multiply_matches_ladder_mod_p() {
        wide_matches_ladder::<126, 0x337>(100_000);
    }

    #[test]
    fn wide_multiply_matches_ladder_mod_q() {
        wide_matches_ladder::<125, 0x19b>(100_000);
    }

    /// Random products almost never leave `reduce_wide` a value at or
    /// above the modulus after its folds (it takes `l1 < 4·C²`); these
    /// inputs are built to, and sit either side of that correction.
    fn final_subtraction_is_exercised<const BITS: u32, const C: u128>() {
        let m = (1 << BITS) + C;
        let two_128 = mulmod(1 << 64, 1 << 64, m);
        let mut corrected = 0;
        for h1 in [2, 3, C, 4 * C - 1] {
            // The least h0 with C·h0 >= h1·2^BITS: then l1 < C.
            let h0 = (h1 << BITS).div_ceil(C);
            let l1 = C * h0 - (h1 << BITS);
            // The fold leaves l0 + C·h1 − l1, which reaches m at:
            let threshold = m + l1 - C * h1;
            for l0 in [threshold - 1, threshold, threshold + 1, (1 << BITS) - 1] {
                assert!(l0 >> BITS == 0);
                let (hi, lo) = (h0 >> (128 - BITS), (h0 << BITS) | l0);
                let want = addmod(mulmod(hi, two_128, m), lo % m, m);
                assert_eq!(wide::reduce_wide::<BITS, C>(hi, lo), want, "{hi:#x} {lo:#x}");
                corrected += u32::from(l0 >= threshold);
            }
        }
        assert_eq!(corrected, 12);
    }

    #[test]
    fn reduce_wide_final_subtraction() {
        final_subtraction_is_exercised::<126, 0x337>();
        final_subtraction_is_exercised::<125, 0x19b>();
    }

    #[test]
    fn mul_wide_matches_schoolbook_identities() {
        use wide::mul_wide;
        assert_eq!(mul_wide(0, u128::MAX), (0, 0));
        assert_eq!(mul_wide(1, u128::MAX), (0, u128::MAX));
        // (2^128 − 1)^2 = 2^256 − 2^129 + 1.
        assert_eq!(mul_wide(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(mul_wide(1 << 127, 2), (1, 0));
        let mut rng = Rng(7);
        for _ in 0..10_000 {
            // Against the identity (a·2^64 + b)·c = a·c·2^64 + b·c on
            // operands small enough for native arithmetic.
            let (a, b, c) = (rng.next() as u128, rng.next() as u128, rng.next() as u128);
            let (hi, lo) = mul_wide((a << 64) | b, c);
            let (ac, bc) = (a * c, b * c);
            let (want_lo, carry) = bc.overflowing_add(ac << 64);
            assert_eq!((hi, lo), ((ac >> 64) + carry as u128, want_lo));
        }
    }

    /// Every table shape agrees with plain square-and-multiply, for
    /// both moduli.
    fn window_table_matches_modpow<const ROWS: usize>(bases: &[u128], m: u128) {
        let mut rng = Rng(ROWS as u64);
        for &base in bases {
            let table = WindowTable::<ROWS>::new(base % m, m);
            for k in [0, 1, 2, 15, 16, Q - 1, Q, P - 1, u128::MAX] {
                assert_eq!(table.pow(k), modpow(base % m, k, m), "{base:#x} ^ {k:#x}, {ROWS} rows");
            }
            for _ in 0..100 {
                let k = rng.u128() >> (rng.next() % 128);
                assert_eq!(table.pow(k), modpow(base % m, k, m), "{base:#x} ^ {k:#x}, {ROWS} rows");
            }
        }
    }

    #[test]
    fn window_tables_match_plain_modpow() {
        let mut rng = Rng(99);
        let mut bases = vec![0, 1, 2, 4, P - 1, P - 2];
        bases.extend((0..4).map(|_| rng.u128() % P));
        for m in [P, Q] {
            window_table_matches_modpow::<1>(&bases, m);
            window_table_matches_modpow::<2>(&bases, m);
            window_table_matches_modpow::<4>(&bases, m);
            window_table_matches_modpow::<32>(&bases, m);
        }
    }
}
