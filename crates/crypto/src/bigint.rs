//! Minimal fixed-width big-integer arithmetic: the crate's test-only
//! oracle.
//!
//! [`U256`] and [`U512`] are the *reference implementation* against which
//! the field and scalar kernels are property-tested, the integers the
//! tests multiply points by when a value may exceed `ℓ`, and the means
//! of re-deriving the SHA-2 constant tables from first principles
//! (integer cube/square roots of the first primes).
//!
//! The implementation favours obviousness over speed: schoolbook
//! multiplication and binary long division (256–512 shift-and-subtract
//! rounds per `rem`). The module is compiled only under `cfg(test)`, so
//! a release build proves that nothing on the sign / verify path calls
//! it; the counter in [`U512::rem`] and the
//! `sign_and_verify_paths_never_divide` test hold the same line for the
//! test build.

use std::cmp::Ordering;
use std::fmt;

thread_local! {
    /// Long divisions ([`U256::rem`] / [`U512::rem`]) run on this thread.
    pub(crate) static LONG_DIVISIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A 256-bit unsigned integer, little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer, little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U512(pub [u64; 8]);

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U256(0x{:016x}{:016x}{:016x}{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(0x")?;
        for limb in self.0.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0; 4]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> U256 {
        U256([v, 0, 0, 0])
    }

    /// Parses from 32 little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serialises to 32 little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Position of the highest set bit plus one; 0 for zero.
    pub fn bits(&self) -> usize {
        for (i, limb) in self.0.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition with carry-out.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Wrapping subtraction with borrow-out.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Addition that panics on overflow (used where overflow is impossible).
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        let (sum, overflow) = self.overflowing_add(rhs);
        (!overflow).then_some(sum)
    }

    /// Full 256×256 → 512-bit multiplication.
    pub fn widening_mul(self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            let mut k = i + 4;
            while carry != 0 {
                let acc = out[k] as u128 + carry;
                out[k] = acc as u64;
                carry = acc >> 64;
                k += 1;
            }
        }
        U512(out)
    }

    /// `self mod m` (binary long division).
    ///
    /// # Panics
    ///
    /// Panics when `m` is zero.
    pub fn rem(self, m: U256) -> U256 {
        U512::from_u256(self).rem(m)
    }

    /// Modular addition `(self + rhs) mod m`, assuming both inputs are
    /// already reduced.
    pub fn add_mod(self, rhs: U256, m: U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, overflow) = self.overflowing_add(rhs);
        if overflow || sum >= m {
            // A single subtraction suffices since inputs are reduced; when
            // the addition overflowed, the subtraction's borrow cancels the
            // carry out of bit 255.
            sum.overflowing_sub(m).0
        } else {
            sum
        }
    }

    /// Modular subtraction `(self - rhs) mod m`, assuming reduced inputs.
    pub fn sub_mod(self, rhs: U256, m: U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.overflowing_add(m).0
        } else {
            diff
        }
    }

    /// Modular multiplication `(self * rhs) mod m`.
    pub fn mul_mod(self, rhs: U256, m: U256) -> U256 {
        self.widening_mul(rhs).rem(m)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl U512 {
    /// The value zero.
    pub const ZERO: U512 = U512([0; 8]);

    /// Widens a 256-bit value.
    pub fn from_u256(v: U256) -> U512 {
        U512([v.0[0], v.0[1], v.0[2], v.0[3], 0, 0, 0, 0])
    }

    /// Parses from 64 little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8; 64]) -> U512 {
        let mut limbs = [0u64; 8];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(chunk);
        }
        U512(limbs)
    }

    /// Returns bit `i`.
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 512);
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Position of the highest set bit plus one; 0 for zero.
    pub fn bits(&self) -> usize {
        for (i, limb) in self.0.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// Truncates to the low 256 bits.
    pub fn low_u256(&self) -> U256 {
        U256([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// The high 256 bits.
    pub fn high_u256(&self) -> U256 {
        U256([self.0[4], self.0[5], self.0[6], self.0[7]])
    }

    /// Shifts left by one bit, dropping any carry out of bit 511.
    pub fn shl1(self) -> U512 {
        let mut out = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
        }
        U512(out)
    }

    /// `self mod m` via binary long division.
    ///
    /// # Panics
    ///
    /// Panics when `m` is zero.
    pub fn rem(self, m: U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        LONG_DIVISIONS.with(|count| count.set(count.get() + 1));
        let bits = self.bits();
        let mut remainder = U256::ZERO;
        for i in (0..bits).rev() {
            // remainder = remainder * 2 + bit_i; both fit because
            // remainder < m ≤ 2^256 - 1 and we subtract m when needed.
            let (mut shifted, overflow) = remainder.overflowing_add(remainder);
            let mut wrapped = overflow;
            if self.bit(i) {
                let (s, o) = shifted.overflowing_add(U256::ONE);
                shifted = s;
                wrapped |= o;
            }
            if wrapped || shifted >= m {
                shifted = shifted.overflowing_sub(m).0;
            }
            remainder = shifted;
        }
        remainder
    }
}

impl PartialOrd for U512 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U512 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..8).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// Integer square root: the largest `r` with `r² ≤ n`, for `n < 2^255`.
pub fn isqrt_u512(n: U512) -> U256 {
    let mut low = U256::ZERO;
    // Upper bound: 2^(ceil(bits/2)).
    let half_bits = n.bits().div_ceil(2);
    let mut high = U256::ZERO;
    if half_bits >= 256 {
        high = U256([u64::MAX; 4]);
    } else {
        high.0[half_bits / 64] = 1 << (half_bits % 64);
    }
    // Invariant: low² ≤ n < (high+1)²; binary search the boundary.
    while low < high {
        // mid = (low + high + 1) / 2
        let (sum, _) = low.overflowing_add(high);
        let (sum, _) = sum.overflowing_add(U256::ONE);
        let mut mid = U256::ZERO;
        let mut carry = 0u64;
        for i in (0..4).rev() {
            let v = (carry as u128) << 64 | sum.0[i] as u128;
            mid.0[i] = (v / 2) as u64;
            carry = (v % 2) as u64;
        }
        if mid.widening_mul(mid) <= n {
            low = mid;
        } else {
            high = mid.overflowing_sub(U256::ONE).0;
        }
    }
    low
}

/// Integer cube root: the largest `r` with `r³ ≤ n`, for `r < 2^85`.
pub fn icbrt_u512(n: U512) -> U256 {
    let third_bits = n.bits().div_ceil(3);
    assert!(third_bits < 85, "cube root argument too large");
    let mut low = U256::ZERO;
    let mut high = U256::ZERO;
    high.0[(third_bits + 1) / 64] = 1 << ((third_bits + 1) % 64);
    while low < high {
        let (sum, _) = low.overflowing_add(high);
        let (sum, _) = sum.overflowing_add(U256::ONE);
        let mut mid = U256::ZERO;
        let mut carry = 0u64;
        for i in (0..4).rev() {
            let v = (carry as u128) << 64 | sum.0[i] as u128;
            mid.0[i] = (v / 2) as u64;
            carry = (v % 2) as u64;
        }
        let square = mid.widening_mul(mid).low_u256();
        if square.widening_mul(mid) <= n {
            low = mid;
        } else {
            high = mid.overflowing_sub(U256::ONE).0;
        }
    }
    low
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u256(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = U256([u64::MAX, 1, 2, 3]);
        let b = U256([5, 6, 7, 8]);
        let (sum, overflow) = a.overflowing_add(b);
        assert!(!overflow);
        let (diff, borrow) = sum.overflowing_sub(b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn overflow_and_borrow_flags() {
        let max = U256([u64::MAX; 4]);
        let (_, overflow) = max.overflowing_add(U256::ONE);
        assert!(overflow);
        let (_, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert!(max.checked_add(U256::ONE).is_none());
        assert!(U256::ZERO.checked_add(U256::ONE).is_some());
    }

    #[test]
    fn comparison_is_numeric() {
        assert!(u256(1) < u256(2));
        assert!(U256([0, 1, 0, 0]) > U256([u64::MAX, 0, 0, 0]));
        assert_eq!(u256(7).cmp(&u256(7)), Ordering::Equal);
    }

    #[test]
    fn widening_mul_small_values() {
        let product = u256(0xFFFF_FFFF_FFFF_FFFF).widening_mul(u256(2));
        assert_eq!(product.0[0], 0xFFFF_FFFF_FFFF_FFFE);
        assert_eq!(product.0[1], 1);
        assert!(product.high_u256().is_zero());
    }

    #[test]
    fn widening_mul_max_values() {
        let max = U256([u64::MAX; 4]);
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let sq = max.widening_mul(max);
        assert_eq!(sq.0[0], 1);
        assert_eq!(sq.0[1], 0);
        assert_eq!(sq.0[4], u64::MAX - 1);
        assert_eq!(sq.0[7], u64::MAX);
    }

    #[test]
    fn rem_small_numbers() {
        assert_eq!(u256(17).rem(u256(5)), u256(2));
        assert_eq!(u256(15).rem(u256(5)), u256(0));
        assert_eq!(u256(3).rem(u256(5)), u256(3));
    }

    #[test]
    fn rem_wide_numbers() {
        // (2^256) mod (2^255 - 19) = 38
        let p = {
            let mut limbs = [u64::MAX; 4];
            limbs[3] = 0x7FFF_FFFF_FFFF_FFFF;
            let (p, _) = U256(limbs).overflowing_sub(u256(18));
            p
        };
        let two_256 = U512([0, 0, 0, 0, 1, 0, 0, 0]);
        assert_eq!(two_256.rem(p), u256(38));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn rem_by_zero_panics() {
        let _ = u256(1).rem(U256::ZERO);
    }

    #[test]
    fn modular_arithmetic() {
        let m = u256(97);
        assert_eq!(u256(50).add_mod(u256(60), m), u256(13));
        assert_eq!(u256(10).sub_mod(u256(20), m), u256(87));
        assert_eq!(u256(13).mul_mod(u256(15), m), u256(195 % 97));
    }

    #[test]
    fn add_mod_handles_carry_out() {
        // m close to 2^256 so the sum wraps around 2^256.
        let m = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        let a = m.overflowing_sub(u256(1)).0;
        let b = m.overflowing_sub(u256(2)).0;
        // (a + b) mod m = m - 3
        let expected = m.overflowing_sub(u256(3)).0;
        assert_eq!(a.add_mod(b, m), expected);
    }

    #[test]
    fn byte_roundtrip() {
        let v = U256([1, 2, 3, 0x8000_0000_0000_0000]);
        assert_eq!(U256::from_le_bytes(&v.to_le_bytes()), v);

        let mut wide_bytes = [0u8; 64];
        wide_bytes[0] = 0xAB;
        wide_bytes[63] = 0xCD;
        let w = U512::from_le_bytes(&wide_bytes);
        assert_eq!(w.0[0], 0xAB);
        assert_eq!(w.0[7], 0xCD << 56);
    }

    #[test]
    fn bit_access_and_bits() {
        let v = U256([0b1010, 0, 0, 1]);
        assert!(v.bit(1));
        assert!(!v.bit(0));
        assert!(v.bit(192));
        assert_eq!(v.bits(), 193);
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U512::from_u256(v).bits(), 193);
    }

    #[test]
    fn shl1_shifts() {
        let v = U512([1 << 63, 0, 0, 0, 0, 0, 0, 0]);
        let shifted = v.shl1();
        assert_eq!(shifted.0[0], 0);
        assert_eq!(shifted.0[1], 1);
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt_u512(U512::from_u256(u256(0))), u256(0));
        assert_eq!(isqrt_u512(U512::from_u256(u256(1))), u256(1));
        assert_eq!(isqrt_u512(U512::from_u256(u256(143))), u256(11));
        assert_eq!(isqrt_u512(U512::from_u256(u256(144))), u256(12));
        assert_eq!(isqrt_u512(U512::from_u256(u256(145))), u256(12));
        // sqrt(2^128) = 2^64
        let big = U512([0, 0, 1, 0, 0, 0, 0, 0]);
        assert_eq!(isqrt_u512(big), U256([0, 1, 0, 0]));
    }

    #[test]
    fn icbrt_exact_and_floor() {
        assert_eq!(icbrt_u512(U512::from_u256(u256(0))), u256(0));
        assert_eq!(icbrt_u512(U512::from_u256(u256(26))), u256(2));
        assert_eq!(icbrt_u512(U512::from_u256(u256(27))), u256(3));
        assert_eq!(icbrt_u512(U512::from_u256(u256(28))), u256(3));
        // cbrt(2^192) = 2^64
        let big = U512([0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(icbrt_u512(big), U256([0, 1, 0, 0]));
    }

    #[test]
    fn debug_formats_hex() {
        let v = u256(0xDEAD);
        assert!(format!("{v:?}").contains("dead"));
        let w = U512::from_u256(v);
        assert!(format!("{w:?}").contains("dead"));
    }

    fn any_u256() -> impl proptest::prelude::Strategy<Value = U256> {
        use proptest::prelude::*;
        prop::array::uniform4(any::<u64>()).prop_map(U256)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Subtraction undoes addition, with matching carry/borrow flags.
        #[test]
        fn bigint_add_sub_inverse(a in any_u256(), b in any_u256()) {
            let (sum, carry) = a.overflowing_add(b);
            let (diff, borrow) = sum.overflowing_sub(b);
            proptest::prop_assert_eq!(diff, a);
            proptest::prop_assert_eq!(carry, borrow);
        }

        /// `rem` is a true Euclidean remainder: below `m`, and when the
        /// quotient fits (`m` of at least 128 bits), `a = q·m + r` for
        /// the `q` an independent long division recovers.
        #[test]
        fn bigint_rem_is_smaller_and_congruent(a in any_u256(), m in any_u256()) {
            proptest::prop_assume!(!m.is_zero());
            let r = a.rem(m);
            proptest::prop_assert!(r < m);
            if m.bits() >= 128 {
                let mut q = U256::ZERO;
                let mut rem = U256::ZERO;
                for i in (0..256).rev() {
                    // rem = rem·2 + bit i of a
                    let mut next = rem.overflowing_add(rem).0;
                    if a.bit(i) {
                        next = next.overflowing_add(U256::ONE).0;
                    }
                    if next >= m {
                        next = next.overflowing_sub(m).0;
                        q.0[i / 64] |= 1 << (i % 64);
                    }
                    rem = next;
                }
                proptest::prop_assert_eq!(rem, r);
                let product = q.widening_mul(m);
                proptest::prop_assert_eq!(product.high_u256(), U256::ZERO);
                proptest::prop_assert_eq!(product.low_u256().overflowing_add(r).0, a);
            }
        }
    }
}
