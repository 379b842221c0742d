//! Arithmetic modulo the Ed25519 group order
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Scalars are canonical residues in `[0, ℓ)`, four little-endian `u64`
//! limbs. Every signature reduces two SHA-512 outputs and multiplies two
//! scalars, and every verification reduces one, so wide values are
//! reduced without division: with `c = ℓ − 2^252` (125 bits),
//! `2^252 ≡ −c (mod ℓ)`, hence `lo + 2^252·hi ≡ lo − c·hi`. Folding the
//! part above bit 252 this way shrinks a 512-bit input to 385, 258 and
//! 131 bits, and the low parts — each below `2^252 < ℓ`, so already
//! canonical — are combined with alternating sign. The generic
//! long division in [`crate::bigint`] is the oracle the tests compare
//! against, not something this module calls.

use crate::bigint::U256;
use crate::limbs::{add4, ge4, load_le, mul4, sub4};
use std::fmt;

/// `ℓ`: the low 125 bits `27742317777372353535851937790883648493 =
/// 0x14DEF9DEA2F79CD6_5812631A5CF5D3ED`, plus `2^252`.
const L: [u64; 4] = [0x5812_631A_5CF5_D3ED, 0x14DE_F9DE_A2F7_9CD6, 0, 1 << 60];

/// The group order `ℓ`.
pub fn order() -> U256 {
    U256(L)
}

/// A scalar modulo `ℓ`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// The scalar zero.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Reduces 32 little-endian bytes modulo `ℓ`.
    pub fn from_le_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_wide_bytes(&wide)
    }

    /// Parses 32 little-endian bytes, rejecting non-canonical values
    /// (`≥ ℓ`), as RFC 8032 verification requires for `S`.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let value = U256::from_le_bytes(bytes);
        (value < order()).then_some(Scalar(value.0))
    }

    /// Reduces 64 little-endian bytes (a SHA-512 output) modulo `ℓ`.
    pub fn from_wide_bytes(bytes: &[u8; 64]) -> Scalar {
        reduce_wide(load_le(bytes))
    }

    /// The "clamped" secret scalar of RFC 8032 §5.1.5: clears the low 3
    /// bits, clears bit 255, sets bit 254.
    ///
    /// Note: the clamped value is used *as an integer* in scalar
    /// multiplication, not reduced mod ℓ first; it is below 2^255 and the
    /// multiplication routine accepts the full range.
    pub fn clamp_integer(mut bytes: [u8; 32]) -> U256 {
        bytes[0] &= 0b1111_1000;
        bytes[31] &= 0b0111_1111;
        bytes[31] |= 0b0100_0000;
        U256::from_le_bytes(&bytes)
    }

    /// Canonical 32-byte little-endian encoding.
    pub fn to_le_bytes(self) -> [u8; 32] {
        U256(self.0).to_le_bytes()
    }

    /// The canonical residue as a 256-bit integer.
    pub fn to_u256(self) -> U256 {
        U256(self.0)
    }

    /// Whether the scalar is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    /// Scalar addition mod ℓ.
    pub fn add(self, rhs: Scalar) -> Scalar {
        // Both operands are below ℓ < 2^253: no carry, one subtraction.
        let (sum, _) = add4(&self.0, &rhs.0);
        if ge4(&sum, &L) {
            Scalar(sub4(&sum, &L).0)
        } else {
            Scalar(sum)
        }
    }

    /// Scalar subtraction mod ℓ.
    pub fn sub(self, rhs: Scalar) -> Scalar {
        let (diff, borrow) = sub4(&self.0, &rhs.0);
        if borrow {
            Scalar(add4(&diff, &L).0)
        } else {
            Scalar(diff)
        }
    }

    /// Scalar multiplication mod ℓ.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        reduce_wide(mul4(&self.0, &rhs.0))
    }

    /// Scalar negation mod ℓ.
    pub fn neg(self) -> Scalar {
        Scalar::ZERO.sub(self)
    }
}

/// Reduces a 512-bit integer modulo `ℓ` by folding at bit 252 (see the
/// module header): at most four rounds, each one multiplication by the
/// two-limb constant `c`.
fn reduce_wide(wide: [u64; 8]) -> Scalar {
    let mut acc = Scalar(low_252(&wide));
    let mut rest = wide;
    let mut subtract = true;
    loop {
        let high = shr_252(&rest);
        if high == [0; 8] {
            return acc;
        }
        rest = mul_c(&high);
        let term = Scalar(low_252(&rest));
        acc = if subtract {
            acc.sub(term)
        } else {
            acc.add(term)
        };
        subtract = !subtract;
    }
}

/// The low 252 bits of `x`.
fn low_252(x: &[u64; 8]) -> [u64; 4] {
    [x[0], x[1], x[2], x[3] & ((1 << 60) - 1)]
}

/// `x >> 252`.
fn shr_252(x: &[u64; 8]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..5 {
        out[i] = x[i + 3] >> 60;
        if i + 4 < 8 {
            out[i] |= x[i + 4] << 4;
        }
    }
    out
}

/// `x · c` for `c = ℓ − 2^252`; `x` is a shifted-down high part (below
/// 2^260), so the product stays below 2^385 and fits.
fn mul_c(x: &[u64; 8]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for (j, &c) in L[..2].iter().enumerate() {
        let mut carry = 0u64;
        for i in 0..(8 - j) {
            let acc = out[i + j] as u128 + (x[i] as u128) * (c as u128) + carry as u128;
            out[i + j] = acc as u64;
            carry = (acc >> 64) as u64;
        }
        debug_assert_eq!(carry, 0, "high part above 2^260");
    }
    out
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({:?})", self.to_u256())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_magnitude() {
        // ℓ is a 253-bit number starting with 2^252.
        assert_eq!(order().bits(), 253);
        assert!(order().bit(252));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), Scalar::ZERO);
    }

    #[test]
    fn mul_identity_and_zero() {
        let a = Scalar::from_u64(424242);
        assert_eq!(a.mul(Scalar::ONE), a);
        assert_eq!(a.mul(Scalar::ZERO), Scalar::ZERO);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_u64(0xDEAD_BEEF);
        let b = Scalar::from_u64(0xCAFE_BABE);
        let c = Scalar::from_u64(0x1234_5678);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn neg_adds_to_zero() {
        let a = Scalar::from_u64(777);
        assert_eq!(a.add(a.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_consistent_with_narrow() {
        // A 64-byte input whose high half is zero reduces like the low half.
        let mut wide = [0u8; 64];
        let mut narrow = [0u8; 32];
        for i in 0..32 {
            wide[i] = i as u8;
            narrow[i] = i as u8;
        }
        assert_eq!(
            Scalar::from_wide_bytes(&wide),
            Scalar::from_le_bytes_reduced(&narrow)
        );
    }

    #[test]
    fn wide_reduction_of_order_is_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&order().to_le_bytes());
        assert_eq!(Scalar::from_wide_bytes(&wide), Scalar::ZERO);
    }

    #[test]
    fn canonical_bytes_reject_order() {
        assert!(Scalar::from_canonical_bytes(&order().to_le_bytes()).is_none());
        let (below, _) = order().overflowing_sub(U256::ONE);
        assert!(Scalar::from_canonical_bytes(&below.to_le_bytes()).is_some());
        assert!(Scalar::from_canonical_bytes(&[0u8; 32]).is_some());
    }

    #[test]
    fn clamping_sets_expected_bits() {
        let clamped = Scalar::clamp_integer([0xFFu8; 32]);
        assert!(!clamped.bit(0));
        assert!(!clamped.bit(1));
        assert!(!clamped.bit(2));
        assert!(clamped.bit(254));
        assert!(!clamped.bit(255));

        let clamped_zero = Scalar::clamp_integer([0u8; 32]);
        assert!(clamped_zero.bit(254));
        assert_eq!(clamped_zero.bits(), 255);
    }

    #[test]
    fn encoding_roundtrip() {
        let a = Scalar::from_u64(0xABCD_EF01_2345_6789);
        assert_eq!(Scalar::from_canonical_bytes(&a.to_le_bytes()), Some(a));
    }

    #[test]
    fn fermat_inverse_via_pow_chain() {
        // ℓ is prime: a^(ℓ-1) ≡ 1 (mod ℓ). Exercise via repeated squaring
        // on the Scalar API (multiply accumulator).
        let a = Scalar::from_u64(3);
        let (exp, _) = order().overflowing_sub(U256::ONE);
        let mut result = Scalar::ONE;
        let mut base = a;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul(base);
            }
            base = base.mul(base);
        }
        assert_eq!(result, Scalar::ONE);
    }

    fn wide_bytes(limbs: [u64; 8]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Every rewritten kernel against the long-division oracle.
    fn check_against_oracle(wide: [u64; 8]) {
        use crate::bigint::U512;
        let l = order();
        let want = U512(wide).rem(l);
        assert_eq!(
            Scalar::from_wide_bytes(&wide_bytes(wide)).to_u256(),
            want,
            "from_wide_bytes {wide:?}"
        );
        let a = U256([wide[0], wide[1], wide[2], wide[3]]);
        let b = U256([wide[4], wide[5], wide[6], wide[7]]);
        let sa = Scalar::from_le_bytes_reduced(&a.to_le_bytes());
        let sb = Scalar::from_le_bytes_reduced(&b.to_le_bytes());
        let (ra, rb) = (a.rem(l), b.rem(l));
        assert_eq!(sa.to_u256(), ra, "from_le_bytes_reduced {a:?}");
        assert_eq!(sa.mul(sb).to_u256(), ra.mul_mod(rb, l), "mul {a:?} {b:?}");
        assert_eq!(sa.add(sb).to_u256(), ra.add_mod(rb, l), "add {a:?} {b:?}");
        assert_eq!(sa.sub(sb).to_u256(), ra.sub_mod(rb, l), "sub {a:?} {b:?}");
        assert_eq!(sa.neg().to_u256(), U256::ZERO.sub_mod(ra, l), "neg {a:?}");
    }

    #[test]
    fn kernels_match_oracle_on_edge_inputs() {
        let l = order();
        let halves = [
            U256::ZERO,
            U256::ONE,
            l.overflowing_sub(U256::ONE).0,
            l,
            l.overflowing_add(U256::ONE).0,
            U256([0, 0, 0, 1 << 60]), // 2^252
            U256([u64::MAX; 4]),
        ];
        for lo in halves {
            for hi in halves {
                let mut wide = [0u64; 8];
                wide[..4].copy_from_slice(&lo.0);
                wide[4..].copy_from_slice(&hi.0);
                check_against_oracle(wide);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_oracle(
            lo in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            hi in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            let mut wide = [0u64; 8];
            wide[..4].copy_from_slice(&lo);
            wide[4..].copy_from_slice(&hi);
            check_against_oracle(wide);
        }
    }
}
