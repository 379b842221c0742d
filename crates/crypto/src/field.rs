//! Arithmetic in the field GF(2^255 − 19) underlying Curve25519.
//!
//! Elements are four little-endian `u64` limbs kept *weakly reduced*:
//! any value below 2^256 is a valid representative, and every operation
//! returns one. Nothing here divides:
//!
//! * `mul`/`square` fold the high 256 bits of the 512-bit product back
//!   in with `2^256 ≡ 38 (mod p)`;
//! * `add` folds a carry out of bit 255 the same way, and `sub`/`neg`
//!   fold a *borrow*: `a − b + 2^256 ≡ a − b + 38`, so a wrapped
//!   difference is corrected by subtracting 38 (for `neg` this is the
//!   biased subtraction `2p − x`, extended to representatives above
//!   `2p`);
//! * the canonical residue (`equals`, `is_zero`, `is_odd`, encoding) is
//!   at most two conditional subtractions of `p`, because
//!   `2^256 = 2p + 38`;
//! * `invert` and the `(p−5)/8` power inside `sqrt_ratio` run the fixed
//!   addition chain of the reference implementations (254 squarings and
//!   11 multiplications each) instead of generic square-and-multiply.
//!
//! The implementation is **not constant-time** — this library is a research
//! reproduction of a PODC paper, not a production wallet — and is
//! property-tested against the generic big-integer reference of the
//! test-only `bigint` module, which it does not call.

use crate::limbs::{add4, add_small, ge4, load_le, mul4, square4, store_le, sub4};
use std::fmt;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy)]
pub struct FieldElement([u64; 4]);

/// `p = 2^255 − 19`.
const P: [u64; 4] = [
    0xFFFF_FFFF_FFFF_FFED,
    u64::MAX,
    u64::MAX,
    0x7FFF_FFFF_FFFF_FFFF,
];

/// `sqrt(−1) = 2^((p−1)/4) mod p`; a test re-derives it.
const SQRT_MINUS_ONE: FieldElement = FieldElement([
    0xC4EE_1B27_4A0E_A0B0,
    0x2F43_1806_AD2F_E478,
    0x2B4D_0099_3DFB_D7A7,
    0x2B83_2480_4FC1_DF0B,
]);

/// The prime modulus `p = 2^255 − 19`, for the oracle tests.
#[cfg(test)]
pub(crate) fn prime() -> crate::bigint::U256 {
    crate::bigint::U256(P)
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0; 4]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// Constructs from a small integer.
    pub const fn from_u64(v: u64) -> FieldElement {
        FieldElement([v, 0, 0, 0])
    }

    /// Constructs from four little-endian limbs (any value below 2^256
    /// is a valid representative).
    pub(crate) const fn from_limbs(limbs: [u64; 4]) -> FieldElement {
        FieldElement(limbs)
    }

    /// Constructs from 32 little-endian bytes, reducing modulo `p`.
    ///
    /// Point decompression masks the sign bit before calling this; general
    /// callers may pass any 256-bit value.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> FieldElement {
        FieldElement(FieldElement(load_le(bytes)).canonical())
    }

    /// Parses 32 little-endian bytes, rejecting non-canonical values
    /// (`≥ p`), as point decompression requires for `y`.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<FieldElement> {
        let limbs = load_le(bytes);
        (!ge4(&limbs, &P)).then_some(FieldElement(limbs))
    }

    /// Canonical 32-byte little-endian encoding (fully reduced).
    pub fn to_le_bytes(self) -> [u8; 32] {
        store_le(&self.canonical())
    }

    /// The canonical residue in `[0, p)`, for the oracle tests.
    #[cfg(test)]
    fn reduce(self) -> crate::bigint::U256 {
        crate::bigint::U256(self.canonical())
    }

    /// The limbs of the canonical residue: `2^256 = 2p + 38`, so two
    /// conditional subtractions of `p` reach `[0, p)`.
    fn canonical(self) -> [u64; 4] {
        let mut limbs = self.0;
        for _ in 0..2 {
            let (diff, borrow) = sub4(&limbs, &P);
            if borrow {
                break;
            }
            limbs = diff;
        }
        limbs
    }

    /// Whether the canonical residue is zero.
    pub fn is_zero(self) -> bool {
        self.canonical() == [0; 4]
    }

    /// The low bit of the canonical residue (the "sign" in EdDSA point
    /// compression).
    pub fn is_odd(self) -> bool {
        self.canonical()[0] & 1 == 1
    }

    /// Field addition.
    #[inline]
    pub fn add(self, rhs: FieldElement) -> FieldElement {
        // 2^256 ≡ 38 (mod p): fold the carry back in. The wrapped sum is
        // at most 2^256 − 2, so a second carry (rare) leaves a value
        // below 38 and a third cannot happen.
        let (sum, carry) = add4(&self.0, &rhs.0);
        let (folded, again) = add_small(&sum, 38 * carry as u64);
        if again {
            FieldElement(add_small(&folded, 38).0)
        } else {
            FieldElement(folded)
        }
    }

    /// Field negation.
    #[inline]
    pub fn neg(self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(self, rhs: FieldElement) -> FieldElement {
        // The wrapped difference is a − b + 2^256 ≡ a − b + 38: take the
        // 38 back out. A second borrow (rare) wraps to at least
        // 2^256 − 38, so a third cannot happen.
        let (diff, borrow) = sub4(&self.0, &rhs.0);
        let (folded, again) = sub4(&diff, &[38 * borrow as u64, 0, 0, 0]);
        if again {
            FieldElement(sub4(&folded, &[38, 0, 0, 0]).0)
        } else {
            FieldElement(folded)
        }
    }

    /// Field multiplication with `2^256 ≡ 38` folding.
    #[inline]
    pub fn mul(self, rhs: FieldElement) -> FieldElement {
        FieldElement(fold_512(&mul4(&self.0, &rhs.0)))
    }

    /// Field squaring (10 limb products instead of `mul`'s 16).
    #[inline]
    pub fn square(self) -> FieldElement {
        FieldElement(fold_512(&square4(&self.0)))
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn square_times(self, k: usize) -> FieldElement {
        let mut out = self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// Exponentiation by a 256-bit exponent: generic square-and-multiply,
    /// the reference the fixed addition chains are tested against.
    #[cfg(test)]
    fn pow(self, exponent: crate::bigint::U256) -> FieldElement {
        let mut result = FieldElement::ONE;
        let mut base = self;
        for i in 0..exponent.bits() {
            if exponent.bit(i) {
                result = result.mul(base);
            }
            base = base.square();
        }
        result
    }

    /// The shared prefix of the two fixed addition chains:
    /// `(self^(2^250 − 1), self^11)` in 249 squarings and 10
    /// multiplications.
    fn pow_2_250_minus_1(self) -> (FieldElement, FieldElement) {
        let x2 = self.square();
        let x9 = x2.square_times(2).mul(self);
        let x11 = x9.mul(x2);
        let e5 = x11.square().mul(x9); // 2^5 − 1
        let e10 = e5.square_times(5).mul(e5); // 2^10 − 1
        let e20 = e10.square_times(10).mul(e10);
        let e40 = e20.square_times(20).mul(e20);
        let e50 = e40.square_times(10).mul(e10);
        let e100 = e50.square_times(50).mul(e50);
        let e200 = e100.square_times(100).mul(e100);
        let e250 = e200.square_times(50).mul(e50);
        (e250, x11)
    }

    /// Multiplicative inverse via Fermat: `a^(p−2) = a^(2^255 − 21)`.
    ///
    /// Returns zero for zero (no inverse exists).
    pub fn invert(self) -> FieldElement {
        let (e250, x11) = self.pow_2_250_minus_1();
        e250.square_times(5).mul(x11)
    }

    /// `self^((p−5)/8) = self^(2^252 − 3)`.
    fn pow_p58(self) -> FieldElement {
        let (e250, _) = self.pow_2_250_minus_1();
        e250.square_times(2).mul(self)
    }

    /// `sqrt(u/v)` as used by Ed25519 point decompression
    /// (RFC 8032 §5.1.3).
    ///
    /// Returns `Some(x)` with `v·x² = u` when a square root exists
    /// (choosing an arbitrary sign), `None` otherwise.
    pub fn sqrt_ratio(u: FieldElement, v: FieldElement) -> Option<FieldElement> {
        // candidate = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let candidate = u.mul(v3).mul(u.mul(v7).pow_p58());
        let check = v.mul(candidate.square());
        if check.equals(u) {
            Some(candidate)
        } else if check.equals(u.neg()) {
            Some(candidate.mul(SQRT_MINUS_ONE))
        } else {
            None
        }
    }

    /// Canonical equality (compares fully-reduced residues).
    pub fn equals(self, rhs: FieldElement) -> bool {
        self.canonical() == rhs.canonical()
    }
}

/// Equality of field elements, not of representatives.
impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.equals(*other)
    }
}

impl Eq for FieldElement {}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [l0, l1, l2, l3] = self.canonical();
        write!(f, "Fe(0x{l3:016x}{l2:016x}{l1:016x}{l0:016x})")
    }
}

/// Folds a 512-bit product into a weakly-reduced 256-bit value using
/// `2^256 ≡ 38 (mod p)`.
#[inline(always)]
fn fold_512(product: &[u64; 8]) -> [u64; 4] {
    // low + 38·high, limb-wise; the carry out is at most 38.
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let acc = product[i] as u128 + (product[i + 4] as u128) * 38 + carry as u128;
        out[i] = acc as u64;
        carry = (acc >> 64) as u64;
    }
    // carry·2^256 ≡ carry·38 ≤ 1444; if adding that wraps, what is left
    // is below 1444 and one more 38 cannot wrap again.
    let (folded, again) = add_small(&out, carry * 38);
    if again {
        add_small(&folded, 38).0
    } else {
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::U256;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn prime_value() {
        // p = 2^255 - 19: check low and high limbs.
        let p = prime();
        assert_eq!(p.0[0], u64::MAX - 18);
        assert_eq!(p.0[3], 0x7FFF_FFFF_FFFF_FFFF);
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(12345);
        let b = fe(67890);
        assert!(a.add(b).sub(b).equals(a));
        assert!(a.sub(a).is_zero());
    }

    #[test]
    fn neg_of_zero_is_zero() {
        assert!(FieldElement::ZERO.neg().is_zero());
    }

    #[test]
    fn mul_matches_bigint_reference() {
        let values = [
            U256::from_u64(0),
            U256::from_u64(1),
            U256::from_u64(19),
            U256([u64::MAX, u64::MAX, u64::MAX, 0x7FFF_FFFF_FFFF_FFFF]),
            U256([0xDEAD_BEEF, 0xCAFE_BABE, 0x1234_5678, 0x0FED_CBA9]),
            prime().overflowing_sub(U256::ONE).0,
        ];
        for &x in &values {
            for &y in &values {
                let fast = FieldElement(x.0).mul(FieldElement(y.0)).reduce();
                let reference = x.rem(prime()).mul_mod(y.rem(prime()), prime());
                assert_eq!(fast, reference, "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn two_to_256_is_38() {
        // encode 2^255 - 19 + 38*? sanity: (2^128)^2 = 2^256 ≡ 38.
        let two128 = FieldElement([0, 0, 1, 0]);
        assert!(two128.square().equals(fe(38)));
    }

    #[test]
    fn invert_small_values() {
        for v in [1u64, 2, 3, 19, 121666, 0xFFFF_FFFF] {
            let x = fe(v);
            assert!(x.mul(x.invert()).equals(FieldElement::ONE), "v={v}");
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn pow_small_exponents() {
        assert!(fe(3).pow(U256::from_u64(4)).equals(fe(81)));
        assert!(fe(5).pow(U256::ZERO).equals(FieldElement::ONE));
        assert!(fe(5).pow(U256::ONE).equals(fe(5)));
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 for a ≠ 0.
        let exponent = prime().overflowing_sub(U256::ONE).0;
        assert!(fe(7).pow(exponent).equals(FieldElement::ONE));
    }

    #[test]
    fn sqrt_minus_one_is_derived_not_trusted() {
        // (p − 1)/4 = 2^253 − 5.
        let exponent = U256([u64::MAX - 4, u64::MAX, u64::MAX, 0x1FFF_FFFF_FFFF_FFFF]);
        assert!(fe(2).pow(exponent).equals(SQRT_MINUS_ONE));
        assert!(SQRT_MINUS_ONE.square().equals(FieldElement::ONE.neg()));
    }

    #[test]
    fn sqrt_ratio_finds_roots() {
        // 4/1 has root ±2.
        let root = FieldElement::sqrt_ratio(fe(4), FieldElement::ONE).expect("root");
        assert!(root.equals(fe(2)) || root.equals(fe(2).neg()));

        // 2/1: 2 is not a quadratic residue mod p (p ≡ 5 mod 8).
        assert!(FieldElement::sqrt_ratio(fe(2), FieldElement::ONE).is_none());

        // u/v with v ≠ 1: 8/2 = 4 has a root.
        let root = FieldElement::sqrt_ratio(fe(8), fe(2)).expect("root");
        assert!(fe(2).mul(root.square()).equals(fe(8)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let x = FieldElement([0xAAAA, 0xBBBB, 0xCCCC, 0xDDDD]);
        let bytes = x.to_le_bytes();
        let back = FieldElement::from_le_bytes(&bytes);
        assert!(x.equals(back));
    }

    #[test]
    fn decode_reduces_large_values() {
        // 2^255 - 1 ≡ 18 (mod p)
        let mut bytes = [0xFFu8; 32];
        bytes[31] = 0x7F;
        assert!(FieldElement::from_le_bytes(&bytes).equals(fe(18)));
    }

    #[test]
    fn parity_of_canonical_residue() {
        assert!(!fe(0).is_odd());
        assert!(fe(1).is_odd());
        assert!(!fe(2).is_odd());
        // -1 = p - 1, which is even.
        assert!(!FieldElement::ONE.neg().is_odd());
    }

    #[test]
    fn weak_reduction_stays_consistent() {
        // Repeated additions keep values weakly reduced but semantically
        // correct.
        let mut acc = FieldElement::ZERO;
        for _ in 0..1000 {
            acc = acc.add(FieldElement([u64::MAX; 4]));
        }
        let expected = U256([u64::MAX; 4])
            .rem(prime())
            .mul_mod(U256::from_u64(1000), prime());
        assert_eq!(acc.reduce(), expected);
    }

    /// Representatives at the edges of the weakly-reduced range
    /// `[0, 2^256)`: 0, 1, p−1, p, p+1, 2p−1, 2p, 2^256−1.
    fn edge_representatives() -> Vec<U256> {
        let p = prime();
        let two_p = p.overflowing_add(p).0;
        vec![
            U256::ZERO,
            U256::ONE,
            p.overflowing_sub(U256::ONE).0,
            p,
            p.overflowing_add(U256::ONE).0,
            two_p.overflowing_sub(U256::ONE).0,
            two_p,
            U256([u64::MAX; 4]),
        ]
    }

    /// Every rewritten kernel against the long-division oracle, on raw
    /// (unreduced) representatives.
    fn check_against_oracle(a: U256, b: U256) {
        let p = prime();
        let (ra, rb) = (a.rem(p), b.rem(p));
        let (fa, fb) = (FieldElement(a.0), FieldElement(b.0));
        assert_eq!(fa.reduce(), ra, "reduce {a:?}");
        assert_eq!(fa.is_zero(), ra.is_zero(), "is_zero {a:?}");
        assert_eq!(fa.is_odd(), ra.bit(0), "is_odd {a:?}");
        assert_eq!(fa.equals(fb), ra == rb, "equals {a:?} {b:?}");
        assert_eq!(fa == fb, ra == rb, "== {a:?} {b:?}");
        assert_eq!(FieldElement::from_le_bytes(&a.to_le_bytes()).0, ra.0);
        let canonical = FieldElement::from_canonical_bytes(&a.to_le_bytes());
        assert_eq!(
            canonical.map(|x| x.0),
            (a < p).then_some(a.0),
            "canonical {a:?}"
        );
        assert_eq!(fa.to_le_bytes(), ra.to_le_bytes());
        assert_eq!(fa.add(fb).reduce(), ra.add_mod(rb, p), "add {a:?} {b:?}");
        assert_eq!(fa.sub(fb).reduce(), ra.sub_mod(rb, p), "sub {a:?} {b:?}");
        assert_eq!(fa.neg().reduce(), U256::ZERO.sub_mod(ra, p), "neg {a:?}");
        assert_eq!(fa.mul(fb).reduce(), ra.mul_mod(rb, p), "mul {a:?} {b:?}");
        assert_eq!(fa.square().reduce(), ra.mul_mod(ra, p), "square {a:?}");
    }

    /// The fixed addition chains against generic square-and-multiply.
    fn check_chains(a: U256, b: U256) {
        let (fa, fb) = (FieldElement(a.0), FieldElement(b.0));
        let p_minus_2 = prime().overflowing_sub(U256::from_u64(2)).0;
        assert!(fa.invert().equals(fa.pow(p_minus_2)), "invert {a:?}");
        // (p − 5)/8 = 2^252 − 3.
        let p58 = U256([u64::MAX - 2, u64::MAX, u64::MAX, 0x0FFF_FFFF_FFFF_FFFF]);
        assert!(fa.pow_p58().equals(fa.pow(p58)), "pow_p58 {a:?}");
        // sqrt_ratio(a²·b, b) must find ±a; whatever it returns solves
        // v·x² = u.
        if !fb.is_zero() {
            let u = fa.square().mul(fb);
            let root = FieldElement::sqrt_ratio(u, fb).expect("a²·b / b is a square");
            assert!(root.equals(fa) || root.equals(fa.neg()), "sqrt_ratio {a:?}");
        }
        if let Some(root) = FieldElement::sqrt_ratio(fa, fb) {
            assert!(fb.mul(root.square()).equals(fa));
        }
    }

    #[test]
    fn kernels_match_oracle_on_edge_representatives() {
        for a in edge_representatives() {
            for b in edge_representatives() {
                check_against_oracle(a, b);
            }
        }
    }

    #[test]
    fn chains_match_generic_pow_on_edge_representatives() {
        let edges = edge_representatives();
        for (i, &a) in edges.iter().enumerate() {
            check_chains(a, edges[(i + 3) % edges.len()]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_oracle(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            b in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            check_against_oracle(U256(a), U256(b));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Field add matches the bigint reference.
        #[test]
        fn field_add_matches_reference(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            b in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            let (a, b) = (U256(a), U256(b));
            let fast = FieldElement::from_le_bytes(&a.to_le_bytes())
                .add(FieldElement::from_le_bytes(&b.to_le_bytes()))
                .reduce();
            let reference = a.rem(prime()).add_mod(b.rem(prime()), prime());
            proptest::prop_assert_eq!(fast, reference);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn chains_match_generic_pow(
            a in proptest::array::uniform4(proptest::prelude::any::<u64>()),
            b in proptest::array::uniform4(proptest::prelude::any::<u64>()),
        ) {
            check_chains(U256(a), U256(b));
        }
    }
}
