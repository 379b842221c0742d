//! The twisted Edwards curve edwards25519:
//! `-x² + y² = 1 + d·x²·y²` over GF(2^255 − 19),
//! with `d = -121665/121666`.
//!
//! Points use extended homogeneous coordinates `(X : Y : Z : T)` with
//! `x = X/Z`, `y = Y/Z`, `T = XY/Z` (Hisil–Wong–Carter–Dawson 2008), the
//! coordinate system of the EdDSA reference implementations. `d` and
//! `2d` sit in every addition, so they are compile-time constants (a
//! test re-derives both from the defining equation); the base point is
//! derived from `y = 4/5` at first use rather than transcribed.
//!
//! Scalar multiplication takes a [`Scalar`] and is variable time, which
//! is acceptable for a research reproduction: a generic point goes
//! through Straus's interleaved method over width-5 non-adjacent forms,
//! a long-lived point (the base point, a peer's public key) through a
//! precomputed [`CombTable`] of affine Niels entries — additions only,
//! seven field multiplications each.

use crate::field::FieldElement;
use crate::limbs::store_le;
use crate::scalar::Scalar;
use std::fmt;
use std::sync::OnceLock;

/// `d = -121665/121666 mod p`.
const D: FieldElement = FieldElement::from_limbs([
    0x75EB_4DCA_1359_78A3,
    0x0070_0A4D_4141_D8AB,
    0x8CC7_4079_7779_E898,
    0x5203_6CEE_2B6F_FE73,
]);

/// `2d mod p`, used by the addition formulas.
const D2: FieldElement = FieldElement::from_limbs([
    0xEBD6_9B94_26B2_F159,
    0x00E0_149A_8283_B156,
    0x198E_80F2_EEF3_D130,
    0x2406_D9DC_56DF_FCE7,
]);

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point `B` with `y = 4/5` and even `x`.
    pub fn basepoint() -> EdwardsPoint {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let y = FieldElement::from_u64(4).mul(FieldElement::from_u64(5).invert());
            let mut encoded = y.to_le_bytes();
            // Sign bit 0 selects the even-x root.
            encoded[31] &= 0x7F;
            EdwardsPoint::decompress(&encoded).expect("base point decompresses")
        })
    }

    /// Constructs from affine coordinates, checking the curve equation.
    pub fn from_affine(x: FieldElement, y: FieldElement) -> Option<EdwardsPoint> {
        let x2 = x.square();
        let y2 = y.square();
        let lhs = y2.sub(x2);
        let rhs = FieldElement::ONE.add(D.mul(x2).mul(y2));
        lhs.equals(rhs).then(|| EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(y),
        })
    }

    /// The affine coordinates `(x, y)`.
    pub fn to_affine(self) -> (FieldElement, FieldElement) {
        let z_inv = self.z.invert();
        (self.x.mul(z_inv), self.y.mul(z_inv))
    }

    /// Whether this is the neutral element.
    pub fn is_identity(self) -> bool {
        // x/z == 0 and y/z == 1  ⇔  x == 0 and y == z.
        self.x.is_zero() && self.y.equals(self.z)
    }

    /// Point equality (projective comparison, no inversion).
    pub fn equals(self, rhs: EdwardsPoint) -> bool {
        // x1/z1 == x2/z2 ⇔ x1·z2 == x2·z1, same for y.
        self.x.mul(rhs.z).equals(rhs.x.mul(self.z)) && self.y.mul(rhs.z).equals(rhs.y.mul(self.z))
    }

    /// Point addition (unified add-2008-hwcd-3 for `a = -1`).
    pub fn add(self, rhs: EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(self.x).mul(rhs.y.sub(rhs.x));
        let b = self.y.add(self.x).mul(rhs.y.add(rhs.x));
        let c = self.t.mul(D2).mul(rhs.t);
        let d = self.z.add(self.z).mul(rhs.z);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling (dbl-2008-hwcd for `a = -1`).
    pub fn double(self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let d = a.neg(); // a = -1 twist
        let e = self.x.add(self.y).square().sub(a).sub(b);
        let g = d.add(b);
        let f = g.sub(c);
        let h = d.sub(b);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Mixed addition with a precomputed affine point (`Z2 = 1`,
    /// madd-2008-hwcd-3): seven multiplications instead of `add`'s nine.
    fn add_niels(self, rhs: &AffineNiels) -> EdwardsPoint {
        let a = self.y.sub(self.x).mul(rhs.y_minus_x);
        let b = self.y.add(self.x).mul(rhs.y_plus_x);
        let c = self.t.mul(rhs.xy2d);
        let d = self.z.add(self.z);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point negation.
    pub fn neg(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication `[n]P`: the one-term case of the Straus
    /// multiplication (width-5 NAF, ~253 doublings and ~43 additions).
    pub fn mul(self, n: Scalar) -> EdwardsPoint {
        EdwardsPoint::vartime_multiscalar_mul(&[(*n.limbs(), self)])
    }

    /// Fixed-base scalar multiplication `[n]B` via the shared
    /// precomputed [`CombTable`] of the base point — roughly an order of
    /// magnitude faster than [`EdwardsPoint::mul`] on the base point
    /// (additions only, no doublings).
    pub fn mul_base(n: Scalar) -> EdwardsPoint {
        basepoint_table().mul(n)
    }

    /// Simultaneous multi-scalar multiplication `Σ [nᵢ]Pᵢ` by 256-bit
    /// integers given as little-endian limbs (Straus's interleaved method
    /// over width-5 non-adjacent forms): all terms share one doubling
    /// chain as long as the *largest* integer, and signed odd digits put
    /// an addition per term at only ~1 in 6 chain positions. The tests
    /// reach integers `≥ ℓ` through it.
    pub(crate) fn vartime_multiscalar_mul(terms: &[([u64; 4], EdwardsPoint)]) -> EdwardsPoint {
        let nafs: Vec<[i8; 257]> = terms.iter().map(|(n, _)| naf5(n)).collect();
        let top = nafs
            .iter()
            .flat_map(|naf| naf.iter().rposition(|&d| d != 0))
            .max();
        let Some(top) = top else {
            return EdwardsPoint::identity();
        };
        // Per-term tables of odd multiples [P, 3P, 5P, …, 15P].
        let tables: Vec<[EdwardsPoint; 8]> = terms.iter().map(|(_, p)| odd_table(*p)).collect();
        let mut acc = EdwardsPoint::identity();
        for i in (0..=top).rev() {
            if i != top {
                acc = acc.double();
            }
            for (table, naf) in tables.iter().zip(&nafs) {
                let digit = naf[i];
                if digit > 0 {
                    acc = acc.add(table[(digit as usize - 1) / 2]);
                } else if digit < 0 {
                    acc = acc.add(table[((-digit) as usize - 1) / 2].neg());
                }
            }
        }
        acc
    }

    /// Compressed 32-byte encoding: `y` with the sign of `x` in bit 255.
    pub fn compress(self) -> [u8; 32] {
        let (x, y) = self.to_affine();
        let mut out = y.to_le_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decodes a compressed point; `None` when the encoding is invalid
    /// (not on the curve, or `x = 0` with sign bit set).
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7F;
        // Reject non-canonical y (≥ p) to make encodings unique.
        let y = FieldElement::from_canonical_bytes(&y_bytes)?;
        // x² = (y² - 1) / (d·y² + 1)
        let y2 = y.square();
        let u = y2.sub(FieldElement::ONE);
        let v = D.mul(y2).add(FieldElement::ONE);
        let mut x = FieldElement::sqrt_ratio(u, v)?;
        if x.is_zero() && sign == 1 {
            return None; // -0 is not a valid encoding
        }
        if x.is_odd() != (sign == 1) {
            x = x.neg();
        }
        EdwardsPoint::from_affine(x, y)
    }
}

/// The odd-multiple table `[P, 3P, 5P, …, 15P]` of a point (for
/// width-5 NAF digits).
fn odd_table(point: EdwardsPoint) -> [EdwardsPoint; 8] {
    let double = point.double();
    let mut table = [point; 8];
    for i in 1..8 {
        table[i] = table[i - 1].add(double);
    }
    table
}

/// Width-5 non-adjacent form: signed odd digits in `[-15, 15]` with at
/// most one nonzero digit in any 5 consecutive positions, so on average
/// only 1 in 6 positions is nonzero. Index 256 absorbs a final carry.
fn naf5(n: &[u64; 4]) -> [i8; 257] {
    let limbs = [n[0], n[1], n[2], n[3], 0];
    let mut naf = [0i8; 257];
    let mut pos = 0usize;
    let mut carry = 0u64;
    while pos < 257 {
        let idx = pos / 64;
        let shift = pos % 64;
        let bit_buf = if shift <= 59 || idx == 4 {
            limbs.get(idx).copied().unwrap_or(0) >> shift
        } else {
            (limbs[idx] >> shift) | (limbs[idx + 1] << (64 - shift))
        };
        // An even window means bit `pos` of the remaining value is 0
        // (a pending carry stays pending, applied one position up).
        let window = carry + (bit_buf & 31);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < 16 {
            naf[pos] = window as i8;
            carry = 0;
        } else {
            naf[pos] = window as i8 - 32;
            carry = 1;
        }
        pos += 5;
    }
    naf
}

/// An affine point premultiplied for mixed addition (Niels form):
/// `(y + x, y − x, 2d·x·y)`, 96 bytes.
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl AffineNiels {
    /// The identity, `(1, 1, 0)`: filler for gathered entries.
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    /// The entry of the negated point `(−x, y)`.
    fn neg(self) -> AffineNiels {
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// Rows and nonzero digits per row of a [`CombTable`].
const COMB_ROWS: usize = 32;
const COMB_DIGITS: usize = 255;

/// A precomputed fixed-base multiplication table (Lim–Lee comb, radix
/// 256): row `i` holds `[j·256^i]P` for `j = 1..=255`, so `[n]P` is at
/// most 32 mixed additions and **zero doublings**. Build once per
/// long-lived point (the base point, a session's public keys). Entries
/// are stored normalized in `AffineNiels` form in one flat
/// allocation: 32 × 255 × 96 B = 765 KiB. Building costs ~8k point
/// additions and one field inversion per row (~3 ms), which a point
/// that verifies more than a handful of signatures amortizes
/// immediately.
///
/// A multiplication first copies the ≤ 32 entries the integer's bytes
/// select into a stack array, then adds them up. A process holds one
/// table per peer key besides the base point's, so in situ the entries
/// are mostly cold: loaded one at a time inside the addition chain,
/// each cache miss waits behind the running sum; gathered first, the
/// misses overlap. On a 4-node cluster signing with these tables (one
/// multiplication, two hashes and an inversion per signature), that
/// took a signature from ~22 to ~17 µs in situ.
#[derive(Clone, Debug)]
pub struct CombTable {
    /// Row-major: entry `row · 255 + (digit − 1)`.
    entries: Vec<AffineNiels>,
}

impl CombTable {
    /// Precomputes the table of `point` (~8k point additions, 765 KiB).
    pub fn new(point: EdwardsPoint) -> CombTable {
        let mut entries = Vec::with_capacity(COMB_ROWS * COMB_DIGITS);
        let mut base = point; // [256^i]P for the current row
        let mut row = Vec::with_capacity(COMB_DIGITS);
        for _ in 0..COMB_ROWS {
            // row = [base, 2·base, …, 255·base]
            row.clear();
            row.push(base);
            for j in 1..COMB_DIGITS {
                let prev: EdwardsPoint = row[j - 1];
                row.push(prev.add(base));
            }
            base = row[COMB_DIGITS - 1].add(base); // [256^(i+1)]P
            push_normalized(&row, &mut entries);
        }
        CombTable { entries }
    }

    /// Fixed-base multiplication `[n]P` (additions only).
    pub fn mul(&self, n: Scalar) -> EdwardsPoint {
        self.mul_limbs(n.limbs())
    }

    /// `[n]P` for any 256-bit integer `n` given as little-endian limbs:
    /// one mixed addition per nonzero byte, over the entries gathered
    /// first.
    pub(crate) fn mul_limbs(&self, n: &[u64; 4]) -> EdwardsPoint {
        let mut gathered = [AffineNiels::IDENTITY; COMB_ROWS];
        let len = self.gather(n, &mut gathered);
        sum_niels(&gathered[..len])
    }

    /// `[s]P − [k]Q`, with `self` the table of `P` and `other` that of
    /// `Q`: the entries of both gathered first, then one addition chain
    /// (the verification equation's two multiplications and their sum).
    pub(crate) fn mul_sub(&self, s: Scalar, other: &CombTable, k: Scalar) -> EdwardsPoint {
        let mut gathered = [AffineNiels::IDENTITY; 2 * COMB_ROWS];
        let split = self.gather(s.limbs(), &mut gathered);
        let len = split + other.gather(k.limbs(), &mut gathered[split..]);
        for entry in &mut gathered[split..len] {
            *entry = entry.neg();
        }
        sum_niels(&gathered[..len])
    }

    /// Copies the entries `n`'s nonzero bytes select, in row order, to
    /// the front of `out`, and answers how many there are. The loads
    /// depend on `n` alone, so their cache misses overlap.
    fn gather(&self, n: &[u64; 4], out: &mut [AffineNiels]) -> usize {
        let mut len = 0;
        for (row, byte) in store_le(n).into_iter().enumerate() {
            if byte != 0 {
                out[len] = self.entries[row * COMB_DIGITS + byte as usize - 1];
                len += 1;
            }
        }
        len
    }
}

/// The sum of `entries`, from the identity, one mixed addition each.
fn sum_niels(entries: &[AffineNiels]) -> EdwardsPoint {
    entries
        .iter()
        .fold(EdwardsPoint::identity(), |acc, entry| acc.add_niels(entry))
}

/// Appends `points` to `out` in affine Niels form, sharing one field
/// inversion across them (Montgomery's trick). `Z` is never zero: the
/// addition law is complete on this curve.
fn push_normalized(points: &[EdwardsPoint], out: &mut Vec<AffineNiels>) {
    // z_inv[i] starts as the prefix product z_0 · … · z_{i−1} …
    let mut z_inv = Vec::with_capacity(points.len());
    let mut product = FieldElement::ONE;
    for point in points {
        z_inv.push(product);
        product = product.mul(point.z);
    }
    // … and walking back, with `inverse` = 1 / (z_0 · … · z_i), becomes
    // 1 / z_i.
    let mut inverse = product.invert();
    for (slot, point) in z_inv.iter_mut().zip(points).rev() {
        *slot = inverse.mul(*slot);
        inverse = inverse.mul(point.z);
    }
    out.extend(points.iter().zip(z_inv).map(|(point, z_inv)| {
        let x = point.x.mul(z_inv);
        let y = point.y.mul(z_inv);
        AffineNiels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        }
    }));
}

/// The shared comb table of the standard base point.
pub fn basepoint_table() -> &'static CombTable {
    static TABLE: OnceLock<CombTable> = OnceLock::new();
    TABLE.get_or_init(|| CombTable::new(EdwardsPoint::basepoint()))
}

impl fmt::Debug for EdwardsPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EdwardsPoint({:02x?}…)", &self.compress()[..4])
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.equals(*other)
    }
}

impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::U256;
    use crate::scalar::order;
    use proptest::prelude::*;

    fn b() -> EdwardsPoint {
        EdwardsPoint::basepoint()
    }

    /// `[n]P` for an oracle integer, which may exceed `ℓ`.
    fn mul_int(point: EdwardsPoint, n: U256) -> EdwardsPoint {
        EdwardsPoint::vartime_multiscalar_mul(&[(n.0, point)])
    }

    /// `ℓ − 1`, the largest scalar.
    fn minus_one() -> Scalar {
        Scalar::ONE.neg()
    }

    #[test]
    fn curve_constants_are_derived_not_trusted() {
        let d = FieldElement::from_u64(121665)
            .neg()
            .mul(FieldElement::from_u64(121666).invert());
        assert!(D.equals(d));
        assert!(D2.equals(d.add(d)));
    }

    #[test]
    fn basepoint_is_on_curve() {
        let (x, y) = b().to_affine();
        assert!(EdwardsPoint::from_affine(x, y).is_some());
        // y = 4/5
        let expected_y = FieldElement::from_u64(4).mul(FieldElement::from_u64(5).invert());
        assert!(y.equals(expected_y));
        assert!(!x.is_odd());
    }

    #[test]
    fn identity_laws() {
        let id = EdwardsPoint::identity();
        assert!(id.is_identity());
        assert!(id.add(b()).equals(b()));
        assert!(b().add(id).equals(b()));
        assert!(id.double().is_identity());
    }

    #[test]
    fn add_matches_double() {
        assert!(b().add(b()).equals(b().double()));
        let p2 = b().double();
        assert!(p2.add(p2).equals(p2.double()));
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let p = b();
        let q = b().double();
        let r = q.double();
        assert!(p.add(q).equals(q.add(p)));
        assert!(p.add(q).add(r).equals(p.add(q.add(r))));
    }

    #[test]
    fn negation_cancels() {
        let p = b().double().add(b());
        assert!(p.add(p.neg()).is_identity());
    }

    #[test]
    fn scalar_multiplication_consistency() {
        // [5]B == B+B+B+B+B
        let five = b().mul(Scalar::from_u64(5));
        let sum = b().add(b()).add(b()).add(b()).add(b());
        assert!(five.equals(sum));
        // [0]P = identity, [1]P = P
        assert!(b().mul(Scalar::ZERO).is_identity());
        assert!(b().mul(Scalar::ONE).equals(b()));
    }

    #[test]
    fn scalar_multiplication_distributes() {
        // [a+b]B == [a]B + [b]B for small a, b.
        let a = Scalar::from_u64(123);
        let c = Scalar::from_u64(456);
        let lhs = b().mul(Scalar::from_u64(579));
        let rhs = b().mul(a).add(b().mul(c));
        assert!(lhs.equals(rhs));
    }

    #[test]
    fn basepoint_has_order_l() {
        // [ℓ]B = identity — the strongest validation of the whole group
        // arithmetic stack (field, formulas, constants).
        assert!(mul_int(b(), order()).is_identity());
        // [ℓ-1]B = -B
        assert!(b().mul(minus_one()).equals(b().neg()));
        let (lm1, _) = order().overflowing_sub(U256::ONE);
        assert!(mul_int(b(), lm1).equals(b().neg()));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = b();
        for _ in 0..8 {
            let encoded = p.compress();
            let decoded = EdwardsPoint::decompress(&encoded).expect("valid encoding");
            assert!(decoded.equals(p));
            p = p.add(b()).double();
        }
    }

    #[test]
    fn identity_compresses_to_y_one() {
        let encoded = EdwardsPoint::identity().compress();
        assert_eq!(encoded[0], 1);
        assert!(encoded[1..].iter().all(|&byte| byte == 0));
        let decoded = EdwardsPoint::decompress(&encoded).unwrap();
        assert!(decoded.is_identity());
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 gives x² = 3/(4d+1), not a square for this curve.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(EdwardsPoint::decompress(&bytes).is_none());

        // Non-canonical y ≥ p rejected.
        let mut big = [0xFFu8; 32];
        big[31] = 0x7F;
        assert!(EdwardsPoint::decompress(&big).is_none());

        // -0 encoding rejected: y=1 (identity has x=0) with sign bit set.
        let mut neg_zero = EdwardsPoint::identity().compress();
        neg_zero[31] |= 0x80;
        assert!(EdwardsPoint::decompress(&neg_zero).is_none());
    }

    #[test]
    fn multiscalar_matches_sum_of_muls() {
        let p = b();
        let q = b().double().add(b());
        let r = q.double();
        let (a, c, d) = (
            Scalar::from_u64(0xDEAD_BEEF_0042),
            Scalar::from_u64(7),
            Scalar::from_u64(0xFFFF_FFFF_FFFF_FFFF),
        );
        let batched = EdwardsPoint::vartime_multiscalar_mul(&[
            (*a.limbs(), p),
            (*c.limbs(), q),
            (*d.limbs(), r),
        ]);
        let serial = p.mul(a).add(q.mul(c)).add(r.mul(d));
        assert!(batched.equals(serial));
        // Degenerate shapes.
        assert!(EdwardsPoint::vartime_multiscalar_mul(&[]).is_identity());
        assert!(mul_int(p, U256::ZERO).is_identity());
        assert!(mul_int(p, U256::ONE).equals(p));
    }

    #[test]
    fn multiscalar_handles_full_width_scalars() {
        // ℓ-1 is 253 bits; mixing widths shares one doubling chain.
        let (lm1, three) = (minus_one(), Scalar::from_u64(3));
        let batched = EdwardsPoint::vartime_multiscalar_mul(&[
            (*lm1.limbs(), b()),
            (*three.limbs(), b().double()),
        ]);
        let serial = b().mul(lm1).add(b().double().mul(three));
        assert!(batched.equals(serial));
    }

    #[test]
    fn comb_table_matches_generic_mul() {
        let table = CombTable::new(b());
        for v in [0u64, 1, 2, 15, 16, 17, 0xABCD_EF12_3456] {
            assert!(table
                .mul(Scalar::from_u64(v))
                .equals(b().mul(Scalar::from_u64(v))));
        }
        assert!(table.mul(minus_one()).equals(b().neg()));
        assert!(table.mul_limbs(&order().0).is_identity());
        // The shared base-point table agrees.
        assert!(EdwardsPoint::mul_base(minus_one()).equals(b().neg()));
        // Comb tables work for arbitrary points, not just B.
        let p = b().double().add(b());
        let tp = CombTable::new(p);
        assert!(tp
            .mul(Scalar::from_u64(99))
            .equals(p.mul(Scalar::from_u64(99))));
    }

    #[test]
    fn comb_gathers_none_all_and_only_the_top_row() {
        // No entry (the identity), all 32 (every byte 0xFF, 2^256 − 1),
        // and the last row alone.
        let p = b().double().add(b());
        let table = CombTable::new(p);
        let mut top = [0u8; 32];
        top[31] = 0x80;
        for n in [U256::ZERO, U256([u64::MAX; 4]), U256::from_le_bytes(&top)] {
            let expected = mul_int(p, n);
            assert!(table.mul_limbs(&n.0).equals(expected), "{n:?}");
        }
        assert!(table.mul_limbs(&[0; 4]).is_identity());
    }

    #[test]
    fn sign_bit_selects_negation() {
        let p = b();
        let mut encoded = p.compress();
        encoded[31] ^= 0x80;
        let flipped = EdwardsPoint::decompress(&encoded).expect("valid");
        assert!(flipped.equals(p.neg()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The affine-Niels comb table against the independent Straus/wNAF
        /// multiplication, on a non-base point and on integers with zero
        /// bytes (rows the comb skips) and full-width values (≥ ℓ, up to
        /// 2^256 − 1); and, on the base point, `[n mod ℓ]B = [n]B`.
        #[test]
        fn comb_table_matches_multiscalar_mul(
            n in prop::array::uniform4(any::<u64>()).prop_map(U256),
            zero_mask in any::<u32>(),
        ) {
            static TABLE: OnceLock<(EdwardsPoint, CombTable)> = OnceLock::new();
            let (point, table) = TABLE.get_or_init(|| {
                let point = EdwardsPoint::basepoint().mul(Scalar::from_u64(0xC0FFEE));
                (point, CombTable::new(point))
            });
            let mut bytes = n.to_le_bytes();
            for (i, byte) in bytes.iter_mut().enumerate() {
                if zero_mask >> i & 1 == 1 {
                    *byte = 0;
                }
            }
            let n = U256::from_le_bytes(&bytes);
            prop_assert!(table.mul_limbs(&n.0).equals(mul_int(*point, n)));
            let reduced = Scalar::from_le_bytes_reduced(&bytes);
            let expected = mul_int(b(), n);
            prop_assert!(basepoint_table().mul_limbs(&n.0).equals(expected));
            prop_assert!(EdwardsPoint::mul_base(reduced).equals(expected));
            prop_assert!(b().mul(reduced).equals(expected));
        }
    }
}
