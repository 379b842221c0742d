//! Carry-chain primitives over little-endian `u64` limbs, shared by the
//! field ([`crate::field`]) and scalar ([`crate::scalar`]) kernels.
//!
//! Deliberately independent of [`crate::bigint`]: that module is the
//! oracle the kernels are property-tested against, so the two must not
//! share a multiplication or a carry loop.

/// Parses `8·N` little-endian bytes into `N` limbs.
pub(crate) fn load_le<const N: usize>(bytes: &[u8]) -> [u64; N] {
    debug_assert_eq!(bytes.len(), 8 * N);
    let mut limbs = [0u64; N];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    limbs
}

/// `a + b`, with the carry out of bit 255.
#[inline(always)]
pub(crate) fn add4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut carry = false;
    for i in 0..4 {
        let (sum, c1) = a[i].overflowing_add(b[i]);
        let (sum, c2) = sum.overflowing_add(carry as u64);
        out[i] = sum;
        carry = c1 | c2;
    }
    (out, carry)
}

/// `a − b` modulo 2^256, with the borrow out of bit 255.
#[inline(always)]
pub(crate) fn sub4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (diff, b1) = a[i].overflowing_sub(b[i]);
        let (diff, b2) = diff.overflowing_sub(borrow as u64);
        out[i] = diff;
        borrow = b1 | b2;
    }
    (out, borrow)
}

/// `a + small`, with the carry out of bit 255.
#[inline(always)]
pub(crate) fn add_small(a: &[u64; 4], small: u64) -> ([u64; 4], bool) {
    add4(a, &[small, 0, 0, 0])
}

/// Whether `a ≥ b` as 256-bit integers.
#[inline(always)]
pub(crate) fn ge4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    !sub4(a, b).1
}

/// The full 512-bit product `a · b` (schoolbook, 16 limb products).
#[inline(always)]
pub(crate) fn mul4(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            // u64·u64 + u64 + u64 never exceeds 2^128 − 1.
            let acc = out[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry as u128;
            out[i + j] = acc as u64;
            carry = (acc >> 64) as u64;
        }
        out[i + 4] = carry;
    }
    out
}

/// The full 512-bit square `a²`: the six cross products once, doubled,
/// plus the four diagonal squares (10 limb products instead of 16).
#[inline(always)]
pub(crate) fn square4(a: &[u64; 4]) -> [u64; 8] {
    // Cross products a[i]·a[j], i < j, accumulated at limb i + j.
    let mut out = [0u64; 8];
    for i in 0..3 {
        let mut carry = 0u64;
        for j in (i + 1)..4 {
            let acc = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry as u128;
            out[i + j] = acc as u64;
            carry = (acc >> 64) as u64;
        }
        out[i + 4] = carry;
    }
    // Double them (the sum of cross products is below 2^447, so nothing
    // is carried out of the top) and add the diagonal a[i]² at limbs
    // 2i, 2i + 1, in one carry chain.
    let mut carry = 0u64;
    for i in 0..4 {
        let sq = (a[i] as u128) * (a[i] as u128);
        let lo = (out[2 * i] as u128) * 2 + (sq as u64) as u128 + carry as u128;
        out[2 * i] = lo as u64;
        let hi = (out[2 * i + 1] as u128) * 2 + (sq >> 64) + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        carry = (hi >> 64) as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::U256;

    const EDGES: [[u64; 4]; 5] = [
        [0; 4],
        [1, 0, 0, 0],
        [u64::MAX; 4],
        [u64::MAX, 0, u64::MAX, 0],
        [0xDEAD_BEEF, 0xCAFE_BABE, 0x1234_5678, 0x8FED_CBA9_0000_0001],
    ];

    #[test]
    fn carry_chains_match_the_oracle_on_edge_values() {
        for a in &EDGES {
            for b in &EDGES {
                let (sum, carry) = add4(a, b);
                let (want, want_carry) = U256(*a).overflowing_add(U256(*b));
                assert_eq!((U256(sum), carry), (want, want_carry));
                let (diff, borrow) = sub4(a, b);
                let (want, want_borrow) = U256(*a).overflowing_sub(U256(*b));
                assert_eq!((U256(diff), borrow), (want, want_borrow));
                assert_eq!(ge4(a, b), U256(*a) >= U256(*b));
                assert_eq!(mul4(a, b), U256(*a).widening_mul(U256(*b)).0);
            }
            assert_eq!(square4(a), U256(*a).widening_mul(U256(*a)).0);
        }
    }
}
