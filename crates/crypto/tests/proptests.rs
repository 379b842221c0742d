//! Property-based tests for the cryptography crate's public API:
//! algebraic laws of the field, scalar, and group arithmetic, and batch
//! verification. The properties that need the big-integer oracle live
//! beside the kernels, in the crate's unit tests.

use at_crypto::edwards::EdwardsPoint;
use at_crypto::field::FieldElement;
use at_crypto::scalar::Scalar;
use at_crypto::{verify_batch, KeyStore, PrecomputedKey, Signature};
use proptest::prelude::*;

fn bytes32() -> impl Strategy<Value = [u8; 32]> {
    prop::array::uniform32(any::<u8>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Field laws: commutativity, associativity, distributivity, inverse.
    #[test]
    fn field_laws(a in bytes32(), b in bytes32(), c in bytes32()) {
        let fa = FieldElement::from_le_bytes(&a);
        let fb = FieldElement::from_le_bytes(&b);
        let fc = FieldElement::from_le_bytes(&c);
        prop_assert!(fa.mul(fb).equals(fb.mul(fa)));
        prop_assert!(fa.add(fb).equals(fb.add(fa)));
        prop_assert!(fa.mul(fb).mul(fc).equals(fa.mul(fb.mul(fc))));
        prop_assert!(fa.mul(fb.add(fc)).equals(fa.mul(fb).add(fa.mul(fc))));
        if !fa.is_zero() {
            prop_assert!(fa.mul(fa.invert()).equals(FieldElement::ONE));
        }
        // Squares match mul.
        prop_assert!(fa.square().equals(fa.mul(fa)));
    }

    /// Wide (512-bit) scalar reduction agrees with composing the halves:
    /// wide = lo + 2^256 * hi  ⇒  reduce(wide) = lo + (2^128)²·hi.
    #[test]
    fn scalar_wide_reduction_decomposes(lo in bytes32(), hi in bytes32()) {
        let mut wide_bytes = [0u8; 64];
        wide_bytes[..32].copy_from_slice(&lo);
        wide_bytes[32..].copy_from_slice(&hi);
        let wide = Scalar::from_wide_bytes(&wide_bytes);

        let mut two_128 = [0u8; 32];
        two_128[16] = 1;
        let two_128 = Scalar::from_canonical_bytes(&two_128).expect("2^128 < ℓ");
        let expected = Scalar::from_le_bytes_reduced(&lo)
            .add(Scalar::from_le_bytes_reduced(&hi).mul(two_128.mul(two_128)));
        prop_assert_eq!(wide, expected);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Group laws on edwards25519: [a]B + [b]B == [a+b]B and compression
    /// round-trips, for random scalars. Scalar multiplications are slow in
    /// debug builds, so this runs few cases (the algebra is additionally
    /// covered by the deterministic `[ℓ]B = 𝟘` tests in the crate).
    #[test]
    fn group_scalar_homomorphism(a in bytes32(), b in bytes32()) {
        let base = EdwardsPoint::basepoint();
        let sa = Scalar::from_le_bytes_reduced(&a);
        let sb = Scalar::from_le_bytes_reduced(&b);
        let lhs = base.mul(sa).add(base.mul(sb));
        let rhs = base.mul(sa.add(sb));
        prop_assert!(lhs.equals(rhs));

        let decoded = EdwardsPoint::decompress(&lhs.compress()).unwrap();
        prop_assert!(decoded.equals(lhs));
    }
}

/// A ready-to-batch share set: per-signer precomputed keys, distinct
/// messages, and valid signatures over them.
fn share_set(n: usize, seed: u64) -> (Vec<PrecomputedKey>, Vec<Vec<u8>>, Vec<Signature>) {
    let store = KeyStore::deterministic(n, seed);
    let keys: Vec<PrecomputedKey> = (0..n)
        .map(|i| PrecomputedKey::new(*store.public(at_model::ProcessId::new(i as u32))))
        .collect();
    let messages: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("share {i} of system {seed}").into_bytes())
        .collect();
    let sigs: Vec<Signature> = (0..n)
        .map(|i| {
            store
                .keypair(at_model::ProcessId::new(i as u32))
                .sign(&messages[i])
        })
        .collect();
    (keys, messages, sigs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch verification agrees with per-share verification on random
    /// share sets, and single-item tampering — a flipped signature bit,
    /// a wrong signer, a swapped payload — is attributed to exactly the
    /// tampered index.
    #[test]
    fn batch_verify_agrees_with_per_share_and_attributes_tampering(
        n in 1usize..5,
        seed in any::<u64>(),
        bad in 0usize..5,
        kind in 0u8..3,
    ) {
        let (keys, messages, sigs) = share_set(n, seed);
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = (0..n)
            .map(|i| (&keys[i], messages[i].as_slice(), &sigs[i]))
            .collect();
        // Untampered: the batch holds iff every share holds serially.
        for (key, msg, sig) in &items {
            prop_assert!(key.verify(msg, sig).is_ok());
        }
        prop_assert_eq!(verify_batch(&items), Ok(()));

        // Tamper exactly one item.
        let bad = bad % n;
        let mut tampered = items.clone();
        let flipped_sig;
        let wrong_key;
        match kind {
            0 => {
                // Flip one bit of the signature's S half.
                let mut bytes = sigs[bad].to_bytes();
                bytes[40] ^= 0x04;
                flipped_sig = Signature::from_bytes(&bytes);
                tampered[bad].2 = &flipped_sig;
            }
            1 => {
                // Attribute the share to a different signer.
                let other = (bad + 1) % n.max(2);
                if other == bad {
                    // n == 1: no other signer exists — forge one.
                    let lone = KeyStore::deterministic(1, seed ^ 0xDEAD);
                    wrong_key =
                        PrecomputedKey::new(*lone.public(at_model::ProcessId::new(0)));
                } else {
                    wrong_key = PrecomputedKey::new(*keys[other].public());
                }
                tampered[bad].0 = &wrong_key;
            }
            _ => {
                // Swap the payload out from under the signature.
                tampered[bad].1 = b"a different payload entirely";
            }
        }
        // Exactly the tampered share is attributed, agreeing item for
        // item with per-share verification.
        prop_assert_eq!(verify_batch(&tampered), Err(vec![bad]));
        for (i, (key, msg, sig)) in tampered.iter().enumerate() {
            prop_assert_eq!(key.verify(msg, sig).is_ok(), i != bad);
        }
    }
}
