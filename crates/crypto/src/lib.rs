//! # at-crypto — from-scratch cryptography for the asset-transfer stack
//!
//! The message-passing protocols of the paper assume authenticated
//! messages ("we assume that processes sign all their messages before
//! broadcasting them", Section 5.2). The allowed dependency set for this
//! reproduction contains no cryptography crates, so this crate implements
//! the required primitives from the specifications:
//!
//! * [`sha2`] — SHA-256 / SHA-512 (FIPS 180-4), round constants *derived*
//!   from integer square/cube roots of primes rather than transcribed;
//! * [`bigint`] — fixed-width 256/512-bit integers: the long-division
//!   reference the kernels are tested against, and constant derivation;
//! * [`field`] — GF(2^255 − 19) arithmetic, division-free;
//! * [`scalar`] — arithmetic modulo the group order ℓ, division-free;
//! * [`edwards`] — the edwards25519 group in extended coordinates, with
//!   precomputed comb tables for long-lived points;
//! * [`keys`] — Ed25519 (RFC 8032) key pairs, signing, verification, and
//!   the deterministic per-process [`KeyStore`].
//!
//! ## Security posture
//!
//! This is a research reproduction: the arithmetic is **variable-time**
//! and the API favours clarity over side-channel resistance. Correctness
//! is established by standard test vectors (SHA-2; RFC 8032 §7.1 TEST 1,
//! 2, 3 and 1024 from seed to signature), a pinned accept/reject table
//! for malformed inputs, algebraic laws (`[ℓ]B = 𝟘`), and property tests
//! of every kernel against the big-integer reference implementation.
//!
//! # Example
//!
//! ```
//! use at_crypto::{KeyStore, sha2::Sha256};
//! use at_model::ProcessId;
//!
//! let keys = KeyStore::deterministic(3, 7);
//! let signer = ProcessId::new(1);
//! let message = Sha256::digest(b"transfer 10 from alice to bob");
//! let signature = keys.keypair(signer).sign(&message);
//! assert!(keys.public(signer).verify(&message, &signature).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The arithmetic API deliberately mirrors the mathematical notation
// (`a.add(b)`, `a.mul(b)`, `p.neg()`, `x.rem(m)`) instead of operator
// traits, and limb loops index explicitly like the specifications do.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

pub mod bigint;
pub mod edwards;
pub mod field;
pub mod keys;
mod limbs;
pub mod scalar;
pub mod sha2;

pub use keys::{
    verify_batch, KeyStore, Keypair, PrecomputedKey, PublicKey, Signature, SignatureError,
};
pub use sha2::{Sha256, Sha512};

/// Convenience: SHA-256 digest of a canonical encoding.
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
///
/// let tx = Transfer::new(
///     AccountId::new(0),
///     AccountId::new(1),
///     Amount::new(5),
///     ProcessId::new(0),
///     SeqNo::new(1),
/// );
/// let digest = at_crypto::digest_of(&tx);
/// assert_eq!(digest, at_crypto::digest_of(&tx));
/// ```
pub fn digest_of<T: at_model::Encode + ?Sized>(value: &T) -> [u8; 32] {
    Sha256::digest(&at_model::codec::encode(value))
}
