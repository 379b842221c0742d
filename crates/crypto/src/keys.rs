//! Ed25519 key pairs, signatures, and the per-process key infrastructure
//! used by the message-passing protocols.
//!
//! The construction follows RFC 8032 §5.1 (Ed25519): SHA-512 key
//! expansion with clamping, deterministic nonce `r = H(prefix ‖ M)`,
//! challenge `k = H(R ‖ A ‖ M)`, response `S = r + k·s mod ℓ`.
//! Verification is cofactorless: `[S]B = R + [k]A`.

use crate::edwards::{basepoint_table, CombTable, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::Sha512;
use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::ProcessId;
use rand::{CryptoRng, RngCore};
use std::error::Error;
use std::fmt;

/// Length of an encoded public key.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of an encoded signature.
pub const SIGNATURE_LEN: usize = 64;

/// Verification failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature's `R` component is not a valid curve point.
    InvalidPoint,
    /// The signature's `S` component is not a canonical scalar.
    NonCanonicalScalar,
    /// The verification equation does not hold.
    EquationFailed,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidPoint => write!(f, "signature R is not a valid curve point"),
            SignatureError::NonCanonicalScalar => {
                write!(f, "signature S is not a canonical scalar")
            }
            SignatureError::EquationFailed => write!(f, "signature equation failed"),
        }
    }
}

impl Error for SignatureError {}

/// An Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    point: EdwardsPoint,
    encoded: [u8; PUBLIC_KEY_LEN],
}

impl PublicKey {
    /// Decodes a public key from its 32-byte encoding.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Option<PublicKey> {
        EdwardsPoint::decompress(bytes).map(|point| PublicKey {
            point,
            encoded: *bytes,
        })
    }

    /// The 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.encoded
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns a [`SignatureError`] describing which check failed.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        verify_with(&self.encoded, message, signature, |s, k| {
            EdwardsPoint::mul_base(s).add(self.point.mul(k).neg())
        })
    }
}

/// Checks `[S]B − [k]A = R` (that is, `[S]B = R + [k]A`) for
/// `signature` over `message` under the public key encoded as `public`,
/// with `lhs(S, k)` computing `[S]B − [k]A`. `R` is parsed before `S`,
/// so a bad `R` wins.
fn verify_with(
    public: &[u8; PUBLIC_KEY_LEN],
    message: &[u8],
    signature: &Signature,
    lhs: impl FnOnce(Scalar, Scalar) -> EdwardsPoint,
) -> Result<(), SignatureError> {
    let r_point = EdwardsPoint::decompress(&signature.r).ok_or(SignatureError::InvalidPoint)?;
    let s = Scalar::from_canonical_bytes(&signature.s).ok_or(SignatureError::NonCanonicalScalar)?;
    let k = challenge_scalar(&signature.r, public, message);
    if lhs(s, k).equals(r_point) {
        Ok(())
    } else {
        Err(SignatureError::EquationFailed)
    }
}

/// The EdDSA challenge `k = H(R ‖ A ‖ M) mod ℓ`.
fn challenge_scalar(r: &[u8; 32], public: &[u8; PUBLIC_KEY_LEN], message: &[u8]) -> Scalar {
    let mut hasher = Sha512::new();
    hasher.update(r);
    hasher.update(public);
    hasher.update(message);
    Scalar::from_wide_bytes(&hasher.finalize())
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}…)",
            self.encoded[0], self.encoded[1], self.encoded[2], self.encoded[3]
        )
    }
}

/// A public key with a precomputed fixed-base multiplication table for
/// its point, making verification additions-only: `[S]B − [k]A` is one
/// chain over the entries both tables select, gathered first.
/// Build once per long-lived signer (a cluster peer);
/// [`PrecomputedKey::verify`] then runs several times faster than
/// [`PublicKey::verify`].
#[derive(Clone, Debug)]
pub struct PrecomputedKey {
    public: PublicKey,
    table: CombTable,
}

impl PrecomputedKey {
    /// Precomputes the table of `public` (765 KiB; ~8k point additions,
    /// ~3 ms).
    pub fn new(public: PublicKey) -> PrecomputedKey {
        PrecomputedKey {
            table: CombTable::new(public.point),
            public,
        }
    }

    /// The wrapped public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Verifies `signature` over `message`, identical in outcome to
    /// [`PublicKey::verify`] but using the precomputed table.
    ///
    /// # Errors
    ///
    /// Returns a [`SignatureError`] describing which check failed.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        verify_with(&self.public.encoded, message, signature, |s, k| {
            basepoint_table().mul_sub(s, &self.table, k)
        })
    }
}

/// Verifies a batch of signatures, each against its signer's
/// precomputed table, and reports which ones fail.
///
/// This is per-share verification on purpose. With comb tables a share
/// checked alone costs about 64 mixed additions and no doubling. A
/// random-linear-combination check (`[Σ zᵢSᵢ]B = Σ [zᵢ]Rᵢ + Σ [zᵢkᵢ]Aᵢ`)
/// still pays ~61 of those per share, and its `Σ [zᵢ]Rᵢ` term runs over
/// fresh points: a 128-doubling chain shared by the batch plus an odd
/// multiples table and ~21 additions per `R`. That only amortizes
/// around 50 shares; at the certificate sizes this system produces
/// (3 shares at n = 4, 11 at n = 16) the combined check measured
/// 1.9× and 1.3× slower than this loop, so it was removed.
///
/// # Errors
///
/// Returns the (ascending) indices of the items that fail
/// [`PrecomputedKey::verify`].
pub fn verify_batch(items: &[(&PrecomputedKey, &[u8], &Signature)]) -> Result<(), Vec<usize>> {
    let bad: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, (key, message, signature))| key.verify(message, signature).is_err())
        .map(|(index, _)| index)
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

/// An Ed25519 signature (`R ‖ S`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: [u8; 32],
    s: [u8; 32],
}

impl Signature {
    /// Parses a 64-byte signature encoding. Always succeeds structurally;
    /// validity is checked during verification.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Signature {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Signature { r, s }
    }

    /// The 64-byte encoding.
    pub fn to_bytes(self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.r);
        w.put_bytes(&self.s);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, at_model::CodecError> {
        let bytes = <[u8; SIGNATURE_LEN]>::decode(r)?;
        Ok(Signature::from_bytes(&bytes))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({:02x}{:02x}…{:02x}{:02x})",
            self.r[0], self.r[1], self.s[30], self.s[31]
        )
    }
}

/// An Ed25519 key pair.
#[derive(Clone)]
pub struct Keypair {
    /// Secret scalar reduced mod ℓ.
    ///
    /// The clamped secret is a multiple-of-8 integer below 2^255; since the
    /// public key is `[s]B` and `B` has prime order ℓ, reducing mod ℓ
    /// preserves `[s]B` and every signature equation.
    secret_mod_l: Scalar,
    /// The hash prefix used for nonce derivation.
    prefix: [u8; 32],
    /// The public key `A = [s]B`.
    public: PublicKey,
}

impl Keypair {
    /// Derives a key pair from a 32-byte seed per RFC 8032 §5.1.5.
    pub fn from_seed(seed: &[u8; 32]) -> Keypair {
        let digest = Sha512::digest(seed);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&digest[..32]);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);

        let secret_mod_l = Scalar::from_le_bytes_reduced(&Scalar::clamp_integer(scalar_bytes));
        let point = EdwardsPoint::mul_base(secret_mod_l);
        let encoded = point.compress();
        Keypair {
            secret_mod_l,
            prefix,
            public: PublicKey { point, encoded },
        }
    }

    /// Generates a key pair from a cryptographically secure RNG.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(&seed)
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs `message` deterministically.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // r = H(prefix ‖ M) mod ℓ
        let mut hasher = Sha512::new();
        hasher.update(&self.prefix);
        hasher.update(message);
        let r = Scalar::from_wide_bytes(&hasher.finalize());

        // R = [r]B
        let r_point = EdwardsPoint::mul_base(r);
        let r_encoded = r_point.compress();

        let k = challenge_scalar(&r_encoded, &self.public.encoded, message);

        // S = r + k·s mod ℓ
        let s = r.add(k.mul(self.secret_mod_l));

        Signature {
            r: r_encoded,
            s: s.to_le_bytes(),
        }
    }
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "Keypair({:?})", self.public)
    }
}

/// Deterministic key infrastructure for a simulated system of `n`
/// processes: process `i` gets the key pair derived from a seed that mixes
/// a system-wide seed with `i`.
///
/// # Example
///
/// ```
/// use at_crypto::KeyStore;
/// use at_model::ProcessId;
///
/// let keys = KeyStore::deterministic(4, 42);
/// let p0 = ProcessId::new(0);
/// let sig = keys.keypair(p0).sign(b"hello");
/// assert!(keys.public(p0).verify(b"hello", &sig).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct KeyStore {
    keypairs: Vec<Keypair>,
}

impl KeyStore {
    /// Creates key pairs for `n` processes from `system_seed`.
    pub fn deterministic(n: usize, system_seed: u64) -> KeyStore {
        let keypairs = (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[..8].copy_from_slice(&system_seed.to_le_bytes());
                seed[8..16].copy_from_slice(&(i as u64).to_le_bytes());
                // Diffuse the structured seed through SHA-256.
                let digest = crate::sha2::Sha256::digest(&seed);
                Keypair::from_seed(&digest)
            })
            .collect();
        KeyStore { keypairs }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.keypairs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.keypairs.is_empty()
    }

    /// The key pair of `process`.
    ///
    /// # Panics
    ///
    /// Panics when the process index is out of range.
    pub fn keypair(&self, process: ProcessId) -> &Keypair {
        &self.keypairs[process.as_usize()]
    }

    /// The public key of `process`.
    ///
    /// # Panics
    ///
    /// Panics when the process index is out of range.
    pub fn public(&self, process: ProcessId) -> &PublicKey {
        self.keypairs[process.as_usize()].public()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        Keypair::from_seed(&[7u8; 32])
    }

    #[test]
    fn signature_codec_roundtrips() {
        let sig = keypair().sign(b"wire");
        let bytes = at_model::codec::encode(&sig);
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        let back: Signature = at_model::codec::decode(&bytes).expect("decode");
        assert_eq!(back, sig);
        // Truncated input errors instead of panicking.
        assert!(at_model::codec::decode::<Signature>(&bytes[..40]).is_err());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let msg = b"the consensus number of a cryptocurrency is 1";
        let sig = kp.sign(msg);
        assert_eq!(kp.public().verify(msg, &sig), Ok(()));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"pay 10 to bob");
        assert_eq!(
            kp.public().verify(b"pay 99 to bob", &sig),
            Err(SignatureError::EquationFailed)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let msg = b"msg";
        let mut bytes = kp.sign(msg).to_bytes();
        bytes[40] ^= 1; // flip a bit of S
        let forged = Signature::from_bytes(&bytes);
        assert!(kp.public().verify(msg, &forged).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair();
        let kp2 = Keypair::from_seed(&[8u8; 32]);
        let msg = b"msg";
        let sig = kp1.sign(msg);
        assert_eq!(
            kp2.public().verify(msg, &sig),
            Err(SignatureError::EquationFailed)
        );
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair();
        assert_eq!(kp.sign(b"x").to_bytes(), kp.sign(b"x").to_bytes());
        assert_ne!(kp.sign(b"x").to_bytes(), kp.sign(b"y").to_bytes());
    }

    #[test]
    fn non_canonical_s_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        // Set S to ℓ (non-canonical).
        bytes[32..].copy_from_slice(&crate::scalar::order().to_le_bytes());
        let forged = Signature::from_bytes(&bytes);
        assert_eq!(
            kp.public().verify(b"msg", &forged),
            Err(SignatureError::NonCanonicalScalar)
        );
    }

    #[test]
    fn invalid_r_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        // y = 2 is not on the curve.
        bytes[..32].copy_from_slice(&{
            let mut y = [0u8; 32];
            y[0] = 2;
            y
        });
        let forged = Signature::from_bytes(&bytes);
        assert_eq!(
            kp.public().verify(b"msg", &forged),
            Err(SignatureError::InvalidPoint)
        );
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let kp = keypair();
        let decoded = PublicKey::from_bytes(kp.public().as_bytes()).expect("valid key");
        assert_eq!(decoded, *kp.public());
        // And it still verifies.
        let sig = kp.sign(b"z");
        assert!(decoded.verify(b"z", &sig).is_ok());
    }

    #[test]
    fn generated_keys_are_distinct_and_functional() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp1 = Keypair::generate(&mut rng);
        let kp2 = Keypair::generate(&mut rng);
        assert_ne!(kp1.public().as_bytes(), kp2.public().as_bytes());
        assert!(kp1.public().verify(b"m", &kp1.sign(b"m")).is_ok());
    }

    #[test]
    fn empty_message_signs() {
        let kp = keypair();
        let sig = kp.sign(b"");
        assert!(kp.public().verify(b"", &sig).is_ok());
    }

    #[test]
    fn large_message_signs() {
        let kp = keypair();
        let msg = vec![0xABu8; 100_000];
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn keystore_assigns_distinct_keys() {
        let store = KeyStore::deterministic(5, 99);
        assert_eq!(store.len(), 5);
        assert!(!store.is_empty());
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(
                    store.public(ProcessId::new(i as u32)).as_bytes(),
                    store.public(ProcessId::new(j as u32)).as_bytes()
                );
            }
        }
    }

    #[test]
    fn keystore_is_deterministic() {
        let a = KeyStore::deterministic(3, 7);
        let b = KeyStore::deterministic(3, 7);
        let c = KeyStore::deterministic(3, 8);
        let p0 = ProcessId::new(0);
        assert_eq!(a.public(p0).as_bytes(), b.public(p0).as_bytes());
        assert_ne!(a.public(p0).as_bytes(), c.public(p0).as_bytes());
    }

    #[test]
    fn debug_never_leaks_secrets() {
        let kp = keypair();
        let rendered = format!("{kp:?}");
        assert!(rendered.starts_with("Keypair(PublicKey("));
    }

    fn batch_fixture(
        n: usize,
    ) -> (
        Vec<Keypair>,
        Vec<PrecomputedKey>,
        Vec<Vec<u8>>,
        Vec<Signature>,
    ) {
        let keypairs: Vec<Keypair> = (0..n).map(|i| Keypair::from_seed(&[i as u8; 32])).collect();
        let precomputed: Vec<PrecomputedKey> = keypairs
            .iter()
            .map(|kp| PrecomputedKey::new(*kp.public()))
            .collect();
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("transfer #{i}").into_bytes())
            .collect();
        let signatures: Vec<Signature> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| kp.sign(m))
            .collect();
        (keypairs, precomputed, messages, signatures)
    }

    #[test]
    fn precomputed_key_agrees_with_plain_verify() {
        let kp = keypair();
        let pk = PrecomputedKey::new(*kp.public());
        assert_eq!(pk.public().as_bytes(), kp.public().as_bytes());
        let sig = kp.sign(b"fast path");
        assert_eq!(pk.verify(b"fast path", &sig), Ok(()));
        assert_eq!(
            pk.verify(b"other", &sig),
            Err(SignatureError::EquationFailed)
        );
        let mut bytes = sig.to_bytes();
        bytes[32..].copy_from_slice(&crate::scalar::order().to_le_bytes());
        assert_eq!(
            pk.verify(b"fast path", &Signature::from_bytes(&bytes)),
            Err(SignatureError::NonCanonicalScalar)
        );
    }

    #[test]
    fn batch_accepts_all_valid() {
        let (_, keys, messages, sigs) = batch_fixture(5);
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = (0..5)
            .map(|i| (&keys[i], messages[i].as_slice(), &sigs[i]))
            .collect();
        assert_eq!(verify_batch(&items), Ok(()));
        assert_eq!(verify_batch(&[]), Ok(()));
        assert_eq!(verify_batch(&items[..1]), Ok(()));
    }

    #[test]
    fn batch_attributes_the_exact_bad_items() {
        let (_, keys, messages, mut sigs) = batch_fixture(5);
        // Flip a bit of S in item 1, swap item 3's message for item 4's.
        let mut bytes = sigs[1].to_bytes();
        bytes[40] ^= 1;
        sigs[1] = Signature::from_bytes(&bytes);
        let mut item_messages: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
        item_messages[3] = messages[4].as_slice();
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = (0..5)
            .map(|i| (&keys[i], item_messages[i], &sigs[i]))
            .collect();
        assert_eq!(verify_batch(&items), Err(vec![1, 3]));
    }

    #[test]
    fn batch_rejects_wrong_signer_and_structural_garbage() {
        let (_, keys, messages, sigs) = batch_fixture(3);
        // Item 0 claims key 1 signed key 0's message.
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = vec![
            (&keys[1], messages[0].as_slice(), &sigs[0]),
            (&keys[1], messages[1].as_slice(), &sigs[1]),
            (&keys[2], messages[2].as_slice(), &sigs[2]),
        ];
        assert_eq!(verify_batch(&items), Err(vec![0]));
        // An R that is not a curve point is attributed without touching
        // the combined equation.
        let mut bytes = sigs[0].to_bytes();
        bytes[..32].copy_from_slice(&{
            let mut y = [0u8; 32];
            y[0] = 2;
            y
        });
        let garbage = Signature::from_bytes(&bytes);
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = vec![
            (&keys[0], messages[0].as_slice(), &garbage),
            (&keys[1], messages[1].as_slice(), &sigs[1]),
            (&keys[2], messages[2].as_slice(), &sigs[2]),
        ];
        assert_eq!(verify_batch(&items), Err(vec![0]));
    }

    #[test]
    fn sign_and_verify_paths_never_divide() {
        // The gate for what nine PRs of "the hot path uses specialised
        // code" comments hid: once tables and constants exist, nothing
        // on the sign / verify path may reach bigint's long division.
        use crate::bigint::{LONG_DIVISIONS, U256};
        let (keypairs, keys, messages, sigs) = batch_fixture(3);
        let table = CombTable::new(EdwardsPoint::basepoint());
        let point = EdwardsPoint::basepoint().double();
        let scalar = Scalar::from_le_bytes_reduced(&[0xA7; 32]);
        EdwardsPoint::mul_base(scalar); // builds the shared base-point table

        let divisions = |what: &str, run: &dyn Fn()| {
            let before = LONG_DIVISIONS.with(|count| count.get());
            run();
            let after = LONG_DIVISIONS.with(|count| count.get());
            assert_eq!(after - before, 0, "{what} ran a long division");
        };
        divisions("Keypair::from_seed", &|| {
            Keypair::from_seed(&[0xA7; 32]);
        });
        divisions("Keypair::sign", &|| {
            keypairs[0].sign(&messages[0]);
        });
        divisions("PublicKey::verify", &|| {
            keypairs[0].public().verify(&messages[0], &sigs[0]).unwrap();
        });
        divisions("PrecomputedKey::verify", &|| {
            keys[0].verify(&messages[0], &sigs[0]).unwrap();
        });
        divisions("verify_batch over three shares", &|| {
            let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = (0..3)
                .map(|i| (&keys[i], messages[i].as_slice(), &sigs[i]))
                .collect();
            verify_batch(&items).unwrap();
        });
        divisions("EdwardsPoint::add", &|| {
            let _ = point.add(point);
        });
        divisions("EdwardsPoint::double", &|| {
            let _ = point.double();
        });
        divisions("CombTable::mul", &|| {
            let _ = table.mul(scalar);
        });
        divisions("EdwardsPoint::mul", &|| {
            let _ = point.mul(scalar);
        });
        divisions("CombTable::new", &|| {
            let _ = CombTable::new(point);
        });
        // The counter itself is live.
        let before = LONG_DIVISIONS.with(|count| count.get());
        let _ = U256::from_le_bytes(&[0xA7; 32]).rem(crate::scalar::order());
        assert_eq!(LONG_DIVISIONS.with(|count| count.get()), before + 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Key generation multiplies by the clamped secret reduced mod ℓ;
        /// the base point has prime order ℓ, so that is the RFC 8032
        /// public key `[clamp(h)]B` of the unreduced clamped integer.
        #[test]
        fn keygen_through_the_reduced_scalar(
            seed in proptest::array::uniform32(proptest::prelude::any::<u8>()),
        ) {
            let digest = Sha512::digest(&seed);
            let clamped = Scalar::clamp_integer(digest[..32].try_into().expect("32 bytes"));
            let reduced = EdwardsPoint::mul_base(Scalar::from_le_bytes_reduced(&clamped));
            let unreduced = EdwardsPoint::vartime_multiscalar_mul(&[(
                crate::bigint::U256::from_le_bytes(&clamped).0,
                EdwardsPoint::basepoint(),
            )]);
            proptest::prop_assert!(reduced.equals(unreduced));
            let public = Keypair::from_seed(&seed).public().encoded;
            proptest::prop_assert_eq!(reduced.compress(), public);
            proptest::prop_assert_eq!(unreduced.compress(), public);
        }
    }
}
