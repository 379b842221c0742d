//! Message authentication for broadcast protocols.
//!
//! The paper assumes every process signs its messages (Section 5.2). In
//! the simulator two realisations are useful:
//!
//! * [`EdAuth`] — real Ed25519 signatures from [`at_crypto`]; used in the
//!   Byzantine tests, where forged or tampered messages must actually be
//!   rejected by cryptography;
//! * [`NoAuth`] — the authenticated-channels model: the simulator already
//!   conveys the true sender identity, so signatures are modelled as a
//!   per-event processing cost rather than computed. Used by the
//!   throughput/latency experiments, whose results depend on message and
//!   round complexity, not on cycles spent in field arithmetic.
//!
//! A third realisation, [`ObservedAuth`], wraps either of the above and
//! feeds per-operation counts and latencies into an [`at_obs`] registry
//! — the runtime's window into where signature CPU actually goes.

use at_crypto::{KeyStore, PrecomputedKey, Signature};
use at_model::ProcessId;
use at_obs::{Counter, Recorder, Stage};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One signature of a batch verification: `signer` claims `sig` over
/// `bytes`.
#[derive(Clone, Copy, Debug)]
pub struct BatchVerifyItem<'a, S> {
    /// The claimed signer.
    pub signer: ProcessId,
    /// The signed bytes.
    pub bytes: &'a [u8],
    /// The signature to check.
    pub sig: &'a S,
}

/// A pluggable signing scheme.
pub trait Authenticator: Clone + Send {
    /// The signature type.
    type Sig: Clone + PartialEq + fmt::Debug + Send;

    /// Signs `bytes` as process `signer`.
    fn sign(&self, signer: ProcessId, bytes: &[u8]) -> Self::Sig;

    /// Verifies a signature by `signer` over `bytes`.
    fn verify(&self, signer: ProcessId, bytes: &[u8], sig: &Self::Sig) -> bool;

    /// Verifies many signatures at once, returning the (ascending)
    /// indices of the items that fail. Agrees item-for-item with
    /// [`Authenticator::verify`]; the seam exists so an implementation
    /// can meter or amortize a whole certificate in one call.
    ///
    /// # Errors
    ///
    /// Returns the indices of the invalid items.
    fn verify_batch(&self, items: &[BatchVerifyItem<'_, Self::Sig>]) -> Result<(), Vec<usize>> {
        let bad: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, item)| !self.verify(item.signer, item.bytes, item.sig))
            .map(|(index, _)| index)
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

/// Real Ed25519 authentication over a shared (simulation-wide, test-only)
/// key store. Each signer's public key gets a lazily-built precomputed
/// multiplication table ([`at_crypto::PrecomputedKey`]), shared across
/// clones, so steady-state verification is two additions-only table
/// walks and runs several times faster than generic double-and-add.
/// [`Authenticator::verify_batch`] goes through
/// [`at_crypto::verify_batch`], which checks each share against its
/// table (see there for why that beats a combined equation at
/// certificate sizes).
#[derive(Clone)]
pub struct EdAuth {
    keys: Arc<KeyStore>,
    precomputed: Arc<Vec<OnceLock<PrecomputedKey>>>,
}

impl EdAuth {
    /// Creates the authenticator over a key store.
    pub fn new(keys: Arc<KeyStore>) -> Self {
        let precomputed = Arc::new((0..keys.len()).map(|_| OnceLock::new()).collect());
        EdAuth { keys, precomputed }
    }

    /// Convenience: a deterministic key store for `n` processes.
    pub fn deterministic(n: usize, seed: u64) -> Self {
        EdAuth::new(Arc::new(KeyStore::deterministic(n, seed)))
    }

    /// The precomputed key of `signer`, built on first use.
    fn precomputed(&self, signer: ProcessId) -> &PrecomputedKey {
        self.precomputed[signer.as_usize()]
            .get_or_init(|| PrecomputedKey::new(*self.keys.public(signer)))
    }

    /// Builds every signer's comb table (and the shared base-point
    /// table) eagerly. The tables are otherwise built lazily on first
    /// use, which is right for tests but lands the one-time ~3 ms
    /// precomputation inside the first metered sign/verify span of a
    /// benchmark run — call this at startup when that matters.
    pub fn warm(&self) {
        at_crypto::edwards::basepoint_table();
        for index in 0..self.keys.len() {
            self.precomputed(ProcessId::new(index as u32));
        }
    }
}

impl Authenticator for EdAuth {
    type Sig = Signature;

    fn sign(&self, signer: ProcessId, bytes: &[u8]) -> Signature {
        self.keys.keypair(signer).sign(bytes)
    }

    fn verify(&self, signer: ProcessId, bytes: &[u8], sig: &Signature) -> bool {
        self.precomputed(signer).verify(bytes, sig).is_ok()
    }

    fn verify_batch(&self, items: &[BatchVerifyItem<'_, Signature>]) -> Result<(), Vec<usize>> {
        let batch: Vec<(&PrecomputedKey, &[u8], &Signature)> = items
            .iter()
            .map(|item| (self.precomputed(item.signer), item.bytes, item.sig))
            .collect();
        at_crypto::verify_batch(&batch)
    }
}

impl fmt::Debug for EdAuth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EdAuth({} keys)", self.keys.len())
    }
}

/// The authenticated-channels model: signatures carry no information, and
/// `verify` returns `true` for every certificate entry, whoever it names.
/// Under `NoAuth` a certificate therefore proves nothing: a Byzantine
/// *source* that assembles its own FINAL can get two payloads delivered
/// in one instance. The engine's scripted attackers
/// (`at_engine::Adversary`) never forge, so under `NoAuth` they exercise
/// only the defences that do not rest on signatures. Use [`EdAuth`]
/// wherever a forged certificate must be refused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoAuth;

impl Authenticator for NoAuth {
    type Sig = ();

    fn sign(&self, _signer: ProcessId, _bytes: &[u8]) {}

    fn verify(&self, _signer: ProcessId, _bytes: &[u8], _sig: &()) -> bool {
        true
    }

    fn verify_batch(&self, _items: &[BatchVerifyItem<'_, ()>]) -> Result<(), Vec<usize>> {
        Ok(())
    }
}

/// An [`Authenticator`] decorator that meters the one it wraps: every
/// `sign`/`verify` bumps `auth_signs_total`/`auth_verifies_total` and
/// records its wall-clock latency into the [`Stage::Sign`] /
/// [`Stage::Verify`] histograms of the recorder's registry. Handles are
/// pre-resolved at construction, so the per-operation overhead is two
/// relaxed atomics and a clock read.
#[derive(Clone)]
pub struct ObservedAuth<A: Authenticator> {
    inner: A,
    recorder: Recorder,
    signs: Arc<Counter>,
    verifies: Arc<Counter>,
}

impl<A: Authenticator> ObservedAuth<A> {
    /// Wraps `inner`, metering into `recorder`'s registry.
    pub fn new(inner: A, recorder: Recorder) -> Self {
        let registry = recorder.registry();
        ObservedAuth {
            inner,
            signs: registry.counter("auth_signs_total"),
            verifies: registry.counter("auth_verifies_total"),
            recorder,
        }
    }

    /// The wrapped authenticator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Signing operations metered so far.
    pub fn signs(&self) -> u64 {
        self.signs.get()
    }

    /// Verification operations metered so far.
    pub fn verifies(&self) -> u64 {
        self.verifies.get()
    }
}

impl<A: Authenticator> Authenticator for ObservedAuth<A> {
    type Sig = A::Sig;

    fn sign(&self, signer: ProcessId, bytes: &[u8]) -> Self::Sig {
        let started = Instant::now();
        let sig = self.inner.sign(signer, bytes);
        self.recorder.record(Stage::Sign, started.elapsed());
        self.signs.inc();
        sig
    }

    fn verify(&self, signer: ProcessId, bytes: &[u8], sig: &Self::Sig) -> bool {
        let started = Instant::now();
        let ok = self.inner.verify(signer, bytes, sig);
        self.recorder.record(Stage::Verify, started.elapsed());
        self.verifies.inc();
        ok
    }

    fn verify_batch(&self, items: &[BatchVerifyItem<'_, Self::Sig>]) -> Result<(), Vec<usize>> {
        if items.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let result = self.inner.verify_batch(items);
        // One call checked `items.len()` signatures: meter it as that
        // many verifies, each at the mean per-signature cost, so both
        // the counter and the Stage::Verify histogram stay
        // per-signature.
        let amortized = started.elapsed() / items.len() as u32;
        for _ in 0..items.len() {
            self.recorder.record(Stage::Verify, amortized);
        }
        self.verifies.add(items.len() as u64);
        result
    }
}

impl<A: Authenticator> fmt::Debug for ObservedAuth<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ObservedAuth(signs={}, verifies={})",
            self.signs.get(),
            self.verifies.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed_auth_signs_and_verifies() {
        let auth = EdAuth::deterministic(3, 1);
        let signer = ProcessId::new(2);
        let sig = auth.sign(signer, b"hello");
        assert!(auth.verify(signer, b"hello", &sig));
        assert!(!auth.verify(signer, b"other", &sig));
        assert!(!auth.verify(ProcessId::new(0), b"hello", &sig));
    }

    #[test]
    fn ed_auth_debug() {
        let auth = EdAuth::deterministic(2, 0);
        assert_eq!(format!("{auth:?}"), "EdAuth(2 keys)");
    }

    #[test]
    fn no_auth_accepts_everything() {
        let auth = NoAuth;
        auth.sign(ProcessId::new(0), b"x");
        assert!(auth.verify(ProcessId::new(1), b"y", &()));
        assert_eq!(auth.verify_batch(&[]), Ok(()));
    }

    #[test]
    fn ed_auth_batch_agrees_with_serial_and_attributes_failures() {
        let auth = EdAuth::deterministic(4, 5);
        let messages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let sigs: Vec<Signature> = (0..4)
            .map(|i| auth.sign(ProcessId::new(i as u32), &messages[i]))
            .collect();
        let items: Vec<BatchVerifyItem<'_, Signature>> = (0..4)
            .map(|i| BatchVerifyItem {
                signer: ProcessId::new(i as u32),
                bytes: messages[i].as_slice(),
                sig: &sigs[i],
            })
            .collect();
        assert_eq!(auth.verify_batch(&items), Ok(()));
        // Swap one signer: only that index is attributed.
        let mut tampered = items.clone();
        tampered[2].signer = ProcessId::new(0);
        assert_eq!(auth.verify_batch(&tampered), Err(vec![2]));
        for (i, item) in tampered.iter().enumerate() {
            assert_eq!(
                auth.verify(item.signer, item.bytes, item.sig),
                i != 2,
                "serial verify must agree at index {i}"
            );
        }
    }

    #[test]
    fn observed_auth_meters_batches_per_signature() {
        let ed = EdAuth::deterministic(3, 11);
        let registry = at_obs::Registry::new("test");
        let auth = ObservedAuth::new(ed.clone(), registry.recorder());
        let messages: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4]).collect();
        let sigs: Vec<Signature> = (0..3)
            .map(|i| ed.sign(ProcessId::new(i as u32), &messages[i]))
            .collect();
        let items: Vec<BatchVerifyItem<'_, Signature>> = (0..3)
            .map(|i| BatchVerifyItem {
                signer: ProcessId::new(i as u32),
                bytes: messages[i].as_slice(),
                sig: &sigs[i],
            })
            .collect();
        assert_eq!(auth.verify_batch(&items), Ok(()));
        assert_eq!(auth.verifies(), 3, "batch counts per signature");
        let snap = registry.snapshot();
        let hist = snap.histogram("stage_verify_us").expect("registered");
        assert_eq!(hist.count, 3, "one histogram sample per batched verify");
        assert_eq!(auth.verify_batch(&[]), Ok(()));
        assert_eq!(auth.verifies(), 3, "empty batch meters nothing");
    }
}
