//! Engine runtime configuration: broadcast backend, batching and the
//! account count — and the one dispatch from a [`BroadcastBackend`] to
//! the endpoints it names.

use crate::replica::EnginePayload;
use at_broadcast::{
    AccountOrderBackend, BrachaBroadcast, EchoBroadcast, EdAuth, NoAuth, PbftBroadcast,
    SecureBroadcast,
};
use at_model::{Decode, Encode, ProcessId};
use at_net::VirtualTime;

/// How the signed broadcast backends authenticate messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthMode {
    /// The authenticated-channels model ([`at_broadcast::NoAuth`]):
    /// signatures carry no information; the simulator conveys the true
    /// sender. Used by the performance experiments, whose results depend
    /// on message and round complexity.
    None,
    /// Real Ed25519 ([`at_broadcast::EdAuth`]): per-process keys from
    /// `EdAuth::deterministic(n, seed)`, certificate verification on
    /// delivery. Used wherever forged or tampered messages must actually
    /// be rejected by cryptography.
    Ed25519,
}

/// The secure-broadcast protocol carrying the engine's batches — the
/// paper's Section 5 observation that the broadcast layer is swappable,
/// as a runtime knob. [`BroadcastBackend::build`] is the one place a
/// value of this type becomes endpoints.
///
/// | backend | rounds | messages/instance | signatures |
/// |---|---|---|---|
/// | `Bracha` | 3 one-way delays | `O(n²)` | none |
/// | `SignedEcho` | 2 round trips | `3(n−1)` + `(n−1)·f` relays | sender + echo quorum |
/// | `AccountOrder` | the same signed echo; an echo waits for the account's previous delivery | the same | the same |
/// | `Pbft` | hop to the leader + 3 one-way delays | `O(n²)` | none |
///
/// A relay is a delivered FINAL handed on for totality against a
/// Byzantine sender: every process but the source relays to the next
/// `f` processes after it in index order, wrapping round and skipping
/// the source, minus the peer its copy came from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BroadcastBackend {
    /// Bracha's reliable broadcast — the paper's deployed "naive
    /// quadratic" implementation. Signature-free, `O(n²)` messages.
    #[default]
    Bracha,
    /// Malkhi–Reiter-style signed echo: `O(n)` sender cost plus quorum
    /// certificates.
    SignedEcho {
        /// Signing scheme.
        auth: AuthMode,
    },
    /// The Section 6 account-order broadcast in the base topology
    /// (account `i` owned by process `i`): the signed echo under the
    /// paper's rule that message `s` of an account is echoed only once
    /// `s − 1` was delivered.
    AccountOrder {
        /// Signing scheme.
        auth: AuthMode,
    },
    /// The consensus baseline: PBFT total order over all processes
    /// ([`at_broadcast::PbftBroadcast`]) — more than the object needs,
    /// which is the comparison the paper draws. No liveness under loss
    /// or a stopped leader.
    Pbft,
}

/// What a caller runs over the backend [`BroadcastBackend::build`]
/// chose: one method, generic in the endpoint type, handed the
/// constructor of each process's endpoint.
pub trait BackendVisitor {
    /// What the run produces.
    type Output;

    /// Runs over the endpoints `make` builds, one per process.
    fn visit<B, F>(self, make: F) -> Self::Output
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        B::Msg: Encode + Decode + Send + 'static,
        F: Fn(ProcessId) -> B;
}

impl BroadcastBackend {
    /// Every protocol once, under authenticated channels: the line-up
    /// the gates, the explorer and the demos run.
    pub const ALL: [BroadcastBackend; 4] = [
        BroadcastBackend::Bracha,
        BroadcastBackend::signed_echo(),
        BroadcastBackend::account_order(),
        BroadcastBackend::Pbft,
    ];

    /// Signed echo under authenticated channels.
    pub const fn signed_echo() -> Self {
        BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
        }
    }

    /// Account-order broadcast under authenticated channels.
    pub const fn account_order() -> Self {
        BroadcastBackend::AccountOrder {
            auth: AuthMode::None,
        }
    }

    /// A short label for report keys and bench tables.
    pub fn label(&self) -> &'static str {
        use AuthMode::Ed25519;
        match self {
            Self::Bracha => "bracha",
            Self::SignedEcho { auth: Ed25519 } => "echo-ed25519",
            Self::SignedEcho { .. } => "echo",
            Self::AccountOrder { auth: Ed25519 } => "acctorder-ed25519",
            Self::AccountOrder { .. } => "acctorder",
            Self::Pbft => "pbft",
        }
    }

    /// Hands `visitor` the constructor of this backend's endpoints in an
    /// `n`-process system. The Ed25519 modes share one deterministic key
    /// store per call, derived from `seed`: each process signs with its
    /// own key and verifies with everyone's public keys.
    pub fn build<V: BackendVisitor>(self, n: usize, seed: u64, visitor: V) -> V::Output {
        use AuthMode::Ed25519;
        match self {
            Self::Bracha => visitor.visit(|me| BrachaBroadcast::new(me, n)),
            Self::SignedEcho { auth: Ed25519 } => {
                let auth = EdAuth::deterministic(n, seed);
                visitor.visit(move |me| EchoBroadcast::new(me, n, auth.clone()))
            }
            Self::SignedEcho { .. } => visitor.visit(|me| EchoBroadcast::new(me, n, NoAuth)),
            Self::AccountOrder { auth: Ed25519 } => {
                let auth = EdAuth::deterministic(n, seed);
                visitor.visit(move |me| AccountOrderBackend::new(me, n, auth.clone()))
            }
            Self::AccountOrder { .. } => {
                visitor.visit(|me| AccountOrderBackend::new(me, n, NoAuth))
            }
            Self::Pbft => visitor.visit(|me| PbftBroadcast::new(me, n)),
        }
    }
}

/// Transfer-batching policy of an engine replica.
///
/// Submitted transfers accumulate in a sender-side batch, and the batch
/// leaves by Nagle's rule. While none of the replica's own batches is in
/// flight it leaves at the end of the pass that submitted it, so a lone
/// transfer never waits for company and a burst handed over in one pass
/// still leaves whole. While one is in flight, submissions accumulate
/// until it delivers locally, the batch reaches `max_size`, or `window`
/// has passed since the first of them, whichever comes first. `max_size
/// == 1` degenerates to per-transfer broadcast (no timer at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush when this many transfers are pending.
    pub max_size: usize,
    /// The longest a transfer is held back: the bound on the hold behind
    /// an own batch in flight. Nothing waits for it otherwise.
    pub window: VirtualTime,
}

impl BatchPolicy {
    /// Per-transfer broadcast: every submission flushes immediately.
    pub fn immediate() -> Self {
        BatchPolicy {
            max_size: 1,
            window: VirtualTime::ZERO,
        }
    }

    /// Batches of up to `max_size`, held for at most `window`.
    pub fn windowed(max_size: usize, window: VirtualTime) -> Self {
        assert!(max_size > 0, "batch size must be at least 1");
        BatchPolicy { max_size, window }
    }

    /// Whether batching is effectively disabled.
    pub fn is_immediate(&self) -> bool {
        self.max_size <= 1
    }
}

/// Configuration of the engine runtime at every replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Sender-side batching policy.
    pub batch: BatchPolicy,
    /// The secure-broadcast protocol carrying the batches.
    pub backend: BroadcastBackend,
    /// Number of ledger accounts. `0` (the default) means one account
    /// per process — the paper's base topology. The T9 scale scenarios
    /// set this far above `n` (e.g. one million) so the account universe
    /// is decoupled from the replica count; it must be `0` or `≥ n`,
    /// since process `i` still owns (and debits only) account `i`.
    pub accounts: usize,
}

impl EngineConfig {
    /// The unbatched engine: per-transfer broadcast, the paper's
    /// Figure 4 deployment shape.
    pub fn unbatched() -> Self {
        EngineConfig {
            batch: BatchPolicy::immediate(),
            backend: BroadcastBackend::Bracha,
            accounts: 0,
        }
    }

    /// A batched engine: batches of up to `batch_size`, held for at most
    /// `window` ([`BatchPolicy::windowed`]).
    pub fn batched(batch_size: usize, window: VirtualTime) -> Self {
        EngineConfig {
            batch: BatchPolicy::windowed(batch_size, window),
            ..EngineConfig::unbatched()
        }
    }

    /// The default production shape used by the scenario suite: batches
    /// of up to eight flushed within 500µs.
    pub fn standard() -> Self {
        EngineConfig::batched(8, VirtualTime::from_micros(500))
    }

    /// Replaces the broadcast backend.
    pub fn with_backend(mut self, backend: BroadcastBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the ledger account count (see [`EngineConfig::accounts`]).
    pub fn with_accounts(mut self, accounts: usize) -> Self {
        self.accounts = accounts;
        self
    }

    /// The effective account count for an `n`-process cluster: the
    /// configured count, or one account per process when unset.
    ///
    /// # Panics
    ///
    /// Panics when a nonzero configured count is below `n` — every
    /// process must own its account.
    pub fn account_count(&self, n: usize) -> usize {
        if self.accounts == 0 {
            n
        } else {
            assert!(
                self.accounts >= n,
                "accounts ({}) must cover every process (n = {n})",
                self.accounts
            );
            self.accounts
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_policy_has_no_window() {
        let policy = BatchPolicy::immediate();
        assert!(policy.is_immediate());
        assert_eq!(policy.max_size, 1);
    }

    #[test]
    fn windowed_policy_keeps_parameters() {
        let policy = BatchPolicy::windowed(8, VirtualTime::from_micros(250));
        assert!(!policy.is_immediate());
        assert_eq!(policy.max_size, 8);
        assert_eq!(policy.window, VirtualTime::from_micros(250));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = BatchPolicy::windowed(0, VirtualTime::ZERO);
    }

    #[test]
    fn presets() {
        assert!(EngineConfig::unbatched().batch.is_immediate());
        assert_eq!(EngineConfig::default(), EngineConfig::standard());
        assert_eq!(EngineConfig::standard().batch.max_size, 8);
        // Batches of eight within 500 µs, on Bracha.
        assert_eq!(
            EngineConfig::batched(8, VirtualTime::from_micros(500)),
            EngineConfig::standard()
        );
        assert_eq!(EngineConfig::standard().backend, BroadcastBackend::Bracha);
    }

    #[test]
    fn account_count_defaults_to_n_and_enforces_coverage() {
        assert_eq!(EngineConfig::standard().accounts, 0);
        assert_eq!(EngineConfig::standard().account_count(4), 4);
        let big = EngineConfig::standard().with_accounts(1_000);
        assert_eq!(big.account_count(4), 1_000);
    }

    #[test]
    #[should_panic(expected = "must cover every process")]
    fn account_count_below_n_rejected() {
        let _ = EngineConfig::standard().with_accounts(2).account_count(4);
    }

    #[test]
    fn backend_builders_and_labels() {
        assert_eq!(BroadcastBackend::default().label(), "bracha");
        assert_eq!(BroadcastBackend::signed_echo().label(), "echo");
        let signed_echo_ed = BroadcastBackend::SignedEcho {
            auth: AuthMode::Ed25519,
        };
        assert_eq!(signed_echo_ed.label(), "echo-ed25519");
        assert_eq!(BroadcastBackend::account_order().label(), "acctorder");
        let config = EngineConfig::standard().with_backend(BroadcastBackend::signed_echo());
        assert_eq!(config.backend, BroadcastBackend::signed_echo());
        let labels = BroadcastBackend::ALL.map(|backend| backend.label());
        assert_eq!(labels, ["bracha", "echo", "acctorder", "pbft"]);
    }
}
