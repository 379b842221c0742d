//! # at-core — the paper's message-passing algorithms, as written
//!
//! The practical contribution of *The Consensus Number of a
//! Cryptocurrency* (Sections 5–6), kept literal:
//!
//! * [`figure4`] — the paper's Figure 4 state machine (`seq`/`rec`/
//!   `hist`/`deps`/`toValidate` and the `Valid` predicate), independent
//!   of any particular broadcast. It is the **reference model**: the
//!   runtime that ships is `at_engine::Replica`, and
//!   `tests/tests/figure4_oracle.rs` replays every replica's delivery
//!   sequence into a fresh [`TransferState`] and holds the two to the
//!   same applied sets, balances and sequence numbers. The wire payload
//!   both consume ([`TransferMsg`]) lives in at-model and is re-exported
//!   here, so the runtime does not link its own oracle;
//! * [`kshared`] — the Section 6 extension: per-account owner-group BFT
//!   sequencing (one `at_broadcast::PbftReplica` per owner group — the
//!   same core the engine's consensus baseline runs over all processes)
//!   plus account-order broadcast, giving `k`-shared accounts whose
//!   compromise can block only themselves.
//!
//! # Example
//!
//! Three processes, each owning account `i` with 10 units. The state
//! machine consumes *delivered* messages; here every message is handed
//! to every process in the order it was issued, as a secure broadcast
//! would.
//!
//! ```
//! use at_core::{Applied, TransferState};
//! use at_model::{AccountId, Amount, ProcessId};
//!
//! let mut states: Vec<TransferState> = (0..3)
//!     .map(|i| TransferState::new(ProcessId::new(i), 3, Amount::new(10)))
//!     .collect();
//!
//! // Process 0 pays its whole balance to account 1 — no consensus
//! // involved.
//! let first = states[0]
//!     .submit(AccountId::new(1), Amount::new(10))
//!     .expect("funded");
//! for state in &mut states {
//!     state.on_deliver(ProcessId::new(0), first.clone());
//! }
//!
//! // Process 1 can now spend 15: the incoming credit travels with the
//! // transfer as a dependency, so every process validates it.
//! let second = states[1]
//!     .submit(AccountId::new(2), Amount::new(15))
//!     .expect("funded by the credit");
//! assert_eq!(second.deps, vec![first.transfer]);
//! for state in &mut states {
//!     let applied = state.on_deliver(ProcessId::new(1), second.clone());
//!     assert!(applied.contains(&Applied::Transfer(second.transfer)));
//! }
//! assert_eq!(states[0].observed_balance(AccountId::new(2)), Amount::new(25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure4;
pub mod kshared;

pub use figure4::{Applied, TransferMsg, TransferState};
pub use kshared::{KEvent, KMsg, KPayload, KSharedReplica};
