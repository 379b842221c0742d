//! # at-broadcast — secure broadcast primitives
//!
//! Section 5 of the paper replaces consensus with a *secure broadcast*
//! providing Integrity, Agreement, Validity and Source Order; Section 6
//! strengthens source order to *account order*. This crate implements the
//! corresponding protocols as sans-I/O state machines, independent of the
//! simulator (they fill a [`types::Step`] with messages to send and
//! payloads to deliver). Each backend is a message enum, a per-instance
//! state and phase handlers over one crate-private instance table (see
//! [`secure`]); the fourth is the consensus baseline the paper compares
//! against, held to the same contract:
//!
//! * [`bracha`] — Bracha's reliable broadcast, the paper's "naive
//!   quadratic" implementation (reference [10]): 3 rounds, `O(n²)`
//!   messages, no signatures (authenticated channels);
//! * [`echo`] — signed-echo broadcast in the Malkhi–Reiter style
//!   (references [35, 36]): 2 round trips, `O(n)` sender messages plus
//!   certificates;
//! * [`account_order`] — the Section 6 modification whose
//!   acknowledgement rule enforces per-account sequencing even for
//!   compromised shared accounts;
//! * [`pbft`] — a PBFT-style atomic broadcast (reference \[13\]):
//!   [`PbftReplica`], the three-phase core over any replica group that
//!   Section 6 reuses as its per-account sequencer, and [`PbftBroadcast`],
//!   which releases its total order per source and so runs the
//!   consensus baseline wherever a secure broadcast runs;
//! * [`auth`] — pluggable signing ([`EdAuth`] real Ed25519 /
//!   [`NoAuth`] authenticated-channels model);
//! * [`secure`] — the [`SecureBroadcast`] trait unifying the four
//!   protocols behind one interface (the engine runtime is generic over
//!   it), plus the [`AccountOrderBackend`] adapter;
//! * [`types`] — delivery/step plumbing and the [`CryptoOps`]
//!   signature-work counters;
//! * [`wire`] — canonical [`at_model::codec`] encodings for every
//!   protocol message enum, so the state machines can ride a real byte
//!   transport (`at-node`) unchanged.
//!
//! # Example
//!
//! ```
//! use at_broadcast::bracha::{BrachaBroadcast, BrachaMsg};
//! use at_broadcast::types::Step;
//! use at_broadcast::SecureBroadcast;
//! use at_model::ProcessId;
//!
//! let mut sender: BrachaBroadcast<u64> = BrachaBroadcast::new(ProcessId::new(0), 4);
//! let mut step = Step::new();
//! let seq = sender.broadcast(42, &mut step);
//! assert_eq!(seq.value(), 1);
//! assert_eq!(step.outgoing.len(), 4); // INIT to all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account_order;
pub mod auth;
pub mod batch;
pub mod bracha;
pub mod echo;
mod instance;
pub mod pbft;
pub mod secure;
pub mod types;
pub mod wire;

pub use account_order::{AccountDelivery, AccountOrderBroadcast, AccountOrderMsg};
pub use auth::{Authenticator, BatchVerifyItem, EdAuth, NoAuth, ObservedAuth};
pub use batch::{Batch, Batcher};
pub use bracha::{BrachaBroadcast, BrachaMsg};
pub use echo::{EchoBroadcast, EchoMsg};
pub use pbft::{PbftBroadcast, PbftMsg, PbftReplica};
pub use secure::{AccountOrderBackend, SecureBroadcast, TraceExtract};
pub use types::{CryptoOps, Delivery, Outgoing, Step};
