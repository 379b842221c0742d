//! # at-model — the asset-transfer object type
//!
//! This crate contains the *formal core* of the paper "The Consensus Number
//! of a Cryptocurrency" (Guerraoui et al., PODC 2019): the asset-transfer
//! sequential object type of Section 2.2, expressed as executable Rust.
//!
//! It provides:
//!
//! * strongly-typed identifiers ([`ProcessId`], [`AccountId`], [`Amount`],
//!   [`SeqNo`]) — see [`ids`];
//! * the [`Transfer`] operation record and per-operation metadata — see
//!   [`transfer`];
//! * the owner map `µ : A → 2^Π` ([`OwnerMap`]) that determines which
//!   processes may debit which account — see [`owner`];
//! * the sequential specification `Δ` as an executable reference model
//!   ([`Ledger`]) — see [`spec`];
//! * concurrent operation histories ([`History`]) recorded by test harnesses
//!   — see [`history`];
//! * a Wing–Gong style linearizability checker ([`check::linearizable`])
//!   that validates recorded histories against the sequential specification;
//! * a deterministic, canonical binary codec ([`codec`]) used for hashing
//!   and signing messages in the message-passing protocols.
//!
//! # Example
//!
//! ```
//! use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId};
//!
//! let alice = AccountId::new(0);
//! let bob = AccountId::new(1);
//! let p0 = ProcessId::new(0);
//!
//! let owners = OwnerMap::single_owner([(alice, p0)]);
//! let mut ledger = Ledger::new([(alice, Amount::new(10)), (bob, Amount::new(0))], owners);
//!
//! // p0 owns `alice` and has sufficient balance: the transfer succeeds.
//! assert!(ledger.transfer(p0, alice, bob, Amount::new(4)).is_ok());
//! assert_eq!(ledger.read(alice), Amount::new(6));
//! assert_eq!(ledger.read(bob), Amount::new(4));
//!
//! // Debiting an account the process does not own fails, per Δ.
//! assert!(ledger.transfer(p0, bob, alice, Amount::new(1)).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod codec;
pub mod error;
pub mod history;
pub mod ids;
pub mod owner;
pub mod spec;
pub mod transfer;

pub use check::{linearizable, CheckBudget, CheckOutcome};
pub use codec::{Decode, Encode, Reader, Writer};
pub use error::{CodecError, TransferError};
pub use history::{History, OpId, Operation, Response};
pub use ids::{AccountId, Amount, ProcessId, Round, SeqNo};
pub use owner::OwnerMap;
pub use spec::Ledger;
pub use transfer::{Transfer, TransferId, TransferMsg};
