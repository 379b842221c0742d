//! # at-sharedmem — the paper's shared-memory results, executable
//!
//! This crate implements Sections 2–4 of *The Consensus Number of a
//! Cryptocurrency*: the shared-memory substrate (atomic registers, the
//! wait-free atomic snapshot [`AfekSnapshot`], `k`-consensus objects) and
//! the three algorithms built on it:
//!
//! * [`figure1`] — wait-free asset transfer from atomic snapshots alone
//!   (consensus number **1**, Theorem 1);
//! * [`figure2`] — wait-free consensus among `k` processes from a single
//!   `k`-shared asset-transfer object (consensus number ≥ `k`, Lemma 1);
//! * [`figure3`] — a wait-free `k`-shared asset-transfer object from
//!   `k`-consensus objects and registers (consensus number ≤ `k`,
//!   Lemma 2).
//!
//! Together, Figures 2 and 3 pin the consensus number of a `k`-shared
//! asset-transfer object at exactly `k` (Theorem 2).
//!
//! Each object has one implementation. Figures 1 and 3 both publish
//! through [`AfekSnapshot`], each slot written only by its owning process,
//! so no process holds a lock across an operation that another must wait
//! for; the registers' short critical sections stand for the atomicity of
//! a memory word (see [`register`]).
//!
//! All objects implement [`object::SharedAssetTransfer`]; the
//! [`object::MutexAssetTransfer`] reference implementation doubles as the
//! linearizability oracle. [`harness`] runs randomized concurrent
//! workloads against any object and records [`at_model::History`]s for the
//! linearizability checker.
//!
//! # Example
//!
//! ```
//! use at_model::{AccountId, Amount, ProcessId};
//! use at_sharedmem::figure1::SnapshotAssetTransfer;
//! use at_sharedmem::object::SharedAssetTransfer;
//!
//! let object = SnapshotAssetTransfer::uniform(2, Amount::new(10));
//! assert!(object.transfer(
//!     ProcessId::new(0),
//!     AccountId::new(0),
//!     AccountId::new(1),
//!     Amount::new(3),
//! ));
//! assert_eq!(object.read(AccountId::new(1)), Amount::new(13));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod harness;
pub mod kconsensus;
pub mod object;
pub mod register;
pub mod snapshot;

pub use figure1::SnapshotAssetTransfer;
pub use figure2::TransferConsensus;
pub use figure3::KSharedAssetTransfer;
pub use kconsensus::{KConsensus, KConsensusList};
pub use object::{MutexAssetTransfer, SharedAssetTransfer};
pub use snapshot::AfekSnapshot;
