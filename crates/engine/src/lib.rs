//! # at-engine — the batched payment-engine runtime
//!
//! The paper ("The Consensus Number of a Cryptocurrency", PODC 2019)
//! proves asset transfer has consensus number 1: transfers debiting
//! different accounts need no mutual ordering. This crate turns that
//! result into a production-shaped runtime above `at-broadcast` and below
//! `at-node`, with three pillars:
//!
//! * **a materialized account-state engine over pluggable broadcast
//!   backends** ([`shard`], [`replica`], [`config`]) — validation is an
//!   `O(1)` balance lookup instead of a history recomputation, broadcast
//!   streams and replica state are kept per source, submitted transfers
//!   ship in [`at_broadcast::Batch`]es that amortize the broadcast cost,
//!   and the broadcast itself is selectable per Section 5's observation
//!   that the abstraction, not the implementation, carries the result:
//!   Bracha (`O(n²)`, signature-free), signed echo (`O(n)` sender cost,
//!   optionally with real Ed25519 certificates), the Section 6
//!   account-order broadcast, or — the consensus baseline, through the
//!   same seam — a PBFT total order. [`BroadcastBackend`] is the only
//!   name for a backend: [`BroadcastBackend::build`] turns one into
//!   endpoints for the driver, the explorer and the chaos runner alike;
//! * **a scenario DSL** ([`scenario`], [`suite`]) — workloads (uniform,
//!   hot-spot, many-to-one, mixes) composed with adversaries
//!   (equivocating double-spenders, overspenders, silent processes) and
//!   network faults (partitions, lossy and slow links) on top of
//!   [`at_net::Simulation`], all fully deterministic per seed;
//! * **an engine driver API** ([`driver`]) — the [`Engine`] trait with
//!   [`ConsensuslessEngine`] (the PBFT baseline is that engine over
//!   [`BroadcastBackend::Pbft`]), so benches, examples, and tests drive
//!   one code path and produce comparable [`ScenarioReport`]s, whose
//!   safety fields come from the one validator battery ([`probe`]) the
//!   explorer and the chaos runner apply to their runs too.
//!
//! # Example
//!
//! The same scenario runs unchanged on every broadcast backend; only the
//! cost profile moves:
//!
//! ```
//! use at_engine::{BroadcastBackend, ConsensuslessEngine, Engine, EngineConfig, Scenario};
//!
//! let scenario = Scenario::new("quick", 4).waves(2).seed(1);
//! let mut digests = Vec::new();
//! for backend in [
//!     BroadcastBackend::Bracha,          // 3 delays, O(n²) msgs, no signatures
//!     BroadcastBackend::signed_echo(),   // 2 round trips, O(n) sender msgs
//!     BroadcastBackend::account_order(), // Section 6, per-account sequencing
//! ] {
//!     let engine = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend));
//!     let report = engine.run(&scenario);
//!     assert_eq!(report.completed, 8); // 4 processes × 2 waves
//!     assert_eq!(report.conflicts, 0);
//!     assert!(report.agreed);
//!     digests.push(report.balance_digest);
//! }
//! // All backends converge to the same balances.
//! assert!(digests.windows(2).all(|w| w[0] == w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod driver;
pub mod probe;
pub mod replica;
pub mod scenario;
pub mod shard;
pub mod snapshot;
pub mod suite;

pub use adversary::EngineActor;
pub use config::{AuthMode, BackendVisitor, BatchPolicy, BroadcastBackend, EngineConfig};
pub use driver::{ConsensuslessEngine, Engine};
pub use probe::{
    check_fifo_contract, history_from_events, rejections_locally_justified, validate_recorded,
    Failure, FailureKind, RecordedRun, TimedEvent,
};
pub use replica::{
    DefaultEngineBroadcast, DropDiagnostic, DropReason, EngineEvent, EngineMsg, EnginePayload,
    ShardedReplica,
};
pub use scenario::{Adversary, Fault, NetProfile, Scenario, ScenarioReport, Workload};
pub use shard::{ShardError, ShardedLedger};
pub use snapshot::LedgerSnapshot;
pub use suite::{format_reports, run_suite, standard_suite};
