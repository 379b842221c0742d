//! # at-check — deterministic schedule exploration for the engine
//!
//! The paper's core claim is that asset transfer needs no consensus
//! because *every* reachable execution of the broadcast-based protocol
//! linearizes against the sequential asset-transfer specification. A
//! conventional test exercises one delivery schedule per seed; this crate
//! model-checks the claim by systematically exploring **many** schedules
//! of the same small system and checking, after each one, that
//!
//! 1. the recorded client history is linearizable
//!    ([`at_model::linearizable_bounded`]),
//! 2. every secure-broadcast backend upheld its per-source
//!    FIFO-exactly-once delivery contract, and
//! 3. correct replicas converged (digest agreement, no conflicting
//!    `(source, seq)` applications, conserved supply).
//!
//! The checks are at-engine's one validator battery
//! ([`validate_recorded`], re-exported here with its [`RecordedRun`] and
//! [`Failure`]), the same one the live-cluster chaos runner applies, and
//! a backend is named the one way the engine names it: [`explore`] takes
//! an [`at_engine::BroadcastBackend`].
//!
//! The explorer drives [`at_net::Simulation`] through its
//! schedule-controller hook ([`at_net::Simulation::pending`] /
//! [`at_net::Simulation::step_entry`]): a seeded random-walk sampler plus
//! a bounded DFS with sleep-set-style pruning of commutative deliveries.
//! Schedules are recorded as replayable [`Choice`] lists, so every
//! [`Counterexample`] reproduces bit-for-bit.
//!
//! The `broken` feature adds three seeded mutations (a quorum
//! off-by-one, a FIFO-violating delivery wrapper, PBFT forgetting the
//! votes that overtake a pre-prepare) that CI runs through the generic
//! `explore_with` to prove the harness actually catches bugs — see
//! [`broken`].
//!
//! # Example
//!
//! ```
//! use at_check::{explore, standard_check_scenarios, ExploreBudget};
//! use at_engine::BroadcastBackend;
//!
//! let scenarios = standard_check_scenarios();
//! let budget = ExploreBudget::quick();
//! let report = explore(&scenarios[0], BroadcastBackend::Bracha, &budget);
//! // Many distinct interleavings, zero violations of the AT spec.
//! assert!(report.distinct_schedules >= 4);
//! assert!(report.violations.is_empty());
//! assert_eq!(report.unknown, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "broken")]
pub mod broken;
pub mod explorer;
pub mod harness;

pub use at_engine::probe::{validate_recorded, Failure, FailureKind, RecordedRun};
pub use explorer::{
    apply_choice, dfs_schedules, format_schedule, random_schedule, replay, Choice, CrashPlan,
    Schedule,
};
pub use harness::{
    explore, standard_check_scenarios, CheckScenario, Counterexample, ExplorationReport,
    ExploreBudget,
};
