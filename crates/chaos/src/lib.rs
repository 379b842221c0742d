//! # at-chaos — nemesis fault injection for live clusters
//!
//! at-check model-checks the engine inside the deterministic simulator;
//! this crate closes the remaining gap to the real runtime: it drives a
//! *live* at-node cluster — OS threads, wall clocks, clients on real
//! sockets speaking the versioned wire protocol, and peers wired over
//! TCP or the in-process channel mesh under one run body
//! ([`run_chaos`]) — through seeded
//! nemesis schedules of partitions, wire loss, duplication, delay,
//! forced disconnects, warm crash/restarts, and batch-timer skew, while
//! an [`at_node::EventProbe`] records the complete client-visible
//! history and per-replica delivery logs. After heal-and-drain, the
//! recording goes through the **same validator battery** the schedule
//! explorer applies to simulated executions
//! ([`at_check::validate_recorded`]): bounded linearizability of the
//! client history, the per-source FIFO-exactly-once broadcast contract,
//! conflict-freedom, digest agreement, supply conservation — plus the
//! live-cluster obligations that every injected fault was *masked*, not
//! absorbed as loss (`dropped_frames() == 0`) and that no
//! acknowledgement vanished without a crash.
//!
//! Schedules are pure functions of their seed
//! ([`generate_schedule`]), so any violation reproduces from its
//! `(backend, transport, seed)` row: the soak in `tests/chaos_runs.rs`
//! runs seeded schedules against all three backends, and a failing run
//! prints [`ChaosReport::counterexample`] — the row to pin included.
//!
//! # Example
//!
//! ```no_run
//! use at_chaos::{run_seeded, ChaosConfig, ChaosTransport};
//!
//! let config = ChaosConfig::default();
//! let report = run_seeded(&config, "echo", ChaosTransport::Tcp, 42);
//! assert!(report.violations.is_empty(), "{:?}", report.violations);
//! assert!(report.converged);
//! assert_eq!(report.dropped_frames, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nemesis;
pub mod runner;

pub use nemesis::{format_nemesis_schedule, generate_schedule, NemesisChoice};
pub use runner::{
    run_chaos, run_seeded, run_with_schedule, ChaosConfig, ChaosReport, ChaosTransport,
};
