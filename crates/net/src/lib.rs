//! # at-net — deterministic discrete-event network simulation
//!
//! The paper's evaluation (Section 5) ran a deployment of up to 100
//! processes; this crate provides the laptop-scale substitute: a
//! deterministic discrete-event simulator with configurable link
//! latency and per-event processing cost.
//!
//! * [`VirtualTime`] — microsecond-resolution virtual clock;
//! * [`NetConfig`] / [`LatencyModel`] — link latency (uniform jitter),
//!   CPU cost per handled event, RNG seed;
//! * [`Actor`] — a single-threaded protocol participant (message and
//!   timer handlers);
//! * [`Simulation`] — the event loop: deterministic, crash-injectable,
//!   command-injectable, with message statistics;
//! * [`Transport`] — the reliable frame-mesh abstraction a *real*
//!   runtime implements to carry the same actors over OS threads and
//!   sockets (implementations live in `at-node`; [`Context::detached`]
//!   is the matching hook for driving an [`Actor`] outside the
//!   simulator). An endpoint counts its traffic in its node's at-obs
//!   registry ([`TransportCounters`]), the one place a count lives.
//!
//! Byzantine behaviour is modelled *in the actors* (an equivocating
//! process simply is a different actor implementation); the network is
//! reliable, matching the asynchronous reliable-channel assumption of the
//! paper's broadcast layer.
//!
//! # Example
//!
//! ```
//! use at_model::ProcessId;
//! use at_net::{Actor, Context, NetConfig, Simulation};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     type Event = u32;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
//!         if ctx.me() == ProcessId::new(0) {
//!             ctx.send(ProcessId::new(1), 7);
//!         }
//!     }
//!     fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
//!         ctx.emit(msg);
//!     }
//! }
//!
//! let mut sim = Simulation::new(vec![Echo, Echo], NetConfig::lan(0));
//! sim.run_until_quiet(100);
//! let events = sim.take_events();
//! assert_eq!(events.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod inbox;
pub mod sim;
pub mod time;
pub mod transport;
pub mod wake;

pub use config::{LatencyModel, NetConfig};
pub use inbox::Inbox;
pub use sim::{
    Actor, Context, ContextOutputs, EntryKind, LinkFault, PendingEntry, SimStats, Simulation,
};
pub use time::VirtualTime;
pub use transport::{
    FaultInjector, InboundFrame, LinkProfile, LinkVerdict, RecvOutcome, Transport,
    TransportCounters,
};
pub use wake::Waker;
