//! # at-obs — zero-dependency observability for the runtime
//!
//! The ROADMAP's perf tentpoles all start with *where does the time
//! go?* This crate is the measurement floor that question is answered
//! on: lock-free atomic [`Counter`]s and [`Gauge`]s, log-bucketed
//! latency [`Histogram`]s with *sound* quantile bounds (the reported
//! p50/p99/p999 are intervals guaranteed to contain the true sample
//! quantile, never a point estimate that could lie), and a per-node
//! [`Registry`] cheap enough to stay on in release benches.
//!
//! Everything is hand-rolled on `std::sync::atomic` — no crates.io
//! dependencies — and the hot recording path is a handful of `Relaxed`
//! atomic RMWs: no locks, no allocation, no branches on contended
//! state. Registration (name → handle resolution) takes a mutex once;
//! callers hold the returned `Arc` handles and record lock-free
//! thereafter. The [`Recorder`] bundles the pre-resolved [`Stage`]
//! histograms for the request path so instrumented code never touches
//! the registry map at runtime.
//!
//! # Metric naming scheme
//!
//! `<subsystem>_<what>[_<unit>]`, snake_case:
//!
//! * counters end in `_total` (`node_frames_in_total`);
//! * gauges carry the bare quantity (`engine_pending`);
//! * histograms end in their unit, microseconds throughout the stage
//!   spans (`stage_apply_us`).
//!
//! Stage-span histograms all share the `stage_` prefix and are
//! enumerated by [`Stage`], so a rendering of any node lines up
//! column-for-column with any other node.
//!
//! # Snapshots
//!
//! [`Registry::snapshot`] captures every metric into a plain
//! [`Snapshot`] value that implements the workspace codec
//! ([`at_model::codec::Encode`]/[`Decode`](at_model::codec::Decode))
//! — that is what `at-node` ships over the wire for `Client::stats()` —
//! and
//! [`Registry::render`] (or [`Snapshot::render`]) formats it as the
//! text block a chaos counterexample embeds per node.
//!
//! # Tracing
//!
//! The [`trace`](crate::Tracer) layer complements the aggregate
//! histograms with causal per-transfer forensics: a sampling-gated
//! [`TraceCtx`] minted at gateway ingress rides the broadcast payload
//! across the cluster, every node records protocol-step
//! [`TraceEvent`]s into a lock-free ring, and [`merge_traces`] aligns
//! the scraped per-node [`TraceLog`]s on a shared epoch clock into
//! renderable per-transfer [`TraceTimeline`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod recorder;
mod registry;
mod snapshot;
mod trace;

pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKET_COUNT};
pub use recorder::{Recorder, Stage, CLOCK_ANOMALY_THRESHOLD_US};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::{HistogramSnapshot, MetricValue, NamedHistogram, Snapshot};
pub use trace::{
    merge_traces, TraceConfig, TraceCtx, TraceEvent, TraceEventKind, TraceLog, TraceTimeline,
    Tracer, TRACE_GAP_ANNOTATION_US,
};
