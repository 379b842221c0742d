//! Causal per-transfer tracing: the forensic complement to the
//! aggregate stage histograms.
//!
//! [`crate::Recorder`] answers "what does the p99 look like"; this
//! module answers "where did *that* transfer spend its 69 ms". A
//! compact [`TraceCtx`] (trace id + origin node + hop count) is minted
//! at gateway ingress — sampling-gated so the hot path keeps parity —
//! and carried through the broadcast payload on the wire. Every node
//! that touches a traced transfer records [`TraceEvent`]s (ingress,
//! batch-join, the protocol's send/echo/ready/deliver steps, the
//! certificate verify span, apply, ack) into a fixed-size lock-free
//! ring buffer ([`Tracer`]), each stamped in microseconds against a
//! cluster-shared epoch. Scraping every node's ring yields per-node
//! [`TraceLog`]s; [`merge_traces`] aligns them on that common clock and
//! reconstructs each transfer's message DAG as a renderable
//! [`TraceTimeline`].
//!
//! The ring is a per-slot seqlock built entirely from `AtomicU64`s (no
//! unsafe, no locks): writers claim a ticket with one `fetch_add`,
//! publish the slot odd/even, and never wait; readers retry torn slots.
//! A full ring evicts the oldest events and counts them in
//! [`TraceLog::dropped`] — tracing degrades by forgetting history, never
//! by blocking the protocol.

use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::CodecError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many low bits of a trace id hold the per-origin mint counter
/// (the bits above them hold the origin node id).
const TRACE_COUNTER_BITS: u32 = 40;

/// Slow-transfer credits armed by [`Tracer::mark_slow`]: once the
/// gateway observes an end-to-end time over the threshold, the next
/// this-many ingresses are traced unconditionally, so the tail that
/// exceeded the histogram bound is captured even between samples.
const SLOW_CREDITS: u64 = 32;

/// Consecutive-event spacing beyond which a rendered timeline annotates
/// a gap (a crash window, a partition, a stalled link — anything that
/// left the transfer waiting).
pub const TRACE_GAP_ANNOTATION_US: u64 = 10_000;

/// The compact causal context a traced transfer carries on the wire:
/// 13 encoded bytes riding the broadcast payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Cluster-unique trace id: `origin << 40 | mint counter`.
    pub id: u64,
    /// The node whose gateway minted the context.
    pub origin: u32,
    /// Hops the context has taken from the origin (incremented at each
    /// receipt from a different process).
    pub hops: u8,
}

impl TraceCtx {
    /// The context one hop further from the origin.
    #[must_use]
    pub fn hopped(self) -> TraceCtx {
        TraceCtx {
            hops: self.hops.saturating_add(1),
            ..self
        }
    }

    /// The origin node encoded in a bare trace id.
    pub fn origin_of(id: u64) -> u32 {
        (id >> TRACE_COUNTER_BITS) as u32
    }
}

impl Encode for TraceCtx {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_u32(self.origin);
        w.put_u8(self.hops);
    }
}

impl Decode for TraceCtx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TraceCtx {
            id: r.take_u64()?,
            origin: r.take_u32()?,
            hops: r.take_u8()?,
        })
    }
}

/// A protocol step a traced transfer passed through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// The gateway read the client request off the socket.
    Ingress = 0,
    /// The transfer joined a replica batch that already carried (or now
    /// carries) the trace context.
    BatchJoin = 1,
    /// The backend sent the initial broadcast round for the batch.
    Send = 2,
    /// The backend emitted its echo/ack round for the batch.
    Echo = 3,
    /// The backend reached its quorum round (READY / FINAL certificate).
    Ready = 4,
    /// The backend delivered the batch to the replica.
    Deliver = 5,
    /// Certificate verification began.
    VerifyStart = 6,
    /// Certificate verification finished.
    VerifyEnd = 7,
    /// The replica applied the transfer to the ledger.
    Apply = 8,
    /// The node acknowledged the client (arg = end-to-end µs).
    Ack = 9,
}

impl TraceEventKind {
    /// All kinds, in protocol order.
    pub const ALL: [TraceEventKind; 10] = [
        TraceEventKind::Ingress,
        TraceEventKind::BatchJoin,
        TraceEventKind::Send,
        TraceEventKind::Echo,
        TraceEventKind::Ready,
        TraceEventKind::Deliver,
        TraceEventKind::VerifyStart,
        TraceEventKind::VerifyEnd,
        TraceEventKind::Apply,
        TraceEventKind::Ack,
    ];

    /// The timeline label.
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::Ingress => "ingress",
            TraceEventKind::BatchJoin => "batch-join",
            TraceEventKind::Send => "send",
            TraceEventKind::Echo => "echo",
            TraceEventKind::Ready => "ready",
            TraceEventKind::Deliver => "deliver",
            TraceEventKind::VerifyStart => "verify-start",
            TraceEventKind::VerifyEnd => "verify-end",
            TraceEventKind::Apply => "apply",
            TraceEventKind::Ack => "ack",
        }
    }

    fn from_u8(v: u8) -> Option<TraceEventKind> {
        TraceEventKind::ALL.get(v as usize).copied()
    }
}

/// One recorded protocol step of one traced transfer on one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace_id: u64,
    /// Microseconds since the cluster-shared epoch.
    pub at_us: u64,
    /// The node that recorded the event.
    pub node: u32,
    /// Which protocol step.
    pub kind: TraceEventKind,
    /// Hop count of the context at the event.
    pub hops: u8,
    /// Step-specific argument (e.g. batch size for `BatchJoin`,
    /// certificate shares for the verify span, end-to-end µs for `Ack`).
    pub arg: u64,
}

impl Encode for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.trace_id);
        w.put_u64(self.at_us);
        w.put_u32(self.node);
        w.put_u8(self.kind as u8);
        w.put_u8(self.hops);
        w.put_u64(self.arg);
    }
}

impl Decode for TraceEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let trace_id = r.take_u64()?;
        let at_us = r.take_u64()?;
        let node = r.take_u32()?;
        let kind_byte = r.take_u8()?;
        let kind = TraceEventKind::from_u8(kind_byte).ok_or(CodecError::InvalidTag {
            type_name: "TraceEventKind",
            tag: kind_byte,
        })?;
        Ok(TraceEvent {
            trace_id,
            at_us,
            node,
            kind,
            hops: r.take_u8()?,
            arg: r.take_u64()?,
        })
    }
}

/// One node's scraped trace ring: the events still resident, plus how
/// many older ones the ring evicted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// The node the ring belongs to.
    pub node: u32,
    /// Resident events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring wrap-around before this scrape.
    pub dropped: u64,
}

impl Encode for TraceLog {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.node);
        w.put_u64(self.events.len() as u64);
        for event in &self.events {
            event.encode(w);
        }
        w.put_u64(self.dropped);
    }
}

impl Decode for TraceLog {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let node = r.take_u32()?;
        let len = r.take_seq_len()?;
        // Untrusted input: never allocate proportional to a declared
        // length the bytes cannot back.
        let mut events = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            events.push(TraceEvent::decode(r)?);
        }
        Ok(TraceLog {
            node,
            events,
            dropped: r.take_u64()?,
        })
    }
}

/// Shape of a node's tracing plane: sampling policy, ring capacity, and
/// the cluster-shared epoch every event timestamp counts from.
///
/// `Copy`, so it embeds in node configs and survives a warm restart
/// unchanged — a restarted incarnation keeps stamping against the same
/// epoch, which is what lets [`merge_traces`] align a transfer that
/// spans the crash.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Trace one in this many gateway ingresses (0 disables sampling;
    /// 1 traces everything).
    pub sample_every: u32,
    /// End-to-end µs beyond which the gateway marks the transfer slow
    /// and arms always-on tracing for the next ingresses.
    pub slow_threshold_us: u64,
    /// Ring capacity in events (rounded up to a power of two).
    pub capacity: usize,
    /// The cluster-shared clock origin.
    pub epoch: Instant,
}

impl TraceConfig {
    /// The default sampling shape: 1-in-64 plus the slow-transfer gate,
    /// with a 4096-event ring.
    pub fn sampled() -> TraceConfig {
        TraceConfig {
            sample_every: 64,
            slow_threshold_us: 20_000,
            capacity: 4096,
            epoch: Instant::now(),
        }
    }

    /// Trace every transfer (chaos forensics; not for throughput runs).
    pub fn always() -> TraceConfig {
        TraceConfig {
            sample_every: 1,
            ..TraceConfig::sampled()
        }
    }
}

/// One seqlock-guarded ring slot. `seq` is odd while a writer owns the
/// slot and `2 * ticket + 2` once the event at `ticket` is published;
/// readers accept a slot only when `seq` reads even, nonzero, and
/// identical before and after the payload words.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

struct TracerInner {
    node: u32,
    epoch: Instant,
    sample_every: u32,
    slow_threshold_us: u64,
    /// Next write ticket; `ticket % slots.len()` is the slot index.
    head: AtomicU64,
    slots: Vec<Slot>,
    /// Gateway mint counter (also the low bits of minted ids).
    minted: AtomicU64,
    /// Remaining always-on ingresses armed by a slow transfer.
    slow_credits: AtomicU64,
}

/// The per-node trace recorder: a cloneable handle over the lock-free
/// event ring. Recording is wait-free for writers (one `fetch_add` plus
/// six relaxed stores); [`Tracer::log`] snapshots the resident events
/// without stopping them.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer for `node` with the given sampling/ring shape.
    pub fn new(node: u32, config: TraceConfig) -> Tracer {
        let capacity = config.capacity.max(2).next_power_of_two();
        Tracer {
            inner: Arc::new(TracerInner {
                node,
                epoch: config.epoch,
                sample_every: config.sample_every,
                slow_threshold_us: config.slow_threshold_us,
                head: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::empty()).collect(),
                minted: AtomicU64::new(0),
                slow_credits: AtomicU64::new(0),
            }),
        }
    }

    /// The node this tracer records for.
    pub fn node(&self) -> u32 {
        self.inner.node
    }

    /// The end-to-end threshold beyond which the gateway should call
    /// [`Tracer::mark_slow`].
    pub fn slow_threshold_us(&self) -> u64 {
        self.inner.slow_threshold_us
    }

    /// Microseconds since the cluster-shared epoch.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Sampling gate at gateway ingress: mints a fresh [`TraceCtx`] for
    /// one in `sample_every` transfers, or unconditionally while
    /// slow-transfer credits are armed. Returns `None` for transfers
    /// that ride untraced.
    pub fn maybe_mint(&self) -> Option<TraceCtx> {
        let k = self.inner.minted.fetch_add(1, Ordering::Relaxed);
        let sampled =
            self.inner.sample_every != 0 && k.is_multiple_of(u64::from(self.inner.sample_every));
        let slow = !sampled
            && self
                .inner
                .slow_credits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |credits| {
                    credits.checked_sub(1)
                })
                .is_ok();
        if !(sampled || slow) {
            return None;
        }
        Some(TraceCtx {
            id: (u64::from(self.inner.node) << TRACE_COUNTER_BITS)
                | (k & ((1 << TRACE_COUNTER_BITS) - 1)),
            origin: self.inner.node,
            hops: 0,
        })
    }

    /// Arms `SLOW_CREDITS` always-on ingresses; the gateway calls this
    /// when a completed transfer's end-to-end time exceeded
    /// [`TraceConfig::slow_threshold_us`], so the regime that produced
    /// the outlier is captured in full.
    pub fn mark_slow(&self) {
        self.inner
            .slow_credits
            .store(SLOW_CREDITS, Ordering::Relaxed);
    }

    /// Records one protocol-step event for `ctx` (wait-free; evicts the
    /// oldest event when the ring is full).
    pub fn record(&self, ctx: TraceCtx, kind: TraceEventKind, arg: u64) {
        self.record_at(ctx, kind, arg, self.now_us());
    }

    /// [`Tracer::record`] with an explicit timestamp (tests and spans
    /// whose start was stamped earlier).
    pub fn record_at(&self, ctx: TraceCtx, kind: TraceEventKind, arg: u64, at_us: u64) {
        let inner = &self.inner;
        let ticket = inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(ticket as usize) & (inner.slots.len() - 1)];
        // Seqlock write: odd while in flight, even (and ticket-tagged)
        // once published. A reader that raced us sees a seq mismatch
        // and discards the slot.
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.words[0].store(ctx.id, Ordering::Relaxed);
        slot.words[1].store(at_us, Ordering::Relaxed);
        slot.words[2].store(
            u64::from(inner.node) | (u64::from(kind as u8) << 32) | (u64::from(ctx.hops) << 40),
            Ordering::Relaxed,
        );
        slot.words[3].store(arg, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Snapshots the resident events as a wire-codable [`TraceLog`]
    /// (sorted by timestamp), counting ring-evicted events as dropped.
    pub fn log(&self) -> TraceLog {
        let inner = &self.inner;
        let head = inner.head.load(Ordering::Acquire);
        let capacity = inner.slots.len() as u64;
        let mut events = Vec::new();
        for slot in &inner.slots {
            // Retry torn reads a few times; a slot rewritten mid-read
            // more times than that is being overwritten so fast its
            // event is effectively evicted anyway.
            for _ in 0..4 {
                let seq1 = slot.seq.load(Ordering::Acquire);
                if seq1 == 0 || seq1 % 2 == 1 {
                    break; // never written, or write in flight
                }
                let words = [
                    slot.words[0].load(Ordering::Relaxed),
                    slot.words[1].load(Ordering::Relaxed),
                    slot.words[2].load(Ordering::Relaxed),
                    slot.words[3].load(Ordering::Relaxed),
                ];
                let seq2 = slot.seq.load(Ordering::Acquire);
                if seq1 != seq2 {
                    continue; // torn: a writer landed mid-read
                }
                let kind = TraceEventKind::from_u8(((words[2] >> 32) & 0xFF) as u8)
                    .expect("ring slots only ever hold valid kinds");
                events.push(TraceEvent {
                    trace_id: words[0],
                    at_us: words[1],
                    node: (words[2] & 0xFFFF_FFFF) as u32,
                    kind,
                    hops: ((words[2] >> 40) & 0xFF) as u8,
                    arg: words[3],
                });
                break;
            }
        }
        events.sort_by_key(|e| (e.at_us, e.kind));
        TraceLog {
            node: inner.node,
            events,
            dropped: head.saturating_sub(capacity),
        }
    }
}

/// One transfer's merged, cluster-wide timeline: every node's events
/// for one trace id, aligned on the shared epoch clock.
#[derive(Clone, Debug)]
pub struct TraceTimeline {
    /// The trace id.
    pub id: u64,
    /// The node whose gateway minted the trace.
    pub origin: u32,
    /// Events from every scraped node, sorted by `(at_us, node, kind)`.
    pub events: Vec<TraceEvent>,
    /// End-to-end µs, read from the `Ack` event (the same value the
    /// origin node fed the `stage_e2e_us` histogram).
    pub e2e_us: Option<u64>,
    /// True when the timeline lacks its `Ingress` or `Ack` endpoint —
    /// an undelivered transfer, or one whose edges were ring-evicted.
    pub incomplete: bool,
}

impl TraceTimeline {
    /// The timeline as indented text: one header, then one line per
    /// event with microseconds relative to the first, annotating gaps
    /// longer than [`TRACE_GAP_ANNOTATION_US`] (crash windows,
    /// partitions) and missing endpoints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "trace {:#x} origin n{} events {}",
            self.id,
            self.origin,
            self.events.len()
        );
        if let Some(e2e) = self.e2e_us {
            let _ = write!(out, " e2e {e2e}µs");
        }
        if self.incomplete {
            out.push_str(" INCOMPLETE");
        }
        out.push('\n');
        let base = self.events.first().map_or(0, |e| e.at_us);
        let mut prev = base;
        for event in &self.events {
            let _ = write!(
                out,
                "  +{:>8}µs n{} {:<12} hops={}",
                event.at_us - base,
                event.node,
                event.kind.label(),
                event.hops
            );
            if event.arg != 0 {
                let _ = write!(out, " arg={}", event.arg);
            }
            let delta = event.at_us.saturating_sub(prev);
            if delta > TRACE_GAP_ANNOTATION_US {
                let _ = write!(out, "  <-- gap {delta}µs");
            }
            prev = event.at_us;
            out.push('\n');
        }
        out
    }
}

/// Merges per-node [`TraceLog`]s into per-transfer timelines: groups
/// every scraped event by trace id, sorts each group on the shared
/// epoch clock (per-node streams may arrive in any order), and flags
/// timelines whose `Ingress`/`Ack` endpoints are missing. Timelines are
/// returned sorted by trace id.
pub fn merge_traces(logs: &[TraceLog]) -> Vec<TraceTimeline> {
    let mut by_id: std::collections::BTreeMap<u64, Vec<TraceEvent>> =
        std::collections::BTreeMap::new();
    for log in logs {
        for event in &log.events {
            by_id.entry(event.trace_id).or_default().push(*event);
        }
    }
    by_id
        .into_iter()
        .map(|(id, mut events)| {
            events.sort_by_key(|e| (e.at_us, e.node, e.kind));
            events.dedup();
            let e2e_us = events
                .iter()
                .rev()
                .find(|e| e.kind == TraceEventKind::Ack)
                .map(|e| e.arg);
            let incomplete =
                !events.iter().any(|e| e.kind == TraceEventKind::Ingress) || e2e_us.is_none();
            TraceTimeline {
                id,
                origin: TraceCtx::origin_of(id),
                events,
                e2e_us,
                incomplete,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_model::codec::{decode, encode};

    fn test_config(capacity: usize, sample_every: u32) -> TraceConfig {
        TraceConfig {
            sample_every,
            slow_threshold_us: 1_000,
            capacity,
            epoch: Instant::now(),
        }
    }

    fn ctx(id: u64) -> TraceCtx {
        TraceCtx {
            id,
            origin: TraceCtx::origin_of(id),
            hops: 0,
        }
    }

    #[test]
    fn ctx_and_events_roundtrip_the_codec() {
        let c = TraceCtx {
            id: (3u64 << 40) | 77,
            origin: 3,
            hops: 2,
        };
        assert_eq!(decode::<TraceCtx>(&encode(&c)).unwrap(), c);
        assert_eq!(TraceCtx::origin_of(c.id), 3);

        let log = TraceLog {
            node: 1,
            events: vec![TraceEvent {
                trace_id: c.id,
                at_us: 123,
                node: 1,
                kind: TraceEventKind::Deliver,
                hops: 1,
                arg: 4,
            }],
            dropped: 9,
        };
        assert_eq!(decode::<TraceLog>(&encode(&log)).unwrap(), log);
    }

    #[test]
    fn bogus_event_kind_is_rejected_not_panicked() {
        let mut bytes = encode(&TraceEvent {
            trace_id: 1,
            at_us: 2,
            node: 3,
            kind: TraceEventKind::Ack,
            hops: 0,
            arg: 0,
        });
        // kind byte sits after trace_id (8) + at_us (8) + node (4).
        bytes[20] = 0xEE;
        assert!(decode::<TraceEvent>(&bytes).is_err());
    }

    #[test]
    fn sampling_mints_one_in_n_plus_slow_credits() {
        let tracer = Tracer::new(0, test_config(64, 4));
        let minted: Vec<bool> = (0..8).map(|_| tracer.maybe_mint().is_some()).collect();
        assert_eq!(
            minted,
            [true, false, false, false, true, false, false, false]
        );
        tracer.mark_slow();
        // Every ingress traced while the slow credits last.
        assert!((0..8).all(|_| tracer.maybe_mint().is_some()));
        // Distinct ids even across the sampled/slow regimes.
        let a = Tracer::new(2, test_config(64, 1));
        let first = a.maybe_mint().unwrap();
        let second = a.maybe_mint().unwrap();
        assert_ne!(first.id, second.id);
        assert_eq!(first.origin, 2);
        assert_eq!(TraceCtx::origin_of(second.id), 2);
    }

    #[test]
    fn disabled_sampling_mints_nothing() {
        let tracer = Tracer::new(0, test_config(64, 0));
        assert!((0..32).all(|_| tracer.maybe_mint().is_none()));
        tracer.mark_slow();
        assert!(tracer.maybe_mint().is_some(), "slow gate works regardless");
    }

    #[test]
    fn ring_keeps_newest_events_and_counts_evictions() {
        let tracer = Tracer::new(0, test_config(8, 1));
        for i in 0..20u64 {
            tracer.record_at(ctx(1), TraceEventKind::Echo, i, i);
        }
        let log = tracer.log();
        assert_eq!(log.events.len(), 8);
        assert_eq!(log.dropped, 12);
        // Eviction is strictly oldest-first: the survivors are the tail.
        let args: Vec<u64> = log.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let tracer = Tracer::new(0, test_config(256, 1));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        // Per-writer invariant: arg == at_us == i, and the
                        // id tags the writer — torn slots would mix them.
                        tracer.record_at(ctx(t + 1), TraceEventKind::Apply, i, i);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for event in tracer.log().events {
                assert_eq!(event.arg, event.at_us, "torn slot escaped the seqlock");
                assert!((1..=4).contains(&event.trace_id));
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let final_log = tracer.log();
        assert_eq!(final_log.events.len(), 256);
        assert_eq!(final_log.dropped, 4 * 2_000 - 256);
    }

    #[test]
    fn merger_aligns_out_of_order_streams() {
        let id = (1u64 << 40) | 5;
        // Node 2's scrape arrives first and its events are shuffled.
        let node2 = TraceLog {
            node: 2,
            events: vec![
                TraceEvent {
                    trace_id: id,
                    at_us: 300,
                    node: 2,
                    kind: TraceEventKind::Deliver,
                    hops: 1,
                    arg: 0,
                },
                TraceEvent {
                    trace_id: id,
                    at_us: 150,
                    node: 2,
                    kind: TraceEventKind::Echo,
                    hops: 1,
                    arg: 0,
                },
            ],
            dropped: 0,
        };
        let node1 = TraceLog {
            node: 1,
            events: vec![
                TraceEvent {
                    trace_id: id,
                    at_us: 100,
                    node: 1,
                    kind: TraceEventKind::Ingress,
                    hops: 0,
                    arg: 0,
                },
                TraceEvent {
                    trace_id: id,
                    at_us: 400,
                    node: 1,
                    kind: TraceEventKind::Ack,
                    hops: 0,
                    arg: 300,
                },
            ],
            dropped: 0,
        };
        let timelines = merge_traces(&[node2, node1]);
        assert_eq!(timelines.len(), 1);
        let t = &timelines[0];
        assert_eq!(t.id, id);
        assert_eq!(t.origin, 1);
        assert!(!t.incomplete);
        assert_eq!(t.e2e_us, Some(300));
        let order: Vec<u64> = t.events.iter().map(|e| e.at_us).collect();
        assert_eq!(
            order,
            [100, 150, 300, 400],
            "not aligned on the epoch clock"
        );
    }

    #[test]
    fn merger_flags_missing_endpoints_and_renders_gaps() {
        let id = (2u64 << 40) | 9;
        // No Ack: the transfer never completed (or its ack was evicted),
        // and a 50ms hole sits mid-timeline — a crash window.
        let log = TraceLog {
            node: 2,
            events: vec![
                TraceEvent {
                    trace_id: id,
                    at_us: 0,
                    node: 2,
                    kind: TraceEventKind::Ingress,
                    hops: 0,
                    arg: 0,
                },
                TraceEvent {
                    trace_id: id,
                    at_us: 50_000,
                    node: 2,
                    kind: TraceEventKind::Send,
                    hops: 0,
                    arg: 0,
                },
            ],
            dropped: 0,
        };
        let timelines = merge_traces(&[log]);
        let t = &timelines[0];
        assert!(t.incomplete);
        assert_eq!(t.e2e_us, None);
        let rendered = t.render();
        assert!(rendered.contains("INCOMPLETE"), "{rendered}");
        assert!(rendered.contains("gap 50000µs"), "{rendered}");
        assert!(rendered.contains("ingress"), "{rendered}");
    }

    #[test]
    fn renders_complete_timelines_without_noise() {
        let tracer = Tracer::new(0, test_config(64, 1));
        let c = tracer.maybe_mint().unwrap();
        tracer.record_at(c, TraceEventKind::Ingress, 0, 10);
        tracer.record_at(c, TraceEventKind::Apply, 0, 20);
        tracer.record_at(c, TraceEventKind::Ack, 15, 25);
        let timelines = merge_traces(&[tracer.log()]);
        let rendered = timelines[0].render();
        assert!(!rendered.contains("INCOMPLETE"), "{rendered}");
        assert!(!rendered.contains("gap"), "{rendered}");
        assert!(rendered.contains("e2e 15µs"), "{rendered}");
    }
}
