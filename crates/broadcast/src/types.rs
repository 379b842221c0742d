//! Common broadcast-layer types.

use at_model::{ProcessId, SeqNo};
use std::collections::BTreeMap;
use std::fmt;

/// A message to hand to the network, addressed to one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The destination process.
    pub to: ProcessId,
    /// The message.
    pub msg: M,
}

/// A payload delivered by a broadcast primitive, attributed to its source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<P> {
    /// The originating (broadcasting) process.
    pub source: ProcessId,
    /// The source's sequence number for this broadcast.
    pub seq: SeqNo,
    /// The delivered payload.
    pub payload: P,
}

/// Sink collecting the outputs of one broadcast-layer step: messages to
/// send and payloads to deliver to the application.
#[derive(Debug)]
pub struct Step<M, P> {
    /// Messages to transmit.
    pub outgoing: Vec<Outgoing<M>>,
    /// Payloads delivered (in delivery order).
    pub deliveries: Vec<Delivery<P>>,
}

impl<M, P> Default for Step<M, P> {
    fn default() -> Self {
        Step {
            outgoing: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

impl<M, P> Step<M, P> {
    /// An empty step.
    pub fn new() -> Self {
        Step::default()
    }

    /// Queues `msg` for `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outgoing.push(Outgoing { to, msg });
    }

    /// Queues `msg` for every process in a system of size `n` (including
    /// the local process, per the broadcast convention).
    pub fn send_all(&mut self, n: usize, msg: M)
    where
        M: Clone,
    {
        for i in 0..n {
            self.outgoing.push(Outgoing {
                to: ProcessId::new(i as u32),
                msg: msg.clone(),
            });
        }
    }

    /// Queues a delivery.
    pub fn deliver(&mut self, source: ProcessId, seq: SeqNo, payload: P) {
        self.deliveries.push(Delivery {
            source,
            seq,
            payload,
        });
    }
}

/// Cumulative signature-operation counters of a broadcast endpoint.
///
/// Signature-free protocols (Bracha) report zeros; the signed protocols
/// count every `sign`/`verify` their state machine performs, including
/// per-share certificate checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Signatures produced.
    pub signs: u64,
    /// Signature verifications performed.
    pub verifies: u64,
}

/// Per-source FIFO delivery buffer: releases `(source, seq)` payloads in
/// sequence order per source, realising the *source order* property of
/// Section 5.2 (strengthened to FIFO, which the paper notes is what the
/// per-process sequence numbers provide).
pub struct SourceOrderBuffer<P> {
    pending: BTreeMap<ProcessId, BTreeMap<u64, P>>,
    next: BTreeMap<ProcessId, u64>,
}

impl<P> Default for SourceOrderBuffer<P> {
    fn default() -> Self {
        SourceOrderBuffer {
            pending: BTreeMap::new(),
            next: BTreeMap::new(),
        }
    }
}

impl<P> SourceOrderBuffer<P> {
    /// Creates an empty buffer; the first expected sequence number per
    /// source is 1.
    pub fn new() -> Self {
        SourceOrderBuffer::default()
    }

    /// Offers a decoded broadcast; returns every payload that became
    /// releasable, in order. Offers at or below the released floor are
    /// discarded outright — a stale duplicate must not take up buffer
    /// space it can never leave.
    pub fn offer(&mut self, source: ProcessId, seq: SeqNo, payload: P) -> Vec<(SeqNo, P)> {
        let next = self.next.entry(source).or_insert(1);
        if seq.value() < *next {
            return Vec::new();
        }
        let slot = self.pending.entry(source).or_default();
        slot.entry(seq.value()).or_insert(payload);
        let next = self.next.entry(source).or_insert(1);
        let mut released = Vec::new();
        while let Some(payload) = slot.remove(next) {
            released.push((SeqNo::new(*next), payload));
            *next += 1;
        }
        released
    }

    /// Raises the release floor of `source` so the next expected
    /// sequence number is `floor + 1`, discarding any buffered payloads
    /// at or below the floor. Never lowers an already-higher floor.
    /// Cold-started endpoints use this to resume a source's stream from
    /// a snapshot frontier instead of sequence number 1.
    pub fn advance(&mut self, source: ProcessId, floor: SeqNo) {
        let next = self.next.entry(source).or_insert(1);
        if floor.value() + 1 > *next {
            *next = floor.value() + 1;
        }
        let floor = *next;
        if let Some(slot) = self.pending.get_mut(&source) {
            *slot = slot.split_off(&floor);
        }
    }

    /// The next sequence number expected from `source`.
    pub fn expected(&self, source: ProcessId) -> SeqNo {
        SeqNo::new(self.next.get(&source).copied().unwrap_or(1))
    }

    /// Number of buffered (gapped) payloads across all sources.
    pub fn buffered(&self) -> usize {
        self.pending.values().map(BTreeMap::len).sum()
    }
}

impl<P> fmt::Debug for SourceOrderBuffer<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SourceOrderBuffer(buffered={})", self.buffered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn s(v: u64) -> SeqNo {
        SeqNo::new(v)
    }

    #[test]
    fn in_order_offers_release_immediately() {
        let mut buffer = SourceOrderBuffer::new();
        assert_eq!(buffer.offer(p(0), s(1), "a"), vec![(s(1), "a")]);
        assert_eq!(buffer.offer(p(0), s(2), "b"), vec![(s(2), "b")]);
        assert_eq!(buffer.expected(p(0)), s(3));
    }

    #[test]
    fn gaps_hold_back_until_filled() {
        let mut buffer = SourceOrderBuffer::new();
        assert_eq!(buffer.offer(p(0), s(2), "b"), vec![]);
        assert_eq!(buffer.offer(p(0), s(3), "c"), vec![]);
        assert_eq!(buffer.buffered(), 2);
        let released = buffer.offer(p(0), s(1), "a");
        assert_eq!(released, vec![(s(1), "a"), (s(2), "b"), (s(3), "c")]);
        assert_eq!(buffer.buffered(), 0);
    }

    #[test]
    fn sources_are_independent() {
        let mut buffer = SourceOrderBuffer::new();
        assert_eq!(buffer.offer(p(1), s(1), "x"), vec![(s(1), "x")]);
        assert_eq!(buffer.offer(p(0), s(2), "b"), vec![]);
        assert_eq!(buffer.expected(p(0)), s(1));
        assert_eq!(buffer.expected(p(1)), s(2));
    }

    #[test]
    fn duplicate_offers_are_ignored() {
        let mut buffer = SourceOrderBuffer::new();
        assert_eq!(buffer.offer(p(0), s(1), "a"), vec![(s(1), "a")]);
        // Re-offering a released seq does nothing — and leaves no
        // residue behind (a stale duplicate below the floor used to be
        // parked in the pending map forever).
        assert_eq!(buffer.offer(p(0), s(1), "a'"), vec![]);
        assert_eq!(buffer.buffered(), 0);
        // Duplicate buffered offers keep the first payload.
        assert_eq!(buffer.offer(p(0), s(3), "c"), vec![]);
        assert_eq!(buffer.offer(p(0), s(3), "c'"), vec![]);
        let released = buffer.offer(p(0), s(2), "b");
        assert_eq!(released, vec![(s(2), "b"), (s(3), "c")]);
    }

    #[test]
    fn advance_skips_to_the_floor_and_drops_stale_buffers() {
        let mut buffer = SourceOrderBuffer::new();
        // Gapped payloads straddling the future floor.
        assert_eq!(buffer.offer(p(0), s(3), "c"), vec![]);
        assert_eq!(buffer.offer(p(0), s(6), "f"), vec![]);
        buffer.advance(p(0), s(4));
        assert_eq!(buffer.expected(p(0)), s(5));
        assert_eq!(buffer.buffered(), 1, "only seq 6 survives the floor");
        // Stale offers below the floor are discarded, in-order resumes.
        assert_eq!(buffer.offer(p(0), s(2), "b"), vec![]);
        assert_eq!(buffer.buffered(), 1);
        assert_eq!(
            buffer.offer(p(0), s(5), "e"),
            vec![(s(5), "e"), (s(6), "f")]
        );
        // Advancing backwards never lowers the floor.
        buffer.advance(p(0), s(1));
        assert_eq!(buffer.expected(p(0)), s(7));
    }

    #[test]
    fn step_sink_collects() {
        let mut step: Step<u8, &str> = Step::new();
        step.send(p(1), 7);
        step.send_all(2, 9);
        step.deliver(p(0), s(1), "payload");
        assert_eq!(step.outgoing.len(), 3);
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(step.deliveries[0].source, p(0));
    }

    #[test]
    fn debug_renders() {
        let buffer: SourceOrderBuffer<u8> = SourceOrderBuffer::new();
        assert!(format!("{buffer:?}").contains("buffered=0"));
    }
}
