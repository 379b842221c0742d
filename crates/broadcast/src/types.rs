//! Common broadcast-layer types.

use at_model::{ProcessId, SeqNo};

/// A message to hand to the network, addressed to one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The destination process.
    pub to: ProcessId,
    /// The message.
    pub msg: M,
}

/// A payload delivered by a broadcast primitive, attributed to the stream
/// it was broadcast on: its source process or, for Section 6's shared
/// accounts, the account.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<P, K = ProcessId> {
    /// The stream: the originating (broadcasting) process, or the account.
    pub source: K,
    /// The stream's sequence number for this broadcast.
    pub seq: SeqNo,
    /// The delivered payload.
    pub payload: P,
}

/// Sink collecting the outputs of one broadcast-layer step: messages to
/// send and payloads to deliver to the application.
#[derive(Debug)]
pub struct Step<M, P, K = ProcessId> {
    /// Messages to transmit.
    pub outgoing: Vec<Outgoing<M>>,
    /// Payloads delivered (in delivery order).
    pub deliveries: Vec<Delivery<P, K>>,
}

impl<M, P, K> Default for Step<M, P, K> {
    fn default() -> Self {
        Step {
            outgoing: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

impl<M, P, K> Step<M, P, K> {
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

    /// The Byzantine harness's fan-out: `left` for the lower half of a
    /// system of size `n`, `right` for the upper half.
    pub(crate) fn send_halves(&mut self, n: usize, left: M, right: M)
    where
        M: Clone,
    {
        for i in 0..n {
            let msg = if i < n / 2 { &left } else { &right };
            self.send(ProcessId::new(i as u32), msg.clone());
        }
    }

    /// Queues a delivery.
    pub fn deliver(&mut self, source: K, seq: SeqNo, payload: P) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceTable;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn s(v: u64) -> SeqNo {
        SeqNo::new(v)
    }

    // The per-source FIFO buffer these tests pinned down lived in this
    // module; it is now the release half of `InstanceTable`, and the
    // tests hold that to the same behaviour under their old names.
    type Buffer = InstanceTable<ProcessId, (), &'static str>;

    fn buffer() -> Buffer {
        InstanceTable::new(p(0), 4)
    }

    /// Holds one completed instance and releases whatever became
    /// releasable, as every source-order handler does.
    fn offer(
        buffer: &mut Buffer,
        source: ProcessId,
        seq: SeqNo,
        payload: &'static str,
    ) -> Vec<(SeqNo, &'static str)> {
        buffer.hold(source, seq, payload);
        std::iter::from_fn(|| buffer.release(source)).collect()
    }

    #[test]
    fn in_order_offers_release_immediately() {
        let mut buffer = buffer();
        assert_eq!(offer(&mut buffer, p(0), s(1), "a"), vec![(s(1), "a")]);
        assert_eq!(offer(&mut buffer, p(0), s(2), "b"), vec![(s(2), "b")]);
        assert_eq!(buffer.expected(p(0)), s(3));
    }

    #[test]
    fn gaps_hold_back_until_filled() {
        let mut buffer = buffer();
        assert_eq!(offer(&mut buffer, p(0), s(2), "b"), vec![]);
        assert_eq!(offer(&mut buffer, p(0), s(3), "c"), vec![]);
        assert_eq!(buffer.instance_count(), 2);
        let released = offer(&mut buffer, p(0), s(1), "a");
        assert_eq!(released, vec![(s(1), "a"), (s(2), "b"), (s(3), "c")]);
        assert_eq!(buffer.instance_count(), 0);
    }

    #[test]
    fn sources_are_independent() {
        let mut buffer = buffer();
        assert_eq!(offer(&mut buffer, p(1), s(1), "x"), vec![(s(1), "x")]);
        assert_eq!(offer(&mut buffer, p(0), s(2), "b"), vec![]);
        assert_eq!(buffer.expected(p(0)), s(1));
        assert_eq!(buffer.expected(p(1)), s(2));
    }

    #[test]
    fn duplicate_offers_are_ignored() {
        let mut buffer = buffer();
        assert_eq!(offer(&mut buffer, p(0), s(1), "a"), vec![(s(1), "a")]);
        // Re-offering a released seq does nothing — and leaves no
        // residue behind (a stale duplicate below the floor used to be
        // parked in the pending map forever).
        assert_eq!(offer(&mut buffer, p(0), s(1), "a'"), vec![]);
        assert_eq!(buffer.instance_count(), 0);
        // Duplicate buffered offers keep the first payload.
        assert_eq!(offer(&mut buffer, p(0), s(3), "c"), vec![]);
        assert_eq!(offer(&mut buffer, p(0), s(3), "c'"), vec![]);
        let released = offer(&mut buffer, p(0), s(2), "b");
        assert_eq!(released, vec![(s(2), "b"), (s(3), "c")]);
    }

    #[test]
    fn advance_skips_to_the_floor_and_drops_stale_buffers() {
        let mut buffer = buffer();
        // Gapped payloads straddling the future floor.
        assert_eq!(offer(&mut buffer, p(0), s(3), "c"), vec![]);
        assert_eq!(offer(&mut buffer, p(0), s(6), "f"), vec![]);
        buffer.set_floor(p(0), s(4));
        assert_eq!(buffer.expected(p(0)), s(5));
        assert_eq!(buffer.instance_count(), 1, "only seq 6 survives the floor");
        // Stale offers below the floor are discarded, in-order resumes.
        assert_eq!(offer(&mut buffer, p(0), s(2), "b"), vec![]);
        assert_eq!(buffer.instance_count(), 1);
        assert_eq!(
            offer(&mut buffer, p(0), s(5), "e"),
            vec![(s(5), "e"), (s(6), "f")]
        );
        // Advancing backwards never lowers the floor.
        buffer.set_floor(p(0), s(1));
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
}
