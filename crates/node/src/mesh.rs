//! In-process channel mesh: the [`Transport`] used by tests and
//! single-process clusters.
//!
//! [`channel_mesh`] wires `n` endpoints pairwise over bounded in-memory
//! queues. Delivery is per-link FIFO and lossless while every endpoint
//! lives and keeps draining; a full queue applies *bounded*
//! backpressure and then drops with a count, and sending to a dropped
//! endpoint counts the frame as dropped — the same observable contract
//! as the TCP transport, without sockets. Each endpoint counts in a
//! registry of its own, labelled `node <id>`, which the node built on
//! it serves.

use at_model::ProcessId;
use at_net::transport::{InboundFrame, RecvOutcome, Transport, TransportCounters};
use at_net::{Inbox, Waker};
use at_obs::Registry;
use std::sync::Arc;
use std::time::Duration;

/// How long a full inbox applies backpressure before the frame is
/// dropped and counted. Bounded for the same reason as
/// [`crate::tcp::TcpOptions::backpressure_timeout`]: two node loops
/// blocking unboundedly on each other's full inboxes would deadlock the
/// cluster.
const BACKPRESSURE_TIMEOUT: Duration = Duration::from_secs(5);

/// One endpoint of an in-process mesh (see [`channel_mesh`]).
pub struct ChannelMesh {
    me: ProcessId,
    /// Every endpoint's inbox, indexed by process (ours included).
    peers: Vec<Arc<Inbox>>,
    closed: bool,
    registry: Registry,
    counters: TransportCounters,
}

/// Builds a fully connected mesh of `n` endpoints whose inboxes hold up
/// to `capacity` frames each.
pub fn channel_mesh(n: usize, capacity: usize) -> Vec<ChannelMesh> {
    assert!(n >= 1, "at least one endpoint");
    assert!(capacity >= 1, "capacity must be positive");
    let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Inbox::new(capacity)).collect();
    (0..n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let registry = Registry::new(format!("node {me}"));
            ChannelMesh {
                me,
                peers: inboxes.clone(),
                closed: false,
                counters: TransportCounters::resolve(&registry),
                registry,
            }
        })
        .collect()
}

impl ChannelMesh {
    fn inbox(&self) -> &Arc<Inbox> {
        &self.peers[self.me.as_usize()]
    }
}

impl Drop for ChannelMesh {
    fn drop(&mut self) {
        // Peers sending to a dead endpoint count the frame as dropped
        // instead of filling an inbox nobody drains.
        self.inbox().close();
    }
}

impl Transport for ChannelMesh {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: ProcessId, payload: Vec<u8>) {
        debug_assert_ne!(
            to, self.me,
            "self frames are looped back above the transport"
        );
        if self.closed {
            return;
        }
        let bytes = payload.len();
        let frame = InboundFrame {
            from: self.me,
            payload,
        };
        // Bounded backpressure: wait on a full inbox until its consumer
        // makes room, up to the deadline, then drop and count — never
        // block the node loop unboundedly. A closed (shut down or
        // dropped) endpoint counts the frame as dropped at once.
        if self.peers[to.as_usize()].push(frame, BACKPRESSURE_TIMEOUT) {
            self.counters.sent(bytes);
        } else {
            self.counters.dropped.inc();
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        if self.closed {
            return RecvOutcome::Closed;
        }
        let outcome = self.inbox().recv_timeout(timeout);
        if let RecvOutcome::Frame(frame) = &outcome {
            self.counters.received(frame.payload.len());
        }
        outcome
    }

    fn waker(&self) -> Waker {
        self.inbox().waker()
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn shutdown(&mut self) {
        self.closed = true;
        self.inbox().close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn frames_flow_between_endpoints_in_fifo_order() {
        let mut mesh = channel_mesh(3, 16);
        let mut c = mesh.pop().unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        assert_eq!(a.me(), p(0));
        assert_eq!(a.n(), 3);
        a.send(p(1), vec![1]);
        a.send(p(1), vec![2]);
        c.send(p(1), vec![3]);
        for expected_from_a in [vec![1u8], vec![2]] {
            match b.recv_timeout(Duration::from_secs(1)) {
                RecvOutcome::Frame(frame) if frame.from == p(0) => {
                    assert_eq!(frame.payload, expected_from_a);
                }
                RecvOutcome::Frame(frame) => {
                    assert_eq!(frame.from, p(2));
                    assert_eq!(frame.payload, vec![3]);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn recv_times_out_when_idle() {
        let mut mesh = channel_mesh(2, 4);
        let mut a = mesh.remove(0);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)),
            RecvOutcome::TimedOut
        );
    }

    #[test]
    fn sending_to_a_dropped_endpoint_counts_frames() {
        let mut mesh = channel_mesh(2, 4);
        let _gone = mesh.remove(1);
        drop(_gone);
        let mut a = mesh.remove(0);
        a.send(p(1), vec![9]);
        assert_eq!(a.dropped_frames(), 1);
        // Counted in the endpoint's own registry, and not as sent.
        let scrape = a.registry().snapshot();
        assert_eq!(scrape.label, "node p0");
        assert_eq!(scrape.counter("transport_dropped_frames_total"), Some(1));
        assert_eq!(scrape.counter("transport_frames_out_total"), Some(0));
        assert_eq!(scrape.counter("transport_bytes_out_total"), Some(0));
    }

    #[test]
    fn shutdown_closes_the_endpoint() {
        let mut mesh = channel_mesh(2, 4);
        let mut a = mesh.remove(0);
        a.shutdown();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)),
            RecvOutcome::Closed
        );
        a.send(p(1), vec![1]); // silently discarded
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn full_inbox_backpressure_releases_on_wakeup_not_on_a_sleep_quantum() {
        // A one-slot inbox parks the sender on every frame. A sender
        // that retried on a 200µs sleep would put a floor of frames ×
        // 200µs on this drain (≥ 200ms for 1000 frames); released by
        // the pop itself, the whole run finishes far under that floor.
        let mut mesh = channel_mesh(2, 1);
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let started = Instant::now();
        let sender = std::thread::spawn(move || {
            for i in 0..1000u32 {
                a.send(p(1), i.to_le_bytes().to_vec());
            }
            a
        });
        for expected in 0..1000u32 {
            match b.recv_timeout(Duration::from_secs(10)) {
                RecvOutcome::Frame(frame) => assert_eq!(frame.payload, expected.to_le_bytes()),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let elapsed = started.elapsed();
        let a = sender.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(150),
            "draining 1000 frames through a 1-slot inbox took {elapsed:?}; \
             backpressure is waiting on a sleep quantum again"
        );
        assert_eq!(a.dropped_frames(), 0);
    }
}
