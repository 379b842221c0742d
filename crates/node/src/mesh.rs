//! In-process channel mesh: the [`Transport`] used by tests and
//! single-process clusters.
//!
//! [`channel_mesh`] wires `n` endpoints pairwise over bounded in-memory
//! queues. Delivery is per-link FIFO and lossless while every endpoint
//! lives and keeps draining; a full queue applies *bounded*
//! backpressure and then drops with a count, and sending to a dropped
//! endpoint counts the frame as dropped — the same observable contract
//! as the TCP transport, without sockets.
//!
//! # Fault injection
//!
//! [`channel_mesh_faulty`] attaches an [`at_net::FaultInjector`]. The
//! mesh has no replay layer to lean on, so every injected fault is
//! modelled as *parking*: a frame hit by a partition, drop, delay, or
//! forced disconnect moves into a per-link limbo queue — and, to keep
//! the per-link FIFO contract, every later frame on that link queues
//! behind it. Partition parks release at heal; drop/disconnect parks
//! release after a bounded repair delay (the reliable-channel
//! abstraction of a lossy link with retransmission); delay parks release
//! when their deadline passes. Nothing is ever lost to a fault —
//! [`Transport::dropped_frames`] stays `0` across heal-and-drain — which
//! is exactly what lets the chaos validators require convergence
//! afterwards.
//!
//! Parked frames are released by the sending endpoint's own
//! `send`/`recv_timeout` calls, so while any are parked
//! [`Transport::recv_timeout`] bounds its wait by the earliest release
//! (a partitioned line, which heals without notice, is re-checked on
//! the TCP dialer's reconnect cadence) and returns `TimedOut` early;
//! the caller's next call delivers what came due.

use crate::tcp::TcpOptions;
use at_model::ProcessId;
use at_net::transport::{FaultInjector, InboundFrame, RecvOutcome, Transport, TransportStats};
use at_net::{Inbox, Waker};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a full inbox applies backpressure before the frame is
/// dropped and counted. Bounded for the same reason as
/// [`crate::tcp::TcpOptions::backpressure_timeout`]: two node loops
/// blocking unboundedly on each other's full inboxes would deadlock the
/// cluster.
const BACKPRESSURE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a frame "lost on the wire" (drop roll, forced disconnect)
/// stays parked before the mesh's modelled retransmission re-delivers
/// it.
const REPAIR_DELAY: Duration = Duration::from_millis(25);

/// When a parked frame becomes deliverable again.
#[derive(Clone, Copy)]
enum Release {
    /// When the link's partition lifts (and any heal clears it).
    AtHeal,
    /// When the deadline passes (and the link is not blocked).
    At(Instant),
}

/// One endpoint of an in-process mesh (see [`channel_mesh`]).
pub struct ChannelMesh {
    me: ProcessId,
    /// Every endpoint's inbox, indexed by process (ours included).
    peers: Vec<Arc<Inbox>>,
    faults: Option<FaultInjector>,
    /// Parked frames per destination, per-link FIFO (front releases
    /// first; later frames wait behind it).
    limbo: Vec<VecDeque<(Release, InboundFrame)>>,
    dropped: u64,
    closed: bool,
    /// Traffic totals for observability ([`Transport::stats`]).
    stats: TransportStats,
}

/// Builds a fully connected mesh of `n` endpoints whose inboxes hold up
/// to `capacity` frames each.
pub fn channel_mesh(n: usize, capacity: usize) -> Vec<ChannelMesh> {
    mesh_with(n, capacity, None)
}

/// Builds a mesh whose links are subject to `faults` (see the
/// [module docs](self) for the parking semantics).
pub fn channel_mesh_faulty(n: usize, capacity: usize, faults: FaultInjector) -> Vec<ChannelMesh> {
    mesh_with(n, capacity, Some(faults))
}

fn mesh_with(n: usize, capacity: usize, faults: Option<FaultInjector>) -> Vec<ChannelMesh> {
    assert!(n >= 1, "at least one endpoint");
    assert!(capacity >= 1, "capacity must be positive");
    let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Inbox::new(capacity)).collect();
    (0..n)
        .map(|i| ChannelMesh {
            me: ProcessId::new(i as u32),
            peers: inboxes.clone(),
            faults: faults.clone(),
            limbo: (0..n).map(|_| VecDeque::new()).collect(),
            dropped: 0,
            closed: false,
            stats: TransportStats::new(),
        })
        .collect()
}

impl ChannelMesh {
    fn inbox(&self) -> &Arc<Inbox> {
        &self.peers[self.me.as_usize()]
    }

    /// Pushes one frame into `to`'s inbox with bounded backpressure:
    /// park on a full inbox until its consumer makes room, up to the
    /// deadline, then drop and count — never block the node loop
    /// unboundedly. A closed (shut down or dropped) endpoint counts the
    /// frame as dropped at once.
    fn transmit(&mut self, to: ProcessId, frame: InboundFrame) {
        if !self.peers[to.as_usize()].push(frame, BACKPRESSURE_TIMEOUT) {
            self.dropped += 1;
        }
    }

    /// Releases every parked frame whose condition has passed, in
    /// per-link FIFO order (a still-parked front keeps the line
    /// waiting), and returns when to look again: the earliest deadline
    /// at the head of a line, or — for a partitioned line, which heals
    /// without notice — the TCP dialer's reconnect cadence from now.
    /// `None` while nothing is parked.
    fn pump_limbo(&mut self) -> Option<Instant> {
        let faults = self.faults.clone()?;
        let now = Instant::now();
        let heal_check = now + TcpOptions::default().reconnect_delay;
        let mut next: Option<Instant> = None;
        for to in 0..self.limbo.len() {
            if self.limbo[to].is_empty() {
                continue;
            }
            let to_id = ProcessId::new(to as u32);
            let blocked = faults.link(self.me, to_id).blocked;
            while let Some((release, _)) = self.limbo[to].front() {
                let due = match release {
                    _ if blocked => heal_check,
                    Release::AtHeal => now,
                    Release::At(at) => *at,
                };
                if due > now {
                    next = Some(next.map_or(due, |at| at.min(due)));
                    break;
                }
                let (_, frame) = self.limbo[to].pop_front().expect("peeked");
                self.transmit(to_id, frame);
            }
        }
        next
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
        self.pump_limbo();
        self.stats.note_send(payload.len());
        let frame = InboundFrame {
            from: self.me,
            payload,
        };
        let Some(faults) = self.faults.clone() else {
            self.transmit(to, frame);
            return;
        };
        // One verdict (profile + disconnect + both coin flips) drawn
        // under a single injector lock acquisition.
        let verdict = faults.sample(self.me, to);
        let profile = verdict.profile;
        let copies = if verdict.duplicate { 2 } else { 1 };
        // One fate for all copies of this frame: park behind an existing
        // line (FIFO), park at heal (partition), park for a repair delay
        // (drop roll / forced disconnect), park for the link latency, or
        // deliver now.
        let dropped_on_wire = verdict.disconnect || verdict.drop;
        if dropped_on_wire {
            // The modelled retransmission after a wire loss is this
            // mesh's equivalent of a TCP reconnect-and-replay.
            self.stats.note_reconnect();
        }
        let mut hold = Duration::from_micros(u64::from(profile.delay_us));
        if dropped_on_wire {
            hold = hold.max(REPAIR_DELAY);
        }
        let release = if profile.blocked {
            Some(Release::AtHeal)
        } else if !self.limbo[to.as_usize()].is_empty() || !hold.is_zero() {
            Some(Release::At(Instant::now() + hold))
        } else {
            None
        };
        for _ in 0..copies {
            match release {
                Some(release) => self.limbo[to.as_usize()].push_back((release, frame.clone())),
                None => self.transmit(to, frame.clone()),
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        if self.closed {
            return RecvOutcome::Closed;
        }
        let timeout = match self.pump_limbo() {
            Some(at) => timeout.min(at.saturating_duration_since(Instant::now())),
            None => timeout,
        };
        let outcome = self.inbox().recv_timeout(timeout);
        if let RecvOutcome::Frame(frame) = &outcome {
            self.stats.note_recv(frame.payload.len());
        }
        outcome
    }

    fn waker(&self) -> Waker {
        self.inbox().waker()
    }

    fn dropped_frames(&self) -> u64 {
        self.dropped
    }

    fn is_flushed(&mut self) -> bool {
        self.limbo.iter().all(VecDeque::is_empty)
    }

    fn stats(&self) -> Option<TransportStats> {
        Some(self.stats.clone())
    }

    fn shutdown(&mut self) {
        // Frames still parked at shutdown will never be delivered:
        // account them as real loss instead of vanishing silently. (The
        // chaos harness heals and drains first, so this stays 0 there.)
        self.dropped += self.limbo.iter().map(|q| q.len() as u64).sum::<u64>();
        for queue in &mut self.limbo {
            queue.clear();
        }
        self.closed = true;
        self.inbox().close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_net::transport::LinkProfile;

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
    fn partitioned_frames_park_and_release_in_order_at_heal() {
        let faults = FaultInjector::new(3);
        let mut mesh = channel_mesh_faulty(2, 16, faults.clone());
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.set_blocked(p(0), p(1), true);
        for i in 0..5u8 {
            a.send(p(1), vec![i]);
        }
        assert!(!a.is_flushed());
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)),
            RecvOutcome::TimedOut
        );
        // Asymmetric: the reverse direction still flows.
        b.send(p(0), vec![99]);
        assert!(matches!(
            a.recv_timeout(Duration::from_secs(1)),
            RecvOutcome::Frame(InboundFrame { payload, .. }) if payload == vec![99]
        ));
        faults.heal_all();
        // The next transport activity pumps the limbo, in FIFO order.
        for i in 0..5u8 {
            a.send(p(1), vec![100 + i]);
        }
        for expected in (0..5u8).chain(100..105) {
            match b.recv_timeout(Duration::from_secs(1)) {
                RecvOutcome::Frame(frame) => assert_eq!(frame.payload, vec![expected]),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(a.is_flushed());
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn dropped_frames_are_repaired_without_loss_or_reorder() {
        let faults = FaultInjector::new(11);
        let mut mesh = channel_mesh_faulty(2, 256, faults.clone());
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.set_link(
            p(0),
            p(1),
            LinkProfile {
                drop_pct: 40,
                ..LinkProfile::default()
            },
        );
        for i in 0..50u8 {
            a.send(p(1), vec![i]);
        }
        faults.heal_all();
        // Everything arrives, still in per-link FIFO order, despite the
        // 40% wire loss (the mesh's modelled retransmission repairs it).
        // A live node loop pumps the limbo via recv_timeout; here the
        // test pumps explicitly while draining.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut expected = 0u8;
        while expected < 50 {
            a.pump_limbo();
            match b.recv_timeout(Duration::from_millis(5)) {
                RecvOutcome::Frame(frame) => {
                    assert_eq!(frame.payload, vec![expected]);
                    expected += 1;
                }
                RecvOutcome::TimedOut => {
                    assert!(Instant::now() < deadline, "stalled at frame {expected}");
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(a.dropped_frames(), 0);
        assert!(a.is_flushed());
    }

    #[test]
    fn duplicated_frames_arrive_at_least_twice() {
        let faults = FaultInjector::new(2);
        let mut mesh = channel_mesh_faulty(2, 64, faults.clone());
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.set_link(
            p(0),
            p(1),
            LinkProfile {
                dup_pct: 100,
                ..LinkProfile::default()
            },
        );
        a.send(p(1), vec![7]);
        for _ in 0..2 {
            match b.recv_timeout(Duration::from_secs(1)) {
                RecvOutcome::Frame(frame) => assert_eq!(frame.payload, vec![7]),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn forced_disconnect_delays_but_never_loses() {
        let faults = FaultInjector::new(9);
        let mut mesh = channel_mesh_faulty(2, 16, faults.clone());
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.force_disconnect(p(0), p(1));
        a.send(p(1), vec![1]);
        a.send(p(1), vec![2]);
        // Both frames sit behind the repair delay, then arrive in order.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut got = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            a.pump_limbo();
            if let RecvOutcome::Frame(frame) = b.recv_timeout(Duration::from_millis(5)) {
                got.push(frame.payload);
            }
        }
        assert_eq!(got, vec![vec![1], vec![2]]);
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

    #[test]
    fn a_parked_frame_bounds_the_senders_own_wait() {
        let faults = FaultInjector::new(6);
        let mut mesh = channel_mesh_faulty(2, 16, faults.clone());
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let delay = Duration::from_millis(30);
        faults.set_link(
            p(0),
            p(1),
            LinkProfile {
                delay_us: delay.as_micros() as u32,
                ..LinkProfile::default()
            },
        );
        a.send(p(1), vec![1]);
        // Nothing will ever arrive for `a`, and nobody wakes it: only
        // the parked frame's deadline can end this wait.
        let started = Instant::now();
        assert_eq!(a.recv_timeout(Duration::MAX), RecvOutcome::TimedOut);
        assert!(started.elapsed() >= delay - Duration::from_millis(1));
        // The next call delivers what came due.
        assert_eq!(a.recv_timeout(Duration::ZERO), RecvOutcome::TimedOut);
        assert!(a.is_flushed());
        match b.recv_timeout(Duration::from_secs(1)) {
            RecvOutcome::Frame(frame) => assert_eq!(frame.payload, vec![1]),
            other => panic!("unexpected outcome: {other:?}"),
        }
        // A partitioned line heals without notice: it is re-checked on
        // a cadence instead of waited on forever.
        faults.set_blocked(p(0), p(1), true);
        a.send(p(1), vec![2]);
        assert_eq!(a.recv_timeout(Duration::MAX), RecvOutcome::TimedOut);
        faults.heal_all();
        assert_eq!(a.recv_timeout(Duration::ZERO), RecvOutcome::TimedOut);
        match b.recv_timeout(Duration::from_secs(1)) {
            RecvOutcome::Frame(frame) => assert_eq!(frame.payload, vec![2]),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn shutdown_counts_stranded_limbo_frames() {
        let faults = FaultInjector::new(4);
        let mut mesh = channel_mesh_faulty(2, 16, faults.clone());
        let mut a = mesh.remove(0);
        faults.set_blocked(p(0), p(1), true);
        a.send(p(1), vec![1]);
        a.send(p(1), vec![2]);
        a.shutdown();
        assert_eq!(a.dropped_frames(), 2);
    }
}
