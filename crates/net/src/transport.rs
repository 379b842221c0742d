//! The [`Transport`] abstraction: a reliable frame mesh between `n`
//! processes.
//!
//! The protocols in this workspace are sans-I/O state machines; the
//! [`crate::Simulation`] moves their *typed* messages in virtual time,
//! and a real runtime moves their *encoded* messages over some byte
//! transport. This trait is the seam between the two worlds: a node
//! runtime (`at-node`) encodes backend messages into opaque frames and
//! hands them to a `Transport`, which owns delivery.
//!
//! # Delivery contract
//!
//! An implementation must deliver each accepted frame **at most once
//! per endpoint incarnation** and **in per-link FIFO order** (frames
//! from the same sender arrive in send order). Across a warm restart
//! the guarantee weakens at the edge: frames the previous incarnation
//! accepted but had not yet acknowledged may be replayed to the new
//! one, so consumers that keep state across restarts must tolerate
//! duplicates at the protocol level (the broadcast backends do, via
//! their per-source sequence cursors). How wide that edge is belongs
//! to the implementation: an acknowledgement may trail the frames it
//! covers (the TCP transport acknowledges cumulatively, once per
//! replay-window interval or quiet period, so an incarnation that
//! *crashes* leaves up to that much already-processed traffic to be
//! replayed; one that stops through [`Transport::quiesce`] after its
//! drain leaves none). An implementation should deliver
//! *exactly* once whenever the peer is reachable within its buffering
//! capacity — the paper's reliable authenticated channel — and must
//! surface any capacity-forced loss via
//! [`Transport::dropped_frames`] so harnesses can assert the reliable
//! regime actually held. Sender identity follows the simulator's
//! authenticated-channels assumption: `from` in a received frame is
//! taken at face value, frame *contents* are not. How strongly `from`
//! is actually authenticated is the implementation's documented trust
//! model (the in-process mesh enforces it by construction; the TCP
//! transport trusts its network segment — see its module docs).
//!
//! # Counts
//!
//! An endpoint is born with its node's at-obs [`Registry`]
//! ([`Transport::registry`]) and counts its traffic there, through
//! [`TransportCounters`] resolved once at birth: frames and bytes each
//! way, drops, lost links, acknowledgements, polls and poisoned
//! connections. The node serves that registry to every scrape, so a
//! count has one home and nothing copies it.
//!
//! Two implementations live in `at-node`: a lossless in-process channel
//! mesh for tests, and a TCP transport whose consumer's own thread
//! moves every frame — its `recv_timeout` polls the peer sockets — with
//! reconnect and bounded replay windows. Only the TCP transport takes a
//! [`FaultInjector`]: its faults lose real frames, and its replay layer
//! must repair them.

use crate::wake::Waker;
use at_model::ProcessId;
use at_obs::{Counter, Registry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The counts every transport endpoint keeps, resolved once from the
/// node's metric registry ([`Transport::registry`]) and incremented
/// where the event happens. A scrape of the registry reads them; no
/// copy of them exists anywhere else.
#[derive(Debug)]
pub struct TransportCounters {
    /// `transport_frames_out_total`: outbound frames accepted (a frame
    /// dropped by backpressure is not).
    pub frames_out: Arc<Counter>,
    /// `transport_bytes_out_total`: their payload bytes.
    pub bytes_out: Arc<Counter>,
    /// `transport_frames_in_total`: inbound frames delivered.
    pub frames_in: Arc<Counter>,
    /// `transport_bytes_in_total`: their payload bytes.
    pub bytes_in: Arc<Counter>,
    /// `transport_dropped_frames_total`: frames given up on for want of
    /// buffering capacity ([`Transport::dropped_frames`]).
    pub dropped: Arc<Counter>,
    /// `transport_reconnects_total`: links lost (repaired by a reconnect
    /// and replay); the failed dial attempts of an outage do not count.
    pub reconnects: Arc<Counter>,
    /// `transport_acks_out_total`: acknowledgements written to peers —
    /// the receive side's own traffic, not in `frames_out`.
    pub acks_out: Arc<Counter>,
    /// `transport_acks_in_total`: acknowledgements received from peers.
    pub acks_in: Arc<Counter>,
    /// `transport_polls_total`: returns from the blocking wait on the
    /// sockets — the wake-ups the transport's own housekeeping costs.
    pub polls: Arc<Counter>,
    /// `transport_poisoned_conns_total`: peer connections ended for
    /// malformed or out-of-protocol input (diagnostics, not loss: the
    /// link replays).
    pub poisoned_conns: Arc<Counter>,
}

impl TransportCounters {
    /// Resolves every transport counter in `obs`, so a scrape carries
    /// each name from the endpoint's birth on, zero or not.
    pub fn resolve(obs: &Registry) -> Self {
        TransportCounters {
            frames_out: obs.counter("transport_frames_out_total"),
            bytes_out: obs.counter("transport_bytes_out_total"),
            frames_in: obs.counter("transport_frames_in_total"),
            bytes_in: obs.counter("transport_bytes_in_total"),
            dropped: obs.counter(DROPPED_FRAMES),
            reconnects: obs.counter("transport_reconnects_total"),
            acks_out: obs.counter("transport_acks_out_total"),
            acks_in: obs.counter("transport_acks_in_total"),
            polls: obs.counter("transport_polls_total"),
            poisoned_conns: obs.counter("transport_poisoned_conns_total"),
        }
    }

    /// Counts one accepted outbound frame of `bytes` payload bytes.
    pub fn sent(&self, bytes: usize) {
        self.frames_out.inc();
        self.bytes_out.add(bytes as u64);
    }

    /// Counts one delivered inbound frame of `bytes` payload bytes.
    pub fn received(&self, bytes: usize) {
        self.frames_in.inc();
        self.bytes_in.add(bytes as u64);
    }
}

/// The registry name of [`TransportCounters::dropped`].
const DROPPED_FRAMES: &str = "transport_dropped_frames_total";

/// One frame received from the mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InboundFrame {
    /// The authenticated sending process.
    pub from: ProcessId,
    /// The opaque frame payload (untrusted bytes).
    pub payload: Vec<u8>,
}

/// Outcome of a [`Transport::recv_timeout`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A frame arrived.
    Frame(InboundFrame),
    /// No frame arrived within the timeout.
    TimedOut,
    /// The transport has shut down; no further frames will arrive.
    Closed,
}

/// A reliable frame mesh between `n` processes (see the module docs for
/// the delivery contract).
pub trait Transport: Send {
    /// This endpoint's process identity.
    fn me(&self) -> ProcessId;

    /// Number of processes in the mesh.
    fn n(&self) -> usize;

    /// Queues `payload` for delivery to `to`. Must not be called with
    /// `to == me()` — runtimes loop self-addressed messages back
    /// internally, above the transport. Bounded implementations may
    /// block briefly (backpressure) and, as a last resort, drop the
    /// frame and count it in [`Transport::dropped_frames`].
    fn send(&mut self, to: ProcessId, payload: Vec<u8>);

    /// Waits up to `timeout` for the next frame (`Duration::MAX` waits
    /// without a deadline). [`RecvOutcome::TimedOut`] may come early:
    /// at once when [`Transport::waker`]'s handle was used since the
    /// previous return, once a [`Transport::is_flushed`] that answered
    /// `false` would answer `true`, and — for a transport that leaves
    /// its housekeeping to the next call — whenever some is due.
    /// Consumers loop.
    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome;

    /// A handle other threads use to interrupt this endpoint's
    /// `recv_timeout` — how a consumer with more inputs than peer
    /// frames blocks in one place (see [`crate::inbox`]).
    fn waker(&self) -> Waker;

    /// The node's metric registry, labelled `node <id>`: the endpoint
    /// is born with it and counts its traffic there
    /// ([`TransportCounters`]); the node loop counts its own events in
    /// the same registry and serves it to every scrape.
    fn registry(&self) -> &Registry;

    /// Frames dropped by this endpoint because buffering capacity was
    /// exhausted (0 in the reliable regime): its
    /// `transport_dropped_frames_total`.
    fn dropped_frames(&self) -> u64 {
        self.registry().counter(DROPPED_FRAMES).get()
    }

    /// Whether every accepted frame has verifiably reached its peer
    /// (nothing left to flush). Synchronous transports are always
    /// flushed; buffered ones report their replay windows empty. A
    /// `false` answer also asks for a wake-up: the consumer's wait in
    /// [`Transport::recv_timeout`] ends once the answer would be `true`,
    /// so a stopping consumer waits for the acknowledgements instead of
    /// polling for them.
    fn is_flushed(&mut self) -> bool {
        true
    }

    /// Stops accepting (and above all *acknowledging*) new inbound
    /// frames, while keeping every already-accepted frame retrievable
    /// through [`Transport::recv_timeout`]. A stopping consumer calls
    /// this **before** its final drain: after `quiesce` returns, no
    /// frame may ever be acknowledged to a peer without being
    /// retrievable — an acknowledged-but-unretrievable frame is pruned
    /// from the peer's replay buffer and lost to every future
    /// incarnation (the silent gap a warm restart cannot repair).
    /// Unacknowledged frames simply stay in peers' outboxes and replay
    /// later. Synchronous transports, where acceptance *is* delivery,
    /// need no special handling.
    fn quiesce(&mut self) {}

    /// Releases transport resources (threads, sockets). Further `send`s
    /// are silently discarded.
    fn shutdown(&mut self) {}
}

/// Per-directed-link fault profile the TCP transport consults (see
/// [`FaultInjector`]).
///
/// All faults model a *misbehaving network under the link*, not a broken
/// transport: the transport must still uphold the module-level delivery
/// contract while any of these are active — frames are delayed, lost on
/// the wire and replayed after a reconnect, or duplicated into the
/// receiver's dedup window, but never lost for good. After
/// [`FaultInjector::heal_all`] and a drain, `dropped_frames() == 0`
/// certifies exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// The link is partitioned: nothing crosses until healed. Partitions
    /// are directed, so blocking `a→b` alone yields an *asymmetric*
    /// partition (`b→a` still flows).
    pub blocked: bool,
    /// Percent chance (0–100) per frame that the frame is "lost on the
    /// wire": the TCP transport breaks the connection instead of
    /// writing it, and repairs the loss by replaying from the last
    /// acknowledgement.
    pub drop_pct: u8,
    /// Percent chance (0–100) per frame that the frame is transmitted
    /// twice — exercising the receiver's sequence-number dedup.
    pub dup_pct: u8,
    /// Extra latency added to every frame on the link, in microseconds.
    pub delay_us: u32,
}

impl LinkProfile {
    /// Whether this profile perturbs the link at all.
    pub fn is_quiet(&self) -> bool {
        *self == LinkProfile::default()
    }
}

/// Interior state of a [`FaultInjector`].
#[derive(Debug, Default)]
struct FaultState {
    seed: u64,
    links: BTreeMap<(u32, u32), LinkProfile>,
    /// Directed links with a pending one-shot forced disconnect.
    disconnects: BTreeSet<(u32, u32)>,
    /// Per-link RNG streams (created lazily from `seed`), so the coin
    /// flips each directed link observes are a deterministic function of
    /// `(seed, link, flip index)` regardless of other links' traffic.
    rngs: BTreeMap<(u32, u32), u64>,
}

/// One frame's fault decisions on a directed link, drawn in a single
/// [`FaultInjector::sample`] call.
#[derive(Clone, Copy, Debug)]
pub struct LinkVerdict {
    /// The link's current profile.
    pub profile: LinkProfile,
    /// A pending forced disconnect was consumed by this frame.
    pub disconnect: bool,
    /// The drop coin fired: this frame is "lost on the wire".
    pub drop: bool,
    /// The duplicate coin fired: transmit this frame twice.
    pub duplicate: bool,
}

/// Advances `from → to`'s RNG stream under an already-held lock.
fn roll_locked(state: &mut FaultState, from: ProcessId, to: ProcessId, pct: u8) -> bool {
    if pct == 0 {
        return false;
    }
    if pct >= 100 {
        return true;
    }
    let seed = state.seed;
    let key = (from.index(), to.index());
    let slot = state.rngs.entry(key).or_insert_with(|| {
        // SplitMix-style seeding keeps sibling links' streams apart.
        let mut z = seed
            ^ (0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(u64::from(key.0) << 32 | u64::from(key.1))
                .wrapping_add(1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) | 1
    });
    // xorshift64*
    let mut x = *slot;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *slot = x;
    let draw = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
    (draw % 100) < u64::from(pct)
}

/// The nemesis's handle into a cluster's transports: a shared,
/// thread-safe registry of per-link fault profiles plus one-shot forced
/// disconnects.
///
/// `at-node`'s TCP transport consults it on its send path; a chaos
/// harness mutates it while the cluster runs. Cloning shares the underlying state. The
/// injected faults stay *below* the delivery contract — see
/// [`LinkProfile`] — so the protocols' reliable-channel assumption is
/// stressed, not broken, and every safety validator must still pass
/// after [`FaultInjector::heal_all`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Arc<Mutex<FaultState>>,
}

impl FaultInjector {
    /// A quiet injector whose per-link coin flips derive from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            state: Arc::new(Mutex::new(FaultState {
                seed,
                ..FaultState::default()
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault injector poisoned")
    }

    /// Sets the full fault profile of the directed link `from → to`.
    pub fn set_link(&self, from: ProcessId, to: ProcessId, profile: LinkProfile) {
        let mut state = self.lock();
        let key = (from.index(), to.index());
        if profile.is_quiet() {
            state.links.remove(&key);
        } else {
            state.links.insert(key, profile);
        }
    }

    /// Blocks or unblocks the directed link `from → to`, keeping any
    /// other degradation on the link.
    pub fn set_blocked(&self, from: ProcessId, to: ProcessId, blocked: bool) {
        let mut state = self.lock();
        let entry = state.links.entry((from.index(), to.index())).or_default();
        entry.blocked = blocked;
        let quiet = entry.is_quiet();
        if quiet {
            state.links.remove(&(from.index(), to.index()));
        }
    }

    /// Queues a one-shot forced disconnect of `from → to`: the next
    /// frame the sender pushes on that link tears the underlying
    /// connection down, and the transport replays from the last
    /// acknowledgement.
    pub fn force_disconnect(&self, from: ProcessId, to: ProcessId) {
        self.lock().disconnects.insert((from.index(), to.index()));
    }

    /// The current profile of the directed link `from → to`.
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkProfile {
        self.lock()
            .links
            .get(&(from.index(), to.index()))
            .copied()
            .unwrap_or_default()
    }

    /// Everything a sender needs for one frame on `from → to`, under a
    /// single lock acquisition: the link profile, a consumed pending
    /// forced disconnect, and the drop/duplicate coin flips (rolled only
    /// when their percentages are nonzero). Each directed link advances
    /// its own RNG stream, so the flips are a pure function of
    /// `(seed, link, flip index)`.
    pub fn sample(&self, from: ProcessId, to: ProcessId) -> LinkVerdict {
        let mut state = self.lock();
        let profile = state
            .links
            .get(&(from.index(), to.index()))
            .copied()
            .unwrap_or_default();
        let disconnect = state.disconnects.remove(&(from.index(), to.index()));
        let drop = profile.drop_pct > 0 && roll_locked(&mut state, from, to, profile.drop_pct);
        let duplicate = profile.dup_pct > 0 && roll_locked(&mut state, from, to, profile.dup_pct);
        LinkVerdict {
            profile,
            disconnect,
            drop,
            duplicate,
        }
    }

    /// Clears every fault: partitions lift, degradation stops, pending
    /// disconnects are forgotten. Dialers reconnect and replay, so a
    /// subsequent drain restores the reliable regime.
    pub fn heal_all(&self) {
        let mut state = self.lock();
        state.links.clear();
        state.disconnects.clear();
    }

    /// Whether no fault is currently active (heal-and-drain precondition).
    pub fn is_quiet(&self) -> bool {
        let state = self.lock();
        state.links.is_empty() && state.disconnects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn link_profiles_are_set_read_and_healed() {
        let faults = FaultInjector::new(7);
        assert!(faults.is_quiet());
        assert_eq!(faults.link(p(0), p(1)), LinkProfile::default());
        let profile = LinkProfile {
            blocked: false,
            drop_pct: 5,
            dup_pct: 2,
            delay_us: 300,
        };
        faults.set_link(p(0), p(1), profile);
        assert_eq!(faults.link(p(0), p(1)), profile);
        // Partitions are directed: the reverse link stays quiet.
        faults.set_blocked(p(2), p(1), true);
        assert!(faults.link(p(2), p(1)).blocked);
        assert!(!faults.link(p(1), p(2)).blocked);
        assert!(!faults.is_quiet());
        faults.heal_all();
        assert!(faults.is_quiet());
        assert_eq!(faults.link(p(0), p(1)), LinkProfile::default());
    }

    #[test]
    fn unblocking_a_quiet_link_leaves_no_residue() {
        let faults = FaultInjector::new(0);
        faults.set_blocked(p(0), p(1), true);
        faults.set_blocked(p(0), p(1), false);
        assert!(faults.is_quiet());
    }

    /// An injector whose every directed link drops `pct` percent of
    /// frames.
    fn lossy(seed: u64, pct: u8) -> FaultInjector {
        let faults = FaultInjector::new(seed);
        for (from, to) in [(0, 1), (1, 0), (2, 3)] {
            let profile = LinkProfile {
                drop_pct: pct,
                ..LinkProfile::default()
            };
            faults.set_link(p(from), p(to), profile);
        }
        faults
    }

    #[test]
    fn forced_disconnects_are_one_shot() {
        let faults = FaultInjector::new(1);
        assert!(!faults.sample(p(0), p(1)).disconnect);
        faults.force_disconnect(p(0), p(1));
        assert!(!faults.is_quiet());
        assert!(faults.sample(p(0), p(1)).disconnect);
        assert!(!faults.sample(p(0), p(1)).disconnect);
        assert!(faults.is_quiet());
    }

    #[test]
    fn rolls_are_deterministic_per_seed_and_link() {
        let observe = |seed: u64, from: u32, to: u32| -> Vec<bool> {
            let faults = lossy(seed, 30);
            (0..64)
                .map(|_| faults.sample(p(from), p(to)).drop)
                .collect()
        };
        assert_eq!(observe(42, 0, 1), observe(42, 0, 1));
        assert_ne!(observe(42, 0, 1), observe(43, 0, 1));
        assert_ne!(observe(42, 0, 1), observe(42, 1, 0));
        // Interleaving traffic on another link must not perturb a
        // link's stream.
        let faults = lossy(42, 30);
        let interleaved: Vec<bool> = (0..64)
            .map(|_| {
                faults.sample(p(2), p(3));
                faults.sample(p(0), p(1)).drop
            })
            .collect();
        assert_eq!(interleaved, observe(42, 0, 1));
    }

    #[test]
    fn sample_draws_everything_under_one_lock_consistently() {
        let faults = FaultInjector::new(21);
        faults.set_link(
            p(0),
            p(1),
            LinkProfile {
                drop_pct: 100,
                dup_pct: 0,
                delay_us: 5,
                ..LinkProfile::default()
            },
        );
        faults.force_disconnect(p(0), p(1));
        let verdict = faults.sample(p(0), p(1));
        assert!(verdict.disconnect && verdict.drop && !verdict.duplicate);
        assert_eq!(verdict.profile.delay_us, 5);
        // The disconnect was consumed; a quiet link rolls nothing.
        assert!(!faults.sample(p(0), p(1)).disconnect);
        assert!(!faults.sample(p(2), p(3)).drop);
    }

    #[test]
    fn roll_extremes_shortcut() {
        assert!(!lossy(5, 0).sample(p(0), p(1)).drop);
        assert!(lossy(5, 100).sample(p(0), p(1)).drop);
        // The frequency of a 30% coin lands near 30%.
        let faults = lossy(5, 30);
        let hits = (0..1000).filter(|_| faults.sample(p(0), p(1)).drop).count();
        assert!((200..400).contains(&hits), "hits: {hits}");
    }
}
