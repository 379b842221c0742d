//! The deterministic discrete-event simulator.
//!
//! A [`Simulation`] runs `N` single-threaded [`Actor`]s exchanging typed
//! messages over a configurable network. Execution is a classical
//! discrete-event loop: an ordered queue of `(time, sequence)`-stamped
//! entries, each delivered to one actor; handling an event charges the
//! actor's processing cost, so a saturated process queues work — the
//! mechanism behind the throughput curves in the evaluation.
//!
//! Determinism: identical `(actors, config, injected commands)` produce
//! identical executions — every source of randomness derives from the
//! config seed, and queue ties break on a monotonic sequence number.

use crate::config::NetConfig;
use crate::time::VirtualTime;
use at_model::ProcessId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

/// A deterministic single-threaded protocol participant.
pub trait Actor {
    /// The message type exchanged between actors.
    type Msg: Clone;
    /// Events surfaced to the harness (operation completions etc.).
    type Event;

    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    );

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        let _ = (timer, ctx);
    }
}

/// The actor's interface to the simulated world during one event handler.
pub struct Context<'a, M, E> {
    now: VirtualTime,
    me: ProcessId,
    n: usize,
    outbox: Vec<(ProcessId, M)>,
    timers: Vec<(VirtualTime, u64)>,
    events: &'a mut Vec<(VirtualTime, ProcessId, E)>,
}

/// The buffered outputs of one detached [`Context`] invocation
/// ([`Context::into_outputs`]): everything the simulator would have
/// turned into queue entries, handed back to the caller instead.
#[derive(Debug)]
pub struct ContextOutputs<M> {
    /// Messages to transmit, in send order.
    pub outbox: Vec<(ProcessId, M)>,
    /// Timers armed during the invocation, as `(delay, timer_id)`.
    pub timers: Vec<(VirtualTime, u64)>,
}

impl<'a, M, E> Context<'a, M, E> {
    /// A detached context, for driving an [`Actor`] *outside* the
    /// simulator — the hook that lets a real runtime (`at-node`) run the
    /// same sans-I/O state machines on OS threads and sockets. The caller
    /// provides the clock reading and the event sink, invokes the actor,
    /// then collects sends and timers with [`Context::into_outputs`] and
    /// routes them itself.
    pub fn detached(
        now: VirtualTime,
        me: ProcessId,
        n: usize,
        events: &'a mut Vec<(VirtualTime, ProcessId, E)>,
    ) -> Self {
        Context {
            now,
            me,
            n,
            outbox: Vec::new(),
            timers: Vec::new(),
            events,
        }
    }

    /// Consumes the context, returning the buffered sends and timers.
    /// (The simulator never calls this — it destructures internally;
    /// detached callers must, or the outputs are lost.)
    pub fn into_outputs(self) -> ContextOutputs<M> {
        ContextOutputs {
            outbox: self.outbox,
            timers: self.timers,
        }
    }
}

impl<M: Clone, E> Context<'_, M, E> {
    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The identity of this actor.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sends `msg` to `to` (including possibly ourselves).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every process, *including* the sender — the usual
    /// convention of broadcast protocols where the sender also delivers
    /// its own copy.
    pub fn send_all(&mut self, msg: M) {
        for i in 0..self.n {
            self.outbox.push((ProcessId::new(i as u32), msg.clone()));
        }
    }

    /// Schedules `on_timer(timer)` after `delay`.
    pub fn set_timer(&mut self, delay: VirtualTime, timer: u64) {
        self.timers.push((delay, timer));
    }

    /// Emits an event to the harness, stamped with the current time.
    pub fn emit(&mut self, event: E) {
        self.events.push((self.now, self.me, event));
    }
}

/// A scheduled command: a one-shot closure run on an actor, modelling a
/// client request arriving at a replica.
type Command<A> =
    Box<dyn for<'a> FnOnce(&mut A, &mut Context<'a, <A as Actor>::Msg, <A as Actor>::Event>)>;

enum Entry<A: Actor> {
    Start,
    Deliver { from: ProcessId, msg: A::Msg },
    Timer { timer: u64 },
    Command { run: Command<A> },
}

/// Cumulative simulator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to (live) actors.
    pub messages_delivered: u64,
    /// Messages dropped by partitions or injected link faults.
    pub messages_dropped: u64,
    /// Messages parked by a buffering partition (cumulative; parked
    /// messages are re-injected when the partition heals).
    pub messages_parked: u64,
    /// Events processed in total.
    pub events_processed: u64,
}

/// Injected behaviour of one directed link, beyond the latency model.
/// Installed with [`Simulation::inject_link_fault`]; used by the scenario
/// subsystem to model lossy and degraded links deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Drop the next this-many messages sent on the link (decremented per
    /// dropped message; the partition mechanism is separate and takes
    /// precedence).
    pub drop_next: u64,
    /// Extra one-way latency added to every message on the link.
    pub extra_delay: VirtualTime,
}

impl LinkFault {
    /// A fault dropping the next `count` messages.
    pub fn drop(count: u64) -> Self {
        LinkFault {
            drop_next: count,
            extra_delay: VirtualTime::ZERO,
        }
    }

    /// A fault adding `extra` latency to every message.
    pub fn delay(extra: VirtualTime) -> Self {
        LinkFault {
            drop_next: 0,
            extra_delay: extra,
        }
    }
}

/// The kind of a pending queue entry, as exposed to schedule explorers
/// via [`Simulation::pending`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// The one-shot `on_start` invocation of a process.
    Start,
    /// A message delivery from `from`.
    Deliver {
        /// The sending process.
        from: ProcessId,
    },
    /// A timer expiry.
    Timer {
        /// The timer id.
        timer: u64,
    },
    /// An injected command ([`Simulation::schedule`]).
    Command,
}

/// One entry of the pending-event frontier ([`Simulation::pending`]).
///
/// `sequence` is the entry's stable identity: it is assigned at enqueue
/// time, never reused, and survives unrelated steps — a schedule recorded
/// as a list of sequence numbers replays exactly on a fresh simulation
/// built from the same inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingEntry {
    /// Stable entry identity (see the type docs).
    pub sequence: u64,
    /// The entry's scheduled time.
    pub at: VirtualTime,
    /// The process the entry targets.
    pub to: ProcessId,
    /// What the entry is.
    pub kind: EntryKind,
}

/// The discrete-event simulation over actors of type `A`.
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    crashed: Vec<bool>,
    busy_until: Vec<VirtualTime>,
    /// Pending entries keyed by `(time, sequence)` — the key order *is*
    /// the default execution order, and arbitrary entries can be removed
    /// by a schedule controller ([`Simulation::step_entry`]).
    queue: BTreeMap<(VirtualTime, u64), (ProcessId, Entry<A>)>,
    /// Side index: entry sequence number → its scheduled time, so
    /// [`Simulation::step_entry`] resolves a sequence to its queue key in
    /// `O(log n)` instead of scanning.
    seq_times: BTreeMap<u64, VirtualTime>,
    sequence: u64,
    now: VirtualTime,
    rng: StdRng,
    config: NetConfig,
    events: Vec<(VirtualTime, ProcessId, A::Event)>,
    stats: SimStats,
    /// Directed links currently cut by a partition.
    blocked_links: HashSet<(ProcessId, ProcessId)>,
    /// Whether the current partition parks cross-group messages for
    /// delivery at heal time instead of dropping them.
    partition_buffers: bool,
    /// Messages parked by a buffering partition, in send order.
    parked: Vec<(ProcessId, ProcessId, A::Msg)>,
    /// Injected per-link faults (drops, extra delay).
    link_faults: BTreeMap<(ProcessId, ProcessId), LinkFault>,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `actors` with the given network config.
    pub fn new(actors: Vec<A>, config: NetConfig) -> Self {
        let n = actors.len();
        let rng = StdRng::seed_from_u64(config.seed);
        let mut sim = Simulation {
            crashed: vec![false; n],
            busy_until: vec![VirtualTime::ZERO; n],
            actors,
            queue: BTreeMap::new(),
            seq_times: BTreeMap::new(),
            sequence: 0,
            now: VirtualTime::ZERO,
            rng,
            config,
            events: Vec::new(),
            stats: SimStats::default(),
            blocked_links: HashSet::new(),
            partition_buffers: false,
            parked: Vec::new(),
            link_faults: BTreeMap::new(),
        };
        for i in 0..n {
            sim.push(VirtualTime::ZERO, ProcessId::new(i as u32), Entry::Start);
        }
        sim
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Simulator statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Immutable access to an actor (for end-of-run assertions).
    pub fn actor(&self, process: ProcessId) -> &A {
        &self.actors[process.as_usize()]
    }

    /// Marks `process` as crashed: pending and future deliveries to it are
    /// dropped, and it takes no further steps.
    pub fn crash(&mut self, process: ProcessId) {
        self.crashed[process.as_usize()] = true;
    }

    /// Whether `process` has been crashed.
    pub fn is_crashed(&self, process: ProcessId) -> bool {
        self.crashed[process.as_usize()]
    }

    /// Restarts a crashed `process`: it resumes handling future entries
    /// with its in-memory state intact (a warm restart). Entries consumed
    /// while it was crashed stay lost — the channel model offers no
    /// retransmission, so a restarted process may permanently miss
    /// protocol messages; harness invariants that assume complete
    /// delivery must exclude it.
    pub fn restart(&mut self, process: ProcessId) {
        self.crashed[process.as_usize()] = false;
    }

    /// Installs a network partition: messages between processes in
    /// *different* groups are silently dropped (the reliable-channel
    /// assumption is suspended until [`Simulation::heal_partition`]).
    /// Processes absent from every group communicate freely.
    pub fn set_partition(&mut self, groups: &[&[ProcessId]]) {
        self.partition_buffers = false;
        self.install_partition(groups);
    }

    /// Installs a *buffering* partition: cross-group messages are parked
    /// instead of dropped, and re-injected (with fresh link latency) when
    /// [`Simulation::heal_partition`] runs. This models a partition under
    /// the paper's reliable authenticated channels — messages between
    /// correct processes are delayed arbitrarily, never lost — so
    /// protocols converge after the heal without their own retransmission.
    pub fn set_partition_buffered(&mut self, groups: &[&[ProcessId]]) {
        self.partition_buffers = true;
        self.install_partition(groups);
    }

    fn install_partition(&mut self, groups: &[&[ProcessId]]) {
        self.blocked_links.clear();
        for (gi, group_a) in groups.iter().enumerate() {
            for (gj, group_b) in groups.iter().enumerate() {
                if gi == gj {
                    continue;
                }
                for &a in *group_a {
                    for &b in *group_b {
                        self.blocked_links.insert((a, b));
                    }
                }
            }
        }
    }

    /// Removes the current partition; links are reliable again. Messages
    /// dropped by a [`Simulation::set_partition`] partition stay lost (no
    /// retransmission — protocols that need it must implement it);
    /// messages parked by a [`Simulation::set_partition_buffered`]
    /// partition are re-injected now, in send order, each with a fresh
    /// latency sample.
    pub fn heal_partition(&mut self) {
        self.blocked_links.clear();
        self.partition_buffers = false;
        let now = self.now;
        // Released messages must arrive in per-link FIFO order: each
        // message's delivery time is clamped to be no earlier than the
        // previous release on the same directed link (fresh latency
        // samples would otherwise let a later message overtake an earlier
        // one). Equal times fall back to enqueue order, which is the
        // parked (send) order.
        let mut last_release: BTreeMap<(ProcessId, ProcessId), VirtualTime> = BTreeMap::new();
        for (from, to, msg) in std::mem::take(&mut self.parked) {
            // Released messages traverse the link for real now, so the
            // injected per-link faults apply exactly as they would have
            // without the partition: pending drops are consumed, extra
            // delay is added.
            let Some(extra_delay) = self.apply_link_fault(from, to) else {
                continue;
            };
            let latency = self.config.latency.sample(&mut self.rng) + extra_delay;
            let floor = last_release
                .get(&(from, to))
                .copied()
                .unwrap_or(VirtualTime::ZERO);
            let at = (now + latency).max(floor);
            last_release.insert((from, to), at);
            self.push(at, to, Entry::Deliver { from, msg });
        }
    }

    /// Applies the injected fault (if any) on `from → to` to one message
    /// about to traverse the link: consumes a pending drop (counting it
    /// and returning `None`), or returns the extra delay to add. Shared
    /// by the live send path and the heal-time release of parked
    /// messages, so both behave identically.
    fn apply_link_fault(&mut self, from: ProcessId, to: ProcessId) -> Option<VirtualTime> {
        match self.link_faults.get_mut(&(from, to)) {
            Some(fault) if fault.drop_next > 0 => {
                fault.drop_next -= 1;
                self.stats.messages_dropped += 1;
                None
            }
            Some(fault) => Some(fault.extra_delay),
            None => Some(VirtualTime::ZERO),
        }
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_link_blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        self.blocked_links.contains(&(from, to))
    }

    /// Messages currently parked by a buffering partition (released by
    /// the next [`Simulation::heal_partition`]). Harnesses should heal
    /// before cutting a report: parked messages are delayed, not lost,
    /// and leaving them parked at end-of-run silently violates the
    /// reliable-channel model.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Installs (or replaces) an injected fault on the directed link
    /// `from → to`: message drops and/or extra delay. Unlike partitions,
    /// faults are per-link and compose with the latency model; drops are
    /// counted in [`SimStats::messages_dropped`].
    pub fn inject_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        self.link_faults.insert((from, to), fault);
    }

    /// The currently injected fault on `from → to`, if any.
    pub fn link_fault(&self, from: ProcessId, to: ProcessId) -> Option<LinkFault> {
        self.link_faults.get(&(from, to)).copied()
    }

    /// Removes every injected link fault (partitions are unaffected).
    pub fn clear_link_faults(&mut self) {
        self.link_faults.clear();
    }

    /// Schedules `command` to run on `process` at absolute time `at`
    /// (clamped to the present).
    pub fn schedule<F>(&mut self, at: VirtualTime, process: ProcessId, command: F)
    where
        F: for<'a> FnOnce(&mut A, &mut Context<'a, A::Msg, A::Event>) + 'static,
    {
        let at = at.max(self.now);
        self.push(
            at,
            process,
            Entry::Command {
                run: Box::new(command),
            },
        );
    }

    fn push(&mut self, at: VirtualTime, to: ProcessId, entry: Entry<A>) {
        self.queue.insert((at, self.sequence), (to, entry));
        self.seq_times.insert(self.sequence, at);
        self.sequence += 1;
    }

    /// Number of pending queue entries (including entries targeting
    /// crashed processes, which are consumed as no-ops).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The pending-event frontier, in default execution order, with
    /// entries targeting crashed processes filtered out (they would be
    /// no-ops). This is the schedule-controller hook: a harness that
    /// wants to explore delivery interleavings picks any entry here and
    /// executes it with [`Simulation::step_entry`] instead of letting
    /// [`Simulation::step`] follow the time order.
    pub fn pending(&self) -> Vec<PendingEntry> {
        self.queue
            .iter()
            .filter(|(_, (to, _))| !self.crashed[to.as_usize()])
            .map(|(&(at, sequence), (to, entry))| PendingEntry {
                sequence,
                at,
                to: *to,
                kind: match entry {
                    Entry::Start => EntryKind::Start,
                    Entry::Deliver { from, .. } => EntryKind::Deliver { from: *from },
                    Entry::Timer { timer } => EntryKind::Timer { timer: *timer },
                    Entry::Command { .. } => EntryKind::Command,
                },
            })
            .collect()
    }

    /// Executes the pending entry identified by `sequence` (as reported
    /// by [`Simulation::pending`]), regardless of its position in the
    /// time order. Virtual time stays monotone: executing a later entry
    /// first advances the clock, and earlier entries then run "late" —
    /// which is exactly the arbitrary asynchrony a schedule explorer is
    /// meant to exercise. Returns `false` when no such entry exists.
    pub fn step_entry(&mut self, sequence: u64) -> bool {
        let Some(&at) = self.seq_times.get(&sequence) else {
            return false;
        };
        self.seq_times.remove(&sequence);
        let (to, entry) = self
            .queue
            .remove(&(at, sequence))
            .expect("queue and seq index in sync");
        self.execute(at, to, entry);
        true
    }

    /// Processes a single queue entry in default `(time, sequence)`
    /// order. Returns `false` when the queue is exhausted.
    pub fn step(&mut self) -> bool {
        let Some((&key, _)) = self.queue.iter().next() else {
            return false;
        };
        let (to, entry) = self.queue.remove(&key).expect("key just found");
        self.seq_times.remove(&key.1);
        self.execute(key.0, to, entry);
        true
    }

    fn execute(&mut self, at: VirtualTime, process: ProcessId, entry: Entry<A>) {
        self.now = self.now.max(at);
        let index = process.as_usize();
        if self.crashed[index] {
            return;
        }

        // Single-threaded process model: the handler starts when the
        // process becomes free.
        let start = self.now.max(self.busy_until[index]);
        self.stats.events_processed += 1;

        let mut ctx = Context {
            now: start,
            me: process,
            n: self.actors.len(),
            outbox: Vec::new(),
            timers: Vec::new(),
            events: &mut self.events,
        };

        match entry {
            Entry::Start => self.actors[index].on_start(&mut ctx),
            Entry::Deliver { from, msg } => {
                self.stats.messages_delivered += 1;
                self.actors[index].on_message(from, msg, &mut ctx);
            }
            Entry::Timer { timer } => self.actors[index].on_timer(timer, &mut ctx),
            Entry::Command { run } => run(&mut self.actors[index], &mut ctx),
        }

        let Context { outbox, timers, .. } = ctx;

        // The handler completes after the configured processing cost plus
        // per-message transmission work.
        let send_work =
            VirtualTime::from_micros(self.config.send_cost.as_micros() * outbox.len() as u64);
        let done = start + self.config.processing_cost + send_work;
        self.busy_until[index] = done;

        for (to, msg) in outbox {
            self.stats.messages_sent += 1;
            if self.blocked_links.contains(&(process, to)) {
                if self.partition_buffers {
                    self.stats.messages_parked += 1;
                    self.parked.push((process, to, msg));
                } else {
                    self.stats.messages_dropped += 1;
                }
                continue;
            }
            let Some(extra_delay) = self.apply_link_fault(process, to) else {
                continue;
            };
            let latency = self.config.latency.sample(&mut self.rng) + extra_delay;
            self.push(done + latency, to, Entry::Deliver { from: process, msg });
        }
        for (delay, timer) in timers {
            self.push(done + delay, process, Entry::Timer { timer });
        }
    }

    /// Runs until the queue is empty or `limit` entries were processed.
    ///
    /// Returns `true` when the queue drained (quiescence).
    pub fn run_until_quiet(&mut self, limit: u64) -> bool {
        for _ in 0..limit {
            if !self.step() {
                return true;
            }
        }
        self.queue.is_empty()
    }

    /// Runs until virtual time exceeds `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: VirtualTime) {
        while let Some((&(at, _), _)) = self.queue.iter().next() {
            if at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Drains the events emitted so far.
    pub fn take_events(&mut self) -> Vec<(VirtualTime, ProcessId, A::Event)> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;

    /// A ping-pong actor: process 0 starts by pinging 1; each ping is
    /// ponged back, `rounds` times.
    struct PingPong {
        rounds: u64,
        completed: u64,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    impl Actor for PingPong {
        type Msg = Msg;
        type Event = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg, u64>) {
            if ctx.me() == ProcessId::new(0) && self.rounds > 0 {
                ctx.send(ProcessId::new(1), Msg::Ping(1));
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg, u64>) {
            match msg {
                Msg::Ping(round) => ctx.send(from, Msg::Pong(round)),
                Msg::Pong(round) => {
                    self.completed = round;
                    ctx.emit(round);
                    if round < self.rounds {
                        ctx.send(from, Msg::Ping(round + 1));
                    }
                }
            }
        }
    }

    fn ping_pong_sim(seed: u64) -> Simulation<PingPong> {
        let actors = vec![
            PingPong {
                rounds: 5,
                completed: 0,
            },
            PingPong {
                rounds: 5,
                completed: 0,
            },
        ];
        Simulation::new(actors, NetConfig::lan(seed))
    }

    #[test]
    fn ping_pong_completes() {
        let mut sim = ping_pong_sim(0);
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 5);
        let events = sim.take_events();
        assert_eq!(events.len(), 5);
        // Events are in time order and all from process 0.
        for window in events.windows(2) {
            assert!(window[0].0 <= window[1].0);
        }
        assert!(events.iter().all(|(_, p, _)| *p == ProcessId::new(0)));
    }

    #[test]
    fn executions_are_deterministic() {
        let mut sim1 = ping_pong_sim(42);
        let mut sim2 = ping_pong_sim(42);
        sim1.run_until_quiet(1_000);
        sim2.run_until_quiet(1_000);
        assert_eq!(sim1.now(), sim2.now());
        assert_eq!(sim1.stats(), sim2.stats());
        let e1: Vec<_> = sim1.take_events();
        let e2: Vec<_> = sim2.take_events();
        assert_eq!(e1.len(), e2.len());
        for (a, b) in e1.iter().zip(&e2) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut sim1 = ping_pong_sim(1);
        let mut sim2 = ping_pong_sim(2);
        sim1.run_until_quiet(1_000);
        sim2.run_until_quiet(1_000);
        // With jittered latency the completion times almost surely differ.
        assert_ne!(sim1.now(), sim2.now());
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let config = NetConfig {
            latency: LatencyModel::fixed(VirtualTime::from_millis(1)),
            processing_cost: VirtualTime::ZERO,
            send_cost: VirtualTime::ZERO,
            seed: 0,
        };
        let actors = vec![
            PingPong {
                rounds: 3,
                completed: 0,
            },
            PingPong {
                rounds: 3,
                completed: 0,
            },
        ];
        let mut sim = Simulation::new(actors, config);
        sim.run_until_quiet(1_000);
        // 3 rounds × 2 hops × 1ms.
        assert_eq!(sim.now(), VirtualTime::from_millis(6));
    }

    #[test]
    fn crash_stops_a_process() {
        let mut sim = ping_pong_sim(7);
        sim.crash(ProcessId::new(1));
        assert!(sim.is_crashed(ProcessId::new(1)));
        assert!(sim.run_until_quiet(1_000));
        // The ping was sent but never answered.
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 0);
        assert_eq!(sim.stats().messages_sent, 1);
        assert_eq!(sim.stats().messages_delivered, 0);
    }

    #[test]
    fn schedule_runs_commands_at_time() {
        let mut sim = ping_pong_sim(0);
        sim.run_until_quiet(1_000);
        let before = sim.actor(ProcessId::new(0)).completed;
        assert_eq!(before, 5);
        // Inject a new ping via a command.
        sim.schedule(
            VirtualTime::from_millis(100),
            ProcessId::new(0),
            |actor, ctx| {
                actor.rounds += 1;
                ctx.send(ProcessId::new(1), Msg::Ping(actor.rounds));
            },
        );
        sim.run_until_quiet(1_000);
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 6);
        assert!(sim.now() >= VirtualTime::from_millis(100));
    }

    #[test]
    fn processing_cost_delays_handling() {
        let config = NetConfig {
            latency: LatencyModel::fixed(VirtualTime::from_micros(1)),
            processing_cost: VirtualTime::from_millis(10),
            send_cost: VirtualTime::ZERO,
            seed: 0,
        };
        let actors = vec![
            PingPong {
                rounds: 2,
                completed: 0,
            },
            PingPong {
                rounds: 2,
                completed: 0,
            },
        ];
        let mut sim = Simulation::new(actors, config);
        sim.run_until_quiet(1_000);
        // Each handler costs 10ms; the exchange involves ≥ 8 handler
        // invocations (2 starts + pings/pongs), so well over 40ms.
        assert!(sim.now() >= VirtualTime::from_millis(40));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = ping_pong_sim(0);
        sim.run_until(VirtualTime::from_micros(150));
        assert!(sim.now() >= VirtualTime::from_micros(150));
        // Ping-pong over LAN latency (≥200µs base) cannot have finished.
        assert!(sim.actor(ProcessId::new(0)).completed < 5);
    }

    #[test]
    fn partition_drops_cross_group_messages() {
        let mut sim = ping_pong_sim(3);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        sim.set_partition(&[&[p0], &[p1]]);
        assert!(sim.is_link_blocked(p0, p1));
        assert!(sim.is_link_blocked(p1, p0));
        assert!(sim.run_until_quiet(1_000));
        // The initial ping was dropped: no round completed.
        assert_eq!(sim.actor(p0).completed, 0);
        assert_eq!(sim.stats().messages_dropped, 1);

        // Heal and re-inject: communication works again.
        sim.heal_partition();
        assert!(!sim.is_link_blocked(p0, p1));
        sim.schedule(sim.now(), p0, |_actor, ctx| {
            ctx.send(ProcessId::new(1), Msg::Ping(1));
        });
        assert!(sim.run_until_quiet(1_000));
        // The restarted exchange runs to completion (all 5 rounds).
        assert_eq!(sim.actor(p0).completed, 5);
    }

    #[test]
    fn buffered_partition_releases_messages_on_heal() {
        let mut sim = ping_pong_sim(7);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        sim.set_partition_buffered(&[&[p0], &[p1]]);
        assert!(sim.run_until_quiet(1_000));
        // The initial ping was parked, not dropped.
        assert_eq!(sim.actor(p0).completed, 0);
        assert_eq!(sim.stats().messages_dropped, 0);
        assert_eq!(sim.stats().messages_parked, 1);

        // Healing re-injects the parked ping; the exchange then runs to
        // completion without any retransmission by the actors.
        sim.heal_partition();
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(p0).completed, 5);
        assert_eq!(sim.stats().messages_dropped, 0);
    }

    #[test]
    fn healed_partition_releases_through_link_faults() {
        let mut sim = ping_pong_sim(13);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        sim.set_partition_buffered(&[&[p0], &[p1]]);
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.stats().messages_parked, 1);
        // A drop fault injected on the parked link consumes the released
        // message: heal applies the fault exactly as a live send would.
        sim.inject_link_fault(p0, p1, LinkFault::drop(1));
        sim.heal_partition();
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(p0).completed, 0);
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.link_fault(p0, p1), Some(LinkFault::drop(0)));
    }

    #[test]
    fn send_cost_charges_sender() {
        let config = NetConfig {
            latency: LatencyModel::fixed(VirtualTime::from_micros(1)),
            processing_cost: VirtualTime::ZERO,
            send_cost: VirtualTime::from_millis(2),
            seed: 0,
        };
        let actors = vec![
            PingPong {
                rounds: 1,
                completed: 0,
            },
            PingPong {
                rounds: 1,
                completed: 0,
            },
        ];
        let mut sim = Simulation::new(actors, config);
        sim.run_until_quiet(1_000);
        // Ping (2ms send work) + pong (2ms) dominate the 1µs latency.
        assert!(sim.now() >= VirtualTime::from_millis(4));
    }

    #[test]
    fn link_fault_drops_next_messages() {
        let mut sim = ping_pong_sim(11);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        // Drop the first ping; the exchange never starts.
        sim.inject_link_fault(p0, p1, LinkFault::drop(1));
        assert_eq!(sim.link_fault(p0, p1), Some(LinkFault::drop(1)));
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(p0).completed, 0);
        assert_eq!(sim.stats().messages_dropped, 1);
        // The fault is spent: a re-injected ping goes through.
        sim.schedule(sim.now(), p0, |_actor, ctx| {
            ctx.send(ProcessId::new(1), Msg::Ping(1));
        });
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(p0).completed, 5);
    }

    #[test]
    fn link_fault_delay_slows_the_link() {
        let config = NetConfig {
            latency: LatencyModel::fixed(VirtualTime::from_millis(1)),
            processing_cost: VirtualTime::ZERO,
            send_cost: VirtualTime::ZERO,
            seed: 0,
        };
        let make = || {
            vec![
                PingPong {
                    rounds: 1,
                    completed: 0,
                },
                PingPong {
                    rounds: 1,
                    completed: 0,
                },
            ]
        };
        let mut plain = Simulation::new(make(), config.clone());
        plain.run_until_quiet(1_000);

        let mut slowed = Simulation::new(make(), config);
        slowed.inject_link_fault(
            ProcessId::new(0),
            ProcessId::new(1),
            LinkFault::delay(VirtualTime::from_millis(9)),
        );
        slowed.run_until_quiet(1_000);
        // One hop delayed by 9ms.
        assert_eq!(slowed.now(), plain.now() + VirtualTime::from_millis(9));
        assert_eq!(slowed.actor(ProcessId::new(0)).completed, 1);

        slowed.clear_link_faults();
        assert_eq!(
            slowed.link_fault(ProcessId::new(0), ProcessId::new(1)),
            None
        );
    }

    #[test]
    fn pending_exposes_the_frontier() {
        let sim = ping_pong_sim(0);
        let frontier = sim.pending();
        // Two Start entries, in (time, sequence) order.
        assert_eq!(frontier.len(), 2);
        assert_eq!(sim.queue_len(), 2);
        assert!(frontier.iter().all(|e| e.kind == EntryKind::Start));
        assert_eq!(frontier[0].to, ProcessId::new(0));
        assert_eq!(frontier[1].to, ProcessId::new(1));
        assert!(frontier[0].sequence < frontier[1].sequence);
    }

    #[test]
    fn step_entry_executes_out_of_order() {
        let mut sim = ping_pong_sim(0);
        let frontier = sim.pending();
        // Start p1 before p0: nothing happens at p1, then p0's start
        // sends the first ping.
        assert!(sim.step_entry(frontier[1].sequence));
        assert!(sim.step_entry(frontier[0].sequence));
        let frontier = sim.pending();
        assert_eq!(frontier.len(), 1);
        assert!(matches!(
            frontier[0].kind,
            EntryKind::Deliver { from } if from == ProcessId::new(0)
        ));
        // Unknown sequence numbers are rejected.
        assert!(!sim.step_entry(u64::MAX));
        // Driving the rest via chosen entries completes the exchange.
        while let Some(entry) = sim.pending().first().copied() {
            assert!(sim.step_entry(entry.sequence));
        }
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 5);
    }

    #[test]
    fn chosen_schedules_replay_identically() {
        // Picking the *last* frontier entry each time is a schedule; the
        // recorded sequence numbers replay to the same final state.
        let run = |record: Option<&mut Vec<u64>>, replay: Option<&[u64]>| -> (u64, VirtualTime) {
            let mut sim = ping_pong_sim(5);
            match (record, replay) {
                (Some(record), None) => {
                    while let Some(entry) = sim.pending().last().copied() {
                        record.push(entry.sequence);
                        sim.step_entry(entry.sequence);
                    }
                }
                (None, Some(schedule)) => {
                    for &sequence in schedule {
                        assert!(sim.step_entry(sequence));
                    }
                }
                _ => unreachable!(),
            }
            (sim.actor(ProcessId::new(0)).completed, sim.now())
        };
        let mut schedule = Vec::new();
        let first = run(Some(&mut schedule), None);
        let second = run(None, Some(&schedule));
        assert_eq!(first, second);
    }

    #[test]
    fn restart_resumes_a_crashed_process() {
        let mut sim = ping_pong_sim(7);
        let p1 = ProcessId::new(1);
        sim.crash(p1);
        assert!(sim.run_until_quiet(1_000));
        // The ping was consumed by the crash; pending() hides entries to
        // crashed processes while they are down.
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 0);
        sim.restart(p1);
        assert!(!sim.is_crashed(p1));
        // A re-injected ping now completes the remaining rounds: the
        // restarted process kept its state but lost the crashed-away
        // delivery for good.
        sim.schedule(sim.now(), ProcessId::new(0), |_actor, ctx| {
            ctx.send(ProcessId::new(1), Msg::Ping(1));
        });
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.actor(ProcessId::new(0)).completed, 5);
    }

    #[test]
    fn healed_partition_preserves_per_link_fifo_order() {
        // High jitter would happily reorder fresh latency samples; the
        // heal-time clamp must keep each link's parked messages in send
        // order anyway.
        struct Collector {
            received: Vec<u64>,
        }
        impl Actor for Collector {
            type Msg = u64;
            type Event = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u64, ()>) {
                if ctx.me() == ProcessId::new(0) {
                    for i in 0..20 {
                        ctx.send(ProcessId::new(1), i);
                    }
                }
            }
            fn on_message(&mut self, _: ProcessId, msg: u64, _: &mut Context<'_, u64, ()>) {
                self.received.push(msg);
            }
        }
        let config = NetConfig {
            latency: LatencyModel {
                base: VirtualTime::from_micros(10),
                jitter: VirtualTime::from_millis(50),
            },
            processing_cost: VirtualTime::ZERO,
            send_cost: VirtualTime::ZERO,
            seed: 23,
        };
        let actors = vec![
            Collector { received: vec![] },
            Collector { received: vec![] },
        ];
        let mut sim = Simulation::new(actors, config);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        sim.set_partition_buffered(&[&[p0], &[p1]]);
        assert!(sim.run_until_quiet(1_000));
        assert_eq!(sim.stats().messages_parked, 20);
        sim.heal_partition();
        assert!(sim.run_until_quiet(1_000));
        let received = &sim.actor(p1).received;
        assert_eq!(*received, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn detached_context_buffers_outputs() {
        let mut events: Vec<(VirtualTime, ProcessId, u64)> = Vec::new();
        let mut ctx: Context<'_, u32, u64> = Context::detached(
            VirtualTime::from_micros(5),
            ProcessId::new(1),
            3,
            &mut events,
        );
        assert_eq!(ctx.me(), ProcessId::new(1));
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.now(), VirtualTime::from_micros(5));
        ctx.send(ProcessId::new(2), 7);
        ctx.send_all(11);
        ctx.set_timer(VirtualTime::from_millis(1), 0xF00);
        ctx.emit(42);
        let outputs = ctx.into_outputs();
        assert_eq!(outputs.outbox.len(), 4);
        assert_eq!(outputs.outbox[0], (ProcessId::new(2), 7));
        assert_eq!(outputs.timers, vec![(VirtualTime::from_millis(1), 0xF00)]);
        assert_eq!(
            events,
            vec![(VirtualTime::from_micros(5), ProcessId::new(1), 42)]
        );
    }
}
