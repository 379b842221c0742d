//! A PBFT-style three-phase atomic broadcast (Castro & Liskov — the
//! paper's reference \[13\]), and [`PbftBroadcast`], the adapter that makes
//! it the fourth [`SecureBroadcast`] backend.
//!
//! This is the *consensus-based baseline* of the evaluation in Section 5,
//! and the per-account sequencing service of Section 6. Replicas order
//! client requests into a single sequence:
//!
//! 1. the leader of the current view assigns sequence numbers and sends
//!    `PRE-PREPARE(view, seq, batch)`;
//! 2. replicas `PREPARE`; a slot is *prepared* after the pre-prepare plus
//!    `2f` matching prepares;
//! 3. prepared replicas `COMMIT`; a slot *commits* after `2f+1` matching
//!    commits and executes in sequence order.
//!
//! Liveness under a faulty leader comes from view changes: on timeout a
//! replica broadcasts `VIEW-CHANGE` carrying its prepared slots; the new
//! leader assembles `2f+1` of them into a `NEW-VIEW` re-proposing every
//! prepared slot.
//!
//! Scope: this baseline reproduces PBFT's *message pattern and round
//! structure* (what the evaluation measures: 3 one-way delays, `O(n²)`
//! messages per request, leader bottleneck). It runs over authenticated
//! channels; view-change messages are not themselves
//! signature-certified, which is sufficient for the crash-faulty and
//! performance experiments the baseline participates in (the paper treats
//! its consensus baseline as a black box).
//!
//! A total order is more than secure broadcast asks for: attributed to
//! their sources, its deliveries satisfy the contract of
//! [`crate::secure`] (which also says what this backend does *not*
//! promise). [`PbftBroadcast`] does that attribution, and so the
//! consensus baseline runs through the same replica, scenarios, explorer
//! and node loop as the broadcast-based system.

use crate::instance::InstanceTable;
use crate::secure::SecureBroadcast;
use crate::types::Step;
use at_model::{Encode, ProcessId, SeqNo};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Requirements on requests ordered by the replica group.
pub trait Request: Clone + Eq + Hash + fmt::Debug {}

/// Per-voter view-change evidence: `(sequence, view, batch)` triples of
/// the slots the voter had prepared.
type ViewChangeVotes<R> = HashMap<ProcessId, Vec<(u64, u64, Vec<R>)>>;

impl<T: Clone + Eq + Hash + fmt::Debug> Request for T {}

/// Wire messages of the PBFT baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbftMsg<R> {
    /// A client request forwarded to the current leader.
    Forward(R),
    /// Leader's ordering proposal for one slot.
    PrePrepare {
        /// The proposing view.
        view: u64,
        /// The slot.
        seq: u64,
        /// The proposed batch.
        batch: Vec<R>,
    },
    /// A replica's agreement to the proposal.
    Prepare {
        /// The view.
        view: u64,
        /// The slot.
        seq: u64,
    },
    /// A replica's commitment after preparing.
    Commit {
        /// The view.
        view: u64,
        /// The slot.
        seq: u64,
    },
    /// A replica's vote to move to `new_view`, with its prepared slots.
    ViewChange {
        /// The proposed view.
        new_view: u64,
        /// `(seq, view-it-prepared-in, batch)` for every prepared slot.
        prepared: Vec<(u64, u64, Vec<R>)>,
    },
    /// The new leader's installation message.
    NewView {
        /// The installed view.
        view: u64,
        /// Slots re-proposed in the new view.
        preprepares: Vec<(u64, Vec<R>)>,
    },
}

struct Slot<R> {
    batch: Option<Vec<R>>,
    /// View the stored pre-prepare belongs to.
    view: u64,
    prepares: HashSet<ProcessId>,
    commits: HashSet<ProcessId>,
    prepared: bool,
    committed: bool,
    executed: bool,
}

impl<R> Default for Slot<R> {
    fn default() -> Self {
        Slot {
            batch: None,
            view: 0,
            prepares: HashSet::new(),
            commits: HashSet::new(),
            prepared: false,
            committed: false,
            executed: false,
        }
    }
}

/// One replica of the PBFT group.
///
/// Sans-I/O: every entry point fills a [`Step`] whose deliveries are the
/// executed requests, tagged with their global order index.
pub struct PbftReplica<R> {
    me: ProcessId,
    /// The replica group, in a fixed agreed order.
    members: Vec<ProcessId>,
    f: usize,
    view: u64,
    /// Leader-side: next slot to assign.
    next_seq: u64,
    /// Lowest not-yet-executed slot.
    next_execute: u64,
    slots: BTreeMap<u64, Slot<R>>,
    /// Requests this replica accepted from clients and must see executed.
    pending: Vec<R>,
    executed: HashSet<R>,
    /// View-change votes per proposed view.
    view_changes: HashMap<u64, ViewChangeVotes<R>>,
    /// Global execution counter (delivery tag).
    execution_index: u64,
    /// Mutation-testing hook: see [`PbftBroadcast::set_forget_early_votes`].
    #[cfg(feature = "broken")]
    forget_early_votes: bool,
}

impl<R: Request> PbftReplica<R> {
    /// Creates a replica for `me` within the ordered `members` group.
    ///
    /// # Panics
    ///
    /// Panics when `me` is not a member or the group is empty.
    pub fn new(me: ProcessId, members: Vec<ProcessId>) -> Self {
        assert!(!members.is_empty(), "replica group must be non-empty");
        assert!(members.contains(&me), "replica must belong to the group");
        let f = (members.len() - 1) / 3;
        PbftReplica {
            me,
            members,
            f,
            view: 0,
            next_seq: 1,
            next_execute: 1,
            slots: BTreeMap::new(),
            pending: Vec::new(),
            executed: HashSet::new(),
            view_changes: HashMap::new(),
            execution_index: 0,
            #[cfg(feature = "broken")]
            forget_early_votes: false,
        }
    }

    /// The leader of view `view`.
    pub fn leader_of(&self, view: u64) -> ProcessId {
        self.members[(view as usize) % self.members.len()]
    }

    /// The current leader.
    pub fn leader(&self) -> ProcessId {
        self.leader_of(self.view)
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    fn send_members(&self, step: &mut Step<PbftMsg<R>, (u64, R)>, msg: PbftMsg<R>) {
        for &member in &self.members {
            step.send(member, msg.clone());
        }
    }

    /// Accepts a client request at this replica: leads it or forwards it
    /// to the leader.
    pub fn submit(&mut self, request: R, step: &mut Step<PbftMsg<R>, (u64, R)>) {
        if self.executed.contains(&request) {
            return;
        }
        self.pending.push(request.clone());
        if self.is_leader() {
            self.propose(request, step);
        } else {
            step.send(self.leader(), PbftMsg::Forward(request));
        }
    }

    /// Leader-side: assigns `request` the next slot and proposes it.
    fn propose(&mut self, request: R, step: &mut Step<PbftMsg<R>, (u64, R)>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_members(
            step,
            PbftMsg::PrePrepare {
                view: self.view,
                seq,
                batch: vec![request],
            },
        );
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: PbftMsg<R>,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if !self.members.contains(&from) {
            return; // only group members participate
        }
        match msg {
            PbftMsg::Forward(request) => {
                if self.is_leader() && !self.executed.contains(&request) {
                    self.propose(request, step);
                }
            }
            PbftMsg::PrePrepare { view, seq, batch } => {
                self.on_preprepare(from, view, seq, batch, step);
            }
            PbftMsg::Prepare { view, seq } => self.on_prepare(from, view, seq, step),
            PbftMsg::Commit { view, seq } => self.on_commit(from, view, seq, step),
            PbftMsg::ViewChange { new_view, prepared } => {
                self.on_view_change(from, new_view, prepared, step);
            }
            PbftMsg::NewView { view, preprepares } => {
                self.on_new_view(from, view, preprepares, step);
            }
        }
    }

    fn on_preprepare(
        &mut self,
        from: ProcessId,
        view: u64,
        seq: u64,
        batch: Vec<R>,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if view != self.view || from != self.leader_of(view) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() && slot.view == view {
            return; // duplicate pre-prepare
        }
        // A batch from an earlier view takes the votes cast for it along.
        // With no batch stored, the votes already here are this
        // proposal's own: `PREPARE`s (and `COMMIT`s) of faster replicas
        // that overtook the `PRE-PREPARE` on the wire, and they count.
        let replaced = slot.batch.replace(batch).is_some();
        #[cfg(feature = "broken")]
        let replaced = replaced || self.forget_early_votes;
        if replaced {
            slot.prepares.clear();
            slot.commits.clear();
        }
        slot.view = view;
        let msg = PbftMsg::Prepare { view, seq };
        self.send_members(step, msg);
    }

    fn on_prepare(
        &mut self,
        from: ProcessId,
        view: u64,
        seq: u64,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if view != self.view {
            return;
        }
        let quorum = self.quorum();
        let slot = self.slots.entry(seq).or_default();
        slot.prepares.insert(from);
        // Prepared: pre-prepare (the stored batch) + 2f prepares. The
        // leader's pre-prepare counts as its prepare, and `send_members`
        // includes ourselves, so the quorum check is simply 2f+1 distinct
        // prepare-voters plus a stored batch.
        if slot.batch.is_some() && slot.prepares.len() >= quorum && !slot.prepared {
            slot.prepared = true;
            let msg = PbftMsg::Commit { view, seq };
            self.send_members(step, msg);
        }
    }

    fn on_commit(
        &mut self,
        from: ProcessId,
        view: u64,
        seq: u64,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if view != self.view {
            return;
        }
        let quorum = self.quorum();
        let slot = self.slots.entry(seq).or_default();
        slot.commits.insert(from);
        if slot.batch.is_some() && slot.commits.len() >= quorum && !slot.committed {
            slot.committed = true;
            self.execute_ready(step);
        }
    }

    fn execute_ready(&mut self, step: &mut Step<PbftMsg<R>, (u64, R)>) {
        while let Some(slot) = self.slots.get_mut(&self.next_execute) {
            if !slot.committed || slot.executed {
                break;
            }
            // A slot commits only once it holds a batch, and keeps it.
            let Some(batch) = slot.batch.clone() else {
                break;
            };
            slot.executed = true;
            self.next_execute += 1;
            for request in batch {
                if self.executed.insert(request.clone()) {
                    self.pending.retain(|p| p != &request);
                    self.execution_index += 1;
                    step.deliver(
                        self.me,
                        SeqNo::new(self.execution_index),
                        (self.execution_index, request),
                    );
                }
            }
        }
    }

    /// Called by the embedding actor when progress stalls: votes to
    /// replace the current leader.
    pub fn on_timeout(&mut self, step: &mut Step<PbftMsg<R>, (u64, R)>) {
        let new_view = self.view + 1;
        let prepared: Vec<(u64, u64, Vec<R>)> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.prepared && !slot.executed)
            // A slot prepares only once it holds a batch, and keeps it.
            .filter_map(|(&seq, slot)| Some((seq, slot.view, slot.batch.clone()?)))
            .collect();
        let msg = PbftMsg::ViewChange { new_view, prepared };
        self.send_members(step, msg);
    }

    fn on_view_change(
        &mut self,
        from: ProcessId,
        new_view: u64,
        prepared: Vec<(u64, u64, Vec<R>)>,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if new_view <= self.view {
            return;
        }
        let votes = self.view_changes.entry(new_view).or_default();
        votes.insert(from, prepared);
        // Only the would-be leader assembles the new view.
        if self.leader_of(new_view) != self.me {
            return;
        }
        if self.view_changes[&new_view].len() < self.quorum() {
            return;
        }

        // Re-propose, for every slot reported prepared by anyone, the
        // batch prepared in the highest view.
        let mut chosen: BTreeMap<u64, (u64, Vec<R>)> = BTreeMap::new();
        for prepared in self.view_changes[&new_view].values() {
            for (seq, slot_view, batch) in prepared {
                let entry = chosen.entry(*seq).or_insert((*slot_view, batch.clone()));
                if *slot_view > entry.0 {
                    *entry = (*slot_view, batch.clone());
                }
            }
        }
        let preprepares: Vec<(u64, Vec<R>)> = chosen
            .into_iter()
            .map(|(seq, (_, batch))| (seq, batch))
            .collect();

        let msg = PbftMsg::NewView {
            view: new_view,
            preprepares,
        };
        self.send_members(step, msg);
    }

    fn on_new_view(
        &mut self,
        from: ProcessId,
        view: u64,
        preprepares: Vec<(u64, Vec<R>)>,
        step: &mut Step<PbftMsg<R>, (u64, R)>,
    ) {
        if view <= self.view || from != self.leader_of(view) {
            return;
        }
        self.view = view;
        self.view_changes.retain(|&v, _| v > view);

        let max_seq = preprepares.iter().map(|(seq, _)| *seq).max().unwrap_or(0);
        if self.me == self.leader_of(view) {
            self.next_seq = self.next_seq.max(max_seq + 1);
        }

        // Treat the embedded pre-prepares as fresh proposals in the new
        // view.
        for (seq, batch) in preprepares {
            let slot = self.slots.entry(seq).or_default();
            if slot.executed {
                continue;
            }
            slot.batch = Some(batch);
            slot.view = view;
            slot.prepared = false;
            slot.committed = false;
            slot.prepares.clear();
            slot.commits.clear();
            let msg = PbftMsg::Prepare { view, seq };
            self.send_members(step, msg);
        }

        // Re-inject the client requests still waiting (`execute_ready`
        // drops what it executes, so none of them has been).
        for request in self.pending.clone() {
            if self.is_leader() {
                self.propose(request, step);
            } else {
                step.send(self.leader(), PbftMsg::Forward(request));
            }
        }
    }
}

impl<R: Request> fmt::Debug for PbftReplica<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PbftReplica(me={}, view={}, leader={}, executed={})",
            self.me,
            self.view,
            self.leader(),
            self.execution_index
        )
    }
}

/// What the group orders for [`PbftBroadcast`]: a payload under the
/// source process and sequence number it is to be delivered as.
type Sourced<P> = (ProcessId, SeqNo, P);

/// PBFT as a [`SecureBroadcast`] backend (see the [module docs](self)):
/// one [`PbftReplica`] over all `n` processes orders
/// `(source, seq, payload)` requests, and the crate's instance table
/// releases what it executes per source — gaplessly, in sequence order,
/// exactly once. `set_tracer` stays the trait's default. The table
/// keeps nothing once a stream has no gap, but the replica's own slots
/// and executed set are never freed.
pub struct PbftBroadcast<P> {
    replica: PbftReplica<Sourced<P>>,
    table: InstanceTable<ProcessId, (), P>,
}

impl<P: Request> PbftBroadcast<P> {
    /// Creates the endpoint for process `me` of `n`; process 0 leads.
    pub fn new(me: ProcessId, n: usize) -> Self {
        PbftBroadcast {
            replica: PbftReplica::new(me, ProcessId::all(n).collect()),
            table: InstanceTable::new(me, n),
        }
    }

    /// **Mutation-testing hook** (`broken` feature only): a pre-prepare
    /// discards the votes already collected for its slot, as it did
    /// before the fix in `on_preprepare` — on a link that reorders, a
    /// replica whose peers' `PREPARE`s overtake the leader's
    /// `PRE-PREPARE` never prepares the slot and stops executing.
    #[cfg(feature = "broken")]
    pub fn set_forget_early_votes(&mut self) {
        self.replica.forget_early_votes = true;
    }

    /// Submits every one of `payloads` under this process's next
    /// sequence number.
    fn submit<const N: usize>(
        &mut self,
        payloads: [P; N],
        step: &mut Step<PbftMsg<Sourced<P>>, P>,
    ) -> SeqNo {
        let (me, seq) = (self.table.me(), self.table.next_seq());
        let mut native = Step::new();
        for payload in payloads {
            self.replica.submit((me, seq, payload), &mut native);
        }
        self.absorb(native, step);
        seq
    }

    /// Passes the replica's messages on and files what it executed under
    /// its source. The first copy of a `(source, seq)` wins, at every
    /// process the same one, because all of them see one order.
    fn absorb(
        &mut self,
        native: Step<PbftMsg<Sourced<P>>, (u64, Sourced<P>)>,
        step: &mut Step<PbftMsg<Sourced<P>>, P>,
    ) {
        step.outgoing.extend(native.outgoing);
        for delivery in native.deliveries {
            let (_, (source, seq, payload)) = delivery.payload;
            self.table.hold(source, seq, payload);
            while let Some((seq, payload)) = self.table.release(source) {
                step.deliver(source, seq, payload);
            }
        }
    }
}

impl<P: Request + Encode + Send> SecureBroadcast<P> for PbftBroadcast<P> {
    type Msg = PbftMsg<Sourced<P>>;

    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        self.submit([payload], step)
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>) {
        // Channels are authenticated: a process submits under its own
        // name only.
        if matches!(&msg, PbftMsg::Forward((source, ..)) if *source != from) {
            return;
        }
        let mut native = Step::new();
        self.replica.on_message(from, msg, &mut native);
        self.absorb(native, step);
    }

    /// There are no halves to split between: both payloads go to the
    /// orderer under one sequence number and every process delivers
    /// whichever the order puts first — one side, the same everywhere,
    /// where a secure broadcast delivers neither.
    fn broadcast_split(&mut self, left: P, right: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        self.submit([left, right], step)
    }

    fn instance_count(&self) -> usize {
        self.table.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.table.delivered_count()
    }

    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.table.set_source_floor(source, floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn group(n: usize) -> Vec<ProcessId> {
        (0..n as u32).map(p).collect()
    }

    struct Net {
        replicas: Vec<PbftReplica<u64>>,
        inflight: VecDeque<(ProcessId, ProcessId, PbftMsg<u64>)>,
        executed: Vec<Vec<u64>>,
        crashed: HashSet<ProcessId>,
    }

    impl Net {
        fn new(n: usize) -> Net {
            Net {
                replicas: (0..n as u32)
                    .map(|i| PbftReplica::new(p(i), group(n)))
                    .collect(),
                inflight: VecDeque::new(),
                executed: vec![Vec::new(); n],
                crashed: HashSet::new(),
            }
        }

        fn absorb(&mut self, from: ProcessId, step: Step<PbftMsg<u64>, (u64, u64)>) {
            for out in step.outgoing {
                self.inflight.push_back((from, out.to, out.msg));
            }
            for delivery in step.deliveries {
                self.executed[delivery.source.as_usize()].push(delivery.payload.1);
            }
        }

        fn submit(&mut self, at: ProcessId, request: u64) {
            let mut step = Step::new();
            self.replicas[at.as_usize()].submit(request, &mut step);
            self.absorb(at, step);
        }

        fn timeout(&mut self, at: ProcessId) {
            let mut step = Step::new();
            self.replicas[at.as_usize()].on_timeout(&mut step);
            self.absorb(at, step);
        }

        fn run(&mut self) {
            while let Some((from, to, msg)) = self.inflight.pop_front() {
                if self.crashed.contains(&to) || self.crashed.contains(&from) {
                    continue;
                }
                let mut step = Step::new();
                self.replicas[to.as_usize()].on_message(from, msg, &mut step);
                self.absorb(to, step);
            }
        }
    }

    #[test]
    fn orders_requests_through_three_phases() {
        let mut net = Net::new(4);
        net.submit(p(0), 100); // p0 is the leader of view 0
        net.run();
        for i in 0..4 {
            assert_eq!(net.executed[i], vec![100], "replica {i}");
        }
    }

    #[test]
    fn requests_submitted_at_followers_are_forwarded() {
        let mut net = Net::new(4);
        net.submit(p(2), 7);
        net.run();
        for i in 0..4 {
            assert_eq!(net.executed[i], vec![7]);
        }
    }

    #[test]
    fn total_order_is_identical_everywhere() {
        let mut net = Net::new(4);
        for v in [5u64, 6, 7, 8, 9] {
            net.submit(p((v % 4) as u32), v);
        }
        net.run();
        let reference = net.executed[0].clone();
        assert_eq!(reference.len(), 5);
        for i in 1..4 {
            assert_eq!(net.executed[i], reference, "replica {i}");
        }
    }

    /// Regression: a `PRE-PREPARE` used to clear its slot's votes, so a
    /// replica whose peers' `PREPARE`s and `COMMIT`s overtook it never
    /// prepared the slot and executed nothing from there on.
    #[test]
    fn votes_that_overtake_the_preprepare_still_count() {
        let mut net = Net::new(4);
        net.submit(p(0), 100);
        // p3's link from the leader is slow: everything else runs to
        // quiescence first, 2f + 1 PREPAREs and COMMITs reaching p3.
        let mut late = VecDeque::new();
        while let Some((from, to, msg)) = net.inflight.pop_front() {
            if to == p(3) && matches!(msg, PbftMsg::PrePrepare { .. }) {
                late.push_back((from, to, msg));
                continue;
            }
            let mut step = Step::new();
            net.replicas[to.as_usize()].on_message(from, msg, &mut step);
            net.absorb(to, step);
        }
        assert_eq!(late.len(), 1);
        assert!(net.executed[3].is_empty());
        net.inflight = late;
        net.run();
        for i in 0..4 {
            assert_eq!(net.executed[i], vec![100], "replica {i}");
        }
    }

    #[test]
    fn progress_with_crashed_follower() {
        let mut net = Net::new(4);
        net.crashed.insert(p(3));
        net.submit(p(0), 11);
        net.run();
        for i in 0..3 {
            assert_eq!(net.executed[i], vec![11]);
        }
        assert!(net.executed[3].is_empty());
    }

    #[test]
    fn leader_crash_recovers_via_view_change() {
        let mut net = Net::new(4);
        net.crashed.insert(p(0)); // leader of view 0 is dead
        net.submit(p(1), 42); // forwarded to p0, lost
        net.run();
        assert!(net.executed[1].is_empty());
        // Timeouts fire at the survivors.
        for i in 1..4 {
            net.timeout(p(i));
        }
        net.run();
        // View 1's leader is p1; the pending request was re-injected.
        for i in 1..4 {
            assert_eq!(net.executed[i], vec![42], "replica {i}");
            assert_eq!(net.replicas[i].view, 1);
        }
    }

    #[test]
    fn view_change_preserves_prepared_requests() {
        let mut net = Net::new(4);
        net.submit(p(0), 9);
        // Run only until prepares are exchanged, then "crash" the leader
        // before commits complete: emulate by dropping all Commit messages
        // from p0 and crashing it afterwards.
        let mut commits_blocked = VecDeque::new();
        while let Some((from, to, msg)) = net.inflight.pop_front() {
            if matches!(msg, PbftMsg::Commit { .. }) {
                commits_blocked.push_back((from, to, msg));
                continue;
            }
            let mut step = Step::new();
            net.replicas[to.as_usize()].on_message(from, msg.clone(), &mut step);
            net.absorb(to, step);
        }
        net.crashed.insert(p(0));
        for i in 1..4 {
            net.timeout(p(i));
        }
        net.run();
        for i in 1..4 {
            assert_eq!(net.executed[i], vec![9], "replica {i}");
        }
    }

    #[test]
    fn duplicate_submissions_execute_once() {
        let mut net = Net::new(4);
        net.submit(p(0), 3);
        net.run();
        net.submit(p(0), 3);
        net.run();
        for i in 0..4 {
            assert_eq!(net.executed[i], vec![3]);
        }
    }

    #[test]
    fn non_member_messages_ignored() {
        let members = vec![p(0), p(1), p(2), p(3)];
        let mut replica: PbftReplica<u64> = PbftReplica::new(p(0), members);
        let mut step = Step::new();
        replica.on_message(
            p(9),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                batch: vec![1],
            },
            &mut step,
        );
        assert!(step.outgoing.is_empty());
    }

    #[test]
    fn leader_rotation_and_accessors() {
        let replica: PbftReplica<u64> = PbftReplica::new(p(1), group(4));
        assert_eq!(replica.leader_of(0), p(0));
        assert_eq!(replica.leader_of(1), p(1));
        assert_eq!(replica.leader_of(5), p(1));
        assert_eq!(replica.f, 1);
        assert!(!replica.is_leader());
        assert!(format!("{replica:?}").contains("view=0, leader=p0, executed=0"));
    }

    #[test]
    fn single_replica_group_executes_immediately() {
        let mut replica: PbftReplica<u64> = PbftReplica::new(p(0), vec![p(0)]);
        let mut step = Step::new();
        replica.submit(77, &mut step);
        // Process self-addressed messages until quiescent.
        let mut inflight: VecDeque<PbftMsg<u64>> =
            step.outgoing.into_iter().map(|o| o.msg).collect();
        let mut executed: Vec<u64> = step.deliveries.iter().map(|d| d.payload.1).collect();
        while let Some(msg) = inflight.pop_front() {
            let mut step = Step::new();
            replica.on_message(p(0), msg, &mut step);
            inflight.extend(step.outgoing.into_iter().map(|o| o.msg));
            executed.extend(step.deliveries.iter().map(|d| d.payload.1));
        }
        assert_eq!(executed, vec![77]);
    }
}
