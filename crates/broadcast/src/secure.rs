//! The [`SecureBroadcast`] abstraction: one interface over every secure
//! broadcast implementation in this crate.
//!
//! Section 5 of the paper proves asset transfer needs only *secure
//! broadcast* — Integrity, Agreement, Validity, Source Order — and notes
//! the implementation is swappable: from Bracha's signature-free `O(n²)`
//! protocol to Malkhi–Reiter-style signed echo with `O(n)` sender cost.
//! The trait captures exactly that contract so the engine runtime (and
//! everything above it: scenarios, benches, examples) is generic over the
//! protocol actually carrying its payloads:
//!
//! * [`BrachaBroadcast`](crate::BrachaBroadcast) — 3 one-way delays,
//!   `O(n²)` messages, no signatures;
//! * [`EchoBroadcast`](crate::EchoBroadcast) — 2 round trips, `3(n−1)`
//!   messages on the sender path plus a quorum certificate (an optional
//!   `(n−1)(n−2)` certificate relays buy totality against Byzantine
//!   senders: each process that delivers relays to every process it has
//!   not authenticated as holding the FINAL already — see
//!   `InstanceTable::relay_final`);
//! * [`AccountOrderBackend`] — the Section 6 account-order broadcast
//!   specialised to the base topology (account `i` owned by process `i`),
//!   via a thin adapter that assigns per-account sequence numbers and
//!   attributes deliveries to the owning process;
//! * [`PbftBroadcast`](crate::PbftBroadcast) — the consensus baseline: a
//!   PBFT total order over all processes, released per source. A hop to
//!   the leader plus 3 one-way delays, `O(n²)` messages, no signatures.
//!   Atomic broadcast refines secure broadcast, so the contract below
//!   holds; what it delivers *beyond* the contract is the comparison the
//!   paper draws.
//!
//! # Delivery contract
//!
//! Implementations fill a [`Step`] sans-I/O, and must deliver payloads of
//! each source **gaplessly, in sequence order, exactly once** (the FIFO
//! strengthening of Source Order noted in Section 5.2). Callers may
//! therefore rely on the backend's own instance bookkeeping for
//! deduplication and equivocation suppression instead of keeping a
//! parallel `seen` ledger.
//!
//! # What a backend is
//!
//! A message enum, a per-instance state and the phase handlers that move
//! it (INIT/ECHO/READY; SEND/ECHO/FINAL; SEND/gated ACK/FINAL), written
//! against the crate's one instance table, which owns thresholds, floors,
//! replay suppression, FIFO release, pruning and the counts below. The
//! signed backends share one certificate path the same way. The fourth
//! instance keeps its phases (PRE-PREPARE/PREPARE/COMMIT) in
//! [`PbftReplica`](crate::PbftReplica), where Section 6 reuses them per
//! account, and takes from the table only floors, FIFO release and the
//! counts.
//!
//! # What the PBFT backend does not promise
//!
//! * **Liveness under loss or leader failure.** Nothing retransmits a
//!   dropped `PRE-PREPARE`, and this trait has no timer from which to
//!   call `PbftReplica::on_timeout`: a process that misses one stops
//!   delivering, a silent leader stops everyone. What *is* delivered
//!   still obeys the contract.
//! * **Integrity against a Byzantine orderer.** A leader is trusted with
//!   what it proposes. Byzantine processes attack through this
//!   interface, as on every backend; a forwarded request naming another
//!   source is refused.
//! * **Neither side of a split.** `broadcast_split` delivers *one* of its
//!   two payloads, the same everywhere, where the secure broadcasts
//!   deliver neither. Both are agreement.
//! * **Bounded state.** `prune_delivered` and `set_tracer` stay the
//!   defaults below; the replica's slots and executed set only grow.

use crate::account_order::{AccountDelivery, AccountOrderBroadcast, AccountOrderMsg};
use crate::auth::Authenticator;
use crate::types::{CryptoOps, Delivery, Step};
use at_model::{AccountId, Encode, ProcessId, SeqNo};
use at_obs::{TraceCtx, Tracer};
use std::fmt;

/// How a backend pulls the causal trace context out of an opaque
/// payload (payload types without tracing return `None`).
pub type TraceExtract<P> = fn(&P) -> Option<TraceCtx>;

/// A pluggable secure-broadcast endpoint over payloads `P`.
///
/// See the [module docs](self) for the delivery contract. The
/// introspection methods expose the endpoint's retained state so upper
/// layers never re-derive it.
pub trait SecureBroadcast<P: Clone + Encode>: Send {
    /// The wire message type of the protocol.
    type Msg: Clone + Send;

    /// Broadcasts `payload` with this endpoint's next sequence number;
    /// returns the sequence number used.
    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo;

    /// Handles a protocol message from `from`.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>);

    /// *Byzantine harness only*: opens one instance but sends `left` to
    /// the lower half of the system and `right` to the upper half — the
    /// equivocation (double-spend) attempt every backend must defeat.
    fn broadcast_split(&mut self, left: P, right: P, step: &mut Step<Self::Msg, P>) -> SeqNo;

    /// Everything retained per instance: the `(stream, seq)` slots with
    /// protocol state — sender side, receiver side and dedup alike — plus
    /// the completed instances held back behind a sequence gap. Back to
    /// 0 after [`SecureBroadcast::prune_delivered`] at quiescence.
    fn instance_count(&self) -> usize;

    /// Number of instances this endpoint has delivered.
    fn delivered_count(&self) -> usize;

    /// Cumulative signature operations (zeros for signature-free
    /// protocols).
    fn crypto_ops(&self) -> CryptoOps;

    /// Wires causal tracing into the protocol: payloads whose `extract`
    /// yields a [`TraceCtx`] get their protocol steps (send, echo,
    /// ready/certificate, deliver, verify span) recorded into `tracer`.
    /// Defaults to a no-op so payload types without tracing (tests,
    /// simulated runs) cost nothing.
    fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        let _ = (tracer, extract);
    }

    /// Discards the per-instance protocol state of every broadcast this
    /// endpoint has already delivered, returning how many instances were
    /// pruned. Deliveries are irrevocable (the quorum that enabled them
    /// is durable evidence), so the retained state only served
    /// deduplication — which the per-source delivery floors, kept
    /// forever in `O(n)` space, continue to provide: late or replayed
    /// frames for a pruned instance are dropped, never re-delivered.
    /// [`SecureBroadcast::delivered_count`] stays monotone across
    /// pruning. Defaults to a no-op returning 0.
    fn prune_delivered(&mut self) -> usize {
        0
    }

    /// Raises the delivery floor of `source` to instance `floor`: every
    /// instance of `source` with a sequence number at or below it is
    /// treated as already delivered (accepted-and-discarded on arrival),
    /// and delivery resumes gaplessly at `floor + 1`. When `source` is
    /// this endpoint, its own next broadcast sequence number is bumped
    /// too, so a cold-started endpoint resumes its stream instead of
    /// colliding with its previous incarnation's instances. Snapshot
    /// bootstrap calls this once per source before the first frame
    /// arrives. Defaults to a no-op.
    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        let _ = (source, floor);
    }
}

/// The Section 6 account-order broadcast as a [`SecureBroadcast`] backend
/// for the base topology: account `i` belongs to process `i`.
///
/// The adapter assigns this process's per-account sequence numbers,
/// enables the sole-owner acknowledgement rule (a `SEND` for account `a`
/// from any process but `a` is never acknowledged, so no other process
/// can hijack or stall the account's stream), and attributes every
/// delivery to the owning process. Because the underlying protocol
/// delivers each account's messages gaplessly in sequence order, the
/// adapter satisfies the FIFO delivery contract by construction.
pub struct AccountOrderBackend<P, A: Authenticator> {
    inner: AccountOrderBroadcast<P, A>,
    account: AccountId,
    next_seq: SeqNo,
}

impl<P: Clone + Encode, A: Authenticator> AccountOrderBackend<P, A> {
    /// Creates the endpoint for process `me` of `n`, broadcasting on its
    /// own account.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        let mut inner = AccountOrderBroadcast::new(me, n, auth);
        inner.set_sole_owner(true);
        AccountOrderBackend {
            inner,
            account: AccountId::new(me.index()),
            next_seq: SeqNo::ZERO,
        }
    }

    /// Enables/disables FINAL forwarding on the wrapped protocol.
    pub fn set_forward_final(&mut self, forward: bool) {
        self.inner.set_forward_final(forward);
    }

    fn convert(
        native: Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, P>,
    ) {
        step.outgoing.extend(native.outgoing);
        for Delivery { payload, .. } in native.deliveries {
            // Attribute by account, not by the FINAL's (forgeable) sender
            // field: the certificate covers `(account, seq, digest)`, and
            // under the sole-owner rule only the owner's payloads can
            // certify.
            let AccountDelivery {
                account,
                seq,
                payload,
                ..
            } = payload;
            step.deliver(ProcessId::new(account.index()), seq, payload);
        }
    }
}

impl<P, A> SecureBroadcast<P> for AccountOrderBackend<P, A>
where
    P: Clone + Encode + Send,
    A: Authenticator + Send,
    A::Sig: Send,
{
    type Msg = AccountOrderMsg<P, A::Sig>;

    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        self.next_seq = self.next_seq.next();
        let seq = self.next_seq;
        let mut native = Step::new();
        self.inner
            .broadcast(self.account, seq, payload, &mut native);
        Self::convert(native, step);
        seq
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>) {
        let mut native = Step::new();
        self.inner.on_message(from, msg, &mut native);
        Self::convert(native, step);
    }

    fn broadcast_split(&mut self, left: P, right: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        self.next_seq = self.next_seq.next();
        let seq = self.next_seq;
        let mut native = Step::new();
        self.inner
            .broadcast_split(self.account, seq, left, right, &mut native);
        Self::convert(native, step);
        seq
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.inner.delivered_count()
    }

    fn crypto_ops(&self) -> CryptoOps {
        self.inner.crypto_ops()
    }

    fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.inner.set_tracer(tracer, extract);
    }

    fn prune_delivered(&mut self) -> usize {
        self.inner.prune_delivered()
    }

    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        // Process `i` broadcasts on account `i` in the base topology, so
        // the per-source floor maps 1:1 onto a per-account floor.
        let account = AccountId::new(source.index());
        self.inner.set_delivery_floor(account, floor);
        if source == ProcessId::new(self.account.index()) && floor.value() > self.next_seq.value() {
            self.next_seq = floor;
        }
    }
}

impl<P: Clone + Encode, A: Authenticator> fmt::Debug for AccountOrderBackend<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccountOrderBackend({:?})", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{EdAuth, NoAuth};
    use crate::batch::Batch;
    use crate::bracha::BrachaBroadcast;
    use crate::echo::EchoBroadcast;
    use crate::instance::PAYLOAD_DIGESTS;
    use crate::pbft::{PbftBroadcast, PbftMsg};
    use at_model::{Amount, Transfer};
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Runs a closed system of endpoints to quiescence through the trait
    /// alone; returns each process's deliveries.
    fn drive<B: SecureBroadcast<u64>>(
        endpoints: &mut [B],
        broadcasts: Vec<(usize, u64)>,
    ) -> Vec<Vec<Delivery<u64>>> {
        drive_logged(endpoints, broadcasts, &mut Vec::new(), |_, _, _| false)
    }

    /// [`drive`], also appending every message that reaches its
    /// addressee, with its sender and addressee, to `wire`; a message
    /// `lost(from, to, msg)` claims never arrives.
    fn drive_logged<P: Clone + Encode, B: SecureBroadcast<P>>(
        endpoints: &mut [B],
        broadcasts: Vec<(usize, P)>,
        wire: &mut Vec<(ProcessId, ProcessId, B::Msg)>,
        lost: impl Fn(ProcessId, ProcessId, &B::Msg) -> bool,
    ) -> Vec<Vec<Delivery<P>>> {
        let n = endpoints.len();
        let mut inflight: VecDeque<(ProcessId, ProcessId, B::Msg)> = VecDeque::new();
        let mut delivered: Vec<Vec<Delivery<P>>> = vec![Vec::new(); n];
        for (source, value) in broadcasts {
            let mut step = Step::new();
            endpoints[source].broadcast(value, &mut step);
            for out in step.outgoing {
                inflight.push_back((p(source as u32), out.to, out.msg));
            }
            delivered[source].extend(step.deliveries);
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            if lost(from, to, &msg) {
                continue;
            }
            wire.push((from, to, msg.clone()));
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    /// Same closed system, but the source equivocates via
    /// `broadcast_split`. The attacker's endpoint stays in the loop — it
    /// collects echo shares and *would* certify and deliver if a quorum
    /// ever formed, so an empty result exercises the quorum-intersection
    /// defense rather than a dead sender.
    fn drive_split<B: SecureBroadcast<u64>>(
        endpoints: &mut [B],
        source: usize,
        left: u64,
        right: u64,
    ) -> Vec<Vec<Delivery<u64>>> {
        let n = endpoints.len();
        let mut inflight: VecDeque<(ProcessId, ProcessId, B::Msg)> = VecDeque::new();
        let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];
        let mut step = Step::new();
        endpoints[source].broadcast_split(left, right, &mut step);
        for out in step.outgoing {
            inflight.push_back((p(source as u32), out.to, out.msg));
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    fn bracha_system<P: Clone + Encode>(n: usize) -> Vec<BrachaBroadcast<P>> {
        (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect()
    }

    fn echo_system<P: Clone + Encode>(n: usize) -> Vec<EchoBroadcast<P, NoAuth>> {
        (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect()
    }

    fn account_system<P: Clone + Encode>(n: usize) -> Vec<AccountOrderBackend<P, NoAuth>> {
        (0..n)
            .map(|i| AccountOrderBackend::new(p(i as u32), n, NoAuth))
            .collect()
    }

    fn pbft_system(n: usize) -> Vec<PbftBroadcast<u64>> {
        (0..n).map(|i| PbftBroadcast::new(p(i as u32), n)).collect()
    }

    fn assert_fifo_everywhere(delivered: &[Vec<Delivery<u64>>], source: u32, values: &[u64]) {
        for (i, view) in delivered.iter().enumerate() {
            let got: Vec<u64> = view
                .iter()
                .filter(|d| d.source == p(source))
                .map(|d| d.payload)
                .collect();
            assert_eq!(got, values, "process {i}");
            let seqs: Vec<u64> = view
                .iter()
                .filter(|d| d.source == p(source))
                .map(|d| d.seq.value())
                .collect();
            assert_eq!(seqs, (1..=values.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_backends_deliver_fifo_through_the_trait() {
        let broadcasts = vec![(0usize, 10u64), (0, 20), (0, 30)];
        let mut bracha = bracha_system(4);
        assert_fifo_everywhere(&drive(&mut bracha, broadcasts.clone()), 0, &[10, 20, 30]);
        let mut echo = echo_system(4);
        assert_fifo_everywhere(&drive(&mut echo, broadcasts.clone()), 0, &[10, 20, 30]);
        let mut account = account_system(4);
        assert_fifo_everywhere(&drive(&mut account, broadcasts.clone()), 0, &[10, 20, 30]);
        let mut pbft = pbft_system(4);
        assert_fifo_everywhere(&drive(&mut pbft, broadcasts), 0, &[10, 20, 30]);
    }

    #[test]
    fn pbft_releases_its_total_order_per_source() {
        // Two sources interleaved in the global order, one of them a
        // follower: each stream still reads 1, 2, … at every process.
        let mut pbft = pbft_system(4);
        let delivered = drive(&mut pbft, vec![(2, 7), (0, 10), (2, 8), (0, 20), (2, 9)]);
        assert_fifo_everywhere(&delivered, 0, &[10, 20]);
        assert_fifo_everywhere(&delivered, 2, &[7, 8, 9]);
        for endpoint in &pbft {
            assert_eq!(endpoint.delivered_count(), 5);
            assert_eq!(
                endpoint.instance_count(),
                0,
                "nothing held once no gap is open"
            );
        }
        // A cold endpoint told its stream reached 3 resumes at 4.
        let mut fresh = PbftBroadcast::<u64>::new(p(1), 4);
        fresh.set_delivery_floor(p(1), SeqNo::new(3));
        assert_eq!(fresh.broadcast(9, &mut Step::new()), SeqNo::new(4));
    }

    #[test]
    fn pbft_split_delivers_one_side_the_same_everywhere() {
        for source in [0, 2] {
            let mut pbft = pbft_system(4);
            let delivered = drive_split(&mut pbft, source, 1, 2);
            for view in &delivered {
                assert_eq!(view.len(), 1, "exactly one side of the split");
                assert_eq!(view[0], delivered[0][0]);
                assert_eq!(view[0].source, p(source as u32));
                assert_eq!(view[0].seq, SeqNo::new(1));
            }
        }
    }

    #[test]
    fn pbft_refuses_a_request_forwarded_under_another_name() {
        let mut pbft = pbft_system(4);
        // p2 asks the leader to order a payload as p3's first broadcast.
        let forged = PbftMsg::Forward((p(3), SeqNo::new(1), 666));
        let mut step = Step::new();
        pbft[0].on_message(p(2), forged, &mut step);
        assert!(step.outgoing.is_empty() && step.deliveries.is_empty());
        // Under its own name the same request is proposed.
        let honest = PbftMsg::Forward((p(2), SeqNo::new(1), 666));
        pbft[0].on_message(p(2), honest, &mut step);
        assert_eq!(step.outgoing.len(), 4);
    }

    #[test]
    fn split_broadcast_never_delivers_on_any_backend() {
        let mut bracha = bracha_system(4);
        let delivered = drive_split(&mut bracha, 0, 1, 2);
        assert!(delivered.iter().all(Vec::is_empty), "bracha delivered");
        let mut echo = echo_system(4);
        let delivered = drive_split(&mut echo, 0, 1, 2);
        assert!(delivered.iter().all(Vec::is_empty), "echo delivered");
        let mut account = account_system(4);
        let delivered = drive_split(&mut account, 0, 1, 2);
        assert!(
            delivered.iter().all(Vec::is_empty),
            "account-order delivered"
        );
    }

    /// The signed backends' message budget, beside their signature
    /// budgets: one honest instance puts `3(n − 1)` SENDs, shares and
    /// FINALs on the wire between peers, and `(n − 1)(n − 2)` relays —
    /// every process but the source relays to every process but itself,
    /// the peer its copy came from (the source) and the source. 9 + 6 at
    /// n = 4. A relay to a process that provably holds the FINAL, or a
    /// second FINAL from the source, moves the count and fails here.
    #[test]
    fn honest_instance_costs_15_peer_messages_at_n4_and_48_at_n7() {
        fn peer_messages<B: SecureBroadcast<u64>>(mut endpoints: Vec<B>) -> usize {
            let mut wire = Vec::new();
            let delivered = drive_logged(&mut endpoints, vec![(0, 5)], &mut wire, |_, _, _| false);
            assert!(delivered.iter().all(|view| view.len() == 1));
            wire.iter().filter(|(from, to, _)| from != to).count()
        }
        for (n, budget) in [(4, 9 + 6), (7, 18 + 30)] {
            assert_eq!(peer_messages(echo_system(n)), budget, "echo, n = {n}");
            assert_eq!(
                peer_messages(account_system(n)),
                budget,
                "account order, n = {n}"
            );
        }
    }

    /// The payload digests one instance of a 128-transfer batch from p0
    /// costs, driven to delivery at every process.
    fn payload_digests<B: SecureBroadcast<Batch<Transfer>>>(mut endpoints: Vec<B>) -> u64 {
        let transfer = |i: u32| {
            let to = AccountId::new(1 + i % 7);
            Transfer::new(
                AccountId::new(0),
                to,
                Amount::new(1),
                p(0),
                SeqNo::new(1 + i as u64),
            )
        };
        let batch = Batch::new((0..128).map(transfer).collect());
        let digests = || PAYLOAD_DIGESTS.with(std::cell::Cell::get);
        let before = digests();
        let delivered = drive_logged(
            &mut endpoints,
            vec![(0, batch)],
            &mut Vec::new(),
            |_, _, _| false,
        );
        assert!(delivered.iter().all(|view| view.len() == 1));
        digests() - before
    }

    /// Each process hashes an honest instance's payload once: `n`
    /// digests, where hashing every ECHO and READY until release costs
    /// Bracha close to `2n²` (432 at n = 16), hashing the SEND twice and
    /// the FINAL again costs SignedEcho `2n + 1`, and re-hashing at
    /// acknowledgement costs AccountOrder `3n + 1`. A backend that hashes what its memo already holds, or a
    /// handler that hashes a message it is about to drop, fails here.
    #[test]
    fn an_instance_costs_one_payload_digest_per_process() {
        for n in [4, 16] {
            let digests = n as u64;
            assert_eq!(
                payload_digests(bracha_system(n)),
                digests,
                "bracha, n = {n}"
            );
            assert_eq!(payload_digests(echo_system(n)), digests, "echo, n = {n}");
            assert_eq!(
                payload_digests(account_system(n)),
                digests,
                "account order, n = {n}"
            );
        }
    }

    /// One instance whose Byzantine source p0 hands its FINAL to `chosen`
    /// alone (not even to itself) while the `silent` processes neither
    /// receive nor send; returns how many payloads each process
    /// delivered.
    fn drive_selective_final<B: SecureBroadcast<u64>>(
        mut endpoints: Vec<B>,
        is_final: fn(&B::Msg) -> bool,
        chosen: usize,
        silent: &[usize],
    ) -> Vec<usize> {
        let lost = |from: ProcessId, to: ProcessId, msg: &B::Msg| {
            let withheld = from == p(0) && to.as_usize() != chosen && is_final(msg);
            withheld || silent.contains(&to.as_usize())
        };
        let delivered = drive_logged(&mut endpoints, vec![(0, 7)], &mut Vec::new(), lost);
        delivered.iter().map(Vec::len).collect()
    }

    /// Totality, exhaustively at small `n`: whichever correct process a
    /// selective source finalises to, and whichever `≤ f − 1` others stay
    /// silent beside it, every correct process delivers exactly once.
    /// The same enumeration with forwarding off splits every time — only
    /// the chosen process delivers — so the relays are what carries it.
    #[test]
    fn relays_give_totality_for_every_selective_final_and_silent_set() {
        fn enumerate<B: SecureBroadcast<u64>>(
            n: usize,
            system: impl Fn(bool) -> Vec<B>,
            is_final: fn(&B::Msg) -> bool,
        ) {
            let f = (n - 1) / 3;
            for chosen in 1..n {
                let others = (1..n).filter(|&i| i != chosen);
                let silent_sets =
                    std::iter::once(vec![]).chain(others.map(|i| vec![i]).filter(|_| f >= 2));
                for silent in silent_sets {
                    let correct = |i: usize| i != 0 && !silent.contains(&i);
                    let delivered = drive_selective_final(system(true), is_final, chosen, &silent);
                    for (i, count) in delivered.iter().enumerate().filter(|(i, _)| correct(*i)) {
                        assert_eq!(*count, 1, "n = {n}, to p{chosen}, silent {silent:?}: p{i}");
                    }
                    let split = drive_selective_final(system(false), is_final, chosen, &silent);
                    for (i, count) in split.iter().enumerate() {
                        let expected = usize::from(i == chosen);
                        assert_eq!(*count, expected, "unforwarded, n = {n}, to p{chosen}: p{i}");
                    }
                }
            }
        }
        for n in [4, 7] {
            assert!(
                (n - 1) / 3 <= 2,
                "the silent sets above stop at one process"
            );
            enumerate(
                n,
                |forward| {
                    let mut endpoints = echo_system(n);
                    for endpoint in &mut endpoints {
                        endpoint.set_forward_final(forward);
                    }
                    endpoints
                },
                |msg| matches!(msg, crate::echo::EchoMsg::Final { .. }),
            );
            enumerate(
                n,
                |forward| {
                    let mut endpoints = account_system(n);
                    for endpoint in &mut endpoints {
                        endpoint.set_forward_final(forward);
                    }
                    endpoints
                },
                |msg| matches!(msg, AccountOrderMsg::Final { .. }),
            );
        }
    }

    #[test]
    fn introspection_is_consistent_across_backends() {
        fn check<B: SecureBroadcast<u64>>(backend: &B, (f, quorum): (usize, usize), n: usize) {
            assert_eq!(f, (n - 1) / 3);
            assert_eq!(quorum, (n + (n - 1) / 3) / 2 + 1);
            assert_eq!(backend.instance_count(), 0);
            assert_eq!(backend.delivered_count(), 0);
        }
        let bracha = BrachaBroadcast::<u64>::new(p(0), 7);
        check(&bracha, (bracha.fault_threshold(), bracha.echo_quorum()), 7);
        let echo = EchoBroadcast::<u64, NoAuth>::new(p(0), 7, NoAuth);
        check(&echo, (echo.fault_threshold(), echo.quorum()), 7);
        let account = AccountOrderBackend::<u64, NoAuth>::new(p(0), 7, NoAuth);
        let thresholds = (account.inner.fault_threshold(), account.inner.quorum());
        check(&account, thresholds, 7);
    }

    #[test]
    fn delivered_count_tracks_deliveries() {
        let mut endpoints = echo_system(4);
        drive(&mut endpoints, vec![(1, 7)]);
        for endpoint in &endpoints {
            assert_eq!(SecureBroadcast::<u64>::delivered_count(endpoint), 1);
        }
        let mut endpoints = bracha_system(4);
        drive(&mut endpoints, vec![(1, 7), (2, 8)]);
        for endpoint in &endpoints {
            assert_eq!(SecureBroadcast::<u64>::delivered_count(endpoint), 2);
        }
    }

    #[test]
    fn crypto_ops_count_real_signature_work() {
        let auth = EdAuth::deterministic(4, 5);
        let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..4)
            .map(|i| EchoBroadcast::new(p(i as u32), 4, auth.clone()))
            .collect();
        let delivered = drive(&mut endpoints, vec![(0, 9)]);
        assert!(delivered.iter().all(|d| d.len() == 1));
        // The sender signed its SEND; every receiver verified it and
        // signed an echo share; certificates were verified on delivery.
        let sender_ops = SecureBroadcast::<u64>::crypto_ops(&endpoints[0]);
        assert!(sender_ops.signs >= 2, "sender ops: {sender_ops:?}");
        let receiver_ops = SecureBroadcast::<u64>::crypto_ops(&endpoints[1]);
        assert!(receiver_ops.verifies >= 4, "receiver ops: {receiver_ops:?}");
        // Bracha reports zero signature work.
        let bracha = BrachaBroadcast::<u64>::new(p(0), 4);
        assert_eq!(
            SecureBroadcast::<u64>::crypto_ops(&bracha),
            CryptoOps::default()
        );
    }

    #[test]
    fn prune_and_floor_behave_uniformly_through_the_trait() {
        fn exercise<B: SecureBroadcast<u64>>(mut endpoints: Vec<B>, mut fresh: B) {
            // A completed broadcast is prunable everywhere and the
            // delivered count stays monotone.
            let mut wire = Vec::new();
            drive_logged(&mut endpoints, vec![(0, 5)], &mut wire, |_, _, _| false);
            for endpoint in &mut endpoints {
                assert_eq!(endpoint.delivered_count(), 1);
                assert_eq!(endpoint.prune_delivered(), 1);
                assert_eq!(endpoint.instance_count(), 0);
                assert_eq!(endpoint.delivered_count(), 1);
                assert_eq!(endpoint.prune_delivered(), 0, "idempotent");
            }
            // Every message the instance ever put on the wire, replayed
            // to every endpoint: the floor drops it before it can answer,
            // deliver or bring pruned state back.
            assert!(wire.len() >= endpoints.len());
            for (from, _, msg) in wire {
                for (to, endpoint) in endpoints.iter_mut().enumerate() {
                    let mut step = Step::new();
                    endpoint.on_message(from, msg.clone(), &mut step);
                    assert!(step.outgoing.is_empty(), "replay answered at {to}");
                    assert!(step.deliveries.is_empty(), "replay delivered at {to}");
                    assert_eq!(endpoint.instance_count(), 0, "replay kept at {to}");
                }
            }
            // A cold endpoint that learns its own stream reached seq 3
            // resumes broadcasting at 4.
            fresh.set_delivery_floor(p(0), SeqNo::new(3));
            let mut step = Step::new();
            assert_eq!(fresh.broadcast(9, &mut step), SeqNo::new(4));
        }
        exercise(bracha_system(4), BrachaBroadcast::new(p(0), 4));
        exercise(echo_system(4), EchoBroadcast::new(p(0), 4, NoAuth));
        exercise(account_system(4), AccountOrderBackend::new(p(0), 4, NoAuth));
    }

    #[test]
    fn account_order_backend_rejects_non_owner_sends() {
        let n = 4;
        let mut endpoints = account_system(n);
        // p2 crafts a SEND for *p0's* account stream via the raw inner
        // protocol message; under the sole-owner rule nobody acknowledges,
        // so the hijack attempt cannot certify.
        let mut step = Step::new();
        let mut rogue: AccountOrderBroadcast<u64, NoAuth> =
            AccountOrderBroadcast::new(p(2), n, NoAuth);
        let mut native = Step::new();
        rogue.broadcast(AccountId::new(0), SeqNo::new(1), 666, &mut native);
        let mut acks = 0;
        for out in native.outgoing {
            if out.to != p(2) {
                let mut reply = Step::new();
                endpoints[out.to.as_usize()].on_message(p(2), out.msg, &mut reply);
                acks += reply.outgoing.len();
                assert!(reply.deliveries.is_empty());
            }
        }
        assert_eq!(acks, 0, "non-owner SEND must never be acknowledged");
        // The owner's own stream is unaffected.
        let seq = endpoints[0].broadcast(1, &mut step);
        assert_eq!(seq, SeqNo::new(1));
    }

    #[test]
    fn adapter_debug_renders() {
        let backend: AccountOrderBackend<u64, NoAuth> = AccountOrderBackend::new(p(3), 4, NoAuth);
        assert!(format!("{backend:?}").contains("AccountOrderBackend"));
    }
}
