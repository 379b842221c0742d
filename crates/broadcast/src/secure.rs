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
//!   messages on the sender path plus a quorum certificate, and
//!   `(n−1)·f` certificate relays that buy totality against Byzantine
//!   senders: each process that delivers relays to the next `f` after it
//!   in index order, which always holds a correct one — see
//!   `InstanceTable::relay_final`;
//! * [`AccountOrderBackend`] — the Section 6 account-order broadcast in
//!   the base topology (account `i` owned by process `i`): the same
//!   signed echo, [`SignedEcho`](crate::SignedEcho), with Section 6's
//!   rule that a SEND is acknowledged only once its predecessor on the
//!   account delivered — same messages, same costs, a different order of
//!   acknowledgement;
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
//! it (INIT/ECHO/READY; SEND/ECHO/FINAL), written against the crate's
//! one instance table, which owns thresholds, floors, replay suppression,
//! FIFO release, pruning and the counts below. The two signed backends
//! are one phase machine under two acknowledgement rules. The PBFT
//! backend keeps its phases (PRE-PREPARE/PREPARE/COMMIT) in
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

pub use crate::account_order::AccountOrderBackend;
use crate::types::Step;
use at_model::{Encode, ProcessId, SeqNo};
use at_obs::{TraceCtx, Tracer};

/// How a backend pulls the causal trace context out of an opaque
/// payload (payload types without tracing return `None`).
pub type TraceExtract<P> = fn(&P) -> Option<TraceCtx>;

/// A pluggable secure-broadcast endpoint over payloads `P`.
///
/// See the [module docs](self) for the delivery contract. The
/// introspection methods expose the endpoint's retained state so upper
/// layers never re-derive it.
pub trait SecureBroadcast<P: Clone + Eq + Encode>: Send {
    /// The wire message type of the protocol. `==` lets a runtime encode
    /// a message sent to several peers once (payloads compare as their
    /// encodings do).
    type Msg: Clone + PartialEq + Send;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{EdAuth, NoAuth, ObservedAuth};
    use crate::batch::Batch;
    use crate::bracha::{BrachaBroadcast, BrachaMsg};
    use crate::echo::{EchoBroadcast, EchoMsg, SignedEcho, Stream};
    use crate::instance::PAYLOAD_DIGESTS;
    use crate::pbft::{PbftBroadcast, PbftMsg};
    use crate::types::{Delivery, Outgoing};
    use at_model::codec::{decode, encode};
    use at_model::{AccountId, Amount, Decode, Transfer};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Runs a closed system of endpoints to quiescence through the trait
    /// alone; returns each process's deliveries.
    fn drive<B: SecureBroadcast<u64>>(
        endpoints: &mut [B],
        broadcasts: Vec<(usize, u64)>,
    ) -> Vec<Vec<Delivery<u64>>> {
        drive_logged(endpoints, broadcasts, &mut Vec::new(), reliable)
    }

    /// A channel that hands every message over as it was sent.
    fn reliable<M>(_: ProcessId, _: ProcessId, msg: M) -> Option<M> {
        Some(msg)
    }

    /// A channel that hands every message over as a TCP link does: its
    /// addressee gets what decoding the encoded bytes yields, in an
    /// allocation of its own.
    fn over_tcp<M: Encode + Decode>(_: ProcessId, _: ProcessId, msg: M) -> Option<M> {
        Some(decode(&encode(&msg)).expect("a message decodes from its own encoding"))
    }

    /// [`drive`] over `channel`, also appending every message that
    /// reaches its addressee, with its sender and addressee, to `wire`.
    /// `channel(from, to, msg)` is what arrives, or `None` when the
    /// message is lost.
    fn drive_logged<P: Clone + Eq + Encode, B: SecureBroadcast<P>>(
        endpoints: &mut [B],
        broadcasts: Vec<(usize, P)>,
        wire: &mut Vec<(ProcessId, ProcessId, B::Msg)>,
        channel: impl Fn(ProcessId, ProcessId, B::Msg) -> Option<B::Msg>,
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
            let Some(msg) = channel(from, to, msg) else {
                continue;
            };
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

    fn bracha_system<P: Clone + Eq + Encode>(n: usize) -> Vec<BrachaBroadcast<P>> {
        (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect()
    }

    fn echo_system<P: Clone + Eq + Encode>(n: usize) -> Vec<EchoBroadcast<P, NoAuth>> {
        (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect()
    }

    fn account_system<P: Clone + Eq + Encode>(n: usize) -> Vec<AccountOrderBackend<P, NoAuth>> {
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

    /// Remote messages may reach a process before one it addressed to
    /// itself — the interleaving that once crashed the account-order
    /// backend. A replica hears itself inside its own step, but no
    /// backend may rely on that: with every self-addressed message
    /// parked until nothing else is in flight, each backend still
    /// delivers every payload once, in order, everywhere.
    #[test]
    fn remote_messages_may_overtake_self_addressed_ones() {
        fn self_last<B: SecureBroadcast<u64>>(mut endpoints: Vec<B>) -> Vec<Vec<Delivery<u64>>> {
            let n = endpoints.len();
            let mut queue: Vec<(ProcessId, ProcessId, B::Msg)> = Vec::new();
            let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];
            let mut absorb = |me: ProcessId, step: Step<B::Msg, u64>, queue: &mut Vec<_>| {
                queue.extend(step.outgoing.into_iter().map(|out| (me, out.to, out.msg)));
                delivered[me.as_usize()].extend(step.deliveries);
            };
            for value in [10, 20] {
                let mut step = Step::new();
                endpoints[0].broadcast(value, &mut step);
                absorb(p(0), step, &mut queue);
            }
            let mut self_addressed = 0;
            while !queue.is_empty() {
                let remote = queue.iter().position(|(from, to, _)| from != to);
                self_addressed += usize::from(remote.is_none());
                let (from, to, msg) = queue.remove(remote.unwrap_or(0));
                let mut step = Step::new();
                endpoints[to.as_usize()].on_message(from, msg, &mut step);
                absorb(to, step, &mut queue);
            }
            assert!(self_addressed > 0, "nothing was parked");
            delivered
        }
        assert_fifo_everywhere(&self_last(bracha_system(4)), 0, &[10, 20]);
        assert_fifo_everywhere(&self_last(echo_system(4)), 0, &[10, 20]);
        assert_fifo_everywhere(&self_last(account_system(4)), 0, &[10, 20]);
        assert_fifo_everywhere(&self_last(pbft_system(4)), 0, &[10, 20]);
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

    /// Peer messages per honest instance, as closed forms in `n`. The
    /// signed backends put `3(n − 1)` SENDs, shares and FINALs on the
    /// wire between peers, and `(n − 1)·f` relays: every process but the
    /// source relays to its window of `f`, and the peer its copy came
    /// from is never in that window — the source is skipped, and a
    /// relayer is one of the `f` processes *before* it, which at
    /// `n ≥ 3f + 1` cannot wrap round to the `f` after. 12, 30, 54 and
    /// 120 at n = 4, 7, 10 and 16. Bracha puts `(n − 1)` SENDs and
    /// `n(n − 1)` ECHOs and READYs each between peers: `(n − 1)(2n + 1)`.
    /// A relay outside the window, or a second FINAL from the source,
    /// moves a count and fails here.
    #[test]
    fn honest_instance_peer_messages_are_closed_forms_in_n() {
        fn peer_messages<B: SecureBroadcast<u64>>(mut endpoints: Vec<B>) -> usize {
            let mut wire = Vec::new();
            let delivered = drive_logged(&mut endpoints, vec![(0, 5)], &mut wire, reliable);
            assert!(delivered.iter().all(|view| view.len() == 1));
            wire.iter().filter(|(from, to, _)| from != to).count()
        }
        for (n, signed) in [(4, 12), (7, 30), (10, 54), (16, 120)] {
            let f = (n - 1) / 3;
            assert_eq!(3 * (n - 1) + (n - 1) * f, signed);
            assert_eq!(peer_messages(echo_system(n)), signed, "echo, n = {n}");
            assert_eq!(
                peer_messages(account_system(n)),
                signed,
                "account order, n = {n}"
            );
            let bracha = (n - 1) * (2 * n + 1);
            assert_eq!(peer_messages(bracha_system(n)), bracha, "bracha, n = {n}");
        }
    }

    /// A 128-transfer batch from p0, as a replica would broadcast it.
    fn batch() -> Batch<Transfer> {
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
        Batch::new((0..128).map(transfer).collect())
    }

    /// The payload digests one instance of [`batch`] from p0 costs,
    /// driven over `channel` to delivery at every process.
    fn payload_digests<B: SecureBroadcast<Batch<Transfer>>>(
        mut endpoints: Vec<B>,
        channel: fn(ProcessId, ProcessId, B::Msg) -> Option<B::Msg>,
    ) -> u64 {
        let digests = || PAYLOAD_DIGESTS.with(std::cell::Cell::get);
        let before = digests();
        let broadcasts = vec![(0, batch())];
        let delivered = drive_logged(&mut endpoints, broadcasts, &mut Vec::new(), channel);
        assert!(delivered.iter().all(|view| view.len() == 1));
        digests() - before
    }

    /// Each process hashes an honest instance's payload once: `n`
    /// digests, where hashing every ECHO and READY until release costs
    /// Bracha close to `2n²` (432 at n = 16), hashing the SEND twice and
    /// the FINAL again costs SignedEcho `2n + 1`, and re-hashing at
    /// acknowledgement costs AccountOrder `3n + 1`. The count holds
    /// whether the copies share the sender's batch (the simulator) or
    /// each arrives decoded from its own bytes (TCP): the memo answers
    /// by value, not by pointer. A backend that hashes what its memo
    /// already holds, a handler that hashes a message it is about to
    /// drop, or a memo that only recognises its own allocation fails
    /// here.
    #[test]
    fn an_instance_costs_one_payload_digest_per_process() {
        fn per_process<B>(system: impl Fn() -> Vec<B>, label: &str)
        where
            B: SecureBroadcast<Batch<Transfer>>,
            B::Msg: Encode + Decode,
        {
            let n = system().len() as u64;
            assert_eq!(payload_digests(system(), reliable), n, "{label}");
            assert_eq!(payload_digests(system(), over_tcp), n, "{label}, over TCP");
        }
        for n in [4, 16] {
            per_process(|| bracha_system(n), &format!("bracha, n = {n}"));
            per_process(|| echo_system(n), &format!("echo, n = {n}"));
            per_process(|| account_system(n), &format!("account order, n = {n}"));
        }
    }

    /// One honest instance at n = 16 allocates its payload once: every
    /// message that carries it — each INIT, ECHO and READY; each SEND,
    /// FINAL and relay — and every delivery shares the batch the source
    /// broadcast. A handler that rebuilds the payload, or a batch whose
    /// copies copy their items, fails here.
    #[test]
    fn an_instance_shares_one_payload_allocation() {
        type Payload = Batch<Transfer>;
        fn shares<B: SecureBroadcast<Payload>>(
            mut endpoints: Vec<B>,
            payload: fn(&B::Msg) -> Option<&Payload>,
            label: &str,
        ) {
            let (n, sent) = (endpoints.len(), batch());
            let mut wire = Vec::new();
            let broadcasts = vec![(0, sent.clone())];
            let delivered = drive_logged(&mut endpoints, broadcasts, &mut wire, reliable);
            let carried: Vec<&Payload> =
                wire.iter().filter_map(|(_, _, msg)| payload(msg)).collect();
            assert!(carried.len() > 2 * n, "{label}: {} copies", carried.len());
            let deliveries: Vec<&Payload> =
                delivered.iter().flatten().map(|d| &d.payload).collect();
            assert_eq!(deliveries.len(), n, "{label}");
            for copy in carried.into_iter().chain(deliveries) {
                assert!(Arc::ptr_eq(&copy.items, &sent.items), "{label}: a copy");
            }
        }
        let n = 16;
        shares(
            bracha_system(n),
            |msg| match msg {
                BrachaMsg::Init { payload, .. }
                | BrachaMsg::Echo { payload, .. }
                | BrachaMsg::Ready { payload, .. } => Some(payload),
            },
            "bracha",
        );
        fn signed(msg: &EchoMsg<Payload, ()>) -> Option<&Payload> {
            match msg {
                EchoMsg::Send { payload, .. } | EchoMsg::Final { payload, .. } => Some(payload),
                EchoMsg::Echo { .. } => None,
            }
        }
        shares(echo_system(n), signed, "echo");
        shares(account_system(n), signed, "account order");
    }

    type Signed<K, const IN_ORDER: bool> = SignedEcho<K, u64, NoAuth, IN_ORDER>;
    type SignedStep<K> = Step<EchoMsg<u64, (), K>, u64, K>;

    /// One instance, begun by `start` at p0, whose Byzantine sender p0
    /// hands its FINAL to `chosen` alone (not even to itself, nor as a
    /// relay), while the `silent` processes neither receive nor send,
    /// and — unless `relays` — every relayed FINAL is lost. Runs in
    /// lock-step rounds: what is sent in round `r` arrives in round
    /// `r + 1`, so a FINAL hop is one round. Returns, per process, the
    /// rounds it delivered in.
    fn selective_final<K: Stream, const IN_ORDER: bool>(
        n: usize,
        start: impl Fn(&mut Signed<K, IN_ORDER>, &mut SignedStep<K>),
        chosen: usize,
        silent: &[usize],
        relays: bool,
    ) -> Vec<Vec<usize>> {
        let mut endpoints: Vec<Signed<K, IN_ORDER>> = (0..n)
            .map(|i| SignedEcho::new(p(i as u32), n, NoAuth))
            .collect();
        let mut step = Step::new();
        start(&mut endpoints[0], &mut step);
        let mut delivered = vec![Vec::new(); n];
        let mut inflight: Vec<_> = step.outgoing.into_iter().map(|out| (p(0), out)).collect();
        let mut round = 0;
        while !inflight.is_empty() {
            round += 1;
            let mut next = Vec::new();
            for (from, Outgoing { to, msg }) in inflight {
                let withheld = from == p(0) && to.as_usize() != chosen;
                let relay_lost = from != p(0) && !relays;
                let is_final = matches!(msg, EchoMsg::Final { .. });
                if (is_final && (withheld || relay_lost)) || silent.contains(&to.as_usize()) {
                    continue;
                }
                let mut step = Step::new();
                endpoints[to.as_usize()].on_message(from, msg, &mut step);
                next.extend(step.outgoing.into_iter().map(|out| (to, out)));
                delivered[to.as_usize()].extend(step.deliveries.iter().map(|_| round));
            }
            inflight = next;
        }
        delivered
    }

    /// Every subset of `pool` with at most `k` elements.
    fn subsets(pool: impl Iterator<Item = usize>, k: usize) -> Vec<Vec<usize>> {
        let mut sets = vec![vec![]];
        for x in pool {
            let grown: Vec<Vec<usize>> = sets
                .iter()
                .filter(|set| set.len() < k)
                .map(|set| [set.as_slice(), &[x]].concat())
                .collect();
            sets.extend(grown);
        }
        sets
    }

    /// Every `(chosen, silent)` pair of a selective FINAL at `n`: any
    /// process but the sender p0 chosen, and beside it any `≤ f − 1`
    /// other processes silent, so that with p0 at most `f` are faulty.
    fn selective_cases(n: usize) -> Vec<(usize, Vec<usize>)> {
        let f = (n - 1) / 3;
        (1..n)
            .flat_map(|chosen| {
                let others = (1..n).filter(move |&i| i != chosen);
                subsets(others, f.saturating_sub(1))
                    .into_iter()
                    .map(move |silent| (chosen, silent))
            })
            .collect()
    }

    /// p0 broadcasts 7 on its own stream.
    fn own_stream<const IN_ORDER: bool>(
        endpoint: &mut Signed<ProcessId, IN_ORDER>,
        step: &mut SignedStep<ProcessId>,
    ) {
        endpoint.broadcast(7, step);
    }

    /// p0 broadcasts 7 as message 1 of the shared account 0, a stream
    /// with no sole sender.
    fn shared_account(endpoint: &mut Signed<AccountId, true>, step: &mut SignedStep<AccountId>) {
        endpoint.broadcast_at(AccountId::new(0), SeqNo::new(1), 7, step);
    }

    /// Totality, exhaustively at small `n`: whichever correct process a
    /// selective sender finalises to, and whichever `≤ f − 1` others stay
    /// silent beside it, every correct process delivers exactly once —
    /// on a process's own stream (SignedEcho, AccountOrder), where the
    /// window is `f` and skips the sender, so the sender gets nothing
    /// back, and on a shared account (window `f + 1`, the sender inside
    /// it), where it gets one relay. 3 + 36 + 333 cases per stream at
    /// n = 4, 7, 10. The same enumeration with every relay lost splits
    /// every time — only the chosen process delivers — so the relays are
    /// what carries it.
    #[test]
    fn relays_give_totality_for_every_selective_final_and_silent_set() {
        fn enumerate<K: Stream, const IN_ORDER: bool>(
            n: usize,
            start: impl Fn(&mut Signed<K, IN_ORDER>, &mut SignedStep<K>) + Copy,
            label: &str,
            sender: usize,
        ) -> usize {
            let cases = selective_cases(n);
            for (chosen, silent) in &cases {
                let delivered = selective_final(n, start, *chosen, silent, true);
                for (i, rounds) in delivered.iter().enumerate() {
                    let expected = match i {
                        0 => sender,
                        i => usize::from(!silent.contains(&i)),
                    };
                    assert_eq!(
                        rounds.len(),
                        expected,
                        "{label}, n = {n}, to p{chosen}, silent {silent:?}: p{i}"
                    );
                }
                let split = selective_final(n, start, *chosen, silent, false);
                for (i, rounds) in split.iter().enumerate() {
                    let expected = usize::from(i == *chosen);
                    assert_eq!(
                        rounds.len(),
                        expected,
                        "{label}, relays lost, n = {n}, to p{chosen}: p{i}"
                    );
                }
            }
            cases.len()
        }
        let mut cases = 0;
        for n in [4, 7, 10] {
            cases += enumerate(n, own_stream::<false>, "echo", 0);
            enumerate(n, own_stream::<true>, "account order", 0);
            enumerate(n, shared_account, "shared account", 1);
        }
        assert_eq!(cases, 3 + 36 + 333);
    }

    /// The most rounds, over `cases` of a selective FINAL on p0's own
    /// stream, between the chosen process's delivery and the last
    /// correct process's.
    fn relay_depth(n: usize, cases: &[(usize, Vec<usize>)]) -> usize {
        let mut depth = 0;
        for (chosen, silent) in cases {
            let delivered = selective_final(n, own_stream::<false>, *chosen, silent, true);
            let first = delivered[*chosen][0];
            let last = (1..n)
                .filter(|i| !silent.contains(i))
                .map(|i| delivered[i][0])
                .max()
                .expect("a correct process");
            depth = depth.max(last - first);
        }
        depth
    }

    /// A FINAL handed by a Byzantine source to one process reaches the
    /// last correct process `⌈(n − 2)/f⌉` relay hops later — exactly,
    /// whichever process was chosen: the ring without the source has
    /// `n − 1` places, and each hop covers the next `f`. With `≤ f − 1`
    /// others silent it takes at most one hop more, since a silent
    /// process shortens only the one hop whose window it ends. 2, 3, 3,
    /// 3 hops at n = 4, 7, 10, 16, and in the worst silent case 2, 3, 4,
    /// 4 (n = 16's in the soak); honest sources are unaffected.
    #[test]
    fn a_selective_final_takes_ceil_n_minus_2_over_f_relay_hops() {
        for (n, hops, silent_worst) in [(4usize, 2, 2), (7, 3, 3), (10, 3, 4), (16, 3, 4)] {
            let f = (n - 1) / 3;
            assert_eq!((n - 2).div_ceil(f), hops);
            assert!(silent_worst <= hops + 1);
            let quiet: Vec<_> = (1..n).map(|chosen| (chosen, vec![])).collect();
            assert_eq!(relay_depth(n, &quiet), hops, "n = {n}, none silent");
            if n <= 10 {
                let depth = relay_depth(n, &selective_cases(n));
                assert_eq!(depth, silent_worst, "n = {n}, silent sets");
            }
        }
    }

    /// The soak size of the hop bound: every silent set at n = 16.
    #[test]
    #[ignore = "22 065 silent sets at n = 16; run with --release -- --ignored"]
    fn a_selective_final_takes_ceil_n_minus_2_over_f_relay_hops_soak() {
        let cases = selective_cases(16);
        assert_eq!(cases.len(), 22_065);
        assert_eq!(relay_depth(16, &cases), 4);
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
        check(&account, (account.fault_threshold(), account.quorum()), 7);
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
        // Each endpoint meters its own node's registry, as on a node.
        let ed = EdAuth::deterministic(4, 5);
        let auths: Vec<ObservedAuth<EdAuth>> = (0..4)
            .map(|i| {
                let registry = at_obs::Registry::new(format!("node p{i}"));
                ObservedAuth::new(ed.clone(), registry.recorder())
            })
            .collect();
        let mut endpoints: Vec<EchoBroadcast<u64, _>> = (0..4)
            .map(|i| EchoBroadcast::new(p(i as u32), 4, auths[i].clone()))
            .collect();
        let delivered = drive(&mut endpoints, vec![(0, 9)]);
        assert!(delivered.iter().all(|d| d.len() == 1));
        // The sender signed its SEND and its own echo share, and
        // verified the two peer shares that completed its quorum
        // {p0, p1, p2}. Receiver p1 verified the SEND, signed an echo
        // share, and verified the certificate but for its own share.
        let ops = |i: usize| (auths[i].signs(), auths[i].verifies());
        assert_eq!(ops(0), (2, 2), "sender signs/verifies");
        assert_eq!(ops(1), (1, 3), "receiver signs/verifies");
    }

    #[test]
    fn prune_and_floor_behave_uniformly_through_the_trait() {
        fn exercise<B: SecureBroadcast<u64>>(mut endpoints: Vec<B>, mut fresh: B) {
            // A completed broadcast is prunable everywhere and the
            // delivered count stays monotone.
            let mut wire = Vec::new();
            drive_logged(&mut endpoints, vec![(0, 5)], &mut wire, reliable);
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
        // p2 sends a validly signed SEND naming a stream that is not its
        // own — p0's, or one whose index no process has — on both
        // owner-only backends. Nobody acknowledges it, delivers it or
        // keeps a slot for it, and p0's own stream is unaffected.
        fn exercise<B: SecureBroadcast<u64, Msg = EchoMsg<u64, ()>>>(mut endpoints: Vec<B>) {
            let n = endpoints.len();
            for stream in [p(0), p(n as u32 + 3)] {
                let send = EchoMsg::Send {
                    stream,
                    seq: SeqNo::new(1),
                    payload: 666,
                    sig: (),
                };
                for (i, endpoint) in endpoints.iter_mut().enumerate() {
                    let before = endpoint.instance_count();
                    let mut step = Step::new();
                    endpoint.on_message(p(2), send.clone(), &mut step);
                    assert!(step.outgoing.is_empty(), "p{i} acknowledged {stream}");
                    assert!(step.deliveries.is_empty());
                    assert_eq!(endpoint.instance_count(), before, "p{i} kept a slot");
                }
            }
            let delivered = drive(&mut endpoints, vec![(0, 1)]);
            let honest = Delivery {
                source: p(0),
                seq: SeqNo::new(1),
                payload: 1,
            };
            assert!(delivered.iter().all(|view| *view == [honest.clone()]));
        }
        exercise(echo_system(4));
        exercise(account_system(4));
    }

    #[test]
    fn adapter_debug_renders() {
        let backend: AccountOrderBackend<u64, NoAuth> = AccountOrderBackend::new(p(3), 4, NoAuth);
        assert!(format!("{backend:?}").contains("AccountOrder(me=p3"));
    }
}
