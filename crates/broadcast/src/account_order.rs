//! The *account-order* secure broadcast of Section 6.
//!
//! For `k`-shared accounts the source-order property is not enough: up to
//! `k` different owners issue transfers for the same account, and benign
//! processes must apply them in the sequence-number order assigned by the
//! account's BFT service. The paper modifies the classical echo broadcast:
//!
//! > "A message with a sequence number `s` associated with an account `a`
//! > is only acknowledged by a benign process if the last message
//! > associated with `a` it delivered had sequence number `s − 1`. Once a
//! > quorum is collected, the sender sends the message equipped with the
//! > signed quorum to all and delivers the message."
//!
//! * **Account order**: benign processes deliver messages of the same
//!   account in sequence order.
//! * **Anti-equivocation**: a benign process acknowledges at most one
//!   message per `(account, seq)`; two conflicting messages can never both
//!   assemble a quorum of `⌈(n+f+1)/2⌉` (any two quorums intersect in a
//!   benign process), so even a fully compromised account can block but
//!   never double-spend.

use crate::auth::Authenticator;
use crate::instance::{
    signed_bytes, verify_certificate, Collector, Digest, DigestMemo, InstanceTable, TraceHook,
};
use crate::secure::TraceExtract;
use crate::types::{CryptoOps, Step};
use at_model::{AccountId, Encode, ProcessId, SeqNo};
use at_obs::{TraceEventKind, Tracer};
use std::collections::hash_map::Entry;
use std::fmt;

/// Wire messages of the account-order broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum AccountOrderMsg<P, S> {
    /// A sender's payload for `(account, seq)`.
    Send {
        /// The account this message is associated with.
        account: AccountId,
        /// The account's BFT-assigned sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's signature over `(account, seq, payload)`.
        sig: S,
    },
    /// A receiver's conditional acknowledgement (to the sender).
    Ack {
        /// The account.
        account: AccountId,
        /// The acknowledged sequence number.
        seq: SeqNo,
        /// The payload digest.
        digest: [u8; 32],
        /// The acknowledger's signature share.
        share: S,
    },
    /// Payload plus quorum certificate; delivered in account order.
    Final {
        /// The original sender (attribution).
        sender: ProcessId,
        /// The account.
        account: AccountId,
        /// The sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// `(acknowledger, share)` quorum certificate.
        certificate: Vec<(ProcessId, S)>,
    },
}

/// A delivery of the account-order broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccountDelivery<P> {
    /// The process that broadcast the message.
    pub sender: ProcessId,
    /// The account the message belongs to.
    pub account: AccountId,
    /// The account sequence number.
    pub seq: SeqNo,
    /// The payload.
    pub payload: P,
}

/// A FINAL whose certificate checked out, waiting for its turn.
struct ParkedFinal<P, A: Authenticator> {
    /// The channel peer this copy came from.
    from: ProcessId,
    /// The claimed original sender: attribution only, no signature
    /// covers it.
    sender: ProcessId,
    payload: P,
    certificate: Vec<(ProcessId, A::Sig)>,
}

struct PendingSend<P> {
    sender: ProcessId,
    payload: P,
    /// The digest its signature was verified over.
    digest: Digest,
}

struct Slot<P, A: Authenticator> {
    /// The digest acknowledged — at most one.
    acked: Option<Digest>,
    /// The first SEND received, waiting for its turn to be acknowledged.
    send: Option<PendingSend<P>>,
    /// Acknowledgements for the message this process broadcast here.
    acks: Option<Collector<P, A::Sig>>,
    /// The payload digests: seeded by our own SEND or the first one
    /// received, cleared once a FINAL is certified.
    memo: DigestMemo,
}

impl<P, A: Authenticator> Default for Slot<P, A> {
    fn default() -> Self {
        Slot {
            acked: None,
            send: None,
            acks: None,
            memo: DigestMemo::default(),
        }
    }
}

/// One process's endpoint of the account-order broadcast.
pub struct AccountOrderBroadcast<P, A: Authenticator> {
    table: InstanceTable<AccountId, Slot<P, A>, ParkedFinal<P, A>>,
    trace: TraceHook<P>,
    auth: A,
    forward_final: bool,
    /// When set, a `SEND` for account `a` is only acknowledged if it comes
    /// from the process with the same index — the paper's base topology
    /// where account `i` belongs to process `i`. Off by default (Section 6
    /// `k`-shared accounts have several legitimate senders).
    sole_owner: bool,
    ops: CryptoOps,
}

impl<P: Clone + Encode, A: Authenticator> AccountOrderBroadcast<P, A> {
    /// Creates the endpoint for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        AccountOrderBroadcast {
            table: InstanceTable::new(me, n),
            trace: TraceHook::new(me),
            auth,
            forward_final: true,
            sole_owner: false,
            ops: CryptoOps::default(),
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.table.fault_threshold()
    }

    /// Enables/disables the sole-owner admission rule: acknowledge a
    /// `SEND` for account `a` only when it comes from process `a` (the
    /// single-owner topology of Sections 2–5). Off by default.
    pub fn set_sole_owner(&mut self, on: bool) {
        self.sole_owner = on;
    }

    /// Number of `(account, seq)` slots with protocol state, plus FINALs
    /// parked behind a sequence gap.
    pub fn instance_count(&self) -> usize {
        self.table.instance_count()
    }

    /// Cumulative signature operations performed by this endpoint.
    pub fn crypto_ops(&self) -> CryptoOps {
        self.ops
    }

    /// The ack quorum `⌈(n+f+1)/2⌉` ("more than two thirds" in the
    /// paper's prose).
    pub fn quorum(&self) -> usize {
        self.table.quorum()
    }

    /// Enables/disables FINAL relaying (totality against Byzantine
    /// senders). On by default. A process that delivers relays to every
    /// process but itself and the channel peer its copy came from —
    /// and, under the sole-owner rule only, the account's owner; never
    /// on the word of the unsigned `sender` field.
    pub fn set_forward_final(&mut self, forward: bool) {
        self.forward_final = forward;
    }

    /// Routes causal trace events into `tracer` for payloads `extract`
    /// maps to a trace context. Untraced payloads cost one extractor
    /// call per protocol step and nothing else.
    pub fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.trace.set(tracer, extract);
    }

    /// Signs `payload` as message `seq` of `account`; answers the SEND.
    /// With `collect`, also starts collecting acknowledgements for it.
    fn open(
        &mut self,
        account: AccountId,
        seq: SeqNo,
        payload: P,
        collect: bool,
    ) -> AccountOrderMsg<P, A::Sig> {
        let me = self.table.me();
        let mut slot = self
            .table
            .entry(account, seq)
            .filter(|_| collect)
            .map(|slot| slot.or_default());
        let memo = slot.as_deref_mut().map(|slot| &mut slot.memo);
        let digest = DigestMemo::through(memo, &payload);
        self.ops.signs += 1;
        let sig = self
            .auth
            .sign(me, &signed_bytes(b'a', account, seq, digest));
        if let Some(slot) = slot {
            slot.acks = Some(Collector::new(payload.clone(), digest));
        }
        AccountOrderMsg::Send {
            account,
            seq,
            payload,
            sig,
        }
    }

    /// Broadcasts `payload` as the message with `seq` for `account`.
    ///
    /// The sequence number comes from the account's BFT service (see
    /// `at-core`'s Section 6 implementation); this layer enforces that
    /// benign processes deliver per-account sequences gaplessly and
    /// without forks.
    pub fn broadcast(
        &mut self,
        account: AccountId,
        seq: SeqNo,
        payload: P,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let (me, n) = (self.table.me(), self.table.n());
        self.trace
            .record(&payload, me, TraceEventKind::Send, n as u64);
        let send = self.open(account, seq, payload, true);
        step.send_all(n, send);
    }

    /// *Byzantine harness only*: signs and sends conflicting `SEND`s for
    /// `(account, seq)` — `left` to the lower half of the system, `right`
    /// to the upper half. The attacker keeps live sender-side state, so a
    /// quorum of acks for the left payload *would* produce a certificate;
    /// the acknowledgement rule (one digest per `(account, seq)`) is what
    /// denies the quorum to both payloads.
    pub fn broadcast_split(
        &mut self,
        account: AccountId,
        seq: SeqNo,
        left: P,
        right: P,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let left = self.open(account, seq, left, true);
        let right = self.open(account, seq, right, false);
        step.send_halves(self.table.n(), left, right);
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: AccountOrderMsg<P, A::Sig>,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        match msg {
            AccountOrderMsg::Send {
                account,
                seq,
                payload,
                sig,
            } => {
                if self.sole_owner && from.index() != account.index() {
                    return; // not the account's owner: never acknowledged
                }
                let Some(mut slot) = self.table.entry(account, seq) else {
                    return; // already delivered: not worth a verification
                };
                // A new slot's digest goes through a memo of its own, kept
                // only once the signature holds.
                let mut memo = DigestMemo::default();
                let digest = match &mut slot {
                    Entry::Occupied(occupied) => occupied.get_mut().memo.digest(&payload),
                    Entry::Vacant(_) => memo.digest(&payload),
                };
                self.ops.verifies += 1;
                if !self
                    .auth
                    .verify(from, &signed_bytes(b'a', account, seq, digest), &sig)
                {
                    return; // forged SEND: no slot either
                }
                let slot = slot.or_insert_with(|| Slot {
                    memo,
                    ..Slot::default()
                });
                let pending = slot.send.get_or_insert(PendingSend {
                    sender: from,
                    payload,
                    digest,
                });
                if pending.digest != digest {
                    return; // conflicts with the first SEND: never acknowledged
                }
                // A later slot's turn comes when its predecessor delivers.
                if seq == self.table.expected(account) {
                    self.try_ack(account, step);
                }
            }
            AccountOrderMsg::Ack {
                account,
                seq,
                digest,
                share,
            } => self.on_ack(from, account, seq, digest, share, step),
            AccountOrderMsg::Final {
                sender,
                account,
                seq,
                payload,
                certificate,
            } => {
                let parked = ParkedFinal {
                    from,
                    sender,
                    payload,
                    certificate,
                };
                self.on_final(account, seq, parked, step);
            }
        }
    }

    /// Acknowledges the next-in-sequence pending SEND for `account`, if
    /// its turn has come (paper: ack `s` only after delivering `s − 1`).
    fn try_ack(
        &mut self,
        account: AccountId,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let (me, expected) = (self.table.me(), self.table.expected(account));
        let Some(slot) = self.table.get_mut(account, expected) else {
            return;
        };
        let Some(pending) = &slot.send else {
            return;
        };
        let digest = pending.digest;
        // At most one digest acknowledged per (account, seq).
        if *slot.acked.get_or_insert(digest) != digest {
            return; // a conflicting message was already acknowledged
        }
        self.ops.signs += 1;
        let share = self
            .auth
            .sign(me, &signed_bytes(b'k', account, expected, digest));
        self.trace.record(
            &pending.payload,
            pending.sender,
            TraceEventKind::Echo,
            expected.value(),
        );
        step.send(
            pending.sender,
            AccountOrderMsg::Ack {
                account,
                seq: expected,
                digest,
                share,
            },
        );
    }

    fn on_ack(
        &mut self,
        from: ProcessId,
        account: AccountId,
        seq: SeqNo,
        digest: Digest,
        share: A::Sig,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let (me, n, quorum) = (self.table.me(), self.table.n(), self.quorum());
        let acks = self.table.get_mut(account, seq);
        let Some(acks) = acks.and_then(|slot| slot.acks.as_mut()) else {
            return;
        };
        if acks.digest() != digest {
            return;
        }
        let Some(certificate) = acks.accept(
            (&self.auth, &mut self.ops),
            quorum,
            from,
            || signed_bytes(b'k', account, seq, digest),
            share,
        ) else {
            return;
        };
        self.trace.record(
            acks.payload(),
            me,
            TraceEventKind::Ready,
            certificate.len() as u64,
        );
        step.send_all(
            n,
            AccountOrderMsg::Final {
                sender: me,
                account,
                seq,
                payload: acks.payload().clone(),
                certificate,
            },
        );
    }

    fn on_final(
        &mut self,
        account: AccountId,
        seq: SeqNo,
        parked: ParkedFinal<P, A>,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        // A replay behind the delivery floor, or a forwarded copy of a
        // FINAL already parked behind a gap (its certificate was verified
        // when the first copy arrived): not worth a verification.
        if self.table.is_stale(account, seq) || self.table.holds(account, seq) {
            return;
        }
        let memo = self.table.get_mut(account, seq).map(|slot| &mut slot.memo);
        let digest = DigestMemo::through(memo, &parked.payload);
        let own = self.table.get(account, seq);
        let own = own
            .and_then(|slot| slot.acks.as_ref())
            .filter(|acks| acks.digest() == digest);
        let signers = verify_certificate(
            (&self.auth, &mut self.ops),
            self.trace.ctx(&parked.payload, parked.sender),
            &signed_bytes(b'k', account, seq, digest),
            &parked.certificate,
            own,
        );
        if signers < self.quorum() {
            return;
        }
        // The certificate signs `(account, seq, digest)`, not `sender`: a
        // relayer can name anyone there, so a relay never skips on it.
        // What is bound is the account, and under the sole-owner rule
        // only its owner's SEND is acknowledged.
        let owner = self.sole_owner.then(|| ProcessId::new(account.index()));
        // Certified: every later FINAL for the slot is dropped unread.
        if let Some(slot) = self.table.get_mut(account, seq) {
            slot.memo.clear();
        }
        self.table.hold(account, seq, parked);
        while let Some((
            seq,
            ParkedFinal {
                from,
                sender,
                payload,
                certificate,
            },
        )) = self.table.release(account)
        {
            if self.forward_final {
                let relay = AccountOrderMsg::Final {
                    sender,
                    account,
                    seq,
                    payload: payload.clone(),
                    certificate,
                };
                self.table.relay_final(step, from, owner, relay);
            }
            self.trace
                .record(&payload, sender, TraceEventKind::Deliver, seq.value());
            let delivery = AccountDelivery {
                sender,
                account,
                seq,
                payload,
            };
            step.deliver(sender, seq, delivery);
            // A delivery may unblock the acknowledgement of the next SEND.
            self.try_ack(account, step);
        }
    }

    /// The next sequence number this process will deliver for `account`.
    pub fn expected(&self, account: AccountId) -> SeqNo {
        self.table.expected(account)
    }

    /// Total number of deliveries ever made (monotone across pruning).
    pub fn delivered_count(&self) -> usize {
        self.table.delivered_count()
    }

    /// Drops the slots behind each account's delivery floor, except those
    /// of our own broadcasts that never certified; returns how many went
    /// (the [`Self::instance_count`] unit). Late messages for pruned
    /// instances are rejected by the floors, so delivery stays
    /// exactly-once per `(account, seq)`.
    pub fn prune_delivered(&mut self) -> usize {
        self.table
            .prune(|slot| slot.acks.as_ref().is_none_or(Collector::finalized))
    }

    /// Raises the delivery floor of `account` so sequence numbers
    /// `≤ floor` are treated as already delivered and the account's
    /// stream resumes gaplessly at `floor + 1`. Never lowers an existing
    /// floor. Cold-started replicas seed floors from a snapshot with
    /// this before replaying the log suffix.
    pub fn set_delivery_floor(&mut self, account: AccountId, floor: SeqNo) {
        self.table.set_floor(account, floor);
    }
}

impl<P, A: Authenticator> fmt::Debug for AccountOrderBroadcast<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AccountOrderBroadcast(me={}, n={}, delivered={})",
            self.table.me(),
            self.table.n(),
            self.table.delivered_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{EdAuth, NoAuth, ObservedAuth};
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn acct(i: u32) -> AccountId {
        AccountId::new(i)
    }

    type Endpoint<A = NoAuth> = AccountOrderBroadcast<u64, A>;
    type Wire<A = NoAuth> = (
        ProcessId,
        ProcessId,
        AccountOrderMsg<u64, <A as Authenticator>::Sig>,
    );

    /// Runs `inflight` to quiescence in FIFO order; returns the payloads
    /// each process delivered, in delivery order.
    fn run<A: Authenticator>(
        endpoints: &mut [Endpoint<A>],
        mut inflight: VecDeque<Wire<A>>,
        drop_rule: impl Fn(&Wire<A>) -> bool,
    ) -> Vec<Vec<AccountDelivery<u64>>> {
        let mut delivered = vec![Vec::new(); endpoints.len()];
        while let Some(wire) = inflight.pop_front() {
            if drop_rule(&wire) {
                continue;
            }
            let (from, to, msg) = wire;
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries.into_iter().map(|d| d.payload));
        }
        delivered
    }

    fn start<A: Authenticator>(
        endpoints: &mut [Endpoint<A>],
        sender: ProcessId,
        account: AccountId,
        seq: u64,
        value: u64,
    ) -> VecDeque<Wire<A>> {
        let mut step = Step::new();
        endpoints[sender.as_usize()].broadcast(account, SeqNo::new(seq), value, &mut step);
        step.outgoing
            .into_iter()
            .map(|out| (sender, out.to, out.msg))
            .collect()
    }

    fn system_with<A: Authenticator + Clone>(n: usize, auth: &A) -> Vec<Endpoint<A>> {
        (0..n)
            .map(|i| AccountOrderBroadcast::new(p(i as u32), n, auth.clone()))
            .collect()
    }

    fn system(n: usize) -> Vec<Endpoint> {
        system_with(n, &NoAuth)
    }

    fn values(delivered: &[AccountDelivery<u64>]) -> Vec<u64> {
        delivered.iter().map(|d| d.payload).collect()
    }

    #[test]
    fn in_order_broadcasts_deliver_everywhere() {
        let mut endpoints = system(4);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 100);
        wires.extend(start(&mut endpoints, p(1), acct(0), 2, 200));
        let delivered = run(&mut endpoints, wires, |_| false);
        for (endpoint, delivered) in endpoints.iter().zip(&delivered) {
            assert_eq!(values(delivered), vec![100, 200]);
            assert_eq!(endpoint.expected(acct(0)), SeqNo::new(3));
        }
    }

    #[test]
    fn out_of_order_seq_waits_for_predecessor() {
        let mut endpoints = system(4);
        // seq 2 first: nobody acks, nothing delivers.
        let wires = start(&mut endpoints, p(0), acct(0), 2, 200);
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(Vec::is_empty));
        // seq 1 arrives: both deliver in order.
        let wires = start(&mut endpoints, p(1), acct(0), 1, 100);
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![100, 200]);
        }
    }

    #[test]
    fn conflicting_same_seq_messages_block_but_never_fork() {
        let mut endpoints = system(4);
        // Two owners both claim seq 1 with different payloads (the
        // compromised-account scenario of Section 6).
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 111);
        wires.extend(start(&mut endpoints, p(1), acct(0), 1, 222));
        let delivered = run(&mut endpoints, wires, |_| false);
        // Every process delivered at most one value, and no two processes
        // delivered different values for seq 1.
        let mut seen = std::collections::HashSet::new();
        for delivered in &delivered {
            assert!(delivered.len() <= 1);
            seen.extend(values(delivered));
        }
        assert!(seen.len() <= 1, "forked deliveries: {seen:?}");
    }

    #[test]
    fn a_conflicting_send_behind_an_acknowledged_one_gets_no_ack() {
        // Co-owners p0 and p1 both send seq 1 of account 0. p2 acks p0's
        // payload; p1's conflicting one must draw nothing — the memo
        // holds 111's digest, and answering it for 222 would take the
        // conflict for a duplicate and acknowledge again.
        let mut endpoint: Endpoint = AccountOrderBroadcast::new(p(2), 4, NoAuth);
        let send = |payload| AccountOrderMsg::Send {
            account: acct(0),
            seq: SeqNo::new(1),
            payload,
            sig: (),
        };
        let mut step = Step::new();
        endpoint.on_message(p(0), send(111), &mut step);
        assert_eq!(step.outgoing.len(), 1, "the first SEND is acknowledged");
        let mut step = Step::new();
        endpoint.on_message(p(1), send(222), &mut step);
        assert!(
            step.outgoing.is_empty(),
            "a conflicting SEND was acknowledged"
        );
        // A duplicate of the acknowledged SEND is acknowledged again.
        endpoint.on_message(p(0), send(111), &mut step);
        assert_eq!(step.outgoing.len(), 1);
        assert_eq!(step.outgoing[0].to, p(0));
    }

    #[test]
    fn a_forged_send_leaves_no_state() {
        let auth = EdAuth::deterministic(4, 4);
        let mut endpoint = AccountOrderBroadcast::<u64, _>::new(p(1), 4, auth.clone());
        let mut step = Step::new();
        endpoint.on_message(
            p(3),
            AccountOrderMsg::Send {
                account: acct(3),
                seq: SeqNo::new(1),
                payload: 666,
                sig: auth.sign(p(3), b"garbage"),
            },
            &mut step,
        );
        assert!(step.outgoing.is_empty() && step.deliveries.is_empty());
        assert_eq!(endpoint.instance_count(), 0, "a forged SEND left state");
    }

    #[test]
    fn accounts_are_independent_streams() {
        let mut endpoints = system(4);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        wires.extend(start(&mut endpoints, p(1), acct(1), 1, 2));
        // A gap on account 2 does not block account 0/1.
        wires.extend(start(&mut endpoints, p(2), acct(2), 5, 3));
        for delivered in run(&mut endpoints, wires, |_| false) {
            let mut delivered: Vec<(AccountId, u64)> =
                delivered.iter().map(|d| (d.account, d.payload)).collect();
            delivered.sort();
            assert_eq!(delivered, vec![(acct(0), 1), (acct(1), 2)]);
        }
    }

    #[test]
    fn delivery_unblocks_next_ack() {
        let mut endpoints = system(4);
        // Both seq 1 and seq 2 are in flight concurrently; receivers must
        // ack 2 only after delivering 1 — and they eventually do.
        let mut wires = start(&mut endpoints, p(0), acct(7), 2, 20);
        wires.extend(start(&mut endpoints, p(0), acct(7), 1, 10));
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![10, 20]);
        }
    }

    #[test]
    fn forwarding_gives_totality() {
        // p0's FINAL only reaches p1, not even p0's own loop-back: the
        // relays complete delivery at every correct process. Without the
        // sole-owner rule nothing binds the account to p0, so p0 gets a
        // relay too; with it (account 0 is p0's) nobody owes the
        // misbehaving sender its own certificate back.
        for sole_owner in [false, true] {
            let mut endpoints = system(4);
            for endpoint in &mut endpoints {
                endpoint.set_sole_owner(sole_owner);
            }
            let wires = start(&mut endpoints, p(0), acct(0), 1, 9);
            let delivered = run(&mut endpoints, wires, |(from, to, msg)| {
                matches!(msg, AccountOrderMsg::Final { .. }) && *from == p(0) && *to != p(1)
            });
            for (i, delivered) in delivered.iter().enumerate().skip(1) {
                assert_eq!(delivered.len(), 1, "process {i}, sole owner: {sole_owner}");
            }
            assert_eq!(delivered[0].len(), usize::from(!sole_owner));
        }
    }

    #[test]
    fn a_forged_sender_field_does_not_cost_the_named_process_its_relay() {
        // No signature covers `Final.sender`: Byzantine p3 relays a valid
        // FINAL of account 0 to p2 naming correct p1 as its sender. p2
        // must still relay to p1 — it skips itself, the channel peer p3
        // and, only under the sole-owner rule, the account's owner p0.
        for sole_owner in [false, true] {
            let mut endpoint: Endpoint = AccountOrderBroadcast::new(p(2), 4, NoAuth);
            endpoint.set_sole_owner(sole_owner);
            let mut step = Step::new();
            endpoint.on_message(
                p(3),
                AccountOrderMsg::Final {
                    sender: p(1),
                    account: acct(0),
                    seq: SeqNo::new(1),
                    payload: 9,
                    certificate: vec![(p(0), ()), (p(1), ()), (p(3), ())],
                },
                &mut step,
            );
            assert_eq!(step.deliveries.len(), 1);
            let relayed_to: Vec<ProcessId> = step.outgoing.iter().map(|out| out.to).collect();
            let expected = if sole_owner {
                vec![p(1)]
            } else {
                vec![p(0), p(1)]
            };
            assert_eq!(relayed_to, expected, "sole owner: {sole_owner}");
        }
    }

    #[test]
    fn prune_drops_delivered_state_and_suppresses_replays() {
        let mut endpoints = system(4);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 100);
        wires.extend(start(&mut endpoints, p(0), acct(0), 2, 200));
        // Capture a FINAL for seq 1 to replay after pruning.
        let mut replay = None;
        while let Some(wire) = wires.pop_front() {
            if replay.is_none() {
                if let AccountOrderMsg::Final { seq, .. } = &wire.2 {
                    if seq.value() == 1 {
                        replay = Some(wire.2.clone());
                    }
                }
            }
            let (from, to, msg) = wire;
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                wires.push_back((to, out.to, out.msg));
            }
        }
        for endpoint in &mut endpoints {
            assert_eq!(endpoint.delivered_count(), 2);
            assert_eq!(endpoint.instance_count(), 2);
            let pruned = endpoint.prune_delivered();
            assert_eq!(pruned, 2);
            assert_eq!(endpoint.instance_count(), 0);
            assert_eq!(endpoint.delivered_count(), 2, "monotone across pruning");
        }
        // A replayed FINAL below the floor must not re-deliver or park in
        // pending_finals.
        let replay = replay.expect("a FINAL for seq 1 circulated");
        let mut step = Step::new();
        endpoints[2].on_message(p(0), replay, &mut step);
        assert!(step.deliveries.is_empty());
        assert_eq!(endpoints[2].delivered_count(), 2);
        assert_eq!(endpoints[2].prune_delivered(), 0, "no residue to prune");
    }

    #[test]
    fn delivery_floor_resumes_an_account_mid_sequence() {
        let mut endpoints = system(4);
        for endpoint in &mut endpoints {
            endpoint.set_delivery_floor(acct(0), SeqNo::new(4));
        }
        assert_eq!(endpoints[0].expected(acct(0)), SeqNo::new(5));
        // seq 4 is below the floor: ignored everywhere. seq 5 delivers.
        let wires = start(&mut endpoints, p(0), acct(0), 4, 40);
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(Vec::is_empty));
        let wires = start(&mut endpoints, p(0), acct(0), 5, 50);
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![50]);
        }
    }

    /// Account-order's signature budget, as exact counts over whole
    /// instances (all `n` endpoints metered into one registry), with
    /// `q` the ack quorum — the same budget as signed echo's, through
    /// the same certificate path.
    ///
    /// An honest instance signs the SEND plus one ack share per process,
    /// `n + 1`; it verifies the SEND at every process, the first `q` ack
    /// shares at the sender (an ack past the quorum finds the instance
    /// finalized and is dropped unverified) and `q` certificate shares
    /// at each of the other `n − 1` when the sender's FINAL arrives (the
    /// sender does not re-verify the shares it collected, and the
    /// relayed copies arrive behind the delivery floor), `n·(q + 1)`.
    ///
    /// An instance whose predecessor the last process never saw costs
    /// the same `n·(q + 1)` verifications: the last process acks
    /// nothing (`n` signs), so the sender verifies `q` of `n − 1` acks,
    /// `n − 2` others verify the certificate and deliver, and the last
    /// one verifies the first FINAL it sees, parks it behind the gap,
    /// and drops the `n − 2` relayed copies on the parked duplicate
    /// without verifying them. Verifying before the lookup in `on_ack`,
    /// or before the duplicate check in `on_final`, moves a count and
    /// fails here.
    fn assert_signature_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth = ObservedAuth::new(EdAuth::deterministic(n, 31), registry.recorder());
        let q = system(n)[0].quorum() as u64;
        let budget = n as u64 * (q + 1);

        let mut endpoints = system_with(n, &auth);
        let wires = start(&mut endpoints, p(0), acct(0), 1, 42);
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(|delivered| delivered.len() == 1));
        assert_eq!(auth.signs(), n as u64 + 1, "signs at n = {n}");
        assert_eq!(auth.verifies(), budget, "verifies at n = {n}, q = {q}");

        let last = p(n as u32 - 1);
        let mut endpoints = system_with(n, &auth);
        let wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        run(&mut endpoints, wires, |(_, to, _)| *to == last);
        let (signs, verifies) = (auth.signs(), auth.verifies());
        let wires = start(&mut endpoints, p(0), acct(0), 2, 2);
        let delivered = run(&mut endpoints, wires, |_| false);
        for (i, delivered) in delivered.iter().enumerate() {
            let expected = if p(i as u32) == last { vec![] } else { vec![2] };
            assert_eq!(values(delivered), expected, "process {i}");
        }
        assert_eq!(auth.signs() - signs, n as u64, "signs behind a gap");
        assert_eq!(auth.verifies() - verifies, budget, "verifies behind a gap");
    }

    #[test]
    fn honest_instance_costs_5_signs_and_16_verifies_at_n4() {
        assert_signature_budget(4);
    }

    #[test]
    fn honest_instance_costs_8_signs_and_42_verifies_at_n7() {
        assert_signature_budget(7);
    }

    /// Two instances of one account in flight together: every process
    /// acknowledges each slot once, when its turn comes — `2(n + 1)`
    /// signs and `2n` acks. Acknowledging the expected slot again each
    /// time a later SEND of the account arrives moves both counts.
    fn assert_pipelined_pair_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth = ObservedAuth::new(EdAuth::deterministic(n, 33), registry.recorder());
        let mut endpoints = system_with(n, &auth);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        wires.extend(start(&mut endpoints, p(0), acct(0), 2, 2));
        let acks = std::cell::Cell::new(0);
        let delivered = run(&mut endpoints, wires, |(_, _, msg)| {
            if matches!(msg, AccountOrderMsg::Ack { .. }) {
                acks.set(acks.get() + 1);
            }
            false
        });
        assert!(delivered
            .iter()
            .all(|delivered| values(delivered) == [1, 2]));
        assert_eq!(auth.signs(), 2 * (n as u64 + 1), "signs at n = {n}");
        assert_eq!(acks.get(), 2 * n, "acks at n = {n}");
    }

    #[test]
    fn pipelined_pair_costs_10_signs_and_8_acks_at_n4() {
        assert_pipelined_pair_budget(4);
    }

    #[test]
    fn pipelined_pair_costs_16_signs_and_14_acks_at_n7() {
        assert_pipelined_pair_budget(7);
    }

    #[test]
    fn quorum_and_debug() {
        let endpoint: Endpoint = AccountOrderBroadcast::new(p(0), 4, NoAuth);
        assert_eq!(endpoint.quorum(), 3);
        assert!(format!("{endpoint:?}").contains("delivered=0"));
    }
}
