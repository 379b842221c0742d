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
use crate::secure::TraceExtract;
use crate::types::{CryptoOps, Step};
use at_model::codec::{encode, Writer};
use at_model::{AccountId, Encode, ProcessId, SeqNo};
use at_obs::{TraceCtx, TraceEventKind, Tracer};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// A buffered FINAL: `(source, payload, certificate)`.
type BufferedFinal<P, S> = (ProcessId, P, Vec<(ProcessId, S)>);

struct PendingSend<P> {
    sender: ProcessId,
    payload: P,
}

struct Sending<S> {
    digest: [u8; 32],
    shares: BTreeMap<ProcessId, S>,
    finalized: bool,
}

/// One process's endpoint of the account-order broadcast.
pub struct AccountOrderBroadcast<P, A: Authenticator> {
    me: ProcessId,
    n: usize,
    f: usize,
    auth: A,
    /// Next sequence number each account expects to *deliver*.
    next_deliver: HashMap<AccountId, u64>,
    /// The digest acknowledged per (account, seq) — at most one.
    acked: HashMap<(AccountId, u64), [u8; 32]>,
    /// SENDs waiting for their turn to be acknowledged.
    pending_sends: HashMap<AccountId, BTreeMap<u64, PendingSend<P>>>,
    /// FINALs waiting for their turn to be delivered.
    pending_finals: HashMap<AccountId, BTreeMap<u64, BufferedFinal<P, A::Sig>>>,
    /// Sender-side state of our own broadcasts.
    sending: HashMap<(AccountId, u64), Sending<A::Sig>>,
    /// Monotone count of deliveries.
    delivered_total: usize,
    forward_final: bool,
    /// When set, a `SEND` for account `a` is only acknowledged if it comes
    /// from the process with the same index — the paper's base topology
    /// where account `i` belongs to process `i`. Off by default (Section 6
    /// `k`-shared accounts have several legitimate senders).
    sole_owner: bool,
    ops: CryptoOps,
    tracer: Option<(Tracer, TraceExtract<P>)>,
}

impl<P: Clone + Encode, A: Authenticator> AccountOrderBroadcast<P, A> {
    /// Creates the endpoint for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        assert!(n >= 1, "at least one process");
        AccountOrderBroadcast {
            me,
            n,
            f: (n - 1) / 3,
            auth,
            next_deliver: HashMap::new(),
            acked: HashMap::new(),
            pending_sends: HashMap::new(),
            pending_finals: HashMap::new(),
            sending: HashMap::new(),
            delivered_total: 0,
            forward_final: true,
            sole_owner: false,
            ops: CryptoOps::default(),
            tracer: None,
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.f
    }

    /// Enables/disables the sole-owner admission rule: acknowledge a
    /// `SEND` for account `a` only when it comes from process `a` (the
    /// single-owner topology of Sections 2–5). Off by default.
    pub fn set_sole_owner(&mut self, on: bool) {
        self.sole_owner = on;
    }

    /// Number of `(account, seq)` slots with acknowledgement state.
    pub fn instance_count(&self) -> usize {
        self.acked.len()
    }

    /// Cumulative signature operations performed by this endpoint.
    pub fn crypto_ops(&self) -> CryptoOps {
        self.ops
    }

    /// The ack quorum `⌈(n+f+1)/2⌉` ("more than two thirds" in the
    /// paper's prose).
    pub fn quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// Enables/disables FINAL forwarding (totality against Byzantine
    /// senders). On by default.
    pub fn set_forward_final(&mut self, forward: bool) {
        self.forward_final = forward;
    }

    /// Routes causal trace events into `tracer` for payloads `extract`
    /// maps to a [`TraceCtx`]. Untraced payloads cost one extractor call
    /// per protocol step and nothing else.
    pub fn set_tracer(&mut self, tracer: Tracer, extract: fn(&P) -> Option<TraceCtx>) {
        self.tracer = Some((tracer, extract));
    }

    /// The tracer handle and the payload's context, hop-adjusted: a
    /// message from another process arrives one causal hop later.
    fn trace_ctx(&self, payload: &P, from: ProcessId) -> Option<(&Tracer, TraceCtx)> {
        let (tracer, extract) = self.tracer.as_ref()?;
        let ctx = extract(payload)?;
        let ctx = if from != self.me { ctx.hopped() } else { ctx };
        Some((tracer, ctx))
    }

    fn trace(&self, payload: &P, from: ProcessId, kind: TraceEventKind, arg: u64) {
        if let Some((tracer, ctx)) = self.trace_ctx(payload, from) {
            tracer.record(ctx, kind, arg);
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
        let digest = payload_digest(&payload);
        self.ops.signs += 1;
        let sig = self.auth.sign(self.me, &send_bytes(account, seq, digest));
        self.sending.insert(
            (account, seq.value()),
            Sending {
                digest,
                shares: BTreeMap::new(),
                finalized: false,
            },
        );
        // Retain our own payload immediately: the ack quorum can complete
        // before our self-addressed SEND is delivered (the network orders
        // the two independently), and certificate assembly recovers the
        // payload from here.
        self.pending_sends
            .entry(account)
            .or_default()
            .entry(seq.value())
            .or_insert(PendingSend {
                sender: self.me,
                payload: payload.clone(),
            });
        self.trace(&payload, self.me, TraceEventKind::Send, self.n as u64);
        step.send_all(
            self.n,
            AccountOrderMsg::Send {
                account,
                seq,
                payload,
                sig,
            },
        );
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
        let left_digest = payload_digest(&left);
        self.sending.insert(
            (account, seq.value()),
            Sending {
                digest: left_digest,
                shares: BTreeMap::new(),
                finalized: false,
            },
        );
        self.pending_sends
            .entry(account)
            .or_default()
            .entry(seq.value())
            .or_insert(PendingSend {
                sender: self.me,
                payload: left.clone(),
            });
        self.ops.signs += 2;
        let left_sig = self
            .auth
            .sign(self.me, &send_bytes(account, seq, left_digest));
        let right_sig = self
            .auth
            .sign(self.me, &send_bytes(account, seq, payload_digest(&right)));
        for i in 0..self.n {
            let (payload, sig) = if i < self.n / 2 {
                (left.clone(), left_sig.clone())
            } else {
                (right.clone(), right_sig.clone())
            };
            step.send(
                ProcessId::new(i as u32),
                AccountOrderMsg::Send {
                    account,
                    seq,
                    payload,
                    sig,
                },
            );
        }
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
                if self.is_stale(account, seq) {
                    // Already delivered (possibly pruned since): a stale
                    // replay must not re-enter `pending_sends`, where it
                    // would never drain.
                    return;
                }
                self.ops.verifies += 1;
                if !self.auth.verify(
                    from,
                    &send_bytes(account, seq, payload_digest(&payload)),
                    &sig,
                ) {
                    return;
                }
                self.pending_sends
                    .entry(account)
                    .or_default()
                    .entry(seq.value())
                    .or_insert(PendingSend {
                        sender: from,
                        payload,
                    });
                self.try_ack(account, step);
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
            } => self.on_final(sender, account, seq, payload, certificate, step),
        }
    }

    /// Acknowledges the next-in-sequence pending SEND for `account`, if
    /// its turn has come (paper: ack `s` only after delivering `s − 1`).
    fn try_ack(
        &mut self,
        account: AccountId,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let expected = *self.next_deliver.entry(account).or_insert(1);
        let Some(slot) = self.pending_sends.get_mut(&account) else {
            return;
        };
        let Some(pending) = slot.get(&expected) else {
            return;
        };
        let digest = payload_digest(&pending.payload);
        // At most one digest acknowledged per (account, seq).
        let acked = self.acked.entry((account, expected)).or_insert(digest);
        if *acked != digest {
            return; // a conflicting message was already acknowledged
        }
        self.ops.signs += 1;
        let share = self
            .auth
            .sign(self.me, &ack_bytes(account, SeqNo::new(expected), digest));
        // Inline (not via `Self::trace`) so the borrow stays on the
        // `tracer` field while `pending` still borrows `pending_sends`.
        if let Some((tracer, extract)) = &self.tracer {
            if let Some(ctx) = extract(&pending.payload) {
                let ctx = if pending.sender != self.me {
                    ctx.hopped()
                } else {
                    ctx
                };
                tracer.record(ctx, TraceEventKind::Echo, expected);
            }
        }
        step.send(
            pending.sender,
            AccountOrderMsg::Ack {
                account,
                seq: SeqNo::new(expected),
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
        digest: [u8; 32],
        share: A::Sig,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        let quorum = self.quorum();
        let n = self.n;
        let me = self.me;
        let Some(state) = self.sending.get_mut(&(account, seq.value())) else {
            return;
        };
        if state.digest != digest || state.finalized {
            return; // a late ack past the quorum costs no verification
        }
        self.ops.verifies += 1;
        if !self
            .auth
            .verify(from, &ack_bytes(account, seq, digest), &share)
        {
            return;
        }
        state.shares.insert(from, share);
        if state.shares.len() >= quorum {
            state.finalized = true;
            let certificate: Vec<(ProcessId, A::Sig)> = state
                .shares
                .iter()
                .map(|(process, sig)| (*process, sig.clone()))
                .collect();
            // Recover the payload from our pending sends (we sent it to
            // ourselves too).
            let payload = self
                .pending_sends
                .get(&account)
                .and_then(|slot| slot.get(&seq.value()))
                .map(|pending| pending.payload.clone())
                .expect("sender retains its own payload");
            self.trace(
                &payload,
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
                    payload,
                    certificate,
                },
            );
        }
    }

    fn on_final(
        &mut self,
        sender: ProcessId,
        account: AccountId,
        seq: SeqNo,
        payload: P,
        certificate: Vec<(ProcessId, A::Sig)>,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        if self.is_stale(account, seq) {
            // A replayed FINAL below the delivery floor would re-verify
            // its certificate and park forever in `pending_finals`.
            return;
        }
        let parked = self.pending_finals.get(&account);
        if parked.is_some_and(|finals| finals.contains_key(&seq.value())) {
            // A forwarded copy of a FINAL already parked behind a gap:
            // its certificate was verified when the first copy arrived.
            return;
        }
        let digest = payload_digest(&payload);
        let span = self
            .trace_ctx(&payload, sender)
            .map(|(tracer, ctx)| (tracer.clone(), ctx));
        if let Some((tracer, ctx)) = &span {
            tracer.record(*ctx, TraceEventKind::VerifyStart, certificate.len() as u64);
        }
        let mut signers = BTreeSet::new();
        for (signer, share) in &certificate {
            self.ops.verifies += 1;
            if self
                .auth
                .verify(*signer, &ack_bytes(account, seq, digest), share)
            {
                signers.insert(*signer);
            }
        }
        if let Some((tracer, ctx)) = &span {
            tracer.record(*ctx, TraceEventKind::VerifyEnd, signers.len() as u64);
        }
        if signers.len() < self.quorum() {
            return;
        }
        self.pending_finals
            .entry(account)
            .or_default()
            .insert(seq.value(), (sender, payload, certificate));
        self.drain_deliveries(account, step);
    }

    fn drain_deliveries(
        &mut self,
        account: AccountId,
        step: &mut Step<AccountOrderMsg<P, A::Sig>, AccountDelivery<P>>,
    ) {
        loop {
            let expected = *self.next_deliver.entry(account).or_insert(1);
            let Some((sender, payload, certificate)) = self
                .pending_finals
                .get_mut(&account)
                .and_then(|finals| finals.remove(&expected))
            else {
                break;
            };
            self.next_deliver.insert(account, expected + 1);
            // Drop the satisfied pending send.
            if let Some(slot) = self.pending_sends.get_mut(&account) {
                slot.remove(&expected);
            }
            if self.forward_final {
                step.send_all(
                    self.n,
                    AccountOrderMsg::Final {
                        sender,
                        account,
                        seq: SeqNo::new(expected),
                        payload: payload.clone(),
                        certificate,
                    },
                );
            }
            let delivery = AccountDelivery {
                sender,
                account,
                seq: SeqNo::new(expected),
                payload,
            };
            self.trace(&delivery.payload, sender, TraceEventKind::Deliver, expected);
            self.delivered_total += 1;
            step.deliver(sender, SeqNo::new(expected), delivery);
            // A delivery may unblock the acknowledgement of the next SEND.
            self.try_ack(account, step);
        }
    }

    /// The next sequence number this process will deliver for `account`.
    pub fn expected(&self, account: AccountId) -> SeqNo {
        SeqNo::new(self.next_deliver.get(&account).copied().unwrap_or(1))
    }

    /// Total number of deliveries ever made (monotone across pruning).
    pub fn delivered_count(&self) -> usize {
        self.delivered_total
    }

    /// Whether `(account, seq)` is behind the account's delivery floor —
    /// already delivered, so its state may be pruned and any message for
    /// it is a replay.
    fn is_stale(&self, account: AccountId, seq: SeqNo) -> bool {
        seq.value() < self.next_deliver.get(&account).copied().unwrap_or(1)
    }

    /// Drops per-instance state behind each account's delivery floor:
    /// acknowledgement slots, finalized sender state, and buffered SENDs
    /// and FINALs. Returns the number of acknowledgement slots pruned
    /// (the [`Self::instance_count`] unit).
    /// Late messages for pruned instances are rejected by the floor
    /// checks, so delivery stays exactly-once per `(account, seq)`.
    pub fn prune_delivered(&mut self) -> usize {
        let floors = &self.next_deliver;
        let floor_of = |account: &AccountId| floors.get(account).copied().unwrap_or(1);
        let before = self.acked.len();
        self.acked
            .retain(|(account, seq), _| *seq >= floor_of(account));
        self.sending
            .retain(|(account, seq), state| !(state.finalized && *seq < floor_of(account)));
        for (account, slot) in self.pending_sends.iter_mut() {
            let floor = floor_of(account);
            *slot = slot.split_off(&floor);
        }
        for (account, slot) in self.pending_finals.iter_mut() {
            let floor = floor_of(account);
            *slot = slot.split_off(&floor);
        }
        self.pending_sends.retain(|_, slot| !slot.is_empty());
        self.pending_finals.retain(|_, slot| !slot.is_empty());
        before - self.acked.len()
    }

    /// Raises the delivery floor of `account` so sequence numbers
    /// `≤ floor` are treated as already delivered and the account's
    /// stream resumes gaplessly at `floor + 1`. Never lowers an existing
    /// floor. Cold-started replicas seed floors from a snapshot with
    /// this before replaying the log suffix.
    pub fn set_delivery_floor(&mut self, account: AccountId, floor: SeqNo) {
        let next = self.next_deliver.entry(account).or_insert(1);
        if floor.value() + 1 > *next {
            *next = floor.value() + 1;
        }
        let next = *next;
        self.acked
            .retain(|(a, seq), _| !(*a == account && *seq < next));
        self.sending
            .retain(|(a, seq), _| !(*a == account && *seq < next));
        if let Some(slot) = self.pending_sends.get_mut(&account) {
            *slot = slot.split_off(&next);
        }
        if let Some(slot) = self.pending_finals.get_mut(&account) {
            *slot = slot.split_off(&next);
        }
    }
}

impl<P: Clone + Encode, A: Authenticator> fmt::Debug for AccountOrderBroadcast<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AccountOrderBroadcast(me={}, n={}, delivered={})",
            self.me, self.n, self.delivered_total
        )
    }
}

fn payload_digest<P: Encode>(payload: &P) -> [u8; 32] {
    at_crypto::Sha256::digest(&encode(payload))
}

fn send_bytes(account: AccountId, seq: SeqNo, digest: [u8; 32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(b'a');
    account.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(&digest);
    w.into_bytes()
}

fn ack_bytes(account: AccountId, seq: SeqNo, digest: [u8; 32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(b'k');
    account.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(&digest);
    w.into_bytes()
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
        let mut endpoints = system(4);
        let wires = start(&mut endpoints, p(0), acct(0), 1, 9);
        // p0's FINAL only reaches p1.
        let delivered = run(&mut endpoints, wires, |(from, to, msg)| {
            matches!(msg, AccountOrderMsg::Final { .. }) && *from == p(0) && *to != p(1)
        });
        for (i, delivered) in delivered.iter().enumerate() {
            assert_eq!(delivered.len(), 1, "process {i}");
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
    /// `q` the ack quorum.
    ///
    /// An honest instance signs the SEND plus one ack share per process,
    /// `n + 1`; it verifies the SEND at every process, the first `q` ack
    /// shares at the sender (an ack past the quorum finds the instance
    /// finalized and is dropped unverified) and `q` certificate shares
    /// at every process when the sender's FINAL arrives (the forwarded
    /// copies arrive behind the delivery floor), `n + q + n·q`.
    ///
    /// An instance whose predecessor the last process never saw costs
    /// the same `n + q + n·q` verifications: the last process acks
    /// nothing (`n` signs), so the sender verifies `q` of `n − 1` acks,
    /// `n − 1` processes deliver, and the last one verifies the first
    /// FINAL it sees, parks it behind the gap, and drops the `n − 1`
    /// forwarded copies on the parked duplicate without verifying them.
    /// Verifying before the lookup in `on_ack`, or before the duplicate
    /// check in `on_final`, moves a count and fails here.
    fn assert_signature_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth = ObservedAuth::new(EdAuth::deterministic(n, 31), registry.recorder());
        let q = system(n)[0].quorum() as u64;
        let budget = n as u64 + q + n as u64 * q;

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
    fn honest_instance_costs_5_signs_and_19_verifies_at_n4() {
        assert_signature_budget(4);
    }

    #[test]
    fn honest_instance_costs_8_signs_and_47_verifies_at_n7() {
        assert_signature_budget(7);
    }

    #[test]
    fn quorum_and_debug() {
        let endpoint: Endpoint = AccountOrderBroadcast::new(p(0), 4, NoAuth);
        assert_eq!(endpoint.quorum(), 3);
        assert!(format!("{endpoint:?}").contains("delivered=0"));
    }
}
