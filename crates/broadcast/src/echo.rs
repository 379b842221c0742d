//! The signed-echo secure broadcast (Malkhi–Reiter 1997, references
//! [35, 36] of the paper), and Section 6's account-order broadcast, which
//! is the same protocol under one more acknowledgement rule.
//!
//! The sender transmits its signed payload; receivers acknowledge with a
//! signed echo *to the sender only*; once the sender collects a quorum of
//! `⌈(n+f+1)/2⌉` echoes it sends the payload together with the quorum
//! certificate to all, and everyone delivers after verifying the
//! certificate. Two round trips and `3(n−1)` messages on the sender path,
//! plus `(n−1)·f` certificate relays that guarantee totality when the
//! sender is Byzantine: a process that delivers hands the FINAL to the
//! next `f` processes after it, wrapping round, skipping the stream's
//! sole sender (who alone could assemble the certificate) and the channel
//! peer its copy came from. The source relays nothing.
//!
//! Every message names its *stream* and sequence number. A benign process
//! echoes at most one payload per `(stream, seq)`, and only after
//! verifying its sender's signature, so two conflicting payloads can
//! never both obtain certificates: this is the *consistency* that
//! prevents equivocation — and, one level up, double spending. It is also
//! why a FINAL carries the certificate and nothing else: the quorum
//! already speaks for a verified SEND.
//!
//! One machine, [`SignedEcho`], serves three users; each gets its rules
//! from the type it names:
//!
//! * [`EchoBroadcast`] — source order. Streams are processes, only a
//!   stream's own process may send on it, and a SEND is echoed on
//!   arrival.
//! * [`AccountOrderBackend`](crate::AccountOrderBackend) — Section 6's
//!   account order in the base topology, where account `i` belongs to
//!   process `i`: the same streams, the same sender rule, and the paper's
//!   rule for acknowledging, `IN_ORDER`:
//!
//!   > "A message with a sequence number `s` associated with an account
//!   > `a` is only acknowledged by a benign process if the last message
//!   > associated with `a` it delivered had sequence number `s − 1`."
//! * [`AccountOrderBroadcast`](crate::AccountOrderBroadcast) — Section 6's
//!   `k`-shared accounts: streams are accounts, any process may send with
//!   the sequence number its owner group's BFT service assigned, and
//!   acknowledgement is `IN_ORDER`.

use crate::auth::Authenticator;
use crate::instance::{
    signed_bytes, verify_certificate, Collector, Digest, DigestMemo, InstanceTable, TraceHook,
};
use crate::secure::{SecureBroadcast, TraceExtract};
use crate::types::Step;
use at_model::{AccountId, Encode, ProcessId, SeqNo};
use at_obs::{TraceEventKind, Tracer};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;

/// What a signed-echo stream is keyed by, and so who may send on it.
pub trait Stream: Copy + Ord + Hash + Encode {
    /// The one process whose SENDs the stream acknowledges, or `None`
    /// when it acknowledges any process's.
    fn sole_sender(self) -> Option<ProcessId>;
}

/// A source-order stream: its process's broadcasts, and no one else's.
impl Stream for ProcessId {
    fn sole_sender(self) -> Option<ProcessId> {
        Some(self)
    }
}

/// A shared account's stream: whichever owner the account's BFT service
/// sequenced sends, so the stream alone names no sender.
impl Stream for AccountId {
    fn sole_sender(self) -> Option<ProcessId> {
        None
    }
}

/// Wire messages of the signed-echo broadcast, on streams `K`.
#[derive(Clone, Debug, PartialEq)]
pub enum EchoMsg<P, S, K = ProcessId> {
    /// The sender's signed payload.
    Send {
        /// The stream it is broadcast on.
        stream: K,
        /// The stream's sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's signature over `(stream, seq, payload)`.
        sig: S,
    },
    /// A receiver's signed acknowledgement, sent back to the sender.
    Echo {
        /// The instance stream.
        stream: K,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload digest being acknowledged.
        digest: [u8; 32],
        /// The echoer's signature share.
        share: S,
    },
    /// The payload plus its echo-quorum certificate.
    Final {
        /// The instance stream.
        stream: K,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// `(echoer, share)` pairs forming the quorum certificate.
        certificate: Vec<(ProcessId, S)>,
    },
}

struct Slot<P, S> {
    /// The digest of the first SEND verified here: the only one this
    /// process ever echoes for the slot (the anti-equivocation rule).
    echoed: Option<Digest>,
    /// The echo share this process signed over `echoed`, once it has:
    /// a certificate entry equal to it needs no verification here.
    share: Option<S>,
    /// `IN_ORDER` only: that SEND's sender and payload, until its turn
    /// to be echoed comes (boxed: most slots never wait, and every slot
    /// pays for the field).
    waiting: Option<Box<(ProcessId, P)>>,
    /// Our own broadcasts here: the payload and, after
    /// [`SecureBroadcast::broadcast_split`], the second one behind it.
    sending: Vec<Collector<P, S>>,
    /// The payload digests: seeded by our own SEND or the first one
    /// received, cleared once a FINAL is certified.
    memo: DigestMemo<P>,
}

impl<P, S> Default for Slot<P, S> {
    fn default() -> Self {
        Slot {
            echoed: None,
            share: None,
            waiting: None,
            sending: Vec::new(),
            memo: DigestMemo::default(),
        }
    }
}

/// One process's endpoint of the signed-echo broadcast on streams `K`.
/// With `IN_ORDER`, a SEND for `(stream, s)` is echoed only once
/// `(stream, s − 1)` was delivered (Section 6); without, on arrival.
pub struct SignedEcho<K, P, A: Authenticator, const IN_ORDER: bool> {
    table: InstanceTable<K, Slot<P, A::Sig>, P>,
    trace: TraceHook<P>,
    auth: A,
    /// The buffer a payload is encoded into to be hashed.
    scratch: Vec<u8>,
    /// Mutation-testing hook: overrides [`SignedEcho::quorum`].
    #[cfg(feature = "broken")]
    quorum_override: Option<usize>,
}

/// Malkhi–Reiter signed echo in source order: a SEND is echoed on
/// arrival.
pub type EchoBroadcast<P, A> = SignedEcho<ProcessId, P, A, false>;

type Out<K, P, A> = Step<EchoMsg<P, <A as Authenticator>::Sig, K>, P, K>;

impl<K: Stream, P: Clone + Eq + Encode, A: Authenticator, const IN_ORDER: bool>
    SignedEcho<K, P, A, IN_ORDER>
{
    /// Creates the endpoint for process `me` of `n`, using `auth` for
    /// signatures; tolerates `f = ⌊(n−1)/3⌋` Byzantine processes.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        SignedEcho {
            table: InstanceTable::new(me, n),
            trace: TraceHook::new(me),
            auth,
            scratch: Vec::new(),
            #[cfg(feature = "broken")]
            quorum_override: None,
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.table.fault_threshold()
    }

    /// The echo quorum `⌈(n+f+1)/2⌉`.
    pub fn quorum(&self) -> usize {
        #[cfg(feature = "broken")]
        if let Some(quorum) = self.quorum_override {
            return quorum;
        }
        self.table.quorum()
    }

    /// **Mutation-testing hook** (`broken` feature only): replaces the
    /// echo quorum with `quorum` on this endpoint — both for forming
    /// certificates as a sender and for accepting them as a receiver. An
    /// off-by-one below `⌈(n+f+1)/2⌉` breaks quorum intersection, which
    /// lets an equivocating sender certify *both* sides of a split
    /// broadcast; whether correct replicas then diverge depends on the
    /// delivery schedule — exactly the class of bug the `at-check`
    /// explorer exists to catch, and the seeded mutation CI requires it
    /// to keep catching.
    #[cfg(feature = "broken")]
    pub fn set_quorum_override(&mut self, quorum: usize) {
        self.quorum_override = Some(quorum);
    }

    /// Broadcasts `payload` as message `seq` of `stream`.
    fn send_on(&mut self, stream: K, seq: SeqNo, payload: P, step: &mut Out<K, P, A>) {
        let (me, n) = (self.table.me(), self.table.n());
        self.trace
            .record(&payload, me, TraceEventKind::Send, n as u64);
        let send = self.open(stream, seq, payload);
        step.send_all(n, send);
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: EchoMsg<P, A::Sig, K>,
        step: &mut Out<K, P, A>,
    ) {
        match msg {
            EchoMsg::Send {
                stream,
                seq,
                payload,
                sig,
            } => self.on_send(from, (stream, seq), payload, sig, step),
            EchoMsg::Echo {
                stream,
                seq,
                digest,
                share,
            } => self.on_echo(from, (stream, seq), digest, share, step),
            EchoMsg::Final {
                stream,
                seq,
                payload,
                certificate,
            } => self.on_final(from, (stream, seq), payload, certificate, step),
        }
    }

    /// Signs `payload` as message `seq` of `stream` and starts collecting
    /// echo shares for it; answers the SEND to transmit.
    fn open(&mut self, stream: K, seq: SeqNo, payload: P) -> EchoMsg<P, A::Sig, K> {
        let me = self.table.me();
        let mut slot = self.table.entry(stream, seq).map(|slot| slot.or_default());
        let memo = slot.as_deref_mut().map(|slot| &mut slot.memo);
        let digest = DigestMemo::through(memo, &payload, &mut self.scratch);
        let sig = self.auth.sign(me, &signed_bytes(b'S', stream, seq, digest));
        if let Some(slot) = slot {
            slot.sending.push(Collector::new(payload.clone(), digest));
        }
        EchoMsg::Send {
            stream,
            seq,
            payload,
            sig,
        }
    }

    fn on_send(
        &mut self,
        from: ProcessId,
        (stream, seq): (K, SeqNo),
        payload: P,
        sig: A::Sig,
        step: &mut Out<K, P, A>,
    ) {
        if stream.sole_sender().is_some_and(|sender| sender != from) {
            return; // someone else's stream: never echoed, no slot
        }
        let turn = !IN_ORDER || seq == self.table.expected(stream);
        let me = self.table.me();
        let Some(mut slot) = self.table.entry(stream, seq) else {
            return; // already released: not worth a verification
        };
        // A new slot's digest goes through a memo of its own, kept only
        // once the signature holds.
        let mut memo = DigestMemo::default();
        let digest = match &mut slot {
            Entry::Occupied(slot) => slot.get_mut().memo.digest(&payload, &mut self.scratch),
            Entry::Vacant(_) => memo.digest(&payload, &mut self.scratch),
        };
        // Only our own SEND, looped back, comes from `me`: signed here,
        // so there is nothing to check.
        let bytes = || signed_bytes(b'S', stream, seq, digest);
        if from != me && !self.auth.verify(from, &bytes(), &sig) {
            return; // forged SEND: no slot either
        }
        let slot = slot.or_insert_with(|| Slot {
            memo,
            ..Slot::default()
        });
        // Echo at most one digest per slot; a duplicate SEND is echoed
        // again (idempotent for the sender).
        if *slot.echoed.get_or_insert(digest) != digest {
            return; // equivocation: stay silent
        }
        if turn {
            self.echo(from, (stream, seq), digest, &payload, step);
        } else {
            slot.waiting.get_or_insert(Box::new((from, payload)));
        }
    }

    /// Signs and sends the echo share for `(stream, seq)` to `sender`,
    /// and keeps it in the slot.
    fn echo(
        &mut self,
        sender: ProcessId,
        (stream, seq): (K, SeqNo),
        digest: Digest,
        payload: &P,
        step: &mut Out<K, P, A>,
    ) {
        let share = self
            .auth
            .sign(self.table.me(), &signed_bytes(b'E', stream, seq, digest));
        if let Some(slot) = self.table.get_mut(stream, seq) {
            slot.share = Some(share.clone());
        }
        self.trace
            .record(payload, sender, TraceEventKind::Echo, seq.value());
        step.send(
            sender,
            EchoMsg::Echo {
                stream,
                seq,
                digest,
                share,
            },
        );
    }

    fn on_echo(
        &mut self,
        from: ProcessId,
        (stream, seq): (K, SeqNo),
        digest: Digest,
        share: A::Sig,
        step: &mut Out<K, P, A>,
    ) {
        let (me, n, quorum) = (self.table.me(), self.table.n(), self.quorum());
        // The share may be for our payload or, after a split broadcast,
        // for the one behind it — each accumulates separately.
        let slot = self.table.get_mut(stream, seq);
        let mut sending = slot.into_iter().flat_map(|slot| &mut slot.sending);
        let Some(echoes) = sending.find(|echoes| echoes.digest() == digest) else {
            return; // echo for an unknown/finished broadcast
        };
        let Some(certificate) = echoes.accept(
            &self.auth,
            quorum,
            (me, from),
            || signed_bytes(b'E', stream, seq, digest),
            share,
        ) else {
            return;
        };
        self.trace.record(
            echoes.payload(),
            me,
            TraceEventKind::Ready,
            certificate.len() as u64,
        );
        step.send_all(
            n,
            EchoMsg::Final {
                stream,
                seq,
                payload: echoes.payload().clone(),
                certificate,
            },
        );
    }

    fn on_final(
        &mut self,
        from: ProcessId,
        (stream, seq): (K, SeqNo),
        payload: P,
        certificate: Vec<(ProcessId, A::Sig)>,
        step: &mut Out<K, P, A>,
    ) {
        // A replay of a released instance, or a relayed copy of a FINAL
        // already certified: not worth a verification.
        if self.table.is_stale(stream, seq) || self.table.holds(stream, seq) {
            return;
        }
        let memo = self.table.get_mut(stream, seq).map(|slot| &mut slot.memo);
        let digest = DigestMemo::through(memo, &payload, &mut self.scratch);
        // Trusted without a check, byte for byte and over this digest
        // only: the shares `on_echo` accepted for our own broadcast, and
        // the share we signed when we echoed this payload.
        let me = self.table.me();
        let slot = self.table.get(stream, seq);
        let own = slot.and_then(|slot| {
            let mut sending = slot.sending.iter();
            sending.find(|echoes| echoes.digest() == digest)
        });
        let echoed = slot
            .filter(|slot| slot.echoed == Some(digest))
            .and_then(|slot| slot.share.as_ref());
        let trusted = |signer: ProcessId, share: &A::Sig| {
            own.is_some_and(|own| own.collected(signer, share))
                || (signer == me && echoed == Some(share))
        };
        // Hop attribution for the trace: the stream's sender if it has a
        // sole one (the only streams that are traced).
        let source = stream.sole_sender().unwrap_or(from);
        let signers = verify_certificate(
            &self.auth,
            self.trace.ctx(&payload, source),
            &signed_bytes(b'E', stream, seq, digest),
            &certificate,
            trusted,
        );
        if signers < self.quorum() {
            return;
        }
        if let Some(slot) = self.table.get_mut(stream, seq) {
            slot.memo.clear();
        }
        let relay = EchoMsg::Final {
            stream,
            seq,
            payload: payload.clone(),
            certificate,
        };
        self.table
            .relay_final(step, from, stream.sole_sender(), relay);
        self.table.hold(stream, seq, payload);
        while let Some((seq, payload)) = self.table.release(stream) {
            self.trace
                .record(&payload, source, TraceEventKind::Deliver, seq.value());
            step.deliver(stream, seq, payload);
            if IN_ORDER {
                self.echo_next(stream, step);
            }
        }
    }

    /// `IN_ORDER`: echoes the SEND waiting for `stream`'s next delivery,
    /// now that its predecessor delivered.
    fn echo_next(&mut self, stream: K, step: &mut Out<K, P, A>) {
        let seq = self.table.expected(stream);
        let slot = self.table.get_mut(stream, seq);
        let waiting = slot.and_then(|slot| slot.waiting.take().zip(slot.echoed));
        if let Some((waiting, digest)) = waiting {
            let (sender, payload) = *waiting;
            self.echo(sender, (stream, seq), digest, &payload, step);
        }
    }
}

impl<P: Clone + Eq + Encode, A: Authenticator, const IN_ORDER: bool>
    SignedEcho<AccountId, P, A, IN_ORDER>
{
    /// Broadcasts `payload` as message `seq` of the shared account
    /// `account`, `seq` being the number the account's BFT service
    /// assigned. A process's own stream is numbered by
    /// [`SecureBroadcast::broadcast`] instead.
    pub fn broadcast_at(
        &mut self,
        account: AccountId,
        seq: SeqNo,
        payload: P,
        step: &mut Out<AccountId, P, A>,
    ) {
        self.send_on(account, seq, payload, step);
    }
}

impl<P, A, const IN_ORDER: bool> SecureBroadcast<P> for SignedEcho<ProcessId, P, A, IN_ORDER>
where
    P: Clone + Eq + Encode + Send,
    A: Authenticator + Send,
    A::Sig: Send,
{
    type Msg = EchoMsg<P, A::Sig>;

    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        let seq = self.table.next_seq();
        self.send_on(self.table.me(), seq, payload, step);
        seq
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>) {
        SignedEcho::on_message(self, from, msg, step);
    }

    /// Signs and sends conflicting `SEND`s for one instance. The attacker
    /// owns its key, so both signatures are genuine, and it keeps live
    /// sender-side state for both payloads: the strongest attacker would
    /// certify either the moment a quorum formed. With the correct quorum
    /// `⌈(n+f+1)/2⌉` neither can (each half of the system is below it,
    /// and a benign process echoes one digest per instance), so tests on
    /// this path exercise the defense, not a dead sender — and a broken
    /// quorum (`broken` feature) shows as a double certificate.
    fn broadcast_split(&mut self, left: P, right: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        let (me, seq) = (self.table.me(), self.table.next_seq());
        let (left, right) = (self.open(me, seq, left), self.open(me, seq, right));
        step.send_halves(self.table.n(), left, right);
        seq
    }

    fn instance_count(&self) -> usize {
        self.table.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.table.delivered_count()
    }

    fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.trace.set(tracer, extract);
    }

    /// Late `FINAL`s for a pruned instance are rejected by the release
    /// floor, so delivery stays irrevocable and exactly-once.
    fn prune_delivered(&mut self) -> usize {
        self.table.prune(|_| true)
    }

    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.table.set_source_floor(source, floor);
    }
}

impl<K: Stream, P, A: Authenticator, const IN_ORDER: bool> fmt::Debug
    for SignedEcho<K, P, A, IN_ORDER>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(me={}, n={}, f={}, delivered={})",
            if IN_ORDER {
                "AccountOrder"
            } else {
                "SignedEcho"
            },
            self.table.me(),
            self.table.n(),
            self.table.fault_threshold(),
            self.table.delivered_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{EdAuth, NoAuth};
    use crate::types::Delivery;
    use at_crypto::{digest_of, Signature};
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn send_bytes(source: ProcessId, seq: SeqNo, digest: Digest) -> Vec<u8> {
        signed_bytes(b'S', source, seq, digest)
    }

    fn echo_bytes(source: ProcessId, seq: SeqNo, digest: Digest) -> Vec<u8> {
        signed_bytes(b'E', source, seq, digest)
    }

    fn run_system<A: Authenticator>(
        n: usize,
        auth: impl Fn(ProcessId) -> A,
        broadcasts: Vec<(ProcessId, u64)>,
        drop_rule: impl Fn(ProcessId, ProcessId, &EchoMsg<u64, A::Sig>) -> bool,
    ) -> Vec<Vec<Delivery<u64>>> {
        let mut endpoints: Vec<EchoBroadcast<u64, A>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth(p(i as u32))))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, A::Sig>)> = VecDeque::new();
        let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];

        for (source, value) in broadcasts {
            let mut step = Step::new();
            endpoints[source.as_usize()].broadcast(value, &mut step);
            for out in step.outgoing {
                inflight.push_back((source, out.to, out.msg));
            }
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            if drop_rule(from, to, &msg) {
                continue;
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    #[test]
    fn all_deliver_with_no_auth() {
        let delivered = run_system(4, |_| NoAuth, vec![(p(0), 42)], |_, _, _| false);
        for deliveries in &delivered {
            assert_eq!(deliveries.len(), 1);
            assert_eq!(deliveries[0].payload, 42);
        }
    }

    #[test]
    fn all_deliver_with_real_signatures() {
        let auth = EdAuth::deterministic(4, 7);
        let delivered = run_system(4, |_| auth.clone(), vec![(p(1), 9)], |_, _, _| false);
        for deliveries in &delivered {
            assert_eq!(deliveries.len(), 1);
            assert_eq!(deliveries[0].payload, 9);
            assert_eq!(deliveries[0].source, p(1));
        }
    }

    #[test]
    fn source_order_is_fifo() {
        let delivered = run_system(
            4,
            |_| NoAuth,
            vec![(p(2), 1), (p(2), 2), (p(2), 3)],
            |_, _, _| false,
        );
        for deliveries in &delivered {
            let values: Vec<u64> = deliveries.iter().map(|d| d.payload).collect();
            assert_eq!(values, vec![1, 2, 3]);
        }
    }

    #[test]
    fn forged_send_is_ignored() {
        // p3 injects a SEND claiming to be from p0 (wrong signature).
        let auth = EdAuth::deterministic(4, 1);
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth.clone()))
            .collect();
        // Craft a SEND with p3's signature but deliver it as "from p0" is
        // impossible in the sim (channels are authenticated); instead the
        // adversary sends from itself with a *bad* signature.
        let bad_sig = auth.sign(p(3), b"garbage");
        let mut step = Step::new();
        endpoints[1].on_message(
            p(3),
            EchoMsg::Send {
                stream: p(3),
                seq: SeqNo::new(1),
                payload: 666,
                sig: bad_sig,
            },
            &mut step,
        );
        assert!(step.outgoing.is_empty(), "no echo for a forged SEND");
        assert!(step.deliveries.is_empty());
        assert_eq!(endpoints[1].instance_count(), 0, "a forged SEND left state");
    }

    #[test]
    fn fake_certificate_rejected() {
        let auth = EdAuth::deterministic(4, 2);
        let mut endpoint: EchoBroadcast<u64, EdAuth> = EchoBroadcast::new(p(1), 4, auth.clone());
        let seq = SeqNo::new(1);
        let payload = 5u64;
        let digest = digest_of(&payload);
        // Certificate signed by only one process (quorum is 3), padded
        // with duplicates.
        let share = auth.sign(p(2), &echo_bytes(p(0), seq, digest));
        let cert = vec![(p(2), share), (p(2), share), (p(2), share)];
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload,
                certificate: cert,
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty(), "duplicate-signer cert rejected");
        assert_eq!(endpoint.delivered_count(), 0);
    }

    #[test]
    fn final_with_q_shares_meters_exactly_q_share_verifies() {
        // Satellite check for the at-obs accounting: a fresh endpoint
        // receiving a valid FINAL with a q-share certificate performs
        // exactly q per-share verifies (a FINAL carries no SEND
        // signature), and the ObservedAuth decorator routes every one of them into
        // the registry (counter and Stage::Verify histogram agree).
        let ed = EdAuth::deterministic(4, 9);
        let registry = at_obs::Registry::new("node 3");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut endpoint: EchoBroadcast<u64, _> = EchoBroadcast::new(p(3), 4, auth.clone());
        let q = endpoint.quorum();
        assert_eq!(q, 3);

        let seq = SeqNo::new(1);
        let payload = 11u64;
        let digest = digest_of(&payload);
        let certificate: Vec<(ProcessId, _)> = (0..q as u32)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, digest))))
            .collect();

        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1, "valid certificate delivers");
        let per_share = auth.verifies() - before;
        assert_eq!(per_share, q as u64, "exactly q per-share verifies");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_verifies_total"),
            Some(auth.verifies()),
            "counter matches the decorator's own tally"
        );
        let hist = snap.histogram("stage_verify_us").expect("registered");
        assert_eq!(
            hist.count,
            auth.verifies(),
            "one histogram sample per verify"
        );
    }

    /// A receiver that has echoed `payload` for `(p0, seq 1)`, metered:
    /// `(endpoint, auth handle, full certificate)`.
    #[allow(clippy::type_complexity)]
    fn echoed_receiver(
        ed: &EdAuth,
        payload: u64,
    ) -> (
        EchoBroadcast<u64, crate::auth::ObservedAuth<EdAuth>>,
        crate::auth::ObservedAuth<EdAuth>,
        Vec<(ProcessId, Signature)>,
    ) {
        let registry = at_obs::Registry::new("node 1");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut endpoint: EchoBroadcast<u64, _> = EchoBroadcast::new(p(1), 4, auth.clone());
        let seq = SeqNo::new(1);
        let digest = digest_of(&payload);
        let sig = ed.sign(p(0), &send_bytes(p(0), seq, digest));
        let mut step = Step::new();
        let send = EchoMsg::Send {
            stream: p(0),
            seq,
            payload,
            sig,
        };
        endpoint.on_message(p(0), send, &mut step);
        assert_eq!(step.outgoing.len(), 1, "the SEND was echoed");
        let certificate = (1..4)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, digest))))
            .collect();
        (endpoint, auth, certificate)
    }

    #[test]
    fn final_matching_the_echoed_send_skips_only_that_verification() {
        // The SEND's signature was verified once, when it was echoed; the
        // FINAL carries the certificate alone and costs its shares, but
        // for p1's own: the very share it signed when it echoed.
        let ed = EdAuth::deterministic(4, 21);
        let (mut endpoint, auth, certificate) = echoed_receiver(&ed, 5);
        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq: SeqNo::new(1),
                payload: 5,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(
            auth.verifies() - before,
            2,
            "two peers' shares and nothing else"
        );
    }

    #[test]
    fn a_garbage_share_under_the_receivers_own_id_is_verified() {
        // Only a byte-identical copy of the share p1 signed when it
        // echoed goes unchecked. Here p1's entry is p1's signature over
        // another digest: it is verified and fails, which leaves two
        // valid shares, below the quorum, so the FINAL is neither
        // delivered nor relayed. Trusting the entry for its signer alone
        // would deliver it and relay a certificate every peer rejects.
        let ed = EdAuth::deterministic(4, 26);
        let (mut endpoint, auth, mut certificate) = echoed_receiver(&ed, 5);
        let seq = SeqNo::new(1);
        assert_eq!(certificate[0].0, p(1));
        certificate[0].1 = ed.sign(p(1), &echo_bytes(p(0), seq, digest_of(&6u64)));
        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload: 5,
                certificate,
            },
            &mut step,
        );
        assert_eq!(auth.verifies() - before, 3, "p1's own entry went unchecked");
        assert!(step.deliveries.is_empty(), "delivered on a garbage share");
        assert!(
            step.outgoing.is_empty(),
            "relayed a certificate peers reject"
        );
        assert_eq!(endpoint.delivered_count(), 0);
    }

    #[test]
    fn final_for_another_payload_under_the_echoed_certificate_is_rejected() {
        // A valid certificate for the echoed payload 5, carried by a
        // FINAL for payload 6. The receiver's memo holds 5's digest;
        // answering it for 6 would pass the certificate — every share
        // must be checked over the digest of exactly the payload
        // received.
        let ed = EdAuth::deterministic(4, 25);
        let (mut endpoint, _, certificate) = echoed_receiver(&ed, 5);
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq: SeqNo::new(1),
                payload: 6,
                certificate,
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty() && step.outgoing.is_empty());
        assert_eq!(endpoint.delivered_count(), 0);
    }

    #[test]
    fn sender_reverifies_exactly_the_shares_it_did_not_collect() {
        // The sender collected and verified echoes from p1..p3. A FINAL
        // for its own instance whose certificate swaps p2's share for a
        // forgery: the two exact matches are skipped, the forgery is
        // verified, attributed and not counted.
        let ed = EdAuth::deterministic(4, 24);
        let registry = at_obs::Registry::new("node 0");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut sender: EchoBroadcast<u64, _> = EchoBroadcast::new(p(0), 4, auth.clone());
        let mut step = Step::new();
        let seq = sender.broadcast(9, &mut step);
        let digest = digest_of(&9u64);
        let signs_after_broadcast = auth.signs();
        let mut finals = Vec::new();
        for i in 1..4 {
            let share = ed.sign(p(i), &echo_bytes(p(0), seq, digest));
            let mut step = Step::new();
            sender.on_message(
                p(i),
                EchoMsg::Echo {
                    stream: p(0),
                    seq,
                    digest,
                    share,
                },
                &mut step,
            );
            finals.extend(step.outgoing);
        }
        assert_eq!(finals.len(), 4, "the quorum's FINAL goes to all four");
        assert_eq!(
            auth.signs(),
            signs_after_broadcast,
            "the FINAL costs no signature"
        );
        let EchoMsg::Final { certificate, .. } = finals.swap_remove(0).msg else {
            panic!("expected a FINAL");
        };

        // A late fourth echo finds the instance finalized: no verify.
        let before = auth.verifies();
        let own_share = ed.sign(p(0), &echo_bytes(p(0), seq, digest));
        sender.on_message(
            p(0),
            EchoMsg::Echo {
                stream: p(0),
                seq,
                digest,
                share: own_share,
            },
            &mut Step::new(),
        );
        assert_eq!(auth.verifies(), before, "late echo cost a verification");

        // Forged share among verified ones: below quorum, rejected.
        let mut forged = certificate.clone();
        forged[1].1 = ed.sign(p(2), b"not the echo bytes");
        let mut step = Step::new();
        sender.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload: 9,
                certificate: forged.clone(),
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty(), "forged share counted");
        assert_eq!(auth.verifies() - before, 1, "only the forgery was verified");

        // With a fourth, unseen-but-valid share the quorum holds without
        // the forgery: it and the new share are verified, nothing else.
        forged.push((p(0), own_share));
        let before = auth.verifies();
        let mut step = Step::new();
        sender.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload: 9,
                certificate: forged,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(auth.verifies() - before, 2);

        // The untouched certificate needs no verification at all.
        let mut fresh: EchoBroadcast<u64, _> = EchoBroadcast::new(p(0), 4, auth.clone());
        let mut step = Step::new();
        fresh.broadcast(9, &mut step);
        for (signer, share) in &certificate {
            fresh.on_message(
                *signer,
                EchoMsg::Echo {
                    stream: p(0),
                    seq,
                    digest,
                    share: *share,
                },
                &mut Step::new(),
            );
        }
        let before = auth.verifies();
        let mut step = Step::new();
        fresh.on_message(
            p(0),
            EchoMsg::Final {
                stream: p(0),
                seq,
                payload: 9,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(auth.verifies(), before, "own certificate re-verified");
    }

    /// SignedEcho's signature budget, as an exact count over a whole
    /// honest instance (all `n` endpoints metered into one registry).
    /// Signs: the SEND plus one echo share per process, `n + 1` — the
    /// FINAL is the certificate, unsigned. Verifies: nobody checks what
    /// it signed itself or already checked. The SEND is verified at every
    /// process but its sender, `n − 1`. Each of the `q` certificate
    /// shares is verified once at every process but its signer, `q` of
    /// them at the sender as echoes arrive (echoes past the quorum are
    /// dropped unverified) and the rest in the FINAL, `q·(n − 1)`. In
    /// all `(n − 1)(q + 1)`. Signing the FINAL, the sender re-verifying
    /// the shares it collected, or anyone verifying its own SEND or
    /// share, moves a count and fails here.
    fn assert_signature_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth =
            crate::auth::ObservedAuth::new(EdAuth::deterministic(n, 31), registry.recorder());
        let q = EchoBroadcast::<u64, _>::new(p(0), n, NoAuth).quorum() as u64;
        let delivered = run_system(n, |_| auth.clone(), vec![(p(0), 42)], |_, _, _| false);
        assert!(delivered.iter().all(|deliveries| deliveries.len() == 1));
        let n = n as u64;
        assert_eq!(auth.signs(), n + 1, "signs at n = {n}");
        let verifies = (n - 1) * (q + 1);
        assert_eq!(auth.verifies(), verifies, "verifies at n = {n}, q = {q}");
    }

    #[test]
    fn honest_instance_costs_5_signs_and_12_verifies_at_n4() {
        assert_signature_budget(4);
    }

    #[test]
    fn honest_instance_costs_8_signs_and_36_verifies_at_n7() {
        assert_signature_budget(7);
    }

    #[test]
    fn equivocating_sender_cannot_get_two_certificates() {
        // A Byzantine sender sends payload 1 to half the processes and
        // payload 2 to the other half. Quorum is ⌈(4+1+1)/2⌉ = 3 > 2, so
        // neither digest can collect a certificate.
        let auth = EdAuth::deterministic(4, 3);
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth.clone()))
            .collect();
        let seq = SeqNo::new(1);
        let mut echoes = Vec::new();
        for (to, value) in [(p(1), 1u64), (p(2), 1), (p(3), 2)] {
            let digest = digest_of(&value);
            let sig = auth.sign(p(0), &send_bytes(p(0), seq, digest));
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(
                p(0),
                EchoMsg::Send {
                    stream: p(0),
                    seq,
                    payload: value,
                    sig,
                },
                &mut step,
            );
            echoes.extend(step.outgoing);
        }
        // 2 echoes for digest(1), 1 echo for digest(2): no quorum either
        // way, regardless of how the adversary combines the shares.
        assert_eq!(echoes.len(), 3);
        let digest1 = digest_of(&1u64);
        let count1 = echoes
            .iter()
            .filter(|out| matches!(&out.msg, EchoMsg::Echo { digest, .. } if *digest == digest1))
            .count();
        assert_eq!(count1, 2);
        assert!(count1 < 3, "below quorum");
    }

    #[test]
    fn a_relay_skips_the_peer_it_came_from_and_the_bound_source() {
        // n = 7, f = 2: a process relays to the next two after it,
        // wrapping round, with the source p0 skipped uncounted — p2 to
        // {p3, p4}, p5 to {p6, p1} — and drops the peer its copy came
        // from without a replacement.
        fn relayed_to(me: u32, from: u32) -> Vec<ProcessId> {
            let mut endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(me), 7, NoAuth);
            let mut step = Step::new();
            let certificate = [0, 1, 2, 3, 4, 5].map(|i| (p(i), ())).to_vec();
            let stream = p(0);
            let seq = SeqNo::new(1);
            let payload = 8;
            let relay = EchoMsg::Final {
                stream,
                seq,
                payload,
                certificate,
            };
            endpoint.on_message(p(from), relay, &mut step);
            assert_eq!(step.deliveries.len(), 1);
            step.outgoing.iter().map(|out| out.to).collect()
        }
        assert_eq!(relayed_to(2, 0), vec![p(3), p(4)], "from the source");
        assert_eq!(relayed_to(2, 3), vec![p(4)], "from inside the window");
        assert_eq!(relayed_to(2, 6), vec![p(3), p(4)], "from outside it");
        assert_eq!(relayed_to(5, 4), vec![p(6), p(1)], "across the source");
    }

    #[test]
    fn split_shadow_collects_but_never_finalizes_at_correct_quorum() {
        // Echoes for both sides of a split reach the attacker; with the
        // correct quorum neither side certifies, so no FINAL leaves.
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        let mut step = Step::new();
        endpoints[0].broadcast_split(1, 2, &mut step);
        let mut finals = 0;
        for out in step.outgoing {
            let mut reply = Step::new();
            let from = p(0);
            endpoints[out.to.as_usize()].on_message(from, out.msg, &mut reply);
            // Feed every echo straight back to the attacker.
            for echo in reply.outgoing {
                assert_eq!(echo.to, p(0));
                let mut reaction = Step::new();
                endpoints[0].on_message(out.to, echo.msg, &mut reaction);
                finals += reaction.outgoing.len();
            }
        }
        assert_eq!(finals, 0, "a split side certified at the correct quorum");
    }

    #[cfg(feature = "broken")]
    #[test]
    fn broken_quorum_lets_a_split_certify_both_sides() {
        // With the quorum forced one below the intersection threshold,
        // the attacker assembles certificates for BOTH split payloads —
        // the seeded safety bug the schedule explorer must catch.
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| {
                let mut endpoint = EchoBroadcast::new(p(i as u32), n, NoAuth);
                endpoint.set_quorum_override(2);
                endpoint
            })
            .collect();
        assert_eq!(endpoints[0].quorum(), 2);
        let mut step = Step::new();
        endpoints[0].broadcast_split(1, 2, &mut step);
        let mut final_payloads = std::collections::BTreeSet::new();
        for out in step.outgoing {
            let mut reply = Step::new();
            endpoints[out.to.as_usize()].on_message(p(0), out.msg, &mut reply);
            for echo in reply.outgoing {
                let mut reaction = Step::new();
                endpoints[0].on_message(out.to, echo.msg, &mut reaction);
                for fin in reaction.outgoing {
                    if let EchoMsg::Final { payload, .. } = fin.msg {
                        final_payloads.insert(payload);
                    }
                }
            }
        }
        assert_eq!(
            final_payloads.into_iter().collect::<Vec<_>>(),
            vec![1, 2],
            "both sides must certify under the broken quorum"
        );
    }

    #[test]
    fn prune_drops_released_instances_and_suppresses_replays() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, ()>)> = VecDeque::new();
        let mut step = Step::new();
        endpoints[0].broadcast(42, &mut step);
        let mut replay_final = None;
        for out in step.outgoing {
            inflight.push_back((p(0), out.to, out.msg));
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            if replay_final.is_none() {
                if let EchoMsg::Final { .. } = &msg {
                    replay_final = Some(msg.clone());
                }
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
        }
        for endpoint in &mut endpoints {
            assert_eq!(endpoint.instance_count(), 1);
            assert_eq!(endpoint.delivered_count(), 1);
            let pruned = endpoint.prune_delivered();
            assert_eq!(pruned, 1);
            assert_eq!(endpoint.instance_count(), 0);
            assert_eq!(endpoint.delivered_count(), 1, "monotone across pruning");
        }
        // A replayed FINAL for the pruned instance must not re-deliver
        // (the dedup map entry is gone; the release floor takes over).
        let replay = replay_final.expect("a FINAL circulated");
        let mut step = Step::new();
        endpoints[2].on_message(p(0), replay, &mut step);
        assert!(step.deliveries.is_empty(), "pruned instance re-delivered");
        assert_eq!(endpoints[2].delivered_count(), 1);
    }

    #[test]
    fn delivery_floor_resumes_a_stream_mid_sequence() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        // Endpoint 0 cold-starts knowing p1 delivered through seq 5 and
        // its own stream reached seq 3.
        endpoints[0].set_delivery_floor(p(1), SeqNo::new(5));
        endpoints[0].set_delivery_floor(p(0), SeqNo::new(3));
        let mut step = Step::new();
        let seq = endpoints[0].broadcast(7, &mut step);
        assert_eq!(seq, SeqNo::new(4), "own stream resumes after the floor");
        // Stale and fresh FINALs from p1 (NoAuth, so certificates are
        // trivially valid — quorum of distinct signers suffices).
        let mut delivered = Vec::new();
        for inst in [5u64, 6] {
            let certificate = vec![(p(1), ()), (p(2), ()), (p(3), ())];
            let mut step = Step::new();
            endpoints[0].on_message(
                p(1),
                EchoMsg::Final {
                    stream: p(1),
                    seq: SeqNo::new(inst),
                    payload: inst,
                    certificate,
                },
                &mut step,
            );
            delivered.extend(step.deliveries);
        }
        assert_eq!(delivered.len(), 1, "only the post-floor instance lands");
        assert_eq!(delivered[0].seq, SeqNo::new(6));
        assert_eq!(delivered[0].payload, 6);
    }

    #[test]
    fn quorum_formula() {
        let endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(0), 4, NoAuth);
        assert_eq!(endpoint.quorum(), 3);
        let endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(0), 10, NoAuth);
        assert_eq!(endpoint.quorum(), 7);
        assert!(format!("{endpoint:?}").contains("n=10"));
    }
}
