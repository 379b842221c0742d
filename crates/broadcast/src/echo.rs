//! Signed-echo secure broadcast (Malkhi–Reiter 1997, references [35, 36]
//! of the paper).
//!
//! The sender transmits its signed payload; receivers acknowledge with a
//! signed echo *to the sender only*; once the sender collects a quorum of
//! `⌈(n+f+1)/2⌉` echoes it sends the payload together with the quorum
//! certificate to all, and everyone delivers after verifying the
//! certificate. Two round trips and `3(n−1)` messages on the sender path,
//! plus `(n−1)(n−2)` certificate relays that guarantee totality when the
//! sender is Byzantine (disable with
//! [`EchoBroadcast::set_forward_final`] for the ablation study A1): a
//! process that delivers hands the FINAL to every process that might
//! lack it — everyone but itself, the channel peer its copy came from,
//! and the source, whose SEND signature inside the FINAL binds it and
//! who alone could assemble the certificate. The source relays nothing.
//!
//! A benign process echoes at most one payload per `(source, seq)`, so two
//! conflicting payloads can never both obtain certificates: this is the
//! *consistency* that prevents equivocation — and, one level up, double
//! spending.

use crate::auth::Authenticator;
use crate::instance::{
    signed_bytes, verify_certificate, Collector, Digest, DigestMemo, InstanceTable, TraceHook,
};
use crate::secure::{SecureBroadcast, TraceExtract};
use crate::types::{CryptoOps, Step};
use at_model::{Encode, ProcessId, SeqNo};
use at_obs::{TraceEventKind, Tracer};
use std::collections::hash_map::Entry;
use std::fmt;

/// Wire messages of the signed-echo broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum EchoMsg<P, S> {
    /// The sender's signed payload.
    Send {
        /// Sender's sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's signature over `(source, seq, payload)`.
        sig: S,
    },
    /// A receiver's signed acknowledgement, sent back to the source.
    Echo {
        /// The instance source.
        source: ProcessId,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload digest being acknowledged.
        digest: [u8; 32],
        /// The echoer's signature share.
        share: S,
    },
    /// The payload plus its echo-quorum certificate.
    Final {
        /// The instance source.
        source: ProcessId,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's original signature.
        sig: S,
        /// `(echoer, share)` pairs forming the quorum certificate.
        certificate: Vec<(ProcessId, S)>,
    },
}

/// Sender-side state of one payload this process sent.
struct Sending<P, S> {
    /// Our signature over the SEND bytes, made once and reused for the
    /// FINAL (signing is deterministic).
    sig: S,
    echoes: Collector<P, S>,
}

/// Receiver-side record of the one SEND this process echoed for an
/// instance: the digest (the anti-equivocation rule) and the exact SEND
/// signature `on_send` verified for it.
struct Echoed<S> {
    digest: Digest,
    send_sig: S,
}

struct Instance<P, S> {
    echoed: Option<Echoed<S>>,
    /// Whether the instance delivered (dedups the relayed FINALs).
    delivered: bool,
    /// Our own instances only: the payload we broadcast and, after
    /// [`SecureBroadcast::broadcast_split`], the second one behind it.
    sending: Vec<Sending<P, S>>,
    /// The payload digests: seeded by our own SEND or by the one we
    /// echoed, cleared on delivery.
    memo: DigestMemo,
}

impl<P, S> Default for Instance<P, S> {
    fn default() -> Self {
        Instance {
            echoed: None,
            delivered: false,
            sending: Vec::new(),
            memo: DigestMemo::default(),
        }
    }
}

/// One process's endpoint of the signed-echo broadcast.
pub struct EchoBroadcast<P, A: Authenticator> {
    table: InstanceTable<ProcessId, Instance<P, A::Sig>, P>,
    trace: TraceHook<P>,
    auth: A,
    forward_final: bool,
    ops: CryptoOps,
    /// Mutation-testing hook: overrides [`EchoBroadcast::quorum`].
    #[cfg(feature = "broken")]
    quorum_override: Option<usize>,
}

impl<P: Clone + Encode, A: Authenticator> EchoBroadcast<P, A> {
    /// Creates the endpoint for process `me` of `n`, using `auth` for
    /// signatures; tolerates `f = ⌊(n−1)/3⌋` Byzantine processes.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        EchoBroadcast {
            table: InstanceTable::new(me, n),
            trace: TraceHook::new(me),
            auth,
            forward_final: true,
            ops: CryptoOps::default(),
            #[cfg(feature = "broken")]
            quorum_override: None,
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.table.fault_threshold()
    }

    /// Enables/disables certificate relaying on delivery (totality for
    /// Byzantine senders). On by default.
    pub fn set_forward_final(&mut self, forward: bool) {
        self.forward_final = forward;
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

    /// Signs `payload` as our instance `seq` and starts collecting echo
    /// shares for it; answers the SEND to transmit.
    fn open(&mut self, seq: SeqNo, payload: P) -> EchoMsg<P, A::Sig> {
        let me = self.table.me();
        let mut instance = self.table.entry(me, seq).map(|slot| slot.or_default());
        let memo = instance.as_deref_mut().map(|instance| &mut instance.memo);
        let digest = DigestMemo::through(memo, &payload);
        self.ops.signs += 1;
        let sig = self.auth.sign(me, &signed_bytes(b'S', me, seq, digest));
        if let Some(instance) = instance {
            instance.sending.push(Sending {
                sig: sig.clone(),
                echoes: Collector::new(payload.clone(), digest),
            });
        }
        EchoMsg::Send { seq, payload, sig }
    }

    fn on_send(
        &mut self,
        from: ProcessId,
        seq: SeqNo,
        payload: P,
        sig: A::Sig,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        let me = self.table.me();
        let Some(mut slot) = self.table.entry(from, seq) else {
            return; // already released: not worth a verification
        };
        // A new slot's digest goes through a memo of its own, kept only
        // once the signature holds.
        let mut memo = DigestMemo::default();
        let digest = match &mut slot {
            Entry::Occupied(instance) => instance.get_mut().memo.digest(&payload),
            Entry::Vacant(_) => memo.digest(&payload),
        };
        self.ops.verifies += 1;
        if !self
            .auth
            .verify(from, &signed_bytes(b'S', from, seq, digest), &sig)
        {
            return; // forged SEND: no slot either
        }
        // Echo at most one digest per instance: the anti-equivocation rule.
        let instance = slot.or_insert_with(|| Instance {
            memo,
            ..Instance::default()
        });
        match &instance.echoed {
            Some(echoed) if echoed.digest != digest => return, // equivocation: stay silent
            Some(_) => {} // duplicate SEND: re-echo (idempotent for the sender)
            None => {
                instance.echoed = Some(Echoed {
                    digest,
                    send_sig: sig,
                });
            }
        }
        self.ops.signs += 1;
        let share = self.auth.sign(me, &signed_bytes(b'E', from, seq, digest));
        self.trace
            .record(&payload, from, TraceEventKind::Echo, seq.value());
        step.send(
            from,
            EchoMsg::Echo {
                source: from,
                seq,
                digest,
                share,
            },
        );
    }

    fn on_echo(
        &mut self,
        from: ProcessId,
        source: ProcessId,
        seq: SeqNo,
        digest: Digest,
        share: A::Sig,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        let (me, n, quorum) = (self.table.me(), self.table.n(), self.quorum());
        if source != me {
            return; // echoes are addressed to the instance's sender
        }
        // The share may be for our payload or, after a split broadcast,
        // for the one behind it — each accumulates separately.
        let instance = self.table.get_mut(me, seq);
        let mut sending = instance
            .into_iter()
            .flat_map(|instance| &mut instance.sending);
        let Some(sending) = sending.find(|sending| sending.echoes.digest() == digest) else {
            return; // echo for an unknown/finished broadcast
        };
        let Some(certificate) = sending.echoes.accept(
            (&self.auth, &mut self.ops),
            quorum,
            from,
            || signed_bytes(b'E', me, seq, digest),
            share,
        ) else {
            return;
        };
        self.trace.record(
            sending.echoes.payload(),
            me,
            TraceEventKind::Ready,
            certificate.len() as u64,
        );
        step.send_all(
            n,
            EchoMsg::Final {
                source: me,
                seq,
                payload: sending.echoes.payload().clone(),
                sig: sending.sig.clone(),
                certificate,
            },
        );
    }

    fn on_final(
        &mut self,
        from: ProcessId,
        (source, seq): (ProcessId, SeqNo),
        payload: P,
        sig: A::Sig,
        certificate: Vec<(ProcessId, A::Sig)>,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        if self.table.is_stale(source, seq) {
            return; // already released: not worth a verification
        }
        let digest = match self.table.get_mut(source, seq) {
            Some(instance) if instance.delivered => {
                return; // a forwarded copy of the FINAL that delivered
            }
            instance => DigestMemo::through(instance.map(|instance| &mut instance.memo), &payload),
        };
        let instance = self.table.get(source, seq);
        // Signatures this process already verified for this instance —
        // the SEND signature it echoed, and for its own broadcast the
        // signature it made and the shares `on_echo` accepted — are not
        // verified again. Only a byte-exact match over the same digest
        // is skipped; anything else takes the full check below.
        let mut sending = instance.into_iter().flat_map(|instance| &instance.sending);
        let own = sending.find(|sending| sending.echoes.digest() == digest);
        let send_verified = own.is_some_and(|own| own.sig == sig)
            || instance
                .and_then(|instance| instance.echoed.as_ref())
                .is_some_and(|echoed| echoed.digest == digest && echoed.send_sig == sig);
        if !send_verified {
            self.ops.verifies += 1;
            if !self
                .auth
                .verify(source, &signed_bytes(b'S', source, seq, digest), &sig)
            {
                return;
            }
        }
        let signers = verify_certificate(
            (&self.auth, &mut self.ops),
            self.trace.ctx(&payload, source),
            &signed_bytes(b'E', source, seq, digest),
            &certificate,
            own.map(|own| &own.echoes),
        );
        if signers < self.quorum() {
            return;
        }
        if let Some(slot) = self.table.entry(source, seq) {
            let instance = slot.or_default();
            instance.delivered = true;
            instance.memo.clear();
        }
        if self.forward_final {
            // `source` is bound: this process verified its signature
            // over the SEND, above or when it echoed.
            let relay = EchoMsg::Final {
                source,
                seq,
                payload: payload.clone(),
                sig,
                certificate,
            };
            self.table.relay_final(step, from, Some(source), relay);
        }
        self.table.hold(source, seq, payload);
        while let Some((seq, payload)) = self.table.release(source) {
            self.trace
                .record(&payload, source, TraceEventKind::Deliver, seq.value());
            step.deliver(source, seq, payload);
        }
    }
}

impl<P, A> SecureBroadcast<P> for EchoBroadcast<P, A>
where
    P: Clone + Encode + Send,
    A: Authenticator + Send,
    A::Sig: Send,
{
    type Msg = EchoMsg<P, A::Sig>;

    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        let (me, n) = (self.table.me(), self.table.n());
        let seq = self.table.next_seq();
        self.trace
            .record(&payload, me, TraceEventKind::Send, n as u64);
        let send = self.open(seq, payload);
        step.send_all(n, send);
        seq
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>) {
        match msg {
            EchoMsg::Send { seq, payload, sig } => self.on_send(from, seq, payload, sig, step),
            EchoMsg::Echo {
                source,
                seq,
                digest,
                share,
            } => self.on_echo(from, source, seq, digest, share, step),
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate,
            } => self.on_final(from, (source, seq), payload, sig, certificate, step),
        }
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
        let seq = self.table.next_seq();
        let (left, right) = (self.open(seq, left), self.open(seq, right));
        step.send_halves(self.table.n(), left, right);
        seq
    }

    fn instance_count(&self) -> usize {
        self.table.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.table.delivered_count()
    }

    fn crypto_ops(&self) -> CryptoOps {
        self.ops
    }

    fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.trace.set(tracer, extract);
    }

    /// Late `FINAL`s for a pruned instance are rejected by the release
    /// floor, so delivery stays irrevocable and exactly-once.
    fn prune_delivered(&mut self) -> usize {
        self.table.prune(|instance| instance.delivered)
    }

    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.table.set_source_floor(source, floor);
    }
}

impl<P, A: Authenticator> fmt::Debug for EchoBroadcast<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EchoBroadcast(me={}, n={}, f={}, delivered={})",
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
        let sig = auth.sign(p(0), &send_bytes(p(0), seq, digest));
        // Certificate signed by only one process (quorum is 3), padded
        // with duplicates.
        let share = auth.sign(p(2), &echo_bytes(p(0), seq, digest));
        let cert = vec![(p(2), share), (p(2), share), (p(2), share)];
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq,
                payload,
                sig,
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
        // exactly 1 sender-signature verify plus q per-share verifies,
        // and the ObservedAuth decorator routes every one of them into
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
        let sig = ed.sign(p(0), &send_bytes(p(0), seq, digest));
        let certificate: Vec<(ProcessId, _)> = (0..q as u32)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, digest))))
            .collect();

        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq,
                payload,
                sig,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1, "valid certificate delivers");
        let per_share = auth.verifies() - before - 1; // minus the sender-sig check
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
    /// `(endpoint, auth handle, SEND signature, full certificate)`.
    #[allow(clippy::type_complexity)]
    fn echoed_receiver(
        ed: &EdAuth,
        payload: u64,
    ) -> (
        EchoBroadcast<u64, crate::auth::ObservedAuth<EdAuth>>,
        crate::auth::ObservedAuth<EdAuth>,
        Signature,
        Vec<(ProcessId, Signature)>,
    ) {
        let registry = at_obs::Registry::new("node 1");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut endpoint: EchoBroadcast<u64, _> = EchoBroadcast::new(p(1), 4, auth.clone());
        let seq = SeqNo::new(1);
        let digest = digest_of(&payload);
        let sig = ed.sign(p(0), &send_bytes(p(0), seq, digest));
        let mut step = Step::new();
        endpoint.on_message(p(0), EchoMsg::Send { seq, payload, sig }, &mut step);
        assert_eq!(step.outgoing.len(), 1, "the SEND was echoed");
        let certificate = (1..4)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, digest))))
            .collect();
        (endpoint, auth, sig, certificate)
    }

    #[test]
    fn final_matching_the_echoed_send_skips_only_that_verification() {
        let ed = EdAuth::deterministic(4, 21);
        let (mut endpoint, auth, sig, certificate) = echoed_receiver(&ed, 5);
        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq: SeqNo::new(1),
                payload: 5,
                sig,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(
            auth.verifies() - before,
            3,
            "three shares, no second SEND check"
        );
    }

    #[test]
    fn final_with_a_different_send_signature_is_fully_verified() {
        // Same digest, but not the signature bytes `on_send` verified:
        // the skip must not apply, and a signature that does not verify
        // must sink the FINAL even under a valid certificate.
        let ed = EdAuth::deterministic(4, 22);
        let (mut endpoint, auth, _, certificate) = echoed_receiver(&ed, 5);
        let forged = ed.sign(p(0), b"not the send bytes");
        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq: SeqNo::new(1),
                payload: 5,
                sig: forged,
                certificate,
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty() && step.outgoing.is_empty());
        assert_eq!(
            auth.verifies() - before,
            1,
            "the SEND signature was checked"
        );
        assert_eq!(endpoint.delivered_count(), 0);
    }

    #[test]
    fn final_for_a_different_payload_is_fully_verified() {
        // The verified SEND signature replayed over another payload: the
        // digest differs from the echoed one, so nothing is skipped and
        // the signature fails against the new digest.
        let ed = EdAuth::deterministic(4, 23);
        let (mut endpoint, auth, sig, _) = echoed_receiver(&ed, 5);
        let seq = SeqNo::new(1);
        let other_digest = digest_of(&6u64);
        let certificate = (1..4)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, other_digest))))
            .collect();
        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq,
                payload: 6,
                sig,
                certificate,
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty() && step.outgoing.is_empty());
        assert_eq!(
            auth.verifies() - before,
            1,
            "the SEND signature was checked"
        );
    }

    #[test]
    fn final_for_another_payload_under_the_echoed_certificate_is_rejected() {
        // A valid SEND signature and certificate for the echoed payload
        // 5, carried by a FINAL for payload 6. The receiver's memo holds
        // 5's digest; answering it for 6 would skip the SEND check and
        // pass the certificate — every signature must be checked over
        // the digest of exactly the payload received.
        let ed = EdAuth::deterministic(4, 25);
        let (mut endpoint, _, sig, certificate) = echoed_receiver(&ed, 5);
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq: SeqNo::new(1),
                payload: 6,
                sig,
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
                    source: p(0),
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
            "the FINAL reuses the SEND signature"
        );
        let EchoMsg::Final {
            sig, certificate, ..
        } = finals.swap_remove(0).msg
        else {
            panic!("expected a FINAL");
        };

        // A late fourth echo finds the instance finalized: no verify.
        let before = auth.verifies();
        let own_share = ed.sign(p(0), &echo_bytes(p(0), seq, digest));
        sender.on_message(
            p(0),
            EchoMsg::Echo {
                source: p(0),
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
                source: p(0),
                seq,
                payload: 9,
                sig,
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
                source: p(0),
                seq,
                payload: 9,
                sig,
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
                    source: p(0),
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
                source: p(0),
                seq,
                payload: 9,
                sig,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(auth.verifies(), before, "own certificate re-verified");
    }

    /// SignedEcho's signature budget, as an exact count over a whole
    /// honest instance (all `n` endpoints metered into one registry).
    /// Signs: the SEND — reused for the FINAL — plus one echo share per
    /// process, `n + 1`. Verifies: the SEND at every process, the
    /// first `q` shares at the sender (echoes past the quorum are
    /// dropped unverified), and `q` certificate shares at each of the
    /// other `n − 1` (nobody re-verifies what it already verified),
    /// `n·(q + 1)`. Signing the FINAL afresh or re-verifying the SEND
    /// signature inside the FINAL moves a count and fails here.
    fn assert_signature_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth =
            crate::auth::ObservedAuth::new(EdAuth::deterministic(n, 31), registry.recorder());
        let q = EchoBroadcast::<u64, _>::new(p(0), n, NoAuth).quorum() as u64;
        let delivered = run_system(n, |_| auth.clone(), vec![(p(0), 42)], |_, _, _| false);
        assert!(delivered.iter().all(|deliveries| deliveries.len() == 1));
        let n = n as u64;
        assert_eq!(auth.signs(), n + 1, "signs at n = {n}");
        assert_eq!(auth.verifies(), n * (q + 1), "verifies at n = {n}, q = {q}");
    }

    #[test]
    fn honest_instance_costs_5_signs_and_16_verifies_at_n4() {
        assert_signature_budget(4);
    }

    #[test]
    fn honest_instance_costs_8_signs_and_42_verifies_at_n7() {
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
    fn final_forwarding_gives_totality() {
        // The sender "selectively" finalizes: its FINAL reaches only p1,
        // not even its own loop-back. With forwarding on, p1's relay
        // completes delivery at every correct process — which is what
        // totality promises; nobody owes the misbehaving sender its own
        // certificate back.
        let delivered = run_system(
            4,
            |_| NoAuth,
            vec![(p(0), 8)],
            |from, to, msg| matches!(msg, EchoMsg::Final { .. }) && from == p(0) && to != p(1),
        );
        for (i, deliveries) in delivered.iter().enumerate().skip(1) {
            assert_eq!(deliveries.len(), 1, "process {i}");
        }
        assert!(delivered[0].is_empty(), "a relay went back to the source");
    }

    #[test]
    fn a_relay_skips_the_peer_it_came_from_and_the_bound_source() {
        // p2 delivers on a copy relayed by p3: it relays to p1 alone —
        // p3 holds the FINAL (it sent it), p0 assembled it.
        let mut endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(2), 4, NoAuth);
        let mut step = Step::new();
        endpoint.on_message(
            p(3),
            EchoMsg::Final {
                source: p(0),
                seq: SeqNo::new(1),
                payload: 8,
                sig: (),
                certificate: vec![(p(0), ()), (p(1), ()), (p(3), ())],
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1);
        let relayed_to: Vec<ProcessId> = step.outgoing.iter().map(|out| out.to).collect();
        assert_eq!(relayed_to, vec![p(1)]);
    }

    #[test]
    fn without_forwarding_selective_final_splits_delivery() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| {
                let mut endpoint = EchoBroadcast::new(p(i as u32), n, NoAuth);
                endpoint.set_forward_final(false);
                endpoint
            })
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, ()>)> = VecDeque::new();
        let mut step = Step::new();
        endpoints[0].broadcast(3, &mut step);
        for out in step.outgoing {
            inflight.push_back((p(0), out.to, out.msg));
        }
        let mut delivered = vec![0usize; n];
        while let Some((from, to, msg)) = inflight.pop_front() {
            if matches!(msg, EchoMsg::Final { .. }) && from == p(0) && to != p(1) {
                continue;
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()] += step.deliveries.len();
        }
        assert_eq!(delivered, vec![0, 1, 0, 0]);
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
                    source: p(1),
                    seq: SeqNo::new(inst),
                    payload: inst,
                    sig: (),
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
