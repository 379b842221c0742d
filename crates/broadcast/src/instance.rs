//! What the phase machines have in common, written once: the
//! [`InstanceTable`] Bracha and the signed echo keep their per-instance
//! state in, the [`TraceHook`] beside it, the signed echo's certificate
//! path ([`signed_bytes`], [`Collector`], [`verify_certificate`], and who
//! a delivered FINAL is relayed to, [`InstanceTable::relay_final`]), and
//! the [`DigestMemo`] through which both digest a payload once per
//! instance.
//!
//! The table owns what does not depend on the protocol: identity and
//! thresholds, one delivery floor per stream (the source process for
//! source order, the account for account order), the `(stream, seq) → S`
//! map, the gap-holding FIFO release and the delivered count. Nothing at
//! or below a floor can be reached or re-created — `entry`, `get` and
//! `get_mut` answer `None` there and `hold` discards — so a replay of a
//! released (possibly pruned) instance cannot bring its state back
//! whatever the handler does. `is_stale` is left for one purpose: letting
//! a handler skip signature work on a message it would drop anyway.

use crate::auth::{Authenticator, BatchVerifyItem};
use crate::secure::TraceExtract;
use crate::types::{CryptoOps, Step};
use at_model::codec::{encode, Writer};
use at_model::{Encode, ProcessId, SeqNo};
use at_obs::{TraceCtx, TraceEventKind, Tracer};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

/// A payload digest.
pub(crate) type Digest = [u8; 32];

/// Per-instance protocol state `S` and held-back deliveries `H`, by
/// stream `K` and sequence number (see the [module docs](self)).
pub(crate) struct InstanceTable<K, S, H> {
    me: ProcessId,
    n: usize,
    f: usize,
    /// The last sequence number this process took on its own stream.
    own_seq: SeqNo,
    /// Per stream, the next sequence number to release (absent: 1).
    /// Kept forever, in `O(streams)` space — the dedup that survives
    /// pruning.
    next: BTreeMap<K, SeqNo>,
    slots: HashMap<(K, SeqNo), S>,
    /// Completed instances waiting for a gap before them to close.
    held: HashMap<(K, SeqNo), H>,
    delivered_total: usize,
}

impl<K: Copy + Ord + Hash, S, H> InstanceTable<K, S, H> {
    /// The table of process `me` in a system of `n` processes tolerating
    /// `f = ⌊(n−1)/3⌋` Byzantine faults.
    pub(crate) fn new(me: ProcessId, n: usize) -> Self {
        assert!(n >= 1, "at least one process");
        InstanceTable {
            me,
            n,
            f: (n - 1) / 3,
            own_seq: SeqNo::ZERO,
            next: BTreeMap::new(),
            slots: HashMap::new(),
            held: HashMap::new(),
            delivered_total: 0,
        }
    }

    pub(crate) fn me(&self) -> ProcessId {
        self.me
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn fault_threshold(&self) -> usize {
        self.f
    }

    /// `⌈(n+f+1)/2⌉`: any two quorums intersect in a benign process.
    pub(crate) fn quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// The next sequence number `stream` will release.
    pub(crate) fn expected(&self, stream: K) -> SeqNo {
        self.next.get(&stream).copied().unwrap_or(SeqNo::new(1))
    }

    /// Whether `(stream, seq)` is behind the stream's floor: already
    /// released, so any message for it is a replay.
    pub(crate) fn is_stale(&self, stream: K, seq: SeqNo) -> bool {
        seq < self.expected(stream)
    }

    /// The slot of `(stream, seq)`, for creating or updating its state.
    pub(crate) fn entry(&mut self, stream: K, seq: SeqNo) -> Option<Entry<'_, (K, SeqNo), S>> {
        (!self.is_stale(stream, seq)).then(|| self.slots.entry((stream, seq)))
    }

    pub(crate) fn get(&self, stream: K, seq: SeqNo) -> Option<&S> {
        self.slots
            .get(&(stream, seq))
            .filter(|_| !self.is_stale(stream, seq))
    }

    pub(crate) fn get_mut(&mut self, stream: K, seq: SeqNo) -> Option<&mut S> {
        let live = !self.is_stale(stream, seq);
        self.slots.get_mut(&(stream, seq)).filter(|_| live)
    }

    /// Whether a completed `(stream, seq)` is waiting for its turn.
    pub(crate) fn holds(&self, stream: K, seq: SeqNo) -> bool {
        self.held.contains_key(&(stream, seq))
    }

    /// Parks the outcome of a completed instance until every earlier
    /// instance of its stream has been released. The first item per
    /// instance wins.
    pub(crate) fn hold(&mut self, stream: K, seq: SeqNo, item: H) {
        if !self.is_stale(stream, seq) {
            self.held.entry((stream, seq)).or_insert(item);
        }
    }

    /// Releases the next held item of `stream`, if it is the one the
    /// stream expects, and moves the floor past it. Calling this until
    /// it answers `None` yields the stream gaplessly, in sequence order,
    /// exactly once.
    pub(crate) fn release(&mut self, stream: K) -> Option<(SeqNo, H)> {
        let seq = self.expected(stream);
        let item = self.held.remove(&(stream, seq))?;
        self.next.insert(stream, seq.next());
        self.delivered_total += 1;
        Some((seq, item))
    }

    /// Instances released over this endpoint's lifetime (monotone;
    /// unaffected by pruning).
    pub(crate) fn delivered_count(&self) -> usize {
        self.delivered_total
    }

    /// Everything retained per instance: slots plus held items.
    pub(crate) fn instance_count(&self) -> usize {
        self.slots.len() + self.held.len()
    }

    /// Drops every slot that is behind its stream's floor and `settled`,
    /// returning how many went. The floors keep suppressing replays of
    /// what was pruned.
    pub(crate) fn prune(&mut self, settled: impl Fn(&S) -> bool) -> usize {
        let before = self.slots.len();
        let next = &self.next;
        self.slots.retain(|(stream, seq), state| {
            !(next.get(stream).is_some_and(|next| seq < next) && settled(state))
        });
        before - self.slots.len()
    }

    /// The relay rule of the signed backends: queues `msg`, the FINAL this
    /// process has just delivered, for every process that may lack it.
    ///
    /// Totality asks a correct process that delivers to hand the
    /// certificate to every correct process that *might not hold it*.
    /// Skipped are the processes this one has authenticated as holding
    /// it: itself; `from`, the channel peer this copy came from (channels
    /// are authenticated, and a correct process sends a FINAL only as
    /// the instance's source or once it delivered it); and `source`, the
    /// stream's sole sender, when it has one. Signature shares go only to
    /// the channel peer whose SEND they acknowledge, and on such a stream
    /// a correct process acknowledges only its sender's SENDs, so a valid
    /// certificate was assembled by the source: a correct one sent it to
    /// everyone, itself included, when the quorum formed; a Byzantine one
    /// is owed nothing. For the same reason the source relays nothing at
    /// all — its own `send_all` already reached everyone over the same
    /// reliable channels. `(n − 1)(n − 2)` relays per honest instance.
    pub(crate) fn relay_final<M: Clone, D>(
        &self,
        step: &mut Step<M, D, K>,
        from: ProcessId,
        source: Option<ProcessId>,
        msg: M,
    ) {
        if from == self.me || source == Some(self.me) {
            return;
        }
        for to in ProcessId::all(self.n) {
            if to != self.me && to != from && Some(to) != source {
                step.send(to, msg.clone());
            }
        }
    }

    /// Raises the floor of `stream` so that `floor` and everything
    /// before it counts as released and the stream resumes at
    /// `floor + 1`, discarding the slots and held items now behind it.
    /// Never lowers a floor.
    pub(crate) fn set_floor(&mut self, stream: K, floor: SeqNo) {
        let next = SeqNo::new(floor.value().saturating_add(1)).max(self.expected(stream));
        self.next.insert(stream, next);
        self.slots
            .retain(|(s, seq), _| *s != stream || *seq >= next);
        self.held.retain(|(s, seq), _| *s != stream || *seq >= next);
    }
}

impl<S, H> InstanceTable<ProcessId, S, H> {
    /// Takes the next sequence number of this process's own stream.
    pub(crate) fn next_seq(&mut self) -> SeqNo {
        self.own_seq = self.own_seq.next();
        self.own_seq
    }

    /// [`InstanceTable::set_floor`] where streams are source processes:
    /// a floor on this process's own stream also moves its sequence
    /// counter, so a cold-started endpoint resumes after its previous
    /// incarnation instead of colliding with it.
    pub(crate) fn set_source_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.set_floor(source, floor);
        if source == self.me {
            self.own_seq = self.own_seq.max(floor);
        }
    }
}

/// Where a backend records its protocol steps for traced payloads. It
/// sits beside the table rather than inside it so that a handler can
/// trace a payload it is holding through a `&mut` slot.
pub(crate) struct TraceHook<P> {
    me: ProcessId,
    sink: Option<(Tracer, TraceExtract<P>)>,
}

impl<P> TraceHook<P> {
    pub(crate) fn new(me: ProcessId) -> Self {
        TraceHook { me, sink: None }
    }

    pub(crate) fn set(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.sink = Some((tracer, extract));
    }

    /// The tracer and `payload`'s context, hop-adjusted: a message from
    /// another process arrives one causal hop later. `None` for untraced
    /// payloads, which cost one extractor call and nothing else.
    pub(crate) fn ctx(&self, payload: &P, from: ProcessId) -> Option<(&Tracer, TraceCtx)> {
        let (tracer, extract) = self.sink.as_ref()?;
        let ctx = extract(payload)?;
        let ctx = if from != self.me { ctx.hopped() } else { ctx };
        Some((tracer, ctx))
    }

    /// Records one protocol step of `payload`, observed on a message
    /// from `from`.
    pub(crate) fn record(&self, payload: &P, from: ProcessId, kind: TraceEventKind, arg: u64) {
        if let Some((tracer, ctx)) = self.ctx(payload, from) {
            tracer.record(ctx, kind, arg);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Payload digests ([`payload_digest`]) computed on this thread.
    pub(crate) static PAYLOAD_DIGESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// SHA-256 over an encoded payload: what the signed backends sign in
/// place of it, and what Bracha counts matching values by. Reached only
/// through a [`DigestMemo`].
fn payload_digest(encoded: &[u8]) -> Digest {
    #[cfg(test)]
    PAYLOAD_DIGESTS.with(|count| count.set(count.get() + 1));
    at_crypto::Sha256::digest(encoded)
}

/// One instance's memo of [`payload_digest`], so that a process hashes
/// the payload it receives over and over — in every ECHO and READY, in
/// its SEND and then its FINAL — once.
///
/// It keeps the first payload (for a [`Batch`](crate::Batch), a
/// reference count) and its digest. A lookup answers from the memo when
/// the payload asked about `==` the one remembered, and otherwise
/// encodes and hashes it. That is sound for every `P` whose `==` is
/// equality of encodings: `encode` is a function, so equal payloads
/// encode — and hash — alike, and a payload whose bytes differ is never
/// `==` the one remembered. Copies of one broadcast share their batch,
/// so in the simulator and on loop-back the lookup is one pointer test;
/// a batch decoded from the wire is compared item by item, which
/// allocates nothing. A second, different payload (an equivocation)
/// misses and is hashed on every lookup; the memo never holds more than
/// one entry, so a Byzantine sender cannot grow it. A backend clears it
/// when the instance delivers.
pub(crate) struct DigestMemo<P> {
    first: Option<(P, Digest)>,
}

impl<P> Default for DigestMemo<P> {
    fn default() -> Self {
        DigestMemo { first: None }
    }
}

impl<P: Clone + Eq + Encode> DigestMemo<P> {
    /// The digest of `payload`, remembered if it is the first one seen.
    pub(crate) fn digest(&mut self, payload: &P) -> Digest {
        match &self.first {
            Some((seen, digest)) if seen == payload => *digest,
            Some(_) => payload_digest(&encode(payload)),
            None => {
                let digest = payload_digest(&encode(payload));
                self.first = Some((payload.clone(), digest));
                digest
            }
        }
    }

    /// [`DigestMemo::digest`] through `memo`, or a one-off memo where
    /// the caller holds no state for the instance (and must not create
    /// any before checking what the digest is for).
    pub(crate) fn through(memo: Option<&mut DigestMemo<P>>, payload: &P) -> Digest {
        match memo {
            Some(memo) => memo.digest(payload),
            None => payload_digest(&encode(payload)),
        }
    }

    /// Forgets the remembered payload: the instance delivered.
    pub(crate) fn clear(&mut self) {
        self.first = None;
    }
}

/// The bytes signed for `digest` in instance `(stream, seq)`, domain-
/// separated by `tag`: `S` and `E` are the signed echo's SEND and echo
/// share.
pub(crate) fn signed_bytes<K: Encode>(tag: u8, stream: K, seq: SeqNo, digest: Digest) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(tag);
    stream.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(&digest);
    w.into_bytes()
}

/// A sender's collection of signature shares for one payload.
pub(crate) struct Collector<P, S> {
    payload: P,
    digest: Digest,
    /// Each verified on arrival.
    shares: BTreeMap<ProcessId, S>,
    finalized: bool,
}

impl<P, S: Clone> Collector<P, S> {
    pub(crate) fn new(payload: P, digest: Digest) -> Self {
        Collector {
            payload,
            digest,
            shares: BTreeMap::new(),
            finalized: false,
        }
    }

    pub(crate) fn payload(&self) -> &P {
        &self.payload
    }

    pub(crate) fn digest(&self) -> Digest {
        self.digest
    }

    /// Takes `from`'s share over `bytes()`; answers the certificate, in
    /// signer order, when this share completes the quorum. A share past
    /// the quorum costs nothing: it is dropped unverified.
    pub(crate) fn accept<A: Authenticator<Sig = S>>(
        &mut self,
        (auth, ops): (&A, &mut CryptoOps),
        quorum: usize,
        from: ProcessId,
        bytes: impl FnOnce() -> Vec<u8>,
        share: S,
    ) -> Option<Vec<(ProcessId, S)>> {
        if self.finalized {
            return None;
        }
        ops.verifies += 1;
        if !auth.verify(from, &bytes(), &share) {
            return None;
        }
        self.shares.insert(from, share);
        if self.shares.len() < quorum {
            return None;
        }
        self.finalized = true;
        Some(self.shares.iter().map(|(p, s)| (*p, s.clone())).collect())
    }
}

/// Counts the distinct signers of `certificate` whose share over `bytes`
/// is valid. A share this process verified itself — byte for byte one
/// that `own` collected — is not verified again; the rest go to the
/// authenticator in one call. `span` gets the verify span.
pub(crate) fn verify_certificate<P, A: Authenticator>(
    (auth, ops): (&A, &mut CryptoOps),
    span: Option<(&Tracer, TraceCtx)>,
    bytes: &[u8],
    certificate: &[(ProcessId, A::Sig)],
    own: Option<&Collector<P, A::Sig>>,
) -> usize {
    let unverified = |(signer, share): &(ProcessId, A::Sig)| {
        !own.is_some_and(|own| own.shares.get(signer) == Some(share))
    };
    let items: Vec<BatchVerifyItem<'_, A::Sig>> = certificate
        .iter()
        .filter(|entry| unverified(entry))
        .map(|(signer, share)| BatchVerifyItem {
            signer: *signer,
            bytes,
            sig: share,
        })
        .collect();
    ops.verifies += items.len() as u64;
    if let Some((tracer, ctx)) = span {
        tracer.record(ctx, TraceEventKind::VerifyStart, items.len() as u64);
    }
    // Ascending certificate indices of the shares that failed.
    let bad: Vec<usize> = match auth.verify_batch(&items) {
        Ok(()) => Vec::new(),
        Err(bad) => {
            let checked: Vec<usize> = (0..certificate.len())
                .filter(|&index| unverified(&certificate[index]))
                .collect();
            bad.into_iter().map(|item| checked[item]).collect()
        }
    };
    let signers: BTreeSet<ProcessId> = certificate
        .iter()
        .enumerate()
        .filter(|(index, _)| bad.binary_search(index).is_err())
        .map(|(_, (signer, _))| *signer)
        .collect();
    if let Some((tracer, ctx)) = span {
        tracer.record(ctx, TraceEventKind::VerifyEnd, signers.len() as u64);
    }
    signers.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const STREAMS: u32 = 3;
    const SEQS: u64 = 12;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// What the table must do, written the obvious way. A slot's state
    /// is the number of times a handler touched it; a held item is the
    /// index of the operation that offered it.
    #[derive(Default)]
    struct Model {
        /// Per stream, the last sequence number released.
        floor: BTreeMap<u32, u64>,
        slots: BTreeMap<(u32, u64), u32>,
        held: BTreeMap<(u32, u64), usize>,
        own_seq: u64,
        delivered: usize,
    }

    impl Model {
        fn floor(&self, stream: u32) -> u64 {
            self.floor.get(&stream).copied().unwrap_or(0)
        }

        /// Releases what is releasable on `stream`: gapless, in order.
        fn release(&mut self, stream: u32) -> Vec<(SeqNo, usize)> {
            let mut released = Vec::new();
            while let Some(item) = self.held.remove(&(stream, self.floor(stream) + 1)) {
                let seq = self.floor(stream) + 1;
                self.floor.insert(stream, seq);
                self.delivered += 1;
                released.push((SeqNo::new(seq), item));
            }
            released
        }

        fn raise_floor(&mut self, stream: u32, floor: u64) {
            let floor = floor.max(self.floor(stream));
            self.floor.insert(stream, floor);
            self.slots
                .retain(|(s, seq), _| *s != stream || *seq > floor);
            self.held.retain(|(s, seq), _| *s != stream || *seq > floor);
        }
    }

    fn odd(touches: &u32) -> bool {
        touches % 2 == 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random offers in and out of order, duplicates, replays below
        /// the floor, handler touches, prunes, floors from a snapshot and
        /// own-stream sequence numbers, against the model: releases are
        /// gapless, in order and exactly once; nothing at or below a
        /// floor is released, reachable or re-created; `instance_count`
        /// counts slots and held items and returns to 0 once every gap
        /// closed and prune ran; `delivered_count` is monotone.
        #[test]
        fn table_agrees_with_a_naive_model(
            ops in prop::collection::vec((0u8..9, 0..STREAMS, 0..SEQS), 1..120),
        ) {
            let mut table: InstanceTable<ProcessId, u32, usize> = InstanceTable::new(p(0), 4);
            let mut model = Model::default();
            for (id, (op, stream, seq)) in ops.into_iter().enumerate() {
                let (k, s) = (p(stream), SeqNo::new(seq));
                let live = seq > model.floor(stream);
                let delivered_before = table.delivered_count();
                match op {
                    0..=3 => {
                        table.hold(k, s, id);
                        if live {
                            model.held.entry((stream, seq)).or_insert(id);
                        }
                        let released: Vec<_> = std::iter::from_fn(|| table.release(k)).collect();
                        prop_assert_eq!(released, model.release(stream), "release");
                    }
                    4 | 5 => {
                        let slot = table.entry(k, s).map(|slot| *slot.or_default() += 1);
                        prop_assert_eq!(slot.is_some(), live, "entry admits exactly the live keys");
                        if live {
                            *model.slots.entry((stream, seq)).or_default() += 1;
                        }
                    }
                    6 => {
                        let before = model.slots.len();
                        let floors = model.floor.clone();
                        let behind = |(stream, seq): &(u32, u64)| {
                            *seq <= floors.get(stream).copied().unwrap_or(0)
                        };
                        model.slots.retain(|key, touches| !(behind(key) && odd(touches)));
                        prop_assert_eq!(table.prune(odd), before - model.slots.len(), "prune");
                    }
                    7 => {
                        table.set_source_floor(k, s);
                        model.raise_floor(stream, seq);
                        if stream == 0 {
                            model.own_seq = model.own_seq.max(seq);
                        }
                    }
                    _ => {
                        model.own_seq += 1;
                        prop_assert_eq!(table.next_seq().value(), model.own_seq);
                    }
                }
                prop_assert_eq!(
                    table.instance_count(),
                    model.slots.len() + model.held.len(),
                    "instance_count is every slot and held item retained"
                );
                prop_assert!(table.delivered_count() >= delivered_before);
                prop_assert_eq!(table.delivered_count(), model.delivered);
                for stream in 0..STREAMS {
                    let floor = model.floor(stream);
                    prop_assert_eq!(table.expected(p(stream)).value(), floor + 1);
                    for seq in 0..SEQS {
                        let (k, s) = (p(stream), SeqNo::new(seq));
                        let slot = model.slots.get(&(stream, seq)).filter(|_| seq > floor);
                        prop_assert_eq!(table.get(k, s), slot);
                        prop_assert_eq!(table.get_mut(k, s).map(|slot| *slot), slot.copied());
                        prop_assert_eq!(table.holds(k, s), model.held.contains_key(&(stream, seq)));
                    }
                }
            }
            // Quiescence: every gap closes, then a prune leaves nothing.
            for stream in 0..STREAMS {
                for seq in 1..SEQS {
                    table.hold(p(stream), SeqNo::new(seq), 0);
                    while table.release(p(stream)).is_some() {}
                }
            }
            table.prune(|_| true);
            prop_assert_eq!(table.instance_count(), 0);
        }
    }
}
