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
//! map, the gap-holding FIFO release and the delivered count. Nothing is
//! kept at or below a floor: `release` frees the slot and the held item
//! of the instance it releases, and `set_floor` those of every instance
//! it passes, so a slot lives only while its instance is in flight or
//! held behind a gap. Nothing there can be re-created either — `entry`
//! answers `None` and `hold` discards — so a replay of a released
//! instance cannot bring its state back whatever the handler does.
//! `is_stale` is that check, and it lets a handler skip signature work on
//! a message it would drop anyway.

use crate::auth::{Authenticator, BatchVerifyItem};
use crate::secure::TraceExtract;
use crate::types::Step;
use at_model::codec::Writer;
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
    /// Kept forever, in `O(streams)` space — the dedup that outlives
    /// every released slot.
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
        self.slots.get(&(stream, seq))
    }

    pub(crate) fn get_mut(&mut self, stream: K, seq: SeqNo) -> Option<&mut S> {
        self.slots.get_mut(&(stream, seq))
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
    /// stream expects, frees its slot and moves the floor past it.
    /// Calling this until it answers `None` yields the stream gaplessly,
    /// in sequence order, exactly once.
    pub(crate) fn release(&mut self, stream: K) -> Option<(SeqNo, H)> {
        let seq = self.expected(stream);
        let item = self.held.remove(&(stream, seq))?;
        self.slots.remove(&(stream, seq));
        self.next.insert(stream, seq.next());
        self.delivered_total += 1;
        Some((seq, item))
    }

    /// Instances released over this endpoint's lifetime (monotone).
    pub(crate) fn delivered_count(&self) -> usize {
        self.delivered_total
    }

    /// Everything retained per instance: slots plus held items.
    pub(crate) fn instance_count(&self) -> usize {
        self.slots.len() + self.held.len()
    }

    /// The relay rule of the signed backends: queues `msg`, the FINAL this
    /// process has just delivered, for the next `f` processes after it in
    /// index order, wrapping around — `f + 1` on a stream with no sole
    /// sender — not counting the stream's sole sender, and minus `from`.
    ///
    /// Totality asks that every correct process deliver once one does.
    /// Signature shares go only to the channel peer whose SEND they
    /// acknowledge, and on a stream with a sole sender a correct process
    /// acknowledges only that sender's SENDs, so a valid certificate was
    /// assembled by the source: a correct one sent it to everyone when
    /// the quorum formed, which is why the source relays nothing and is
    /// skipped uncounted. A Byzantine source leaves at most `f − 1` other
    /// faulty processes, so the first correct process after a correct
    /// deliverer `p` (the source skipped) lies within `p`'s window; if it
    /// is `from` it holds the FINAL already (channels are authenticated,
    /// and a correct process sends a FINAL only as the source or once it
    /// delivered). Around the ring, every correct process delivers. With
    /// no sole sender the window counts all `f` faulty processes. The
    /// price is hops: a FINAL handed to one process reaches the last
    /// correct one after `⌈(n − 2)/f⌉` of them. `(n − 1)·f` relays per
    /// honest instance.
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
        let window = if source.is_some() { self.f } else { self.f + 1 };
        let after_me = (1..self.n).map(|k| (self.me.as_usize() + k) % self.n);
        let ring = after_me.map(|i| ProcessId::new(i as u32));
        for to in ring.filter(|&to| Some(to) != source).take(window) {
            if to != from {
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

/// SHA-256 over a payload's encoding: what the signed backends sign in
/// place of it, and what Bracha counts matching values by. The encoding
/// is laid out in `scratch`, the backend's one buffer for it, so a
/// warm backend allocates nothing to hash, and hashed in one pass (on
/// the CPU's SHA extensions when it has them, ≈ 1 ns per byte). Reached
/// only through a [`DigestMemo`].
fn payload_digest<P: Encode>(payload: &P, scratch: &mut Vec<u8>) -> Digest {
    #[cfg(test)]
    PAYLOAD_DIGESTS.with(|count| count.set(count.get() + 1));
    at_crypto::digest_with(payload, scratch)
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
/// one entry, so a Byzantine sender cannot grow it. It lives in its
/// instance's slot and goes with it when the instance is released.
pub(crate) struct DigestMemo<P> {
    first: Option<(P, Digest)>,
}

impl<P> Default for DigestMemo<P> {
    fn default() -> Self {
        DigestMemo { first: None }
    }
}

impl<P: Clone + Eq + Encode> DigestMemo<P> {
    /// The digest of `payload`, remembered if it is the first one seen;
    /// `scratch` is the backend's encoding buffer.
    pub(crate) fn digest(&mut self, payload: &P, scratch: &mut Vec<u8>) -> Digest {
        match &self.first {
            Some((seen, digest)) if seen == payload => *digest,
            Some(_) => payload_digest(payload, scratch),
            None => {
                let digest = payload_digest(payload, scratch);
                self.first = Some((payload.clone(), digest));
                digest
            }
        }
    }

    /// [`DigestMemo::digest`] through `memo`, or a one-off memo where
    /// the caller holds no state for the instance (and must not create
    /// any before checking what the digest is for).
    pub(crate) fn through(
        memo: Option<&mut DigestMemo<P>>,
        payload: &P,
        scratch: &mut Vec<u8>,
    ) -> Digest {
        match memo {
            Some(memo) => memo.digest(payload, scratch),
            None => payload_digest(payload, scratch),
        }
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

    /// Whether `share` is, byte for byte, the one `signer` gave here.
    pub(crate) fn collected(&self, signer: ProcessId, share: &S) -> bool
    where
        S: PartialEq,
    {
        self.shares.get(&signer) == Some(share)
    }

    /// Takes `from`'s share over `bytes()` at process `me`; answers the
    /// certificate, in signer order, when this share completes the
    /// quorum. A share past the quorum costs nothing: it is dropped
    /// unverified. So does our own, looped back: only it comes from
    /// `me`, and it was signed here.
    pub(crate) fn accept<A: Authenticator<Sig = S>>(
        &mut self,
        auth: &A,
        quorum: usize,
        (me, from): (ProcessId, ProcessId),
        bytes: impl FnOnce() -> Vec<u8>,
        share: S,
    ) -> Option<Vec<(ProcessId, S)>> {
        if self.finalized {
            return None;
        }
        if from != me && !auth.verify(from, &bytes(), &share) {
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
/// is valid. An entry `trusted` vouches for is counted without a check;
/// the rest go to the authenticator in one call. `span` gets the verify
/// span.
///
/// The signed echo trusts exactly two kinds of entry, each only when
/// the share is byte-identical to one this process holds for the same
/// `(stream, seq)` and digest: a share its own broadcast collected
/// (verified on arrival, or its own), and, at a receiver, the share it
/// signed itself when it echoed that digest. Matching on the signer
/// alone would be unsound: a garbage share under our id would count
/// toward our delivery, and the FINAL we relay would then fail at every
/// peer, which breaks totality.
pub(crate) fn verify_certificate<A: Authenticator>(
    auth: &A,
    span: Option<(&Tracer, TraceCtx)>,
    bytes: &[u8],
    certificate: &[(ProcessId, A::Sig)],
    trusted: impl Fn(ProcessId, &A::Sig) -> bool,
) -> usize {
    let unverified = |(signer, share): &(ProcessId, A::Sig)| !trusted(*signer, share);
    let items: Vec<BatchVerifyItem<'_, A::Sig>> = certificate
        .iter()
        .filter(|entry| unverified(entry))
        .map(|(signer, share)| BatchVerifyItem {
            signer: *signer,
            bytes,
            sig: share,
        })
        .collect();
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

        /// Releases what is releasable on `stream`: gapless, in order,
        /// each with its slot.
        fn release(&mut self, stream: u32) -> Vec<(SeqNo, usize)> {
            let mut released = Vec::new();
            while let Some(item) = self.held.remove(&(stream, self.floor(stream) + 1)) {
                let seq = self.floor(stream) + 1;
                self.slots.remove(&(stream, seq));
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

    /// A payload's digest is `digest_of` it, encoded into the backend's
    /// one buffer: once that has grown to the largest payload, hashing
    /// another — an equivocation the memo misses, a one-off lookup —
    /// reuses it instead of allocating.
    #[test]
    fn payload_digests_reuse_one_encoding_buffer() {
        let (big, small) = (vec![7u64; 64], vec![9u64; 16]);
        let mut scratch = Vec::new();
        let mut memo = DigestMemo::default();
        assert_eq!(memo.digest(&big, &mut scratch), at_crypto::digest_of(&big));
        let buffer = (scratch.as_ptr(), scratch.capacity());
        assert_eq!(
            memo.digest(&small, &mut scratch),
            at_crypto::digest_of(&small)
        );
        let once = DigestMemo::through(None, &big, &mut scratch);
        assert_eq!(once, at_crypto::digest_of(&big));
        assert_eq!((scratch.as_ptr(), scratch.capacity()), buffer);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random offers in and out of order, duplicates, replays below
        /// the floor, handler touches, floors from a snapshot and
        /// own-stream sequence numbers, against the model: releases are
        /// gapless, in order and exactly once; nothing at or below a
        /// floor is released, kept or re-created; `instance_count`
        /// counts slots and held items and returns to 0 once every gap
        /// closed; `delivered_count` is monotone.
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
                        // Nothing is kept at or below a floor, by either.
                        for stream in 0..STREAMS {
                            for seq in 0..=model.floor(stream) {
                                prop_assert!(!model.slots.contains_key(&(stream, seq)));
                                prop_assert!(table.get(p(stream), SeqNo::new(seq)).is_none());
                            }
                        }
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
                        let slot = model.slots.get(&(stream, seq));
                        prop_assert_eq!(table.get(k, s), slot);
                        prop_assert_eq!(table.get_mut(k, s).map(|slot| *slot), slot.copied());
                        prop_assert_eq!(table.holds(k, s), model.held.contains_key(&(stream, seq)));
                    }
                }
            }
            // Quiescence: once every gap closes, nothing is left.
            for stream in 0..STREAMS {
                for seq in 1..SEQS {
                    table.hold(p(stream), SeqNo::new(seq), 0);
                    while table.release(p(stream)).is_some() {}
                }
            }
            prop_assert_eq!(table.instance_count(), 0);
        }
    }
}
