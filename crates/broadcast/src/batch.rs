//! Batched broadcast payloads.
//!
//! The consensusless protocol pays one secure-broadcast instance per
//! payload; when a process issues many transfers, batching them into one
//! payload amortizes the per-instance message cost (`O(n²)` for Bracha,
//! `O(n)` for signed echo) across the whole batch. [`Batch`] is the wire
//! payload — an ordered sequence of inner payloads, encoded canonically so
//! it can be hashed and signed like any other payload — and [`Batcher`] is
//! the sender-side accumulator with a size cap.
//!
//! Batching preserves the broadcast's source-order property: inner
//! payloads are delivered in batch order, and batches in broadcast order,
//! so the concatenation of delivered batches from one source is exactly
//! the order in which that source enqueued payloads.
//!
//! A batch rides every message of its instance — each INIT, ECHO and
//! READY of Bracha, each SEND and FINAL of the signed echo — so its items
//! sit behind one [`Arc`]: a copy of the message is a reference count,
//! and one allocation serves the sender's certificate collector, every
//! addressee's copy, the network queue and the held delivery. The wire
//! bytes are those of a plain `Vec`.

use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::CodecError;
use at_obs::TraceCtx;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An ordered batch of payloads, broadcast as a single unit.
///
/// Equality is by value. Two batches that share their items compare
/// equal after one pointer test and the trace; any other pair compares
/// field by field — so a batch decoded off the wire equals the one that
/// was encoded. Equal batches encode to equal bytes, which is what lets
/// a digest memo answer by `==` instead of re-encoding.
#[derive(Clone, Debug)]
pub struct Batch<P> {
    /// The payloads, in submission order, shared by every copy.
    pub items: Arc<Vec<P>>,
    /// The causal trace context riding the batch, when any member
    /// transfer was sampled at its gateway (the first traced member
    /// wins; see [`Batcher::attach_trace`]). Encoded canonically like
    /// every other field, so a traced batch hashes and signs
    /// deterministically too.
    pub trace: Option<TraceCtx>,
}

impl<P> Batch<P> {
    /// An untraced batch over `items`.
    pub fn new(items: Vec<P>) -> Self {
        Batch {
            items: Arc::new(items),
            trace: None,
        }
    }

    /// An untraced batch holding a single payload.
    pub fn single(item: P) -> Self {
        Batch::new(vec![item])
    }

    /// The same batch carrying `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceCtx>) -> Self {
        self.trace = trace;
        self
    }

    /// Number of payloads in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<P: Clone> Batch<P> {
    /// The items, moved out when this is the last copy of the batch and
    /// cloned otherwise.
    pub fn into_items(self) -> Vec<P> {
        Arc::unwrap_or_clone(self.items)
    }
}

impl<P: PartialEq> PartialEq for Batch<P> {
    fn eq(&self, other: &Self) -> bool {
        self.trace == other.trace
            && (Arc::ptr_eq(&self.items, &other.items) || self.items == other.items)
    }
}

impl<P: Eq> Eq for Batch<P> {}

impl<P: Hash> Hash for Batch<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.items.hash(state);
        self.trace.hash(state);
    }
}

impl<P: Encode> Encode for Batch<P> {
    fn encode(&self, w: &mut Writer) {
        self.items.encode(w);
        self.trace.encode(w);
    }
}

impl<P: Decode> Decode for Batch<P> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Batch {
            items: Arc::new(Vec::<P>::decode(r)?),
            trace: Option::<TraceCtx>::decode(r)?,
        })
    }
}

/// Sender-side batch accumulator with a size cap.
///
/// *When* a batch that is not full leaves is the caller's concern (the
/// engine replica flushes at the end of the pass when nothing of its own
/// is in flight, else on that batch's delivery or after its window); the
/// batcher only enforces the size cap, returning a full batch from
/// [`Batcher::push`] the moment it fills.
#[derive(Clone, Debug)]
pub struct Batcher<P> {
    pending: Vec<P>,
    max_size: usize,
    trace: Option<TraceCtx>,
}

impl<P> Batcher<P> {
    /// A batcher emitting batches of at most `max_size` payloads.
    ///
    /// # Panics
    ///
    /// Panics when `max_size` is zero.
    pub fn new(max_size: usize) -> Self {
        assert!(max_size > 0, "batch size must be at least 1");
        Batcher {
            pending: Vec::new(),
            max_size,
            trace: None,
        }
    }

    /// Enqueues `item`; returns the full batch when the cap is reached.
    pub fn push(&mut self, item: P) -> Option<Batch<P>> {
        self.pending.push(item);
        if self.pending.len() >= self.max_size {
            self.flush()
        } else {
            None
        }
    }

    /// Attaches a trace context to the batch currently accumulating.
    /// The first traced member claims the batch; returns `false` when
    /// the batch was already claimed (the caller records that join
    /// against the existing context instead).
    pub fn attach_trace(&mut self, ctx: TraceCtx) -> bool {
        if self.trace.is_none() {
            self.trace = Some(ctx);
            true
        } else {
            false
        }
    }

    /// The trace context the accumulating batch will carry.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Drains everything pending into a batch, or `None` when empty.
    pub fn flush(&mut self) -> Option<Batch<P>> {
        if self.pending.is_empty() {
            None
        } else {
            Some(Batch::new(std::mem::take(&mut self.pending)).with_trace(self.trace.take()))
        }
    }

    /// Number of payloads waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The configured size cap.
    pub fn max_size(&self) -> usize {
        self.max_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_model::codec::{decode, encode};
    use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer, TransferMsg};
    use proptest::prelude::*;

    #[test]
    fn batch_codec_roundtrips() {
        let batch = Batch::new(vec![1u32, 2, 3]);
        let bytes = encode(&batch);
        let back: Batch<u32> = decode(&bytes).unwrap();
        assert_eq!(batch, back);
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
        assert!(Batch::<u32>::new(vec![]).is_empty());
        assert_eq!(*Batch::single(9u64).items, [9]);
    }

    #[test]
    fn batcher_flushes_at_cap() {
        let mut batcher = Batcher::new(3);
        assert_eq!(batcher.push(1), None);
        assert_eq!(batcher.push(2), None);
        assert_eq!(batcher.pending(), 2);
        let full = batcher.push(3).expect("cap reached");
        assert_eq!(full.into_items(), [1, 2, 3]);
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn batcher_manual_flush() {
        let mut batcher = Batcher::new(8);
        assert!(batcher.flush().is_none());
        batcher.push(7);
        assert_eq!(batcher.flush().unwrap().into_items(), [7]);
        assert!(batcher.flush().is_none());
        assert_eq!(batcher.max_size(), 8);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_cap_rejected() {
        let _ = Batcher::<u8>::new(0);
    }

    #[test]
    fn traced_batches_roundtrip_and_first_claim_wins() {
        let ctx = TraceCtx {
            id: (1u64 << 40) | 3,
            origin: 1,
            hops: 0,
        };
        let other = TraceCtx { id: 7, ..ctx };
        let batch = Batch::new(vec![1u32]).with_trace(Some(ctx));
        let back: Batch<u32> = decode(&encode(&batch)).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.trace, Some(ctx));

        let mut batcher = Batcher::new(4);
        assert!(batcher.attach_trace(ctx), "first traced member claims");
        assert!(!batcher.attach_trace(other), "later members join instead");
        batcher.push(1u32);
        let flushed = batcher.flush().unwrap();
        assert_eq!(flushed.trace, Some(ctx));
        // The claim does not leak into the next batch.
        batcher.push(2u32);
        assert_eq!(batcher.flush().unwrap().trace, None);
    }

    /// Small ranges, so that a random edit often lands on the value it
    /// replaces and equal pairs come up as well as unequal ones.
    fn transfer() -> impl Strategy<Value = Transfer> {
        (0u32..3, 0u32..3, 0u64..3, 0u32..3, 1u64..3).prop_map(|(s, d, x, o, q)| {
            let (s, d, x) = (AccountId::new(s), AccountId::new(d), Amount::new(x));
            Transfer::new(s, d, x, ProcessId::new(o), SeqNo::new(q))
        })
    }

    fn trace() -> impl Strategy<Value = Option<TraceCtx>> {
        prop::option::of(
            (0u64..3, 0u32..3, 0u8..3).prop_map(|(id, origin, hops)| TraceCtx { id, origin, hops }),
        )
    }

    fn batch() -> impl Strategy<Value = Batch<TransferMsg>> {
        let msg = (transfer(), prop::collection::vec(transfer(), 0..3))
            .prop_map(|(transfer, deps)| TransferMsg { transfer, deps });
        (prop::collection::vec(msg, 1..4), trace())
            .prop_map(|(items, trace)| Batch::new(items).with_trace(trace))
    }

    /// How the second batch of a pair derives from the first.
    #[derive(Clone, Debug)]
    enum Edit {
        /// A copy sharing the items.
        Shared,
        /// An equal copy in an allocation of its own.
        Copied,
        /// One field of one item's transfer replaced.
        Field(usize, u8, Transfer),
        /// One item's dependencies replaced.
        Deps(usize, Vec<Transfer>),
        /// The trace context replaced.
        Trace(Option<TraceCtx>),
        /// One item removed.
        Drop(usize),
    }

    fn edit() -> impl Strategy<Value = Edit> {
        let deps = prop::collection::vec(transfer(), 0..3);
        (0u8..6, any::<usize>(), 0u8..5, transfer(), deps, trace()).prop_map(
            |(kind, i, field, t, deps, trace)| match kind {
                0 => Edit::Shared,
                1 => Edit::Copied,
                2 => Edit::Field(i, field, t),
                3 => Edit::Deps(i, deps),
                4 => Edit::Trace(trace),
                _ => Edit::Drop(i),
            },
        )
    }

    fn apply(a: &Batch<TransferMsg>, edit: Edit) -> Batch<TransferMsg> {
        let mut items = (*a.items).clone();
        let len = items.len();
        match edit {
            Edit::Shared => return a.clone(),
            Edit::Copied => {}
            Edit::Field(i, field, new) => {
                let t = &mut items[i % len].transfer;
                match field {
                    0 => t.source = new.source,
                    1 => t.destination = new.destination,
                    2 => t.amount = new.amount,
                    3 => t.originator = new.originator,
                    _ => t.seq = new.seq,
                }
            }
            Edit::Deps(i, deps) => items[i % len].deps = deps,
            Edit::Trace(trace) => return Batch::new(items).with_trace(trace),
            Edit::Drop(i) => {
                items.remove(i % len);
            }
        }
        Batch::new(items).with_trace(a.trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The premise the digest memo stands on: `==` on a batch is
        /// exactly equality of its encodings, whether the two share their
        /// items or not. An `eq` that skips a field the codec writes
        /// (the trace, a dependency) passes a near-duplicate the memo
        /// would then answer with the wrong digest, and fails here.
        #[test]
        fn batches_are_equal_exactly_when_their_encodings_are(
            a in batch(),
            edit in edit(),
        ) {
            let b = apply(&a, edit.clone());
            if matches!(edit, Edit::Copied) {
                prop_assert!(!Arc::ptr_eq(&a.items, &b.items));
            }
            prop_assert_eq!(a == b, encode(&a) == encode(&b), "{:?}", edit);
            prop_assert_eq!(b == a, a == b);
        }
    }
}
