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

use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::CodecError;
use at_obs::TraceCtx;

/// An ordered batch of payloads, broadcast as a single unit.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Batch<P> {
    /// The payloads, in submission order.
    pub items: Vec<P>,
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
        Batch { items, trace: None }
    }

    /// An untraced batch holding a single payload.
    pub fn single(item: P) -> Self {
        Batch {
            items: vec![item],
            trace: None,
        }
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

impl<P: Encode> Encode for Batch<P> {
    fn encode(&self, w: &mut Writer) {
        self.items.encode(w);
        self.trace.encode(w);
    }
}

impl<P: Decode> Decode for Batch<P> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Batch {
            items: Vec::<P>::decode(r)?,
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
            Some(Batch {
                items: std::mem::take(&mut self.pending),
                trace: self.trace.take(),
            })
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

    #[test]
    fn batch_codec_roundtrips() {
        let batch = Batch::new(vec![1u32, 2, 3]);
        let bytes = encode(&batch);
        let back: Batch<u32> = decode(&bytes).unwrap();
        assert_eq!(batch, back);
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
        assert!(Batch::<u32>::new(vec![]).is_empty());
        assert_eq!(Batch::single(9u64).items, vec![9]);
    }

    #[test]
    fn batcher_flushes_at_cap() {
        let mut batcher = Batcher::new(3);
        assert_eq!(batcher.push(1), None);
        assert_eq!(batcher.push(2), None);
        assert_eq!(batcher.pending(), 2);
        let full = batcher.push(3).expect("cap reached");
        assert_eq!(full.items, vec![1, 2, 3]);
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn batcher_manual_flush() {
        let mut batcher = Batcher::new(8);
        assert!(batcher.flush().is_none());
        batcher.push(7);
        assert_eq!(batcher.flush().unwrap().items, vec![7]);
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
}
