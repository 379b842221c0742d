//! Atomic snapshot objects (Afek, Attiya, Dolev, Gafni, Merritt, Shavit,
//! JACM 1993).
//!
//! An atomic snapshot is a vector of `N` shared slots supporting two
//! linearizable operations: `update(i, v)` on a single slot and
//! `snapshot()` of the whole vector. Figure 1 of the paper builds asset
//! transfer directly on this object; Figure 3 uses one to publish decided
//! transfers.
//!
//! Two implementations:
//!
//! * [`LockSnapshot`] — a sequence of slots behind one `RwLock`; trivially
//!   linearizable, blocking. The practical choice, and the reference.
//! * [`AfekSnapshot`] — the classical *wait-free* construction from
//!   single-writer registers: double collect until clean, "borrowing" the
//!   embedded snapshot of a writer observed to move twice.

use crate::register::{MutexRegister, Register};
use std::fmt;
use std::sync::{Arc, RwLock};

/// An `N`-slot atomic snapshot object.
pub trait AtomicSnapshot<T: Clone>: Send + Sync {
    /// Number of slots.
    fn len(&self) -> usize;

    /// Whether the object has zero slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically replaces slot `i` with `value`.
    ///
    /// Only process `i` may call this on its slot (single-writer).
    fn update(&self, i: usize, value: T);

    /// Atomically reads all slots.
    fn snapshot(&self) -> Vec<T>;
}

/// Blocking snapshot: one `RwLock` around the whole vector.
pub struct LockSnapshot<T> {
    slots: RwLock<Vec<T>>,
}

impl<T: Clone + Send + Sync> LockSnapshot<T> {
    /// Creates `n` slots initialised to `initial`.
    pub fn new(n: usize, initial: T) -> Self {
        LockSnapshot {
            slots: RwLock::new(vec![initial; n]),
        }
    }
}

impl<T: Clone + Send + Sync> AtomicSnapshot<T> for LockSnapshot<T> {
    fn len(&self) -> usize {
        self.slots.read().expect("snapshot poisoned").len()
    }

    fn update(&self, i: usize, value: T) {
        self.slots.write().expect("snapshot poisoned")[i] = value;
    }

    fn snapshot(&self) -> Vec<T> {
        self.slots.read().expect("snapshot poisoned").clone()
    }
}

impl<T: Clone + Send + Sync + fmt::Debug> fmt::Debug for LockSnapshot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockSnapshot({:?})", self.snapshot())
    }
}

/// One cell of the Afek et al. construction: the value, the writer's
/// sequence number, and the snapshot embedded by the writer.
struct Cell<T> {
    value: T,
    seq: u64,
    embedded: Option<Arc<Vec<T>>>,
}

impl<T: Clone> Clone for Cell<T> {
    fn clone(&self) -> Self {
        Cell {
            value: self.value.clone(),
            seq: self.seq,
            embedded: self.embedded.clone(),
        }
    }
}

/// Wait-free atomic snapshot from single-writer atomic registers.
///
/// `snapshot()` repeatedly *double-collects*; a clean double collect (no
/// sequence number changed) is linearizable at the point between the two
/// collects. If some writer is observed to move twice, its second write's
/// embedded snapshot was taken entirely within our interval and is
/// returned instead — the helping mechanism that yields wait-freedom.
///
/// `update(i, v)` takes an embedded snapshot, then writes
/// `(v, seq+1, embedded)` to register `i`.
///
/// # Example
///
/// ```
/// use at_sharedmem::snapshot::{AfekSnapshot, AtomicSnapshot};
///
/// let snap = AfekSnapshot::new(3, 0u64);
/// snap.update(1, 42);
/// assert_eq!(snap.snapshot(), vec![0, 42, 0]);
/// ```
pub struct AfekSnapshot<T> {
    registers: Vec<MutexRegister<Arc<Cell<T>>>>,
}

impl<T: Clone + Send + Sync> AfekSnapshot<T> {
    /// Creates `n` slots initialised to `initial`.
    pub fn new(n: usize, initial: T) -> Self {
        AfekSnapshot {
            registers: (0..n)
                .map(|_| {
                    MutexRegister::new(Arc::new(Cell {
                        value: initial.clone(),
                        seq: 0,
                        embedded: None,
                    }))
                })
                .collect(),
        }
    }

    fn collect(&self) -> Vec<Arc<Cell<T>>> {
        self.registers.iter().map(|r| r.read()).collect()
    }
}

impl<T: Clone + Send + Sync> AtomicSnapshot<T> for AfekSnapshot<T> {
    fn len(&self) -> usize {
        self.registers.len()
    }

    fn update(&self, i: usize, value: T) {
        // Embed a snapshot so concurrent scanners can borrow it.
        let embedded = Arc::new(self.snapshot());
        let seq = self.registers[i].read().seq + 1;
        self.registers[i].write(Arc::new(Cell {
            value,
            seq,
            embedded: Some(embedded),
        }));
    }

    fn snapshot(&self) -> Vec<T> {
        let n = self.len();
        // moved[j] = how many times writer j was seen to change.
        let mut moved = vec![0u32; n];
        let mut previous = self.collect();
        loop {
            let current = self.collect();
            let changed: Vec<usize> = (0..n)
                .filter(|&j| previous[j].seq != current[j].seq)
                .collect();
            if changed.is_empty() {
                // Clean double collect.
                return current.iter().map(|cell| cell.value.clone()).collect();
            }
            for j in changed {
                moved[j] += 1;
                if moved[j] >= 2 {
                    // Writer j completed an entire update within our scan:
                    // its embedded snapshot is linearizable inside our
                    // interval.
                    let embedded = current[j]
                        .embedded
                        .as_ref()
                        .expect("moved-twice writer embedded a snapshot");
                    return embedded.as_ref().clone();
                }
            }
            previous = current;
        }
    }
}

impl<T: Clone + Send + Sync + fmt::Debug> fmt::Debug for AfekSnapshot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AfekSnapshot({:?})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn exercise_basic<S: AtomicSnapshot<u64>>(snap: &S) {
        assert_eq!(snap.len(), 4);
        assert!(!snap.is_empty());
        assert_eq!(snap.snapshot(), vec![0, 0, 0, 0]);
        snap.update(2, 9);
        snap.update(0, 1);
        assert_eq!(snap.snapshot(), vec![1, 0, 9, 0]);
        snap.update(2, 10);
        assert_eq!(snap.snapshot(), vec![1, 0, 10, 0]);
    }

    #[test]
    fn lock_snapshot_basics() {
        exercise_basic(&LockSnapshot::new(4, 0u64));
    }

    #[test]
    fn afek_snapshot_basics() {
        exercise_basic(&AfekSnapshot::new(4, 0u64));
    }

    /// Monotonic-counter regularity: every writer only increments its own
    /// slot, so snapshots must be pointwise monotonically non-decreasing
    /// in scan order per reader, and no snapshot may "tear" below a value
    /// already observed.
    fn exercise_concurrent<S: AtomicSnapshot<u64> + 'static>(snap: Arc<S>) {
        const WRITERS: usize = 3;
        const INCREMENTS: u64 = 300;
        let stop = Arc::new(AtomicBool::new(false));

        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|i| {
                let snap = Arc::clone(&snap);
                thread::spawn(move || {
                    for v in 1..=INCREMENTS {
                        snap.update(i, v);
                    }
                })
            })
            .collect();

        let reader_handles: Vec<_> = (0..2)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = vec![0u64; WRITERS];
                    let mut scans = 0u64;
                    loop {
                        let view = snap.snapshot();
                        for j in 0..WRITERS {
                            assert!(
                                view[j] >= last[j],
                                "snapshot went backwards at slot {j}: {} < {}",
                                view[j],
                                last[j]
                            );
                        }
                        last = view[..WRITERS].to_vec();
                        scans += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    scans
                })
            })
            .collect();

        for w in writer_handles {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in reader_handles {
            assert!(r.join().unwrap() > 0);
        }
        let final_view = snap.snapshot();
        assert_eq!(final_view[..WRITERS], vec![INCREMENTS; WRITERS][..]);
    }

    #[test]
    fn lock_snapshot_concurrent_monotonicity() {
        exercise_concurrent(Arc::new(LockSnapshot::new(4, 0u64)));
    }

    #[test]
    fn afek_snapshot_concurrent_monotonicity() {
        exercise_concurrent(Arc::new(AfekSnapshot::new(4, 0u64)));
    }

    /// Cross-slot consistency: writers publish (round, round) pairs into
    /// two slots they own in lock-step fashion... simplified: a single
    /// writer alternately increments two slots keeping slot0 >= slot1;
    /// every atomic snapshot must observe slot0 >= slot1.
    fn exercise_cross_slot<S: AtomicSnapshot<u64> + 'static>(snap: Arc<S>) {
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let snap = Arc::clone(&snap);
            thread::spawn(move || {
                for v in 1..=500u64 {
                    snap.update(0, v); // slot0 first: slot0 >= slot1 always
                    snap.update(1, v);
                }
            })
        };
        let reader = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let view = snap.snapshot();
                    assert!(
                        view[0] >= view[1],
                        "torn snapshot: slot0={} < slot1={}",
                        view[0],
                        view[1]
                    );
                }
            })
        };
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }

    #[test]
    fn lock_snapshot_never_tears() {
        exercise_cross_slot(Arc::new(LockSnapshot::new(2, 0u64)));
    }

    #[test]
    fn afek_snapshot_never_tears() {
        exercise_cross_slot(Arc::new(AfekSnapshot::new(2, 0u64)));
    }

    #[test]
    fn debug_impls_render() {
        let lock = LockSnapshot::new(2, 1u8);
        assert!(format!("{lock:?}").contains("LockSnapshot"));
        let afek = AfekSnapshot::new(2, 1u8);
        assert!(format!("{afek:?}").contains("AfekSnapshot"));
    }
}
