//! The atomic snapshot object (Afek, Attiya, Dolev, Gafni, Merritt,
//! Shavit, JACM 1993).
//!
//! An atomic snapshot is a vector of `N` shared slots supporting two
//! linearizable operations: `update(i, v)` on a single slot and
//! `snapshot()` of the whole vector. Figure 1 of the paper builds asset
//! transfer directly on this object; Figure 3 uses one to publish decided
//! transfers.
//!
//! There is one implementation, [`AfekSnapshot`]: the classical
//! *wait-free* construction from single-writer registers, which double
//! collects until clean and otherwise "borrows" the snapshot embedded by a
//! writer observed to move twice. There is no lock-based alternative (the
//! vector behind one reader-writer lock): Theorems 1 and 2 are statements
//! about wait-free objects, and such a snapshot stalls every process while
//! its lock holder is preempted.

use crate::register::{MutexRegister, Register};
use std::fmt;
use std::sync::Arc;

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
/// use at_sharedmem::snapshot::AfekSnapshot;
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

    /// Atomically replaces slot `i` with `value`.
    ///
    /// Slot `i` has a single writer: only its owning process may call
    /// this, one call at a time.
    pub fn update(&self, i: usize, value: T) {
        // Embed a snapshot so concurrent scanners can borrow it.
        let embedded = Arc::new(self.snapshot());
        let seq = self.registers[i].read().seq + 1;
        self.registers[i].write(Arc::new(Cell {
            value,
            seq,
            embedded: Some(embedded),
        }));
    }

    /// Atomically reads all slots.
    pub fn snapshot(&self) -> Vec<T> {
        let n = self.registers.len();
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

    #[test]
    fn afek_snapshot_basics() {
        let snap = AfekSnapshot::new(4, 0u64);
        assert_eq!(snap.snapshot(), vec![0, 0, 0, 0]);
        snap.update(2, 9);
        snap.update(0, 1);
        assert_eq!(snap.snapshot(), vec![1, 0, 9, 0]);
        snap.update(2, 10);
        assert_eq!(snap.snapshot(), vec![1, 0, 10, 0]);
    }

    /// Every writer only increments its own slot, so each reader's scans
    /// must be pointwise non-decreasing in scan order. Atomicity asks more:
    /// any two scans, by any two readers, are ordered slot by slot (one is
    /// pointwise ≤ the other), because both are states of one linearized
    /// vector. A snapshot that is only monotone per reader fails this when
    /// two readers see two writers' increments in opposite orders.
    #[test]
    fn afek_snapshot_concurrent_monotonicity() {
        const WRITERS: usize = 3;
        const INCREMENTS: u64 = 20_000;
        let snap = Arc::new(AfekSnapshot::new(4, 0u64));
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
                    let mut scans: Vec<Vec<u64>> = Vec::new();
                    loop {
                        let view = snap.snapshot()[..WRITERS].to_vec();
                        if let Some(last) = scans.last() {
                            for j in 0..WRITERS {
                                assert!(
                                    view[j] >= last[j],
                                    "snapshot went backwards at slot {j}: {} < {}",
                                    view[j],
                                    last[j]
                                );
                            }
                        }
                        scans.push(view);
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
        let mut scans = Vec::new();
        for r in reader_handles {
            let taken = r.join().unwrap();
            assert!(!taken.is_empty());
            scans.extend(taken);
        }
        // Pairwise comparability is a chain under the pointwise order:
        // sorted by total, each scan must be pointwise ≤ the next, which by
        // transitivity orders every pair.
        scans.sort_by_key(|view| view.iter().sum::<u64>());
        for pair in scans.windows(2) {
            assert!(
                pair[0].iter().zip(&pair[1]).all(|(x, y)| x <= y),
                "incomparable scans: {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
        let final_view = snap.snapshot();
        assert_eq!(final_view[..WRITERS], vec![INCREMENTS; WRITERS][..]);
    }

    /// A single writer alternately increments two slots, slot 0 first, so
    /// slot 0 ≥ slot 1 at every instant; every atomic snapshot must
    /// observe slot 0 ≥ slot 1.
    #[test]
    fn afek_snapshot_never_tears() {
        let snap = Arc::new(AfekSnapshot::new(2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let snap = Arc::clone(&snap);
            thread::spawn(move || {
                for v in 1..=500u64 {
                    snap.update(0, v);
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
    fn debug_impls_render() {
        let afek = AfekSnapshot::new(2, 1u8);
        assert!(format!("{afek:?}").contains("AfekSnapshot"));
    }
}
