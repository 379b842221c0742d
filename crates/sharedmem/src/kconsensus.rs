//! `k`-consensus objects (Jayanti & Toueg 1992).
//!
//! A `k`-consensus object exports a single operation `propose(v)`: the
//! first `k` invocations return the value of the *first* invocation; every
//! later invocation returns `⊥`. The object is known to have consensus
//! number exactly `k`, which is why Figure 3's reduction to it bounds the
//! consensus number of `k`-shared asset transfer from above.
//!
//! Such an object cannot be built from registers alone (for `k ≥ 2`); this
//! implementation realises the *oracle* with a mutex-protected cell — the
//! algorithms layered on top use only its `propose` interface.

use std::fmt;
use std::sync::Mutex;

/// A `k`-consensus object.
pub struct KConsensus<V> {
    k: usize,
    state: Mutex<State<V>>,
}

struct State<V> {
    decided: Option<V>,
    invocations: usize,
}

impl<V: Clone + Send> KConsensus<V> {
    /// Creates a `k`-consensus object.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k-consensus requires k >= 1");
        KConsensus {
            k,
            state: Mutex::new(State {
                decided: None,
                invocations: 0,
            }),
        }
    }

    /// The object's `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Proposes `value`; returns the decided value, or `None` (`⊥`) when
    /// invoked more than `k` times.
    pub fn propose(&self, value: V) -> Option<V> {
        let mut state = self.state.lock().expect("consensus state poisoned");
        state.invocations += 1;
        if state.invocations > self.k {
            return None;
        }
        Some(state.decided.get_or_insert(value).clone())
    }

    /// The decided value, if any invocation happened yet.
    pub fn decision(&self) -> Option<V> {
        self.state
            .lock()
            .expect("consensus state poisoned")
            .decided
            .clone()
    }
}

impl<V: Clone + Send + fmt::Debug> fmt::Debug for KConsensus<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().expect("consensus state poisoned");
        write!(
            f,
            "KConsensus(k={}, decided={:?}, invocations={})",
            self.k, state.decided, state.invocations
        )
    }
}

/// An unbounded, lazily allocated list of `k`-consensus objects — the
/// `kC_a[i], i ≥ 0` series of Figure 3.
pub struct KConsensusList<V> {
    k: usize,
    objects: Mutex<Vec<std::sync::Arc<KConsensus<V>>>>,
}

impl<V: Clone + Send> KConsensusList<V> {
    /// Creates an empty list of `k`-consensus objects.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k-consensus requires k >= 1");
        KConsensusList {
            k,
            objects: Mutex::new(Vec::new()),
        }
    }

    /// The shared object for round `round`, allocating as needed.
    pub fn round(&self, round: u64) -> std::sync::Arc<KConsensus<V>> {
        let mut objects = self.objects.lock().expect("object list poisoned");
        let index = round as usize;
        while objects.len() <= index {
            objects.push(std::sync::Arc::new(KConsensus::new(self.k)));
        }
        std::sync::Arc::clone(&objects[index])
    }

    /// How many rounds have been allocated.
    pub fn allocated(&self) -> usize {
        self.objects.lock().expect("object list poisoned").len()
    }
}

impl<V: Clone + Send> fmt::Debug for KConsensusList<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KConsensusList(k={}, allocated={})",
            self.k,
            self.allocated()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn first_value_wins() {
        let object = KConsensus::new(3);
        assert_eq!(object.propose(10), Some(10));
        assert_eq!(object.propose(20), Some(10));
        assert_eq!(object.propose(30), Some(10));
        assert_eq!(object.decision(), Some(10));
    }

    #[test]
    fn returns_bottom_after_k_invocations() {
        let object = KConsensus::new(2);
        assert_eq!(object.propose(1), Some(1));
        assert_eq!(object.propose(2), Some(1));
        assert_eq!(object.propose(3), None);
        assert_eq!(object.propose(4), None);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = KConsensus::<u32>::new(0);
    }

    #[test]
    fn k_reports() {
        let object = KConsensus::<u8>::new(5);
        assert_eq!(object.k(), 5);
        assert_eq!(object.decision(), None);
    }

    #[test]
    fn concurrent_agreement_and_validity() {
        for _ in 0..20 {
            let k = 8;
            let object = Arc::new(KConsensus::new(k));
            let handles: Vec<_> = (0..k)
                .map(|i| {
                    let object = Arc::clone(&object);
                    thread::spawn(move || object.propose(i as u64))
                })
                .collect();
            let decisions: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap().expect("within k invocations"))
                .collect();
            // Agreement: all equal. Validity: the value was proposed.
            let unique: HashSet<_> = decisions.iter().collect();
            assert_eq!(unique.len(), 1);
            assert!(decisions[0] < k as u64);
        }
    }

    #[test]
    fn list_allocates_lazily_and_stably() {
        let list: KConsensusList<u32> = KConsensusList::new(2);
        assert_eq!(list.allocated(), 0);
        let round5 = list.round(5);
        assert_eq!(list.allocated(), 6);
        assert_eq!(round5.propose(9), Some(9));
        // Same round returns the same object.
        assert_eq!(list.round(5).propose(1), Some(9));
        // Distinct rounds are independent.
        assert_eq!(list.round(0).propose(7), Some(7));
    }

    #[test]
    fn debug_renders() {
        let object = KConsensus::<u8>::new(1);
        assert!(format!("{object:?}").contains("k=1"));
        let list = KConsensusList::<u8>::new(1);
        assert!(format!("{list:?}").contains("allocated=0"));
    }
}
