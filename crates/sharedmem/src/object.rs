//! The shared-memory asset-transfer object interface and the trivially
//! linearizable reference implementation.

use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId};
use std::fmt;
use std::sync::Mutex;

/// A linearizable shared-memory asset-transfer object (the type of
/// Section 2.2).
///
/// `process` identifies the invoking process; the object validates
/// ownership per `Δ` (a non-owner's transfer returns `false`). Processes
/// are sequential: each process has at most one operation in flight.
pub trait SharedAssetTransfer: Send + Sync {
    /// `transfer(source, destination, amount)` invoked by `process`.
    /// Returns `true` on success, `false` when `process` does not own
    /// `source` or the balance is insufficient.
    fn transfer(
        &self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> bool;

    /// `read(account)`: the account's balance.
    fn read(&self, account: AccountId) -> Amount;
}

/// Reference implementation: the sequential specification behind a single
/// mutex. Trivially linearizable and wait-free modulo the lock; used as
/// the test oracle, as the object under Figure 2's reduction, and as a
/// baseline in benchmarks.
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, Ledger, ProcessId};
/// use at_sharedmem::object::{MutexAssetTransfer, SharedAssetTransfer};
///
/// let object = MutexAssetTransfer::new(Ledger::uniform(2, Amount::new(10)));
/// let p0 = ProcessId::new(0);
/// assert!(object.transfer(p0, AccountId::new(0), AccountId::new(1), Amount::new(4)));
/// assert_eq!(object.read(AccountId::new(1)), Amount::new(14));
/// ```
pub struct MutexAssetTransfer {
    ledger: Mutex<Ledger>,
}

impl MutexAssetTransfer {
    /// Creates the object from an initial ledger state.
    pub fn new(initial: Ledger) -> Self {
        MutexAssetTransfer {
            ledger: Mutex::new(initial),
        }
    }

    /// Convenience constructor mirroring [`Ledger::new`].
    pub fn with_accounts<I>(initial: I, owners: OwnerMap) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        MutexAssetTransfer::new(Ledger::new(initial, owners))
    }

    /// A copy of the current sequential state (for assertions).
    pub fn state(&self) -> Ledger {
        self.ledger.lock().expect("ledger poisoned").clone()
    }
}

impl SharedAssetTransfer for MutexAssetTransfer {
    fn transfer(
        &self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> bool {
        self.ledger
            .lock()
            .expect("ledger poisoned")
            .transfer(process, source, destination, amount)
            .is_ok()
    }

    fn read(&self, account: AccountId) -> Amount {
        self.ledger.lock().expect("ledger poisoned").read(account)
    }
}

impl fmt::Debug for MutexAssetTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MutexAssetTransfer({:?})", self.state())
    }
}

/// Panics unless every owner in `owners` is one of processes `0..n`:
/// Figures 1 and 3 keep per-process state indexed by owner.
pub(crate) fn assert_owners_within(owners: &OwnerMap, n: usize) {
    for account in owners.accounts() {
        for process in owners.owners(account) {
            assert!(
                process.as_usize() < n,
                "owner {process} of {account} is not one of the {n} processes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn delegates_to_spec() {
        let object = MutexAssetTransfer::new(Ledger::uniform(2, Amount::new(10)));
        assert!(object.transfer(p(0), a(0), a(1), Amount::new(10)));
        assert!(!object.transfer(p(0), a(0), a(1), Amount::new(1)));
        assert!(!object.transfer(p(0), a(1), a(0), Amount::new(1)));
        assert_eq!(object.read(a(0)), Amount::ZERO);
        assert_eq!(object.read(a(1)), Amount::new(20));
    }

    #[test]
    fn with_accounts_constructor() {
        let owners = OwnerMap::single_owner([(a(0), p(0))]);
        let object = MutexAssetTransfer::with_accounts([(a(0), Amount::new(5))], owners);
        assert_eq!(object.read(a(0)), Amount::new(5));
        assert!(format!("{object:?}").contains("acct0"));
    }

    #[test]
    fn concurrent_usage_preserves_supply() {
        use std::sync::Arc;
        use std::thread;
        let object = Arc::new(MutexAssetTransfer::new(Ledger::uniform(
            4,
            Amount::new(100),
        )));
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let object = Arc::clone(&object);
                thread::spawn(move || {
                    for round in 0..50u64 {
                        let dest = a((i + 1) % 4);
                        object.transfer(p(i), a(i), dest, Amount::new(round % 7));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(object.state().total_supply(), Amount::new(400));
    }
}
