//! Figure 1: wait-free asset transfer from atomic snapshots.
//!
//! The paper's central shared-memory algorithm. Every process owns one
//! slot of an atomic snapshot object holding the set of successful
//! transfers it has executed. Because each account has **at most one
//! owner**, all outgoing transfers of an account live in a single slot, so
//! the owner alone orders them — no consensus anywhere:
//!
//! ```text
//! Upon transfer(a, b, x):            Upon read(a):
//!   S = AS.snapshot()                  S = AS.snapshot()
//!   if p ∉ µ(a) ∨ balance(a,S) < x     return balance(a, S)
//!       return false
//!   ops_p = ops_p ∪ {(a,b,x)}
//!   AS.update(ops_p)
//!   return true
//! ```
//!
//! Theorem 1: this implementation is linearizable and wait-free, hence the
//! single-owner asset-transfer type has consensus number 1.

use crate::object::{assert_owners_within, SharedAssetTransfer};
use crate::snapshot::AfekSnapshot;
use at_model::spec::balance_from_transfers;
use at_model::{AccountId, Amount, OwnerMap, ProcessId, SeqNo, Transfer};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// The per-slot value: an immutable set of the owner's successful
/// transfers. `Arc` keeps `update` cheap to publish and `snapshot` cheap
/// to copy.
type Ops = Arc<Vec<Transfer>>;

/// Figure 1's asset-transfer object, on the wait-free Afek et al.
/// snapshot ([`AfekSnapshot`]).
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, ProcessId};
/// use at_sharedmem::figure1::SnapshotAssetTransfer;
/// use at_sharedmem::object::SharedAssetTransfer;
///
/// // 3 processes, account i owned by process i, 100 units each.
/// let object = SnapshotAssetTransfer::uniform(3, Amount::new(100));
/// let p0 = ProcessId::new(0);
/// assert!(object.transfer(p0, AccountId::new(0), AccountId::new(2), Amount::new(60)));
/// assert!(!object.transfer(p0, AccountId::new(0), AccountId::new(2), Amount::new(60)));
/// assert_eq!(object.read(AccountId::new(2)), Amount::new(160));
/// ```
pub struct SnapshotAssetTransfer {
    snapshot: AfekSnapshot<Ops>,
    initial: BTreeMap<AccountId, Amount>,
    owners: OwnerMap,
    /// Process-local state (`ops_p` and the sequence counter), stored
    /// per-slot; only process `p` touches slot `p`, the mutex merely
    /// satisfies `Sync`.
    locals: Vec<Mutex<Local>>,
}

#[derive(Default)]
struct Local {
    ops: Vec<Transfer>,
    seq: SeqNo,
}

impl SnapshotAssetTransfer {
    /// Creates the object for `n` processes with the given initial
    /// balances and owner map.
    ///
    /// # Panics
    ///
    /// Panics when the owner map is not single-owner (`|µ(a)| ≤ 1`): the
    /// Figure 1 algorithm is only correct in the Nakamoto setting. Use
    /// [`crate::figure3`] for shared accounts. Panics as well when an
    /// owner is not one of the `n` processes.
    pub fn new<I>(n: usize, initial: I, owners: OwnerMap) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        assert!(
            owners.sharedness() <= 1,
            "Figure 1 requires single-owner accounts; got sharedness {}",
            owners.sharedness()
        );
        assert_owners_within(&owners, n);
        let mut balances: BTreeMap<AccountId, Amount> = initial.into_iter().collect();
        for account in owners.accounts() {
            balances.entry(account).or_insert(Amount::ZERO);
        }
        SnapshotAssetTransfer {
            snapshot: AfekSnapshot::new(n, Arc::new(Vec::new())),
            initial: balances,
            owners,
            locals: (0..n).map(|_| Mutex::new(Local::default())).collect(),
        }
    }

    /// The uniform benchmark topology: account `i` owned by process `i`,
    /// every account starting at `initial`.
    pub fn uniform(n: usize, initial: Amount) -> Self {
        let owners = OwnerMap::one_account_per_process(n);
        let balances: Vec<_> = AccountId::all(n).map(|a| (a, initial)).collect();
        Self::new(n, balances, owners)
    }

    /// The owner map.
    pub fn owners(&self) -> &OwnerMap {
        &self.owners
    }

    /// `balance(a, S)` of Figure 1 over a snapshot `S`.
    fn balance(&self, account: AccountId, view: &[Ops]) -> Amount {
        let initial = self.initial.get(&account).copied().unwrap_or(Amount::ZERO);
        balance_from_transfers(account, initial, view.iter().flat_map(|ops| ops.iter()))
            .expect("figure 1 maintains non-negative balances")
    }
}

impl SharedAssetTransfer for SnapshotAssetTransfer {
    fn transfer(
        &self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> bool {
        // Line 2's owner check needs no snapshot, so it comes first: a
        // process outside µ(a) (unknown accounts have no owner) is refused
        // before its local state is looked up.
        if !self.owners.is_owner(process, source) || !self.initial.contains_key(&destination) {
            return false;
        }
        // The model assumes sequential processes; holding the local lock
        // across the whole operation keeps the object safe even if a
        // caller violates that assumption. It also makes the owner the
        // single writer of its snapshot slot.
        let mut local = self.locals[process.as_usize()]
            .lock()
            .expect("local state poisoned");
        // Lines 1-2: take a snapshot, validate the balance.
        let view = self.snapshot.snapshot();
        if self.balance(source, &view) < amount {
            return false;
        }
        // Lines 4-5: append to ops_p and publish.
        local.seq = local.seq.next();
        let tx = Transfer::new(source, destination, amount, process, local.seq);
        local.ops.push(tx);
        self.snapshot
            .update(process.as_usize(), Arc::new(local.ops.clone()));
        true
    }

    fn read(&self, account: AccountId) -> Amount {
        // Lines 7-8.
        let view = self.snapshot.snapshot();
        self.balance(account, &view)
    }
}

impl fmt::Debug for SnapshotAssetTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let view = self.snapshot.snapshot();
        f.debug_map()
            .entries(
                self.initial
                    .keys()
                    .map(|&account| (account, self.balance(account, &view).units())),
            )
            .finish()
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

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    #[test]
    fn sequential_semantics_match_spec() {
        let object = SnapshotAssetTransfer::uniform(3, amt(10));
        assert_eq!(object.read(a(0)), amt(10));
        assert!(object.transfer(p(0), a(0), a(1), amt(4)));
        assert_eq!(object.read(a(0)), amt(6));
        assert_eq!(object.read(a(1)), amt(14));
        // Insufficient balance.
        assert!(!object.transfer(p(0), a(0), a(1), amt(7)));
        // Not the owner.
        assert!(!object.transfer(p(0), a(1), a(0), amt(1)));
        // Unknown accounts.
        assert!(!object.transfer(p(0), a(9), a(0), amt(1)));
        assert!(!object.transfer(p(0), a(0), a(9), amt(1)));
        assert_eq!(object.read(a(9)), amt(0));
    }

    #[test]
    fn incoming_funds_are_spendable() {
        let object = SnapshotAssetTransfer::uniform(2, amt(10));
        assert!(object.transfer(p(0), a(0), a(1), amt(10)));
        assert!(object.transfer(p(1), a(1), a(0), amt(20)));
        assert_eq!(object.read(a(0)), amt(20));
        assert_eq!(object.read(a(1)), amt(0));
    }

    #[test]
    #[should_panic(expected = "single-owner")]
    fn rejects_shared_owner_maps() {
        let owners = OwnerMap::builder().account(a(0), [p(0), p(1)]).build();
        let _ = SnapshotAssetTransfer::new(2, [(a(0), amt(4))], owners);
    }

    #[test]
    fn an_outsiders_transfer_is_refused() {
        let object = SnapshotAssetTransfer::uniform(2, amt(10));
        assert!(!object.transfer(p(2), a(0), a(1), amt(1)));
        assert_eq!(object.read(a(0)), amt(10));
    }

    #[test]
    #[should_panic(expected = "not one of the 2 processes")]
    fn rejects_owners_outside_the_processes() {
        let owners = OwnerMap::single_owner([(a(0), p(0)), (a(1), p(2))]);
        let _ = SnapshotAssetTransfer::new(2, [(a(0), amt(4))], owners);
    }

    #[test]
    fn concurrent_spenders_preserve_supply_and_nonnegativity() {
        use std::sync::Arc as StdArc;
        use std::thread;
        const N: usize = 4;
        const OPS: u64 = 120;
        let object = StdArc::new(SnapshotAssetTransfer::uniform(N, amt(50)));
        let handles: Vec<_> = (0..N as u32)
            .map(|i| {
                let object = StdArc::clone(&object);
                thread::spawn(move || {
                    let mut successes = 0u64;
                    for round in 0..OPS {
                        let dest = a((i + 1 + (round % (N as u64 - 1)) as u32) % N as u32);
                        if object.transfer(p(i), a(i), dest, amt(round % 5)) {
                            successes += 1;
                        }
                        // Balances must never be negative (they are u64 by
                        // construction, but the balance computation would
                        // panic on violation).
                        let _ = object.read(a(i));
                    }
                    successes
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        let total: Amount = (0..N as u32).map(|i| object.read(a(i))).sum();
        assert_eq!(total, amt(50 * N as u64));
    }

    #[test]
    fn owner_map_accessor_and_debug() {
        let object = SnapshotAssetTransfer::uniform(2, amt(1));
        assert_eq!(object.owners().sharedness(), 1);
        assert!(format!("{object:?}").contains("acct0"));
    }
}
