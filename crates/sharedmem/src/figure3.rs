//! Figure 3: a wait-free `k`-shared asset-transfer object from
//! `k`-consensus objects and registers (the upper bound of Theorem 2).
//!
//! Every account `a` has an announcement register array `R_a` (one slot
//! per process) and an unbounded series of `k`-consensus objects
//! `kC_a[0], kC_a[1], …`. The up-to-`k` owners of `a` agree on the order
//! of outgoing transfers round by round; decided transfer–result pairs are
//! published in the wait-free atomic snapshot `AS` ([`AfekSnapshot`], one
//! slot per process holding its `hist` set, written only by that process).
//! Announcing in `R_a` before proposing gives the *helping*
//! mechanism that makes the object wait-free: owners propose the oldest
//! announced-but-uncommitted transfer, not necessarily their own.

use crate::kconsensus::KConsensusList;
use crate::object::{assert_owners_within, SharedAssetTransfer};
use crate::register::RegisterArray;
use crate::snapshot::AfekSnapshot;
use at_model::spec::balance_from_transfers;
use at_model::{AccountId, Amount, OwnerMap, ProcessId, Round, SeqNo, Transfer, TransferId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// A transfer–result pair `((a,b,x,s,r), result)` as decided by a round of
/// `k`-consensus.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct DecidedTransfer {
    /// The transfer (its `seq` field carries the announcement round `r`).
    pub transfer: Transfer,
    /// Whether the transfer was decided successful.
    pub success: bool,
}

/// Per-process published history: the set of decided transfers this
/// process has observed and published.
type Hist = Arc<BTreeSet<DecidedTransfer>>;

/// Per-account shared coordination state.
struct AccountShared {
    /// `R_a[i]`: announcement registers.
    announcements: RegisterArray<Transfer>,
    /// `kC_a[i]`: the series of k-consensus objects.
    consensus: KConsensusList<DecidedTransfer>,
}

/// Per-process, per-account local state (`committed_a`, `round_a`).
#[derive(Default)]
struct AccountLocal {
    committed: BTreeSet<TransferId>,
    round: Round,
}

/// Per-process local state (`hist` and the per-account locals).
#[derive(Default)]
struct Local {
    hist: BTreeSet<DecidedTransfer>,
    accounts: BTreeMap<AccountId, AccountLocal>,
    seq: SeqNo,
}

/// The Figure 3 object.
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, OwnerMap, ProcessId};
/// use at_sharedmem::figure3::KSharedAssetTransfer;
/// use at_sharedmem::object::SharedAssetTransfer;
///
/// // One account shared by two processes plus a sink.
/// let shared = AccountId::new(0);
/// let sink = AccountId::new(1);
/// let mut owners = OwnerMap::new();
/// owners.add_owner(shared, ProcessId::new(0));
/// owners.add_owner(shared, ProcessId::new(1));
/// owners.add_unowned(sink);
///
/// let object = KSharedAssetTransfer::new(2, [(shared, Amount::new(10))], owners);
/// assert!(object.transfer(ProcessId::new(0), shared, sink, Amount::new(6)));
/// assert!(!object.transfer(ProcessId::new(1), shared, sink, Amount::new(6)));
/// assert_eq!(object.read(sink), Amount::new(6));
/// ```
pub struct KSharedAssetTransfer {
    /// `AS`: one slot per process holding its published `hist`.
    snapshot: AfekSnapshot<Hist>,
    accounts: BTreeMap<AccountId, AccountShared>,
    initial: BTreeMap<AccountId, Amount>,
    owners: OwnerMap,
    locals: Vec<Mutex<Local>>,
}

impl KSharedAssetTransfer {
    /// Creates the object for `n` processes with the given initial
    /// balances and (arbitrary-sharedness) owner map.
    ///
    /// # Panics
    ///
    /// Panics when an owner is not one of the `n` processes.
    pub fn new<I>(n: usize, initial: I, owners: OwnerMap) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        assert_owners_within(&owners, n);
        let mut balances: BTreeMap<AccountId, Amount> = initial.into_iter().collect();
        for account in owners.accounts() {
            balances.entry(account).or_insert(Amount::ZERO);
        }
        let k = owners.sharedness().max(1);
        let accounts = balances
            .keys()
            .map(|&account| {
                (
                    account,
                    AccountShared {
                        announcements: RegisterArray::new(n),
                        consensus: KConsensusList::new(k),
                    },
                )
            })
            .collect();
        KSharedAssetTransfer {
            snapshot: AfekSnapshot::new(n, Arc::new(BTreeSet::new())),
            accounts,
            initial: balances,
            owners,
            locals: (0..n).map(|_| Mutex::new(Local::default())).collect(),
        }
    }

    /// The owner map.
    pub fn owners(&self) -> &OwnerMap {
        &self.owners
    }

    /// The sharedness `k` of the object.
    pub fn sharedness(&self) -> usize {
        self.owners.sharedness()
    }

    /// `balance(a, snapshot)` per Figure 3: initial plus successful
    /// incoming minus successful outgoing over the union of published
    /// hist sets.
    fn balance(&self, account: AccountId, view: &[Hist]) -> Amount {
        let initial = self.initial.get(&account).copied().unwrap_or(Amount::ZERO);
        // The same decided transfer may appear in several hist slots; the
        // union must be deduplicated before summation.
        let unioned: BTreeSet<&DecidedTransfer> = view.iter().flat_map(|h| h.iter()).collect();
        let successful: Vec<Transfer> = unioned
            .into_iter()
            .filter(|d| d.success)
            .map(|d| d.transfer)
            .collect();
        balance_from_transfers(account, initial, successful.iter())
            .expect("figure 3 maintains non-negative balances")
    }

    /// `collect(a)` of Figure 3: read all announcement registers for `a`.
    fn collect(&self, account: AccountId) -> Vec<Transfer> {
        self.accounts[&account]
            .announcements
            .collect()
            .into_iter()
            .flatten()
            .collect()
    }

    /// `proposal(req, snapshot)`: equip `req` with a success/failure flag
    /// according to the balance in `snapshot`.
    fn proposal(&self, req: Transfer, view: &[Hist]) -> DecidedTransfer {
        DecidedTransfer {
            transfer: req,
            success: self.balance(req.source, view) >= req.amount,
        }
    }
}

impl SharedAssetTransfer for KSharedAssetTransfer {
    fn transfer(
        &self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> bool {
        // Lines 1-2: ownership (and account-existence) check.
        if !self.owners.is_owner(process, source) || !self.initial.contains_key(&destination) {
            return false;
        }
        let mut local = self.locals[process.as_usize()]
            .lock()
            .expect("local state poisoned");
        let local = &mut *local;
        let account_local = local.accounts.entry(source).or_default();
        let shared = &self.accounts[&source];

        // Line 3: the announced transfer carries the announcement round.
        local.seq = local.seq.next();
        let tx = Transfer::new(source, destination, amount, process, local.seq);
        // Figure 3 orders "oldest first" by announcement round (ties by
        // process id); we encode the round in the announcement wrapper.
        let announced_round = account_local.round;

        // Line 4: announce.
        shared
            .announcements
            .write(process.as_usize(), with_round(tx, announced_round));

        // Line 5: collect pending transfers.
        let mut collected: Vec<Transfer> = self
            .collect(source)
            .into_iter()
            .filter(|t| !account_local.committed.contains(&announced_id(t)))
            .collect();

        let my_announcement = with_round(tx, announced_round);
        let mut my_result: Option<bool> = None;

        // Lines 6-14: agree round by round until our transfer commits.
        // (The loop guard `tx ∈ collected` of the paper is equivalent to
        // "our transfer has no decision yet": `retain` below removes a
        // transfer exactly when its decision is observed.)
        while my_result.is_none() {
            debug_assert!(
                collected.contains(&my_announcement),
                "announced transfer disappeared without a decision"
            );
            // Line 7: the oldest collected transfer (round, then pid).
            let req = *collected
                .iter()
                .min_by_key(|t| (t.seq.value(), t.originator.index()))
                .expect("own announcement keeps collected non-empty");

            // Line 8: flag it against the current snapshot.
            let view = self.snapshot.snapshot();
            let prop = self.proposal(req, &view);

            // Line 9: one k-consensus invocation for this round.
            let decision = shared
                .consensus
                .round(account_local.round.value())
                .propose(prop)
                .expect("at most k owners propose per round");

            // Lines 10-11: publish the decision. Holding `local` makes
            // this process the single writer of its slot.
            local.hist.insert(decision);
            self.snapshot
                .update(process.as_usize(), Arc::new(local.hist.clone()));

            // Lines 12-14: mark committed, refresh, advance the round.
            account_local.committed.insert(decision.transfer.id());
            collected.retain(|t| *t != decision.transfer);
            if decision.transfer == my_announcement {
                my_result = Some(decision.success);
            }
            account_local.round = account_local.round.next();
        }

        // Lines 15-18: our own decided flag is the response.
        my_result.expect("loop exits only with a decision")
    }

    fn read(&self, account: AccountId) -> Amount {
        // Line 19.
        let view = self.snapshot.snapshot();
        self.balance(account, &view)
    }
}

/// Announcements are keyed by `(originator, seq)`; the announcement round
/// replaces `seq` in the *published wrapper* so that "oldest" ordering per
/// Figure 3 works, while the original sequence number keeps the identity
/// unique. We fold both into the wrapper: round goes into `seq`'s high
/// bits would be fragile, so instead identity = (originator, original
/// seq); the wrapper keeps the original transfer and we track rounds
/// separately.
///
/// Concretely: `with_round` stores the announcement round in the
/// transfer's `seq` field *of the announcement copy only* and
/// `announced_id` recovers a unique key `(originator, round)` — unique
/// because a process announces at most one transfer per account round.
fn with_round(tx: Transfer, round: Round) -> Transfer {
    Transfer::new(
        tx.source,
        tx.destination,
        tx.amount,
        tx.originator,
        SeqNo::new(round.value()),
    )
}

fn announced_id(tx: &Transfer) -> TransferId {
    tx.id()
}

impl fmt::Debug for KSharedAssetTransfer {
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
    use std::thread;

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    /// k owners share account 0; account 1 is a per-test sink; accounts
    /// 2..2+n are singly owned.
    fn shared_object(n: usize, k: usize, balance: u64) -> KSharedAssetTransfer {
        let mut owners = OwnerMap::new();
        for i in 0..k {
            owners.add_owner(a(0), p(i as u32));
        }
        owners.add_unowned(a(1));
        let initial = [(a(0), amt(balance)), (a(1), amt(0))];
        KSharedAssetTransfer::new(n, initial, owners)
    }

    #[test]
    fn sequential_semantics() {
        let object = shared_object(2, 2, 10);
        assert_eq!(object.sharedness(), 2);
        assert!(object.transfer(p(0), a(0), a(1), amt(4)));
        assert!(object.transfer(p(1), a(0), a(1), amt(6)));
        assert!(!object.transfer(p(0), a(0), a(1), amt(1)));
        assert_eq!(object.read(a(0)), amt(0));
        assert_eq!(object.read(a(1)), amt(10));
    }

    #[test]
    fn non_owner_and_unknown_accounts_fail() {
        let object = shared_object(3, 2, 10);
        assert!(!object.transfer(p(2), a(0), a(1), amt(1)));
        assert!(!object.transfer(p(0), a(9), a(1), amt(1)));
        assert!(!object.transfer(p(0), a(0), a(9), amt(1)));
        assert_eq!(object.read(a(0)), amt(10));
    }

    #[test]
    #[should_panic(expected = "owner p2 of acct0 is not one of the 2 processes")]
    fn an_owner_outside_the_processes_is_refused_at_construction() {
        let _ = shared_object(2, 3, 10);
    }

    #[test]
    fn concurrent_owners_never_overdraw() {
        for trial in 0..10 {
            let k = 4;
            let object = Arc::new(shared_object(k, k, 100));
            let handles: Vec<_> = (0..k as u32)
                .map(|i| {
                    let object = Arc::clone(&object);
                    thread::spawn(move || {
                        let mut successes = 0u64;
                        for _ in 0..10 {
                            if object.transfer(p(i), a(0), a(1), amt(7)) {
                                successes += 1;
                            }
                        }
                        successes
                    })
                })
                .collect();
            let total_successes: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            // 100 / 7 = 14 transfers fit.
            assert_eq!(total_successes, 14, "trial {trial}");
            assert_eq!(object.read(a(0)), amt(100 - 14 * 7));
            assert_eq!(object.read(a(1)), amt(14 * 7));
        }
    }

    #[test]
    fn contended_exact_balance_admits_exactly_one() {
        // The Figure 2 scenario: balance 2k, withdrawals 2k−p.
        for trial in 0..20 {
            let k = 5;
            let object = Arc::new(shared_object(k, k, 2 * k as u64));
            let handles: Vec<_> = (0..k as u32)
                .map(|i| {
                    let object = Arc::clone(&object);
                    thread::spawn(move || {
                        let amount = amt(2 * k as u64 - (i as u64 + 1));
                        object.transfer(p(i), a(0), a(1), amount)
                    })
                })
                .collect();
            let successes = handles
                .into_iter()
                .filter(|_| true)
                .map(|h| h.join().unwrap())
                .filter(|&ok| ok)
                .count();
            assert_eq!(successes, 1, "trial {trial}");
            let residue = object.read(a(0)).units();
            assert!((1..=k as u64).contains(&residue), "trial {trial}");
        }
    }

    #[test]
    fn helping_commits_other_owners_announcements() {
        // p0 announces and commits its own transfer; p1's subsequent
        // transfer must first help commit anything pending, then commit
        // its own. Exercised implicitly; here we just interleave heavily.
        let object = Arc::new(shared_object(2, 2, 1000));
        let t0 = {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                (0..50)
                    .filter(|_| object.transfer(p(0), a(0), a(1), amt(1)))
                    .count()
            })
        };
        let t1 = {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                (0..50)
                    .filter(|_| object.transfer(p(1), a(0), a(1), amt(1)))
                    .count()
            })
        };
        assert_eq!(t0.join().unwrap() + t1.join().unwrap(), 100);
        assert_eq!(object.read(a(1)), amt(100));
    }

    #[test]
    fn reads_interleave_with_transfers() {
        let object = Arc::new(shared_object(3, 2, 50));
        let writer = {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                for _ in 0..25 {
                    object.transfer(p(0), a(0), a(1), amt(2));
                }
            })
        };
        let reader = {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                let mut last = amt(0);
                for _ in 0..100 {
                    let sink = object.read(a(1));
                    assert!(sink >= last, "sink balance decreased");
                    last = sink;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(object.read(a(0)), amt(0));
        assert_eq!(object.read(a(1)), amt(50));
    }

    #[test]
    fn debug_and_owner_accessors() {
        let object = shared_object(2, 2, 5);
        assert_eq!(object.owners().owner_count(a(0)), 2);
        assert!(format!("{object:?}").contains("acct0"));
    }
}
