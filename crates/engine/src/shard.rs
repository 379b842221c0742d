//! The materialized ledger.
//!
//! Figure 4 validates a transfer by recomputing `balance(a, hist[a])`
//! from the account's full transfer history. The engine keeps the
//! balances themselves: one `Vec<Amount>` indexed by account (accounts
//! are `0..k` by construction), so validating or applying a transfer is
//! an `O(1)` lookup however long the history behind it is.
//!
//! The paper's consensus-number-1 result — transfers debiting
//! *different* accounts never need ordering against each other — is
//! realised one layer up, by per-source broadcast streams and
//! per-source replica state ([`crate::replica`]). Nothing here is
//! partitioned: the `Sharded…` names and the ignored `shards` arguments
//! are what the benchmark's call sites link.

use at_model::{AccountId, Amount, Transfer};

/// Why a transfer could not be applied to the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The debited account is not part of the ledger.
    UnknownSource(AccountId),
    /// The credited account is not part of the ledger.
    UnknownDestination(AccountId),
    /// The source balance is smaller than the transferred amount.
    Insufficient {
        /// The account being debited.
        account: AccountId,
        /// Its current balance.
        balance: Amount,
        /// The amount requested.
        requested: Amount,
    },
}

/// The engine's materialized ledger view: the balance of every account,
/// indexed by account.
///
/// Balances reflect every applied transfer immediately (the
/// "eventually included" view of Definition 1 — see
/// `at_core::figure4::TransferState::observed_balance` for the
/// correspondence with the Figure 4 reference, which
/// `tests/tests/figure4_oracle.rs` holds account by account).
#[derive(Clone, Debug)]
pub struct ShardedLedger {
    /// `balances[i]` is the balance of account `i`.
    balances: Vec<Amount>,
}

impl ShardedLedger {
    /// A ledger over `(account, balance)` pairs that name accounts
    /// `0..k` in order — what [`crate::LedgerSnapshot::verify`] checks
    /// of a snapshot before it gets here.
    pub fn new(initial: impl IntoIterator<Item = (AccountId, Amount)>) -> Self {
        let balances = initial.into_iter().map(|(_, balance)| balance).collect();
        ShardedLedger { balances }
    }

    /// A ledger with accounts `0..n`, each holding `amount`. `_shards`
    /// is accepted for the benchmark's call sites and not stored.
    pub fn uniform(n: usize, amount: Amount, _shards: usize) -> Self {
        ShardedLedger::new(AccountId::all(n).map(|account| (account, amount)))
    }

    /// The balance of `account` (zero when unknown).
    pub fn balance(&self, account: AccountId) -> Amount {
        self.balances
            .get(account.as_usize())
            .copied()
            .unwrap_or(Amount::ZERO)
    }

    /// Whether `account` exists in the ledger.
    pub fn contains(&self, account: AccountId) -> bool {
        account.as_usize() < self.balances.len()
    }

    /// Sum of all balances (conserved by [`ShardedLedger::apply`]).
    pub fn total_supply(&self) -> Amount {
        self.balances.iter().copied().sum()
    }

    /// Applies `transfer`: debit the source, credit the destination. A
    /// self-transfer moves nothing but must still be funded.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] (and leaves every balance unchanged) when
    /// an account is unknown or the source is underfunded.
    pub fn apply(&mut self, transfer: &Transfer) -> Result<(), ShardError> {
        if !self.contains(transfer.destination) {
            return Err(ShardError::UnknownDestination(transfer.destination));
        }
        let Some(&balance) = self.balances.get(transfer.source.as_usize()) else {
            return Err(ShardError::UnknownSource(transfer.source));
        };
        let debited = balance
            .checked_sub(transfer.amount)
            .ok_or(ShardError::Insufficient {
                account: transfer.source,
                balance,
                requested: transfer.amount,
            })?;
        if !transfer.is_self_transfer() {
            self.balances[transfer.source.as_usize()] = debited;
            let destination = &mut self.balances[transfer.destination.as_usize()];
            *destination = destination.saturating_add(transfer.amount);
        }
        Ok(())
    }

    /// Iterates `(account, balance)` pairs in account order.
    pub fn iter(&self) -> impl Iterator<Item = (AccountId, Amount)> + '_ {
        AccountId::all(self.balances.len()).zip(self.balances.iter().copied())
    }

    /// A deterministic digest over the `(account, balance)` pairs in
    /// account order ([`digest_balances`]) — used by the scenario
    /// subsystem to compare replica states and assert run-to-run
    /// determinism.
    pub fn digest(&self) -> u64 {
        digest_balances(self.iter())
    }
}

/// FNV-1a digest over `(account, balance)` pairs. The pairs must arrive
/// in account order for digests to be comparable; both the engine's and
/// the baseline ledger digests are built from this one function so
/// cross-engine report comparisons cannot drift.
pub fn digest_balances(pairs: impl Iterator<Item = (AccountId, Amount)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    for (account, balance) in pairs {
        mix(account.index() as u64);
        mix(balance.units());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::LedgerSnapshot;
    use at_model::{ProcessId, SeqNo};

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    fn tx(src: u32, dst: u32, x: u64, seq: u64) -> Transfer {
        Transfer::new(a(src), a(dst), amt(x), ProcessId::new(src), SeqNo::new(seq))
    }

    #[test]
    fn apply_moves_balance_and_conserves_supply() {
        let mut ledger = ShardedLedger::uniform(8, amt(100), 4);
        let supply = ledger.total_supply();
        ledger.apply(&tx(0, 5, 30, 1)).unwrap();
        assert_eq!(ledger.balance(a(0)), amt(70));
        assert_eq!(ledger.balance(a(5)), amt(130));
        assert_eq!(ledger.total_supply(), supply);
    }

    #[test]
    fn overdraft_is_rejected_without_mutation() {
        let mut ledger = ShardedLedger::uniform(4, amt(10), 2);
        let err = ledger.apply(&tx(1, 2, 11, 1)).unwrap_err();
        assert_eq!(
            err,
            ShardError::Insufficient {
                account: a(1),
                balance: amt(10),
                requested: amt(11),
            }
        );
        assert_eq!(ledger.balance(a(1)), amt(10));
        assert_eq!(ledger.balance(a(2)), amt(10));
    }

    #[test]
    fn unknown_accounts_are_rejected() {
        let mut ledger = ShardedLedger::uniform(4, amt(10), 2);
        assert_eq!(
            ledger.apply(&tx(9, 1, 1, 1)).unwrap_err(),
            ShardError::UnknownSource(a(9))
        );
        assert_eq!(
            ledger.apply(&tx(1, 9, 1, 1)).unwrap_err(),
            ShardError::UnknownDestination(a(9))
        );
    }

    #[test]
    fn self_transfer_counts_but_does_not_move_funds() {
        let mut ledger = ShardedLedger::uniform(2, amt(10), 2);
        ledger.apply(&tx(0, 0, 4, 1)).unwrap();
        assert_eq!(ledger.balance(a(0)), amt(10));
        assert_eq!(ledger.total_supply(), amt(20));
        // Applied or not, it has to be funded.
        assert_eq!(
            ledger.apply(&tx(0, 0, 11, 2)).unwrap_err(),
            ShardError::Insufficient {
                account: a(0),
                balance: amt(10),
                requested: amt(11),
            }
        );
    }

    #[test]
    fn digest_tracks_state_not_sharding() {
        let mut two = ShardedLedger::uniform(8, amt(50), 2);
        let mut four = ShardedLedger::uniform(8, amt(50), 4);
        assert_eq!(two.digest(), four.digest());
        two.apply(&tx(0, 3, 7, 1)).unwrap();
        assert_ne!(two.digest(), four.digest());
        four.apply(&tx(0, 3, 7, 1)).unwrap();
        assert_eq!(two.digest(), four.digest());
        assert_eq!(two.iter().count(), 8);
        assert!(two.contains(a(7)));
        assert!(!two.contains(a(8)));

        // Both numbers were printed by the build that kept the balances
        // in `shards` × `BTreeMap`: the dense layout attests the same
        // state with the same digest a node of that build would.
        assert_eq!(two.digest(), 0xd540_a5dd_f82c_a4b7);
        let frontier = vec![SeqNo::new(1), SeqNo::ZERO];
        let snapshot = LedgerSnapshot::new(two.iter().collect(), frontier.clone(), frontier);
        assert_eq!(snapshot.digest, 0xe63e_0091_9d86_56d7);
        let rebuilt = ShardedLedger::new(snapshot.balances.iter().copied());
        assert_eq!(rebuilt.digest(), two.digest());
    }
}
