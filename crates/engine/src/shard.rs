//! Sharded account state.
//!
//! The paper's consensus-number-1 result means transfers debiting
//! *different* accounts never need ordering against each other; the
//! engine exploits this by partitioning the ledger into account shards.
//! Each shard holds incrementally maintained balances for its accounts,
//! so validating a transfer touches only the source account's shard and
//! costs `O(log accounts-per-shard)` — in contrast to the Figure 4
//! reference state machine, which recomputes `balance(a, hist[a])` from
//! the account's full transfer history on every validation.
//!
//! A transfer debits its source shard and credits its destination shard;
//! per-shard counters record the applied and cross-shard traffic so the
//! evaluation can report shard balance.

use at_model::{AccountId, Amount, Transfer};
use std::collections::BTreeMap;

/// The account → shard partition function (stable hash on the account
/// index, modulo the shard count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A partition into `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `account`.
    pub fn shard_of(&self, account: AccountId) -> usize {
        account.as_usize() % self.shards
    }

    /// Whether `transfer` debits and credits different shards.
    pub fn is_cross_shard(&self, transfer: &Transfer) -> bool {
        self.shard_of(transfer.source) != self.shard_of(transfer.destination)
    }
}

/// Running counters of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Debits applied against accounts of this shard.
    pub debits: u64,
    /// Credits applied to accounts of this shard.
    pub credits: u64,
    /// Applied debits whose credit landed in a different shard.
    pub cross_shard_debits: u64,
}

#[derive(Clone, Debug)]
struct Shard {
    balances: BTreeMap<AccountId, Amount>,
    stats: ShardStats,
}

/// Why a transfer could not be applied to the sharded ledger.
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

/// The engine's materialized ledger view, partitioned into shards.
///
/// Balances reflect every applied transfer immediately (the
/// "eventually included" view of Definition 1 — see
/// [`at_core::figure4::TransferState::observed_balance`] for the
/// correspondence with the Figure 4 reference, which
/// `tests/tests/figure4_oracle.rs` holds account by account).
#[derive(Clone, Debug)]
pub struct ShardedLedger {
    map: ShardMap,
    shards: Vec<Shard>,
}

impl ShardedLedger {
    /// A ledger over explicit `(account, balance)` pairs.
    pub fn new<I>(initial: I, shards: usize) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        let map = ShardMap::new(shards);
        let mut ledger = ShardedLedger {
            map,
            shards: (0..shards)
                .map(|_| Shard {
                    balances: BTreeMap::new(),
                    stats: ShardStats::default(),
                })
                .collect(),
        };
        for (account, balance) in initial {
            let shard = ledger.map.shard_of(account);
            ledger.shards[shard].balances.insert(account, balance);
        }
        ledger
    }

    /// A ledger with accounts `0..n`, each holding `amount`.
    pub fn uniform(n: usize, amount: Amount, shards: usize) -> Self {
        ShardedLedger::new(AccountId::all(n).map(|account| (account, amount)), shards)
    }

    /// The partition function.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Counters of shard `index`.
    pub fn shard_stats(&self, index: usize) -> ShardStats {
        self.shards[index].stats
    }

    /// The balance of `account` (zero when unknown).
    pub fn balance(&self, account: AccountId) -> Amount {
        self.shards[self.map.shard_of(account)]
            .balances
            .get(&account)
            .copied()
            .unwrap_or(Amount::ZERO)
    }

    /// Whether `account` exists in the ledger.
    pub fn contains(&self, account: AccountId) -> bool {
        self.shards[self.map.shard_of(account)]
            .balances
            .contains_key(&account)
    }

    /// Sum of all balances (conserved by [`ShardedLedger::apply`]).
    pub fn total_supply(&self) -> Amount {
        self.shards
            .iter()
            .flat_map(|shard| shard.balances.values())
            .copied()
            .sum()
    }

    /// Applies `transfer`: debit the source shard, credit the destination
    /// shard. Self-transfers are applied as a no-op balance change but
    /// still counted.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] (and leaves every balance unchanged) when
    /// an account is unknown or the source is underfunded.
    pub fn apply(&mut self, transfer: &Transfer) -> Result<(), ShardError> {
        let source_shard = self.map.shard_of(transfer.source);
        let dest_shard = self.map.shard_of(transfer.destination);
        if !self.shards[dest_shard]
            .balances
            .contains_key(&transfer.destination)
        {
            return Err(ShardError::UnknownDestination(transfer.destination));
        }
        let balance = match self.shards[source_shard].balances.get(&transfer.source) {
            None => return Err(ShardError::UnknownSource(transfer.source)),
            Some(&balance) => balance,
        };
        let debited = balance
            .checked_sub(transfer.amount)
            .ok_or(ShardError::Insufficient {
                account: transfer.source,
                balance,
                requested: transfer.amount,
            })?;

        if transfer.is_self_transfer() {
            self.shards[source_shard].stats.debits += 1;
            self.shards[source_shard].stats.credits += 1;
            return Ok(());
        }
        self.shards[source_shard]
            .balances
            .insert(transfer.source, debited);
        let credited =
            self.shards[dest_shard].balances[&transfer.destination].saturating_add(transfer.amount);
        self.shards[dest_shard]
            .balances
            .insert(transfer.destination, credited);

        self.shards[source_shard].stats.debits += 1;
        self.shards[dest_shard].stats.credits += 1;
        if source_shard != dest_shard {
            self.shards[source_shard].stats.cross_shard_debits += 1;
        }
        Ok(())
    }

    /// Iterates `(account, balance)` pairs in account order (across all
    /// shards).
    pub fn iter(&self) -> impl Iterator<Item = (AccountId, Amount)> + '_ {
        let mut pairs: Vec<(AccountId, Amount)> = self
            .shards
            .iter()
            .flat_map(|shard| shard.balances.iter().map(|(&a, &b)| (a, b)))
            .collect();
        pairs.sort_unstable_by_key(|(account, _)| *account);
        pairs.into_iter()
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
/// in account order for digests to be comparable; both the sharded and
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
    fn partition_is_stable_and_total() {
        let map = ShardMap::new(4);
        for i in 0..64 {
            let shard = map.shard_of(a(i));
            assert!(shard < 4);
            assert_eq!(shard, map.shard_of(a(i)));
        }
        assert_eq!(ShardMap::new(1).shard_of(a(9)), 0);
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
    fn cross_shard_traffic_is_counted() {
        let mut ledger = ShardedLedger::uniform(4, amt(100), 2);
        // 0 and 2 share shard 0; 1 and 3 share shard 1.
        ledger.apply(&tx(0, 2, 5, 1)).unwrap(); // same shard
        ledger.apply(&tx(0, 1, 5, 2)).unwrap(); // cross shard
        let shard0 = ledger.shard_stats(0);
        assert_eq!(shard0.debits, 2);
        assert_eq!(shard0.cross_shard_debits, 1);
        assert_eq!(ledger.shard_stats(1).credits, 1);
        assert!(ledger.shard_map().is_cross_shard(&tx(0, 1, 5, 3)));
        assert!(!ledger.shard_map().is_cross_shard(&tx(0, 2, 5, 3)));
    }

    #[test]
    fn self_transfer_counts_but_does_not_move_funds() {
        let mut ledger = ShardedLedger::uniform(2, amt(10), 2);
        ledger.apply(&tx(0, 0, 4, 1)).unwrap();
        assert_eq!(ledger.balance(a(0)), amt(10));
        assert_eq!(ledger.shard_stats(0).debits, 1);
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
    }
}
