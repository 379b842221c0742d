//! The sequential specification `Δ` as an executable reference model.
//!
//! [`Ledger`] is a direct transliteration of the asset-transfer object type
//! of Section 2.2: a state `q : A → ℕ` together with the transition
//! relation `Δ`. Implementations (shared-memory or message-passing) are
//! *correct* exactly when their concurrent histories linearize to a
//! sequential history that this model accepts — which is what the
//! [`crate::check`] module verifies.

use crate::error::TransferError;
use crate::ids::{AccountId, Amount, ProcessId};
use crate::owner::OwnerMap;
use crate::transfer::Transfer;
use std::collections::BTreeMap;
use std::fmt;

/// The sequential asset-transfer object: state `q : A → ℕ` plus the owner
/// map `µ`, with transitions per `Δ`.
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId, TransferError};
///
/// let a = AccountId::new(0);
/// let b = AccountId::new(1);
/// let p = ProcessId::new(0);
/// let mut ledger = Ledger::new(
///     [(a, Amount::new(5)), (b, Amount::ZERO)],
///     OwnerMap::single_owner([(a, p), (b, ProcessId::new(1))]),
/// );
///
/// assert!(ledger.transfer(p, a, b, Amount::new(5)).is_ok());
/// let err = ledger.transfer(p, a, b, Amount::new(1)).unwrap_err();
/// assert!(matches!(err, TransferError::InsufficientBalance { .. }));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Ledger {
    balances: BTreeMap<AccountId, Amount>,
    owners: OwnerMap,
}

impl Ledger {
    /// Creates a ledger with the given initial balances `q0` and owner map.
    ///
    /// Accounts mentioned in the owner map but not in `initial` start at
    /// zero balance.
    pub fn new<I>(initial: I, owners: OwnerMap) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        let mut balances: BTreeMap<AccountId, Amount> = initial.into_iter().collect();
        for account in owners.accounts() {
            balances.entry(account).or_insert(Amount::ZERO);
        }
        Ledger { balances, owners }
    }

    /// Creates the standard benchmark ledger: `n` processes, account `i`
    /// owned by process `i`, every account starting with `initial` units.
    pub fn uniform(n: usize, initial: Amount) -> Self {
        let owners = OwnerMap::one_account_per_process(n);
        let balances = AccountId::all(n).map(|a| (a, initial));
        Ledger::new(balances, owners)
    }

    /// The owner map `µ`.
    pub fn owners(&self) -> &OwnerMap {
        &self.owners
    }

    /// `read(a)`: the balance of `a`, zero for unknown accounts.
    pub fn read(&self, account: AccountId) -> Amount {
        self.balances.get(&account).copied().unwrap_or(Amount::ZERO)
    }

    /// Whether the account exists in the state.
    pub fn contains_account(&self, account: AccountId) -> bool {
        self.balances.contains_key(&account)
    }

    /// Iterates over `(account, balance)` pairs in account order.
    pub fn iter(&self) -> impl Iterator<Item = (AccountId, Amount)> + '_ {
        self.balances.iter().map(|(a, x)| (*a, *x))
    }

    /// The sum of all balances — invariant under transfers (conservation).
    pub fn total_supply(&self) -> Amount {
        self.balances.values().copied().sum()
    }

    /// `transfer(a, b, x)` invoked by `process`, per `Δ`:
    ///
    /// * succeeds iff `process ∈ µ(a)` and `q(a) ≥ x`, moving `x` from `a`
    ///   to `b`;
    /// * otherwise leaves the state unchanged and reports why.
    ///
    /// # Errors
    ///
    /// [`TransferError::NotOwner`], [`TransferError::UnknownAccount`], or
    /// [`TransferError::InsufficientBalance`] — all of which correspond to
    /// the `false` response of the paper's type.
    pub fn transfer(
        &mut self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> Result<(), TransferError> {
        self.check_transfer(process, source, destination, amount)?;
        self.apply_unchecked(source, destination, amount);
        Ok(())
    }

    /// Validates a transfer against `Δ` without applying it.
    ///
    /// # Errors
    ///
    /// Same as [`Ledger::transfer`].
    pub fn check_transfer(
        &self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> Result<(), TransferError> {
        if !self.balances.contains_key(&source) {
            return Err(TransferError::UnknownAccount { account: source });
        }
        if !self.balances.contains_key(&destination) {
            return Err(TransferError::UnknownAccount {
                account: destination,
            });
        }
        if !self.owners.is_owner(process, source) {
            return Err(TransferError::NotOwner {
                process,
                account: source,
            });
        }
        let balance = self.read(source);
        if balance < amount {
            return Err(TransferError::InsufficientBalance {
                account: source,
                balance,
                requested: amount,
            });
        }
        Ok(())
    }

    /// Applies a [`Transfer`] record, validating ownership via the record's
    /// `originator` field.
    ///
    /// # Errors
    ///
    /// Same as [`Ledger::transfer`].
    pub fn apply(&mut self, tx: &Transfer) -> Result<(), TransferError> {
        self.transfer(tx.originator, tx.source, tx.destination, tx.amount)
    }

    fn apply_unchecked(&mut self, source: AccountId, destination: AccountId, amount: Amount) {
        // Self-transfers leave q unchanged, matching Δ where
        // q'(a) = q(a) - x + x.
        if source == destination {
            return;
        }
        let debited = self
            .read(source)
            .checked_sub(amount)
            .expect("balance checked above");
        let credited = self
            .read(destination)
            .checked_add(amount)
            .expect("total supply fits in u64");
        self.balances.insert(source, debited);
        self.balances.insert(destination, credited);
    }
}

impl fmt::Debug for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.balances.iter().map(|(a, x)| (a, x.units())))
            .finish()
    }
}

/// Computes `balance(a, S)` as in Figure 1: initial balance plus the sum of
/// incoming successful transfers minus the sum of outgoing successful
/// transfers found in `transfers`.
///
/// The caller is responsible for `transfers` containing only *successful*
/// transfers (failed transfers do not change state).
///
/// Returns `None` when the outgoing sum exceeds initial + incoming, which a
/// correct implementation never produces; callers treat `None` as a
/// detected safety violation.
pub fn balance_from_transfers<'a, I>(
    account: AccountId,
    initial: Amount,
    transfers: I,
) -> Option<Amount>
where
    I: IntoIterator<Item = &'a Transfer>,
{
    let mut incoming = Amount::ZERO;
    let mut outgoing = Amount::ZERO;
    for tx in transfers {
        // Self-transfers add to both sums and cancel out, matching Δ.
        if tx.is_incoming_for(account) {
            incoming = incoming.checked_add(tx.amount)?;
        }
        if tx.is_outgoing_for(account) {
            outgoing = outgoing.checked_add(tx.amount)?;
        }
    }
    initial.checked_add(incoming)?.checked_sub(outgoing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    fn two_account_ledger() -> Ledger {
        Ledger::new(
            [(a(0), amt(10)), (a(1), amt(5))],
            OwnerMap::single_owner([(a(0), p(0)), (a(1), p(1))]),
        )
    }

    #[test]
    fn successful_transfer_moves_funds() {
        let mut l = two_account_ledger();
        l.transfer(p(0), a(0), a(1), amt(4)).unwrap();
        assert_eq!(l.read(a(0)), amt(6));
        assert_eq!(l.read(a(1)), amt(9));
    }

    #[test]
    fn non_owner_cannot_debit() {
        let mut l = two_account_ledger();
        let err = l.transfer(p(1), a(0), a(1), amt(1)).unwrap_err();
        assert!(matches!(err, TransferError::NotOwner { .. }));
        // State unchanged.
        assert_eq!(l.read(a(0)), amt(10));
        assert_eq!(l.read(a(1)), amt(5));
    }

    #[test]
    fn insufficient_balance_rejected() {
        let mut l = two_account_ledger();
        let err = l.transfer(p(0), a(0), a(1), amt(11)).unwrap_err();
        assert!(matches!(err, TransferError::InsufficientBalance { .. }));
        assert_eq!(l.read(a(0)), amt(10));
    }

    #[test]
    fn exact_balance_transfer_succeeds() {
        let mut l = two_account_ledger();
        l.transfer(p(0), a(0), a(1), amt(10)).unwrap();
        assert_eq!(l.read(a(0)), amt(0));
        assert_eq!(l.read(a(1)), amt(15));
    }

    #[test]
    fn zero_amount_transfer_succeeds() {
        let mut l = two_account_ledger();
        l.transfer(p(0), a(0), a(1), amt(0)).unwrap();
        assert_eq!(l.read(a(0)), amt(10));
        assert_eq!(l.read(a(1)), amt(5));
    }

    #[test]
    fn unknown_accounts_rejected() {
        let mut l = two_account_ledger();
        assert!(matches!(
            l.transfer(p(0), a(7), a(1), amt(1)),
            Err(TransferError::UnknownAccount { .. })
        ));
        assert!(matches!(
            l.transfer(p(0), a(0), a(7), amt(1)),
            Err(TransferError::UnknownAccount { .. })
        ));
    }

    #[test]
    fn self_transfer_is_noop() {
        let mut l = Ledger::new([(a(0), amt(10))], OwnerMap::single_owner([(a(0), p(0))]));
        l.transfer(p(0), a(0), a(0), amt(7)).unwrap();
        assert_eq!(l.read(a(0)), amt(10));
        // But still requires sufficient balance per Δ: q(a) ≥ x.
        assert!(l.transfer(p(0), a(0), a(0), amt(11)).is_err());
    }

    #[test]
    fn conservation_of_total_supply() {
        let mut l = Ledger::uniform(4, amt(100));
        assert_eq!(l.total_supply(), amt(400));
        l.transfer(p(0), a(0), a(3), amt(33)).unwrap();
        l.transfer(p(3), a(3), a(1), amt(133)).unwrap();
        assert_eq!(l.total_supply(), amt(400));
    }

    #[test]
    fn read_unknown_account_is_zero() {
        let l = two_account_ledger();
        assert_eq!(l.read(a(9)), Amount::ZERO);
        assert!(!l.contains_account(a(9)));
    }

    #[test]
    fn owner_map_accounts_get_default_zero_balance() {
        let owners = OwnerMap::single_owner([(a(0), p(0)), (a(1), p(1))]);
        let l = Ledger::new([(a(0), amt(3))], owners);
        assert!(l.contains_account(a(1)));
        assert_eq!(l.read(a(1)), Amount::ZERO);
    }

    #[test]
    fn apply_transfer_record() {
        let mut l = two_account_ledger();
        let tx = Transfer::new(a(0), a(1), amt(2), p(0), SeqNo::new(1));
        l.apply(&tx).unwrap();
        assert_eq!(l.read(a(1)), amt(7));

        // Forged originator is rejected.
        let forged = Transfer::new(a(1), a(0), amt(1), p(0), SeqNo::new(2));
        assert!(matches!(
            l.apply(&forged),
            Err(TransferError::NotOwner { .. })
        ));
    }

    #[test]
    fn balance_from_transfer_sets() {
        let txs = vec![
            Transfer::new(a(0), a(1), amt(4), p(0), SeqNo::new(1)),
            Transfer::new(a(1), a(0), amt(1), p(1), SeqNo::new(1)),
            Transfer::new(a(2), a(1), amt(10), p(2), SeqNo::new(1)),
        ];
        assert_eq!(
            balance_from_transfers(a(0), amt(10), &txs),
            Some(amt(10 - 4 + 1))
        );
        assert_eq!(
            balance_from_transfers(a(1), amt(0), &txs),
            Some(amt(4 - 1 + 10))
        );
        // Outgoing exceeding initial+incoming signals a safety violation.
        assert_eq!(balance_from_transfers(a(2), amt(5), &txs), None);
    }

    #[test]
    fn iter_lists_accounts_in_order() {
        let l = two_account_ledger();
        let entries: Vec<_> = l.iter().collect();
        assert_eq!(entries, vec![(a(0), amt(10)), (a(1), amt(5))]);
    }

    #[test]
    fn debug_shows_balances() {
        let l = two_account_ledger();
        let s = format!("{l:?}");
        assert!(s.contains("acct0"));
        assert!(s.contains("10"));
    }
}
