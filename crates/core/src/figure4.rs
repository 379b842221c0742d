//! Figure 4: the consensusless transfer state machine.
//!
//! This module is the pure (broadcast-agnostic) core of the paper's
//! practical contribution: the per-process state `seq[]`, `rec[]`,
//! `hist[]`, `deps`, `toValidate` and the `Valid` predicate, exactly as in
//! Figure 4. The broadcast layer underneath is abstracted away — the state
//! machine consumes *delivered* `[(a,b,x,s), h]` messages in source order
//! and produces validated applications.
//!
//! Topology, as in the paper's presentation: process `p` owns exactly
//! account `p` (`µ(a) = {p}` with account ids equal to process indices).
//!
//! ## A note on the `Valid` predicate
//!
//! Line 25 of the paper's Figure 4 checks `balance(c, hist[q]) ≥ y`.
//! Read literally this would reject any transfer funded by the *fresh*
//! dependencies `h` carried in the same message — yet the sender's own
//! admission check (line 2) counts them (`balance(a, hist[p] ∪ deps)`),
//! and the proof of Theorem 3 explicitly linearizes those incoming
//! transfers *before* the transfer they fund ("S may order some incoming
//! transfer to q that did not appear at hist\[q\] before the corresponding
//! (q,d,y,s) has been added to it"). We therefore evaluate the balance
//! over `hist[q] ∪ h`, which is the reading consistent with Lemma 3's
//! liveness claim — a deliberate deviation from the letter of line 25.

use at_model::spec::balance_from_transfers;
pub use at_model::TransferMsg;
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use std::collections::BTreeSet;
use std::fmt;

/// What happened when the state machine processed deliveries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// A validated transfer was applied to the local state.
    Transfer(Transfer),
    /// Our own outstanding transfer completed (Figure 4 line 20 —
    /// `return true`).
    OwnCompleted(Transfer),
}

/// The per-process state of Figure 4.
pub struct TransferState {
    me: ProcessId,
    n: usize,
    /// `q0`: initial balance per account.
    initial: Vec<Amount>,
    /// `seq[q]`: number of validated outgoing transfers per process.
    seq: Vec<SeqNo>,
    /// `rec[q]`: number of delivered (not necessarily validated)
    /// transfers per process.
    rec: Vec<SeqNo>,
    /// `hist[q]`: validated transfers involving account `q`.
    hist: Vec<BTreeSet<Transfer>>,
    /// `deps`: incoming transfers applied since our last outgoing one.
    deps: BTreeSet<Transfer>,
    /// `toValidate`: delivered but not yet valid messages.
    to_validate: Vec<(ProcessId, TransferMsg)>,
    /// Every validated transfer applied locally, across all accounts.
    /// Not part of Figure 4 — see [`TransferState::observed_balance`].
    observed: BTreeSet<Transfer>,
    /// Our next outgoing sequence number source (`seq[p]` mirrors this
    /// after validation; we pre-assign on submission).
    next_own_seq: SeqNo,
    /// Count of applied transfers (all accounts) for statistics.
    applied_count: u64,
}

impl TransferState {
    /// Creates the state for process `me` of `n`, each account starting
    /// with `initial` units.
    pub fn new(me: ProcessId, n: usize, initial: Amount) -> Self {
        TransferState::with_balances(me, vec![initial; n])
    }

    /// Creates the state with per-account initial balances
    /// (`balances[i]` = account of process `i`).
    pub fn with_balances(me: ProcessId, balances: Vec<Amount>) -> Self {
        let n = balances.len();
        assert!(me.as_usize() < n, "process id out of range");
        TransferState {
            me,
            n,
            initial: balances,
            seq: vec![SeqNo::ZERO; n],
            rec: vec![SeqNo::ZERO; n],
            hist: vec![BTreeSet::new(); n],
            deps: BTreeSet::new(),
            to_validate: Vec::new(),
            observed: BTreeSet::new(),
            next_own_seq: SeqNo::ZERO,
            applied_count: 0,
        }
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The account owned by this process.
    pub fn my_account(&self) -> AccountId {
        AccountId::new(self.me.index())
    }

    /// `read(a)` (Figure 4 lines 6–7): the balance computed over
    /// `hist[a] ∪ deps`.
    pub fn read(&self, account: AccountId) -> Amount {
        let index = account.as_usize();
        if index >= self.n {
            return Amount::ZERO;
        }
        let combined: BTreeSet<&Transfer> =
            self.hist[index].iter().chain(self.deps.iter()).collect();
        balance_from_transfers(account, self.initial[index], combined)
            .expect("figure 4 maintains non-negative balances")
    }

    /// The balance of `account` over *every* transfer this process has
    /// applied, not just `hist[a] ∪ deps`.
    ///
    /// Figure 4's `read` (see [`TransferState::read`]) is deliberately
    /// conservative: an incoming transfer becomes visible in `hist[a]`
    /// only once `a`'s owner folds it into an outgoing transfer. This
    /// accessor instead reflects all locally applied transfers — the
    /// "eventually included" view promised by property (2) of
    /// Definition 1 — and is what tests and monitoring use to assert
    /// conservation and convergence.
    pub fn observed_balance(&self, account: AccountId) -> Amount {
        let index = account.as_usize();
        if index >= self.n {
            return Amount::ZERO;
        }
        balance_from_transfers(account, self.initial[index], self.observed.iter())
            .expect("figure 4 maintains non-negative balances")
    }

    /// `transfer(a, b, x)` (Figure 4 lines 1–5): validates locally and, on
    /// success, produces the message to securely broadcast. The operation
    /// *completes* later, when the broadcast redelivers the message and it
    /// validates (`Applied::OwnCompleted`).
    ///
    /// # Errors
    ///
    /// Returns `Err(balance)` — the paper's `return false` — when the
    /// locally known balance is insufficient.
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
    ) -> Result<TransferMsg, Amount> {
        let account = self.my_account();
        let balance = self.read(account);
        if balance < amount || destination.as_usize() >= self.n {
            return Err(balance);
        }
        self.next_own_seq = self.next_own_seq.next();
        let transfer = Transfer::new(account, destination, amount, self.me, self.next_own_seq);
        let msg = TransferMsg {
            transfer,
            deps: self.deps.iter().copied().collect(),
        };
        // Line 5: deps = ∅.
        self.deps.clear();
        Ok(msg)
    }

    /// Figure 4 lines 8–12: a message delivered by the secure broadcast
    /// from process `q`. Returns the validated applications (possibly
    /// several: one delivery can unblock queued ones).
    pub fn on_deliver(&mut self, q: ProcessId, msg: TransferMsg) -> Vec<Applied> {
        let index = q.as_usize();
        if index >= self.n {
            return Vec::new();
        }
        // Lines 9–12: well-formedness — accept exactly the next sequence
        // number from q (the secure broadcast's source order makes this
        // FIFO).
        if msg.transfer.seq != self.rec[index].next() {
            return Vec::new();
        }
        self.rec[index] = self.rec[index].next();
        self.to_validate.push((q, msg));
        self.drain()
    }

    /// Figure 4 line 13: repeatedly applies any pending message whose
    /// `Valid` predicate holds.
    fn drain(&mut self) -> Vec<Applied> {
        let mut applied = Vec::new();
        loop {
            let position = self
                .to_validate
                .iter()
                .position(|(q, msg)| self.valid(*q, msg));
            let Some(position) = position else {
                break;
            };
            let (q, msg) = self.to_validate.swap_remove(position);
            applied.extend(self.apply(q, msg));
        }
        applied
    }

    /// The `Valid(q, t, h)` predicate (Figure 4 lines 21–26).
    fn valid(&self, q: ProcessId, msg: &TransferMsg) -> bool {
        let t = &msg.transfer;
        let source_index = t.source.as_usize();
        // Line 23: the issuer owns the debited account.
        if source_index != q.as_usize() || t.originator != q {
            return false;
        }
        // Line 24: sequence numbers advance one at a time.
        if t.seq != self.seq[source_index].next() {
            return false;
        }
        // Line 26: all reported dependencies are validated.
        if !msg.deps.iter().all(|dep| {
            let src = dep.source.as_usize();
            src < self.n && self.hist[src].contains(dep)
        }) {
            return false;
        }
        // Line 25 (with the deps-inclusive reading, see module docs):
        // the source account does not overdraw.
        let funded: BTreeSet<&Transfer> = self.hist[source_index]
            .iter()
            .chain(msg.deps.iter())
            .collect();
        match balance_from_transfers(t.source, self.initial[source_index], funded) {
            Some(balance) => balance >= t.amount,
            None => false,
        }
    }

    /// Figure 4 lines 14–20: applies a validated transfer.
    fn apply(&mut self, q: ProcessId, msg: TransferMsg) -> Vec<Applied> {
        let t = msg.transfer;
        let source_index = t.source.as_usize();
        // Line 15: hist[q] := hist[q] ∪ h ∪ {t}.
        for dep in &msg.deps {
            self.hist[source_index].insert(*dep);
        }
        self.hist[source_index].insert(t);
        self.observed.extend(msg.deps.iter().copied());
        self.observed.insert(t);
        // Line 16: seq[q] = s.
        self.seq[source_index] = t.seq;
        self.applied_count += 1;

        let mut out = Vec::new();
        // Lines 17–18: incoming for us → deps.
        if t.destination == self.my_account() && t.source != self.my_account() {
            self.deps.insert(t);
        }
        out.push(Applied::Transfer(t));
        // Lines 19–20: our own transfer completed.
        if q == self.me {
            out.push(Applied::OwnCompleted(t));
        }
        out
    }

    /// Validated transfers involving `account`, in `hist` order.
    pub fn history(&self, account: AccountId) -> impl Iterator<Item = &Transfer> + '_ {
        self.hist[account.as_usize()].iter()
    }

    /// Number of delivered-but-unvalidated messages.
    pub fn pending_count(&self) -> usize {
        self.to_validate.len()
    }

    /// Number of transfers applied in total.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// `seq[q]`: validated outgoing transfers of process `q`.
    pub fn seq(&self, q: ProcessId) -> SeqNo {
        self.seq[q.as_usize()]
    }
}

impl fmt::Debug for TransferState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransferState(me={}, applied={}, pending={})",
            self.me,
            self.applied_count,
            self.to_validate.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    /// Delivers `msg` from its originator to every state in `states`.
    fn deliver_all(states: &mut [TransferState], msg: &TransferMsg) -> Vec<Vec<Applied>> {
        states
            .iter_mut()
            .map(|state| state.on_deliver(msg.transfer.originator, msg.clone()))
            .collect()
    }

    fn system(n: usize, initial: u64) -> Vec<TransferState> {
        (0..n as u32)
            .map(|i| TransferState::new(p(i), n, amt(initial)))
            .collect()
    }

    #[test]
    fn submit_and_complete_simple_transfer() {
        let mut states = system(3, 10);
        let msg = states[0].submit(a(1), amt(4)).expect("funded");
        assert_eq!(msg.transfer.seq, SeqNo::new(1));
        assert!(msg.deps.is_empty());

        let applied = deliver_all(&mut states, &msg);
        // Originator sees completion.
        assert!(applied[0].contains(&Applied::OwnCompleted(msg.transfer)));
        // Everyone applied it.
        for (i, out) in applied.iter().enumerate() {
            assert!(out.contains(&Applied::Transfer(msg.transfer)), "state {i}");
        }
        for state in &states {
            assert_eq!(state.read(a(0)), amt(6));
            // Fresh incoming counts for the destination's *read* only
            // after it lands in deps (p1) or is folded; reads at p1:
        }
        assert_eq!(states[1].read(a(1)), amt(14));
    }

    #[test]
    fn insufficient_balance_rejected_locally() {
        let mut states = system(2, 10);
        let err = states[0].submit(a(1), amt(11)).unwrap_err();
        assert_eq!(err, amt(10));
        // Sequence number was not consumed.
        let msg = states[0].submit(a(1), amt(10)).expect("funded");
        assert_eq!(msg.transfer.seq, SeqNo::new(1));
    }

    #[test]
    fn unknown_destination_rejected() {
        let mut states = system(2, 10);
        assert!(states[0].submit(a(9), amt(1)).is_err());
    }

    #[test]
    fn deps_chain_funds_downstream_transfer() {
        let mut states = system(3, 10);
        // p0 sends 10 to p1; p1 then sends 15 to p2 (needs the incoming).
        let msg0 = states[0].submit(a(1), amt(10)).unwrap();
        deliver_all(&mut states, &msg0);

        let msg1 = states[1].submit(a(2), amt(15)).expect("funded by dep");
        assert_eq!(msg1.deps, vec![msg0.transfer]);
        let applied = deliver_all(&mut states, &msg1);
        for out in &applied {
            assert!(out.contains(&Applied::Transfer(msg1.transfer)));
        }
        for state in &states {
            assert_eq!(state.read(a(1)), amt(5));
            assert_eq!(state.observed_balance(a(2)), amt(25));
        }
        // Figure 4's read of a *remote* account omits unfolded incoming
        // credits; the destination itself sees them through `deps`.
        assert_eq!(states[0].read(a(2)), amt(10));
        assert_eq!(states[1].read(a(2)), amt(10));
        assert_eq!(states[2].read(a(2)), amt(25));
    }

    #[test]
    fn message_with_unseen_dep_waits() {
        let mut states = system(3, 10);
        let msg0 = states[0].submit(a(1), amt(10)).unwrap();
        // p1 applies msg0 and issues a dependent transfer.
        states[1].on_deliver(p(0), msg0.clone());
        let msg1 = states[1].submit(a(2), amt(15)).unwrap();

        // p2 receives p1's transfer *before* p0's: it must wait.
        let applied = states[2].on_deliver(p(1), msg1.clone());
        assert!(applied.is_empty());
        assert_eq!(states[2].pending_count(), 1);

        // Once the dependency arrives, both apply in causal order.
        let applied = states[2].on_deliver(p(0), msg0.clone());
        assert_eq!(
            applied,
            vec![
                Applied::Transfer(msg0.transfer),
                Applied::Transfer(msg1.transfer),
            ]
        );
        assert_eq!(states[2].read(a(2)), amt(25));
    }

    #[test]
    fn stale_sequence_numbers_not_accepted() {
        let mut states = system(2, 10);
        let msg1 = states[0].submit(a(1), amt(1)).unwrap();
        let msg2 = states[0].submit(a(1), amt(1)).unwrap();
        // Delivering seq 2 before seq 1 violates well-formedness
        // (line 10) and is dropped — the secure broadcast's source order
        // prevents this from benign senders.
        assert!(states[1].on_deliver(p(0), msg2.clone()).is_empty());
        assert_eq!(states[1].on_deliver(p(0), msg1.clone()).len(), 1);
        assert_eq!(states[1].on_deliver(p(0), msg2).len(), 1);
    }

    #[test]
    fn forged_originator_rejected() {
        let mut states = system(3, 10);
        // A Byzantine p2 claims a transfer debiting account 0.
        let forged = TransferMsg {
            transfer: Transfer::new(a(0), a(2), amt(5), p(2), SeqNo::new(1)),
            deps: vec![],
        };
        let applied = states[1].on_deliver(p(2), forged);
        assert!(applied.is_empty());
        assert_eq!(states[1].read(a(0)), amt(10));
    }

    #[test]
    fn overdraft_broadcast_never_validates() {
        let mut states = system(2, 10);
        // A Byzantine p0 bypasses the local check and broadcasts an
        // overdraft.
        let overdraft = TransferMsg {
            transfer: Transfer::new(a(0), a(1), amt(99), p(0), SeqNo::new(1)),
            deps: vec![],
        };
        let applied = states[1].on_deliver(p(0), overdraft);
        assert!(applied.is_empty());
        assert_eq!(states[1].pending_count(), 1);
        assert_eq!(states[1].read(a(1)), amt(10));
    }

    #[test]
    fn fake_dependency_rejected() {
        let mut states = system(3, 10);
        // p0 invents an incoming transfer from p2 that never happened.
        let fake_dep = Transfer::new(a(2), a(0), amt(50), p(2), SeqNo::new(1));
        let msg = TransferMsg {
            transfer: Transfer::new(a(0), a(1), amt(40), p(0), SeqNo::new(1)),
            deps: vec![fake_dep],
        };
        let applied = states[1].on_deliver(p(0), msg);
        assert!(applied.is_empty());
        assert_eq!(states[1].read(a(1)), amt(10));
    }

    #[test]
    fn double_spend_second_transfer_never_validates() {
        let mut states = system(3, 10);
        // Byzantine p0 crafts two sequential transfers spending 10 each.
        let tx1 = TransferMsg {
            transfer: Transfer::new(a(0), a(1), amt(10), p(0), SeqNo::new(1)),
            deps: vec![],
        };
        let tx2 = TransferMsg {
            transfer: Transfer::new(a(0), a(2), amt(10), p(0), SeqNo::new(2)),
            deps: vec![],
        };
        for state in states.iter_mut() {
            state.on_deliver(p(0), tx1.clone());
            let applied = state.on_deliver(p(0), tx2.clone());
            assert!(applied.is_empty(), "double spend applied");
        }
        for state in &states {
            assert_eq!(state.observed_balance(a(1)), amt(20));
            assert_eq!(state.observed_balance(a(2)), amt(10));
            assert_eq!(state.observed_balance(a(0)), amt(0));
        }
    }

    #[test]
    fn deps_reset_after_each_outgoing() {
        let mut states = system(3, 10);
        let msg0 = states[0].submit(a(1), amt(3)).unwrap();
        deliver_all(&mut states, &msg0);
        let msg1 = states[1].submit(a(2), amt(1)).unwrap();
        assert_eq!(msg1.deps.len(), 1);
        deliver_all(&mut states, &msg1);
        // Second outgoing from p1 carries no stale deps.
        let msg2 = states[1].submit(a(2), amt(1)).unwrap();
        assert!(msg2.deps.is_empty());
    }

    #[test]
    fn accessors_and_debug() {
        let mut states = system(2, 5);
        assert_eq!(states[0].me(), p(0));
        assert_eq!(states[0].my_account(), a(0));
        assert_eq!(states[0].seq(p(0)), SeqNo::ZERO);
        assert_eq!(states[0].applied_count(), 0);
        let msg = states[0].submit(a(1), amt(1)).unwrap();
        deliver_all(&mut states, &msg);
        assert_eq!(states[1].seq(p(0)), SeqNo::new(1));
        assert_eq!(states[1].history(a(0)).count(), 1);
        assert!(format!("{:?}", states[0]).contains("me=p0"));
    }

    #[test]
    fn transfer_msg_codec_roundtrip() {
        let msg = TransferMsg {
            transfer: Transfer::new(a(0), a(1), amt(5), p(0), SeqNo::new(1)),
            deps: vec![Transfer::new(a(2), a(0), amt(1), p(2), SeqNo::new(3))],
        };
        let bytes = at_model::codec::encode(&msg);
        let back: TransferMsg = at_model::codec::decode(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn read_of_out_of_range_account_is_zero() {
        let states = system(2, 5);
        assert_eq!(states[0].read(a(7)), Amount::ZERO);
    }
}
