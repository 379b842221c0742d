//! Section 6: `k`-shared asset transfer in message passing.
//!
//! Accounts may be owned by up to `k` processes. Theorem 2 rules out a
//! purely asynchronous implementation, so — exactly as the paper
//! prescribes — each account gets:
//!
//! * a **BFT sequencing service run by its owners** (a
//!   [`PbftReplica`] group over the owner set; communication polynomial
//!   in `k`, not `N`), assigning monotonically increasing sequence
//!   numbers to the account's outgoing transfers; and
//! * the **account-order secure broadcast** of
//!   [`at_broadcast::account_order`] — the signed echo with the paper's
//!   rule that message `s` of an account is acknowledged only once
//!   `s − 1` was delivered, on streams that are accounts and that any
//!   process may send on — which makes benign processes apply each
//!   account's transfers in sequence-number order and prevents even a
//!   fully compromised account from double spending (it can only lose its
//!   own liveness).
//!
//! Dependencies work as in Figure 4: each broadcast carries the incoming
//! transfers that fund it, and validators apply a transfer only after its
//! dependencies — making the success/failure verdict deterministic across
//! all benign processes.

use at_broadcast::account_order::AccountOrderBroadcast;
use at_broadcast::auth::Authenticator;
use at_broadcast::echo::EchoMsg;
use at_broadcast::pbft::{PbftMsg, PbftReplica};
use at_broadcast::types::Step;
use at_model::spec::balance_from_transfers;
use at_model::{AccountId, Amount, OwnerMap, ProcessId, SeqNo, Transfer, TransferMsg};
use at_net::{Actor, Context};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The payload broadcast for one sequenced transfer: Figure 4's
/// `[(a,b,x,s), deps]` message, where the transfer's `seq` field is the
/// originator's submission nonce (the *account* sequence number travels
/// in the broadcast envelope) and `deps` are the incoming transfers
/// credited to the source account since its last outgoing transfer.
pub type KPayload = TransferMsg;

/// Wire messages of the `k`-shared system.
#[derive(Clone, Debug, PartialEq)]
pub enum KMsg<S> {
    /// Intra-owner-group sequencing traffic for one account.
    Seq {
        /// The account whose owner group this belongs to.
        account: AccountId,
        /// The PBFT message.
        inner: PbftMsg<Transfer>,
    },
    /// System-wide account-order broadcast traffic.
    Cast(EchoMsg<KPayload, S, AccountId>),
}

/// Events surfaced by a [`KSharedReplica`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KEvent {
    /// Our own transfer was sequenced, broadcast, delivered and applied.
    Completed {
        /// The transfer.
        transfer: Transfer,
        /// Whether the balance sufficed at its position in the account's
        /// sequence.
        success: bool,
    },
    /// Any transfer applied locally.
    Applied {
        /// The transfer.
        transfer: Transfer,
        /// The verdict.
        success: bool,
    },
    /// A submission was rejected locally (not an owner / unknown
    /// account).
    Rejected {
        /// The account whose debit was attempted.
        account: AccountId,
    },
}

/// One process of the Section 6 `k`-shared transfer system.
pub struct KSharedReplica<A: Authenticator> {
    me: ProcessId,
    owners: OwnerMap,
    initial: BTreeMap<AccountId, Amount>,
    /// Per co-owned account: the owner-group sequencer.
    sequencers: BTreeMap<AccountId, PbftReplica<Transfer>>,
    /// The account-order broadcast endpoint.
    cast: AccountOrderBroadcast<KPayload, A>,
    /// Successful (and dep-folded) transfers applied, per account.
    applied: BTreeMap<AccountId, BTreeSet<Transfer>>,
    /// For owned accounts: incoming transfers applied since the last
    /// outgoing transfer we folded.
    deps_pool: BTreeMap<AccountId, BTreeSet<Transfer>>,
    /// Per account, in delivery order: account-order deliveries not yet
    /// applied. Only a head can apply, so a later transfer never
    /// overtakes one that waits on a credit.
    waiting: BTreeMap<AccountId, VecDeque<KPayload>>,
    /// Every successful transfer applied locally (convergence view).
    observed: BTreeSet<Transfer>,
    /// Submission nonce.
    next_nonce: SeqNo,
    applied_count: u64,
}

impl<A: Authenticator> KSharedReplica<A> {
    /// Creates the replica for `me` in a system of `n` processes with the
    /// given (arbitrary-sharedness) owner map and initial balances.
    pub fn new<I>(me: ProcessId, n: usize, initial: I, owners: OwnerMap, auth: A) -> Self
    where
        I: IntoIterator<Item = (AccountId, Amount)>,
    {
        let mut balances: BTreeMap<AccountId, Amount> = initial.into_iter().collect();
        for account in owners.accounts() {
            balances.entry(account).or_insert(Amount::ZERO);
        }
        let sequencers = owners
            .accounts_owned_by(me)
            .map(|account| {
                let members: Vec<ProcessId> = owners.owners(account).collect();
                (account, PbftReplica::new(me, members))
            })
            .collect();
        KSharedReplica {
            me,
            owners,
            initial: balances,
            sequencers,
            cast: AccountOrderBroadcast::new(me, n, auth),
            applied: BTreeMap::new(),
            deps_pool: BTreeMap::new(),
            waiting: BTreeMap::new(),
            observed: BTreeSet::new(),
            next_nonce: SeqNo::ZERO,
            applied_count: 0,
        }
    }

    /// The balance of `account` from locally applied transfers (plus, for
    /// accounts we own, unfolded incoming credits).
    pub fn read(&self, account: AccountId) -> Amount {
        let initial = self.initial.get(&account).copied().unwrap_or(Amount::ZERO);
        let empty = BTreeSet::new();
        let applied = self.applied.get(&account).unwrap_or(&empty);
        let pool = self.deps_pool.get(&account).unwrap_or(&empty);
        let combined: BTreeSet<&Transfer> = applied.iter().chain(pool.iter()).collect();
        balance_from_transfers(account, initial, combined)
            .expect("k-shared replica maintains non-negative balances")
    }

    /// Balance over every successful transfer applied locally — the
    /// convergence view (incoming credits count immediately, not only
    /// after being folded as dependencies).
    pub fn observed_balance(&self, account: AccountId) -> Amount {
        let initial = self.initial.get(&account).copied().unwrap_or(Amount::ZERO);
        balance_from_transfers(account, initial, self.observed.iter())
            .expect("k-shared replica maintains non-negative balances")
    }

    /// Number of transfers applied locally.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// Submits `transfer(account, destination, amount)`; the operation
    /// completes asynchronously with a [`KEvent::Completed`].
    pub fn submit(
        &mut self,
        account: AccountId,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, KMsg<A::Sig>, KEvent>,
    ) {
        if !self.owners.is_owner(self.me, account) || !self.initial.contains_key(&destination) {
            ctx.emit(KEvent::Rejected { account });
            return;
        }
        self.next_nonce = self.next_nonce.next();
        let transfer = Transfer::new(account, destination, amount, self.me, self.next_nonce);
        let mut step = Step::new();
        self.sequencers
            .get_mut(&account)
            .expect("owner has a sequencer")
            .submit(transfer, &mut step);
        self.absorb_seq(account, step, ctx);
    }

    /// Routes sequencer outputs: wraps outgoing PBFT messages and
    /// broadcasts newly sequenced transfers that we originated.
    fn absorb_seq(
        &mut self,
        account: AccountId,
        step: Step<PbftMsg<Transfer>, (u64, Transfer)>,
        ctx: &mut Context<'_, KMsg<A::Sig>, KEvent>,
    ) {
        for out in step.outgoing {
            ctx.send(
                out.to,
                KMsg::Seq {
                    account,
                    inner: out.msg,
                },
            );
        }
        for delivery in step.deliveries {
            let (index, transfer) = delivery.payload;
            // The originator owns the broadcast of its sequenced transfer.
            if transfer.originator == self.me {
                let deps: Vec<Transfer> = self
                    .deps_pool
                    .remove(&account)
                    .unwrap_or_default()
                    .into_iter()
                    .collect();
                let payload = KPayload { transfer, deps };
                let mut cast_step = Step::new();
                self.cast
                    .broadcast_at(account, SeqNo::new(index), payload, &mut cast_step);
                self.absorb_cast(cast_step, ctx);
            }
        }
    }

    fn absorb_cast(
        &mut self,
        step: Step<EchoMsg<KPayload, A::Sig, AccountId>, KPayload, AccountId>,
        ctx: &mut Context<'_, KMsg<A::Sig>, KEvent>,
    ) {
        for out in step.outgoing {
            ctx.send(out.to, KMsg::Cast(out.msg));
        }
        for delivery in step.deliveries {
            let queue = self.waiting.entry(delivery.source).or_default();
            queue.push_back(delivery.payload);
        }
        self.drain(ctx);
    }

    /// Applies, per account in delivery order, every waiting delivery
    /// whose dependencies are applied. Only heads are tested, and the
    /// accounts are swept until a sweep applies nothing: a credit may
    /// unblock an account already passed.
    fn drain(&mut self, ctx: &mut Context<'_, KMsg<A::Sig>, KEvent>) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            let accounts: Vec<AccountId> = self.waiting.keys().copied().collect();
            for account in accounts {
                while let Some(payload) = self.pop_ready(account) {
                    self.apply(account, payload, ctx);
                    progressed = true;
                }
            }
        }
    }

    /// Takes `account`'s oldest waiting delivery, if its dependencies are
    /// applied.
    fn pop_ready(&mut self, account: AccountId) -> Option<KPayload> {
        let queue = self.waiting.get_mut(&account)?;
        let ready = queue.front()?.deps.iter().all(|dep| {
            self.applied
                .get(&dep.source)
                .is_some_and(|set| set.contains(dep))
        });
        ready.then(|| queue.pop_front()).flatten()
    }

    fn apply(
        &mut self,
        account: AccountId,
        KPayload { transfer, deps }: KPayload,
        ctx: &mut Context<'_, KMsg<A::Sig>, KEvent>,
    ) {
        // Fold the dependencies first: they are incoming credits that
        // must survive even if the transfer itself fails.
        let applied = self.applied.entry(account).or_default();
        for dep in &deps {
            applied.insert(*dep);
        }

        // The verdict: deterministic across benign processes because the
        // account's stream is totally ordered and deps pin the credits.
        let initial = self.initial.get(&account).copied().unwrap_or(Amount::ZERO);
        let balance =
            balance_from_transfers(account, initial, applied.iter()).expect("non-negative balance");
        let success = balance >= transfer.amount && transfer.source == account;
        self.observed.extend(deps.iter().copied());
        if success {
            applied.insert(transfer);
            self.observed.insert(transfer);
            // Credit lands in the destination's deps pool if we own it.
            if self.owners.is_owner(self.me, transfer.destination)
                && transfer.destination != account
            {
                self.deps_pool
                    .entry(transfer.destination)
                    .or_default()
                    .insert(transfer);
            }
        }
        self.applied_count += 1;
        ctx.emit(KEvent::Applied { transfer, success });
        if transfer.originator == self.me {
            ctx.emit(KEvent::Completed { transfer, success });
        }
    }
}

impl<A: Authenticator> Actor for KSharedReplica<A>
where
    A::Sig: Send,
{
    type Msg = KMsg<A::Sig>;
    type Event = KEvent;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        match msg {
            KMsg::Seq { account, inner } => {
                // Only the account's owners run its sequencer.
                let Some(sequencer) = self.sequencers.get_mut(&account) else {
                    return;
                };
                let mut step = Step::new();
                sequencer.on_message(from, inner, &mut step);
                self.absorb_seq(account, step, ctx);
            }
            KMsg::Cast(inner) => {
                let mut step = Step::new();
                self.cast.on_message(from, inner, &mut step);
                self.absorb_cast(step, ctx);
            }
        }
    }
}

impl<A: Authenticator> std::fmt::Debug for KSharedReplica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KSharedReplica(me={}, sequencers={}, applied={})",
            self.me,
            self.sequencers.len(),
            self.applied_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_broadcast::auth::NoAuth;
    use at_net::{NetConfig, Simulation, VirtualTime};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    /// Account 0 shared by processes 0..k, accounts 1..n singly owned by
    /// their process; account 0 starts with `shared_balance`, the rest
    /// with 50.
    fn shared_system(
        n: usize,
        k: usize,
        shared_balance: u64,
    ) -> Simulation<KSharedReplica<NoAuth>> {
        let mut owners = OwnerMap::new();
        for i in 0..k {
            owners.add_owner(a(0), p(i as u32));
        }
        for i in 1..n {
            owners.add_owner(a(i as u32), p(i as u32));
        }
        let initial: Vec<(AccountId, Amount)> = std::iter::once((a(0), amt(shared_balance)))
            .chain((1..n).map(|i| (a(i as u32), amt(50))))
            .collect();
        let replicas = (0..n as u32)
            .map(|i| KSharedReplica::new(p(i), n, initial.clone(), owners.clone(), NoAuth))
            .collect();
        Simulation::new(replicas, NetConfig::lan(9))
    }

    fn completions(events: Vec<(VirtualTime, ProcessId, KEvent)>) -> Vec<(Transfer, bool)> {
        events
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                KEvent::Completed { transfer, success } => Some((transfer, success)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn shared_account_transfer_completes() {
        let mut sim = shared_system(4, 2, 100);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(0), a(2), amt(40), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 1);
        assert!(done[0].1, "transfer succeeded");
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).read(a(0)), amt(60), "replica {i}");
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(2)),
                amt(90),
                "replica {i}"
            );
        }
    }

    #[test]
    fn both_owners_can_spend_concurrently() {
        let mut sim = shared_system(4, 2, 100);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(0), a(2), amt(30), ctx);
        });
        sim.schedule(VirtualTime::ZERO, p(1), |replica, ctx| {
            replica.submit(a(0), a(3), amt(30), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|(_, success)| *success));
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).read(a(0)), amt(40), "replica {i}");
        }
    }

    #[test]
    fn overdraw_race_gets_deterministic_failure() {
        // Two owners race to withdraw 70 from a 100-unit account: exactly
        // one succeeds, everywhere.
        let mut sim = shared_system(4, 2, 100);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(0), a(2), amt(70), ctx);
        });
        sim.schedule(VirtualTime::ZERO, p(1), |replica, ctx| {
            replica.submit(a(0), a(3), amt(70), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 2);
        let successes = done.iter().filter(|(_, ok)| *ok).count();
        assert_eq!(successes, 1);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).read(a(0)), amt(30), "replica {i}");
        }
    }

    #[test]
    fn incoming_funds_are_spendable_after_fold() {
        let mut sim = shared_system(4, 2, 10);
        // p2 funds the shared account with 50 ...
        sim.schedule(VirtualTime::ZERO, p(2), |replica, ctx| {
            replica.submit(a(2), a(0), amt(50), ctx);
        });
        // ... and later an owner spends 55 (needs the incoming credit).
        sim.schedule(VirtualTime::from_millis(100), p(0), |replica, ctx| {
            replica.submit(a(0), a(3), amt(55), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|(_, ok)| *ok), "{done:?}");
        for i in 0..4 {
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(0)),
                amt(5),
                "replica {i}"
            );
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(3)),
                amt(105),
                "replica {i}"
            );
        }
    }

    #[test]
    fn non_owner_submission_rejected() {
        let mut sim = shared_system(4, 2, 100);
        sim.schedule(VirtualTime::ZERO, p(3), |replica, ctx| {
            replica.submit(a(0), a(1), amt(1), ctx);
        });
        assert!(sim.run_until_quiet(1_000));
        let events = sim.take_events();
        assert!(matches!(events[0].2, KEvent::Rejected { .. }));
        assert_eq!(sim.stats().messages_sent, 0);
    }

    #[test]
    fn three_owner_account_sequences_through_bft() {
        let mut sim = shared_system(5, 3, 90);
        for i in 0..3u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a(0), a(4), amt(30), ctx);
            });
        }
        assert!(sim.run_until_quiet(5_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|(_, ok)| *ok));
        for i in 0..5 {
            assert_eq!(sim.actor(p(i)).read(a(0)), amt(0), "replica {i}");
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(4)),
                amt(140),
                "replica {i}"
            );
        }
    }

    #[test]
    fn compromised_account_blocks_without_forking() {
        // Two "owners" bypass the BFT service and cast conflicting
        // payloads for the same account sequence number — the compromised
        // account scenario of Section 6.
        let mut sim = shared_system(4, 2, 100);
        let tx0 = Transfer::new(a(0), a(2), amt(60), p(0), SeqNo::new(1));
        let tx1 = Transfer::new(a(0), a(3), amt(60), p(1), SeqNo::new(1));
        sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
            let mut step = Step::new();
            replica.cast.broadcast_at(
                a(0),
                SeqNo::new(1),
                KPayload {
                    transfer: tx0,
                    deps: vec![],
                },
                &mut step,
            );
            replica.absorb_cast(step, ctx);
        });
        sim.schedule(VirtualTime::ZERO, p(1), move |replica, ctx| {
            let mut step = Step::new();
            replica.cast.broadcast_at(
                a(0),
                SeqNo::new(1),
                KPayload {
                    transfer: tx1,
                    deps: vec![],
                },
                &mut step,
            );
            replica.absorb_cast(step, ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        // No process applies both; all applying processes agree.
        let mut applied_amounts: std::collections::HashSet<AccountId> =
            std::collections::HashSet::new();
        for (_, _, event) in sim.take_events() {
            if let KEvent::Applied { transfer, success } = event {
                if success {
                    applied_amounts.insert(transfer.destination);
                }
            }
        }
        assert!(
            applied_amounts.len() <= 1,
            "forked spends: {applied_amounts:?}"
        );

        // Healthy accounts keep working.
        sim.schedule(VirtualTime::from_secs(1), p(2), |replica, ctx| {
            replica.submit(a(2), a(3), amt(10), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completions(sim.take_events());
        assert_eq!(done.len(), 1);
        assert!(done[0].1);
    }

    /// Account 0 (balance 10, owners p0 and p1) streams A1 (12 to
    /// account 3, funded by p2's credit X of 5) and then A2 (5, no
    /// dependencies). Whether X reaches a replica before or after A1,
    /// the account's stream applies in order: A1 succeeds, A2 fails.
    #[test]
    fn verdicts_do_not_depend_on_when_a_credit_arrives() {
        let mut owners = OwnerMap::new();
        owners.add_owner(a(0), p(0));
        owners.add_owner(a(0), p(1));
        for i in 1..4 {
            owners.add_owner(a(i), p(i));
        }
        let initial = [
            (a(0), amt(10)),
            (a(1), amt(50)),
            (a(2), amt(50)),
            (a(3), amt(50)),
        ];
        let credit = Transfer::new(a(2), a(0), amt(5), p(2), SeqNo::new(1));
        let x = (
            a(2),
            KPayload {
                transfer: credit,
                deps: vec![],
            },
        );
        let a1 = Transfer::new(a(0), a(3), amt(12), p(0), SeqNo::new(1));
        let a1 = (
            a(0),
            KPayload {
                transfer: a1,
                deps: vec![credit],
            },
        );
        let a2 = Transfer::new(a(0), a(3), amt(5), p(1), SeqNo::new(1));
        let a2 = (
            a(0),
            KPayload {
                transfer: a2,
                deps: vec![],
            },
        );
        let verdicts = |order: [&(AccountId, KPayload); 3]| {
            let mut replica: KSharedReplica<NoAuth> =
                KSharedReplica::new(p(3), 4, initial, owners.clone(), NoAuth);
            let mut events = Vec::new();
            let mut ctx = Context::detached(VirtualTime::ZERO, p(3), 4, &mut events);
            for (account, payload) in order {
                let mut step = Step::new();
                step.deliver(*account, SeqNo::new(1), payload.clone());
                replica.absorb_cast(step, &mut ctx);
            }
            drop(ctx);
            events
                .into_iter()
                .filter_map(|(_, _, e)| match e {
                    KEvent::Applied { transfer, success } if transfer.source == a(0) => {
                        Some((transfer.amount, success))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let expected = vec![(amt(12), true), (amt(5), false)];
        assert_eq!(verdicts([&x, &a1, &a2]), expected, "credit first");
        assert_eq!(verdicts([&a1, &a2, &x]), expected, "credit last");
    }

    #[test]
    fn debug_and_counters() {
        let owners = OwnerMap::single_owner([(a(0), p(0))]);
        let replica: KSharedReplica<NoAuth> =
            KSharedReplica::new(p(0), 2, [(a(0), amt(5))], owners, NoAuth);
        assert_eq!(replica.applied_count(), 0);
        assert_eq!(replica.read(a(0)), amt(5));
        assert_eq!(replica.read(a(9)), amt(0));
        assert!(format!("{replica:?}").contains("me=p0"));
    }
}
