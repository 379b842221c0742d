//! Invariant probes, and the one validator battery built from them:
//! turning an engine event stream into checkable artifacts.
//!
//! The schedule explorer (`at-check`) and the chaos runner (`at-chaos`)
//! reduce a run to a [`RecordedRun`] and apply [`validate_recorded`]; the
//! scenario driver folds its conflict, digest and supply checks into a
//! [`crate::ScenarioReport`] as the events stream past. Every check reads
//! the `(time, process, event)` stream a runtime emits, or the final
//! digests and supplies — never replica internals — so all three judge
//! the same executions the same way.
//!
//! # History reconstruction
//!
//! The event stream is in execution order, which is a valid real-time
//! order for the history:
//!
//! * [`EngineEvent::Submitted`] opens a transfer operation's interval;
//!   the matching [`EngineEvent::Completed`] (same `(originator, seq)`)
//!   closes it with `true`;
//! * [`EngineEvent::Rejected`] does **not** enter the history. A negative
//!   response is Figure 4's line-2 admission check against the replica's
//!   *local* balance, and that local view may lag a credit that already
//!   completed at its sender — so a rejection is justified by a prefix of
//!   the linearization, not by the real-time point of its invocation.
//!   (The schedule explorer demonstrably reaches such executions; this is
//!   a documented property of the paper's protocol, not a bug.)
//!   Rejections are instead checked structurally:
//!   [`rejections_locally_justified`] asserts each one was genuinely
//!   short of funds in the rejecting replica's view;
//! * [`EngineEvent::ReadObserved`] is an instantaneous read;
//! * an [`EngineEvent::Applied`] whose transfer originates at a process
//!   *outside* the correct set records a Byzantine process's transfer
//!   taking effect. It enters the history as a **pending** operation at
//!   its first application: the paper's completion construction lets the
//!   checker linearize it wherever the correct processes' observations
//!   require — or drop it if it never mattered. Leaving it pending (and
//!   not pinning a response) is deliberate: different replicas apply it
//!   at different times, so any closed interval we invented could be
//!   contradicted by a correct process's read.

use crate::replica::EngineEvent;
use at_model::history::{History, OpId, Operation, Response};
use at_model::{linearizable, Amount, CheckBudget, CheckOutcome, Ledger, ProcessId, Transfer};
use at_net::VirtualTime;
use std::collections::BTreeMap;

/// One engine event as a simulation surfaces it.
pub type TimedEvent = (VirtualTime, ProcessId, EngineEvent);

/// Reconstructs the concurrent history of the correct processes from an
/// engine event stream (see the [module docs](self)).
///
/// `is_correct` decides whose operations enter the history; events of
/// other processes are ignored except for their transfers' applications
/// at correct replicas, which enter as pending operations.
pub fn history_from_events(
    events: &[TimedEvent],
    is_correct: impl Fn(ProcessId) -> bool,
) -> History {
    let mut history = History::new();
    let mut open: BTreeMap<(ProcessId, u64), OpId> = BTreeMap::new();
    let mut byzantine_seen: BTreeMap<Transfer, OpId> = BTreeMap::new();
    for (_, process, event) in events {
        match event {
            EngineEvent::Submitted { transfer } if is_correct(*process) => {
                let id = history.invoke(
                    *process,
                    Operation::Transfer {
                        source: transfer.source,
                        destination: transfer.destination,
                        amount: transfer.amount,
                    },
                );
                open.insert((transfer.originator, transfer.seq.value()), id);
            }
            EngineEvent::Completed { transfer } if is_correct(*process) => {
                if let Some(id) = open.remove(&(transfer.originator, transfer.seq.value())) {
                    history.respond(id, Response::Transfer(true));
                }
            }
            EngineEvent::ReadObserved { account, balance } if is_correct(*process) => {
                let id = history.invoke(*process, Operation::Read { account: *account });
                history.respond(id, Response::Read(*balance));
            }
            EngineEvent::Applied { transfer }
                if is_correct(*process) && !is_correct(transfer.originator) =>
            {
                byzantine_seen.entry(*transfer).or_insert_with(|| {
                    history.invoke(
                        transfer.originator,
                        Operation::Transfer {
                            source: transfer.source,
                            destination: transfer.destination,
                            amount: transfer.amount,
                        },
                    )
                });
            }
            _ => {}
        }
    }
    history
}

/// The invariant class a [`Failure`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The reconstructed history admits no legal linearization.
    NotLinearizable,
    /// Correct replicas ended in different ledger states.
    Divergence,
    /// One `(source, seq)` resolved to two different transfers.
    Conflict,
    /// A backend broke the FIFO-exactly-once delivery contract.
    Contract,
    /// A replica rejected a submission it could actually fund (negative
    /// responses must be justified by the local balance).
    UnjustifiedRejection,
    /// A correct replica's total supply changed.
    Supply,
    /// The execution failed to quiesce within the step cap.
    Incomplete,
    /// A transport gave up on frames (`dropped_frames() > 0` or
    /// discarded ingest), so the reliable-channel regime the protocols
    /// assume did not hold — live-cluster runs (`at-chaos`) must end
    /// with every injected fault healed *and* zero real loss.
    FrameLoss,
}

/// One invariant violation with its human-readable evidence.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The invariant class.
    pub kind: FailureKind,
    /// Evidence (history dump, digests, the offending delivery, …).
    pub detail: String,
}

/// Checks every [`EngineEvent::Rejected`] of an accepted observer for
/// local justification, mirroring both admission conditions of
/// [`crate::replica::Replica::submit`]: the requested amount
/// exceeded the available balance the replica reported at rejection
/// time, *or* the destination does not exist per `account_exists` (the
/// harness's knowledge of the ledger topology). This is the
/// rejection-side probe complementing [`history_from_events`] (which
/// keeps negative responses *out* of the real-time history — see the
/// [module docs](self)). Names the offending event on failure.
pub fn rejections_locally_justified(
    events: &[TimedEvent],
    include_observer: impl Fn(ProcessId) -> bool,
    account_exists: impl Fn(at_model::AccountId) -> bool,
) -> Result<(), Failure> {
    for (_, observer, event) in events {
        if let EngineEvent::Rejected {
            destination,
            amount,
            available,
        } = event
        {
            if include_observer(*observer) && amount <= available && account_exists(*destination) {
                return Err(Failure {
                    kind: FailureKind::UnjustifiedRejection,
                    detail: format!("replica {observer} rejected a fundable submission: {event:?}"),
                });
            }
        }
    }
    Ok(())
}

/// Checks the per-source FIFO-exactly-once delivery contract
/// ([`at_broadcast::secure`]) over the [`EngineEvent::BackendDelivery`]
/// events of every observer accepted by `include_observer`: at each
/// observer, each source's delivered sequence numbers must read exactly
/// `1, 2, 3, …` — gapless, in order, without repetition. (A *shorter*
/// prefix is fine: lossy links may keep later instances from completing.)
pub fn check_fifo_contract(
    events: &[TimedEvent],
    include_observer: impl Fn(ProcessId) -> bool,
) -> Result<(), Failure> {
    let mut next: BTreeMap<(ProcessId, ProcessId), u64> = BTreeMap::new();
    for (_, observer, event) in events {
        if let EngineEvent::BackendDelivery { source, seq } = event {
            if !include_observer(*observer) {
                continue;
            }
            let slot = next.entry((*observer, *source)).or_insert(1);
            if seq.value() != *slot {
                return Err(Failure {
                    kind: FailureKind::Contract,
                    detail: format!(
                        "replica {observer} saw seq {seq} from {source} where the \
                         FIFO-exactly-once contract requires {slot}"
                    ),
                });
            }
            *slot += 1;
        }
    }
    Ok(())
}

/// The first transfer correct replicas applied under each `(source,
/// seq)`, folded one [`EngineEvent::Applied`] at a time — so a run is
/// checked for conflicts without keeping its event stream. Every later
/// application is compared with that first one, however many replicas
/// applied it and however often.
#[derive(Clone, Debug, Default)]
pub(crate) struct AppliedBySeq {
    /// Per source, the first transfer under seq `1, 2, …`: a dense
    /// vector, since a replica applies a source's transfers in seq order.
    first: BTreeMap<ProcessId, Vec<Transfer>>,
    /// The first transfer under a seq first seen past its source's vector.
    out_of_order: BTreeMap<(ProcessId, u64), Transfer>,
    /// Every transfer applied under a `(source, seq)` that has several.
    conflicting: BTreeMap<(ProcessId, u64), Vec<Transfer>>,
}

impl AppliedBySeq {
    /// Records `transfer` as applied at a correct replica.
    pub(crate) fn record(&mut self, transfer: Transfer) {
        let (source, seq) = (transfer.originator, transfer.seq.value());
        let dense = self.first.entry(source).or_default();
        let len = dense.len() as u64;
        let first = if (1..=len).contains(&seq) {
            dense[seq as usize - 1]
        } else if let Some(first) = self.out_of_order.get(&(source, seq)) {
            *first
        } else {
            if seq == len + 1 {
                dense.push(transfer);
            } else {
                self.out_of_order.insert((source, seq), transfer);
            }
            return;
        };
        if first != transfer {
            let seen = self
                .conflicting
                .entry((source, seq))
                .or_insert_with(|| vec![first]);
            if !seen.contains(&transfer) {
                seen.push(transfer);
            }
        }
    }

    /// How many `(source, seq)` resolved to more than one transfer.
    pub(crate) fn conflicts(&self) -> usize {
        self.conflicting.len()
    }

    /// The first conflicting `(source, seq)`, as a failure.
    pub(crate) fn check(&self) -> Result<(), Failure> {
        match self.conflicting.iter().next() {
            None => Ok(()),
            Some(((source, seq), seen)) => Err(Failure {
                kind: FailureKind::Conflict,
                detail: format!(
                    "({source}, seq {seq}) resolved to {} different transfers: {seen:?}",
                    seen.len()
                ),
            }),
        }
    }
}

/// Agreement: every `(replica, ledger digest)` names the same digest.
pub(crate) fn check_digests(digests: &[(ProcessId, u64)]) -> Result<(), Failure> {
    if digests.windows(2).all(|w| w[0].1 == w[1].1) {
        return Ok(());
    }
    Err(Failure {
        kind: FailureKind::Divergence,
        detail: format!("correct replicas diverged: digests {digests:?}"),
    })
}

/// Conservation: every `(replica, total supply)` is `expected`.
pub(crate) fn check_supply(supplies: &[(ProcessId, u64)], expected: u64) -> Result<(), Failure> {
    match supplies.iter().find(|(_, supply)| *supply != expected) {
        None => Ok(()),
        Some((p, supply)) => Err(Failure {
            kind: FailureKind::Supply,
            detail: format!("replica {p}: supply {supply} != {expected}"),
        }),
    }
}

/// One finished execution reduced to what the invariants need — the
/// common denominator of a simulated run (at-check builds one from a
/// drained simulation) and a recorded live-cluster run (at-chaos builds
/// one from an `at_node::EventProbe` recording plus the cluster's final
/// reports).
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// System size (processes == accounts).
    pub n: usize,
    /// Initial balance of every account.
    pub initial: u64,
    /// The merged engine event stream, in a real-time-consistent order.
    pub events: Vec<TimedEvent>,
    /// Final ledger digest of every replica in the agreement set.
    pub digests: Vec<(ProcessId, u64)>,
    /// Final total supply of every correct replica.
    pub supplies: Vec<(ProcessId, u64)>,
}

/// Checks every safety invariant of one [`RecordedRun`] — the battery
/// at-check applies per explored schedule and at-chaos per live run.
/// Returns `(failure, unknown)` where `unknown` marks a linearizability
/// check that exhausted its node budget (neither verdict).
///
/// The battery, in order: negative admission responses are justified by
/// the rejecting replica's local balance
/// ([`rejections_locally_justified`]); every backend delivery stream is
/// per-source FIFO-exactly-once ([`check_fifo_contract`]); no
/// `(source, seq)` resolves to two different transfers at correct
/// observers (`AppliedBySeq`); agreement-set digests agree
/// (`check_digests`); every correct replica conserves the supply
/// (`check_supply`); and the reconstructed client history linearizes
/// ([`at_model::linearizable`]).
pub fn validate_recorded(
    run: &RecordedRun,
    is_correct: impl Fn(ProcessId) -> bool,
    check_nodes: usize,
) -> (Option<Failure>, bool) {
    if let Err(failure) = check_safety(run, &is_correct) {
        return (Some(failure), false);
    }
    let history = history_from_events(&run.events, &is_correct);
    let initial = Ledger::uniform(run.n, Amount::new(run.initial));
    match linearizable(&history, &initial, CheckBudget::nodes(check_nodes)) {
        CheckOutcome::Linearizable { .. } => (None, false),
        CheckOutcome::NotLinearizable => (
            Some(Failure {
                kind: FailureKind::NotLinearizable,
                detail: format!("history:\n{history}"),
            }),
            false,
        ),
        // Exhaustion is always "unchecked", even at explored == 0 (a
        // zero-node budget must not silently certify executions).
        CheckOutcome::BudgetExhausted { .. } => (None, true),
    }
}

/// Every check of [`validate_recorded`] but linearizability.
fn check_safety(run: &RecordedRun, is_correct: &impl Fn(ProcessId) -> bool) -> Result<(), Failure> {
    // Negative responses stay out of the real-time history (see the
    // module docs) but must each be justified by the rejecting replica's
    // local balance.
    let exists = |account: at_model::AccountId| (account.index() as usize) < run.n;
    rejections_locally_justified(&run.events, is_correct, exists)?;
    // The backend delivery contract, observed at every correct replica
    // (including a crash/restart victim: loss shortens its delivered
    // prefix but never reorders it).
    check_fifo_contract(&run.events, is_correct)?;
    let mut applied = AppliedBySeq::default();
    for (_, observer, event) in &run.events {
        if let EngineEvent::Applied { transfer } = event {
            if is_correct(*observer) {
                applied.record(*transfer);
            }
        }
    }
    applied.check()?;
    check_digests(&run.digests)?;
    check_supply(&run.supplies, run.initial * run.n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::replica::Replica;
    use at_broadcast::bracha::BrachaBroadcast;
    use at_model::{AccountId, Amount, Ledger, SeqNo};
    use at_net::{NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    fn run_events(n: usize, submit: Vec<(u32, u32, u64)>) -> Vec<TimedEvent> {
        let replicas = (0..n as u32)
            .map(|i| {
                let backend = BrachaBroadcast::new(p(i), n);
                Replica::with_backend(p(i), n, amt(100), EngineConfig::unbatched(), backend)
            })
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::instant(1));
        for (from, to, amount) in submit {
            sim.schedule(VirtualTime::ZERO, p(from), move |replica, ctx| {
                replica.submit(a(to), amt(amount), ctx);
            });
        }
        assert!(sim.run_until_quiet(1_000_000));
        for i in 0..n as u32 {
            sim.schedule(sim.now(), p(0), move |replica, ctx| {
                replica.read_op(a(i), ctx);
            });
        }
        assert!(sim.run_until_quiet(1_000));
        sim.take_events()
    }

    #[test]
    fn reconstructed_history_linearizes() {
        let events = run_events(3, vec![(0, 1, 30), (1, 2, 10), (2, 0, 5)]);
        let history = history_from_events(&events, |_| true);
        // 3 transfers + 3 final reads, all complete.
        assert_eq!(history.op_count(), 6);
        assert!(history.is_complete());
        let initial = Ledger::uniform(3, amt(100));
        assert!(linearizable(&history, &initial, CheckBudget::UNLIMITED).is_linearizable());
    }

    #[test]
    fn rejections_stay_out_of_the_history_but_are_justified() {
        let events = run_events(2, vec![(0, 1, 1_000)]);
        // The overdraft never entered the history (negative responses are
        // local-prefix-justified, not real-time linearizable)…
        let history = history_from_events(&events, |_| true);
        assert!(history
            .records()
            .iter()
            .all(|r| r.response != Some(Response::Transfer(false))));
        // …but the rejection event exists and is locally justified.
        assert!(events
            .iter()
            .any(|(_, _, e)| matches!(e, EngineEvent::Rejected { .. })));
        assert!(rejections_locally_justified(&events, |_| true, |a| a.index() < 2).is_ok());
        let initial = Ledger::uniform(2, amt(100));
        assert!(linearizable(&history, &initial, CheckBudget::UNLIMITED).is_linearizable());
    }

    #[test]
    fn unjustified_rejection_is_flagged() {
        // A hand-built Rejected event claiming rejection despite
        // sufficient available funds and a real destination.
        let events: Vec<TimedEvent> = vec![(
            VirtualTime::ZERO,
            p(0),
            EngineEvent::Rejected {
                destination: a(1),
                amount: amt(5),
                available: amt(50),
            },
        )];
        let exists = |account: AccountId| account.index() < 3;
        assert!(rejections_locally_justified(&events, |_| true, exists).is_err());
        assert!(rejections_locally_justified(&events, |q| q != p(0), exists).is_ok());
        // The same event justified by a nonexistent destination: the
        // replica's second admission condition, not a violation.
        assert!(rejections_locally_justified(&events, |_| true, |a| a.index() != 1).is_ok());
    }

    #[test]
    fn byzantine_applications_enter_as_pending_ops() {
        // Hand-built stream: p1 (Byzantine by fiat of the filter) has a
        // transfer applied at the two correct replicas.
        let t = Transfer::new(a(1), a(0), amt(5), p(1), SeqNo::new(1));
        let events: Vec<TimedEvent> = vec![
            (
                VirtualTime::ZERO,
                p(0),
                EngineEvent::Applied { transfer: t },
            ),
            (
                VirtualTime::ZERO,
                p(2),
                EngineEvent::Applied { transfer: t },
            ),
        ];
        let history = history_from_events(&events, |q| q != p(1));
        // Applied twice, invoked once, never responded.
        assert_eq!(history.op_count(), 1);
        assert!(!history.is_complete());
        let initial = Ledger::uniform(3, amt(100));
        assert!(linearizable(&history, &initial, CheckBudget::UNLIMITED).is_linearizable());
    }

    #[test]
    fn every_application_is_judged_against_the_first_under_its_seq() {
        let t = |to: u32, seq: u64| Transfer::new(a(0), a(to), amt(5), p(0), SeqNo::new(seq));
        let mut applied = AppliedBySeq::default();
        // Seq 1: three applications agree. Seq 2: two disagree.
        for transfer in [t(1, 1), t(1, 1), t(1, 1), t(1, 2), t(2, 2)] {
            applied.record(transfer);
        }
        assert_eq!(applied.first[&p(0)], vec![t(1, 1), t(1, 2)]);
        assert_eq!(applied.conflicts(), 1);
        let failure = applied.check().unwrap_err();
        assert_eq!(failure.kind, FailureKind::Conflict);
        assert!(
            failure.detail.contains("seq 2) resolved to 2"),
            "{}",
            failure.detail
        );
        applied.record(t(2, 2));
        assert_eq!(applied.conflicts(), 1, "a repeat adds nothing");
        // However often seq 1 was applied, a different transfer under it
        // is a conflict.
        applied.record(t(2, 1));
        assert_eq!(applied.conflicts(), 2);
        // A seq first seen past the vector's end is judged the same way,
        // also once the vector has caught up with it.
        applied.record(t(1, 4));
        applied.record(t(1, 3));
        assert_eq!(applied.first[&p(0)].len(), 3);
        applied.record(t(2, 4));
        assert_eq!(applied.conflicts(), 3);
        applied.record(t(1, 4));
        assert_eq!(applied.conflicts(), 3);
    }

    #[test]
    fn fifo_contract_holds_on_a_clean_run() {
        let events = run_events(3, vec![(0, 1, 1), (0, 2, 1), (1, 0, 1)]);
        assert!(check_fifo_contract(&events, |_| true).is_ok());
        // Deliveries actually happened (the probe is not vacuous).
        let deliveries = events
            .iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::BackendDelivery { .. }))
            .count();
        assert!(deliveries >= 9, "deliveries: {deliveries}");
    }

    #[test]
    fn fifo_contract_flags_gaps_reorders_and_duplicates() {
        let delivery = |observer: u32, source: u32, seq: u64| -> TimedEvent {
            (
                VirtualTime::ZERO,
                p(observer),
                EngineEvent::BackendDelivery {
                    source: p(source),
                    seq: SeqNo::new(seq),
                },
            )
        };
        // Gap: 1 then 3.
        let events = vec![delivery(0, 1, 1), delivery(0, 1, 3)];
        let violation = check_fifo_contract(&events, |_| true).unwrap_err();
        assert_eq!(violation.kind, FailureKind::Contract);
        assert!(
            violation.detail.contains("saw seq 3"),
            "{}",
            violation.detail
        );
        assert!(violation.detail.contains("contract requires 2"));
        // Duplicate: 1 then 1.
        let events = vec![delivery(0, 1, 1), delivery(0, 1, 1)];
        assert!(check_fifo_contract(&events, |_| true).is_err());
        // Reorder: 2 before 1.
        let events = vec![delivery(0, 1, 2), delivery(0, 1, 1)];
        assert!(check_fifo_contract(&events, |_| true).is_err());
        // The filter exempts excluded observers.
        assert!(check_fifo_contract(&events, |q| q != p(0)).is_ok());
    }
}
