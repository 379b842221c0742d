//! Seeded mutations (`broken` feature): deliberately defective backends
//! the explorer must catch — the harness's proof of its own teeth.
//!
//! A model checker that has never failed might be exploring nothing. CI
//! therefore runs the explorer against three known-bad backends and
//! asserts a violation is found:
//!
//! * [`broken_quorum_echo`] — signed echo with its quorum lowered one
//!   below the intersection threshold. An equivocating sender can then
//!   certify **both** sides of a split broadcast; whether correct
//!   replicas diverge depends on which FINAL each one processes first —
//!   a bug only visible under schedule reordering, i.e. exactly what the
//!   explorer exists to find.
//! * [`FifoBreaker`] — a wrapper that withholds the first delivery from
//!   every source and releases it after the second, breaking the
//!   per-source FIFO contract on any source that broadcasts twice.
//! * [`vote_forgetting_pbft`] — PBFT as it was before its pre-prepare
//!   stopped discarding the votes that overtook it: a replica that
//!   hears `2f + 1` `PREPARE`s before the leader's `PRE-PREPARE` never
//!   prepares the slot, executes nothing from there on and ends apart
//!   from the others. LAN jitter never reorders the two; the explorer
//!   does.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::pbft::PbftBroadcast;
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::types::{Delivery, Step};
use at_engine::EnginePayload;
use at_model::{Encode, ProcessId, SeqNo};
use std::collections::BTreeMap;

/// A signed-echo endpoint whose quorum is one below `⌈(n+f+1)/2⌉` —
/// quorum intersection no longer holds.
pub fn broken_quorum_echo(me: ProcessId, n: usize) -> EchoBroadcast<EnginePayload, NoAuth> {
    let mut endpoint = EchoBroadcast::new(me, n, NoAuth);
    let quorum = endpoint.quorum();
    endpoint.set_quorum_override(quorum.saturating_sub(1));
    endpoint
}

/// A PBFT endpoint whose pre-prepare clears its slot's votes
/// unconditionally (the behaviour before the fix).
pub fn vote_forgetting_pbft(me: ProcessId, n: usize) -> PbftBroadcast<EnginePayload> {
    let mut endpoint = PbftBroadcast::new(me, n);
    endpoint.set_forget_early_votes();
    endpoint
}

enum Hold<P> {
    /// The source's first delivery is being withheld.
    Holding(Delivery<P>),
    /// The swap already happened; pass everything through.
    Released,
}

/// A delivery-reordering wrapper around any [`SecureBroadcast`]: per
/// source, the first delivered payload is withheld and released right
/// *after* the second — every observer sees `2, 1, 3, 4, …`.
pub struct FifoBreaker<B> {
    inner: B,
    held: BTreeMap<ProcessId, Hold<EnginePayload>>,
}

impl<B> FifoBreaker<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        FifoBreaker {
            inner,
            held: BTreeMap::new(),
        }
    }

    fn filter<M>(&mut self, native: Step<M, EnginePayload>, step: &mut Step<M, EnginePayload>) {
        step.outgoing.extend(native.outgoing);
        for delivery in native.deliveries {
            match self.held.get_mut(&delivery.source) {
                None => {
                    self.held.insert(delivery.source, Hold::Holding(delivery));
                }
                Some(slot @ Hold::Holding(_)) => {
                    let Hold::Holding(first) = std::mem::replace(slot, Hold::Released) else {
                        unreachable!("matched Holding");
                    };
                    step.deliveries.push(delivery);
                    step.deliveries.push(first);
                }
                Some(Hold::Released) => step.deliveries.push(delivery),
            }
        }
    }
}

impl<B> SecureBroadcast<EnginePayload> for FifoBreaker<B>
where
    B: SecureBroadcast<EnginePayload>,
    EnginePayload: Clone + Encode + Send,
{
    type Msg = B::Msg;

    fn broadcast(
        &mut self,
        payload: EnginePayload,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) -> SeqNo {
        let mut native = Step::new();
        let seq = self.inner.broadcast(payload, &mut native);
        self.filter(native, step);
        seq
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) {
        let mut native = Step::new();
        self.inner.on_message(from, msg, &mut native);
        self.filter(native, step);
    }

    fn broadcast_split(
        &mut self,
        left: EnginePayload,
        right: EnginePayload,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) -> SeqNo {
        let mut native = Step::new();
        let seq = self.inner.broadcast_split(left, right, &mut native);
        self.filter(native, step);
        seq
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.inner.delivered_count()
    }
}

#[cfg(test)]
mod tests {
    use super::{broken_quorum_echo, vote_forgetting_pbft, FifoBreaker};
    use crate::harness::{explore_with, standard_check_scenarios, CheckScenario, ExploreBudget};
    use crate::FailureKind;
    use at_broadcast::bracha::BrachaBroadcast;

    #[test]
    fn broken_quorum_is_caught_by_exploration() {
        let scenario = &standard_check_scenarios()[2];
        assert_eq!(scenario.name, "equivocator");
        // The divergence only shows on schedules where two replicas
        // process the two FINALs in opposite orders — a minority of
        // random walks — so this check runs the full smoke budget.
        let n = scenario.n;
        let report = explore_with(scenario, "broken-quorum", &ExploreBudget::smoke(), |me| {
            broken_quorum_echo(me, n)
        });
        assert!(
            !report.violations.is_empty(),
            "the quorum off-by-one mutation escaped {} schedules",
            report.distinct_schedules
        );
        // The violation is a safety failure, not a harness artifact.
        assert!(report.violations.iter().all(|c| matches!(
            c.failure.kind,
            FailureKind::Conflict | FailureKind::Divergence | FailureKind::NotLinearizable
        )));
    }

    #[test]
    fn fifo_violation_is_caught_on_every_schedule_with_a_double_sender() {
        // p0 broadcasts twice: the wrapper swaps its first two deliveries
        // at every replica.
        let scenario = CheckScenario::new("double-sender", 3, 10, vec![(0, 1, 1), (0, 2, 1)]);
        let report = explore_with(&scenario, "broken-fifo", &ExploreBudget::quick(), |me| {
            FifoBreaker::new(BrachaBroadcast::new(me, 3))
        });
        assert!(!report.violations.is_empty(), "FIFO mutation escaped");
        assert!(report
            .violations
            .iter()
            .any(|c| c.failure.kind == FailureKind::Contract));
    }

    #[test]
    fn forgotten_pbft_votes_are_caught_by_exploration() {
        // Any of the three n = 4 scenarios: what matters is a schedule
        // that hands some replica its peers' PREPAREs first.
        let budget = ExploreBudget::quick();
        let violations: Vec<_> = standard_check_scenarios()[2..]
            .iter()
            .flat_map(|scenario| {
                let n = scenario.n;
                let make = |me| vote_forgetting_pbft(me, n);
                explore_with(scenario, "broken-pbft-votes", &budget, make).violations
            })
            .collect();
        let first = violations
            .first()
            .expect("the vote-forgetting mutation escaped the quick budget");
        println!("{first}");
        // A wedged replica is a liveness failure, seen as replicas that
        // ended apart; nothing unsafe was applied anywhere.
        assert!(violations
            .iter()
            .all(|c| c.failure.kind == FailureKind::Divergence));
    }
}
