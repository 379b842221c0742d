//! Adversarial engine participants, generic over the broadcast backend.
//!
//! The scenario subsystem composes workloads with Byzantine behaviours.
//! A participant ([`EngineActor`]) is a replica and a role: honest
//! (no role), or one of the [`Adversary`] behaviours, all speaking the
//! engine's wire format (`B::Msg`) so they sit in the same simulation as
//! honest replicas on any backend:
//!
//! * [`Adversary::Equivocate`] — the classic double spend: two
//!   conflicting batches sent in the *same* broadcast instance to
//!   different halves of the system, via the backend's own
//!   [`SecureBroadcast::broadcast_split`]. Every backend defeats it:
//!   Bracha's echo quorum, the signed-echo anti-equivocation rule, and
//!   the account-order acknowledgement rule each let at most one of the
//!   two payloads certify;
//! * [`Adversary::Overspend`] — a protocol-conformant broadcast of a
//!   transfer the attacker cannot fund (defeated by every correct
//!   replica's balance validation);
//! * [`Adversary::Silent`] — a process that never sends anything, the
//!   crash-faulty extreme (the broadcast tolerates `f < n/3` of these).
//!   It has no replica at all.
//!
//! An attacker keeps an honest [`Replica`] and relays everyone *else's*
//! traffic through it — keeping the honest quorums intact makes the
//! attacks maximally sharp. Both attacks go through that replica's
//! backend ([`Replica::broadcast_split`], [`Replica::broadcast_batch`]),
//! so broadcast-instance sequencing and equivocation state live in
//! exactly one place (the backend); the participant keeps only its
//! crafted-transfer sequence counter, which is application state the
//! broadcast layer never sees.

use crate::config::EngineConfig;
use crate::replica::{EngineEvent, EnginePayload, Replica};
use crate::scenario::Adversary;
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::Batch;
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer, TransferMsg};
use at_net::{Actor, Context};

/// A participant of an engine scenario: a replica and a role.
pub struct EngineActor<B: SecureBroadcast<EnginePayload>> {
    /// The replica; `None` for a silent process, which never steps one.
    replica: Option<Replica<B>>,
    /// `None` for a correct process.
    role: Option<Adversary>,
    /// Sequence number of the latest crafted transfer (application
    /// state; broadcast sequencing belongs to the backend).
    crafted: SeqNo,
}

impl<B: SecureBroadcast<EnginePayload>> EngineActor<B> {
    /// The participant `role` names over `backend`: honest for `None`.
    pub fn new(
        role: Option<Adversary>,
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        let replica = (role != Some(Adversary::Silent))
            .then(|| Replica::with_backend(me, n, initial, config, backend));
        EngineActor {
            replica,
            role,
            crafted: SeqNo::ZERO,
        }
    }

    /// The replica inside, when this participant is honest.
    pub fn as_honest(&self) -> Option<&Replica<B>> {
        self.replica.as_ref().filter(|_| self.role.is_none())
    }

    /// Submits an honest transfer (no-op on non-honest participants —
    /// the scenario driver schedules attacks for those instead).
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        if let (None, Some(replica)) = (self.role, &mut self.replica) {
            replica.submit(destination, amount, ctx);
        }
    }

    /// Records a local balance read on an honest participant (no-op on
    /// the others — attackers and silent processes have no meaningful
    /// local view to observe). See [`Replica::read_op`].
    pub fn read_op(&self, account: AccountId, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        if let Some(replica) = self.as_honest() {
            replica.read_op(account, ctx);
        }
    }

    /// Launches this participant's attack for one wave. An equivocator
    /// splits one broadcast instance: the lower half of the system gets a
    /// transfer of 5 to the next account, the upper half one of 5 to the
    /// account after it, both under the same transfer seq. An overspender
    /// broadcasts a transfer to the next account of an amount no initial
    /// balance covers. `wave` shifts the destinations so repeated attacks
    /// stay distinct.
    pub fn attack(&mut self, wave: usize, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        let (Some(role), Some(replica)) = (self.role, &mut self.replica) else {
            return;
        };
        self.crafted = self.crafted.next();
        let (me, source, seq, n) = (replica.me(), replica.my_account(), self.crafted, ctx.n());
        let craft = |offset: usize, amount: u64| {
            let destination = AccountId::new(((me.as_usize() + offset + wave) % n) as u32);
            let transfer = Transfer::new(source, destination, Amount::new(amount), me, seq);
            Batch::single(TransferMsg {
                transfer,
                deps: vec![],
            })
        };
        match role {
            Adversary::Equivocate => replica.broadcast_split(craft(1, 5), craft(2, 5), ctx),
            Adversary::Overspend => replica.broadcast_batch(craft(1, u64::MAX / 2), ctx),
            Adversary::Silent => {}
        }
    }
}

impl<B: SecureBroadcast<EnginePayload>> Actor for EngineActor<B> {
    type Msg = B::Msg;
    type Event = EngineEvent;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        if let Some(replica) = &mut self.replica {
            replica.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        if let Some(replica) = &mut self.replica {
            replica.on_timer(timer, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_broadcast::auth::NoAuth;
    use at_broadcast::bracha::BrachaBroadcast;
    use at_broadcast::echo::EchoBroadcast;
    use at_broadcast::secure::AccountOrderBackend;
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

    fn mixed_system<B, F>(
        n: usize,
        byzantine: u32,
        make_backend: F,
        role: Adversary,
    ) -> Simulation<EngineActor<B>>
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        F: Fn(ProcessId) -> B,
    {
        let actors = (0..n as u32)
            .map(|i| {
                let role = (i == byzantine).then_some(role);
                let config = EngineConfig::unbatched();
                EngineActor::new(role, p(i), n, amt(100), config, make_backend(p(i)))
            })
            .collect();
        Simulation::new(actors, NetConfig::lan(9))
    }

    fn assert_no_double_spend<B: SecureBroadcast<EnginePayload> + 'static>(
        sim: &mut Simulation<EngineActor<B>>,
        byzantine: u32,
        n: usize,
    ) {
        sim.schedule(VirtualTime::ZERO, p(byzantine), |actor, ctx| {
            actor.attack(0, ctx)
        });
        assert!(sim.run_until_quiet(1_000_000));
        // No correct replica applied anything from the equivocator: the
        // split instance cannot certify either payload on any backend.
        for i in 0..n as u32 {
            if i == byzantine {
                continue;
            }
            let replica = sim.actor(p(i)).as_honest().unwrap();
            assert_eq!(replica.applied_from(p(byzantine)).len(), 0, "replica {i}");
            let total: Amount = (0..n as u32).map(|j| replica.balance(a(j))).sum();
            assert_eq!(total, amt(100 * n as u64));
        }
    }

    #[test]
    fn equivocation_never_double_applies_on_any_backend() {
        let n = 4;
        let mut sim = mixed_system(
            n,
            0,
            |me| BrachaBroadcast::new(me, n),
            Adversary::Equivocate,
        );
        assert_no_double_spend(&mut sim, 0, n);
        let mut sim = mixed_system(
            n,
            0,
            |me| EchoBroadcast::new(me, n, NoAuth),
            Adversary::Equivocate,
        );
        assert_no_double_spend(&mut sim, 0, n);
        let mut sim = mixed_system(
            n,
            0,
            |me| AccountOrderBackend::new(me, n, NoAuth),
            Adversary::Equivocate,
        );
        assert_no_double_spend(&mut sim, 0, n);
    }

    #[test]
    fn overspend_is_delivered_but_never_validates() {
        let n = 4;
        let mut sim = mixed_system(n, 1, |me| BrachaBroadcast::new(me, n), Adversary::Overspend);
        sim.schedule(VirtualTime::ZERO, p(1), |actor, ctx| actor.attack(0, ctx));
        assert!(sim.run_until_quiet(1_000_000));
        for i in [0usize, 2, 3] {
            let replica = sim.actor(p(i as u32)).as_honest().unwrap();
            assert_eq!(replica.applied_from(p(1)).len(), 0, "replica {i}");
            assert_eq!(replica.pending_count(), 1, "replica {i}");
        }
    }

    #[test]
    fn silent_process_does_not_block_progress() {
        let n = 4;
        let actors = (0..n as u32)
            .map(|i| {
                let role = (i == 3).then_some(Adversary::Silent);
                let backend = BrachaBroadcast::new(p(i), n);
                EngineActor::new(role, p(i), n, amt(100), EngineConfig::unbatched(), backend)
            })
            .collect();
        let mut sim = Simulation::new(actors, NetConfig::lan(4));
        sim.schedule(VirtualTime::ZERO, p(0), |actor, ctx| {
            actor.submit(a(1), amt(30), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let completions = sim
            .take_events()
            .into_iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
            .count();
        assert_eq!(completions, 1);
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).as_honest().unwrap().balance(a(1)), amt(130));
        }
    }

    #[test]
    fn attack_on_honest_actor_is_a_no_op() {
        let n = 3;
        let actors = (0..n as u32)
            .map(|i| {
                let role = (i > 0).then_some(Adversary::Silent);
                let backend = BrachaBroadcast::new(p(i), n);
                EngineActor::new(role, p(i), n, amt(10), EngineConfig::unbatched(), backend)
            })
            .collect();
        let mut sim = Simulation::new(actors, NetConfig::instant(0));
        assert!(sim.actor(p(0)).as_honest().is_some());
        assert!(sim.actor(p(1)).as_honest().is_none());
        // An honest process has no attack, and a silent one neither
        // submits nor attacks (and must not panic trying).
        sim.schedule(VirtualTime::ZERO, p(0), |actor, ctx| actor.attack(0, ctx));
        sim.schedule(VirtualTime::ZERO, p(1), |actor, ctx| {
            actor.submit(a(2), amt(1), ctx);
            actor.attack(0, ctx);
        });
        assert!(sim.run_until_quiet(100));
        assert_eq!(sim.stats().messages_sent, 0);
        assert!(sim.take_events().is_empty());
    }
}
