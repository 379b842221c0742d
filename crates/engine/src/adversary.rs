//! Adversarial engine participants, generic over the broadcast backend.
//!
//! The scenario subsystem composes workloads with Byzantine behaviours;
//! this module provides the attacker actors, all speaking the engine's
//! wire format (`B::Msg`) so they can sit in the same simulation as
//! honest replicas on any backend:
//!
//! * [`EngineActor::Equivocator`] — the classic double spend: two
//!   conflicting batches sent in the *same* broadcast instance to
//!   different halves of the system, via the backend's own
//!   [`SecureBroadcast::broadcast_split`]. Every backend defeats it:
//!   Bracha's echo quorum, the signed-echo anti-equivocation rule, and
//!   the account-order acknowledgement rule each let at most one of the
//!   two payloads certify;
//! * [`EngineActor::Overspender`] — a protocol-conformant broadcast of a
//!   transfer the attacker cannot fund (defeated by every correct
//!   replica's balance validation);
//! * [`EngineActor::Silent`] — a process that never sends anything, the
//!   crash-faulty extreme (the broadcast tolerates `f < n/3` of these).
//!
//! The equivocator and overspender embed an honest [`ShardedReplica`]
//! and relay everyone *else's* traffic through it — keeping the honest
//! quorums intact makes the attacks maximally sharp. Both attacks go
//! through the embedded replica's backend, so broadcast-instance
//! sequencing and equivocation state live in exactly one place (the
//! backend); the attacker keeps only its *transfer*-level sequence
//! counter, which is application state the broadcast layer never sees.

use crate::config::EngineConfig;
use crate::replica::{EngineEvent, EnginePayload, ShardedReplica};
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::Batch;
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer, TransferMsg};
use at_net::{Actor, Context};

/// Internal state shared by the attacking variants.
pub struct AttackerState<B: SecureBroadcast<EnginePayload>> {
    /// The honest engine used to relay other processes' traffic and to
    /// reach the backend's broadcast state machine.
    inner: ShardedReplica<B>,
    /// Transfer sequence counter for crafted transfers (application
    /// state; broadcast sequencing belongs to the backend).
    attack_transfer_seq: SeqNo,
}

impl<B: SecureBroadcast<EnginePayload>> AttackerState<B> {
    fn new(me: ProcessId, n: usize, initial: Amount, config: EngineConfig, backend: B) -> Self {
        AttackerState {
            inner: ShardedReplica::with_backend(me, n, initial, config, backend),
            attack_transfer_seq: SeqNo::ZERO,
        }
    }

    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn my_account(&self) -> AccountId {
        self.inner.my_account()
    }

    fn craft(&mut self, destination: AccountId, amount: Amount) -> TransferMsg {
        TransferMsg {
            transfer: Transfer::new(
                self.my_account(),
                destination,
                amount,
                self.me(),
                self.attack_transfer_seq,
            ),
            deps: vec![],
        }
    }

    /// Sends batch `left` to the lower half of the system and batch
    /// `right` to the upper half, both in the same broadcast instance and
    /// with the same transfer sequence number — the double-spend attempt.
    fn equivocate(
        &mut self,
        left: (AccountId, Amount),
        right: (AccountId, Amount),
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        self.attack_transfer_seq = self.attack_transfer_seq.next();
        let payload_left = Batch::single(self.craft(left.0, left.1));
        let payload_right = Batch::single(self.craft(right.0, right.1));
        self.inner.broadcast_split(payload_left, payload_right, ctx);
    }

    /// Broadcasts (fully protocol-conformant at the broadcast layer) a
    /// transfer of `amount`, regardless of the attacker's balance.
    fn overspend(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        self.attack_transfer_seq = self.attack_transfer_seq.next();
        let batch = Batch::single(self.craft(destination, amount));
        self.inner.broadcast_batch(batch, ctx);
    }
}

/// A participant of an engine scenario: honest, or one of the attack
/// variants.
pub enum EngineActor<B: SecureBroadcast<EnginePayload> = crate::replica::DefaultEngineBroadcast> {
    /// A correct replica.
    Honest(ShardedReplica<B>),
    /// Double-spends by equivocating at the broadcast layer.
    Equivocator(AttackerState<B>),
    /// Broadcasts transfers it cannot fund.
    Overspender(AttackerState<B>),
    /// Sends nothing, ever.
    Silent,
}

impl<B: SecureBroadcast<EnginePayload>> EngineActor<B> {
    /// A correct participant over `backend`.
    pub fn honest(
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        EngineActor::Honest(ShardedReplica::with_backend(
            me, n, initial, config, backend,
        ))
    }

    /// An equivocating participant over `backend`.
    pub fn equivocator(
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        EngineActor::Equivocator(AttackerState::new(me, n, initial, config, backend))
    }

    /// An overspending participant over `backend`.
    pub fn overspender(
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        EngineActor::Overspender(AttackerState::new(me, n, initial, config, backend))
    }

    /// Whether this participant follows the protocol.
    pub fn is_honest(&self) -> bool {
        matches!(self, EngineActor::Honest(_))
    }

    /// The honest replica inside, when this participant is honest.
    pub fn as_honest(&self) -> Option<&ShardedReplica<B>> {
        match self {
            EngineActor::Honest(replica) => Some(replica),
            _ => None,
        }
    }

    /// Submits an honest transfer (no-op on non-honest participants —
    /// the scenario driver schedules attacks for those instead).
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        if let EngineActor::Honest(replica) = self {
            replica.submit(destination, amount, ctx);
        }
    }

    /// Records a local balance read on an honest participant (no-op on
    /// the others — attackers and silent processes have no meaningful
    /// local view to observe). See [`ShardedReplica::read_op`].
    pub fn read_op(&self, account: AccountId, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        if let EngineActor::Honest(replica) = self {
            replica.read_op(account, ctx);
        }
    }

    /// Launches this participant's attack for one wave. `wave` varies the
    /// crafted destinations so repeated attacks stay distinct.
    pub fn attack(&mut self, wave: usize, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        let n = ctx.n();
        match self {
            EngineActor::Honest(_) | EngineActor::Silent => {}
            EngineActor::Equivocator(state) => {
                let me = state.me().as_usize();
                let left = AccountId::new(((me + 1 + wave) % n) as u32);
                let right = AccountId::new(((me + 2 + wave) % n) as u32);
                state.equivocate((left, Amount::new(5)), (right, Amount::new(5)), ctx);
            }
            EngineActor::Overspender(state) => {
                let me = state.me().as_usize();
                let dest = AccountId::new(((me + 1 + wave) % n) as u32);
                // An amount no initial balance covers.
                state.overspend(dest, Amount::new(u64::MAX / 2), ctx);
            }
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
        match self {
            EngineActor::Honest(replica) => replica.on_message(from, msg, ctx),
            EngineActor::Equivocator(state) | EngineActor::Overspender(state) => {
                state.inner.on_message(from, msg, ctx)
            }
            EngineActor::Silent => {}
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        match self {
            EngineActor::Honest(replica) => replica.on_timer(timer, ctx),
            EngineActor::Equivocator(state) | EngineActor::Overspender(state) => {
                state.inner.on_timer(timer, ctx)
            }
            EngineActor::Silent => {}
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
        make_attacker: fn(ProcessId, usize, Amount, EngineConfig, B) -> EngineActor<B>,
    ) -> Simulation<EngineActor<B>>
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        F: Fn(ProcessId) -> B,
    {
        let actors = (0..n as u32)
            .map(|i| {
                if i == byzantine {
                    make_attacker(
                        p(i),
                        n,
                        amt(100),
                        EngineConfig::unsharded(),
                        make_backend(p(i)),
                    )
                } else {
                    EngineActor::honest(
                        p(i),
                        n,
                        amt(100),
                        EngineConfig::unsharded(),
                        make_backend(p(i)),
                    )
                }
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
            EngineActor::equivocator,
        );
        assert_no_double_spend(&mut sim, 0, n);
        let mut sim = mixed_system(
            n,
            0,
            |me| EchoBroadcast::new(me, n, NoAuth),
            EngineActor::equivocator,
        );
        assert_no_double_spend(&mut sim, 0, n);
        let mut sim = mixed_system(
            n,
            0,
            |me| AccountOrderBackend::new(me, n, NoAuth),
            EngineActor::equivocator,
        );
        assert_no_double_spend(&mut sim, 0, n);
    }

    #[test]
    fn overspend_is_delivered_but_never_validates() {
        let n = 4;
        let mut sim = mixed_system(
            n,
            1,
            |me| BrachaBroadcast::new(me, n),
            EngineActor::overspender,
        );
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
                if i == 3 {
                    EngineActor::Silent
                } else {
                    EngineActor::honest(
                        p(i),
                        n,
                        amt(100),
                        EngineConfig::unsharded(),
                        BrachaBroadcast::new(p(i), n),
                    )
                }
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
        let mut actor = EngineActor::honest(
            p(0),
            3,
            amt(10),
            EngineConfig::unsharded(),
            BrachaBroadcast::new(p(0), 3),
        );
        assert!(actor.is_honest());
        assert!(actor.as_honest().is_some());
        let silent = EngineActor::<BrachaBroadcast<EnginePayload>>::Silent;
        assert!(!silent.is_honest());
        assert!(silent.as_honest().is_none());
        // Submitting on a silent actor does nothing (and must not panic).
        let actors: Vec<EngineActor> = vec![EngineActor::Silent, EngineActor::Silent];
        let mut sim = Simulation::new(actors, NetConfig::instant(0));
        sim.schedule(VirtualTime::ZERO, p(0), |actor, ctx| {
            actor.submit(a(1), amt(1), ctx);
            actor.attack(0, ctx);
        });
        assert!(sim.run_until_quiet(100));
        let _ = &mut actor;
    }
}
