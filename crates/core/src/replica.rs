//! The consensusless transfer system as a simulator actor: Figure 4's
//! state machine wired to a secure broadcast.
//!
//! [`TransferBroadcast`] abstracts over the two broadcast implementations
//! ([`at_broadcast::bracha`] — the paper's deployed "naive quadratic"
//! protocol — and [`at_broadcast::echo`]), so the same replica runs on
//! either; the evaluation harness exploits this for ablation A1.

use crate::figure4::{Applied, TransferMsg, TransferState};
use at_broadcast::auth::Authenticator;
use at_broadcast::bracha::{BrachaBroadcast, BrachaMsg};
use at_broadcast::echo::{EchoBroadcast, EchoMsg};
use at_broadcast::types::{Delivery, Outgoing, Step};
#[allow(unused_imports)]
use at_model::Encode;
use at_model::{AccountId, Amount, ProcessId, Transfer};
use at_net::{Actor, Context};

/// A secure broadcast usable under the Figure 4 replica.
pub trait TransferBroadcast: Send {
    /// The wire message type.
    type Msg: Clone + Send;

    /// Broadcasts `payload`; outputs go into `step`.
    fn broadcast(&mut self, payload: TransferMsg, step: &mut Step<Self::Msg, TransferMsg>);

    /// Feeds a network message; deliveries and outputs go into `step`.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, TransferMsg>,
    );
}

impl TransferBroadcast for BrachaBroadcast<TransferMsg> {
    type Msg = BrachaMsg<TransferMsg>;

    fn broadcast(&mut self, payload: TransferMsg, step: &mut Step<Self::Msg, TransferMsg>) {
        let _ = BrachaBroadcast::broadcast(self, payload, step);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, TransferMsg>,
    ) {
        BrachaBroadcast::on_message(self, from, msg, step);
    }
}

impl<A: Authenticator + Send> TransferBroadcast for EchoBroadcast<TransferMsg, A>
where
    A::Sig: Send,
{
    type Msg = EchoMsg<TransferMsg, A::Sig>;

    fn broadcast(&mut self, payload: TransferMsg, step: &mut Step<Self::Msg, TransferMsg>) {
        let _ = EchoBroadcast::broadcast(self, payload, step);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, TransferMsg>,
    ) {
        EchoBroadcast::on_message(self, from, msg, step);
    }
}

/// Events surfaced by the consensusless replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferEvent {
    /// Our own transfer completed (`return true` of Figure 4).
    Completed {
        /// The transfer.
        transfer: Transfer,
    },
    /// A transfer invocation returned `false` locally (insufficient
    /// balance at submission).
    Rejected {
        /// The destination requested.
        destination: AccountId,
        /// The amount requested.
        amount: Amount,
    },
    /// A validated transfer (ours or another process's) was applied.
    Applied {
        /// The transfer.
        transfer: Transfer,
    },
}

/// One process of the consensusless (Figure 4) transfer system.
pub struct ConsensuslessReplica<B: TransferBroadcast> {
    state: TransferState,
    broadcast: B,
}

impl ConsensuslessReplica<BrachaBroadcast<TransferMsg>> {
    /// A replica over Bracha's reliable broadcast — the configuration of
    /// the paper's deployment.
    pub fn bracha(me: ProcessId, n: usize, initial: Amount) -> Self {
        ConsensuslessReplica {
            state: TransferState::new(me, n, initial),
            broadcast: BrachaBroadcast::new(me, n),
        }
    }
}

impl<A: Authenticator + Send> ConsensuslessReplica<EchoBroadcast<TransferMsg, A>>
where
    A::Sig: Send,
{
    /// A replica over the signed-echo broadcast.
    pub fn echo(me: ProcessId, n: usize, initial: Amount, auth: A) -> Self {
        ConsensuslessReplica {
            state: TransferState::new(me, n, initial),
            broadcast: EchoBroadcast::new(me, n, auth),
        }
    }
}

impl<B: TransferBroadcast> ConsensuslessReplica<B> {
    /// The Figure 4 state (for assertions).
    pub fn state(&self) -> &TransferState {
        &self.state
    }

    /// Reads an account balance from the local state (Figure 4's `read`).
    pub fn read(&self, account: AccountId) -> Amount {
        self.state.read(account)
    }

    /// Balance over all locally applied transfers (convergence view; see
    /// [`TransferState::observed_balance`]).
    pub fn observed_balance(&self, account: AccountId) -> Amount {
        self.state.observed_balance(account)
    }

    /// Submits `transfer(my-account, destination, amount)`; emits
    /// [`TransferEvent::Rejected`] immediately on insufficient balance,
    /// [`TransferEvent::Completed`] when the broadcast round trips.
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, TransferEvent>,
    ) {
        match self.state.submit(destination, amount) {
            Ok(msg) => {
                let mut step = Step::new();
                self.broadcast.broadcast(msg, &mut step);
                self.absorb(step, ctx);
            }
            Err(_) => ctx.emit(TransferEvent::Rejected {
                destination,
                amount,
            }),
        }
    }

    fn absorb(
        &mut self,
        step: Step<B::Msg, TransferMsg>,
        ctx: &mut Context<'_, B::Msg, TransferEvent>,
    ) {
        let Step {
            outgoing,
            deliveries,
        } = step;
        for Outgoing { to, msg } in outgoing {
            ctx.send(to, msg);
        }
        for Delivery {
            source, payload, ..
        } in deliveries
        {
            for applied in self.state.on_deliver(source, payload) {
                match applied {
                    Applied::Transfer(transfer) => {
                        ctx.emit(TransferEvent::Applied { transfer });
                    }
                    Applied::OwnCompleted(transfer) => {
                        ctx.emit(TransferEvent::Completed { transfer });
                    }
                }
            }
        }
    }
}

impl<B: TransferBroadcast> Actor for ConsensuslessReplica<B> {
    type Msg = B::Msg;
    type Event = TransferEvent;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let mut step = Step::new();
        self.broadcast.on_message(from, msg, &mut step);
        self.absorb(step, ctx);
    }
}

impl<B: TransferBroadcast> std::fmt::Debug for ConsensuslessReplica<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConsensuslessReplica({:?})", self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_broadcast::auth::NoAuth;
    use at_model::SeqNo;
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

    fn bracha_system(
        n: usize,
        initial: u64,
    ) -> Simulation<ConsensuslessReplica<BrachaBroadcast<TransferMsg>>> {
        let replicas = (0..n as u32)
            .map(|i| ConsensuslessReplica::bracha(p(i), n, amt(initial)))
            .collect();
        Simulation::new(replicas, NetConfig::lan(5))
    }

    fn completed(events: &[(VirtualTime, ProcessId, TransferEvent)]) -> Vec<Transfer> {
        events
            .iter()
            .filter_map(|(_, _, e)| match e {
                TransferEvent::Completed { transfer } => Some(*transfer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn transfer_completes_over_bracha() {
        let mut sim = bracha_system(4, 100);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(25), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        let done = completed(&events);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].amount, amt(25));
        for i in 0..4 {
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(0)),
                amt(75),
                "replica {i}"
            );
            assert_eq!(
                sim.actor(p(i)).observed_balance(a(1)),
                amt(125),
                "replica {i}"
            );
        }
    }

    #[test]
    fn transfer_completes_over_echo() {
        let n = 4;
        let replicas = (0..n as u32)
            .map(|i| ConsensuslessReplica::echo(p(i), n, amt(50), NoAuth))
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(6));
        sim.schedule(VirtualTime::ZERO, p(2), |replica, ctx| {
            replica.submit(a(0), amt(10), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 1);
        for i in 0..n as u32 {
            assert_eq!(sim.actor(p(i)).observed_balance(a(0)), amt(60));
        }
    }

    #[test]
    fn insufficient_balance_rejected_without_network_traffic() {
        let mut sim = bracha_system(4, 10);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(11), ctx);
        });
        assert!(sim.run_until_quiet(1_000));
        let events = sim.take_events();
        assert!(matches!(
            events[0].2,
            TransferEvent::Rejected { amount, .. } if amount == amt(11)
        ));
        assert_eq!(sim.stats().messages_sent, 0);
    }

    #[test]
    fn causal_chain_across_processes() {
        let mut sim = bracha_system(4, 10);
        // p0 pays p1 everything; later p1 spends 15 (needs the incoming).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(10), ctx);
        });
        sim.schedule(VirtualTime::from_millis(50), p(1), |replica, ctx| {
            replica.submit(a(2), amt(15), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 2);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).observed_balance(a(0)), amt(0));
            assert_eq!(sim.actor(p(i)).observed_balance(a(1)), amt(5));
            assert_eq!(sim.actor(p(i)).observed_balance(a(2)), amt(25));
        }
    }

    #[test]
    fn concurrent_transfers_conserve_supply() {
        let n = 7;
        let mut sim = bracha_system(n, 100);
        for i in 0..n as u32 {
            for round in 0..3u64 {
                let dest = a((i + 1) % n as u32);
                let amount = amt(7 + round);
                sim.schedule(
                    VirtualTime::from_millis(round),
                    p(i),
                    move |replica, ctx| {
                        replica.submit(dest, amount, ctx);
                    },
                );
            }
        }
        assert!(sim.run_until_quiet(10_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), n * 3);
        for i in 0..n as u32 {
            let total: Amount = (0..n as u32)
                .map(|j| sim.actor(p(i)).observed_balance(a(j)))
                .sum();
            assert_eq!(total, amt(100 * n as u64), "replica {i}");
        }
    }

    #[test]
    fn crashed_process_does_not_block_others() {
        let mut sim = bracha_system(4, 100);
        sim.crash(p(3));
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(5), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 1);
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).observed_balance(a(1)), amt(105));
        }
    }

    #[test]
    fn sequential_transfers_from_one_owner() {
        let mut sim = bracha_system(4, 100);
        for round in 0..5u64 {
            sim.schedule(
                VirtualTime::from_millis(round * 20),
                p(0),
                move |replica, ctx| {
                    replica.submit(a(1), amt(10), ctx);
                },
            );
        }
        assert!(sim.run_until_quiet(10_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 5);
        let seqs: Vec<u64> = done.iter().map(|t| t.seq.value()).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.actor(p(2)).observed_balance(a(0)), amt(50));
    }

    #[test]
    fn state_accessor_and_debug() {
        let replica = ConsensuslessReplica::bracha(p(0), 3, amt(10));
        assert_eq!(replica.state().me(), p(0));
        assert_eq!(replica.read(a(0)), amt(10));
        assert!(format!("{replica:?}").contains("me=p0"));
        let _ = TransferEvent::Applied {
            transfer: Transfer::new(a(0), a(1), amt(1), p(0), SeqNo::new(1)),
        };
    }
}
