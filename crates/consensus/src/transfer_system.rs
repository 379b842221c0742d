//! The consensus-based asset-transfer system: the baseline of the
//! paper's evaluation.
//!
//! Every process is a PBFT replica; transfers are totally ordered by the
//! replica group and then executed against a replicated [`Ledger`]
//! (validated per `Δ` at execution time). This is the architecture the
//! paper argues is *unnecessary* for payments — `at_engine::BaselineEngine`
//! runs it head-to-head against the broadcast-based system,
//! `at_engine::ConsensuslessEngine`.

use crate::pbft::{PbftMsg, PbftReplica};
use at_broadcast::types::Step;
use at_model::{Ledger, ProcessId, Transfer};
use at_net::{Actor, Context, VirtualTime};

/// Completion events surfaced to the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineEvent {
    /// A transfer was ordered and executed; emitted by the replica that
    /// accepted it from the client (its originator).
    Completed {
        /// The transfer.
        transfer: Transfer,
        /// Whether execution succeeded under `Δ`.
        success: bool,
    },
}

/// Timer id used for periodic leader-side batch flushing.
const FLUSH_TIMER: u64 = 1;

/// One process of the consensus-based transfer system.
pub struct BaselineReplica {
    replica: PbftReplica<Transfer>,
    ledger: Ledger,
    /// Leader batch flush period, `None` = flush on every submission.
    flush_every: Option<VirtualTime>,
}

impl BaselineReplica {
    /// Creates the replica for `me` in a system of `n` processes starting
    /// from `initial`.
    pub fn new(me: ProcessId, n: usize, initial: Ledger, batch_size: usize) -> Self {
        let members = ProcessId::all(n).collect();
        BaselineReplica {
            replica: PbftReplica::new(me, members, batch_size),
            ledger: initial,
            flush_every: None,
        }
    }

    /// Enables periodic leader-side batch flushing.
    pub fn with_flush_interval(mut self, interval: VirtualTime) -> Self {
        self.flush_every = Some(interval);
        self
    }

    /// Submits a transfer at this replica (invoked by the harness through
    /// [`at_net::Simulation::schedule`]).
    pub fn submit(
        &mut self,
        transfer: Transfer,
        ctx: &mut Context<'_, PbftMsg<Transfer>, BaselineEvent>,
    ) {
        let mut step = Step::new();
        self.replica.submit(transfer, &mut step);
        self.absorb(step, ctx);
    }

    /// The replica's current ledger state (for end-of-run assertions).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Forces out any partially filled leader batch — used by benchmark
    /// harnesses that drive flushing from scheduled commands rather than
    /// the recurring timer.
    pub fn flush_now(&mut self, ctx: &mut Context<'_, PbftMsg<Transfer>, BaselineEvent>) {
        let mut step = Step::new();
        self.replica.flush(&mut step);
        self.absorb(step, ctx);
    }

    /// Number of transfers executed here.
    pub fn executed_count(&self) -> u64 {
        self.replica.executed_count()
    }

    fn absorb(
        &mut self,
        step: Step<PbftMsg<Transfer>, (u64, Transfer)>,
        ctx: &mut Context<'_, PbftMsg<Transfer>, BaselineEvent>,
    ) {
        for out in step.outgoing {
            ctx.send(out.to, out.msg);
        }
        for delivery in step.deliveries {
            let (_, transfer) = delivery.payload;
            let success = self.ledger.apply(&transfer).is_ok();
            if transfer.originator == ctx.me() {
                ctx.emit(BaselineEvent::Completed { transfer, success });
            }
        }
    }
}

impl Actor for BaselineReplica {
    type Msg = PbftMsg<Transfer>;
    type Event = BaselineEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        if let Some(interval) = self.flush_every {
            ctx.set_timer(interval, FLUSH_TIMER);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let mut step = Step::new();
        self.replica.on_message(from, msg, &mut step);
        self.absorb(step, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        if timer == FLUSH_TIMER {
            let mut step = Step::new();
            self.replica.flush(&mut step);
            self.absorb(step, ctx);
            if let Some(interval) = self.flush_every {
                ctx.set_timer(interval, FLUSH_TIMER);
            }
        }
    }
}

impl std::fmt::Debug for BaselineReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BaselineReplica({:?}, executed={})",
            self.replica,
            self.replica.executed_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_model::{AccountId, Amount, SeqNo};
    use at_net::{NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn system(n: usize, batch_size: usize) -> Simulation<BaselineReplica> {
        let initial = Ledger::uniform(n, Amount::new(100));
        let replicas = (0..n as u32)
            .map(|i| BaselineReplica::new(p(i), n, initial.clone(), batch_size))
            .collect();
        Simulation::new(replicas, NetConfig::lan(7))
    }

    #[test]
    fn transfer_executes_on_all_replicas() {
        let mut sim = system(4, 1);
        let tx = Transfer::new(a(0), a(1), Amount::new(30), p(0), SeqNo::new(1));
        sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
            replica.submit(tx, ctx);
        });
        assert!(sim.run_until_quiet(100_000));
        let events = sim.take_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0].2,
            BaselineEvent::Completed { success: true, .. }
        ));
        for i in 0..4 {
            let ledger = sim.actor(p(i)).ledger();
            assert_eq!(ledger.read(a(0)), Amount::new(70), "replica {i}");
            assert_eq!(ledger.read(a(1)), Amount::new(130), "replica {i}");
        }
    }

    #[test]
    fn double_spend_rejected_by_total_order() {
        let mut sim = system(4, 1);
        // Two transfers of 80 from an account holding 100: exactly one can
        // succeed, on every replica identically.
        let tx1 = Transfer::new(a(0), a(1), Amount::new(80), p(0), SeqNo::new(1));
        let tx2 = Transfer::new(a(0), a(2), Amount::new(80), p(0), SeqNo::new(2));
        sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
            replica.submit(tx1, ctx);
        });
        sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
            replica.submit(tx2, ctx);
        });
        assert!(sim.run_until_quiet(100_000));
        let events = sim.take_events();
        let successes = events
            .iter()
            .filter(|(_, _, e)| matches!(e, BaselineEvent::Completed { success: true, .. }))
            .count();
        assert_eq!(successes, 1);
        for i in 0..4 {
            assert_eq!(
                sim.actor(p(i)).ledger().total_supply(),
                Amount::new(400),
                "replica {i}"
            );
        }
    }

    #[test]
    fn submissions_at_followers_complete() {
        let mut sim = system(4, 1);
        let tx = Transfer::new(a(2), a(3), Amount::new(5), p(2), SeqNo::new(1));
        sim.schedule(VirtualTime::ZERO, p(2), move |replica, ctx| {
            replica.submit(tx, ctx);
        });
        assert!(sim.run_until_quiet(100_000));
        let events = sim.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, p(2));
    }

    #[test]
    fn batched_flush_timer_drives_progress() {
        let n = 4;
        let initial = Ledger::uniform(n, Amount::new(100));
        let replicas = (0..n as u32)
            .map(|i| {
                BaselineReplica::new(p(i), n, initial.clone(), 64)
                    .with_flush_interval(VirtualTime::from_millis(5))
            })
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(3));
        for s in 1..=3u64 {
            let tx = Transfer::new(a(0), a(1), Amount::new(1), p(0), SeqNo::new(s));
            sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
                replica.submit(tx, ctx);
            });
        }
        // Recurring timers never quiesce; run to a deadline instead.
        sim.run_until(VirtualTime::from_millis(100));
        let completed = sim
            .take_events()
            .iter()
            .filter(|(_, _, e)| matches!(e, BaselineEvent::Completed { success: true, .. }))
            .count();
        assert_eq!(completed, 3);
        assert_eq!(sim.actor(p(1)).ledger().read(a(1)), Amount::new(103));
    }

    #[test]
    fn debug_renders() {
        let replica = BaselineReplica::new(p(0), 4, Ledger::uniform(4, Amount::new(1)), 1);
        assert!(format!("{replica:?}").contains("executed=0"));
        assert_eq!(replica.executed_count(), 0);
    }
}
