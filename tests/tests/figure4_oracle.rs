//! Figure 4 as the oracle of the runtime that ships.
//!
//! `at_engine::Replica` claims to be the paper's Figure 4 with a
//! materialized ledger, batching and a pluggable broadcast. This file
//! holds it to that: a recording [`SecureBroadcast`] decorator captures
//! what each replica's backend delivered, the batches are flattened and
//! replayed into a fresh [`TransferState`] — the literal Figure 4 of
//! `at-core`, which shares only the payload type with the engine — and
//! the two must agree.
//!
//! For **honest senders** (every sender declares the credits that fund
//! it): after every delivery the oracle's applied set is contained in
//! the engine's ("earlier, never wrongly"), and at quiescence applied
//! sets, every balance, every `seq[q]` and the pending counts are equal.
//! The same recorded sequence is replayed into a replica that prunes at
//! its own stability frontier at random points, and into one rebuilt
//! `from_snapshot` at a random cut and fed the suffix; both must land
//! where the oracle lands. What the engine does for a sender that does
//! *not* declare its credits is pinned by
//! [`an_undeclared_credit_is_spent_where_figure_4_would_hold_it`].

use at_broadcast::auth::NoAuth;
use at_broadcast::secure::{AccountOrderBackend, SecureBroadcast};
use at_broadcast::types::{Delivery, Step};
use at_broadcast::{Batch, BrachaBroadcast, EchoBroadcast};
use at_core::figure4::{Applied, TransferMsg, TransferState};
use at_engine::{EngineConfig, EngineEvent, EnginePayload, Replica};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_net::{Actor, Context, NetConfig, Simulation, VirtualTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const INITIAL: Amount = Amount::new(100);

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

fn a(i: usize) -> AccountId {
    AccountId::new(i as u32)
}

/// Passes every call through to `inner` and keeps a copy of what it
/// delivered, in delivery order.
struct Recording<B> {
    inner: B,
    log: Vec<Delivery<EnginePayload>>,
}

impl<B: SecureBroadcast<EnginePayload>> SecureBroadcast<EnginePayload> for Recording<B> {
    type Msg = B::Msg;

    fn broadcast(
        &mut self,
        payload: EnginePayload,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) -> SeqNo {
        let before = step.deliveries.len();
        let seq = self.inner.broadcast(payload, step);
        self.log.extend_from_slice(&step.deliveries[before..]);
        seq
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) {
        let before = step.deliveries.len();
        self.inner.on_message(from, msg, step);
        self.log.extend_from_slice(&step.deliveries[before..]);
    }

    fn broadcast_split(
        &mut self,
        left: EnginePayload,
        right: EnginePayload,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) -> SeqNo {
        let before = step.deliveries.len();
        let seq = self.inner.broadcast_split(left, right, step);
        self.log.extend_from_slice(&step.deliveries[before..]);
        seq
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.inner.delivered_count()
    }
}

/// A backend with no protocol: its "message" is a recorded delivery,
/// handed straight up. Replicas over it only ever receive.
struct Replay;

impl SecureBroadcast<EnginePayload> for Replay {
    type Msg = Delivery<EnginePayload>;

    fn broadcast(&mut self, _: EnginePayload, _: &mut Step<Self::Msg, EnginePayload>) -> SeqNo {
        unreachable!("a replayed replica never submits")
    }

    fn on_message(
        &mut self,
        _: ProcessId,
        msg: Self::Msg,
        step: &mut Step<Self::Msg, EnginePayload>,
    ) {
        step.deliveries.push(msg);
    }

    fn broadcast_split(
        &mut self,
        _: EnginePayload,
        _: EnginePayload,
        _: &mut Step<Self::Msg, EnginePayload>,
    ) -> SeqNo {
        unreachable!("a replayed replica never submits")
    }

    fn instance_count(&self) -> usize {
        0
    }

    fn delivered_count(&self) -> usize {
        0
    }
}

/// Hands one recorded delivery to a replayed replica; returns what it
/// applied in response.
fn feed(
    replica: &mut Replica<Replay>,
    n: usize,
    delivery: &Delivery<EnginePayload>,
) -> Vec<Transfer> {
    let mut events = Vec::new();
    let mut ctx = Context::detached(VirtualTime::ZERO, replica.me(), n, &mut events);
    replica.on_message(delivery.source, delivery.clone(), &mut ctx);
    applied_per_delivery(events.iter().map(|(_, _, event)| event))
        .pop()
        .expect("one delivery in, one step out")
}

/// Splits one replica's event stream at its `BackendDelivery` events:
/// entry `k` is what the replica applied in response to delivery `k`.
fn applied_per_delivery<'a>(events: impl Iterator<Item = &'a EngineEvent>) -> Vec<Vec<Transfer>> {
    let mut steps: Vec<Vec<Transfer>> = Vec::new();
    for event in events {
        match event {
            EngineEvent::BackendDelivery { .. } => steps.push(Vec::new()),
            EngineEvent::Applied { transfer } => steps
                .last_mut()
                .expect("transfers are applied in response to a delivery")
                .push(*transfer),
            _ => {}
        }
    }
    steps
}

/// Replays `log` into a fresh Figure 4 state for process `me` and holds
/// an engine replica to it: `steps[k]` is what the engine applied in
/// response to `log[k]`, `replica` is the engine's state after all of
/// it.
fn hold_to_figure4<B: SecureBroadcast<EnginePayload>>(
    label: &str,
    n: usize,
    log: &[Delivery<EnginePayload>],
    steps: &[Vec<Transfer>],
    replica: &Replica<B>,
) {
    assert_eq!(log.len(), steps.len(), "{label}: one step per delivery");
    let mut oracle = TransferState::new(replica.me(), n, INITIAL);
    let mut by_oracle = BTreeSet::new();
    let mut by_engine = BTreeSet::new();
    for (k, (delivery, step)) in log.iter().zip(steps).enumerate() {
        for item in delivery.payload.items.iter() {
            for applied in oracle.on_deliver(delivery.source, item.clone()) {
                if let Applied::Transfer(transfer) = applied {
                    by_oracle.insert(transfer);
                }
            }
        }
        by_engine.extend(step.iter().copied());
        assert!(
            by_oracle.is_subset(&by_engine),
            "{label}: after delivery {k} Figure 4 has applied {:?}, which the engine has not",
            by_oracle.difference(&by_engine).collect::<Vec<_>>()
        );
    }
    let held: Vec<&Transfer> = by_engine.difference(&by_oracle).collect();
    assert!(
        held.is_empty(),
        "{label}: at quiescence the engine has applied {} transfers Figure 4 still holds, \
         the first being {}",
        held.len(),
        held[0]
    );
    for q in 0..n {
        assert_eq!(
            replica.balance(a(q)),
            oracle.observed_balance(a(q)),
            "{label}: balance of account {q}"
        );
        assert_eq!(
            replica.stability_frontier()[q],
            oracle.validated_seq(p(q)),
            "{label}: seq[{q}]"
        );
    }
    assert_eq!(
        replica.pending_count(),
        oracle.pending_count(),
        "{label}: pending"
    );
}

/// The recorded sequence again, into two more replicas: one that prunes
/// at its own stability frontier at random points, and one rebuilt from
/// the first's snapshot at a random cut and fed only the suffix. (The
/// cut is taken where nothing is pending: a snapshot carries no
/// `toValidate`.) One delivery in eight is followed by a copy of some
/// other delivery of the log — a replay, or a batch ahead of its turn —
/// which a contract-abiding backend never produces and Figure 4 lines
/// 9–12 exist to ignore; engine and oracle must ignore the same ones.
fn replay_pruned_and_restored(
    label: &str,
    me: ProcessId,
    n: usize,
    config: EngineConfig,
    log: &[Delivery<EnginePayload>],
    rng: &mut StdRng,
) {
    let mut noisy = Vec::with_capacity(log.len() * 9 / 8);
    for delivery in log {
        noisy.push(delivery.clone());
        if rng.gen_range(0..8) == 0 {
            noisy.push(log[rng.gen_range(0..log.len())].clone());
        }
    }
    let log = &noisy[..];
    let mut pruned = Replica::with_backend(me, n, INITIAL, config, Replay);
    let mut restored: Option<Replica<Replay>> = None;
    let mut pruned_steps = Vec::with_capacity(log.len());
    let mut restored_steps = Vec::with_capacity(log.len());
    let cut = rng.gen_range(0..log.len());
    for (k, delivery) in log.iter().enumerate() {
        let step = feed(&mut pruned, n, delivery);
        restored_steps.push(match &mut restored {
            Some(replica) => feed(replica, n, delivery),
            None => step.clone(),
        });
        pruned_steps.push(step);
        if rng.gen_range(0..4) == 0 {
            let frontier = pruned.stability_frontier();
            pruned.prune_through(&frontier);
        }
        if restored.is_none() && k >= cut && pruned.pending_count() == 0 {
            restored = Some(Replica::from_snapshot(
                me,
                n,
                config,
                Replay,
                &pruned.snapshot(),
            ));
        }
    }
    assert!(pruned.pruned_total() > 0, "{label}: nothing was pruned");
    hold_to_figure4(&format!("{label} pruned"), n, log, &pruned_steps, &pruned);
    let restored = restored.expect("a quiescent log ends with nothing pending");
    hold_to_figure4(
        &format!("{label} restored at {cut}"),
        n,
        log,
        &restored_steps,
        &restored,
    );
}

/// What a run exercised, summed over its replicas.
#[derive(Default)]
struct Exercised {
    applied: usize,
    /// Applied transfers their source could not have paid from its
    /// initial balance alone: by then it had sent more than it started
    /// with.
    credit_funded: usize,
}

/// One run: `n` honest replicas over `make`'s backend on a WAN, `rounds`
/// rounds of submissions 400 ms apart — past the delivery latency, so
/// credits land before the next round spends them — each a burst of 1–3
/// transfers of an eighth to six eighths of whatever is available.
fn run_case<B, F>(
    label: &str,
    n: usize,
    config: EngineConfig,
    seed: u64,
    rounds: u64,
    make: F,
) -> Exercised
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId) -> B,
{
    let label = format!("{label} n={n} batch={} seed={seed}", config.batch.max_size);
    let replicas = (0..n)
        .map(|i| {
            let backend = Recording {
                inner: make(p(i)),
                log: Vec::new(),
            };
            Replica::with_backend(p(i), n, INITIAL, config, backend)
        })
        .collect();
    let mut sim = Simulation::new(replicas, NetConfig::wan(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        for i in 0..n {
            let at = VirtualTime::from_millis(round * 400 + rng.gen_range(0..100u64));
            let burst: Vec<(AccountId, u64)> = (0..rng.gen_range(1..=3))
                .map(|_| (a((i + rng.gen_range(1..n)) % n), rng.gen_range(1..=6u64)))
                .collect();
            sim.schedule(at, p(i), move |replica, ctx| {
                for (destination, eighths) in burst {
                    let amount = replica.available().units() * eighths / 8;
                    if amount > 0 {
                        replica.submit(destination, Amount::new(amount), ctx);
                    }
                }
            });
        }
    }
    assert!(sim.run_until_quiet(50_000_000), "{label}: did not quiesce");

    let events = sim.take_events();
    let mut exercised = Exercised::default();
    for i in 0..n {
        let label = format!("{label} replica {i}");
        let replica = sim.actor(p(i));
        let log = &replica.backend().log;
        let steps = applied_per_delivery(
            events
                .iter()
                .filter(|(_, at, _)| *at == p(i))
                .map(|(_, _, event)| event),
        );
        hold_to_figure4(&label, n, log, &steps, replica);
        replay_pruned_and_restored(&label, p(i), n, config, log, &mut rng);

        for q in 0..n {
            let mut sent = 0;
            for transfer in replica.applied_from(p(q)).values() {
                sent += transfer.amount.units();
                exercised.applied += 1;
                exercised.credit_funded += usize::from(sent > INITIAL.units());
            }
        }
    }
    exercised
}

/// The gate: every backend × n ∈ {4, 7} × {`unbatched()`, `standard()`}
/// on each seed.
fn oracle_gate(seeds: std::ops::Range<u64>, rounds: u64) {
    let mut exercised = Exercised::default();
    let runs = (seeds.end - seeds.start) * 12;
    for seed in seeds {
        for n in [4, 7] {
            for config in [EngineConfig::unbatched(), EngineConfig::standard()] {
                for case in [
                    run_case("bracha", n, config, seed, rounds, |me| {
                        BrachaBroadcast::new(me, n)
                    }),
                    run_case("echo", n, config, seed, rounds, |me| {
                        EchoBroadcast::new(me, n, NoAuth)
                    }),
                    run_case("acctorder", n, config, seed, rounds, |me| {
                        AccountOrderBackend::new(me, n, NoAuth)
                    }),
                ] {
                    exercised.applied += case.applied;
                    exercised.credit_funded += case.credit_funded;
                }
            }
        }
    }
    println!(
        "{runs} runs: {} transfers applied across replicas, {} of them credit-funded ({:.0} %)",
        exercised.applied,
        exercised.credit_funded,
        100.0 * exercised.credit_funded as f64 / exercised.applied as f64
    );
    // Not vacuous: a workload in which nobody spends incoming credit
    // never reaches Figure 4's dependency rule.
    assert!(
        exercised.credit_funded * 4 >= exercised.applied,
        "only {} of {} applied transfers were credit-funded",
        exercised.credit_funded,
        exercised.applied
    );
}

#[test]
fn engine_agrees_with_figure_4_for_honest_senders() {
    oracle_gate(0..2, 8);
}

#[test]
#[ignore = "soak size: 240 runs, run with --release -- --ignored"]
fn engine_agrees_with_figure_4_for_honest_senders_over_240_runs() {
    oracle_gate(0..20, 12);
}

/// The one place the engine and Figure 4 part ways, pinned: a sender
/// that spends an incoming credit *without declaring it* as a
/// dependency. Figure 4 validates against `hist[q] ∪ deps`, never sees
/// the credit, and holds the transfer forever; the engine validates
/// against the ledger, which already holds the credit wherever it was
/// applied, and applies the transfer. That is safe — the money is there
/// at every replica that applies it, supply is conserved and no balance
/// goes negative — and it is what lets `prune_through` drop settled
/// credits from `deps_buffer`.
#[test]
fn an_undeclared_credit_is_spent_where_figure_4_would_hold_it() {
    let n = 4;
    let initial = Amount::new(10);
    let credit = Transfer::new(a(0), a(1), Amount::new(10), p(0), SeqNo::new(1));
    let spend = Transfer::new(a(1), a(2), Amount::new(15), p(1), SeqNo::new(1));
    let undeclared = TransferMsg {
        transfer: spend,
        deps: vec![],
    };

    let replicas = (0..n)
        .map(|i| Replica::new(p(i), n, initial, EngineConfig::unbatched()))
        .collect();
    let mut sim: Simulation<Replica> = Simulation::new(replicas, NetConfig::lan(7));
    sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
        replica.submit(a(1), Amount::new(10), ctx);
    });
    let msg = undeclared.clone();
    sim.schedule(VirtualTime::from_millis(50), p(1), |replica, ctx| {
        replica.broadcast_batch(Batch::single(msg), ctx);
    });
    assert!(sim.run_until_quiet(1_000_000));
    for i in 0..n {
        let replica = sim.actor(p(i));
        assert_eq!(replica.pending_count(), 0, "replica {i}");
        let balances: Vec<u64> = (0..n).map(|j| replica.balance(a(j)).units()).collect();
        assert_eq!(balances, vec![0, 5, 25, 10], "replica {i}");
        assert_eq!(replica.digest(), sim.actor(p(0)).digest(), "replica {i}");
    }

    let credit_msg = TransferMsg {
        transfer: credit,
        deps: vec![],
    };
    let mut oracle = TransferState::new(p(3), n, initial);
    assert_eq!(oracle.on_deliver(p(0), credit_msg.clone()).len(), 1);
    assert!(oracle.on_deliver(p(1), undeclared).is_empty());
    assert_eq!(oracle.pending_count(), 1);
    assert_eq!(oracle.observed_balance(a(2)), initial);

    // Declared, Figure 4 applies it too.
    let mut oracle = TransferState::new(p(3), n, initial);
    oracle.on_deliver(p(0), credit_msg);
    let declared = TransferMsg {
        transfer: spend,
        deps: vec![credit],
    };
    assert_eq!(
        oracle.on_deliver(p(1), declared),
        vec![Applied::Transfer(spend)]
    );
    assert_eq!(oracle.observed_balance(a(2)), Amount::new(25));
}
