//! Integration tests for the message-passing system (experiment F4) on
//! the runtime that ships — `at_engine::ShardedReplica` in its Figure 4
//! shape, `EngineConfig::unsharded()`: convergence, crash tolerance,
//! causality, and linearizability of the successful sub-history
//! (property 1 of Definition 1).
//!
//! Agreement across backends, real signatures end to end and rerun
//! determinism are held on the same path elsewhere: at-engine's
//! `signed_backends_match_bracha_balances` and
//! `ed25519_backend_round_trips_certificates`, and
//! `backends_are_equivalent_on_seeded_scenarios` and
//! `standard_suite_reruns_are_byte_identical` in `engine_scenarios.rs`.

use at_core::figure4::TransferState;
use at_engine::{history_from_events, EngineConfig, EngineEvent, ShardedReplica};
use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId};
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

fn system(n: usize, initial: u64, seed: u64) -> Simulation<ShardedReplica> {
    let replicas = (0..n as u32)
        .map(|i| ShardedReplica::new(p(i), n, amt(initial), EngineConfig::unsharded()))
        .collect();
    Simulation::new(replicas, NetConfig::lan(seed))
}

fn completed(sim: &mut Simulation<ShardedReplica>) -> usize {
    sim.take_events()
        .iter()
        .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
        .count()
}

#[test]
fn all_replicas_converge_to_identical_balances() {
    let n = 6;
    let waves = 4;
    let mut sim = system(n, 100, 3);
    for wave in 0..waves {
        for i in 0..n {
            let dest = a(((i + wave + 1) % n) as u32);
            sim.schedule(
                VirtualTime::from_millis((wave * 10) as u64),
                p(i as u32),
                move |replica, ctx| replica.submit(dest, amt(3), ctx),
            );
        }
    }
    assert!(sim.run_until_quiet(50_000_000));
    assert_eq!(completed(&mut sim), n * waves);

    let reference: Vec<Amount> = (0..n as u32)
        .map(|j| sim.actor(p(0)).balance(a(j)))
        .collect();
    for i in 1..n as u32 {
        let view: Vec<Amount> = (0..n as u32)
            .map(|j| sim.actor(p(i)).balance(a(j)))
            .collect();
        assert_eq!(view, reference, "replica {i} diverged");
    }
    let total: Amount = reference.into_iter().sum();
    assert_eq!(total, amt(100 * n as u64));
}

/// Property 1 of Definition 1: the successful transfers of the execution
/// form a linearizable sub-history. The history is rebuilt from the
/// event stream — each transfer's interval opens at its `Submitted` and
/// closes at its `Completed` — and checked against `Δ`.
#[test]
fn successful_transfers_linearize() {
    let n = 4;
    let mut sim = system(n, 20, 17);

    // Interleaved, causally dependent transfers.
    sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
        replica.submit(a(1), amt(20), ctx);
    });
    sim.schedule(VirtualTime::from_millis(30), p(1), |replica, ctx| {
        replica.submit(a(2), amt(35), ctx); // needs p0's 20
    });
    sim.schedule(VirtualTime::from_millis(60), p(2), |replica, ctx| {
        replica.submit(a(3), amt(50), ctx); // needs p1's 35
    });
    assert!(sim.run_until_quiet(10_000_000));

    let history = history_from_events(&sim.take_events(), |_| true);
    assert_eq!(history.op_count(), 3);
    assert!(history.is_complete(), "all three completed");
    let initial = Ledger::new(
        (0..n as u32).map(|i| (a(i), amt(20))),
        OwnerMap::one_account_per_process(n),
    );
    assert!(at_model::linearizable(&history, &initial).is_linearizable());
}

/// The paper's `return false`: a transfer the local balance cannot fund
/// is refused at the submitting process and nothing reaches the network.
#[test]
fn insufficient_balance_rejected_without_network_traffic() {
    let mut sim = system(4, 10, 5);
    sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
        replica.submit(a(1), amt(11), ctx);
    });
    assert!(sim.run_until_quiet(1_000));
    let events = sim.take_events();
    assert_eq!(events.len(), 1);
    assert!(matches!(
        events[0].2,
        EngineEvent::Rejected { amount, available, .. } if amount == amt(11) && available == amt(10)
    ));
    assert_eq!(sim.stats().messages_sent, 0);
}

/// `f = ⌊(n − 1)/3⌋` crashed processes — the most the broadcast
/// tolerates — do not block the rest.
#[test]
fn f_crashes_do_not_block_survivors() {
    let n = 7; // f = 2
    let mut sim = system(n, 100, 31);
    sim.crash(p(5));
    sim.crash(p(6));
    for i in 0..5u32 {
        sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
            replica.submit(a((i + 1) % 5), amt(10), ctx);
        });
    }
    assert!(sim.run_until_quiet(10_000_000));
    assert_eq!(completed(&mut sim), 5);
}

#[test]
fn read_reflects_own_account_immediately() {
    // The paper's read: p's own view of its account includes incoming
    // deps as soon as they are applied locally.
    let mut states: Vec<TransferState> = (0..2u32)
        .map(|i| TransferState::new(p(i), 2, amt(10)))
        .collect();
    let msg = states[0].submit(a(1), amt(7)).unwrap();
    states[1].on_deliver(p(0), msg.clone());
    assert_eq!(states[1].read(a(1)), amt(17));
    // And p0's own outgoing debits immediately after self-delivery.
    states[0].on_deliver(p(0), msg);
    assert_eq!(states[0].read(a(0)), amt(3));
}
