//! A payment network under attack: 10 processes, one of which attempts a
//! classic double spend by equivocating at the broadcast layer.
//!
//! The paper's point: no consensus is needed — the secure broadcast's
//! quorum intersection alone makes the double spend impossible, while
//! honest payments keep flowing.
//!
//! Run with `cargo run -p at-examples --example payment_network`.

use at_broadcast::bracha::BrachaBroadcast;
use at_engine::{EngineActor, EngineConfig, EngineEvent};
use at_examples::banner;
use at_model::{AccountId, Amount, ProcessId, Transfer};
use at_net::{NetConfig, Simulation, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    const N: usize = 10;
    const EVE: u32 = 9;

    banner("Payment network: 9 honest processes + 1 double spender");
    let actors: Vec<EngineActor> = (0..N as u32)
        .map(|i| {
            let make = if i == EVE {
                EngineActor::equivocator
            } else {
                EngineActor::honest
            };
            let me = ProcessId::new(i);
            let backend = BrachaBroadcast::new(me, N);
            make(me, N, Amount::new(50), EngineConfig::unsharded(), backend)
        })
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::lan(2024));

    // Eve spends the same sequence number twice: one broadcast instance
    // that tells half the network "5 to acct0" and the other half "5 to
    // acct1". Replicas that believed different halves would fork.
    sim.schedule(VirtualTime::ZERO, ProcessId::new(EVE), |eve, ctx| {
        println!("Eve equivocates: 5 to acct0 AND 5 to acct1, same seq");
        eve.attack(0, ctx);
    });
    // Meanwhile honest processes trade normally.
    for i in 0..8u32 {
        sim.schedule(
            VirtualTime::from_millis(1),
            ProcessId::new(i),
            move |actor, ctx| actor.submit(AccountId::new((i + 1) % 9), Amount::new(10), ctx),
        );
    }
    sim.run_until_quiet(10_000_000);

    let mut honest_completed = 0;
    // What each honest replica applied on Eve's behalf.
    let mut eve_applied: BTreeMap<ProcessId, Vec<Transfer>> = BTreeMap::new();
    for (_, process, event) in sim.take_events() {
        match event {
            EngineEvent::Completed { .. } => honest_completed += 1,
            EngineEvent::Applied { transfer } if transfer.originator.index() == EVE => {
                eve_applied.entry(process).or_default().push(transfer);
            }
            _ => {}
        }
    }
    let legs: BTreeSet<&Transfer> = eve_applied.values().flatten().collect();
    println!("honest transfers completed: {honest_completed}/8");
    println!(
        "distinct legs of Eve's double spend applied anywhere: {} (2 would be a double spend)",
        legs.len()
    );
    let observer = sim
        .actor(ProcessId::new(0))
        .as_honest()
        .expect("p0 is honest");
    println!(
        "acct0={}, acct1={}, Eve's acct9={}",
        observer.balance(AccountId::new(0)),
        observer.balance(AccountId::new(1)),
        observer.balance(AccountId::new(9)),
    );
    assert_eq!(honest_completed, 8, "honest payments keep flowing");
    assert!(
        legs.len() <= 1,
        "replicas applied different legs of the double spend: {legs:?}"
    );
    for (replica, applied) in &eve_applied {
        assert!(
            applied.len() <= 1,
            "{replica} applied Eve's sequence number twice: {applied:?}"
        );
    }
    println!("=> double-spend prevented without any consensus");
}
