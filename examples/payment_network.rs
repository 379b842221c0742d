//! A payment network under attack: 10 processes, one of which attempts a
//! classic double spend by equivocating at the broadcast layer.
//!
//! The paper's point: no consensus is needed — the secure broadcast's
//! quorum intersection alone makes the double spend impossible, while
//! honest payments keep flowing.
//!
//! Run with `cargo run -p at-examples --example payment_network`.

use at_core::byzantine::{MaliciousReplica, Participant};
use at_core::replica::TransferEvent;
use at_examples::banner;
use at_model::{AccountId, Amount, ProcessId};
use at_net::{NetConfig, Simulation, VirtualTime};

fn main() {
    const N: usize = 10;
    const EVE: u32 = 9;

    banner("Payment network: 9 honest processes + 1 double spender");
    let actors: Vec<Participant> = (0..N as u32)
        .map(|i| {
            if i == EVE {
                Participant::Equivocator(MaliciousReplica::new(
                    ProcessId::new(i),
                    N,
                    Amount::new(50),
                ))
            } else {
                Participant::honest(ProcessId::new(i), N, Amount::new(50))
            }
        })
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::lan(2024));

    // Eve tries to pay her whole balance to BOTH account 0 and account 1.
    sim.schedule(VirtualTime::ZERO, ProcessId::new(EVE), |actor, ctx| {
        if let Participant::Equivocator(eve) = actor {
            println!("Eve equivocates: 50 to acct0 AND 50 to acct1, same seq");
            eve.equivocate(
                (AccountId::new(0), Amount::new(50)),
                (AccountId::new(1), Amount::new(50)),
                ctx,
            );
        }
    });
    // Meanwhile honest processes trade normally.
    for i in 0..8u32 {
        sim.schedule(
            VirtualTime::from_millis(1),
            ProcessId::new(i),
            move |actor, ctx| {
                if let Participant::Honest(replica) = actor {
                    replica.submit(AccountId::new((i + 1) % 9), Amount::new(10), ctx);
                }
            },
        );
    }
    sim.run_until_quiet(10_000_000);

    let mut honest_completed = 0;
    let mut eve_applied = 0;
    for (_, process, event) in sim.take_events() {
        match event {
            TransferEvent::Completed { .. } => honest_completed += 1,
            TransferEvent::Applied { transfer } if transfer.originator.index() == EVE => {
                eve_applied += 1;
                let _ = process;
            }
            _ => {}
        }
    }
    println!("honest transfers completed: {honest_completed}/8");
    println!(
        "legs of Eve's double spend applied anywhere: {eve_applied} (2 would be a double spend)"
    );
    let observer = sim.actor(ProcessId::new(0));
    println!(
        "acct0={}, acct1={}, Eve's acct9={}",
        observer.read(AccountId::new(0)),
        observer.read(AccountId::new(1)),
        observer.read(AccountId::new(9)),
    );
    assert!(eve_applied <= N as u64 as usize); // at most one leg, seen by each honest process once
    println!("=> double-spend prevented without any consensus");
}
