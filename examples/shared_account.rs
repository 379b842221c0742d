//! A k-shared treasury (Section 6): an account owned by three processes,
//! sequenced by their own BFT group — consensus only among the owners,
//! never among all participants.
//!
//! Run with `cargo run -p at-examples --example shared_account`.

use at_broadcast::auth::NoAuth;
use at_core::kshared::{KEvent, KSharedReplica};
use at_examples::banner;
use at_model::{AccountId, Amount, OwnerMap, ProcessId};
use at_net::{NetConfig, Simulation, VirtualTime};

fn main() {
    const N: usize = 6;
    let treasury = AccountId::new(0);

    banner("Section 6: a 3-owner shared treasury among 6 processes");
    let mut owners = OwnerMap::new();
    for i in 0..3 {
        owners.add_owner(treasury, ProcessId::new(i));
    }
    for i in 1..N {
        owners.add_owner(AccountId::new(i as u32), ProcessId::new(i as u32));
    }
    let initial: Vec<(AccountId, Amount)> = std::iter::once((treasury, Amount::new(1_000)))
        .chain((1..N).map(|i| (AccountId::new(i as u32), Amount::new(100))))
        .collect();
    let replicas = (0..N as u32)
        .map(|i| {
            KSharedReplica::new(
                ProcessId::new(i),
                N,
                initial.clone(),
                owners.clone(),
                NoAuth,
            )
        })
        .collect();
    let mut sim = Simulation::new(replicas, NetConfig::lan(7));

    // All three owners submit payouts concurrently; the owners' BFT group
    // sequences them, and everyone applies them in account order.
    for (owner, amount) in [(0u32, 400u64), (1, 400), (2, 400)] {
        sim.schedule(
            VirtualTime::ZERO,
            ProcessId::new(owner),
            move |replica, ctx| {
                let dest = AccountId::new(owner % (N as u32 - 1) + 1);
                replica.submit(AccountId::new(0), dest, Amount::new(amount), ctx);
            },
        );
    }
    sim.run_until_quiet(10_000_000);

    println!("three concurrent 400-unit payouts from a 1000-unit treasury:");
    for (at, _, event) in sim.take_events() {
        if let KEvent::Completed { transfer, success } = event {
            println!(
                "[{at}] {} -> {}: {}",
                transfer.originator,
                transfer.destination,
                if success {
                    "SUCCESS"
                } else {
                    "FAILED (insufficient at its sequence position)"
                }
            );
        }
    }
    let observer = sim.actor(ProcessId::new(5));
    println!("treasury balance everywhere: {}", observer.read(treasury));
    println!("=> exactly two payouts fit; the verdict is identical at every process");
}
