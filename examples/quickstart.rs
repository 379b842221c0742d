//! Quickstart: the asset-transfer object in both worlds.
//!
//! 1. Shared memory — the paper's Figure 1 object (consensus number 1):
//!    wait-free transfers from atomic snapshots alone.
//! 2. Message passing — the paper's Figure 4 system as the engine runs
//!    it: Byzantine fault-tolerant payments over secure broadcast, no
//!    consensus.
//!
//! Run with `cargo run -p at-examples --example quickstart`.

use at_engine::{EngineConfig, EngineEvent, ShardedReplica};
use at_examples::banner;
use at_model::{AccountId, Amount, ProcessId};
use at_net::{NetConfig, Simulation, VirtualTime};
use at_sharedmem::figure1::SnapshotAssetTransfer;
use at_sharedmem::object::SharedAssetTransfer;

fn main() {
    banner("Shared memory: Figure 1 (consensus number 1)");
    // Three processes, process i owns account i, 100 units each.
    let object = SnapshotAssetTransfer::wait_free_uniform(3, Amount::new(100));
    let alice = (ProcessId::new(0), AccountId::new(0));
    let bob = (ProcessId::new(1), AccountId::new(1));

    let ok = object.transfer(alice.0, alice.1, bob.1, Amount::new(30));
    println!("alice -> bob 30: {ok}");
    let ok = object.transfer(alice.0, alice.1, bob.1, Amount::new(80));
    println!("alice -> bob 80 (insufficient): {ok}");
    let ok = object.transfer(bob.0, alice.1, bob.1, Amount::new(1));
    println!("bob debits alice's account (not owner): {ok}");
    println!(
        "balances: alice={}, bob={}",
        object.read(alice.1),
        object.read(bob.1)
    );

    banner("Message passing: Figure 4 over Bracha secure broadcast");
    let n = 4;
    let replicas = (0..n as u32)
        .map(|i| {
            let me = ProcessId::new(i);
            ShardedReplica::new(me, n, Amount::new(100), EngineConfig::unsharded())
        })
        .collect();
    let mut sim: Simulation<ShardedReplica> = Simulation::new(replicas, NetConfig::lan(1));

    // Process 0 pays 25 to account 1; process 1 then forwards 110 to
    // account 2 (which needs the incoming credit).
    sim.schedule(VirtualTime::ZERO, ProcessId::new(0), |replica, ctx| {
        replica.submit(AccountId::new(1), Amount::new(25), ctx);
    });
    sim.schedule(
        VirtualTime::from_millis(5),
        ProcessId::new(1),
        |replica, ctx| {
            replica.submit(AccountId::new(2), Amount::new(110), ctx);
        },
    );
    sim.run_until_quiet(1_000_000);

    for (at, process, event) in sim.take_events() {
        if let EngineEvent::Completed { transfer } = event {
            println!("[{at}] {process} completed {transfer}");
        }
    }
    let observer = sim.actor(ProcessId::new(3));
    println!(
        "observer's converged balances: acct0={}, acct1={}, acct2={}",
        observer.balance(AccountId::new(0)),
        observer.balance(AccountId::new(1)),
        observer.balance(AccountId::new(2)),
    );
    println!(
        "network: {} messages for 2 transfers across {n} processes",
        sim.stats().messages_sent
    );
}
