//! Demo: a real 4-node asset-transfer cluster on loopback TCP.
//!
//! Boots four at-node replicas (signed-echo broadcast backend) on real
//! sockets, connects a TCP client to each, moves money around, attempts
//! a double spend over the wire, and prints every replica's converged
//! balances.
//!
//! Run with `cargo run -p at-examples --example node_cluster --release`.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::EngineConfig;
use at_model::{AccountId, Amount};
use at_net::VirtualTime;
use at_node::{await_convergence, start_tcp_cluster, Client, NodeConfig, ResponseBody, TcpOptions};
use std::time::Duration;

type Echo = EchoBroadcast<EnginePayload, NoAuth>;

fn main() {
    let n = 4;
    let initial = Amount::new(1_000);
    let config = NodeConfig::new(
        EngineConfig::batched(16, VirtualTime::from_micros(500)),
        initial,
    );
    println!("starting {n} nodes on loopback TCP (signed-echo backend)...");
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        Echo::new(me, n, NoAuth)
    })
    .expect("cluster start");

    // One TCP client per node; each node's owner pays the next account.
    let mut clients: Vec<Client> = cluster
        .client_addrs
        .iter()
        .map(|addr| Client::connect(*addr).expect("connect"))
        .collect();
    for round in 0u64..3 {
        for (i, client) in clients.iter_mut().enumerate() {
            let dest = AccountId::new(((i + 1) % n) as u32);
            client
                .submit_transfer(dest, Amount::new(10 + round))
                .expect("submit");
        }
    }
    for (i, client) in clients.iter_mut().enumerate() {
        while client.outstanding() > 0 {
            let ack = client
                .recv_response(Duration::from_secs(10))
                .expect("io")
                .expect("ack");
            assert!(
                matches!(ack.body, ResponseBody::Committed { .. }),
                "transfer failed at node {i}: {ack:?}"
            );
        }
        println!("node {i}: all transfers committed over the wire");
    }

    // A double spend: drain the whole balance twice. Admission reserves
    // in-flight amounts, so the second transfer is rejected.
    let spender = &mut clients[0];
    let balance = spender
        .read_balance(AccountId::new(0), Duration::from_secs(5))
        .expect("read");
    spender.submit_transfer(AccountId::new(1), balance).unwrap();
    spender.submit_transfer(AccountId::new(2), balance).unwrap();
    let mut outcomes = Vec::new();
    while spender.outstanding() > 0 {
        outcomes.push(
            spender
                .recv_response(Duration::from_secs(10))
                .expect("io")
                .expect("ack"),
        );
    }
    outcomes.sort_by_key(|r| r.id);
    println!(
        "double spend of {balance}: first -> {:?}, second -> {:?}",
        outcomes[0].body, outcomes[1].body
    );
    assert!(matches!(outcomes[0].body, ResponseBody::Committed { .. }));
    assert!(matches!(outcomes[1].body, ResponseBody::Rejected { .. }));

    // Convergence: byte-identical balances everywhere.
    let handles: Vec<_> = cluster.running().collect();
    let reports = await_convergence(&handles, Duration::from_secs(30)).expect("convergence");
    drop(handles);
    println!("\nconverged balances (identical on every replica):");
    for report in &reports {
        println!(
            "  node {:?}: digest {:016x}, balances {:?}",
            report.node,
            report.digest,
            report
                .balances
                .iter()
                .map(|b| b.units())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.balances, reports[0].balances);
    }
    let supply: u64 = reports[0].balances.iter().map(|b| b.units()).sum();
    assert_eq!(supply, initial.units() * n as u64, "supply conserved");
    println!("\ntotal supply conserved: {supply}");
    cluster.stop_all();
}
