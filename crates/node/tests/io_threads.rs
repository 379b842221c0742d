//! Who moves a TCP node's peer frames, counted from `/proc`: the node
//! loop does it itself, beside one parked dialing thread, so a frame
//! costs a thread wake-up on each side and nothing in between. Both
//! tests fail on a transport that hands frames between threads (the
//! per-peer writer/reader/ack-reader driver ran 11 threads per node
//! and ~6 context switches per round trip).
//!
//! Both read process-wide counts, so they run one at a time, in a test
//! binary of their own.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::EngineConfig;
use at_model::{AccountId, Amount, ProcessId};
use at_net::transport::{RecvOutcome, Transport};
use at_node::{
    peer_directory, start_tcp_cluster, NodeConfig, ResponseBody, TcpOptions, TcpTransport,
};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Every thread of this process: its name and its context switches
/// (voluntary and not) so far.
fn tasks() -> Vec<(String, u64)> {
    let mut tasks = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        // A thread that exits between the listing and the read is gone
        // from the count either way.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let switches = status
            .lines()
            .filter(|line| line.contains("ctxt_switches:"))
            .filter_map(|line| line.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum();
        tasks.push((comm.trim().to_string(), switches));
    }
    tasks
}

#[test]
fn a_tcp_node_runs_its_loop_and_one_dialer_beside_its_gateway() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4;
    let config = NodeConfig::new(EngineConfig::unsharded(), Amount::new(1_000));
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoBroadcast::new(me, n, NoAuth)
    })
    .expect("cluster");
    // One committed transfer: every link dialed and accepted.
    let mut client = cluster.running().next().expect("node 0").local_client();
    client.submit_transfer(AccountId::new(1), Amount::new(1));
    let ack = client.recv_response(Duration::from_secs(10)).expect("ack");
    assert!(matches!(ack.body, ResponseBody::Committed { .. }));

    // The kernel keeps 15 bytes of a name: "at-node-p0-loop",
    // "at-node-p0-dial"; the gateway's are "at-node-gateway" and
    // "at-node-client-…".
    let io: Vec<String> = tasks()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("at-node-"))
        .filter(|name| !name.starts_with("at-node-gateway") && !name.starts_with("at-node-client"))
        .collect();
    assert!(
        io.len() <= 2 * n,
        "{} node threads beside the gateways for {n} nodes: {io:?}",
        io.len()
    );
    drop(client);
    cluster.stop_all();
}

#[test]
fn a_round_trip_between_two_tcp_transports_costs_two_context_switches() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const ROUND_TRIPS: u64 = 1_000;
    let listeners = [
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    ];
    let directory = peer_directory(listeners.iter().map(|l| l.local_addr().unwrap()).collect());
    let [l0, l1] = listeners;
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let mut a = TcpTransport::start(p0, l0, Arc::clone(&directory), TcpOptions::default())
        .expect("endpoint 0");
    let mut b = TcpTransport::start(p1, l1, directory, TcpOptions::default()).expect("endpoint 1");
    let exchange = |a: &mut TcpTransport, payload: Vec<u8>| {
        a.send(p1, payload);
        loop {
            match a.recv_timeout(Duration::from_secs(10)) {
                RecvOutcome::Frame(frame) => return frame.payload,
                RecvOutcome::TimedOut => {}
                RecvOutcome::Closed => panic!("endpoint 0 closed"),
            }
        }
    };
    std::thread::scope(|s| {
        // Endpoint 1 echoes on a thread of its own, as a peer node's
        // loop would; an empty frame ends it.
        let echo = s.spawn(move || loop {
            if let RecvOutcome::Frame(frame) = b.recv_timeout(Duration::from_secs(10)) {
                let done = frame.payload.is_empty();
                b.send(p0, frame.payload);
                if done {
                    return b;
                }
            }
        });
        // The first exchange pays the handshake.
        exchange(&mut a, vec![0]);
        let before: u64 = tasks().iter().map(|(_, switches)| switches).sum();
        for i in 0..ROUND_TRIPS {
            let payload = i.to_le_bytes().to_vec();
            assert_eq!(exchange(&mut a, payload.clone()), payload);
        }
        let after: u64 = tasks().iter().map(|(_, switches)| switches).sum();
        exchange(&mut a, Vec::new());
        let mut b = echo.join().expect("echo thread");
        let per_round_trip = (after - before) as f64 / ROUND_TRIPS as f64;
        assert!(
            per_round_trip <= 2.5,
            "a loopback round trip cost {per_round_trip:.2} context switches"
        );
        a.shutdown();
        b.shutdown();
    });
}
