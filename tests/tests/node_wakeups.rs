//! The node loop is event-driven: it blocks in one place until a frame,
//! a command or a real deadline, and its `node_loop_wakeups_total` /
//! `node_loop_idle_wakeups_total` counters say so. Every test here
//! fails on a loop that polls.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::EngineConfig;
use at_model::{AccountId, Amount, ProcessId};
use at_net::transport::{FaultInjector, LinkProfile};
use at_net::VirtualTime;
use at_node::{
    start_mesh_cluster, start_mesh_cluster_with, start_tcp_cluster, Client, ClusterOptions,
    NodeConfig, NodeHandle, ResponseBody, TcpOptions,
};
use std::time::{Duration, Instant};

type EchoNode = EchoBroadcast<EnginePayload, NoAuth>;

const N: usize = 4;

fn node_config() -> NodeConfig {
    NodeConfig::new(
        EngineConfig::sharded_batched(4, 16, VirtualTime::from_micros(500)),
        Amount::new(1_000),
    )
}

fn echo(me: ProcessId) -> EchoNode {
    EchoNode::new(me, N, NoAuth)
}

/// `(wake-ups, idle wake-ups, peer messages fed to the replica)`. The
/// scrape is itself a command, so it adds one wake-up to what it reads.
fn loop_counters(handle: &NodeHandle<EchoNode>) -> (u64, u64, u64) {
    let snapshot = handle
        .metrics(Duration::from_secs(10))
        .expect("metrics scrape");
    let counter = |name: &str| {
        snapshot
            .counter(name)
            .unwrap_or_else(|| panic!("{name} is not exported"))
    };
    (
        counter("node_loop_wakeups_total"),
        counter("node_loop_idle_wakeups_total"),
        counter("node_peer_msgs_in_total"),
    )
}

/// Waits, without sending the loops a command, until every node has
/// applied `applied` transfers.
fn await_applied<'a>(handles: impl IntoIterator<Item = &'a NodeHandle<EchoNode>>, applied: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for handle in handles {
        while handle.applied() < applied {
            assert!(Instant::now() < deadline, "transfer never applied");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn an_idle_mesh_cluster_makes_no_timed_wakeups() {
    let handles = start_mesh_cluster(N, node_config(), echo);
    let before: Vec<_> = handles.iter().map(loop_counters).collect();
    std::thread::sleep(Duration::from_millis(500));
    for (handle, (before, _, _)) in handles.iter().zip(before) {
        let (after, _, _) = loop_counters(handle);
        assert!(
            after - before < 20,
            "an idle node loop woke {} times in 500 ms",
            after - before
        );
    }
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn one_transfer_on_an_idle_tcp_cluster_wakes_each_loop_once_per_input() {
    let mut cluster =
        start_tcp_cluster(N, node_config(), TcpOptions::default(), echo).expect("cluster");
    let mut client = Client::connect(cluster.client_addrs[0]).expect("connect");
    let commit = |client: &mut Client| {
        client
            .submit_transfer(AccountId::new(1), Amount::new(1))
            .expect("submit");
        let response = client
            .recv_response(Duration::from_secs(10))
            .expect("io")
            .expect("ack before timeout");
        assert!(matches!(response.body, ResponseBody::Committed { .. }));
    };
    // Warm-up: every link dialed, every handshake done.
    commit(&mut client);
    await_applied(cluster.running(), 1);
    std::thread::sleep(Duration::from_millis(100));

    let before: Vec<_> = cluster.running().map(loop_counters).collect();
    commit(&mut client);
    await_applied(cluster.running(), 2);
    std::thread::sleep(Duration::from_millis(100));

    for (i, (handle, before)) in cluster.running().zip(before).enumerate() {
        let after = loop_counters(handle);
        let wakeups = after.0 - before.0;
        let idle = after.1 - before.1;
        // Frames in (the replica's message count includes its own
        // loopback, so it bounds them from above), the scrape, the
        // client's request at node 0, the end-of-pass flush timer at
        // node 0 and a prune that may come due — plus a little slack.
        let msgs = after.2 - before.2;
        let inputs = msgs + 1 + 2 * u64::from(i == 0) + 1;
        assert!(wakeups >= 1, "node {i} committed without waking");
        assert!(
            wakeups <= inputs + 2,
            "node {i}: {wakeups} wake-ups for {inputs} inputs"
        );
        // One instance is 18 messages, loop-backs included: SEND, four
        // echo shares and FINAL at the source; SEND, FINAL and the two
        // other receivers' relays at each receiver.
        assert!(
            msgs <= if i == 0 { 6 } else { 4 },
            "node {i} was fed {msgs} messages for one instance"
        );
        assert!(idle <= 2, "node {i}: {idle} wake-ups found nothing to do");
    }
    cluster.stop_all();
}

#[test]
fn a_delayed_mesh_frame_is_delivered_at_its_deadline_with_nothing_else_happening() {
    let delay = Duration::from_millis(40);
    let faults = FaultInjector::new(1);
    for from in [0, 2, 3] {
        faults.set_link(
            ProcessId::new(from),
            ProcessId::new(1),
            LinkProfile {
                delay_us: delay.as_micros() as u32,
                ..LinkProfile::default()
            },
        );
    }
    // No prune timer: once the other three have committed among
    // themselves, nothing but the parked frames' own deadlines can
    // bring their loops back to their transports.
    let mut config = node_config();
    config.prune_interval = Duration::MAX;
    let options = ClusterOptions::default().with_faults(faults);
    let handles: Vec<_> = start_mesh_cluster_with(N, config, &options, echo)
        .expect("cluster")
        .handles
        .into_iter()
        .flatten()
        .collect();

    let started = Instant::now();
    let mut client = handles[0].local_client();
    client.submit_transfer(AccountId::new(2), Amount::new(1));
    await_applied([&handles[1]], 1);
    let elapsed = started.elapsed();
    assert!(
        elapsed >= delay,
        "node 1 applied after {elapsed:?}, before the link's {delay:?} delay"
    );
    assert!(
        elapsed < delay + Duration::from_millis(500),
        "the parked frame waited {elapsed:?} for an unrelated wake-up"
    );
    drop(client);
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn stopping_an_idle_node_does_not_wait_out_a_drain_window() {
    let handles = start_mesh_cluster(N, node_config(), echo);
    std::thread::sleep(Duration::from_millis(100));
    // The fastest of four stops: one scheduler hiccup may slow a stop,
    // a wait built into the loop slows them all.
    let fastest = handles
        .into_iter()
        .map(|handle| {
            let started = Instant::now();
            handle.stop();
            started.elapsed()
        })
        .min()
        .expect("four nodes");
    assert!(
        fastest < Duration::from_millis(50),
        "stopping an idle node took {fastest:?}"
    );
}
