//! The node loop is event-driven: it blocks in one place until a frame,
//! a command or a real deadline, and its `node_loop_wakeups_total` /
//! `node_loop_idle_wakeups_total` counters say so — and over TCP that
//! one place is the transport's `poll`, whose every return
//! `transport_polls_total` counts, housekeeping the loop never sees
//! included. Every test here fails on a loop that polls.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::EngineConfig;
use at_model::{AccountId, Amount, ProcessId};
use at_net::transport::{FaultInjector, LinkProfile};
use at_net::VirtualTime;
use at_node::{
    start_mesh_cluster, start_tcp_cluster, start_tcp_cluster_with, Client, ClusterOptions,
    NodeConfig, NodeHandle, ResponseBody, TcpOptions,
};
use std::time::{Duration, Instant};

type EchoNode = EchoBroadcast<EnginePayload, NoAuth>;

const N: usize = 4;

fn node_config() -> NodeConfig {
    NodeConfig::new(
        EngineConfig::batched(16, VirtualTime::from_micros(500)),
        Amount::new(1_000),
    )
}

fn echo(me: ProcessId) -> EchoNode {
    EchoNode::new(me, N, NoAuth)
}

/// One node's counts, from one in-process scrape — itself two commands
/// (the request, then the session's hang-up), so it adds two wake-ups
/// to what the next scrape reads.
#[derive(Clone, Copy)]
struct Counts {
    wakeups: u64,
    idle: u64,
    /// Peer messages fed to the replica (its own it hears inside the
    /// replica, uncounted).
    msgs: u64,
    polls: u64,
    frames_in: u64,
    acks: u64,
}

fn loop_counters(handle: &NodeHandle<EchoNode>) -> Counts {
    let snapshot = handle
        .metrics(Duration::from_secs(10))
        .expect("metrics scrape");
    let counter = |name: &str| {
        snapshot
            .counter(name)
            .unwrap_or_else(|| panic!("{name} is not exported"))
    };
    Counts {
        wakeups: counter("node_loop_wakeups_total"),
        idle: counter("node_loop_idle_wakeups_total"),
        msgs: counter("node_peer_msgs_in_total"),
        polls: counter("transport_polls_total"),
        frames_in: counter("transport_frames_in_total"),
        acks: counter("transport_acks_in_total") + counter("transport_acks_out_total"),
    }
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
    for (handle, before) in handles.iter().zip(before) {
        let woke = loop_counters(handle).wakeups - before.wakeups;
        assert!(woke < 20, "an idle node loop woke {woke} times in 500 ms");
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
        let wakeups = after.wakeups - before.wakeups;
        let idle = after.idle - before.idle;
        // Frames in (the peer messages fed to the replica), the scrape,
        // the client's request at node 0, the end-of-pass flush timer at
        // node 0 and a prune that may come due — plus a little slack.
        let msgs = after.msgs - before.msgs;
        let inputs = msgs + 1 + 2 * u64::from(i == 0) + 1;
        assert!(wakeups >= 1, "node {i} committed without waking");
        assert!(
            wakeups <= inputs + 2,
            "node {i}: {wakeups} wake-ups for {inputs} inputs"
        );
        // The transport's own returns from `poll`: the frames in, the
        // acknowledgements in and out it handles without waking the
        // loop, the scrape's two commands and node 0's request, the
        // same timers — plus the same slack. A thread that moved
        // frames or acks behind the loop's back would not show here,
        // but its hand-offs would, as loop wake-ups above.
        let polls = after.polls - before.polls;
        let absorbed = (after.frames_in - before.frames_in) + (after.acks - before.acks);
        let commands = 2 + u64::from(i == 0);
        let timers = 1 + u64::from(i == 0);
        assert!(
            polls <= absorbed + commands + timers + 2,
            "node {i}: {polls} polls for {absorbed} frames and acks, \
             {commands} commands and {timers} timers"
        );
        // One instance is 12 peer messages, 3 at every node: the three
        // echo shares at the source; SEND, FINAL and the one relay of
        // the receiver before it (wrapping round, skipping the source)
        // at each receiver.
        assert_eq!(msgs, 3, "node {i} was fed {msgs} messages for one instance");
        assert!(idle <= 2, "node {i}: {idle} wake-ups found nothing to do");
    }
    cluster.stop_all();
}

#[test]
fn a_delayed_tcp_frame_is_delivered_at_its_deadline_with_nothing_else_happening() {
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
    // themselves and their acknowledgements are out, nothing but the
    // held frames' own deadlines can bring their loops back to their
    // transports.
    let mut config = node_config();
    config.prune_interval = Duration::MAX;
    let options = ClusterOptions::default().with_faults(faults);
    let mut cluster = start_tcp_cluster_with(N, config, options, echo).expect("cluster");

    let started = Instant::now();
    let handles: Vec<_> = cluster.running().collect();
    let mut client = handles[0].local_client();
    client.submit_transfer(AccountId::new(2), Amount::new(1));
    await_applied([handles[1]], 1);
    let elapsed = started.elapsed();
    assert!(
        elapsed >= delay,
        "node 1 applied after {elapsed:?}, before the link's {delay:?} delay"
    );
    assert!(
        elapsed < delay + Duration::from_millis(500),
        "the held frame waited {elapsed:?} for an unrelated wake-up"
    );
    drop(client);
    drop(handles);
    cluster.stop_all();
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

#[test]
fn stopping_an_idle_tcp_node_does_not_wait_out_a_read_timeout() {
    let mut cluster =
        start_tcp_cluster(N, node_config(), TcpOptions::default(), echo).expect("cluster");
    std::thread::sleep(Duration::from_millis(100));
    // The TCP twin of the mesh test above: no thread of the transport
    // sits in a timed read that a stop has to wait out.
    let fastest = (0..N)
        .map(|i| {
            let started = Instant::now();
            cluster.stop_node(i);
            started.elapsed()
        })
        .min()
        .expect("four nodes");
    assert!(
        fastest < Duration::from_millis(50),
        "stopping an idle TCP node took {fastest:?}"
    );
}
