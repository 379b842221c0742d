//! When a batch leaves, on a live node: the replica's flush rule seen
//! through the loop, the gateway and the scrape plane. The engine's
//! `engine_flush_<reason>_total` counters say why each batch left, the
//! `engine_batch_size` histogram what it held.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::EngineConfig;
use at_model::{AccountId, Amount};
use at_net::VirtualTime;
use at_node::wire::{encode_frame_into, ClientOp, ClientRequest, Frame};
use at_node::{start_tcp_cluster, Client, NodeConfig, NodeHandle, ResponseBody, TcpOptions};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

type EchoNode = EchoBroadcast<EnginePayload, NoAuth>;

const N: usize = 4;
const MAX_SIZE: usize = 128;

/// What a scrape says about node 0's batches so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Batches {
    idle: u64,
    delivered: u64,
    cap: u64,
    window: u64,
    /// Batches broadcast, transfers in them, and the largest.
    count: u64,
    transfers: u64,
    largest: u64,
}

fn batches(handle: &NodeHandle<EchoNode>) -> Batches {
    let scrape = handle.metrics(Duration::from_secs(10)).expect("scrape");
    let flushes = |reason: &str| {
        let name = format!("engine_flush_{reason}_total");
        scrape.counter(&name).expect("flush counter exported")
    };
    let sizes = scrape.histogram("engine_batch_size").expect("exported");
    Batches {
        idle: flushes("idle"),
        delivered: flushes("delivered"),
        cap: flushes("cap"),
        window: flushes("window"),
        count: sizes.count,
        transfers: sizes.sum,
        largest: sizes.max,
    }
}

/// Writes `k` transfer requests to a fresh client session of the gateway
/// at `addr` in one socket write, and waits until node 0 has committed
/// them all. The session stays open until then (its replies are left
/// unread in the socket).
fn burst(addr: std::net::SocketAddr, handle: &NodeHandle<EchoNode>, k: usize) {
    let committed_before = handle.report().committed;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut hello = Vec::new();
    encode_frame_into(&Frame::HelloClient, &mut hello);
    stream.write_all(&hello).expect("hello");
    let mut wire = Vec::new();
    for id in 0..k as u64 {
        let op = ClientOp::Transfer {
            destination: AccountId::new(1 + (id % 3) as u32),
            amount: Amount::new(1),
        };
        encode_frame_into(&Frame::Request(ClientRequest { id, op }), &mut wire);
    }
    assert!(wire.len() < at_node::wire::READ_CHUNK, "one read's worth");
    stream.write_all(&wire).expect("burst");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.report().committed < committed_before + k as u64 {
        assert!(Instant::now() < deadline, "burst of {k} never committed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The three shapes of load the flush rule tells apart, on one TCP
/// cluster with the benchmark's batch policy (128 transfers, 1 ms).
///
/// * Lone transfers, each sent after the last was acknowledged — the
///   `tcp4_open_lo` shape: each finds nothing of this node's in flight
///   and leaves at the end of the pass that read it, never at the
///   window.
/// * `k < max_size` requests in one socket write reach the loop in one
///   gateway delivery and leave as one batch of `k` — the flush is at the
///   end of the pass, not inside `submit`, which would send 1 + (k − 1).
/// * `max_size` requests in one write leave at the cap, as one batch.
#[test]
fn a_lone_transfer_leaves_idle_and_a_burst_leaves_whole() {
    let config = NodeConfig::new(
        EngineConfig::batched(MAX_SIZE, VirtualTime::from_millis(1)),
        Amount::new(10_000),
    );
    let mut cluster = start_tcp_cluster(N, config, TcpOptions::default(), |me| {
        EchoNode::new(me, N, NoAuth)
    })
    .expect("cluster");
    let addr = cluster.client_addrs[0];
    let node = cluster.handles[0].as_ref().expect("running");
    assert_eq!(batches(node), Batches::default());

    let lone = 20;
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..lone {
        client
            .submit_transfer(AccountId::new(1), Amount::new(1))
            .expect("submit");
        let response = client
            .recv_response(Duration::from_secs(10))
            .expect("io")
            .expect("ack before timeout");
        assert!(matches!(response.body, ResponseBody::Committed { .. }));
    }
    let after_lone = batches(node);
    let expected = Batches {
        idle: lone,
        count: lone,
        transfers: lone,
        largest: 1,
        ..Batches::default()
    };
    assert_eq!(after_lone, expected, "a lone transfer waited for company");

    let k = 40;
    burst(addr, node, k);
    let after_k = batches(node);
    let expected = Batches {
        idle: after_lone.idle + 1,
        count: after_lone.count + 1,
        transfers: after_lone.transfers + k as u64,
        largest: k as u64,
        ..after_lone
    };
    assert_eq!(
        after_k, expected,
        "a burst of {k} did not leave as one batch"
    );

    burst(addr, node, MAX_SIZE);
    let expected = Batches {
        cap: 1,
        count: after_k.count + 1,
        transfers: after_k.transfers + MAX_SIZE as u64,
        largest: MAX_SIZE as u64,
        ..after_k
    };
    assert_eq!(
        batches(node),
        expected,
        "a full burst did not leave at the cap"
    );
    cluster.stop_all();
}

/// Transfers pipelined faster than a broadcast round trip: whatever the
/// first pass holds leaves (idle, or at the cap when the gateway read
/// that many at once), the rest ride what accumulates behind the batch
/// in flight and leave on its delivery — well inside the window, which
/// therefore never flushes anything.
#[test]
fn pipelined_transfers_ride_the_batch_behind_the_one_in_flight() {
    // A window no test run outlasts: a batch that leaves at all did not
    // leave through it.
    let config = NodeConfig::new(
        EngineConfig::batched(MAX_SIZE, VirtualTime::from_millis(60_000)),
        Amount::new(10_000),
    );
    let mut cluster = start_tcp_cluster(N, config, TcpOptions::default(), |me| {
        EchoNode::new(me, N, NoAuth)
    })
    .expect("cluster");
    let mut client = Client::connect(cluster.client_addrs[0]).expect("connect");
    let sent = 200;
    for _ in 0..sent {
        client
            .submit_transfer(AccountId::new(2), Amount::new(1))
            .expect("submit");
    }
    while client.outstanding() > 0 {
        let response = client
            .recv_response(Duration::from_secs(20))
            .expect("io")
            .expect("ack before timeout");
        assert!(matches!(response.body, ResponseBody::Committed { .. }));
    }
    let seen = batches(cluster.handles[0].as_ref().expect("running"));
    assert_eq!(seen.transfers, sent);
    assert_eq!(seen.window, 0);
    assert_eq!(seen.idle + seen.delivered + seen.cap, seen.count);
    assert!(
        seen.delivered >= 1 && seen.count < sent,
        "200 back-to-back transfers never shared a batch: {seen:?}"
    );
    cluster.stop_all();
}
