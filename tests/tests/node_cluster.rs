//! End-to-end tests of the at-node runtime: real TCP loopback clusters
//! running the same sans-I/O replicas the simulator runs, driven over
//! the wire protocol by real clients.

use at_broadcast::auth::NoAuth;
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::pbft::PbftBroadcast;
use at_broadcast::SecureBroadcast;
use at_engine::replica::{EngineEvent, EnginePayload};
use at_engine::{EngineConfig, Replica, Workload};
use at_model::{AccountId, Amount, ProcessId};
use at_net::{Actor, Context, VirtualTime};
use at_node::{
    await_convergence, start_tcp_cluster, Client, NodeConfig, ResponseBody, TcpOptions,
    MAX_FRAME_LEN,
};
use at_obs::{merge_traces, HistogramSnapshot, Stage, TraceConfig};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

type EchoNode = EchoBroadcast<EnginePayload, NoAuth>;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

fn node_config() -> NodeConfig {
    // Window-batched: the production shape, with a short real
    // window so tests stay fast.
    NodeConfig::new(
        EngineConfig::batched(16, VirtualTime::from_micros(500)),
        Amount::new(1_000),
    )
}

/// 4-node TCP cluster, signed-echo backend, mixed workload over real
/// sockets: all transfers commit, every replica converges to
/// byte-identical balances, the supply is conserved, a double-spending
/// client's second transfer is rejected over the wire — and the stats
/// and trace scrapes account for exactly what the clients were told.
#[test]
fn tcp_cluster_converges_and_rejects_double_spend_over_the_wire() {
    let n = 4;
    let config = node_config().with_trace(TraceConfig::always());
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");

    // One real TCP client per node, driving the scenario subsystem's
    // mixed workload distribution (sink = account 2).
    let workload = Workload::Mixed {
        sink: a(2),
        percent_sink: 40,
    };
    let mut clients: Vec<Client> = cluster
        .client_addrs
        .iter()
        .map(|addr| Client::connect(*addr).expect("connect"))
        .collect();
    let waves = 8;
    let mut expected_commits = 0u64;
    for wave in 0..waves {
        for (i, client) in clients.iter_mut().enumerate() {
            if let Some(dest) = workload.destination(7, wave, i, n) {
                client
                    .submit_transfer(dest, Amount::new(3))
                    .expect("submit");
                expected_commits += 1;
            }
        }
    }

    // Every pipelined transfer is acknowledged as committed.
    let mut committed = 0u64;
    for client in &mut clients {
        while client.outstanding() > 0 {
            let response = client
                .recv_response(Duration::from_secs(20))
                .expect("io")
                .expect("ack before timeout");
            match response.body {
                ResponseBody::Committed { .. } => committed += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }
    assert_eq!(committed, expected_commits);

    // All four replicas converge to byte-identical balances.
    let handles: Vec<_> = cluster.running().collect();
    let reports = await_convergence(&handles, Duration::from_secs(30)).expect("convergence");
    for report in &reports {
        assert_eq!(report.balances, reports[0].balances, "{:?}", report.node);
        assert_eq!(report.dropped_frames, 0);
        assert_eq!(report.malformed_frames, 0);
        let supply: u64 = report.balances.iter().map(|b| b.units()).sum();
        assert_eq!(supply, 1_000 * n as u64, "supply not conserved");
    }
    drop(handles);

    // Double spend over the wire: drain the full available balance, then
    // try to spend it again — admission (which reserves in-flight
    // amounts) must reject the second transfer.
    let mut spender = Client::connect(cluster.client_addrs[0]).expect("connect");
    let balance = spender
        .read_balance(a(0), Duration::from_secs(5))
        .expect("read");
    spender.submit_transfer(a(1), balance).expect("submit");
    spender.submit_transfer(a(3), balance).expect("submit");
    let mut outcomes = Vec::new();
    while spender.outstanding() > 0 {
        let response = spender
            .recv_response(Duration::from_secs(20))
            .expect("io")
            .expect("ack before timeout");
        outcomes.push(response);
    }
    outcomes.sort_by_key(|r| r.id);
    assert!(
        matches!(outcomes[0].body, ResponseBody::Committed { .. }),
        "first spend must commit: {outcomes:?}"
    );
    assert!(
        matches!(outcomes[1].body, ResponseBody::Rejected { .. }),
        "second spend must be rejected: {outcomes:?}"
    );

    // The scrape plane agrees with what the clients saw. Over the same
    // wire protocol, every node's end-to-end stage histogram together
    // counts exactly the commit acknowledgements received; the merged
    // trace rings hold complete ingress-to-ack timelines; and a traced
    // end-to-end time is the very sample the histogram was fed, so none
    // exceeds its observed maximum.
    let mut e2e = HistogramSnapshot::default();
    let mut logs = Vec::new();
    for addr in &cluster.client_addrs {
        let mut scraper = Client::connect(*addr).expect("connect");
        let stats = scraper.stats(Duration::from_secs(5)).expect("stats");
        // Present, and 0: no honest batch fails Figure 4's well-formedness.
        assert_eq!(stats.counter("engine_malformed_dropped_total"), Some(0));
        e2e.merge(
            stats
                .histogram(Stage::EndToEnd.metric_name())
                .expect("end-to-end stage registered"),
        );
        logs.push(scraper.trace(Duration::from_secs(5)).expect("trace"));
    }
    assert_eq!(e2e.count, committed + 1, "one e2e sample per commit ack");
    let traced: Vec<u64> = merge_traces(&logs)
        .iter()
        .filter(|timeline| !timeline.incomplete)
        .filter_map(|timeline| timeline.e2e_us)
        .collect();
    assert!(!traced.is_empty(), "no merged timeline reached its ack");
    assert!(
        traced.iter().all(|&us| us <= e2e.max),
        "traced {traced:?} vs histogram max {}",
        e2e.max
    );

    cluster.stop_all();
}

/// The consensus baseline on real sockets: the node loop, the transport
/// and the gateway are the ones every backend runs on; all PBFT brings
/// is its message codec. Four TCP clients submit eight transfers each;
/// all commit, the replicas converge, and no frame is lost or refused.
#[test]
fn tcp_cluster_runs_the_pbft_baseline_through_the_same_node() {
    let n = 4;
    let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
        PbftBroadcast::new(me, n)
    })
    .expect("cluster");
    let mut clients: Vec<Client> = cluster
        .client_addrs
        .iter()
        .map(|addr| Client::connect(*addr).expect("connect"))
        .collect();
    for wave in 0..8 {
        for (i, client) in clients.iter_mut().enumerate() {
            let dest = Workload::Uniform
                .destination(7, wave, i, n)
                .expect("uniform never idles");
            client
                .submit_transfer(dest, Amount::new(3 + i as u64))
                .expect("submit");
        }
    }
    let mut committed = 0;
    for client in &mut clients {
        while client.outstanding() > 0 {
            let response = client
                .recv_response(Duration::from_secs(20))
                .expect("io")
                .expect("ack before timeout");
            match response.body {
                ResponseBody::Committed { .. } => committed += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }
    assert_eq!(committed, 32);

    let handles: Vec<_> = cluster.running().collect();
    let reports = await_convergence(&handles, Duration::from_secs(30)).expect("convergence");
    for report in &reports {
        assert_eq!(report.balances, reports[0].balances, "{:?}", report.node);
        assert_ne!(
            report.balances,
            vec![Amount::new(1_000); n],
            "nothing moved"
        );
        assert_eq!(report.dropped_frames, 0);
        assert_eq!(report.malformed_frames, 0);
    }
    drop(handles);
    cluster.stop_all();
}

/// Every metric name a scrape carries, pinned from a scrape of a node
/// built at the commit before the loop's own counts moved into the
/// registry (same scenario: commits and one rejection on a TCP node),
/// less `engine_diagnostics_dropped_total`, which counted evictions from
/// a replica drop record that nothing read and that no longer exists;
/// less `broadcast_signs_total` and `broadcast_verifies_total`, which
/// copied what `auth_signs_total` and `auth_verifies_total` count where
/// a backend signs through `ObservedAuth`; plus
/// `transport_poisoned_conns_total`, which the TCP transport counted
/// where no scrape reached; less the replica's own count of admission
/// failures, each of which the loop counts as `node_rejected_total`;
/// plus `engine_applied_history`, the gauge of the replica's applied
/// history that the memory plateau gate reads.
const SCRAPE_NAMES: [&str; 43] = [
    "broadcast_delivered_total",
    "broadcast_instances",
    "clock_anomalies",
    "engine_applied_history",
    "engine_batch_size",
    "engine_flush_cap_total",
    "engine_flush_delivered_total",
    "engine_flush_idle_total",
    "engine_flush_window_total",
    "engine_malformed_dropped_total",
    "engine_overflow_dropped_total",
    "engine_pending",
    "engine_pruned_total",
    "node_applied_total",
    "node_committed_total",
    "node_loop_idle_wakeups_total",
    "node_loop_wakeups_total",
    "node_lost_ingest_total",
    "node_malformed_frames_total",
    "node_peer_msgs_in_total",
    "node_peer_msgs_out_total",
    "node_rejected_total",
    "stage_ack_us",
    "stage_apply_us",
    "stage_batch_us",
    "stage_broadcast_us",
    "stage_catchup_us",
    "stage_e2e_us",
    "stage_gateway_us",
    "stage_sign_us",
    "stage_verify_us",
    "stage_wire_decode_us",
    "stage_wire_encode_us",
    "transport_acks_in_total",
    "transport_acks_out_total",
    "transport_bytes_in_total",
    "transport_bytes_out_total",
    "transport_dropped_frames_total",
    "transport_frames_in_total",
    "transport_frames_out_total",
    "transport_poisoned_conns_total",
    "transport_polls_total",
    "transport_reconnects_total",
];

/// The loop's counts have one home, the node's metric registry: after
/// three commits and one rejection the report and all three scrape
/// routes — TCP client, handle, in-process session — read the same
/// cells, hold what the client was told, and carry every metric name a
/// scrape ever carried.
#[test]
fn report_and_every_scrape_route_read_the_same_counts() {
    let n = 4;
    let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");
    let mut client = Client::connect(cluster.client_addrs[0]).expect("connect");
    for _ in 0..3 {
        client
            .submit_transfer(a(1), Amount::new(2))
            .expect("submit");
    }
    // More than the account ever held: rejected at admission.
    client
        .submit_transfer(a(1), Amount::new(5_000))
        .expect("submit");
    let (mut committed, mut rejected) = (0, 0);
    while client.outstanding() > 0 {
        let response = client
            .recv_response(Duration::from_secs(20))
            .expect("io")
            .expect("ack before timeout");
        match response.body {
            ResponseBody::Committed { .. } => committed += 1,
            ResponseBody::Rejected { .. } => rejected += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!((committed, rejected), (3, 1));

    let handle = cluster.handles[0].as_ref().expect("running");
    let report = handle.report();
    assert_eq!(
        (report.committed, report.applied, report.rejected),
        (3, 3, 1),
        "the report lost a count the client saw"
    );
    let timeout = Duration::from_secs(5);
    let scrapes = [
        ("Client::stats", client.stats(timeout).ok()),
        ("NodeHandle::metrics", handle.metrics(timeout)),
        ("LocalClient::stats", handle.local_client().stats(timeout)),
    ];
    for (route, scrape) in scrapes {
        let scrape = scrape.unwrap_or_else(|| panic!("{route} did not answer"));
        let counters = scrape.counters.iter().map(|metric| metric.name.as_str());
        let gauges = scrape.gauges.iter().map(|metric| metric.name.as_str());
        let histograms = scrape.histograms.iter().map(|metric| metric.name.as_str());
        let mut names: Vec<&str> = counters.chain(gauges).chain(histograms).collect();
        names.sort_unstable();
        assert_eq!(names, SCRAPE_NAMES, "{route}: metric names moved");
        for (name, reported) in [
            ("node_committed_total", report.committed),
            ("node_applied_total", report.applied),
            ("node_rejected_total", report.rejected),
            ("node_malformed_frames_total", report.malformed_frames),
            ("node_lost_ingest_total", report.lost_ingest),
        ] {
            assert_eq!(scrape.counter(name), Some(reported), "{route}: {name}");
        }
    }
    cluster.stop_all();
}

/// A stranger's garbage on a node's peer port ends that connection,
/// and the node's own scrape counts it, while honest transfers keep
/// committing.
#[test]
fn garbage_on_a_peer_port_is_scraped_as_a_poisoned_connection() {
    let n = 4;
    let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");
    let mut client = Client::connect(cluster.client_addrs[0]).expect("connect");
    let timeout = Duration::from_secs(5);
    let poisoned = |client: &mut Client| {
        let scrape = client.stats(timeout).expect("scrape");
        scrape.counter("transport_poisoned_conns_total")
    };
    assert_eq!(poisoned(&mut client), Some(0));
    // A length prefix past the frame limit, then noise: no frame at all.
    let mut stranger = TcpStream::connect(cluster.directory.get(0)).expect("peer port");
    let mut garbage = (MAX_FRAME_LEN + 7).to_le_bytes().to_vec();
    garbage.extend((0..64u8).map(|i| i.wrapping_mul(37)));
    stranger.write_all(&garbage).expect("write");
    for _ in 0..8 {
        client
            .submit_transfer(a(1), Amount::new(1))
            .expect("submit");
    }
    while client.outstanding() > 0 {
        let response = client.recv_response(timeout).expect("io").expect("ack");
        assert!(
            matches!(response.body, ResponseBody::Committed { .. }),
            "{response:?}"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while poisoned(&mut client) == Some(0) {
        assert!(Instant::now() < deadline, "the garbage was never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(poisoned(&mut client), Some(1));
    drop(stranger);
    cluster.stop_all();
}

/// One transfer of 2 from every running node but `skip`, to an account
/// that rotates with `wave`. Ack consumption is not needed; commits are
/// observed via reports.
fn submit_wave(cluster: &at_node::TcpCluster<EchoNode>, skip: Option<usize>, wave: u32) {
    let n = cluster.handles.len();
    for (i, handle) in cluster.handles.iter().enumerate() {
        if Some(i) == skip {
            continue;
        }
        if let Some(handle) = handle {
            let mut client = handle.local_client();
            client.submit_transfer(a(((i as u32) + wave + 1) % n as u32), Amount::new(2));
        }
    }
}

/// Crash/restart: one node leaves mid-run, traffic continues without
/// it, and after a warm restart (the replica-restart model at-check
/// introduced on the simulator: state kept, missed messages replayed by
/// the peers' outboxes) it catches up and converges.
#[test]
fn tcp_node_restart_catches_up_and_converges() {
    let n = 4;
    let victim = 3usize;
    let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");

    // Phase 1: everyone participates.
    for wave in 0..4 {
        submit_wave(&cluster, None, wave);
    }
    let handles: Vec<_> = cluster.running().collect();
    await_convergence(&handles, Duration::from_secs(30)).expect("phase-1 convergence");
    drop(handles);

    // Phase 2: the victim leaves mid-run (warm stop); the rest keep
    // transferring. Their frames to the victim buffer in the outboxes.
    let replica = cluster.stop_node(victim);
    for wave in 4..8 {
        submit_wave(&cluster, Some(victim), wave);
    }
    let survivors: Vec<_> = cluster.running().collect();
    let reports = await_convergence(&survivors, Duration::from_secs(30))
        .expect("survivors must converge without the victim");
    let survivor_digest = reports[0].digest;
    drop(survivors);

    // Phase 3: restart from the warm replica. Peers reconnect, replay
    // everything the victim missed, and it catches up.
    cluster.restart_node(victim, replica).expect("restart");
    let handles: Vec<_> = cluster.running().collect();
    let reports =
        await_convergence(&handles, Duration::from_secs(30)).expect("restarted node must catch up");
    assert_eq!(reports.len(), n);
    assert_eq!(
        reports[victim].digest, survivor_digest,
        "restarted node did not reach the survivors' state"
    );
    for report in &reports {
        assert_eq!(report.balances, reports[0].balances);
        let supply: u64 = report.balances.iter().map(|b| b.units()).sum();
        assert_eq!(supply, 1_000 * n as u64);
    }
    drop(handles);

    // And the cluster still works: post-restart traffic commits
    // everywhere, including at the restarted node.
    for wave in 8..10 {
        submit_wave(&cluster, None, wave);
    }
    let handles: Vec<_> = cluster.running().collect();
    let reports =
        await_convergence(&handles, Duration::from_secs(30)).expect("post-restart convergence");
    for report in &reports {
        assert_eq!(report.balances, reports[0].balances);
    }
    drop(handles);
    cluster.stop_all();
}

/// Acknowledgements trail the data by up to a quiet period, so a stop
/// requested right after traffic finds the node's peers still holding
/// frames it has processed but not acknowledged, and its own outboxes
/// unflushed. The stop must neither wait for `stop_grace` nor leave
/// anything behind that the next incarnation applies a second time.
#[test]
fn tcp_warm_restart_right_after_traffic_is_prompt_and_applies_nothing_twice() {
    let n = 4;
    let victim = 2usize;
    let config = NodeConfig {
        stop_grace: Duration::from_secs(10),
        ..node_config()
    };
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");
    let await_applied = |cluster: &at_node::TcpCluster<EchoNode>, applied: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        for handle in cluster.running() {
            while handle.applied() < applied {
                assert!(Instant::now() < deadline, "transfers never applied");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };

    for wave in 0..3 {
        submit_wave(&cluster, None, wave);
    }
    await_applied(&cluster, 12);
    // The drain window (50 ms of silence), one quiet period for the
    // peers' acknowledgements, the transport's 200 ms liveness tick to
    // join its readers — not the 10 s grace.
    let started = Instant::now();
    let replica = cluster.stop_node(victim);
    let stopping = started.elapsed();
    assert!(
        stopping < Duration::from_millis(1_000),
        "a stop right after traffic took {stopping:?}"
    );

    for wave in 3..5 {
        submit_wave(&cluster, Some(victim), wave);
    }
    await_applied(&cluster, 18);
    cluster.restart_node(victim, replica).expect("restart");
    let handles: Vec<_> = cluster.running().collect();
    let reports =
        await_convergence(&handles, Duration::from_secs(30)).expect("restarted node must catch up");
    assert_eq!(reports.len(), n);
    for (i, report) in reports.iter().enumerate() {
        // The counter is per incarnation: the restarted node applied
        // the six transfers it missed and not one it already had.
        let expected = if i == victim { 6 } else { 18 };
        assert_eq!(report.applied, expected, "node {i} applied twice");
        assert_eq!(report.balances, reports[0].balances);
        let supply: u64 = report.balances.iter().map(|b| b.units()).sum();
        assert_eq!(supply, 1_000 * n as u64);
        assert_eq!(report.lost_ingest, 0);
        assert_eq!(report.dropped_frames, 0);
    }
    drop(handles);
    cluster.stop_all();
}

/// Crash/warm-restart trace continuity: the trace epoch lives in
/// `NodeConfig` and survives a warm restart, so a restarted node's
/// *new* tracer (the old incarnation's ring dies with its loop) keeps
/// stamping on the shared cluster clock. Replayed broadcast frames
/// carry their original trace contexts, so the merger reconstructs
/// timelines that span the crash — with the downtime visible as a
/// gap annotation — and post-restart transfers trace end-to-end with
/// the restarted node participating.
#[test]
fn tcp_restart_traces_merge_across_incarnations() {
    use at_obs::{merge_traces, TraceConfig, TraceLog};
    let n = 4;
    let victim = 3usize;
    let config = node_config().with_trace(TraceConfig::always());
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoNode::new(me, n, NoAuth)
    })
    .expect("cluster");

    let submit_at = |cluster: &at_node::TcpCluster<EchoNode>, i: usize, wave: u32| {
        if let Some(handle) = cluster.handles[i].as_ref() {
            let mut client = handle.local_client();
            client.submit_transfer(a(((i as u32) + wave + 1) % n as u32), Amount::new(1));
        }
    };

    // Phase 1: traffic with everyone up, then the victim warm-stops.
    for wave in 0..3 {
        for i in 0..n {
            submit_at(&cluster, i, wave);
        }
    }
    let handles: Vec<_> = cluster.running().collect();
    await_convergence(&handles, Duration::from_secs(30)).expect("phase-1 convergence");
    drop(handles);
    let replica = cluster.stop_node(victim);

    // Phase 2: survivors keep committing while the victim is down —
    // these transfers' traces are minted now, but the victim will only
    // record its deliveries after the restart replays the frames to it,
    // at least `downtime` later on the shared clock.
    for wave in 3..6 {
        for i in 0..n - 1 {
            submit_at(&cluster, i, wave);
        }
    }
    let survivors: Vec<_> = cluster.running().collect();
    await_convergence(&survivors, Duration::from_secs(30)).expect("survivors converge");
    drop(survivors);
    let downtime = Duration::from_millis(50);
    std::thread::sleep(downtime);

    // Phase 3: warm restart, catch-up, and one more traced wave with
    // the restarted node participating.
    cluster.restart_node(victim, replica).expect("restart");
    for wave in 6..8 {
        for i in 0..n {
            submit_at(&cluster, i, wave);
        }
    }
    let handles: Vec<_> = cluster.running().collect();
    await_convergence(&handles, Duration::from_secs(30)).expect("post-restart convergence");
    let logs: Vec<TraceLog> = handles
        .iter()
        .map(|h| h.trace(Duration::from_secs(5)).expect("trace scrape"))
        .collect();
    drop(handles);
    cluster.stop_all();

    assert!(
        logs.iter().all(|log| !log.events.is_empty()),
        "every node (the restarted incarnation included) must have recorded events"
    );
    let timelines = merge_traces(&logs);
    assert!(!timelines.is_empty(), "no merged timelines");
    // The restarted incarnation participates in post-restart timelines
    // on the shared clock.
    assert!(
        timelines
            .iter()
            .any(|t| { t.e2e_us.is_some() && t.events.iter().any(|e| e.node == victim as u32) }),
        "no complete timeline includes the restarted node"
    );
    // A phase-2 transfer delivered to the victim only via post-restart
    // replay spans the downtime: its merged timeline shows the stall as
    // a rendered gap annotation (downtime > the 10ms annotation bound).
    assert!(
        timelines.iter().any(|t| t.render().contains("gap")),
        "no timeline spanning the restart carries a gap annotation"
    );
}

/// A replica hears its own messages inside the handler that sent them:
/// driven through the exact detached-context path the node uses, no
/// handler's outbox holds an entry addressed to its own process, on any
/// backend, and two transfers — one from PBFT's leader, one forwarded
/// to it — still complete and apply everywhere. (That a backend survives
/// remote responses overtaking its self-addressed messages, which a
/// socket runtime produced before, is checked on the backends themselves:
/// at-broadcast's `remote_messages_may_overtake_self_addressed_ones`.)
#[test]
fn a_replica_sends_nothing_to_itself() {
    type Queue<M> = VecDeque<(ProcessId, ProcessId, M)>;
    fn route<M>(me: ProcessId, ctx: Context<'_, M, EngineEvent>, queue: &mut Queue<M>) {
        for (to, msg) in ctx.into_outputs().outbox {
            assert_ne!(to, me, "{me} addressed a message to itself");
            queue.push_back((me, to, msg));
        }
    }
    fn run<B, F>(make: F)
    where
        B: SecureBroadcast<EnginePayload>,
        F: Fn(ProcessId) -> B,
    {
        let n = 4;
        let config = EngineConfig::unbatched();
        let mut replicas: Vec<Replica<B>> = (0..n as u32)
            .map(|i| Replica::with_backend(p(i), n, Amount::new(100), config, make(p(i))))
            .collect();
        let mut events = Vec::new();
        let mut queue = Queue::new();
        for (from, to, amount) in [(0, 1, 25), (1, 2, 10)] {
            let mut ctx = Context::detached(VirtualTime::ZERO, p(from), n, &mut events);
            replicas[from as usize].submit(a(to), Amount::new(amount), &mut ctx);
            route(p(from), ctx, &mut queue);
        }
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "delivery did not quiesce");
            let mut ctx = Context::detached(VirtualTime::ZERO, to, n, &mut events);
            replicas[to.as_usize()].on_message(from, msg, &mut ctx);
            route(to, ctx, &mut queue);
        }

        for submitter in [p(0), p(1)] {
            assert!(
                events.iter().any(
                    |(_, at, e)| *at == submitter && matches!(e, EngineEvent::Completed { .. })
                ),
                "{submitter}'s transfer never completed"
            );
        }
        for replica in &replicas {
            assert_eq!(replica.balance(a(0)), Amount::new(75));
            assert_eq!(replica.balance(a(1)), Amount::new(115));
            assert_eq!(replica.balance(a(2)), Amount::new(110));
        }
    }

    run(|me| BrachaBroadcast::<EnginePayload>::new(me, 4));
    run(|me| EchoBroadcast::<EnginePayload, NoAuth>::new(me, 4, NoAuth));
    run(|me| at_broadcast::AccountOrderBackend::<EnginePayload, NoAuth>::new(me, 4, NoAuth));
    run(|me| PbftBroadcast::<EnginePayload>::new(me, 4));
}
