//! Chaos satellites: gateway fuzzing against a live node, deterministic
//! nemesis replay, and the loadgen-under-loss regression — all on real
//! TCP clusters (threads, wall clocks, sockets).

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_chaos::{
    format_nemesis_schedule, generate_schedule, run_seeded, run_with_schedule, ChaosConfig,
    NemesisChoice, CLUSTER_SIZE,
};
use at_engine::replica::EnginePayload;
use at_engine::{BroadcastBackend, EngineConfig};
use at_model::{AccountId, Amount};
use at_net::VirtualTime;
use at_node::wire::{encode_frame, Frame, MAX_FRAME_LEN, WIRE_VERSION};
use at_node::{start_tcp_cluster, Client, NodeConfig, ResponseBody, TcpOptions};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

type Echo = EchoBroadcast<EnginePayload, NoAuth>;

fn node_config() -> NodeConfig {
    NodeConfig::new(
        EngineConfig::batched(16, VirtualTime::from_micros(500)),
        Amount::new(1_000),
    )
    // Always-on tracing, so the trace leg of the serving oracle has
    // events to scrape (and the fuzzed node exercises the traced path).
    .with_trace(at_obs::TraceConfig::always())
}

/// Submits one transfer through a fresh, well-formed client and expects
/// the commit acknowledgement, then scrapes the node's metrics over the
/// same connection — the "gateway still alive and serving (introspection
/// plane included)" oracle between fuzz volleys.
fn assert_gateway_serves(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("well-formed client connects");
    client
        .submit_transfer(AccountId::new(1), Amount::new(1))
        .expect("submit");
    let ack = client
        .recv_response(Duration::from_secs(20))
        .expect("io")
        .expect("ack before timeout");
    assert!(
        matches!(ack.body, ResponseBody::Committed { .. }),
        "expected commit, got {ack:?}"
    );
    let snapshot = client
        .stats(Duration::from_secs(10))
        .expect("stats round-trip over the fuzzed gateway");
    assert!(
        snapshot.counter("node_committed_total").unwrap_or(0) >= 1,
        "scraped metrics must reflect the commit just acknowledged"
    );
    let log = client
        .trace(Duration::from_secs(10))
        .expect("trace round-trip over the fuzzed gateway");
    assert!(
        !log.events.is_empty(),
        "always-on tracing must have recorded the commit just acknowledged"
    );
}

/// Satellite: malformed / truncated / oversized / wrong-version client
/// frames against a live gateway never panic the node, never stall its
/// event loop, and leave subsequent well-formed requests serviceable.
#[test]
fn gateway_survives_hostile_client_frames() {
    let n = 3;
    let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
        Echo::new(me, n, NoAuth)
    })
    .expect("cluster");
    let addr = cluster.client_addrs[0];

    // An oversized length prefix (the classic allocation bomb).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    drop(conn);

    // A truncated frame: declares 50 body bytes, delivers 5, hangs up.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&50u32.to_le_bytes()).unwrap();
    conn.write_all(&[WIRE_VERSION, 5, 0, 0, 0]).unwrap();
    drop(conn);

    // A wrong version byte on an otherwise valid handshake.
    let mut bytes = encode_frame(&Frame::HelloClient);
    bytes[4] = WIRE_VERSION + 1;
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&bytes).unwrap();
    drop(conn);

    // A peer-protocol frame on the client port (kind confusion).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloNode {
        node: at_model::ProcessId::new(0),
        epoch: 1,
    }))
    .unwrap();
    drop(conn);

    // A valid handshake followed by a request with an unknown op tag.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    let body = vec![WIRE_VERSION, 5, 9, 9, 9, 9, 9, 9, 9, 9, 0xFF];
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    conn.write_all(&framed).unwrap();
    drop(conn);

    // A stats request before any handshake (introspection is for
    // greeted clients only — must be ignored, not served or panicked).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::StatsRequest { id: 7 }))
        .unwrap();
    drop(conn);

    // A truncated stats request: valid handshake, kind byte 7, id cut
    // short mid-field.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    let body = vec![WIRE_VERSION, 7, 1, 2, 3];
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    conn.write_all(&framed).unwrap();
    drop(conn);

    // A client pushing a StatsResponse — the server-to-client kind — at
    // the gateway (direction confusion).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    conn.write_all(&encode_frame(&Frame::StatsResponse {
        id: 9,
        snapshot: at_obs::Snapshot::default(),
    }))
    .unwrap();
    drop(conn);

    // A trace request before any handshake (the trace scrape plane is
    // for greeted clients only — ignored, not served or panicked).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::TraceRequest { id: 11 }))
        .unwrap();
    drop(conn);

    // A truncated trace request: valid handshake, kind byte 9, id cut
    // short mid-field.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    let body = vec![WIRE_VERSION, 9, 4, 5];
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    conn.write_all(&framed).unwrap();
    drop(conn);

    // A client pushing a TraceResponse — the server-to-client kind — at
    // the gateway (direction confusion on the trace plane).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    conn.write_all(&encode_frame(&Frame::TraceResponse {
        id: 13,
        log: at_obs::TraceLog::default(),
    }))
    .unwrap();
    drop(conn);

    // A slow client that never completes its frame, held open across
    // the liveness check: its reader thread must not block the loop.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(&encode_frame(&Frame::HelloClient)).unwrap();
    idle.write_all(&100u32.to_le_bytes()).unwrap();

    // After every volley — and with the stalled connection still open —
    // a well-formed client is served normally.
    assert_gateway_serves(addr);
    drop(idle);

    let handles: Vec<_> = cluster.running().collect();
    let reports =
        at_node::await_convergence(&handles, Duration::from_secs(20)).expect("convergence");
    for report in &reports {
        assert_eq!(report.dropped_frames, 0);
    }
    drop(handles);
    cluster.stop_all();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random byte soup at the gateway: no panic, no stall, and the
    /// next well-formed client still gets its transfer committed.
    #[test]
    fn gateway_survives_random_client_bytes(blob in prop::collection::vec(any::<u8>(), 1..256)) {
        let n = 2;
        let mut cluster = start_tcp_cluster(n, node_config(), TcpOptions::default(), |me| {
            Echo::new(me, n, NoAuth)
        })
        .expect("cluster");
        let addr = cluster.client_addrs[0];
        let mut conn = TcpStream::connect(addr).unwrap();
        let _ = conn.write_all(&blob);
        drop(conn);
        // Junk *after* a valid handshake, too.
        let mut conn = TcpStream::connect(addr).unwrap();
        let _ = conn.write_all(&encode_frame(&Frame::HelloClient));
        let _ = conn.write_all(&blob);
        drop(conn);
        assert_gateway_serves(addr);
        cluster.stop_all();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite: a recorded nemesis schedule replays deterministically
    /// over TCP — same seed + schedule ⇒ byte-identical final balances
    /// — and `dropped_frames() == 0` after every heal-and-drain (the
    /// replay layer repaired every injected loss).
    /// Crash-free schedules only: a crash drops the requests in flight
    /// to its victim, and how many is a matter of timing.
    #[test]
    fn nemesis_schedules_replay_deterministically_on_tcp(seed in 0u64..10_000) {
        let config = ChaosConfig {
            quota: 25,
            disruptions: 3,
            drain_timeout: Duration::from_secs(20),
            ..ChaosConfig::default()
        };
        let schedule = generate_schedule(seed, CLUSTER_SIZE, config.disruptions);
        prop_assume!(!schedule.iter().any(|c| matches!(c, NemesisChoice::CrashRestart { .. })));
        let run = || run_seeded(&config, BroadcastBackend::signed_echo(), seed);
        let (first, second) = (run(), run());
        prop_assert_eq!(&first.schedule, &second.schedule, "schedule not pure in the seed");
        prop_assert!(
            first.violations.is_empty() && second.violations.is_empty(),
            "schedule {}: {:?} / {:?}",
            format_nemesis_schedule(&first.schedule),
            first.violations,
            second.violations
        );
        prop_assert!(first.converged && second.converged);
        prop_assert_eq!(first.dropped_frames, 0);
        prop_assert_eq!(second.dropped_frames, 0);
        prop_assert_eq!(&first.balances, &second.balances, "balances diverged across replays");
        prop_assert_eq!(first.digest, second.digest);
    }
}

/// Satellite: closed-loop pipelined clients still converge with
/// every acknowledgement resolved (Committed or Rejected, none lost)
/// under 5% wire loss on every link plus one forced disconnect.
#[test]
fn loadgen_under_loss_resolves_every_ack() {
    let n = CLUSTER_SIZE;
    let mut schedule = Vec::new();
    for from in 0..n as u32 {
        for to in 0..n as u32 {
            if from != to {
                schedule.push(NemesisChoice::Degrade {
                    from,
                    to,
                    drop_pct: 5,
                    dup_pct: 0,
                    delay_us: 0,
                });
            }
        }
    }
    schedule.push(NemesisChoice::Run { ms: 150 });
    schedule.push(NemesisChoice::Disconnect { from: 1, to: 2 });
    schedule.push(NemesisChoice::Run { ms: 150 });
    schedule.push(NemesisChoice::Heal);
    schedule.push(NemesisChoice::Run { ms: 100 });

    let config = ChaosConfig {
        quota: 80,
        drain_timeout: Duration::from_secs(30),
        ..ChaosConfig::default()
    };
    let backend = BroadcastBackend::signed_echo();
    let report = run_with_schedule(&config, backend, 0xBEEF, &schedule);
    assert!(
        report.violations.is_empty(),
        "violations under loss: {:?}",
        report.violations
    );
    assert!(report.converged, "no convergence under 5% loss");
    assert_eq!(
        report.dropped_frames, 0,
        "loss leaked below the replay layer"
    );
    assert_eq!(report.unresolved, 0, "acknowledgements were lost");
    assert_eq!(
        report.submitted,
        report.committed + report.rejected,
        "transfers stranded without an acknowledgement"
    );
    assert_eq!(report.submitted, (n * config.quota) as u64);
}
