//! Integration tests for the snapshot catch-up plane: cold-starting a
//! node from a quorum-attested snapshot plus the peers' short log
//! suffix, resuming a chunked snapshot download across a client crash,
//! and the steady-state memory gate — under log truncation, what a
//! drained node retains does not grow with the history behind it.

use at_broadcast::auth::NoAuth;
use at_broadcast::echo::EchoBroadcast;
use at_engine::{EngineConfig, LedgerSnapshot};
use at_model::codec::decode;
use at_model::{AccountId, Amount, ProcessId};
use at_node::{
    await_convergence, start_tcp_cluster, Client, LocalClient, NodeConfig, NodeHandle,
    ResponseBody, TcpOptions,
};
use std::time::Duration;

/// How long a test waits for a node to answer a metric scrape.
const SCRAPE: Duration = Duration::from_secs(10);

/// Awaits `client`'s next acknowledgement and requires a commit.
fn expect_committed(client: &mut LocalClient) {
    let ack = client
        .recv_response(Duration::from_secs(30))
        .expect("transfer acknowledged");
    assert!(
        matches!(ack.body, ResponseBody::Committed { .. }),
        "transfer rejected: {ack:?}"
    );
}

fn committed_transfer<B>(handle: &NodeHandle<B>, destination: AccountId, amount: Amount)
where
    B: at_broadcast::SecureBroadcast<at_engine::replica::EnginePayload>,
{
    let mut client = handle.local_client();
    client.submit_transfer(destination, amount);
    expect_committed(&mut client);
}

#[test]
fn cold_start_converges_from_snapshot_plus_suffix() {
    let n = 4;
    let config = NodeConfig::new(EngineConfig::unbatched(), Amount::new(1_000));
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoBroadcast::new(me, n, NoAuth)
    })
    .expect("cluster start");

    // Build some history: three waves from every node.
    for _ in 0..3 {
        for i in 0..n {
            let handle = cluster.handles[i].as_ref().expect("running");
            committed_transfer(handle, AccountId::new(((i + 1) % n) as u32), Amount::new(5));
        }
    }
    {
        let handles: Vec<_> = cluster.running().collect();
        await_convergence(&handles, Duration::from_secs(30)).expect("pre-crash convergence");
    }

    // Node 3's process dies for good (graceful stop, but its warm state
    // is discarded — the cold-start path must not need it).
    let _discarded = cluster.stop_node(3);

    // The cluster keeps committing while node 3 is gone: the suffix.
    for i in 0..3 {
        let handle = cluster.handles[i].as_ref().expect("running");
        committed_transfer(handle, AccountId::new(3), Amount::new(7));
    }

    // Cold-start node 3 from a quorum-attested snapshot.
    cluster
        .cold_start_node(
            3,
            |me| EchoBroadcast::new(me, n, NoAuth),
            Duration::from_secs(30),
        )
        .expect("cold start");

    let handles: Vec<_> = cluster.running().collect();
    let reports =
        await_convergence(&handles, Duration::from_secs(30)).expect("post-bootstrap convergence");
    assert_eq!(reports.len(), n);

    // The restored node agreed on the full history (convergence checked
    // the digests) yet applied almost none of it locally: the snapshot
    // carried the prefix, only the suffix could have replayed.
    let total_transfers = 3 * n as u64 + 3;
    let cold = reports
        .iter()
        .find(|r| r.node == ProcessId::new(3))
        .expect("cold node reports");
    assert!(
        cold.applied < total_transfers / 2,
        "cold node applied {} of {} transfers — it replayed history instead of \
         bootstrapping from the snapshot",
        cold.applied,
        total_transfers
    );

    // The catch-up stage span recorded exactly one bootstrap sample.
    let metrics = cluster.handles[3]
        .as_ref()
        .expect("running")
        .metrics(SCRAPE)
        .expect("metrics scrape");
    let catch_up = metrics
        .histogram("stage_catchup_us")
        .expect("catch-up histogram registered");
    assert_eq!(catch_up.count, 1, "one cold bootstrap, one sample");

    cluster.stop_all();
}

#[test]
fn chunked_snapshot_download_resumes_after_a_client_crash() {
    let n = 4;
    // Enough accounts that the encoded snapshot spans several chunks.
    let config = NodeConfig::new(
        EngineConfig::standard().with_accounts(150_000),
        Amount::new(100),
    );
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoBroadcast::new(me, n, NoAuth)
    })
    .expect("cluster start");

    let timeout = Duration::from_secs(10);
    let mut client = Client::connect(cluster.client_addrs[0]).expect("connect");
    let (total, digest) = client.snapshot_header(timeout).expect("header probe");
    assert!(
        total > 1 << 20,
        "need a multi-chunk snapshot to exercise resume, got {total} bytes"
    );

    // First chunk arrives, then the client dies mid-transfer.
    let first = client.snapshot_chunk(0, timeout).expect("first chunk");
    assert_eq!(first.digest, digest, "quiescent re-cut digests agree");
    assert!((first.bytes.len() as u64) < total);
    drop(client);

    // A fresh connection resumes at the crash offset; the node serves
    // the remaining chunks from the same cached cut, byte-consistent.
    let mut resumed = Client::connect(cluster.client_addrs[0]).expect("reconnect");
    let mut bytes = first.bytes;
    while (bytes.len() as u64) < total {
        let slice = resumed
            .snapshot_chunk(bytes.len() as u64, timeout)
            .expect("resumed chunk");
        assert_eq!(
            slice.digest, digest,
            "cut changed under a quiescent cluster"
        );
        assert!(
            !slice.bytes.is_empty(),
            "no progress at offset {}",
            bytes.len()
        );
        bytes.extend_from_slice(&slice.bytes);
    }
    assert_eq!(bytes.len() as u64, total);

    let snapshot = decode::<LedgerSnapshot>(&bytes).expect("snapshot decodes");
    assert!(snapshot.verify(), "digest covers the reassembled bytes");
    assert_eq!(snapshot.digest, digest);
    assert_eq!(snapshot.account_count(), 150_000);

    // The one-shot convenience fetch agrees with the manual resume.
    let fetched = resumed.fetch_snapshot(timeout).expect("full fetch");
    assert_eq!(fetched, bytes);

    // The snapshot is enough to restore a working replica offline.
    let restored = at_engine::Replica::from_snapshot(
        ProcessId::new(3),
        n,
        EngineConfig::standard().with_accounts(150_000),
        EchoBroadcast::new(ProcessId::new(3), n, NoAuth),
        &snapshot,
    );
    assert_eq!(restored.digest(), {
        let _ = &restored;
        cluster.handles[0]
            .as_ref()
            .expect("running")
            .report()
            .digest
    });
    drop(restored);

    cluster.stop_all();
}

/// A node resumed the ordinary warm way still works with pruning on:
/// the default prune cadence must not break restart convergence.
#[test]
fn warm_restart_still_converges_with_pruning_enabled() {
    let n = 4;
    let mut config = NodeConfig::new(EngineConfig::unbatched(), Amount::new(500));
    config.prune_interval = Duration::from_millis(50);
    let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
        EchoBroadcast::new(me, n, NoAuth)
    })
    .expect("cluster start");

    for _ in 0..2 {
        for i in 0..n {
            let handle = cluster.handles[i].as_ref().expect("running");
            committed_transfer(handle, AccountId::new(((i + 2) % n) as u32), Amount::new(3));
        }
    }
    // Let at least one prune pass run on every node.
    std::thread::sleep(Duration::from_millis(120));

    let replica = cluster.stop_node(1);
    cluster.restart_node(1, replica).expect("warm restart");
    for i in 0..n {
        let handle = cluster.handles[i].as_ref().expect("running");
        committed_transfer(handle, AccountId::new(((i + 1) % n) as u32), Amount::new(2));
    }
    let handles: Vec<_> = cluster.running().collect();
    await_convergence(&handles, Duration::from_secs(30)).expect("convergence with pruning");
    cluster.stop_all();
}

/// What the memory gauges read after one soak window has drained and
/// settled — the maximum across running nodes.
#[derive(Debug)]
struct WindowSample {
    /// `broadcast_instances`: backend instance state still held.
    instances: u64,
    /// `engine_pending`: delivered transfers still awaiting validation.
    pending: u64,
    /// `engine_applied_history`: applied transfers not yet truncated.
    applied_history: u64,
    /// `broadcast_delivered_total`: instances delivered since genesis
    /// (the backend carries it across warm restarts) — the history.
    delivered: u64,
}

#[derive(Debug)]
struct SoakPeaks {
    per_window: u64,
    samples: Vec<WindowSample>,
    /// `engine_pruned_total`, summed across the cluster at the end.
    pruned_total: u64,
}

/// The long-running deployment compressed into seconds: a 4-node TCP
/// cluster over `accounts` accounts takes `windows` windows of
/// `per_window` closed-loop transfers to Zipf-hot destinations, with
/// one warm crash/restart between windows (rolling through the nodes)
/// and a gauge sample after every drained window.
fn rolling_soak(
    accounts: usize,
    windows: usize,
    per_window: usize,
    prune_interval: Duration,
) -> SoakPeaks {
    const N: usize = 4;
    const PIPELINE: usize = 16;
    let mut config = NodeConfig::new(
        EngineConfig::standard().with_accounts(accounts),
        Amount::new(1_000_000),
    );
    config.prune_interval = prune_interval;
    let mut cluster = start_tcp_cluster(N, config, TcpOptions::default(), |me| {
        EchoBroadcast::new(me, N, NoAuth)
    })
    .expect("cluster start");

    // xorshift64*, mapped log-uniformly onto the accounts no process
    // owns: a handful of hot keys, a tail as long as the universe.
    let mut rng = 0x79u64;
    let mut zipf_destination = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let u = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let rank = ((accounts - N) as f64).powf(u) as usize - 1;
        AccountId::new((N + rank.min(accounts - N - 1)) as u32)
    };

    let mut samples = Vec::with_capacity(windows);
    for window in 0..windows {
        let handles: Vec<_> = cluster.running().collect();
        let mut clients: Vec<_> = handles.iter().map(|h| h.local_client()).collect();
        let mut outstanding = vec![0usize; clients.len()];
        for t in 0..per_window {
            let c = t % clients.len();
            clients[c].submit_transfer(zipf_destination(), Amount::new(1));
            outstanding[c] += 1;
            if outstanding[c] == PIPELINE {
                expect_committed(&mut clients[c]);
                outstanding[c] -= 1;
            }
        }
        for (client, outstanding) in clients.iter_mut().zip(outstanding) {
            for _ in 0..outstanding {
                expect_committed(client);
            }
        }
        drop(clients);
        drop(handles);

        // Every acknowledgement is in; give every node two prune
        // cadences of quiet before reading what it still holds.
        std::thread::sleep(SETTLE);
        let scrapes: Vec<_> = cluster
            .running()
            .map(|h| h.metrics(SCRAPE).expect("metrics scrape"))
            .collect();
        let max_of = |read: &dyn Fn(&at_obs::Snapshot) -> Option<u64>| {
            scrapes.iter().filter_map(read).max().unwrap_or(0)
        };
        samples.push(WindowSample {
            instances: max_of(&|m| m.gauge("broadcast_instances")),
            pending: max_of(&|m| m.gauge("engine_pending")),
            applied_history: max_of(&|m| m.gauge("engine_applied_history")),
            delivered: max_of(&|m| m.counter("broadcast_delivered_total")),
        });

        if window + 1 < windows {
            let victim = window % N;
            let replica = cluster.stop_node(victim);
            cluster.restart_node(victim, replica).expect("warm restart");
        }
    }

    let handles: Vec<_> = cluster.running().collect();
    await_convergence(&handles, Duration::from_secs(60)).expect("post-soak convergence");
    let pruned_total = handles
        .iter()
        .filter_map(|h| h.metrics(SCRAPE)?.counter("engine_pruned_total"))
        .sum();
    drop(handles);
    cluster.stop_all();
    SoakPeaks {
        per_window: per_window as u64,
        samples,
        pruned_total,
    }
}

/// The truncation cadence of the compressed soak, and the quiet a
/// window gets before its sample (two cadences and change).
const PRUNE_EVERY: Duration = Duration::from_millis(200);
const SETTLE: Duration = Duration::from_millis(450);

/// The plateau clause: every window added history, yet no drained
/// node ever held more than one window's worth of it — a bound that
/// does not move with the number of windows. Without truncation the
/// applied history tracks every transfer ever applied and crosses the
/// bound in the second window.
fn plateau(peaks: &SoakPeaks) -> Result<(), String> {
    let mut bound = 0;
    let mut before = 0;
    for sample in &peaks.samples {
        if sample.delivered <= before {
            return Err(format!("a window delivered nothing: {peaks:?}"));
        }
        bound = bound.max(sample.delivered - before);
        before = sample.delivered;
    }
    match peaks.samples.iter().find(|s| {
        let transfers = s.pending.max(s.applied_history);
        s.instances > bound || transfers > peaks.per_window
    }) {
        None => Ok(()),
        Some(sample) => Err(format!(
            "retained state grows with history: {sample:?} exceeds one window's \
             {bound} instances / {} transfers in {peaks:?}",
            peaks.per_window
        )),
    }
}

fn assert_plateau(peaks: &SoakPeaks) {
    assert!(peaks.pruned_total > 0, "truncation never ran: {peaks:?}");
    // A released broadcast instance leaves nothing behind.
    assert!(
        peaks.samples.iter().all(|s| s.instances == 0),
        "a drained node holds broadcast state: {peaks:?}"
    );
    if let Err(growth) = plateau(peaks) {
        panic!("{growth}");
    }
}

/// Peaks as a soak would report them, from per-window
/// `(instances, applied history, delivered)` readings.
fn peaks_of(readings: &[(u64, u64, u64)]) -> SoakPeaks {
    SoakPeaks {
        per_window: 48,
        samples: readings
            .iter()
            .map(|&(instances, applied_history, delivered)| WindowSample {
                instances,
                pending: 0,
                applied_history,
                delivered,
            })
            .collect(),
        pruned_total: 1,
    }
}

#[test]
fn plateau_accepts_residue_within_one_window_of_history() {
    // Fully pruned, and a node caught one window behind its prune.
    plateau(&peaks_of(&[(0, 0, 9), (0, 0, 22), (0, 0, 34), (0, 0, 42)])).expect("flat");
    plateau(&peaks_of(&[
        (0, 0, 9),
        (13, 40, 22),
        (0, 0, 34),
        (8, 48, 42),
    ]))
    .expect("one window behind");
}

/// Retained state that tracks history fails the gate, whichever gauge
/// holds it: as many instances as were delivered (a series the gate
/// this one replaces — `late ≤ max(1.5·early, early + 64)` over
/// half-soak peaks: 34 → 58 — let through), or an applied history of
/// every transfer, which is what a soak without truncation leaves.
#[test]
fn plateau_rejects_residue_that_tracks_history() {
    let growth = plateau(&peaks_of(&[
        (9, 0, 9),
        (22, 0, 22),
        (34, 0, 34),
        (42, 0, 42),
        (50, 0, 50),
        (58, 0, 58),
    ]))
    .expect_err("retained == delivered");
    assert!(growth.contains("instances: 22"), "{growth}");
    let growth = plateau(&peaks_of(&[(0, 48, 9), (0, 96, 22), (0, 144, 34)]))
        .expect_err("applied history == every transfer");
    assert!(growth.contains("applied_history: 96"), "{growth}");
}

#[test]
fn plateau_rejects_a_window_that_added_no_history() {
    // Nothing retained because nothing happened is not a plateau.
    plateau(&peaks_of(&[(0, 0, 9), (0, 0, 9)])).expect_err("idle window");
    plateau(&peaks_of(&[(0, 0, 0)])).expect_err("idle soak");
}

#[test]
fn retained_state_plateaus_under_truncation() {
    assert_plateau(&rolling_soak(150_000, 6, 48, PRUNE_EVERY));
}

/// The same gate at deployment size (`cargo test --release -- --ignored`).
#[test]
#[ignore = "1M accounts, 20 windows; run with --release -- --ignored"]
fn retained_state_plateaus_under_truncation_at_a_million_accounts() {
    assert_plateau(&rolling_soak(1_000_000, 20, 200, PRUNE_EVERY));
}

/// The gate has teeth: the same soak with truncation off keeps every
/// transfer it ever applied, and the plateau clause itself — not the
/// `pruned_total` guard — reports the growth. The broadcast layer holds
/// nothing either way: it frees an instance when it releases it.
#[test]
fn plateau_gate_reports_growth_when_truncation_is_off() {
    let peaks = rolling_soak(150_000, 6, 48, Duration::MAX);
    assert_eq!(peaks.pruned_total, 0);
    let growth = plateau(&peaks).expect_err("history retained in full must fail the gate");
    let history: Vec<u64> = peaks.samples.iter().map(|s| s.applied_history).collect();
    assert!(
        history[0] > 0 && history.windows(2).all(|pair| pair[1] > pair[0]),
        "{growth}"
    );
    assert!(peaks.samples.iter().all(|s| s.instances == 0), "{growth}");
}
