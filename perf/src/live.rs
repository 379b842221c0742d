//! The three live workloads: a 4-node loopback TCP cluster under
//! fixed-rate open-loop load from this process.
//!
//! Nothing inside the cluster is touched. Times come from this
//! process's clock around its own socket calls, CPU from `/proc/self`,
//! and layer counts from the at-obs plane the nodes already serve over
//! `Client::stats()`, scraped at the window's edges.

use crate::client::{self, Conn, ConnResult, OpenLoop, MISSING};
use crate::procfs::{self, Role, ThreadSample};
use crate::schedule::{self, Arrival};
use crate::span::{SpanId, Spans};
use crate::spec::{self, Metrics, Workload};
use crate::stats;
use crate::Outcome;
use at_broadcast::{EchoBroadcast, EdAuth, NoAuth, ObservedAuth, SecureBroadcast};
use at_engine::{EngineConfig, EnginePayload, LedgerSnapshot, ShardedLedger};
use at_model::codec::{decode, Decode, Encode};
use at_model::{Amount, ProcessId};
use at_net::VirtualTime;
use at_node::{
    await_convergence, start_tcp_cluster_instrumented, Client, NodeConfig, TcpCluster, TcpOptions,
};
use at_obs::{merge_traces, Recorder, Snapshot, Stage, TraceConfig, TraceEventKind, TraceLog};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the cluster is booted per run; `setup_s` takes the median boot
/// so one slow thread spawn does not read as a set-up regression.
const BOOTS: usize = 3;
/// In-flight transfers per connection in the closed-loop diagnostic.
const SAT_DEPTH: usize = 128;
const SECOND_NS: u64 = 1_000_000_000;

pub struct LiveArgs {
    pub workload: Workload,
    /// Offered rate; the workload's frozen rate unless calibrating.
    pub rate: f64,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

pub fn run(args: &LiveArgs) -> Outcome {
    match args.workload {
        Workload::TcpOpenLo | Workload::TcpOpenHi => run_on(args, |config| {
            let make = |me: ProcessId, _: &Recorder| {
                EchoBroadcast::<EnginePayload, NoAuth>::new(me, spec::NODES, NoAuth)
            };
            let cluster =
                start_tcp_cluster_instrumented(spec::NODES, config, TcpOptions::default(), make)?;
            Ok((cluster, 0.0))
        }),
        Workload::TcpEd25519 => run_on(args, |config| {
            // One key store for the whole in-process cluster, its comb
            // tables built before any node starts: the ~19 ms/key build
            // belongs to set-up, not to the first metered signature.
            let warm_started = Instant::now();
            let auth = EdAuth::deterministic(spec::NODES, spec::AUTH_SEED);
            auth.warm();
            let key_warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
            let make = |me: ProcessId, recorder: &Recorder| {
                let auth = ObservedAuth::new(auth.clone(), recorder.clone());
                EchoBroadcast::<EnginePayload, _>::new(me, spec::NODES, auth)
            };
            let cluster =
                start_tcp_cluster_instrumented(spec::NODES, config, TcpOptions::default(), make)?;
            Ok((cluster, key_warm_ms))
        }),
        Workload::Sim16 => unreachable!("the simulator leg runs in sim.rs"),
    }
}

/// A broadcast backend the node runtime can carry over TCP.
trait Backend: SecureBroadcast<EnginePayload, Msg: Encode + Decode + Send + 'static> + 'static {}

impl<B> Backend for B where
    B: SecureBroadcast<EnginePayload, Msg: Encode + Decode + Send + 'static> + 'static
{
}

/// How long one boot took, and its parts.
#[derive(Clone, Copy, Debug)]
struct BootTimes {
    total_s: f64,
    boot_ms: f64,
    genesis_ms: f64,
    key_warm_ms: f64,
    connect_ms: f64,
}

/// A booted cluster with its generator connections open.
struct Booted<B: Backend> {
    cluster: TcpCluster<B>,
    conns: Vec<Conn>,
    times: BootTimes,
}

fn node_config(node_trace: bool) -> NodeConfig {
    let engine = EngineConfig::sharded_batched(
        spec::SHARDS,
        spec::BATCH_SIZE,
        VirtualTime::from_micros(spec::BATCH_WINDOW_US),
    )
    .with_accounts(spec::ACCOUNTS as usize);
    let config = NodeConfig::new(engine, Amount::new(spec::INITIAL_BALANCE));
    if node_trace {
        config.with_trace(TraceConfig::sampled())
    } else {
        config
    }
}

fn boot<B, S>(start: &S, node_trace: bool) -> Result<Booted<B>, String>
where
    B: Backend,
    S: Fn(NodeConfig) -> std::io::Result<(TcpCluster<B>, f64)>,
{
    let began = Instant::now();
    // Genesis happens inside each node's start; the same public
    // constructor timed on its own says how much of boot it is.
    for _ in 0..spec::NODES {
        std::hint::black_box(ShardedLedger::uniform(
            spec::ACCOUNTS as usize,
            Amount::new(spec::INITIAL_BALANCE),
            spec::SHARDS,
        ));
    }
    let genesis_ms = began.elapsed().as_secs_f64() * 1e3;
    let boot_began = Instant::now();
    let (cluster, key_warm_ms) =
        start(node_config(node_trace)).map_err(|e| format!("cluster start: {e}"))?;
    let boot_ms = boot_began.elapsed().as_secs_f64() * 1e3 - key_warm_ms;
    let connect_began = Instant::now();
    let conns = cluster.client_addrs[..spec::GENERATORS]
        .iter()
        .map(|addr| Conn::connect(*addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("client connect: {e}"))?;
    Ok(Booted {
        cluster,
        conns,
        times: BootTimes {
            total_s: began.elapsed().as_secs_f64(),
            boot_ms,
            genesis_ms,
            key_warm_ms,
            connect_ms: connect_began.elapsed().as_secs_f64() * 1e3,
        },
    })
}

/// Boots [`BOOTS`] times, keeps the last cluster, and reports the boot
/// whose total time is the median.
fn boot_repeatedly<B, S>(start: &S, node_trace: bool) -> Result<(Booted<B>, BootTimes), String>
where
    B: Backend,
    S: Fn(NodeConfig) -> std::io::Result<(TcpCluster<B>, f64)>,
{
    let mut times = Vec::with_capacity(BOOTS);
    let mut kept = None;
    for _ in 0..BOOTS {
        if let Some(Booted { mut cluster, .. }) = kept.take() {
            cluster.stop_all();
        }
        let booted = boot(start, node_trace)?;
        times.push(booted.times);
        kept = Some(booted);
    }
    times.sort_by(|a, b| a.total_s.partial_cmp(&b.total_s).expect("finite time"));
    Ok((kept.expect("BOOTS > 0"), times[BOOTS / 2]))
}

/// One generator's schedule and what came back.
struct Leg {
    payer: u32,
    arrivals: Arc<Vec<Arrival>>,
    result: ConnResult,
}

/// Everything measured around one open-loop window.
struct Window {
    /// The instant the schedules count from.
    origin: Instant,
    legs: Vec<Leg>,
    /// Nominal window bounds, ns after the schedule origin.
    w0_ns: u64,
    w1_ns: u64,
    /// Readings at every whole second of the window, both ends included.
    ticks: Vec<Tick>,
    threads: Option<(ThreadSample, ThreadSample)>,
    scrapes: Option<(Vec<Snapshot>, Vec<Snapshot>)>,
}

/// What the main thread reads at each whole second of the window.
#[derive(Clone, Copy, Debug)]
struct Tick {
    /// When the reading was actually taken, ns after the origin.
    at_ns: u64,
    user_ms: f64,
    sys_ms: f64,
    /// System-wide steal so far, ms over all CPUs.
    steal_ms: f64,
}

impl Tick {
    fn take(origin: Instant) -> Tick {
        let (user_ms, sys_ms) = procfs::process_cpu_ms();
        Tick {
            at_ns: origin.elapsed().as_nanos() as u64,
            user_ms,
            sys_ms,
            steal_ms: procfs::system_steal_ms(),
        }
    }
}

fn sleep_until(at: Instant) {
    let wait = at.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

/// One scrape-plane round trip per node, over a fresh connection.
fn scrape<T>(
    addrs: &[std::net::SocketAddr],
    what: &str,
    call: impl Fn(&mut Client) -> std::io::Result<T>,
) -> Result<Vec<T>, String> {
    addrs
        .iter()
        .map(|addr| {
            Client::connect(*addr)
                .and_then(|mut client| call(&mut client))
                .map_err(|e| format!("{what} scrape: {e}"))
        })
        .collect()
}

fn scrape_all(addrs: &[std::net::SocketAddr]) -> Result<Vec<Snapshot>, String> {
    scrape(addrs, "stats", |client| {
        client.stats(Duration::from_secs(5))
    })
}

fn open_loop_window<B>(
    booted: &mut Booted<B>,
    rate: f64,
    burst: Option<usize>,
    seed: u64,
    window: Duration,
    layers: bool,
) -> Result<Window, String>
where
    B: Backend,
{
    let warmup_ns = spec::WARMUP.as_nanos() as u64;
    let w1_ns = warmup_ns + window.as_nanos() as u64;
    let total_ns = w1_ns + spec::COOLDOWN.as_nanos() as u64;
    let per_generator = rate / spec::GENERATORS as f64;
    let schedules: Vec<Arc<Vec<Arrival>>> = (0..spec::GENERATORS)
        .map(|k| {
            let (stream, payer) = (k as u64, k as u32);
            Arc::new(match burst {
                None => schedule::open_loop(
                    seed,
                    stream,
                    per_generator,
                    total_ns,
                    spec::ACCOUNTS,
                    payer,
                ),
                Some(burst) => schedule::bursts(
                    seed,
                    stream,
                    per_generator,
                    burst,
                    total_ns,
                    spec::ACCOUNTS,
                    payer,
                ),
            })
        })
        .collect();
    let addrs = booted.cluster.client_addrs.clone();
    let origin = Instant::now() + Duration::from_millis(100);
    let running = booted
        .conns
        .drain(..)
        .zip(&schedules)
        .enumerate()
        .map(|(k, (conn, arrivals))| OpenLoop::start(conn, k, origin, Arc::clone(arrivals)))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("generator start: {e}"))?;

    sleep_until(origin + spec::WARMUP);
    let before = if layers {
        Some(scrape_all(&addrs)?)
    } else {
        None
    };
    let threads0 = layers.then(ThreadSample::take);
    let mut ticks = vec![Tick::take(origin)];
    for second in 1..=window.as_secs() {
        sleep_until(origin + spec::WARMUP + Duration::from_secs(second));
        ticks.push(Tick::take(origin));
    }
    let threads1 = layers.then(ThreadSample::take);

    let results: Vec<ConnResult> = running.into_iter().map(OpenLoop::join).collect();
    let after = if layers {
        Some(scrape_all(&addrs)?)
    } else {
        None
    };
    Ok(Window {
        origin,
        legs: schedules
            .into_iter()
            .zip(results)
            .enumerate()
            .map(|(k, (arrivals, result))| Leg {
                payer: k as u32,
                arrivals,
                result,
            })
            .collect(),
        w0_ns: warmup_ns,
        w1_ns,
        ticks,
        threads: threads0.zip(threads1),
        scrapes: before.zip(after),
    })
}

/// The numbers of a window, second by second and overall.
struct ClientView {
    /// Commit latency, ms from the due instant, ascending; transfers due
    /// in the window only.
    latency_ms: Vec<f64>,
    /// Generator lateness of the same transfers, ms, ascending.
    late_ms: Vec<f64>,
    /// Transfers due in the window that were never acknowledged.
    unacked: u64,
    /// Commits acknowledged between the first and the last tick.
    commits: u64,
    /// Per second of the window: acknowledgements, median and 90th
    /// percentile latency (ms) of the transfers due in it, process CPU
    /// per thousand commits (ms), and the share of the machine's CPU
    /// time the hypervisor withheld (%).
    acks_per_second: Vec<f64>,
    p50_per_second: Vec<f64>,
    p90_per_second: Vec<f64>,
    cpu_per_kcommit_per_second: Vec<f64>,
    steal_pct_per_second: Vec<f64>,
}

impl Window {
    /// From the schedule's origin to the first reading: the warm-up.
    fn warmup_s(&self) -> f64 {
        self.ticks[0].at_ns as f64 / 1e9
    }

    fn user_ms(&self) -> f64 {
        self.ticks[self.ticks.len() - 1].user_ms - self.ticks[0].user_ms
    }

    fn sys_ms(&self) -> f64 {
        self.ticks[self.ticks.len() - 1].sys_ms - self.ticks[0].sys_ms
    }

    fn client_view(&self) -> ClientView {
        let seconds = self.ticks.len() - 1;
        let mut latency_by_second = vec![Vec::new(); seconds];
        let mut acks_by_tick = vec![0u64; seconds];
        let (mut latency_ms, mut late_ms, mut unacked) = (Vec::new(), Vec::new(), 0);
        for leg in &self.legs {
            for (i, arrival) in leg.arrivals.iter().enumerate() {
                let acked = leg.result.acked_ns[i];
                if acked != MISSING {
                    // The interval between two ticks the ack fell into.
                    let after = self.ticks.partition_point(|t| t.at_ns <= acked);
                    if let Some(slot) = after.checked_sub(1).and_then(|k| acks_by_tick.get_mut(k)) {
                        *slot += 1;
                    }
                }
                if !(self.w0_ns..self.w1_ns).contains(&arrival.due_ns) {
                    continue;
                }
                if acked == MISSING {
                    unacked += 1;
                } else {
                    let ms = acked.saturating_sub(arrival.due_ns) as f64 / 1e6;
                    latency_ms.push(ms);
                    let second = ((arrival.due_ns - self.w0_ns) / SECOND_NS) as usize;
                    if let Some(bucket) = latency_by_second.get_mut(second) {
                        bucket.push(ms);
                    }
                }
                let sent = leg.result.sent_ns[i];
                if sent != MISSING {
                    late_ms.push(sent.saturating_sub(arrival.due_ns) as f64 / 1e6);
                }
            }
        }
        stats::sort(&mut latency_ms);
        stats::sort(&mut late_ms);
        for bucket in &mut latency_by_second {
            stats::sort(bucket);
        }
        let per_tick = |f: &dyn Fn(&Tick, &Tick, u64) -> f64| -> Vec<f64> {
            self.ticks
                .windows(2)
                .zip(&acks_by_tick)
                .map(|(t, acks)| f(&t[0], &t[1], *acks))
                .collect()
        };
        let cpus = crate::env::nproc() as f64;
        ClientView {
            latency_ms,
            late_ms,
            unacked,
            commits: acks_by_tick.iter().sum(),
            acks_per_second: per_tick(&|a, b, acks| {
                acks as f64 * SECOND_NS as f64 / (b.at_ns - a.at_ns).max(1) as f64
            }),
            p50_per_second: latency_by_second.iter().map(|b| stats::median(b)).collect(),
            p90_per_second: latency_by_second
                .iter()
                .map(|b| stats::quantile(b, 0.9))
                .collect(),
            cpu_per_kcommit_per_second: per_tick(&|a, b, acks| {
                (b.user_ms + b.sys_ms - a.user_ms - a.sys_ms) / (acks.max(1) as f64 / 1e3)
            }),
            steal_pct_per_second: per_tick(&|a, b, _| {
                100.0 * (b.steal_ms - a.steal_ms) / (cpus * (b.at_ns - a.at_ns).max(1) as f64 / 1e6)
            }),
        }
    }
}

/// Replica agreement, conservation and exact balances after `legs`.
fn verify<B>(cluster: &TcpCluster<B>, legs: &[&Leg], problems: &mut Vec<String>)
where
    B: Backend,
{
    let mut expected = vec![spec::INITIAL_BALANCE; spec::ACCOUNTS as usize];
    let mut unanswered = 0u64;
    for leg in legs {
        if let Some(err) = &leg.result.error {
            problems.push(format!("generator {}: {err}", leg.payer));
        }
        if leg.result.rejected > 0 {
            problems.push(format!(
                "generator {}: {} transfers rejected, none should be",
                leg.payer, leg.result.rejected
            ));
        }
        for (i, arrival) in leg.arrivals.iter().enumerate() {
            if leg.result.acked_ns[i] != MISSING {
                expected[leg.payer as usize] -= u64::from(arrival.amount);
                expected[arrival.dest as usize] += u64::from(arrival.amount);
            } else if leg.result.sent_ns[i] != MISSING {
                unanswered += 1;
            }
        }
        let sent = leg.result.sent_ns.iter().filter(|&&s| s != MISSING).count() as u64;
        if sent != leg.result.committed() + leg.result.rejected {
            problems.push(format!(
                "generator {}: submitted {sent} != committed {} + rejected {}",
                leg.payer,
                leg.result.committed(),
                leg.result.rejected
            ));
        }
    }
    let handles: Vec<_> = cluster.running().collect();
    let Some(reports) = await_convergence(&handles, Duration::from_secs(60)) else {
        problems.push("replicas did not converge within 60 s".into());
        return;
    };
    if !reports
        .windows(2)
        .all(|w| w[0].digest == w[1].digest && w[0].balances == w[1].balances)
    {
        problems.push("replicas disagree on digest or balances".into());
    }
    let dropped: u64 = reports.iter().map(|r| r.dropped_frames).sum();
    if dropped != 0 {
        problems.push(format!("{dropped} frames dropped by the transport"));
    }
    let malformed: u64 = reports.iter().map(|r| r.malformed_frames).sum();
    if malformed != 0 {
        problems.push(format!("{malformed} malformed peer frames"));
    }
    // The report carries one balance per process; the whole ledger
    // comes over the same snapshot plane a cold-starting node uses.
    let ledger = Client::connect(cluster.client_addrs[0])
        .and_then(|mut c| c.fetch_snapshot(Duration::from_secs(10)))
        .map_err(|e| e.to_string())
        .and_then(|bytes| decode::<LedgerSnapshot>(&bytes).map_err(|e| e.to_string()));
    match ledger {
        Err(err) => problems.push(format!("ledger snapshot: {err}")),
        Ok(ledger) => {
            if !ledger.verify() {
                problems.push("ledger snapshot fails its own digest".into());
            }
            let supply: u64 = ledger.balances.iter().map(|(_, b)| b.units()).sum();
            if supply != spec::INITIAL_BALANCE * u64::from(spec::ACCOUNTS) {
                problems.push(format!("total supply not conserved: {supply}"));
            }
            // With every transfer answered the final ledger is fully
            // determined by the schedule; otherwise the unanswered ones
            // already failed the run and the exact comparison would
            // only repeat that.
            if unanswered == 0
                && ledger
                    .balances
                    .iter()
                    .map(|(_, b)| b.units())
                    .ne(expected.iter().copied())
            {
                problems.push("final balances differ from the ones the schedule implies".into());
            }
        }
    }
    let committed: u64 = legs.iter().map(|leg| leg.result.committed()).sum();
    let node_committed: u64 = reports.iter().map(|r| r.committed).sum();
    if node_committed != committed {
        problems.push(format!(
            "nodes report {node_committed} commits, clients saw {committed}"
        ));
    }
}

fn hist_delta(before: &[Snapshot], after: &[Snapshot], name: &str) -> (u64, u64) {
    let total = |snaps: &[Snapshot]| {
        snaps
            .iter()
            .filter_map(|s| s.histogram(name))
            .fold((0u64, 0u64), |(c, s), h| (c + h.count, s + h.sum))
    };
    let (c0, s0) = total(before);
    let (c1, s1) = total(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

fn counter_delta(before: &[Snapshot], after: &[Snapshot], name: &str) -> f64 {
    let total = |snaps: &[Snapshot]| snaps.iter().filter_map(|s| s.counter(name)).sum::<u64>();
    total(after).saturating_sub(total(before)) as f64
}

fn gauge_total(snaps: &[Snapshot], name: &str) -> f64 {
    snaps.iter().filter_map(|s| s.gauge(name)).sum::<u64>() as f64
}

const STAGE_METRICS: [(Stage, &str); 10] = [
    (Stage::Gateway, "obs.stage_gateway_mean_us"),
    (Stage::Batch, "obs.stage_batch_mean_us"),
    (Stage::Broadcast, "obs.stage_broadcast_mean_us"),
    (Stage::WireEncode, "obs.stage_wire_encode_mean_us"),
    (Stage::WireDecode, "obs.stage_wire_decode_mean_us"),
    (Stage::Sign, "obs.stage_sign_mean_us"),
    (Stage::Verify, "obs.stage_verify_mean_us"),
    (Stage::Apply, "obs.stage_apply_mean_us"),
    (Stage::Ack, "obs.stage_ack_mean_us"),
    (Stage::EndToEnd, "obs.stage_e2e_mean_us"),
];

/// Per-layer metrics of one window: thread-role CPU, at-obs stage means
/// and work counts, all as differences across the window's edges.
fn layer_metrics(window: &Window, view: &ClientView, metrics: &mut Metrics) {
    let kcommits = view.commits.max(1) as f64 / 1e3;
    let process_ms = window.user_ms() + window.sys_ms();
    if let Some((start, end)) = &window.threads {
        let cpu = procfs::cpu_by_role(start, end, process_ms);
        for role in Role::ALL {
            let ms = cpu.by_role.get(&role).copied().unwrap_or(0.0);
            metrics.set(role.metric(), ms / kcommits);
        }
        metrics.set("other.cpu_ms_per_kcommit", cpu.other_ms / kcommits);
        metrics.set(
            "proc.ctx_switches_per_kcommit",
            cpu.context_switches as f64 / kcommits,
        );
    }
    metrics.set(
        "proc.sys_share",
        100.0 * window.sys_ms() / process_ms.max(f64::MIN_POSITIVE),
    );
    let Some((before, after)) = &window.scrapes else {
        return;
    };
    // The path a commit blocks on, stage by stage; what the client saw
    // beyond their sum is socket transit, generator lateness and any
    // wait no stage covers.
    let mut on_path_us = 0.0;
    for (stage, name) in STAGE_METRICS {
        let (count, sum) = hist_delta(before, after, stage.metric_name());
        let mean = sum as f64 / count.max(1) as f64;
        metrics.set(name, mean);
        if matches!(
            stage,
            Stage::Gateway | Stage::Batch | Stage::Broadcast | Stage::Apply | Stage::Ack
        ) {
            on_path_us += mean;
        }
    }
    let client_mean_us =
        1e3 * view.latency_ms.iter().sum::<f64>() / view.latency_ms.len().max(1) as f64;
    metrics.set("obs.residual_us", client_mean_us - on_path_us);

    // The scrapes bracket the window slightly wider than the CPU
    // readings do; normalise by the commits the nodes themselves
    // counted between the scrapes.
    let scraped_kcommits = counter_delta(before, after, "node_committed_total").max(1.0) / 1e3;
    let (batches, batched) = hist_delta(before, after, "engine_batch_size");
    metrics.set(
        "engine.batch_fill_mean",
        batched as f64 / batches.max(1) as f64,
    );
    metrics.set(
        "net.peer_msgs_per_kcommit",
        counter_delta(before, after, "node_peer_msgs_out_total") / scraped_kcommits,
    );
    metrics.set(
        "net.bytes_per_commit",
        counter_delta(before, after, "transport_bytes_out_total") / (scraped_kcommits * 1e3),
    );
    metrics.set(
        "tcp.frames_per_kcommit",
        counter_delta(before, after, "transport_frames_out_total") / scraped_kcommits,
    );
    metrics.set(
        "tcp.reconnects",
        counter_delta(&[], after, "transport_reconnects_total"),
    );
    metrics.set(
        "crypto.signs_per_kcommit",
        counter_delta(before, after, "auth_signs_total") / scraped_kcommits,
    );
    metrics.set(
        "crypto.verifies_per_kcommit",
        counter_delta(before, after, "auth_verifies_total") / scraped_kcommits,
    );
    metrics.set(
        "engine.pruned_total",
        counter_delta(&[], after, "engine_pruned_total"),
    );
    metrics.set(
        "broadcast.instances_end",
        gauge_total(after, "broadcast_instances"),
    );
    metrics.set("engine.pending_end", gauge_total(after, "engine_pending"));
}

fn client_metrics(view: &ClientView, metrics: &mut Metrics) {
    let lat = &view.latency_ms;
    metrics.set(
        "client.gen_late_p99_ms",
        stats::quantile(&view.late_ms, 0.99),
    );
    metrics.set(
        "client.commit_p90_ms",
        stats::median_of(&view.p90_per_second),
    );
    metrics.set("client.commit_p99_ms", stats::quantile(lat, 0.99));
    metrics.set("client.commit_p999_ms", stats::quantile(lat, 0.999));
    metrics.set("client.commit_max_ms", lat.last().copied().unwrap_or(0.0));
    // A transfer that was never acknowledged misses every limit.
    let over = lat
        .iter()
        .filter(|&&ms| ms > spec::LATENCY_LIMIT_MS)
        .count() as u64
        + view.unacked;
    metrics.set(
        "client.over_limit_share",
        100.0 * over as f64 / (lat.len() as u64 + view.unacked).max(1) as f64,
    );
    metrics.set("client.samples", lat.len() as f64);
}

/// The closed-loop diagnostic on an already-warm cluster.
fn saturation_leg<B>(
    cluster: &TcpCluster<B>,
    seed: u64,
    length: Duration,
    metrics: &mut Metrics,
) -> Result<Vec<Leg>, String>
where
    B: Backend,
{
    // Far more than any 2-core box commits in the leg; an exhausted
    // schedule just ends the leg early.
    let per_conn = 200_000 * length.as_secs().max(1) as usize;
    let origin = Instant::now();
    let until = origin + length;
    let mut running = Vec::new();
    for k in 0..spec::GENERATORS {
        let conn = Conn::connect(cluster.client_addrs[k]).map_err(|e| format!("connect: {e}"))?;
        let arrivals = Arc::new(schedule::closed_loop(
            seed,
            (spec::GENERATORS + k) as u64,
            per_conn,
            spec::ACCOUNTS,
            k as u32,
        ));
        let handle = client::closed_loop(conn, k, origin, Arc::clone(&arrivals), SAT_DEPTH, until)
            .map_err(|e| format!("spawn: {e}"))?;
        running.push((k as u32, arrivals, handle));
    }
    let legs: Vec<Leg> = running
        .into_iter()
        .map(|(payer, arrivals, handle)| Leg {
            payer,
            arrivals,
            result: handle.join().expect("closed-loop thread panicked"),
        })
        .collect();
    let mut latency_ms: Vec<f64> = legs
        .iter()
        .flat_map(|leg| {
            leg.result
                .acked_ns
                .iter()
                .zip(&leg.result.sent_ns)
                .filter(|(acked, _)| **acked != MISSING)
                .map(|(acked, sent)| acked.saturating_sub(*sent) as f64 / 1e6)
        })
        .collect();
    stats::sort(&mut latency_ms);
    metrics.set(
        "client.sat_tps",
        latency_ms.len() as f64 / length.as_secs_f64(),
    );
    metrics.set("client.sat_p50_ms", stats::median(&latency_ms));
    Ok(legs)
}

/// Spans of the sampled transfers' hops, from at-obs' own trace rings.
fn node_trace_metrics(logs: &[TraceLog], metrics: &mut Metrics) {
    let (mut to_send, mut to_deliver, mut to_ack, mut hops) = (vec![], vec![], vec![], vec![]);
    for timeline in merge_traces(logs) {
        if timeline.incomplete {
            continue;
        }
        let at_origin = |kind: TraceEventKind| {
            timeline
                .events
                .iter()
                .find(|e| e.kind == kind && e.node == timeline.origin)
                .map(|e| e.at_us)
        };
        hops.push(timeline.events.iter().map(|e| e.hops).max().unwrap_or(0) as f64);
        let (Some(ingress), Some(send), Some(deliver), Some(ack)) = (
            at_origin(TraceEventKind::Ingress),
            at_origin(TraceEventKind::Send),
            at_origin(TraceEventKind::Deliver),
            at_origin(TraceEventKind::Ack),
        ) else {
            continue;
        };
        to_send.push(send.saturating_sub(ingress) as f64);
        to_deliver.push(deliver.saturating_sub(send) as f64);
        to_ack.push(ack.saturating_sub(deliver) as f64);
    }
    metrics.set("trace.ingress_to_send_us_p50", stats::median_of(&to_send));
    metrics.set(
        "trace.send_to_deliver_us_p50",
        stats::median_of(&to_deliver),
    );
    metrics.set("trace.deliver_to_ack_us_p50", stats::median_of(&to_ack));
    metrics.set(
        "trace.hops_mean",
        hops.iter().sum::<f64>() / hops.len().max(1) as f64,
    );
}

/// Whole-window totals: CPU time has no outliers to guard against, and
/// a ratio of sums is steadier than a median of per-second ratios at
/// a hundred commits a second.
fn cpu_ms_per_kcommit(window: &Window, view: &ClientView) -> f64 {
    (window.user_ms() + window.sys_ms()) / (view.commits.max(1) as f64 / 1e3)
}

fn run_on<B, S>(args: &LiveArgs, start: S) -> Outcome
where
    B: Backend,
    S: Fn(NodeConfig) -> std::io::Result<(TcpCluster<B>, f64)>,
{
    let mut outcome = Outcome::default();
    if let Err(err) = run_inner(args, &start, &mut outcome) {
        outcome.problems.push(err);
    }
    outcome
}

fn run_inner<B, S>(args: &LiveArgs, start: &S, outcome: &mut Outcome) -> Result<(), String>
where
    B: Backend,
    S: Fn(NodeConfig) -> std::io::Result<(TcpCluster<B>, f64)>,
{
    let rate = args.rate;
    let burst = args.workload.burst();
    // A traced run splits its time between an untraced cluster (layer
    // metrics, then the closed-loop diagnostic) and a traced one.
    let window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let spans = &mut outcome.spans;
    let run_span = spans.begin("run", None, 0);

    let setup_span = spans.begin("setup", Some(run_span), 0);
    let (mut booted, median_boot) = boot_repeatedly(start, false)?;
    spans.end(setup_span);
    let window_span = spans.begin("warmup+window+drain", Some(run_span), 0);
    let measured = open_loop_window(&mut booted, rate, burst, args.seed, window, args.trace)?;
    spans.end(window_span);
    let view = measured.client_view();

    let metrics = &mut outcome.metrics;
    metrics.set("setup_s", median_boot.total_s + measured.warmup_s());
    // Medians over one-second sub-windows: a neighbour's burst spoils
    // the seconds it covers, not the run's figure.
    metrics.set("commit_p50_ms", stats::median_of(&view.p50_per_second));
    metrics.set("committed_tps", stats::median_of(&view.acks_per_second));
    metrics.set("cpu_ms_per_kcommit", cpu_ms_per_kcommit(&measured, &view));
    metrics.set("setup.boot_ms", median_boot.boot_ms);
    metrics.set("setup.genesis_ms", median_boot.genesis_ms);
    metrics.set("setup.key_warm_ms", median_boot.key_warm_ms);
    metrics.set("setup.connect_ms", median_boot.connect_ms);
    client_metrics(&view, metrics);
    layer_metrics(&measured, &view, metrics);
    record_request_spans(spans, window_span, &measured);

    let mut sat_legs = Vec::new();
    if args.trace {
        let sat_span = spans.begin("saturation", Some(run_span), 0);
        sat_legs = saturation_leg(
            &booted.cluster,
            args.seed,
            (args.window / 8).max(Duration::from_secs(2)),
            metrics,
        )?;
        spans.end(sat_span);
    }

    let verify_span = spans.begin("verify", Some(run_span), 0);
    let all_legs: Vec<&Leg> = measured.legs.iter().chain(&sat_legs).collect();
    verify(&booted.cluster, &all_legs, &mut outcome.problems);
    let final_scrape = scrape_all(&booted.cluster.client_addrs)?;
    let committed: u64 = all_legs.iter().map(|leg| leg.result.committed()).sum();
    let (e2e_count, _) = hist_delta(&[], &final_scrape, Stage::EndToEnd.metric_name());
    if e2e_count != committed {
        outcome.problems.push(format!(
            "at-obs stage_e2e_us counted {e2e_count} samples for {committed} commits"
        ));
    }
    booted.cluster.stop_all();
    spans.end(verify_span);

    outcome.attempted = measured.legs.iter().map(|l| l.arrivals.len() as u64).sum();
    outcome.failed = outcome.attempted
        - measured
            .legs
            .iter()
            .map(|l| l.result.committed())
            .sum::<u64>();
    outcome.series.extend([
        ("acks", view.acks_per_second.clone()),
        ("commit_p50_ms", view.p50_per_second.clone()),
        ("commit_p90_ms", view.p90_per_second.clone()),
        (
            "cpu_ms_per_kcommit",
            view.cpu_per_kcommit_per_second.clone(),
        ),
        ("steal_pct", view.steal_pct_per_second.clone()),
    ]);
    let window_tps = view.latency_ms.len() as f64 / window.as_secs_f64();
    outcome.notes.extend([
        ("offered_rate_per_s", rate),
        ("window_s", window.as_secs_f64()),
        ("acked_of_due_in_window_per_s", window_tps),
        (
            "cpu_share_of_one_core",
            (measured.user_ms() + measured.sys_ms()) / (1e3 * window.as_secs_f64()),
        ),
        (
            "steal_pct_median",
            stats::median_of(&view.steal_pct_per_second),
        ),
        (
            "generator_realtime_priority",
            f64::from(u8::from(measured.legs.iter().all(|l| l.result.boosted))),
        ),
        (
            "highest_supported_percentile",
            stats::highest_supported_tail(view.latency_ms.len()).unwrap_or(0.5),
        ),
    ]);

    if args.trace {
        let traced_span = spans.begin("traced-cluster", Some(run_span), 0);
        let mut traced = boot::<B, S>(start, true)?;
        let traced_window =
            open_loop_window(&mut traced, rate, burst, args.seed ^ 0x7ACE, window, false)?;
        let traced_view = traced_window.client_view();
        let logs = scrape(&traced.cluster.client_addrs, "trace", |client| {
            client.trace(Duration::from_secs(5))
        })?;
        node_trace_metrics(&logs, metrics);
        let untraced = cpu_ms_per_kcommit(&measured, &view);
        metrics.set(
            "trace.overhead_pct",
            100.0 * (cpu_ms_per_kcommit(&traced_window, &traced_view) / untraced - 1.0),
        );
        let traced_legs: Vec<&Leg> = traced_window.legs.iter().collect();
        verify(&traced.cluster, &traced_legs, &mut outcome.problems);
        traced.cluster.stop_all();
        spans.end(traced_span);
    }
    spans.end(run_span);
    Ok(())
}

/// One span per 64th transfer due in the window, from its due instant
/// to its acknowledgement, with the generator's lateness as a child —
/// enough to draw the run without holding a span per request.
fn record_request_spans(spans: &mut Spans, parent: SpanId, window: &Window) {
    for leg in &window.legs {
        for (i, arrival) in leg.arrivals.iter().enumerate().step_by(64) {
            let (sent, acked) = (leg.result.sent_ns[i], leg.result.acked_ns[i]);
            if sent == MISSING || acked == MISSING || arrival.due_ns < window.w0_ns {
                continue;
            }
            let at = |ns: u64| window.origin + Duration::from_nanos(ns);
            let op = (u64::from(leg.payer) << 32) | i as u64;
            let transfer =
                spans.record("transfer", Some(parent), op, at(arrival.due_ns), at(acked));
            spans.record(
                "generator-late",
                Some(transfer),
                op,
                at(arrival.due_ns),
                at(sent),
            );
        }
    }
}
