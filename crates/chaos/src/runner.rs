//! The chaos runner: drive a live cluster under a nemesis schedule,
//! then validate the recorded history.
//!
//! One [`run_seeded`] call is a complete Jepsen-style experiment:
//!
//! 1. boot a [`CLUSTER_SIZE`]-node cluster — its peers wired over loopback TCP,
//!    every node behind a client gateway — with a seeded
//!    [`at_net::FaultInjector`] under every link, beneath the replay
//!    layer, and a shared [`at_node::EventProbe`] over every node;
//! 2. hammer it with one closed-loop client per node (pipelined
//!    transfers over the real wire protocol, each client's whole
//!    quota), while the nemesis walks the schedule: partitions, wire
//!    loss, duplication, delay, forced disconnects, batch-timer skew,
//!    and warm crash/restarts;
//! 3. heal, drain, and wait for quiescent convergence
//!    ([`at_node::try_await_convergence`], which names the divergent
//!    digest pair if it fails);
//! 4. pin the final state with one read per account, then feed the
//!    merged event recording plus the final reports through the *same*
//!    validator battery the schedule explorer applies to simulated
//!    executions ([`at_engine::probe::validate_recorded`]): bounded
//!    linearizability, per-source FIFO-exactly-once, conflict-freedom,
//!    digest agreement, supply conservation — plus the live-cluster
//!    extras: zero real frame loss and zero lost acknowledgements when
//!    no crash was scheduled.
//!
//! Every violation carries the seed, and the schedule is a pure
//! function of the seed — the repro story
//! [`ChaosReport::counterexample`] prints.

use crate::nemesis::{format_nemesis_schedule, generate_schedule, NemesisChoice};
use at_broadcast::SecureBroadcast;
use at_engine::probe::{validate_recorded, Failure, FailureKind, RecordedRun};
use at_engine::replica::EnginePayload;
use at_engine::{BackendVisitor, BroadcastBackend, EngineConfig};
use at_model::codec::{Decode, Encode};
use at_model::{AccountId, Amount, ProcessId};
use at_net::transport::FaultInjector;
use at_net::VirtualTime;
use at_node::{
    start_tcp_cluster_with, try_await_convergence, Client, ClusterOptions, EventProbe, NodeConfig,
    NodeHandle, NodeReport, ResponseBody,
};
use at_obs::{merge_traces, TraceConfig, TraceLog};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Processes (and accounts) in every chaos cluster.
pub const CLUSTER_SIZE: usize = 4;

/// Initial balance of every account (deep, so admission noise never
/// obscures a real violation).
const INITIAL_BALANCE: u64 = 1_000_000;

/// Max transfers a client keeps in flight (closed loop).
const PIPELINE: usize = 16;

/// Replica batch window (µs).
const BATCH_WINDOW_US: u64 = 500;

/// Node budget of the final linearizability check.
const CHECK_NODES: usize = 500_000;

/// The knobs of one chaos experiment: everything but the seed and the
/// constants above.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Transfers each node's client submits over the run.
    pub quota: usize,
    /// Nemesis disruptions per generated schedule.
    pub disruptions: usize,
    /// Replica batch size cap.
    pub batch: usize,
    /// How long the post-heal drain may take before the run is declared
    /// non-convergent.
    pub drain_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            quota: 60,
            disruptions: 5,
            batch: 32,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// The outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Backend label ([`BroadcastBackend::label`]).
    pub backend: String,
    /// Cluster size.
    pub n: usize,
    /// The schedule seed (full repro key together with the config).
    pub seed: u64,
    /// The executed schedule.
    pub schedule: Vec<NemesisChoice>,
    /// Transfers submitted across all clients.
    pub submitted: u64,
    /// Commit acknowledgements received.
    pub committed: u64,
    /// Rejection acknowledgements received.
    pub rejected: u64,
    /// Submissions whose acknowledgement was lost to a connection break
    /// (only possible around a crash step).
    pub unresolved: u64,
    /// Submissions still awaiting their acknowledgement when the client
    /// drain deadline expired (slow drain, not loss; expected 0).
    pub timed_out: u64,
    /// Engine events the probe recorded.
    pub events_recorded: usize,
    /// Whether the cluster reached quiescent digest agreement.
    pub converged: bool,
    /// Final ledger digest (replica 0).
    pub digest: u64,
    /// Final per-account balances (replica 0) — the determinism oracle.
    pub balances: Vec<u64>,
    /// Real frame loss across all transports (must be 0 after
    /// heal-and-drain).
    pub dropped_frames: u64,
    /// Delivered-but-unvalidated transfers evicted from a bounded
    /// per-source pending buffer, summed over the final reports (the
    /// replica-owned counter survives warm restarts). A closed-loop
    /// honest workload must never overflow the cap — nonzero is a
    /// certification failure with its own violation entry.
    pub overflow_dropped: u64,
    /// Validator violations (empty = the run upheld the paper's
    /// guarantees under this fault script).
    pub violations: Vec<Failure>,
    /// Whether the linearizability check exhausted its budget (neither
    /// verdict; should be false).
    pub unknown: bool,
    /// Rendered [`at_obs`] registry snapshot per still-running node,
    /// scraped just before shutdown — the post-mortem counters a
    /// counterexample report embeds (a node whose loop died mid-run
    /// simply has no entry).
    pub metrics: Vec<String>,
    /// Rendered causal timelines of transfers that never reached their
    /// acknowledgement (merged across every still-running node's trace
    /// ring, capped at [`MAX_EMBEDDED_TRACES`]) — the per-instance
    /// forensics a counterexample report embeds beside the schedule.
    pub traces: Vec<String>,
}

impl ChaosReport {
    /// Everything a failed run leaves behind, as one text: the tallies,
    /// the schedule, the row to paste into the pinned regression table
    /// of `tests/chaos_runs.rs` (this run's `(backend, seed)`
    /// at `config`'s quota and disruption count — the shape that found
    /// it), every violation, each still-reachable node's final metrics,
    /// and the merged timeline of every transfer that never reached its
    /// acknowledgement. The schedule regenerates bit-for-bit from the
    /// row; the execution is wall-clock, so a tight race may need a few
    /// replays.
    pub fn counterexample(&self, config: &ChaosConfig) -> String {
        let mut text = format!(
            "counterexample: {} seed {} (n = {}): {} submitted, {} committed, {} rejected, \
             {} unresolved, {} timed out, {} events, converged={}, dropped={}, overflow={}{}\n\
             schedule: {}\n\
             pinned row: (\"{}\", {}, {}, {}),\n",
            self.backend,
            self.seed,
            self.n,
            self.submitted,
            self.committed,
            self.rejected,
            self.unresolved,
            self.timed_out,
            self.events_recorded,
            self.converged,
            self.dropped_frames,
            self.overflow_dropped,
            if self.unknown { " (unknown)" } else { "" },
            format_nemesis_schedule(&self.schedule),
            self.backend,
            self.seed,
            config.quota,
            config.disruptions,
        );
        for violation in &self.violations {
            text.push_str(&format!("  {:?}: {}\n", violation.kind, violation.detail));
        }
        for (heading, sections) in [
            ("metrics", &self.metrics),
            ("undelivered trace", &self.traces),
        ] {
            for rendered in sections {
                let indented = rendered.trim_end().replace('\n', "\n  ");
                text.push_str(&format!("{heading}:\n  {indented}\n"));
            }
        }
        text
    }
}

/// Loss counters harvested from node incarnations retired mid-run (a
/// `CrashRestart` step drops the old incarnation's `NodeReport`, and
/// its counters with it — the validator must still see them).
#[derive(Clone, Copy, Debug, Default)]
struct LossCounters {
    dropped: u64,
    lost_ingest: u64,
    malformed: u64,
}

/// Wall-clock the schedule itself spends (run windows + crash downtime).
fn schedule_wall(schedule: &[NemesisChoice]) -> Duration {
    let ms: u64 = schedule
        .iter()
        .map(|choice| match choice {
            NemesisChoice::Run { ms } => u64::from(*ms),
            NemesisChoice::CrashRestart { down_ms, .. } => u64::from(*down_ms) + 200,
            _ => 2,
        })
        .sum();
    Duration::from_millis(ms)
}

/// Per-client tally.
#[derive(Default)]
struct Tally {
    submitted: u64,
    committed: u64,
    rejected: u64,
    /// Acknowledgements lost for good to a broken connection.
    unresolved: u64,
    /// Acknowledgements merely still outstanding when the client's
    /// drain deadline expired — slow, not lost.
    timed_out: u64,
}

/// The `k`-th transfer of client `i`: rotating destination, varying
/// amount — deterministic, so a replayed run submits the same workload.
fn workload(i: usize, k: usize, n: usize) -> (AccountId, Amount) {
    let dest = (i + 1 + (k % (n - 1))) % n;
    (AccountId::new(dest as u32), Amount::new(1 + (k % 3) as u64))
}

/// A chaos client: closed-loop pipelined submissions of its whole quota
/// against node `i`'s gateway, reconnecting (to the node's *current*
/// gateway address) whenever a crash or stop breaks the connection.
fn client_loop(
    i: usize,
    n: usize,
    quota: usize,
    addrs: Arc<Mutex<Vec<SocketAddr>>>,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut sent = 0usize;
    let mut client: Option<Client> = None;
    loop {
        let outstanding = client.as_ref().map_or(0, Client::outstanding);
        if sent == quota && outstanding == 0 {
            return tally;
        }
        if Instant::now() >= deadline {
            // Still-outstanding acks at the deadline are slow, not
            // lost — classified apart from connection-break losses.
            tally.timed_out += outstanding;
            return tally;
        }
        let Some(c) = client.as_mut() else {
            let addr = addrs.lock().expect("addrs poisoned")[i];
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
            continue;
        };
        let mut io_err = false;
        while sent < quota && c.outstanding() < PIPELINE as u64 {
            let (dest, amount) = workload(i, sent, n);
            match c.submit_transfer(dest, amount) {
                Ok(_) => {
                    sent += 1;
                    tally.submitted += 1;
                }
                Err(_) => {
                    io_err = true;
                    break;
                }
            }
        }
        if !io_err {
            match c.recv_response(Duration::from_millis(20)) {
                Ok(Some(response)) => match response.body {
                    ResponseBody::Committed { .. } => tally.committed += 1,
                    ResponseBody::Rejected { .. } => tally.rejected += 1,
                    ResponseBody::Balance { .. } => {}
                },
                Ok(None) => {}
                Err(_) => io_err = true,
            }
        }
        if io_err {
            // The connection died (node crash or gateway stop): every
            // in-flight acknowledgement on it is gone for good.
            tally.unresolved += c.outstanding();
            client = None;
        }
    }
}

/// Applies one nemesis step to the fault plane (everything except
/// crash/restart, which needs the cluster itself).
fn apply_fault_step(faults: &FaultInjector, n: usize, choice: &NemesisChoice) {
    let p = ProcessId::new;
    match *choice {
        NemesisChoice::Run { ms } => std::thread::sleep(Duration::from_millis(u64::from(ms))),
        NemesisChoice::PartitionLink { from, to } => faults.set_blocked(p(from), p(to), true),
        NemesisChoice::SplitBrain { boundary } => {
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    if a != b && ((a <= boundary) != (b <= boundary)) {
                        faults.set_blocked(p(a), p(b), true);
                    }
                }
            }
        }
        NemesisChoice::Degrade {
            from,
            to,
            drop_pct,
            dup_pct,
            delay_us,
        } => {
            let mut profile = faults.link(p(from), p(to));
            profile.drop_pct = drop_pct;
            profile.dup_pct = dup_pct;
            profile.delay_us = delay_us;
            faults.set_link(p(from), p(to), profile);
        }
        NemesisChoice::Disconnect { from, to } => faults.force_disconnect(p(from), p(to)),
        NemesisChoice::Heal => faults.heal_all(),
        NemesisChoice::CrashRestart { .. } | NemesisChoice::SkewTimers { .. } => {
            unreachable!("handled by the cluster-side executor")
        }
    }
}

/// Folds the final cluster state + recording into the report, running
/// the shared validator battery.
#[allow(clippy::too_many_arguments)]
fn finalize(
    backend: &str,
    seed: u64,
    schedule: &[NemesisChoice],
    tallies: Vec<Tally>,
    reports: Vec<NodeReport>,
    convergence_failure: Option<Failure>,
    carried_loss: LossCounters,
    pin_failure: Option<String>,
    probe: &EventProbe,
    metrics: Vec<String>,
    traces: Vec<String>,
) -> ChaosReport {
    let n = CLUSTER_SIZE;
    let converged = convergence_failure.is_none();
    let mut violations = Vec::from_iter(convergence_failure);
    if let Some(detail) = pin_failure {
        // The state-pinning reads are part of the certification: a run
        // whose final state never entered the history is *unchecked*,
        // not clean.
        violations.push(Failure {
            kind: FailureKind::Incomplete,
            detail,
        });
    }

    // Final reports plus the loss counters harvested from incarnations
    // a CrashRestart step retired (their counters die with the loop).
    let dropped: u64 = reports.iter().map(|r| r.dropped_frames).sum::<u64>() + carried_loss.dropped;
    let lost_ingest: u64 =
        reports.iter().map(|r| r.lost_ingest).sum::<u64>() + carried_loss.lost_ingest;
    let malformed: u64 =
        reports.iter().map(|r| r.malformed_frames).sum::<u64>() + carried_loss.malformed;
    if dropped + lost_ingest + malformed > 0 {
        violations.push(Failure {
            kind: FailureKind::FrameLoss,
            detail: format!(
                "reliable regime broken after heal-and-drain: dropped={dropped} \
                 lost_ingest={lost_ingest} malformed={malformed}"
            ),
        });
    }

    // The bounded per-source pending buffers exist to survive a
    // Byzantine flood; a closed-loop honest workload (pipeline-capped
    // clients) overflowing one means the replica silently discarded
    // delivered transfers that can now never apply — a liveness hole
    // the counterexample must name, not bury in the metrics dump.
    // The counter lives on the replica, so warm restarts carry it into
    // the final reports; no crash-time harvest is needed.
    let overflow_dropped: u64 = reports.iter().map(|r| r.overflow_dropped).sum();
    if overflow_dropped > 0 {
        violations.push(Failure {
            kind: FailureKind::FrameLoss,
            detail: format!(
                "{overflow_dropped} delivered transfers evicted from bounded pending \
                 buffers under an honest closed-loop workload"
            ),
        });
    }

    let crashed = schedule
        .iter()
        .any(|c| matches!(c, NemesisChoice::CrashRestart { .. }));
    let submitted: u64 = tallies.iter().map(|t| t.submitted).sum();
    let committed: u64 = tallies.iter().map(|t| t.committed).sum();
    let rejected: u64 = tallies.iter().map(|t| t.rejected).sum();
    let unresolved: u64 = tallies.iter().map(|t| t.unresolved).sum();
    let timed_out: u64 = tallies.iter().map(|t| t.timed_out).sum();
    if submitted != committed + rejected + unresolved + timed_out {
        violations.push(Failure {
            kind: FailureKind::Incomplete,
            detail: format!(
                "ack accounting broke: {submitted} submitted vs {committed} committed + \
                 {rejected} rejected + {unresolved} unresolved + {timed_out} timed out"
            ),
        });
    }
    if !crashed && unresolved > 0 {
        violations.push(Failure {
            kind: FailureKind::Incomplete,
            detail: format!("{unresolved} acknowledgements lost without any crash in the schedule"),
        });
    }
    if timed_out > 0 {
        // Distinct from loss: the drain was too slow for the client
        // deadline. Still a failed certification, but the diagnosis
        // (and the fix — longer drain_timeout) differs.
        violations.push(Failure {
            kind: FailureKind::Incomplete,
            detail: format!(
                "{timed_out} acknowledgements still outstanding when the client drain \
                 deadline expired (slow drain, not loss)"
            ),
        });
    }

    let events = probe.take_sorted();
    let events_recorded = events.len();
    let run = RecordedRun {
        n,
        initial: INITIAL_BALANCE,
        events,
        digests: reports.iter().map(|r| (r.node, r.digest)).collect(),
        supplies: reports
            .iter()
            .map(|r| (r.node, r.balances.iter().map(|b| b.units()).sum()))
            .collect(),
    };
    let (failure, unknown) = validate_recorded(&run, |_| true, CHECK_NODES);
    if let Some(failure) = failure {
        // A timed-out convergence wait already reported this divergence
        // (with the offending digest pair named): don't double-count
        // the same defect.
        let duplicate_divergence = failure.kind == FailureKind::Divergence
            && violations.iter().any(|v| v.kind == FailureKind::Divergence);
        if !duplicate_divergence {
            violations.push(failure);
        }
    }

    ChaosReport {
        backend: backend.to_string(),
        n,
        seed,
        schedule: schedule.to_vec(),
        submitted,
        committed,
        rejected,
        unresolved,
        timed_out,
        events_recorded,
        converged,
        digest: reports.first().map_or(0, |r| r.digest),
        balances: reports
            .first()
            .map(|r| r.balances.iter().map(|b| b.units()).collect())
            .unwrap_or_default(),
        dropped_frames: dropped,
        overflow_dropped,
        violations,
        unknown,
        metrics,
        traces,
    }
}

/// Scrapes every reachable node's rendered metrics (half-dead clusters
/// included: a node whose loop is gone is skipped, not waited on).
fn scrape_metrics<'a, B>(handles: impl Iterator<Item = &'a NodeHandle<B>>) -> Vec<String>
where
    B: SecureBroadcast<EnginePayload> + 'a,
{
    handles
        .filter_map(|h| h.metrics(Duration::from_secs(2)))
        .map(|snapshot| snapshot.render())
        .collect()
}

/// How many rendered undelivered-instance timelines a report carries
/// (enough to diagnose, bounded so a mass-loss run stays printable).
pub const MAX_EMBEDDED_TRACES: usize = 16;

fn node_config(config: &ChaosConfig) -> NodeConfig {
    NodeConfig::new(
        EngineConfig::batched(config.batch, VirtualTime::from_micros(BATCH_WINDOW_US)),
        Amount::new(INITIAL_BALANCE),
    )
    // Always-on tracing: chaos workloads are small, and a counterexample
    // without the victim transfer's timeline is half a counterexample.
    // The config (epoch included) is cloned into every node and survives
    // warm restarts, so restarted incarnations stay on the shared clock.
    .with_trace(TraceConfig::always())
}

/// Scrapes every reachable node's trace ring (like [`scrape_metrics`],
/// skipping nodes whose loop died) and renders the merged timelines of
/// transfers that never completed: still mid-protocol at shutdown, or
/// with ring-evicted gaps. Worst (most-evented) first, capped.
fn undelivered_traces<'a, B>(handles: impl Iterator<Item = &'a NodeHandle<B>>) -> Vec<String>
where
    B: SecureBroadcast<EnginePayload> + 'a,
{
    let logs: Vec<TraceLog> = handles
        .filter_map(|h| h.trace(Duration::from_secs(2)))
        .collect();
    let mut timelines = merge_traces(&logs);
    timelines.retain(|t| t.e2e_us.is_none() || t.incomplete);
    timelines.sort_by_key(|t| std::cmp::Reverse(t.events.len()));
    timelines
        .iter()
        .take(MAX_EMBEDDED_TRACES)
        .map(|t| t.render())
        .collect()
}

fn convergence_failure(timeout: &at_node::ConvergenceTimeout) -> Failure {
    Failure {
        kind: if timeout.divergent.is_some() {
            FailureKind::Divergence
        } else {
            FailureKind::Incomplete
        },
        detail: timeout.to_string(),
    }
}

/// Runs one chaos experiment (see the [module docs](self) for the
/// phases) on a TCP cluster, `make` building each node's backend.
pub fn run_chaos<B, F>(
    config: &ChaosConfig,
    backend: &str,
    seed: u64,
    schedule: &[NemesisChoice],
    make: F,
) -> ChaosReport
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    let n = CLUSTER_SIZE;
    let faults = FaultInjector::new(seed);
    let probe = EventProbe::new();
    let options = ClusterOptions::default()
        .with_faults(faults.clone())
        .with_probe(probe.clone());
    let mut cluster =
        start_tcp_cluster_with(n, node_config(config), options, make).expect("cluster start");

    let addrs = Arc::new(Mutex::new(cluster.client_addrs.clone()));
    let deadline = Instant::now() + schedule_wall(schedule) + config.drain_timeout;
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let addrs = Arc::clone(&addrs);
            let quota = config.quota;
            std::thread::spawn(move || client_loop(i, n, quota, addrs, deadline))
        })
        .collect();

    // The nemesis walks the schedule while the clients hammer.
    let mut carried_loss = LossCounters::default();
    for choice in schedule {
        match *choice {
            NemesisChoice::CrashRestart { node, down_ms } => {
                let i = node as usize;
                // Harvest the dying incarnation's loss counters — they
                // die with its loop, and the FrameLoss gate must see
                // loss from *before* the crash too. Transport drops are
                // read just before the stop; ingest/decode losses come
                // from `stop_counted`, which includes anything the stop
                // itself discarded at grace expiry.
                let handle = cluster.handles[i].as_ref().expect("victim running");
                carried_loss.dropped += handle.report().dropped_frames;
                let (replica, lost_ingest, malformed) = cluster.stop_node_counted(i);
                carried_loss.lost_ingest += lost_ingest;
                carried_loss.malformed += malformed;
                std::thread::sleep(Duration::from_millis(u64::from(down_ms)));
                cluster.restart_node(i, replica).expect("restart");
                addrs.lock().expect("addrs poisoned")[i] = cluster.client_addrs[i];
            }
            NemesisChoice::SkewTimers { node, pct } => {
                if let Some(handle) = cluster.handles[node as usize].as_ref() {
                    handle.set_timer_skew(pct);
                }
            }
            ref fault => apply_fault_step(&faults, n, fault),
        }
    }
    faults.heal_all(); // idempotent: generated schedules end healed
    let tallies: Vec<Tally> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Heal-and-drain: quiescent digest agreement across every node,
    // crashed-and-restarted ones included (TCP outboxes replay what
    // they missed).
    let handles: Vec<_> = cluster.running().collect();
    let outcome = try_await_convergence(&handles, config.drain_timeout);
    drop(handles);
    let (reports, failure) = match outcome {
        Ok(reports) => (reports, None),
        Err(timeout) => {
            let failure = convergence_failure(&timeout);
            (timeout.last_reports, Some(failure))
        }
    };

    let mut pin_failure = None;
    if failure.is_none() {
        // Pin the converged state into the history: one read per
        // account at node 0 (recorded as ReadObserved by the probe).
        // These reads are part of the certification — a failure here
        // means the final state never entered the history, so it is
        // reported, not swallowed.
        let pin = Client::connect(cluster.client_addrs[0])
            .map_err(|err| format!("state-pinning client failed to connect: {err}"))
            .and_then(|mut reader| {
                for account in 0..n as u32 {
                    reader
                        .read_balance(AccountId::new(account), Duration::from_secs(5))
                        .map_err(|err| format!("state-pinning read of account {account}: {err}"))?;
                }
                Ok(())
            });
        pin_failure = pin.err();
    }
    let metrics = scrape_metrics(cluster.running());
    let traces = undelivered_traces(cluster.running());
    cluster.stop_all();

    finalize(
        backend,
        seed,
        schedule,
        tallies,
        reports,
        failure,
        carried_loss,
        pin_failure,
        &probe,
        metrics,
        traces,
    )
}

/// Runs one experiment on `backend` with the schedule generated from
/// `seed`.
pub fn run_seeded(config: &ChaosConfig, backend: BroadcastBackend, seed: u64) -> ChaosReport {
    let schedule = generate_schedule(seed, CLUSTER_SIZE, config.disruptions);
    run_with_schedule(config, backend, seed, &schedule)
}

/// [`run_seeded`] with an explicit schedule (the replay entry point):
/// [`run_chaos`] over the endpoints [`BroadcastBackend::build`] makes,
/// reported under the backend's label.
pub fn run_with_schedule(
    config: &ChaosConfig,
    backend: BroadcastBackend,
    seed: u64,
    schedule: &[NemesisChoice],
) -> ChaosReport {
    struct Chaos<'a>(&'a ChaosConfig, &'static str, u64, &'a [NemesisChoice]);
    impl BackendVisitor for Chaos<'_> {
        type Output = ChaosReport;
        fn visit<B, F>(self, make: F) -> ChaosReport
        where
            B: SecureBroadcast<EnginePayload> + 'static,
            B::Msg: Encode + Decode + Send + 'static,
            F: Fn(ProcessId) -> B,
        {
            let Chaos(config, label, seed, schedule) = self;
            run_chaos(config, label, seed, schedule, make)
        }
    }
    let chaos = Chaos(config, backend.label(), seed, schedule);
    backend.build(CLUSTER_SIZE, seed, chaos)
}
