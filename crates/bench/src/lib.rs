//! # at-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation (Section 5): a head-to-head
//! comparison of the broadcast-based asset transfer against the
//! consensus-based baseline, in throughput (experiment **T1**) and latency
//! (**T2**), plus the ablations **A1** (broadcast protocol choice), **A2**
//! (baseline batching) and **A3** (`k`-sharedness cost). See DESIGN.md for
//! the experiment index and EXPERIMENTS.md for recorded results.
//!
//! ## Methodology
//!
//! Clients are **closed-loop**, one outstanding transfer per process —
//! the sequential-process model of the paper (Section 2.1). A run
//! consists of `waves` rounds: in each round every process submits one
//! transfer to a rotating destination, and the run proceeds until all
//! transfers of the round complete. Throughput is total completed
//! transfers over total virtual time; latency is the per-transfer
//! submission-to-completion interval.
//!
//! All time is *virtual* ([`at_net::VirtualTime`]): results are exactly
//! reproducible and independent of the host machine. The cost model
//! (per-event processing cost, per-message send cost, link latency) is
//! part of [`EvalConfig`] and recorded with every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use at_broadcast::auth::NoAuth;
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::EchoBroadcast;
use at_consensus::transfer_system::{BaselineEvent, BaselineReplica};
use at_core::figure4::TransferMsg;
use at_core::kshared::{KEvent, KSharedReplica};
use at_core::replica::{ConsensuslessReplica, TransferBroadcast, TransferEvent};
use at_engine::{
    AuthMode, BaselineEngine, BroadcastBackend, ConsensuslessEngine, Engine, EngineConfig,
    Scenario, ScenarioReport,
};
use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId};
use at_net::{LatencyModel, NetConfig, Simulation, VirtualTime};

/// Cost-model and workload parameters of one evaluation run.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Number of processes.
    pub n: usize,
    /// Closed-loop rounds (one transfer per process per round).
    pub waves: usize,
    /// Per-event processing cost.
    pub processing_cost: VirtualTime,
    /// Per-outgoing-message send cost.
    pub send_cost: VirtualTime,
    /// Link latency model.
    pub latency: LatencyModel,
    /// RNG seed.
    pub seed: u64,
    /// Baseline batch size (PBFT).
    pub batch_size: usize,
}

impl EvalConfig {
    /// The configuration used for the headline T1/T2 tables: LAN latency,
    /// 10µs processing per event, 5µs per message sent.
    pub fn standard(n: usize, waves: usize, seed: u64) -> Self {
        EvalConfig {
            n,
            waves,
            processing_cost: VirtualTime::from_micros(10),
            send_cost: VirtualTime::from_micros(5),
            latency: LatencyModel::lan(),
            seed,
            batch_size: 8,
        }
    }

    /// A latency-bound regime: negligible CPU costs, so protocol *round
    /// structure* dominates. This is the regime that matches the paper's
    /// medium-sized deployment, where even the naive quadratic broadcast
    /// outperformed consensus (see EXPERIMENTS.md).
    pub fn latency_bound(n: usize, waves: usize, seed: u64) -> Self {
        EvalConfig {
            n,
            waves,
            processing_cost: VirtualTime::from_micros(1),
            send_cost: VirtualTime::ZERO,
            latency: LatencyModel::lan(),
            seed,
            batch_size: 8,
        }
    }

    fn net(&self) -> NetConfig {
        NetConfig {
            latency: self.latency,
            processing_cost: self.processing_cost,
            send_cost: self.send_cost,
            seed: self.seed,
        }
    }
}

/// The measurements of one run.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// System size.
    pub n: usize,
    /// Transfers completed.
    pub completed: usize,
    /// Total virtual duration.
    pub duration: VirtualTime,
    /// Throughput in transfers per virtual second.
    pub throughput_tps: f64,
    /// Mean latency (µs).
    pub latency_mean_us: f64,
    /// Median latency (µs).
    pub latency_p50_us: u64,
    /// 99th-percentile latency (µs).
    pub latency_p99_us: u64,
    /// Total messages sent.
    pub messages: u64,
}

fn summarize(
    n: usize,
    completed: usize,
    duration: VirtualTime,
    mut latencies: Vec<u64>,
    messages: u64,
) -> EvalResult {
    latencies.sort_unstable();
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let percentile = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            let index = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[index]
        }
    };
    let secs = duration.as_secs_f64().max(f64::MIN_POSITIVE);
    EvalResult {
        n,
        completed,
        duration,
        throughput_tps: completed as f64 / secs,
        latency_mean_us: mean,
        latency_p50_us: percentile(0.5),
        latency_p99_us: percentile(0.99),
        messages,
    }
}

/// Drives a consensusless system (generic over the broadcast) through the
/// closed-loop workload.
fn run_consensusless<B>(
    config: &EvalConfig,
    make: impl Fn(ProcessId) -> ConsensuslessReplica<B>,
) -> EvalResult
where
    B: TransferBroadcast + 'static,
{
    let n = config.n;
    let replicas: Vec<_> = ProcessId::all(n).map(make).collect();
    let mut sim = Simulation::new(replicas, config.net());
    let mut latencies = Vec::with_capacity(n * config.waves);
    let mut completed = 0usize;

    for wave in 0..config.waves {
        let wave_start = sim.now();
        for i in 0..n {
            let dest = AccountId::new(((i + wave + 1) % n) as u32);
            sim.schedule(wave_start, ProcessId::new(i as u32), move |replica, ctx| {
                replica.submit(dest, Amount::new(1), ctx);
            });
        }
        sim.run_until_quiet(u64::MAX);
        for (at, _, event) in sim.take_events() {
            if let TransferEvent::Completed { .. } = event {
                completed += 1;
                latencies.push(at.saturating_sub(wave_start).as_micros());
            }
        }
    }
    summarize(
        n,
        completed,
        sim.now(),
        latencies,
        sim.stats().messages_sent,
    )
}

/// T1/T2 system under test: Figure 4 over Bracha reliable broadcast (the
/// paper's deployed configuration).
pub fn eval_consensusless_bracha(config: &EvalConfig) -> EvalResult {
    let n = config.n;
    run_consensusless(config, |me| {
        ConsensuslessReplica::<BrachaBroadcast<TransferMsg>>::bracha(me, n, Amount::new(1_000_000))
    })
}

/// T1/T2 system under test: Figure 4 over the linear signed-echo
/// broadcast (the paper's preferred primitive [35, 36]). Certificate
/// forwarding is disabled — all senders in the performance runs are
/// honest, and the ablation A1 measures the protocols' intrinsic cost.
pub fn eval_consensusless_echo(config: &EvalConfig) -> EvalResult {
    let n = config.n;
    run_consensusless(config, |me| {
        let mut broadcast = EchoBroadcast::new(me, n, NoAuth);
        broadcast.set_forward_final(false);
        ConsensuslessReplica::from_parts(
            at_core::figure4::TransferState::new(me, n, Amount::new(1_000_000)),
            broadcast,
        )
    })
}

/// The consensus-based baseline under the same workload.
pub fn eval_baseline(config: &EvalConfig) -> EvalResult {
    let n = config.n;
    let initial = Ledger::uniform(n, Amount::new(1_000_000));
    let replicas: Vec<_> = ProcessId::all(n)
        .map(|me| BaselineReplica::new(me, n, initial.clone(), config.batch_size))
        .collect();
    let mut sim = Simulation::new(replicas, config.net());
    let mut latencies = Vec::with_capacity(n * config.waves);
    let mut completed = 0usize;

    for wave in 0..config.waves {
        let wave_start = sim.now();
        for i in 0..n {
            let dest = AccountId::new(((i + wave + 1) % n) as u32);
            let source = AccountId::new(i as u32);
            let originator = ProcessId::new(i as u32);
            let seq = at_model::SeqNo::new((wave + 1) as u64);
            let tx = at_model::Transfer::new(source, dest, Amount::new(1), originator, seq);
            sim.schedule(wave_start, originator, move |replica, ctx| {
                replica.submit(tx, ctx);
            });
        }
        // The wave may leave a partially filled batch at the leader; give
        // every replica a flush command slightly after the submissions.
        for i in 0..n {
            sim.schedule(
                wave_start + VirtualTime::from_millis(2),
                ProcessId::new(i as u32),
                |replica, ctx| replica.flush_now(ctx),
            );
        }
        sim.run_until_quiet(u64::MAX);
        for (at, _, event) in sim.take_events() {
            if let BaselineEvent::Completed { success: true, .. } = event {
                completed += 1;
                latencies.push(at.saturating_sub(wave_start).as_micros());
            }
        }
    }
    summarize(
        n,
        completed,
        sim.now(),
        latencies,
        sim.stats().messages_sent,
    )
}

/// A3: hot shared account with `k` owners; measures completed transfers
/// per virtual second on the shared account.
pub fn eval_kshared(config: &EvalConfig, k: usize) -> EvalResult {
    let n = config.n.max(k + 1);
    let shared = AccountId::new(0);
    let mut owners = OwnerMap::new();
    for i in 0..k {
        owners.add_owner(shared, ProcessId::new(i as u32));
    }
    for i in 1..n {
        owners.add_owner(AccountId::new(i as u32), ProcessId::new(i as u32));
    }
    let initial: Vec<(AccountId, Amount)> = (0..n)
        .map(|i| (AccountId::new(i as u32), Amount::new(1_000_000)))
        .collect();
    let replicas: Vec<_> = ProcessId::all(n)
        .map(|me| KSharedReplica::new(me, n, initial.clone(), owners.clone(), NoAuth))
        .collect();
    let mut sim = Simulation::new(replicas, config.net());
    let mut latencies = Vec::new();
    let mut completed = 0usize;

    for wave in 0..config.waves {
        let wave_start = sim.now();
        // Every owner debits the hot shared account once per wave.
        for i in 0..k {
            let dest = AccountId::new(((i + wave) % (n - 1) + 1) as u32);
            sim.schedule(wave_start, ProcessId::new(i as u32), move |replica, ctx| {
                replica.submit(shared, dest, Amount::new(1), ctx);
            });
        }
        sim.run_until_quiet(u64::MAX);
        for (at, _, event) in sim.take_events() {
            if let KEvent::Completed { success: true, .. } = event {
                completed += 1;
                latencies.push(at.saturating_sub(wave_start).as_micros());
            }
        }
    }
    summarize(
        n,
        completed,
        sim.now(),
        latencies,
        sim.stats().messages_sent,
    )
}

/// T3: the closed-loop workload used by the engine-layer sharding and
/// batching comparison. Each of the `n` processes fronts several clients
/// and submits `transfers_per_wave` transfers per round trip — the regime
/// where sender-side batching has something to amortize.
pub fn t3_scenario(n: usize, waves: usize, transfers_per_wave: usize, seed: u64) -> Scenario {
    Scenario::new(format!("t3-n{n}"), n)
        .waves(waves)
        .transfers_per_wave(transfers_per_wave)
        .seed(seed)
        .initial(Amount::new(1_000_000))
}

/// The engine line-up of the T3 table: the unsharded, unbatched
/// consensusless engine (the paper's deployment shape), the sharded and
/// batched production configuration, and the PBFT baseline.
pub fn t3_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ConsensuslessEngine::new(EngineConfig::unsharded())),
        Box::new(ConsensuslessEngine::new(EngineConfig::sharded_batched(
            4,
            8,
            VirtualTime::from_micros(500),
        ))),
        Box::new(BaselineEngine::new(8)),
    ]
}

/// Runs the full T3 line-up on one scenario.
pub fn eval_t3(scenario: &Scenario) -> Vec<ScenarioReport> {
    t3_engines()
        .iter()
        .map(|engine| engine.run(scenario))
        .collect()
}

/// T4: the closed-loop workload of the broadcast-backend ablation —
/// unsharded and unbatched, so the per-transfer message count is the
/// protocol's own cost, not amortized away by batching.
pub fn t4_scenario(n: usize, waves: usize, transfers_per_wave: usize, seed: u64) -> Scenario {
    Scenario::new(format!("t4-n{n}"), n)
        .waves(waves)
        .transfers_per_wave(transfers_per_wave)
        .seed(seed)
        .initial(Amount::new(1_000_000))
}

/// The backend line-up of the T4 table. All senders are honest, so
/// certificate forwarding is disabled on the signed backends (same
/// rationale as ablation A1): the table measures each protocol's
/// intrinsic cost. `sig_cost_us` charges modelled CPU per signature
/// operation on the signed backends, making the "signature CPU for
/// message complexity" trade visible in virtual time; `include_ed` adds
/// a row with *real* Ed25519 signing and certificate verification
/// end-to-end (slow in wall-clock, identical in virtual metrics to the
/// cost-modelled row's message counts).
pub fn t4_backends(sig_cost_us: u64, include_ed: bool) -> Vec<EngineConfig> {
    let base = EngineConfig::unsharded();
    let mut configs = vec![
        base,
        base.with_backend(BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
            forward_final: false,
        })
        .with_sig_cost_us(sig_cost_us),
        base.with_backend(BroadcastBackend::AccountOrder {
            auth: AuthMode::None,
            forward_final: false,
        })
        .with_sig_cost_us(sig_cost_us),
    ];
    if include_ed {
        configs.push(
            base.with_backend(BroadcastBackend::SignedEcho {
                auth: AuthMode::Ed25519,
                forward_final: false,
            })
            .with_sig_cost_us(sig_cost_us),
        );
    }
    configs
}

/// Runs the T4 backend line-up on one scenario.
pub fn eval_t4(scenario: &Scenario, sig_cost_us: u64, include_ed: bool) -> Vec<ScenarioReport> {
    t4_backends(sig_cost_us, include_ed)
        .into_iter()
        .map(|config| ConsensuslessEngine::new(config).run(scenario))
        .collect()
}

/// Messages sent per completed transfer — the headline scaling metric of
/// the backend comparison.
pub fn messages_per_transfer(report: &ScenarioReport) -> f64 {
    report.messages_sent as f64 / (report.completed as f64).max(1.0)
}

/// Renders T4 reports (grouped by system size) as machine-readable JSON
/// for `BENCH_t4.json`. Hand-rolled: the workspace builds offline, with
/// no serde.
pub fn t4_json(seed: u64, sig_cost_us: u64, groups: &[(usize, Vec<ScenarioReport>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"T4 broadcast-backend ablation\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"sig_cost_us\": {sig_cost_us},\n"));
    out.push_str(
        "  \"workload\": \"uniform closed loop, unsharded/unbatched, certificate forwarding off\",\n",
    );
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for (n, reports) in groups {
        for report in reports {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"n\": {n}, \"engine\": \"{}\", \"completed\": {}, \"messages\": {}, \
                 \"messages_per_transfer\": {:.2}, \"throughput_tps\": {:.1}, \
                 \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"agreed\": {}, \
                 \"conflicts\": {}}}",
                report.engine,
                report.completed,
                report.messages_sent,
                messages_per_transfer(report),
                report.throughput_tps,
                report.latency_p50_us,
                report.latency_p99_us,
                report.agreed,
                report.conflicts,
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Formats one table row (markdown).
pub fn format_row(label: &str, result: &EvalResult) -> String {
    format!(
        "| {label} | {} | {} | {:.0} | {:.0} | {} | {} | {} |",
        result.n,
        result.completed,
        result.throughput_tps,
        result.latency_mean_us,
        result.latency_p50_us,
        result.latency_p99_us,
        result.messages
    )
}

/// The measured outcome of one **T5** real-cluster loadgen run
/// (`loadgen` bin): wall-clock numbers from the at-node TCP runtime, as
/// opposed to every other experiment's virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct T5Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Cluster size.
    pub n: usize,
    /// Batch size cap per replica.
    pub batch: usize,
    /// Batch window in microseconds.
    pub window_us: u64,
    /// Per-client pipelining window (max outstanding transfers).
    pub pipeline: usize,
    /// Wall-clock measurement duration (ms).
    pub duration_ms: u64,
    /// Transfers submitted by all clients.
    pub submitted: u64,
    /// Transfers acknowledged committed.
    pub committed: u64,
    /// Transfers rejected at admission.
    pub rejected: u64,
    /// Committed transfers per wall-clock second.
    pub throughput_tps: f64,
    /// Median submit→commit-ack latency (µs, wall clock).
    pub latency_p50_us: u64,
    /// 99th-percentile latency (µs, wall clock).
    pub latency_p99_us: u64,
    /// Whether every replica converged to byte-identical balances.
    pub converged: bool,
    /// Ledger digest of replica 0 after convergence.
    pub balance_digest: u64,
    /// Frames dropped across all transports (0 = reliable regime held).
    pub dropped_frames: u64,
}

/// Renders a [`T5Report`] as `BENCH_t5.json` (hand-rolled, no serde).
pub fn t5_json(report: &T5Report, smoke: bool) -> String {
    format!(
        "{{\n  \"experiment\": \"T5 real-cluster loadgen (at-node, loopback TCP)\",\n  \
         \"smoke\": {smoke},\n  \"backend\": \"{}\",\n  \"n\": {},\n  \"batch\": {},\n  \
         \"window_us\": {},\n  \"pipeline\": {},\n  \"duration_ms\": {},\n  \
         \"submitted\": {},\n  \"committed\": {},\n  \"rejected\": {},\n  \
         \"throughput_tps\": {:.1},\n  \"latency_p50_us\": {},\n  \"latency_p99_us\": {},\n  \
         \"converged\": {},\n  \"balance_digest\": {},\n  \"dropped_frames\": {}\n}}\n",
        report.backend,
        report.n,
        report.batch,
        report.window_us,
        report.pipeline,
        report.duration_ms,
        report.submitted,
        report.committed,
        report.rejected,
        report.throughput_tps,
        report.latency_p50_us,
        report.latency_p99_us,
        report.converged,
        report.balance_digest,
        report.dropped_frames,
    )
}

/// One authenticated leg of the **T7** hot-path bench: the same
/// loadgen shape run under real Ed25519 signatures, with the at-obs
/// sign/verify stage spans scraped back out of the cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct T7AuthRow {
    /// Committed transfers per wall-clock second.
    pub throughput_tps: f64,
    /// Mean of the merged `stage_sign_us` histogram (µs).
    pub sign_mean_us: u64,
    /// Mean of the merged `stage_verify_us` histogram (µs); a
    /// certificate checked in one call contributes its mean per share.
    pub verify_mean_us: u64,
    /// Signing operations metered across the cluster.
    pub sign_count: u64,
    /// Signature verifications metered across the cluster (a
    /// certificate counts once per share verified).
    pub verify_count: u64,
}

/// Renders the **T7** hot-path report as `BENCH_t7.json` (hand-rolled,
/// no serde): the NoAuth headline run against the recorded T5 baseline,
/// plus the signed leg's metered signature work.
pub fn t7_json(
    smoke: bool,
    headline: &T5Report,
    t5_baseline_tps: f64,
    t5_baseline_p99_us: u64,
    signed: &T7AuthRow,
) -> String {
    let speedup_vs_t5 = if t5_baseline_tps > 0.0 {
        headline.throughput_tps / t5_baseline_tps
    } else {
        0.0
    };
    let p99_improvement = if t5_baseline_p99_us > 0 && headline.latency_p99_us > 0 {
        t5_baseline_p99_us as f64 / headline.latency_p99_us as f64
    } else {
        0.0
    };
    let verifies_per_sign = if signed.sign_count > 0 {
        signed.verify_count as f64 / signed.sign_count as f64
    } else {
        0.0
    };
    let auth_signed = format!(
        "{{\"throughput_tps\": {:.1}, \"sign_mean_us\": {}, \"verify_mean_us\": {}, \
         \"sign_count\": {}, \"verify_count\": {}}}",
        signed.throughput_tps,
        signed.sign_mean_us,
        signed.verify_mean_us,
        signed.sign_count,
        signed.verify_count,
    );
    format!(
        "{{\n  \"experiment\": \"T7 hot-path (comb-table ed25519, zero-copy decode, \
         coalesced socket I/O)\",\n  \"smoke\": {smoke},\n  \"headline\": {{\n    \
         \"backend\": \"{}\",\n    \"n\": {},\n    \"batch\": {},\n    \"window_us\": {},\n    \
         \"pipeline\": {},\n    \"duration_ms\": {},\n    \"submitted\": {},\n    \
         \"committed\": {},\n    \"rejected\": {},\n    \"throughput_tps\": {:.1},\n    \
         \"latency_p50_us\": {},\n    \"latency_p99_us\": {},\n    \"converged\": {},\n    \
         \"dropped_frames\": {}\n  }},\n  \"t5_baseline_tps\": {:.1},\n  \
         \"t5_baseline_p99_us\": {},\n  \"speedup_vs_t5\": {:.2},\n  \
         \"p99_improvement\": {:.2},\n  \"auth_signed\": {},\n  \
         \"verifies_per_sign\": {:.2}\n}}\n",
        headline.backend,
        headline.n,
        headline.batch,
        headline.window_us,
        headline.pipeline,
        headline.duration_ms,
        headline.submitted,
        headline.committed,
        headline.rejected,
        headline.throughput_tps,
        headline.latency_p50_us,
        headline.latency_p99_us,
        headline.converged,
        headline.dropped_frames,
        t5_baseline_tps,
        t5_baseline_p99_us,
        speedup_vs_t5,
        p99_improvement,
        auth_signed,
        verifies_per_sign,
    )
}

/// One `(backend, transport)` row of the **T6** chaos soak
/// (`chaos_soak` bin): aggregate outcome of N seeded nemesis schedules
/// against a live cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct T6Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Transport label (`tcp` / `mesh`).
    pub transport: String,
    /// Chaos runs executed.
    pub runs: usize,
    /// Distinct nemesis schedules among them.
    pub distinct_schedules: usize,
    /// Transfers submitted across all runs.
    pub submitted: u64,
    /// Commit acknowledgements across all runs.
    pub committed: u64,
    /// Acknowledgements lost to crash steps (expected 0 without crashes).
    pub unresolved: u64,
    /// Engine events validated across all runs.
    pub events: u64,
    /// Runs whose linearizability check exhausted its budget.
    pub unknown: usize,
    /// Validator violations across all runs (the gate: must be 0).
    pub violations: usize,
    /// Wall-clock spent on this row (ms).
    pub wall_ms: u64,
}

/// Renders T6 rows as `BENCH_t6.json` (hand-rolled, no serde).
pub fn t6_json(smoke: bool, seed_base: u64, rows: &[T6Report]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"T6 chaos soak (at-chaos nemesis vs live clusters)\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"seed_base\": {seed_base},\n"));
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for row in rows {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"transport\": \"{}\", \"runs\": {}, \
             \"distinct_schedules\": {}, \"submitted\": {}, \"committed\": {}, \
             \"unresolved\": {}, \"events\": {}, \"unknown\": {}, \"violations\": {}, \
             \"wall_ms\": {}}}",
            row.backend,
            row.transport,
            row.runs,
            row.distinct_schedules,
            row.submitted,
            row.committed,
            row.unresolved,
            row.events,
            row.unknown,
            row.violations,
            row.wall_ms,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The outcome of one **T9** million-account scale soak (`scale_soak`
/// bin): a compressed long-run against a live TCP cluster with a large
/// account universe, Zipf-hot destinations, rolling warm crash/restarts,
/// a quorum-attested cold bootstrap at the end, and a nemesis leg whose
/// recorded runs go through the full at-check battery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct T9Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Cluster size.
    pub n: usize,
    /// Ledger account universe (decoupled from `n`).
    pub accounts: usize,
    /// Soak windows executed (one rolling restart per window).
    pub windows: usize,
    /// Transfers submitted per window across the cluster.
    pub transfers_per_window: usize,
    /// Transfers submitted over the whole soak.
    pub submitted: u64,
    /// Commit acknowledgements received.
    pub committed: u64,
    /// Rejections at admission.
    pub rejected: u64,
    /// Warm crash/restarts performed by the rolling schedule.
    pub warm_restarts: u64,
    /// Broadcast instances + engine history entries pruned across the
    /// cluster (`engine_pruned_total`, summed) — nonzero proves log
    /// truncation ran.
    pub pruned_total: u64,
    /// Pending-buffer overflow drops (must be 0 under the closed loop).
    pub overflow_dropped: u64,
    /// Peak `broadcast_instances` gauge over the first half of the soak.
    pub instances_peak_early: u64,
    /// Peak `broadcast_instances` gauge over the second half — the
    /// plateau gate compares this against the early peak.
    pub instances_peak_late: u64,
    /// Peak `engine_pending` gauge over the first half.
    pub pending_peak_early: u64,
    /// Peak `engine_pending` gauge over the second half.
    pub pending_peak_late: u64,
    /// The memory-plateau gate: late peaks within slack of early peaks
    /// and pruning active.
    pub plateau_ok: bool,
    /// Encoded snapshot size served to the cold bootstrap (bytes).
    pub snapshot_bytes: u64,
    /// Chunks the cold bootstrap transferred.
    pub snapshot_chunks: u64,
    /// Wall-clock of the quorum-attested cold bootstrap (ms).
    pub cold_catchup_ms: u64,
    /// Transfers the cold-started node applied locally — far below
    /// `committed` when the snapshot carried the prefix.
    pub cold_applied: u64,
    /// Whether the cluster (cold node included) reached digest
    /// agreement at the end.
    pub converged: bool,
    /// Nemesis-leg chaos runs executed (base topology, crash-bearing
    /// schedules, pruning enabled).
    pub nemesis_runs: usize,
    /// Validator violations across the nemesis leg (the gate: 0).
    pub nemesis_violations: usize,
    /// All at-check validators green on the recorded nemesis runs.
    pub validators_green: bool,
}

/// Renders a [`T9Report`] as `BENCH_t9.json` (hand-rolled, no serde).
pub fn t9_json(report: &T9Report, smoke: bool) -> String {
    format!(
        "{{\n  \"experiment\": \"T9 million-account scale soak (snapshots, log truncation, \
         cold catch-up)\",\n  \"smoke\": {smoke},\n  \"backend\": \"{}\",\n  \"n\": {},\n  \
         \"accounts\": {},\n  \"windows\": {},\n  \"transfers_per_window\": {},\n  \
         \"submitted\": {},\n  \"committed\": {},\n  \"rejected\": {},\n  \
         \"warm_restarts\": {},\n  \"pruned_total\": {},\n  \"overflow_dropped\": {},\n  \
         \"instances_peak_early\": {},\n  \"instances_peak_late\": {},\n  \
         \"pending_peak_early\": {},\n  \"pending_peak_late\": {},\n  \"plateau_ok\": {},\n  \
         \"snapshot_bytes\": {},\n  \"snapshot_chunks\": {},\n  \"cold_catchup_ms\": {},\n  \
         \"cold_applied\": {},\n  \"converged\": {},\n  \"nemesis_runs\": {},\n  \
         \"nemesis_violations\": {},\n  \"validators_green\": {}\n}}\n",
        report.backend,
        report.n,
        report.accounts,
        report.windows,
        report.transfers_per_window,
        report.submitted,
        report.committed,
        report.rejected,
        report.warm_restarts,
        report.pruned_total,
        report.overflow_dropped,
        report.instances_peak_early,
        report.instances_peak_late,
        report.pending_peak_early,
        report.pending_peak_late,
        report.plateau_ok,
        report.snapshot_bytes,
        report.snapshot_chunks,
        report.cold_catchup_ms,
        report.cold_applied,
        report.converged,
        report.nemesis_runs,
        report.nemesis_violations,
        report.validators_green,
    )
}

/// The markdown table header matching [`format_row`].
pub fn table_header() -> String {
    [
        "| system | n | completed | tps | mean µs | p50 µs | p99 µs | messages |",
        "|---|---|---|---|---|---|---|---|",
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EvalConfig {
        EvalConfig::standard(4, 2, 1)
    }

    #[test]
    fn t5_json_is_well_formed() {
        let report = T5Report {
            backend: "echo".into(),
            n: 4,
            batch: 128,
            window_us: 1000,
            pipeline: 256,
            duration_ms: 10_000,
            submitted: 123_456,
            committed: 123_000,
            rejected: 0,
            throughput_tps: 12_300.0,
            latency_p50_us: 2_500,
            latency_p99_us: 9_000,
            converged: true,
            balance_digest: 42,
            dropped_frames: 0,
        };
        let json = t5_json(&report, false);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T5 real-cluster loadgen"));
        assert!(json.contains("\"throughput_tps\": 12300.0"));
        assert!(json.contains("\"converged\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t7_json_is_well_formed_and_computes_speedups() {
        let headline = T5Report {
            backend: "echo".into(),
            n: 4,
            batch: 128,
            window_us: 1000,
            pipeline: 1024,
            duration_ms: 10_000,
            submitted: 3_000_000,
            committed: 3_000_000,
            rejected: 0,
            throughput_tps: 300_000.0,
            latency_p50_us: 2_500,
            latency_p99_us: 8_000,
            converged: true,
            balance_digest: 42,
            dropped_frames: 0,
        };
        let signed = T7AuthRow {
            throughput_tps: 60_000.0,
            sign_mean_us: 13,
            verify_mean_us: 17,
            sign_count: 30_000,
            verify_count: 96_000,
        };
        let json = t7_json(false, &headline, 30_000.0, 104_000, &signed);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T7 hot-path"));
        assert!(json.contains("\"speedup_vs_t5\": 10.00"));
        assert!(json.contains("\"p99_improvement\": 13.00"));
        assert!(json.contains("\"verify_count\": 96000"));
        assert!(json.contains("\"verifies_per_sign\": 3.20"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t6_json_is_well_formed() {
        let rows = vec![
            T6Report {
                backend: "echo".into(),
                transport: "tcp".into(),
                runs: 50,
                distinct_schedules: 50,
                submitted: 12_000,
                committed: 12_000,
                unresolved: 0,
                events: 77_000,
                unknown: 0,
                violations: 0,
                wall_ms: 40_000,
            },
            T6Report {
                backend: "bracha".into(),
                transport: "mesh".into(),
                runs: 1,
                distinct_schedules: 1,
                submitted: 100,
                committed: 100,
                unresolved: 0,
                events: 644,
                unknown: 0,
                violations: 0,
                wall_ms: 200,
            },
        ];
        let json = t6_json(true, 0xC4A0, &rows);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T6 chaos soak"));
        assert!(json.contains("\"backend\": \"echo\""));
        assert!(json.contains("\"transport\": \"mesh\""));
        assert!(json.contains("\"distinct_schedules\": 50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t9_json_is_well_formed() {
        let report = T9Report {
            backend: "echo".into(),
            n: 4,
            accounts: 1_000_000,
            windows: 24,
            transfers_per_window: 200,
            submitted: 4_800,
            committed: 4_800,
            rejected: 0,
            warm_restarts: 24,
            pruned_total: 9_000,
            overflow_dropped: 0,
            instances_peak_early: 120,
            instances_peak_late: 110,
            pending_peak_early: 40,
            pending_peak_late: 35,
            plateau_ok: true,
            snapshot_bytes: 12_000_000,
            snapshot_chunks: 12,
            cold_catchup_ms: 850,
            cold_applied: 30,
            converged: true,
            nemesis_runs: 10,
            nemesis_violations: 0,
            validators_green: true,
        };
        let json = t9_json(&report, false);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T9 million-account scale soak"));
        assert!(json.contains("\"accounts\": 1000000"));
        assert!(json.contains("\"plateau_ok\": true"));
        assert!(json.contains("\"validators_green\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn bracha_run_completes_all_transfers() {
        let result = eval_consensusless_bracha(&small());
        assert_eq!(result.completed, 8);
        assert!(result.throughput_tps > 0.0);
        assert!(result.latency_p50_us > 0);
        assert!(result.latency_p99_us >= result.latency_p50_us);
    }

    #[test]
    fn echo_run_completes_all_transfers() {
        let result = eval_consensusless_echo(&small());
        assert_eq!(result.completed, 8);
        // Echo (linear) uses fewer messages than Bracha (quadratic).
        let bracha = eval_consensusless_bracha(&small());
        assert!(result.messages < bracha.messages);
    }

    #[test]
    fn baseline_run_completes_all_transfers() {
        let result = eval_baseline(&small());
        assert_eq!(result.completed, 8);
    }

    #[test]
    fn kshared_run_completes() {
        let result = eval_kshared(&small(), 2);
        assert_eq!(result.completed, 4);
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = eval_consensusless_echo(&small());
        let r2 = eval_consensusless_echo(&small());
        assert_eq!(r1.duration, r2.duration);
        assert_eq!(r1.messages, r2.messages);
    }

    #[test]
    fn t3_sharded_batched_beats_or_matches_unsharded_at_16() {
        // The acceptance bar of the engine subsystem: at n ≥ 16 the
        // sharded+batched engine's throughput is at least the unsharded
        // consensusless engine's (batching amortizes the O(n²) broadcast).
        let scenario = t3_scenario(16, 2, 4, 21);
        let reports = eval_t3(&scenario);
        assert_eq!(reports.len(), 3);
        let unsharded = &reports[0];
        let sharded = &reports[1];
        assert_eq!(unsharded.engine, "consensusless");
        assert_eq!(sharded.engine, "consensusless-s4b8");
        assert_eq!(unsharded.completed, sharded.completed);
        assert!(unsharded.completed > 0);
        assert!(
            sharded.throughput_tps >= unsharded.throughput_tps,
            "sharded+batched {} tps < unsharded {} tps",
            sharded.throughput_tps,
            unsharded.throughput_tps
        );
        assert!(sharded.messages_sent < unsharded.messages_sent);
        for report in &reports {
            assert!(report.agreed && report.supply_ok);
            assert_eq!(report.conflicts, 0);
        }
    }

    #[test]
    fn t3_runs_are_deterministic() {
        let scenario = t3_scenario(8, 2, 2, 9);
        assert_eq!(eval_t3(&scenario), eval_t3(&scenario));
    }

    #[test]
    fn t4_signed_echo_halves_brachas_message_count_at_16() {
        // The acceptance bar of the backend ablation: at n ≥ 16 the
        // signed-echo backend spends at most half of Bracha's messages
        // per transfer (O(n) sender cost vs O(n²)).
        let scenario = t4_scenario(16, 2, 1, 21);
        let reports = eval_t4(&scenario, 0, false);
        assert_eq!(reports.len(), 3);
        let bracha = &reports[0];
        let echo = &reports[1];
        let account = &reports[2];
        assert_eq!(bracha.engine, "consensusless");
        assert_eq!(echo.engine, "consensusless-echo");
        assert_eq!(account.engine, "consensusless-acctorder");
        for report in &reports {
            assert_eq!(report.completed, 32, "{}", report.engine);
            assert!(report.agreed, "{}", report.engine);
            assert_eq!(report.conflicts, 0, "{}", report.engine);
        }
        assert!(
            messages_per_transfer(echo) * 2.0 <= messages_per_transfer(bracha),
            "echo {:.1} vs bracha {:.1} msgs/transfer",
            messages_per_transfer(echo),
            messages_per_transfer(bracha)
        );
        assert!(
            messages_per_transfer(account) * 2.0 <= messages_per_transfer(bracha),
            "account-order {:.1} vs bracha {:.1} msgs/transfer",
            messages_per_transfer(account),
            messages_per_transfer(bracha)
        );
    }

    #[test]
    fn t4_sig_cost_slows_only_the_signed_backends() {
        let scenario = t4_scenario(8, 2, 1, 5);
        let free = eval_t4(&scenario, 0, false);
        let costly = eval_t4(&scenario, 200, false);
        // Bracha is signature-free: identical duration either way.
        assert_eq!(free[0].duration_us, costly[0].duration_us);
        // The signed backends pay the modelled CPU in virtual time.
        assert!(costly[1].latency_p50_us > free[1].latency_p50_us);
        assert!(costly[2].latency_p50_us > free[2].latency_p50_us);
    }

    #[test]
    fn t4_json_is_well_formed() {
        let scenario = t4_scenario(4, 1, 1, 3);
        let reports = eval_t4(&scenario, 0, false);
        let json = t4_json(3, 0, &[(4, reports)]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T4 broadcast-backend ablation\""));
        assert!(json.contains("\"engine\": \"consensusless-echo\""));
        assert!(json.contains("\"messages_per_transfer\""));
        // Balanced braces (cheap structural sanity without a parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn formatting_produces_markdown() {
        let result = eval_consensusless_echo(&small());
        let row = format_row("echo", &result);
        assert!(row.starts_with("| echo | 4 |"));
        assert!(table_header().contains("| system |"));
    }
}
