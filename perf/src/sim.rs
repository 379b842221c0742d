//! `sim16_backends`: the three broadcast backends on the deterministic
//! simulator — one thread, no sockets, at-node bypassed.
//!
//! Wall time here is at-broadcast stepping + at-engine apply + the
//! simulator's queue; every count (messages, virtual latency, digest)
//! is a pure function of the seed, which the run checks by repeating
//! the same pass until the time is up.

use crate::procfs;
use crate::spec::{self, Metrics};
use crate::stats;
use crate::Outcome;
use at_engine::{
    BroadcastBackend, ConsensuslessEngine, Engine, EngineConfig, Scenario, ScenarioReport,
};
use at_model::Amount;
use at_net::VirtualTime;
use std::time::{Duration, Instant};

/// One-wave warm-up passes run for this long before the window opens —
/// the simulator leg's counterpart of the live workloads' fixed warm-up
/// at their own rate.
const WARMUP: Duration = Duration::from_secs(2);

fn backends() -> [(&'static str, BroadcastBackend); 3] {
    [
        ("bracha", BroadcastBackend::Bracha),
        ("echo", BroadcastBackend::signed_echo()),
        ("acctorder", BroadcastBackend::account_order()),
    ]
}

fn engine(backend: BroadcastBackend) -> ConsensuslessEngine {
    ConsensuslessEngine::new(
        EngineConfig::sharded_batched(spec::SHARDS, 16, VirtualTime::from_micros(500))
            .with_backend(backend),
    )
}

fn scenario(seed: u64, waves: usize) -> Scenario {
    Scenario::new("perf-sim16", spec::SIM_NODES)
        .waves(waves)
        .transfers_per_wave(spec::SIM_TRANSFERS_PER_WAVE)
        .seed(seed)
        .initial(Amount::new(1_000_000))
}

/// Runs the three backends once; `(report, wall seconds)` each.
fn pass(scenario: &Scenario) -> Vec<(ScenarioReport, f64)> {
    backends()
        .into_iter()
        .map(|(_, backend)| {
            let started = Instant::now();
            let report = engine(backend).run(scenario);
            (report, started.elapsed().as_secs_f64())
        })
        .collect()
}

/// The value a quarter of the way from the better end of `values`.
/// Every pass does identical work on one thread, so whatever else the
/// machine is doing can only slow a pass down: on the builder's VM the
/// passes of one run fell into a fast and a slow gear 30 % apart, and
/// the median jumped with the mix while the better quartile held still
/// (NOISE.md, "Simulator leg").
fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    stats::sort(&mut sorted);
    if sorted.len() < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let (q1, q3) = stats::quartiles(&sorted);
    if higher_is_better {
        q3
    } else {
        q1
    }
}

fn check(report: &ScenarioReport, expected: usize, label: &str, problems: &mut Vec<String>) {
    if !report.agreed {
        problems.push(format!("{label}: replicas disagree"));
    }
    if report.conflicts != 0 {
        problems.push(format!("{label}: {} conflicting applies", report.conflicts));
    }
    if !report.supply_ok {
        problems.push(format!("{label}: total supply not conserved"));
    }
    if report.completed != expected || report.rejected != 0 {
        problems.push(format!(
            "{label}: completed {} of {expected}, {} rejected",
            report.completed, report.rejected
        ));
    }
    if report.messages_dropped != 0 {
        problems.push(format!(
            "{label}: {} messages dropped",
            report.messages_dropped
        ));
    }
}

pub fn run(seed: u64, window: Duration, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let run_span = outcome.spans.begin("run", None, 0);

    // Set-up: build the scenarios, then one-wave warm-up passes.
    let setup_span = outcome.spans.begin("setup", Some(run_span), 0);
    let full = scenario(seed, spec::SIM_WAVES);
    let short = scenario(seed, 1);
    let warmup_began = Instant::now();
    while warmup_began.elapsed() < WARMUP {
        std::hint::black_box(pass(&short));
    }
    outcome.spans.end(setup_span);
    outcome
        .metrics
        .set("setup_s", started.elapsed().as_secs_f64());

    let per_backend = spec::SIM_NODES * spec::SIM_WAVES * spec::SIM_TRANSFERS_PER_WAVE;
    let measure_began = Instant::now();
    let mut passes: Vec<Vec<(ScenarioReport, f64)>> = Vec::new();
    let mut pass_cpu_ms = Vec::new();
    while passes.is_empty() || measure_began.elapsed() < window {
        let span = outcome
            .spans
            .begin("pass", Some(run_span), passes.len() as u64);
        let (user0, sys0) = procfs::process_cpu_ms();
        passes.push(pass(&full));
        let (user1, sys1) = procfs::process_cpu_ms();
        pass_cpu_ms.push(user1 - user0 + sys1 - sys0);
        outcome.spans.end(span);
    }

    let first = &passes[0];
    for (i, (label, _)) in backends().iter().enumerate() {
        check(&first[i].0, per_backend, label, &mut outcome.problems);
        // Same seed, same scenario: every repeat must reproduce the
        // first pass bit for bit (digest, message count, latencies).
        if let Some(at) = passes.iter().position(|p| p[i].0 != first[i].0) {
            outcome.problems.push(format!(
                "{label}: pass {at} differs from pass 0 on the same seed"
            ));
        }
    }

    let completed_per_pass: usize = first.iter().map(|(r, _)| r.completed).sum();
    let total_commits = (completed_per_pass * passes.len()) as f64;
    let pass_tps: Vec<f64> = passes
        .iter()
        .map(|p| completed_per_pass as f64 / p.iter().map(|(_, wall)| wall).sum::<f64>())
        .collect();
    let mean_ms = |f: fn(&ScenarioReport) -> u64| {
        first.iter().map(|(r, _)| f(r) as f64 / 1e3).sum::<f64>() / first.len() as f64
    };
    let metrics = &mut outcome.metrics;
    metrics.set("commit_p50_ms", mean_ms(|r| r.latency_p50_us));
    let pass_cpu_per_kcommit: Vec<f64> = pass_cpu_ms
        .iter()
        .map(|ms| ms / (completed_per_pass as f64 / 1e3))
        .collect();
    metrics.set("committed_tps", better_quartile(&pass_tps, true));
    metrics.set(
        "cpu_ms_per_kcommit",
        better_quartile(&pass_cpu_per_kcommit, false),
    );
    set_layer_metrics(&passes, metrics);

    outcome.attempted = total_commits as u64;
    outcome.failed = passes
        .iter()
        .flatten()
        .map(|(r, _)| (per_backend - r.completed.min(per_backend)) as u64)
        .sum();
    outcome.series.extend([
        ("pass_tps", pass_tps),
        ("pass_cpu_ms_per_kcommit", pass_cpu_per_kcommit),
    ]);
    outcome.notes.extend([
        ("passes", passes.len() as f64),
        ("transfers_per_backend_per_pass", per_backend as f64),
        ("window_s", measure_began.elapsed().as_secs_f64()),
    ]);
    for (i, (label, _)) in backends().iter().enumerate() {
        outcome.digests.push((
            label.to_string(),
            first[i].0.balance_digest,
            first[i].0.messages_sent,
        ));
    }
    outcome.spans.end(run_span);
    outcome
}

fn set_layer_metrics(passes: &[Vec<(ScenarioReport, f64)>], metrics: &mut Metrics) {
    for (i, (label, _)) in backends().iter().enumerate() {
        let report = &passes[0][i].0;
        metrics.set(
            &format!("sim.msgs_per_transfer.{label}"),
            report.messages_sent as f64 / report.completed.max(1) as f64,
        );
        metrics.set(
            &format!("sim.virtual_p50_ms.{label}"),
            report.latency_p50_us as f64 / 1e3,
        );
        metrics.set(
            &format!("sim.wall_ms.{label}"),
            stats::median_of(&passes.iter().map(|p| p[i].1 * 1e3).collect::<Vec<_>>()),
        );
    }
}
