//! The chaos gate: real clusters under real nemesis schedules, every
//! recorded run validated by the shared at-check battery.
//!
//! * three hand-picked smoke runs (one per runner path);
//! * the **soak** — per production backend, seeded schedules on
//!   loopback TCP plus one on the channel mesh, 54 distinct schedules
//!   in all; `cargo test --release -- --ignored` runs it at full size;
//! * the **pinned table** — every counterexample a soak ever found,
//!   replayed at the shape that found it. A failing run prints
//!   [`ChaosReport::counterexample`], whose `pinned row:` line is the
//!   entry to paste into [`PINNED`];
//! * with `--features broken`, the proof the gate can fail: a backend
//!   that violates per-source FIFO must be caught.

use at_chaos::{
    format_nemesis_schedule, generate_schedule, run_seeded, run_with_schedule, ChaosConfig,
    ChaosReport, ChaosTransport, NemesisChoice,
};
use std::collections::BTreeSet;
use std::time::Duration;

fn quick_config() -> ChaosConfig {
    ChaosConfig {
        quota: 30,
        disruptions: 3,
        drain_timeout: Duration::from_secs(20),
        ..ChaosConfig::default()
    }
}

/// The soak's tier-1 shape; the full shape is [`ChaosConfig::default`].
fn smoke_config() -> ChaosConfig {
    ChaosConfig {
        quota: 25,
        disruptions: 3,
        ..ChaosConfig::default()
    }
}

/// Seeded schedules per backend on TCP: tier-1, and `--ignored`.
const SMOKE_TCP_RUNS: usize = 17;
const FULL_TCP_RUNS: usize = 50;

/// `(backend, TCP seed base)`; a backend's mesh run draws from 10 000
/// above its base. Disjoint ranges, so every backend faces different
/// fault scripts and the distinct-schedule count reflects real coverage.
const SOAK: [(&str, u64); 3] = [
    ("echo", 0xC4A0),
    ("bracha", 0xC4A0 + 20_000),
    ("acctorder", 0xC4A0 + 40_000),
];

/// The `(transport, seed)` pairs of one backend's soak.
fn soak_seeds(tcp_runs: usize, seed_base: u64) -> impl Iterator<Item = (ChaosTransport, u64)> {
    (0..tcp_runs as u64)
        .map(move |i| (ChaosTransport::Tcp, seed_base + i))
        .chain([(ChaosTransport::Mesh, seed_base + 10_000)])
}

/// One clean certification: no violation, no budget-exhausted check.
/// Panics with the full counterexample text otherwise.
fn assert_clean(report: &ChaosReport, config: &ChaosConfig) {
    assert!(
        report.violations.is_empty() && !report.unknown,
        "{}",
        report.counterexample(config)
    );
}

/// One backend's soak: `tcp_runs` seeded schedules on TCP plus one on
/// the mesh, every run clean and every schedule distinct.
fn soak(config: &ChaosConfig, tcp_runs: usize, (backend, seed_base): (&str, u64)) {
    let mut distinct = BTreeSet::new();
    for (transport, seed) in soak_seeds(tcp_runs, seed_base) {
        let report = run_seeded(config, backend, transport, seed);
        assert_clean(&report, config);
        distinct.insert(report.schedule);
    }
    assert_eq!(
        distinct.len(),
        tcp_runs + 1,
        "{backend}: repeated schedules"
    );
}

#[test]
fn soak_echo() {
    soak(&smoke_config(), SMOKE_TCP_RUNS, SOAK[0]);
}

#[test]
fn soak_bracha() {
    soak(&smoke_config(), SMOKE_TCP_RUNS, SOAK[1]);
}

#[test]
fn soak_acctorder() {
    soak(&smoke_config(), SMOKE_TCP_RUNS, SOAK[2]);
}

#[test]
#[ignore = "full soak: 51 schedules at quota 60; run with --release -- --ignored"]
fn full_soak_echo() {
    soak(&ChaosConfig::default(), FULL_TCP_RUNS, SOAK[0]);
}

#[test]
#[ignore = "full soak: 51 schedules at quota 60; run with --release -- --ignored"]
fn full_soak_bracha() {
    soak(&ChaosConfig::default(), FULL_TCP_RUNS, SOAK[1]);
}

#[test]
#[ignore = "full soak: 51 schedules at quota 60; run with --release -- --ignored"]
fn full_soak_acctorder() {
    soak(&ChaosConfig::default(), FULL_TCP_RUNS, SOAK[2]);
}

/// Distinct fault scripts across the three soaks at one size
/// (schedules are pure functions of their seeds: no cluster needed).
fn distinct_soak_schedules(config: &ChaosConfig, tcp_runs: usize) -> usize {
    SOAK.iter()
        .flat_map(|&(_, seed_base)| soak_seeds(tcp_runs, seed_base))
        .map(|(transport, seed)| {
            let allow_crash = transport == ChaosTransport::Tcp;
            generate_schedule(seed, config.n, config.disruptions, allow_crash)
        })
        .collect::<BTreeSet<Vec<NemesisChoice>>>()
        .len()
}

#[test]
fn soak_seed_ranges_yield_54_distinct_schedules() {
    assert_eq!(distinct_soak_schedules(&smoke_config(), SMOKE_TCP_RUNS), 54);
}

#[test]
fn full_soak_seed_ranges_yield_153_distinct_schedules() {
    let full = ChaosConfig::default();
    assert_eq!(distinct_soak_schedules(&full, FULL_TCP_RUNS), 153);
}

/// Counterexamples past soaks found, as `(backend, transport, seed,
/// quota, disruptions)` — each replayed at the shape that found it, so
/// a fixed bug stays fixed. Paste the `pinned row:` line of a failing
/// run's output here.
const PINNED: &[(&str, ChaosTransport, u64, usize, usize)] = &[
    // A stopping node's TCP readers kept acking frames no incarnation
    // would ever process; acked frames leave the peer's replay window,
    // so one swallowed echo batch wedged 12 transfers for good. Fixed
    // by `Transport::quiesce` (stop acking before the final sweep).
    ("echo", ChaosTransport::Tcp, 50363, 60, 5),
];

#[test]
fn pinned_counterexamples_stay_fixed() {
    for &(backend, transport, seed, quota, disruptions) in PINNED {
        let config = ChaosConfig {
            quota,
            disruptions,
            ..ChaosConfig::default()
        };
        assert_clean(&run_seeded(&config, backend, transport, seed), &config);
    }
}

/// A failing certification panics with everything `assert_clean` was
/// given: the row to pin, each violation, and the per-node forensics
/// indented under their headings.
#[test]
#[should_panic(
    expected = "pinned row: (\"bracha\", ChaosTransport::Mesh, 9, 25, 3),\n  \
                           Divergence: digests differ\n\
                           metrics:\n  node 0\n  counter a 1\n\
                           undelivered trace:\n  trace 0x7 origin n2 events 1\n"
)]
fn a_violation_fails_with_the_whole_counterexample() {
    let config = smoke_config();
    let mut report = run_with_schedule(&config, "bracha", ChaosTransport::Mesh, 9, &[]);
    assert_clean(&report, &config);
    report.violations.push(at_check::Failure {
        kind: at_check::FailureKind::Divergence,
        detail: "digests differ".into(),
    });
    report.metrics = vec!["node 0\ncounter a 1\n".into()];
    report.traces = vec!["trace 0x7 origin n2 events 1".into()];
    assert_clean(&report, &config);
}

#[test]
fn tcp_cluster_survives_a_seeded_nemesis_schedule() {
    let config = quick_config();
    let report = run_seeded(&config, "echo", ChaosTransport::Tcp, 7);
    assert!(
        report.violations.is_empty(),
        "schedule {}: {:?}",
        format_nemesis_schedule(&report.schedule),
        report.violations
    );
    assert!(report.converged);
    assert_eq!(report.dropped_frames, 0);
    assert!(report.submitted > 0);
    assert!(report.committed > 0);
    assert!(!report.unknown);
    // The probe actually recorded the run (submissions, deliveries, and
    // the final pinning reads).
    assert!(report.events_recorded as u64 > report.committed);
    // What a failure would have printed: the schedule, the row to pin,
    // and every node's final metrics.
    let text = report.counterexample(&config);
    assert!(
        text.contains(&format!(
            "schedule: {}",
            format_nemesis_schedule(&report.schedule)
        )),
        "{text}"
    );
    assert!(
        text.contains("pinned row: (\"echo\", ChaosTransport::Tcp, 7, 30, 3),"),
        "{text}"
    );
    assert_eq!(text.matches("\nmetrics:\n").count(), config.n, "{text}");
}

#[test]
fn mesh_cluster_survives_a_seeded_nemesis_schedule() {
    let config = quick_config();
    let report = run_seeded(&config, "bracha", ChaosTransport::Mesh, 3);
    assert!(
        report.violations.is_empty(),
        "schedule {}: {:?}",
        format_nemesis_schedule(&report.schedule),
        report.violations
    );
    assert!(report.converged);
    assert_eq!(report.dropped_frames, 0);
    // No crash on the mesh, so every acknowledgement must resolve.
    assert_eq!(report.unresolved, 0);
    assert_eq!(report.submitted, report.committed + report.rejected);
}

#[test]
fn tcp_crash_restart_schedule_recovers_and_validates() {
    let config = quick_config();
    // A hand-built schedule that definitely crashes a node mid-traffic.
    let schedule = vec![
        NemesisChoice::Run { ms: 30 },
        NemesisChoice::Heal,
        NemesisChoice::CrashRestart {
            node: 2,
            down_ms: 40,
        },
        NemesisChoice::Run { ms: 40 },
        NemesisChoice::Heal,
        NemesisChoice::Run { ms: 50 },
    ];
    let report = run_with_schedule(&config, "acctorder", ChaosTransport::Tcp, 5, &schedule);
    assert!(
        report.violations.is_empty(),
        "schedule {}: {:?}",
        format_nemesis_schedule(&report.schedule),
        report.violations
    );
    assert!(report.converged, "restarted node must catch up");
    assert_eq!(report.dropped_frames, 0);
}

/// The proof the chaos gate can fail: signed echo behind at-check's
/// `FifoBreaker` (every source's first two deliveries swapped at every
/// replica) must be caught as a broadcast-contract violation, and the
/// counterexample text must carry what a fix needs — the schedule and
/// the row to pin.
#[cfg(feature = "broken")]
#[test]
fn fifo_breaking_backend_is_caught_with_a_pasteable_counterexample() {
    use at_broadcast::auth::NoAuth;
    use at_broadcast::echo::EchoBroadcast;
    use at_chaos::run_chaos;
    use at_check::broken::FifoBreaker;
    use at_check::FailureKind;

    // Batches smaller than the client pipeline: every source broadcasts
    // twice up front, so its withheld first delivery is released (out
    // of order) instead of starving the closed loop before any swap.
    // The engine never applies the overtaking batch, so the drain can
    // only time out: keep that wait short.
    let config = ChaosConfig {
        batch: 8,
        drain_timeout: Duration::from_secs(2),
        ..quick_config()
    };
    let seed = 11;
    let schedule = generate_schedule(seed, config.n, config.disruptions, false);
    let report = run_chaos(
        &config,
        "echo",
        ChaosTransport::Mesh,
        seed,
        &schedule,
        |me| FifoBreaker::new(EchoBroadcast::new(me, config.n, NoAuth)),
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == FailureKind::Contract),
        "the FIFO mutation escaped: {:?}",
        report.violations
    );
    let text = report.counterexample(&config);
    assert!(text.contains("Contract"), "{text}");
    assert!(
        text.contains(&format!("schedule: {}", format_nemesis_schedule(&schedule))),
        "{text}"
    );
    assert!(
        text.contains("pinned row: (\"echo\", ChaosTransport::Mesh, 11, 30, 3),"),
        "{text}"
    );
}
