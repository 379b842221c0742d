//! The chaos gate: real clusters under real nemesis schedules, every
//! recorded run validated by at-engine's validator battery — the one the
//! schedule explorer applies.
//!
//! * two hand-picked smoke runs (a seeded schedule and a crash/restart),
//!   and the PBFT baseline on a quiet cluster;
//! * the **soak** — per production backend, seeded schedules on
//!   loopback TCP, 54 distinct schedules in all;
//!   `cargo test --release -- --ignored` runs it at full size;
//! * the **pinned table** — every counterexample a soak ever found,
//!   replayed at the shape that found it. A failing run prints
//!   [`ChaosReport::counterexample`], whose `pinned row:` line is the
//!   entry to paste into [`PINNED`];
//! * with `--features broken`, the proof the gate can fail: a backend
//!   that violates per-source FIFO must be caught.

use at_chaos::{
    format_nemesis_schedule, generate_schedule, run_seeded, run_with_schedule, ChaosConfig,
    ChaosReport, NemesisChoice, CLUSTER_SIZE,
};
use at_engine::BroadcastBackend;
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

/// Seeded schedules per backend: tier-1, and `--ignored`.
const SMOKE_TCP_RUNS: usize = 18;
const FULL_TCP_RUNS: usize = 51;

/// `(backend, seed base)`. Disjoint ranges, so every backend faces
/// different fault scripts and the distinct-schedule count reflects
/// real coverage.
const SOAK: [(BroadcastBackend, u64); 3] = [
    (BroadcastBackend::signed_echo(), 0xC4A0),
    (BroadcastBackend::Bracha, 0xC4A0 + 20_000),
    (BroadcastBackend::account_order(), 0xC4A0 + 40_000),
];

/// The seeds of one backend's soak.
fn soak_seeds(tcp_runs: usize, seed_base: u64) -> impl Iterator<Item = u64> {
    (0..tcp_runs as u64).map(move |i| seed_base + i)
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

/// One backend's soak: `tcp_runs` seeded schedules, every run clean
/// and every schedule distinct.
fn soak(config: &ChaosConfig, tcp_runs: usize, (backend, seed_base): (BroadcastBackend, u64)) {
    let mut distinct = BTreeSet::new();
    for seed in soak_seeds(tcp_runs, seed_base) {
        let report = run_seeded(config, backend, seed);
        assert_clean(&report, config);
        distinct.insert(report.schedule);
    }
    assert_eq!(
        distinct.len(),
        tcp_runs,
        "{}: repeated schedules",
        backend.label()
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
        .map(|seed| generate_schedule(seed, CLUSTER_SIZE, config.disruptions))
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

/// Counterexamples past soaks found, as `(backend label, seed, quota,
/// disruptions)` — each replayed at the shape that found it, so a fixed
/// bug stays fixed. Paste the `pinned row:` line of a failing run's
/// output here.
const PINNED: &[(&str, u64, usize, usize)] = &[
    // A stopping node's TCP readers kept acking frames no incarnation
    // would ever process; acked frames leave the peer's replay window,
    // so one swallowed echo batch wedged 12 transfers for good. Fixed
    // by `Transport::quiesce` (stop acking before the final sweep).
    ("echo", 50363, 60, 5),
];

#[test]
fn pinned_counterexamples_stay_fixed() {
    for &(label, seed, quota, disruptions) in PINNED {
        let config = ChaosConfig {
            quota,
            disruptions,
            ..ChaosConfig::default()
        };
        let backend = BroadcastBackend::ALL
            .into_iter()
            .find(|backend| backend.label() == label)
            .expect("a pinned row names a backend by its label");
        assert_clean(&run_seeded(&config, backend, seed), &config);
    }
}

/// A failing certification panics with everything `assert_clean` was
/// given: the row to pin, each violation, and the per-node forensics
/// indented under their headings.
#[test]
#[should_panic(expected = "pinned row: (\"bracha\", 9, 25, 3),\n  \
                           Divergence: digests differ\n\
                           metrics:\n  node 0\n  counter a 1\n\
                           undelivered trace:\n  trace 0x7 origin n2 events 1\n")]
fn a_violation_fails_with_the_whole_counterexample() {
    let config = smoke_config();
    let backend = BroadcastBackend::Bracha;
    let mut report = run_with_schedule(&config, backend, 9, &[]);
    assert_clean(&report, &config);
    report.violations.push(at_engine::Failure {
        kind: at_engine::FailureKind::Divergence,
        detail: "digests differ".into(),
    });
    report.metrics = vec!["node 0\ncounter a 1\n".into()];
    report.traces = vec!["trace 0x7 origin n2 events 1".into()];
    assert_clean(&report, &config);
}

#[test]
fn tcp_cluster_survives_a_seeded_nemesis_schedule() {
    let config = quick_config();
    let report = run_seeded(&config, BroadcastBackend::signed_echo(), 7);
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
    assert!(text.contains("pinned row: (\"echo\", 7, 30, 3),"), "{text}");
    assert_eq!(text.matches("\nmetrics:\n").count(), CLUSTER_SIZE, "{text}");
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
    let backend = BroadcastBackend::account_order();
    let report = run_with_schedule(&config, backend, 5, &schedule);
    assert!(
        report.violations.is_empty(),
        "schedule {}: {:?}",
        format_nemesis_schedule(&report.schedule),
        report.violations
    );
    assert!(report.converged, "restarted node must catch up");
    assert_eq!(report.dropped_frames, 0);
}

/// The PBFT baseline on a live TCP cluster, held to the same validators
/// as the secure broadcasts. The schedule is quiet: PBFT has no view
/// change, so a crashed or cut-off leader would stall it by design.
#[test]
fn pbft_on_a_quiet_tcp_cluster_certifies_clean() {
    let config = quick_config();
    let report = run_with_schedule(&config, BroadcastBackend::Pbft, 13, &[]);
    assert_clean(&report, &config);
    assert_eq!(report.backend, "pbft");
    assert!(report.converged);
    assert_eq!(report.submitted, (CLUSTER_SIZE * config.quota) as u64);
    assert_eq!(report.submitted, report.committed + report.rejected);
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
    use at_engine::FailureKind;

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
    let schedule = generate_schedule(seed, CLUSTER_SIZE, config.disruptions);
    let report = run_chaos(&config, "echo", seed, &schedule, |me| {
        FifoBreaker::new(EchoBroadcast::new(me, CLUSTER_SIZE, NoAuth))
    });
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
        text.contains("pinned row: (\"echo\", 11, 30, 3),"),
        "{text}"
    );
}
