//! Integration tests of the `at-check` schedule explorer: the standard
//! check scenarios survive exploration on every production backend
//! across at least 500 distinct interleavings, and exploration itself
//! is deterministic. (The seeded-mutation catch is feature-gated —
//! `cargo test -p at-check --features broken` — so the deliberately
//! broken hooks stay out of default workspace builds.)

use at_check::{explore, standard_check_scenarios, ExploreBudget};
use at_engine::BroadcastBackend;

/// The model-checking gate: every standard scenario × every production
/// backend under `budget` — zero violations, zero budget-exhausted
/// linearizability checks, and at least 500 distinct delivery
/// interleavings in total. A violation panics with its replayable
/// counterexample (scenario, backend, schedule, evidence).
fn exploration_gate(budget: &ExploreBudget) {
    let mut distinct = 0;
    for scenario in &standard_check_scenarios() {
        for backend in BroadcastBackend::ALL {
            let report = explore(scenario, backend, budget);
            if let Some(counterexample) = report.violations.first() {
                panic!(
                    "{} of {} distinct schedules violate the specification; first:\n{counterexample}",
                    report.violations.len(),
                    report.distinct_schedules
                );
            }
            assert_eq!(report.unknown, 0, "{}/{}", scenario.name, backend.label());
            distinct += report.distinct_schedules;
        }
    }
    assert!(
        distinct >= 500,
        "only {distinct} distinct schedules — the gate requires at least 500"
    );
}

#[test]
fn smoke_budget_explores_500_interleavings_without_a_violation() {
    exploration_gate(&ExploreBudget::smoke());
}

/// The full-size run of the same gate (`cargo test --release -- --ignored`).
#[test]
#[ignore = "full exploration budget; run with --release -- --ignored"]
fn full_budget_explores_without_a_violation() {
    exploration_gate(&ExploreBudget {
        random_schedules: 120,
        random_seed: 0xA7,
        dfs_depth: 4,
        dfs_schedules: 64,
        max_steps: 50_000,
        check_nodes: 500_000,
    });
}

/// Every standard scenario × every production backend: many distinct
/// interleavings, zero violations, zero budget-exhausted checks.
#[test]
fn standard_scenarios_survive_exploration_on_every_backend() {
    let budget = ExploreBudget::quick();
    for scenario in &standard_check_scenarios() {
        for backend in BroadcastBackend::ALL {
            let report = explore(scenario, backend, &budget);
            assert!(
                report.violations.is_empty(),
                "{} on {}:\n{}",
                scenario.name,
                backend.label(),
                report.violations[0]
            );
            assert_eq!(report.unknown, 0, "{}/{}", scenario.name, backend.label());
            assert!(
                report.distinct_schedules >= 4,
                "{}/{}: only {} distinct schedules",
                scenario.name,
                backend.label(),
                report.distinct_schedules
            );
        }
    }
}

/// Exploring the same scenario twice under the same budget yields the
/// same schedules and the same verdicts — counterexamples replay.
#[test]
fn exploration_is_deterministic() {
    let scenario = &standard_check_scenarios()[0];
    let budget = ExploreBudget::quick();
    let first = explore(scenario, BroadcastBackend::Bracha, &budget);
    let second = explore(scenario, BroadcastBackend::Bracha, &budget);
    assert_eq!(first.executions, second.executions);
    assert_eq!(first.distinct_schedules, second.distinct_schedules);
    assert_eq!(first.violations.len(), second.violations.len());
}
