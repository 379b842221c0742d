//! The standard scenario suite: the battery of deterministic workloads
//! and attacks that every engine is expected to survive.
//!
//! Ten scenarios — six benign (workload and network shapes) and four
//! adversarial (equivocation, overspending, a silent process, a lossy
//! partition window). Tests assert safety invariants over the suite
//! ([`run_suite`] reports) and determinism (same seed ⇒ identical
//! reports).

use crate::driver::Engine;
use crate::scenario::{Adversary, Fault, NetProfile, Scenario, ScenarioReport, Workload};
use at_model::{AccountId, ProcessId};

/// The standard suite (see the module docs). All scenarios use the same
/// `seed` so cross-engine comparisons share workload coins.
pub fn standard_suite(seed: u64) -> Vec<Scenario> {
    let p = ProcessId::new;
    let a = AccountId::new;
    vec![
        // --- benign ------------------------------------------------------
        Scenario::new("uniform-8", 8).seed(seed),
        Scenario::new("uniform-16", 16).seed(seed),
        Scenario::new("hotspot-70", 12)
            .seed(seed)
            .workload(Workload::HotSpot {
                hot: a(0),
                percent_hot: 70,
            }),
        Scenario::new("many-to-one", 12)
            .seed(seed)
            .workload(Workload::ManyToOne { sink: a(3) }),
        Scenario::new("mixed-sink", 10)
            .seed(seed)
            .workload(Workload::Mixed {
                sink: a(2),
                percent_sink: 40,
            }),
        Scenario::new("wan-uniform", 8)
            .seed(seed)
            .net(NetProfile::Wan),
        // --- adversarial -------------------------------------------------
        Scenario::new("equivocator", 8)
            .seed(seed)
            .adversary(p(0), Adversary::Equivocate),
        Scenario::new("overspender", 8)
            .seed(seed)
            .adversary(p(1), Adversary::Overspend),
        Scenario::new("silent-process", 8)
            .seed(seed)
            .adversary(p(2), Adversary::Silent),
        Scenario::new("lossy-partition", 9)
            .seed(seed)
            .waves(6)
            .fault(Fault::Partition {
                groups: vec![vec![p(8)], (0..8).map(p).collect()],
                from_wave: 2,
                heal_wave: 4,
            })
            .fault(Fault::DropLink {
                from: p(0),
                to: p(1),
                count: 3,
            }),
    ]
}

/// Runs every scenario of [`standard_suite`] on `engine`.
pub fn run_suite(engine: &dyn Engine, seed: u64) -> Vec<ScenarioReport> {
    standard_suite(seed)
        .iter()
        .map(|scenario| engine.run(scenario))
        .collect()
}

/// Renders suite reports as one markdown table.
pub fn format_reports(reports: &[ScenarioReport]) -> String {
    let mut out = ScenarioReport::table_header();
    for report in reports {
        out.push('\n');
        out.push_str(&report.table_row());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BroadcastBackend, EngineConfig};
    use crate::driver::ConsensuslessEngine;

    #[test]
    fn suite_has_the_required_shape() {
        let suite = standard_suite(7);
        assert!(suite.len() >= 8, "suite too small: {}", suite.len());
        let adversarial = suite.iter().filter(|s| s.is_adversarial()).count();
        assert!(adversarial >= 3, "too few adversarial: {adversarial}");
        // Names are unique (they key the report tables).
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn suite_upholds_safety_on_every_backend() {
        // All ten scenarios — including the healed partition, whose
        // parked messages are re-injected under the reliable-channel
        // model — must agree with zero conflicts on every backend. On
        // PBFT this is safety only in `lossy-partition`: its dropped
        // PRE-PREPARE is never retransmitted, p1 executes nothing from
        // there on (48 of 54 completions), and `agreed` holds because
        // the uniform rotation returns every balance to where it began.
        for backend in BroadcastBackend::ALL {
            let engine = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend));
            let reports = run_suite(&engine, 11);
            for report in &reports {
                assert_eq!(
                    report.conflicts, 0,
                    "{}: double spend on {}",
                    report.scenario, report.engine
                );
                assert!(
                    report.supply_ok,
                    "{}: supply violated on {}",
                    report.scenario, report.engine
                );
                assert!(
                    report.agreed,
                    "{}: diverged on {}",
                    report.scenario, report.engine
                );
                assert!(
                    report.completed > 0,
                    "{}: no progress on {}",
                    report.scenario,
                    report.engine
                );
            }
            let table = format_reports(&reports);
            assert!(table.contains("| equivocator |"));
            assert!(table.lines().count() == reports.len() + 2);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let engine = ConsensuslessEngine::new(EngineConfig::standard());
        assert_eq!(run_suite(&engine, 3), run_suite(&engine, 3));
    }
}
