//! The engine-specific model-checking harness: scenarios, invariant
//! probes, and the top-level [`explore`] entry point.
//!
//! A [`CheckScenario`] is a *small, closed* system description — a few
//! processes, a handful of client transfers, optionally one Byzantine
//! process or one crash/restart victim. All client commands are scheduled
//! at virtual time zero, so the explorer (not wall-clock accidents)
//! decides how operations, protocol messages, and attacks interleave.
//!
//! After every explored schedule the harness drains the simulation to
//! quiescence, injects one sequential read of every account at a correct
//! replica, reduces the run to a [`RecordedRun`] and applies
//! [`validate_recorded`] — at-engine's one validator battery, which the
//! chaos runner applies to live clusters and whose conflict, digest and
//! supply checks fill the scenario driver's reports: linearizability of
//! the reconstructed history (negative admission responses are justified
//! by the replica's *local* prefix, Figure 4 line 2, and checked apart —
//! the explorer reaches executions proving the distinction), per-source
//! FIFO-exactly-once delivery, no conflicting `(source, seq)`, digest
//! agreement and supply conservation. The agreement set leaves out a
//! crash/restart victim, which may have missed in-flight messages for
//! good. Any violation is reported as a [`Counterexample`] carrying the
//! scenario, backend label, failure detail, and the replayable
//! [`Schedule`].

use crate::explorer::{dfs_schedules, format_schedule, random_schedule, CrashPlan, Schedule};
use at_broadcast::secure::SecureBroadcast;
use at_engine::probe::{validate_recorded, Failure, FailureKind, RecordedRun};
use at_engine::{
    Adversary, BackendVisitor, BroadcastBackend, EngineActor, EngineConfig, EnginePayload,
};
use at_model::{AccountId, Amount, Decode, Encode, ProcessId};
use at_net::{NetConfig, Simulation, VirtualTime};
use std::collections::BTreeSet;
use std::fmt;

/// A small closed system for the explorer to model-check.
#[derive(Clone, Debug)]
pub struct CheckScenario {
    /// Scenario name (report key).
    pub name: String,
    /// System size (keep small: the schedule space is explored).
    pub n: usize,
    /// Initial balance of every account.
    pub initial: u64,
    /// Client transfers `(submitting process, destination account,
    /// amount)`, all scheduled at time zero.
    pub transfers: Vec<(u32, u32, u64)>,
    /// At most one Byzantine process (it launches two attacks).
    pub adversary: Option<(u32, Adversary)>,
    /// A process the random walk crashes and later restarts at
    /// rng-chosen points.
    pub crash_restart: Option<u32>,
}

impl CheckScenario {
    /// A benign scenario over `n` processes.
    pub fn new(
        name: impl Into<String>,
        n: usize,
        initial: u64,
        transfers: Vec<(u32, u32, u64)>,
    ) -> Self {
        assert!(n >= 2, "need at least two processes");
        CheckScenario {
            name: name.into(),
            n,
            initial,
            transfers,
            adversary: None,
            crash_restart: None,
        }
    }

    /// Assigns a Byzantine behaviour to `process`.
    pub fn with_adversary(mut self, process: u32, adversary: Adversary) -> Self {
        assert!((process as usize) < self.n, "adversary out of range");
        self.adversary = Some((process, adversary));
        self
    }

    /// Marks `process` as the crash/restart victim of random walks.
    pub fn with_crash_restart(mut self, process: u32) -> Self {
        assert!((process as usize) < self.n, "crash victim out of range");
        self.crash_restart = Some(process);
        self
    }

    /// The adversary role of `process`, if any.
    pub fn role_of(&self, process: ProcessId) -> Option<Adversary> {
        let (byzantine, role) = self.adversary?;
        (byzantine == process.index()).then_some(role)
    }

    /// Whether `process` follows the protocol (crash/restart victims
    /// do — they are faulty, not Byzantine).
    pub fn is_correct(&self, process: ProcessId) -> bool {
        self.role_of(process).is_none()
    }

    /// Whether `process` participates in the convergence (digest)
    /// comparison: correct and never crashed — a restarted process may
    /// have permanently missed messages (the channel model has no
    /// retransmission), so its divergence is expected, not a bug.
    pub fn in_agreement_set(&self, process: ProcessId) -> bool {
        self.is_correct(process) && self.crash_restart != Some(process.index())
    }
}

/// The scenarios the standard exploration battery runs — the explorer
/// counterpart of `at_engine::standard_suite`.
pub fn standard_check_scenarios() -> Vec<CheckScenario> {
    vec![
        // Independent and re-converging transfers across every account.
        CheckScenario::new(
            "concurrent-transfers",
            3,
            10,
            vec![(0, 1, 3), (1, 2, 4), (2, 0, 5), (0, 2, 6)],
        ),
        // p1's transfer is only funded once p0's credit lands: depending
        // on the schedule it is admitted or rejected — both must
        // linearize.
        CheckScenario::new(
            "causal-chain",
            3,
            10,
            vec![(0, 1, 10), (1, 2, 15), (2, 0, 2)],
        ),
        // A double-spending equivocator among three correct processes.
        CheckScenario::new("equivocator", 4, 20, vec![(1, 2, 5), (2, 3, 5), (3, 1, 5)])
            .with_adversary(0, Adversary::Equivocate),
        // An overspender: delivered everywhere, must validate nowhere.
        CheckScenario::new("overspender", 4, 10, vec![(0, 1, 2), (1, 2, 3), (2, 0, 4)])
            .with_adversary(3, Adversary::Overspend),
        // One process crashes mid-protocol and restarts with its state.
        CheckScenario::new(
            "crash-restart",
            4,
            10,
            vec![(0, 1, 3), (1, 0, 2), (3, 0, 1), (2, 3, 1)],
        )
        .with_crash_restart(2),
    ]
}

/// How much schedule space one [`explore`] call covers.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBudget {
    /// Seeded random-walk schedules to run.
    pub random_schedules: usize,
    /// Base seed of the random walks (walk `i` uses `random_seed + i`).
    pub random_seed: u64,
    /// Scheduling decisions the bounded DFS enumerates exhaustively.
    pub dfs_depth: usize,
    /// Cap on DFS-visited schedules.
    pub dfs_schedules: usize,
    /// Cap on explorer-chosen steps per execution (the remainder runs in
    /// default order).
    pub max_steps: usize,
    /// Node budget of each linearizability check.
    pub check_nodes: usize,
}

impl ExploreBudget {
    /// The CI smoke budget: enough schedules that 5 scenarios × 4
    /// backends clear 500 distinct interleavings comfortably.
    pub fn smoke() -> Self {
        ExploreBudget {
            random_schedules: 40,
            random_seed: 0xA7,
            dfs_depth: 3,
            dfs_schedules: 24,
            max_steps: 20_000,
            check_nodes: 200_000,
        }
    }

    /// A tiny budget for unit and doc tests.
    pub fn quick() -> Self {
        ExploreBudget {
            random_schedules: 6,
            random_seed: 1,
            dfs_depth: 2,
            dfs_schedules: 6,
            max_steps: 20_000,
            check_nodes: 200_000,
        }
    }
}

/// A replayable counterexample: everything needed to reproduce one
/// violating execution.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Scenario name.
    pub scenario: String,
    /// Backend label.
    pub backend: &'static str,
    /// The violating schedule (replay with
    /// [`crate::explorer::replay`] on the same scenario + backend).
    pub schedule: Schedule,
    /// What broke, with evidence.
    pub failure: Failure,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample: {:?} in scenario `{}` on backend `{}`",
            self.failure.kind, self.scenario, self.backend
        )?;
        writeln!(f, "schedule: {}", format_schedule(&self.schedule))?;
        write!(f, "{}", self.failure.detail)
    }
}

/// The outcome of exploring one `(scenario, backend)` pair.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend label.
    pub backend: &'static str,
    /// Executions run (including re-drawn duplicate schedules).
    pub executions: usize,
    /// Distinct schedules among them.
    pub distinct_schedules: usize,
    /// Executions whose linearizability check exhausted its node budget
    /// (neither pass nor violation; should be zero).
    pub unknown: usize,
    /// Invariant violations found.
    pub violations: Vec<Counterexample>,
}

/// Explores `scenario` on `backend` under `budget` (see the
/// [module docs](self) for the invariants checked per execution).
pub fn explore(
    scenario: &CheckScenario,
    backend: BroadcastBackend,
    budget: &ExploreBudget,
) -> ExplorationReport {
    struct Exploration<'a>(&'a CheckScenario, &'static str, &'a ExploreBudget);
    impl BackendVisitor for Exploration<'_> {
        type Output = ExplorationReport;
        fn visit<B, F>(self, make: F) -> ExplorationReport
        where
            B: SecureBroadcast<EnginePayload> + 'static,
            B::Msg: Encode + Decode + Send + 'static,
            F: Fn(ProcessId) -> B,
        {
            explore_with(self.0, self.1, self.2, make)
        }
    }
    let exploration = Exploration(scenario, backend.label(), budget);
    backend.build(scenario.n, budget.random_seed, exploration)
}

/// Builds the scenario's simulation over backend endpoints from `make`.
/// Every client command sits at time zero; the explorer owns the order.
fn build_sim<B, F>(scenario: &CheckScenario, make: &F) -> Simulation<EngineActor<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId) -> B,
{
    let n = scenario.n;
    let initial = Amount::new(scenario.initial);
    let config = EngineConfig::unsharded();
    let actors: Vec<EngineActor<B>> = ProcessId::all(n)
        .map(|p| EngineActor::new(scenario.role_of(p), p, n, initial, config, make(p)))
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::instant(0));
    for &(from, to, amount) in &scenario.transfers {
        sim.schedule(
            VirtualTime::ZERO,
            ProcessId::new(from),
            move |actor, ctx| {
                actor.submit(AccountId::new(to), Amount::new(amount), ctx);
            },
        );
    }
    if let Some((process, _)) = scenario.adversary {
        for wave in 0..2usize {
            sim.schedule(
                VirtualTime::ZERO,
                ProcessId::new(process),
                move |actor, ctx| {
                    actor.attack(wave, ctx);
                },
            );
        }
    }
    sim
}

/// Drains the execution, injects the final reads, reduces the simulation
/// to a [`RecordedRun`], and applies [`validate_recorded`]. Returns
/// `(failure, unknown)`.
fn evaluate<B: SecureBroadcast<EnginePayload>>(
    scenario: &CheckScenario,
    mut sim: Simulation<EngineActor<B>>,
    check_nodes: usize,
) -> (Option<Failure>, bool) {
    let n = scenario.n;
    // A crash victim still down when the explored prefix ends would sit
    // on its pending entries forever; restart it so the drain completes
    // (random walks restart explicitly mid-schedule, this is the
    // safety net for walks whose restart step was past the end).
    if let Some(process) = scenario.crash_restart {
        sim.restart(ProcessId::new(process));
    }
    if !sim.run_until_quiet(2_000_000) {
        return (
            Some(Failure {
                kind: FailureKind::Incomplete,
                detail: format!(
                    "{} entries still pending after the drain cap",
                    sim.queue_len()
                ),
            }),
            false,
        );
    }

    // One sequential read of every account at the lowest-id replica of
    // the agreement set: pins the final state to the transfer history.
    let observer = ProcessId::all(n)
        .find(|p| scenario.in_agreement_set(*p))
        .expect("at least one correct, never-crashed process");
    for account in 0..n as u32 {
        sim.schedule(sim.now(), observer, move |actor, ctx| {
            actor.read_op(AccountId::new(account), ctx);
        });
    }
    assert!(sim.run_until_quiet(100_000), "reads must not enqueue work");
    let events = sim.take_events();

    // Reduce the finished simulation to the battery's runtime-agnostic
    // artifacts: events, final digests and supplies.
    let honest: Vec<(ProcessId, &at_engine::ShardedReplica<B>)> = ProcessId::all(n)
        .filter(|p| scenario.is_correct(*p))
        .map(|p| (p, sim.actor(p).as_honest().expect("correct actor")))
        .collect();
    let run = RecordedRun {
        n,
        initial: scenario.initial,
        events,
        digests: honest
            .iter()
            .filter(|(p, _)| scenario.in_agreement_set(*p))
            .map(|(p, replica)| (*p, replica.digest()))
            .collect(),
        supplies: honest
            .iter()
            .map(|(p, replica)| (*p, replica.ledger().total_supply().units()))
            .collect(),
    };
    validate_recorded(&run, |p| scenario.is_correct(p), check_nodes)
}

/// The generic exploration loop over the endpoints `make` builds: random
/// walks, then the bounded DFS. `backend` labels the report and its
/// counterexamples. [`explore`] runs it over a [`BroadcastBackend`]; the
/// seeded mutations (`broken` feature) call it directly.
pub(crate) fn explore_with<B, F>(
    scenario: &CheckScenario,
    backend: &'static str,
    budget: &ExploreBudget,
    make: F,
) -> ExplorationReport
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId) -> B,
{
    let build = || build_sim(scenario, &make);
    let mut distinct: BTreeSet<Schedule> = BTreeSet::new();
    let mut report = ExplorationReport {
        scenario: scenario.name.clone(),
        backend,
        executions: 0,
        distinct_schedules: 0,
        unknown: 0,
        violations: Vec::new(),
    };

    let mut consider =
        |schedule: &Schedule, sim: Simulation<EngineActor<B>>, report: &mut ExplorationReport| {
            report.executions += 1;
            if !distinct.insert(schedule.clone()) {
                return; // an identical execution was already checked
            }
            let (failure, unknown) = evaluate(scenario, sim, budget.check_nodes);
            if unknown {
                report.unknown += 1;
            }
            if let Some(failure) = failure {
                report.violations.push(Counterexample {
                    scenario: scenario.name.clone(),
                    backend,
                    schedule: schedule.clone(),
                    failure,
                });
            }
        };

    for i in 0..budget.random_schedules {
        let crash_plan: Option<CrashPlan> = scenario.crash_restart.map(|process| {
            let crash_step = 2 + i % 9;
            (process, crash_step, crash_step + 2 + i % 7)
        });
        let (schedule, sim) = random_schedule(
            &build,
            budget.random_seed + i as u64,
            budget.max_steps,
            crash_plan,
        );
        consider(&schedule, sim, &mut report);
    }
    dfs_schedules(
        &build,
        budget.dfs_depth,
        budget.dfs_schedules,
        &mut |prefix, sim| {
            consider(&prefix.to_vec(), sim, &mut report);
        },
    );

    report.distinct_schedules = distinct.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenarios_have_the_required_shape() {
        let scenarios = standard_check_scenarios();
        assert!(scenarios.len() >= 3);
        let adversarial = scenarios.iter().filter(|s| s.adversary.is_some()).count();
        assert!(adversarial >= 2);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
        for scenario in &scenarios {
            assert!(
                scenario.n <= 4,
                "{}: keep explored systems small",
                scenario.name
            );
        }
    }

    #[test]
    fn clean_backends_survive_a_quick_exploration() {
        let budget = ExploreBudget::quick();
        for scenario in &standard_check_scenarios()[..2] {
            for backend in BroadcastBackend::ALL {
                let report = explore(scenario, backend, &budget);
                assert!(
                    report.violations.is_empty(),
                    "{} on {}: {}",
                    scenario.name,
                    backend.label(),
                    report.violations[0]
                );
                assert_eq!(report.unknown, 0);
                assert!(
                    report.distinct_schedules >= 4,
                    "{}",
                    report.distinct_schedules
                );
                assert!(report.executions >= report.distinct_schedules);
            }
        }
    }

    #[test]
    fn equivocator_scenario_is_safe_on_real_backends() {
        let scenario = &standard_check_scenarios()[2];
        assert_eq!(scenario.name, "equivocator");
        let budget = ExploreBudget::quick();
        for backend in BroadcastBackend::ALL {
            let report = explore(scenario, backend, &budget);
            assert!(
                report.violations.is_empty(),
                "{}: {}",
                backend.label(),
                report.violations[0]
            );
        }
    }

    #[test]
    fn crash_restart_scenario_is_safe() {
        let scenario = standard_check_scenarios()
            .into_iter()
            .find(|s| s.crash_restart.is_some())
            .expect("crash scenario");
        let report = explore(&scenario, BroadcastBackend::Bracha, &ExploreBudget::quick());
        assert!(report.violations.is_empty(), "{}", report.violations[0]);
        // Crash choices actually entered the schedules.
        assert!(report.executions > 0);
    }

    #[test]
    fn validate_recorded_flags_synthetic_violations() {
        use at_engine::replica::EngineEvent;
        use at_model::{SeqNo, Transfer};
        let p = ProcessId::new;
        let a = AccountId::new;
        let clean = RecordedRun {
            n: 3,
            initial: 10,
            events: vec![],
            digests: vec![(p(0), 7), (p(1), 7), (p(2), 7)],
            supplies: vec![(p(0), 30), (p(1), 30), (p(2), 30)],
        };
        let (failure, unknown) = validate_recorded(&clean, |_| true, 1000);
        assert!(failure.is_none() && !unknown);

        // Digest divergence.
        let mut diverged = clean.clone();
        diverged.digests[2].1 = 8;
        let (failure, _) = validate_recorded(&diverged, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Divergence);

        // Supply loss.
        let mut leaky = clean.clone();
        leaky.supplies[1].1 = 29;
        let (failure, _) = validate_recorded(&leaky, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Supply);

        // Conflicting applications of one (source, seq) — straight from
        // the Applied event streams, no replica internals involved.
        let mut conflicted = clean.clone();
        let t1 = Transfer::new(a(0), a(1), Amount::new(5), p(0), SeqNo::new(1));
        let t2 = Transfer::new(a(0), a(2), Amount::new(5), p(0), SeqNo::new(1));
        conflicted.events = vec![
            (
                VirtualTime::ZERO,
                p(1),
                EngineEvent::Applied { transfer: t1 },
            ),
            (
                VirtualTime::ZERO,
                p(2),
                EngineEvent::Applied { transfer: t2 },
            ),
        ];
        let (failure, _) = validate_recorded(&conflicted, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Conflict);
        // The same stream at a Byzantine observer is exempt.
        let (failure, _) = validate_recorded(&conflicted, |q| q == p(1), 1000);
        assert!(failure.is_none());
    }

    #[test]
    fn counterexamples_render_replayably() {
        let example = Counterexample {
            scenario: "demo".into(),
            backend: "bracha",
            schedule: vec![crate::explorer::Choice::Execute(7)],
            failure: Failure {
                kind: FailureKind::Divergence,
                detail: "digests differ".into(),
            },
        };
        let text = example.to_string();
        assert!(text.contains("Divergence"));
        assert!(text.contains("[7]"));
        assert!(text.contains("digests differ"));
    }
}
