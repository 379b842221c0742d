//! The engine driver API: one trait, one run body, one report format.
//!
//! [`Engine::run`] executes a [`Scenario`] and produces a
//! [`ScenarioReport`]; benches, examples, and tests all drive systems
//! through this interface so their numbers are directly comparable.
//!
//! [`ConsensuslessEngine`] is the one implementation: the batched
//! [`crate::replica::ShardedReplica`] runtime over the backend
//! [`BroadcastBackend::build`] makes of its configuration. The consensus
//! baseline is the same engine over [`BroadcastBackend::Pbft`], so it
//! differs from the system it is compared with in the broadcast and in
//! nothing else; a Byzantine *orderer* is not modelled (the paper treats
//! its consensus baseline as a black box), and a silent *leader* stalls
//! it entirely — there is no view-change timer — which is the
//! availability contrast the paper draws. A report's `conflicts`,
//! `agreed` and `supply_ok` come from the validator battery in
//! [`crate::probe`].

use crate::adversary::EngineActor;
use crate::config::{BackendVisitor, BroadcastBackend, EngineConfig};
use crate::probe::{check_digests, check_supply, AppliedBySeq, TimedEvent};
use crate::replica::{EngineEvent, EnginePayload};
use crate::scenario::{percentiles, Adversary, Fault, Scenario, ScenarioReport};
use at_broadcast::secure::SecureBroadcast;
use at_model::{Decode, Encode, ProcessId};
use at_net::{LinkFault, Simulation, VirtualTime};
use std::collections::BTreeMap;

/// A payment system that can execute scenarios.
pub trait Engine {
    /// The engine's display name (report key).
    fn name(&self) -> String;

    /// Runs `scenario` to quiescence and reports the outcome.
    fn run(&self, scenario: &Scenario) -> ScenarioReport;
}

/// Installs a scenario's static link faults on a simulation. Multiple
/// faults on the same directed link compose (drops and delay merge into
/// one [`LinkFault`]) rather than overwrite.
fn install_link_faults<A: at_net::Actor>(sim: &mut Simulation<A>, scenario: &Scenario) {
    let mut merged: BTreeMap<(ProcessId, ProcessId), LinkFault> = BTreeMap::new();
    for fault in &scenario.faults {
        let (link, add) = match fault {
            Fault::DropLink { from, to, count } => ((*from, *to), LinkFault::drop(*count)),
            Fault::DelayLink {
                from,
                to,
                extra_micros,
            } => (
                (*from, *to),
                LinkFault::delay(VirtualTime::from_micros(*extra_micros)),
            ),
            Fault::Partition { .. } => continue,
        };
        let entry = merged.entry(link).or_insert(LinkFault {
            drop_next: 0,
            extra_delay: VirtualTime::ZERO,
        });
        entry.drop_next += add.drop_next;
        entry.extra_delay += add.extra_delay;
    }
    for ((from, to), fault) in merged {
        sim.inject_link_fault(from, to, fault);
    }
}

/// Applies partition transitions scheduled for the start of `wave`.
fn apply_partitions<A: at_net::Actor>(sim: &mut Simulation<A>, scenario: &Scenario, wave: usize) {
    for fault in &scenario.faults {
        if let Fault::Partition {
            groups,
            from_wave,
            heal_wave,
        } = fault
        {
            if wave == *from_wave {
                let group_refs: Vec<&[ProcessId]> =
                    groups.iter().map(|group| group.as_slice()).collect();
                // Buffered: the paper assumes reliable authenticated
                // channels, so a partition delays cross-group messages
                // rather than destroying them — they are re-injected at
                // heal time and the protocols converge without their own
                // retransmission. (Injected `DropLink` faults stay lossy.)
                sim.set_partition_buffered(&group_refs);
            } else if wave == *heal_wave {
                sim.heal_partition();
            }
        }
    }
}

/// The run counters, folded from the correct processes' events.
#[derive(Default)]
struct Tally {
    completed: usize,
    rejected: usize,
    applied_total: u64,
    latencies: Vec<u64>,
    applied: AppliedBySeq,
}

impl Tally {
    /// Folds one batch of engine events. `latency_anchor` is the
    /// submitting wave's start; pass `None` for the end-of-run drain,
    /// where the submitting wave is no longer known — those completions
    /// are counted but contribute no latency sample (anchoring them to
    /// the last wave would understate the very delays the
    /// buffered-partition model introduces).
    fn fold(
        &mut self,
        events: Vec<TimedEvent>,
        scenario: &Scenario,
        latency_anchor: Option<VirtualTime>,
    ) {
        for (at, from, event) in events {
            if !scenario.is_correct(from) {
                continue;
            }
            match event {
                EngineEvent::Completed { .. } => {
                    self.completed += 1;
                    if let Some(anchor) = latency_anchor {
                        self.latencies.push(at.saturating_sub(anchor).as_micros());
                    }
                }
                EngineEvent::Rejected { .. } => self.rejected += 1,
                EngineEvent::Applied { transfer } => {
                    self.applied_total += 1;
                    self.applied.record(transfer);
                }
                EngineEvent::BatchBroadcast { .. }
                | EngineEvent::Submitted { .. }
                | EngineEvent::BackendDelivery { .. }
                | EngineEvent::ReadObserved { .. } => {}
            }
        }
    }
}

/// The engine over the backend selected by
/// [`EngineConfig::backend`](crate::config::EngineConfig): no consensus
/// anywhere on the three secure broadcasts, the consensus baseline on
/// [`BroadcastBackend::Pbft`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensuslessEngine {
    /// Backend and batching configuration of every replica.
    pub config: EngineConfig,
}

impl ConsensuslessEngine {
    /// An engine with the given runtime configuration.
    pub fn new(config: EngineConfig) -> Self {
        ConsensuslessEngine { config }
    }
}

impl Engine for ConsensuslessEngine {
    fn name(&self) -> String {
        let base = match self.config.backend {
            BroadcastBackend::Bracha => "consensusless".to_string(),
            BroadcastBackend::Pbft => "pbft".to_string(),
            backend => format!("consensusless-{}", backend.label()),
        };
        if self.config.batch.is_immediate() {
            base
        } else {
            format!("{base}-b{}", self.config.batch.max_size)
        }
    }

    fn run(&self, scenario: &Scenario) -> ScenarioReport {
        let run = ScenarioRun {
            engine: self,
            scenario,
        };
        self.config.backend.build(scenario.n, scenario.seed, run)
    }
}

/// One [`ConsensuslessEngine::run`], waiting for its backend.
struct ScenarioRun<'a> {
    engine: &'a ConsensuslessEngine,
    scenario: &'a Scenario,
}

impl BackendVisitor for ScenarioRun<'_> {
    type Output = ScenarioReport;

    /// The scenario loop over the endpoints `make` builds.
    fn visit<B, F>(self, make: F) -> ScenarioReport
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        B::Msg: Encode + Decode + Send + 'static,
        F: Fn(ProcessId) -> B,
    {
        let ScenarioRun { engine, scenario } = self;
        let n = scenario.n;
        let actors: Vec<EngineActor<B>> = ProcessId::all(n)
            .map(|p| {
                let role = scenario.adversary_of(p);
                EngineActor::new(role, p, n, scenario.initial, engine.config, make(p))
            })
            .collect();
        let mut sim = Simulation::new(actors, scenario.net.config(scenario.seed));
        install_link_faults(&mut sim, scenario);

        let mut tally = Tally::default();
        for wave in 0..scenario.waves {
            apply_partitions(&mut sim, scenario, wave);
            let wave_start = sim.now();
            for i in 0..n {
                let process = ProcessId::new(i as u32);
                match scenario.adversary_of(process) {
                    Some(Adversary::Silent) => {}
                    Some(_) => {
                        sim.schedule(wave_start, process, move |actor, ctx| {
                            actor.attack(wave, ctx);
                        });
                    }
                    None => {
                        for slot in 0..scenario.transfers_per_wave {
                            // Fold the slot into the workload's wave
                            // coordinate so every slot gets its own
                            // deterministic destination.
                            let virtual_wave = wave * scenario.transfers_per_wave + slot;
                            let Some(dest) =
                                scenario
                                    .workload
                                    .destination(scenario.seed, virtual_wave, i, n)
                            else {
                                continue;
                            };
                            let amount = scenario.amount;
                            sim.schedule(wave_start, process, move |actor, ctx| {
                                actor.submit(dest, amount, ctx);
                            });
                        }
                    }
                }
            }
            sim.run_until_quiet(u64::MAX);
            tally.fold(sim.take_events(), scenario, Some(wave_start));
        }

        // Reliable channels hold to the end of the run: a partition whose
        // heal wave lies beyond the last wave still releases its parked
        // traffic before the report is cut — buffered messages are
        // delayed, never lost. (A no-op when everything already healed.)
        sim.heal_partition();
        sim.run_until_quiet(u64::MAX);
        tally.fold(sim.take_events(), scenario, None);
        debug_assert_eq!(sim.parked_count(), 0, "parked messages at end of run");

        // Convergence and conservation over the correct replicas.
        let honest: Vec<_> = scenario
            .correct_processes()
            .map(|p| (p, sim.actor(p).as_honest().expect("correct")))
            .collect();
        let digests: Vec<(ProcessId, u64)> = honest
            .iter()
            .map(|(p, replica)| (*p, replica.digest()))
            .collect();
        let supplies: Vec<(ProcessId, u64)> = honest
            .iter()
            .map(|(p, replica)| (*p, replica.ledger().total_supply().units()))
            .collect();
        let expected_supply = scenario.initial.units() * n as u64;

        let (p50, p99) = percentiles(&mut tally.latencies);
        let duration = sim.now();
        ScenarioReport {
            scenario: scenario.name.clone(),
            engine: engine.name(),
            n,
            correct: honest.len(),
            completed: tally.completed,
            rejected: tally.rejected,
            applied_total: tally.applied_total,
            duration_us: duration.as_micros(),
            throughput_tps: tally.completed as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE),
            latency_p50_us: p50,
            latency_p99_us: p99,
            messages_sent: sim.stats().messages_sent,
            messages_dropped: sim.stats().messages_dropped,
            agreed: check_digests(&digests).is_ok(),
            conflicts: tally.applied.conflicts(),
            supply_ok: check_supply(&supplies, expected_supply).is_ok(),
            balance_digest: digests.first().map_or(0, |(_, digest)| *digest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{NetProfile, Workload};
    use at_model::AccountId;

    fn uniform(name: &str, n: usize) -> Scenario {
        Scenario::new(name, n).waves(2).seed(5)
    }

    /// The consensus baseline as the demos run it.
    fn pbft_baseline() -> ConsensuslessEngine {
        let config = EngineConfig::sharded_batched(1, 8, VirtualTime::from_millis(2));
        ConsensuslessEngine::new(config.with_backend(BroadcastBackend::Pbft))
    }

    #[test]
    fn consensusless_engine_completes_uniform_waves() {
        let engine = ConsensuslessEngine::new(EngineConfig::unsharded());
        let report = engine.run(&uniform("uniform", 4));
        assert_eq!(report.engine, "consensusless");
        assert_eq!(report.completed, 8);
        assert_eq!(report.rejected, 0);
        assert!(report.agreed);
        assert!(report.supply_ok);
        assert_eq!(report.conflicts, 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn sharded_batched_engine_uses_fewer_messages() {
        // Four transfers per process per wave: batches actually fill.
        let scenario = uniform("uniform", 8).transfers_per_wave(4);
        let plain = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        let tuned = ConsensuslessEngine::new(EngineConfig::sharded_batched(
            4,
            8,
            VirtualTime::from_micros(300),
        ))
        .run(&scenario);
        assert_eq!(plain.completed, tuned.completed);
        assert!(
            tuned.messages_sent < plain.messages_sent,
            "batched {} vs plain {}",
            tuned.messages_sent,
            plain.messages_sent
        );
        assert!(tuned.agreed && tuned.supply_ok);
    }

    #[test]
    fn engine_runs_are_deterministic() {
        let scenario = uniform("det", 5).workload(Workload::HotSpot {
            hot: AccountId::new(0),
            percent_hot: 50,
        });
        let engine = ConsensuslessEngine::new(EngineConfig::standard());
        assert_eq!(engine.run(&scenario), engine.run(&scenario));
    }

    #[test]
    fn baseline_engine_completes_and_agrees() {
        let engine = pbft_baseline();
        let report = engine.run(&uniform("uniform", 4));
        assert_eq!(report.engine, "pbft-b8");
        assert_eq!(report.completed, 8);
        assert!(report.agreed);
        assert!(report.supply_ok);
    }

    #[test]
    fn baseline_with_crashed_leader_stalls_but_reports() {
        let scenario = uniform("leader-crash", 4)
            .adversary(ProcessId::new(0), Adversary::Silent)
            .net(NetProfile::Instant);
        let report = pbft_baseline().run(&scenario);
        // Leader (p0) crashed: nothing commits, but the report is sound.
        assert_eq!(report.completed, 0);
        assert_eq!(report.correct, 3);
        assert!(report.supply_ok);
    }

    #[test]
    fn equivocation_scenario_yields_zero_conflicts_on_every_backend() {
        let scenario = uniform("equivocate", 4).adversary(ProcessId::new(0), Adversary::Equivocate);
        for backend in BroadcastBackend::ALL {
            let report = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend))
                .run(&scenario);
            assert_eq!(report.conflicts, 0, "{backend:?}");
            assert!(report.supply_ok, "{backend:?}");
            assert!(report.agreed, "{backend:?}");
            // The three correct processes still complete their transfers.
            assert_eq!(report.completed, 3 * scenario.waves, "{backend:?}");
        }
    }

    #[test]
    fn unhealed_partition_still_drains_at_end_of_run() {
        // heal_wave beyond the last wave: the end-of-run drain must
        // release the parked traffic anyway — buffered partitions delay
        // messages, never lose them.
        let scenario = uniform("unhealed", 5).fault(Fault::Partition {
            groups: vec![
                vec![ProcessId::new(4)],
                (0..4).map(ProcessId::new).collect(),
            ],
            from_wave: 1,
            heal_wave: 99,
        });
        let report = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        assert_eq!(report.completed, 5 * scenario.waves);
        assert!(report.agreed, "diverged despite end-of-run drain");
        assert_eq!(report.messages_dropped, 0);
        assert!(report.supply_ok);
    }

    #[test]
    fn signed_backends_match_bracha_balances() {
        let scenario = uniform("uniform", 5);
        let reference = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        for backend in [
            BroadcastBackend::signed_echo(),
            BroadcastBackend::account_order(),
        ] {
            let report = ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(backend))
                .run(&scenario);
            assert_eq!(report.completed, reference.completed, "{backend:?}");
            assert_eq!(
                report.balance_digest, reference.balance_digest,
                "{backend:?}: backends disagree on final balances"
            );
            assert!(report.agreed && report.supply_ok, "{backend:?}");
            assert_eq!(report.conflicts, 0, "{backend:?}");
        }
    }

    #[test]
    fn ed25519_backend_round_trips_certificates() {
        // Small on purpose: the vendored Ed25519 is slow in debug builds.
        let scenario = Scenario::new("ed", 3).waves(1).seed(2);
        let engine = ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(
            BroadcastBackend::SignedEcho {
                auth: crate::AuthMode::Ed25519,
            },
        ));
        assert_eq!(engine.name(), "consensusless-echo-ed25519");
        let report = engine.run(&scenario);
        assert_eq!(report.completed, 3);
        assert!(report.agreed && report.supply_ok);
        assert_eq!(report.conflicts, 0);
    }

    #[test]
    fn engine_names_key_the_backend() {
        let tuned = EngineConfig::standard();
        assert_eq!(ConsensuslessEngine::new(tuned).name(), "consensusless-b8");
        assert_eq!(
            ConsensuslessEngine::new(tuned.with_backend(BroadcastBackend::signed_echo())).name(),
            "consensusless-echo-b8"
        );
        assert_eq!(
            ConsensuslessEngine::new(
                EngineConfig::unsharded().with_backend(BroadcastBackend::account_order())
            )
            .name(),
            "consensusless-acctorder"
        );
    }
}
