//! Integration tests of the `at-engine` scenario subsystem: Byzantine
//! double-spend rejection through the scenario DSL, fault-schedule
//! behaviour, and cross-engine agreement on the standard suite.

use at_broadcast::bracha::BrachaBroadcast;
use at_engine::{
    Adversary, AuthMode, BroadcastBackend, ConsensuslessEngine, Engine, EngineActor, EngineConfig,
    EngineEvent, Fault, NetProfile, Scenario, Workload,
};
use at_model::{AccountId, Amount, ProcessId, Transfer};
use at_net::{NetConfig, Simulation, VirtualTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

/// The satellite requirement: an equivocating sender scenario, built with
/// the DSL, in which no correct replica applies both conflicting
/// transfers — on the unsharded and the sharded+batched engine alike.
#[test]
fn equivocating_sender_cannot_double_spend() {
    let scenario = Scenario::new("double-spend", 8)
        .waves(4)
        .seed(33)
        .adversary(p(0), Adversary::Equivocate);

    for config in [EngineConfig::unsharded(), EngineConfig::standard()] {
        let report = ConsensuslessEngine::new(config).run(&scenario);
        // No (source, seq) pair resolved to two different transfers at
        // two correct replicas — the double spend never lands.
        assert_eq!(report.conflicts, 0, "{config:?}");
        assert!(report.agreed, "{config:?}: correct replicas diverged");
        assert!(report.supply_ok, "{config:?}: supply violated");
        // The seven correct processes make full progress regardless.
        assert_eq!(report.completed, 7 * scenario.waves, "{config:?}");
    }
}

/// The same attack, inspected replica-by-replica: every correct replica
/// ends with an *empty* applied set for the equivocator (neither half of
/// the split broadcast can gather an echo quorum), and whatever any
/// replica applies per (source, seq) is unique across the system.
#[test]
fn equivocation_applied_sets_are_conflict_free() {
    let n = 8;
    let initial = Amount::new(100);
    let scenario = Scenario::new("inspect", n)
        .seed(5)
        .adversary(p(0), Adversary::Equivocate);

    let actors: Vec<EngineActor> = (0..n as u32)
        .map(|i| match scenario.adversary_of(p(i)) {
            Some(Adversary::Equivocate) => EngineActor::equivocator(
                p(i),
                n,
                initial,
                EngineConfig::unsharded(),
                BrachaBroadcast::new(p(i), n),
            ),
            _ => EngineActor::honest(
                p(i),
                n,
                initial,
                EngineConfig::unsharded(),
                BrachaBroadcast::new(p(i), n),
            ),
        })
        .collect();
    let mut sim = Simulation::new(actors, scenario.net.config(scenario.seed));
    for wave in 0..3 {
        sim.schedule(sim.now(), p(0), move |actor, ctx| actor.attack(wave, ctx));
        assert!(sim.run_until_quiet(10_000_000));
    }

    let mut union: BTreeSet<Transfer> = BTreeSet::new();
    for i in 1..n as u32 {
        let replica = sim.actor(p(i)).as_honest().expect("correct");
        let applied = replica.applied_from(p(0));
        assert!(
            applied.is_empty(),
            "replica {i} applied {} equivocated transfers",
            applied.len()
        );
        union.extend(applied.values().copied());
        // Funds never moved.
        let total: Amount = (0..n as u32).map(|j| replica.balance(a(j))).sum();
        assert_eq!(total, Amount::new(100 * n as u64));
    }
    assert!(union.is_empty());
}

/// An overspender is delivered everywhere but validates nowhere.
#[test]
fn overspender_scenario_rejected_by_every_replica() {
    let scenario = Scenario::new("overspend", 6)
        .waves(3)
        .seed(8)
        .adversary(p(2), Adversary::Overspend);
    let report = ConsensuslessEngine::new(EngineConfig::standard()).run(&scenario);
    assert_eq!(report.conflicts, 0);
    assert!(report.agreed && report.supply_ok);
    assert_eq!(report.completed, 5 * scenario.waves);
}

/// The satellite requirement — replayability: running any standard-suite
/// scenario twice with the same seed yields *identical* `SuiteReport`s
/// (every field, and the rendered table byte for byte), on every backend
/// and on the PBFT baseline. This is the property the schedule explorer
/// depends on: hidden nondeterminism (HashMap iteration order, ambient
/// randomness) would surface here as a diff before it could corrupt a
/// replayed counterexample.
#[test]
fn standard_suite_reruns_are_byte_identical() {
    use at_engine::{format_reports, run_suite, BaselineEngine};
    for backend in [
        BroadcastBackend::Bracha,
        BroadcastBackend::signed_echo(),
        BroadcastBackend::account_order(),
    ] {
        let engine = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend));
        let first = run_suite(&engine, 19);
        let second = run_suite(&engine, 19);
        assert_eq!(
            first, second,
            "{backend:?}: suite reports differ across reruns"
        );
        assert_eq!(
            format_reports(&first),
            format_reports(&second),
            "{backend:?}: rendered suite tables differ across reruns"
        );
    }
    let baseline = BaselineEngine::default();
    assert_eq!(run_suite(&baseline, 19), run_suite(&baseline, 19));
}

/// Link faults from the DSL reach the simulator: dropped messages are
/// counted, and a delayed link stretches the run.
#[test]
fn link_faults_shape_the_run() {
    let benign = Scenario::new("benign", 5)
        .waves(2)
        .seed(4)
        .net(NetProfile::Instant);
    let lossy = benign
        .clone()
        .fault(Fault::DropLink {
            from: p(0),
            to: p(1),
            count: 2,
        })
        .fault(Fault::DelayLink {
            from: p(1),
            to: p(2),
            extra_micros: 40_000,
        })
        // Composes with the DropLink on the same directed link: the
        // first two messages drop, the survivors are delayed.
        .fault(Fault::DelayLink {
            from: p(0),
            to: p(1),
            extra_micros: 40_000,
        });

    let engine = ConsensuslessEngine::new(EngineConfig::unsharded());
    let clean = engine.run(&benign);
    let faulted = engine.run(&lossy);
    assert_eq!(clean.messages_dropped, 0);
    assert_eq!(faulted.messages_dropped, 2);
    assert!(faulted.duration_us > clean.duration_us);
    // Bracha masks two dropped messages: everyone still completes.
    assert_eq!(faulted.completed, clean.completed);
    assert!(faulted.agreed && faulted.supply_ok);
}

/// Partitions model the paper's reliable channels: cross-group messages
/// are parked, not lost, and re-injected at heal time — so the isolated
/// process catches up and every replica converges, with zero drops.
#[test]
fn partitioned_minority_catches_up_after_heal() {
    let scenario = Scenario::new("partition", 7)
        .waves(4)
        .seed(10)
        .fault(Fault::Partition {
            groups: vec![vec![p(6)], (0..6).map(p).collect()],
            from_wave: 1,
            heal_wave: 3,
        });
    for backend in [BroadcastBackend::Bracha, BroadcastBackend::signed_echo()] {
        let report = ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(backend))
            .run(&scenario);
        assert_eq!(report.messages_dropped, 0, "{backend:?}");
        assert_eq!(report.conflicts, 0, "{backend:?}");
        assert!(report.supply_ok, "{backend:?}");
        // Everyone — including p6, whose in-window submissions stall until
        // the heal releases the parked traffic — completes every transfer
        // and converges.
        assert_eq!(report.completed, 7 * scenario.waves, "{backend:?}");
        assert!(report.agreed, "{backend:?}: diverged after heal");
    }
}

/// Benign scenarios complete identically across both engines (same
/// workload coins, same closed-loop count), and reports are reproducible.
#[test]
fn engines_agree_on_benign_workload_counts() {
    let scenario = Scenario::new("hotspot", 6)
        .waves(3)
        .seed(19)
        .workload(Workload::HotSpot {
            hot: a(1),
            percent_hot: 50,
        });
    let consensusless = ConsensuslessEngine::new(EngineConfig::standard()).run(&scenario);
    let baseline = at_engine::BaselineEngine::new(8).run(&scenario);
    assert_eq!(consensusless.completed, 6 * scenario.waves);
    assert_eq!(baseline.completed, 6 * scenario.waves);
    assert!(consensusless.agreed && baseline.agreed);
    assert_eq!(
        ConsensuslessEngine::new(EngineConfig::standard()).run(&scenario),
        consensusless
    );
}

/// Batch windows interact correctly with wave boundaries: a window wider
/// than a wave still flushes everything by quiescence.
#[test]
fn wide_batch_window_still_drains() {
    let scenario = Scenario::new("wide-window", 4)
        .waves(2)
        .transfers_per_wave(3)
        .seed(2);
    let config = EngineConfig::sharded_batched(2, 64, VirtualTime::from_millis(5));
    let report = ConsensuslessEngine::new(config).run(&scenario);
    assert_eq!(report.completed, 4 * 2 * 3);
    assert!(report.agreed && report.supply_ok);
}

/// Smoke check used by the event plumbing: completion events carry the
/// original transfer.
#[test]
fn completion_events_carry_transfers() {
    let n = 3;
    let actors: Vec<EngineActor> = (0..n as u32)
        .map(|i| {
            EngineActor::honest(
                p(i),
                n,
                Amount::new(50),
                EngineConfig::unsharded(),
                BrachaBroadcast::new(p(i), n),
            )
        })
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::lan(1));
    sim.schedule(VirtualTime::ZERO, p(0), |actor, ctx| {
        actor.submit(a(2), Amount::new(7), ctx);
    });
    assert!(sim.run_until_quiet(1_000_000));
    let completed: Vec<Transfer> = sim
        .take_events()
        .into_iter()
        .filter_map(|(_, _, e)| match e {
            EngineEvent::Completed { transfer } => Some(transfer),
            _ => None,
        })
        .collect();
    assert_eq!(completed.len(), 1);
    assert_eq!(completed[0].amount, Amount::new(7));
    assert_eq!(completed[0].destination, a(2));
}

/// The closed-loop workload of the count gates below: every process
/// submits `transfers_per_wave` transfers per wave from deep pockets.
fn closed_loop(n: usize, waves: usize, transfers_per_wave: usize) -> Scenario {
    Scenario::new(format!("closed-loop-n{n}"), n)
        .waves(waves)
        .transfers_per_wave(transfers_per_wave)
        .seed(21)
        .initial(Amount::new(1_000_000))
}

/// The backend-ablation gate. Unsharded and unbatched with certificate
/// forwarding off (all senders honest), so the per-transfer message
/// count is each protocol's own cost: at n = 16 the signed backends
/// spend at most half of Bracha's messages per transfer (`O(n)` sender
/// cost against `O(n²)`), with every backend completing the whole
/// closed loop in agreement.
#[test]
fn signed_backends_halve_brachas_messages_per_transfer_at_16() {
    let scenario = closed_loop(16, 2, 1);
    let [bracha, echo, account] = [
        BroadcastBackend::Bracha,
        BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
            forward_final: false,
        },
        BroadcastBackend::AccountOrder {
            auth: AuthMode::None,
            forward_final: false,
        },
    ]
    .map(|backend| {
        ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(backend)).run(&scenario)
    });
    for report in [&bracha, &echo, &account] {
        assert_eq!(report.completed, 32, "{}: stalled backend", report.engine);
        assert!(report.agreed && report.supply_ok, "{}", report.engine);
        assert_eq!(report.conflicts, 0, "{}", report.engine);
        assert_eq!(
            report.balance_digest, bracha.balance_digest,
            "{}",
            report.engine
        );
    }
    // Equal completions, so messages per transfer compare as messages.
    for signed in [&echo, &account] {
        assert!(
            signed.messages_sent * 2 <= bracha.messages_sent,
            "{} sent {} messages vs bracha's {}",
            signed.engine,
            signed.messages_sent,
            bracha.messages_sent
        );
    }
}

/// Real Ed25519 changes the CPU a message costs, never the messages:
/// signed echo under `EdAuth` sends exactly what it sends under
/// `NoAuth`, in the same virtual time, to the same balances.
#[test]
fn ed25519_echo_matches_noauth_echo_message_for_message() {
    let scenario = closed_loop(4, 2, 2);
    let [modelled, real] = [AuthMode::None, AuthMode::Ed25519].map(|auth| {
        let backend = BroadcastBackend::SignedEcho {
            auth,
            forward_final: false,
        };
        ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(backend)).run(&scenario)
    });
    assert_eq!(real.completed, 4 * 2 * 2);
    assert!(real.agreed && real.supply_ok);
    assert_eq!(real.conflicts, 0);
    assert_eq!(real.messages_sent, modelled.messages_sent);
    assert_eq!(real.duration_us, modelled.duration_us);
    assert_eq!(real.balance_digest, modelled.balance_digest);
}

/// The sharding-and-batching gate: at n = 16 with four clients per
/// process, the sharded+batched engine's throughput is at least the
/// unsharded engine's on strictly fewer messages (batching amortizes
/// the `O(n²)` broadcast), and the PBFT baseline completes the same
/// closed loop.
#[test]
fn sharded_batched_beats_or_matches_unsharded_at_16() {
    let scenario = closed_loop(16, 2, 4);
    let unsharded = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
    let sharded = ConsensuslessEngine::new(EngineConfig::sharded_batched(
        4,
        8,
        VirtualTime::from_micros(500),
    ))
    .run(&scenario);
    let baseline = at_engine::BaselineEngine::new(8).run(&scenario);
    for report in [&unsharded, &sharded, &baseline] {
        assert_eq!(report.completed, 16 * 2 * 4, "{}", report.engine);
        assert!(report.agreed && report.supply_ok, "{}", report.engine);
        assert_eq!(report.conflicts, 0, "{}", report.engine);
    }
    assert!(
        sharded.throughput_tps >= unsharded.throughput_tps,
        "sharded+batched {} tps < unsharded {} tps",
        sharded.throughput_tps,
        unsharded.throughput_tps
    );
    assert!(sharded.messages_sent < unsharded.messages_sent);
}

/// The paper's line-up — unsharded, sharded+batched, PBFT baseline —
/// reruns to identical reports on a multi-client closed loop: what
/// `examples/engine_scenarios` prints does not depend on the run.
#[test]
fn engine_lineup_reruns_are_identical() {
    let scenario = closed_loop(8, 2, 2);
    let lineup: [Box<dyn Engine>; 3] = [
        Box::new(ConsensuslessEngine::new(EngineConfig::unsharded())),
        Box::new(ConsensuslessEngine::new(EngineConfig::standard())),
        Box::new(at_engine::BaselineEngine::new(8)),
    ];
    for engine in &lineup {
        assert_eq!(engine.run(&scenario), engine.run(&scenario));
    }
}

/// The four broadcast backends the engine supports, over the standard
/// sharded+batched configuration.
fn backend_lineup() -> [BroadcastBackend; 4] {
    [
        BroadcastBackend::Bracha,
        BroadcastBackend::signed_echo(),
        BroadcastBackend::account_order(),
        BroadcastBackend::Pbft,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite requirement — backend equivalence: for the same
    /// seeded scenario (benign uniform and equivocating alike), all four
    /// backends deliver the same completions and the same final balances,
    /// with zero conflicts and full agreement. The one difference: under
    /// the equivocator PBFT is held to safety only, because a total order
    /// delivers one side of a split where a secure broadcast delivers
    /// neither — the attacker's one transfer lands, the same everywhere.
    #[test]
    fn backends_are_equivalent_on_seeded_scenarios(
        n in 4usize..7,
        waves in 1usize..3,
        seed in 0u64..1_000,
        equivocate in 0u32..2,
    ) {
        let mut scenario = Scenario::new("equiv", n).waves(waves).seed(seed);
        if equivocate == 1 {
            scenario = scenario.adversary(p(0), Adversary::Equivocate);
        }
        let mut reference: Option<at_engine::ScenarioReport> = None;
        for backend in backend_lineup() {
            let report = ConsensuslessEngine::new(
                EngineConfig::standard().with_backend(backend),
            )
            .run(&scenario);
            prop_assert_eq!(report.conflicts, 0, "{:?}", backend);
            prop_assert!(report.agreed, "{:?} diverged", backend);
            prop_assert!(report.supply_ok, "{:?} supply", backend);
            if backend == BroadcastBackend::Pbft && equivocate == 1 {
                continue;
            }
            if let Some(reference) = &reference {
                prop_assert_eq!(
                    report.completed, reference.completed,
                    "{:?} vs bracha completions", backend
                );
                prop_assert_eq!(
                    report.balance_digest, reference.balance_digest,
                    "{:?} vs bracha balances", backend
                );
            } else {
                reference = Some(report);
            }
        }
    }
}
