//! Satellite: the secure-broadcast backends' documented delivery
//! contract — per-source FIFO, gapless, exactly-once — holds for Bracha,
//! signed echo, account-order and the PBFT baseline under randomized
//! drop, delay, and partition faults.
//!
//! The contract is observed at the engine layer through
//! [`at_engine::EngineEvent::BackendDelivery`] events and checked with
//! [`at_engine::probe::check_fifo_contract`]: at every replica, each
//! source's delivered sequence numbers must read exactly `1, 2, 3, …`.
//! Lossy links may *shorten* a stream (an instance that never completes
//! everywhere), but nothing may ever be delivered out of order, twice,
//! or past a gap.

use at_broadcast::secure::SecureBroadcast;
use at_engine::probe::{check_fifo_contract, TimedEvent};
use at_engine::{BackendVisitor, BroadcastBackend, EngineConfig, EnginePayload, Replica};
use at_model::{AccountId, Amount, Decode, Encode, ProcessId};
use at_net::{LinkFault, NetConfig, Simulation, VirtualTime};
use proptest::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

/// One randomized fault plan: injected link faults plus an optional
/// partition window isolating the highest-id process.
#[derive(Clone, Debug)]
struct FaultPlan {
    seed: u64,
    /// `(from, to, drop_count, extra_delay_us)` per faulty link.
    links: Vec<(u32, u32, u64, u64)>,
    /// Whether a partition isolates `p(n-1)` during the second wave.
    partition: bool,
    /// Buffered (reliable-channel) or lossy partition.
    buffered: bool,
}

/// Runs two submission waves of an `n`-process system over `backend`
/// under `plan`, returning the engine event stream.
fn run_under_faults(backend: BroadcastBackend, n: usize, plan: &FaultPlan) -> Vec<TimedEvent> {
    backend.build(n, plan.seed, UnderFaults { n, plan })
}

/// [`run_under_faults`], waiting for its backend.
struct UnderFaults<'a> {
    n: usize,
    plan: &'a FaultPlan,
}

impl BackendVisitor for UnderFaults<'_> {
    type Output = Vec<TimedEvent>;

    fn visit<B, F>(self, make: F) -> Vec<TimedEvent>
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        B::Msg: Encode + Decode + Send + 'static,
        F: Fn(ProcessId) -> B,
    {
        let UnderFaults { n, plan } = self;
        let replicas: Vec<Replica<B>> = (0..n as u32)
            .map(|i| {
                Replica::with_backend(
                    p(i),
                    n,
                    Amount::new(100),
                    EngineConfig::unbatched(),
                    make(p(i)),
                )
            })
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(plan.seed));
        for &(from, to, drops, delay_us) in &plan.links {
            if from != to {
                sim.inject_link_fault(
                    p(from),
                    p(to),
                    LinkFault {
                        drop_next: drops,
                        extra_delay: VirtualTime::from_micros(delay_us),
                    },
                );
            }
        }

        // Wave 1: everyone pays their neighbour.
        let n_u32 = n as u32;
        for i in 0..n_u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % n_u32), Amount::new(1), ctx);
            });
        }
        sim.run_until_quiet(10_000_000);

        // Wave 2, optionally under a partition that isolates the last
        // process.
        if plan.partition {
            let isolated = [p(n as u32 - 1)];
            let rest: Vec<ProcessId> = (0..n as u32 - 1).map(p).collect();
            if plan.buffered {
                sim.set_partition_buffered(&[&isolated, &rest]);
            } else {
                sim.set_partition(&[&isolated, &rest]);
            }
        }
        let now = sim.now();
        for i in 0..n_u32 {
            sim.schedule(now, p(i), move |replica, ctx| {
                replica.submit(a((i + 2) % n_u32), Amount::new(1), ctx);
            });
        }
        sim.run_until_quiet(10_000_000);
        // Reliable channels resume; a buffered partition releases its parked
        // messages through the (still installed) link faults.
        sim.heal_partition();
        assert!(sim.run_until_quiet(10_000_000), "run did not quiesce");
        sim.take_events()
    }
}

fn assert_contract(events: &[TimedEvent], label: &str, plan: &FaultPlan) {
    if let Err(violation) = check_fifo_contract(events, |_| true) {
        panic!(
            "{label} broke the delivery contract under {plan:?}: {}",
            violation.detail
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The satellite requirement: random fault plans never produce an
    /// out-of-order, duplicated, or gapped delivery on any backend.
    #[test]
    fn fifo_exactly_once_holds_under_random_faults(
        seed in 0u64..100_000,
        from1 in 0u32..4,
        to1 in 0u32..4,
        drops1 in 0u64..5,
        delay1_us in 0u64..3_000,
        from2 in 0u32..4,
        to2 in 0u32..4,
        drops2 in 0u64..5,
        partition in 0u32..2,
        buffered in 0u32..2,
    ) {
        let n = 4;
        let plan = FaultPlan {
            seed,
            links: vec![
                (from1, to1, drops1, delay1_us),
                (from2, to2, drops2, 0),
            ],
            partition: partition == 1,
            buffered: buffered == 1,
        };
        // PBFT may stop delivering under loss (nothing retransmits a
        // dropped pre-prepare); what it does deliver obeys the contract.
        for backend in BroadcastBackend::ALL {
            let events = run_under_faults(backend, n, &plan);
            assert_contract(&events, backend.label(), &plan);
        }
    }
}

/// A fault-free run delivers *everything* FIFO-exactly-once — the
/// contract check is not vacuous on a healthy system.
#[test]
fn clean_run_delivers_every_instance_in_order() {
    let n = 4;
    let plan = FaultPlan {
        seed: 7,
        links: vec![],
        partition: false,
        buffered: false,
    };
    for backend in BroadcastBackend::ALL {
        let label = backend.label();
        let events = run_under_faults(backend, n, &plan);
        assert_contract(&events, label, &plan);
        let deliveries = events
            .iter()
            .filter(|(_, _, e)| matches!(e, at_engine::EngineEvent::BackendDelivery { .. }))
            .count();
        // 8 instances (2 per process), delivered at all 4 replicas.
        assert_eq!(deliveries, 32, "{label}: missing deliveries");
    }
}

/// A buffered partition with a mid-window equivocation attempt: after
/// the heal, every backend still converges with zero conflicts — parked
/// messages are delayed, never lost, and the certificate state formed
/// during the partition stays consistent.
#[test]
fn healing_mid_equivocation_converges_on_every_backend() {
    use at_engine::{Adversary, Fault, Scenario};
    let scenario = Scenario::new("heal-mid-equivocation", 8)
        .waves(5)
        .seed(29)
        .adversary(ProcessId::new(0), Adversary::Equivocate)
        .fault(Fault::Partition {
            groups: vec![
                vec![ProcessId::new(6), ProcessId::new(7)],
                (0..6).map(ProcessId::new).collect(),
            ],
            from_wave: 1,
            heal_wave: 3,
        });
    for backend in BroadcastBackend::ALL {
        let report = EngineConfig::standard()
            .with_backend(backend)
            .run(&scenario);
        assert_eq!(report.conflicts, 0, "{backend:?}: double spend landed");
        assert!(report.agreed, "{backend:?}: replicas diverged after heal");
        assert!(report.supply_ok, "{backend:?}: supply violated");
        assert_eq!(
            report.completed,
            7 * scenario.waves,
            "{backend:?}: correct processes stalled"
        );
        assert_eq!(
            report.messages_dropped, 0,
            "{backend:?}: buffered partition lost messages"
        );
    }
}
