//! Integration tests for the shared-memory results (experiments F1–F3):
//! the figure algorithms composed together and checked against the
//! sequential specification by the linearizability checker.

use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId};
use at_sharedmem::figure1::SnapshotAssetTransfer;
use at_sharedmem::figure2::TransferConsensus;
use at_sharedmem::figure3::KSharedAssetTransfer;
use at_sharedmem::harness::{
    assert_linearizable, run_shared_account_workload, run_uniform_workload, WorkloadConfig,
};
use at_sharedmem::object::{MutexAssetTransfer, SharedAssetTransfer};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

fn amt(x: u64) -> Amount {
    Amount::new(x)
}

/// F1: Figure 1 (wait-free snapshot object) stays linearizable across many
/// seeds and heavier thread counts.
#[test]
fn figure1_linearizable_across_seeds() {
    for seed in 0..12 {
        let config = WorkloadConfig {
            processes: 4,
            ops_per_process: 5,
            initial_balance: amt(12),
            max_amount: 8,
            read_percent: 40,
            seed,
        };
        let object = Arc::new(SnapshotAssetTransfer::uniform(
            config.processes,
            config.initial_balance,
        ));
        let (history, initial) = run_uniform_workload(object, &config);
        assert_linearizable(&history, &initial);
    }
}

/// F1 (scale): total supply is conserved under a large concurrent
/// workload on the wait-free object.
#[test]
fn figure1_conserves_supply_at_scale() {
    const N: usize = 8;
    const OPS: u64 = 200;
    let object = Arc::new(SnapshotAssetTransfer::uniform(N, amt(1_000)));
    let handles: Vec<_> = (0..N as u32)
        .map(|i| {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                for round in 0..OPS {
                    let dest = a((i + 1 + (round % 3) as u32) % N as u32);
                    object.transfer(p(i), a(i), dest, amt(round % 11));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let total: Amount = (0..N as u32).map(|i| object.read(a(i))).sum();
    assert_eq!(total, amt(1_000 * N as u64));
}

/// F2 composed with F3 — the full circle of Theorem 2: consensus built
/// from a k-shared asset-transfer object that is *itself* built from
/// k-consensus objects.
#[test]
fn consensus_from_figure3_object() {
    for trial in 0..10 {
        let k = 4;
        let consensus = Arc::new(TransferConsensus::new(k, |ledger| {
            let owners = ledger.owners().clone();
            let balances: Vec<_> = ledger.iter().collect();
            KSharedAssetTransfer::new(k, balances, owners)
        }));
        let handles: Vec<_> = (0..k as u32)
            .map(|i| {
                let consensus = Arc::clone(&consensus);
                thread::spawn(move || consensus.propose(p(i), format!("value-{i}")))
            })
            .collect();
        let decisions: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let unique: HashSet<&String> = decisions.iter().collect();
        assert_eq!(unique.len(), 1, "trial {trial}: {decisions:?}");
        assert!(decisions[0].starts_with("value-"));
    }
}

/// F3: Figure 3's object is linearizable on a shared account under
/// concurrent owners.
#[test]
fn figure3_linearizable_across_seeds() {
    for seed in 0..10 {
        let k = 3;
        let shared = a(0);
        let sink = a(1);
        let mut owners = OwnerMap::new();
        for process in ProcessId::all(k) {
            owners.add_owner(shared, process);
        }
        owners.add_unowned(sink);
        let object = Arc::new(KSharedAssetTransfer::new(k, [(shared, amt(20))], owners));
        let (history, initial) = run_shared_account_workload(object, k, 6, amt(20), seed);
        assert_linearizable(&history, &initial);
    }
}

/// Cross-implementation differential test: the same seeded workload on
/// Figure 1 and on the mutex reference object both linearize against the
/// same initial state.
#[test]
fn figure1_and_reference_agree_on_linearizability() {
    for seed in 100..106 {
        let config = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        let figure1 = Arc::new(SnapshotAssetTransfer::uniform(
            config.processes,
            config.initial_balance,
        ));
        let (history, initial) = run_uniform_workload(figure1, &config);
        assert_linearizable(&history, &initial);

        let reference = Arc::new(MutexAssetTransfer::new(Ledger::uniform(
            config.processes,
            config.initial_balance,
        )));
        let (history, initial) = run_uniform_workload(reference, &config);
        assert_linearizable(&history, &initial);
    }
}

/// Figure 2's exact-balance trick on Figure 3's object: with balance `2k`
/// and withdrawals `2k − p`, exactly one withdrawal wins.
#[test]
fn figure2_core_invariant_on_figure3_object() {
    for trial in 0..8 {
        let k = 5;
        let shared = a(0);
        let sink = a(1);
        let mut owners = OwnerMap::new();
        for process in ProcessId::all(k) {
            owners.add_owner(shared, process);
        }
        owners.add_unowned(sink);
        let object = Arc::new(KSharedAssetTransfer::new(
            k,
            [(shared, amt(2 * k as u64))],
            owners,
        ));
        let handles: Vec<_> = (0..k as u32)
            .map(|i| {
                let object = Arc::clone(&object);
                thread::spawn(move || {
                    object.transfer(p(i), shared, sink, amt(2 * k as u64 - (i as u64 + 1)))
                })
            })
            .collect();
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(wins, 1, "trial {trial}");
        let residue = object.read(shared).units();
        assert!((1..=k as u64).contains(&residue));
    }
}
