//! Concurrent workload harness: drives any [`SharedAssetTransfer`] object
//! from multiple threads, records the [`History`], and hands it to the
//! linearizability checker — the machinery behind the correctness
//! tests of Figure 1 and Figure 3.

use crate::object::SharedAssetTransfer;
use at_model::history::{Operation, Recorder, Response};
use at_model::{
    AccountId, Amount, CheckBudget, CheckOutcome, History, Ledger, OwnerMap, ProcessId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::thread;

/// Configuration of a randomized concurrent workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of threads (= processes).
    pub processes: usize,
    /// Operations per process.
    pub ops_per_process: usize,
    /// Initial balance of each account.
    pub initial_balance: Amount,
    /// Maximum single-transfer amount.
    pub max_amount: u64,
    /// Fraction (0–100) of operations that are reads.
    pub read_percent: u8,
    /// RNG seed (per-process streams derive from it).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            processes: 3,
            ops_per_process: 6,
            initial_balance: Amount::new(20),
            max_amount: 10,
            read_percent: 30,
            seed: 0,
        }
    }
}

/// Runs a random single-owner workload against `object` and returns the
/// recorded history together with the initial ledger used.
///
/// Accounts follow the uniform topology: account `i` owned by process `i`.
pub fn run_uniform_workload<O>(object: Arc<O>, config: &WorkloadConfig) -> (History, Ledger)
where
    O: SharedAssetTransfer,
{
    let n = config.processes;
    let (max_amount, read_percent) = (config.max_amount, config.read_percent);
    let choose = |i: usize, rng: &mut StdRng| {
        if rng.gen_range(0..100u8) < read_percent {
            let account = AccountId::new(rng.gen_range(0..n) as u32);
            return Operation::Read { account };
        }
        let mut dest_index = rng.gen_range(0..n);
        if dest_index == i && n > 1 {
            dest_index = (dest_index + 1) % n;
        }
        Operation::Transfer {
            source: AccountId::new(i as u32),
            destination: AccountId::new(dest_index as u32),
            amount: Amount::new(rng.gen_range(0..=max_amount)),
        }
    };
    let history = run_workload(&*object, n, config.ops_per_process, config.seed, choose);
    (history, Ledger::uniform(n, config.initial_balance))
}

/// Runs a random workload on a `k`-shared account: `k` owner processes all
/// debit account 0; account 1 is the sink.
pub fn run_shared_account_workload<O>(
    object: Arc<O>,
    k: usize,
    ops_per_process: usize,
    initial_balance: Amount,
    seed: u64,
) -> (History, Ledger)
where
    O: SharedAssetTransfer,
{
    let shared = AccountId::new(0);
    let sink = AccountId::new(1);
    let mut owners = OwnerMap::new();
    for process in ProcessId::all(k) {
        owners.add_owner(shared, process);
    }
    owners.add_unowned(sink);
    let history = run_workload(&*object, k, ops_per_process, seed, |_, rng| {
        if rng.gen_bool(0.25) {
            let account = if rng.gen_bool(0.5) { shared } else { sink };
            return Operation::Read { account };
        }
        Operation::Transfer {
            source: shared,
            destination: sink,
            amount: Amount::new(rng.gen_range(1..=5)),
        }
    });
    let initial = Ledger::new([(shared, initial_balance), (sink, Amount::ZERO)], owners);
    (history, initial)
}

/// The one body behind both workloads: `processes` threads, thread `i`
/// being process `i`, each invoking `ops_per_process` operations that
/// `choose(i, rng)` picks from its own seeded stream, and recording every
/// invocation and response.
fn run_workload<O, F>(
    object: &O,
    processes: usize,
    ops_per_process: usize,
    seed: u64,
    choose: F,
) -> History
where
    O: SharedAssetTransfer,
    F: Fn(usize, &mut StdRng) -> Operation + Sync,
{
    let recorder = Recorder::new();
    thread::scope(|scope| {
        for i in 0..processes {
            let (recorder, choose) = (recorder.clone(), &choose);
            scope.spawn(move || {
                let process = ProcessId::new(i as u32);
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37));
                for _ in 0..ops_per_process {
                    let op = choose(i, &mut rng);
                    let id = recorder.invoke(process, op);
                    let response = match op {
                        Operation::Transfer {
                            source,
                            destination,
                            amount,
                        } => Response::Transfer(object.transfer(
                            process,
                            source,
                            destination,
                            amount,
                        )),
                        Operation::Read { account } => Response::Read(object.read(account)),
                    };
                    recorder.respond(id, response);
                }
            });
        }
    });
    recorder.into_history()
}

/// Asserts that the recorded history linearizes; panics with the history
/// text otherwise.
///
/// # Panics
///
/// Panics when the history is not linearizable (that is the point), and
/// when the checker cannot decide it: an undecided history is not a pass.
pub fn assert_linearizable(history: &History, initial: &Ledger) {
    match at_model::linearizable(history, initial, CheckBudget::UNLIMITED) {
        CheckOutcome::Linearizable { .. } => {}
        verdict => panic!("history is not shown linearizable ({verdict:?}):\n{history}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::SnapshotAssetTransfer;
    use crate::figure3::KSharedAssetTransfer;
    use crate::object::MutexAssetTransfer;

    #[test]
    fn mutex_object_linearizes() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let object = Arc::new(MutexAssetTransfer::new(Ledger::uniform(
                config.processes,
                config.initial_balance,
            )));
            let (history, initial) = run_uniform_workload(object, &config);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn figure1_wait_free_linearizes() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let object = Arc::new(SnapshotAssetTransfer::uniform(
                config.processes,
                config.initial_balance,
            ));
            let (history, initial) = run_uniform_workload(object, &config);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn figure3_shared_account_linearizes() {
        for seed in 0..8 {
            let k = 3;
            let shared = AccountId::new(0);
            let sink = AccountId::new(1);
            let mut owners = OwnerMap::new();
            for process in ProcessId::all(k) {
                owners.add_owner(shared, process);
            }
            owners.add_unowned(sink);
            let object = Arc::new(KSharedAssetTransfer::new(
                k,
                [(shared, Amount::new(15))],
                owners,
            ));
            let (history, initial) =
                run_shared_account_workload(object, k, 5, Amount::new(15), seed);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn workload_config_default_is_sane() {
        let config = WorkloadConfig::default();
        assert!(config.processes >= 2);
        assert!(config.read_percent <= 100);
    }
}
