//! Property-based integration tests (proptest): invariants of the model,
//! the shared-memory objects, and the broadcast layer under randomized
//! inputs and schedules.

// Index-driven loops here mirror the per-process state arrays.
#![allow(clippy::needless_range_loop)]

use at_broadcast::bracha::{BrachaBroadcast, BrachaMsg};
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::types::Step;
use at_model::codec::{decode, encode};
use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId, SeqNo, Transfer};
use at_sharedmem::figure1::SnapshotAssetTransfer;
use at_sharedmem::harness::{assert_linearizable, run_uniform_workload, WorkloadConfig};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn transfer_strategy(n: u32) -> impl Strategy<Value = Transfer> {
    (0..n, 0..n, 0..1_000u64, 0..n, 1..50u64).prop_map(|(src, dst, x, orig, seq)| {
        Transfer::new(
            AccountId::new(src),
            AccountId::new(dst),
            Amount::new(x),
            ProcessId::new(orig),
            SeqNo::new(seq),
        )
    })
}

proptest! {
    /// Codec: every transfer round-trips bit-exactly.
    #[test]
    fn transfer_codec_roundtrip(tx in transfer_strategy(8)) {
        let bytes = encode(&tx);
        let back: Transfer = decode(&bytes).unwrap();
        prop_assert_eq!(tx, back);
    }

    /// Codec: TransferMsg with arbitrary dependency lists round-trips.
    #[test]
    fn transfer_msg_codec_roundtrip(
        tx in transfer_strategy(8),
        deps in prop::collection::vec(transfer_strategy(8), 0..10),
    ) {
        let msg = at_core::figure4::TransferMsg { transfer: tx, deps };
        let bytes = encode(&msg);
        let back: at_core::figure4::TransferMsg = decode(&bytes).unwrap();
        prop_assert_eq!(msg, back);
    }

    /// Spec: any sequence of transfer attempts conserves total supply and
    /// never produces a negative balance.
    #[test]
    fn ledger_conserves_supply(
        ops in prop::collection::vec(transfer_strategy(6), 0..60),
    ) {
        let mut ledger = Ledger::uniform(6, Amount::new(100));
        let supply = ledger.total_supply();
        for op in &ops {
            let _ = ledger.apply(op);
        }
        prop_assert_eq!(ledger.total_supply(), supply);
        for (_, balance) in ledger.iter() {
            prop_assert!(balance <= supply);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Figure 1 under randomized concurrent workloads is linearizable.
    /// (Bounded sizes keep the exhaustive checker fast; thread-spawning
    /// workloads run a reduced number of cases.)
    #[test]
    fn figure1_random_workloads_linearize(seed in 0u64..500) {
        let config = WorkloadConfig {
            processes: 3,
            ops_per_process: 4,
            initial_balance: Amount::new(10),
            max_amount: 7,
            read_percent: 35,
            seed,
        };
        let object = Arc::new(SnapshotAssetTransfer::wait_free_uniform(
            config.processes,
            config.initial_balance,
        ));
        let (history, initial) = run_uniform_workload(object, &config);
        assert_linearizable(&history, &initial);
    }

    /// Bracha broadcast: agreement and FIFO order hold under arbitrary
    /// network reordering (shuffled message queue).
    #[test]
    fn bracha_agreement_under_reordering(seed in 0u64..300) {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(ProcessId::new(i as u32), n))
            .collect();
        let mut inflight: Vec<(ProcessId, ProcessId, BrachaMsg<u64>)> = Vec::new();
        let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); n];

        // Two sources, two messages each.
        for (source, value) in [(0u32, 10u64), (0, 11), (2, 20), (2, 21)] {
            let mut step = Step::new();
            endpoints[source as usize].broadcast(value, &mut step);
            for out in step.outgoing {
                inflight.push((ProcessId::new(source), out.to, out.msg));
            }
        }
        while !inflight.is_empty() {
            inflight.shuffle(&mut rng);
            let (from, to, msg) = inflight.pop().unwrap();
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push((to, out.to, out.msg));
            }
            delivered[to.as_usize()]
                .extend(step.deliveries.into_iter().map(|d| d.payload));
        }
        for view in &delivered {
            // Agreement + FIFO per source: 10 before 11, 20 before 21.
            let pos = |v: u64| view.iter().position(|&x| x == v).unwrap();
            prop_assert_eq!(view.len(), 4);
            prop_assert!(pos(10) < pos(11));
            prop_assert!(pos(20) < pos(21));
        }
    }

    /// The owner map's sharedness equals the maximum owner-set size, for
    /// arbitrary maps.
    #[test]
    fn owner_map_sharedness(assignments in prop::collection::vec((0..8u32, 0..8u32), 0..40)) {
        let mut owners = OwnerMap::new();
        let mut max_per_account = std::collections::HashMap::new();
        for (account, process) in &assignments {
            owners.add_owner(AccountId::new(*account), ProcessId::new(*process));
        }
        for account in owners.accounts() {
            max_per_account.insert(account, owners.owner_count(account));
        }
        let expected = max_per_account.values().copied().max().unwrap_or(0);
        prop_assert_eq!(owners.sharedness(), expected);
    }

    /// Ed25519 over random seeds and messages: sign/verify round-trips and
    /// any single-bit tamper of the message is rejected.
    #[test]
    fn ed25519_roundtrip_and_tamper(
        seed in prop::array::uniform32(any::<u8>()),
        message in prop::collection::vec(any::<u8>(), 1..64),
        flip in any::<u8>(),
    ) {
        let keypair = at_crypto::Keypair::from_seed(&seed);
        let signature = keypair.sign(&message);
        prop_assert!(keypair.public().verify(&message, &signature).is_ok());

        let mut tampered = message.clone();
        let index = (flip as usize) % tampered.len();
        tampered[index] ^= 1;
        prop_assert!(keypair.public().verify(&tampered, &signature).is_err());
    }

    /// The fast curve field multiplication agrees with the generic
    /// big-integer reference on random inputs.
    #[test]
    fn field_mul_matches_reference(
        a in prop::array::uniform4(any::<u64>()),
        b in prop::array::uniform4(any::<u64>()),
    ) {
        use at_crypto::bigint::U256;
        use at_crypto::field::{prime, FieldElement};
        let fast = FieldElement::from_le_bytes(&U256(a).to_le_bytes())
            .mul(FieldElement::from_le_bytes(&U256(b).to_le_bytes()))
            .reduce();
        let reference = U256(a).rem(prime()).mul_mod(U256(b).rem(prime()), prime());
        prop_assert_eq!(fast, reference);
    }

    /// Figure 4 state machine: a random interleaving of deliveries across
    /// processes never violates conservation or negative balances.
    #[test]
    fn figure4_random_delivery_order_converges(seed in 0u64..200) {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states: Vec<at_core::figure4::TransferState> = (0..n as u32)
            .map(|i| at_core::figure4::TransferState::new(ProcessId::new(i), n, Amount::new(50)))
            .collect();

        // Build a chain of funded transfers sequentially at the sources.
        let mut msgs = Vec::new();
        for round in 0..3 {
            for i in 0..n {
                let dest = AccountId::new(((i + round + 1) % n) as u32);
                if let Ok(msg) = states[i].submit(dest, Amount::new(5)) {
                    msgs.push((ProcessId::new(i as u32), msg));
                    // The source applies its own message immediately
                    // (self-delivery first is one valid ordering).
                    let (q, m) = msgs.last().unwrap().clone();
                    states[i].on_deliver(q, m);
                }
            }
        }
        // Deliver everything to everyone in random order (source order is
        // preserved per sender by retrying until accepted).
        for i in 0..n {
            let mut pending: Vec<_> = msgs.clone();
            pending.shuffle(&mut rng);
            let mut progress = true;
            while progress && !pending.is_empty() {
                progress = false;
                let mut remaining = Vec::new();
                for (q, m) in pending {
                    let before = states[i].applied_count();
                    states[i].on_deliver(q, m.clone());
                    if states[i].applied_count() > before {
                        progress = true;
                    } else {
                        remaining.push((q, m));
                    }
                }
                pending = remaining;
            }
        }
        let supply: u64 = (0..n as u32)
            .map(|j| states[0].observed_balance(AccountId::new(j)).units())
            .sum();
        prop_assert_eq!(supply, 50 * n as u64);
        for i in 1..n {
            for j in 0..n as u32 {
                prop_assert_eq!(
                    states[i].observed_balance(AccountId::new(j)),
                    states[0].observed_balance(AccountId::new(j))
                );
            }
        }
    }
}
