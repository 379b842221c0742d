//! Property-based tests for the model crate: codec totality, sequential
//! specification invariants, and linearizability-checker sanity.

use at_model::codec::{decode, encode, Reader};
use at_model::history::{History, Operation, Response};
use at_model::{
    AccountId, Amount, CheckBudget, CheckOutcome, Ledger, OwnerMap, ProcessId, SeqNo, Transfer,
};
use proptest::prelude::*;

fn account() -> impl Strategy<Value = AccountId> {
    (0u32..6).prop_map(AccountId::new)
}

fn process() -> impl Strategy<Value = ProcessId> {
    (0u32..6).prop_map(ProcessId::new)
}

fn amount() -> impl Strategy<Value = Amount> {
    (0u64..200).prop_map(Amount::new)
}

proptest! {
    /// The codec never panics on arbitrary input bytes: it either decodes
    /// or returns an error.
    #[test]
    fn decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode::<Transfer>(&bytes);
        let _ = decode::<Vec<u32>>(&bytes);
        let _ = decode::<String>(&bytes);
        let _ = decode::<(u8, Option<bool>, u64)>(&bytes);
        // Reader never reads past the end.
        let mut reader = Reader::new(&bytes);
        let _ = reader.take_len_prefixed();
        prop_assert!(reader.remaining() <= bytes.len());
    }

    /// Encoding then decoding a batch of transfers is the identity, and
    /// the encoding length is exactly the sum of its parts.
    #[test]
    fn transfer_batch_roundtrip(
        txs in prop::collection::vec(
            (account(), account(), amount(), process(), 1u64..100),
            0..20,
        )
    ) {
        let transfers: Vec<Transfer> = txs
            .into_iter()
            .map(|(a, b, x, p, s)| Transfer::new(a, b, x, p, SeqNo::new(s)))
            .collect();
        let bytes = encode(&transfers);
        prop_assert_eq!(bytes.len(), 8 + transfers.len() * 28);
        let back: Vec<Transfer> = decode(&bytes).unwrap();
        prop_assert_eq!(transfers, back);
    }

    /// Δ: a successful transfer moves exactly `x`; a failed one moves
    /// nothing; in both cases the supply and all other accounts are
    /// untouched.
    #[test]
    fn delta_is_exact(
        src in account(), dst in account(), x in amount(), p in process(),
        initial in 0u64..300,
    ) {
        let owners = OwnerMap::single_owner([(src, p)]);
        let mut ledger = Ledger::new(
            (0..6).map(|i| (AccountId::new(i), Amount::new(initial))),
            owners,
        );
        let before_src = ledger.read(src);
        let before_dst = ledger.read(dst);
        let supply = ledger.total_supply();
        let result = ledger.transfer(p, src, dst, x);
        prop_assert_eq!(ledger.total_supply(), supply);
        match result {
            Ok(()) if src != dst => {
                prop_assert_eq!(ledger.read(src), before_src.checked_sub(x).unwrap());
                prop_assert_eq!(ledger.read(dst), before_dst.checked_add(x).unwrap());
            }
            Ok(()) => prop_assert_eq!(ledger.read(src), before_src),
            Err(_) => {
                prop_assert_eq!(ledger.read(src), before_src);
                prop_assert_eq!(ledger.read(dst), before_dst);
            }
        }
    }

    /// Soundness of the checker: any *sequential* history generated by
    /// actually running the spec is linearizable.
    #[test]
    fn checker_accepts_real_sequential_histories(
        script in prop::collection::vec(
            (process(), account(), account(), amount(), any::<bool>()),
            1..12,
        )
    ) {
        let owners = OwnerMap::one_account_per_process(6);
        let mut ledger = Ledger::new(
            (0..6).map(|i| (AccountId::new(i), Amount::new(25))),
            owners,
        );
        let initial = ledger.clone();
        let mut history = History::new();
        for (p, src, dst, x, is_read) in script {
            if is_read {
                let id = history.invoke(p, Operation::Read { account: src });
                history.respond(id, Response::Read(ledger.read(src)));
            } else {
                let id = history.invoke(
                    p,
                    Operation::Transfer { source: src, destination: dst, amount: x },
                );
                let ok = ledger.transfer(p, src, dst, x).is_ok();
                history.respond(id, Response::Transfer(ok));
            }
        }
        prop_assert!(at_model::linearizable(&history, &initial, CheckBudget::UNLIMITED).is_linearizable());
    }

    /// Completeness of the checker on a known-bad pattern: claiming a
    /// read of a balance that can never occur is rejected.
    #[test]
    fn checker_rejects_impossible_reads(bogus in 1u64..1000) {
        let initial = Ledger::uniform(2, Amount::new(0));
        let mut history = History::new();
        let id = history.invoke(
            ProcessId::new(0),
            Operation::Read { account: AccountId::new(0) },
        );
        // Balance is 0 and no transfers exist: any non-zero read is wrong.
        history.respond(id, Response::Read(Amount::new(bogus)));
        prop_assert_eq!(
            at_model::linearizable(&history, &initial, CheckBudget::UNLIMITED),
            CheckOutcome::NotLinearizable
        );
    }

    /// Owner-map queries agree with a naive recomputation.
    #[test]
    fn owner_queries_consistent(
        pairs in prop::collection::vec((account(), process()), 0..30)
    ) {
        let owners = OwnerMap::single_owner(pairs.clone());
        for (a, p) in &pairs {
            prop_assert!(owners.is_owner(*p, *a));
            prop_assert!(owners.accounts_owned_by(*p).any(|acct| acct == *a));
        }
        let total: usize = owners
            .accounts()
            .map(|a| owners.owner_count(a))
            .sum();
        let distinct: std::collections::HashSet<_> = pairs.iter().collect();
        prop_assert_eq!(total, distinct.len());
    }
}
