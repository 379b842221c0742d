//! Figure 2 live: electing a leader among k processes using nothing but
//! registers and one k-shared asset-transfer object — the construction
//! showing the object's consensus number is at least k.
//!
//! The account starts with balance 2k; process p withdraws 2k − p. Any
//! two withdrawals overdraw, so exactly one succeeds, and the residual
//! balance *is* the winner's identity.
//!
//! Run with `cargo run -p at-examples --example consensus_from_transfers`.

use at_examples::banner;
use at_model::ProcessId;
use at_sharedmem::figure2::TransferConsensus;
use at_sharedmem::object::MutexAssetTransfer;
use std::sync::Arc;
use std::thread;

fn main() {
    const K: usize = 5;
    banner("Figure 2: consensus from a k-shared asset-transfer object");

    let consensus = Arc::new(TransferConsensus::new(K, MutexAssetTransfer::new));
    let candidates = ["alice", "bob", "carol", "dave", "erin"];

    let handles: Vec<_> = (0..K)
        .map(|i| {
            let consensus = Arc::clone(&consensus);
            let proposal = candidates[i];
            thread::spawn(move || {
                let decided = consensus.propose(ProcessId::new(i as u32), proposal);
                (i, proposal, decided)
            })
        })
        .collect();

    let mut decisions = Vec::new();
    for handle in handles {
        let (i, proposed, decided) = handle.join().unwrap();
        println!("process p{i} proposed {proposed:8} -> decided {decided}");
        decisions.push(decided);
    }
    assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement!");
    println!("=> all {K} processes agree, using only transfers and registers");
    println!("   (the paper's Lemma 1: k-shared asset transfer has consensus number >= k)");
}
