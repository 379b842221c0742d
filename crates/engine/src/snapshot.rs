//! Digest-certified ledger snapshots cut at the stability frontier.
//!
//! The paper's Figure 4 validates against ever-growing per-account
//! histories; a replica that kept them literally would grow without
//! bound. This module is the compaction story: a [`LedgerSnapshot`] is
//! the materialized ledger (balances) plus the **stability frontier** —
//! the per-source committed-seq vector `frontier[q]` saying every
//! transfer of process `q` with `seq ≤ frontier[q]` is folded into the
//! balances. Because validation applies each source's transfers
//! gaplessly in sequence order, the pair `(balances, frontier)` is a
//! complete, prefix-closed summary of the applied history: any
//! dependency at or behind the frontier is necessarily applied, so the
//! applied history behind it can be pruned
//! ([`crate::replica::ShardedReplica::prune_through`]) and a cold
//! replica can be reconstructed from the snapshot alone
//! ([`crate::replica::ShardedReplica::from_snapshot`]).
//!
//! The digest binds balances, frontier, and backend floor into one
//! `u64` (FNV-1a, the same scheme as [`crate::shard::digest_balances`]),
//! so a bootstrap client can cross-check snapshots offered by different
//! peers: `f + 1` matching digests mean at least one honest replica
//! vouches for the state — the quorum attestation of the catch-up
//! protocol.

use crate::shard::digest_balances;
use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::{AccountId, Amount, CodecError, SeqNo};

/// A digest-certified summary of a replica's applied history: balances
/// at the stability frontier, the frontier itself, and the broadcast
/// backend's delivered-instance floor at the cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Balance of every account: accounts `0..k`, in order
    /// ([`LedgerSnapshot::verify`] refuses anything else).
    pub balances: Vec<(AccountId, Amount)>,
    /// `frontier[q]`: the highest transfer sequence number of process
    /// `q` folded into `balances` (transfers of `q` are applied
    /// gaplessly, so this is a complete prefix summary).
    pub frontier: Vec<SeqNo>,
    /// `backend_floor[q]`: the highest broadcast-*instance* sequence
    /// number delivered from source `q` at the cut. A cold-started
    /// replica seeds its backend's per-source delivery floors (and its
    /// own next instance number) from this, so stale replayed frames
    /// are discarded and fresh instances resume gaplessly.
    pub backend_floor: Vec<SeqNo>,
    /// FNV-1a digest over balances, frontier, and backend floor.
    pub digest: u64,
}

impl LedgerSnapshot {
    /// Builds a snapshot from its parts, computing the digest.
    pub fn new(
        balances: Vec<(AccountId, Amount)>,
        frontier: Vec<SeqNo>,
        backend_floor: Vec<SeqNo>,
    ) -> Self {
        let digest = Self::digest_of(&balances, &frontier, &backend_floor);
        LedgerSnapshot {
            balances,
            frontier,
            backend_floor,
            digest,
        }
    }

    /// The canonical digest of a snapshot's contents: the balance digest
    /// of [`digest_balances`], continued over the frontier and backend
    /// floor with the same FNV-1a steps.
    pub fn digest_of(
        balances: &[(AccountId, Amount)],
        frontier: &[SeqNo],
        backend_floor: &[SeqNo],
    ) -> u64 {
        let mut hash = digest_balances(balances.iter().copied());
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        mix(frontier.len() as u64);
        for seq in frontier {
            mix(seq.value());
        }
        mix(backend_floor.len() as u64);
        for seq in backend_floor {
            mix(seq.value());
        }
        hash
    }

    /// Whether `balances` names accounts `0..k` in order (no gap,
    /// duplicate or swap — the ledger is indexed by account) and the
    /// carried digest matches the contents: the integrity check a
    /// bootstrap client runs before trusting a downloaded snapshot.
    pub fn verify(&self) -> bool {
        let accounts = self.balances.iter().map(|(account, _)| *account);
        accounts.eq(AccountId::all(self.balances.len()))
            && self.digest == Self::digest_of(&self.balances, &self.frontier, &self.backend_floor)
    }

    /// Number of accounts summarized.
    pub fn account_count(&self) -> usize {
        self.balances.len()
    }
}

impl Encode for LedgerSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.balances.encode(w);
        self.frontier.encode(w);
        self.backend_floor.encode(w);
        w.put_u64(self.digest);
    }
}

impl Decode for LedgerSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LedgerSnapshot {
            balances: Vec::decode(r)?,
            frontier: Vec::decode(r)?,
            backend_floor: Vec::decode(r)?,
            digest: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_model::codec::{decode, encode};

    fn snapshot(accounts: u32) -> LedgerSnapshot {
        LedgerSnapshot::new(
            (0..accounts)
                .map(|i| (AccountId::new(i), Amount::new(100 + u64::from(i))))
                .collect(),
            vec![SeqNo::new(3), SeqNo::new(7)],
            vec![SeqNo::new(2), SeqNo::new(5)],
        )
    }

    #[test]
    fn digest_binds_every_part() {
        let base = snapshot(4);
        assert!(base.verify());
        let mut balances = base.clone();
        balances.balances[1].1 = Amount::new(0);
        assert!(!balances.verify());
        let mut frontier = base.clone();
        frontier.frontier[0] = SeqNo::new(4);
        assert!(!frontier.verify());
        let mut floor = base.clone();
        floor.backend_floor[1] = SeqNo::new(6);
        assert!(!floor.verify());
    }

    /// The balances arrive as a peer's bytes and index a vector: a
    /// snapshot whose digest is right but whose accounts are not `0..k`
    /// in order must not verify.
    #[test]
    fn accounts_must_be_dense_and_in_order() {
        let base = snapshot(4);
        let (a, b) = (base.balances[1], base.balances[2]);
        let gap = [base.balances[0], a, (AccountId::new(3), b.1)];
        let duplicate = [base.balances[0], a, (a.0, b.1)];
        let swapped = [base.balances[0], b, a];
        for (shape, balances) in [("gap", gap), ("duplicate", duplicate), ("swapped", swapped)] {
            // Re-digested, so the digest holds and only the order check
            // is left to refuse it.
            let forged = LedgerSnapshot::new(
                balances.to_vec(),
                base.frontier.clone(),
                base.backend_floor.clone(),
            );
            let back: LedgerSnapshot = decode(&encode(&forged)).expect("roundtrip");
            assert_eq!(back.digest, forged.digest);
            assert!(!back.verify(), "{shape} verified");
        }
    }

    #[test]
    fn roundtrips_through_the_codec() {
        let snap = snapshot(16);
        let bytes = encode(&snap);
        let back: LedgerSnapshot = decode(&bytes).expect("roundtrip");
        assert_eq!(back, snap);
        assert!(back.verify());
        assert_eq!(back.account_count(), 16);
    }

    #[test]
    fn truncated_snapshot_fails_to_decode() {
        let bytes = encode(&snapshot(8));
        for cut in 0..bytes.len() {
            assert!(
                decode::<LedgerSnapshot>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
