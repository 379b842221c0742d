//! Transfer records.
//!
//! A [`Transfer`] is the wire- and history-level record of a
//! `transfer(a, b, x)` invocation: source, destination, amount, the
//! originating process, and the originator's sequence number. The
//! `(originator, seq)` pair uniquely identifies a transfer in every protocol
//! in this workspace, and is captured by [`TransferId`].

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;
use crate::ids::{AccountId, Amount, ProcessId, SeqNo};
use std::fmt;

/// A unique transfer identifier: the originating process and its sequence
/// number for this transfer.
///
/// A benign process issues at most one transfer per sequence number, so the
/// pair is unique system-wide for benign originators; the broadcast layer
/// enforces the same uniqueness against Byzantine originators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId {
    /// The process that issued the transfer.
    pub originator: ProcessId,
    /// The originator's sequence number for the transfer.
    pub seq: SeqNo,
}

impl TransferId {
    /// Creates a transfer identifier.
    pub const fn new(originator: ProcessId, seq: SeqNo) -> Self {
        TransferId { originator, seq }
    }
}

impl fmt::Debug for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.originator, self.seq)
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.originator, self.seq)
    }
}

impl Encode for TransferId {
    fn encode(&self, w: &mut Writer) {
        self.originator.encode(w);
        self.seq.encode(w);
    }
}

impl Decode for TransferId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TransferId {
            originator: ProcessId::decode(r)?,
            seq: SeqNo::decode(r)?,
        })
    }
}

/// The record of a `transfer(a, b, x)` operation.
///
/// Matches the 5-tuple `(a, b, x, s, r)` used by the paper's Figure 3 and
/// the `(q, d, y, s)` message payload of Figure 4, where the round/sequence
/// metadata is carried in [`Transfer::seq`] and the originator in
/// [`Transfer::originator`].
///
/// # Example
///
/// ```
/// use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
///
/// let tx = Transfer::new(
///     AccountId::new(0),
///     AccountId::new(1),
///     Amount::new(25),
///     ProcessId::new(0),
///     SeqNo::new(1),
/// );
/// assert!(tx.is_outgoing_for(AccountId::new(0)));
/// assert!(tx.is_incoming_for(AccountId::new(1)));
/// assert!(tx.involves(AccountId::new(0)) && tx.involves(AccountId::new(1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transfer {
    /// Source account `a` (debited).
    pub source: AccountId,
    /// Destination account `b` (credited).
    pub destination: AccountId,
    /// Amount `x` moved from `a` to `b`.
    pub amount: Amount,
    /// The process that issued the transfer.
    pub originator: ProcessId,
    /// The originator's sequence number for this transfer.
    pub seq: SeqNo,
}

impl Transfer {
    /// Creates a transfer record.
    pub const fn new(
        source: AccountId,
        destination: AccountId,
        amount: Amount,
        originator: ProcessId,
        seq: SeqNo,
    ) -> Self {
        Transfer {
            source,
            destination,
            amount,
            originator,
            seq,
        }
    }

    /// The unique identifier of this transfer.
    pub const fn id(&self) -> TransferId {
        TransferId::new(self.originator, self.seq)
    }

    /// Whether the transfer debits `account`.
    pub fn is_outgoing_for(&self, account: AccountId) -> bool {
        self.source == account
    }

    /// Whether the transfer credits `account`.
    pub fn is_incoming_for(&self, account: AccountId) -> bool {
        self.destination == account
    }

    /// Whether the transfer is incoming or outgoing for `account`
    /// ("involves" in the paper's Figure 4 terminology).
    pub fn involves(&self, account: AccountId) -> bool {
        self.is_outgoing_for(account) || self.is_incoming_for(account)
    }

    /// Whether source and destination are the same account (a no-op
    /// transfer permitted by `Δ`: the balance is unchanged).
    pub fn is_self_transfer(&self) -> bool {
        self.source == self.destination
    }
}

impl fmt::Debug for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}--{:?}-->{}",
            self.id(),
            self.source,
            self.amount,
            self.destination
        )
    }
}

impl fmt::Display for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transfer {} of {} from {} to {}",
            self.id(),
            self.amount,
            self.source,
            self.destination
        )
    }
}

impl Encode for Transfer {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.destination.encode(w);
        self.amount.encode(w);
        self.originator.encode(w);
        self.seq.encode(w);
    }
}

impl Decode for Transfer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Transfer {
            source: AccountId::decode(r)?,
            destination: AccountId::decode(r)?,
            amount: Amount::decode(r)?,
            originator: ProcessId::decode(r)?,
            seq: SeqNo::decode(r)?,
        })
    }
}

/// The payload a process broadcasts for one transfer: the transfer plus
/// its dependencies (`[(a,b,x,s), deps]` of Figure 4, line 4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TransferMsg {
    /// The transfer; its `seq` field carries `seq[p] + 1`.
    pub transfer: Transfer,
    /// Incoming transfers the sender applied since its last outgoing
    /// transfer — they must be applied before `transfer`.
    pub deps: Vec<Transfer>,
}

impl Encode for TransferMsg {
    fn encode(&self, w: &mut Writer) {
        self.transfer.encode(w);
        self.deps.encode(w);
    }
}

impl Decode for TransferMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TransferMsg {
            transfer: Transfer::decode(r)?,
            deps: Vec::<Transfer>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    fn tx() -> Transfer {
        Transfer::new(
            AccountId::new(0),
            AccountId::new(1),
            Amount::new(25),
            ProcessId::new(2),
            SeqNo::new(3),
        )
    }

    #[test]
    fn identity_is_originator_and_seq() {
        let t = tx();
        assert_eq!(t.id(), TransferId::new(ProcessId::new(2), SeqNo::new(3)));
        assert_eq!(t.id().to_string(), "p2#3");
    }

    #[test]
    fn direction_predicates() {
        let t = tx();
        assert!(t.is_outgoing_for(AccountId::new(0)));
        assert!(!t.is_outgoing_for(AccountId::new(1)));
        assert!(t.is_incoming_for(AccountId::new(1)));
        assert!(!t.is_incoming_for(AccountId::new(0)));
        assert!(t.involves(AccountId::new(0)));
        assert!(t.involves(AccountId::new(1)));
        assert!(!t.involves(AccountId::new(2)));
        assert!(!t.is_self_transfer());
    }

    #[test]
    fn self_transfer_detected() {
        let t = Transfer::new(
            AccountId::new(4),
            AccountId::new(4),
            Amount::new(1),
            ProcessId::new(0),
            SeqNo::new(1),
        );
        assert!(t.is_self_transfer());
        assert!(t.involves(AccountId::new(4)));
    }

    #[test]
    fn codec_roundtrip() {
        let t = tx();
        let bytes = encode(&t);
        assert_eq!(bytes.len(), 4 + 4 + 8 + 4 + 8);
        let back: Transfer = decode(&bytes).unwrap();
        assert_eq!(t, back);

        let id = t.id();
        let back_id: TransferId = decode(&encode(&id)).unwrap();
        assert_eq!(id, back_id);
    }

    #[test]
    fn display_formats() {
        let t = tx();
        assert_eq!(t.to_string(), "transfer p2#3 of 25 from acct0 to acct1");
        assert_eq!(format!("{t:?}"), "p2#3: acct0--25¤-->acct1");
    }

    #[test]
    fn ordering_is_lexicographic_on_fields() {
        let t1 = Transfer::new(
            AccountId::new(0),
            AccountId::new(1),
            Amount::new(5),
            ProcessId::new(0),
            SeqNo::new(1),
        );
        let t2 = Transfer::new(
            AccountId::new(0),
            AccountId::new(1),
            Amount::new(5),
            ProcessId::new(0),
            SeqNo::new(2),
        );
        assert!(t1 < t2);
    }
}
