//! Canonical binary codecs for the protocol message enums.
//!
//! The simulator moves typed messages between actors in memory, so the
//! protocols never needed a byte representation for their *envelopes* —
//! only for the payloads they hash and sign. A real transport
//! (`at-node`) moves bytes, so every backend message type gets a
//! canonical [`Encode`]/[`Decode`] pair here, built on [`at_model::codec`]:
//! one tag byte per variant, then the fields in declaration order.
//!
//! Decoding is **total on untrusted input**: truncated frames, unknown
//! tags, and oversized length prefixes return a [`CodecError`]; nothing
//! panics or over-allocates (sequence lengths are bounded by
//! [`at_model::codec::MAX_SEQUENCE_LEN`], and `Vec` pre-allocation is
//! capped independently of the declared length).
//!
//! Signature generics: the codecs are generic over the signature type
//! `S`, so they cover both [`crate::auth::NoAuth`] (`S = ()`, zero
//! bytes on the wire) and [`crate::auth::EdAuth`]
//! (`S = at_crypto::Signature`, 64 bytes).

use crate::account_order::AccountOrderMsg;
use crate::bracha::BrachaMsg;
use crate::echo::EchoMsg;
use crate::pbft::PbftMsg;
use at_model::codec::{Decode, Encode, Reader, Writer};
use at_model::{AccountId, CodecError, ProcessId, SeqNo};

impl<P: Encode> Encode for BrachaMsg<P> {
    fn encode(&self, w: &mut Writer) {
        match self {
            BrachaMsg::Init { seq, payload } => {
                w.put_u8(0);
                seq.encode(w);
                payload.encode(w);
            }
            BrachaMsg::Echo {
                source,
                seq,
                payload,
            } => {
                w.put_u8(1);
                source.encode(w);
                seq.encode(w);
                payload.encode(w);
            }
            BrachaMsg::Ready {
                source,
                seq,
                payload,
            } => {
                w.put_u8(2);
                source.encode(w);
                seq.encode(w);
                payload.encode(w);
            }
        }
    }
}

impl<P: Decode> Decode for BrachaMsg<P> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(BrachaMsg::Init {
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
            }),
            1 => Ok(BrachaMsg::Echo {
                source: ProcessId::decode(r)?,
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
            }),
            2 => Ok(BrachaMsg::Ready {
                source: ProcessId::decode(r)?,
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "BrachaMsg",
                tag,
            }),
        }
    }
}

impl<P: Encode, S: Encode> Encode for EchoMsg<P, S> {
    fn encode(&self, w: &mut Writer) {
        match self {
            EchoMsg::Send { seq, payload, sig } => {
                w.put_u8(0);
                seq.encode(w);
                payload.encode(w);
                sig.encode(w);
            }
            EchoMsg::Echo {
                source,
                seq,
                digest,
                share,
            } => {
                w.put_u8(1);
                source.encode(w);
                seq.encode(w);
                digest.encode(w);
                share.encode(w);
            }
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate,
            } => {
                w.put_u8(2);
                source.encode(w);
                seq.encode(w);
                payload.encode(w);
                sig.encode(w);
                certificate.encode(w);
            }
        }
    }
}

impl<P: Decode, S: Decode> Decode for EchoMsg<P, S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(EchoMsg::Send {
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
                sig: S::decode(r)?,
            }),
            1 => Ok(EchoMsg::Echo {
                source: ProcessId::decode(r)?,
                seq: SeqNo::decode(r)?,
                digest: <[u8; 32]>::decode(r)?,
                share: S::decode(r)?,
            }),
            2 => Ok(EchoMsg::Final {
                source: ProcessId::decode(r)?,
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
                sig: S::decode(r)?,
                certificate: Vec::<(ProcessId, S)>::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "EchoMsg",
                tag,
            }),
        }
    }
}

impl<P: Encode, S: Encode> Encode for AccountOrderMsg<P, S> {
    fn encode(&self, w: &mut Writer) {
        match self {
            AccountOrderMsg::Send {
                account,
                seq,
                payload,
                sig,
            } => {
                w.put_u8(0);
                account.encode(w);
                seq.encode(w);
                payload.encode(w);
                sig.encode(w);
            }
            AccountOrderMsg::Ack {
                account,
                seq,
                digest,
                share,
            } => {
                w.put_u8(1);
                account.encode(w);
                seq.encode(w);
                digest.encode(w);
                share.encode(w);
            }
            AccountOrderMsg::Final {
                sender,
                account,
                seq,
                payload,
                certificate,
            } => {
                w.put_u8(2);
                sender.encode(w);
                account.encode(w);
                seq.encode(w);
                payload.encode(w);
                certificate.encode(w);
            }
        }
    }
}

impl<P: Decode, S: Decode> Decode for AccountOrderMsg<P, S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(AccountOrderMsg::Send {
                account: AccountId::decode(r)?,
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
                sig: S::decode(r)?,
            }),
            1 => Ok(AccountOrderMsg::Ack {
                account: AccountId::decode(r)?,
                seq: SeqNo::decode(r)?,
                digest: <[u8; 32]>::decode(r)?,
                share: S::decode(r)?,
            }),
            2 => Ok(AccountOrderMsg::Final {
                sender: ProcessId::decode(r)?,
                account: AccountId::decode(r)?,
                seq: SeqNo::decode(r)?,
                payload: P::decode(r)?,
                certificate: Vec::<(ProcessId, S)>::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "AccountOrderMsg",
                tag,
            }),
        }
    }
}

impl<R: Encode> Encode for PbftMsg<R> {
    fn encode(&self, w: &mut Writer) {
        match self {
            PbftMsg::Forward(request) => {
                w.put_u8(0);
                request.encode(w);
            }
            PbftMsg::PrePrepare { view, seq, batch } => {
                w.put_u8(1);
                view.encode(w);
                seq.encode(w);
                batch.encode(w);
            }
            PbftMsg::Prepare { view, seq } => {
                w.put_u8(2);
                view.encode(w);
                seq.encode(w);
            }
            PbftMsg::Commit { view, seq } => {
                w.put_u8(3);
                view.encode(w);
                seq.encode(w);
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                w.put_u8(4);
                new_view.encode(w);
                prepared.encode(w);
            }
            PbftMsg::NewView { view, preprepares } => {
                w.put_u8(5);
                view.encode(w);
                preprepares.encode(w);
            }
        }
    }
}

impl<R: Decode> Decode for PbftMsg<R> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(PbftMsg::Forward(R::decode(r)?)),
            1 => Ok(PbftMsg::PrePrepare {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
                batch: Vec::<R>::decode(r)?,
            }),
            2 => Ok(PbftMsg::Prepare {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
            }),
            3 => Ok(PbftMsg::Commit {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
            }),
            4 => Ok(PbftMsg::ViewChange {
                new_view: u64::decode(r)?,
                prepared: Vec::<(u64, u64, Vec<R>)>::decode(r)?,
            }),
            5 => Ok(PbftMsg::NewView {
                view: u64::decode(r)?,
                preprepares: Vec::<(u64, Vec<R>)>::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "PbftMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_crypto::Signature;
    use at_model::codec::{decode, encode};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn s(v: u64) -> SeqNo {
        SeqNo::new(v)
    }

    fn sig(byte: u8) -> Signature {
        Signature::from_bytes(&[byte; 64])
    }

    #[test]
    fn bracha_messages_roundtrip() {
        let msgs: Vec<BrachaMsg<Vec<u8>>> = vec![
            BrachaMsg::Init {
                seq: s(1),
                payload: vec![1, 2, 3],
            },
            BrachaMsg::Echo {
                source: p(2),
                seq: s(9),
                payload: vec![],
            },
            BrachaMsg::Ready {
                source: p(0),
                seq: s(u64::MAX),
                payload: vec![0xFF],
            },
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            let back: BrachaMsg<Vec<u8>> = decode(&bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn echo_messages_roundtrip_with_unit_and_real_signatures() {
        let unit: EchoMsg<u64, ()> = EchoMsg::Final {
            source: p(1),
            seq: s(4),
            payload: 77,
            sig: (),
            certificate: vec![(p(0), ()), (p(2), ())],
        };
        let bytes = encode(&unit);
        let back: EchoMsg<u64, ()> = decode(&bytes).expect("decode");
        assert_eq!(back, unit);

        let signed: EchoMsg<u64, Signature> = EchoMsg::Echo {
            source: p(3),
            seq: s(2),
            digest: [7; 32],
            share: sig(0xAB),
        };
        let bytes = encode(&signed);
        let back: EchoMsg<u64, Signature> = decode(&bytes).expect("decode");
        assert_eq!(back, signed);
    }

    #[test]
    fn account_order_messages_roundtrip() {
        let msg: AccountOrderMsg<Vec<u8>, Signature> = AccountOrderMsg::Final {
            sender: p(2),
            account: AccountId::new(2),
            seq: s(3),
            payload: vec![9; 40],
            certificate: vec![(p(0), sig(1)), (p(1), sig(2)), (p(3), sig(3))],
        };
        let bytes = encode(&msg);
        let back: AccountOrderMsg<Vec<u8>, Signature> = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn pbft_messages_roundtrip() {
        type Request = (ProcessId, SeqNo, Vec<u8>);
        let request = |byte: u8| (p(1), s(3), vec![byte; 5]);
        let msgs: Vec<PbftMsg<Request>> = vec![
            PbftMsg::Forward(request(1)),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 7,
                batch: vec![request(2)],
            },
            PbftMsg::Prepare { view: 1, seq: 8 },
            PbftMsg::Commit {
                view: u64::MAX,
                seq: 9,
            },
            PbftMsg::ViewChange {
                new_view: 2,
                prepared: vec![(7, 0, vec![request(3)]), (8, 1, vec![])],
            },
            PbftMsg::NewView {
                view: 2,
                preprepares: vec![(7, vec![request(4), request(5)])],
            },
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            let back: PbftMsg<Request> = decode(&bytes).expect("decode");
            assert_eq!(back, msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode::<PbftMsg<Request>>(&bytes[..cut]).is_err(),
                    "{msg:?}: prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn unknown_tags_error() {
        assert!(matches!(
            decode::<BrachaMsg<u64>>(&[9]),
            Err(CodecError::InvalidTag {
                type_name: "BrachaMsg",
                tag: 9
            })
        ));
        assert!(matches!(
            decode::<EchoMsg<u64, ()>>(&[3]),
            Err(CodecError::InvalidTag {
                type_name: "EchoMsg",
                tag: 3
            })
        ));
        assert!(matches!(
            decode::<AccountOrderMsg<u64, ()>>(&[0xFE]),
            Err(CodecError::InvalidTag {
                type_name: "AccountOrderMsg",
                tag: 0xFE
            })
        ));
        assert!(matches!(
            decode::<PbftMsg<u64>>(&[6]),
            Err(CodecError::InvalidTag {
                type_name: "PbftMsg",
                tag: 6
            })
        ));
    }

    #[test]
    fn truncated_messages_error_never_panic() {
        let msg: EchoMsg<Vec<u8>, Signature> = EchoMsg::Send {
            seq: s(1),
            payload: vec![1; 16],
            sig: sig(9),
        };
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            assert!(
                decode::<EchoMsg<Vec<u8>, Signature>>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
