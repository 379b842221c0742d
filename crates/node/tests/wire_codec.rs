//! Property tests for the wire protocol: round-trips over arbitrary
//! frames, and totality (no panic, no over-allocation) on malformed and
//! truncated untrusted input.

use at_broadcast::bracha::BrachaMsg;
use at_broadcast::echo::EchoMsg;
use at_broadcast::pbft::PbftMsg;
use at_broadcast::Batch;
use at_core::figure4::TransferMsg;
use at_model::codec::{decode, encode};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_node::wire::{
    decode_frame_body, decode_peer_payload, encode_frame, encode_peer_payload, ClientOp,
    ClientRequest, ClientResponse, Frame, FrameBuffer, ResponseBody, WireError, MAX_FRAME_LEN,
    WIRE_VERSION,
};
use at_obs::{
    MetricValue, NamedHistogram, Snapshot, TraceCtx, TraceEvent, TraceEventKind, TraceLog,
};
use proptest::prelude::*;

/// What a PBFT-backed node puts on the wire.
type PbftWire = PbftMsg<(ProcessId, SeqNo, Batch<TransferMsg>)>;

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        0u32..16,
        0usize..10,
        0u8..8,
        any::<u64>(),
    )
        .prop_map(|(trace_id, at_us, node, kind, hops, arg)| TraceEvent {
            trace_id,
            at_us,
            node,
            kind: TraceEventKind::ALL[kind],
            hops,
            arg,
        })
}

fn trace_log() -> impl Strategy<Value = TraceLog> {
    (
        0u32..16,
        prop::collection::vec(trace_event(), 0..8),
        any::<u64>(),
    )
        .prop_map(|(node, events, dropped)| TraceLog {
            node,
            events,
            dropped,
        })
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (
        any::<u64>(),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..3),
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0u64..1_000_000, 0..6)),
            0..2,
        ),
    )
        .prop_map(|(label, scalars, hists)| Snapshot {
            label: format!("node {}", label % 100),
            counters: scalars
                .iter()
                .map(|(name, value)| MetricValue {
                    name: format!("c{}_total", name % 8),
                    value: *value,
                })
                .collect(),
            gauges: scalars
                .into_iter()
                .map(|(name, value)| MetricValue {
                    name: format!("g{name}"),
                    value,
                })
                .collect(),
            histograms: hists
                .into_iter()
                .map(|(name, samples)| {
                    let h = at_obs::Histogram::new();
                    for v in samples {
                        h.record(v);
                    }
                    NamedHistogram {
                        name: format!("stage_{}_us", name % 10),
                        hist: h.snapshot(),
                    }
                })
                .collect(),
        })
}

fn transfer() -> impl Strategy<Value = Transfer> {
    (0u32..8, 0u32..8, 0u64..1000, 0u32..8, 1u64..100).prop_map(|(src, dst, amt, orig, seq)| {
        Transfer::new(
            AccountId::new(src),
            AccountId::new(dst),
            Amount::new(amt),
            ProcessId::new(orig),
            SeqNo::new(seq),
        )
    })
}

fn transfer_msg() -> impl Strategy<Value = TransferMsg> {
    (transfer(), prop::collection::vec(transfer(), 0..4))
        .prop_map(|(transfer, deps)| TransferMsg { transfer, deps })
}

fn client_request() -> impl Strategy<Value = ClientRequest> {
    (any::<u64>(), 0u32..8, 0u64..10_000, any::<bool>()).prop_map(|(id, acct, amt, is_read)| {
        ClientRequest {
            id,
            op: if is_read {
                ClientOp::Read {
                    account: AccountId::new(acct),
                }
            } else {
                ClientOp::Transfer {
                    destination: AccountId::new(acct),
                    amount: Amount::new(amt),
                }
            },
        }
    })
}

fn frame() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..128),
        client_request(),
        snapshot(),
        trace_log(),
        0u32..26,
    )
        .prop_map(
            |(a, b, payload, request, snapshot, log, pick)| match pick % 13 {
                0 => Frame::HelloNode {
                    node: ProcessId::new((a % 16) as u32),
                    epoch: b,
                },
                1 => Frame::HelloAck { next_seq: a },
                2 => Frame::Data { seq: a, payload },
                3 => Frame::DataAck { through: a },
                4 => Frame::HelloClient,
                5 => Frame::Request(request),
                7 => Frame::StatsRequest { id: a },
                8 => Frame::StatsResponse { id: a, snapshot },
                9 => Frame::TraceRequest { id: a },
                10 => Frame::TraceResponse { id: a, log },
                11 => Frame::SnapshotRequest {
                    id: a,
                    // Cover the header probe (u64::MAX), the fresh cut
                    // (0), and resume offsets.
                    offset: match b % 3 {
                        0 => u64::MAX,
                        1 => 0,
                        _ => b,
                    },
                },
                12 => Frame::SnapshotChunk {
                    id: a,
                    offset: b,
                    total: b.wrapping_mul(31),
                    digest: a ^ b,
                    bytes: payload.clone(),
                },
                _ => Frame::Response(ClientResponse {
                    id: a,
                    body: match b % 3 {
                        0 => ResponseBody::Committed {
                            seq: SeqNo::new(b | 1),
                        },
                        1 => ResponseBody::Rejected {
                            available: Amount::new(b),
                        },
                        _ => ResponseBody::Balance {
                            amount: Amount::new(b),
                        },
                    },
                }),
            },
        )
}

proptest! {
    /// Every frame round-trips through the full stream layer.
    #[test]
    fn frames_roundtrip(frame in frame()) {
        let bytes = encode_frame(&frame);
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        let back = buffer.next_frame().expect("valid frame").expect("complete");
        prop_assert_eq!(back, frame);
        prop_assert_eq!(buffer.buffered(), 0);
    }

    /// Truncating a valid frame at any point yields "need more bytes"
    /// or an error — never a bogus frame, never a panic.
    #[test]
    fn truncated_frames_never_decode(frame in frame(), cut in 0usize..64) {
        let bytes = encode_frame(&frame);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes[..cut]);
        match buffer.next_frame() {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
        }
    }

    /// The frame-body decoder is total on garbage.
    #[test]
    fn garbage_bodies_error_not_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame_body(&bytes);
        let _ = decode_peer_payload::<BrachaMsg<Batch<TransferMsg>>>(&bytes);
        let _ = decode_peer_payload::<EchoMsg<Batch<TransferMsg>, ()>>(&bytes);
        let _ = decode_peer_payload::<PbftWire>(&bytes);
        let _ = decode::<Frame>(&bytes);
    }

    /// Garbage fed through the stream layer in chunks never panics and
    /// never makes the buffer grow past its input.
    #[test]
    fn garbage_streams_are_bounded(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buffer = FrameBuffer::new();
        let mut fed = 0usize;
        for chunk in bytes.chunks(13) {
            buffer.extend(chunk);
            fed += chunk.len();
            loop {
                match buffer.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return Ok(()), // poisoned stream: connection would drop
                }
            }
            prop_assert!(buffer.buffered() <= fed);
        }
    }

    /// Backend messages round-trip as versioned peer payloads, traced
    /// batches (the optional context riding the canonical encoding)
    /// included.
    #[test]
    fn peer_payloads_roundtrip(
        items in prop::collection::vec(transfer_msg(), 0..5),
        seq in 1u64..50,
        trace in prop::option::of((any::<u64>(), 0u32..16, any::<u8>())),
    ) {
        let trace = trace.map(|(id, origin, hops)| TraceCtx { id, origin, hops });
        let msg: BrachaMsg<Batch<TransferMsg>> = BrachaMsg::Init {
            seq: SeqNo::new(seq),
            payload: Batch::new(items).with_trace(trace),
        };
        let bytes = encode_peer_payload(&msg);
        let back: BrachaMsg<Batch<TransferMsg>> = decode_peer_payload(&bytes).expect("roundtrip");
        prop_assert_eq!(&back, &msg);
        // The PBFT baseline's proposal for the same batch; any strict
        // prefix of it is refused, and so is a tag past the last variant.
        let BrachaMsg::Init { seq, payload } = msg else { unreachable!() };
        let msg: PbftWire = PbftMsg::PrePrepare {
            view: 0,
            seq: seq.value(),
            batch: vec![(ProcessId::new(1), seq, payload)],
        };
        let mut bytes = encode_peer_payload(&msg);
        prop_assert_eq!(&decode_peer_payload::<PbftWire>(&bytes).expect("roundtrip"), &msg);
        for cut in 0..bytes.len() {
            prop_assert!(decode_peer_payload::<PbftWire>(&bytes[..cut]).is_err(), "prefix {}", cut);
        }
        bytes[1] = 6; // the variant tag follows the version byte
        prop_assert!(decode_peer_payload::<PbftWire>(&bytes).is_err());
    }

    /// Rewriting the kind byte of a valid frame (stats request read as a
    /// trace response, data read as a hello, every other confusion) is
    /// total: some frame or an error, never a panic, and the buffer
    /// never retains more than it was fed.
    #[test]
    fn kind_confusion_never_panics(frame in frame(), kind in any::<u8>()) {
        let mut bytes = encode_frame(&frame);
        bytes[5] = kind;
        let fed = bytes.len();
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        match buffer.next_frame() {
            Ok(Some(_)) | Ok(None) | Err(_) => {}
        }
        prop_assert!(buffer.buffered() <= fed);
    }

    /// A length prefix above the cap is rejected no matter what follows,
    /// before any allocation proportional to the declared length.
    #[test]
    fn oversized_prefixes_rejected(extra in 1u32..1024, junk in prop::collection::vec(any::<u8>(), 0..32)) {
        let declared = MAX_FRAME_LEN + extra;
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend_from_slice(&junk);
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        prop_assert_eq!(
            buffer.next_frame(),
            Err(WireError::FrameTooLarge { declared })
        );
    }

    /// Any version byte but the current one is rejected for any frame.
    #[test]
    fn wrong_versions_rejected(frame in frame(), version in any::<u8>()) {
        prop_assume!(version != WIRE_VERSION);
        let mut bytes = encode_frame(&frame);
        bytes[4] = version;
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        prop_assert_eq!(buffer.next_frame(), Err(WireError::BadVersion { got: version }));
    }
}

/// Deterministic spot check: a maximal-ish legitimate batch stays far
/// under the frame cap, so the cap never bites honest traffic.
#[test]
fn honest_batches_fit_comfortably() {
    let items: Vec<TransferMsg> = (1..=1024u64)
        .map(|seq| TransferMsg {
            transfer: Transfer::new(
                AccountId::new(0),
                AccountId::new(1),
                Amount::new(seq),
                ProcessId::new(0),
                SeqNo::new(seq),
            ),
            deps: vec![],
        })
        .collect();
    let msg: BrachaMsg<Batch<TransferMsg>> = BrachaMsg::Init {
        seq: SeqNo::new(1),
        payload: Batch::new(items),
    };
    let bytes = encode(&msg);
    assert!(bytes.len() < MAX_FRAME_LEN as usize / 8);
    let back: BrachaMsg<Batch<TransferMsg>> = decode(&bytes).expect("roundtrip");
    assert_eq!(back, msg);
}
