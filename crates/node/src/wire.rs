//! The versioned binary wire protocol.
//!
//! Everything that crosses a socket in this runtime is a *frame*:
//!
//! ```text
//! [ length: u32 le ][ version: u8 ][ kind: u8 ][ fields ... ]
//!                    `----------------- body -------------—´
//! ```
//!
//! `length` counts the body bytes and is bounded by [`MAX_FRAME_LEN`];
//! `version` must equal [`WIRE_VERSION`]; `kind` selects a [`Frame`]
//! variant; fields use the canonical [`at_model::codec`] encoding.
//!
//! Three sub-protocols share the frame namespace:
//!
//! * **peer links** (node ↔ node): `HelloNode`/`HelloAck` handshake,
//!   then `Data` frames carrying link-sequenced protocol bytes with
//!   `DataAck` flowing back — the reliability layer
//!   [`crate::tcp::TcpTransport`] builds over reconnecting TCP;
//! * **client links** (client ↔ node): `HelloClient`, then pipelined
//!   `Request`/`Response` frames, plus `StatsRequest`/`StatsResponse`
//!   for scraping the node's [`at_obs`] metric snapshot over the same
//!   link ([`crate::Client::stats`]) and `TraceRequest`/`TraceResponse`
//!   for scraping its causal trace-event ring
//!   ([`crate::Client::trace`]);
//! * **backend payloads**: the bytes inside `Data` are themselves
//!   versioned ([`encode_peer_payload`]), so an in-process transport
//!   that skips the TCP envelope still carries versioned bytes.
//!
//! # Robustness contract
//!
//! Decoding is total on untrusted input: truncated frames, oversized
//! length prefixes, wrong version bytes, and unknown kinds all return
//! [`WireError`] — no panic, and no allocation driven by a declared
//! length (buffers only grow with bytes actually received). The fuzz
//! tests in `crates/node/tests/wire_codec.rs` hold this line.

use at_model::codec::{decode, Decode, Encode, Reader, Writer};
use at_model::{AccountId, Amount, CodecError, ProcessId, SeqNo};
use at_obs::{Snapshot, TraceLog};
use std::fmt;

/// Current wire protocol version. Bumped on any incompatible change;
/// endpoints reject frames with any other value. Version 2 added the
/// optional trace context on broadcast batch payloads and the
/// `TraceRequest`/`TraceResponse` scrape frames. Version 3 added the
/// `SnapshotRequest`/`SnapshotChunk` catch-up frames.
pub const WIRE_VERSION: u8 = 3;

/// Maximum frame body length (8 MiB) — a denial-of-service guard on
/// untrusted length prefixes, far above any legitimate batch.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Read-chunk size shared by every socket reader in the runtime (peer
/// links, ack channels, client gateway, client library).
pub const READ_CHUNK: usize = 16 * 1024;

/// A wire protocol failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A frame declared a body longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared body length.
        declared: u32,
    },
    /// The version byte did not match [`WIRE_VERSION`].
    BadVersion {
        /// The version received.
        got: u8,
    },
    /// A frame of an unexpected kind arrived on this link (e.g. a client
    /// frame on a peer link).
    UnexpectedFrame {
        /// What the link expected.
        expected: &'static str,
    },
    /// The body failed canonical decoding.
    Codec(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame body of {declared} bytes exceeds {MAX_FRAME_LEN}")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "wire version {got} (this endpoint speaks {WIRE_VERSION})"
                )
            }
            WireError::UnexpectedFrame { expected } => {
                write!(f, "unexpected frame kind (expected {expected})")
            }
            WireError::Codec(err) => write!(f, "malformed frame body: {err}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(err: CodecError) -> Self {
        WireError::Codec(err)
    }
}

/// A client's request to a node, tagged with a client-chosen pipelining
/// id echoed in the matching [`ClientResponse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientRequest {
    /// Client-chosen request id (echoed in the response).
    pub id: u64,
    /// The requested operation.
    pub op: ClientOp,
}

/// The operations a client can request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// Transfer `amount` from the node's own account to `destination`.
    Transfer {
        /// The destination account.
        destination: AccountId,
        /// The amount to move.
        amount: Amount,
    },
    /// Read the node's current local balance of `account`.
    Read {
        /// The account to read.
        account: AccountId,
    },
}

/// A node's response to one [`ClientRequest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientResponse {
    /// The request id being answered.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// Outcome of a client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// The transfer was admitted, broadcast, and validated locally
    /// (Figure 4's `return true`) — sent when the replica completes it.
    Committed {
        /// The transfer's sequence number at the submitting replica.
        seq: SeqNo,
    },
    /// The transfer failed admission: the available balance (current
    /// balance minus in-flight reservations) cannot fund it. The second
    /// transfer of a double-spend attempt lands here.
    Rejected {
        /// The available balance at admission time.
        available: Amount,
    },
    /// The balance observed by a read.
    Balance {
        /// The balance.
        amount: Amount,
    },
}

/// Every frame of the wire protocol (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Peer-link handshake: the dialing node identifies itself.
    HelloNode {
        /// The dialer's process id.
        node: ProcessId,
        /// The dialer's transport incarnation. A restarted node starts a
        /// fresh epoch; the acceptor resets its expected link sequence to
        /// 0 when the epoch changes, so the new incarnation's outbox
        /// numbering (which restarts at 0) is not mistaken for
        /// duplicates.
        epoch: u64,
    },
    /// Peer-link handshake reply: the acceptor names the next link
    /// sequence number it expects, so a reconnecting dialer resumes
    /// exactly where the previous connection left off.
    HelloAck {
        /// Next expected [`Frame::Data`] sequence number.
        next_seq: u64,
    },
    /// A link-sequenced protocol payload ([`encode_peer_payload`] bytes).
    Data {
        /// Per-link sequence number (consecutive from 0 per direction).
        seq: u64,
        /// The versioned backend-message bytes.
        payload: Vec<u8>,
    },
    /// Cumulative receive acknowledgement: every `Data` frame with
    /// `seq <= through` arrived, so the sender can prune its replay
    /// buffer.
    DataAck {
        /// Highest contiguously received sequence number.
        through: u64,
    },
    /// Client-link handshake.
    HelloClient,
    /// A client operation.
    Request(ClientRequest),
    /// A node's answer.
    Response(ClientResponse),
    /// A client's request for the node's metric snapshot, tagged with a
    /// pipelining id like [`ClientRequest`].
    StatsRequest {
        /// Client-chosen request id (echoed in the response).
        id: u64,
    },
    /// The node's metric snapshot, answering one [`Frame::StatsRequest`].
    StatsResponse {
        /// The request id being answered.
        id: u64,
        /// Every metric the node's registry held at capture time.
        snapshot: Snapshot,
    },
    /// A client's request for the node's trace-event ring, tagged with a
    /// pipelining id like [`ClientRequest`].
    TraceRequest {
        /// Client-chosen request id (echoed in the response).
        id: u64,
    },
    /// The node's trace-event log, answering one [`Frame::TraceRequest`].
    /// A node with tracing disabled answers with an empty log.
    TraceResponse {
        /// The request id being answered.
        id: u64,
        /// The node's trace ring at capture time.
        log: TraceLog,
    },
    /// A bootstrap client's request for one chunk of the node's ledger
    /// snapshot, starting at `offset` bytes into the encoded snapshot.
    /// `offset == u64::MAX` is the header probe: the node answers with
    /// an empty chunk carrying only `total` and `digest`, which the
    /// requester cross-checks across peers for quorum attestation before
    /// downloading anyone's bytes. `offset == 0` asks the node to cut a
    /// fresh snapshot; non-zero offsets resume the one it cut last.
    SnapshotRequest {
        /// Client-chosen request id (echoed in the chunk).
        id: u64,
        /// Byte offset into the encoded snapshot, or `u64::MAX` to probe.
        offset: u64,
    },
    /// One chunk of an encoded [`at_engine::LedgerSnapshot`], answering
    /// one [`Frame::SnapshotRequest`]. The transfer is resumable: a
    /// requester that crashed mid-download re-requests from the offset
    /// it last persisted, and restarts from 0 if `digest` no longer
    /// matches (the serving node cut a newer snapshot meanwhile).
    SnapshotChunk {
        /// The request id being answered.
        id: u64,
        /// Byte offset of `bytes` within the encoded snapshot.
        offset: u64,
        /// Total encoded snapshot length in bytes.
        total: u64,
        /// The snapshot's digest (cheap cross-peer attestation check;
        /// the full check is decoding and verifying the assembled
        /// snapshot).
        digest: u64,
        /// The chunk payload (empty for a header probe).
        bytes: Vec<u8>,
    },
}

impl Encode for ClientRequest {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        match self.op {
            ClientOp::Transfer {
                destination,
                amount,
            } => {
                w.put_u8(0);
                destination.encode(w);
                amount.encode(w);
            }
            ClientOp::Read { account } => {
                w.put_u8(1);
                account.encode(w);
            }
        }
    }
}

impl Decode for ClientRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = u64::decode(r)?;
        let op = match r.take_u8()? {
            0 => ClientOp::Transfer {
                destination: AccountId::decode(r)?,
                amount: Amount::decode(r)?,
            },
            1 => ClientOp::Read {
                account: AccountId::decode(r)?,
            },
            tag => {
                return Err(CodecError::InvalidTag {
                    type_name: "ClientOp",
                    tag,
                })
            }
        };
        Ok(ClientRequest { id, op })
    }
}

impl Encode for ClientResponse {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        match self.body {
            ResponseBody::Committed { seq } => {
                w.put_u8(0);
                seq.encode(w);
            }
            ResponseBody::Rejected { available } => {
                w.put_u8(1);
                available.encode(w);
            }
            ResponseBody::Balance { amount } => {
                w.put_u8(2);
                amount.encode(w);
            }
        }
    }
}

impl Decode for ClientResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = u64::decode(r)?;
        let body = match r.take_u8()? {
            0 => ResponseBody::Committed {
                seq: SeqNo::decode(r)?,
            },
            1 => ResponseBody::Rejected {
                available: Amount::decode(r)?,
            },
            2 => ResponseBody::Balance {
                amount: Amount::decode(r)?,
            },
            tag => {
                return Err(CodecError::InvalidTag {
                    type_name: "ResponseBody",
                    tag,
                })
            }
        };
        Ok(ClientResponse { id, body })
    }
}

impl Encode for Frame {
    fn encode(&self, w: &mut Writer) {
        match self {
            Frame::HelloNode { node, epoch } => {
                w.put_u8(0);
                node.encode(w);
                epoch.encode(w);
            }
            Frame::HelloAck { next_seq } => {
                w.put_u8(1);
                next_seq.encode(w);
            }
            Frame::Data { seq, payload } => {
                w.put_u8(2);
                seq.encode(w);
                payload.encode(w);
            }
            Frame::DataAck { through } => {
                w.put_u8(3);
                through.encode(w);
            }
            Frame::HelloClient => w.put_u8(4),
            Frame::Request(request) => {
                w.put_u8(5);
                request.encode(w);
            }
            Frame::Response(response) => {
                w.put_u8(6);
                response.encode(w);
            }
            Frame::StatsRequest { id } => {
                w.put_u8(7);
                id.encode(w);
            }
            Frame::StatsResponse { id, snapshot } => {
                w.put_u8(8);
                id.encode(w);
                snapshot.encode(w);
            }
            Frame::TraceRequest { id } => {
                w.put_u8(9);
                id.encode(w);
            }
            Frame::TraceResponse { id, log } => {
                w.put_u8(10);
                id.encode(w);
                log.encode(w);
            }
            Frame::SnapshotRequest { id, offset } => {
                w.put_u8(11);
                id.encode(w);
                offset.encode(w);
            }
            Frame::SnapshotChunk {
                id,
                offset,
                total,
                digest,
                bytes,
            } => {
                w.put_u8(12);
                id.encode(w);
                offset.encode(w);
                total.encode(w);
                digest.encode(w);
                bytes.encode(w);
            }
        }
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        FrameRef::decode_from(r).map(FrameRef::into_owned)
    }
}

impl Frame {
    /// Decodes the frame tagged `tag`, any but [`Frame::Data`] (which
    /// [`FrameRef::decode_from`] takes without copying).
    fn decode_other(tag: u8, r: &mut Reader<'_>) -> Result<Frame, CodecError> {
        match tag {
            0 => Ok(Frame::HelloNode {
                node: ProcessId::decode(r)?,
                epoch: u64::decode(r)?,
            }),
            1 => Ok(Frame::HelloAck {
                next_seq: u64::decode(r)?,
            }),
            3 => Ok(Frame::DataAck {
                through: u64::decode(r)?,
            }),
            4 => Ok(Frame::HelloClient),
            5 => Ok(Frame::Request(ClientRequest::decode(r)?)),
            6 => Ok(Frame::Response(ClientResponse::decode(r)?)),
            7 => Ok(Frame::StatsRequest {
                id: u64::decode(r)?,
            }),
            8 => Ok(Frame::StatsResponse {
                id: u64::decode(r)?,
                snapshot: Snapshot::decode(r)?,
            }),
            9 => Ok(Frame::TraceRequest {
                id: u64::decode(r)?,
            }),
            10 => Ok(Frame::TraceResponse {
                id: u64::decode(r)?,
                log: TraceLog::decode(r)?,
            }),
            11 => Ok(Frame::SnapshotRequest {
                id: u64::decode(r)?,
                offset: u64::decode(r)?,
            }),
            12 => Ok(Frame::SnapshotChunk {
                id: u64::decode(r)?,
                offset: u64::decode(r)?,
                total: u64::decode(r)?,
                digest: u64::decode(r)?,
                bytes: r.take_len_prefixed()?.to_vec(),
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "Frame",
                tag,
            }),
        }
    }
}

/// A [`Frame`] whose `Data` payload *borrows* from the receive buffer
/// instead of copying it. This is the hot-path view: a reader can
/// inspect the link sequence number, run dedup, and decode the payload
/// in place, copying bytes out only for frames it actually accepts
/// (see [`FrameBuffer::next_frame_ref`]). Decoding is exactly as total
/// on untrusted input as the owned [`Frame`] path — the two share one
/// parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// See [`Frame::Data`] — the payload borrows from the receive buffer.
    Data {
        /// Per-link sequence number.
        seq: u64,
        /// The versioned backend-message bytes, in place.
        payload: &'a [u8],
    },
    /// Any other frame: nothing in it is worth borrowing, so it is
    /// decoded straight into its owned form.
    Other(Frame),
}

impl<'a> FrameRef<'a> {
    /// Parses one frame from `r`, borrowing `Data` payload bytes.
    fn decode_from(r: &mut Reader<'a>) -> Result<FrameRef<'a>, CodecError> {
        match r.take_u8()? {
            2 => Ok(FrameRef::Data {
                seq: u64::decode(r)?,
                // Same framing and length cap as `Vec<u8>`'s canonical
                // decoding, without materializing the bytes.
                payload: r.take_len_prefixed()?,
            }),
            tag => Frame::decode_other(tag, r).map(FrameRef::Other),
        }
    }

    /// The owned [`Frame`]: the one place `Data` payload bytes are copied.
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Data { seq, payload } => Frame::Data {
                seq,
                payload: payload.to_vec(),
            },
            FrameRef::Other(frame) => frame,
        }
    }
}

/// Encodes `frame` ready for a stream: length prefix, version byte, body.
///
/// # Panics
///
/// Panics if the body would exceed [`MAX_FRAME_LEN`] — impossible for
/// frames this runtime produces (batch sizes are bounded far below it),
/// and a programming error rather than an input error when it happens.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Appends the full stream encoding of `frame` (length prefix, version
/// byte, body) to `out`. Writers coalescing several frames into one
/// socket write use this to build the combined buffer without
/// per-frame allocations.
///
/// # Panics
///
/// Panics if the body would exceed [`MAX_FRAME_LEN`], like
/// [`encode_frame`].
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let mut body = Writer::new();
    body.put_u8(WIRE_VERSION);
    frame.encode(&mut body);
    let body = body.into_bytes();
    assert!(
        body.len() <= MAX_FRAME_LEN as usize,
        "outgoing frame body of {} bytes exceeds MAX_FRAME_LEN",
        body.len()
    );
    out.reserve(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decodes one frame *body* (the bytes after the length prefix):
/// version check, then the tagged [`Frame`].
pub fn decode_frame_body(body: &[u8]) -> Result<Frame, WireError> {
    decode_frame_body_ref(body).map(FrameRef::into_owned)
}

/// Borrowing variant of [`decode_frame_body`]: the returned frame's
/// `Data` payload points into `body`.
pub fn decode_frame_body_ref(body: &[u8]) -> Result<FrameRef<'_>, WireError> {
    let mut r = Reader::new(body);
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let frame = FrameRef::decode_from(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Codec(CodecError::TrailingBytes {
            remaining: r.remaining(),
        }));
    }
    Ok(frame)
}

/// Encodes a backend protocol message as a versioned peer payload (the
/// bytes a [`Frame::Data`] carries, and what an in-process transport
/// moves directly).
pub fn encode_peer_payload<M: Encode>(msg: &M) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    msg.encode(&mut w);
    w.into_bytes()
}

/// Decodes a versioned peer payload back into a backend message.
pub fn decode_peer_payload<M: Decode>(bytes: &[u8]) -> Result<M, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let remaining = r.take_bytes(r.remaining())?;
    Ok(decode::<M>(remaining)?)
}

/// Incremental frame extractor over a byte stream.
///
/// Feed received chunks with [`FrameBuffer::extend`]; pull complete
/// frames with [`FrameBuffer::next_frame`]. The length prefix of the
/// frame being assembled is validated against [`MAX_FRAME_LEN`] *before*
/// any body bytes are awaited, so a hostile peer cannot make the buffer
/// grow beyond one maximal frame plus one read chunk.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read position inside `buf` (consumed bytes are compacted away
    /// once the buffer is drained or grows past a threshold).
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends received bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        // Compact before growing: keeps the buffer bounded by
        // (unconsumed bytes + chunk) instead of the whole stream history.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed, or an error when the stream is unrecoverably malformed
    /// (the connection should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_frame_ref()?.map(FrameRef::into_owned))
    }

    /// Whether a complete frame is buffered, without decoding its body.
    /// Lets a reader block for bytes first and only then borrow the
    /// frame via [`FrameBuffer::next_frame_ref`].
    ///
    /// # Errors
    ///
    /// An oversized declared length is unrecoverable, exactly as in
    /// [`FrameBuffer::next_frame`].
    pub fn has_complete_frame(&self) -> Result<bool, WireError> {
        let available = &self.buf[self.pos..];
        if available.len() < 4 {
            return Ok(false);
        }
        let declared = u32::from_le_bytes([available[0], available[1], available[2], available[3]]);
        if declared > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { declared });
        }
        Ok(available.len() >= 4 + declared as usize)
    }

    /// Zero-copy variant of [`FrameBuffer::next_frame`]: the returned
    /// frame's `Data` payload borrows from the buffer, valid until the
    /// next call that touches the buffer. Consumers copy the payload
    /// out only for frames they accept (fresh sequence numbers), so
    /// replayed duplicates cost no allocation at all.
    pub fn next_frame_ref(&mut self) -> Result<Option<FrameRef<'_>>, WireError> {
        let available = &self.buf[self.pos..];
        if available.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([available[0], available[1], available[2], available[3]]);
        if declared > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { declared });
        }
        let total = 4 + declared as usize;
        if available.len() < total {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += total;
        let frame = decode_frame_body_ref(&self.buf[start + 4..start + total])?;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_the_stream_layer() {
        let frames = vec![
            Frame::HelloNode {
                node: ProcessId::new(3),
                epoch: 0xFACE,
            },
            Frame::HelloAck { next_seq: 17 },
            Frame::Data {
                seq: 0,
                payload: vec![WIRE_VERSION, 1, 2, 3],
            },
            Frame::DataAck { through: 16 },
            Frame::HelloClient,
            Frame::Request(ClientRequest {
                id: 9,
                op: ClientOp::Transfer {
                    destination: AccountId::new(2),
                    amount: Amount::new(50),
                },
            }),
            Frame::Request(ClientRequest {
                id: 10,
                op: ClientOp::Read {
                    account: AccountId::new(0),
                },
            }),
            Frame::Response(ClientResponse {
                id: 9,
                body: ResponseBody::Committed { seq: SeqNo::new(1) },
            }),
            Frame::Response(ClientResponse {
                id: 11,
                body: ResponseBody::Rejected {
                    available: Amount::new(3),
                },
            }),
            Frame::Response(ClientResponse {
                id: 10,
                body: ResponseBody::Balance {
                    amount: Amount::new(1000),
                },
            }),
            Frame::StatsRequest { id: 12 },
            Frame::StatsResponse {
                id: 12,
                snapshot: {
                    let reg = at_obs::Registry::new("node 3");
                    reg.counter("node_committed_total").add(7);
                    reg.histogram("stage_apply_us").record(42);
                    reg.snapshot()
                },
            },
            Frame::TraceRequest { id: 13 },
            Frame::TraceResponse {
                id: 13,
                log: {
                    let tracer = at_obs::Tracer::new(2, at_obs::TraceConfig::always());
                    let ctx = tracer.maybe_mint().expect("always-on sampling");
                    tracer.record(ctx, at_obs::TraceEventKind::Ingress, 1);
                    tracer.record(ctx.hopped(), at_obs::TraceEventKind::Ack, 250);
                    tracer.log()
                },
            },
            Frame::SnapshotRequest {
                id: 14,
                offset: u64::MAX,
            },
            Frame::SnapshotChunk {
                id: 14,
                offset: 4096,
                total: 81920,
                digest: 0xDEAD_BEEF_CAFE,
                bytes: vec![7; 512],
            },
        ];
        // Stream all frames as one byte soup, delivered in 7-byte chunks.
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut buffer = FrameBuffer::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(7) {
            buffer.extend(chunk);
            while let Some(frame) = buffer.next_frame().expect("well-formed stream") {
                out.push(frame);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(buffer.buffered(), 0);
    }

    #[test]
    fn frame_ref_decode_agrees_with_owned_decode() {
        let frames = vec![
            Frame::HelloNode {
                node: ProcessId::new(1),
                epoch: 7,
            },
            Frame::HelloAck { next_seq: 2 },
            Frame::Data {
                seq: 5,
                payload: vec![9; 300],
            },
            Frame::Data {
                seq: 6,
                payload: Vec::new(),
            },
            Frame::DataAck { through: 5 },
            Frame::HelloClient,
            Frame::Request(ClientRequest {
                id: 1,
                op: ClientOp::Read {
                    account: AccountId::new(4),
                },
            }),
            Frame::Response(ClientResponse {
                id: 1,
                body: ResponseBody::Balance {
                    amount: Amount::new(8),
                },
            }),
            Frame::StatsRequest { id: 3 },
            Frame::SnapshotRequest { id: 4, offset: 0 },
            Frame::SnapshotChunk {
                id: 4,
                offset: 0,
                total: 3,
                digest: 99,
                bytes: vec![1, 2, 3],
            },
        ];
        for frame in &frames {
            let bytes = encode_frame(frame);
            let owned = decode_frame_body(&bytes[4..]).expect("owned decode");
            let borrowed = decode_frame_body_ref(&bytes[4..]).expect("borrowed decode");
            assert_eq!(&owned, frame);
            assert_eq!(borrowed.into_owned(), owned);
        }
        // A Data payload genuinely borrows from the input buffer.
        let bytes = encode_frame(&frames[2]);
        let FrameRef::Data { seq, payload } =
            decode_frame_body_ref(&bytes[4..]).expect("borrowed decode")
        else {
            panic!("expected Data");
        };
        assert_eq!(seq, 5);
        assert_eq!(payload.len(), 300);
        let body = &bytes[4..];
        let offset = payload.as_ptr() as usize - body.as_ptr() as usize;
        assert!(
            offset < body.len(),
            "payload must point into the frame body"
        );
    }

    #[test]
    fn frame_buffer_ref_path_matches_owned_path() {
        let frames = vec![
            Frame::Data {
                seq: 1,
                payload: vec![1, 2, 3],
            },
            Frame::DataAck { through: 1 },
            Frame::Data {
                seq: 2,
                payload: vec![0xAB; 64],
            },
        ];
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut buffer = FrameBuffer::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(5) {
            buffer.extend(chunk);
            while let Some(frame) = buffer.next_frame_ref().expect("well-formed stream") {
                out.push(frame.into_owned());
            }
        }
        assert_eq!(out, frames);
        assert_eq!(buffer.buffered(), 0);
    }

    #[test]
    fn encode_frame_into_appends_without_clobbering() {
        let mut out = vec![0xFF, 0xFE];
        encode_frame_into(&Frame::HelloClient, &mut out);
        encode_frame_into(&Frame::DataAck { through: 3 }, &mut out);
        assert_eq!(&out[..2], &[0xFF, 0xFE]);
        let mut buffer = FrameBuffer::new();
        buffer.extend(&out[2..]);
        assert_eq!(buffer.next_frame(), Ok(Some(Frame::HelloClient)));
        assert_eq!(buffer.next_frame(), Ok(Some(Frame::DataAck { through: 3 })));
        assert_eq!(buffer.next_frame(), Ok(None));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut buffer = FrameBuffer::new();
        buffer.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            buffer.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn wrong_version_byte_is_rejected() {
        let mut bytes = encode_frame(&Frame::HelloClient);
        bytes[4] = WIRE_VERSION + 1;
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        assert_eq!(
            buffer.next_frame(),
            Err(WireError::BadVersion {
                got: WIRE_VERSION + 1
            })
        );
        assert!(matches!(
            decode_peer_payload::<u64>(&[WIRE_VERSION + 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn trailing_bytes_in_a_frame_body_error() {
        let mut bytes = encode_frame(&Frame::HelloClient);
        // Stretch the declared length and append a junk byte.
        bytes.push(0xEE);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        assert!(matches!(
            buffer.next_frame(),
            Err(WireError::Codec(CodecError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn peer_payload_roundtrips() {
        let bytes = encode_peer_payload(&0xDEAD_BEEFu64);
        assert_eq!(bytes.len(), 9);
        assert_eq!(decode_peer_payload::<u64>(&bytes), Ok(0xDEAD_BEEFu64));
        assert!(decode_peer_payload::<u64>(&bytes[..5]).is_err());
    }

    #[test]
    fn wire_error_displays() {
        let errs: Vec<WireError> = vec![
            WireError::FrameTooLarge { declared: 1 << 30 },
            WireError::BadVersion { got: 9 },
            WireError::UnexpectedFrame { expected: "Data" },
            WireError::Codec(CodecError::InvalidUtf8),
        ];
        for err in errs {
            assert!(!err.to_string().is_empty());
        }
    }
}
