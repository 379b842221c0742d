//! The TCP client library: connect to a node's client gateway, pipeline
//! transfers, track acknowledgements, read balances.
//!
//! A [`Client`] is deliberately synchronous and single-threaded —
//! submissions return as soon as the request frame is written
//! (*pipelining*), and responses are pulled with
//! [`Client::recv_response`] whenever the caller wants them. The client
//! tracks how many transfer requests are still unacknowledged
//! ([`Client::outstanding`]), which is all a closed-loop load generator
//! needs to cap its in-flight window.

use crate::wire::{
    encode_frame, ClientOp, ClientRequest, ClientResponse, Frame, FrameBuffer, ResponseBody,
};
use at_model::{AccountId, Amount};
use at_obs::{Snapshot, TraceLog};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A connection to one node's client gateway.
pub struct Client {
    stream: TcpStream,
    buffer: FrameBuffer,
    next_id: u64,
    outstanding: u64,
    /// Stats, trace and snapshot frames that arrived while waiting for
    /// operation responses (pipelining can interleave them), until the
    /// [`Client::round_trip`] that asked claims each by its request id.
    stash: Vec<Frame>,
}

/// One slice of a node's encoded [`at_engine::LedgerSnapshot`], as
/// served by a [`Frame::SnapshotChunk`](crate::wire::Frame) response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSlice {
    /// The request id this slice answers.
    pub id: u64,
    /// Byte offset of `bytes` within the encoded snapshot (`u64::MAX`
    /// answers a header probe).
    pub offset: u64,
    /// Total encoded snapshot length in bytes.
    pub total: u64,
    /// Digest of the snapshot cut being served — constant across the
    /// chunks of one consistent transfer.
    pub digest: u64,
    /// The slice itself (empty on a header probe or a past-the-end
    /// offset).
    pub bytes: Vec<u8>,
}

/// What one [`Client::recv_incoming`] step handled.
enum Incoming {
    /// An operation (transfer / read) response.
    Op(ClientResponse),
    /// A stats, trace, or snapshot frame, stashed for the round trip
    /// that asked for it to claim.
    Stashed,
    /// The deadline passed with nothing decoded.
    Timeout,
}

impl Client {
    /// Connects and performs the `HelloClient` handshake.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        (&stream).write_all(&encode_frame(&Frame::HelloClient))?;
        Ok(Client {
            stream,
            buffer: FrameBuffer::new(),
            next_id: 0,
            outstanding: 0,
            stash: Vec::new(),
        })
    }

    /// Submits a transfer without waiting for its outcome; returns the
    /// request id the eventual [`ResponseBody::Committed`] /
    /// [`ResponseBody::Rejected`] response will echo.
    pub fn submit_transfer(
        &mut self,
        destination: AccountId,
        amount: Amount,
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = Frame::Request(ClientRequest {
            id,
            op: ClientOp::Transfer {
                destination,
                amount,
            },
        });
        (&self.stream).write_all(&encode_frame(&frame))?;
        self.outstanding += 1;
        Ok(id)
    }

    /// Transfer requests submitted but not yet answered.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Waits up to `timeout` for the next response (any pipelined
    /// request); `Ok(None)` on timeout. Transfer outcomes decrement
    /// [`Client::outstanding`].
    pub fn recv_response(&mut self, timeout: Duration) -> std::io::Result<Option<ClientResponse>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.recv_incoming(deadline)? {
                Incoming::Op(response) => return Ok(Some(response)),
                // A stats / trace / snapshot frame was stashed for its
                // dedicated accessor; keep waiting for an operation
                // response.
                Incoming::Stashed => continue,
                Incoming::Timeout => return Ok(None),
            }
        }
    }

    /// Processes incoming frames until one operation response arrives,
    /// one non-operation frame is stashed, or the deadline passes.
    /// Returning on *every* handled frame (not just operation responses)
    /// is what keeps the synchronous round trips latency-bound: a stats
    /// / trace / snapshot wrapper regains control the moment its reply
    /// lands instead of spinning inside here until its full timeout.
    fn recv_incoming(&mut self, deadline: Instant) -> std::io::Result<Incoming> {
        let mut chunk = [0u8; crate::wire::READ_CHUNK];
        loop {
            match self.buffer.next_frame() {
                Ok(Some(Frame::Response(response))) => {
                    if matches!(
                        response.body,
                        ResponseBody::Committed { .. } | ResponseBody::Rejected { .. }
                    ) {
                        self.outstanding = self.outstanding.saturating_sub(1);
                    }
                    return Ok(Incoming::Op(response));
                }
                Ok(Some(frame)) if reply_id(&frame).is_some() => {
                    self.stash.push(frame);
                    return Ok(Incoming::Stashed);
                }
                Ok(Some(_)) => return Err(unexpected_frame()),
                Ok(None) => {}
                Err(err) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, err)),
            }
            if Instant::now() >= deadline {
                return Ok(Incoming::Timeout);
            }
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "node closed the connection",
                    ))
                }
                Ok(read) => self.buffer.extend(&chunk[..read]),
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// One synchronous non-operation round trip: sends the frame
    /// `request` makes of a fresh request id, then reads until the
    /// reply echoing that id is in the stash and returns it. Pipelined
    /// transfer acknowledgements that arrive first are consumed and
    /// counted, not lost.
    fn round_trip(
        &mut self,
        request: impl FnOnce(u64) -> Frame,
        timeout: Duration,
    ) -> std::io::Result<Frame> {
        let id = self.next_id;
        self.next_id += 1;
        (&self.stream).write_all(&encode_frame(&request(id)))?;
        let deadline = Instant::now() + timeout;
        loop {
            let claimed = |frame: &Frame| reply_id(frame) == Some(id);
            if let Some(at) = self.stash.iter().position(claimed) {
                return Ok(self.stash.swap_remove(at));
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no reply to a stats, trace or snapshot request",
                ));
            }
            // Drains interleaved operation responses; the reply lands
            // in the stash for the check above.
            let _ = self.recv_incoming(deadline)?;
        }
    }

    /// Scrapes the node's metric snapshot (a synchronous round trip).
    pub fn stats(&mut self, timeout: Duration) -> std::io::Result<Snapshot> {
        match self.round_trip(|id| Frame::StatsRequest { id }, timeout)? {
            Frame::StatsResponse { snapshot, .. } => Ok(snapshot),
            _ => Err(unexpected_frame()),
        }
    }

    /// Scrapes the node's trace-event ring (a synchronous round trip).
    /// The log is empty when the node runs without tracing.
    pub fn trace(&mut self, timeout: Duration) -> std::io::Result<TraceLog> {
        match self.round_trip(|id| Frame::TraceRequest { id }, timeout)? {
            Frame::TraceResponse { log, .. } => Ok(log),
            _ => Err(unexpected_frame()),
        }
    }

    /// Requests one snapshot slice at `offset` (a synchronous round
    /// trip): offset 0 makes the node cut a fresh snapshot, `u64::MAX`
    /// probes the header (total length + digest, no body), anything
    /// else resumes an earlier transfer from the node's cached cut.
    pub fn snapshot_chunk(
        &mut self,
        offset: u64,
        timeout: Duration,
    ) -> std::io::Result<SnapshotSlice> {
        match self.round_trip(|id| Frame::SnapshotRequest { id, offset }, timeout)? {
            Frame::SnapshotChunk {
                id,
                offset,
                total,
                digest,
                bytes,
            } => Ok(SnapshotSlice {
                id,
                offset,
                total,
                digest,
                bytes,
            }),
            _ => Err(unexpected_frame()),
        }
    }

    /// Probes the node's snapshot header without transferring the body:
    /// `(total encoded length, digest)`. Bootstrap runs this against
    /// several peers and requires `f + 1` matching digests before
    /// downloading from any of them (the quorum attestation).
    pub fn snapshot_header(&mut self, timeout: Duration) -> std::io::Result<(u64, u64)> {
        let slice = self.snapshot_chunk(u64::MAX, timeout)?;
        Ok((slice.total, slice.digest))
    }

    /// Downloads the node's full encoded snapshot chunk by chunk,
    /// per-chunk timeout `timeout`. A digest change mid-transfer (the
    /// node re-cut under a concurrent bootstrap) restarts the download
    /// from offset 0; a handful of restarts without progress is an
    /// error. Decode the bytes with
    /// [`at_model::codec::decode::<at_engine::LedgerSnapshot>`](at_model::codec::decode)
    /// and check [`at_engine::LedgerSnapshot::verify`] before trusting
    /// them.
    pub fn fetch_snapshot(&mut self, timeout: Duration) -> std::io::Result<Vec<u8>> {
        let mut restarts = 0;
        'restart: loop {
            let first = self.snapshot_chunk(0, timeout)?;
            let (total, digest) = (first.total, first.digest);
            let mut bytes = first.bytes;
            while (bytes.len() as u64) < total {
                let slice = self.snapshot_chunk(bytes.len() as u64, timeout)?;
                if slice.digest != digest || slice.bytes.is_empty() {
                    restarts += 1;
                    if restarts > 5 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "snapshot cut keeps changing mid-transfer",
                        ));
                    }
                    continue 'restart;
                }
                bytes.extend_from_slice(&slice.bytes);
            }
            return Ok(bytes);
        }
    }

    /// Reads `account`'s balance as seen by the connected node (a
    /// synchronous round trip). Pipelined transfer acknowledgements that
    /// arrive first are consumed and counted, not lost.
    pub fn read_balance(
        &mut self,
        account: AccountId,
        timeout: Duration,
    ) -> std::io::Result<Amount> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = Frame::Request(ClientRequest {
            id,
            op: ClientOp::Read { account },
        });
        (&self.stream).write_all(&encode_frame(&frame))?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no balance response",
                ));
            }
            match self.recv_response(remaining)? {
                Some(ClientResponse {
                    id: got,
                    body: ResponseBody::Balance { amount },
                }) if got == id => return Ok(amount),
                Some(_) => continue,
                None => continue,
            }
        }
    }
}

/// The request id a stats, trace or snapshot reply echoes; `None` for
/// every other frame. Ids are drawn from one counter per connection, so
/// an id names its request whatever the kind.
fn reply_id(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::StatsResponse { id, .. }
        | Frame::TraceResponse { id, .. }
        | Frame::SnapshotChunk { id, .. } => Some(*id),
        _ => None,
    }
}

fn unexpected_frame() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "frame from node answers no request of this client",
    )
}
