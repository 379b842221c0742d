//! The client-facing TCP listener of a node.
//!
//! Clients speak the same frame protocol as peers ([`crate::wire`]) on a
//! separate listener: a `HelloClient` handshake, then pipelined
//! `Request` frames in and `Response` frames out. Each accepted
//! connection gets a reader thread (requests → node loop) and a writer
//! thread (responses ← node loop, via the connection registry); client
//! bytes are untrusted, and a malformed stream terminates only its own
//! connection.

use crate::wire::{encode_frame_into, ClientRequest, ClientResponse, Frame, FrameBuffer};
use at_obs::{Snapshot, TraceLog};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An event surfaced to the node loop by the gateway.
pub(crate) enum GatewayEvent {
    /// A client sent a request.
    Request {
        /// Connection id (routes the response).
        conn: u64,
        /// The request.
        request: ClientRequest,
        /// When the gateway read the request off the socket — the start
        /// of the `stage_gateway_us` and `stage_e2e_us` spans.
        received: Instant,
    },
    /// A client asked for the node's metric snapshot.
    Stats {
        /// Connection id (routes the response).
        conn: u64,
        /// Request id to echo.
        id: u64,
    },
    /// A client asked for the node's trace-event ring.
    Trace {
        /// Connection id (routes the response).
        conn: u64,
        /// Request id to echo.
        id: u64,
    },
    /// A client (typically a cold-starting peer's bootstrap client)
    /// asked for a slice of the node's ledger snapshot.
    Snapshot {
        /// Connection id (routes the response).
        conn: u64,
        /// Request id to echo.
        id: u64,
        /// Requested byte offset (`u64::MAX` probes the header only).
        offset: u64,
    },
    /// A client connection ended.
    Gone {
        /// Connection id to unregister.
        conn: u64,
    },
}

/// What the node loop sends back to a client connection's writer thread.
pub(crate) enum ClientDelivery {
    /// An operation outcome.
    Response(ClientResponse),
    /// A metric snapshot answering a [`Frame::StatsRequest`].
    Stats {
        /// The request id being answered.
        id: u64,
        /// The captured metrics.
        snapshot: Snapshot,
    },
    /// A trace log answering a [`Frame::TraceRequest`].
    Trace {
        /// The request id being answered.
        id: u64,
        /// The captured trace ring (empty when tracing is disabled).
        log: TraceLog,
    },
    /// A snapshot slice answering a [`Frame::SnapshotRequest`].
    SnapshotChunk {
        /// The request id being answered.
        id: u64,
        /// Byte offset of `bytes` within the encoded snapshot.
        offset: u64,
        /// Total encoded snapshot length.
        total: u64,
        /// Digest of the snapshot being served.
        digest: u64,
        /// The slice itself (empty on a header probe).
        bytes: Vec<u8>,
    },
}

impl ClientDelivery {
    fn into_frame(self) -> Frame {
        match self {
            ClientDelivery::Response(response) => Frame::Response(response),
            ClientDelivery::Stats { id, snapshot } => Frame::StatsResponse { id, snapshot },
            ClientDelivery::Trace { id, log } => Frame::TraceResponse { id, log },
            ClientDelivery::SnapshotChunk {
                id,
                offset,
                total,
                digest,
                bytes,
            } => Frame::SnapshotChunk {
                id,
                offset,
                total,
                digest,
                bytes,
            },
        }
    }
}

/// Largest coalesced response burst the client writer assembles before
/// issuing a write syscall.
const MAX_RESPONSE_BURST: usize = 64 * 1024;

/// A bound-but-not-yet-serving client listener; pass to `Node::start`.
pub struct ClientGateway {
    listener: TcpListener,
}

/// Stops a running gateway's accept loop (used by the node loop at
/// shutdown).
pub(crate) struct GatewayStop {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
    join: JoinHandle<()>,
}

impl GatewayStop {
    pub(crate) fn stop(self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = self.join.join();
    }
}

impl ClientGateway {
    /// Binds the client listener (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<ClientGateway> {
        Ok(ClientGateway {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts serving: accepts client connections, registers their
    /// response channels in `registry`, and forwards requests through
    /// `deliver` — called with everything one socket read held, which
    /// it takes (leaving the vector empty).
    pub(crate) fn run(
        self,
        conn_counter: Arc<AtomicU64>,
        registry: Arc<Mutex<HashMap<u64, Sender<ClientDelivery>>>>,
        deliver: impl Fn(&mut Vec<GatewayEvent>) + Send + Clone + 'static,
    ) -> GatewayStop {
        let flag = Arc::new(AtomicBool::new(false));
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let accept_flag = Arc::clone(&flag);
        let join = std::thread::Builder::new()
            .name("at-node-gateway".into())
            .spawn(move || {
                for stream in self.listener.incoming() {
                    if accept_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn = conn_counter.fetch_add(1, Ordering::Relaxed);
                    let (tx, rx) = channel::<ClientDelivery>();
                    registry.lock().expect("registry poisoned").insert(conn, tx);
                    // Writer: responses out. Exits when the registry
                    // entry is removed (channel disconnects) or the
                    // socket breaks.
                    if let Ok(write_stream) = stream.try_clone() {
                        let _ = std::thread::Builder::new()
                            .name("at-node-client-writer".into())
                            .spawn(move || {
                                // Coalesce: one blocking recv, then
                                // drain whatever else is queued into
                                // the same buffer — one write syscall
                                // flushes a whole burst of responses.
                                let mut wire = Vec::new();
                                'conn: while let Ok(delivery) = rx.recv() {
                                    wire.clear();
                                    encode_frame_into(&delivery.into_frame(), &mut wire);
                                    while wire.len() < MAX_RESPONSE_BURST {
                                        match rx.try_recv() {
                                            Ok(delivery) => {
                                                encode_frame_into(&delivery.into_frame(), &mut wire)
                                            }
                                            Err(_) => break,
                                        }
                                    }
                                    if (&write_stream).write_all(&wire).is_err() {
                                        break 'conn;
                                    }
                                }
                                let _ = write_stream.shutdown(std::net::Shutdown::Both);
                            });
                    }
                    // Reader: requests in.
                    let deliver = deliver.clone();
                    let reader_flag = Arc::clone(&accept_flag);
                    let _ = std::thread::Builder::new()
                        .name("at-node-client-reader".into())
                        .spawn(move || {
                            client_reader(stream, conn, &deliver, &reader_flag);
                            deliver(&mut vec![GatewayEvent::Gone { conn }]);
                        });
                }
            })
            .expect("spawn gateway accept loop");
        GatewayStop { flag, addr, join }
    }
}

/// Reads one client connection until EOF, error, malformed input, or
/// gateway shutdown.
fn client_reader(
    stream: TcpStream,
    conn: u64,
    deliver: &impl Fn(&mut Vec<GatewayEvent>),
    shutdown: &AtomicBool,
) {
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .is_err()
    {
        return;
    }
    let mut buffer = FrameBuffer::new();
    let mut chunk = [0u8; crate::wire::READ_CHUNK];
    let mut greeted = false;
    // Everything the last read held goes to the node loop in one
    // delivery (one wake-up), so a pipelined burst reaches the batcher
    // whole.
    let mut events = Vec::new();
    loop {
        let healthy = loop {
            events.push(match buffer.next_frame() {
                Ok(Some(Frame::HelloClient)) if !greeted => {
                    greeted = true;
                    continue;
                }
                Ok(Some(Frame::Request(request))) if greeted => GatewayEvent::Request {
                    conn,
                    request,
                    received: Instant::now(),
                },
                Ok(Some(Frame::StatsRequest { id })) if greeted => GatewayEvent::Stats { conn, id },
                Ok(Some(Frame::TraceRequest { id })) if greeted => GatewayEvent::Trace { conn, id },
                Ok(Some(Frame::SnapshotRequest { id, offset })) if greeted => {
                    GatewayEvent::Snapshot { conn, id, offset }
                }
                Ok(None) => break true,
                // Protocol violation or malformed stream.
                Ok(Some(_)) | Err(_) => break false,
            });
        };
        if !events.is_empty() {
            deliver(&mut events);
        }
        if !healthy || shutdown.load(Ordering::Relaxed) {
            return;
        }
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(read) => buffer.extend(&chunk[..read]),
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}
