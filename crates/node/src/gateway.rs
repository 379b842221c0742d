//! The client-facing TCP listener of a node.
//!
//! Clients speak the same frame protocol as peers ([`crate::wire`]) on a
//! separate listener: a `HelloClient` handshake, then pipelined request
//! frames in and response frames out. Each accepted connection gets a
//! reader thread, which turns every request frame into the node loop's
//! own `Command` and queues each socket read's worth in one delivery,
//! and a writer thread, which encodes the response [`Frame`]s the loop
//! sends to the connection's channel in the registry — the gateway has
//! no vocabulary of its own in either direction. Client bytes are
//! untrusted, and a malformed stream terminates only its own
//! connection.

use crate::node::{Command, CommandSender, ResponseRegistry};
use crate::wire::{encode_frame_into, Frame, FrameBuffer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest coalesced response burst the client writer assembles before
/// issuing a write syscall.
const MAX_RESPONSE_BURST: usize = 64 * 1024;

/// A bound-but-not-yet-serving client listener; pass to
/// [`crate::Node::spawn`].
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
    /// response channels in `registry`, and queues their requests on
    /// `commands`.
    pub(crate) fn run(
        self,
        conn_counter: Arc<AtomicU64>,
        registry: ResponseRegistry,
        commands: CommandSender,
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
                    let (tx, rx) = channel::<Frame>();
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
                                'conn: while let Ok(frame) = rx.recv() {
                                    wire.clear();
                                    encode_frame_into(&frame, &mut wire);
                                    while wire.len() < MAX_RESPONSE_BURST {
                                        match rx.try_recv() {
                                            Ok(frame) => encode_frame_into(&frame, &mut wire),
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
                    let commands = commands.clone();
                    let reader_flag = Arc::clone(&accept_flag);
                    let _ = std::thread::Builder::new()
                        .name("at-node-client-reader".into())
                        .spawn(move || {
                            client_reader(stream, conn, &commands, &reader_flag);
                            let _ = commands.send(Command::ClientGone { conn });
                        });
                }
            })
            .expect("spawn gateway accept loop");
        GatewayStop { flag, addr, join }
    }
}

/// Reads one client connection until EOF, error, malformed input, or
/// gateway shutdown.
fn client_reader(stream: TcpStream, conn: u64, commands: &CommandSender, shutdown: &AtomicBool) {
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
    let mut burst = Vec::new();
    loop {
        let healthy = loop {
            burst.push(match buffer.next_frame() {
                Ok(Some(Frame::HelloClient)) if !greeted => {
                    greeted = true;
                    continue;
                }
                Ok(Some(Frame::Request(request))) if greeted => Command::Request {
                    conn,
                    request,
                    // Start of the `stage_gateway_us` and
                    // `stage_e2e_us` spans.
                    received: Instant::now(),
                },
                Ok(Some(Frame::StatsRequest { id })) if greeted => Command::Stats { conn, id },
                Ok(Some(Frame::TraceRequest { id })) if greeted => Command::Trace { conn, id },
                Ok(Some(Frame::SnapshotRequest { id, offset })) if greeted => {
                    Command::Snapshot { conn, id, offset }
                }
                Ok(None) => break true,
                // Protocol violation or malformed stream.
                Ok(Some(_)) | Err(_) => break false,
            });
        };
        if !burst.is_empty() {
            let _ = commands.send_all(burst.drain(..));
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
