//! The load generator's connections.
//!
//! `at_node::Client` is closed-loop by construction: its receive call
//! blocks on a 50 ms socket timeout, so it cannot hold a schedule. The
//! generator therefore speaks the public wire format itself, on one TCP
//! connection per generator thread: the `perf-gen-*` thread sleeps until
//! each transfer is due and writes it, and a `perf-ack-*` thread blocks
//! on the same socket and stamps each acknowledgement the moment it
//! arrives. (Std has no `poll`, and a socket read timeout is rounded up
//! to scheduler ticks, so one thread cannot do both on time.)

use crate::sched;
use crate::schedule::Arrival;
use at_model::{AccountId, Amount};
use at_node::wire::{encode_frame, encode_frame_into, READ_CHUNK};
use at_node::{ClientOp, ClientRequest, Frame, FrameBuffer, ResponseBody};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an unacknowledged transfer is waited for after the last
/// write before it counts as failed.
pub const DRAIN: Duration = Duration::from_secs(30);

/// Most frames coalesced into one socket write when the generator has
/// fallen behind.
const MAX_COALESCED: usize = 256;

/// Marks a transfer that was never written or never acknowledged.
pub const MISSING: u64 = u64::MAX;

/// What one connection saw, indexed like its schedule.
#[derive(Debug)]
pub struct ConnResult {
    /// When each transfer's write began, ns after the origin.
    pub sent_ns: Vec<u64>,
    /// When each commit acknowledgement arrived, ns after the origin.
    pub acked_ns: Vec<u64>,
    pub rejected: u64,
    /// First I/O or protocol error on this connection, if any.
    pub error: Option<String>,
    /// Whether the connection's threads got real-time priority.
    pub boosted: bool,
}

impl ConnResult {
    pub fn committed(&self) -> u64 {
        self.acked_ns.iter().filter(|&&at| at != MISSING).count() as u64
    }
}

/// A connected, handshaken client socket, not yet generating.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        (&stream).write_all(&encode_frame(&Frame::HelloClient))?;
        Ok(Conn { stream })
    }
}

fn request(id: usize, arrival: &Arrival) -> Frame {
    Frame::Request(ClientRequest {
        id: id as u64,
        op: ClientOp::Transfer {
            destination: AccountId::new(arrival.dest),
            amount: Amount::new(u64::from(arrival.amount)),
        },
    })
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// A running open-loop generator on one connection.
pub struct OpenLoop {
    sender: JoinHandle<(bool, Vec<u64>, Option<String>)>,
    reader: JoinHandle<(bool, Acks)>,
}

/// What the acknowledgement thread hands back: arrival stamps indexed
/// like the schedule, rejections, and the first error if any.
type Acks = (Vec<u64>, u64, Option<String>);

impl OpenLoop {
    /// Starts writing `arrivals` at their due instants after `origin`,
    /// which must lie far enough ahead for the threads to start (tens
    /// of milliseconds: each raises its own priority first).
    pub fn start(
        conn: Conn,
        index: usize,
        origin: Instant,
        arrivals: Arc<Vec<Arrival>>,
    ) -> std::io::Result<OpenLoop> {
        let total = arrivals.len();
        let read_half = conn.stream.try_clone()?;
        let done_sending = Arc::new(AtomicBool::new(false));
        let reader = {
            let done_sending = Arc::clone(&done_sending);
            std::thread::Builder::new()
                .name(format!("perf-ack-{index}"))
                .spawn(move || {
                    let boosted = sched::boost_current_thread();
                    (
                        boosted,
                        collect_acks(read_half, origin, total, &done_sending),
                    )
                })?
        };
        let sender = std::thread::Builder::new()
            .name(format!("perf-gen-{index}"))
            .spawn(move || {
                let boosted = sched::boost_current_thread();
                let (sent_ns, error) = send_on_schedule(&conn.stream, origin, &arrivals);
                done_sending.store(true, Ordering::SeqCst);
                (boosted, sent_ns, error)
            })?;
        Ok(OpenLoop { sender, reader })
    }

    /// Waits until every transfer is acknowledged or [`DRAIN`] expires.
    pub fn join(self) -> ConnResult {
        let (sender_boosted, sent_ns, send_error) =
            self.sender.join().expect("generator thread panicked");
        let (reader_boosted, (acked_ns, rejected, read_error)) =
            self.reader.join().expect("ack thread panicked");
        ConnResult {
            sent_ns,
            acked_ns,
            rejected,
            error: send_error.or(read_error),
            boosted: sender_boosted && reader_boosted,
        }
    }
}

fn send_on_schedule(
    mut stream: &TcpStream,
    origin: Instant,
    arrivals: &[Arrival],
) -> (Vec<u64>, Option<String>) {
    let mut sent_ns = vec![MISSING; arrivals.len()];
    let mut buf = Vec::with_capacity(64 * MAX_COALESCED);
    let mut next = 0;
    while next < arrivals.len() {
        let now = ns_since(origin);
        let due = arrivals[next].due_ns;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        buf.clear();
        let first = next;
        while next < arrivals.len() && arrivals[next].due_ns <= now && next - first < MAX_COALESCED
        {
            encode_frame_into(&request(next, &arrivals[next]), &mut buf);
            next += 1;
        }
        if let Err(err) = stream.write_all(&buf) {
            return (sent_ns, Some(format!("write: {err}")));
        }
        sent_ns[first..next].fill(now);
    }
    (sent_ns, None)
}

fn collect_acks(
    mut stream: TcpStream,
    origin: Instant,
    total: usize,
    done_sending: &AtomicBool,
) -> Acks {
    let mut acked_ns = vec![MISSING; total];
    let mut rejected = 0u64;
    let mut answered = 0usize;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut give_up: Option<Instant> = None;
    if let Err(err) = stream.set_read_timeout(Some(Duration::from_millis(100))) {
        return (acked_ns, rejected, Some(format!("set_read_timeout: {err}")));
    }
    while answered < total {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return (
                    acked_ns,
                    rejected,
                    Some("node closed the connection".into()),
                )
            }
            Ok(read) => {
                let at = ns_since(origin);
                frames.extend(&chunk[..read]);
                loop {
                    match frames.next_frame() {
                        Ok(Some(Frame::Response(response))) => {
                            let slot = acked_ns.get_mut(response.id as usize);
                            match (response.body, slot) {
                                (ResponseBody::Committed { .. }, Some(slot)) => {
                                    *slot = at;
                                    answered += 1;
                                }
                                (ResponseBody::Rejected { .. }, Some(_)) => {
                                    rejected += 1;
                                    answered += 1;
                                }
                                _ => {
                                    let err = format!("unexpected response {response:?}");
                                    return (acked_ns, rejected, Some(err));
                                }
                            }
                        }
                        Ok(Some(other)) => {
                            let err = format!("unexpected frame {other:?}");
                            return (acked_ns, rejected, Some(err));
                        }
                        Ok(None) => break,
                        Err(err) => return (acked_ns, rejected, Some(format!("decode: {err}"))),
                    }
                }
            }
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return (acked_ns, rejected, Some(format!("read: {err}"))),
        }
        if done_sending.load(Ordering::SeqCst) {
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    (acked_ns, rejected, None)
}

/// The closed-loop diagnostic: keeps `depth` transfers in flight until
/// `until`, then drains. One thread suffices — a closed loop only
/// writes when a reply has just freed a slot.
pub fn closed_loop(
    conn: Conn,
    index: usize,
    origin: Instant,
    arrivals: Arc<Vec<Arrival>>,
    depth: usize,
    until: Instant,
) -> std::io::Result<JoinHandle<ConnResult>> {
    std::thread::Builder::new()
        .name(format!("perf-gen-{index}"))
        .spawn(move || {
            let total = arrivals.len();
            let mut result = ConnResult {
                sent_ns: vec![MISSING; total],
                acked_ns: vec![MISSING; total],
                rejected: 0,
                error: None,
                boosted: sched::boost_current_thread(),
            };
            result.error =
                drive_closed_loop(&conn.stream, origin, &arrivals, depth, until, &mut result).err();
            result
        })
}

fn drive_closed_loop(
    mut stream: &TcpStream,
    origin: Instant,
    arrivals: &[Arrival],
    depth: usize,
    until: Instant,
    result: &mut ConnResult,
) -> Result<(), String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut buf = Vec::new();
    let (mut next, mut answered) = (0usize, 0usize);
    let give_up = until + DRAIN;
    loop {
        let submitting = Instant::now() < until && next < arrivals.len();
        if submitting && next - answered < depth {
            buf.clear();
            let now = ns_since(origin);
            while next - answered < depth && next < arrivals.len() {
                encode_frame_into(&request(next, &arrivals[next]), &mut buf);
                result.sent_ns[next] = now;
                next += 1;
            }
            stream.write_all(&buf).map_err(|e| format!("write: {e}"))?;
        } else if !submitting && (answered == next || Instant::now() >= give_up) {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("node closed the connection".into()),
            Ok(read) => {
                let at = ns_since(origin);
                frames.extend(&chunk[..read]);
                while let Some(frame) = frames.next_frame().map_err(|e| format!("decode: {e}"))? {
                    let Frame::Response(response) = frame else {
                        return Err(format!("unexpected frame {frame:?}"));
                    };
                    match response.body {
                        ResponseBody::Committed { .. } => {
                            *result
                                .acked_ns
                                .get_mut(response.id as usize)
                                .ok_or("response id out of range")? = at;
                        }
                        ResponseBody::Rejected { .. } => result.rejected += 1,
                        ResponseBody::Balance { .. } => {
                            return Err("unexpected balance response".into())
                        }
                    }
                    answered += 1;
                }
            }
            Err(err)
                if matches!(
                    err.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(err) => return Err(format!("read: {err}")),
        }
    }
}
