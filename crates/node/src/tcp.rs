//! The TCP [`Transport`]: length-prefixed frames over reconnecting
//! sockets, with per-peer reader/writer threads and bounded, replayed
//! outboxes.
//!
//! # Topology
//!
//! Every node listens on one address and *dials* every other node; an
//! ordered pair of nodes therefore uses one dedicated connection per
//! direction (the dialer writes `Data`, the acceptor writes
//! acknowledgements back on the same socket). This keeps reconnect
//! logic trivial — the dialer owns it — at the cost of `2·(n−1)`
//! sockets per node, irrelevant at cluster sizes.
//!
//! # Reliability layer
//!
//! TCP guarantees ordered delivery *per connection*; a reconnect can
//! lose frames that were written but never read. The broadcast
//! protocols above assume reliable channels, so the transport adds a
//! thin replay layer, the same mechanism as the simulator's buffered
//! partitions (`at_net::Simulation::set_partition_buffered`):
//!
//! * every `Data` frame carries a per-link sequence number; the sender
//!   keeps frames in a bounded outbox until cumulatively acknowledged
//!   ([`crate::wire::Frame::DataAck`]), and replays unacknowledged
//!   frames after a reconnect (the acceptor's
//!   [`crate::wire::Frame::HelloAck`] names the resume point);
//! * the receiver deduplicates by sequence number, so replays deliver
//!   each frame at most once, and one connection per peer drives the
//!   link at a time (a newer handshake supersedes the older connection);
//! * an acknowledgement bounds the sender's replay window, it does not
//!   pace the data: the receiver writes one cumulative `DataAck` when
//!   `ACK_INTERVAL` (64) delivered frames are unacknowledged, or when
//!   the link has been quiet for `ACK_QUIET` (10 ms) with anything
//!   unacknowledged — never per frame. The quiet period is the socket's
//!   own read timeout, armed when the first unacknowledged frame
//!   arrives and put back to the 200 ms liveness tick only by a timed-
//!   out read that finds nothing owed: steady traffic makes no system
//!   call for it, a link going quiet makes one timed wake-up;
//! * a full outbox applies backpressure (the sending node loop blocks up
//!   to [`TcpOptions::backpressure_timeout`]) and only then drops,
//!   counting the loss in [`Transport::dropped_frames`] — `0` there
//!   certifies the reliable-channel regime held for the whole run.
//!
//! What is written but not yet acknowledged is what a *crash* of the
//! receiver replays to its next incarnation: up to `ACK_INTERVAL`
//! frames, or `ACK_QUIET` of traffic, that the dead incarnation had
//! already processed (the delivery contract's duplicate edge — see
//! [`at_net::transport`]). A graceful stop leaves none: it quiesces
//! only after a drain window several times `ACK_QUIET`, and a
//! connection that ends acknowledges what it still owes on the way out.
//!
//! All of this protocol state — cursor, epochs, the acknowledgement
//! policy, the sender's window — lives in the sans-I/O `link` module;
//! this file moves bytes and holds the locks.
//!
//! A node that stops and warm-restarts (see `Node::stop`) begins a new
//! transport *epoch*: its outbox numbering restarts at 0 and peers reset
//! their expectations on the epoch change, while the restarting node
//! resynchronises to each peer's live numbering on the first frame of a
//! connection.
//!
//! Frames from the network are untrusted: malformed bodies, wrong
//! versions, and oversized length prefixes terminate the offending
//! connection (the dialer will reconnect and replay) without panicking.
//!
//! # Fault injection
//!
//! [`TcpTransport::start_with_faults`] attaches an
//! [`at_net::FaultInjector`] whose per-link profiles the *dialing*
//! writer consults before every `Data` write — faults act on the wire,
//! underneath the replay layer, so the reliability machinery above is
//! what gets exercised:
//!
//! * a **blocked** link keeps the dialer from connecting (and breaks a
//!   live connection at the next write) — a directed partition whose
//!   heal triggers reconnect + outbox replay;
//! * a **drop** roll breaks the connection *without* writing the frame:
//!   the frame (and anything written-but-unacked before it) is replayed
//!   after reconnect, driving the receiver's dedup cursor;
//! * a **duplicate** roll writes the frame twice — the second copy lands
//!   in the receiver's replay-overlap path;
//! * **delay** sleeps the writer, adding per-link latency;
//! * a **forced disconnect** ([`FaultInjector::force_disconnect`]) tears
//!   the connection down once at the next write.
//!
//! None of these faults loses a frame — [`Transport::dropped_frames`]
//! still counts only genuine outbox-capacity expiry.
//!
//! # Trust model
//!
//! The peer listener realises the paper's *authenticated channels* the
//! way the simulator does: by construction, not cryptography. A
//! `HelloNode` identity is believed, so any process that can reach the
//! peer port can claim a cluster identity, reset its dedup epoch, and
//! inject or force-replay frames for it. Deploy the peer mesh only on
//! a network where every endpoint is a cluster member (loopback here;
//! a private segment in production). `EdAuth` backends authenticate
//! *payloads* end-to-end — forged protocol messages are rejected above
//! the transport — but transport framing itself is unauthenticated.

use crate::link::{RecvLink, SendWindow, Verdict, ACK_QUIET};
use crate::wire::{encode_frame, Frame, FrameBuffer, FrameRef};
use at_model::ProcessId;
use at_net::transport::{FaultInjector, InboundFrame, RecvOutcome, Transport, TransportStats};
use at_net::{Inbox, Waker};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning knobs of the TCP transport: buffer sizes and how long to wait
/// on a peer that is full or gone. When acknowledgements are sent is
/// not one of them — that is fixed by the replay window (see the
/// module docs).
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Unacknowledged frames kept per peer before backpressure.
    pub outbox_capacity: usize,
    /// Received frames buffered for the node loop before the reader
    /// threads pause (end-to-end backpressure: an unacked frame is
    /// replayed, so pausing here pushes back into peers' outboxes
    /// instead of growing memory without bound).
    pub inbox_capacity: usize,
    /// How long a full outbox blocks the sender before dropping a frame.
    pub backpressure_timeout: Duration,
    /// Delay between reconnect attempts to an unreachable peer.
    pub reconnect_delay: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            outbox_capacity: 65_536,
            inbox_capacity: 65_536,
            backpressure_timeout: Duration::from_secs(5),
            reconnect_delay: Duration::from_millis(20),
        }
    }
}

/// Sender-side state of one directed link: the replay window and who
/// is parked on it.
#[derive(Default)]
struct OutboxState {
    window: SendWindow,
    /// Frames dropped because the window stayed full past the timeout.
    dropped: u64,
    closed: bool,
    /// The writer is parked on `work`, and `space_waiters` enqueuers on
    /// `space`: set and cleared under the lock acquisition that decides
    /// to wait, so an enqueue or an acknowledgement that finds nobody
    /// parked skips the condvar's system call.
    writer_parked: bool,
    space_waiters: usize,
}

struct Outbox {
    state: Mutex<OutboxState>,
    /// Signalled on enqueue: the writer waits here for work.
    work: Condvar,
    /// Signalled on prune: a back-pressured `enqueue` waits here for
    /// space. Kept apart from `work` so an acknowledgement does not
    /// wake the writer, which has nothing to do with it.
    space: Condvar,
}

impl Outbox {
    fn new() -> Self {
        Outbox {
            state: Mutex::new(OutboxState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox poisoned")
    }

    /// Queues a payload, blocking on a full window (backpressure) up to
    /// `timeout`; drops and counts on expiry.
    fn enqueue(&self, payload: Vec<u8>, capacity: usize, timeout: Duration) {
        let seq = {
            let mut state = self.lock();
            if state.window.len() >= capacity {
                state.space_waiters += 1;
                let (next, result) = self
                    .space
                    .wait_timeout_while(state, timeout, |s| !s.closed && s.window.len() >= capacity)
                    .expect("outbox poisoned");
                state = next;
                state.space_waiters -= 1;
                if result.timed_out() && state.window.len() >= capacity {
                    state.dropped += 1;
                    return;
                }
            }
            if state.closed {
                return;
            }
            state.window.reserve()
        };
        // Encode off the lock: `Transport::send` takes `&mut self`, so
        // this is the only enqueuer and the reserved seq is pushed in
        // order even though the lock is dropped in between. The writer
        // waiting on the reserved-but-unpushed seq simply sleeps on the
        // condvar until the push lands.
        let frame = encode_frame(&Frame::Data { seq, payload });
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.window.push(seq, Arc::new(frame));
        let wake = state.writer_parked;
        drop(state);
        if wake {
            self.work.notify_one();
        }
    }

    /// Applies a cumulative acknowledgement and releases enqueuers
    /// waiting for the space it made.
    fn prune(&self, through: u64) {
        let mut state = self.lock();
        state.window.prune(through);
        self.release_space(state);
    }

    /// Applies a new connection's resume point (itself a cumulative
    /// acknowledgement); returns the connection's send cursor.
    fn resume(&self, next_seq: u64) -> u64 {
        let mut state = self.lock();
        let cursor = state.window.resume(next_seq);
        self.release_space(state);
        cursor
    }

    fn release_space(&self, state: MutexGuard<'_, OutboxState>) {
        let wake = state.space_waiters > 0;
        drop(state);
        if wake {
            self.space.notify_all();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    fn is_flushed(&self) -> bool {
        self.lock().window.is_empty()
    }

    fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

/// A cluster's live peer-address directory, shared by every endpoint.
///
/// Writers re-read their peer's address on every reconnect attempt, so
/// a node that restarts on a *different* port only has to
/// [`Directory::announce`] its new address — reusing the exact port
/// would otherwise trip over TIME_WAIT remnants of the previous
/// incarnation's connections (`std::net` sets no `SO_REUSEADDR`). An
/// announce *purges* the superseded entry by bumping the slot's
/// incarnation number: a dialer whose connection attempt fails against
/// an address read before the announce sees the bump, resets its
/// backoff, and dials the fresh address immediately — instead of
/// sleeping through an exponential delay aimed at a dead port, which
/// inflated a restarted node's catch-up latency. In a multi-process
/// deployment the directory is simply each process's static view of
/// the cluster's listen addresses.
pub type PeerDirectory = Arc<Directory>;

/// The slot table behind [`PeerDirectory`]: one current address and
/// incarnation number per node. There is never more than one entry per
/// slot — announcing replaces (purges) the superseded address outright.
#[derive(Debug)]
pub struct Directory {
    slots: Mutex<Vec<(SocketAddr, u64)>>,
}

impl Directory {
    /// Number of cluster slots.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("directory poisoned").len()
    }

    /// Whether the directory has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot `i`'s current address and incarnation number.
    pub fn get(&self, i: usize) -> (SocketAddr, u64) {
        self.slots.lock().expect("directory poisoned")[i]
    }

    /// Announces a new incarnation of node `i` at `addr`: the
    /// superseded entry is purged and the slot's incarnation number
    /// bumped (returned), so reconnecting dialers stop treating
    /// failures against the dead address as grounds for more backoff.
    pub fn announce(&self, i: usize, addr: SocketAddr) -> u64 {
        let mut slots = self.slots.lock().expect("directory poisoned");
        let slot = &mut slots[i];
        slot.0 = addr;
        slot.1 += 1;
        slot.1
    }
}

/// Builds a directory from the given listen addresses (incarnation 0
/// each).
pub fn peer_directory(addrs: Vec<SocketAddr>) -> PeerDirectory {
    Arc::new(Directory {
        slots: Mutex::new(addrs.into_iter().map(|addr| (addr, 0)).collect()),
    })
}

struct Shared {
    me: ProcessId,
    n: usize,
    options: TcpOptions,
    epoch: u64,
    /// Hand-off to the node loop. A reader blocked on a full inbox
    /// parks until the loop pops (end-to-end backpressure: the frame
    /// stays unacked, so the peer's outbox fills in turn).
    inbox: Arc<Inbox>,
    /// Receiver side of the link from each peer. [`Transport::quiesce`]
    /// sets every one draining: reader connections stop delivering *and
    /// acknowledging* new `Data` frames, so nothing can be pruned from a
    /// peer's replay window without the node loop having a chance to
    /// retrieve it. Unacked frames replay to the next incarnation
    /// instead.
    recv: Vec<Mutex<RecvLink>>,
    outboxes: Vec<Arc<Outbox>>,
    shutdown: AtomicBool,
    /// Connections terminated for malformed/unexpected frames —
    /// diagnostics only, *not* loss: a peer link that drops here
    /// reconnects and replays, and stranger junk never carried data.
    poisoned_conns: AtomicU64,
    /// Nemesis hook: per-link wire faults (see the module docs).
    faults: Option<FaultInjector>,
    /// Traffic totals for observability ([`Transport::stats`]).
    stats: TransportStats,
}

impl Shared {
    fn link(&self, peer: ProcessId) -> MutexGuard<'_, RecvLink> {
        self.recv[peer.as_usize()]
            .lock()
            .expect("recv link poisoned")
    }
}

/// The TCP transport endpoint (see the module docs).
pub struct TcpTransport {
    shared: Arc<Shared>,
    listen_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Starts the endpoint for node `me`: accepts peers on `listener`
    /// and dials `directory[j]` for every `j != me` (re-reading the
    /// directory on every reconnect attempt). `directory[me]` is
    /// ignored — callers store the listener's own address there.
    pub fn start(
        me: ProcessId,
        listener: TcpListener,
        directory: PeerDirectory,
        options: TcpOptions,
    ) -> std::io::Result<TcpTransport> {
        TcpTransport::start_with_faults(me, listener, directory, options, None)
    }

    /// [`TcpTransport::start`] with a nemesis fault injector attached to
    /// every outgoing link (see the module docs for the fault model).
    pub fn start_with_faults(
        me: ProcessId,
        listener: TcpListener,
        directory: PeerDirectory,
        options: TcpOptions,
        faults: Option<FaultInjector>,
    ) -> std::io::Result<TcpTransport> {
        let n = directory.len();
        assert!(me.as_usize() < n, "process id out of range");
        let listen_addr = listener.local_addr()?;
        let epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        let shared = Arc::new(Shared {
            me,
            n,
            options,
            epoch,
            inbox: Arc::new(Inbox::new(options.inbox_capacity)),
            recv: (0..n).map(|_| Mutex::new(RecvLink::default())).collect(),
            outboxes: (0..n).map(|_| Arc::new(Outbox::new())).collect(),
            shutdown: AtomicBool::new(false),
            poisoned_conns: AtomicU64::new(0),
            faults,
            stats: TransportStats::new(),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("at-node-{}-accept", me))
                    .spawn(move || accept_loop(listener, shared))?,
            );
        }
        for j in 0..n {
            if j == me.as_usize() {
                continue;
            }
            let shared = Arc::clone(&shared);
            let directory = Arc::clone(&directory);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("at-node-{}-dial-{}", me, j))
                    .spawn(move || writer_loop(j, directory, shared))?,
            );
        }
        Ok(TcpTransport {
            shared,
            listen_addr,
            threads,
        })
    }

    /// The address this endpoint accepts peers on.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }
}

impl Transport for TcpTransport {
    fn me(&self) -> ProcessId {
        self.shared.me
    }

    fn n(&self) -> usize {
        self.shared.n
    }

    fn send(&mut self, to: ProcessId, payload: Vec<u8>) {
        debug_assert_ne!(
            to, self.shared.me,
            "self frames are looped back above the transport"
        );
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        self.shared.stats.note_send(payload.len());
        self.shared.outboxes[to.as_usize()].enqueue(
            payload,
            self.shared.options.outbox_capacity,
            self.shared.options.backpressure_timeout,
        );
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        self.shared.inbox.recv_timeout(timeout)
    }

    fn waker(&self) -> Waker {
        Waker::new(Arc::clone(&self.shared.inbox))
    }

    fn dropped_frames(&self) -> u64 {
        // Only outbox expiry is real loss. Malformed inbound streams
        // (see `Shared::poisoned_conns`) cost a reconnect-and-replay,
        // never a frame.
        self.shared.outboxes.iter().map(|o| o.dropped()).sum()
    }

    /// Every outbox fully acknowledged — i.e. every frame this endpoint
    /// ever accepted has verifiably reached its peer's transport.
    /// `Node::stop` polls this to flush before a warm restart.
    fn is_flushed(&self) -> bool {
        let me = self.shared.me.as_usize();
        self.shared
            .outboxes
            .iter()
            .enumerate()
            .all(|(j, outbox)| j == me || outbox.is_flushed())
    }

    /// See [`Transport::quiesce`]: readers stop delivering and — the
    /// load-bearing part — stop *acknowledging*, so every frame a peer
    /// still holds unacked replays to the node's next incarnation
    /// instead of being silently pruned. An ack racing this is
    /// harmless: acks are only ever sent *after* the corresponding
    /// frames reached the inbox, so whatever it covers is retrievable.
    fn quiesce(&mut self) {
        for link in &self.shared.recv {
            link.lock().expect("recv link poisoned").quiesce();
        }
    }

    fn stats(&self) -> Option<TransportStats> {
        Some(self.shared.stats.clone())
    }

    fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.inbox.close();
        for outbox in &self.shared.outboxes {
            outbox.close();
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.listen_addr, Duration::from_millis(200));
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Relaxed) {
            self.shutdown();
        }
    }
}

/// Accepts inbound connections and spawns a reader per connection.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("at-node-{}-reader", shared.me))
            .spawn(move || {
                let _ = reader_conn(stream, shared);
            })
        {
            readers.push(handle);
        }
        readers.retain(|h| !h.is_finished());
    }
    for handle in readers {
        let _ = handle.join();
    }
}

/// Read timeout of a connection with nothing to acknowledge: how often
/// its thread looks at the shutdown flag.
const LIVENESS: Duration = Duration::from_millis(200);

/// Handles one accepted connection: handshake, then `Data` frames in,
/// acknowledgements out.
fn reader_conn(stream: TcpStream, shared: Arc<Shared>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(LIVENESS))?;
    let mut reader = FrameReader::new(&stream);

    // Handshake: the peer names itself and its epoch.
    let Some(Frame::HelloNode { node, epoch }) = reader.next(&shared)? else {
        return Ok(()); // shutdown, junk, or a non-peer connection
    };
    if node.as_usize() >= shared.n || node == shared.me {
        return Ok(());
    }
    let hello = shared.link(node).on_hello(epoch);
    let Some((conn, next_seq)) = hello else {
        // Quiesced: refuse even the handshake — its `HelloAck` resume
        // point is itself a cumulative acknowledgement, and it could
        // cover a frame delivered into the dying inbox after the node
        // loop's final sweep. Peers reconnect against the next
        // incarnation instead.
        return Ok(());
    };
    (&stream).write_all(&encode_frame(&Frame::HelloAck { next_seq }))?;

    let result = data_loop(&stream, &shared, &mut reader, node, conn);
    let owed = shared.link(node).final_ack(conn);
    if let Some(through) = owed {
        // Best effort: an ack that fails to send just leaves those
        // frames to be replayed and deduplicated.
        let _ = send_ack(&stream, &shared, through);
    }
    result
}

/// Writes one cumulative `DataAck`.
fn send_ack(mut stream: &TcpStream, shared: &Shared, through: u64) -> std::io::Result<()> {
    stream.write_all(&encode_frame(&Frame::DataAck { through }))?;
    shared.stats.note_ack();
    Ok(())
}

/// The `Data`-frame receive loop of one accepted peer connection,
/// holding the link under the token `conn`.
fn data_loop(
    stream: &TcpStream,
    shared: &Arc<Shared>,
    reader: &mut FrameReader<'_>,
    node: ProcessId,
    conn: u64,
) -> std::io::Result<()> {
    // Whether the socket's read timeout is `ACK_QUIET` (something may
    // be owed) rather than `LIVENESS`.
    let mut quiet_armed = false;
    loop {
        match reader.fill(shared)? {
            Fill::Frame => {}
            Fill::Closed => return Ok(()),
            Fill::TimedOut => {
                // Nothing arrived for a whole read timeout: acknowledge
                // what the quiet period made due, and stop ticking at
                // `ACK_QUIET` once nothing is owed.
                let (due, owed) = {
                    let mut link = shared.link(node);
                    let due = link.ack_due(conn, Instant::now());
                    (due, link.next_deadline().is_some())
                };
                if let Some(through) = due {
                    send_ack(stream, shared, through)?;
                }
                if quiet_armed && !owed {
                    stream.set_read_timeout(Some(LIVENESS))?;
                    quiet_armed = false;
                }
                continue;
            }
        }
        let now = Instant::now();
        // Borrow the frame straight out of the receive buffer and run
        // the dedup decision on the borrowed payload: replay overlaps
        // and dead-incarnation frames are discarded without ever
        // copying their bytes out of the buffer.
        let frame = match reader.buffer.next_frame_ref() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // unreachable after fill
            Err(_) => {
                shared.poisoned_conns.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        };
        let FrameRef::Data { seq, payload } = frame else {
            return Ok(()); // protocol violation: drop the connection
        };
        let verdict = shared.link(node).on_data(conn, seq, now);
        match verdict {
            Verdict::Deliver => {
                let payload = payload.to_vec();
                let payload_len = payload.len();
                // Bounded hand-off to the node loop: a full inbox parks
                // this reader (the frame stays unacked, so the peer's
                // outbox fills and backpressure propagates end to end)
                // instead of growing memory without bound.
                let frame = InboundFrame {
                    from: node,
                    payload,
                };
                if !shared.inbox.push(frame, Duration::MAX) {
                    return Ok(()); // transport shut down; frame unacked
                }
                shared.stats.note_recv(payload_len);
                if !quiet_armed {
                    stream.set_read_timeout(Some(ACK_QUIET))?;
                    quiet_armed = true;
                }
            }
            Verdict::Duplicate => {}
            Verdict::Violation => return Ok(()),
        }
        // Only now — the frame is in the inbox — may it be acknowledged.
        let due = shared.link(node).ack_due(conn, now);
        if let Some(through) = due {
            send_ack(stream, shared, through)?;
        }
    }
}

/// Jittered exponential backoff between reconnect attempts, with a
/// deterministic per-link RNG stream (xorshift64* seeded from the link
/// identity). Determinism matters for chaos seed-replay: the fault
/// injector's own per-link streams are untouched, and for a given
/// cluster layout the backoff sequence is bit-for-bit reproducible.
/// The jitter de-synchronises dialers that lost the same peer at the
/// same instant; the exponent caps at 32× base so a long outage never
/// pushes recovery latency past ~1s of the directory being updated.
struct ReconnectBackoff {
    base: Duration,
    attempt: u32,
    rng: u64,
}

impl ReconnectBackoff {
    const MAX_EXPONENT: u32 = 5;

    fn new(base: Duration, me: ProcessId, peer: usize) -> Self {
        // SplitMix64 finalizer over the link identity: well-mixed,
        // deterministic, distinct per directed link.
        let mut seed = ((me.as_usize() as u64) << 32) ^ peer as u64 ^ 0x9E37_79B9_7F4A_7C15;
        seed = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        seed = (seed ^ (seed >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ReconnectBackoff {
            base: base.max(Duration::from_micros(1)),
            attempt: 0,
            rng: (seed ^ (seed >> 31)) | 1,
        }
    }

    /// The delay before the next attempt: `base·2^attempt` capped at
    /// 32× base (and at 1s), jittered uniformly into its upper half.
    fn next_delay(&mut self) -> Duration {
        let exponent = self.attempt.min(Self::MAX_EXPONENT);
        self.attempt = self.attempt.saturating_add(1);
        let full = (self.base * 2u32.pow(exponent)).min(Duration::from_secs(1));
        let nanos = full.as_nanos() as u64;
        let jittered = nanos / 2 + self.next_rand() % (nanos / 2).max(1);
        Duration::from_nanos(jittered)
    }

    /// A successful handshake ends the outage: start the ladder over.
    fn reset(&mut self) {
        self.attempt = 0;
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Dials `peer` at its current directory address, replays the outbox
/// from the acknowledged point, and streams new frames; reconnects on
/// any error with jittered exponential backoff.
fn writer_loop(peer: usize, directory: PeerDirectory, shared: Arc<Shared>) {
    let outbox = Arc::clone(&shared.outboxes[peer]);
    let mut backoff = ReconnectBackoff::new(shared.options.reconnect_delay, shared.me, peer);
    while !shared.shutdown.load(Ordering::Relaxed) {
        if let Some(faults) = &shared.faults {
            // A blocked link keeps the dialer offline entirely; heal
            // triggers the reconnect-and-replay path. A fixed poll, not
            // backoff: the injector flips the flag without a wakeup
            // hook, and chaos timing expects prompt heals.
            if faults.link(shared.me, ProcessId::new(peer as u32)).blocked {
                std::thread::sleep(shared.options.reconnect_delay);
                continue;
            }
        }
        let (addr, incarnation) = directory.get(peer);
        match writer_conn(addr, peer, &shared, &outbox, &mut backoff) {
            Ok(()) => break, // clean shutdown
            Err(_) => {
                shared.stats.note_reconnect();
                // A re-announce while we dialed (or held a connection
                // to) the superseded address means the failure belongs
                // to the dead incarnation: dial the fresh entry now
                // instead of backing off against a purged port.
                if directory.get(peer).1 != incarnation {
                    backoff.reset();
                    continue;
                }
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

/// Largest coalesced write the streaming loop assembles before issuing
/// a syscall, and the most frames batched per outbox lock acquisition.
const MAX_WRITE_BURST: usize = 256 * 1024;
const MAX_WRITE_FRAMES: usize = 512;

fn writer_conn(
    addr: SocketAddr,
    peer: usize,
    shared: &Arc<Shared>,
    outbox: &Arc<Outbox>,
    backoff: &mut ReconnectBackoff,
) -> std::io::Result<()> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(LIVENESS))?;
    (&stream).write_all(&encode_frame(&Frame::HelloNode {
        node: shared.me,
        epoch: shared.epoch,
    }))?;

    // Read the resume point, then hand the read side to an ack thread.
    let mut reader = FrameReader::new(&stream);
    let resume = match reader.next(shared)? {
        Some(Frame::HelloAck { next_seq }) => next_seq,
        _ => return Err(std::io::Error::other("handshake failed")),
    };
    backoff.reset();
    let mut cursor = outbox.resume(resume);

    let ack_stream = stream.try_clone()?;
    let ack_shared = Arc::clone(shared);
    let ack_outbox = Arc::clone(outbox);
    let ack_handle = std::thread::Builder::new()
        .name("at-node-acks".into())
        .spawn(move || {
            // Same pump as every other frame consumer: FrameReader
            // handles chunking, timeouts, shutdown, and malformed input.
            let mut reader = FrameReader::new(&ack_stream);
            loop {
                match reader.next(&ack_shared) {
                    Ok(Some(Frame::DataAck { through })) => ack_outbox.prune(through),
                    Ok(Some(_)) | Ok(None) | Err(_) => return,
                }
            }
        })
        .expect("spawn ack thread");

    // Stream frames from `resume` onward, waiting on the outbox when
    // caught up. Frames are drained many-at-a-time per lock acquisition
    // and coalesced into one buffered write per burst — one syscall
    // moves up to `MAX_WRITE_BURST` bytes instead of one per frame.
    let mut batch: Vec<Arc<Vec<u8>>> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    let result = loop {
        batch.clear();
        {
            let mut state = outbox.lock();
            if state.closed {
                break Ok(());
            }
            if !state.window.has_unsent(cursor) {
                // Caught up: wait for an enqueue under the same lock
                // acquisition that found nothing, so none is missed.
                state.writer_parked = true;
                state = outbox
                    .work
                    .wait_timeout(state, Duration::from_millis(100))
                    .expect("outbox poisoned")
                    .0;
                state.writer_parked = false;
                if state.closed {
                    break Ok(());
                }
                // An idle connection only learns of its death on the
                // next write — which may never come, stranding unacked
                // frames in the replay window (e.g. against a peer that
                // quiesced and restarted). The ack reader sees the EOF
                // immediately: follow it into a reconnect.
                if ack_handle.is_finished() {
                    break Err(std::io::Error::other("peer closed the connection"));
                }
            }
            let mut burst = 0;
            for bytes in state.window.unsent(&mut cursor) {
                burst += bytes.len();
                batch.push(Arc::clone(bytes));
                if burst >= MAX_WRITE_BURST || batch.len() >= MAX_WRITE_FRAMES {
                    break;
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Wire faults act here, underneath the replay layer: a "lost"
        // or force-disconnected frame breaks the connection *before*
        // its write, so the outbox replays it (and every
        // written-but-unacked predecessor) on reconnect. Verdicts stay
        // per-frame — one injector sample per attempted frame, in send
        // order, exactly as the unbatched writer behaved — so a chaos
        // seed replays the same fault schedule against this writer.
        wire.clear();
        let mut io_failed: Option<std::io::Error> = None;
        let mut fault_stop: Option<&'static str> = None;
        for bytes in &batch {
            if let Some(faults) = &shared.faults {
                // One verdict (profile + disconnect + both coin flips)
                // under a single injector lock acquisition.
                let verdict = faults.sample(shared.me, ProcessId::new(peer as u32));
                if verdict.disconnect {
                    fault_stop = Some("nemesis: forced disconnect");
                    break;
                }
                if verdict.profile.blocked {
                    fault_stop = Some("nemesis: link partitioned");
                    break;
                }
                if verdict.drop {
                    fault_stop = Some("nemesis: frame lost on the wire");
                    break;
                }
                if verdict.profile.delay_us > 0 {
                    // The delay applies to *this* frame: flush what is
                    // already coalesced, then sleep before queuing it.
                    if !wire.is_empty() {
                        if let Err(err) = (&stream).write_all(&wire) {
                            io_failed = Some(err);
                            break;
                        }
                        wire.clear();
                    }
                    std::thread::sleep(Duration::from_micros(u64::from(verdict.profile.delay_us)));
                }
                if verdict.duplicate {
                    wire.extend_from_slice(bytes);
                }
            }
            wire.extend_from_slice(bytes);
            cursor += 1;
        }
        if let Some(err) = io_failed {
            break Err(err);
        }
        if !wire.is_empty() {
            // Frames preceding a fault verdict were "on the wire"
            // already: write them even when the verdict then breaks
            // the connection.
            if let Err(err) = (&stream).write_all(&wire) {
                break Err(err);
            }
        }
        if let Some(reason) = fault_stop {
            break Err(std::io::Error::other(reason));
        }
    };
    // Tear the socket down so the ack thread exits promptly.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_handle.join();
    result
}

/// What [`FrameReader::fill`] found.
enum Fill {
    /// A complete frame is buffered.
    Frame,
    /// The socket's read timeout passed with no byte arriving.
    TimedOut,
    /// Shutdown, EOF, or an oversized length prefix (counted as a
    /// poisoned connection): drop the connection.
    Closed,
}

/// Blocking frame reader over a borrowed stream, shutdown-aware.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    buffer: FrameBuffer,
    chunk: [u8; crate::wire::READ_CHUNK],
}

impl<'a> FrameReader<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        FrameReader {
            stream,
            buffer: FrameBuffer::new(),
            chunk: [0; crate::wire::READ_CHUNK],
        }
    }

    /// Blocks until a complete frame is buffered, reading from the
    /// stream as needed, or one read times out. On [`Fill::Frame`] the
    /// frame can be taken — borrowed or owned — from `self.buffer`.
    fn fill(&mut self, shared: &Shared) -> std::io::Result<Fill> {
        loop {
            match self.buffer.has_complete_frame() {
                Ok(true) => return Ok(Fill::Frame),
                Ok(false) => {}
                Err(_) => {
                    shared.poisoned_conns.fetch_add(1, Ordering::Relaxed);
                    return Ok(Fill::Closed);
                }
            }
            if shared.shutdown.load(Ordering::Relaxed) {
                return Ok(Fill::Closed);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Ok(Fill::Closed),
                Ok(read) => self.buffer.extend(&self.chunk[..read]),
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Fill::TimedOut)
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Next frame, owned, waiting through read timeouts; `Ok(None)` on
    /// shutdown, EOF, or a malformed stream (the caller drops the
    /// connection either way).
    fn next(&mut self, shared: &Shared) -> std::io::Result<Option<Frame>> {
        loop {
            match self.fill(shared)? {
                Fill::Frame => break,
                Fill::TimedOut => continue,
                Fill::Closed => return Ok(None),
            }
        }
        match self.buffer.next_frame() {
            Ok(frame) => Ok(frame),
            Err(_) => {
                shared.poisoned_conns.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn start_pair() -> (TcpTransport, TcpTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let t0 = TcpTransport::start(p(0), l0, Arc::clone(&dir), TcpOptions::default()).unwrap();
        let t1 = TcpTransport::start(p(1), l1, dir, TcpOptions::default()).unwrap();
        (t0, t1)
    }

    fn await_flushed(t: &TcpTransport, why: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t.is_flushed() {
            assert!(Instant::now() < deadline, "{why}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn acks_out(t: &TcpTransport) -> u64 {
        t.stats().expect("tcp keeps stats").acks_out()
    }

    fn recv_frame(t: &mut TcpTransport) -> InboundFrame {
        for _ in 0..100 {
            match t.recv_timeout(Duration::from_millis(100)) {
                RecvOutcome::Frame(frame) => return frame,
                RecvOutcome::TimedOut => continue,
                RecvOutcome::Closed => panic!("transport closed"),
            }
        }
        panic!("no frame within 10s");
    }

    #[test]
    fn frames_cross_a_socket_in_order() {
        let (mut t0, mut t1) = start_pair();
        assert_eq!(t0.me(), p(0));
        assert_eq!(t0.n(), 2);
        for i in 0..50u8 {
            t0.send(p(1), vec![i, i + 1]);
        }
        for i in 0..50u8 {
            let frame = recv_frame(&mut t1);
            assert_eq!(frame.from, p(0));
            assert_eq!(frame.payload, vec![i, i + 1]);
        }
        t1.send(p(0), vec![99]);
        assert_eq!(recv_frame(&mut t0).payload, vec![99]);
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn frames_buffered_before_the_peer_exists_arrive_after_it_starts() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let opts = TcpOptions {
            reconnect_delay: Duration::from_millis(5),
            ..TcpOptions::default()
        };
        let mut t0 = TcpTransport::start(p(0), l0, Arc::clone(&dir), opts).unwrap();
        // Peer 1 does not exist yet: drop its listener and buffer frames.
        drop(l1);
        for i in 0..10u8 {
            t0.send(p(1), vec![i]);
        }
        std::thread::sleep(Duration::from_millis(50));
        // Now start peer 1 on a fresh port, announced via the directory.
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        dir.announce(1, l1.local_addr().unwrap());
        let mut t1 = TcpTransport::start(p(1), l1, dir, opts).unwrap();
        for i in 0..10u8 {
            assert_eq!(recv_frame(&mut t1).payload, vec![i]);
        }
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn announce_purges_the_superseded_entry_and_bumps_the_incarnation() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let c: SocketAddr = "127.0.0.1:3000".parse().unwrap();
        let dir = peer_directory(vec![a, b]);
        assert_eq!(dir.len(), 2);
        assert!(!dir.is_empty());
        assert_eq!(dir.get(0), (a, 0));
        assert_eq!(dir.announce(0, c), 1);
        // Exactly one entry per slot: the old address is gone, and the
        // bumped incarnation tells dialers their failure was against
        // the purged port.
        assert_eq!(dir.get(0), (c, 1));
        assert_eq!(dir.get(1), (b, 0));
        assert_eq!(dir.announce(0, a), 2);
        assert_eq!(dir.get(0), (a, 2));
    }

    #[test]
    fn flush_completes_once_acks_arrive() {
        let (mut t0, mut t1) = start_pair();
        for i in 0..10u8 {
            t0.send(p(1), vec![i]);
        }
        for _ in 0..10 {
            recv_frame(&mut t1);
        }
        await_flushed(&t0, "outbox never drained");
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn garbage_on_the_peer_port_is_survived() {
        let (mut t0, mut t1) = start_pair();
        // A stranger writes junk: an oversized length prefix.
        let mut junk = TcpStream::connect(t0.listen_addr()).unwrap();
        junk.write_all(&(MAX_JUNK).to_le_bytes()).unwrap();
        drop(junk);
        // And a liar claims to be node 7 of 2.
        let mut liar = TcpStream::connect(t0.listen_addr()).unwrap();
        liar.write_all(&encode_frame(&Frame::HelloNode {
            node: p(7),
            epoch: 1,
        }))
        .unwrap();
        drop(liar);
        // Real traffic still flows, and junk is not counted as loss
        // (nothing was actually dropped; poisoned connections replay).
        t1.send(p(0), vec![42]);
        assert_eq!(recv_frame(&mut t0).payload, vec![42]);
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    const MAX_JUNK: u32 = crate::wire::MAX_FRAME_LEN + 7;

    fn start_faulty_pair(seed: u64) -> (TcpTransport, TcpTransport, FaultInjector) {
        let faults = FaultInjector::new(seed);
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let opts = TcpOptions {
            reconnect_delay: Duration::from_millis(2),
            ..TcpOptions::default()
        };
        let t0 =
            TcpTransport::start_with_faults(p(0), l0, Arc::clone(&dir), opts, Some(faults.clone()))
                .unwrap();
        let t1 =
            TcpTransport::start_with_faults(p(1), l1, dir, opts, Some(faults.clone())).unwrap();
        (t0, t1, faults)
    }

    #[test]
    fn quiesced_endpoint_never_acks_so_frames_replay_to_the_next_incarnation() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let opts = TcpOptions {
            reconnect_delay: Duration::from_millis(2),
            ..TcpOptions::default()
        };
        let mut t0 = TcpTransport::start(p(0), l0, Arc::clone(&dir), opts).unwrap();
        let mut t1 = TcpTransport::start(p(1), l1, Arc::clone(&dir), opts).unwrap();
        // While live, the endpoint does acknowledge — one quiet period
        // after the frame, not at once.
        t0.send(p(1), vec![1]);
        assert_eq!(recv_frame(&mut t1).payload, vec![1]);
        await_flushed(&t0, "first frame unacked");

        // Quiesce the receiver, then send: the frame may still slip
        // into t1's dying inbox, but it must never be *acknowledged* —
        // t0's replay window must keep holding it.
        t1.quiesce();
        t0.send(p(1), vec![2]);
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            !t0.is_flushed(),
            "a quiesced endpoint acknowledged a frame its consumer never saw"
        );

        // The next incarnation of node 1 receives the replay.
        t1.shutdown();
        let l1b = TcpListener::bind("127.0.0.1:0").unwrap();
        dir.announce(1, l1b.local_addr().unwrap());
        let mut t1b = TcpTransport::start(p(1), l1b, dir, opts).unwrap();
        assert_eq!(recv_frame(&mut t1b).payload, vec![2]);
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1b.shutdown();
    }

    #[test]
    fn full_inbox_backpressure_releases_on_wakeup_not_on_a_sleep_quantum() {
        // A one-slot inbox forces the reader to park on every frame.
        // The old handoff retried `try_send` on a 200µs sleep, putting
        // a floor of frames × 200µs on this drain (≥ 200ms for 1000
        // frames); the condvar handoff releases on the pop itself, so
        // the whole run finishes far under that floor.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let opts = TcpOptions {
            inbox_capacity: 1,
            ..TcpOptions::default()
        };
        let mut t0 = TcpTransport::start(p(0), l0, Arc::clone(&dir), opts).unwrap();
        let mut t1 = TcpTransport::start(p(1), l1, dir, opts).unwrap();
        for i in 0..1000u32 {
            t0.send(p(1), i.to_le_bytes().to_vec());
        }
        let started = std::time::Instant::now();
        for expected in 0..1000u32 {
            assert_eq!(recv_frame(&mut t1).payload, expected.to_le_bytes());
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(150),
            "draining 1000 frames through a 1-slot inbox took {elapsed:?}; \
             backpressure is waiting on a sleep quantum again"
        );
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn reconnect_backoff_is_deterministic_jittered_and_capped() {
        let base = Duration::from_millis(20);
        let delays = |mut b: ReconnectBackoff| -> Vec<Duration> {
            (0..10).map(|_| b.next_delay()).collect()
        };
        let a = delays(ReconnectBackoff::new(base, p(0), 1));
        let b = delays(ReconnectBackoff::new(base, p(0), 1));
        assert_eq!(a, b, "same link must replay the same backoff sequence");
        let other = delays(ReconnectBackoff::new(base, p(0), 2));
        assert_ne!(a, other, "links must not share a jitter stream");
        let cap = base * 2u32.pow(ReconnectBackoff::MAX_EXPONENT);
        for (i, delay) in a.iter().enumerate() {
            let full = (base * 2u32.pow((i as u32).min(ReconnectBackoff::MAX_EXPONENT))).min(cap);
            assert!(
                *delay >= full / 2 && *delay < full,
                "attempt {i}: {delay:?} outside the jitter window of {full:?}"
            );
        }
        // A successful handshake restarts the ladder (the jitter stream
        // keeps advancing — only the exponent rewinds).
        let mut c = ReconnectBackoff::new(base, p(0), 1);
        c.next_delay();
        c.next_delay();
        c.reset();
        let after_reset = c.next_delay();
        assert!(
            after_reset >= base / 2 && after_reset < base,
            "reset must fall back to the first window, got {after_reset:?}"
        );
    }

    #[test]
    fn wire_loss_is_repaired_by_reconnect_and_replay() {
        let (mut t0, mut t1, faults) = start_faulty_pair(17);
        faults.set_link(
            p(0),
            p(1),
            at_net::transport::LinkProfile {
                drop_pct: 25,
                dup_pct: 10,
                ..Default::default()
            },
        );
        for i in 0..100u8 {
            t0.send(p(1), vec![i]);
        }
        // Every frame arrives exactly once, in order, despite 25% wire
        // loss (reconnect + replay) and 10% duplication (seq dedup).
        for expected in 0..100u8 {
            let frame = recv_frame(&mut t1);
            assert_eq!(frame.payload, vec![expected]);
        }
        faults.heal_all();
        assert_eq!(t0.dropped_frames(), 0);
        await_flushed(&t0, "outbox never drained");
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn asymmetric_partition_buffers_one_direction_until_heal() {
        let (mut t0, mut t1, faults) = start_faulty_pair(3);
        faults.set_blocked(p(0), p(1), true);
        for i in 0..5u8 {
            t0.send(p(1), vec![i]);
        }
        // Blocked direction stalls…
        assert_eq!(
            t1.recv_timeout(Duration::from_millis(100)),
            RecvOutcome::TimedOut
        );
        // …while the reverse link still flows (asymmetric).
        t1.send(p(0), vec![42]);
        assert_eq!(recv_frame(&mut t0).payload, vec![42]);
        // Heal: the outbox replays everything in order.
        faults.heal_all();
        for expected in 0..5u8 {
            assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
        }
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn forced_disconnect_replays_without_loss() {
        let (mut t0, mut t1, faults) = start_faulty_pair(9);
        t0.send(p(1), vec![0]);
        assert_eq!(recv_frame(&mut t1).payload, vec![0]);
        faults.force_disconnect(p(0), p(1));
        for i in 1..20u8 {
            t0.send(p(1), vec![i]);
        }
        for expected in 1..20u8 {
            assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
        }
        // The one-shot disconnect was consumed by the run.
        assert!(faults.is_quiet());
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn steady_traffic_is_acknowledged_per_interval_not_per_frame() {
        let (mut t0, mut t1) = start_pair();
        // 1 ms apart: every frame finds the reader idle, which used to
        // mean an ack each.
        for i in 0..1000u32 {
            t0.send(p(1), i.to_le_bytes().to_vec());
            std::thread::sleep(Duration::from_millis(1));
        }
        for expected in 0..1000u32 {
            assert_eq!(recv_frame(&mut t1).payload, expected.to_le_bytes());
        }
        await_flushed(&t0, "outbox never drained");
        let acks = acks_out(&t1);
        assert!(
            (1..=1000 / 8).contains(&acks),
            "1000 paced frames were answered by {acks} acks"
        );
        assert_eq!(acks_out(&t0), 0, "the reverse link carried nothing");
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn a_lone_frame_is_acknowledged_once_within_the_quiet_period() {
        let (mut t0, mut t1) = start_pair();
        t0.send(p(1), vec![7]);
        assert_eq!(recv_frame(&mut t1).payload, vec![7]);
        let received = Instant::now();
        await_flushed(&t0, "lone frame never acknowledged");
        let waited = received.elapsed();
        assert!(
            waited <= ACK_QUIET + Duration::from_millis(50),
            "a lone frame stayed unacknowledged for {waited:?}"
        );
        // The link stays quiet: nothing more is owed, nothing more is
        // sent.
        std::thread::sleep(ACK_QUIET * 5);
        assert_eq!(acks_out(&t1), 1);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn frames_delivered_but_unacknowledged_at_a_disconnect_are_not_delivered_again() {
        use crate::link::ACK_INTERVAL;
        let (mut t0, mut t1, faults) = start_faulty_pair(11);
        // Under one interval, sent in one go: delivered well before
        // either ack condition holds, so the sender's window still
        // holds them all when the connection is torn down.
        let unacked = ACK_INTERVAL as u8 - 1;
        for i in 0..unacked {
            t0.send(p(1), vec![i]);
        }
        for expected in 0..unacked {
            assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
        }
        faults.force_disconnect(p(0), p(1));
        for i in unacked..unacked + 20 {
            t0.send(p(1), vec![i]);
        }
        // The new connection's resume point (or the replay overlap it
        // deduplicates) covers the first batch: only the new frames
        // come out, each once, in order.
        for expected in unacked..unacked + 20 {
            assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
        }
        await_flushed(&t0, "outbox never drained");
        assert_eq!(
            t1.recv_timeout(Duration::from_millis(50)),
            RecvOutcome::TimedOut,
            "a frame was delivered twice"
        );
        assert!(faults.is_quiet());
        assert_eq!(t0.stats().expect("stats").reconnects(), 1);
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1.shutdown();
    }
}
