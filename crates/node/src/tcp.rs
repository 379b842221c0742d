//! The TCP [`Transport`]: length-prefixed frames over reconnecting
//! sockets with bounded, replayed send windows, all moved by one
//! thread — the consumer's own.
//!
//! # One thread moves every frame
//!
//! The sockets are non-blocking. `send` appends the frame to its link's
//! window and writes it at once when nothing is queued ahead of it and
//! the socket takes it; the rest waits for the socket to drain.
//! `recv_timeout` writes what it can, then blocks in one `poll(2)` over
//! the listener, every accepted and dialed connection and a wake
//! socket, until a peer frame is ready, the consumer's [`Waker`] fires
//! or its deadline passes. What else the transport owes — accepting
//! and handshaking peers, acknowledgements in and out, the ack-quiet
//! and fault-delay deadlines — it does in that call without returning,
//! so a peer frame costs the receiving loop one wake-up and no thread
//! hand-off. Only dialing blocks (`connect`, `HelloNode`): a helper
//! thread per endpoint does it and hands each stream over through a
//! channel and a byte on the wake socket. `start` makes the first
//! attempt at every peer itself, so early frames have a socket.
//!
//! # Topology and replay
//!
//! Every node listens on one address and dials every other node: one
//! connection per direction of a pair, the dialer writing `Data` (and
//! alone reconnecting), the acceptor acknowledgements. TCP orders
//! delivery *per connection*, and a reconnect can lose what was written
//! but never read, so the transport adds the replay layer of the
//! simulator's buffered partitions — its state is the sans-I/O `link`
//! module; this file moves bytes:
//!
//! * every `Data` frame carries a per-link sequence number; the sender
//!   keeps frames in a bounded window until cumulatively acknowledged
//!   (`DataAck`), and a reconnect replays it from the resume point the
//!   acceptor's `HelloAck` names (a link's first connection, which has
//!   written nothing a resume point could skip, does not wait for it);
//! * the receiver deduplicates by sequence number, and the latest
//!   handshake's connection alone drives the link;
//! * an acknowledgement bounds the window, it does not pace the data:
//!   one `DataAck` once `ACK_INTERVAL` (64) delivered frames are
//!   unacknowledged or the link was quiet for `ACK_QUIET` (10 ms) —
//!   a deadline in the poll timeout, never an ack per frame;
//! * a full window applies backpressure: `send` keeps the sockets
//!   serviced — acknowledgements above all, delivering nothing — for
//!   up to [`TcpOptions::backpressure_timeout`], then drops the frame
//!   and counts it in [`Transport::dropped_frames`] (`0` there
//!   certifies the reliable-channel regime held).
//!
//! A frame is acknowledged only by the call that returns it, so a
//! *crash* replays to the next incarnation at most `ACK_INTERVAL`
//! frames, or `ACK_QUIET` of traffic, the dead one processed (the
//! duplicate edge of [`at_net::transport`]'s contract); a graceful stop
//! quiesces after a drain window several times `ACK_QUIET` and leaves
//! none. A warm-restarted node begins a new *epoch*: its numbering
//! restarts at 0, and it adopts each peer's live numbering on the first
//! frame of a connection. Peer bytes are untrusted: a malformed frame,
//! or one the connection's side never receives, ends that connection
//! without a panic and counts it as poisoned.
//!
//! # Fault injection
//!
//! [`TcpTransport::start_with_faults`] attaches a [`FaultInjector`],
//! sampled once per attempted `Data` write in send order, underneath
//! the replay layer: a **blocked** link keeps the dialer offline (and
//! breaks a live connection at its next write) until heal; a **drop**
//! roll, or a one-shot **forced disconnect**, breaks the connection
//! instead of writing the frame; a **duplicate** roll writes it twice;
//! a **delay** holds it, and the link behind it, until a deadline in
//! the poll timeout. None of them loses a frame.
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

use crate::link::{RecvLink, SendWindow, Verdict};
use crate::wire::{encode_frame, encode_frame_into, Frame, FrameBuffer, FrameRef};
use at_model::ProcessId;
use at_net::transport::{FaultInjector, InboundFrame, RecvOutcome, Transport, TransportStats};
use at_net::Waker;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning knobs of the TCP transport: how much to buffer and how long
/// to wait on a peer that is full or gone (never when to acknowledge).
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Unacknowledged frames kept per peer before `send` applies
    /// backpressure.
    pub outbox_capacity: usize,
    /// How long a full window blocks the sender before dropping a frame.
    pub backpressure_timeout: Duration,
    /// Delay between reconnect attempts to an unreachable peer.
    pub reconnect_delay: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            outbox_capacity: 65_536,
            backpressure_timeout: Duration::from_secs(5),
            reconnect_delay: Duration::from_millis(20),
        }
    }
}

/// A cluster's live peer-address directory, shared by every endpoint.
///
/// Dialers re-read their peer's address on every reconnect attempt, so
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

/// Sender side of one directed link: the replay window, and the dialed
/// connection writing it when there is one.
#[derive(Default)]
struct OutLink {
    window: SendWindow,
    conn: Option<Dialed>,
    /// A delay fault holds the frame at the cursor until the instant;
    /// the flag is its already-drawn duplicate coin.
    hold: Option<(Instant, bool)>,
    /// A connection of this link failed: the next one may have frames
    /// to skip, so it writes nothing before its resume point.
    resumes: bool,
    /// Frames dropped because the window stayed full past the timeout.
    dropped: u64,
}

/// A connection this endpoint dialed: `Data` out, acknowledgements in.
struct Dialed {
    stream: TcpStream,
    input: FrameBuffer,
    /// Bytes the socket has not taken yet.
    out: Vec<u8>,
    /// Sequence number of the next frame to write: named by the
    /// acceptor's `HelloAck`, or 0 at once on a link's first connection.
    cursor: Option<u64>,
    /// The `HelloAck` arrived.
    greeted: bool,
}

/// A connection a peer dialed: handshake and `Data` in,
/// acknowledgements out.
struct Accepted {
    stream: TcpStream,
    input: FrameBuffer,
    out: Vec<u8>,
    /// The peer and its link token, once the handshake was accepted.
    link: Option<(ProcessId, u64)>,
    /// Closed or offending: removed by the next `reap`.
    dead: bool,
}

impl Accepted {
    /// Writes a cumulative acknowledgement (a failure ends the conn).
    fn ack(&mut self, through: u64, stats: &TransportStats) {
        stats.note_ack();
        encode_frame_into(&Frame::DataAck { through }, &mut self.out);
        self.dead |= flush(&self.stream, &mut self.out).is_err();
    }
}

/// Largest write the window is coalesced into for the socket.
const MAX_WRITE_BURST: usize = 256 * 1024;

/// The TCP transport endpoint (see the module docs).
pub struct TcpTransport {
    me: ProcessId,
    options: TcpOptions,
    listener: TcpListener,
    listen_addr: SocketAddr,
    faults: Option<FaultInjector>,
    stats: TransportStats,
    /// Sender side of the link to each peer (our own slot stays idle).
    links: Vec<OutLink>,
    /// Receiver side of the link from each peer; [`Transport::quiesce`]
    /// sets each draining, to deliver and acknowledge nothing more.
    recv: Vec<RecvLink>,
    accepted: Vec<Accepted>,
    waker: Waker,
    /// Read end of the wake socket (written by wakes and the dialer).
    wake_rx: UnixStream,
    /// Links for the dialer to (re)connect; dropped to stop it.
    redial: Option<Sender<usize>>,
    handed: Receiver<(usize, TcpStream)>,
    dialer: Option<JoinHandle<()>>,
    /// Connections ended for malformed or out-of-protocol input —
    /// diagnostics, not loss: a peer link dropped here replays.
    poisoned_conns: u64,
    /// `is_flushed` said no: end the wait once it would say yes.
    flush_wanted: bool,
    closed: bool,
    /// Scratch: a socket read, and the poll set (wake socket, listener,
    /// an entry per link, then one per accepted connection).
    chunk: Vec<u8>,
    fds: Vec<sys::PollFd>,
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
        listener.set_nonblocking(true)?;
        let epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let (redial, requests) = channel();
        let (handover, handed) = channel();
        let stats = TransportStats::new();
        let dialer = Dialer {
            me,
            epoch,
            directory: Arc::clone(&directory),
            reconnect_delay: options.reconnect_delay,
            faults: faults.clone(),
            stats: stats.clone(),
            requests,
            handover,
            nudge: wake_tx.try_clone()?,
        };
        let dialer = std::thread::Builder::new()
            .name(format!("at-node-{me}-dial"))
            .spawn(move || dialer.run())?;
        let mut transport = TcpTransport {
            me,
            options,
            listener,
            listen_addr,
            faults,
            stats,
            links: (0..n).map(|_| OutLink::default()).collect(),
            recv: (0..n).map(|_| RecvLink::default()).collect(),
            accepted: Vec::new(),
            // A full wake socket holds a byte already: nothing is lost.
            waker: Waker::new(move || drop((&wake_tx).write(&[0]))),
            wake_rx,
            redial: Some(redial),
            handed,
            dialer: Some(dialer),
            poisoned_conns: 0,
            flush_wanted: false,
            closed: false,
            chunk: vec![0; crate::wire::READ_CHUNK],
            fds: Vec::new(),
        };
        // First attempts here, so that a frame sent before the first
        // `recv_timeout` has a socket; the dialer retries the rest.
        for j in (0..n).filter(|&j| j != me.as_usize()) {
            let open = !blocked(transport.faults.as_ref(), me, j);
            match open.then(|| dial(directory.get(j).0, me, epoch)) {
                Some(Ok(stream)) => transport.install(j, stream),
                _ => transport.lose(j),
            }
        }
        Ok(transport)
    }

    /// The address this endpoint accepts peers on.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Makes `stream` (from `dial`) link `j`'s connection.
    fn install(&mut self, j: usize, stream: TcpStream) {
        let link = &mut self.links[j];
        link.conn = Some(Dialed {
            stream,
            input: FrameBuffer::new(),
            out: Vec::new(),
            cursor: (!link.resumes).then_some(0),
            greeted: false,
        });
    }

    /// Link `j` has no connection (any more): count the repair and have
    /// the dialer reconnect it.
    fn lose(&mut self, j: usize) {
        let link = &mut self.links[j];
        link.conn = None;
        link.hold = None;
        link.resumes = true;
        self.stats.note_reconnect();
        if let Some(redial) = &self.redial {
            let _ = redial.send(j);
        }
    }

    /// Writes link `j`'s unsent frames until the socket pushes back, a
    /// delay fault holds the next one or the window runs dry (bytes
    /// already waiting go first, once the socket is `writable`). Fault
    /// verdicts are drawn here, once per attempted frame in send order:
    /// a frame that breaks the connection is not written, those before
    /// it are (they were "on the wire" already).
    fn pump(&mut self, j: usize, now: Instant, writable: bool) {
        let peer = ProcessId::new(j as u32);
        let link = &mut self.links[j];
        let Some(dialed) = &mut link.conn else { return };
        // No cursor: the resume point is not known yet.
        let Some(cursor) = &mut dialed.cursor else {
            return;
        };
        if !writable && !dialed.out.is_empty() {
            return;
        }
        let broken = loop {
            match flush(&dialed.stream, &mut dialed.out) {
                Ok(true) => {}
                Ok(false) => return, // the rest waits for POLLOUT
                Err(_) => break true,
            }
            if link.hold.is_some_and(|(at, _)| at > now) || !link.window.has_unsent(*cursor) {
                return;
            }
            let (mut at, mut taken, mut fault) = (*cursor, 0, false);
            for frame in link.window.unsent(&mut at) {
                let duplicate = match (link.hold.take(), &self.faults) {
                    (Some((_, duplicate)), _) => duplicate,
                    (None, None) => false,
                    (None, Some(faults)) => {
                        let verdict = faults.sample(self.me, peer);
                        fault = verdict.disconnect || verdict.profile.blocked || verdict.drop;
                        if fault {
                            break;
                        }
                        if verdict.profile.delay_us > 0 {
                            let delay = Duration::from_micros(verdict.profile.delay_us.into());
                            link.hold = Some((now + delay, verdict.duplicate));
                            break;
                        }
                        verdict.duplicate
                    }
                };
                if duplicate {
                    dialed.out.extend_from_slice(frame);
                }
                dialed.out.extend_from_slice(frame);
                taken += 1;
                if dialed.out.len() >= MAX_WRITE_BURST {
                    break;
                }
            }
            *cursor = at + taken;
            if fault {
                let _ = flush(&dialed.stream, &mut dialed.out);
                break true;
            }
            if taken == 0 {
                return;
            }
        };
        if broken {
            self.lose(j);
        }
    }

    /// Takes what link `j`'s peer sent back: its `HelloAck`, then
    /// `DataAck`s. Anything else poisons the connection (`false`).
    fn take_acks(&mut self, j: usize) -> bool {
        let link = &mut self.links[j];
        let Some(dialed) = &mut link.conn else {
            return true;
        };
        loop {
            match dialed.input.next_frame() {
                Ok(None) => return true,
                Ok(Some(Frame::HelloAck { next_seq })) if !dialed.greeted => {
                    dialed.greeted = true;
                    let resume = link.window.resume(next_seq);
                    dialed.cursor.get_or_insert(resume);
                }
                Ok(Some(Frame::DataAck { through })) if dialed.greeted => {
                    link.window.prune(through);
                    self.stats.note_ack_in();
                }
                _ => {
                    self.poisoned_conns += 1;
                    return false;
                }
            }
        }
    }

    /// Works through what accepted connection `i` has buffered up to the
    /// first frame to deliver — the handshake, replayed duplicates, acks
    /// that fall due; whatever breaks the protocol marks it dead.
    fn serve(&mut self, i: usize, now: Instant) -> Option<InboundFrame> {
        let (me, n) = (self.me, self.links.len());
        let conn = &mut self.accepted[i];
        while !conn.dead {
            let (node, token, delivered) = match (conn.link, conn.input.next_frame_ref()) {
                (_, Ok(None)) => return None,
                (None, Ok(Some(FrameRef::Other(Frame::HelloNode { node, epoch }))))
                    if node.as_usize() < n && node != me =>
                {
                    // Quiesced: refuse even the handshake — its resume
                    // point is itself a cumulative acknowledgement.
                    let Some((token, next_seq)) = self.recv[node.as_usize()].on_hello(epoch) else {
                        conn.dead = true;
                        continue;
                    };
                    conn.link = Some((node, token));
                    encode_frame_into(&Frame::HelloAck { next_seq }, &mut conn.out);
                    conn.dead = flush(&conn.stream, &mut conn.out).is_err();
                    continue;
                }
                (Some((node, token)), Ok(Some(FrameRef::Data { seq, payload }))) => {
                    match self.recv[node.as_usize()].on_data(token, seq, now) {
                        Verdict::Deliver => (node, token, Some(payload.to_vec())),
                        Verdict::Duplicate => (node, token, None),
                        Verdict::Violation => {
                            conn.dead = true;
                            continue;
                        }
                    }
                }
                _ => {
                    self.poisoned_conns += 1;
                    conn.dead = true;
                    continue;
                }
            };
            // Only now — the frame is on its way to the caller — may it
            // be acknowledged.
            if let Some(through) = self.recv[node.as_usize()].ack_due(token, now) {
                conn.ack(through, &self.stats);
            }
            if let Some(payload) = delivered {
                self.stats.note_recv(payload.len());
                return Some(InboundFrame {
                    from: node,
                    payload,
                });
            }
        }
        None
    }

    /// The next frame to deliver from what the accepted connections
    /// have buffered. Every buffered read drains before the next `poll`,
    /// so taking them in order starves nobody.
    fn next_frame(&mut self, now: Instant) -> Option<InboundFrame> {
        let frame = (0..self.accepted.len()).find_map(|i| self.serve(i, now));
        self.reap();
        frame
    }

    /// Removes dead accepted connections, each acknowledging what it owes
    /// on the way out (best effort: what is left replays to a successor).
    fn reap(&mut self) {
        for conn in self.accepted.iter_mut().filter(|conn| conn.dead) {
            let owed = conn
                .link
                .and_then(|(node, token)| self.recv[node.as_usize()].final_ack(token));
            if let Some(through) = owed {
                conn.ack(through, &self.stats);
            }
        }
        self.accepted.retain(|conn| !conn.dead);
    }

    /// One round of the I/O loop until `deadline`: buffered frames,
    /// hand-overs, acknowledgements that fall due, writes, then one
    /// `poll`. Returns what ends the caller's wait, if anything did.
    /// With `deliver` off (a `send` waiting for window space) no frame
    /// is taken and no wake consumed: the caller is mid-step.
    fn turn(&mut self, deadline: Option<Instant>, deliver: bool) -> Option<RecvOutcome> {
        if deliver {
            // The wake's byte is drained by the `poll` it ended (or, if
            // it came while we were busy, by the next, which it ends).
            if self.waker.take() {
                return Some(RecvOutcome::TimedOut);
            }
            if let Some(frame) = self.next_frame(Instant::now()) {
                return Some(RecvOutcome::Frame(frame));
            }
        }
        while let Ok((j, stream)) = self.handed.try_recv() {
            self.install(j, stream);
        }
        let now = Instant::now();
        for conn in &mut self.accepted {
            let due = conn
                .link
                .and_then(|(node, token)| self.recv[node.as_usize()].ack_due(token, now));
            if let Some(through) = due {
                conn.ack(through, &self.stats);
            }
        }
        for j in 0..self.links.len() {
            self.pump(j, now, false);
        }
        self.reap();
        if deliver && self.flush_wanted && self.is_flushed() {
            return Some(RecvOutcome::TimedOut);
        }
        if deadline.is_some_and(|at| at <= now) {
            return Some(RecvOutcome::TimedOut);
        }
        let quiet = self.recv.iter().filter_map(RecvLink::next_deadline);
        let held = self.links.iter().filter_map(|link| Some(link.hold?.0));
        let wake_at = deadline.into_iter().chain(quiet).chain(held).min();
        self.poll(wake_at.map(|at| at.saturating_duration_since(now)), deliver);
        None
    }

    /// Blocks in `poll` over every socket with something to say, then
    /// acts on what it reported.
    fn poll(&mut self, timeout: Option<Duration>, deliver: bool) {
        use sys::{PollFd, POLLIN, POLLOUT};
        let entry = |fd, events| PollFd {
            fd,
            events,
            revents: 0,
        };
        let out = |pending: &[u8]| if pending.is_empty() { 0 } else { POLLOUT };
        let links = self.links.iter().map(|link| match &link.conn {
            Some(dialed) => entry(dialed.stream.as_raw_fd(), POLLIN | out(&dialed.out)),
            None => entry(-1, 0),
        });
        // A connection holding a whole frame is read no further until it
        // is delivered: a peer can make us buffer one frame and one read,
        // and the rest backs up into its window.
        let accepted = self.accepted.iter().map(|conn| {
            let full = conn.input.has_complete_frame().unwrap_or(true);
            let events = (if deliver && !full { POLLIN } else { 0 }) | out(&conn.out);
            let fd = if events == 0 {
                -1
            } else {
                conn.stream.as_raw_fd()
            };
            entry(fd, events)
        });
        let wake = entry(self.wake_rx.as_raw_fd(), POLLIN);
        let listener = entry(self.listener.as_raw_fd(), POLLIN);
        self.fds.clear();
        self.fds
            .extend([wake, listener].into_iter().chain(links).chain(accepted));
        sys::wait(&mut self.fds, timeout);
        self.stats.note_poll();
        let (now, n) = (Instant::now(), self.links.len());
        for k in 0..self.fds.len() {
            let revents = self.fds[k].revents;
            // Anything but POLLOUT — data, a hang-up, an error — is
            // answered by a read, which tells them apart.
            let readable = revents & !POLLOUT != 0;
            match k {
                _ if revents == 0 => {}
                0 => self.drain_wake(),
                1 => self.accept_all(),
                k if k < 2 + n => {
                    let j = k - 2;
                    if revents & POLLOUT != 0 {
                        self.pump(j, now, true);
                    }
                    let Some(dialed) = &mut self.links[j].conn else {
                        continue;
                    };
                    if readable
                        && (fill(&dialed.stream, &mut dialed.input, &mut self.chunk).is_err()
                            || !self.take_acks(j))
                    {
                        self.lose(j);
                    }
                }
                k => {
                    let conn = &mut self.accepted[k - 2 - n];
                    conn.dead |=
                        revents & POLLOUT != 0 && flush(&conn.stream, &mut conn.out).is_err();
                    conn.dead |=
                        readable && fill(&conn.stream, &mut conn.input, &mut self.chunk).is_err();
                }
            }
        }
        self.reap();
    }

    fn accept_all(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                self.accepted.push(Accepted {
                    stream,
                    input: FrameBuffer::new(),
                    out: Vec::new(),
                    link: None,
                    dead: false,
                });
            }
        }
    }

    /// Empties the wake socket (a read short of the buffer drained it).
    fn drain_wake(&mut self) {
        while (&self.wake_rx).read(&mut self.chunk).ok() == Some(self.chunk.len()) {}
    }

    /// Backpressure: while link `j`'s window is full, keeps the sockets
    /// serviced — acknowledgements above all — for up to the timeout.
    /// `false` when it stayed full.
    fn await_space(&mut self, j: usize) -> bool {
        let deadline = Instant::now().checked_add(self.options.backpressure_timeout);
        while self.links[j].window.len() >= self.options.outbox_capacity {
            if self.closed || deadline.is_some_and(|at| at <= Instant::now()) {
                return false;
            }
            self.turn(deadline, false);
        }
        true
    }
}

impl Transport for TcpTransport {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn n(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, to: ProcessId, payload: Vec<u8>) {
        debug_assert_ne!(
            to, self.me,
            "self frames are looped back above the transport"
        );
        if self.closed {
            return;
        }
        self.stats.note_send(payload.len());
        let j = to.as_usize();
        if !self.await_space(j) {
            self.links[j].dropped += 1;
            return;
        }
        let link = &mut self.links[j];
        let seq = link.window.reserve();
        link.window
            .push(seq, Arc::new(encode_frame(&Frame::Data { seq, payload })));
        // Written at once when nothing is queued ahead of it.
        self.pump(j, Instant::now(), false);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        let deadline = Instant::now().checked_add(timeout);
        while !self.closed {
            if let Some(outcome) = self.turn(deadline, true) {
                return outcome;
            }
        }
        RecvOutcome::Closed
    }

    fn waker(&self) -> Waker {
        self.waker.clone()
    }

    fn dropped_frames(&self) -> u64 {
        self.links.iter().map(|link| link.dropped).sum()
    }

    /// Every window fully acknowledged — i.e. every frame this endpoint
    /// ever accepted has verifiably reached its peer's transport.
    /// `Node::stop` waits for this before a warm restart.
    fn is_flushed(&mut self) -> bool {
        self.flush_wanted = !self.links.iter().all(|link| link.window.is_empty());
        !self.flush_wanted
    }

    /// See [`Transport::quiesce`]: nothing new is delivered or — the
    /// load-bearing part — acknowledged, so every frame a peer holds
    /// unacked, read here or not, replays to the next incarnation.
    fn quiesce(&mut self) {
        for link in &mut self.recv {
            link.quiesce();
        }
    }

    fn stats(&self) -> Option<TransportStats> {
        Some(self.stats.clone())
    }

    fn shutdown(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // The dialer's queue disconnects: it exits at its next look.
        self.redial = None;
        if let Some(dialer) = self.dialer.take() {
            let _ = dialer.join();
        }
        self.accepted.clear();
        for link in &mut self.links {
            link.conn = None;
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writes what `out` holds until the socket pushes back; `Ok(true)`
/// once all of it is written.
fn flush(mut stream: &TcpStream, out: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut written = 0;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => written += k,
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    out.drain(..written);
    Ok(out.is_empty())
}

/// Reads one chunk of what the socket holds into `input`; an error once
/// the peer closed it.
fn fill(mut stream: &TcpStream, input: &mut FrameBuffer, chunk: &mut [u8]) -> std::io::Result<()> {
    match stream.read(chunk) {
        Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
        Ok(read) => {
            input.extend(&chunk[..read]);
            Ok(())
        }
        Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(()),
        Err(err) => Err(err),
    }
}

/// Whether the nemesis partitioned the link `from → to`.
fn blocked(faults: Option<&FaultInjector>, from: ProcessId, to: usize) -> bool {
    faults.is_some_and(|faults| faults.link(from, ProcessId::new(to as u32)).blocked)
}

/// Connects to a peer (waiting up to a second), introduces this
/// endpoint with its `HelloNode` and makes the stream non-blocking.
fn dial(addr: SocketAddr, me: ProcessId, epoch: u64) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true)?;
    (&stream).write_all(&encode_frame(&Frame::HelloNode { node: me, epoch }))?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The dialing helper: (re)connects each link the transport names,
/// with jittered backoff and the blocked-link wait, and hands every
/// connected stream back. It exits when the transport drops its queue.
struct Dialer {
    me: ProcessId,
    epoch: u64,
    directory: PeerDirectory,
    reconnect_delay: Duration,
    faults: Option<FaultInjector>,
    stats: TransportStats,
    requests: Receiver<usize>,
    handover: Sender<(usize, TcpStream)>,
    /// The transport's wake socket: a byte ends its `poll`.
    nudge: UnixStream,
}

impl Dialer {
    fn run(self) {
        let n = self.directory.len();
        let mut due: Vec<Option<Instant>> = vec![None; n];
        let mut backoff: Vec<_> = (0..n)
            .map(|j| ReconnectBackoff::new(self.reconnect_delay, self.me, j))
            .collect();
        // The directory incarnation each link last connected to.
        let mut dialed: Vec<u64> = (0..n).map(|j| self.directory.get(j).1).collect();
        // Dial again after the next backoff step — at once if the peer
        // re-announced since `incarnation`: the failure was the dead one's.
        let retry = |backoff: &mut ReconnectBackoff, j: usize, incarnation: u64| {
            if self.directory.get(j).1 == incarnation {
                return Instant::now() + backoff.next_delay();
            }
            backoff.reset();
            Instant::now()
        };
        loop {
            let next = due.iter().flatten().min();
            let wait = next.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            match self.requests.recv_timeout(wait) {
                Ok(j) => due[j] = Some(retry(&mut backoff[j], j, dialed[j])),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            let now = Instant::now();
            for j in 0..n {
                if due[j].is_none_or(|at| at > now) {
                    continue;
                }
                // A blocked link stays offline; a fixed re-check, not
                // backoff, since heals come without notice.
                if blocked(self.faults.as_ref(), self.me, j) {
                    due[j] = Some(now + self.reconnect_delay);
                    continue;
                }
                let (addr, incarnation) = self.directory.get(j);
                match dial(addr, self.me, self.epoch) {
                    Ok(stream) => {
                        backoff[j].reset();
                        due[j] = None;
                        dialed[j] = incarnation;
                        if self.handover.send((j, stream)).is_err() {
                            return;
                        }
                        let _ = (&self.nudge).write(&[0]);
                    }
                    Err(_) => {
                        self.stats.note_reconnect();
                        due[j] = Some(retry(&mut backoff[j], j, incarnation));
                    }
                }
            }
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

    /// A successful connection ends the outage: start the ladder over.
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

/// `poll(2)`, declared here instead of taken from a crate.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    /// `struct pollfd`; a negative `fd` is skipped.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until one of `fds` is ready or `timeout` passes (`None`:
    /// no limit), rounded up to whole milliseconds so that the wait
    /// never ends before a deadline. An error (a signal, a resource
    /// shortage) ends it early; the caller looks again either way.
    #[allow(unsafe_code)]
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        let ms = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
        });
        let nfds = Nfds::try_from(fds.len()).unwrap_or(Nfds::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `PollFd`,
        // which has `struct pollfd`'s layout, and `nfds` is its length
        // (a slice this process can hold always fits); `poll` writes
        // nothing but each entry's `revents`.
        unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{ACK_INTERVAL, ACK_QUIET};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn start_pair() -> (TcpTransport, TcpTransport) {
        start_pair_with(TcpOptions::default())
    }

    fn start_pair_with(opts: TcpOptions) -> (TcpTransport, TcpTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = peer_directory(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let t0 = TcpTransport::start(p(0), l0, Arc::clone(&dir), opts).unwrap();
        let t1 = TcpTransport::start(p(1), l1, dir, opts).unwrap();
        (t0, t1)
    }

    /// Runs `t`'s receive loop — the acknowledgements it reads and owes
    /// included — until its windows are empty.
    fn await_flushed(t: &mut TcpTransport, why: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t.is_flushed() {
            assert!(Instant::now() < deadline, "{why}");
            let outcome = t.recv_timeout(deadline.saturating_duration_since(Instant::now()));
            assert!(
                !matches!(outcome, RecvOutcome::Frame(_)),
                "{why}: a stray frame"
            );
        }
    }

    /// Runs `peer`'s receive loop on a thread of its own while `body`
    /// runs — what a node loop does for its transport — and returns
    /// `body`'s result with the frames `peer` received meanwhile. A bare
    /// transport moves bytes only inside its owner's calls, so every
    /// wait on the *other* endpoint's progress runs under this.
    fn pumping<R>(peer: &mut TcpTransport, body: impl FnOnce() -> R) -> (R, Vec<InboundFrame>) {
        struct Stop<'a>(&'a AtomicBool, Waker);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
                self.1.wake();
            }
        }
        let stop = AtomicBool::new(false);
        let guard = Stop(&stop, peer.waker());
        std::thread::scope(|s| {
            let pump = s.spawn(|| {
                let mut frames = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    if let RecvOutcome::Frame(frame) = peer.recv_timeout(Duration::MAX) {
                        frames.push(frame);
                    }
                }
                frames
            });
            // Stopped before the join even when `body` panics.
            let result = body();
            drop(guard);
            (result, pump.join().expect("pump panicked"))
        })
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
        pumping(&mut t0, || {
            for i in 0..10u8 {
                assert_eq!(recv_frame(&mut t1).payload, vec![i]);
            }
        });
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
        pumping(&mut t1, || await_flushed(&mut t0, "outbox never drained"));
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
        pumping(&mut t1, || await_flushed(&mut t0, "first frame unacked"));

        // Quiesce the receiver, then send: with both loops running, the
        // frame must be neither delivered nor *acknowledged* — t0's
        // replay window must keep holding it.
        t1.quiesce();
        t0.send(p(1), vec![2]);
        let (flushed, delivered) = pumping(&mut t1, || {
            let until = Instant::now() + Duration::from_millis(150);
            while let Some(left) = until.checked_duration_since(Instant::now()) {
                assert!(!matches!(t0.recv_timeout(left), RecvOutcome::Frame(_)));
            }
            t0.is_flushed()
        });
        assert!(
            !flushed,
            "a quiesced endpoint acknowledged a frame its consumer never saw"
        );
        assert!(delivered.is_empty(), "a quiesced endpoint delivered");

        // The next incarnation of node 1 receives the replay.
        t1.shutdown();
        let l1b = TcpListener::bind("127.0.0.1:0").unwrap();
        dir.announce(1, l1b.local_addr().unwrap());
        let mut t1b = TcpTransport::start(p(1), l1b, dir, opts).unwrap();
        pumping(&mut t0, || {
            assert_eq!(recv_frame(&mut t1b).payload, vec![2])
        });
        assert_eq!(t0.dropped_frames(), 0);
        t0.shutdown();
        t1b.shutdown();
    }

    #[test]
    fn a_full_send_window_blocks_on_acknowledgements_then_drops_and_counts() {
        // A window of one acknowledgement interval: every 64th frame
        // finds it full and waits, servicing its sockets, for the ack
        // the receiver's loop writes on the 64th delivery. Released by
        // that ack itself — not by the quiet-period ack, which would
        // put a floor of 15 × `ACK_QUIET` on this run.
        let opts = TcpOptions {
            outbox_capacity: ACK_INTERVAL as usize,
            backpressure_timeout: Duration::from_millis(200),
            ..TcpOptions::default()
        };
        let (mut t0, mut t1) = start_pair_with(opts);
        let started = Instant::now();
        let (elapsed, mut frames) = pumping(&mut t1, || {
            for i in 0..1000u32 {
                t0.send(p(1), i.to_le_bytes().to_vec());
            }
            started.elapsed()
        });
        while frames.len() < 1000 {
            frames.push(recv_frame(&mut t1));
        }
        for (expected, frame) in (0..1000u32).zip(&frames) {
            assert_eq!(frame.payload, expected.to_le_bytes());
        }
        assert!(
            elapsed < Duration::from_millis(150),
            "sending 1000 frames through a 64-frame window took {elapsed:?}"
        );
        assert_eq!(t0.dropped_frames(), 0);

        // With nobody running the receiver's loop no ack can come: the
        // frame after a full window waits out the timeout, then is
        // dropped and counted.
        pumping(&mut t1, || await_flushed(&mut t0, "window never drained"));
        for _ in 0..ACK_INTERVAL {
            t0.send(p(1), vec![1]);
        }
        let started = Instant::now();
        t0.send(p(1), vec![2]);
        let waited = started.elapsed();
        assert!(
            waited >= opts.backpressure_timeout && waited < Duration::from_secs(2),
            "a full window held the sender for {waited:?}"
        );
        assert_eq!(t0.dropped_frames(), 1);
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
        pumping(&mut t0, || {
            for expected in 0..100u8 {
                let frame = recv_frame(&mut t1);
                assert_eq!(frame.payload, vec![expected]);
            }
        });
        faults.heal_all();
        assert_eq!(t0.dropped_frames(), 0);
        pumping(&mut t1, || await_flushed(&mut t0, "outbox never drained"));
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
        pumping(&mut t0, || {
            for expected in 0..5u8 {
                assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
            }
        });
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
        pumping(&mut t0, || {
            for expected in 1..20u8 {
                assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
            }
        });
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
        pumping(&mut t1, || await_flushed(&mut t0, "outbox never drained"));
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
        pumping(&mut t1, || {
            await_flushed(&mut t0, "lone frame never acknowledged")
        });
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
        pumping(&mut t0, || {
            for expected in unacked..unacked + 20 {
                assert_eq!(recv_frame(&mut t1).payload, vec![expected]);
            }
        });
        pumping(&mut t1, || await_flushed(&mut t0, "outbox never drained"));
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

    /// What a stranger writes to a live endpoint's peer port, on a
    /// connection of its own.
    #[derive(Clone, Debug)]
    enum Junk {
        /// Arbitrary bytes.
        Blob(Vec<u8>),
        /// A protocol violation the endpoint must drop and count.
        Offence(Vec<Frame>),
        /// An oversized length prefix.
        Oversized,
    }

    fn hello(epoch: u64) -> Frame {
        Frame::HelloNode { node: p(2), epoch }
    }

    fn junk() -> impl Strategy<Value = Junk> {
        let blob = prop::collection::vec(any::<u8>(), 0..64);
        (0u8..6, blob).prop_map(|(kind, blob)| {
            let ack = Frame::HelloAck { next_seq: 0 };
            match kind {
                0 => Junk::Blob(blob),
                // `Data` before `HelloNode`.
                1 => Junk::Offence(vec![Frame::Data {
                    seq: 0,
                    payload: blob,
                }]),
                // A `DataAck` on an accepted connection.
                2 => Junk::Offence(vec![hello(1), Frame::DataAck { through: 0 }]),
                // A second `HelloAck` (no acceptor reads even one).
                3 => Junk::Offence(vec![hello(2), ack.clone(), ack]),
                // A second `HelloNode` on one connection.
                4 => Junk::Offence(vec![hello(3), hello(3)]),
                _ => Junk::Oversized,
            }
        })
    }

    /// One short turn of `t`'s loop, keeping what it delivers.
    fn drive(t: &mut TcpTransport, delivered: &mut Vec<InboundFrame>) {
        if let RecvOutcome::Frame(frame) = t.recv_timeout(Duration::from_millis(1)) {
            delivered.push(frame);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever strangers write to the peer port — blobs, frames out
        /// of protocol, an oversized length prefix, a valid handshake
        /// and `Data` frame split at every byte boundary — the endpoint
        /// does not panic, drops and counts each offender, delivers the
        /// split frame intact, and real traffic still flows both ways.
        #[test]
        fn the_peer_port_is_total_on_hostile_bytes(attacks in prop::collection::vec(junk(), 1..6)) {
            // Three slots, the third a phantom the strangers claim to
            // be, so that no real link is disturbed.
            let listeners: Vec<_> = (0..3).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
            let dir = peer_directory(listeners.iter().map(|l| l.local_addr().unwrap()).collect());
            let mut listeners = listeners.into_iter();
            let mut t0 = TcpTransport::start(p(0), listeners.next().unwrap(), Arc::clone(&dir), TcpOptions::default()).unwrap();
            let mut t1 = TcpTransport::start(p(1), listeners.next().unwrap(), dir, TcpOptions::default()).unwrap();
            let mut delivered = Vec::new();
            let mut offences = 0;
            for attack in &attacks {
                let mut stranger = TcpStream::connect(t0.listen_addr()).unwrap();
                let bytes = match attack {
                    Junk::Blob(bytes) => bytes.clone(),
                    Junk::Offence(frames) => frames.iter().flat_map(encode_frame).collect(),
                    Junk::Oversized => MAX_JUNK.to_le_bytes().to_vec(),
                };
                offences += u64::from(!matches!(attack, Junk::Blob(_)));
                stranger.write_all(&bytes).unwrap();
                let _ = stranger.shutdown(std::net::Shutdown::Write);
            }
            let split: Vec<u8> = [hello(9), Frame::Data { seq: 0, payload: vec![5, 5] }]
                .iter()
                .flat_map(encode_frame)
                .collect();
            let mut stranger = TcpStream::connect(t0.listen_addr()).unwrap();
            stranger.set_nodelay(true).unwrap();
            for byte in &split {
                stranger.write_all(&[*byte]).unwrap();
                drive(&mut t0, &mut delivered);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while t0.poisoned_conns < offences || delivered.is_empty() || t0.accepted.len() > 2 {
                prop_assert!(Instant::now() < deadline, "strangers outlived their junk");
                drive(&mut t0, &mut delivered);
            }
            prop_assert_eq!(&delivered[0], &InboundFrame { from: p(2), payload: vec![5, 5] });
            t1.send(p(0), vec![42]);
            prop_assert_eq!(recv_frame(&mut t0).payload, vec![42]);
            t0.send(p(1), vec![43]);
            prop_assert_eq!(recv_frame(&mut t1).payload, vec![43]);
            prop_assert_eq!(t0.dropped_frames(), 0);
            drop(stranger);
        }
    }
}
