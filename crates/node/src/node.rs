//! The node runtime: one OS process's event loop around a sans-I/O
//! [`Replica`].
//!
//! The loop owns the replica and drives it exactly like the simulator
//! does — through the [`at_net::Actor`] handlers with a detached
//! [`at_net::Context`] — but with real inputs: peer frames from a
//! [`Transport`], wall-clock timers for the replica's batch flush, and one
//! `Command` type for everything else — a [`ClientGateway`]'s readers
//! and an in-process [`LocalClient`] queue the same `Command` for a
//! transfer, a read, a scrape or a snapshot slice. Outputs flow the
//! other way: context sends are encoded — once per distinct message,
//! however many peers it goes to — and handed to the transport
//! (self-addressed messages loop back through the ingest queue, never
//! re-entering the replica mid-handler), armed timers join a real timer
//! heap, engine events update the node's registry counters, and every
//! answer to a client leaves the loop as the wire [`Frame`] it is (the
//! gateway's writers encode it, a [`LocalClient`] matches on it). Every
//! hand-off between the loop and a session carries a burst, not an
//! item: a socket read's commands arrive as one channel message, and a
//! handler's answers leave as one per session.
//!
//! # One thread, one place to block
//!
//! The replica is a sequential state machine, so the loop thread is the
//! only place replica state lives, and everything that touches it —
//! frame decode (a fraction of a microsecond per frame), the protocol
//! step, signature checks under `EdAuth` backends — runs there, inline.
//! The loop blocks in exactly one place, the transport's
//! [`Transport::recv_timeout`], until its next real deadline: the
//! earliest armed timer (a batch flush), a prune that is due, or —
//! while stopping — the drain window and the grace deadline. With none
//! of those it blocks without a timeout. Peer frames end the wait by
//! arriving; every `Command` (from the gateway, a [`NodeHandle`] or a
//! [`LocalClient`]) goes through one sender type that queues it and
//! then calls the transport's
//! [`at_net::Waker`], so the wait returns at once and the loop drains
//! its command queue. Nothing is polled: an idle node makes no timed
//! wake-ups, and a peer frame at low load costs one thread wake-up —
//! the receiving loop's own. Over TCP the loop thread moves every
//! frame itself: the sender's loop writes it inside `send`, and the
//! receiver's loop reads it in the `poll` its `recv_timeout` blocks in,
//! where it also handles acknowledgements without returning (see
//! [`crate::tcp`]).
//!
//! Two at-obs counters make that a reading instead of an argument:
//! `node_loop_wakeups_total` counts every return from the blocking
//! wait, `node_loop_idle_wakeups_total` those that found no frame, no
//! command and no due deadline (expected ≈ 0 outside a stop's drain).

use crate::gateway::{ClientGateway, GatewayStop};
use crate::probe::EventProbe;
use crate::wire::{
    decode_peer_payload, encode_peer_payload, ClientOp, ClientRequest, ClientResponse, Frame,
    ResponseBody,
};
use at_engine::replica::{EngineEvent, EnginePayload};
use at_engine::{EngineConfig, Replica};
use at_model::codec::{Decode, Encode};
use at_model::{Amount, ProcessId};
use at_net::transport::{RecvOutcome, Transport};
use at_net::{Actor, Context, VirtualTime, Waker};
use at_obs::{
    Counter, Recorder, Registry, Snapshot, Stage, TraceConfig, TraceCtx, TraceEventKind, TraceLog,
    Tracer,
};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime configuration of a [`Node`].
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// The replica's engine configuration (batching, account count; the
    /// broadcast backend itself is passed as a value).
    pub engine: EngineConfig,
    /// Initial balance of every account.
    pub initial: Amount,
    /// How long [`NodeHandle::stop`] keeps draining and flushing before
    /// tearing the transport down.
    pub stop_grace: Duration,
    /// Causal tracing plane, when enabled. `None` (the default) builds
    /// no tracer at all, so the hot path pays nothing.
    pub trace: Option<TraceConfig>,
    /// How long after a peer message the loop prunes replica state
    /// behind the stability frontier ([`Replica::prune_through`])
    /// — under traffic, the log-truncation cadence that keeps
    /// steady-state memory flat; without traffic the frontier cannot
    /// move and no prune is scheduled. `Duration::MAX` disables pruning
    /// (history grows without bound, the pre-snapshot behavior).
    pub prune_interval: Duration,
}

impl NodeConfig {
    /// A configuration with the given engine shape and initial balance:
    /// 3 s stop grace, no tracing, pruning 1 s after traffic.
    pub fn new(engine: EngineConfig, initial: Amount) -> Self {
        NodeConfig {
            engine,
            initial,
            stop_grace: Duration::from_secs(3),
            trace: None,
            prune_interval: Duration::from_secs(1),
        }
    }

    /// The same configuration with causal tracing enabled.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// A point-in-time view of one node, fetched via [`NodeHandle::report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeReport {
    /// The node's process id.
    pub node: ProcessId,
    /// Own transfers completed (Figure 4 `return true`).
    pub committed: u64,
    /// Transfers applied locally (any source).
    pub applied: u64,
    /// Own submissions rejected at admission.
    pub rejected: u64,
    /// Delivered-but-unvalidated transfers currently pending.
    pub pending: u64,
    /// Deterministic digest of the ledger ([`Replica::digest`]).
    pub digest: u64,
    /// Balance per account, in account order — byte-identical across
    /// converged replicas.
    pub balances: Vec<Amount>,
    /// Peer frames that failed wire decoding.
    pub malformed_frames: u64,
    /// Frames the transport had to drop (0 in the reliable regime).
    pub dropped_frames: u64,
    /// Ingested frames discarded unprocessed because a stop's grace
    /// deadline expired (0 on every clean stop). These frames were
    /// acknowledged to peers and will *not* be replayed, so a nonzero
    /// value taints a later warm restart.
    pub lost_ingest: u64,
    /// Delivered-but-unvalidated transfers evicted when a source's
    /// bounded pending buffer overflowed
    /// ([`Replica::pending_overflow_dropped`]). Expected 0 under
    /// honest load; nonzero flags a flooding source (or an undersized
    /// cap) whose evicted transfers can never apply on this replica.
    pub overflow_dropped: u64,
}

/// The loop's own counts, each resolved once from the node's metric
/// registry — their one home: the loop increments them where the event
/// happens, a scrape captures them with the rest of the registry, and
/// [`NodeHandle`] reads the same cells without asking the loop.
#[derive(Clone)]
struct Counters {
    committed: Arc<Counter>,
    applied: Arc<Counter>,
    rejected: Arc<Counter>,
    malformed_frames: Arc<Counter>,
    lost_ingest: Arc<Counter>,
    /// The transport's drops, counted where it gives up on a frame.
    dropped_frames: Arc<Counter>,
    /// Peer protocol messages fed to the replica.
    msgs_in: Arc<Counter>,
    /// Peer protocol messages encoded onto the wire.
    msgs_out: Arc<Counter>,
    /// Returns from the loop's blocking wait.
    wakeups: Arc<Counter>,
    /// Of those, the ones that found nothing to do.
    idle_wakeups: Arc<Counter>,
}

impl Counters {
    fn resolve(obs: &Registry) -> Self {
        Counters {
            committed: obs.counter("node_committed_total"),
            applied: obs.counter("node_applied_total"),
            rejected: obs.counter("node_rejected_total"),
            malformed_frames: obs.counter("node_malformed_frames_total"),
            lost_ingest: obs.counter("node_lost_ingest_total"),
            dropped_frames: obs.counter("transport_dropped_frames_total"),
            msgs_in: obs.counter("node_peer_msgs_in_total"),
            msgs_out: obs.counter("node_peer_msgs_out_total"),
            wakeups: obs.counter("node_loop_wakeups_total"),
            idle_wakeups: obs.counter("node_loop_idle_wakeups_total"),
        }
    }
}

/// Everything but a peer frame and a timer that can make the loop act:
/// the loop's one input alphabet. The four client kinds are answered
/// with a [`Frame`] on connection `conn`'s channel in the registry.
pub(crate) enum Command {
    /// A transfer or a read.
    Request {
        conn: u64,
        request: ClientRequest,
        /// Ingress instant (gateway read or local-client submit) — start
        /// of the gateway and end-to-end stage spans.
        received: Instant,
    },
    /// A scrape of the node's metric registry.
    Stats {
        conn: u64,
        id: u64,
    },
    /// A scrape of the node's trace-event ring.
    Trace {
        conn: u64,
        id: u64,
    },
    /// One slice of the node's ledger snapshot (typically asked by a
    /// cold-starting peer's bootstrap client); `u64::MAX` as the offset
    /// probes the header only.
    Snapshot {
        conn: u64,
        id: u64,
        offset: u64,
    },
    /// A client session ended: forget its response channel.
    ClientGone {
        conn: u64,
    },
    Inspect(Sender<NodeReport>),
    SetTimerSkew(u32),
    Stop,
}

/// The only way a [`Command`] reaches the loop: queue it, then
/// interrupt the loop's one blocking wait — so no sender can forget the
/// wake-up. The queue carries bursts, not items: everything one socket
/// read held is one channel message and one wake-up. Dropping the last
/// clone wakes the loop too, which then sees the queue disconnected and
/// winds down.
#[derive(Clone)]
pub(crate) struct CommandSender {
    // Dropped before `hangup` (declaration order), so the wake-up a
    // drop sends finds the queue already disconnected.
    commands: Sender<Vec<Command>>,
    hangup: WakeOnDrop,
}

#[derive(Clone)]
struct WakeOnDrop(Waker);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// A [`CommandSender`] and the loop's end of its queue.
pub(crate) fn command_channel(waker: Waker) -> (CommandSender, Receiver<Vec<Command>>) {
    let (commands, queue) = channel();
    let hangup = WakeOnDrop(waker);
    (CommandSender { commands, hangup }, queue)
}

impl CommandSender {
    pub(crate) fn send(&self, command: Command) -> Result<(), SendError<Vec<Command>>> {
        self.send_all(vec![command])
    }

    /// Queues `commands` as one channel message, then wakes the loop
    /// once: a burst read off one socket costs one send and one
    /// wake-up, and the loop takes the whole burst in order instead of
    /// racing its producer item by item.
    pub(crate) fn send_all(&self, commands: Vec<Command>) -> Result<(), SendError<Vec<Command>>> {
        self.commands.send(commands)?;
        self.hangup.0.wake();
        Ok(())
    }
}

/// Where the loop's answers go: one channel per client session, TCP
/// (drained by the gateway's writer) or in-process, carrying each
/// hand-over's answers to that session as one burst of wire frames.
pub(crate) type ResponseRegistry = Arc<Mutex<HashMap<u64, Sender<Vec<Frame>>>>>;

/// A handle to a running [`Node`]: submit work, inspect state, stop it.
pub struct NodeHandle<B: at_broadcast::SecureBroadcast<EnginePayload>> {
    commands: CommandSender,
    counters: Counters,
    registry: ResponseRegistry,
    conn_counter: Arc<AtomicU64>,
    join: Option<JoinHandle<Replica<B>>>,
}

impl<B: at_broadcast::SecureBroadcast<EnginePayload>> NodeHandle<B> {
    /// Transfers applied locally so far (any source).
    pub fn applied(&self) -> u64 {
        self.counters.applied.get()
    }

    /// Fetches a full state report from the loop thread.
    ///
    /// # Panics
    ///
    /// Panics when the node loop has already terminated.
    pub fn report(&self) -> NodeReport {
        let (tx, rx) = channel();
        self.commands
            .send(Command::Inspect(tx))
            .expect("node loop gone");
        rx.recv().expect("node loop gone")
    }

    /// Scrapes the node's [`at_obs`] metric snapshot over an in-process
    /// session ([`LocalClient::stats`]; [`crate::Client::stats`] scrapes
    /// the same numbers over TCP). `None` when the loop is gone or does
    /// not answer within `timeout` — chaos post-mortems run against
    /// half-dead clusters.
    pub fn metrics(&self, timeout: Duration) -> Option<Snapshot> {
        self.local_client().stats(timeout)
    }

    /// Scrapes the node's trace-event ring ([`LocalClient::trace`]), or
    /// `None` when the loop is gone or unresponsive. A node started
    /// without tracing answers with an empty log.
    pub fn trace(&self, timeout: Duration) -> Option<TraceLog> {
        self.local_client().trace(timeout)
    }

    /// Skews this node's armed timers to `pct` percent of their nominal
    /// delay (100 = nominal; 300 = a batch window firing 3× late). The
    /// chaos nemesis uses this to drive replicas' batch flush cadences
    /// apart — a correctness-neutral perturbation the validators must
    /// absorb.
    pub fn set_timer_skew(&self, pct: u32) {
        let _ = self.commands.send(Command::SetTimerSkew(pct.max(1)));
    }

    /// Opens an in-process client session (same request/response
    /// semantics as a TCP client, minus the socket).
    pub fn local_client(&self) -> LocalClient {
        let conn = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.registry
            .lock()
            .expect("registry poisoned")
            .insert(conn, tx);
        LocalClient {
            conn,
            next_id: 0,
            commands: self.commands.clone(),
            responses: rx,
            unread: VecDeque::new(),
        }
    }

    /// Stops the node gracefully: drains in-flight ingest, flushes the
    /// transport outboxes (so peers verifiably hold everything this node
    /// sent), tears the transport down, and returns the replica — warm
    /// state a later [`Node::spawn`] can resume from.
    pub fn stop(self) -> Replica<B> {
        self.stop_counted().0
    }

    /// [`NodeHandle::stop`] that also returns this incarnation's final
    /// `(dropped_frames, lost_ingest, malformed_frames)` counters — read
    /// *after* the loop exits, so they include losses the stop itself
    /// incurred (a frame the transport dropped during the drain, ingest
    /// a grace-expired stop discarded) after any earlier
    /// [`NodeHandle::report`] could have seen them. Harnesses that gate
    /// on zero loss across crash/restart cycles need these; the
    /// restarted incarnation starts fresh counters.
    pub fn stop_counted(mut self) -> (Replica<B>, u64, u64, u64) {
        let _ = self.commands.send(Command::Stop);
        let replica = self
            .join
            .take()
            .expect("stop called once")
            .join()
            .expect("node loop panicked");
        (
            replica,
            self.counters.dropped_frames.get(),
            self.counters.lost_ingest.get(),
            self.counters.malformed_frames.get(),
        )
    }
}

/// An in-process client session (see [`NodeHandle::local_client`]).
pub struct LocalClient {
    conn: u64,
    next_id: u64,
    commands: CommandSender,
    responses: Receiver<Vec<Frame>>,
    /// The rest of the last burst received, not yet looked at.
    unread: VecDeque<Frame>,
}

impl LocalClient {
    /// Queues the command `build` makes of `(conn, fresh request id)`
    /// and returns that id, or `None` when the loop is gone.
    fn request(&mut self, build: impl FnOnce(u64, u64) -> Command) -> Option<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.commands.send(build(self.conn, id)).ok().map(|()| id)
    }

    /// Waits up to `timeout` for the first frame `pick` claims; the
    /// frames it passes over (a pipelined acknowledgement the caller
    /// lost interest in, an interleaved scrape) are dropped. `None`
    /// on timeout, and at once when the loop has exited.
    fn await_frame<R>(
        &mut self,
        timeout: Duration,
        mut pick: impl FnMut(Frame) -> Option<R>,
    ) -> Option<R> {
        let deadline = Instant::now() + timeout;
        loop {
            while let Some(frame) = self.unread.pop_front() {
                if let Some(picked) = pick(frame) {
                    return Some(picked);
                }
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            self.unread = self.responses.recv_timeout(remaining).ok()?.into();
        }
    }

    /// Submits a transfer without waiting (pipelined); returns the
    /// request id that the eventual response will echo.
    pub fn submit_transfer(&mut self, destination: at_model::AccountId, amount: Amount) -> u64 {
        let id = self.next_id;
        let op = ClientOp::Transfer {
            destination,
            amount,
        };
        // A loop that is gone never answers; the caller's wait says so.
        let _ = self.request(|conn, id| Command::Request {
            conn,
            request: ClientRequest { id, op },
            received: Instant::now(),
        });
        id
    }

    /// Reads an account balance (round trip).
    pub fn read(&mut self, account: at_model::AccountId, timeout: Duration) -> Option<Amount> {
        let id = self.request(|conn, id| Command::Request {
            conn,
            request: ClientRequest {
                id,
                op: ClientOp::Read { account },
            },
            received: Instant::now(),
        })?;
        self.await_frame(timeout, |frame| match frame {
            Frame::Response(ClientResponse {
                id: got,
                body: ResponseBody::Balance { amount },
            }) if got == id => Some(amount),
            _ => None,
        })
    }

    /// Fetches the node's metric snapshot (round trip; the numbers
    /// behind [`NodeHandle::metrics`] and the TCP `StatsRequest`).
    pub fn stats(&mut self, timeout: Duration) -> Option<Snapshot> {
        let id = self.request(|conn, id| Command::Stats { conn, id })?;
        self.await_frame(timeout, |frame| match frame {
            Frame::StatsResponse { id: got, snapshot } if got == id => Some(snapshot),
            _ => None,
        })
    }

    /// Fetches the node's trace-event ring (round trip; the log behind
    /// [`NodeHandle::trace`] and the TCP `TraceRequest`).
    pub fn trace(&mut self, timeout: Duration) -> Option<TraceLog> {
        let id = self.request(|conn, id| Command::Trace { conn, id })?;
        self.await_frame(timeout, |frame| match frame {
            Frame::TraceResponse { id: got, log } if got == id => Some(log),
            _ => None,
        })
    }

    /// Waits up to `timeout` for the next operation response (any
    /// request).
    pub fn recv_response(&mut self, timeout: Duration) -> Option<ClientResponse> {
        self.await_frame(timeout, |frame| match frame {
            Frame::Response(response) => Some(response),
            _ => None,
        })
    }
}

impl Drop for LocalClient {
    fn drop(&mut self) {
        let _ = self.commands.send(Command::ClientGone { conn: self.conn });
    }
}

/// Largest snapshot slice served per [`Frame::SnapshotChunk`]: well
/// under [`crate::wire::MAX_FRAME_LEN`], large enough that a
/// million-account snapshot moves in a few tens of round trips.
///
/// [`Frame::SnapshotChunk`]: crate::wire::Frame::SnapshotChunk
const SNAPSHOT_CHUNK: usize = 1 << 20;

/// How long a stopping loop must see no ingest before it treats the
/// cluster's in-flight traffic towards it as drained.
const DRAIN_WINDOW: Duration = Duration::from_millis(50);

/// Timer-heap entry ordered by deadline (earliest first).
#[derive(PartialEq, Eq)]
struct TimerEntry(Instant, u64);

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The node runtime constructor (the running state lives on the loop
/// thread; interact through [`NodeHandle`]).
///
/// # Example
///
/// A three-node in-process cluster over the channel mesh, Bracha
/// backend; one client submits a transfer and waits for the commit ack:
///
/// ```
/// use at_broadcast::bracha::BrachaBroadcast;
/// use at_engine::{EngineConfig, Replica};
/// use at_model::{AccountId, Amount, ProcessId};
/// use at_node::{channel_mesh, Node, NodeConfig, ResponseBody};
/// use std::time::Duration;
///
/// let n = 3;
/// let config = NodeConfig::new(EngineConfig::unbatched(), Amount::new(100));
/// let mut handles: Vec<_> = channel_mesh(n, 4096)
///     .into_iter()
///     .enumerate()
///     .map(|(i, mesh)| {
///         let me = ProcessId::new(i as u32);
///         Node::spawn(config, mesh, None, None, |_| {
///             let backend = BrachaBroadcast::new(me, n);
///             Replica::with_backend(me, n, config.initial, config.engine, backend)
///         })
///     })
///     .collect();
///
/// let mut client = handles[0].local_client();
/// client.submit_transfer(AccountId::new(1), Amount::new(25));
/// let ack = client.recv_response(Duration::from_secs(10)).expect("ack");
/// assert!(matches!(ack.body, ResponseBody::Committed { .. }));
///
/// // Every replica converges to the transferred balances.
/// for handle in &handles {
///     let deadline = std::time::Instant::now() + Duration::from_secs(10);
///     loop {
///         let report = handle.report();
///         if report.balances[0] == Amount::new(75) {
///             break;
///         }
///         assert!(std::time::Instant::now() < deadline, "no convergence");
///         std::thread::sleep(Duration::from_millis(5));
///     }
/// }
/// for handle in handles.drain(..) {
///     handle.stop();
/// }
/// ```
pub struct Node<B>(std::marker::PhantomData<B>);

impl<B> Node<B>
where
    B: at_broadcast::SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
{
    /// Starts the node loop over `transport` (whose [`Transport::me`]
    /// names the node, and whose [`Transport::registry`] is the node's
    /// metric registry: the loop counts there too), with an optional
    /// TCP gateway accepting clients and an optional cluster
    /// [`EventProbe`] recording every engine event the loop observes.
    ///
    /// `replica` supplies the state machine and is handed the
    /// [`Recorder`] this node's stage spans record into, so one start
    /// path covers the three ways a node comes up. A **fresh** node
    /// builds its backend there — one wrapped in
    /// [`at_broadcast::auth::ObservedAuth`] then meters sign/verify into
    /// the registry served over `Client::stats` — and returns
    /// [`Replica::with_backend`]; a **warm restart** returns the
    /// replica [`NodeHandle::stop`] handed back; a **cold start**
    /// returns [`Replica::from_snapshot`] after recording its
    /// catch-up span as one `Stage::CatchUp` sample
    /// ([`crate::TcpCluster::cold_start_node`]).
    pub fn spawn<T: Transport + 'static>(
        config: NodeConfig,
        transport: T,
        gateway: Option<ClientGateway>,
        probe: Option<EventProbe>,
        replica: impl FnOnce(&Recorder) -> Replica<B>,
    ) -> NodeHandle<B> {
        let (commands, command_rx) = command_channel(transport.waker());
        let registry: ResponseRegistry = Arc::default();
        let conn_counter = Arc::new(AtomicU64::new(0));
        let obs = transport.registry().clone();
        let recorder = obs.recorder();
        let counters = Counters::resolve(&obs);
        let mut replica = replica(&recorder);
        replica.set_recorder(recorder.clone());
        let tracer = config
            .trace
            .map(|trace| Tracer::new(replica.me().index(), trace));
        if let Some(tracer) = &tracer {
            replica.set_tracer(tracer.clone());
        }

        let gateway = gateway.map(|gateway| {
            gateway.run(
                Arc::clone(&conn_counter),
                Arc::clone(&registry),
                commands.clone(),
            )
        });

        let node_loop = NodeLoop {
            replica,
            transport,
            config,
            counters: counters.clone(),
            registry: Arc::clone(&registry),
            commands: command_rx,
            typed: VecDeque::new(),
            timers: BinaryHeap::new(),
            pending_acks: HashMap::new(),
            events: Vec::new(),
            started: Instant::now(),
            current_request: None,
            stop_deadline: None,
            gateway,
            probe,
            invocation_stamp: None,
            timer_skew_pct: 100,
            recorder,
            tracer,
            batch_pending: VecDeque::new(),
            broadcast_pending: VecDeque::new(),
            snapshot_cache: None,
            next_prune: None,
            answers: Vec::new(),
        };
        let join = std::thread::Builder::new()
            .name(format!("at-node-{}-loop", node_loop.replica.me()))
            .spawn(move || node_loop.run())
            .expect("spawn node loop");

        NodeHandle {
            commands,
            counters,
            registry,
            conn_counter,
            join: Some(join),
        }
    }
}

/// An answer for session `conn`; a commit's carries its ingress and
/// completion instants, whose spans close when it is handed over.
type Answer = (u64, Frame, Option<(Instant, Instant)>);

type TypedMsg<B> = (
    ProcessId,
    <B as at_broadcast::SecureBroadcast<EnginePayload>>::Msg,
);

struct NodeLoop<B, T>
where
    B: at_broadcast::SecureBroadcast<EnginePayload>,
    T: Transport,
{
    replica: Replica<B>,
    transport: T,
    config: NodeConfig,
    counters: Counters,
    registry: ResponseRegistry,
    commands: Receiver<Vec<Command>>,
    /// Decoded peer messages awaiting the replica (includes self
    /// loopback), per-source FIFO.
    typed: VecDeque<TypedMsg<B>>,
    timers: BinaryHeap<TimerEntry>,
    /// Own-transfer seq → the client request awaiting its commit, with
    /// its gateway-ingress instant (the end-to-end span start) and its
    /// trace context, when the ingress was sampled.
    pending_acks: HashMap<u64, (u64, u64, Instant, Option<TraceCtx>)>,
    events: Vec<(VirtualTime, ProcessId, EngineEvent)>,
    started: Instant,
    /// The client request currently being submitted (associates the
    /// synchronous Submitted/Rejected event with its requester).
    current_request: Option<(u64, u64, Instant, Option<TraceCtx>)>,
    /// Set by the first stop trigger (a `Stop` command, a disconnected
    /// command queue, a closed transport): from then on the loop takes
    /// no new work and leaves once drained, or at this instant.
    stop_deadline: Option<Instant>,
    gateway: Option<GatewayStop>,
    /// The cluster's shared history recorder, when attached.
    probe: Option<EventProbe>,
    /// Probe stamp taken *before* the current submit handler ran — the
    /// conservative invocation time of the resulting `Submitted` event
    /// (see `crate::probe`'s stamping discipline).
    invocation_stamp: Option<at_net::VirtualTime>,
    /// Armed-timer delays are scaled to this percentage of nominal (the
    /// nemesis's batch-timer skew; 100 = no skew).
    timer_skew_pct: u32,
    /// Stage-span recorder over the node's metric registry (shared with
    /// the replica).
    recorder: Recorder,
    /// Causal tracer, when [`NodeConfig::trace`] enabled one (shared
    /// with the replica and its broadcast backend).
    tracer: Option<Tracer>,
    /// Admission instants of own transfers whose batch has not flushed
    /// yet — `Submitted` pushes, `BatchBroadcast` pops its batch's worth
    /// (both events are in admission order, so FIFO matches).
    batch_pending: VecDeque<Instant>,
    /// Flush instants of own batches still in their broadcast round
    /// trip — popped by the local `BackendDelivery` of an own-source
    /// instance (per-source FIFO delivery makes this match up).
    broadcast_pending: VecDeque<Instant>,
    /// The last snapshot cut for a bootstrap client: `(digest, encoded
    /// bytes)`. Chunk requests at offsets past 0 serve from this copy so
    /// a resumed transfer stays byte-consistent; a request at offset 0
    /// re-cuts.
    snapshot_cache: Option<(u64, Vec<u8>)>,
    /// When to prune replica state behind the stability frontier next:
    /// armed by a peer message, [`NodeConfig::prune_interval`] ahead,
    /// and disarmed by the prune (an idle replica's frontier is still).
    next_prune: Option<Instant>,
    /// Answers not yet handed to their sessions: a handler's go together
    /// once its outputs are routed, the rest before the loop blocks
    /// (see [`NodeLoop::hand_over`]).
    answers: Vec<Answer>,
}

impl<B, T> NodeLoop<B, T>
where
    B: at_broadcast::SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    T: Transport,
{
    fn run(mut self) -> Replica<B> {
        // Warm-restart recovery: a flush timer armed by the previous
        // incarnation died with its timer heap; flush anything stranded
        // (a no-op on a fresh replica). See
        // `Replica::flush_pending`.
        self.drive(|replica, ctx| replica.flush_pending(ctx));
        let mut last_activity = Instant::now();
        // Whether the last return from the blocking wait has yet to be
        // explained by a frame, a command or a due deadline.
        let mut woke_for_nothing = false;
        loop {
            // 1. Fire due timers.
            let now = Instant::now();
            while self
                .timers
                .peek()
                .is_some_and(|TimerEntry(at, _)| *at <= now)
            {
                let TimerEntry(_, timer) = self.timers.pop().expect("peeked");
                woke_for_nothing = false;
                self.drive(|replica, ctx| replica.on_timer(timer, ctx));
            }

            // 2. Drain loop commands, a burst at a time, each in order.
            loop {
                let burst = match self.commands.try_recv() {
                    Ok(burst) => burst,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Every handle and gateway is gone: nobody can
                        // stop us explicitly, so wind down.
                        if self.stop_by(Instant::now() + self.config.stop_grace) {
                            woke_for_nothing = false;
                        }
                        break;
                    }
                };
                woke_for_nothing = false;
                for command in burst {
                    match command {
                        Command::Request {
                            conn,
                            request,
                            received,
                        } => self.handle_request(conn, request, received),
                        Command::Stats { conn, id } => {
                            let snapshot = self.metrics_snapshot();
                            self.deliver(conn, Frame::StatsResponse { id, snapshot });
                        }
                        Command::Trace { conn, id } => {
                            // Empty when tracing is disabled: scraping
                            // stays a valid no-op either way.
                            let log = self.tracer.as_ref().map(Tracer::log).unwrap_or_default();
                            self.deliver(conn, Frame::TraceResponse { id, log });
                        }
                        Command::Snapshot { conn, id, offset } => {
                            self.handle_snapshot(conn, id, offset);
                        }
                        Command::ClientGone { conn } => {
                            self.registry
                                .lock()
                                .expect("registry poisoned")
                                .remove(&conn);
                        }
                        Command::Inspect(reply) => {
                            let _ = reply.send(self.report());
                        }
                        Command::SetTimerSkew(pct) => {
                            self.timer_skew_pct = pct;
                        }
                        Command::Stop => {
                            self.stop_by(Instant::now() + self.config.stop_grace);
                        }
                    }
                }
            }

            // 3. Feed the replica (self-loopback pushed by `flush` is
            // consumed here too, in arrival order).
            while let Some((from, msg)) = self.typed.pop_front() {
                last_activity = Instant::now();
                self.counters.msgs_in.inc();
                self.drive(|replica, ctx| replica.on_message(from, msg, ctx));
                if self.next_prune.is_none() {
                    self.next_prune = last_activity.checked_add(self.config.prune_interval);
                }
            }

            // 4. Truncate history behind the stability frontier — the
            // log-truncation half of the snapshot story, keeping
            // steady-state memory flat over long runs.
            if self.next_prune.is_some_and(|at| at <= Instant::now()) {
                self.next_prune = None;
                woke_for_nothing = false;
                let frontier = self.replica.stability_frontier();
                self.replica.prune_through(&frontier);
            }

            // 5. While stopping: leave once drained, or at the deadline.
            let mut stop_wait = None;
            if let Some(at) = self.stop_deadline {
                let idle_at = last_activity + DRAIN_WINDOW;
                let now = Instant::now();
                if now >= idle_at && self.transport.is_flushed() {
                    // Quiesce before the last sweep: from here the
                    // transport may not acknowledge anything new, so a
                    // frame a peer holds unacked replays to the next
                    // incarnation instead of being pruned against a
                    // loop that has exited. Without this, an inbound
                    // frame acked in the window between the sweep below
                    // and `transport.shutdown()` is lost for good — on
                    // echo-style broadcasts (which never retransmit)
                    // that wedges the instance forever, a liveness hole
                    // the chaos soak caught (seed 50363: one batch's
                    // echoes swallowed, 12 transfers never acked). No
                    // sweep follows: a frame is acknowledged only by the
                    // call that hands it to this thread, so nothing the
                    // transport acknowledged can be waiting for us.
                    self.transport.quiesce();
                    break;
                }
                if now >= at {
                    // Grace expired with work possibly still in flight:
                    // bounded shutdown wins. Count what we verifiably
                    // discard — frames the transport accepted but we
                    // never processed (an in-process mesh's inbox; the
                    // quiesced TCP transport leaves its unprocessed
                    // frames unacknowledged, to be replayed), so the
                    // count taints a later warm restart. (Unflushed
                    // *outbox* frames are additionally lost but not
                    // countable through the Transport trait;
                    // `is_flushed()` false at this point implies them.)
                    self.transport.quiesce();
                    let mut lost = 0;
                    while let RecvOutcome::Frame(_) = self.transport.recv_timeout(Duration::ZERO) {
                        lost += 1;
                    }
                    self.counters.lost_ingest.add(lost);
                    break;
                }
                // Not yet idle: wait out the drain window. Idle but
                // unflushed: the `false` above asked the transport to
                // end our wait once the last acknowledgement is in.
                stop_wait = Some(if now < idle_at { at.min(idle_at) } else { at });
            }

            // 6. Block until a frame, a wake-up, or the next deadline.
            self.hand_over();
            if woke_for_nothing {
                self.counters.idle_wakeups.inc();
            }
            let deadline = [
                self.timers.peek().map(|TimerEntry(at, _)| *at),
                self.next_prune,
                stop_wait,
            ]
            .into_iter()
            .flatten()
            .min();
            let timeout = deadline.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            let outcome = self.transport.recv_timeout(timeout);
            self.counters.wakeups.inc();
            woke_for_nothing = outcome == RecvOutcome::TimedOut;
            match outcome {
                RecvOutcome::Frame(frame) => {
                    last_activity = Instant::now();
                    self.ingest_raw(frame.from, frame.payload);
                }
                RecvOutcome::TimedOut => {}
                RecvOutcome::Closed => {
                    // Transport gone: nothing further can arrive.
                    self.stop_by(Instant::now());
                }
            }
        }
        self.hand_over();
        if let Some(gateway) = self.gateway.take() {
            gateway.stop();
        }
        // Nothing is answered from here on: hang up on every session,
        // so one still waiting for a reply learns it at once.
        self.registry.lock().expect("registry poisoned").clear();
        self.transport.shutdown();
        self.replica
    }

    /// Starts stopping, leaving by `deadline` at the latest, unless a
    /// stop already began (its deadline stands). `true` if this began it.
    fn stop_by(&mut self, deadline: Instant) -> bool {
        let began = self.stop_deadline.is_none();
        self.stop_deadline.get_or_insert(deadline);
        began
    }

    /// Decodes one raw peer frame and queues it for the replica
    /// (arrival order, so per-source FIFO holds).
    fn ingest_raw(&mut self, from: ProcessId, payload: Vec<u8>) {
        let t = Instant::now();
        let result = decode_peer_payload::<B::Msg>(&payload);
        self.recorder.record(Stage::WireDecode, t.elapsed());
        match result {
            Ok(msg) => self.typed.push_back((from, msg)),
            Err(_) => self.counters.malformed_frames.inc(),
        }
    }

    /// Runs one replica handler under a detached context and routes its
    /// outputs. The context borrows only the event sink, so the closure
    /// gets the replica mutably at the same time.
    fn drive<F>(&mut self, f: F)
    where
        F: for<'a, 'b> FnOnce(&mut Replica<B>, &mut Context<'a, B::Msg, EngineEvent>),
    {
        let now = VirtualTime::from_micros(self.started.elapsed().as_micros() as u64);
        let me = self.replica.me();
        let n = self.transport.n();
        let mut ctx = Context::detached(now, me, n, &mut self.events);
        f(&mut self.replica, &mut ctx);
        let outputs = ctx.into_outputs();
        self.flush(outputs);
    }

    /// Routes one handler invocation's outputs: encodes and transmits
    /// sends (looping self-addressed messages back through the ingest
    /// queue), arms timers, and folds emitted events into counters and
    /// client acknowledgements.
    ///
    /// A message is encoded once however many peers it goes to: a
    /// `send_all` (or a relay to several peers) queues equal messages
    /// back to back, and each repeat of the last one encoded reuses its
    /// bytes. Equality, not identity, decides — a shared payload makes
    /// the comparison a pointer check, and `Batch`'s `==` is equality of
    /// encodings, so reused bytes are the bytes an encode would make.
    fn flush(&mut self, outputs: at_net::ContextOutputs<B::Msg>) {
        let me = self.replica.me();
        let mut last: Option<(B::Msg, Vec<u8>)> = None;
        for (to, msg) in outputs.outbox {
            if to == me {
                self.typed.push_back((me, msg));
                continue;
            }
            let payload = match &last {
                Some((encoded, bytes)) if *encoded == msg => bytes.clone(),
                _ => {
                    let t = Instant::now();
                    let bytes = encode_peer_payload(&msg);
                    self.recorder.record(Stage::WireEncode, t.elapsed());
                    last.insert((msg, bytes)).1.clone()
                }
            };
            self.counters.msgs_out.inc();
            self.transport.send(to, payload);
        }
        let now = Instant::now();
        for (delay, timer) in outputs.timers {
            let skewed = delay.as_micros() * u64::from(self.timer_skew_pct) / 100;
            let at = now + Duration::from_micros(skewed);
            self.timers.push(TimerEntry(at, timer));
        }
        let events: Vec<_> = self.events.drain(..).collect();
        for (_, _, event) in events {
            if let Some(probe) = &self.probe {
                // Submitted carries the pre-handler invocation stamp;
                // everything else is stamped post-effect (both ends are
                // conservative — see `crate::probe`).
                let at = match event {
                    EngineEvent::Submitted { .. } => {
                        self.invocation_stamp.unwrap_or_else(|| probe.stamp())
                    }
                    _ => probe.stamp(),
                };
                probe.record(at, me, event.clone());
            }
            match event {
                EngineEvent::Submitted { transfer } => {
                    self.batch_pending.push_back(Instant::now());
                    if let Some(request) = self.current_request.take() {
                        self.pending_acks.insert(transfer.seq.value(), request);
                    }
                }
                EngineEvent::Rejected { available, .. } => {
                    self.counters.rejected.inc();
                    if let Some((conn, id, _, _)) = self.current_request.take() {
                        self.respond(conn, id, ResponseBody::Rejected { available });
                    }
                }
                EngineEvent::Completed { transfer } => {
                    self.counters.committed.inc();
                    if let Some((conn, id, received, trace)) =
                        self.pending_acks.remove(&transfer.seq.value())
                    {
                        if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
                            let e2e_us = received.elapsed().as_micros() as u64;
                            tracer.record(ctx, TraceEventKind::Ack, e2e_us);
                            if e2e_us > tracer.slow_threshold_us() {
                                tracer.mark_slow();
                            }
                        }
                        let body = ResponseBody::Committed { seq: transfer.seq };
                        let response = Frame::Response(ClientResponse { id, body });
                        let spans = Some((received, Instant::now()));
                        self.answers.push((conn, response, spans));
                    }
                }
                EngineEvent::Applied { .. } => self.counters.applied.inc(),
                EngineEvent::BatchBroadcast { size } => {
                    // Close this batch's admission spans (Submitted and
                    // BatchBroadcast both happen in admission order) and
                    // open its broadcast round-trip span. A warm restart
                    // can flush a batch admitted by the previous
                    // incarnation, whose spans died with it — hence the
                    // pop guard.
                    let now = Instant::now();
                    for _ in 0..size {
                        if let Some(admitted) = self.batch_pending.pop_front() {
                            self.recorder
                                .record(Stage::Batch, now.duration_since(admitted));
                        }
                    }
                    self.broadcast_pending.push_back(now);
                }
                EngineEvent::BackendDelivery { source, .. } => {
                    // Own batches come back in FIFO order (per-source
                    // delivery order is the broadcast contract).
                    if source == me {
                        if let Some(sent) = self.broadcast_pending.pop_front() {
                            self.recorder.record(Stage::Broadcast, sent.elapsed());
                        }
                    }
                }
                EngineEvent::ReadObserved { .. } => {}
            }
        }
        self.hand_over();
    }

    fn handle_request(&mut self, conn: u64, request: ClientRequest, received: Instant) {
        if self.stop_deadline.is_some() {
            return; // no new work while draining
        }
        // Gateway span: socket read (or local submit) to loop pickup.
        self.recorder.record(Stage::Gateway, received.elapsed());
        match request.op {
            ClientOp::Transfer {
                destination,
                amount,
            } => {
                // Sampling decision lives here, at ingress: a minted
                // context rides the whole transfer (batch, broadcast,
                // apply, ack); an unsampled one costs nothing anywhere.
                let trace = self.tracer.as_ref().and_then(Tracer::maybe_mint);
                if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
                    tracer.record(ctx, TraceEventKind::Ingress, conn);
                }
                self.replica.set_next_trace(trace);
                self.current_request = Some((conn, request.id, received, trace));
                self.invocation_stamp = self.probe.as_ref().map(EventProbe::stamp);
                self.drive(|replica, ctx| replica.submit(destination, amount, ctx));
                // Whatever happened, the synchronous event consumed the
                // association (Submitted stored it, Rejected answered).
                self.current_request = None;
                self.invocation_stamp = None;
            }
            ClientOp::Read { account } => {
                let amount = self.replica.balance(account);
                if self.probe.is_some() {
                    // Surface the read as a history operation: the
                    // emitted ReadObserved flows through `flush` into
                    // the probe before the client sees the response.
                    self.drive(|replica, ctx| replica.read_op(account, ctx));
                }
                self.respond(conn, request.id, ResponseBody::Balance { amount });
            }
        }
    }

    fn respond(&mut self, conn: u64, id: u64, body: ResponseBody) {
        self.deliver(conn, Frame::Response(ClientResponse { id, body }));
    }

    fn deliver(&mut self, conn: u64, frame: Frame) {
        self.answers.push((conn, frame, None));
    }

    /// Hands the queued answers over under one registry lock, each
    /// session's as one burst: one channel message, in the order they
    /// were queued. Sent one by one, a delivered batch's 128
    /// acknowledgements would cost 128 channel sends and wake the
    /// session's writer at the first, to leave in a trickle of writes
    /// (with a core free to run it at once, it does); as one burst, the
    /// writer wakes once and encodes them all into one write. A
    /// commit's ack and end-to-end spans close here, when its answer is
    /// queued to the client.
    fn hand_over(&mut self) {
        if self.answers.is_empty() {
            return;
        }
        // Typically one session per hand-over: a delivered batch answers
        // the connection its transfers came in on.
        let mut bursts: Vec<(u64, Vec<Frame>)> = Vec::new();
        let mut answers = self.answers.drain(..);
        while let Some((conn, frame, spans)) = answers.next() {
            if let Some((received, completed)) = spans {
                self.recorder.record(Stage::EndToEnd, received.elapsed());
                self.recorder.record(Stage::Ack, completed.elapsed());
            }
            match bursts.iter_mut().find(|(session, _)| *session == conn) {
                Some((_, burst)) => burst.push(frame),
                None => {
                    let mut burst = Vec::with_capacity(answers.len() + 1);
                    burst.push(frame);
                    bursts.push((conn, burst));
                }
            }
        }
        let registry = self.registry.lock().expect("registry poisoned");
        for (conn, burst) in bursts {
            if let Some(sender) = registry.get(&conn) {
                let _ = sender.send(burst);
            }
        }
    }

    /// Builds the node's metric snapshot on the loop thread, where the
    /// replica lives. Every other count is already in the registry; the
    /// replica's and its backend's totals are folded in by monotone
    /// delta, because the replica runs without a registry in the
    /// simulator and carries its totals across a warm restart into a
    /// fresh one. The two gauges are set, then the registry is captured.
    fn metrics_snapshot(&self) -> Snapshot {
        let obs = self.recorder.registry();
        let fold = |name: &str, total: u64| {
            let counter = obs.counter(name);
            counter.add(total.saturating_sub(counter.get()));
        };
        fold("engine_pruned_total", self.replica.pruned_total());
        fold(
            "engine_malformed_dropped_total",
            self.replica.malformed_dropped(),
        );
        fold(
            "engine_overflow_dropped_total",
            self.replica.pending_overflow_dropped(),
        );
        let backend = self.replica.backend();
        fold(
            "broadcast_delivered_total",
            backend.delivered_count() as u64,
        );
        obs.gauge("broadcast_instances")
            .set(backend.instance_count() as u64);
        obs.gauge("engine_pending")
            .set(self.replica.pending_count() as u64);
        obs.snapshot()
    }

    /// Answers one snapshot-chunk request. Offset 0 and the `u64::MAX`
    /// header probe cut (and cache) a fresh snapshot — probes must
    /// reflect current state for quorum attestation to converge;
    /// anything else serves from the cached cut so a resumed transfer
    /// stays byte-consistent. A client that resumes against a node
    /// restarted mid-transfer sees the digest change and restarts from
    /// offset 0.
    fn handle_snapshot(&mut self, conn: u64, id: u64, offset: u64) {
        if offset == 0 || offset == u64::MAX || self.snapshot_cache.is_none() {
            let snapshot = self.replica.snapshot();
            let bytes = at_model::codec::encode(&snapshot);
            self.snapshot_cache = Some((snapshot.digest, bytes));
        }
        let (digest, encoded) = self.snapshot_cache.as_ref().expect("cut above");
        let total = encoded.len() as u64;
        let bytes = if offset == u64::MAX || offset >= total {
            Vec::new()
        } else {
            let start = offset as usize;
            let end = (start + SNAPSHOT_CHUNK).min(encoded.len());
            encoded[start..end].to_vec()
        };
        self.recorder
            .registry()
            .counter("snapshot_chunks_served_total")
            .inc();
        self.deliver(
            conn,
            Frame::SnapshotChunk {
                id,
                offset,
                total,
                digest: *digest,
                bytes,
            },
        );
    }

    fn report(&self) -> NodeReport {
        let n = self.transport.n();
        NodeReport {
            node: self.replica.me(),
            committed: self.counters.committed.get(),
            applied: self.counters.applied.get(),
            rejected: self.counters.rejected.get(),
            pending: self.replica.pending_count() as u64,
            digest: self.replica.digest(),
            balances: (0..n)
                .map(|i| self.replica.balance(at_model::AccountId::new(i as u32)))
                .collect(),
            malformed_frames: self.counters.malformed_frames.get(),
            dropped_frames: self.counters.dropped_frames.get(),
            lost_ingest: self.counters.lost_ingest.get(),
            overflow_dropped: self.replica.pending_overflow_dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session with no loop behind it, the loop's end of its command
    /// queue, and the registry's end of its response channel.
    fn orphan_session() -> (LocalClient, Receiver<Vec<Command>>, Sender<Vec<Frame>>) {
        let transport = crate::mesh::channel_mesh(1, 1).remove(0);
        let (commands, command_rx) = command_channel(transport.waker());
        let (registered, responses) = channel();
        let session = LocalClient {
            conn: 0,
            next_id: 0,
            commands,
            responses,
            unread: VecDeque::new(),
        };
        (session, command_rx, registered)
    }

    const TIMEOUT: Duration = Duration::from_secs(60);

    #[test]
    fn a_session_whose_loop_is_gone_answers_none_at_once() {
        // The registry still holds the session's response sender, so
        // only the failed send can answer.
        let (mut session, command_rx, _registered) = orphan_session();
        drop(command_rx);
        let started = Instant::now();
        assert!(session.stats(TIMEOUT).is_none());
        assert!(session.trace(TIMEOUT).is_none());
        assert!(session.read(at_model::AccountId::new(0), TIMEOUT).is_none());
        assert!(started.elapsed() < TIMEOUT / 10, "waited out the timeout");
    }

    #[test]
    fn a_session_the_loop_hung_up_on_answers_none_at_once() {
        // The requests are queued, but the exiting loop cleared the
        // registry without answering.
        let (mut session, _command_rx, registered) = orphan_session();
        drop(registered);
        let started = Instant::now();
        assert!(session.stats(TIMEOUT).is_none());
        assert!(session.trace(TIMEOUT).is_none());
        assert!(started.elapsed() < TIMEOUT / 10, "waited out the timeout");
    }

    type EchoNode = at_broadcast::echo::EchoBroadcast<EnginePayload, at_broadcast::auth::NoAuth>;

    /// A 4-node in-process cluster over SignedEcho, batching up to 128
    /// transfers.
    fn echo_cluster() -> Vec<NodeHandle<EchoNode>> {
        let engine = EngineConfig::batched(128, at_net::VirtualTime::from_micros(1_000));
        let config = NodeConfig::new(engine, Amount::new(1_000_000));
        crate::start_mesh_cluster(4, config, |me| {
            EchoNode::new(me, 4, at_broadcast::auth::NoAuth)
        })
    }

    #[test]
    fn a_commit_burst_leaves_as_one_channel_message() {
        // 128 transfers queued as one burst — what the gateway makes of
        // one socket read — ride one batch, commit in one handler, and
        // reach their session as one message of 128 answers.
        let handles = echo_cluster();
        let node = &handles[0];
        let conn = node.conn_counter.fetch_add(1, Ordering::Relaxed);
        let (session, answers) = channel();
        node.registry.lock().unwrap().insert(conn, session);
        let op = ClientOp::Transfer {
            destination: at_model::AccountId::new(1),
            amount: Amount::new(1),
        };
        let burst = (0..128)
            .map(|id| Command::Request {
                conn,
                request: ClientRequest { id, op },
                received: Instant::now(),
            })
            .collect();
        node.commands.send_all(burst).expect("loop running");
        let first = answers.recv_timeout(TIMEOUT).expect("answers");
        assert_eq!(first.len(), 128, "the answers left in several messages");
        for (id, frame) in (0..).zip(&first) {
            assert!(matches!(
                frame,
                Frame::Response(ClientResponse { id: got, body: ResponseBody::Committed { .. } })
                    if *got == id
            ));
        }
        for handle in handles {
            handle.stop();
        }
    }

    #[test]
    fn a_message_to_several_peers_is_encoded_once() {
        // One honest SignedEcho instance at n = 4 sends 4 distinct
        // messages to peers at the source (SEND, FINAL) and 2 at each
        // other node (its ECHO, the FINAL it relays): 2 encodes per
        // node. The SEND and FINAL go to 3 peers, and each other node
        // relays to the one next after it, skipping the source — never
        // the peer its copy came from — so the same instance counts
        // exactly 12 peer messages out.
        let handles = echo_cluster();
        let mut client = handles[0].local_client();
        client.submit_transfer(at_model::AccountId::new(1), Amount::new(5));
        let deadline = Instant::now() + TIMEOUT;
        for handle in &handles {
            while handle.applied() < 1 {
                assert!(Instant::now() < deadline, "the transfer never applied");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut msgs_out = 0;
        for handle in &handles {
            let scrape = handle.metrics(TIMEOUT).expect("scrape");
            let encodes = scrape
                .histogram("stage_wire_encode_us")
                .map_or(0, |h| h.count);
            assert_eq!(
                encodes, 2,
                "{}: one encode per distinct message",
                scrape.label
            );
            msgs_out += scrape.counter("node_peer_msgs_out_total").unwrap_or(0);
        }
        assert_eq!(msgs_out, 12, "peer messages out");
        drop(client);
        for handle in handles {
            handle.stop();
        }
    }

    #[test]
    fn a_stop_reports_the_frames_its_transport_dropped() {
        // Node 1 is gone, so node 0's SEND to it is dropped — queued
        // right before the stop, and read by `stop_counted` only after
        // node 0's loop exited.
        let config = NodeConfig::new(EngineConfig::unbatched(), Amount::new(100));
        let mut handles: Vec<NodeHandle<EchoNode>> = crate::mesh::channel_mesh(2, 16)
            .into_iter()
            .map(|mesh| {
                let me = mesh.me();
                Node::spawn(config, mesh, None, None, |_| {
                    let backend = EchoNode::new(me, 2, at_broadcast::auth::NoAuth);
                    Replica::with_backend(me, 2, config.initial, config.engine, backend)
                })
            })
            .collect();
        handles.pop().expect("node 1").stop();
        let node = handles.pop().expect("node 0");
        node.local_client()
            .submit_transfer(at_model::AccountId::new(1), Amount::new(5));
        let (_, dropped, lost_ingest, malformed) = node.stop_counted();
        assert_eq!((dropped, lost_ingest, malformed), (1, 0, 0));
    }
}
