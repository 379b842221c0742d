//! Cluster helpers: spin up N nodes in one process, over the channel
//! mesh or real loopback TCP, and wait for convergence.

use crate::client::Client;
use crate::gateway::ClientGateway;
use crate::mesh::{channel_mesh, channel_mesh_faulty};
use crate::node::{Node, NodeConfig, NodeHandle, NodeReport};
use crate::probe::EventProbe;
use crate::tcp::{peer_directory, PeerDirectory, TcpOptions, TcpTransport};
use at_broadcast::SecureBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::{LedgerSnapshot, ShardedReplica};
use at_model::codec::{Decode, Encode};
use at_model::ProcessId;
use at_net::transport::FaultInjector;
use at_obs::Recorder;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Everything a cluster start needs beyond the node configuration: the
/// TCP knobs plus the optional chaos attachments.
#[derive(Clone, Default)]
pub struct ClusterOptions {
    /// TCP transport tuning (ignored by mesh clusters).
    pub tcp: TcpOptions,
    /// Nemesis fault injector shared by every node's transport.
    pub faults: Option<FaultInjector>,
    /// Shared history recorder attached to every node.
    pub probe: Option<EventProbe>,
}

impl ClusterOptions {
    /// Plain options wrapping the given TCP knobs (no chaos).
    pub fn tcp(tcp: TcpOptions) -> Self {
        ClusterOptions {
            tcp,
            ..ClusterOptions::default()
        }
    }

    /// Attaches a fault injector.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an event probe.
    pub fn with_probe(mut self, probe: EventProbe) -> Self {
        self.probe = Some(probe);
        self
    }
}

/// A running TCP loopback cluster.
pub struct TcpCluster<B: SecureBroadcast<EnginePayload>> {
    /// One handle per node, in process order. Entries can be taken
    /// (stopped/restarted) individually.
    pub handles: Vec<Option<NodeHandle<B>>>,
    /// The live peer-address directory (restarted nodes re-register via
    /// [`crate::tcp::Directory::announce`], which purges the superseded
    /// entry so peers never back off against the dead port).
    pub directory: PeerDirectory,
    /// The client gateway address of each node.
    pub client_addrs: Vec<SocketAddr>,
    config: NodeConfig,
    options: ClusterOptions,
}

/// Starts `n` nodes over in-process channels (no sockets); `make` builds
/// each node's broadcast backend.
pub fn start_mesh_cluster<B, F>(n: usize, config: NodeConfig, make: F) -> Vec<NodeHandle<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    start_mesh_cluster_with(n, config, &ClusterOptions::default(), make)
}

/// [`start_mesh_cluster`] with chaos attachments: the mesh links obey
/// `options.faults` and every node records into `options.probe`.
pub fn start_mesh_cluster_with<B, F>(
    n: usize,
    config: NodeConfig,
    options: &ClusterOptions,
    make: F,
) -> Vec<NodeHandle<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    let endpoints = match &options.faults {
        Some(faults) => channel_mesh_faulty(n, 65_536, faults.clone()),
        None => channel_mesh(n, 65_536),
    };
    endpoints
        .into_iter()
        .enumerate()
        .map(|(i, mesh)| {
            let me = ProcessId::new(i as u32);
            Node::start_probed(me, n, config, make(me), mesh, None, options.probe.clone())
        })
        .collect()
}

/// Starts `n` nodes over loopback TCP, each with a client gateway;
/// `make` builds each node's broadcast backend.
pub fn start_tcp_cluster<B, F>(
    n: usize,
    config: NodeConfig,
    options: TcpOptions,
    make: F,
) -> std::io::Result<TcpCluster<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    start_tcp_cluster_with(n, config, ClusterOptions::tcp(options), make)
}

/// [`start_tcp_cluster`] with chaos attachments: every node's transport
/// consults `options.faults` and records into `options.probe` (both
/// survive node restarts through the cluster handle).
pub fn start_tcp_cluster_with<B, F>(
    n: usize,
    config: NodeConfig,
    options: ClusterOptions,
    make: F,
) -> std::io::Result<TcpCluster<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    start_tcp_nodes(n, config, options, |me, _| make(me))
}

/// [`start_tcp_cluster`] where each node's backend is built against
/// that node's own observability [`Recorder`] (see
/// [`Node::start_instrumented`]): `make` receives the recorder the
/// node's stage spans feed, so backends wrapped in
/// [`at_broadcast::auth::ObservedAuth`] meter sign/verify into the
/// registry served over `Client::stats`.
pub fn start_tcp_cluster_instrumented<B, F>(
    n: usize,
    config: NodeConfig,
    options: TcpOptions,
    make: F,
) -> std::io::Result<TcpCluster<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId, &Recorder) -> B,
{
    start_tcp_nodes(n, config, ClusterOptions::tcp(options), make)
}

/// The one body behind every TCP cluster start: bind `n` loopback
/// listeners, publish them in a directory, and start each node with a
/// client gateway, its backend built against the node's own recorder.
fn start_tcp_nodes<B, F>(
    n: usize,
    config: NodeConfig,
    options: ClusterOptions,
    make: F,
) -> std::io::Result<TcpCluster<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId, &Recorder) -> B,
{
    let mut listeners = Vec::with_capacity(n);
    let mut peer_addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        peer_addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    let directory = peer_directory(peer_addrs);
    let mut handles = Vec::with_capacity(n);
    let mut client_addrs = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId::new(i as u32);
        let transport = TcpTransport::start_with_faults(
            me,
            listener,
            std::sync::Arc::clone(&directory),
            options.tcp,
            options.faults.clone(),
        )?;
        let gateway = ClientGateway::bind("127.0.0.1:0")?;
        client_addrs.push(gateway.local_addr()?);
        handles.push(Some(Node::start_instrumented(
            me,
            n,
            config,
            |recorder| make(me, recorder),
            transport,
            Some(gateway),
            options.probe.clone(),
        )));
    }
    Ok(TcpCluster {
        handles,
        directory,
        client_addrs,
        config,
        options,
    })
}

impl<B> TcpCluster<B>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
{
    /// Stops node `i` gracefully and returns its warm replica state.
    ///
    /// # Panics
    ///
    /// Panics if node `i` is already stopped.
    pub fn stop_node(&mut self, i: usize) -> ShardedReplica<B> {
        self.handles[i].take().expect("node already stopped").stop()
    }

    /// [`TcpCluster::stop_node`] that also returns the incarnation's
    /// final `(lost_ingest, malformed_frames)` counters (see
    /// [`NodeHandle::stop_counted`]) — they die with the node loop, and
    /// a loss-gating harness must fold them into its run totals.
    pub fn stop_node_counted(&mut self, i: usize) -> (ShardedReplica<B>, u64, u64) {
        self.handles[i]
            .take()
            .expect("node already stopped")
            .stop_counted()
    }

    /// Restarts node `i` from warm replica state on a fresh port
    /// (announced through the live directory; peers reconnect and
    /// replay everything it missed) with a fresh client gateway. Fault
    /// injector and probe attachments carry over.
    pub fn restart_node(&mut self, i: usize, replica: ShardedReplica<B>) -> std::io::Result<()> {
        assert!(self.handles[i].is_none(), "node {i} is still running");
        let me = replica.me();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.directory.announce(i, listener.local_addr()?);
        let transport = TcpTransport::start_with_faults(
            me,
            listener,
            std::sync::Arc::clone(&self.directory),
            self.options.tcp,
            self.options.faults.clone(),
        )?;
        let gateway = ClientGateway::bind("127.0.0.1:0")?;
        self.client_addrs[i] = gateway.local_addr()?;
        self.handles[i] = Some(Node::resume_probed(
            replica,
            self.config,
            transport,
            Some(gateway),
            self.options.probe.clone(),
        ));
        Ok(())
    }

    /// Cold-starts node `i` from a **quorum-attested snapshot** instead
    /// of warm replica state: the catch-up path of a node whose process
    /// (and memory) is gone for good.
    ///
    /// The bootstrap probes every running peer's gateway for a snapshot
    /// header and waits until `f + 1` digests agree (`f = (n-1)/3`) —
    /// at least one honest replica then vouches for the state. It
    /// downloads the snapshot from an attesting peer in resumable
    /// chunks, verifies the digest over the decoded contents, restores
    /// a replica with [`ShardedReplica::from_snapshot`], and starts it
    /// on fresh ports (announced through the directory). Peers replay
    /// only their unacknowledged outbox suffix — the short log tail —
    /// and the restored backend floors discard anything behind the
    /// snapshot, so catch-up work is O(state), not O(history).
    ///
    /// Attestation needs the agreeing digests to describe the same cut,
    /// so this converges once in-flight traffic settles; `timeout`
    /// bounds the wait. The previous incarnation of `i` must have
    /// stopped gracefully (its own broadcast stream quiesced), as with
    /// any restart.
    ///
    /// # Panics
    ///
    /// Panics if node `i` is still running.
    pub fn cold_start_node<F>(
        &mut self,
        i: usize,
        make: F,
        timeout: Duration,
    ) -> std::io::Result<()>
    where
        F: FnOnce(ProcessId) -> B,
    {
        assert!(self.handles[i].is_none(), "node {i} is still running");
        let catch_up_started = Instant::now();
        let deadline = catch_up_started + timeout;
        let n = self.handles.len();
        let f = (n - 1) / 3;
        let chunk_timeout = Duration::from_secs(10);
        let peers: Vec<usize> = (0..n)
            .filter(|&j| j != i && self.handles[j].is_some())
            .collect();
        let snapshot = loop {
            // One round of header probes across the running peers.
            let mut votes: Vec<(u64, Vec<usize>)> = Vec::new();
            for &j in &peers {
                let Ok(mut client) = Client::connect(self.client_addrs[j]) else {
                    continue;
                };
                let Ok((_, digest)) = client.snapshot_header(chunk_timeout) else {
                    continue;
                };
                match votes.iter_mut().find(|(d, _)| *d == digest) {
                    Some((_, voters)) => voters.push(j),
                    None => votes.push((digest, vec![j])),
                }
            }
            // f+1 matching digests guarantee at least one correct voter.
            let attested = votes.iter().find(|(_, voters)| voters.len() > f);
            if let Some((digest, voters)) = attested {
                // Download from an attesting peer and cross-check the
                // bytes against the attested digest (the peer re-cuts
                // at offset 0; a mismatch means traffic moved the state
                // under us — re-attest).
                let mut client = Client::connect(self.client_addrs[voters[0]])?;
                let bytes = client.fetch_snapshot(chunk_timeout)?;
                if let Ok(snapshot) = at_model::codec::decode::<LedgerSnapshot>(&bytes) {
                    if snapshot.verify() && snapshot.digest == *digest {
                        break snapshot;
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("no quorum of {} matching snapshot digests", f + 1),
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let me = ProcessId::new(i as u32);
        let replica = ShardedReplica::from_snapshot(me, n, self.config.engine, make(me), &snapshot);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.directory.announce(i, listener.local_addr()?);
        let transport = TcpTransport::start_with_faults(
            me,
            listener,
            std::sync::Arc::clone(&self.directory),
            self.options.tcp,
            self.options.faults.clone(),
        )?;
        let gateway = ClientGateway::bind("127.0.0.1:0")?;
        self.client_addrs[i] = gateway.local_addr()?;
        self.handles[i] = Some(Node::resume_bootstrapped(
            replica,
            self.config,
            transport,
            Some(gateway),
            self.options.probe.clone(),
            catch_up_started,
        ));
        Ok(())
    }

    /// The running node handles.
    pub fn running(&self) -> impl Iterator<Item = &NodeHandle<B>> {
        self.handles.iter().filter_map(Option::as_ref)
    }

    /// Stops every running node.
    pub fn stop_all(&mut self) {
        for slot in &mut self.handles {
            if let Some(handle) = slot.take() {
                handle.stop();
            }
        }
    }
}

/// Tuning of a convergence wait (see [`try_await_convergence`]).
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceOptions {
    /// Total time to wait before giving up.
    pub timeout: Duration,
    /// Interval between report polls. Under injected delay a cluster
    /// legitimately converges slowly; a chaos harness stretches both
    /// knobs instead of flaking on a fixed schedule.
    pub poll: Duration,
}

impl ConvergenceOptions {
    /// The given timeout with the default 20ms poll.
    pub fn with_timeout(timeout: Duration) -> Self {
        ConvergenceOptions {
            timeout,
            poll: Duration::from_millis(20),
        }
    }
}

impl Default for ConvergenceOptions {
    fn default() -> Self {
        ConvergenceOptions::with_timeout(Duration::from_secs(30))
    }
}

/// Diagnostic payload of a convergence timeout: what the cluster looked
/// like when the deadline expired, instead of a bare `None`.
#[derive(Clone, Debug)]
pub struct ConvergenceTimeout {
    /// The final reports polled before giving up.
    pub last_reports: Vec<NodeReport>,
    /// The first divergent digest pair in the final poll (`None` when
    /// the digests agreed but some replica was still non-quiescent).
    pub divergent: Option<((ProcessId, u64), (ProcessId, u64))>,
}

impl fmt::Display for ConvergenceTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergent {
            Some(((p, d), (q, e))) => write!(
                f,
                "convergence timed out: digests diverge ({p}: {d:016x} vs {q}: {e:016x})"
            ),
            None => {
                let pending: u64 = self.last_reports.iter().map(|r| r.pending).sum();
                write!(
                    f,
                    "convergence timed out: digests agree but {pending} entries still pending"
                )
            }
        }
    }
}

/// Polls `handles` until every replica reports the same ledger digest
/// twice in a row with empty pending queues (quiescent convergence),
/// returning the final reports — or the last observed state on timeout.
/// (Runtime counters like `applied` are deliberately not compared: they
/// reset on a warm restart; the digest is the replica-state ground
/// truth.)
pub fn try_await_convergence<B>(
    handles: &[&NodeHandle<B>],
    options: ConvergenceOptions,
) -> Result<Vec<NodeReport>, ConvergenceTimeout>
where
    B: SecureBroadcast<EnginePayload>,
{
    let deadline = Instant::now() + options.timeout;
    let mut previous: Option<Vec<NodeReport>> = None;
    loop {
        let reports: Vec<NodeReport> = handles.iter().map(|h| h.report()).collect();
        let divergent = reports.windows(2).find_map(|w| {
            (w[0].digest != w[1].digest)
                .then(|| ((w[0].node, w[0].digest), (w[1].node, w[1].digest)))
        });
        let quiescent = reports.iter().all(|r| r.pending == 0);
        if divergent.is_none() && quiescent {
            if previous.as_ref() == Some(&reports) {
                return Ok(reports);
            }
            previous = Some(reports.clone());
        } else {
            previous = None;
        }
        if Instant::now() >= deadline {
            return Err(ConvergenceTimeout {
                last_reports: reports,
                divergent,
            });
        }
        std::thread::sleep(options.poll);
    }
}

/// [`try_await_convergence`] with the default poll interval, collapsing
/// the diagnostic to `None` — the original fixed-shape helper.
pub fn await_convergence<B>(
    handles: &[&NodeHandle<B>],
    timeout: Duration,
) -> Option<Vec<NodeReport>>
where
    B: SecureBroadcast<EnginePayload>,
{
    try_await_convergence(handles, ConvergenceOptions::with_timeout(timeout)).ok()
}
