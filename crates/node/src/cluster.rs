//! Cluster helpers: spin up N nodes in one process, over the channel
//! mesh or real loopback TCP, and wait for convergence.
//!
//! Either wiring puts every node behind its own [`ClientGateway`], so a
//! driver (a test, `perf`) talks to a mesh node exactly as to a TCP
//! node. The mesh is lossless and takes no faults: fault injection,
//! restarts and cold starts ([`TcpCluster`], which the at-chaos runner
//! drives) need TCP.

use crate::client::Client;
use crate::gateway::ClientGateway;
use crate::mesh::channel_mesh;
use crate::node::{Node, NodeConfig, NodeHandle, NodeReport};
use crate::probe::EventProbe;
use crate::tcp::{peer_directory, PeerDirectory, TcpOptions, TcpTransport};
use at_broadcast::SecureBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::{LedgerSnapshot, Replica};
use at_model::codec::{Decode, Encode};
use at_model::ProcessId;
use at_net::transport::{FaultInjector, Transport};
use at_obs::{Recorder, Stage};
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Everything a cluster start needs beyond the node configuration: the
/// TCP knobs plus the optional chaos attachments.
#[derive(Clone, Default)]
pub struct ClusterOptions {
    /// TCP transport tuning.
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

/// A running loopback cluster, its peers wired over TCP
/// ([`start_tcp_cluster`]).
pub struct TcpCluster<B: SecureBroadcast<EnginePayload>> {
    /// One handle per node, in process order. Entries can be taken
    /// (stopped/restarted) individually.
    pub handles: Vec<Option<NodeHandle<B>>>,
    /// The live peer-address directory (restarted nodes re-register via
    /// [`crate::tcp::Directory::announce`]; peers dial the new address
    /// on their next attempt).
    pub directory: PeerDirectory,
    /// The client gateway address of each node.
    pub client_addrs: Vec<SocketAddr>,
    config: NodeConfig,
    options: ClusterOptions,
}

/// Starts `n` nodes over in-process channels, each behind its own
/// client gateway; `make` builds each node's broadcast backend.
///
/// # Panics
///
/// Panics when a loopback port for a node's client gateway cannot be
/// bound.
pub fn start_mesh_cluster<B, F>(n: usize, config: NodeConfig, make: F) -> Vec<NodeHandle<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId) -> B,
{
    channel_mesh(n, 65_536)
        .into_iter()
        .map(|mesh| {
            let me = mesh.me();
            let gateway =
                ClientGateway::bind("127.0.0.1:0").expect("bind a loopback client gateway");
            Node::spawn(config, mesh, Some(gateway), None, |_| {
                Replica::with_backend(me, n, config.initial, config.engine, make(me))
            })
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
/// that node's own observability [`Recorder`] (see [`Node::spawn`]):
/// `make` receives the recorder the node's stage spans feed, so
/// backends wrapped in [`at_broadcast::auth::ObservedAuth`] meter
/// sign/verify into the registry served over `Client::stats`.
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
    let mut cluster = TcpCluster {
        handles: Vec::with_capacity(n),
        directory: peer_directory(peer_addrs),
        client_addrs: Vec::with_capacity(n),
        config,
        options,
    };
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId::new(i as u32);
        let transport = cluster.tcp_transport(me, listener)?;
        let (handle, addr) = cluster.spawn_node(transport, |recorder| {
            let backend = make(me, recorder);
            Replica::with_backend(me, n, config.initial, config.engine, backend)
        })?;
        cluster.handles.push(Some(handle));
        cluster.client_addrs.push(addr);
    }
    Ok(cluster)
}

/// Admits downloaded snapshot bytes as the state to boot an `n`-process
/// replica from: they must decode, carry a digest that matches their
/// contents and the `attested` one, and hold every process's account —
/// a shorter ledger would restore, then stall at the first transfer
/// that names a missing account.
fn admit_snapshot(bytes: &[u8], attested: u64, n: usize) -> Option<LedgerSnapshot> {
    let snapshot = at_model::codec::decode::<LedgerSnapshot>(bytes).ok()?;
    (snapshot.verify() && snapshot.digest == attested && snapshot.balances.len() >= n)
        .then_some(snapshot)
}

/// Downloads the snapshot `attested` by `voters` from the first of them
/// that serves an admissible copy ([`admit_snapshot`]). A voter that
/// cannot be reached, breaks off mid-transfer or serves other bytes
/// (each re-cuts at offset 0, so traffic may have moved its state on)
/// only passes the turn to the next; `None` when none is left.
fn download_attested(
    voters: &[SocketAddr],
    attested: u64,
    n: usize,
    chunk_timeout: Duration,
) -> Option<LedgerSnapshot> {
    voters.iter().find_map(|&voter| {
        let bytes = Client::connect(voter)
            .and_then(|mut client| client.fetch_snapshot(chunk_timeout))
            .ok()?;
        admit_snapshot(&bytes, attested, n)
    })
}

impl<B> TcpCluster<B>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
{
    /// Node `me`'s TCP endpoint on `listener`, dialing through the
    /// cluster's directory under its fault injector.
    fn tcp_transport(&self, me: ProcessId, listener: TcpListener) -> std::io::Result<TcpTransport> {
        TcpTransport::start_with_faults(
            me,
            listener,
            std::sync::Arc::clone(&self.directory),
            self.options.tcp,
            self.options.faults.clone(),
        )
    }

    /// Spawns one node over `transport` behind a fresh client gateway,
    /// with the cluster's probe attached.
    fn spawn_node<T: Transport + 'static>(
        &self,
        transport: T,
        replica: impl FnOnce(&Recorder) -> Replica<B>,
    ) -> std::io::Result<(NodeHandle<B>, SocketAddr)> {
        let gateway = ClientGateway::bind("127.0.0.1:0")?;
        let addr = gateway.local_addr()?;
        let probe = self.options.probe.clone();
        let handle = Node::spawn(self.config, transport, Some(gateway), probe, replica);
        Ok((handle, addr))
    }

    /// Brings the stopped node `i` back on fresh ports, its peer
    /// address announced through the live directory.
    fn respawn_node(
        &mut self,
        i: usize,
        replica: impl FnOnce(&Recorder) -> Replica<B>,
    ) -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.directory.announce(i, listener.local_addr()?);
        let transport = self.tcp_transport(ProcessId::new(i as u32), listener)?;
        let (handle, addr) = self.spawn_node(transport, replica)?;
        self.handles[i] = Some(handle);
        self.client_addrs[i] = addr;
        Ok(())
    }

    /// Stops node `i` gracefully and returns its warm replica state.
    ///
    /// # Panics
    ///
    /// Panics if node `i` is already stopped.
    pub fn stop_node(&mut self, i: usize) -> Replica<B> {
        self.handles[i].take().expect("node already stopped").stop()
    }

    /// [`TcpCluster::stop_node`] that also returns the incarnation's
    /// final `(lost_ingest, malformed_frames)` counters (see
    /// [`NodeHandle::stop_counted`]) — they die with the node loop, and
    /// a loss-gating harness must fold them into its run totals.
    pub fn stop_node_counted(&mut self, i: usize) -> (Replica<B>, u64, u64) {
        self.handles[i]
            .take()
            .expect("node already stopped")
            .stop_counted()
    }

    /// Restarts node `i` from warm replica state on a fresh port
    /// (announced through the live directory; peers reconnect and
    /// replay everything it missed) with a fresh client gateway. Fault
    /// injector and probe attachments carry over.
    ///
    /// # Panics
    ///
    /// Panics if node `i` is still running.
    pub fn restart_node(&mut self, i: usize, replica: Replica<B>) -> std::io::Result<()> {
        assert!(self.handles[i].is_none(), "node {i} is still running");
        self.respawn_node(i, |_| replica)
    }

    /// Cold-starts node `i` from a **quorum-attested snapshot** instead
    /// of warm replica state: the catch-up path of a node whose process
    /// (and memory) is gone for good.
    ///
    /// The bootstrap probes every running peer's gateway for a snapshot
    /// header and waits until `f + 1` digests agree (`f = (n-1)/3`) —
    /// at least one honest replica then vouches for the state. It
    /// downloads the snapshot from the attesting peers in turn, in
    /// resumable chunks, until one serves bytes that verify against the
    /// attested digest and cover all `n` accounts (a peer that fails or
    /// serves anything else costs only its turn), restores a replica
    /// with [`Replica::from_snapshot`], and starts it on fresh
    /// ports (announced through the directory). Peers replay only their
    /// unacknowledged outbox suffix — the short log tail — and the
    /// restored backend floors discard anything behind the snapshot, so
    /// catch-up work is O(state), not O(history).
    ///
    /// Attestation needs the agreeing digests to describe the same cut,
    /// so this converges once in-flight traffic settles; `timeout`
    /// bounds the wait. The previous incarnation of `i` must have
    /// stopped gracefully (its own broadcast stream quiesced), as with
    /// any restart.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::TimedOut`] when no `f + 1` digests agreed
    /// by the deadline, and [`std::io::ErrorKind::InvalidData`] when
    /// they did but no attesting peer served an admissible snapshot.
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
        let peers: Vec<SocketAddr> = (0..n)
            .filter(|&j| j != i && self.handles[j].is_some())
            .map(|j| self.client_addrs[j])
            .collect();
        let mut attested_once = false;
        let snapshot = loop {
            // One round of header probes across the running peers.
            let mut votes: Vec<(u64, Vec<SocketAddr>)> = Vec::new();
            for &peer in &peers {
                let Ok(mut client) = Client::connect(peer) else {
                    continue;
                };
                let Ok((_, digest)) = client.snapshot_header(chunk_timeout) else {
                    continue;
                };
                match votes.iter_mut().find(|(d, _)| *d == digest) {
                    Some((_, voters)) => voters.push(peer),
                    None => votes.push((digest, vec![peer])),
                }
            }
            // f+1 matching digests guarantee at least one correct voter.
            if let Some((digest, voters)) = votes.iter().find(|(_, voters)| voters.len() > f) {
                attested_once = true;
                if let Some(snapshot) = download_attested(voters, *digest, n, chunk_timeout) {
                    break snapshot;
                }
            }
            if Instant::now() >= deadline {
                use std::io::ErrorKind::{InvalidData, TimedOut};
                return Err(if attested_once {
                    let why = "no attesting peer served a verified snapshot of every account";
                    std::io::Error::new(InvalidData, why)
                } else {
                    let why = format!("no quorum of {} matching snapshot digests", f + 1);
                    std::io::Error::new(TimedOut, why)
                });
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let me = ProcessId::new(i as u32);
        let engine = self.config.engine;
        self.respawn_node(i, |recorder| {
            let replica = Replica::from_snapshot(me, n, engine, make(me), &snapshot);
            // One `stage_catchup_us` sample per bootstrap: from the
            // first header probe until the restored replica exists.
            recorder.record(Stage::CatchUp, catch_up_started.elapsed());
            replica
        })
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

/// Polls `handles` every 20 ms until every replica reports the same
/// ledger digest twice in a row with empty pending queues (quiescent
/// convergence), returning the final reports — or, after `timeout`, the
/// last observed state.
/// (Runtime counters like `applied` are deliberately not compared: they
/// reset on a warm restart; the digest is the replica-state ground
/// truth.)
pub fn try_await_convergence<B>(
    handles: &[&NodeHandle<B>],
    timeout: Duration,
) -> Result<Vec<NodeReport>, ConvergenceTimeout>
where
    B: SecureBroadcast<EnginePayload>,
{
    let deadline = Instant::now() + timeout;
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
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// [`try_await_convergence`] with the diagnostic collapsed to `None`.
pub fn await_convergence<B>(
    handles: &[&NodeHandle<B>],
    timeout: Duration,
) -> Option<Vec<NodeReport>>
where
    B: SecureBroadcast<EnginePayload>,
{
    try_await_convergence(handles, timeout).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_broadcast::auth::NoAuth;
    use at_broadcast::echo::EchoBroadcast;
    use at_engine::EngineConfig;
    use at_model::{AccountId, Amount, SeqNo};

    #[test]
    fn download_skips_a_dead_voter_and_takes_the_live_ones_snapshot() {
        let n = 4;
        let config = NodeConfig::new(EngineConfig::unbatched(), Amount::new(1_000));
        let mut cluster = start_tcp_cluster(n, config, TcpOptions::default(), |me| {
            EchoBroadcast::new(me, n, NoAuth)
        })
        .expect("cluster start");
        let timeout = Duration::from_secs(10);
        let live = cluster.client_addrs[0];
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("a port nobody listens on any more");
        let (_, attested) = Client::connect(live)
            .and_then(|mut client| client.snapshot_header(timeout))
            .expect("header probe");

        let snapshot = download_attested(&[closed, live], attested, n, timeout)
            .expect("the second voter serves the attested snapshot");
        assert_eq!(snapshot.digest, attested);
        assert!(snapshot.verify());
        assert!(download_attested(&[closed], attested, n, timeout).is_none());
        assert!(
            download_attested(&[live], attested ^ 1, n, timeout).is_none(),
            "bytes under another digest than the attested one were admitted"
        );
        cluster.stop_all();
    }

    #[test]
    fn a_snapshot_short_of_the_cluster_size_is_refused() {
        let snapshot_of = |accounts: u32| {
            LedgerSnapshot::new(
                (0..accounts)
                    .map(|i| (AccountId::new(i), Amount::new(100)))
                    .collect(),
                vec![SeqNo::ZERO; 4],
                vec![SeqNo::ZERO; 4],
            )
        };
        // Two accounts under a digest recomputed over them: `verify`
        // passes and the digest is the attested one, so only the
        // account count stands between these bytes and `from_snapshot`.
        let short = snapshot_of(2);
        assert!(short.verify());
        let bytes = at_model::codec::encode(&short);
        assert!(admit_snapshot(&bytes, short.digest, 4).is_none());
        assert_eq!(admit_snapshot(&bytes, short.digest, 2), Some(short));
        let full = snapshot_of(4);
        let bytes = at_model::codec::encode(&full);
        assert_eq!(admit_snapshot(&bytes, full.digest, 4), Some(full));
        assert!(admit_snapshot(&bytes[..bytes.len() - 1], 0, 4).is_none());
    }
}
