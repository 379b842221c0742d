//! # at-node — the deployable replica runtime
//!
//! Everything below `at-engine` is sans-I/O by design: the broadcast
//! protocols and the sharded replica fill [`at_broadcast::Step`]s and
//! run equally under the deterministic simulator or — this crate — on
//! real OS threads and TCP sockets. `at-node` is that second runtime:
//! the paper's claim that asset transfer needs only secure broadcast,
//! served as a process you can deploy, load, kill, and restart.
//!
//! * [`wire`] — the versioned binary wire protocol: length-prefixed
//!   frames, peer handshake/data/ack frames, client request/response
//!   frames, all total on untrusted input;
//! * [`mesh`] / [`tcp`] — the two [`at_net::Transport`] implementations:
//!   an in-process channel mesh for tests, and TCP whose non-blocking
//!   sockets the consumer's own thread moves — `recv_timeout` blocks in
//!   one `poll(2)` over all of them, a parked helper thread only dials —
//!   with reconnect, bounded replayed send windows (backpressure, not
//!   silent loss), and sequence-numbered frame dedup: the reliable
//!   channel the protocols assume (the per-link protocol state,
//!   including when an acknowledgement is owed, is the private sans-I/O
//!   `link` module; the crate's one `unsafe` block is the `poll` call);
//! * [`node`] — the [`Node`] event loop ([`Node::spawn`]): drains
//!   transport frames, wall-clock batch timers and one command type
//!   (every client request, from a gateway or an in-process
//!   [`LocalClient`] alike) into the replica through a detached
//!   [`at_net::Context`], blocking in one place until the next frame,
//!   command or deadline (nothing is polled); answers clients with
//!   wire [`Frame`]s and keeps its counts in the node's metric registry;
//! * [`gateway`] / [`client`] — the client side: a per-node TCP
//!   gateway (readers queue the loop's commands, writers encode its
//!   frames), and a pipelining [`Client`] library with acknowledgement
//!   tracking;
//! * [`cluster`] — N-node loopback clusters (peers over the mesh or
//!   TCP, every node behind a client gateway) and the
//!   [`await_convergence`] poll used by tests and the `perf` benchmark;
//! * [`probe`] — the shared [`EventProbe`] recorder that turns a live
//!   cluster run into the same checkable event stream the simulator
//!   produces (consumed by `at-chaos` and at-check's recorded-run
//!   validators).
//!
//! See [`Node`] for a runnable three-node cluster example, and the
//! README's *Running a real cluster* section for the TCP story.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod gateway;
mod link;
pub mod mesh;
pub mod node;
pub mod probe;
pub mod tcp;
pub mod wire;

pub use client::{Client, SnapshotSlice};
pub use cluster::{
    await_convergence, start_mesh_cluster, start_mesh_cluster_with, start_tcp_cluster,
    start_tcp_cluster_instrumented, start_tcp_cluster_with, try_await_convergence, ClusterOptions,
    ConvergenceTimeout, TcpCluster,
};
pub use gateway::ClientGateway;
pub use mesh::{channel_mesh, channel_mesh_faulty, ChannelMesh};
pub use node::{LocalClient, Node, NodeConfig, NodeHandle, NodeReport};
pub use probe::EventProbe;
pub use tcp::{peer_directory, Directory, PeerDirectory, TcpOptions, TcpTransport};
pub use wire::{
    ClientOp, ClientRequest, ClientResponse, Frame, FrameBuffer, ResponseBody, WireError,
    MAX_FRAME_LEN, WIRE_VERSION,
};
