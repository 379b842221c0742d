//! The layer table: each layer's public entry points timed on their
//! own, outside any cluster, with a span around every call sequence.
//!
//! A row runs its operation for `Budget::row_ms`, `Budget::repeats`
//! times, and reports the median repeat; the spread between repeats
//! goes into the report's notes. `perf run --trace 1` uses the quick
//! budget so a traced run stays inside the driver's time; `perf trace`
//! uses the full one.

use crate::schedule::Rng;
use crate::span::{SpanId, Spans};
use crate::spec;
use crate::stats;
use crate::Outcome;
use at_broadcast::{
    AccountOrderBackend, Batch, BrachaBroadcast, EchoBroadcast, EchoMsg, EdAuth, NoAuth,
    SecureBroadcast, Step,
};
use at_core::figure4::TransferMsg;
use at_crypto::{verify_batch, KeyStore, PrecomputedKey};
use at_engine::{EngineConfig, EngineEvent, EnginePayload, ShardedLedger, ShardedReplica};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_net::{Actor, Context, RecvOutcome, Transport, VirtualTime};
use at_node::wire::{
    decode_frame_body_ref, decode_peer_payload, encode_frame_into, encode_peer_payload, FrameRef,
};
use at_node::{
    channel_mesh, peer_directory, start_mesh_cluster, Frame, NodeConfig, ResponseBody, TcpOptions,
    TcpTransport,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub row_ms: u64,
    pub repeats: usize,
}

impl Budget {
    pub const QUICK: Budget = Budget {
        row_ms: 40,
        repeats: 3,
    };
    pub const FULL: Budget = Budget {
        row_ms: 200,
        repeats: 5,
    };
}

const N: usize = spec::NODES;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

struct Table<'a> {
    budget: Budget,
    outcome: &'a mut Outcome,
    root: SpanId,
    rows: u64,
}

impl Table<'_> {
    fn spans(&mut self) -> &mut Spans {
        &mut self.outcome.spans
    }

    /// Runs `op` (which returns how many operations it performed) until
    /// the row's time is up, once per repeat; returns the median
    /// nanoseconds per operation.
    fn measure(&mut self, name: &'static str, mut op: impl FnMut() -> u64) -> f64 {
        self.rows += 1;
        let row_id = self.rows;
        let root = self.root;
        let row = self.spans().begin(name, Some(root), row_id);
        let mut per_op_ns = Vec::with_capacity(self.budget.repeats);
        for _ in 0..self.budget.repeats {
            let repeat = self.spans().begin("repeat", Some(row), row_id);
            let started = Instant::now();
            let mut ops = 0u64;
            while started.elapsed() < Duration::from_millis(self.budget.row_ms) {
                ops += op();
            }
            per_op_ns.push(started.elapsed().as_nanos() as f64 / ops.max(1) as f64);
            self.spans().end(repeat);
        }
        self.spans().end(row);
        self.settle(name, per_op_ns)
    }

    /// Median of a row's repeats; their range over the median is kept
    /// as the row's spread.
    fn settle(&mut self, name: &'static str, mut per_op_ns: Vec<f64>) -> f64 {
        stats::sort(&mut per_op_ns);
        let median = stats::median(&per_op_ns);
        let range = per_op_ns.last().unwrap_or(&0.0) - per_op_ns.first().unwrap_or(&0.0);
        self.outcome
            .layer_spread
            .push((name, range / median.max(f64::MIN_POSITIVE)));
        median
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.outcome.metrics.set(name, value);
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.outcome.problems.push(what.into());
    }
}

/// Fills every layer-table metric of `outcome`.
pub fn table(budget: &Budget, outcome: &mut Outcome) {
    let root = outcome.spans.begin("layer-table", None, 0);
    let mut table = Table {
        budget: *budget,
        outcome,
        root,
        rows: 0,
    };
    crypto_rows(&mut table);
    wire_rows(&mut table);
    broadcast_rows(&mut table);
    engine_rows(&mut table);
    transport_rows(&mut table);
    node_rows(&mut table);
    table.outcome.spans.end(root);
}

fn crypto_rows(t: &mut Table<'_>) {
    let keys = KeyStore::deterministic(N, spec::AUTH_SEED);
    let message = [0x5Au8; 192];
    let signatures: Vec<_> = (0..N).map(|i| keys.keypair(p(i)).sign(&message)).collect();
    let tables: Vec<_> = (0..N)
        .map(|i| PrecomputedKey::new(*keys.public(p(i))))
        .collect();

    let ns = t.measure("crypto.sign_us", || {
        black_box(keys.keypair(p(0)).sign(black_box(&message)));
        1
    });
    t.set("crypto.sign_us", ns / 1e3);
    let ns = t.measure("crypto.verify_us", || {
        black_box(tables[0].verify(black_box(&message), &signatures[0])).expect("valid signature");
        1
    });
    t.set("crypto.verify_us", ns / 1e3);
    // One SignedEcho certificate at n = 4: three shares, one pass.
    let certificate: Vec<(&PrecomputedKey, &[u8], &at_crypto::Signature)> = (0..3)
        .map(|i| (&tables[i], &message[..], &signatures[i]))
        .collect();
    let ns = t.measure("crypto.verify_batch3_us", || {
        black_box(verify_batch(black_box(&certificate))).expect("valid certificate");
        1
    });
    t.set("crypto.verify_batch3_us", ns / 1e3);
    let ns = t.measure("crypto.key_warm_ms", || {
        EdAuth::deterministic(N, spec::AUTH_SEED).warm();
        1
    });
    t.set("crypto.key_warm_ms", ns / 1e6);
}

/// A batch of `size` transfers from account 0, as a replica would
/// broadcast it.
fn batch(size: usize, first_seq: u64) -> EnginePayload {
    Batch::new(
        (0..size)
            .map(|i| TransferMsg {
                transfer: Transfer::new(
                    AccountId::new(0),
                    AccountId::new(1 + (i as u32 * 7919) % (spec::ACCOUNTS - 1)),
                    Amount::new(1 + i as u64 % 4),
                    p(0),
                    SeqNo::new(first_seq + i as u64),
                ),
                deps: Vec::new(),
            })
            .collect(),
    )
}

type EchoNoAuth = EchoBroadcast<EnginePayload, NoAuth>;
type EchoNoAuthMsg = EchoMsg<EnginePayload, ()>;

fn wire_rows(t: &mut Table<'_>) {
    for (size, encode_name, decode_name) in [
        (128, "wire.encode_batch128_us", "wire.decode_batch128_us"),
        (1, "wire.encode_batch1_us", "wire.decode_batch1_us"),
    ] {
        // The SEND an echo endpoint emits for the batch.
        let mut step = Step::new();
        EchoNoAuth::new(p(0), N, NoAuth).broadcast(batch(size, 1), &mut step);
        let message: EchoNoAuthMsg = step.outgoing.swap_remove(0).msg;
        let mut framed = Vec::new();
        let ns = t.measure(encode_name, || {
            framed.clear();
            let payload = encode_peer_payload(black_box(&message));
            encode_frame_into(&Frame::Data { seq: 1, payload }, &mut framed);
            black_box(framed.len());
            1
        });
        t.set(encode_name, ns / 1e3);
        let mut undecodable = false;
        let ns = t.measure(decode_name, || {
            let decoded = match decode_frame_body_ref(black_box(&framed[4..])) {
                Ok(FrameRef::Data { payload, .. }) => {
                    decode_peer_payload::<EchoNoAuthMsg>(payload).ok()
                }
                _ => None,
            };
            undecodable |= black_box(decoded).is_none();
            1
        });
        t.set(decode_name, ns / 1e3);
        if undecodable {
            t.fail(format!("{decode_name}: frame did not decode"));
        }
    }
}

/// Drives one broadcast of `payload` from endpoint 0 to delivery at all
/// hand-wired endpoints; returns `(messages routed, deliveries)`.
fn drive_instance<B: SecureBroadcast<EnginePayload>>(
    endpoints: &mut [B],
    payload: EnginePayload,
) -> (u64, usize) {
    let mut queue: VecDeque<(ProcessId, ProcessId, B::Msg)> = VecDeque::new();
    let mut step = Step::new();
    endpoints[0].broadcast(payload, &mut step);
    let (mut routed, mut delivered) = (0u64, 0usize);
    let mut from = p(0);
    loop {
        delivered += step.deliveries.len();
        for out in step.outgoing.drain(..) {
            queue.push_back((from, out.to, out.msg));
        }
        let Some((sender, to, msg)) = queue.pop_front() else {
            return (routed, delivered);
        };
        routed += 1;
        from = to;
        step = Step::new();
        endpoints[to.as_usize()].on_message(sender, msg, &mut step);
    }
}

fn broadcast_row<B: SecureBroadcast<EnginePayload>>(
    t: &mut Table<'_>,
    time_name: &'static str,
    count_name: &'static str,
    mut endpoints: Vec<B>,
) {
    let payload = batch(spec::BATCH_SIZE, 1);
    let (mut instances, mut messages, mut undelivered) = (0u64, 0u64, 0u64);
    let ns = t.measure(time_name, || {
        let (routed, delivered) = drive_instance(&mut endpoints, payload.clone());
        instances += 1;
        messages += routed;
        undelivered += (delivered != N) as u64;
        // Nodes prune once a second; doing it here keeps the row's
        // memory flat without timing a different code path.
        if instances.is_multiple_of(64) {
            for endpoint in &mut endpoints {
                endpoint.prune_delivered();
            }
        }
        1
    });
    t.set(time_name, ns / 1e3);
    t.set(count_name, messages as f64 / instances.max(1) as f64);
    if undelivered > 0 {
        t.fail(format!(
            "{time_name}: {undelivered} instances not delivered everywhere"
        ));
    }
}

fn broadcast_rows(t: &mut Table<'_>) {
    broadcast_row(
        t,
        "broadcast.echo_instance_us",
        "broadcast.echo_msgs_per_instance",
        (0..N).map(|i| EchoNoAuth::new(p(i), N, NoAuth)).collect(),
    );
    broadcast_row(
        t,
        "broadcast.bracha_instance_us",
        "broadcast.bracha_msgs_per_instance",
        (0..N)
            .map(|i| BrachaBroadcast::<EnginePayload>::new(p(i), N))
            .collect(),
    );
    broadcast_row(
        t,
        "broadcast.acctorder_instance_us",
        "broadcast.acctorder_msgs_per_instance",
        (0..N)
            .map(|i| AccountOrderBackend::<EnginePayload, NoAuth>::new(p(i), N, NoAuth))
            .collect(),
    );
}

fn engine_config() -> EngineConfig {
    EngineConfig::sharded_batched(
        spec::SHARDS,
        spec::BATCH_SIZE,
        VirtualTime::from_micros(spec::BATCH_WINDOW_US),
    )
    .with_accounts(spec::ACCOUNTS as usize)
}

type Replica = ShardedReplica<EchoNoAuth>;

/// Hands `outbox` and everything it causes to the replicas until no
/// message is left.
fn route(
    replicas: &mut [Replica],
    from: ProcessId,
    outbox: Vec<(ProcessId, EchoNoAuthMsg)>,
    events: &mut Vec<(VirtualTime, ProcessId, EngineEvent)>,
) {
    let mut queue: VecDeque<_> = outbox
        .into_iter()
        .map(|(to, msg)| (from, to, msg))
        .collect();
    while let Some((sender, to, msg)) = queue.pop_front() {
        let mut ctx = Context::detached(VirtualTime::ZERO, to, N, events);
        replicas[to.as_usize()].on_message(sender, msg, &mut ctx);
        queue.extend(
            ctx.into_outputs()
                .outbox
                .into_iter()
                .map(|(next, msg)| (to, next, msg)),
        );
    }
}

fn engine_rows(t: &mut Table<'_>) {
    let mut replicas: Vec<Replica> = (0..N)
        .map(|i| {
            ShardedReplica::with_backend(
                p(i),
                N,
                Amount::new(spec::INITIAL_BALANCE),
                engine_config(),
                EchoNoAuth::new(p(i), N, NoAuth),
            )
        })
        .collect();
    let mut rng = Rng::new(spec::AUTH_SEED, 0);
    let mut events = Vec::new();

    // One row of work, three timers: submit a full batch at replica 0,
    // drive it to application at all four, and every 16th batch prune
    // behind the common frontier.
    t.rows += 1;
    let row_id = t.rows;
    let root = t.root;
    let row = t.spans().begin("engine.batch_round", Some(root), row_id);
    let (mut submit_ns, mut apply_ns, mut prune_ns) = (vec![], vec![], vec![]);
    let mut batches = 0u64;
    for _ in 0..t.budget.repeats {
        let repeat = t.spans().begin("repeat", Some(row), row_id);
        let started = Instant::now();
        let (mut in_submit, mut in_apply, mut in_prune) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut rounds, mut prunes) = (0u32, 0u32);
        while started.elapsed() < Duration::from_millis(t.budget.row_ms) {
            let submit_span = t.spans().begin("engine.submit", Some(repeat), batches);
            let at = Instant::now();
            let mut outbox = Vec::new();
            for _ in 0..spec::BATCH_SIZE {
                let dest = AccountId::new(1 + rng.below(u64::from(spec::ACCOUNTS) - 1) as u32);
                let mut ctx = Context::detached(VirtualTime::ZERO, p(0), N, &mut events);
                replicas[0].submit(dest, Amount::new(1), &mut ctx);
                outbox.extend(ctx.into_outputs().outbox);
            }
            in_submit += at.elapsed();
            t.spans().end(submit_span);

            let apply_span = t.spans().begin("engine.apply", Some(repeat), batches);
            let at = Instant::now();
            route(&mut replicas, p(0), outbox, &mut events);
            in_apply += at.elapsed();
            t.spans().end(apply_span);
            events.clear();
            rounds += 1;
            batches += 1;

            if batches.is_multiple_of(16) {
                let prune_span = t.spans().begin("engine.prune", Some(repeat), batches);
                let at = Instant::now();
                let frontier: Vec<SeqNo> = (0..N)
                    .map(|q| {
                        replicas
                            .iter()
                            .map(|r| r.stability_frontier()[q])
                            .min()
                            .expect("N > 0")
                    })
                    .collect();
                for replica in &mut replicas {
                    black_box(replica.prune_through(&frontier));
                }
                in_prune += at.elapsed();
                prunes += N as u32;
                t.spans().end(prune_span);
            }
        }
        t.spans().end(repeat);
        let per = |total: Duration, ops: u32| total.as_nanos() as f64 / f64::from(ops.max(1));
        submit_ns.push(per(in_submit, rounds * spec::BATCH_SIZE as u32));
        apply_ns.push(per(in_apply, rounds * (spec::BATCH_SIZE * N) as u32));
        prune_ns.push(per(in_prune, prunes));
    }
    t.spans().end(row);
    let submit = t.settle("engine.submit_us", submit_ns);
    t.set("engine.submit_us", submit / 1e3);
    let apply = t.settle("engine.apply_us_per_transfer", apply_ns);
    t.set("engine.apply_us_per_transfer", apply / 1e3);
    let prune = t.settle("engine.prune_us", prune_ns);
    t.set("engine.prune_us", prune / 1e3);
    let expected = batches * spec::BATCH_SIZE as u64;
    if replicas.iter().any(|r| {
        r.stability_frontier()[0].value() != expected || r.digest() != replicas[0].digest()
    }) {
        t.fail("engine rows: replicas did not all apply every submitted transfer");
    }

    let ns = t.measure("engine.snapshot_ms", || {
        black_box(replicas[0].snapshot());
        1
    });
    t.set("engine.snapshot_ms", ns / 1e6);

    let mut ledger = ShardedLedger::uniform(
        spec::ACCOUNTS as usize,
        Amount::new(spec::INITIAL_BALANCE),
        spec::SHARDS,
    );
    let transfers: Vec<Transfer> = (0..1_000u64)
        .map(|i| {
            let source = rng.below(u64::from(spec::ACCOUNTS)) as u32;
            let dest =
                (source + 1 + rng.below(u64::from(spec::ACCOUNTS) - 1) as u32) % spec::ACCOUNTS;
            Transfer::new(
                AccountId::new(source),
                AccountId::new(dest),
                Amount::new(1),
                p(0),
                SeqNo::new(i + 1),
            )
        })
        .collect();
    let mut refused = 0u64;
    let ns = t.measure("engine.ledger_apply_ns", || {
        for transfer in &transfers {
            refused += ledger.apply(black_box(transfer)).is_err() as u64;
        }
        transfers.len() as u64
    });
    t.set("engine.ledger_apply_ns", ns);
    if refused > 0 {
        t.fail(format!(
            "engine.ledger_apply_ns: {refused} funded transfers refused"
        ));
    }
}

const RECV_TIMEOUT: Duration = Duration::from_secs(2);

/// One frame from 0 to 1 and one back; false when either got lost.
fn ping_pong<T: Transport>(a: &mut T, b: &mut T, payload: &[u8]) -> bool {
    a.send(p(1), payload.to_vec());
    let RecvOutcome::Frame(frame) = b.recv_timeout(RECV_TIMEOUT) else {
        return false;
    };
    b.send(p(0), frame.payload);
    matches!(a.recv_timeout(RECV_TIMEOUT), RecvOutcome::Frame(_))
}

fn transport_rows(t: &mut Table<'_>) {
    let payload = [0xA5u8; 128];
    let mut lost = 0u64;

    let mut mesh = channel_mesh(2, 1_024);
    let (mut b, mut a) = (mesh.pop().expect("two"), mesh.pop().expect("two"));
    let ns = t.measure("net.mesh_rtt_us", || {
        lost += !ping_pong(&mut a, &mut b, &payload) as u64;
        1
    });
    t.set("net.mesh_rtt_us", ns / 1e3);

    let started = (|| -> std::io::Result<(TcpTransport, TcpTransport)> {
        let listeners = [
            TcpListener::bind("127.0.0.1:0")?,
            TcpListener::bind("127.0.0.1:0")?,
        ];
        let directory =
            peer_directory(vec![listeners[0].local_addr()?, listeners[1].local_addr()?]);
        let [l0, l1] = listeners;
        Ok((
            TcpTransport::start(p(0), l0, directory.clone(), TcpOptions::default())?,
            TcpTransport::start(p(1), l1, directory, TcpOptions::default())?,
        ))
    })();
    let (mut a, mut b) = match started {
        Ok(pair) => pair,
        Err(err) => return t.fail(format!("tcp rows: {err}")),
    };
    // The first exchange also pays the dial and handshake.
    lost += !ping_pong(&mut a, &mut b, &payload) as u64;
    let ns = t.measure("tcp.rtt_us", || {
        lost += !ping_pong(&mut a, &mut b, &payload) as u64;
        1
    });
    t.set("tcp.rtt_us", ns / 1e3);
    const BURST: u64 = 2_000;
    let ns = t.measure("tcp.frames_per_s", || {
        for _ in 0..BURST {
            a.send(p(1), payload.to_vec());
        }
        for _ in 0..BURST {
            lost += !matches!(b.recv_timeout(RECV_TIMEOUT), RecvOutcome::Frame(_)) as u64;
        }
        BURST
    });
    t.set("tcp.frames_per_s", 1e9 / ns);
    a.shutdown();
    b.shutdown();
    if lost > 0 {
        t.fail(format!(
            "transport rows: {lost} frames lost on a fault-free link"
        ));
    }
}

fn node_rows(t: &mut Table<'_>) {
    let config = NodeConfig::new(engine_config(), Amount::new(spec::INITIAL_BALANCE));
    let handles = start_mesh_cluster(N, config, |me| EchoNoAuth::new(me, N, NoAuth));
    let mut client = handles[0].local_client();
    let mut uncommitted = 0u64;
    let mut next_dest = 1u32;
    // Depth 1: each commit waits out the batch window, crosses the node
    // loops and the channel mesh, and touches no socket.
    let ns = t.measure("node.mesh4_commit_us", || {
        next_dest = 1 + next_dest % (spec::ACCOUNTS - 1);
        let id = client.submit_transfer(AccountId::new(next_dest), Amount::new(1));
        let committed = client
            .recv_response(RECV_TIMEOUT)
            .is_some_and(|r| r.id == id && matches!(r.body, ResponseBody::Committed { .. }));
        uncommitted += !committed as u64;
        1
    });
    t.set("node.mesh4_commit_us", ns / 1e3);
    drop(client);
    for handle in handles {
        handle.stop();
    }
    if uncommitted > 0 {
        t.fail(format!(
            "node.mesh4_commit_us: {uncommitted} transfers not committed"
        ));
    }
}
