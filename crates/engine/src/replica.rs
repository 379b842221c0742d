//! The engine replica: materialized account state over a batched,
//! pluggable secure broadcast.
//!
//! Semantically this is the Figure 4 protocol with materialized
//! balances ([`crate::ledger::Ledger`]: validating a transfer is
//! an `O(1)` lookup instead of recomputing `balance(a, hist[a])` over
//! the account's full history) and two production optimisations, both
//! justified by the paper's consensus-number-1 result:
//!
//! * **batching** — submitted transfers accumulate in a
//!   [`at_broadcast::Batcher`] and ship as one
//!   [`at_broadcast::Batch`] per secure-broadcast instance, amortizing
//!   the per-instance message cost across the batch;
//! * **backend choice** — the replica is generic over any
//!   [`SecureBroadcast`] implementation (Section 5's observation that
//!   the broadcast layer is swappable), trading signature CPU for
//!   message complexity: Bracha's signature-free `O(n²)` protocol, the
//!   `O(n)`-sender signed-echo broadcast, or the Section 6 account-order
//!   broadcast. Select with [`crate::config::BroadcastBackend`].
//!
//! The replica relies on the backend's delivery contract (per-source
//! FIFO, gapless, exactly-once — see [`at_broadcast::secure`]) and on
//! the backend's own instance bookkeeping for broadcast-level dedup and
//! equivocation suppression; it keeps no parallel "seen" state of its
//! own. The only per-source sequencing the replica tracks is Figure 4's
//! `rec[q]`/`seq[q]` over *transfer* sequence numbers, which live inside
//! batch payloads and are invisible to the broadcast layer.
//!
//! A replica hears itself without the network: whatever the backend
//! addresses to this process goes back into the backend, oldest first,
//! before the entry point that caused it returns — the schedule in
//! which the self-link has zero delay, so every safety and liveness
//! argument holds unchanged, and no runtime sees a self-addressed send.
//!
//! Two deliberate semantic deviations from the literal Figure 4, recorded
//! here as the module contract:
//!
//! 1. balances reflect *every* applied transfer immediately (the
//!    "eventually included" view of Definition 1; Figure 4's `read` keeps
//!    a remote account's incoming credits invisible until its owner folds
//!    them into an outgoing transfer), and validation runs against that
//!    view. For a sender that declares the credits it spends — every
//!    honest one: [`Replica::submit`] ships `deps_buffer` with the
//!    transfer — this admits exactly the transfers Figure 4 admits, at
//!    the same delivery: `tests/tests/figure4_oracle.rs` replays every
//!    replica's delivery sequence into `at_core::figure4::TransferState`
//!    and holds applied sets, balances, `seq[q]` and pending counts
//!    equal, pruned and snapshot-restored replicas included. A sender
//!    that spends a credit *without* declaring it is applied here where
//!    Figure 4 holds it forever (pinned by
//!    `an_undeclared_credit_is_spent_where_figure_4_would_hold_it`):
//!    Figure 4 validates against `hist[q] ∪ deps` and never sees the
//!    credit, the ledger already holds it. That is safe — a replica
//!    applies the transfer only once the money is there, one that has
//!    not applied the credit yet holds the transfer until it has, so no
//!    balance goes negative, supply is conserved and replicas converge;
//!    the order Theorem 3 linearizes in (a credit before the transfer it
//!    funds) is the order every replica applied them in. It is also what
//!    lets [`Replica::prune_through`] drop settled credits from
//!    `deps_buffer`.
//! 2. admission (`transfer` line 2) additionally subtracts the amounts of
//!    this replica's own in-flight (submitted, not yet validated)
//!    transfers, so a batch can never contain transfers that jointly
//!    overdraw the account — a hazard Figure 4 avoids only because its
//!    clients are sequential.

use crate::config::{BatchPolicy, EngineConfig};
use crate::ledger::Ledger;
use crate::snapshot::LedgerSnapshot;
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::types::{Delivery, Outgoing, Step};
use at_broadcast::{Batch, Batcher};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer, TransferMsg};
use at_net::{Actor, Context, VirtualTime};
use at_obs::{Recorder, Stage, TraceCtx, TraceEventKind, Tracer};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The payload every engine backend carries: a batch of transfers.
pub type EnginePayload = Batch<TransferMsg>;

/// Base of the flush timers' ids: `FLUSH_TIMER + k` was armed while this
/// replica's latest broadcast instance was `k`. A timer whose batch has
/// since left — at the cap, or on the delivery it was held behind — names
/// an older instance and fires as a no-op.
const FLUSH_TIMER: u64 = 0xBA7C << 32;

/// Why a batch left the batcher (`engine_flush_<reason>_total`).
#[derive(Clone, Copy)]
enum FlushReason {
    /// Nothing of ours was in flight: it left at the end of the pass.
    Idle,
    /// The own batch it was held behind delivered locally.
    Delivered,
    /// It reached `max_size`.
    Cap,
    /// It was held for the whole window (or stranded by a restart).
    Window,
}

impl FlushReason {
    /// The counter of each reason, in discriminant order.
    const COUNTERS: [&'static str; 4] = [
        "engine_flush_idle_total",
        "engine_flush_delivered_total",
        "engine_flush_cap_total",
        "engine_flush_window_total",
    ];
}

/// Cap on delivered-but-unvalidated transfers buffered *per source*.
/// Well-formedness already forces per-source sequential receipt, so an
/// honest sender can only accumulate pending entries while awaiting
/// dependencies — far fewer than this. A Byzantine sender spamming
/// never-valid transfers hits the cap and is dropped instead of growing
/// every correct replica's memory without bound.
const MAX_PENDING_PER_SOURCE: usize = 1_024;

/// Events surfaced by the engine replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// Our own transfer passed admission and was handed to the batcher —
    /// the *invocation* point of the operation. Paired with the later
    /// [`EngineEvent::Completed`] by `(originator, seq)`, this is what
    /// lets [`crate::probe`] reconstruct an `at_model::History` from the
    /// event stream.
    Submitted {
        /// The transfer.
        transfer: Transfer,
    },
    /// Our own transfer validated everywhere it needs to (locally) — the
    /// `return true` of Figure 4.
    Completed {
        /// The transfer.
        transfer: Transfer,
    },
    /// A submission failed admission (insufficient available balance or
    /// unknown destination).
    Rejected {
        /// The destination requested.
        destination: AccountId,
        /// The amount requested.
        amount: Amount,
        /// The available balance at admission time (balance minus
        /// in-flight reservations).
        available: Amount,
    },
    /// A validated transfer (any process's) was applied locally.
    Applied {
        /// The transfer.
        transfer: Transfer,
    },
    /// A batch was handed to the secure broadcast.
    BatchBroadcast {
        /// Number of transfers in the batch.
        size: usize,
    },
    /// The secure-broadcast backend delivered one payload to this
    /// replica. Emitted *before* well-formedness filtering, so the
    /// stream of these events per `(observer, source)` is exactly the
    /// backend's delivery sequence — the probe that checks the
    /// per-source FIFO-exactly-once contract ([`at_broadcast::secure`])
    /// reads it directly.
    BackendDelivery {
        /// The broadcast instance's source.
        source: ProcessId,
        /// The source's broadcast sequence number.
        seq: SeqNo,
    },
    /// A harness-injected read observed a balance
    /// ([`Replica::read_op`]) — an instantaneous read operation
    /// for history reconstruction.
    ReadObserved {
        /// The account read.
        account: AccountId,
        /// The balance observed.
        balance: Amount,
    },
}

/// Pre-resolved observability handles (attached by real runtimes via
/// [`Replica::set_recorder`]; absent under the simulator, so the
/// simulated hot loop never reads the wall clock).
struct EngineObs {
    recorder: Recorder,
    /// `engine_batch_size` — occupancy of each broadcast batch.
    batch_size: Arc<at_obs::Histogram>,
    /// `engine_flush_<reason>_total` — batches by why they left, in
    /// [`FlushReason::COUNTERS`] order.
    flushes: [Arc<at_obs::Counter>; 4],
}

/// One process of the batched consensusless payment engine, generic
/// over the secure-broadcast backend `B`.
pub struct Replica<B: SecureBroadcast<EnginePayload>> {
    me: ProcessId,
    n: usize,
    policy: BatchPolicy,
    ledger: Ledger,
    broadcast: B,
    batcher: Batcher<TransferMsg>,
    /// The instance sequence number of our latest broadcast. A batch of
    /// ours is in flight while this is ahead of `backend_seen[me]`.
    own_sent: SeqNo,
    /// `rec[q]` of Figure 4: last *received* (well-formed) sequence
    /// number per process.
    received_seq: Vec<SeqNo>,
    /// Per source, dense: entry `i` of `applied_from[q]` is `q`'s applied
    /// transfer `pruned_floor[q] + 1 + i` — where a dependency is found by
    /// index, and what the scenario subsystem compares for conflicts. Its
    /// top, `pruned_floor[q] + applied_from[q].len()`, is Figure 4's
    /// `seq[q]`: the last *validated* sequence number of `q`.
    applied_from: Vec<VecDeque<Transfer>>,
    /// Per source, in receipt order: delivered, well-formed,
    /// not-yet-valid transfers (`toValidate`), each with the trace context
    /// of its batch; at most [`MAX_PENDING_PER_SOURCE`] per queue.
    pending: Vec<VecDeque<(TransferMsg, Option<TraceCtx>)>>,
    /// Messages the backend addressed to this process, in send order, not
    /// yet handed back to it. Every entry point empties it before it
    /// returns (`Replica::settle`): a process hears itself in the same
    /// step, and nothing addressed to `me` reaches the context.
    own: VecDeque<B::Msg>,
    /// The buffer every backend call fills: taken for the call, drained
    /// by [`Replica::absorb`] and put back with its capacity. A flush
    /// inside `absorb`'s delivery loop finds it taken and runs on a fresh
    /// one, which the outer call's buffer then replaces.
    step: Step<B::Msg, EnginePayload>,
    /// Incoming credits applied since our last submission (`deps`).
    deps_buffer: BTreeSet<Transfer>,
    /// Our next outgoing sequence number (pre-assigned at submission).
    next_own_seq: SeqNo,
    /// Sum of our submitted-but-not-yet-validated outgoing amounts.
    reserved: Amount,
    /// Batches delivered whose items failed well-formedness (diagnostics).
    malformed_dropped: u64,
    /// Well-formed transfers dropped because the per-source pending
    /// buffer was full — surfaced separately from `malformed_dropped` so
    /// a wedged validation pipeline is diagnosable instead of looking
    /// like frame loss.
    pending_overflow_dropped: u64,
    /// Highest broadcast-*instance* sequence number delivered per source
    /// (the backend floor a snapshot cut carries).
    backend_seen: Vec<SeqNo>,
    /// Per source: the last seq pruned from `applied_from` (every
    /// transfer at or below it is folded into the ledger).
    pruned_floor: Vec<SeqNo>,
    /// Total entries pruned from the applied history and deps buffer.
    pruned_total: u64,
    /// Observability handles, when a runtime attached a recorder.
    obs: Option<EngineObs>,
    /// Causal tracer, when a runtime attached one.
    tracer: Option<Tracer>,
    /// Trace context for the *next* submission (set by the runtime's
    /// ingress path, consumed by [`Replica::submit`]).
    next_trace: Option<TraceCtx>,
}

impl<B: SecureBroadcast<EnginePayload>> Replica<B> {
    /// A replica for process `me` of `n` over the broadcast endpoint
    /// `backend`, each account starting with `initial`, configured by
    /// `config`. The endpoint is the caller's to build:
    /// [`BroadcastBackend::build`](crate::config::BroadcastBackend::build)
    /// builds the one `config.backend` names, and a test may pass any.
    pub fn with_backend(
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        let ledger = Ledger::uniform(config.account_count(n), initial);
        Replica::over(me, n, config, ledger, backend)
    }

    /// A replica with no history over `ledger`: the one constructor body.
    fn over(me: ProcessId, n: usize, config: EngineConfig, ledger: Ledger, backend: B) -> Self {
        Replica {
            me,
            n,
            policy: config.batch,
            ledger,
            broadcast: backend,
            batcher: Batcher::new(config.batch.max_size),
            own_sent: SeqNo::ZERO,
            received_seq: vec![SeqNo::ZERO; n],
            applied_from: vec![VecDeque::new(); n],
            pending: vec![VecDeque::new(); n],
            own: VecDeque::new(),
            step: Step::new(),
            deps_buffer: BTreeSet::new(),
            next_own_seq: SeqNo::ZERO,
            reserved: Amount::ZERO,
            malformed_dropped: 0,
            pending_overflow_dropped: 0,
            backend_seen: vec![SeqNo::ZERO; n],
            pruned_floor: vec![SeqNo::ZERO; n],
            pruned_total: 0,
            obs: None,
            tracer: None,
            next_trace: None,
        }
    }

    /// Reconstructs a replica from a verified [`LedgerSnapshot`]: the
    /// ledger is materialized from the snapshot balances, the per-source
    /// transfer frontiers seed `seq[q]`/`rec[q]` (and this process's own
    /// next sequence number), and the backend's delivery floors are
    /// raised to the snapshot's instance floors so stale replayed frames
    /// are discarded and fresh instances resume gaplessly. This is the
    /// cold catch-up path: snapshot + short log suffix instead of full
    /// history replay.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot fails [`LedgerSnapshot::verify`] or its
    /// frontier vectors don't cover `n` processes — a caller must only
    /// pass quorum-attested, digest-checked snapshots.
    pub fn from_snapshot(
        me: ProcessId,
        n: usize,
        config: EngineConfig,
        mut backend: B,
        snapshot: &LedgerSnapshot,
    ) -> Self {
        assert!(snapshot.verify(), "snapshot does not verify");
        assert_eq!(
            snapshot.frontier.len(),
            n,
            "frontier must cover n processes"
        );
        assert_eq!(
            snapshot.backend_floor.len(),
            n,
            "backend floor must cover n processes"
        );
        for (q, floor) in snapshot.backend_floor.iter().enumerate() {
            backend.set_delivery_floor(ProcessId::new(q as u32), *floor);
        }
        let ledger = Ledger::new(snapshot.balances.iter().copied());
        Replica {
            received_seq: snapshot.frontier.clone(),
            pruned_floor: snapshot.frontier.clone(),
            backend_seen: snapshot.backend_floor.clone(),
            next_own_seq: snapshot.frontier[me.as_usize()],
            ..Replica::over(me, n, config, ledger, backend)
        }
    }

    /// Cuts a [`LedgerSnapshot`] of the current applied state: balances,
    /// the per-source validated-seq frontier, and the backend's
    /// delivered-instance floors. The cut is always self-consistent
    /// (application is gapless per source), so the snapshot verifies by
    /// construction; whether it is *stable* (quorum-acknowledged) is the
    /// caller's concern — the node layer cross-checks digests from `f+1`
    /// peers before trusting one.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot::new(
            self.ledger.iter().collect(),
            self.stability_frontier(),
            self.backend_seen.clone(),
        )
    }

    /// This replica's stability-frontier contribution: the per-source
    /// last-validated transfer sequence numbers. A quorum-wide frontier
    /// is the element-wise minimum over `n − f` replicas' vectors.
    pub fn stability_frontier(&self) -> Vec<SeqNo> {
        (0..self.n).map(|q| self.validated(q)).collect()
    }

    /// `seq[q]` of Figure 4: the last validated sequence number of `q`.
    fn validated(&self, q: usize) -> SeqNo {
        SeqNo::new(self.pruned_floor[q].value() + self.applied_from[q].len() as u64)
    }

    /// Prunes applied-history and dependency state at or below
    /// `frontier` (clamped per source to what this replica has actually
    /// validated). Returns the number of entries pruned. The broadcast
    /// backend has nothing to prune: it frees an instance's state when it
    /// releases the instance.
    ///
    /// Soundness: a dependency at or behind the frontier is necessarily
    /// applied (per-source application is gapless), so the relaxed
    /// validity check accepts it by floor comparison instead of a lookup
    /// — see [`Replica::from_snapshot`] for the restart
    /// side of the same argument. Pruned `deps_buffer` credits are safe
    /// to omit from future submissions: every correct replica either
    /// already applied them (they're behind a *quorum* frontier) or will
    /// block the dependent transfer on the balance check until the
    /// credit arrives.
    pub fn prune_through(&mut self, frontier: &[SeqNo]) -> u64 {
        let mut pruned = 0u64;
        for (q, &advertised) in frontier.iter().enumerate().take(self.n) {
            let floor = self.pruned_floor[q].max(advertised.min(self.validated(q)));
            let dropped = (floor.value() - self.pruned_floor[q].value()) as usize;
            self.applied_from[q].drain(..dropped);
            self.pruned_floor[q] = floor;
            pruned += dropped as u64;
        }
        let floors = &self.pruned_floor;
        let before = self.deps_buffer.len();
        self.deps_buffer.retain(|dep| {
            floors
                .get(dep.originator.as_usize())
                .is_none_or(|floor| dep.seq.value() > floor.value())
        });
        pruned += (before - self.deps_buffer.len()) as u64;
        self.pruned_total += pruned;
        pruned
    }

    /// Attaches an [`at_obs`] recorder: batch occupancy, flush reasons
    /// and [`Stage::Apply`] drain latency feed its registry
    /// from here on. Real runtimes (`at_node`) call this once before
    /// driving the replica; the simulator leaves it unset, keeping the
    /// simulated hot loop free of wall-clock reads.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let registry = recorder.registry();
        self.obs = Some(EngineObs {
            batch_size: registry.histogram("engine_batch_size"),
            flushes: FlushReason::COUNTERS.map(|name| registry.counter(name)),
            recorder,
        });
    }

    /// Attaches a causal [`Tracer`]: the replica records batch joins and
    /// applies for traced transfers, and the broadcast backend records
    /// its protocol steps (send/echo/ready/deliver, verify spans) for
    /// batches carrying a [`TraceCtx`]. Like [`Replica::set_recorder`],
    /// only real runtimes call this.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.broadcast
            .set_tracer(tracer.clone(), |batch: &EnginePayload| batch.trace);
        self.tracer = Some(tracer);
    }

    /// Arms `ctx` as the trace context of the next [`Replica::submit`]
    /// (the runtime mints it at gateway ingress). Consumed — or discarded,
    /// when the submission is rejected — by that one submission.
    pub fn set_next_trace(&mut self, ctx: Option<TraceCtx>) {
        self.next_trace = ctx;
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The account owned by this process (paper topology: account `i`
    /// belongs to process `i`).
    pub fn my_account(&self) -> AccountId {
        AccountId::new(self.me.index())
    }

    /// The balance of `account` over every locally applied transfer.
    pub fn balance(&self, account: AccountId) -> Amount {
        self.ledger.balance(account)
    }

    /// The balance available for new submissions: current balance minus
    /// in-flight reservations.
    pub fn available(&self) -> Amount {
        self.ledger
            .balance(self.my_account())
            .saturating_sub(self.reserved)
    }

    /// The ledger (for end-of-run assertions).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Applied transfers of `q` above its pruned floor: entry `i` has seq `floor + 1 + i`.
    pub fn applied_from(&self, q: ProcessId) -> &VecDeque<Transfer> {
        &self.applied_from[q.as_usize()]
    }

    /// Number of delivered-but-unvalidated transfers.
    pub fn pending_count(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Number of well-formedness-violating transfers dropped.
    pub fn malformed_dropped(&self) -> u64 {
        self.malformed_dropped
    }

    /// Number of well-formed transfers dropped because the per-source
    /// pending buffer overflowed (`MAX_PENDING_PER_SOURCE`).
    pub fn pending_overflow_dropped(&self) -> u64 {
        self.pending_overflow_dropped
    }

    /// Total entries pruned so far by [`Replica::prune_through`].
    pub fn pruned_total(&self) -> u64 {
        self.pruned_total
    }

    /// A deterministic digest of the ledger state (see
    /// [`Ledger::digest`]).
    pub fn digest(&self) -> u64 {
        self.ledger.digest()
    }

    /// Submits `transfer(my-account, destination, amount)`. Admission
    /// checks the *available* balance (see the module docs); admitted
    /// transfers join the current batch and complete when the broadcast
    /// round-trips and validates.
    ///
    /// When the batch leaves is Nagle's rule. With none of this replica's
    /// batches in flight it leaves at the end of the current pass — a
    /// zero-delay timer, so everything the runtime hands over in the same
    /// pass (a burst read off one client socket, a wave's commands at one
    /// virtual instant) rides along. Behind an own batch in flight it
    /// accumulates until that batch delivers locally, the batch reaches
    /// `max_size`, or [`BatchPolicy::window`] has passed, whichever is
    /// first.
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let trace = self.next_trace.take();
        let available = self.available();
        if amount > available || !self.ledger.contains(destination) {
            ctx.emit(EngineEvent::Rejected {
                destination,
                amount,
                available,
            });
            return;
        }
        self.next_own_seq = self.next_own_seq.next();
        let transfer = Transfer::new(
            self.my_account(),
            destination,
            amount,
            self.me,
            self.next_own_seq,
        );
        // Invocation point: emitted before any broadcast effect, so in
        // the reconstructed history the operation's interval opens here.
        ctx.emit(EngineEvent::Submitted { transfer });
        let deps: Vec<Transfer> = self.deps_buffer.iter().copied().collect();
        self.deps_buffer.clear();
        self.reserved = self.reserved.saturating_add(amount);
        // Attach before the push: a cap-triggered flush must already
        // carry the context.
        if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
            if self.batcher.attach_trace(ctx) {
                // First traced member claims the batch; arg = occupancy
                // the batch will have once this transfer joins.
                tracer.record(
                    ctx,
                    TraceEventKind::BatchJoin,
                    self.batcher.pending() as u64 + 1,
                );
            } else if let Some(owner) = self.batcher.trace() {
                // A later traced member rides a batch another transfer
                // claimed; arg = the carrying trace's id so the two
                // timelines can be cross-referenced.
                tracer.record(ctx, TraceEventKind::BatchJoin, owner.id);
            }
        }

        let first = self.batcher.pending() == 0;
        if let Some(batch) = self.batcher.push(TransferMsg { transfer, deps }) {
            self.count_flush(FlushReason::Cap);
            self.broadcast_batch(batch, ctx);
        } else if first {
            let hold = if self.in_flight() {
                self.policy.window
            } else {
                VirtualTime::ZERO
            };
            ctx.set_timer(hold, FLUSH_TIMER + self.own_sent.value());
        }
    }

    /// Whether a batch this replica broadcast has yet to deliver locally.
    /// Derived, not counted: a snapshot-restored replica starts with
    /// `own_sent` behind its own floor, so it cannot wait on a batch of a
    /// previous incarnation.
    fn in_flight(&self) -> bool {
        self.own_sent > self.backend_seen[self.me.as_usize()]
    }

    fn count_flush(&self, reason: FlushReason) {
        if let Some(obs) = &self.obs {
            obs.flushes[reason as usize].inc();
        }
    }

    /// Broadcasts whatever the batcher holds, if anything.
    fn flush(&mut self, reason: FlushReason, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        if let Some(batch) = self.batcher.flush() {
            self.count_flush(reason);
            self.launch(batch, ctx);
        }
    }

    /// Hands a batch to the secure broadcast, bypassing admission. Public
    /// for the adversarial actors ([`crate::adversary`]), which broadcast
    /// protocol-conformant but *invalid* payloads; honest code paths go
    /// through [`Replica::submit`].
    pub fn broadcast_batch(
        &mut self,
        batch: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        self.launch(batch, ctx);
        self.settle(ctx);
    }

    /// [`Replica::broadcast_batch`] short of hearing its own messages:
    /// what the flushes inside a step call, so the step's entry point
    /// settles them in FIFO order.
    fn launch(&mut self, batch: Batch<TransferMsg>, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        ctx.emit(EngineEvent::BatchBroadcast { size: batch.len() });
        if let Some(obs) = &self.obs {
            obs.batch_size.record(batch.len() as u64);
        }
        let mut step = std::mem::take(&mut self.step);
        self.own_sent = self.broadcast.broadcast(batch, &mut step);
        self.absorb(step, ctx);
    }

    /// *Byzantine harness only*: hands two conflicting batches to the
    /// backend's split-broadcast (one instance, `left` to the lower half
    /// of the system, `right` to the upper half) — the double-spend
    /// attempt. The backend's own equivocation state is the single source
    /// of truth here; the replica keeps no instance counter of its own.
    pub fn broadcast_split(
        &mut self,
        left: Batch<TransferMsg>,
        right: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let mut step = std::mem::take(&mut self.step);
        self.broadcast.broadcast_split(left, right, &mut step);
        self.absorb(step, ctx);
        self.settle(ctx);
    }

    /// The secure-broadcast backend (quorum/instance/crypto
    /// introspection).
    pub fn backend(&self) -> &B {
        &self.broadcast
    }

    /// Flushes any accumulating transfers immediately.
    ///
    /// Recovery hook for real runtimes: the first transfer of a batch
    /// arms the timer that will flush it, which the simulator guarantees
    /// to fire but a warm restart does not — a resumed replica whose
    /// timer died with the old process would otherwise never flush (or
    /// re-arm for) the batch it was accumulating. Every `at_node::Node`
    /// start or resume calls this once; the simulator never needs it.
    pub fn flush_pending(&mut self, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        self.flush(FlushReason::Window, ctx);
        self.settle(ctx);
    }

    /// Routes one backend step: messages for peers go to `ctx`, those
    /// for this process join `own`, and deliveries are applied. The
    /// drained step becomes the replica's kept buffer again.
    fn absorb(
        &mut self,
        mut step: Step<B::Msg, EnginePayload>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        for Outgoing { to, msg } in step.outgoing.drain(..) {
            if to == self.me {
                self.own.push_back(msg);
            } else {
                ctx.send(to, msg);
            }
        }
        for Delivery {
            source,
            seq,
            payload,
        } in step.deliveries.drain(..)
        {
            ctx.emit(EngineEvent::BackendDelivery { source, seq });
            if let Some(seen) = self.backend_seen.get_mut(source.as_usize()) {
                if seq.value() > seen.value() {
                    *seen = seq;
                }
            }
            self.on_batch(source, payload, ctx);
            if source == self.me && !self.in_flight() {
                // What accumulated behind our batch leaves with its
                // delivery.
                self.flush(FlushReason::Delivered, ctx);
            }
        }
        self.step = step;
    }

    /// Hands the backend, oldest first, every message it addressed to this
    /// process, and whatever those steps address to it in turn — the
    /// schedule in which the self-link has zero delay. Called last by every
    /// entry point, never inside a backend call or a step's delivery loop.
    fn settle(&mut self, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        while let Some(msg) = self.own.pop_front() {
            let mut step = std::mem::take(&mut self.step);
            self.broadcast.on_message(self.me, msg, &mut step);
            self.absorb(step, ctx);
        }
    }

    /// *Harness hook*: records the current local balance of `account` as
    /// an instantaneous read operation ([`EngineEvent::ReadObserved`]).
    /// Reads in this engine are local (Figure 4's `read`), so the
    /// observation is complete the moment it is made.
    pub fn read_op(&self, account: AccountId, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        ctx.emit(EngineEvent::ReadObserved {
            account,
            balance: self.ledger.balance(account),
        });
    }

    /// Processes one delivered batch: per-item well-formedness (Figure 4
    /// lines 9–12 over the flattened stream), then validity-driven
    /// application.
    fn on_batch(
        &mut self,
        q: ProcessId,
        batch: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let index = q.as_usize();
        if index >= self.n {
            return;
        }
        let trace = batch.trace;
        for msg in batch.into_items() {
            let t = &msg.transfer;
            let well_formed = t.originator == q
                && t.source.index() == q.index()
                && t.seq == self.received_seq[index].next();
            if !well_formed {
                self.malformed_dropped += 1;
                continue;
            }
            self.received_seq[index] = t.seq;
            if self.pending[index].len() >= MAX_PENDING_PER_SOURCE {
                // A source this far ahead of validation is Byzantine (an
                // honest sender's transfers validate in receipt order
                // once their dependencies land). Drop instead of
                // buffering without bound.
                self.pending_overflow_dropped += 1;
                continue;
            }
            self.pending[index].push_back((msg, trace));
        }
        self.drain(ctx);
    }

    /// Validity of a pending transfer: next-in-sequence, dependencies
    /// applied, destination known, source funded. A dependency at or
    /// behind this replica's pruned floor is accepted by floor
    /// comparison: per-source application is gapless, so everything
    /// behind the floor was applied before being pruned. Ahead of it the
    /// dependency must equal, whole, the entry its seq indexes: a forged
    /// one that borrows a real `(originator, seq)` matches nothing.
    fn valid(&self, q: ProcessId, msg: &TransferMsg) -> bool {
        let t = &msg.transfer;
        t.seq == self.validated(q.as_usize()).next()
            && msg.deps.iter().all(|dep| {
                let from = dep.originator.as_usize();
                self.pruned_floor.get(from).is_some_and(|floor| {
                    let ahead = dep.seq.value().checked_sub(floor.value() + 1);
                    ahead.is_none_or(|i| self.applied_from[from].get(i as usize) == Some(dep))
                })
            })
            && self.ledger.contains(t.destination)
            && self.ledger.balance(t.source) >= t.amount
    }

    /// Applies every pending transfer whose validity predicate holds,
    /// repeating until a fixed point (one application can unblock
    /// others) — Figure 4 line 13. Only the head of a queue can be next
    /// in sequence, so only heads are tested, and the sources are swept
    /// until a sweep applies nothing: a credit may fund a source already
    /// passed.
    fn drain(&mut self, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        let started = self.obs.as_ref().map(|_| Instant::now());
        let mut progressed = true;
        while progressed {
            progressed = false;
            for q in ProcessId::all(self.n) {
                let index = q.as_usize();
                while let Some((msg, _)) = self.pending[index].front() {
                    let t = msg.transfer;
                    if !self.valid(q, msg) || self.ledger.apply(&t).is_err() {
                        // Not valid yet (or a snapshot's ledger lacks
                        // the account): it stays the head of its queue.
                        break;
                    }
                    let trace = self.pending[index].pop_front().and_then(|(_, trace)| trace);
                    progressed = true;
                    if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
                        let ctx = if q != self.me { ctx.hopped() } else { ctx };
                        tracer.record(ctx, TraceEventKind::Apply, t.seq.value());
                    }
                    self.applied_from[index].push_back(t);
                    if t.destination == self.my_account() && t.source != self.my_account() {
                        self.deps_buffer.insert(t);
                    }
                    ctx.emit(EngineEvent::Applied { transfer: t });
                    if q == self.me {
                        self.reserved = self.reserved.saturating_sub(t.amount);
                        ctx.emit(EngineEvent::Completed { transfer: t });
                    }
                }
            }
        }
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            obs.recorder.record(Stage::Apply, started.elapsed());
        }
    }
}

impl<B: SecureBroadcast<EnginePayload>> Actor for Replica<B> {
    type Msg = B::Msg;
    type Event = EngineEvent;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let mut step = std::mem::take(&mut self.step);
        self.broadcast.on_message(from, msg, &mut step);
        self.absorb(step, ctx);
        self.settle(ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        if timer == FLUSH_TIMER + self.own_sent.value() {
            // Nothing has left since it was armed. Still in flight: the
            // hold lasted the whole window.
            let reason = if self.in_flight() {
                FlushReason::Window
            } else {
                FlushReason::Idle
            };
            self.flush(reason, ctx);
            self.settle(ctx);
        }
    }
}

impl<B: SecureBroadcast<EnginePayload>> std::fmt::Debug for Replica<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Replica(me={}, applied={}, pending={})",
            self.me,
            self.applied_from.iter().map(VecDeque::len).sum::<usize>(),
            self.pending_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_broadcast::bracha::BrachaBroadcast;
    use at_net::{NetConfig, Simulation, VirtualTime};

    type Bracha = Replica<BrachaBroadcast<EnginePayload>>;

    /// A replica over its own Bracha endpoint.
    fn bracha(me: ProcessId, n: usize, initial: Amount, config: EngineConfig) -> Bracha {
        Replica::with_backend(me, n, initial, config, BrachaBroadcast::new(me, n))
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    fn system(n: usize, initial: u64, config: EngineConfig) -> Simulation<Bracha> {
        let replicas = (0..n as u32)
            .map(|i| bracha(p(i), n, amt(initial), config))
            .collect();
        Simulation::new(replicas, NetConfig::lan(3))
    }

    /// Hands `replica` one delivered batch holding `transfer`, the way
    /// its backend would.
    fn deliver(
        replica: &mut Bracha,
        transfer: Transfer,
        deps: Vec<Transfer>,
        events: &mut Vec<(VirtualTime, ProcessId, EngineEvent)>,
    ) {
        let mut ctx = Context::detached(VirtualTime::ZERO, replica.me, replica.n, events);
        let batch = Batch::single(TransferMsg { transfer, deps });
        replica.on_batch(transfer.originator, batch, &mut ctx);
    }

    fn completed(events: &[(VirtualTime, ProcessId, EngineEvent)]) -> Vec<Transfer> {
        events
            .iter()
            .filter_map(|(_, _, e)| match e {
                EngineEvent::Completed { transfer } => Some(*transfer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn transfer_completes_unbatched() {
        let mut sim = system(4, 100, EngineConfig::unbatched());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(25), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 1);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(75));
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(125));
        }
    }

    #[test]
    fn batched_submissions_share_one_broadcast() {
        let config = EngineConfig::batched(4, VirtualTime::from_micros(400));
        let mut sim = system(4, 100, config);
        // Three quick submissions at p0 inside one window.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(5), ctx);
            replica.submit(a(2), amt(6), ctx);
            replica.submit(a(3), amt(7), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        let batches: Vec<usize> = events
            .iter()
            .filter_map(|(_, _, e)| match e {
                EngineEvent::BatchBroadcast { size } => Some(*size),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![3], "one flush carrying all three");
        assert_eq!(completed(&events).len(), 3);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(82));
        }
    }

    #[test]
    fn batch_size_cap_flushes_without_timer() {
        let config = EngineConfig::batched(2, VirtualTime::from_millis(100));
        let mut sim = system(4, 100, config);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(1), ctx);
            replica.submit(a(2), amt(1), ctx);
        });
        // The cap (2) is hit synchronously: both transfers complete long
        // before a 100ms window would have flushed. (The first one's
        // end-of-pass timer still fires — uncancellable in the simulator
        // — and finds its batch gone.)
        assert!(sim.run_until_quiet(1_000_000));
        let completions: Vec<VirtualTime> = sim
            .take_events()
            .into_iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
            .map(|(at, _, _)| at)
            .collect();
        assert_eq!(completions.len(), 2);
        assert!(completions
            .iter()
            .all(|at| *at < VirtualTime::from_millis(100)));
        assert_eq!(sim.actor(p(3)).balance(a(0)), amt(98));
    }

    /// `(when, size)` of every batch `process` broadcast.
    fn batches_of(
        events: &[(VirtualTime, ProcessId, EngineEvent)],
        process: ProcessId,
    ) -> Vec<(VirtualTime, usize)> {
        events
            .iter()
            .filter(|(_, at, _)| *at == process)
            .filter_map(|(when, _, e)| match e {
                EngineEvent::BatchBroadcast { size } => Some((*when, *size)),
                _ => None,
            })
            .collect()
    }

    /// When `process` delivered its own broadcast instance `seq`.
    fn own_delivery(
        events: &[(VirtualTime, ProcessId, EngineEvent)],
        process: ProcessId,
        seq: u64,
    ) -> VirtualTime {
        let delivered = EngineEvent::BackendDelivery {
            source: process,
            seq: SeqNo::new(seq),
        };
        events
            .iter()
            .find(|(_, at, e)| *at == process && *e == delivered)
            .map(|(when, _, _)| *when)
            .expect("own instance delivered")
    }

    const LONG_WINDOW: VirtualTime = VirtualTime::from_millis(100);

    /// When a command scheduled at time zero runs (behind `on_start`),
    /// and when the end-of-pass timer it arms fires: one handler later.
    const FIRST_PASS: VirtualTime = VirtualTime::from_micros(10);
    const END_OF_FIRST_PASS: VirtualTime = VirtualTime::from_micros(20);

    #[test]
    fn an_idle_replicas_lone_submission_does_not_wait_for_the_window() {
        let mut sim = system(4, 100, EngineConfig::batched(8, LONG_WINDOW));
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(5), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        // Nothing waited out the window — no timer of that length was
        // even armed, or quiescence would land behind it.
        assert!(sim.now() < LONG_WINDOW, "quiet only at {:?}", sim.now());
        let events = sim.take_events();
        let batches = batches_of(&events, p(0));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].1, 1);
        // It left at the end of the pass that submitted it: one handler
        // later, not a window later.
        assert_eq!(batches[0].0, END_OF_FIRST_PASS);
        assert_eq!(completed(&events).len(), 1);
    }

    #[test]
    fn commands_of_one_pass_leave_as_one_batch() {
        // The wave driver's shape: five commands due at the same virtual
        // instant. The end-of-pass timer sorts behind all of them.
        let mut sim = system(4, 100, EngineConfig::batched(8, LONG_WINDOW));
        for i in 0..5 {
            sim.schedule(VirtualTime::ZERO, p(0), move |replica, ctx| {
                replica.submit(a(1 + i % 3), amt(1), ctx);
            });
        }
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        let sizes: Vec<usize> = batches_of(&events, p(0)).iter().map(|b| b.1).collect();
        assert_eq!(sizes, vec![5]);
        assert_eq!(completed(&events).len(), 5);
    }

    #[test]
    fn submissions_behind_an_own_batch_ride_one_batch_on_its_delivery() {
        let mut sim = system(4, 100, EngineConfig::batched(8, LONG_WINDOW));
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(1), ctx);
        });
        // Two more while the first batch is between SEND and delivery
        // (a LAN hop is 200–300µs, Bracha needs three).
        for at in [50, 120] {
            sim.schedule(VirtualTime::from_micros(at), p(0), |replica, ctx| {
                replica.submit(a(2), amt(1), ctx);
            });
        }
        assert!(sim.run_until_quiet(1_000_000));
        assert!(sim.now() > LONG_WINDOW, "the held batch armed its window");
        let events = sim.take_events();
        let batches = batches_of(&events, p(0));
        let delivered = own_delivery(&events, p(0), 1);
        assert!(delivered > VirtualTime::from_micros(120));
        assert_eq!(batches, vec![(END_OF_FIRST_PASS, 1), (delivered, 2)]);
        // The window timer then fired behind the batch it was armed for:
        // no third, empty or early broadcast.
        assert_eq!(completed(&events).len(), 3);
        assert_eq!(sim.actor(p(0)).batcher.pending(), 0);
    }

    #[test]
    fn a_hold_behind_a_batch_that_never_delivers_ends_at_the_window() {
        let window = VirtualTime::from_millis(2);
        let mut sim = system(4, 100, EngineConfig::batched(8, window));
        // p0 alone in a minority: its broadcasts cannot complete.
        sim.set_partition(&[&[p(0)], &[p(1), p(2), p(3)]]);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(1), ctx);
        });
        let held_at = VirtualTime::from_micros(300);
        for at in [held_at, VirtualTime::from_micros(900)] {
            sim.schedule(at, p(0), |replica, ctx| {
                replica.submit(a(2), amt(1), ctx);
            });
        }
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        assert!(completed(&events).is_empty());
        // Exactly where the parent's always-armed window put it: one
        // window (and the submitting handler's cost) after the first
        // held transfer.
        let cost = VirtualTime::from_micros(10);
        let batches = batches_of(&events, p(0));
        assert_eq!(
            batches,
            vec![(END_OF_FIRST_PASS, 1), (held_at + cost + window, 2)]
        );
    }

    #[test]
    fn a_stale_window_timer_does_not_take_a_later_batch_early() {
        let window = VirtualTime::from_millis(2);
        let mut sim = system(4, 100, EngineConfig::batched(8, window));
        let submit_at = |sim: &mut Simulation<Bracha>, at: u64| {
            sim.schedule(VirtualTime::from_micros(at), p(0), |replica, ctx| {
                replica.submit(a(1), amt(1), ctx);
            });
        };
        // The second is held behind the first, with a window timer due
        // at 2310µs, and leaves when the first delivers.
        submit_at(&mut sim, 0);
        submit_at(&mut sim, 300);
        sim.run_until(VirtualTime::from_millis(1));
        let events = sim.take_events();
        let delivered = own_delivery(&events, p(0), 1);
        assert_eq!(
            batches_of(&events, p(0)),
            vec![(END_OF_FIRST_PASS, 1), (delivered, 1)]
        );
        // Cut p0 off so the second never delivers, and hold a third
        // behind it: its own window runs to 3510µs. The first window
        // timer fires in between, for a batch that has left.
        sim.set_partition(&[&[p(0)], &[p(1), p(2), p(3)]]);
        submit_at(&mut sim, 1_500);
        assert!(sim.run_until_quiet(1_000_000));
        let cost = VirtualTime::from_micros(10);
        assert_eq!(
            batches_of(&sim.take_events(), p(0)),
            vec![(VirtualTime::from_micros(1_500) + cost + window, 1)]
        );
    }

    #[test]
    fn a_burst_past_the_cap_holds_its_tail_behind_the_full_batch() {
        // Ten in one pass at a cap of eight: eight leave at the cap, and
        // the end-of-pass timer the first one armed must not take the
        // other two early — they wait for the eight to deliver.
        let mut sim = system(4, 100, EngineConfig::batched(8, LONG_WINDOW));
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            for i in 0..10 {
                replica.submit(a(1 + i % 3), amt(1), ctx);
            }
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        let delivered = own_delivery(&events, p(0), 1);
        assert_eq!(
            batches_of(&events, p(0)),
            vec![(FIRST_PASS, 8), (delivered, 2)]
        );
        assert_eq!(completed(&events).len(), 10);
    }

    #[test]
    fn restored_and_restarted_replicas_start_with_nothing_in_flight() {
        let config = EngineConfig::batched(8, LONG_WINDOW);
        let mut sim = system(4, 100, config);
        for wave in 0..3 {
            sim.schedule(sim.now(), p(0), move |replica, ctx| {
                replica.submit(a(1 + wave), amt(1), ctx);
            });
            assert!(sim.run_until_quiet(1_000_000));
        }
        // A warm restart hands the same replica to a new runtime: its
        // three instances all delivered, so nothing is in flight.
        assert_eq!(sim.actor(p(0)).own_sent, SeqNo::new(3));
        assert!(!sim.actor(p(0)).in_flight());
        // A cold start knows its stream reached 3 only from the floor.
        let snapshot = sim.actor(p(0)).snapshot();
        let backend = BrachaBroadcast::new(p(0), 4);
        let mut restored: Bracha = Replica::from_snapshot(p(0), 4, config, backend, &snapshot);
        assert!(!restored.in_flight());
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        restored.submit(a(1), amt(1), &mut ctx);
        let outputs = ctx.into_outputs();
        assert_eq!(
            outputs.timers,
            vec![(VirtualTime::ZERO, FLUSH_TIMER)],
            "an end-of-pass flush, not a hold behind a previous incarnation's batch"
        );
        // Its timer dies with a restart: `flush_pending` recovers the
        // stranded batch, as instance 4 of the stream.
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        restored.flush_pending(&mut ctx);
        assert!(!ctx.into_outputs().outbox.is_empty());
        assert_eq!(restored.own_sent, SeqNo::new(4));
        assert!(restored.in_flight());
    }

    #[test]
    fn admission_reserves_in_flight_amounts() {
        let config = EngineConfig::batched(8, VirtualTime::from_micros(200));
        let mut sim = system(3, 10, config);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(7), ctx);
            // 7 reserved: only 3 available, so 4 must be rejected even
            // though the ledger still shows 10.
            replica.submit(a(2), amt(4), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        assert_eq!(completed(&events).len(), 1);
        let rejected: Vec<_> = events
            .iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::Rejected { .. }))
            .collect();
        assert_eq!(rejected.len(), 1);
        assert_eq!(sim.actor(p(1)).balance(a(0)), amt(3));
    }

    #[test]
    fn causal_chain_funds_downstream_transfer() {
        let mut sim = system(4, 10, EngineConfig::standard());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(10), ctx);
        });
        sim.schedule(VirtualTime::from_millis(50), p(1), |replica, ctx| {
            replica.submit(a(2), amt(15), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 2);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(0));
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(5));
            assert_eq!(sim.actor(p(i)).balance(a(2)), amt(25));
        }
    }

    #[test]
    fn replicas_converge_to_identical_digests() {
        let mut sim = system(5, 100, EngineConfig::standard());
        for i in 0..5u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 5), amt(10 + i as u64), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        let digest = sim.actor(p(0)).digest();
        for i in 1..5 {
            assert_eq!(sim.actor(p(i)).digest(), digest, "replica {i}");
        }
        let total: Amount = (0..5).map(|j| sim.actor(p(0)).balance(a(j))).sum();
        assert_eq!(total, amt(500));
    }

    #[test]
    fn overdraft_broadcast_never_validates() {
        let mut sim = system(3, 10, EngineConfig::unbatched());
        // Bypass admission via broadcast_batch (a Byzantine submitter).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let transfer = Transfer::new(a(0), a(1), amt(99), p(0), SeqNo::new(1));
            replica.broadcast_batch(
                Batch::single(TransferMsg {
                    transfer,
                    deps: vec![],
                }),
                ctx,
            );
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert!(completed(&sim.take_events()).is_empty());
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(10));
            assert_eq!(sim.actor(p(i)).pending_count(), 1);
        }
    }

    #[test]
    fn malformed_transfers_are_dropped() {
        let mut sim = system(3, 10, EngineConfig::unbatched());
        // p0 broadcasts a transfer claiming to debit account 2.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let transfer = Transfer::new(a(2), a(1), amt(5), p(0), SeqNo::new(1));
            replica.broadcast_batch(
                Batch::single(TransferMsg {
                    transfer,
                    deps: vec![],
                }),
                ctx,
            );
        });
        assert!(sim.run_until_quiet(1_000_000));
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(2)), amt(10));
            assert_eq!(sim.actor(p(i)).malformed_dropped(), 1);
            assert_eq!(sim.actor(p(i)).pending_count(), 0);
        }
    }

    #[test]
    fn forged_dependency_keeps_transfer_pending() {
        // The forged dependency names `(p2, 1)`: first with nothing
        // applied under that key, then borrowing the key of a transfer
        // p2 really made — for a different amount.
        for borrowed in [false, true] {
            let mut sim = system(3, 10, EngineConfig::unbatched());
            if borrowed {
                sim.schedule(VirtualTime::ZERO, p(2), |replica, ctx| {
                    replica.submit(a(0), amt(5), ctx);
                });
                assert!(sim.run_until_quiet(1_000_000));
            }
            sim.schedule(sim.now(), p(0), |replica, ctx| {
                let fake_dep = Transfer::new(a(2), a(0), amt(50), p(2), SeqNo::new(1));
                let transfer = Transfer::new(a(0), a(1), amt(5), p(0), SeqNo::new(1));
                replica.broadcast_batch(
                    Batch::single(TransferMsg {
                        transfer,
                        deps: vec![fake_dep],
                    }),
                    ctx,
                );
            });
            assert!(sim.run_until_quiet(1_000_000));
            // Funded, but the fabricated dependency never validates.
            for i in 1..3 {
                let replica = sim.actor(p(i));
                assert_eq!(replica.applied_from(p(2)).len(), usize::from(borrowed));
                assert_eq!(replica.balance(a(1)), amt(10), "borrowed key: {borrowed}");
                assert_eq!(replica.pending_count(), 1, "borrowed key: {borrowed}");
            }
        }
    }

    /// Behind the pruned floor a dependency is accepted by floor
    /// comparison alone, so a forged `(p2, 1)` credit of any amount
    /// passes `valid` once p2's real transfer 1 was pruned. What keeps it
    /// harmless is the balance check against the materialized ledger: the
    /// forged amount is credited nowhere.
    #[test]
    fn a_forged_dependency_behind_the_pruned_floor_buys_no_credit() {
        let real = Transfer::new(a(2), a(0), amt(5), p(2), SeqNo::new(1));
        let forged = Transfer::new(a(2), a(0), amt(90), p(2), SeqNo::new(1));
        // 100 needs the forged credit; 15 is within the real balance.
        for (amount, applies) in [(100, false), (15, true)] {
            let mut replica = bracha(p(1), 4, amt(10), EngineConfig::unbatched());
            let mut events = Vec::new();
            deliver(&mut replica, real, vec![], &mut events);
            assert!(
                replica.prune_through(&[SeqNo::ZERO, SeqNo::ZERO, SeqNo::new(1), SeqNo::ZERO]) > 0
            );
            assert!(replica.applied_from(p(2)).is_empty(), "pruned");
            let spend = Transfer::new(a(0), a(3), amt(amount), p(0), SeqNo::new(1));
            deliver(&mut replica, spend, vec![forged], &mut events);
            assert_eq!(replica.pending_count(), usize::from(!applies), "{amount}");
            let spent = if applies { amount } else { 0 };
            let balances: Vec<u64> = (0..4).map(|j| replica.balance(a(j)).units()).collect();
            assert_eq!(balances, vec![15 - spent, 10, 5, 10 + spent], "{amount}");
        }
    }

    /// p2's transfer `seq` of one unit to account 0.
    fn from_p2(seq: u64) -> Transfer {
        Transfer::new(a(2), a(0), amt(1), p(2), SeqNo::new(seq))
    }

    #[test]
    fn a_dependency_one_past_the_pruned_floor_is_found_at_index_zero() {
        let mut replica = bracha(p(1), 4, amt(10), EngineConfig::unbatched());
        let mut events = Vec::new();
        for seq in 1..=4 {
            deliver(&mut replica, from_p2(seq), vec![], &mut events);
        }
        let floor = [SeqNo::ZERO, SeqNo::ZERO, SeqNo::new(2), SeqNo::ZERO];
        assert_eq!(replica.prune_through(&floor), 2);
        assert_eq!(
            replica.applied_from(p(2)),
            &VecDeque::from([from_p2(3), from_p2(4)])
        );
        // Index 0 is seq 3, index 1 is seq 4.
        for (seq, dep) in [(1, 3), (2, 4)] {
            let spend = Transfer::new(a(0), a(3), amt(1), p(0), SeqNo::new(seq));
            deliver(&mut replica, spend, vec![from_p2(dep)], &mut events);
            assert_eq!(replica.pending_count(), 0, "dependency (p2, {dep})");
        }
        assert_eq!(replica.applied_from(p(0)).len(), 2);
    }

    #[test]
    fn a_dependency_ahead_of_the_applied_history_waits_without_panicking() {
        for pruned in [false, true] {
            for ahead in [2, u64::MAX] {
                let mut replica = bracha(p(1), 4, amt(10), EngineConfig::unbatched());
                let mut events = Vec::new();
                deliver(&mut replica, from_p2(1), vec![], &mut events);
                if pruned {
                    let floor = [SeqNo::ZERO, SeqNo::ZERO, SeqNo::new(1), SeqNo::ZERO];
                    assert_eq!(replica.prune_through(&floor), 1);
                }
                let spend = Transfer::new(a(0), a(3), amt(1), p(0), SeqNo::new(1));
                deliver(&mut replica, spend, vec![from_p2(ahead)], &mut events);
                assert_eq!(
                    replica.pending_count(),
                    1,
                    "(p2, {ahead}), pruned: {pruned}"
                );
                // Once the dependency is applied, the spend follows it.
                if ahead == 2 {
                    deliver(&mut replica, from_p2(2), vec![], &mut events);
                    assert_eq!(replica.pending_count(), 0, "pruned: {pruned}");
                }
            }
        }
    }

    #[test]
    fn after_a_snapshot_the_first_dependency_above_the_frontier_resolves() {
        let snapshot = LedgerSnapshot::new(
            (0..4).map(|i| (a(i), amt(10))).collect(),
            vec![SeqNo::ZERO, SeqNo::ZERO, SeqNo::new(3), SeqNo::ZERO],
            vec![SeqNo::ZERO; 4],
        );
        let mut replica: Bracha = Replica::from_snapshot(
            p(1),
            4,
            EngineConfig::unbatched(),
            BrachaBroadcast::new(p(1), 4),
            &snapshot,
        );
        let mut events = Vec::new();
        deliver(&mut replica, from_p2(4), vec![], &mut events);
        assert_eq!(replica.applied_from(p(2)), &VecDeque::from([from_p2(4)]));
        // (p2, 3) is at the frontier, accepted by floor comparison; (p2, 4)
        // is the first entry of the history above it.
        let spend = Transfer::new(a(0), a(3), amt(1), p(0), SeqNo::new(1));
        deliver(
            &mut replica,
            spend,
            vec![from_p2(3), from_p2(4)],
            &mut events,
        );
        assert_eq!(replica.pending_count(), 0);
        assert_eq!(replica.balance(a(3)), amt(11));
    }

    #[test]
    fn a_credit_chain_against_source_order_resolves_in_the_delivery_that_completes_it() {
        // p2 funds p1 funds p0, and p1 and p0 each spend more than they
        // started with, so each waits on the credit before it.
        let t2 = Transfer::new(a(2), a(1), amt(10), p(2), SeqNo::new(1));
        let t1 = Transfer::new(a(1), a(0), amt(15), p(1), SeqNo::new(1));
        let t0 = Transfer::new(a(0), a(3), amt(20), p(0), SeqNo::new(1));
        for me in 0..4 {
            let mut replica = bracha(p(me), 4, amt(10), EngineConfig::unbatched());
            let mut events = Vec::new();
            // Delivered end of the chain first: nothing can apply until
            // p2's batch lands, and then everything must.
            let deliveries = [(t0, vec![t1]), (t1, vec![t2]), (t2, vec![])];
            for (held, (transfer, deps)) in deliveries.into_iter().enumerate() {
                assert_eq!(replica.pending_count(), held, "replica {me}");
                deliver(&mut replica, transfer, deps, &mut events);
            }
            assert_eq!(replica.pending_count(), 0, "replica {me}");
            let applied: Vec<Transfer> = events
                .iter()
                .filter_map(|(_, _, e)| match e {
                    EngineEvent::Applied { transfer } => Some(*transfer),
                    _ => None,
                })
                .collect();
            assert_eq!(applied, vec![t2, t1, t0], "replica {me}");
            let own: Vec<Transfer> = applied
                .iter()
                .copied()
                .filter(|t| t.originator == p(me))
                .collect();
            assert_eq!(completed(&events), own, "one Completed per own transfer");
            let balances: Vec<u64> = (0..4).map(|j| replica.balance(a(j)).units()).collect();
            assert_eq!(balances, vec![5, 5, 0, 30]);
        }
    }

    /// A snapshot arrives as bytes and may hold fewer accounts than there
    /// are processes: a zero-amount transfer from a process without an
    /// account passes `valid` (zero is funded) and is refused by the
    /// ledger. It must wait at the head of its queue — no panic, nothing
    /// behind it applied, other sources unaffected.
    #[test]
    fn a_transfer_the_ledger_refuses_stays_at_the_head_of_its_queue() {
        let snapshot = LedgerSnapshot::new(
            vec![(a(0), amt(10)), (a(1), amt(10))],
            vec![SeqNo::ZERO; 4],
            vec![SeqNo::ZERO; 4],
        );
        let mut replica: Bracha = Replica::from_snapshot(
            p(0),
            4,
            EngineConfig::unbatched(),
            BrachaBroadcast::new(p(0), 4),
            &snapshot,
        );
        let mut events = Vec::new();
        let deliveries = [(3, 0, 0, 1), (3, 0, 0, 2), (1, 0, 4, 1)];
        for (held, (from, to, amount, seq)) in deliveries.into_iter().enumerate() {
            assert_eq!(replica.pending_count(), held);
            let transfer = Transfer::new(a(from), a(to), amt(amount), p(from), SeqNo::new(seq));
            deliver(&mut replica, transfer, vec![], &mut events);
        }
        assert_eq!(replica.pending_count(), 2, "both of p3's wait, in order");
        assert_eq!(replica.applied_from(p(3)).len(), 0);
        assert_eq!(replica.applied_from(p(1)).len(), 1);
        assert_eq!(replica.balance(a(0)), amt(14));
    }

    #[test]
    fn pending_queue_is_bounded_per_source() {
        let mut sim = system(3, 10, EngineConfig::unbatched());
        // A Byzantine p0 floods one well-formed batch of 1100 overdrafts
        // (consecutive seqs, none can ever validate).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let items = (1..=1_100u64)
                .map(|s| TransferMsg {
                    transfer: Transfer::new(a(0), a(1), amt(99), p(0), SeqNo::new(s)),
                    deps: vec![],
                })
                .collect();
            replica.broadcast_batch(Batch::new(items), ctx);
        });
        assert!(sim.run_until_quiet(10_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(
                replica.pending_count(),
                MAX_PENDING_PER_SOURCE,
                "replica {i}"
            );
            assert_eq!(
                replica.pending_overflow_dropped(),
                1_100 - MAX_PENDING_PER_SOURCE as u64,
                "replica {i}"
            );
            assert_eq!(replica.malformed_dropped(), 0, "overflow is not malformed");
            assert_eq!(replica.balance(a(1)), amt(10));
        }
    }

    #[test]
    fn malformed_items_of_a_batch_are_each_counted() {
        let mut sim = system(3, 10, EngineConfig::unbatched());
        // 300 malformed items (claiming to debit someone else's account)
        // in one batch: every one is dropped and counted.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let items = (1..=300u64)
                .map(|s| TransferMsg {
                    transfer: Transfer::new(a(2), a(1), amt(1), p(0), SeqNo::new(s)),
                    deps: vec![],
                })
                .collect();
            replica.broadcast_batch(Batch::new(items), ctx);
        });
        assert!(sim.run_until_quiet(10_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(replica.malformed_dropped(), 300, "replica {i}");
            assert_eq!(replica.pending_count(), 0, "replica {i}");
            assert_eq!(replica.balance(a(2)), amt(10), "replica {i}");
        }
    }

    #[test]
    fn snapshot_restores_a_cold_replica() {
        let mut sim = system(4, 100, EngineConfig::standard());
        for i in 0..4u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 4), amt(10 + u64::from(i)), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        let snap = sim.actor(p(0)).snapshot();
        assert!(snap.verify());
        assert_eq!(snap.frontier, vec![SeqNo::new(1); 4]);

        let restored: Bracha = Replica::from_snapshot(
            p(0),
            4,
            EngineConfig::standard(),
            BrachaBroadcast::new(p(0), 4),
            &snap,
        );
        assert_eq!(restored.digest(), sim.actor(p(0)).digest());
        for j in 0..4 {
            assert_eq!(restored.balance(a(j)), sim.actor(p(0)).balance(a(j)));
        }
        // The restored replica's own stream continues past the frontier.
        let mut restored = restored;
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        restored.submit(a(1), amt(1), &mut ctx);
        let submitted = events
            .iter()
            .find_map(|(_, _, e)| match e {
                EngineEvent::Submitted { transfer } => Some(*transfer),
                _ => None,
            })
            .expect("admission succeeded from snapshot balances");
        assert_eq!(submitted.seq, SeqNo::new(2), "resumes after the frontier");
    }

    #[test]
    fn pruning_behind_the_frontier_keeps_replicas_converging() {
        let mut sim = system(4, 100, EngineConfig::standard());
        // Wave 1 establishes applied history and deps buffers.
        for i in 0..4u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 4), amt(10), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        // Every replica prunes at its own frontier (all converged, so
        // the frontiers agree and the prune is quorum-safe).
        for i in 0..4u32 {
            sim.schedule(sim.now(), p(i), |replica, _ctx| {
                let frontier = replica.stability_frontier();
                let pruned = replica.prune_through(&frontier);
                assert!(pruned > 0, "applied history must shrink");
                assert_eq!(replica.applied_from(p(0)).len(), 0);
            });
        }
        // Wave 2: dependencies on wave-1 credits now resolve via the
        // pruned floor, not the applied set.
        for i in 0..4u32 {
            sim.schedule(sim.now(), p(i), move |replica, ctx| {
                replica.submit(a((i + 2) % 4), amt(15), ctx);
            });
        }
        assert!(sim.run_until_quiet(20_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 8, "both waves complete everywhere");
        let digest = sim.actor(p(0)).digest();
        for i in 1..4 {
            assert_eq!(sim.actor(p(i)).digest(), digest, "replica {i}");
        }
        let total: Amount = (0..4).map(|j| sim.actor(p(0)).balance(a(j))).sum();
        assert_eq!(total, amt(400));
        assert!(sim.actor(p(0)).pruned_total() > 0);
    }

    #[test]
    fn more_accounts_than_processes() {
        let config = EngineConfig::standard().with_accounts(16);
        let replicas: Vec<Bracha> = (0..3u32)
            .map(|i| bracha(p(i), 3, amt(50), config))
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(3));
        // Transfers into accounts beyond the process range work; the
        // snapshot covers all 16.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(11), amt(7), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert_eq!(completed(&sim.take_events()).len(), 1);
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(11)), amt(57));
        }
        let snap = sim.actor(p(0)).snapshot();
        assert_eq!(snap.account_count(), 16);
        assert!(snap.verify());
    }

    #[test]
    fn transfer_completes_on_every_backend() {
        use at_broadcast::auth::NoAuth;
        use at_broadcast::echo::EchoBroadcast;
        use at_broadcast::pbft::PbftBroadcast;
        use at_broadcast::secure::AccountOrderBackend;

        fn run_one<B, F>(make: F) -> u64
        where
            B: SecureBroadcast<EnginePayload> + 'static,
            F: Fn(ProcessId) -> B,
        {
            let n = 4;
            let config = EngineConfig::unbatched();
            let replicas: Vec<Replica<B>> = (0..n as u32)
                .map(|i| Replica::with_backend(p(i), n, amt(100), config, make(p(i))))
                .collect();
            let mut sim = Simulation::new(replicas, NetConfig::lan(3));
            sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
                replica.submit(a(1), amt(25), ctx);
            });
            assert!(sim.run_until_quiet(1_000_000));
            assert_eq!(completed(&sim.take_events()).len(), 1);
            for i in 0..4 {
                assert_eq!(sim.actor(p(i)).balance(a(0)), amt(75));
                assert_eq!(sim.actor(p(i)).balance(a(1)), amt(125));
                assert_eq!(sim.actor(p(i)).backend().delivered_count(), 1);
            }
            sim.actor(p(0)).digest()
        }

        let bracha = run_one(|me| BrachaBroadcast::new(me, 4));
        let echo = run_one(|me| EchoBroadcast::new(me, 4, NoAuth));
        let account = run_one(|me| AccountOrderBackend::new(me, 4, NoAuth));
        let pbft = run_one(|me| PbftBroadcast::new(me, 4));
        assert_eq!(bracha, echo);
        assert_eq!(bracha, account);
        assert_eq!(bracha, pbft);
    }

    /// Regression (found wiring the real event loop in at-node): only
    /// the first transfer of a batch arms the timer that flushes it, and
    /// the timer itself lives in the runtime — a warm restart loses it,
    /// and without recovery the accumulating batch would be stranded
    /// forever (later submissions find the batch begun and never re-arm).
    /// `flush_pending` is the recovery hook; driven here exactly the way
    /// a real runtime drives it, through a detached context.
    #[test]
    fn flush_pending_recovers_a_lost_window_timer() {
        let config = EngineConfig::batched(8, VirtualTime::from_millis(1));
        let mut replica = bracha(p(0), 4, amt(100), config);
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.submit(a(1), amt(5), &mut ctx);
        let outputs = ctx.into_outputs();
        // The submission armed its flush: nothing broadcast yet.
        assert!(outputs.outbox.is_empty());
        assert_eq!(outputs.timers.len(), 1);
        assert!(!events
            .iter()
            .any(|(_, _, e)| matches!(e, EngineEvent::BatchBroadcast { .. })));

        // The runtime restarts: the armed timer is gone. Recovery must
        // flush the stranded batch.
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.flush_pending(&mut ctx);
        let outputs = ctx.into_outputs();
        assert!(!outputs.outbox.is_empty(), "stranded batch never flushed");
        assert!(events
            .iter()
            .any(|(_, _, e)| matches!(e, EngineEvent::BatchBroadcast { size: 1 })));

        // And the next submission begins a batch of its own, with a
        // fresh timer instead of relying on the dead one.
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.submit(a(2), amt(5), &mut ctx);
        let outputs = ctx.into_outputs();
        assert_eq!(
            outputs.timers,
            vec![(VirtualTime::from_millis(1), FLUSH_TIMER + 1)],
            "not held for the window behind the recovered batch"
        );
    }

    #[test]
    fn accessors_render() {
        let replica = bracha(p(0), 3, amt(10), EngineConfig::standard());
        assert_eq!(replica.me(), p(0));
        assert_eq!(replica.my_account(), a(0));
        assert_eq!(replica.available(), amt(10));
        assert_eq!(replica.applied_from(p(1)).len(), 0);
        assert_eq!(replica.ledger().total_supply(), amt(30));
        assert_eq!(
            format!("{replica:?}"),
            "Replica(me=p0, applied=0, pending=0)"
        );
    }
}
