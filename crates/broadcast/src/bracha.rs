//! Bracha's asynchronous reliable broadcast (Bracha & Toueg, JACM 1985) —
//! reference \[10\] of the paper, and the protocol behind its "naive
//! quadratic secure broadcast implementation".
//!
//! For each broadcast instance `(source, seq)` over authenticated
//! channels, with `n = 3f + 1` tolerance:
//!
//! 1. the source sends `INIT(m)` to all;
//! 2. on the *first* `INIT` for the instance, a process sends
//!    `ECHO(m)` to all;
//! 3. on `⌈(n+f+1)/2⌉` matching `ECHO`s (or `f+1` matching `READY`s), a
//!    process sends `READY(m)` to all — once per instance;
//! 4. on `2f+1` matching `READY`s, the process delivers `m`.
//!
//! Each sender is counted once per phase per instance: its first ECHO is
//! its only ECHO, and its first READY its only READY, whatever digest a
//! later one carries. A correct process sends one of each per instance,
//! so no honest vote is lost; a Byzantine one can neither count toward
//! two digests nor grow the tally, which holds at most `n` digests.
//!
//! Message complexity: `O(n²)` per broadcast, 3 message delays — the cost
//! profile the evaluation of Section 5 measures. Compute per process is
//! one SHA-256 per instance: "matching" means equal values, counted by
//! digest, and each process digests the payload through the instance's
//! `DigestMemo`, which hashes only a payload not `==` the first it saw.
//! Every INIT, ECHO and READY carries the value, but not a copy of it: a
//! [`Batch`](crate::Batch) shares its items, so the messages of one
//! instance hold one allocation and the memo recognises it with a
//! pointer test. An ECHO after this process's READY and a READY after
//! its delivery are dropped unread: echoes only ever trigger our READY,
//! and delivery implies our READY went out.
//!
//! Deliveries are released per source in sequence order by the instance
//! table, yielding the source-order (indeed FIFO) property of Section 5.2.

use crate::instance::{Digest, DigestMemo, InstanceTable, TraceHook};
use crate::secure::{SecureBroadcast, TraceExtract};
use crate::types::Step;
use at_model::{Encode, ProcessId, SeqNo};
use at_obs::{TraceEventKind, Tracer};
use std::fmt;

/// Wire messages of the Bracha protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrachaMsg<P> {
    /// The source's initial proposal for its own `(seq, payload)`.
    Init {
        /// The source's sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
    },
    /// Witness that the sender received `INIT(payload)` for the instance.
    Echo {
        /// The instance's source process.
        source: ProcessId,
        /// The instance's sequence number.
        seq: SeqNo,
        /// The echoed payload.
        payload: P,
    },
    /// Commitment that the sender is ready to deliver `payload`.
    Ready {
        /// The instance's source process.
        source: ProcessId,
        /// The instance's sequence number.
        seq: SeqNo,
        /// The committed payload.
        payload: P,
    },
}

/// One phase's votes on one instance: who has voted, and how many votes
/// each digest has. A sender's first vote is its only one.
#[derive(Default)]
struct Tally {
    /// Bit `i % 64` of word `i / 64` is set once process `i` has voted.
    voted: Vec<u64>,
    /// Each digest voted for, with its votes, in first-vote order.
    counts: Vec<(Digest, usize)>,
}

impl Tally {
    /// Counts `from`'s vote for the digest `digest` computes and returns
    /// that digest's votes, or `None` (computing nothing) when `from` has
    /// voted before.
    fn vote(&mut self, from: ProcessId, digest: impl FnOnce() -> Digest) -> Option<usize> {
        let (word, bit) = (from.as_usize() / 64, 1u64 << (from.as_usize() % 64));
        if self.voted.len() <= word {
            self.voted.resize(word + 1, 0);
        }
        if self.voted[word] & bit != 0 {
            return None;
        }
        self.voted[word] |= bit;
        let digest = digest();
        match self
            .counts
            .iter_mut()
            .find(|(counted, _)| *counted == digest)
        {
            Some((_, votes)) => {
                *votes += 1;
                Some(*votes)
            }
            None => {
                self.counts.push((digest, 1));
                Some(1)
            }
        }
    }
}

struct Instance<P> {
    /// Whether this process echoed (first INIT wins).
    echoed: bool,
    /// The ECHOs counted so far.
    echoes: Tally,
    /// The READYs counted so far.
    readies: Tally,
    /// Whether this process already sent its READY.
    ready_sent: bool,
    /// Whether the instance delivered.
    delivered: bool,
    /// The payload digests, freed with the slot on release.
    memo: DigestMemo<P>,
}

impl<P> Default for Instance<P> {
    fn default() -> Self {
        Instance {
            echoed: false,
            echoes: Tally::default(),
            readies: Tally::default(),
            ready_sent: false,
            delivered: false,
            memo: DigestMemo::default(),
        }
    }
}

/// One process's endpoint of the Bracha reliable broadcast.
///
/// The struct is a pure state machine: [`SecureBroadcast::broadcast`] and
/// [`SecureBroadcast::on_message`] fill a [`Step`] with messages to send
/// and payloads to deliver; the caller (an `at_net::Actor` or a unit
/// test) moves them.
pub struct BrachaBroadcast<P> {
    table: InstanceTable<ProcessId, Instance<P>, P>,
    trace: TraceHook<P>,
    /// The buffer a payload is encoded into to be hashed.
    scratch: Vec<u8>,
}

impl<P: Clone + Eq + Encode> BrachaBroadcast<P> {
    /// Creates the endpoint for process `me` in a system of `n` processes
    /// tolerating `f = ⌊(n−1)/3⌋` Byzantine faults.
    pub fn new(me: ProcessId, n: usize) -> Self {
        BrachaBroadcast {
            table: InstanceTable::new(me, n),
            trace: TraceHook::new(me),
            scratch: Vec::new(),
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.table.fault_threshold()
    }

    /// `⌈(n+f+1)/2⌉` matching echoes trigger READY.
    pub fn echo_quorum(&self) -> usize {
        self.table.quorum()
    }

    /// `f+1` READYs amplify, `2f+1` deliver.
    fn ready_amplify(&self) -> usize {
        self.table.fault_threshold() + 1
    }

    fn ready_deliver(&self) -> usize {
        2 * self.table.fault_threshold() + 1
    }

    fn on_init(
        &mut self,
        from: ProcessId,
        seq: SeqNo,
        payload: P,
        step: &mut Step<BrachaMsg<P>, P>,
    ) {
        // The INIT's sender *is* the instance's source (channels are
        // authenticated): a Byzantine process cannot open instances for
        // someone else.
        let n = self.table.n();
        let Some(slot) = self.table.entry(from, seq) else {
            return;
        };
        let instance = slot.or_default();
        if instance.echoed {
            return; // echo only the first INIT per instance
        }
        instance.echoed = true;
        self.trace
            .record(&payload, from, TraceEventKind::Echo, n as u64);
        step.send_all(
            n,
            BrachaMsg::Echo {
                source: from,
                seq,
                payload,
            },
        );
    }

    fn on_echo(
        &mut self,
        from: ProcessId,
        source: ProcessId,
        seq: SeqNo,
        payload: P,
        step: &mut Step<BrachaMsg<P>, P>,
    ) {
        let (n, echo_quorum) = (self.table.n(), self.echo_quorum());
        let Some(slot) = self.table.entry(source, seq) else {
            return;
        };
        let instance = slot.or_default();
        if instance.ready_sent {
            return; // echoes only ever trigger our READY
        }
        let memo = &mut instance.memo;
        let Some(count) = instance
            .echoes
            .vote(from, || memo.digest(&payload, &mut self.scratch))
        else {
            return; // a sender's first ECHO is its only one
        };
        if count >= echo_quorum {
            instance.ready_sent = true;
            self.trace
                .record(&payload, from, TraceEventKind::Ready, echo_quorum as u64);
            step.send_all(
                n,
                BrachaMsg::Ready {
                    source,
                    seq,
                    payload,
                },
            );
        }
    }

    fn on_ready(
        &mut self,
        from: ProcessId,
        source: ProcessId,
        seq: SeqNo,
        payload: P,
        step: &mut Step<BrachaMsg<P>, P>,
    ) {
        let (ready_amplify, ready_deliver) = (self.ready_amplify(), self.ready_deliver());
        let n = self.table.n();
        let Some(slot) = self.table.entry(source, seq) else {
            return;
        };
        let instance = slot.or_default();
        if instance.delivered {
            return; // delivery implies our READY went out: nothing to count for
        }
        let memo = &mut instance.memo;
        let Some(count) = instance
            .readies
            .vote(from, || memo.digest(&payload, &mut self.scratch))
        else {
            return; // a sender's first READY is its only one
        };

        if count >= ready_amplify && !instance.ready_sent {
            instance.ready_sent = true;
            step.send_all(
                n,
                BrachaMsg::Ready {
                    source,
                    seq,
                    payload: payload.clone(),
                },
            );
        }
        if count >= ready_deliver {
            instance.delivered = true;
            self.table.hold(source, seq, payload);
            while let Some((seq, payload)) = self.table.release(source) {
                self.trace
                    .record(&payload, from, TraceEventKind::Deliver, seq.value());
                step.deliver(source, seq, payload);
            }
        }
    }
}

impl<P: Clone + Eq + Encode + Send> SecureBroadcast<P> for BrachaBroadcast<P> {
    type Msg = BrachaMsg<P>;

    fn broadcast(&mut self, payload: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        let (me, n) = (self.table.me(), self.table.n());
        let seq = self.table.next_seq();
        self.trace
            .record(&payload, me, TraceEventKind::Send, n as u64);
        step.send_all(n, BrachaMsg::Init { seq, payload });
        seq
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, step: &mut Step<Self::Msg, P>) {
        match msg {
            BrachaMsg::Init { seq, payload } => self.on_init(from, seq, payload, step),
            BrachaMsg::Echo {
                source,
                seq,
                payload,
            } => self.on_echo(from, source, seq, payload, step),
            BrachaMsg::Ready {
                source,
                seq,
                payload,
            } => self.on_ready(from, source, seq, payload, step),
        }
    }

    /// Sends `INIT(left)` to the lower half of the system and
    /// `INIT(right)` to the upper half — the classic equivocation
    /// attempt. The echo quorum ensures at most one of the two payloads
    /// can ever be delivered.
    fn broadcast_split(&mut self, left: P, right: P, step: &mut Step<Self::Msg, P>) -> SeqNo {
        let seq = self.table.next_seq();
        let init = |payload| BrachaMsg::Init { seq, payload };
        step.send_halves(self.table.n(), init(left), init(right));
        seq
    }

    fn instance_count(&self) -> usize {
        self.table.instance_count()
    }

    fn delivered_count(&self) -> usize {
        self.table.delivered_count()
    }

    fn set_tracer(&mut self, tracer: Tracer, extract: TraceExtract<P>) {
        self.trace.set(tracer, extract);
    }

    fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.table.set_source_floor(source, floor);
    }
}

impl<P> fmt::Debug for BrachaBroadcast<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BrachaBroadcast(me={}, n={}, f={}, instances={})",
            self.table.me(),
            self.table.n(),
            self.table.fault_threshold(),
            self.table.instance_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Delivery;
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Runs a closed system of n endpoints to quiescence, returning each
    /// process's deliveries. `byzantine_drop` lets a test drop messages
    /// from specific senders to specific receivers.
    fn run_system(
        n: usize,
        broadcasts: Vec<(ProcessId, u64)>,
        drop_rule: impl Fn(ProcessId, ProcessId, &BrachaMsg<u64>) -> bool,
    ) -> Vec<Vec<Delivery<u64>>> {
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, BrachaMsg<u64>)> = VecDeque::new();
        let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];

        for (source, value) in broadcasts {
            let mut step = Step::new();
            endpoints[source.as_usize()].broadcast(value, &mut step);
            for out in step.outgoing {
                inflight.push_back((source, out.to, out.msg));
            }
        }

        while let Some((from, to, msg)) = inflight.pop_front() {
            if drop_rule(from, to, &msg) {
                continue;
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    #[test]
    fn all_correct_processes_deliver() {
        let delivered = run_system(4, vec![(p(0), 42)], |_, _, _| false);
        for (i, deliveries) in delivered.iter().enumerate() {
            assert_eq!(deliveries.len(), 1, "process {i}");
            assert_eq!(deliveries[0].payload, 42);
            assert_eq!(deliveries[0].source, p(0));
            assert_eq!(deliveries[0].seq, SeqNo::new(1));
        }
    }

    #[test]
    fn multiple_broadcasts_same_source_deliver_in_order() {
        let delivered = run_system(4, vec![(p(0), 1), (p(0), 2), (p(0), 3)], |_, _, _| false);
        for deliveries in &delivered {
            let values: Vec<u64> = deliveries.iter().map(|d| d.payload).collect();
            assert_eq!(values, vec![1, 2, 3]);
        }
    }

    #[test]
    fn concurrent_sources_all_deliver() {
        let delivered = run_system(7, vec![(p(0), 10), (p(3), 30), (p(6), 60)], |_, _, _| false);
        for deliveries in &delivered {
            let mut values: Vec<u64> = deliveries.iter().map(|d| d.payload).collect();
            values.sort_unstable();
            assert_eq!(values, vec![10, 30, 60]);
        }
    }

    #[test]
    fn agreement_despite_source_crash_mid_protocol() {
        // The source's INIT reaches everyone, but the source then crashes:
        // its ECHO/READY messages are lost. With echo quorum
        // ⌈(4+1+1)/2⌉ = 3 reachable among the 3 survivors, all deliver.
        let delivered = run_system(4, vec![(p(0), 7)], |from, _to, msg| {
            from == p(0) && !matches!(msg, BrachaMsg::Init { .. })
        });
        for (i, view) in delivered.iter().enumerate().skip(1) {
            assert_eq!(view.len(), 1, "process {i}");
        }
    }

    #[test]
    fn no_delivery_without_quorum() {
        // Drop everything to/from half the system: 2 of 4 reachable is
        // below every quorum, nobody delivers.
        let cut = |proc: ProcessId| proc.index() >= 2;
        let delivered = run_system(4, vec![(p(0), 9)], move |from, to, _| cut(from) || cut(to));
        for deliveries in &delivered {
            assert!(deliveries.is_empty());
        }
    }

    #[test]
    fn equivocating_source_cannot_split_delivery() {
        // A Byzantine source hand-crafts different INITs to different
        // processes. We simulate by injecting raw messages rather than
        // using broadcast().
        let n = 4;
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, BrachaMsg<u64>)> = VecDeque::new();
        // p3 is Byzantine: INIT value 1 to p0/p1, value 2 to p2.
        for (to, value) in [(p(0), 1u64), (p(1), 1), (p(2), 2)] {
            inflight.push_back((
                p(3),
                to,
                BrachaMsg::Init {
                    seq: SeqNo::new(1),
                    payload: value,
                },
            ));
        }
        let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); n];
        while let Some((from, to, msg)) = inflight.pop_front() {
            if to == p(3) {
                continue; // the Byzantine process's own state is irrelevant
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries.into_iter().map(|d| d.payload));
        }
        // Echo quorum is 3; echoes split 2-vs-1 between the values, and
        // the correct processes never reach READY: nobody delivers either
        // value — and in particular no two deliver different values.
        let all: Vec<&u64> = delivered.iter().flatten().collect();
        assert!(all.len() <= 1 || all.windows(2).all(|w| w[0] == w[1]));
        assert!(delivered[0].is_empty() && delivered[1].is_empty() && delivered[2].is_empty());
    }

    #[test]
    fn split_echoes_and_readies_count_under_their_own_digest() {
        // p0 splits 1 to {p0, p1} and 2 to {p2, p3}: every process sees
        // two ECHOs of each, and each pair must count under its own
        // payload's digest — the memo holds whichever came first, and
        // answering it for the other payload would make a quorum of 3.
        // Every process's tally counts all four voters, once each.
        let n = 4;
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect();
        let mut step = Step::new();
        let seq = endpoints[0].broadcast_split(1, 2, &mut step);
        let mut inflight: VecDeque<_> = step.outgoing.into_iter().map(|out| (p(0), out)).collect();
        while let Some((from, out)) = inflight.pop_front() {
            let mut step = Step::new();
            endpoints[out.to.as_usize()].on_message(from, out.msg, &mut step);
            assert!(step.deliveries.is_empty());
            inflight.extend(step.outgoing.into_iter().map(|next| (out.to, next)));
        }
        let (one, two) = (at_crypto::digest_of(&1u64), at_crypto::digest_of(&2u64));
        for endpoint in &endpoints {
            let instance = endpoint.table.get(p(0), seq).expect("instance state");
            assert_eq!(votes(&instance.echoes, &one), 2);
            assert_eq!(votes(&instance.echoes, &two), 2);
            assert_eq!(voters(&instance.echoes, n), vec![0, 1, 2, 3]);
            assert!(!instance.ready_sent && instance.readies.counts.is_empty());
        }
        // READYs for 2 at p0, whose memo holds 1: counted under 2, and
        // `f + 1` of them amplify into p0's own READY for 2.
        let mut step = Step::new();
        for from in [p(2), p(3)] {
            let ready = BrachaMsg::Ready {
                source: p(0),
                seq,
                payload: 2,
            };
            endpoints[0].on_message(from, ready, &mut step);
        }
        let instance = endpoints[0].table.get(p(0), seq).expect("instance state");
        assert_eq!(instance.readies.counts.len(), 1);
        assert_eq!(votes(&instance.readies, &two), 2);
        assert_eq!(voters(&instance.readies, n), vec![2, 3]);
        assert!(step.outgoing.iter().all(|out| out.msg
            == BrachaMsg::Ready {
                source: p(0),
                seq,
                payload: 2
            }));
        assert_eq!(step.outgoing.len(), n);
    }

    /// The votes `tally` holds for `digest`.
    fn votes(tally: &Tally, digest: &Digest) -> usize {
        let counted = tally.counts.iter().find(|(counted, _)| counted == digest);
        counted.map_or(0, |&(_, votes)| votes)
    }

    /// The processes of `0..n` that `tally` has counted.
    fn voters(tally: &Tally, n: usize) -> Vec<usize> {
        let voted = |i: usize| tally.voted.get(i / 64).copied().unwrap_or(0) >> (i % 64) & 1;
        (0..n).filter(|&i| voted(i) == 1).collect()
    }

    #[test]
    fn a_byzantine_voter_counts_once_per_phase() {
        // Byzantine p3 sends ECHO and READY for n + 3 distinct payloads,
        // then for the honest one, on p0's instance 1 at every honest
        // process, before any honest message moves. Only its first vote
        // of each phase counts; p0's 42 then delivers everywhere on the
        // three honest votes alone, exactly as without p3.
        let n = 4;
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect();
        let seq = SeqNo::new(1);
        let (source, byzantine) = (p(0), p(3));
        let honest = [p(0), p(1), p(2)];
        let payloads = (100..100 + n as u64 + 3).chain([42]);
        for to in honest {
            for payload in payloads.clone() {
                let mut step = Step::new();
                for msg in [
                    BrachaMsg::Echo {
                        source,
                        seq,
                        payload,
                    },
                    BrachaMsg::Ready {
                        source,
                        seq,
                        payload,
                    },
                ] {
                    endpoints[to.as_usize()].on_message(byzantine, msg, &mut step);
                }
                assert!(step.outgoing.is_empty() && step.deliveries.is_empty());
            }
            let instance = endpoints[to.as_usize()]
                .table
                .get(source, seq)
                .expect("instance state");
            for tally in [&instance.echoes, &instance.readies] {
                assert!(tally.counts.len() <= n, "{} digests", tally.counts.len());
                assert_eq!(tally.counts, vec![(at_crypto::digest_of(&100u64), 1)]);
                assert_eq!(voters(tally, n), vec![3]);
            }
        }
        let mut step = Step::new();
        endpoints[0].broadcast(42, &mut step);
        let mut inflight: VecDeque<_> = step.outgoing.into_iter().map(|out| (p(0), out)).collect();
        let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];
        while let Some((from, out)) = inflight.pop_front() {
            if out.to == byzantine {
                continue;
            }
            let mut step = Step::new();
            endpoints[out.to.as_usize()].on_message(from, out.msg, &mut step);
            inflight.extend(step.outgoing.into_iter().map(|next| (out.to, next)));
            delivered[out.to.as_usize()].extend(step.deliveries);
        }
        let expected = vec![Delivery {
            source,
            seq,
            payload: 42,
        }];
        for to in honest {
            assert_eq!(delivered[to.as_usize()], expected, "{to}");
        }
    }

    #[test]
    fn thresholds_match_bracha() {
        let endpoint: BrachaBroadcast<u64> = BrachaBroadcast::new(p(0), 4);
        assert_eq!(endpoint.fault_threshold(), 1);
        assert_eq!(endpoint.echo_quorum(), 3);
        assert_eq!(endpoint.ready_amplify(), 2);
        assert_eq!(endpoint.ready_deliver(), 3);

        let endpoint: BrachaBroadcast<u64> = BrachaBroadcast::new(p(0), 10);
        assert_eq!(endpoint.fault_threshold(), 3);
        assert_eq!(endpoint.echo_quorum(), 7);
        assert_eq!(endpoint.ready_deliver(), 7);
    }

    #[test]
    fn single_process_system_self_delivers() {
        let delivered = run_system(1, vec![(p(0), 5)], |_, _, _| false);
        assert_eq!(delivered[0].len(), 1);
        assert_eq!(delivered[0][0].payload, 5);
    }

    #[test]
    fn delivery_floor_resumes_a_stream_mid_sequence() {
        let n = 4;
        let mut endpoints: Vec<BrachaBroadcast<u64>> = (0..n)
            .map(|i| BrachaBroadcast::new(p(i as u32), n))
            .collect();
        // A cold-started endpoint learns from a snapshot that source p1
        // already delivered instances 1..=5 — and that its own stream is
        // at 3.
        endpoints[0].set_delivery_floor(p(1), SeqNo::new(5));
        endpoints[0].set_delivery_floor(p(0), SeqNo::new(3));
        let mut step = Step::new();
        assert_eq!(endpoints[0].broadcast(9, &mut step), SeqNo::new(4));
        // Instance 5 from p1 is stale; instance 6 delivers normally.
        let mut inflight: VecDeque<(ProcessId, ProcessId, BrachaMsg<u64>)> = VecDeque::new();
        for seq in [5u64, 6] {
            let mut step = Step::new();
            endpoints[1].on_message(
                p(1),
                BrachaMsg::Init {
                    seq: SeqNo::new(seq),
                    payload: seq,
                },
                &mut step,
            );
            // Drive only endpoint 0's view of p1's INIT/ECHO/READY flow.
            inflight.push_back((
                p(1),
                p(0),
                BrachaMsg::Init {
                    seq: SeqNo::new(seq),
                    payload: seq,
                },
            ));
            for echoer in 1..n {
                inflight.push_back((
                    p(echoer as u32),
                    p(0),
                    BrachaMsg::Ready {
                        source: p(1),
                        seq: SeqNo::new(seq),
                        payload: seq,
                    },
                ));
            }
        }
        let mut got = Vec::new();
        while let Some((from, to, msg)) = inflight.pop_front() {
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            got.extend(step.deliveries.into_iter().map(|d| (d.seq, d.payload)));
        }
        assert_eq!(got, vec![(SeqNo::new(6), 6)]);
    }

    #[test]
    fn debug_and_instance_count() {
        let mut endpoint: BrachaBroadcast<u64> = BrachaBroadcast::new(p(0), 4);
        assert_eq!(endpoint.instance_count(), 0);
        let mut step = Step::new();
        endpoint.on_message(
            p(1),
            BrachaMsg::Init {
                seq: SeqNo::new(1),
                payload: 3,
            },
            &mut step,
        );
        assert_eq!(endpoint.instance_count(), 1);
        assert!(format!("{endpoint:?}").contains("n=4"));
    }
}
