//! The *account-order* secure broadcast of Section 6.
//!
//! For `k`-shared accounts the source-order property is not enough: up to
//! `k` different owners issue transfers for the same account, and benign
//! processes must apply them in the sequence-number order assigned by the
//! account's BFT service. The paper modifies the classical echo broadcast:
//!
//! > "A message with a sequence number `s` associated with an account `a`
//! > is only acknowledged by a benign process if the last message
//! > associated with `a` it delivered had sequence number `s − 1`. Once a
//! > quorum is collected, the sender sends the message equipped with the
//! > signed quorum to all and delivers the message."
//!
//! That modification is the `IN_ORDER` rule of [`SignedEcho`], so the
//! protocol here is the signed echo under it, named twice:
//! [`AccountOrderBroadcast`] over shared accounts and
//! [`AccountOrderBackend`] over the base topology.
//!
//! * **Account order**: benign processes deliver messages of the same
//!   account in sequence order.
//! * **Anti-equivocation**: a benign process acknowledges at most one
//!   message per `(account, seq)`; two conflicting messages can never both
//!   assemble a quorum of `⌈(n+f+1)/2⌉` (any two quorums intersect in a
//!   benign process), so even a fully compromised account can block but
//!   never double-spend.

use crate::echo::SignedEcho;
use at_model::{AccountId, ProcessId};

/// The account-order broadcast over `k`-shared accounts: streams are
/// accounts, and any process may send on one, with the sequence number
/// the account's BFT service assigned (`at-core`'s `kshared`).
pub type AccountOrderBroadcast<P, A> = SignedEcho<AccountId, P, A, true>;

/// The account-order broadcast as a [`SecureBroadcast`] backend for the
/// base topology, where account `i` belongs to process `i`: streams are
/// processes, only an account's owner sends on it, and the sequence
/// numbers are the owner's own. Each account's messages deliver
/// gaplessly in sequence order, which is the FIFO delivery contract.
///
/// [`SecureBroadcast`]: crate::SecureBroadcast
pub type AccountOrderBackend<P, A> = SignedEcho<ProcessId, P, A, true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{Authenticator, EdAuth, NoAuth, ObservedAuth};
    use crate::echo::{EchoMsg, Stream};
    use crate::secure::SecureBroadcast;
    use crate::types::{Delivery, Step};
    use at_model::SeqNo;
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn acct(i: u32) -> AccountId {
        AccountId::new(i)
    }

    type Endpoint<K, A> = SignedEcho<K, u64, A, true>;
    type Wire<K, A> = (
        ProcessId,
        ProcessId,
        EchoMsg<u64, <A as Authenticator>::Sig, K>,
    );

    /// Runs `inflight` to quiescence in FIFO order; returns what each
    /// process delivered, in delivery order.
    fn run<K: Stream, A: Authenticator>(
        endpoints: &mut [Endpoint<K, A>],
        mut inflight: VecDeque<Wire<K, A>>,
        drop_rule: impl Fn(&Wire<K, A>) -> bool,
    ) -> Vec<Vec<Delivery<u64, K>>> {
        let mut delivered = vec![Vec::new(); endpoints.len()];
        while let Some(wire) = inflight.pop_front() {
            if drop_rule(&wire) {
                continue;
            }
            let (from, to, msg) = wire;
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    fn outgoing<K, A: Authenticator>(
        sender: ProcessId,
        step: Step<EchoMsg<u64, A::Sig, K>, u64, K>,
    ) -> VecDeque<Wire<K, A>> {
        step.outgoing
            .into_iter()
            .map(|out| (sender, out.to, out.msg))
            .collect()
    }

    /// `sender` broadcasts `value` as message `seq` of shared `account`.
    fn start<A: Authenticator>(
        endpoints: &mut [Endpoint<AccountId, A>],
        sender: ProcessId,
        account: AccountId,
        seq: u64,
        value: u64,
    ) -> VecDeque<Wire<AccountId, A>> {
        let mut step = Step::new();
        endpoints[sender.as_usize()].broadcast_at(account, SeqNo::new(seq), value, &mut step);
        outgoing::<_, A>(sender, step)
    }

    fn system_with<K: Stream, A: Authenticator + Clone>(n: usize, auth: &A) -> Vec<Endpoint<K, A>> {
        (0..n)
            .map(|i| SignedEcho::new(p(i as u32), n, auth.clone()))
            .collect()
    }

    /// `n` endpoints over shared account streams.
    fn system(n: usize) -> Vec<AccountOrderBroadcast<u64, NoAuth>> {
        system_with(n, &NoAuth)
    }

    /// `n` endpoints of the base-topology backend.
    fn backends(n: usize) -> Vec<AccountOrderBackend<u64, NoAuth>> {
        system_with(n, &NoAuth)
    }

    fn values<K>(delivered: &[Delivery<u64, K>]) -> Vec<u64> {
        delivered.iter().map(|d| d.payload).collect()
    }

    #[test]
    fn in_order_broadcasts_deliver_everywhere() {
        let mut endpoints = system(4);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 100);
        wires.extend(start(&mut endpoints, p(1), acct(0), 2, 200));
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![100, 200]);
            let seqs: Vec<u64> = delivered.iter().map(|d| d.seq.value()).collect();
            assert_eq!(seqs, vec![1, 2]);
            assert!(delivered.iter().all(|d| d.source == acct(0)));
        }
    }

    #[test]
    fn out_of_order_seq_waits_for_predecessor() {
        let mut endpoints = system(4);
        // seq 2 first: nobody acks, nothing delivers.
        let wires = start(&mut endpoints, p(0), acct(0), 2, 200);
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(Vec::is_empty));
        // seq 1 arrives: both deliver in order.
        let wires = start(&mut endpoints, p(1), acct(0), 1, 100);
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![100, 200]);
        }
    }

    #[test]
    fn conflicting_same_seq_messages_block_but_never_fork() {
        let mut endpoints = system(4);
        // Two owners both claim seq 1 with different payloads (the
        // compromised-account scenario of Section 6).
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 111);
        wires.extend(start(&mut endpoints, p(1), acct(0), 1, 222));
        let delivered = run(&mut endpoints, wires, |_| false);
        // Every process delivered at most one value, and no two processes
        // delivered different values for seq 1.
        let mut seen = std::collections::HashSet::new();
        for delivered in &delivered {
            assert!(delivered.len() <= 1);
            seen.extend(values(delivered));
        }
        assert!(seen.len() <= 1, "forked deliveries: {seen:?}");
    }

    #[test]
    fn a_conflicting_send_behind_an_acknowledged_one_gets_no_ack() {
        // Co-owners p0 and p1 both send seq 1 of account 0. p2 acks p0's
        // payload; p1's conflicting one must draw nothing — the memo
        // holds 111's digest, and answering it for 222 would take the
        // conflict for a duplicate and acknowledge again.
        let mut endpoint: AccountOrderBroadcast<u64, NoAuth> = SignedEcho::new(p(2), 4, NoAuth);
        let send = |payload| EchoMsg::Send {
            stream: acct(0),
            seq: SeqNo::new(1),
            payload,
            sig: (),
        };
        let mut step = Step::new();
        endpoint.on_message(p(0), send(111), &mut step);
        assert_eq!(step.outgoing.len(), 1, "the first SEND is acknowledged");
        let mut step = Step::new();
        endpoint.on_message(p(1), send(222), &mut step);
        assert!(
            step.outgoing.is_empty(),
            "a conflicting SEND was acknowledged"
        );
        // A duplicate of the acknowledged SEND is acknowledged again.
        endpoint.on_message(p(0), send(111), &mut step);
        assert_eq!(step.outgoing.len(), 1);
        assert_eq!(step.outgoing[0].to, p(0));
    }

    #[test]
    fn a_forged_send_leaves_no_state() {
        let auth = EdAuth::deterministic(4, 4);
        let mut endpoint = AccountOrderBackend::<u64, _>::new(p(1), 4, auth.clone());
        let mut step = Step::new();
        endpoint.on_message(
            p(3),
            EchoMsg::Send {
                stream: p(3),
                seq: SeqNo::new(1),
                payload: 666,
                sig: auth.sign(p(3), b"garbage"),
            },
            &mut step,
        );
        assert!(step.outgoing.is_empty() && step.deliveries.is_empty());
        assert_eq!(endpoint.instance_count(), 0, "a forged SEND left state");
    }

    #[test]
    fn accounts_are_independent_streams() {
        let mut endpoints = system(4);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        wires.extend(start(&mut endpoints, p(1), acct(1), 1, 2));
        // A gap on account 2 does not block account 0/1.
        wires.extend(start(&mut endpoints, p(2), acct(2), 5, 3));
        for delivered in run(&mut endpoints, wires, |_| false) {
            let mut delivered: Vec<(AccountId, u64)> =
                delivered.iter().map(|d| (d.source, d.payload)).collect();
            delivered.sort();
            assert_eq!(delivered, vec![(acct(0), 1), (acct(1), 2)]);
        }
    }

    #[test]
    fn delivery_unblocks_next_ack() {
        let mut endpoints = system(4);
        // Both seq 1 and seq 2 are in flight concurrently; receivers must
        // ack 2 only after delivering 1 — and they eventually do.
        let mut wires = start(&mut endpoints, p(0), acct(7), 2, 20);
        wires.extend(start(&mut endpoints, p(0), acct(7), 1, 10));
        for delivered in run(&mut endpoints, wires, |_| false) {
            assert_eq!(values(&delivered), vec![10, 20]);
        }
    }

    #[test]
    fn a_forged_sender_field_does_not_cost_the_named_process_its_relay() {
        // No field of a FINAL names its sender, so a relayer cannot forge
        // one to make others skip a process. Byzantine p3 relays a valid
        // FINAL of account 0 to p2. On the shared account the window is
        // f + 1 = 2, {p3, p0}: p2 relays to p0 and skips only the channel
        // peer p3. On p0's own stream of the base topology the owner is
        // skipped uncounted, the window is {p3}, and p2 relays nothing;
        // had the copy come from p1 instead, outside it, p3 gets it.
        fn final_of<K>(stream: K) -> EchoMsg<u64, (), K> {
            let certificate = vec![(p(0), ()), (p(1), ()), (p(3), ())];
            EchoMsg::Final {
                stream,
                seq: SeqNo::new(1),
                payload: 9,
                certificate,
            }
        }
        let mut shared: AccountOrderBroadcast<u64, NoAuth> = SignedEcho::new(p(2), 4, NoAuth);
        let mut step = Step::new();
        shared.on_message(p(3), final_of(acct(0)), &mut step);
        let relayed_to: Vec<ProcessId> = step.outgoing.iter().map(|out| out.to).collect();
        assert_eq!(step.deliveries.len(), 1);
        assert_eq!(relayed_to, vec![p(0)], "shared account");

        for (from, expected) in [(p(3), vec![]), (p(1), vec![p(3)])] {
            let mut owned: AccountOrderBackend<u64, NoAuth> = SignedEcho::new(p(2), 4, NoAuth);
            let mut step = Step::new();
            owned.on_message(from, final_of(p(0)), &mut step);
            let relayed_to: Vec<ProcessId> = step.outgoing.iter().map(|out| out.to).collect();
            assert_eq!(step.deliveries.len(), 1);
            assert_eq!(relayed_to, expected, "owned stream, from {from}");
        }
    }

    #[test]
    fn delivery_floor_resumes_an_account_mid_sequence() {
        let mut endpoints = backends(4);
        for endpoint in &mut endpoints {
            endpoint.set_delivery_floor(p(0), SeqNo::new(4));
        }
        // A SEND for seq 4 is below the floor: ignored everywhere.
        let send = EchoMsg::Send {
            stream: p(0),
            seq: SeqNo::new(4),
            payload: 40,
            sig: (),
        };
        let wires = (0..4).map(|i| (p(0), p(i), send.clone())).collect();
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(Vec::is_empty));
        // p0's next broadcast is seq 5, and it delivers.
        let mut step = Step::new();
        assert_eq!(endpoints[0].broadcast(50, &mut step), SeqNo::new(5));
        for delivered in run(&mut endpoints, outgoing::<_, NoAuth>(p(0), step), |_| false) {
            assert_eq!(values(&delivered), vec![50]);
        }
    }

    /// Account-order's signature budget, as exact counts over whole
    /// instances (all `n` endpoints metered into one registry), with
    /// `q` the ack quorum — signed echo's budget, through the same
    /// machine.
    ///
    /// An honest instance signs the SEND plus one ack share per process,
    /// `n + 1`. Nobody verifies what it signed itself: the SEND is
    /// verified at every process but its sender, and each of the `q`
    /// certificate shares at every process but its signer — at the
    /// sender as acks arrive (an ack past the quorum finds the instance
    /// finalized and is dropped unverified), elsewhere in the sender's
    /// FINAL (the sender does not re-verify the shares it collected, and
    /// the relayed copies arrive behind the delivery floor):
    /// `(n − 1)(q + 1)`.
    ///
    /// An instance whose predecessor the last process never saw costs
    /// the same `(n − 1)(q + 1)` verifications: the last process acks
    /// nothing (`n` signs), so the sender takes `q` of `n − 1` acks, its
    /// own unverified; `n − 2` others verify the certificate but for
    /// their own share and deliver; and the last one, whose share the
    /// certificate lacks, verifies all `q` of the first FINAL it sees,
    /// parks it behind the gap, and drops the relayed copies on the
    /// parked duplicate without verifying them. Verifying before the
    /// lookup in `on_echo`, or before the duplicate check in `on_final`,
    /// moves a count and fails here.
    fn assert_signature_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth = ObservedAuth::new(EdAuth::deterministic(n, 31), registry.recorder());
        let q = system(n)[0].quorum() as u64;
        let budget = (n as u64 - 1) * (q + 1);

        let mut endpoints = system_with(n, &auth);
        let wires = start(&mut endpoints, p(0), acct(0), 1, 42);
        let delivered = run(&mut endpoints, wires, |_| false);
        assert!(delivered.iter().all(|delivered| delivered.len() == 1));
        assert_eq!(auth.signs(), n as u64 + 1, "signs at n = {n}");
        assert_eq!(auth.verifies(), budget, "verifies at n = {n}, q = {q}");

        let last = p(n as u32 - 1);
        let mut endpoints = system_with(n, &auth);
        let wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        run(&mut endpoints, wires, |(_, to, _)| *to == last);
        let (signs, verifies) = (auth.signs(), auth.verifies());
        let wires = start(&mut endpoints, p(0), acct(0), 2, 2);
        let delivered = run(&mut endpoints, wires, |_| false);
        for (i, delivered) in delivered.iter().enumerate() {
            let expected = if p(i as u32) == last { vec![] } else { vec![2] };
            assert_eq!(values(delivered), expected, "process {i}");
        }
        assert_eq!(auth.signs() - signs, n as u64, "signs behind a gap");
        assert_eq!(auth.verifies() - verifies, budget, "verifies behind a gap");
    }

    #[test]
    fn honest_instance_costs_5_signs_and_12_verifies_at_n4() {
        assert_signature_budget(4);
    }

    #[test]
    fn honest_instance_costs_8_signs_and_36_verifies_at_n7() {
        assert_signature_budget(7);
    }

    /// Two instances of one account in flight together: every process
    /// acknowledges each slot once, when its turn comes — `2(n + 1)`
    /// signs and `2n` acks. Acknowledging the expected slot again each
    /// time a later SEND of the account arrives moves both counts.
    fn assert_pipelined_pair_budget(n: usize) {
        let registry = at_obs::Registry::new("cluster");
        let auth = ObservedAuth::new(EdAuth::deterministic(n, 33), registry.recorder());
        let mut endpoints = system_with(n, &auth);
        let mut wires = start(&mut endpoints, p(0), acct(0), 1, 1);
        wires.extend(start(&mut endpoints, p(0), acct(0), 2, 2));
        let acks = std::cell::Cell::new(0);
        let delivered = run(&mut endpoints, wires, |(_, _, msg)| {
            if matches!(msg, EchoMsg::Echo { .. }) {
                acks.set(acks.get() + 1);
            }
            false
        });
        assert!(delivered
            .iter()
            .all(|delivered| values(delivered) == [1, 2]));
        assert_eq!(auth.signs(), 2 * (n as u64 + 1), "signs at n = {n}");
        assert_eq!(acks.get(), 2 * n, "acks at n = {n}");
    }

    #[test]
    fn pipelined_pair_costs_10_signs_and_8_acks_at_n4() {
        assert_pipelined_pair_budget(4);
    }

    #[test]
    fn pipelined_pair_costs_16_signs_and_14_acks_at_n7() {
        assert_pipelined_pair_budget(7);
    }

    #[test]
    fn quorum_and_debug() {
        let endpoint: AccountOrderBroadcast<u64, NoAuth> = SignedEcho::new(p(0), 4, NoAuth);
        assert_eq!(endpoint.quorum(), 3);
        assert!(format!("{endpoint:?}").contains("delivered=0"));
    }
}
