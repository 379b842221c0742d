//! Adversarial integration tests: the safety guarantees of Definition 1
//! against actively malicious participants, with real cryptography where
//! the attack targets the signature layer.

use at_broadcast::auth::{Authenticator, EdAuth};
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::{EchoBroadcast, EchoMsg};
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::types::Step;
use at_core::figure4::TransferMsg;
use at_engine::{DefaultEngineBroadcast, EngineActor, EngineConfig, EngineEvent};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_net::{NetConfig, Simulation, VirtualTime};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

fn amt(x: u64) -> Amount {
    Amount::new(x)
}

/// `n` engine participants over Bracha in the Figure 4 shape, 10 units
/// each; `attacker` builds the ones `is_attacker` picks.
fn mixed_system(
    n: usize,
    seed: u64,
    is_attacker: impl Fn(u32) -> bool,
    attacker: fn(ProcessId, usize, Amount, EngineConfig, DefaultEngineBroadcast) -> EngineActor,
) -> Simulation<EngineActor> {
    let actors = (0..n as u32)
        .map(|i| {
            let make = if is_attacker(i) {
                attacker
            } else {
                EngineActor::honest
            };
            make(
                p(i),
                n,
                amt(10),
                EngineConfig::unsharded(),
                BrachaBroadcast::new(p(i), n),
            )
        })
        .collect();
    Simulation::new(actors, NetConfig::lan(seed))
}

/// f = 2 adversaries in a system of n = 7, both equivocating
/// concurrently with honest traffic: no double spend, honest liveness.
#[test]
fn two_adversaries_cannot_break_safety_or_liveness() {
    let n = 7;
    let mut sim = mixed_system(n, 41, |i| i >= 5, EngineActor::equivocator);

    // Each attacker sends 5 to one account and 5 to another in the same
    // broadcast instance.
    for i in [5u32, 6] {
        sim.schedule(VirtualTime::ZERO, p(i), |actor, ctx| actor.attack(0, ctx));
    }
    for i in 0..5u32 {
        sim.schedule(VirtualTime::ZERO, p(i), move |actor, ctx| {
            actor.submit(a((i + 1) % 5), amt(4), ctx);
        });
    }
    assert!(sim.run_until_quiet(10_000_000));

    let events = sim.take_events();
    let completed = events
        .iter()
        .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
        .count();
    assert_eq!(completed, 5, "all honest transfers completed");

    // Across honest replicas: each adversary account debited at most once.
    for i in 0..5u32 {
        let replica = sim.actor(p(i)).as_honest().expect("honest");
        for attacker in [5u32, 6] {
            assert!(
                replica.applied_from(p(attacker)).len() <= 1,
                "both legs of a double spend applied at replica {i}"
            );
            let balance = replica.balance(a(attacker));
            assert!(
                balance == amt(10) || balance == amt(5),
                "double spend visible at replica {i}: {balance}"
            );
        }
        // Conservation: nobody was credited by a leg that debited nobody.
        let total: Amount = (0..n as u32).map(|j| replica.balance(a(j))).sum();
        assert_eq!(total, amt(10 * n as u64));
    }
}

/// A forged Ed25519 signature on a SEND is rejected before any protocol
/// state is created: the attacker cannot impersonate another owner.
#[test]
fn signature_forgery_is_rejected() {
    let n = 4;
    let auth = EdAuth::deterministic(n, 5);
    let mut victim_endpoint: EchoBroadcast<TransferMsg, EdAuth> =
        EchoBroadcast::new(p(1), n, auth.clone());

    // p3 crafts a transfer debiting p0's account and signs it with its
    // *own* key (it does not have p0's).
    let forged_payload = TransferMsg {
        transfer: Transfer::new(a(0), a(3), amt(10), p(0), SeqNo::new(1)),
        deps: vec![],
    };
    let bogus_sig = auth.sign(p(3), b"anything");
    let mut step = Step::new();
    victim_endpoint.on_message(
        p(3),
        EchoMsg::Send {
            seq: SeqNo::new(1),
            payload: forged_payload,
            sig: bogus_sig,
        },
        &mut step,
    );
    assert!(step.outgoing.is_empty(), "no echo for forged signature");
    assert!(step.deliveries.is_empty());
    assert_eq!(victim_endpoint.delivered_count(), 0);
}

/// Runs a real signed-echo broadcast among `n` endpoints and returns the
/// sender's genuine FINAL message (payload + echo-quorum certificate) —
/// the raw material for the certificate-tampering tests below.
fn genuine_final(n: usize, auth: &EdAuth, payload: u64) -> EchoMsg<u64, at_crypto::Signature> {
    let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..n as u32)
        .map(|i| EchoBroadcast::new(p(i), n, auth.clone()))
        .collect();
    let mut step = Step::new();
    endpoints[0].broadcast(payload, &mut step);
    let sends: Vec<_> = step.outgoing;
    // Deliver the SENDs; route the echo shares back to the sender until
    // its FINAL materialises.
    let mut echoes = Vec::new();
    for out in sends {
        let mut reply = Step::new();
        endpoints[out.to.as_usize()].on_message(p(0), out.msg, &mut reply);
        echoes.extend(reply.outgoing.into_iter().map(|e| (out.to, e)));
    }
    for (from, echo) in echoes {
        let mut reply = Step::new();
        endpoints[0].on_message(from, echo.msg, &mut reply);
        for out in reply.outgoing {
            if matches!(out.msg, EchoMsg::Final { .. }) {
                return out.msg;
            }
        }
    }
    panic!("quorum of genuine echoes must produce a FINAL");
}

/// The satellite requirement: a forged or truncated echo-quorum
/// certificate — flipped share bits, a reattributed signer, a sub-quorum
/// or duplicate-padded certificate, a swapped payload — must be rejected
/// by `EchoBroadcast` delivery under real Ed25519 authentication, while
/// the untampered certificate delivers.
#[test]
fn tampered_echo_quorum_certificates_are_rejected() {
    let n = 4;
    let auth = EdAuth::deterministic(n, 7);
    let EchoMsg::Final {
        source,
        seq,
        payload,
        sig,
        certificate,
    } = genuine_final(n, &auth, 424_242)
    else {
        panic!("genuine_final returns a FINAL");
    };
    assert!(certificate.len() >= 3, "quorum certificate collected");

    // Each tampering attempt is delivered to a fresh victim endpoint; a
    // delivery (or any state change) means the forgery landed.
    let attempt = |label: &str, msg: EchoMsg<u64, at_crypto::Signature>| -> usize {
        let mut victim: EchoBroadcast<u64, EdAuth> = EchoBroadcast::new(p(1), n, auth.clone());
        let mut step = Step::new();
        victim.on_message(p(0), msg, &mut step);
        assert_eq!(
            victim.delivered_count(),
            step.deliveries.len(),
            "{label}: inconsistent delivery bookkeeping"
        );
        step.deliveries.len()
    };

    // Flipped share: corrupt one bit of the first share's signature.
    let mut flipped = certificate.clone();
    let mut bytes = flipped[0].1.to_bytes();
    bytes[17] ^= 0x40;
    flipped[0].1 = at_crypto::Signature::from_bytes(&bytes);
    assert_eq!(
        attempt(
            "flipped share",
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate: flipped,
            }
        ),
        0
    );

    // Wrong signer: reattribute a genuine share to a different process.
    let mut reattributed = certificate.clone();
    let stolen = reattributed[0].1;
    let victim_signer = reattributed[1].0;
    reattributed[0] = (victim_signer, stolen);
    assert_eq!(
        attempt(
            "wrong signer",
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate: reattributed,
            }
        ),
        0
    );

    // Sub-quorum: truncate below the echo quorum.
    let truncated: Vec<_> = certificate.iter().take(2).cloned().collect();
    assert_eq!(
        attempt(
            "truncated certificate",
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate: truncated,
            }
        ),
        0
    );

    // Sub-quorum padded with duplicates of one genuine share: distinct
    // signers still fall short.
    let padded = vec![certificate[0], certificate[0], certificate[0]];
    assert_eq!(
        attempt(
            "duplicate-padded certificate",
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate: padded,
            }
        ),
        0
    );

    // Swapped payload: the certificate covers the original digest only.
    assert_eq!(
        attempt(
            "swapped payload",
            EchoMsg::Final {
                source,
                seq,
                payload: payload + 1,
                sig,
                certificate: certificate.clone(),
            }
        ),
        0
    );

    // Control: the intact FINAL delivers exactly once.
    assert_eq!(
        attempt(
            "intact certificate",
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate,
            }
        ),
        1
    );
}

/// Certificate verification under attack: `verify_batch` attributes
/// the exact tampered shares — so a certificate carrying a genuine
/// quorum *plus* corrupt padding still delivers (the attack gains
/// nothing), while tampering that eats into the quorum is rejected.
#[test]
fn batched_certificate_fallback_attributes_and_tolerates_corrupt_padding() {
    let n = 4;
    let auth = EdAuth::deterministic(n, 11);
    let EchoMsg::Final {
        source,
        seq,
        payload,
        sig,
        certificate,
    } = genuine_final(n, &auth, 99_999)
    else {
        panic!("genuine_final returns a FINAL");
    };
    let quorum = certificate.len();
    assert!(quorum >= 3);

    let attempt = |label: &str, cert: Vec<(ProcessId, at_crypto::Signature)>| -> usize {
        let mut victim: EchoBroadcast<u64, EdAuth> = EchoBroadcast::new(p(1), n, auth.clone());
        let mut step = Step::new();
        victim.on_message(
            p(0),
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate: cert,
            },
            &mut step,
        );
        assert_eq!(
            victim.delivered_count(),
            step.deliveries.len(),
            "{label}: inconsistent delivery bookkeeping"
        );
        step.deliveries.len()
    };

    // A genuine quorum plus one corrupt share appended: the batch check
    // fails, the fallback attributes exactly the padding, and the
    // surviving quorum still delivers.
    let mut padded = certificate.clone();
    let mut corrupt = padded[0].1.to_bytes();
    corrupt[40] ^= 0x08;
    padded.push((padded[0].0, at_crypto::Signature::from_bytes(&corrupt)));
    assert_eq!(
        attempt("corrupt padding beyond quorum", padded),
        1,
        "corrupt padding must not invalidate a genuine quorum"
    );

    // Two shares tampered inside the quorum: attribution removes both
    // and the remainder falls short — no delivery.
    let mut double = certificate.clone();
    for index in [0, 1] {
        let mut bytes = double[index].1.to_bytes();
        bytes[33] ^= 0x80;
        double[index].1 = at_crypto::Signature::from_bytes(&bytes);
    }
    assert_eq!(attempt("two tampered shares", double), 0);

    // Direct attribution check on the authenticator: tamper shares 0
    // and 2 of a 4-share batch, expect exactly those indices back.
    let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 16]).collect();
    let sigs: Vec<at_crypto::Signature> = (0..n)
        .map(|i| auth.sign(p(i as u32), &messages[i]))
        .collect();
    let mut items: Vec<at_broadcast::BatchVerifyItem<'_, at_crypto::Signature>> = (0..n)
        .map(|i| at_broadcast::BatchVerifyItem {
            signer: p(i as u32),
            bytes: messages[i].as_slice(),
            sig: &sigs[i],
        })
        .collect();
    assert_eq!(auth.verify_batch(&items), Ok(()));
    items[0].bytes = b"swapped payload";
    items[2].signer = p(3);
    assert_eq!(auth.verify_batch(&items), Err(vec![0, 2]));
}

/// Replayed SENDs (valid signature, old sequence number) do not cause
/// double application: the Figure 4 well-formedness check (line 10)
/// accepts each sequence number exactly once.
#[test]
fn replay_attack_is_idempotent() {
    let n = 3;
    let mut states: Vec<at_core::figure4::TransferState> = (0..n as u32)
        .map(|i| at_core::figure4::TransferState::new(p(i), n, amt(10)))
        .collect();
    let msg = states[0].submit(a(1), amt(4)).unwrap();
    // First delivery applies...
    assert_eq!(states[1].on_deliver(p(0), msg.clone()).len(), 1);
    // ...replays do nothing.
    for _ in 0..5 {
        assert!(states[1].on_deliver(p(0), msg.clone()).is_empty());
    }
    assert_eq!(states[1].observed_balance(a(1)), amt(14));
}

/// An adversary that floods with future sequence numbers cannot make
/// honest processes skip ahead.
#[test]
fn sequence_gap_flood_is_buffered_not_applied() {
    let n = 3;
    let mut victim = at_core::figure4::TransferState::new(p(1), n, amt(100));
    for seq in 5..25u64 {
        let msg = TransferMsg {
            transfer: Transfer::new(a(0), a(1), amt(1), p(0), SeqNo::new(seq)),
            deps: vec![],
        };
        assert!(victim.on_deliver(p(0), msg).is_empty());
    }
    assert_eq!(victim.observed_balance(a(1)), amt(100));
    assert_eq!(victim.validated_seq(p(0)), SeqNo::ZERO);
}

/// The overspender attack at network scale: an adversary broadcasts a
/// protocol-conformant transfer for money it does not have; every honest
/// process buffers it forever and the system keeps running.
#[test]
fn network_wide_overspend_is_inert() {
    let n = 4;
    let mut sim = mixed_system(n, 43, |i| i == 3, EngineActor::overspender);
    // Half of all the money there could be, to account 0.
    sim.schedule(VirtualTime::ZERO, p(3), |actor, ctx| actor.attack(0, ctx));
    // Honest traffic interleaved before and after.
    sim.schedule(VirtualTime::from_millis(1), p(0), |actor, ctx| {
        actor.submit(a(1), amt(5), ctx);
    });
    assert!(sim.run_until_quiet(10_000_000));
    let events = sim.take_events();
    let applied: Vec<&Transfer> = events
        .iter()
        .filter_map(|(_, _, e)| match e {
            EngineEvent::Applied { transfer } => Some(transfer),
            _ => None,
        })
        .collect();
    assert!(!applied.is_empty());
    assert!(applied.iter().all(|t| t.amount == amt(5)));
    for i in 0..3u32 {
        let replica = sim.actor(p(i)).as_honest().expect("honest");
        assert_eq!(replica.pending_count(), 1, "the overdraft stays buffered");
        // Account 0: initial 10, honest spend of 5, and — crucially — no
        // credit from the attacker's unfunded transfer.
        assert_eq!(replica.balance(a(0)), amt(5));
        // The attacker's account is untouched (its overdraft never applied).
        assert_eq!(replica.balance(a(3)), amt(10));
    }
}
