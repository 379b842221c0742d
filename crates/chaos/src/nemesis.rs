//! Nemesis schedules: the replayable fault scripts a chaos run executes.
//!
//! A schedule is a flat `Vec<NemesisChoice>` the runner walks step by
//! step against a live cluster — the chaos counterpart of at-check's
//! `Schedule` of delivery `Choice`s. Schedules are *generated* from a
//! seed ([`generate_schedule`] is a pure function of `(seed, n,
//! disruptions, allow_crash)`), so a failing run's fault script
//! regenerates bit-for-bit from its seed alone, and a failing run
//! prints exactly that seed as the row to replay. (The *execution* is
//! wall-clock: a tight race may need a few replays of the same schedule
//! to re-trigger.)

use std::fmt;

/// One nemesis step against a live cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NemesisChoice {
    /// Let traffic flow undisturbed for `ms` milliseconds.
    Run {
        /// Milliseconds to wait.
        ms: u32,
    },
    /// Block the *directed* link `from → to` (an asymmetric partition:
    /// the reverse direction keeps flowing unless also blocked).
    PartitionLink {
        /// Sending side of the blocked direction.
        from: u32,
        /// Receiving side of the blocked direction.
        to: u32,
    },
    /// Full bidirectional split: processes `0..=boundary` on one side,
    /// the rest on the other, every crossing link blocked both ways.
    SplitBrain {
        /// Highest process id of the first component.
        boundary: u32,
    },
    /// Degrade the directed link `from → to` with wire-level loss,
    /// duplication, and latency (see `at_net::LinkProfile`).
    Degrade {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
        /// Percent of frames "lost on the wire" (repaired by replay).
        drop_pct: u8,
        /// Percent of frames transmitted twice (dedup exercised).
        dup_pct: u8,
        /// Extra per-frame latency in microseconds.
        delay_us: u32,
    },
    /// Tear down the `from → to` connection once (reconnect + outbox
    /// replay).
    Disconnect {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
    /// Warm-crash `node`: graceful stop, `down_ms` offline, restart from
    /// the same replica state on a fresh port. TCP clusters only — the
    /// mesh runner skips this step (its endpoints cannot be re-wired).
    CrashRestart {
        /// The victim.
        node: u32,
        /// Milliseconds the victim stays down.
        down_ms: u32,
    },
    /// Skew `node`'s batch timers to `pct` percent of nominal.
    SkewTimers {
        /// The node whose timers drift.
        node: u32,
        /// Percent of the nominal delay (100 = no skew).
        pct: u32,
    },
    /// Lift every partition, degradation, and pending disconnect.
    Heal,
}

impl fmt::Display for NemesisChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NemesisChoice::Run { ms } => write!(f, "run {ms}ms"),
            NemesisChoice::PartitionLink { from, to } => write!(f, "partition {from}->{to}"),
            NemesisChoice::SplitBrain { boundary } => {
                write!(f, "split {{0..={boundary}}} | rest")
            }
            NemesisChoice::Degrade {
                from,
                to,
                drop_pct,
                dup_pct,
                delay_us,
            } => write!(
                f,
                "degrade {from}->{to} drop={drop_pct}% dup={dup_pct}% delay={delay_us}us"
            ),
            NemesisChoice::Disconnect { from, to } => write!(f, "disconnect {from}->{to}"),
            NemesisChoice::CrashRestart { node, down_ms } => {
                write!(f, "crash {node} for {down_ms}ms")
            }
            NemesisChoice::SkewTimers { node, pct } => write!(f, "skew {node} to {pct}%"),
            NemesisChoice::Heal => write!(f, "heal"),
        }
    }
}

/// Renders a schedule as one bracketed line (the form counterexample
/// texts use).
pub fn format_nemesis_schedule(schedule: &[NemesisChoice]) -> String {
    let steps: Vec<String> = schedule.iter().map(|c| c.to_string()).collect();
    format!("[{}]", steps.join("; "))
}

/// The deterministic generator RNG (xorshift64*; self-contained so a
/// schedule is a pure function of its seed, independent of any library's
/// stream details).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generates the seeded nemesis schedule for an `n`-process cluster:
/// `disruptions` fault steps interleaved with run windows, ending in a
/// final heal-and-drain window. `allow_crash` gates
/// [`NemesisChoice::CrashRestart`] steps (off for mesh clusters). Pure
/// in `(seed, n, disruptions, allow_crash)` — the whole repro story.
pub fn generate_schedule(
    seed: u64,
    n: usize,
    disruptions: usize,
    allow_crash: bool,
) -> Vec<NemesisChoice> {
    assert!(n >= 2, "need at least two processes");
    let mut rng = Rng::new(seed);
    let mut schedule = Vec::with_capacity(disruptions * 3 + 3);
    let link = |rng: &mut Rng| {
        let from = rng.below(n as u64) as u32;
        let to = (from + 1 + rng.below(n as u64 - 1) as u32) % n as u32;
        (from, to)
    };
    schedule.push(NemesisChoice::Run {
        ms: 10 + rng.below(20) as u32,
    });
    for _ in 0..disruptions {
        let kind = rng.below(10);
        match kind {
            0 | 1 => {
                let (from, to) = link(&mut rng);
                schedule.push(NemesisChoice::PartitionLink { from, to });
            }
            2 => {
                schedule.push(NemesisChoice::SplitBrain {
                    boundary: rng.below(n as u64 - 1) as u32,
                });
            }
            3..=5 => {
                let (from, to) = link(&mut rng);
                schedule.push(NemesisChoice::Degrade {
                    from,
                    to,
                    drop_pct: (5 + rng.below(25)) as u8,
                    dup_pct: rng.below(15) as u8,
                    delay_us: 100 + rng.below(2_000) as u32,
                });
            }
            6 => {
                let (from, to) = link(&mut rng);
                schedule.push(NemesisChoice::Disconnect { from, to });
            }
            7 if allow_crash => {
                // Heal first: crashing into an active partition would
                // strand the victim's graceful flush on its blocked
                // outboxes (loss, not a safety counterexample).
                schedule.push(NemesisChoice::Heal);
                schedule.push(NemesisChoice::CrashRestart {
                    node: rng.below(n as u64) as u32,
                    down_ms: 20 + rng.below(40) as u32,
                });
            }
            7 => {
                let (from, to) = link(&mut rng);
                schedule.push(NemesisChoice::Disconnect { from, to });
            }
            _ => {
                schedule.push(NemesisChoice::SkewTimers {
                    node: rng.below(n as u64) as u32,
                    pct: (40 + rng.below(320)) as u32,
                });
            }
        }
        schedule.push(NemesisChoice::Run {
            ms: 15 + rng.below(40) as u32,
        });
        if rng.below(2) == 0 {
            schedule.push(NemesisChoice::Heal);
            schedule.push(NemesisChoice::Run {
                ms: 10 + rng.below(20) as u32,
            });
        }
    }
    schedule.push(NemesisChoice::Heal);
    schedule.push(NemesisChoice::Run { ms: 50 });
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure_in_the_seed() {
        let a = generate_schedule(42, 4, 6, true);
        let b = generate_schedule(42, 4, 6, true);
        assert_eq!(a, b);
        assert_ne!(a, generate_schedule(43, 4, 6, true));
    }

    #[test]
    fn schedules_end_healed_and_draining() {
        for seed in 0..20 {
            let schedule = generate_schedule(seed, 4, 5, true);
            let tail = &schedule[schedule.len() - 2..];
            assert_eq!(tail[0], NemesisChoice::Heal);
            assert!(matches!(tail[1], NemesisChoice::Run { .. }));
        }
    }

    #[test]
    fn crashes_are_gated_and_preceded_by_heal() {
        for seed in 0..50u64 {
            let schedule = generate_schedule(seed, 4, 8, false);
            assert!(!schedule
                .iter()
                .any(|c| matches!(c, NemesisChoice::CrashRestart { .. })));
            let with_crash = generate_schedule(seed, 4, 8, true);
            for (i, step) in with_crash.iter().enumerate() {
                if matches!(step, NemesisChoice::CrashRestart { .. }) {
                    assert_eq!(
                        with_crash[i - 1],
                        NemesisChoice::Heal,
                        "seed {seed} step {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_yield_mostly_distinct_schedules() {
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..100u64 {
            distinct.insert(generate_schedule(seed, 4, 5, true));
        }
        assert!(distinct.len() >= 95, "only {} distinct", distinct.len());
    }

    #[test]
    fn links_are_never_self_loops_and_stay_in_range() {
        for seed in 0..30u64 {
            for choice in generate_schedule(seed, 3, 10, true) {
                match choice {
                    NemesisChoice::PartitionLink { from, to }
                    | NemesisChoice::Degrade { from, to, .. }
                    | NemesisChoice::Disconnect { from, to } => {
                        assert_ne!(from, to);
                        assert!(from < 3 && to < 3);
                    }
                    NemesisChoice::SplitBrain { boundary } => assert!(boundary < 2),
                    NemesisChoice::CrashRestart { node, .. }
                    | NemesisChoice::SkewTimers { node, .. } => assert!(node < 3),
                    NemesisChoice::Run { .. } | NemesisChoice::Heal => {}
                }
            }
        }
    }

    #[test]
    fn schedules_render_round_trippably_readable() {
        let schedule = vec![
            NemesisChoice::Run { ms: 30 },
            NemesisChoice::PartitionLink { from: 0, to: 2 },
            NemesisChoice::Heal,
        ];
        let text = format_nemesis_schedule(&schedule);
        assert_eq!(text, "[run 30ms; partition 0->2; heal]");
    }
}
