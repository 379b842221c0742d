//! The scenario DSL: composable workloads, adversaries, and network
//! faults over the deterministic simulator.
//!
//! A [`Scenario`] is a pure description — workload shape, system size,
//! seed, adversary placement, fault schedule — built with a fluent
//! builder and executed by [`crate::EngineConfig::run`].
//! The same scenario value drives the consensusless engine, the
//! consensus baseline, benches, examples, and tests, which is what makes
//! the reported numbers comparable.
//!
//! Determinism contract: a scenario contains no randomness of its own;
//! everything derives from `seed`. Running the same scenario twice on the
//! same engine yields byte-identical [`ScenarioReport`]s.

use at_model::{AccountId, Amount, ProcessId};
use at_net::{NetConfig, VirtualTime};

/// The per-wave traffic pattern of the correct processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every process pays a rotating destination — the paper's evaluation
    /// workload; maximal per-account independence.
    Uniform,
    /// `percent_hot` of transfers credit one hot account, the rest
    /// rotate — a popular-merchant shape.
    HotSpot {
        /// The hot destination account.
        hot: AccountId,
        /// Percentage (0–100) of transfers credited to it.
        percent_hot: u8,
    },
    /// Every transfer credits one sink account — the extreme hot spot
    /// (exchange deposit shape).
    ManyToOne {
        /// The sink account.
        sink: AccountId,
    },
    /// A deterministic per-(wave, process) mix of the uniform and
    /// many-to-one shapes.
    Mixed {
        /// The shared sink of the many-to-one component.
        sink: AccountId,
        /// Percentage (0–100) of (wave, process) slots that pay the sink.
        percent_sink: u8,
    },
}

impl Workload {
    /// The destination account process `i` pays in `wave` (`None` when
    /// the slot idles). Deterministic in `(self, seed, wave, i, n)`.
    pub fn destination(&self, seed: u64, wave: usize, i: usize, n: usize) -> Option<AccountId> {
        let rotate = || AccountId::new(((i + wave + 1) % n) as u32);
        match self {
            Workload::Uniform => Some(rotate()),
            Workload::HotSpot { hot, percent_hot } => {
                if hash3(seed, wave as u64, i as u64) % 100 < *percent_hot as u64 {
                    Some(*hot)
                } else {
                    Some(rotate())
                }
            }
            Workload::ManyToOne { sink } => {
                if AccountId::new(i as u32) == *sink {
                    None
                } else {
                    Some(*sink)
                }
            }
            Workload::Mixed { sink, percent_sink } => {
                if hash3(seed, wave as u64, i as u64) % 100 < *percent_sink as u64 {
                    if AccountId::new(i as u32) == *sink {
                        None
                    } else {
                        Some(*sink)
                    }
                } else {
                    Some(rotate())
                }
            }
        }
    }
}

/// SplitMix64-style mix of three words — the deterministic coin used by
/// the workload shapes.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Byzantine behaviour assigned to one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Attempts a double spend every wave: two conflicting batches in
    /// one broadcast instance (`SecureBroadcast::broadcast_split`). The
    /// secure broadcasts deliver neither; the PBFT baseline's total order
    /// delivers one, the same everywhere.
    Equivocate,
    /// Broadcasts an unfundable transfer every wave.
    Overspend,
    /// Never sends anything (crash-faulty from the start). As process 0,
    /// the PBFT baseline's leader, it stalls that engine entirely.
    Silent,
}

/// A deterministic network fault in the scenario's schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Split the system into groups for waves `[from_wave, heal_wave)`;
    /// cross-group messages in that window are held back, not dropped,
    /// and re-injected when the partition heals (or at the end of the
    /// run, for a heal wave past the last) — the paper's reliable
    /// channels delay a message, never lose it. Only
    /// [`Fault::DropLink`] loses messages.
    Partition {
        /// The isolated groups.
        groups: Vec<Vec<ProcessId>>,
        /// First wave with the partition installed.
        from_wave: usize,
        /// Wave at whose start the partition heals.
        heal_wave: usize,
    },
    /// Drop the next `count` messages on the directed link `from → to`.
    DropLink {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Messages to drop.
        count: u64,
    },
    /// Add `extra_micros` one-way latency on the directed link.
    DelayLink {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Extra latency in microseconds.
        extra_micros: u64,
    },
}

/// The network regime of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetProfile {
    /// LAN latency, 10µs/event processing, 5µs/message send — the
    /// evaluation's standard cost model.
    Lan,
    /// WAN latency, same processing costs.
    Wan,
    /// Near-zero latency and costs — logic-only runs.
    Instant,
}

impl NetProfile {
    /// The simulator configuration for this profile and `seed`.
    pub fn config(self, seed: u64) -> NetConfig {
        match self {
            NetProfile::Lan => NetConfig::lan(seed).with_send_cost(VirtualTime::from_micros(5)),
            NetProfile::Wan => NetConfig::wan(seed).with_send_cost(VirtualTime::from_micros(5)),
            NetProfile::Instant => NetConfig::instant(seed),
        }
    }
}

/// A complete scenario description (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (report key).
    pub name: String,
    /// System size.
    pub n: usize,
    /// Closed-loop waves.
    pub waves: usize,
    /// Transfers each correct process submits per wave (the batching
    /// lever: a replica fronting many clients submits many transfers per
    /// round trip).
    pub transfers_per_wave: usize,
    /// Determinism seed (network jitter + workload coins).
    pub seed: u64,
    /// Initial balance of every account.
    pub initial: Amount,
    /// Transfer amount of honest submissions.
    pub amount: Amount,
    /// Traffic pattern.
    pub workload: Workload,
    /// Byzantine process assignments.
    pub adversaries: Vec<(ProcessId, Adversary)>,
    /// Scheduled network faults.
    pub faults: Vec<Fault>,
    /// Network regime.
    pub net: NetProfile,
}

impl Scenario {
    /// A new uniform-workload LAN scenario with 4 waves and seed 42;
    /// customize with the builder methods.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n >= 2, "need at least two processes");
        Scenario {
            name: name.into(),
            n,
            waves: 4,
            transfers_per_wave: 1,
            seed: 42,
            initial: Amount::new(1_000),
            amount: Amount::new(1),
            workload: Workload::Uniform,
            adversaries: Vec::new(),
            faults: Vec::new(),
            net: NetProfile::Lan,
        }
    }

    /// Sets the number of closed-loop waves.
    pub fn waves(mut self, waves: usize) -> Self {
        self.waves = waves;
        self
    }

    /// Sets how many transfers each correct process submits per wave.
    pub fn transfers_per_wave(mut self, transfers: usize) -> Self {
        assert!(transfers > 0, "need at least one transfer per wave");
        self.transfers_per_wave = transfers;
        self
    }

    /// Sets the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initial per-account balance.
    pub fn initial(mut self, initial: Amount) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the honest per-transfer amount.
    pub fn amount(mut self, amount: Amount) -> Self {
        self.amount = amount;
        self
    }

    /// Sets the traffic pattern.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Assigns an adversary role to `process`.
    pub fn adversary(mut self, process: ProcessId, adversary: Adversary) -> Self {
        assert!(process.as_usize() < self.n, "adversary out of range");
        self.adversaries.push((process, adversary));
        self
    }

    /// Adds a network fault to the schedule.
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the network regime.
    pub fn net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// The adversary role of `process`, if any.
    pub fn adversary_of(&self, process: ProcessId) -> Option<Adversary> {
        self.adversaries
            .iter()
            .find(|(p, _)| *p == process)
            .map(|(_, a)| *a)
    }

    /// Whether `process` is correct (not adversarial).
    pub fn is_correct(&self, process: ProcessId) -> bool {
        self.adversary_of(process).is_none()
    }

    /// The correct processes, in id order.
    pub fn correct_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(|p| self.is_correct(*p))
    }

    /// Whether any adversary or fault is configured.
    pub fn is_adversarial(&self) -> bool {
        !self.adversaries.is_empty() || !self.faults.is_empty()
    }
}

/// The measured outcome of running a scenario on one engine.
///
/// `PartialEq` compares every field; the scenario suite's determinism
/// test runs each scenario twice and asserts report equality.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Engine name ([`crate::EngineConfig::name`]).
    pub engine: String,
    /// System size.
    pub n: usize,
    /// Correct processes.
    pub correct: usize,
    /// Honest transfers completed.
    pub completed: usize,
    /// Honest submissions rejected at admission.
    pub rejected: usize,
    /// Transfer applications across all correct replicas.
    pub applied_total: u64,
    /// Total virtual duration (µs).
    pub duration_us: u64,
    /// Completed transfers per virtual second.
    pub throughput_tps: f64,
    /// Median submission-to-completion latency (µs).
    pub latency_p50_us: u64,
    /// 99th-percentile latency (µs).
    pub latency_p99_us: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages dropped (partitions + injected faults).
    pub messages_dropped: u64,
    /// Whether every correct replica converged to the same ledger state.
    pub agreed: bool,
    /// `(source, seq)` pairs where correct replicas applied *different*
    /// transfers — double spends that slipped through (must be 0).
    pub conflicts: usize,
    /// Whether every correct replica conserves the total supply.
    pub supply_ok: bool,
    /// Ledger digest of the lowest-id correct replica.
    pub balance_digest: u64,
}

impl ScenarioReport {
    /// A markdown table row for this report (pairs with
    /// [`ScenarioReport::table_header`]).
    pub fn table_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {:.0} | {} | {} | {} | {} | {} | {} |",
            self.scenario,
            self.engine,
            self.n,
            self.completed,
            self.rejected,
            self.throughput_tps,
            self.latency_p50_us,
            self.latency_p99_us,
            self.messages_sent,
            self.messages_dropped,
            if self.agreed { "yes" } else { "no" },
            self.conflicts,
        )
    }

    /// The markdown header matching [`ScenarioReport::table_row`].
    pub fn table_header() -> String {
        [
            "| scenario | engine | n | completed | rejected | tps | p50 µs | p99 µs | sent | dropped | agreed | conflicts |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        .join("\n")
    }
}

/// Aggregates raw latency samples into `(p50, p99)` — the percentile
/// convention of every [`ScenarioReport`].
pub(crate) fn percentiles(latencies: &mut [u64]) -> (u64, u64) {
    latencies.sort_unstable();
    let pick = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * q).round() as usize]
        }
    };
    (pick(0.5), pick(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_net::LatencyModel;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    #[test]
    fn builder_composes() {
        let scenario = Scenario::new("demo", 8)
            .waves(3)
            .seed(7)
            .initial(Amount::new(50))
            .amount(Amount::new(2))
            .workload(Workload::HotSpot {
                hot: a(0),
                percent_hot: 60,
            })
            .adversary(p(3), Adversary::Equivocate)
            .fault(Fault::DropLink {
                from: p(0),
                to: p(1),
                count: 2,
            })
            .net(NetProfile::Instant);
        assert_eq!(scenario.waves, 3);
        assert_eq!(scenario.adversary_of(p(3)), Some(Adversary::Equivocate));
        assert!(scenario.is_correct(p(0)));
        assert!(!scenario.is_correct(p(3)));
        assert_eq!(scenario.correct_processes().count(), 7);
        assert!(scenario.is_adversarial());
        assert!(!Scenario::new("plain", 4).is_adversarial());
    }

    #[test]
    fn uniform_workload_rotates() {
        let w = Workload::Uniform;
        assert_eq!(w.destination(0, 0, 0, 4), Some(a(1)));
        assert_eq!(w.destination(0, 1, 0, 4), Some(a(2)));
        assert_eq!(w.destination(0, 0, 3, 4), Some(a(0)));
    }

    #[test]
    fn many_to_one_skips_the_sink_itself() {
        let w = Workload::ManyToOne { sink: a(2) };
        assert_eq!(w.destination(0, 0, 0, 4), Some(a(2)));
        assert_eq!(w.destination(0, 0, 2, 4), None);
    }

    #[test]
    fn hotspot_fraction_is_deterministic_and_plausible() {
        let w = Workload::HotSpot {
            hot: a(0),
            percent_hot: 70,
        };
        let mut hot_hits = 0;
        for wave in 0..50 {
            for i in 0..8 {
                let d1 = w.destination(9, wave, i, 8);
                let d2 = w.destination(9, wave, i, 8);
                assert_eq!(d1, d2);
                if d1 == Some(a(0)) {
                    hot_hits += 1;
                }
            }
        }
        // 400 slots at 70%: allow a generous band (includes rotations
        // that happen to hit account 0 anyway).
        assert!((200..=380).contains(&hot_hits), "hot hits: {hot_hits}");
    }

    #[test]
    fn mixed_workload_idles_only_the_sink() {
        let w = Workload::Mixed {
            sink: a(1),
            percent_sink: 50,
        };
        for wave in 0..20 {
            for i in 0..6 {
                let dest = w.destination(3, wave, i, 6);
                if dest.is_none() {
                    assert_eq!(i, 1);
                }
            }
        }
    }

    #[test]
    fn net_profiles_materialize() {
        assert_eq!(NetProfile::Lan.config(1).seed, 1);
        assert_eq!(NetProfile::Wan.config(0).latency, LatencyModel::wan());
        for (profile, latency) in [
            (NetProfile::Lan, LatencyModel::lan()),
            (NetProfile::Wan, LatencyModel::wan()),
        ] {
            let config = profile.config(3);
            assert_eq!(config.latency, latency);
            assert_eq!(config.processing_cost, VirtualTime::from_micros(10));
            assert_eq!(config.send_cost, VirtualTime::from_micros(5));
        }
        assert_eq!(
            NetProfile::Instant.config(0).processing_cost,
            VirtualTime::ZERO
        );
    }

    #[test]
    fn report_table_renders() {
        let report = ScenarioReport {
            scenario: "s".into(),
            engine: "e".into(),
            n: 4,
            correct: 4,
            completed: 16,
            rejected: 0,
            applied_total: 64,
            duration_us: 1000,
            throughput_tps: 16000.0,
            latency_p50_us: 5,
            latency_p99_us: 9,
            messages_sent: 100,
            messages_dropped: 0,
            agreed: true,
            conflicts: 0,
            supply_ok: true,
            balance_digest: 7,
        };
        assert!(report.table_row().starts_with("| s | e | 4 | 16 |"));
        assert!(ScenarioReport::table_header().contains("conflicts"));
    }

    #[test]
    fn percentile_helper() {
        let mut empty = Vec::new();
        assert_eq!(percentiles(&mut empty), (0, 0));
        let mut values = vec![5, 1, 9, 3, 7];
        assert_eq!(percentiles(&mut values), (5, 9));
    }
}
