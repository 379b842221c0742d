//! What the benchmark runs and what it reports: the workloads, the
//! frozen rates, and every metric by name. `perf check` holds
//! `BENCHMARK.json` to these tables.

use std::collections::BTreeMap;
use std::time::Duration;

pub const NODES: usize = 4;
/// Ledger size: large enough that resident memory is dominated by
/// state, not by thread stacks and socket buffers.
pub const ACCOUNTS: u32 = 100_000;
/// Deep pockets: no generated transfer can ever be refused.
pub const INITIAL_BALANCE: u64 = 1_000_000_000;
pub const BATCH_SIZE: usize = 128;
pub const BATCH_WINDOW_US: u64 = 1_000;
pub const SHARDS: usize = 4;
pub const AUTH_SEED: u64 = 7;

/// Load at the workload's own rate before the measured window opens.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Load keeps arriving this long past the window, so that its last
/// second is measured under the same conditions as the others and the
/// closing `/proc` readings still find every thread alive.
pub const COOLDOWN: Duration = Duration::from_millis(500);
/// A commit slower than this misses the latency limit
/// (`client.over_limit_share`); it is not a failure.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Generator threads, each with one client connection, to nodes 0 and 1.
pub const GENERATORS: usize = 2;

/// Offered rates, transfers per second over both generators. `LO` is
/// the latency floor. `HI` arrives in bursts of one full batch and is
/// the largest candidate rate at which the builder's 2-core box stayed
/// under 80 % CPU with generator lateness p99 under 1 ms *and* whose
/// latency repeated from run to run; `ED25519` is the largest rate that
/// kept under 2 % of commits over the latency limit (calibration tables
/// in NOISE.md). They are constants so that a run on a faster machine
/// measures the same work.
pub const RATE_LO: f64 = 1_000.0;
pub const RATE_HI: f64 = 16_000.0;
pub const RATE_ED25519: f64 = 100.0;

pub const SIM_NODES: usize = 16;
/// Transfers each simulated process submits per wave, and waves per
/// pass; three backends run one pass each, back to back.
pub const SIM_TRANSFERS_PER_WAVE: usize = 64;
pub const SIM_WAVES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TcpOpenLo,
    TcpOpenHi,
    TcpEd25519,
    Sim16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TcpOpenLo,
        Workload::TcpOpenHi,
        Workload::TcpEd25519,
        Workload::Sim16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpOpenLo => "tcp4_open_lo",
            Workload::TcpOpenHi => "tcp4_open_hi",
            Workload::TcpEd25519 => "tcp4_ed25519",
            Workload::Sim16 => "sim16_backends",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`; the README has the paragraph.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TcpOpenLo => {
                "latency floor: 1000/s open loop on a 4-node TCP cluster, batches hold ~1 transfer, so batch window, wake-ups and hops are the latency and idle polling is the CPU"
            }
            Workload::TcpOpenHi => {
                "same cluster, frozen 16000/s arriving as bursts of 128: batches fill by size not by timer, so codec, apply and syscalls per batch dominate; CPU per commit is the capacity metric"
            }
            Workload::TcpEd25519 => {
                "same cluster with real Ed25519 at a frozen 100/s: sign per echo and batch-verify per certificate do most of the work, none of it in the two NoAuth workloads"
            }
            Workload::Sim16 => {
                "no threads or sockets: 16 simulated processes, three broadcast backends back to back on one thread; counts repeat exactly per seed and at-node is bypassed"
            }
        }
    }

    /// Transfers per arrival instant: `None` for Poisson single
    /// arrivals, `Some(n)` for bursts of `n` (see `schedule::bursts`).
    pub fn burst(self) -> Option<usize> {
        match self {
            Workload::TcpOpenHi => Some(BATCH_SIZE),
            _ => None,
        }
    }

    /// Offered rate of a live workload (`None` for the simulator leg).
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::TcpOpenLo => Some(RATE_LO),
            Workload::TcpOpenHi => Some(RATE_HI),
            Workload::TcpEd25519 => Some(RATE_ED25519),
            Workload::Sim16 => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; the same set on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("commit_p50_ms", "ms"),
    higher("committed_tps", "1/s"),
    lower("cpu_ms_per_kcommit", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, printed by a `--trace 1` run. A metric that does not
/// apply to a workload (socket metrics on the simulator leg, simulator
/// counts on the live ones) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Thread-role CPU over the window, from /proc/self/task.
    lower("node.loop_cpu_ms_per_kcommit", "ms"),
    lower("node.decode_cpu_ms_per_kcommit", "ms"),
    lower("tcp.reader_cpu_ms_per_kcommit", "ms"),
    lower("tcp.writer_cpu_ms_per_kcommit", "ms"),
    lower("tcp.acks_cpu_ms_per_kcommit", "ms"),
    lower("gateway.cpu_ms_per_kcommit", "ms"),
    lower("client.cpu_ms_per_kcommit", "ms"),
    lower("other.cpu_ms_per_kcommit", "ms"),
    lower("proc.sys_share", "%"),
    lower("proc.ctx_switches_per_kcommit", "count"),
    // at-obs stage means, scraped over Client::stats() after the window.
    lower("obs.stage_gateway_mean_us", "us"),
    lower("obs.stage_batch_mean_us", "us"),
    lower("obs.stage_broadcast_mean_us", "us"),
    lower("obs.stage_wire_encode_mean_us", "us"),
    lower("obs.stage_wire_decode_mean_us", "us"),
    lower("obs.stage_sign_mean_us", "us"),
    lower("obs.stage_verify_mean_us", "us"),
    lower("obs.stage_apply_mean_us", "us"),
    lower("obs.stage_ack_mean_us", "us"),
    lower("obs.stage_e2e_mean_us", "us"),
    lower("obs.residual_us", "us"),
    // Work counts from the same scrape.
    higher("engine.batch_fill_mean", "count"),
    lower("net.peer_msgs_per_kcommit", "count"),
    lower("net.bytes_per_commit", "B"),
    lower("tcp.frames_per_kcommit", "count"),
    lower("tcp.reconnects", "count"),
    lower("crypto.signs_per_kcommit", "count"),
    lower("crypto.verifies_per_kcommit", "count"),
    higher("engine.pruned_total", "count"),
    lower("broadcast.instances_end", "count"),
    lower("engine.pending_end", "count"),
    // The generator's own view.
    lower("client.gen_late_p99_ms", "ms"),
    lower("client.commit_p90_ms", "ms"),
    lower("client.commit_p99_ms", "ms"),
    lower("client.commit_p999_ms", "ms"),
    lower("client.commit_max_ms", "ms"),
    lower("client.over_limit_share", "%"),
    higher("client.samples", "count"),
    // Parts of setup_s.
    lower("setup.boot_ms", "ms"),
    lower("setup.genesis_ms", "ms"),
    lower("setup.key_warm_ms", "ms"),
    lower("setup.connect_ms", "ms"),
    // Simulator leg: exact per seed.
    lower("sim.msgs_per_transfer.bracha", "count"),
    lower("sim.msgs_per_transfer.echo", "count"),
    lower("sim.msgs_per_transfer.acctorder", "count"),
    lower("sim.virtual_p50_ms.bracha", "ms"),
    lower("sim.virtual_p50_ms.echo", "ms"),
    lower("sim.virtual_p50_ms.acctorder", "ms"),
    lower("sim.wall_ms.bracha", "ms"),
    lower("sim.wall_ms.echo", "ms"),
    lower("sim.wall_ms.acctorder", "ms"),
    // Layer table: each public call timed on its own.
    lower("crypto.sign_us", "us"),
    lower("crypto.verify_us", "us"),
    lower("crypto.verify_batch3_us", "us"),
    lower("crypto.key_warm_ms", "ms"),
    lower("wire.encode_batch128_us", "us"),
    lower("wire.decode_batch128_us", "us"),
    lower("wire.encode_batch1_us", "us"),
    lower("wire.decode_batch1_us", "us"),
    lower("broadcast.echo_instance_us", "us"),
    lower("broadcast.bracha_instance_us", "us"),
    lower("broadcast.acctorder_instance_us", "us"),
    lower("broadcast.echo_msgs_per_instance", "count"),
    lower("broadcast.bracha_msgs_per_instance", "count"),
    lower("broadcast.acctorder_msgs_per_instance", "count"),
    lower("engine.submit_us", "us"),
    lower("engine.apply_us_per_transfer", "us"),
    lower("engine.ledger_apply_ns", "ns"),
    lower("engine.prune_us", "us"),
    lower("engine.snapshot_ms", "ms"),
    lower("net.mesh_rtt_us", "us"),
    lower("tcp.rtt_us", "us"),
    higher("tcp.frames_per_s", "1/s"),
    lower("node.mesh4_commit_us", "us"),
    // at-obs' own trace ring on a second, traced cluster.
    lower("trace.ingress_to_send_us_p50", "us"),
    lower("trace.send_to_deliver_us_p50", "us"),
    lower("trace.deliver_to_ack_us_p50", "us"),
    lower("trace.hops_mean", "count"),
    lower("trace.overhead_pct", "%"),
    // Closed-loop saturation: a diagnostic, never gated.
    higher("client.sat_tps", "1/s"),
    lower("client.sat_p50_ms", "ms"),
];

/// Metric values of one run, keyed by the names above.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name neither table defines — a typo in the
    /// benchmark, caught by the first run.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not defined in spec.rs"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `(definition, value)` for every metric of `table`, in table
    /// order; an unset metric reads 0.
    pub fn rows<'a>(
        &'a self,
        table: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64)> + 'a {
        table
            .iter()
            .map(|def| (def, self.0.get(def.name).copied().unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(def.name, 64), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}: unit {:?}",
                def.name,
                def.unit
            );
        }
        for workload in Workload::ALL {
            assert!(well_formed(workload.name(), 64));
            assert!(seen.insert(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.5);
        let rows: Vec<_> = metrics.rows(END_TO_END).collect();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0].1, 1.5);
        assert_eq!(rows[1].1, 0.0);
        assert!(std::panic::catch_unwind(|| Metrics::default().set("nope", 1.0)).is_err());
    }
}
