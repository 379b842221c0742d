//! CPU, context switches and memory of this process, read from `/proc`
//! at the edges of the measured window — nothing is sampled inside it.

use std::collections::BTreeMap;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at
/// 100 on every architecture it supports.
const MS_PER_TICK: f64 = 10.0;

/// Which part of the system a thread belongs to, by the name its
/// creator gave it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    NodeLoop,
    NodeDecode,
    TcpReader,
    TcpWriter,
    TcpAcks,
    Gateway,
    Client,
}

impl Role {
    /// The per-layer metric that carries this role's CPU.
    pub fn metric(self) -> &'static str {
        match self {
            Role::NodeLoop => "node.loop_cpu_ms_per_kcommit",
            Role::NodeDecode => "node.decode_cpu_ms_per_kcommit",
            Role::TcpReader => "tcp.reader_cpu_ms_per_kcommit",
            Role::TcpWriter => "tcp.writer_cpu_ms_per_kcommit",
            Role::TcpAcks => "tcp.acks_cpu_ms_per_kcommit",
            Role::Gateway => "gateway.cpu_ms_per_kcommit",
            Role::Client => "client.cpu_ms_per_kcommit",
        }
    }

    pub const ALL: [Role; 7] = [
        Role::NodeLoop,
        Role::NodeDecode,
        Role::TcpReader,
        Role::TcpWriter,
        Role::TcpAcks,
        Role::Gateway,
        Role::Client,
    ];
}

/// The kernel keeps 15 bytes of a thread's name, so `at-node-p0-reader`
/// reads back as `at-node-p0-read`: match on what survives. Threads
/// this returns `None` for (the main thread, accept loops) end up in
/// the residual `other.cpu_ms_per_kcommit`.
pub fn role_of(comm: &str) -> Option<Role> {
    if comm.starts_with("perf-gen") || comm.starts_with("perf-ack") {
        return Some(Role::Client);
    }
    let rest = comm.strip_prefix("at-node-")?;
    if rest.starts_with("decode") {
        Some(Role::NodeDecode)
    } else if rest.starts_with("acks") {
        Some(Role::TcpAcks)
    } else if rest.starts_with("gateway") || rest.starts_with("client") {
        Some(Role::Gateway)
    } else if rest.contains("-loo") {
        Some(Role::NodeLoop)
    } else if rest.contains("-dial") {
        Some(Role::TcpWriter)
    } else if rest.contains("-read") {
        Some(Role::TcpReader)
    } else {
        None
    }
}

/// The fields of a `/proc/<pid>/stat` line this benchmark uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatLine {
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parses one `stat` line. The name sits between the first `(` and the
/// *last* `)` because it may itself contain spaces and parentheses.
pub fn parse_stat(line: &str) -> Option<StatLine> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime_ticks = rest.nth(11)?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(StatLine {
        comm: line[open + 1..close].to_string(),
        utime_ticks,
        stime_ticks,
    })
}

/// A `Key:   123 kB`-style field of `/proc/<pid>/status`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Whole-process CPU so far, `(user ms, system ms)`.
pub fn process_cpu_ms() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or((0.0, 0.0), |s| {
            (
                s.utime_ticks as f64 * MS_PER_TICK,
                s.stime_ticks as f64 * MS_PER_TICK,
            )
        })
}

/// Time the hypervisor kept runnable virtual CPUs waiting so far, ms
/// summed over all CPUs (the `steal` column of `/proc/stat`).
pub fn system_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * MS_PER_TICK)
}

/// The eighth number of the aggregate `cpu` line.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// One reading of every live thread.
#[derive(Clone, Debug, Default)]
pub struct ThreadSample {
    /// tid → (name, CPU ticks, context switches).
    threads: BTreeMap<u64, (String, u64, u64)>,
}

impl ThreadSample {
    pub fn take() -> ThreadSample {
        let mut sample = ThreadSample::default();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return sample;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
                continue;
            };
            // A thread may exit between the listing and the read.
            let Some(stat) = std::fs::read_to_string(path.join("stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
            else {
                continue;
            };
            let switches = std::fs::read_to_string(path.join("status")).map_or(0, |s| {
                status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                    + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
            });
            sample.insert(tid, &stat, switches);
        }
        sample
    }

    fn insert(&mut self, tid: u64, stat: &StatLine, switches: u64) {
        self.threads.insert(
            tid,
            (
                stat.comm.clone(),
                stat.utime_ticks + stat.stime_ticks,
                switches,
            ),
        );
    }
}

/// CPU spent between two readings, split by role.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoleCpu {
    pub by_role: BTreeMap<Role, f64>,
    /// What the named roles do not explain: unnamed threads, threads
    /// that exited in between, and tick rounding. Defined as the
    /// remainder, so roles plus `other_ms` is the process total exactly.
    pub other_ms: f64,
    pub context_switches: u64,
}

#[cfg(test)]
impl RoleCpu {
    pub fn total_ms(&self) -> f64 {
        self.by_role.values().sum::<f64>() + self.other_ms
    }
}

/// Attributes `process_ms` (the process-wide CPU between the two
/// readings) to roles. A thread that first appears in `end` counts in
/// full; one that vanished is left to the remainder.
pub fn cpu_by_role(start: &ThreadSample, end: &ThreadSample, process_ms: f64) -> RoleCpu {
    let mut out = RoleCpu::default();
    for (tid, (comm, ticks, switches)) in &end.threads {
        let (ticks_before, switches_before) = match start.threads.get(tid) {
            Some((_, t, s)) => (*t, *s),
            None => (0, 0),
        };
        out.context_switches += switches.saturating_sub(switches_before);
        if let Some(role) = role_of(comm) {
            *out.by_role.entry(role).or_default() +=
                ticks.saturating_sub(ticks_before) as f64 * MS_PER_TICK;
        }
    }
    out.other_ms = process_ms - out.by_role.values().sum::<f64>();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (at-node-p0-loop) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                        731 269 0 0 20 0 41 0 5000 100000 900 18446744073709551615 0 0 0";

    #[test]
    fn stat_line_yields_name_and_cpu() {
        let stat = parse_stat(STAT).unwrap();
        assert_eq!(stat.comm, "at-node-p0-loop");
        assert_eq!((stat.utime_ticks, stat.stime_ticks), (731, 269));
    }

    #[test]
    fn names_with_spaces_and_parentheses_do_not_shift_the_fields() {
        let line = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 1 1 1";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.comm, "a) b (c)");
        assert_eq!((stat.utime_ticks, stat.stime_ticks), (11, 22));
        assert!(parse_stat("no parens here").is_none());
        assert!(parse_stat("1 (short) S 1 2").is_none());
    }

    #[test]
    fn roles_survive_the_fifteen_byte_truncation() {
        for (full, role) in [
            ("at-node-p0-loop", Some(Role::NodeLoop)),
            ("at-node-p12-loop", Some(Role::NodeLoop)),
            ("at-node-decode-1", Some(Role::NodeDecode)),
            ("at-node-p3-reader", Some(Role::TcpReader)),
            ("at-node-p0-dial-2", Some(Role::TcpWriter)),
            ("at-node-acks", Some(Role::TcpAcks)),
            ("at-node-gateway", Some(Role::Gateway)),
            ("at-node-client-writer", Some(Role::Gateway)),
            ("at-node-client-reader", Some(Role::Gateway)),
            ("at-node-p0-accept", None),
            ("perf-gen-0", Some(Role::Client)),
            ("perf-ack-1", Some(Role::Client)),
            ("perf", None),
        ] {
            let comm: String = full.chars().take(15).collect();
            assert_eq!(role_of(&comm), role, "{full} -> {comm}");
        }
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_aggregate_line() {
        let stat = "cpu  176490 17543 85684 365280 4065 0 16825 22817 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n";
        assert_eq!(parse_steal_ticks(stat), Some(22_817));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tperf\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(51_234));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    fn sample(threads: &[(u64, &str, u64, u64)]) -> ThreadSample {
        let mut s = ThreadSample::default();
        for &(tid, comm, ticks, switches) in threads {
            let stat = StatLine {
                comm: comm.into(),
                utime_ticks: ticks,
                stime_ticks: 0,
            };
            s.insert(tid, &stat, switches);
        }
        s
    }

    #[test]
    fn role_cpu_sums_to_process_cpu() {
        let start = sample(&[
            (1, "perf", 10, 5),
            (2, "at-node-p0-loop", 100, 50),
            (3, "at-node-p0-read", 40, 10),
            (4, "at-node-p0-acce", 1, 1), // exits before the end
        ]);
        let end = sample(&[
            (1, "perf", 12, 6),
            (2, "at-node-p0-loop", 160, 90),
            (3, "at-node-p0-read", 70, 30),
            (5, "perf-gen-0", 8, 4), // started inside the interval
        ]);
        // Named roles used 60 + 30 + 8 ticks; the process used 103.
        let cpu = cpu_by_role(&start, &end, 1_030.0);
        assert_eq!(cpu.by_role[&Role::NodeLoop], 600.0);
        assert_eq!(cpu.by_role[&Role::TcpReader], 300.0);
        assert_eq!(cpu.by_role[&Role::Client], 80.0);
        assert_eq!(cpu.other_ms, 50.0);
        assert_eq!(cpu.total_ms(), 1_030.0);
        assert_eq!(cpu.context_switches, 1 + 40 + 20 + 4);
    }
}
