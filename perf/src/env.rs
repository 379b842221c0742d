//! The environment a report was taken in. A number without its machine
//! is not comparable to anything.

use crate::json::Value;
use crate::spec;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, or 0 where `/proc` has none.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A run that starts on a busy machine is marked, so a polluted pass is
/// visible in the noise study instead of silently widening its spread.
pub fn is_noisy(loadavg_before: f64) -> bool {
    loadavg_before > 0.5 * nproc() as f64
}

pub fn block(seed: u64, window_s: f64, loadavg_before: f64) -> Value {
    let unknown = || "unknown".to_string();
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("generator_threads", Value::Num(spec::GENERATORS as f64)),
        ("generator_connections", Value::Num(spec::GENERATORS as f64)),
        ("loadavg_1m_before", Value::Num(loadavg_before)),
        ("loadavg_1m_after", Value::Num(loadavg_1m())),
        ("noisy", Value::Bool(is_noisy(loadavg_before))),
        (
            "kernel",
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        // Only when run from the root of a git checkout: the driver's
        // copy is not one, and git must not wander into a parent's.
        (
            "git_commit",
            Value::Str(
                std::path::Path::new(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(unknown),
            ),
        ),
        ("window_s", Value::Num(window_s)),
        ("warmup_s", Value::Num(spec::WARMUP.as_secs_f64())),
        ("seed", Value::Num(seed as f64)),
    ])
}
