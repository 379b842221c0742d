//! `perf noise`: how far two sets of runs of the *same* binary differ —
//! the yardstick every bound in `BENCHMARK.json` is cut from — and
//! `perf trace`: every workload once with `--trace 1` and the full
//! layer table.

use crate::json::{self, Value};
use crate::spec::{self, Workload};
use crate::stats;
use crate::{flag, parse_flag};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// The contract's cap on any bound; also the bound assumed for a metric
/// `BENCHMARK.json` does not list.
const CEILING: f64 = 0.25;
/// A bound is never cut finer than this.
const FLOOR: f64 = 0.03;

/// Runs one workload in a fresh child process and returns its result
/// line, parsed.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    full: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(full.then_some("--full-layer-table"))
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no result line", workload.name()))?;
    let value = json::parse(line).map_err(|e| format!("{}: {e}", workload.name()))?;
    if !output.status.success() || value.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed}: run incorrect or failed ({})",
            workload.name(),
            output.status
        ));
    }
    if value.get("failed").and_then(Value::as_f64) != Some(0.0) {
        return Err(format!(
            "{} seed {seed}: operations failed",
            workload.name()
        ));
    }
    Ok(value)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The bound a cell asks for: three times its spread (so the spread stays
/// under a third of the bound), one and a half times the gap between
/// the two sets' medians, never under [`FLOOR`]; rounded up to 0.01.
pub fn bound_for(spread: f64, gap: f64) -> f64 {
    let raw = FLOOR.max(3.0 * spread).max(1.5 * gap);
    (raw * 100.0 - 1e-9).ceil() / 100.0
}

/// The bounds `BENCHMARK.json` (in the working directory) gives the
/// end-to-end metrics; empty when the file is absent.
fn declared_bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(benchmark) = json::parse(&text) else {
        return Vec::new();
    };
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|entry| {
            Some((
                entry.get("name")?.as_str()?.to_string(),
                entry.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn study(argv: &[String]) -> Result<bool, String> {
    let sets: usize = parse_flag(argv, "--sets", 2)?;
    let runs: usize = parse_flag(argv, "--runs", 5)?;
    let seconds: u64 = parse_flag(argv, "--seconds", 20)?;
    let first_seed: u64 = parse_flag(argv, "--seed", 1)?;
    if sets < 2 || runs < 2 {
        return Err("--sets and --runs must both be at least 2".into());
    }
    let only = flag(argv, "--workload")
        .map(|name| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}")))
        .transpose()?;
    let workloads: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();

    // values[workload][metric][set] = one value per run. Passes
    // alternate between the sets, so slow drift of the machine lands on
    // both alike; every pass has its own seed.
    let mut values: BTreeMap<(usize, &str), Vec<Vec<f64>>> = BTreeMap::new();
    for pass in 0..sets * runs {
        for (w, workload) in workloads.iter().enumerate() {
            let seed = first_seed + pass as u64;
            eprintln!(
                "perf noise: pass {pass} set {} {}",
                pass % sets,
                workload.name()
            );
            let result = child_run(*workload, seed, seconds, false, false)?;
            for def in spec::END_TO_END {
                let value = metric(&result, def.name)
                    .ok_or_else(|| format!("{}: no {}", workload.name(), def.name))?;
                values
                    .entry((w, def.name))
                    .or_insert_with(|| vec![Vec::new(); sets])[pass % sets]
                    .push(value);
            }
        }
    }

    let declared = declared_bounds();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "| workload | metric | median | q1 | q3 | IQR/median | set gap | rule asks | bound |\n|---|---|---|---|---|---|---|---|---|"
    );
    let mut within = true;
    for (w, workload) in workloads.iter().enumerate() {
        for def in spec::END_TO_END {
            let by_set = &values[&(w, def.name)];
            let mut all: Vec<f64> = by_set.iter().flatten().copied().collect();
            stats::sort(&mut all);
            let median = stats::median(&all);
            let (q1, q3) = stats::quartiles(&all);
            let spread = stats::spread(&all);
            let set_medians: Vec<f64> = by_set.iter().map(|s| stats::median_of(s)).collect();
            let gap = set_medians
                .iter()
                .flat_map(|a| set_medians.iter().map(move |b| (a - b).abs()))
                .fold(0.0, f64::max)
                / median.abs().max(f64::MIN_POSITIVE);
            let bound = declared
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(CEILING, |(_, bound)| *bound);
            // What the driver tests: the spread within the bound
            // (`setup_s` excused) and the sets' medians no further
            // apart than the bound.
            let broken = gap > bound || (def.name != "setup_s" && spread > bound);
            within &= !broken;
            let _ = writeln!(
                report,
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.3} | {:.3} | {:.2} | {:.2}{} |",
                workload.name(),
                def.name,
                median,
                q1,
                q3,
                spread,
                gap,
                bound_for(spread, gap),
                bound,
                if broken { " **broken**" } else { "" }
            );
        }
    }
    print!("{report}");
    println!(
        "\n{} passes as {sets} interleaved sets of {runs}, {seconds} s windows, seeds {first_seed}..{}; {}",
        sets * runs,
        first_seed + (sets * runs) as u64 - 1,
        if within {
            "every cell within its bound"
        } else {
            "SOME CELLS BREAK THEIR BOUND"
        }
    );
    Ok(within)
}

/// `perf trace`: each workload traced once, full layer-table budget.
pub fn trace_all(argv: &[String]) -> Result<bool, String> {
    let seed: u64 = parse_flag(argv, "--seed", 1)?;
    let seconds: u64 = parse_flag(argv, "--seconds", 20)?;
    for workload in Workload::ALL {
        eprintln!("perf trace: {}", workload.name());
        let result = child_run(workload, seed, seconds, true, true)?;
        println!("## {}\n", workload.name());
        println!("| per-layer metric | value | unit |\n|---|---|---|");
        for def in spec::PER_LAYER {
            let value = metric(&result, def.name)
                .ok_or_else(|| format!("{}: no {}", workload.name(), def.name))?;
            if value != 0.0 {
                println!("| {} | {:.4} | {} |", def.name, value, def.unit);
            }
        }
        println!();
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_rule() {
        assert_eq!(bound_for(0.0, 0.0), 0.03);
        assert_eq!(bound_for(0.02, 0.0), 0.06);
        assert_eq!(bound_for(0.021, 0.0), 0.07);
        assert_eq!(bound_for(0.01, 0.1), 0.15);
        assert_eq!(bound_for(0.1, 0.0), 0.3);
    }

    #[test]
    fn metric_reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 3.25, "unit": "s"}}}"#;
        let value = json::parse(line).unwrap();
        assert_eq!(metric(&value, "setup_s"), Some(3.25));
        assert_eq!(metric(&value, "nope"), None);
    }
}
