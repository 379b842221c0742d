//! `perf` — the repo's one benchmark. See README.md beside this crate.
//!
//! ```text
//! perf run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf trace [--seed <n>]        every workload traced, full layer table
//! perf noise [--sets 2 --runs 5] run-to-run spread of every metric
//! perf check                     BENCHMARK.json against these tables
//! ```

mod check;
mod client;
mod env;
mod json;
mod layers;
mod live;
mod noise;
mod procfs;
mod sched;
mod schedule;
mod sim;
mod span;
mod spec;
mod stats;

use json::Value;
use spec::{Metrics, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every reason the outputs are not correct; empty means correct.
    pub problems: Vec<String>,
    pub spans: span::Spans,
    /// Context for the report file, not metrics.
    pub notes: Vec<(&'static str, f64)>,
    /// Simulator leg: `(backend, balance digest, messages sent)`.
    pub digests: Vec<(String, u64, u64)>,
    /// Layer table: each row's range between repeats over its median.
    pub layer_spread: Vec<(&'static str, f64)>,
    /// Idle spinners that ran beside a live workload (see sched.rs).
    pub spinners: usize,
    /// Per-second series over the window, for the report file.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Calibration only: replaces a live workload's frozen rate.
    pub rate_override: Option<f64>,
    /// Time each layer-table row measures, and how often it repeats.
    pub layer_budget: layers::Budget,
}

pub(crate) fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

pub(crate) fn parse_flag<T: std::str::FromStr>(
    argv: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(argv, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}")),
    }
}

/// Where reports and span files go: beside the build, so that nothing
/// is written outside the checkout and `cargo clean` removes it.
pub fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perf")))
        .unwrap_or_else(|| PathBuf::from("target/perf"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

pub fn run_workload(args: &RunArgs, started: Instant) -> Outcome {
    // Idle spinners run beside every workload, the single-threaded
    // simulator leg too: with its sibling vCPU asleep that leg ran up to
    // a third faster or slower from one minute to the next.
    let spinners = sched::Spinners::start(env::nproc());
    let mut outcome = match args.workload {
        Workload::Sim16 => sim::run(args.seed, args.window, started),
        workload => live::run(&live::LiveArgs {
            workload,
            rate: args
                .rate_override
                .or(workload.rate())
                .expect("live workloads have a rate"),
            seed: args.seed,
            window: args.window,
            trace: args.trace,
        }),
    };
    outcome.spinners = spinners.count();
    if args.trace {
        layers::table(&args.layer_budget, &mut outcome);
    }
    outcome.metrics.set("peak_rss_mb", procfs::peak_rss_mb());
    outcome
}

fn metrics_json(metrics: &Metrics, table: &'static [spec::MetricDef]) -> Value {
    Value::Obj(
        metrics
            .rows(table)
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]),
                )
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly these four keys.
pub fn result_line(outcome: &Outcome, trace: bool) -> Value {
    let table = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let finite = outcome.metrics.rows(table).all(|(_, v)| v.is_finite());
    Value::obj([
        (
            "correct",
            Value::Bool(outcome.problems.is_empty() && finite),
        ),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics, table)),
    ])
}

/// The full report: both metric tables, the environment, and why the
/// run is incorrect if it is.
fn report(args: &RunArgs, outcome: &Outcome, loadavg_before: f64) -> Value {
    Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("trace", Value::Bool(args.trace)),
        (
            "env",
            env::block(args.seed, args.window.as_secs_f64(), loadavg_before),
        ),
        ("correct", Value::Bool(outcome.problems.is_empty())),
        (
            "problems",
            Value::Arr(outcome.problems.iter().map(Value::str).collect()),
        ),
        ("ops_attempted", Value::Num(outcome.attempted as f64)),
        ("ops_failed", Value::Num(outcome.failed as f64)),
        ("idle_spinners", Value::Num(outcome.spinners as f64)),
        (
            "notes",
            Value::obj(outcome.notes.iter().map(|(k, v)| (*k, Value::Num(*v)))),
        ),
        (
            "layer_table_spread",
            Value::obj(
                outcome
                    .layer_spread
                    .iter()
                    .map(|(k, v)| (*k, Value::Num(*v))),
            ),
        ),
        (
            "digests",
            Value::Arr(
                outcome
                    .digests
                    .iter()
                    .map(|(backend, digest, sent)| {
                        Value::obj([
                            ("backend", Value::str(backend)),
                            ("balance_digest", Value::Str(format!("{digest:016x}"))),
                            ("messages_sent", Value::Num(*sent as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_second",
            Value::obj(
                outcome
                    .series
                    .iter()
                    .map(|(k, v)| (*k, Value::Arr(v.iter().map(|x| Value::Num(*x)).collect()))),
            ),
        ),
        (
            "end_to_end",
            metrics_json(&outcome.metrics, spec::END_TO_END),
        ),
        ("per_layer", metrics_json(&outcome.metrics, spec::PER_LAYER)),
    ])
}

fn cmd_run(argv: &[String], started: Instant) -> Result<bool, String> {
    let name = flag(argv, "--workload").ok_or("--workload <name> is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seconds: u64 = parse_flag(argv, "--seconds", 20)?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    let args = RunArgs {
        workload,
        seed: parse_flag(argv, "--seed", 1)?,
        window: Duration::from_secs(seconds),
        trace: match flag(argv, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        rate_override: match flag(argv, "--rate") {
            None => None,
            Some(text) => Some(
                text.parse::<f64>()
                    .ok()
                    .filter(|r| *r >= 1.0 && *r <= 1e6)
                    .ok_or_else(|| format!("--rate: cannot use {text:?}"))?,
            ),
        },
        layer_budget: if argv.iter().any(|a| a == "--full-layer-table") {
            layers::Budget::FULL
        } else {
            layers::Budget::QUICK
        },
    };
    let loadavg_before = env::loadavg_1m();
    let outcome = run_workload(&args, started);

    let dir = out_dir();
    let tag = format!(
        "{}_seed{}_trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report_path = dir.join(format!("report_{tag}.json"));
    let full = report(&args, &outcome, loadavg_before);
    std::fs::write(&report_path, full.render() + "\n")
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    if args.trace {
        let span_path = dir.join(format!("trace_{}.json", workload.name()));
        std::fs::write(&span_path, outcome.spans.to_json().render() + "\n")
            .map_err(|e| format!("write {}: {e}", span_path.display()))?;
        eprintln!(
            "perf: {} spans -> {}",
            outcome.spans.len(),
            span_path.display()
        );
    }
    eprintln!("perf: report -> {}", report_path.display());
    for problem in &outcome.problems {
        eprintln!("perf: INCORRECT: {problem}");
    }
    println!("{}", result_line(&outcome, args.trace).render());
    Ok(outcome.problems.is_empty())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&argv, started),
        Some("spin") => {
            sched::spin_until_stdin_closes();
            Ok(true)
        }
        Some("trace") => noise::trace_all(&argv),
        Some("noise") => noise::study(&argv),
        Some("check") => check::run(&argv),
        _ => Err("usage: perf <run|trace|noise|check> [flags]; see perf/README.md".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
