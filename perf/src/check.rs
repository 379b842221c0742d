//! `perf check`: `BENCHMARK.json` against the tables in spec.rs and the
//! limits of the benchmark contract, in well under a second, so a CI
//! step can call it.

use crate::json::{self, Value};
use crate::spec::{self, MetricDef, Workload};

/// The directory that holds the benchmark and nothing else.
const PATHS: [&str; 1] = ["perf"];

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn keys_are(value: &Value, expected: &[&str]) -> bool {
    value.as_obj().is_some_and(|pairs| {
        pairs.len() == expected.len() && expected.iter().all(|key| value.get(key).is_some())
    })
}

/// Checks one metric list against its table; `bounded` lists carry a
/// `bound` in (0, 0.25].
fn check_metrics(
    listed: &[Value],
    table: &[MetricDef],
    bounded: bool,
    section: &str,
    errors: &mut Vec<String>,
) {
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for entry in listed {
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
        if !keys_are(entry, keys) {
            errors.push(format!("{section}.{name}: keys must be exactly {keys:?}"));
            continue;
        }
        if !name_ok(name) {
            errors.push(format!("{section}: bad metric name {name:?}"));
        }
        let Some(def) = table.iter().find(|def| def.name == name) else {
            errors.push(format!("{section}.{name}: the binary emits no such metric"));
            continue;
        };
        if entry.get("unit").and_then(Value::as_str) != Some(def.unit) {
            errors.push(format!("{section}.{name}: unit should be {:?}", def.unit));
        }
        if entry.get("better").and_then(Value::as_str) != Some(def.better.as_str()) {
            errors.push(format!(
                "{section}.{name}: better should be {:?}",
                def.better.as_str()
            ));
        }
        if bounded {
            match entry.get("bound").and_then(Value::as_f64) {
                Some(bound) if bound > 0.0 && bound <= 0.25 => {}
                _ => errors.push(format!("{section}.{name}: bound must lie in (0, 0.25]")),
            }
        }
    }
    for def in table {
        let times = listed
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(def.name))
            .count();
        if times != 1 {
            errors.push(format!(
                "{section}: {} listed {times} times, not once",
                def.name
            ));
        }
    }
}

pub fn validate(benchmark: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if !keys_are(benchmark, &top) {
        errors.push(format!("top level: keys must be exactly {top:?}"));
    }
    let list = |key: &str| benchmark.get(key).and_then(Value::as_arr).unwrap_or(&[]);

    let paths: Vec<&str> = list("paths").iter().filter_map(Value::as_str).collect();
    if paths != PATHS {
        errors.push(format!("paths must be exactly {PATHS:?}, found {paths:?}"));
    }
    let command: Vec<&str> = list("command").iter().filter_map(Value::as_str).collect();
    if command.is_empty() || command.len() > 32 || command.len() != list("command").len() {
        errors.push("command: 1 to 32 strings".into());
    }
    for part in &command {
        if part.len() > 200 || part.starts_with('/') || part.split('/').any(|seg| seg == "..") {
            errors.push(format!(
                "command: {part:?} is too long or leaves the checkout"
            ));
        }
    }
    if !command.iter().any(|part| part.starts_with("perf/")) {
        errors.push("command names no file under perf/".into());
    }
    match benchmark.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => errors.push("run_seconds: a whole number from 1 to 60".into()),
    }

    let workloads = list("workloads");
    for workload in Workload::ALL {
        let entry = workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(workload.name()));
        match entry {
            None => errors.push(format!("workloads: {} is missing", workload.name())),
            Some(entry) => {
                let why = entry.get("why").and_then(Value::as_str).unwrap_or("");
                if !keys_are(entry, &["name", "why"])
                    || why.is_empty()
                    || why.len() > 200
                    || why.contains('\n')
                {
                    errors.push(format!(
                        "workloads.{}: exactly name and a one-line why of at most 200 characters",
                        workload.name()
                    ));
                }
            }
        }
    }
    if workloads.len() != Workload::ALL.len() {
        errors.push(format!(
            "workloads: {} listed, the binary runs {}",
            workloads.len(),
            Workload::ALL.len()
        ));
    }

    check_metrics(
        list("end_to_end"),
        spec::END_TO_END,
        true,
        "end_to_end",
        &mut errors,
    );
    check_metrics(
        list("per_layer"),
        spec::PER_LAYER,
        false,
        "per_layer",
        &mut errors,
    );
    if list("end_to_end").len() > 16 || list("per_layer").len() > 128 {
        errors.push("at most 16 end-to-end and 128 per-layer metrics".into());
    }
    errors
}

/// What the driver runs before `--workload …`; the build happens on
/// the first call.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
    "run",
];
/// The window every run measures, in seconds.
const RUN_SECONDS: u64 = 20;

pub fn run(argv: &[String]) -> Result<bool, String> {
    // `--print name=bound …` writes the file these tables imply.
    if argv.iter().any(|a| a == "--print") {
        let bounds = argv
            .iter()
            .filter_map(|a| a.split_once('='))
            .map(|(name, bound)| {
                bound
                    .parse::<f64>()
                    .map(|b| (name, b))
                    .map_err(|_| format!("bad bound {bound:?} for {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        print!("{}", render(&COMMAND, RUN_SECONDS, &bounds));
        return Ok(true);
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json is over 64 KiB".into());
    }
    let errors = validate(&json::parse(&text)?);
    for error in &errors {
        eprintln!("perf check: {error}");
    }
    if errors.is_empty() {
        println!(
            "BENCHMARK.json: {} workloads, {} end-to-end and {} per-layer metrics, all as the binary emits them",
            Workload::ALL.len(),
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
    }
    Ok(errors.is_empty())
}

/// `BENCHMARK.json` as these tables imply it, with `bounds` (by metric
/// name) filled in — what `perf check --print` writes, so that the file
/// is generated from the tables instead of typed.
pub fn render(command: &[&str], run_seconds: u64, bounds: &[(&str, f64)]) -> String {
    let metric = |def: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Value::str(def.name)),
            ("unit", Value::str(def.unit)),
            ("better", Value::str(def.better.as_str())),
        ];
        if bounded {
            let bound = bounds
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(0.25, |(_, b)| *b);
            pairs.push(("bound", Value::Num(bound)));
        }
        Value::obj(pairs)
    };
    let sections = [
        (
            "command",
            Value::Arr(command.iter().map(|c| Value::str(*c)).collect()),
        ),
        (
            "paths",
            Value::Arr(PATHS.iter().map(|p| Value::str(*p)).collect()),
        ),
        ("run_seconds", Value::Num(run_seconds as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(spec::END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(spec::PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ];
    // One entry per line: the file is reviewed as a diff.
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        match value {
            Value::Arr(items) if matches!(items.first(), Some(Value::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rendered_file_passes_and_edits_are_caught() {
        let text = render(&COMMAND, 20, &[("setup_s", 0.1)]);
        let good = json::parse(&text).unwrap();
        assert_eq!(validate(&good), Vec::<String>::new());

        for (from, to) in [
            ("\"tcp4_open_lo\"", "\"tcp4_open_low\""),
            (
                "\"commit_p50_ms\", \"unit\": \"ms\"",
                "\"commit_p50_ms\", \"unit\": \"s\"",
            ),
            ("\"bound\": 0.1", "\"bound\": 0.3"),
            ("[\"perf\"]", "[\"perf\", \"crates\"]"),
            ("\"run_seconds\": 20", "\"run_seconds\": 61"),
            ("\"client.samples\"", "\"client.sample_count\""),
            (
                "\"better\": \"higher\", \"bound\"",
                "\"better\": \"lower\", \"bound\"",
            ),
        ] {
            assert!(text.contains(from), "fixture lost {from}");
            let bad = json::parse(&text.replacen(from, to, 1)).unwrap();
            assert!(!validate(&bad).is_empty(), "{from} -> {to} not caught");
        }
    }
}
