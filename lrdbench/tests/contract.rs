//! The benchmark's contract with `BENCHMARK.json`: the command prints
//! exactly the metrics listed there, each with its listed unit, on its
//! last stdout line — end-to-end metrics untraced, per-layer metrics
//! traced — and refuses bad arguments.
//!
//! The end-to-end runs use the two workloads that finish in a few
//! seconds (`trace_ingest`, `serve_mix`); the solver workloads share
//! the same result-line code and tables.

use std::path::Path;
use std::process::Command;

use lrd_obs::{parse_json, Json};
use lrdbench::report::{Metric, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn the_metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(
        workloads,
        ["lattice_sweep", "hard_corner", "trace_ingest", "serve_mix"]
    );
}

/// Runs the benchmark and returns its exit status and parsed last
/// stdout line.
fn run(workload: &str, trace: &str) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_lrdbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().unwrap_or_default();
    let json = parse_json(last).unwrap_or_else(|e| {
        panic!(
            "last line {last:?} is not JSON ({e:?}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), json)
}

fn assert_prints_exactly(workload: &str, trace: &str, metrics: &[Metric]) {
    let (ok, json) = run(workload, trace);
    assert!(ok, "{workload} --trace {trace} failed: {json:?}");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    let printed = json
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{workload} --trace {trace}");
    for ((name, value), metric) in printed.iter().zip(metrics) {
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(metric.unit),
            "{name}"
        );
        assert!(
            value
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn trace_ingest_prints_exactly_the_listed_metrics() {
    assert_prints_exactly("trace_ingest", "0", END_TO_END);
    assert_prints_exactly("trace_ingest", "1", PER_LAYER);
}

#[test]
fn serve_mix_prints_exactly_the_listed_metrics() {
    assert_prints_exactly("serve_mix", "0", END_TO_END);
    assert_prints_exactly("serve_mix", "1", PER_LAYER);
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "trace_ingest",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "trace_ingest",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "trace_ingest",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "trace_ingest", "--seed", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lrdbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
