//! The benchmark's self-test: short runs of the real binary, checked
//! against the metric list in the repository's `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path layerbench/Cargo.toml`.

use std::process::Command;

/// Every entry of the `BENCHMARK.json` array `key`, as raw text.
fn entries(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("the key is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// `(name, unit)` of every metric of the `BENCHMARK.json` array `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    entries(key).iter().map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

/// The string value of `"key": "value"` in `entry`.
fn field(entry: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let at = entry.find(&tag).unwrap_or_else(|| panic!("no {key} in {entry}")) + tag.len();
    entry[at..].split('"').next().expect("a closing quote").to_string()
}

/// Runs the benchmark; returns its exit status and the last stdout line.
fn run(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(args.split_whitespace())
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout.lines().last().unwrap_or_default().to_string())
}

fn valid_name(n: &str) -> bool {
    !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every metric the result line carries, as `(name, unit)`.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("a metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.trim_start_matches('"').split('"').next().expect("a name").to_string();
            (name, field(m, "unit"))
        })
        .collect()
}

fn check_metrics(line: &str, key: &str) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    let got = printed(line);
    for (name, unit) in &got {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    for want in declared(key) {
        assert!(got.contains(&want), "{} ({}) missing from {line}", want.0, want.1);
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in entries("workloads").iter().map(|e| field(e, "name")) {
        let (ok, line) = run(&format!("--workload {w} --seed 5 --seconds 0.01 --trace 0"));
        assert!(ok, "{w} failed: {line}");
        check_metrics(&line, "end_to_end");
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let (ok, line) = run("--workload device_ops --seed 5 --seconds 0.01 --trace 1");
    assert!(ok, "{line}");
    check_metrics(&line, "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let (ok, line) = run("--workload nope --seed 1 --seconds 1 --trace 0");
    assert!(!ok);
    assert!(line.is_empty(), "{line}");
}
