//! The benchmark's own tests, on its short-length mode (`--short`: one
//! set-up, two repetitions). Every metric `BENCHMARK.json` names must be
//! emitted, finite and labelled with its unit, and everything simulated —
//! the `sim_*` values and the exact work counts — must repeat bit for bit
//! across two invocations.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build of the simulator makes the set-ups slow.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "fig12_randread",
    "steady_randwrite",
    "multi16_write",
    "multi16_mixed",
];

/// Metrics measured in host time; all others are simulated or counted and
/// must repeat exactly.
const HOST_TIMED: [&str; 11] = [
    "host_ns_per_io",
    "cpu_ns_per_io",
    "setup_s",
    "peak_rss_mb",
    "queue.ns_per_event",
    "par.speedup_2t",
    "par.cpu_per_wall",
    "ctrl.self_ns_per_io",
    "ftl.self_ns_per_io",
    "trace.metrics_overhead_pct",
    "trace.tracer_overhead_pct",
];

/// `(name, unit, value as printed)` of every metric in the result line.
type Result = Vec<(String, String, String)>;

fn run(workload: &str, trace: u32) -> (bool, Result) {
    let out = Command::new(env!("CARGO_BIN_EXE_babol-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--short"])
        .output()
        .expect("running the benchmark");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (last.contains("\"correct\": true"), parse_metrics(last))
}

/// Parses the `"metrics"` object of the result line, whose entries read
/// `"name": {"value": v, "unit": "u"}`.
fn parse_metrics(line: &str) -> Result {
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    body.split("}, ")
        .map(|entry| {
            let name = entry.trim_start().trim_start_matches('"');
            let name = &name[..name.find('"').expect("quoted name")];
            let value = entry.split("\"value\": ").nth(1).expect("value");
            let value = &value[..value.find(',').expect("value ends")];
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            let unit = &unit[..unit.find('"').expect("unit ends")];
            (name.to_string(), unit.to_string(), value.to_string())
        })
        .collect()
}

/// Metric names of one section (`"end_to_end"` or `"per_layer"`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn check_mode(trace: u32, section: &str) {
    let names = declared(section);
    assert!(!names.is_empty(), "{section} declares no metric");
    for w in WORKLOADS {
        let (correct, first) = run(w, trace);
        // multi16_mixed shows defect 3 (NOTES.md): its failures are the
        // finding, not a fault of the benchmark.
        assert!(
            correct || w == "multi16_mixed",
            "{w} --trace {trace}: check failed"
        );
        let got: Vec<&String> = first.iter().map(|(n, _, _)| n).collect();
        assert_eq!(got, names.iter().collect::<Vec<_>>(), "{w}: metric set");
        for (name, unit, value) in &first {
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("{w} {name}: {value}"));
            assert!(v.is_finite(), "{w} {name} = {value}");
            assert!(!unit.is_empty(), "{w} {name} has no unit");
        }
        let (_, second) = run(w, trace);
        for (a, b) in first.iter().zip(&second) {
            if !HOST_TIMED.contains(&a.0.as_str()) {
                assert_eq!(a, b, "{w}: {} did not repeat", a.0);
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_emitted_and_simulated_values_repeat() {
    check_mode(0, "end_to_end");
}

#[test]
fn per_layer_metrics_are_emitted_and_counts_repeat() {
    check_mode(1, "per_layer");
}
