//! Runs the benchmark binary: the seed fixes the simulated cycles on
//! named-engine workloads, every declared metric is printed, and bad
//! arguments fail without a result.

use std::path::Path;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// The last stdout line of a successful run.
fn result(workload: &str, seed: u64, seconds: &str, trace: &str) -> String {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        seconds,
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    last
}

fn value(line: &str, metric: &str) -> f64 {
    let key = format!("\"{metric}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{metric} missing from {line}"))
        + key.len();
    line[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{metric} is not a number in {line}"))
}

/// Metric names of one list (`end_to_end` or `per_layer`) in BENCHMARK.json.
fn declared(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("the list is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a quoted name")].to_string())
        .collect()
}

#[test]
fn sim_cycles_repeat_exactly_for_a_seed_and_follow_it() {
    for workload in ["engine_montecarlo", "served_text_add"] {
        let a = value(&result(workload, 11, "1", "0"), "sim_cycles_per_add");
        let b = value(&result(workload, 11, "1", "0"), "sim_cycles_per_add");
        let c = value(&result(workload, 12, "1", "0"), "sim_cycles_per_add");
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{workload}: {a} then {b} on one seed"
        );
        assert_ne!(a, c, "{workload}: seeds 11 and 12 both read {a}");
        assert!(a > 1.0 && a < 2.0, "{workload}: {a}");
    }
}

#[test]
fn every_declared_metric_is_printed_as_a_number() {
    let e2e = result("served_light_mix", 3, "1", "0");
    let names = declared("end_to_end");
    assert!(names.iter().any(|n| n == "setup_s"));
    for name in &names {
        assert!(value(&e2e, name) > 0.0, "{name} is not positive in {e2e}");
    }
    let traced = result("served_binary_sum", 3, "2", "1");
    let names = declared("per_layer");
    assert!(names.len() > 30);
    for name in &names {
        assert!(value(&traced, name).is_finite(), "{name} in {traced}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "served_text_add",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "served_text_add",
            "--seed",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
