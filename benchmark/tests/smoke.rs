//! Smoke test of the benchmark at `--quick` sizes: every workload runs
//! untraced twice and traced once. The printed metric names must be
//! exactly the ones `BENCHMARK.json` declares, and the quality numbers
//! must not depend on the invocation or on tracing.

use std::path::{Path, PathBuf};
use std::process::Command;

use sadp_service::wire::{self, Value};

const WORKLOADS: [&str; 3] = ["flow-paper", "top-route", "service-mix"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = wire::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(metrics)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one quick invocation; returns the verdict line and the result
/// file it wrote.
fn run(workload: &str, trace: bool, out: &Path) -> (Value, Value) {
    let _ = std::fs::remove_dir_all(out);
    let output = Command::new(env!("CARGO_BIN_EXE_sadp-bench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .arg("--out")
        .arg(out)
        .output()
        .expect("run sadp-bench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let verdict = wire::parse(stdout.lines().last().expect("a verdict line")).expect("JSON");
    let file = std::fs::read_dir(out)
        .expect("result directory")
        .next()
        .expect("one result file")
        .expect("dir entry")
        .path();
    let result =
        wire::parse(&std::fs::read_to_string(file).expect("result file")).expect("result JSON");
    (verdict, result)
}

/// The quality totals and the defect count of a result file.
fn quality(result: &Value) -> Vec<u64> {
    let q = result.get("quality").expect("quality");
    ["wirelength", "vias", "dead_vias"]
        .iter()
        .map(|k| q.get(k).and_then(Value::as_u64).expect(k))
        .chain([result
            .get("defects")
            .and_then(Value::as_u64)
            .expect("defects")])
        .collect()
}

fn check_metrics(workload: &str, verdict: &Value, declared: &[(String, String)]) {
    assert_eq!(
        verdict.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {verdict:?}"
    );
    assert!(
        verdict
            .get("attempted")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let Some(Value::Obj(metrics)) = verdict.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{workload}: bad metric name {name:?}"
            );
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared, "{workload}: printed vs declared metrics");
}

#[test]
fn every_workload_prints_the_declared_metrics_and_stable_quality() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in WORKLOADS {
        let dir = |k: &str| tmp.join(format!("{workload}-{k}"));
        let (first, first_result) = run(workload, false, &dir("a"));
        let (_, second_result) = run(workload, false, &dir("b"));
        let (traced, traced_result) = run(workload, true, &dir("t"));
        check_metrics(workload, &first, &end_to_end);
        check_metrics(workload, &traced, &per_layer);
        let q = quality(&first_result);
        assert!(q[0] > 0 && q[1] > 0, "{workload}: empty solution {q:?}");
        assert_eq!(q, quality(&second_result), "{workload}: two invocations");
        assert_eq!(q, quality(&traced_result), "{workload}: traced vs untraced");
    }
}
