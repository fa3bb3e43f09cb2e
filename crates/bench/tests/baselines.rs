//! Every committed `BENCH_*.json`, read through the ledger's baseline
//! reader, holds each row and key that CI's gate invocation compares,
//! so no CI gate can pass by comparing nothing.

use bench_suite::ledger::Baseline;
use sadp_trace::json::Value;

fn read(file: &str) -> Baseline {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    Baseline::read(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// Asserts every `metric` of every row (`None`: top level) is a number.
fn assert_holds(file: &str, rows: &[Option<&str>], metrics: &[&str]) {
    let base = read(file);
    for row in rows {
        for metric in metrics {
            assert!(
                base.metric(*row, metric).is_some(),
                "{file}: {} lacks {metric}",
                row.unwrap_or("top level")
            );
        }
    }
}

#[test]
fn search_and_costs_hold_the_four_gated_circuits() {
    let circuits = ["ecc", "efc", "ctl", "alu"].map(Some);
    assert_holds("BENCH_search.json", &circuits, &["dense_ns_per_connection"]);
    assert_holds("BENCH_costs.json", &circuits, &["speedup"]);
}

#[test]
fn eco_holds_the_small_rows() {
    let rows: Vec<String> = ["ecc-0.25", "ecc-1.0"]
        .iter()
        .flat_map(|rung| [1, 8, 64].map(|k| format!("{rung}/d{k}")))
        .collect();
    let rows: Vec<Option<&str>> = rows.iter().map(|r| Some(r.as_str())).collect();
    assert_holds("BENCH_eco.json", &rows, &["speedup"]);
}

#[test]
fn scale_holds_the_medium_rungs() {
    assert_holds(
        "BENCH_scale.json",
        &["ecc-0.05", "ecc-0.25", "ecc-1.0", "div-1.0"].map(Some),
        &["ns_per_connection", "peak_rss_kb"],
    );
}

#[test]
fn recovery_and_service_hold_their_gated_keys() {
    assert_holds(
        "BENCH_recovery.json",
        &[None],
        &["durable_jobs_per_sec", "recover_us_per_record"],
    );
    assert_holds("BENCH_service.json", &[None], &["jobs_per_sec"]);
}

#[test]
fn matrix_holds_sixteen_fingerprints() {
    let base = read("BENCH_matrix.json");
    let Some(Value::Arr(fingerprints)) = base.doc().get("fingerprints") else {
        panic!("BENCH_matrix.json has no fingerprints array");
    };
    assert_eq!(fingerprints.len(), 16);
    assert!(fingerprints.iter().all(|f| f.as_str().is_some()));
}
