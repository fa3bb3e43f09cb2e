//! Benchmark of the maze-routing search kernel: routes
//! table1/table2-class workloads with the dense A* kernel and emits
//! `BENCH_search.json` with ns/connection, expanded states and
//! ns/expansion per circuit.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_search \
//!     [-- --scale f --seed n --reps k --circuits a,b --out path
//!      --baseline BENCH_search.json]
//! ```
//!
//! With `--baseline`, the run compares each circuit's dense
//! ns/connection against the named report and exits non-zero when any
//! circuit is slower by more than [`GATE`]'s 3% — the CI gate that
//! keeps the observer plumbing (a `NoopObserver` monomorphizes to
//! nothing) from taxing the search hot path.
//!
//! The kernel routes the netlists in HPWL order with routes installed
//! as they land ([`time_initial_route`], the initial-routing workload,
//! which dominates router runtime). The committed baseline's `reference_*` and `speedup`
//! fields (24.5x geomean) are historical: the hash-based reference
//! kernel is a unit-test oracle now and is no longer measured.

use bench_suite::harness::{select_suite, time_initial_route};
use bench_suite::ledger::{self, fixed, Bound, Flags, Gate, Verdict};
use sadp_trace::json::Value;

/// Each circuit's dense ns/connection may rise at most 3% over the
/// baseline.
const GATE: Gate = ("dense_ns_per_connection", Bound::Rise(0.03));

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[("--scale", "f"), ("--reps", "k"), ("--circuits", "a,b,...")],
        "BENCH_search.json",
    );
    let scale = flags.get("--scale", 0.1f64);
    let reps = flags.get("--reps", 3usize);
    let circuits = flags.list("--circuits", &["ecc", "efc", "ctl", "alu"]);

    let suite = select_suite(&circuits, scale);

    // One task per circuit; logs and rows merge in suite order.
    let per_spec: Vec<(Value, String)> = sadp_exec::map(&suite, |spec| {
        let dense = (0..reps.max(1))
            .map(|_| time_initial_route(spec, seed))
            .min_by_key(|run| run.total_ns)
            .expect("at least one rep");
        assert_eq!(dense.failed, 0, "{}: dense kernel failed nets", spec.name);
        let ns = dense.ns_per_connection();
        let log = format!(
            "  {}: {} nets, {ns:.0} ns/conn ({} conns), {:.1} ns/expansion ({} expansions)",
            spec.name,
            dense.routed,
            dense.connections,
            dense.ns_per_expansion(),
            dense.expansions,
        );
        let row = Value::obj([
            ("name", Value::from(spec.name)),
            ("nets", Value::from(dense.routed)),
            ("grid", Value::from(vec![spec.width, spec.height])),
            ("dense_ns_per_connection", fixed(ns, 1)),
            ("dense_connections", Value::from(dense.connections)),
            ("expansions", Value::from(dense.expansions)),
            ("ns_per_expansion", fixed(dense.ns_per_expansion(), 1)),
        ]);
        (row, log)
    });
    let mut rows = Vec::new();
    for (row, log) in per_spec {
        eprintln!("{log}");
        rows.push(row);
    }
    let fields = vec![
        ("scale", Value::from(scale)),
        ("reps", Value::from(reps)),
        ("workloads", Value::Arr(rows)),
    ];
    let doc = ledger::write(&out, "search-kernel", seed, fields);
    println!("{} circuit(s) -> {out}", suite.len());

    let mut verdict = Verdict::new(baseline.as_ref());
    for spec in &suite {
        verdict.gate(&doc, Some(spec.name), &GATE);
    }
    verdict.finish();
}
