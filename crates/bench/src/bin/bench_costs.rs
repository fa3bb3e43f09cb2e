//! Before/after benchmark of the occupancy-index hot path: routes
//! table1/table2-class workloads once, then drives the
//! cost-assignment / DVI-feasibility query mix — route
//! uninstall/reinstall, per-point occupancy probes, and
//! `feasible_candidate` checks — against both the dense
//! [`dvi::LayoutView`] and the pre-dense hash reference, and emits
//! `BENCH_costs.json` with ns/op for both and the speedup.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_costs \
//!     [-- --scale f --seed n --reps k --circuits a,b --out path
//!      --baseline BENCH_costs.json]
//! ```
//!
//! With `--baseline`, the run compares each circuit's *speedup*
//! against the named report and exits non-zero when any circuit's
//! speedup dropped by more than [`GATE`]'s 30%, or when the geomean
//! speedup falls below [`FLOOR`]'s 3x — the CI gate that keeps the
//! occupancy index O(1) in practice, not just on paper. The gate works
//! on speedups rather than raw ns/op because both implementations run
//! interleaved on the same host, so load and thermal drift cancel out
//! of the ratio.
//!
//! Both implementations answer the exact same query sequence over the
//! same routed solution, so the ns/op figures divide out to an honest
//! per-query speedup.

use std::hint::black_box;
use std::time::Instant;

use bench_suite::harness::select_suite;
use bench_suite::ledger::{self, fixed, Bound, Flags, Gate, Verdict};
use dvi::candidates::reference;
use dvi::{feasible_candidate, LayoutView};
use sadp_grid::{Dir, NetId, RoutedNet, RoutingSolution, SadpKind};
use sadp_router::{Router, RouterConfig};
use sadp_trace::json::Value;

/// Each circuit's dense-vs-reference speedup may fall at most 30%
/// below the baseline.
const GATE: Gate = ("speedup", Bound::Fall(0.3));

/// The dense index must beat the reference by at least this geomean
/// factor whenever the baseline gate runs — the headline invariant,
/// enforced independently of the committed baseline numbers.
const FLOOR: Gate = ("geomean_speedup", Bound::AtLeast(3.0));

struct PassRun {
    total_ns: u128,
    ops: u64,
    checksum: u64,
}

impl PassRun {
    fn ns_per_op(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64
    }
}

/// The query mix of one net: uninstall/reinstall its route, probe
/// occupancy at every covered point (the cost-assignment pattern),
/// and test every DVI candidate direction of its vias (the
/// feasibility pattern). Ops are counted identically for both
/// implementations; the checksum keeps the work observable.
macro_rules! drive_pass {
    ($view:expr, $routes:expr, $feasible:path) => {{
        let mut run = PassRun {
            total_ns: 0,
            ops: 0,
            checksum: 0,
        };
        let t0 = Instant::now();
        for (id, route) in $routes {
            let (id, route): (NetId, &RoutedNet) = (*id, route);
            $view.remove_route(id, route);
            $view.add_route(id, route);
            run.ops += 2;
            for &p in route.covered_points_sorted() {
                run.checksum += $view.occupied_by_other(p, id) as u64;
                run.checksum += $view.distinct_others(p, id) as u64;
                run.ops += 2;
            }
            for &via in route.vias() {
                for dir in Dir::PLANAR {
                    if let Some(c) = $feasible(SadpKind::Sim, &$view, route, id, via, dir) {
                        run.checksum += c.stubs.len() as u64 + 1;
                    }
                    run.ops += 1;
                }
            }
        }
        run.total_ns = t0.elapsed().as_nanos();
        run.checksum = black_box(run.checksum);
        run
    }};
}

fn run_dense(solution: &RoutingSolution, routes: &[(NetId, RoutedNet)]) -> PassRun {
    let mut view = LayoutView::from_solution(solution);
    drive_pass!(
        view,
        routes.iter().map(|(id, r)| (id, r)),
        feasible_candidate
    )
}

fn run_reference(solution: &RoutingSolution, routes: &[(NetId, RoutedNet)]) -> PassRun {
    let mut view = reference::LayoutView::from_solution(solution);
    drive_pass!(
        view,
        routes.iter().map(|(id, r)| (id, r)),
        reference::feasible_candidate_reference
    )
}

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[("--scale", "f"), ("--reps", "k"), ("--circuits", "a,b,...")],
        "BENCH_costs.json",
    );
    let scale = flags.get("--scale", 0.1f64);
    let reps = flags.get("--reps", 5usize);
    let circuits = flags.list("--circuits", &["ecc", "efc", "ctl", "alu"]);

    let suite = select_suite(&circuits, scale);

    // One task per circuit; both implementations stay interleaved
    // within a task so contention hits both sides of each ratio
    // equally.
    let per_spec: Vec<(Value, f64, String)> = sadp_exec::map(&suite, |spec| {
        let netlist = spec.generate(seed);
        let outcome = Router::new(spec.grid(), netlist, RouterConfig::full(SadpKind::Sim))
            .try_run(&mut sadp_trace::NoopObserver)
            .expect("full flow");
        let solution = outcome.solution;
        let routes: Vec<(NetId, RoutedNet)> = solution
            .iter()
            .map(|(id, route)| (id, route.clone()))
            .collect();
        let via_count: usize = routes.iter().map(|(_, r)| r.vias().len()).sum();
        // Best of `reps` per implementation, interleaved so
        // thermal/cache drift hits both sides equally.
        let mut refr: Option<PassRun> = None;
        let mut dense: Option<PassRun> = None;
        for _ in 0..reps.max(1) {
            let r = run_reference(&solution, &routes);
            if refr.as_ref().is_none_or(|best| r.total_ns < best.total_ns) {
                refr = Some(r);
            }
            let d = run_dense(&solution, &routes);
            if dense.as_ref().is_none_or(|best| d.total_ns < best.total_ns) {
                dense = Some(d);
            }
        }
        let (refr, dense) = (refr.unwrap(), dense.unwrap());
        assert_eq!(
            refr.checksum, dense.checksum,
            "{}: implementations disagree on the query stream",
            spec.name
        );
        assert_eq!(refr.ops, dense.ops, "{}: op counts diverged", spec.name);
        let speedup = refr.ns_per_op() / dense.ns_per_op();
        let log = format!(
            "  {}: {} nets, {} vias, {} ops, reference {:.1} ns/op, dense {:.1} ns/op -> {:.2}x",
            spec.name,
            routes.len(),
            via_count,
            dense.ops,
            refr.ns_per_op(),
            dense.ns_per_op(),
            speedup
        );
        let row = Value::obj([
            ("name", Value::from(spec.name)),
            ("nets", Value::from(routes.len())),
            ("vias", Value::from(via_count)),
            ("grid", Value::from(vec![spec.width, spec.height])),
            ("ops", Value::from(dense.ops)),
            ("reference_ns_per_op", fixed(refr.ns_per_op(), 1)),
            ("dense_ns_per_op", fixed(dense.ns_per_op(), 1)),
            ("speedup", fixed(speedup, 3)),
        ]);
        (row, speedup, log)
    });
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    for (row, speedup, log) in per_spec {
        eprintln!("{log}");
        log_speedup_sum += speedup.ln();
        rows.push(row);
    }
    let geomean = (log_speedup_sum / suite.len() as f64).exp();
    let fields = vec![
        ("scale", Value::from(scale)),
        ("reps", Value::from(reps)),
        ("workloads", Value::Arr(rows)),
        ("geomean_speedup", fixed(geomean, 3)),
    ];
    let doc = ledger::write(&out, "occupancy-costs", seed, fields);
    println!("geomean speedup: {geomean:.2}x -> {out}");

    // The gate compares *speedups*, not absolute ns/op: both sides of
    // each ratio run interleaved on the same host, so machine load and
    // thermal drift divide out where raw nanoseconds would not.
    let mut verdict = Verdict::new(baseline.as_ref());
    for spec in &suite {
        verdict.gate(&doc, Some(spec.name), &GATE);
    }
    if verdict.gating() {
        verdict.gate(&doc, None, &FLOOR);
    }
    verdict.finish();
}
