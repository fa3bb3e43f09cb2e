//! Post-routing TPL-aware DVI: compare the three solvers on one
//! routed circuit — the fast heuristic (Algorithm 3), the lazy-cut
//! exact ILP, and the literal monolithic C1–C8 ILP (time-limited).
//!
//! ```text
//! cargo run --release --example dvi_postroute [-- <scale> [mono_secs]]
//! ```

use std::time::Duration;

use sadp_dvi::dvi::ilp::IlpOptions;
use sadp_dvi::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.08);
    let mono_secs: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let spec = BenchSpec::paper_suite()[0].scaled(scale);
    let netlist = spec.generate(1);
    let grid = spec.grid();
    let outcome = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    assert!(outcome.routed_all && outcome.fvp_free);

    let problem = DviProblem::build(SadpKind::Sim, &outcome.solution);
    println!(
        "{}: {} single vias, {} feasible DVI candidates, {} conflicts\n",
        spec.name,
        problem.via_count(),
        problem.candidates().len(),
        problem.conflicts().len()
    );

    let heur = solve_heuristic(&problem, &DviParams::default());
    println!(
        "heuristic  : dead={:<5} UV={:<3} cpu={:.3}s",
        heur.dead_via_count,
        heur.uncolorable_count,
        heur.runtime.as_secs_f64()
    );

    let (lazy, stats) = solve_ilp_lazy(&problem, &LazyIlpOptions::default());
    println!(
        "lazy ILP   : dead={:<5} UV={:<3} cpu={:.3}s (optimal={}, {} rounds, {} cuts)",
        lazy.dead_via_count,
        lazy.uncolorable_count,
        lazy.runtime.as_secs_f64(),
        stats.proven_optimal,
        stats.rounds,
        stats.cuts
    );

    // The literal formulation of the paper (oV/gV/bV/uV + D + oD/gD/bD
    // with big-B): exact but enormous; run it time-limited with a
    // heuristic warm start.
    let (mono, raw) = solve_ilp(
        &problem,
        &IlpOptions {
            time_limit: Some(Duration::from_secs(mono_secs)),
            warm_start: true,
        },
    );
    println!(
        "mono ILP   : dead={:<5} UV={:<3} cpu={:.3}s (status {:?}, bound gap {})",
        mono.dead_via_count,
        mono.uncolorable_count,
        mono.runtime.as_secs_f64(),
        raw.status,
        raw.gap()
    );

    println!(
        "\nThe heuristic is within a few percent of the exact optimum at a fraction of the \
         cost (paper Table VI: ~8% more dead vias, >600x speedup vs. the monolithic ILP)."
    );
    assert!(heur.dead_via_count >= lazy.dead_via_count);
}
