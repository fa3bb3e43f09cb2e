//! Full flow on a generated benchmark: route one circuit of the
//! paper's suite (scaled) under both SADP processes and all four
//! experiment arms, then compare dead-via counts.
//!
//! Each arm runs through a [`RoutingSession`] with a [`JsonReport`]
//! sink, so the run also produces a merged per-phase timing report.
//!
//! ```text
//! cargo run --release --example full_flow [-- <scale> [seed [report.json]]]
//! ```

use sadp_dvi::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.08);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let report_path = std::env::args().nth(3);

    let spec = BenchSpec::paper_suite()[0].scaled(scale); // ecc
    let netlist = spec.generate(seed);
    let grid = spec.grid();
    println!(
        "circuit {} (scale {scale}): {} nets on a {}x{} grid\n",
        spec.name,
        netlist.len(),
        spec.width,
        spec.height
    );

    let mut reports: Vec<JsonReport> = Vec::new();
    for kind in SadpKind::ALL {
        println!("== {kind} ==");
        let arms = [
            ("baseline ", RouterConfig::baseline(kind)),
            ("+DVI     ", RouterConfig::with_dvi(kind)),
            ("+TPL     ", RouterConfig::with_tpl(kind)),
            ("+both    ", RouterConfig::full(kind)),
        ];
        for (label, config) in arms {
            let mut report = JsonReport::new(format!("{kind}/{}", label.trim()));
            let outcome = RoutingSession::new(&grid, &netlist, config)
                .try_finish(&mut report)
                .expect("routing flow");
            let problem = DviProblem::build(kind, &outcome.solution);
            let dvi = solve_heuristic_observed(&problem, &DviParams::default(), &mut report);
            outcome.record_into(&mut report);
            println!(
                "  {label} WL={:>6}  vias={:>5}  route={:>6.2}s  dead={:>4}  UV={:>3}  \
                 fvp_free={} colorable={}",
                outcome.stats.wirelength,
                outcome.stats.vias,
                outcome.runtime.as_secs_f64(),
                dvi.dead_via_count,
                dvi.uncolorable_count,
                outcome.fvp_free,
                outcome.colorable,
            );
            reports.push(report);
        }
        println!();
    }
    println!(
        "Expected shape (paper Tables III/IV): dead vias fall from baseline to +DVI/+TPL \
         and are lowest with both; #UV is zero whenever via-layer TPL is considered."
    );

    if let Some(path) = report_path {
        let json = merge_reports("full_flow", &reports);
        std::fs::write(&path, json).expect("write report");
        println!("\nper-phase run report written to {path}");
    }
}
