//! End-to-end integration: generate → route → audit → DVI, across
//! both SADP processes and all four experiment arms.

use sadp_dvi::prelude::*;
use sadp_dvi::tpl::{vias_conflict, FvpIndex};

fn spec() -> BenchSpec {
    BenchSpec::paper_suite()[0].scaled(0.03)
}

#[test]
fn full_arm_is_clean_for_both_processes() {
    for kind in SadpKind::ALL {
        let netlist = spec().generate(11);
        let grid = spec().grid();
        // The staged session borrows grid and netlist — no clones.
        let out = RoutingSession::new(&grid, &netlist, RouterConfig::full(kind))
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        assert!(out.routed_all, "{kind}: routability");
        assert!(out.congestion_free, "{kind}: congestion");
        assert!(out.fvp_free, "{kind}: FVPs");
        assert!(out.colorable, "{kind}: colorability");
        let audit = full_audit(kind, &out.solution, &netlist);
        assert!(audit.is_clean(), "{kind}: {audit:?}");
    }
}

/// The SIM-with-trim variant (paper §I: "can be easily adapted to
/// other SADP variants") routes end to end with the same guarantees.
#[test]
fn sim_trim_variant_works_end_to_end() {
    let kind = SadpKind::SimTrim;
    let netlist = spec().generate(11);
    let grid = spec().grid();
    let out = RoutingSession::new(&grid, &netlist, RouterConfig::full(kind))
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    assert!(out.routed_all && out.congestion_free && out.fvp_free && out.colorable);
    let audit = full_audit(kind, &out.solution, &netlist);
    assert!(audit.is_clean(), "{audit:?}");
    let problem = DviProblem::build(kind, &out.solution);
    let dvi = solve_heuristic(&problem, &DviParams::default());
    assert_eq!(dvi.uncolorable_count, 0);
}

#[test]
fn all_arms_route_everything() {
    let kind = SadpKind::Sim;
    let configs = [
        RouterConfig::baseline(kind),
        RouterConfig::with_dvi(kind),
        RouterConfig::with_tpl(kind),
        RouterConfig::full(kind),
    ];
    let netlist = spec().generate(3);
    let grid = spec().grid();
    for config in configs {
        let out = RoutingSession::new(&grid, &netlist, config)
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        assert!(out.routed_all && out.congestion_free);
        // Always SADP-legal and short-free, whatever the arm.
        let audit = full_audit(kind, &out.solution, &netlist);
        assert_eq!(audit.disconnected, 0);
        assert_eq!(audit.shorts, 0);
        assert_eq!(audit.forbidden_turns, 0);
    }
}

#[test]
fn dvi_solvers_respect_all_constraints() {
    let netlist = spec().generate(7);
    let out = Router::new(spec().grid(), netlist, RouterConfig::full(SadpKind::Sim))
        .try_run(&mut NoopObserver)
        .expect("full flow");
    let problem = DviProblem::build(SadpKind::Sim, &out.solution);
    let heur = solve_heuristic(&problem, &DviParams::default());
    let (ilp, stats) = solve_ilp_lazy(&problem, &LazyIlpOptions::default());
    assert!(stats.proven_optimal);
    // The exact solver can only do at least as well.
    assert!(ilp.dead_via_count <= heur.dead_via_count);

    for outcome in [&heur, &ilp] {
        // One redundant via per single via.
        let mut per_via = vec![0usize; problem.via_count()];
        for &c in &outcome.inserted {
            per_via[problem.candidates()[c as usize].via_idx as usize] += 1;
        }
        assert!(per_via.iter().all(|&k| k <= 1));
        // Conflicts respected.
        for &(a, b) in problem.conflicts() {
            assert!(!(outcome.inserted.contains(&a) && outcome.inserted.contains(&b)));
        }
        // No FVP on any layer after insertion.
        for layer in problem.via_layers() {
            let mut idx = FvpIndex::new(problem.grid_width().max(3), problem.grid_height().max(3));
            for (x, y) in problem.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            for &c in &outcome.inserted {
                let cand = &problem.candidates()[c as usize];
                if cand.via_layer == layer {
                    idx.add_via(cand.loc.0, cand.loc.1);
                }
            }
            assert!(idx.fvp_windows().is_empty());
        }
        // Final coloring is proper.
        let mut all: Vec<((u8, i32, i32), u8)> = Vec::new();
        for (i, pv) in problem.vias().iter().enumerate() {
            if let Some(c) = outcome.via_colors[i] {
                all.push(((pv.via.below, pv.via.x, pv.via.y), c));
            }
        }
        for (k, &ci) in outcome.inserted.iter().enumerate() {
            let cand = &problem.candidates()[ci as usize];
            all.push((
                (cand.via_layer, cand.loc.0, cand.loc.1),
                outcome.inserted_colors[k],
            ));
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let ((la, xa, ya), ca) = all[i];
                let ((lb, xb, yb), cb) = all[j];
                if la == lb && vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb);
                }
            }
        }
        assert_eq!(outcome.uncolorable_count, 0);
    }
}

#[test]
fn paper_shape_dead_vias_fall_with_consideration() {
    // Average over a few seeds to damp noise on the tiny instance.
    let kind = SadpKind::Sim;
    let mut dead_base = 0usize;
    let mut dead_full = 0usize;
    let grid = spec().grid();
    for seed in [1, 2, 3] {
        let netlist = spec().generate(seed);
        let base = RoutingSession::new(&grid, &netlist, RouterConfig::baseline(kind))
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        let full = RoutingSession::new(&grid, &netlist, RouterConfig::full(kind))
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        let pb = DviProblem::build(kind, &base.solution);
        let pf = DviProblem::build(kind, &full.solution);
        dead_base += solve_heuristic(&pb, &DviParams::default()).dead_via_count;
        dead_full += solve_heuristic(&pf, &DviParams::default()).dead_via_count;
        // UV must be zero whenever via-layer TPL is considered.
        assert_eq!(
            solve_heuristic(&pf, &DviParams::default()).uncolorable_count,
            0
        );
    }
    assert!(
        dead_full <= dead_base,
        "dead vias should not increase with full consideration: {dead_full} vs {dead_base}"
    );
}

/// Datapath-style (bus-heavy) netlists concentrate vias in columns —
/// a harder TPL stress than the random-logic mixture — and must still
/// come out clean.
#[test]
fn bus_style_netlists_route_clean() {
    let s = spec();
    let netlist = s.generate_bus_style(3, 0.6);
    let grid = s.grid();
    let out = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    assert!(out.routed_all && out.congestion_free && out.fvp_free && out.colorable);
    let audit = full_audit(SadpKind::Sim, &out.solution, &netlist);
    assert!(audit.is_clean(), "{audit:?}");
    let problem = DviProblem::build(SadpKind::Sim, &out.solution);
    let dvi = solve_heuristic(&problem, &DviParams::default());
    assert_eq!(dvi.uncolorable_count, 0);
}

/// The strongest decomposability check: synthesize the actual SADP
/// masks of every routed layer and run the whole-layer DRC.
#[test]
fn router_output_is_mask_drc_clean() {
    for kind in [SadpKind::Sim, SadpKind::Sid] {
        let netlist = spec().generate(13);
        let out = Router::new(spec().grid(), netlist, RouterConfig::full(kind))
            .try_run(&mut NoopObserver)
            .expect("full flow");
        let violations = mask_audit(kind, &out.solution)
            .unwrap_or_else(|(l, e)| panic!("{kind}: layer {l} undecomposable: {e}"));
        assert_eq!(violations, 0, "{kind}: mask DRC violations");
    }
}

#[test]
fn runs_are_deterministic() {
    let netlist_a = spec().generate(5);
    let netlist_b = spec().generate(5);
    assert_eq!(netlist_a, netlist_b);
    let a = Router::new(spec().grid(), netlist_a, RouterConfig::full(SadpKind::Sim))
        .try_run(&mut NoopObserver)
        .expect("full flow");
    let b = Router::new(spec().grid(), netlist_b, RouterConfig::full(SadpKind::Sim))
        .try_run(&mut NoopObserver)
        .expect("full flow");
    assert_eq!(a.stats, b.stats);
    let pa = DviProblem::build(SadpKind::Sim, &a.solution);
    let pb = DviProblem::build(SadpKind::Sim, &b.solution);
    let ha = solve_heuristic(&pa, &DviParams::default());
    let hb = solve_heuristic(&pb, &DviParams::default());
    assert_eq!(ha.inserted, hb.inserted);
    assert_eq!(ha.dead_via_count, hb.dead_via_count);
}
