//! Integration tests of incremental (ECO) rerouting.
//!
//! Two contracts:
//!
//! 1. **Differential index equality** — after
//!    `RoutingSession::apply_delta` patches its dense indexes in
//!    place, every path-independent index (occupancy view, FVP via
//!    sets and window counts, TPL conflict counts, wiring blockages,
//!    the CSR pin index, and the surviving routes) is byte-identical
//!    to a `RouterState` rebuilt from scratch on the edited layout
//!    with the same surviving routes installed. The path-dependent
//!    cost maps (wire/via penalties, history) are intentionally warm
//!    and excluded.
//! 2. **Determinism** — the eco outcome fingerprint is identical
//!    across execution-pool widths and a budget-interrupt/resume leg:
//!    the exec knobs tune *how*, never *what*, and that extends to
//!    warm restarts.

use std::collections::HashSet;
use std::time::Duration;

use benchgen::BenchSpec;
use sadp_grid::{
    write_solution, GridPoint, LayoutDelta, Net, NetId, Netlist, Pin, RouteError, RoutedNet,
    RoutingGrid, SadpKind,
};
use sadp_router::budget::RouteBudget;
use sadp_router::rnr::PinIndex;
use sadp_router::state::RouterState;
use sadp_router::{RouterConfig, RoutingOutcome, RoutingSession};
use sadp_trace::NoopObserver;

/// The spec every test edits: a scaled-down paper circuit, big enough
/// to have real congestion but quick to route in a unit test.
fn spec() -> BenchSpec {
    BenchSpec::paper_suite()[1].scaled(0.02)
}

/// A representative delta against `nl`: one pad move, one net
/// removal, one added net, and one blockage dropped onto a point the
/// routed base solution actually uses. Pad placements steer clear of
/// every existing pad — two nets pinned to the same cell overlap
/// permanently through their pin stubs, which no reroute can fix.
fn make_delta(grid: &RoutingGrid, nl: &Netlist, routed: &RouterState) -> LayoutDelta {
    let mut used: HashSet<(i32, i32)> = nl
        .iter()
        .flat_map(|(_, n)| n.pins().iter().map(|p| (p.x, p.y)))
        .collect();
    let free_cells: Vec<(i32, i32)> = (0..grid.height())
        .flat_map(|y| (0..grid.width()).map(move |x| (x, y)))
        .filter(|c| !used.contains(c))
        .collect();
    let mut next_free = 0usize;
    let mut take_free = |used: &mut HashSet<(i32, i32)>| -> Pin {
        loop {
            let c = free_cells[next_free];
            next_free += 1;
            if used.insert(c) {
                return Pin::new(c.0, c.1);
            }
        }
    };

    let mut d = LayoutDelta::new();
    let victim = NetId(2);
    let pad = nl[victim].pins()[0];
    let moved_to = take_free(&mut used);
    d.move_pad(victim, pad, moved_to);
    d.remove_net(NetId(1));
    let a = take_free(&mut used);
    let b = take_free(&mut used);
    d.add_net(Net::new("eco_new", vec![a, b]));

    // Block a routing-layer point net 0's route covers but no pad
    // occupies, so the blockage genuinely invalidates a route.
    let route = routed.solution.route(NetId(0)).expect("net 0 routed");
    let block = route
        .covered_points_sorted()
        .iter()
        .find(|p| grid.is_routing_layer(p.layer) && !used.contains(&(p.x, p.y)))
        .copied()
        .expect("net 0 covers a non-pad routing point");
    d.add_blockage(block.layer, block.x, block.y);
    d
}

/// Routes the base netlist once and derives the canonical test delta
/// and edited netlist from the converged solution.
fn setup() -> (RoutingGrid, Netlist, LayoutDelta, Netlist) {
    let spec = spec();
    let grid = spec.grid();
    let nl = spec.generate(7);
    let delta = {
        let mut s = RoutingSession::try_new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
            .expect("valid base");
        assert!(s.ensure_colorable(&mut NoopObserver));
        make_delta(&grid, &nl, s.state())
    };
    let mut edited = nl.clone();
    delta.apply_to_netlist(&mut edited);
    (grid, nl, delta, edited)
}

/// Sorted owner multiset at a metal point.
fn owners_at(state: &RouterState, p: GridPoint) -> Vec<NetId> {
    let mut v: Vec<NetId> = state.view.owners(p).collect();
    v.sort_unstable();
    v
}

/// Sorted owner multiset at a via position.
fn via_owners_at(state: &RouterState, vl: u8, x: i32, y: i32) -> Vec<NetId> {
    let mut v: Vec<NetId> = state.view.via_owners(vl, x, y).collect();
    v.sort_unstable();
    v
}

/// Every deterministic, path-independent piece of a router state.
fn assert_states_match(warm: &RouterState, cold: &RouterState) {
    let grid = &warm.grid;
    for layer in 0..grid.layer_count() {
        for x in 0..grid.width() {
            for y in 0..grid.height() {
                let p = GridPoint::new(layer, x, y);
                assert_eq!(owners_at(warm, p), owners_at(cold, p), "owners at {p}");
                assert_eq!(
                    warm.wire_blocked[p], cold.wire_blocked[p],
                    "wire blockage at {p}"
                );
            }
        }
    }
    for vl in 0..grid.via_layer_count() {
        for x in 0..grid.width() {
            for y in 0..grid.height() {
                assert_eq!(
                    via_owners_at(warm, vl, x, y),
                    via_owners_at(cold, vl, x, y),
                    "via owners at v{vl} ({x},{y})"
                );
            }
        }
        let warm_vias: Vec<(i32, i32)> = warm.fvp[vl as usize].vias().collect();
        let cold_vias: Vec<(i32, i32)> = cold.fvp[vl as usize].vias().collect();
        assert_eq!(warm_vias, cold_vias, "fvp via set on v{vl}");
        assert_eq!(
            warm.fvp[vl as usize].fvp_window_count(),
            cold.fvp[vl as usize].fvp_window_count(),
            "fvp windows on v{vl}"
        );
    }
    assert_eq!(warm.conflict_count, cold.conflict_count, "conflict counts");
    let warm_routes: Vec<(NetId, RoutedNet)> = warm
        .solution
        .iter()
        .map(|(id, r)| (id, r.clone()))
        .collect();
    let cold_routes: Vec<(NetId, RoutedNet)> = cold
        .solution
        .iter()
        .map(|(id, r)| (id, r.clone()))
        .collect();
    assert_eq!(warm_routes, cold_routes, "surviving routes");
}

#[test]
fn patched_indexes_equal_scratch_rebuild_of_edited_layout() {
    let (grid, nl, delta, edited) = setup();
    let config = RouterConfig::full(SadpKind::Sim);
    let mut obs = NoopObserver;
    let mut session = RoutingSession::try_new(&grid, &nl, config).expect("valid base");
    assert!(session.ensure_colorable(&mut obs), "base must converge");
    session
        .apply_delta(&edited, &delta, &mut obs)
        .expect("valid delta");

    // Rebuild the same post-edit moment from scratch: fresh state on
    // the edited netlist, same blockages, same surviving routes.
    let mut cold = RouterState::new(
        grid.clone(),
        &edited,
        config.sadp,
        config.params,
        config.consider_dvi,
        config.consider_tpl,
    );
    for op in delta.ops() {
        if let sadp_grid::DeltaOp::AddBlockage { layer, x, y } = op {
            cold.set_wire_blockage(*layer, *x, *y, true);
        }
    }
    let survivors: Vec<(NetId, RoutedNet)> = session
        .state()
        .solution
        .iter()
        .map(|(id, r)| (id, r.clone()))
        .collect();
    for (id, route) in survivors {
        cold.install_route(id, route);
    }

    assert_states_match(session.state(), &cold);
    assert_eq!(
        session.pin_index(),
        &PinIndex::build(&grid, &edited),
        "patched pin index must equal a rebuild on the edited netlist"
    );

    // The warm session then completes to a clean solution.
    let out = session.try_finish(&mut obs).expect("eco finish");
    assert!(out.routed_all, "eco run must route victims and added nets");
    assert!(out.congestion_free);
    assert!(out.colorable);
}

/// Everything deterministic about an outcome (runtimes excluded).
fn fingerprint(out: &RoutingOutcome) -> (Vec<(NetId, RoutedNet)>, [bool; 4], u64, u64) {
    let routes: Vec<(NetId, RoutedNet)> =
        out.solution.iter().map(|(id, r)| (id, r.clone())).collect();
    (
        routes,
        [
            out.routed_all,
            out.congestion_free,
            out.fvp_free,
            out.colorable,
        ],
        out.stats.wirelength,
        out.stats.vias,
    )
}

/// One complete eco run: route the base, apply the delta, finish
/// warm. `interrupt` drives the warm restart through a zero deadline
/// first, then resumes — exercising budget-resumable eco work.
fn eco_run(config: RouterConfig, interrupt: bool) -> RoutingOutcome {
    let (grid, nl, delta, edited) = setup();
    let mut obs = NoopObserver;
    let mut session = RoutingSession::try_new(&grid, &nl, config).expect("valid base");
    assert!(session.ensure_colorable(&mut obs));
    session
        .apply_delta(&edited, &delta, &mut obs)
        .expect("valid delta");
    if interrupt {
        session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
        session.initial_route(&mut obs);
        session.set_budget(RouteBudget::unlimited());
    }
    session.try_finish(&mut obs).expect("eco finish")
}

#[test]
fn eco_outcome_is_invariant_across_exec_knobs() {
    let base = RouterConfig::full(SadpKind::Sim);
    let reference = fingerprint(&sadp_exec::with_threads(1, || eco_run(base, false)));

    // Thread widths.
    let wide = sadp_exec::with_threads(4, || eco_run(base, false));
    assert_eq!(reference, fingerprint(&wide), "threads=4");

    // Budget interrupt + resume mid-eco.
    let resumed = sadp_exec::with_threads(1, || eco_run(base, true));
    assert_eq!(reference, fingerprint(&resumed), "interrupt/resume leg");
}

#[test]
fn apply_delta_rejects_mismatched_edited_netlist() {
    let (grid, nl, delta, _edited) = setup();
    let wrong = nl.clone(); // delta not applied

    let mut obs = NoopObserver;
    let mut session =
        RoutingSession::try_new(&grid, &nl, RouterConfig::full(SadpKind::Sim)).expect("valid base");
    assert!(session.ensure_colorable(&mut obs));
    assert!(session.apply_delta(&wrong, &delta, &mut obs).is_err());
}

/// A delta refused because `edited` is not base + delta must leave the
/// session exactly as it was: finishing it gives the same solution and
/// flags as a session that never saw the call.
#[test]
fn rejected_apply_delta_leaves_the_session_unchanged() {
    let spec = spec();
    let (grid, nl) = (spec.grid(), spec.generate(7));
    let config = RouterConfig::full(SadpKind::Sim);
    let text_and_flags = |out: &RoutingOutcome| {
        (
            write_solution(&out.solution),
            [
                out.routed_all,
                out.congestion_free,
                out.fvp_free,
                out.colorable,
            ],
        )
    };
    let untouched = RoutingSession::try_new(&grid, &nl, config)
        .expect("valid base")
        .try_finish(&mut NoopObserver)
        .expect("base finish");

    // Move one pad of net 2 and add a net; the `edited` netlist the
    // caller passes carries the added net but not the move.
    let used: HashSet<(i32, i32)> = nl
        .iter()
        .flat_map(|(_, n)| n.pins().iter().map(|p| (p.x, p.y)))
        .collect();
    let free: Vec<Pin> = (0..grid.height())
        .flat_map(|y| (0..grid.width()).map(move |x| (x, y)))
        .filter(|c| !used.contains(c))
        .map(|(x, y)| Pin::new(x, y))
        .take(3)
        .collect();
    let added = Net::new("eco_new", vec![free[1], free[2]]);
    let mut delta = LayoutDelta::new();
    delta.move_pad(NetId(2), nl[NetId(2)].pins()[0], free[0]);
    delta.add_net(added.clone());
    let mut wrong = nl.clone();
    wrong.push(added);

    let mut obs = NoopObserver;
    let mut session = RoutingSession::try_new(&grid, &nl, config).expect("valid base");
    assert!(session.ensure_colorable(&mut obs));
    let err = session
        .apply_delta(&wrong, &delta, &mut obs)
        .expect_err("edited netlist lacks the pad move");
    assert!(matches!(err, RouteError::InvalidNetlist { .. }), "{err}");
    let out = session
        .try_finish(&mut obs)
        .expect("finish after rejection");
    assert_eq!(
        out.solution.routed_count(),
        untouched.solution.routed_count(),
        "the rejected delta ripped a route"
    );
    assert_eq!(text_and_flags(&out), text_and_flags(&untouched));
}
