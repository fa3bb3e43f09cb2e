//! Lazy-cut ILP solver for TPL-aware DVI.
//!
//! The literal C1–C8 model ties every via of a layer into one giant
//! branch-and-bound component through the color indicator variables,
//! which makes proving optimality hopeless at realistic sizes (the
//! paper's Gurobi runs take 1500–6500 s on circuits of this scale).
//! This solver uses the classic remedy — delayed constraint
//! generation:
//!
//! 1. solve the **insertion relaxation** exactly: variables `D_ij`
//!    only, constraints C1 (one redundant via per single via) and C2
//!    (conflicting candidates) plus all cuts accumulated so far; its
//!    optimum is an upper bound on the full model's, because every
//!    C1–C8-feasible insertion set is feasible here;
//! 2. check the proposed insertion set for TPL feasibility: no FVP in
//!    any 3×3 window and a 3-colorable decomposition graph per via
//!    layer (Welsh–Powell, with exact backtracking on small failing
//!    components);
//! 3. on a violation, add a *no-good cut* — at most `|T| − 1` of the
//!    inserted candidates `T` involved in the violating window or
//!    component — and re-solve.
//!
//! The loop terminates (each cut excludes at least one assignment);
//! on success the result is optimal up to the exactness of the
//! coloring check (components larger than
//! [`EXACT_COLORING_LIMIT`] fall back to Welsh–Powell, which may
//! over-cut — in practice such components do not survive the router's
//! TPL phase). Uncolorable components that contain *no* inserted
//! candidate are pre-existing layout defects: their vias are counted
//! in `#UV` and excluded from further checks, matching the ILP's
//! `uV` semantics.

use std::time::{Duration, Instant};

use bilp::{Model, Sense, SolveOptions, SolveStatus, VarId};
use tpl_decomp::{exact_color, welsh_powell, DecompGraph, FvpIndex};

use crate::candidates::DviProblem;
use crate::heuristic::{solve_heuristic, DviParams};
use crate::report::DviOutcome;

/// Components up to this size are checked by exact backtracking when
/// the greedy coloring fails.
pub const EXACT_COLORING_LIMIT: usize = 32;

/// Options for [`solve_ilp_lazy`].
#[derive(Debug, Clone)]
pub struct LazyIlpOptions {
    /// Total wall-clock budget across all rounds.
    pub time_limit: Option<Duration>,
    /// Maximum cut-generation rounds.
    pub max_rounds: usize,
}

impl Default for LazyIlpOptions {
    fn default() -> Self {
        LazyIlpOptions {
            time_limit: None,
            max_rounds: 50,
        }
    }
}

/// Statistics of a lazy-cut solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyStats {
    /// Cut-generation rounds executed.
    pub rounds: usize,
    /// Cuts added in total.
    pub cuts: usize,
    /// `true` when the final relaxation was solved to optimality and
    /// needed no further cuts.
    pub proven_optimal: bool,
    /// Upper bound on the number of insertable redundant vias.
    pub best_bound: i64,
}

/// [`solve_ilp_lazy`] wrapped in a [`sadp_trace::Phase::Dvi`] span:
/// the observer also receives the cut-round count as
/// [`sadp_trace::Counter::Iterations`].
pub fn solve_ilp_lazy_observed(
    problem: &DviProblem,
    options: &LazyIlpOptions,
    obs: &mut impl sadp_trace::RouteObserver,
) -> (DviOutcome, LazyStats) {
    use sadp_trace::{Counter, Phase};
    obs.phase_start(Phase::Dvi);
    let (outcome, stats) = solve_ilp_lazy(problem, options);
    outcome.emit_counters(obs);
    obs.counter(Phase::Dvi, Counter::Iterations, stats.rounds as i64);
    obs.phase_end(Phase::Dvi);
    (outcome, stats)
}

/// Solves TPL-aware DVI by the lazy-cut decomposition.
pub fn solve_ilp_lazy(problem: &DviProblem, options: &LazyIlpOptions) -> (DviOutcome, LazyStats) {
    let start = Instant::now();
    let deadline = options.time_limit.map(|d| start + d);

    // Base model: D variables, C1, C2.
    let mut model = Model::maximize();
    let d_vars: Vec<VarId> = problem
        .candidates()
        .iter()
        .map(|_| model.add_var())
        .collect();
    for &v in &d_vars {
        model.set_objective_coeff(v, 1);
    }
    for pv in problem.vias() {
        if pv.candidates.len() > 1 {
            model.add_constraint(
                pv.candidates.iter().map(|&c| (d_vars[c as usize], 1)),
                Sense::Le,
                1,
            );
        }
    }
    for &(a, b) in problem.conflicts() {
        model.add_constraint(
            [(d_vars[a as usize], 1), (d_vars[b as usize], 1)],
            Sense::Le,
            1,
        );
    }

    // Warm start from the heuristic.
    let heur = solve_heuristic(problem, &DviParams::default());
    let mut warm = vec![false; d_vars.len()];
    for &c in &heur.inserted {
        warm[c as usize] = true;
    }

    // Vias in pre-existing uncolorable components (counted as #UV and
    // excluded from coloring checks).
    let mut dead_existing: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut stats = LazyStats::default();
    let mut last_solution: Vec<u32> = heur.inserted.clone();
    let mut proven = false;

    for round in 0..options.max_rounds {
        stats.rounds = round + 1;
        let remaining = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
        if matches!(remaining, Some(d) if d.is_zero()) {
            break;
        }
        let sol = model.solve(&SolveOptions {
            time_limit: remaining,
            warm_start: Some(warm.clone()),
        });
        if sol.status == SolveStatus::Infeasible || sol.status == SolveStatus::Unknown {
            break;
        }
        stats.best_bound = sol.best_bound;
        let inserted: Vec<u32> = (0..d_vars.len() as u32)
            .filter(|&c| sol.values[c as usize])
            .collect();
        last_solution = inserted.clone();

        let violations = find_violations(problem, &inserted, &mut dead_existing);
        if violations.is_empty() {
            proven = sol.is_optimal();
            break;
        }
        for cut in violations {
            stats.cuts += 1;
            let k = cut.len() as i64;
            model.add_constraint(
                cut.iter().map(|&c| (d_vars[c as usize], 1)),
                Sense::Le,
                k - 1,
            );
        }
        // The previous incumbent may now be infeasible; rebuild the
        // warm start from the heuristic filtered by cuts (the solver
        // ignores infeasible warm starts anyway).
        warm = vec![false; d_vars.len()];
        for &c in &heur.inserted {
            warm[c as usize] = true;
        }
    }
    stats.proven_optimal = proven;

    let outcome = decode(problem, &last_solution, &dead_existing, start);
    (outcome, stats)
}

/// Checks an insertion set; returns no-good cuts (sets of inserted
/// candidate indices that must not all be chosen together). Existing
/// vias in uncolorable insertion-free components are added to
/// `dead_existing`.
fn find_violations(
    problem: &DviProblem,
    inserted: &[u32],
    dead_existing: &mut std::collections::HashSet<usize>,
) -> Vec<Vec<u32>> {
    let mut cuts: Vec<Vec<u32>> = Vec::new();
    let w = problem.grid_width().max(3);
    let h = problem.grid_height().max(3);
    for layer in problem.via_layers() {
        // Existing via index (for exclusion bookkeeping).
        let existing: Vec<(usize, (i32, i32))> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(i, pv)| pv.via.below == layer && !dead_existing.contains(i))
            .map(|(i, pv)| (i, (pv.via.x, pv.via.y)))
            .collect();
        let ins: Vec<(u32, (i32, i32))> = inserted
            .iter()
            .copied()
            .filter(|&c| problem.candidates()[c as usize].via_layer == layer)
            .map(|c| (c, problem.candidates()[c as usize].loc))
            .collect();

        // FVP windows.
        let mut idx = FvpIndex::new(w, h);
        for &(_, p) in &existing {
            idx.add_via(p.0, p.1);
        }
        for &(_, p) in &ins {
            idx.add_via(p.0, p.1);
        }
        for (ox, oy) in idx.fvp_windows() {
            let members: Vec<u32> = ins
                .iter()
                .filter(|(_, (x, y))| (ox..ox + 3).contains(x) && (oy..oy + 3).contains(y))
                .map(|&(c, _)| c)
                .collect();
            if !members.is_empty() {
                cuts.push(members);
            }
            // An FVP among existing vias alone cannot be cut; it will
            // surface as an uncolorable component below.
        }
        if !cuts.is_empty() {
            continue; // fix FVPs first; coloring may change anyway
        }

        // Coloring check on the combined graph. Vias at one position
        // share a vertex, so vertex ids are not slots of `existing`.
        let graph = DecompGraph::from_positions(
            existing
                .iter()
                .map(|&(_, p)| p)
                .chain(ins.iter().map(|&(_, p)| p)),
        );
        let greedy = welsh_powell(&graph, 3);
        if greedy.is_complete() {
            continue;
        }
        // The inserted candidate at each vertex, if any.
        let mut inserted_at: Vec<Option<u32>> = vec![None; graph.len()];
        for &(c, p) in &ins {
            if let Some(v) = graph.vertex_at(p) {
                inserted_at[v as usize] = Some(c);
            }
        }
        let uncol: std::collections::HashSet<u32> = greedy.uncolorable.iter().copied().collect();
        for comp in graph.components() {
            if !comp.iter().any(|v| uncol.contains(v)) {
                continue;
            }
            if comp.len() <= EXACT_COLORING_LIMIT {
                let sub =
                    DecompGraph::from_positions(comp.iter().map(|&v| graph.position(v as usize)));
                if exact_color(&sub, 3).is_some() {
                    continue; // greedy artifact, actually colorable
                }
            }
            // Truly (or assumed) uncolorable component.
            let members: Vec<u32> = comp
                .iter()
                .filter_map(|&v| inserted_at[v as usize])
                .collect();
            if members.is_empty() {
                // Pre-existing defect: count the component's vias as
                // uncolorable and stop checking them.
                for &(i, p) in &existing {
                    if graph
                        .vertex_at(p)
                        .is_some_and(|v| comp.binary_search(&v).is_ok())
                    {
                        dead_existing.insert(i);
                    }
                }
            } else {
                cuts.push(members);
            }
        }
    }
    cuts
}

/// Builds the final outcome: colors all surviving vias layer by layer.
fn decode(
    problem: &DviProblem,
    inserted: &[u32],
    dead_existing: &std::collections::HashSet<usize>,
    start: Instant,
) -> DviOutcome {
    let mut via_colors: Vec<Option<u8>> = vec![None; problem.via_count()];
    let mut inserted_colors: Vec<u8> = vec![0; inserted.len()];
    for layer in problem.via_layers() {
        let existing: Vec<usize> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(i, pv)| pv.via.below == layer && !dead_existing.contains(i))
            .map(|(i, _)| i)
            .collect();
        let ins: Vec<usize> = inserted
            .iter()
            .enumerate()
            .filter(|(_, &c)| problem.candidates()[c as usize].via_layer == layer)
            .map(|(k, _)| k)
            .collect();
        let positions: Vec<(i32, i32)> = existing
            .iter()
            .map(|&i| {
                let v = problem.vias()[i].via;
                (v.x, v.y)
            })
            .chain(
                ins.iter()
                    .map(|&k| problem.candidates()[inserted[k] as usize].loc),
            )
            .collect();
        let graph = DecompGraph::from_positions(positions.iter().copied());
        let coloring = match exact_small_or_greedy(&graph) {
            Some(c) => c,
            None => welsh_powell(&graph, 3).colors,
        };
        // Vias at one position share a vertex, and so its color.
        let color_at = |p: (i32, i32)| {
            graph
                .vertex_at(p)
                .and_then(|v| coloring.get(v as usize).copied().flatten())
        };
        for (&i, &p) in existing.iter().zip(&positions) {
            via_colors[i] = color_at(p);
        }
        for (&k, &p) in ins.iter().zip(&positions[existing.len()..]) {
            inserted_colors[k] = color_at(p).unwrap_or(0);
        }
    }
    DviOutcome {
        dead_via_count: problem.via_count() - inserted.len(),
        inserted: inserted.to_vec(),
        via_colors,
        inserted_colors,
        uncolorable_count: dead_existing.len(),
        runtime: start.elapsed(),
    }
}

/// Exact coloring when all components are small; `None` otherwise.
fn exact_small_or_greedy(graph: &DecompGraph) -> Option<Vec<Option<u8>>> {
    if graph
        .components()
        .iter()
        .all(|c| c.len() <= EXACT_COLORING_LIMIT)
    {
        exact_color(graph, 3).map(|v| v.into_iter().map(Some).collect())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::DviProblem;
    use crate::ilp::{solve_ilp, IlpOptions};
    use sadp_grid::{
        Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
        WireEdge,
    };

    fn chain_solution(n: i32, spacing: i32) -> RoutingSolution {
        let mut nl = Netlist::new();
        for k in 0..n {
            nl.push(Net::new(
                format!("n{k}"),
                vec![Pin::new(4, 4 + k * spacing), Pin::new(9, 4 + k * spacing)],
            ));
        }
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(20, 64), &nl);
        for k in 0..n {
            let y = 4 + k * spacing;
            let edges = (4..9)
                .map(|x| WireEdge::new(1, x, y, Axis::Horizontal))
                .collect();
            sol.set_route(
                NetId(k as u32),
                RoutedNet::new(edges, vec![Via::new(0, 4, y), Via::new(0, 9, y)]),
            );
        }
        sol
    }

    #[test]
    fn lazy_matches_monolithic_on_small_instances() {
        for spacing in [2, 3, 6] {
            let sol = chain_solution(3, spacing);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let (mono, raw) = solve_ilp(&p, &IlpOptions::default());
            let (lazy, stats) = solve_ilp_lazy(&p, &LazyIlpOptions::default());
            assert!(raw.is_optimal());
            assert!(stats.proven_optimal, "spacing {spacing}");
            assert_eq!(
                lazy.inserted_count(),
                mono.inserted_count(),
                "spacing {spacing}"
            );
            assert_eq!(lazy.uncolorable_count, mono.uncolorable_count);
        }
    }

    #[test]
    fn lazy_result_has_no_fvp_and_proper_colors() {
        let sol = chain_solution(6, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (out, stats) = solve_ilp_lazy(&p, &LazyIlpOptions::default());
        assert!(stats.proven_optimal);
        for layer in p.via_layers() {
            let mut idx = FvpIndex::new(20, 64);
            for (x, y) in p.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            for &c in &out.inserted {
                let cand = &p.candidates()[c as usize];
                if cand.via_layer == layer {
                    idx.add_via(cand.loc.0, cand.loc.1);
                }
            }
            assert!(idx.fvp_windows().is_empty());
        }
        // Colors proper.
        let mut all: Vec<((u8, i32, i32), u8)> = Vec::new();
        for (i, pv) in p.vias().iter().enumerate() {
            if let Some(c) = out.via_colors[i] {
                all.push(((pv.via.below, pv.via.x, pv.via.y), c));
            }
        }
        for (k, &ci) in out.inserted.iter().enumerate() {
            let cand = &p.candidates()[ci as usize];
            all.push((
                (cand.via_layer, cand.loc.0, cand.loc.1),
                out.inserted_colors[k],
            ));
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let ((la, xa, ya), ca) = all[i];
                let ((lb, xb, yb), cb) = all[j];
                if la == lb && tpl_decomp::vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb);
                }
            }
        }
    }

    #[test]
    fn lazy_never_loses_to_heuristic() {
        for n in [4, 6, 8] {
            let sol = chain_solution(n, 2);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let heur = solve_heuristic(&p, &DviParams::default());
            let (lazy, _) = solve_ilp_lazy(&p, &LazyIlpOptions::default());
            assert!(
                lazy.dead_via_count <= heur.dead_via_count,
                "n={n}: lazy {} vs heur {}",
                lazy.dead_via_count,
                heur.dead_via_count
            );
        }
    }

    #[test]
    fn empty_problem_is_trivial() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(1, 1)]));
        let sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (out, stats) = solve_ilp_lazy(&p, &LazyIlpOptions::default());
        assert_eq!(out.inserted_count(), 0);
        assert!(stats.proven_optimal);
    }
}
