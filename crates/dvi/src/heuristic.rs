//! The fast TPL-aware DVI heuristic (paper Algorithm 3).
//!
//! Candidates are drawn from a priority queue ordered by the *DVI
//! penalty*
//!
//! ```text
//! DP(DVIC_j of via_i) = δ·|feasible DVICs of via_i|
//!                     + λ·|conflicting DVICs of DVIC_j|
//!                     + μ·|DVICs killed by inserting DVIC_j|
//! ```
//!
//! (smaller is better: protect constrained vias first, prefer
//! insertions that conflict with and kill few other options). Entries
//! are updated lazily: a popped entry whose stored penalty is stale is
//! re-pushed with its current value; a popped entry that is no longer
//! valid — its via already protected, a conflicting candidate already
//! inserted, or insertion would create an FVP — is discarded.
//!
//! After insertion, redundant vias are TPL-colored first-fit, in
//! insertion order, against a Welsh–Powell pre-coloring of the
//! existing vias; any uncolorable redundant via is un-inserted, so via
//! layers stay TPL decomposable.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sadp_trace::{Phase, RouteObserver};
use tpl_decomp::{welsh_powell, DecompGraph, FvpIndex, CONFLICT_OFFSETS};

use crate::candidates::{DviProblem, LocIndex};
use crate::report::DviOutcome;

/// Weights of the DVI-penalty terms (paper Table II: δ = λ = μ = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DviParams {
    /// Weight of the via's feasible-DVIC count.
    pub delta: i64,
    /// Weight of the candidate's conflicting-DVIC count.
    pub lambda: i64,
    /// Weight of the candidate's killed-DVIC count.
    pub mu: i64,
}

impl Default for DviParams {
    fn default() -> Self {
        DviParams {
            delta: 1,
            lambda: 1,
            mu: 1,
        }
    }
}

struct HeurState<'p> {
    problem: &'p DviProblem,
    params: DviParams,
    /// Incremental FVP index over existing + inserted vias, indexed by
    /// via layer.
    fvp: Vec<FvpIndex>,
    conflict_adj: Vec<Vec<u32>>,
    inserted: Vec<bool>,
    protected: Vec<bool>,
    /// Candidate indices by (via_layer, x, y) of their location.
    cand_by_loc: LocIndex,
}

impl<'p> HeurState<'p> {
    fn new(problem: &'p DviProblem, params: DviParams) -> HeurState<'p> {
        let w = problem.grid_width().max(3);
        let h = problem.grid_height().max(3);
        // Per-via-layer FVP index construction fans out on the
        // execution pool (one independent index per layer).
        let layers: Vec<u8> = (0..problem.via_layer_bound()).collect();
        let fvp = sadp_exec::map(&layers, |&layer| {
            let mut idx = FvpIndex::new(w, h);
            for (x, y) in problem.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            idx
        });
        let mut conflict_adj = vec![Vec::new(); problem.candidates().len()];
        for &(a, b) in problem.conflicts() {
            conflict_adj[a as usize].push(b);
            conflict_adj[b as usize].push(a);
        }
        let cand_by_loc = problem.candidate_loc_index();
        HeurState {
            problem,
            params,
            fvp,
            conflict_adj,
            inserted: vec![false; problem.candidates().len()],
            protected: vec![false; problem.via_count()],
            cand_by_loc,
        }
    }

    /// The validity triple-check of Algorithm 3.
    fn is_valid(&self, c: u32) -> bool {
        let cand = &self.problem.candidates()[c as usize];
        if self.protected[cand.via_idx as usize] {
            return false;
        }
        if self.conflict_adj[c as usize]
            .iter()
            .any(|&o| self.inserted[o as usize])
        {
            return false;
        }
        !self.fvp[usize::from(cand.via_layer)].would_create_fvp(cand.loc.0, cand.loc.1)
    }

    fn feasible_count(&self, via_idx: u32) -> i64 {
        self.problem.vias()[via_idx as usize]
            .candidates
            .iter()
            .filter(|&&c| self.is_valid(c))
            .count() as i64
    }

    fn conflicting_count(&self, c: u32) -> i64 {
        self.conflict_adj[c as usize]
            .iter()
            .filter(|&&o| {
                let ov = self.problem.candidates()[o as usize].via_idx;
                !self.protected[ov as usize] && self.is_valid(o)
            })
            .count() as i64
    }

    /// How many currently-valid candidates of *other* vias would be
    /// FVP-killed by inserting `c`: a read-only query of the FVP index
    /// with `c`'s location as the one extra via.
    fn killed_count(&self, c: u32) -> i64 {
        let cand = &self.problem.candidates()[c as usize];
        let (layer, (cx, cy)) = (cand.via_layer, cand.loc);
        let idx = &self.fvp[usize::from(layer)];
        let mut killed = 0;
        for dx in -2..=2 {
            for dy in -2..=2 {
                for o in self.cand_by_loc.at(layer, cx + dx, cy + dy) {
                    let oc = &self.problem.candidates()[o as usize];
                    if o != c
                        && oc.via_idx != cand.via_idx
                        && self.is_valid(o)
                        && idx.would_create_fvp_with(oc.loc.0, oc.loc.1, cx, cy)
                    {
                        killed += 1;
                    }
                }
            }
        }
        killed
    }

    fn penalty(&self, c: u32) -> i64 {
        let via_idx = self.problem.candidates()[c as usize].via_idx;
        self.params.delta * self.feasible_count(via_idx)
            + self.params.lambda * self.conflicting_count(c)
            + self.params.mu * self.killed_count(c)
    }

    fn insert(&mut self, c: u32) {
        let cand = &self.problem.candidates()[c as usize];
        self.inserted[c as usize] = true;
        self.protected[cand.via_idx as usize] = true;
        self.fvp[usize::from(cand.via_layer)].add_via(cand.loc.0, cand.loc.1);
    }

    fn uninsert(&mut self, c: u32) {
        let cand = &self.problem.candidates()[c as usize];
        self.inserted[c as usize] = false;
        self.fvp[usize::from(cand.via_layer)].remove_via(cand.loc.0, cand.loc.1);
    }
}

/// Pre-colors the existing vias per via layer with Welsh–Powell.
/// Layers are independent decomposition graphs, so the coloring fans
/// out per layer and merges in layer order (deterministic for any
/// thread count). Vias of different nets at one position share that
/// position's vertex, and so its color.
fn precolor(problem: &DviProblem) -> (Vec<Option<u8>>, usize) {
    let layers = problem.via_layers();
    let pos = |i: usize| (problem.vias()[i].via.x, problem.vias()[i].via.y);
    let per_layer: Vec<(Vec<usize>, Vec<Option<u8>>)> = sadp_exec::map(&layers, |&layer| {
        let idxs: Vec<usize> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(_, pv)| pv.via.below == layer)
            .map(|(i, _)| i)
            .collect();
        let graph = DecompGraph::from_positions(idxs.iter().map(|&i| pos(i)));
        let out = welsh_powell(&graph, 3);
        let colors = idxs
            .iter()
            .map(|&i| graph.vertex_at(pos(i)).and_then(|v| out.colors[v as usize]))
            .collect();
        (idxs, colors)
    });
    let mut colors: Vec<Option<u8>> = vec![None; problem.via_count()];
    let mut uncolorable = 0usize;
    for (idxs, layer_colors) in per_layer {
        for (&i, &col) in idxs.iter().zip(&layer_colors) {
            colors[i] = col;
            uncolorable += usize::from(col.is_none());
        }
    }
    (colors, uncolorable)
}

/// Largest `|dx|` or `|dy|` of a [`CONFLICT_OFFSETS`] entry.
const CONFLICT_REACH: i32 = 2;

/// One used-color byte per via-layer cell: bit `k` is set when a
/// colored via there has color `k`. The grid is padded by
/// [`CONFLICT_REACH`] on every side, so the 20 conflict offsets around
/// any grid cell index it without bounds tests.
struct ColorGrid {
    /// Padded column length.
    stride: usize,
    /// Padded cells per via layer.
    layer_cells: usize,
    /// [`CONFLICT_OFFSETS`] as cell-index deltas.
    deltas: [isize; 20],
    bits: Vec<u8>,
}

impl ColorGrid {
    fn new(layers: u8, width: i32, height: i32) -> ColorGrid {
        let stride = (height + 2 * CONFLICT_REACH) as usize;
        let layer_cells = (width + 2 * CONFLICT_REACH) as usize * stride;
        ColorGrid {
            stride,
            layer_cells,
            deltas: CONFLICT_OFFSETS.map(|(dx, dy)| dx as isize * stride as isize + dy as isize),
            bits: vec![0; usize::from(layers) * layer_cells],
        }
    }

    /// The padded cell of grid point `(x, y)` on `layer`.
    fn cell(&self, layer: u8, x: i32, y: i32) -> usize {
        usize::from(layer) * self.layer_cells
            + (x + CONFLICT_REACH) as usize * self.stride
            + (y + CONFLICT_REACH) as usize
    }

    fn mark(&mut self, layer: u8, x: i32, y: i32, color: u8) {
        let cell = self.cell(layer, x, y);
        self.bits[cell] |= 1 << color;
    }

    /// The colors of the vias within same-color pitch of
    /// `(layer, x, y)`, as a bit set.
    fn used_around(&self, layer: u8, x: i32, y: i32) -> u8 {
        let cell = self.cell(layer, x, y);
        self.deltas
            .iter()
            .fold(0, |used, &d| used | self.bits[cell.wrapping_add_signed(d)])
    }
}

/// The final TPL coloring: first-fit, in insertion order, of each
/// inserted redundant via against the pre-colored single vias and the
/// insertions colored before it. Returns the color of each entry of
/// `order`, `None` when all three are taken within the same-color
/// pitch. O(1) per insertion on a [`ColorGrid`].
fn color_insertions(
    problem: &DviProblem,
    via_colors: &[Option<u8>],
    order: &[u32],
) -> Vec<Option<u8>> {
    let mut grid = ColorGrid::new(
        problem.via_layer_bound(),
        problem.grid_width(),
        problem.grid_height(),
    );
    for (pv, &col) in problem.vias().iter().zip(via_colors) {
        if let Some(col) = col {
            grid.mark(pv.via.below, pv.via.x, pv.via.y, col);
        }
    }
    order
        .iter()
        .map(|&c| {
            let cand = &problem.candidates()[c as usize];
            let (layer, (x, y)) = (cand.via_layer, cand.loc);
            let free = !grid.used_around(layer, x, y) & 0b111;
            (free != 0).then(|| {
                let col = free.trailing_zeros() as u8;
                grid.mark(layer, x, y, col);
                col
            })
        })
        .collect()
}

/// Runs Algorithm 3 on a DVI problem.
///
/// Complexity is `O(n log n)` in the number `n` of feasible
/// candidates, plus `O(width × height)` per via layer for the FVP
/// indexes and the coloring grid. Every penalty term, validity check
/// and final color looks at a bounded neighborhood of the candidate,
/// and a popped entry is re-pushed only when an insertion inside that
/// neighborhood has changed its penalty, which happens a bounded
/// number of times per candidate.
///
/// ```
/// use sadp_grid::{Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid,
///                 RoutingSolution, SadpKind, Via, WireEdge};
/// use dvi::{solve_heuristic, DviParams, DviProblem};
///
/// let mut nl = Netlist::new();
/// nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
/// let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
/// sol.set_route(NetId(0), RoutedNet::new(
///     (4..8).map(|x| WireEdge::new(1, x, 4, Axis::Horizontal)).collect(),
///     vec![Via::new(0, 4, 4), Via::new(0, 8, 4)],
/// ));
/// let p = DviProblem::build(SadpKind::Sim, &sol);
/// let out = solve_heuristic(&p, &DviParams::default());
/// assert_eq!(out.dead_via_count, 0);
/// ```
pub fn solve_heuristic(problem: &DviProblem, params: &DviParams) -> DviOutcome {
    solve_with(problem, params, 0)
}

/// [`solve_heuristic`] wrapped in a [`sadp_trace::Phase::Dvi`] span,
/// reporting dead-via / uncolorable / inserted counts to `obs`.
pub fn solve_heuristic_observed(
    problem: &DviProblem,
    params: &DviParams,
    obs: &mut impl RouteObserver,
) -> DviOutcome {
    observe_dvi(obs, || solve_with(problem, params, 0))
}

/// Algorithm 3 followed by up to `swap_passes` rounds of 1-swap local
/// improvement — **our extension beyond the paper**: for every via
/// left dead, if one of its candidates is blocked by exactly one
/// inserted redundant via, try moving that insertion to another valid
/// candidate of its own via; on success both vias end up protected.
///
/// Keeps all invariants of the base heuristic (one redundant via per
/// single via, conflict-free, FVP-free, final coloring with un-insert
/// of uncolorable vias) and narrows the gap to the exact ILP at a
/// small extra cost.
pub fn solve_heuristic_improved(problem: &DviProblem, params: &DviParams) -> DviOutcome {
    solve_with(problem, params, 3)
}

/// [`solve_heuristic_improved`] wrapped in a
/// [`sadp_trace::Phase::Dvi`] span.
pub fn solve_heuristic_improved_observed(
    problem: &DviProblem,
    params: &DviParams,
    obs: &mut impl RouteObserver,
) -> DviOutcome {
    observe_dvi(obs, || solve_with(problem, params, 3))
}

/// Runs a DVI solver body inside a [`Phase::Dvi`] span and emits the
/// outcome counters (shared by every `*_observed` entry point).
pub(crate) fn observe_dvi(
    obs: &mut impl RouteObserver,
    body: impl FnOnce() -> DviOutcome,
) -> DviOutcome {
    obs.phase_start(Phase::Dvi);
    let outcome = body();
    outcome.emit_counters(obs);
    obs.phase_end(Phase::Dvi);
    outcome
}

fn solve_with(problem: &DviProblem, params: &DviParams, swap_passes: usize) -> DviOutcome {
    solve_colored(problem, params, swap_passes, color_insertions)
}

/// A final-coloring step: the color of each inserted candidate of
/// `order` given the pre-coloring, as [`color_insertions`] returns it.
type ColorStep = fn(&DviProblem, &[Option<u8>], &[u32]) -> Vec<Option<u8>>;

/// Algorithm 3 and the 1-swap passes, then `color` for the final
/// coloring (the tests pass the reference scan here).
fn solve_colored(
    problem: &DviProblem,
    params: &DviParams,
    swap_passes: usize,
    color: ColorStep,
) -> DviOutcome {
    let start = Instant::now();
    let (via_colors, uncolorable) = precolor(problem);
    let mut state = HeurState::new(problem, *params);

    let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    for c in 0..problem.candidates().len() as u32 {
        let dp = state.penalty(c);
        heap.push(Reverse((dp, c)));
    }
    let mut insertion_order: Vec<u32> = Vec::new();
    while let Some(Reverse((dp, c))) = heap.pop() {
        if !state.is_valid(c) {
            continue;
        }
        let now = state.penalty(c);
        if now != dp {
            heap.push(Reverse((now, c)));
            continue;
        }
        state.insert(c);
        insertion_order.push(c);
    }

    for _ in 0..swap_passes {
        if !one_swap_pass(problem, &mut state, &mut insertion_order) {
            break;
        }
    }

    // TPL coloring of the inserted redundant vias against the fixed
    // pre-coloring; uncolorable ones are un-inserted.
    let colors = color(problem, &via_colors, &insertion_order);
    let mut final_inserted: Vec<u32> = Vec::new();
    let mut inserted_colors: Vec<u8> = Vec::new();
    for (&c, col) in insertion_order.iter().zip(colors) {
        if let Some(col) = col {
            final_inserted.push(c);
            inserted_colors.push(col);
        }
    }

    DviOutcome {
        dead_via_count: problem.via_count() - final_inserted.len(),
        inserted: final_inserted,
        via_colors,
        inserted_colors,
        uncolorable_count: uncolorable,
        runtime: start.elapsed(),
    }
}

/// One pass of 1-swap improvement; returns `true` when at least one
/// additional via was protected.
///
/// For every dead via and each of its candidates `c`, the pass
/// collects the inserted redundant vias preventing `c` — either the
/// single conflicting insertion, or (when `c` is only FVP-blocked)
/// the nearby insertions inside the offending windows — and tries to
/// re-home one of them onto another valid candidate of its own via so
/// that `c` becomes insertable. Success protects one more via; any
/// failed attempt is fully reverted.
fn one_swap_pass(
    problem: &DviProblem,
    state: &mut HeurState<'_>,
    insertion_order: &mut Vec<u32>,
) -> bool {
    let mut improved = false;
    for (v, pv) in problem.vias().iter().enumerate() {
        if state.protected[v] {
            continue;
        }
        'candidates: for &c in &pv.candidates {
            let conflict_blockers: Vec<u32> = state.conflict_adj[c as usize]
                .iter()
                .copied()
                .filter(|&o| state.inserted[o as usize])
                .collect();
            let cand = &problem.candidates()[c as usize];
            let removal_candidates: Vec<u32> = match conflict_blockers.len() {
                1 => conflict_blockers,
                0 => {
                    // FVP-blocked: inserted redundant vias within the
                    // classification window reach of the location, the
                    // first six in candidate order.
                    let (layer, (x, y)) = (cand.via_layer, cand.loc);
                    let mut near = Vec::new();
                    for dx in -2..=2 {
                        for dy in -2..=2 {
                            near.extend(
                                state
                                    .cand_by_loc
                                    .at(layer, x + dx, y + dy)
                                    .filter(|&o| state.inserted[o as usize]),
                            );
                        }
                    }
                    near.sort_unstable();
                    near.truncate(6);
                    near
                }
                _ => continue, // multiple conflicts: a 1-swap cannot help
            };
            for b in removal_candidates {
                let b_via = problem.candidates()[b as usize].via_idx;
                state.uninsert(b);
                state.protected[b_via as usize] = false;
                if !state.is_valid(c) {
                    state.insert(b);
                    continue;
                }
                state.insert(c);
                // Re-home the removed insertion on another candidate.
                let alt = problem.vias()[b_via as usize]
                    .candidates
                    .iter()
                    .copied()
                    .find(|&a| a != b && state.is_valid(a));
                match alt {
                    Some(a) => {
                        state.insert(a);
                        match insertion_order.iter().position(|&x| x == b) {
                            Some(pos) => insertion_order[pos] = a,
                            None => insertion_order.push(a),
                        }
                        insertion_order.push(c);
                        improved = true;
                        break 'candidates;
                    }
                    None => {
                        state.uninsert(c);
                        state.protected[v] = false;
                        state.insert(b);
                    }
                }
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{solve_ilp, IlpOptions};
    use crate::ilp_lazy::{solve_ilp_lazy, LazyIlpOptions};
    use sadp_grid::{
        Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
        WireEdge,
    };
    use tpl_decomp::vias_conflict;

    /// The final coloring as a scan: each insertion reads every single
    /// via and every insertion colored before it, O(inserted × vias).
    /// The reference [`color_insertions`] is pinned to.
    fn color_insertions_reference(
        problem: &DviProblem,
        via_colors: &[Option<u8>],
        order: &[u32],
    ) -> Vec<Option<u8>> {
        let mut colored: Vec<(u8, i32, i32, u8)> = Vec::new();
        order
            .iter()
            .map(|&c| {
                let cand = &problem.candidates()[c as usize];
                let (layer, (x, y)) = (cand.via_layer, cand.loc);
                let mut used = [false; 3];
                for (pv, &col) in problem.vias().iter().zip(via_colors) {
                    if pv.via.below == layer && vias_conflict(pv.via.x - x, pv.via.y - y) {
                        if let Some(col) = col {
                            used[col as usize] = true;
                        }
                    }
                }
                for &(l, ox, oy, col) in &colored {
                    if l == layer && vias_conflict(ox - x, oy - y) {
                        used[col as usize] = true;
                    }
                }
                let col = (0..3u8).find(|&k| !used[k as usize])?;
                colored.push((layer, x, y, col));
                Some(col)
            })
            .collect()
    }

    /// Both heuristics (plain and 1-swap) give the same outcome with
    /// the grid coloring as with the reference scan, on the chain
    /// fixtures and on routed benchmark circuits.
    #[test]
    fn grid_coloring_matches_scan() {
        use benchgen::BenchSpec;
        use sadp_router::{Router, RouterConfig};
        let mut problems: Vec<(String, DviProblem)> =
            [(3, 8), (4, 2), (5, 2), (6, 2), (6, 3), (8, 2)]
                .into_iter()
                .map(|(n, spacing)| {
                    let p = DviProblem::build(SadpKind::Sim, &chain_solution(n, spacing));
                    (format!("chain {n}x{spacing}"), p)
                })
                .collect();
        for (name, scale) in [("ecc", 0.04), ("efc", 0.03), ("div", 0.02)] {
            let spec = BenchSpec::paper_suite()
                .into_iter()
                .find(|s| s.name == name)
                .expect("paper-suite circuit")
                .scaled(scale);
            for kind in [SadpKind::Sim, SadpKind::Sid] {
                let out = Router::new(spec.grid(), spec.generate(1), RouterConfig::full(kind))
                    .try_run(&mut sadp_trace::NoopObserver)
                    .expect("full flow");
                let p = DviProblem::build(kind, &out.solution);
                assert!(!p.candidates().is_empty(), "{name} {kind:?}");
                problems.push((format!("{name}@{scale} {kind:?}"), p));
            }
        }
        let params = DviParams::default();
        for (what, p) in &problems {
            for swap_passes in [0, 3] {
                let grid = solve_with(p, &params, swap_passes);
                let scan = solve_colored(p, &params, swap_passes, color_insertions_reference);
                let at = format!("{what}, {swap_passes} swap passes");
                assert_eq!(grid.inserted, scan.inserted, "{at}");
                assert_eq!(grid.inserted_colors, scan.inserted_colors, "{at}");
                assert_eq!(grid.via_colors, scan.via_colors, "{at}");
                assert_eq!(grid.dead_via_count, scan.dead_via_count, "{at}");
                assert_eq!(grid.uncolorable_count, scan.uncolorable_count, "{at}");
            }
        }
    }

    /// The two colorings agree on orders no solver produces: every
    /// candidate (several per location, many left without a free
    /// color), forwards and backwards, over assorted pre-colorings.
    #[test]
    fn grid_coloring_matches_scan_on_arbitrary_orders() {
        let p = DviProblem::build(SadpKind::Sim, &chain_solution(8, 2));
        let forward: Vec<u32> = (0..p.candidates().len() as u32).collect();
        let backward: Vec<u32> = forward.iter().rev().copied().collect();
        for seed in 0..4 {
            let via_colors: Vec<Option<u8>> = (0..p.via_count())
                .map(|i| match (i * 7 + seed) % 4 {
                    3 => None,
                    k => Some(k as u8),
                })
                .collect();
            for order in [&forward, &backward] {
                let grid = color_insertions(&p, &via_colors, order);
                assert!(
                    grid.contains(&None),
                    "seed {seed}: some insertion uncolorable"
                );
                assert_eq!(
                    grid,
                    color_insertions_reference(&p, &via_colors, order),
                    "seed {seed}"
                );
            }
        }
    }

    /// Two nets with a via at the same position: the solvers treat the
    /// position as one decomposition-graph vertex, so both vias get
    /// its color and every layer stays properly colored.
    #[test]
    fn vias_sharing_a_position_share_a_color() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 6), Pin::new(8, 6)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        let wire = |y: i32| -> Vec<WireEdge> {
            (4..8)
                .map(|x| WireEdge::new(1, x, y, Axis::Horizontal))
                .collect()
        };
        sol.set_route(
            NetId(0),
            RoutedNet::new(wire(4), vec![Via::new(0, 4, 4), Via::new(0, 8, 4)]),
        );
        sol.set_route(
            NetId(1),
            RoutedNet::new(
                wire(6),
                vec![Via::new(0, 4, 6), Via::new(0, 8, 6), Via::new(0, 8, 4)],
            ),
        );
        assert!(sol.validate().is_ok());
        let p = DviProblem::try_build(SadpKind::Sim, &sol).expect("valid solution");
        let shared: Vec<usize> = (0..p.via_count())
            .filter(|&i| p.vias()[i].via == Via::new(0, 8, 4))
            .collect();
        assert_eq!(shared.len(), 2);
        let outcomes = [
            solve_heuristic(&p, &DviParams::default()),
            solve_heuristic_improved(&p, &DviParams::default()),
            solve_ilp_lazy(&p, &LazyIlpOptions::default()).0,
        ];
        for out in &outcomes {
            let (a, b) = (out.via_colors[shared[0]], out.via_colors[shared[1]]);
            assert!(a.is_some());
            assert_eq!(a, b, "both vias at (0, 8, 4) get one color");
            for layer in p.via_layers() {
                let mut positions: Vec<((i32, i32), Option<u8>)> = Vec::new();
                for (pv, &col) in p.vias().iter().zip(&out.via_colors) {
                    if pv.via.below == layer {
                        positions.push(((pv.via.x, pv.via.y), col));
                    }
                }
                for (&c, &col) in out.inserted.iter().zip(&out.inserted_colors) {
                    let cand = &p.candidates()[c as usize];
                    if cand.via_layer == layer {
                        positions.push((cand.loc, Some(col)));
                    }
                }
                let graph = DecompGraph::from_positions(positions.iter().map(|&(q, _)| q));
                let mut colors = vec![None; graph.len()];
                for &(q, col) in &positions {
                    colors[graph.vertex_at(q).expect("indexed position") as usize] = col;
                }
                assert!(
                    graph.coloring_conflicts(&colors).is_empty(),
                    "layer {layer}"
                );
            }
        }
    }

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
    fn isolated_vias_all_protected() {
        let sol = chain_solution(3, 8);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        assert_eq!(out.dead_via_count, 0);
        assert_eq!(out.inserted_count(), p.via_count());
        assert_eq!(out.uncolorable_count, 0);
    }

    #[test]
    fn no_fvp_after_insertion() {
        let sol = chain_solution(6, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        // Rebuild an FVP index with all final vias.
        for layer in p.via_layers() {
            let mut idx = FvpIndex::new(20, 64);
            for (x, y) in p.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            for (k, &c) in out.inserted.iter().enumerate() {
                let _ = k;
                let cand = &p.candidates()[c as usize];
                if cand.via_layer == layer {
                    idx.add_via(cand.loc.0, cand.loc.1);
                }
            }
            assert!(idx.fvp_windows().is_empty(), "layer {layer} has FVPs");
        }
    }

    #[test]
    fn respects_one_per_via_and_conflicts() {
        let sol = chain_solution(5, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        let mut per_via = vec![0usize; p.via_count()];
        for &c in &out.inserted {
            per_via[p.candidates()[c as usize].via_idx as usize] += 1;
        }
        assert!(per_via.iter().all(|&k| k <= 1));
        for &(a, b) in p.conflicts() {
            let both = out.inserted.contains(&a) && out.inserted.contains(&b);
            assert!(!both, "conflicting candidates {a} and {b} both inserted");
        }
    }

    #[test]
    fn final_coloring_is_proper() {
        let sol = chain_solution(5, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
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
                if la == lb && vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb);
                }
            }
        }
    }

    #[test]
    fn heuristic_close_to_ilp_on_small_instances() {
        let sol = chain_solution(4, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let heur = solve_heuristic(&p, &DviParams::default());
        let (ilp, raw) = solve_ilp(&p, &IlpOptions::default());
        assert!(raw.is_optimal());
        // The ILP is the optimum: the heuristic can only match or do
        // worse, and must be within the paper's ~10% band on these
        // tiny instances (allow slack of 2 vias).
        assert!(heur.dead_via_count >= ilp.dead_via_count);
        assert!(heur.dead_via_count <= ilp.dead_via_count + 2);
    }

    #[test]
    fn constrained_via_wins_shared_location() {
        // Two vias on the same via layer whose only shared candidate
        // location is between them; the via with fewer feasible
        // options must be served first (delta term).
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(4, 6)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(
                vec![
                    WireEdge::new(2, 4, 4, Axis::Vertical),
                    WireEdge::new(2, 4, 5, Axis::Vertical),
                ],
                vec![
                    Via::new(0, 4, 4),
                    Via::new(1, 4, 4),
                    Via::new(1, 4, 6),
                    Via::new(0, 4, 6),
                ],
            ),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        // All four vias should still be protectable (plenty of space).
        assert!(out.dead_via_count <= 1);
    }

    #[test]
    fn improved_never_worse_and_keeps_invariants() {
        for spacing in [2, 3] {
            let sol = chain_solution(6, spacing);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let base = solve_heuristic(&p, &DviParams::default());
            let better = solve_heuristic_improved(&p, &DviParams::default());
            assert!(better.dead_via_count <= base.dead_via_count);
            // Invariants: one per via, conflict-free, FVP-free.
            let mut per_via = vec![0usize; p.via_count()];
            for &c in &better.inserted {
                per_via[p.candidates()[c as usize].via_idx as usize] += 1;
            }
            assert!(per_via.iter().all(|&k| k <= 1));
            for &(a, b) in p.conflicts() {
                assert!(!(better.inserted.contains(&a) && better.inserted.contains(&b)));
            }
            for layer in p.via_layers() {
                let mut idx = FvpIndex::new(20, 64);
                for (x, y) in p.existing_on_layer(layer) {
                    idx.add_via(x, y);
                }
                for &c in &better.inserted {
                    let cand = &p.candidates()[c as usize];
                    if cand.via_layer == layer {
                        idx.add_via(cand.loc.0, cand.loc.1);
                    }
                }
                assert!(idx.fvp_windows().is_empty());
            }
        }
    }

    #[test]
    fn empty_problem() {
        let nl = {
            let mut nl = Netlist::new();
            nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(1, 0)]));
            nl
        };
        let sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        assert_eq!(out.inserted_count(), 0);
        assert_eq!(out.dead_via_count, 0);
    }
}
