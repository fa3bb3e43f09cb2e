//! Rip-up and reroute: negotiated congestion (PathFinder-style) and
//! the via-layer TPL violation removal of Algorithm 2, plus the final
//! 3-colorability check with R&R fallback.
//!
//! Both R&R phases are one loop, `rip_up_and_reroute`, over one
//! violation heap (`RnrWork`). Algorithm 2's heap resolves every
//! congested point before any FVP, so the loop without FVP windows is
//! negotiated congestion; TPL removal is the same loop with FVP windows
//! and blocked-via enforcement.
//!
//! Each phase (`initial_routing`, `rip_up_and_reroute`,
//! `ensure_colorable`) is one crate-internal function that
//! `RoutingSession` drives. It takes [`PhaseLimits`] and a persistent
//! work struct ([`InitialWork`] / `RnrWork`, or the coloring attempt
//! count), checks the budget **between** iterations (before popping
//! the next violation, so nothing is lost), and leaves the work struct
//! in a state a later activation resumes from — this is what makes
//! `RoutingSession` interruptible: a run stopped between iterations
//! and resumed with a fresh budget walks the exact same iteration
//! sequence as an uninterrupted run. The `rotation` of an `RnrWork`
//! counts its phase's iterations across activations, so the session
//! checks a configured iteration cap against the whole phase.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use sadp_grid::{GridPoint, NetId, Netlist, Via};
use sadp_trace::{Counter, Phase, RouteObserver};
use tpl_decomp::{exact_color, welsh_powell, DecompGraph};

use crate::budget::{PhaseLimits, Termination};
use crate::dijkstra::route_net;
use crate::search::SearchScratch;
use crate::state::RouterState;

/// Counters reported by the R&R phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RnrStats {
    /// Violations processed.
    pub iterations: usize,
    /// Nets ripped and rerouted.
    pub reroutes: usize,
    /// Reroutes that failed (old route reinstalled).
    pub failures: usize,
    /// How the phase activation stopped.
    pub termination: Termination,
}

impl RnrStats {
    /// Folds a later activation's counters into an accumulated total;
    /// the later activation's termination verdict wins.
    pub fn merge(&mut self, later: RnrStats) {
        self.iterations += later.iterations;
        self.reroutes += later.reroutes;
        self.failures += later.failures;
        self.termination = later.termination;
    }
}

/// Resumable progress of the initial-routing phase: the HPWL order is
/// computed once and the cursor advances one net per iteration.
#[derive(Debug, Clone, Default)]
pub struct InitialWork {
    pub(crate) order: Vec<NetId>,
    pub(crate) pos: usize,
    pub(crate) seeded: bool,
}

impl InitialWork {
    /// `true` when every net has been attempted.
    pub fn is_done(&self) -> bool {
        self.seeded && self.pos >= self.order.len()
    }
}

/// Routes every net once, in increasing-HPWL order, sharing one
/// search scratch across all nets; one iteration = one net.
/// Unroutable nets are appended to `failed`. Returns how the
/// activation stopped; on a budget stop, a later call continues with
/// the next net in the same order.
pub(crate) fn initial_routing(
    state: &mut RouterState,
    netlist: &Netlist,
    limits: PhaseLimits,
    work: &mut InitialWork,
    failed: &mut Vec<NetId>,
    scratch: &mut SearchScratch,
    obs: &mut impl RouteObserver,
) -> Termination {
    const PHASE: Phase = Phase::InitialRouting;
    if !work.seeded {
        work.order = netlist.iter().map(|(id, _)| id).collect();
        work.order.sort_by_key(|&id| (netlist[id].hpwl(), id));
        work.pos = 0;
        work.seeded = true;
    }
    let mut done_here = 0usize;
    while work.pos < work.order.len() {
        if let Some(t) = limits.stop_reason(done_here, scratch.expanded) {
            obs.counter(PHASE, Counter::BudgetStops, 1);
            return t;
        }
        done_here += 1;
        let id = work.order[work.pos];
        work.pos += 1;
        match route_net(state, id, &netlist[id], scratch) {
            Some(route) => state.install_route(id, route),
            None => {
                obs.counter(PHASE, Counter::FailedNets, 1);
                failed.push(id);
            }
        }
    }
    Termination::Converged
}

/// Rips and reroutes `id`, reinstalling the old route when no new one
/// is found. Returns `true` on a successful reroute.
fn reroute(
    state: &mut RouterState,
    netlist: &Netlist,
    id: NetId,
    scratch: &mut SearchScratch,
) -> bool {
    let Some(old) = state.uninstall_route(id) else {
        return false;
    };
    match route_net(state, id, &netlist[id], scratch) {
        Some(new_route) => {
            state.install_route(id, new_route);
            true
        }
        None => {
            // Retry once without blocked-via enforcement (safety
            // valve; any new FVP re-enters the queue).
            let was = state.enforce_blocked;
            state.enforce_blocked = false;
            let retry = route_net(state, id, &netlist[id], scratch);
            state.enforce_blocked = was;
            match retry {
                Some(new_route) => {
                    state.install_route(id, new_route);
                    true
                }
                None => {
                    state.install_route(id, old);
                    false
                }
            }
        }
    }
}

/// Picks the net to rip at a congested point: rotate among distinct
/// owners that are not merely pinned there (pins cannot move).
///
/// `buf` is a caller-owned scratch buffer (threaded through the work
/// struct so the hot loop performs no per-call allocation); its
/// contents on return are the rip candidates.
fn rip_candidate_at(
    state: &RouterState,
    p: GridPoint,
    rotation: usize,
    buf: &mut Vec<NetId>,
) -> Option<NetId> {
    state.owners_into(p, buf);
    if buf.len() < 2 {
        return None; // stale
    }
    let first_routing = state.grid.first_routing_layer();
    // A net pinned at (x, y) covering only the pad cannot be
    // helped by rerouting if the overlap *is* the pad and the
    // point is on/below the first routing layer... but its
    // wire may also pass here; rerouting is still the only
    // lever, except for pure pin pads which every route of
    // that net must touch. Exclude nets pinned exactly here.
    buf.retain(|id| !(p.layer <= first_routing && state.pins.nets_at(p.x, p.y).contains(id)));
    if buf.is_empty() {
        None
    } else {
        Some(buf[rotation % buf.len()])
    }
}

/// A violation processed by the R&R loop. Congestion outranks FVPs
/// (it is always resolved first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Violation {
    /// A metal point with more than one owner. (Rank 0: highest.)
    Congestion(GridPoint),
    /// An FVP window `(via layer, origin)`.
    Fvp(u8, (i32, i32)),
}

impl Violation {
    pub(crate) fn rank(&self) -> u8 {
        match self {
            Violation::Congestion(_) => 0,
            Violation::Fvp(..) => 1,
        }
    }
}

/// Resumable progress of one R&R phase: the violation heap, its
/// tie-break sequence counter, and the victim rotation survive a
/// budget stop, so the next activation continues mid-heap. Entries pop
/// by rank, then in push order, so a heap of congested points alone
/// is a FIFO queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct RnrWork {
    pub(crate) heap: BinaryHeap<Reverse<(u8, u64, Violation)>>,
    pub(crate) seq: u64,
    /// Picks among a violation's rip candidates; bumped once per
    /// iteration, so it also counts the phase's iterations since the
    /// work was created.
    pub(crate) rotation: usize,
    /// Reused rip-candidate buffer (no per-iteration allocation).
    pub(crate) victims: Vec<NetId>,
}

impl RnrWork {
    /// Queues `v` behind every pending violation of its rank.
    pub(crate) fn push(&mut self, v: Violation) {
        self.seq += 1;
        self.heap.push(Reverse((v.rank(), self.seq, v)));
    }

    /// The pending violations with their keys, in pop order.
    pub(crate) fn pending(&self) -> Vec<(u8, u64, Violation)> {
        let mut entries: Vec<(u8, u64, Violation)> =
            self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        entries
    }
}

/// The R&R loop of both phases. With `FVPS` off it is negotiated
/// congestion: it rips and reroutes nets until no routing resource is
/// shared. With `FVPS` on it is the TPL violation removal of
/// Algorithm 2: it also queues every FVP window behind the congestion,
/// refuses via locations that would create an FVP, and raises history
/// on the vias of each FVP it rips. Refusal is a flag: the FVP indexes
/// answer each via location in O(1), so switching it on costs nothing
/// and it stays on for the rest of the session. Returns `(clean,
/// stats)`, where clean means congestion-free and, with `FVPS`,
/// FVP-free. The heap is (re)seeded from the current violations only
/// when empty — a non-empty heap means a previous activation was
/// interrupted and is continued verbatim.
pub(crate) fn rip_up_and_reroute<const FVPS: bool>(
    state: &mut RouterState,
    netlist: &Netlist,
    limits: PhaseLimits,
    work: &mut RnrWork,
    scratch: &mut SearchScratch,
    obs: &mut impl RouteObserver,
) -> (bool, RnrStats) {
    let phase = if FVPS {
        state.enforce_blocked = true;
        Phase::TplViolationRemoval
    } else {
        Phase::CongestionNegotiation
    };
    let mut stats = RnrStats::default();
    if work.heap.is_empty() {
        for p in state.congested_points() {
            work.push(Violation::Congestion(p));
        }
        if FVPS {
            for vl in 0..state.grid.via_layer_count() {
                for w in state.fvp[vl as usize].fvp_windows() {
                    work.push(Violation::Fvp(vl, w));
                }
            }
        }
    }

    loop {
        // Budget check *before* the pop: an interrupted activation
        // leaves the violation in the heap for the resume.
        if let Some(t) = limits.stop_reason(stats.iterations, scratch.expanded) {
            stats.termination = t;
            obs.counter(phase, Counter::BudgetStops, 1);
            break;
        }
        let Some(Reverse((_, _, viol))) = work.heap.pop() else {
            break;
        };
        // Stale-entry check and victim selection.
        let victim = match viol {
            Violation::Congestion(p) => {
                let Some(v) = rip_candidate_at(state, p, work.rotation, &mut work.victims) else {
                    continue; // stale: resolved meanwhile
                };
                obs.counter(phase, Counter::CongestionHits, 1);
                state.bump_history(p);
                obs.counter(phase, Counter::CostDelta, state.params.history_step());
                v
            }
            Violation::Fvp(vl, (ox, oy)) => {
                if !state.fvp[vl as usize].is_fvp_window(ox, oy) {
                    continue; // resolved meanwhile
                }
                // Nets owning movable vias in the window.
                work.victims.clear();
                for dx in 0..3 {
                    for dy in 0..3 {
                        let (x, y) = (ox + dx, oy + dy);
                        if state.is_pin_via(Via::new(vl, x, y)) {
                            continue;
                        }
                        for n in state.view.via_owners(vl, x, y) {
                            if !work.victims.contains(&n) {
                                work.victims.push(n);
                            }
                        }
                    }
                }
                if work.victims.is_empty() {
                    continue; // pin-driven FVP: nothing to rip
                }
                obs.counter(phase, Counter::FvpHits, 1);
                // Raise history on the vias of the FVP so they grow
                // expensive (Algorithm 2 line 15).
                let mut bumped = 0i64;
                for dx in 0..3 {
                    for dy in 0..3 {
                        let (x, y) = (ox + dx, oy + dy);
                        if state.fvp[vl as usize].contains(x, y) {
                            state.bump_history(GridPoint::new(vl, x, y));
                            state.bump_history(GridPoint::new(vl + 1, x, y));
                            bumped += 2;
                        }
                    }
                }
                obs.counter(
                    phase,
                    Counter::CostDelta,
                    bumped * state.params.history_step(),
                );
                work.victims[work.rotation % work.victims.len()]
            }
        };
        work.rotation += 1;
        stats.iterations += 1;
        obs.counter(phase, Counter::Iterations, 1);
        if reroute(state, netlist, victim, scratch) {
            stats.reroutes += 1;
            obs.counter(phase, Counter::Reroutes, 1);
        } else {
            stats.failures += 1;
            obs.counter(phase, Counter::RerouteFailures, 1);
        }
        // Requeue fresh violations around the victim's (new or
        // reinstalled) route: its overlaps and, with FVPs, the FVP
        // windows around its vias.
        if let Some(route) = state.solution.route(victim) {
            for &q in route.covered_points_sorted() {
                if state.owners_of(q).len() > 1 {
                    work.push(Violation::Congestion(q));
                }
            }
            if FVPS {
                // Only windows whose origin is within Chebyshev
                // distance 2 of the via can contain it: probe those 25
                // origins directly instead of scanning every FVP
                // window.
                let (gw, gh) = (state.grid.width(), state.grid.height());
                for &v in route.vias() {
                    let vl = v.below as usize;
                    for wx in (v.x - 2).max(0)..=(v.x + 2).min(gw - 3) {
                        for wy in (v.y - 2).max(0)..=(v.y + 2).min(gh - 3) {
                            if state.fvp[vl].is_fvp_window(wx, wy) {
                                work.push(Violation::Fvp(v.below, (wx, wy)));
                            }
                        }
                    }
                }
            }
        }
        // The processed violation may persist: requeue if so.
        let persists = match viol {
            Violation::Congestion(p) => state.owners_of(p).len() > 1,
            Violation::Fvp(vl, (ox, oy)) => state.fvp[vl as usize].is_fvp_window(ox, oy),
        };
        if persists {
            work.push(viol);
        }
    }

    let clean = state.congested_points().is_empty()
        && (!FVPS
            || (0..state.grid.via_layer_count())
                .all(|vl| state.fvp[vl as usize].fvp_window_count() == 0));
    (clean, stats)
}

/// Checks 3-colorability of every via-layer decomposition graph
/// (Welsh–Powell first, exact search on small suspicious components),
/// ripping and rerouting nets with uncolorable vias when needed.
/// Returns whether every via layer is 3-colorable, and how the
/// activation stopped.
///
/// `attempts_done` persists across activations: the configured
/// attempt count is spent once per session, not per activation. The
/// budget is checked between attempts; exhausting it returns a
/// non-converged [`Termination`] so a later activation continues with
/// the remaining attempts. A worker panic in the per-layer coloring
/// fan-out is contained and returned as [`sadp_exec::TaskPanicked`].
pub(crate) fn ensure_colorable(
    state: &mut RouterState,
    netlist: &Netlist,
    max_attempts: usize,
    limits: PhaseLimits,
    attempts_done: &mut usize,
    scratch: &mut SearchScratch,
    obs: &mut impl RouteObserver,
) -> Result<(bool, Termination), sadp_exec::TaskPanicked> {
    const PHASE: Phase = Phase::ColoringFix;
    let total = max_attempts.max(1);
    let mut attempts_here = 0usize;
    while *attempts_done < total {
        if let Some(t) = limits.stop_reason(attempts_here, scratch.expanded) {
            obs.counter(PHASE, Counter::BudgetStops, 1);
            return Ok((false, t));
        }
        *attempts_done += 1;
        attempts_here += 1;
        obs.counter(PHASE, Counter::ColoringAttempts, 1);
        // Each via layer's coloring check is independent and read-only
        // on the state: fan out per layer and flatten in layer order
        // (vertices sorted within a layer) so the rip-up order is the
        // same for any thread count.
        let state_ref: &RouterState = state;
        let per_layer =
            sadp_exec::try_map_indexed(state_ref.grid.via_layer_count() as usize, |vl| {
                let positions: Vec<(i32, i32)> = state_ref.fvp[vl].vias().collect();
                let graph = DecompGraph::from_positions(positions.iter().copied());
                let greedy = welsh_powell(&graph, 3);
                if greedy.is_complete() {
                    return Vec::new();
                }
                // Greedy can fail on colorable graphs: verify exactly on
                // the components that contain uncolored vertices.
                let mut uncol: HashSet<u32> = greedy.uncolorable.iter().copied().collect();
                for comp in graph.components() {
                    if !comp.iter().any(|v| uncol.contains(v)) {
                        continue;
                    }
                    if comp.len() <= 30 {
                        let sub = DecompGraph::from_positions(
                            comp.iter().map(|&v| graph.position(v as usize)),
                        );
                        if exact_color(&sub, 3).is_some() {
                            for v in &comp {
                                uncol.remove(v);
                            }
                        }
                    }
                }
                let mut uncol: Vec<u32> = uncol.into_iter().collect();
                uncol.sort_unstable();
                uncol
                    .into_iter()
                    .map(|v| {
                        let (x, y) = graph.position(v as usize);
                        Via::new(vl as u8, x, y)
                    })
                    .collect()
            })?;
        let bad_vias: Vec<Via> = per_layer.into_iter().flatten().collect();
        if bad_vias.is_empty() {
            return Ok((true, Termination::Converged));
        }
        obs.counter(PHASE, Counter::UncolorableVias, bad_vias.len() as i64);
        // Rip the owners of truly-uncolorable vias and retry.
        let mut victims: Vec<NetId> = Vec::new();
        for via in bad_vias {
            state.bump_history(via.bottom());
            state.bump_history(via.top());
            obs.counter(PHASE, Counter::CostDelta, 2 * state.params.history_step());
            if state.is_pin_via(via) {
                continue;
            }
            for n in state.view.via_owners(via.below, via.x, via.y) {
                if !victims.contains(&n) {
                    victims.push(n);
                }
            }
        }
        if victims.is_empty() {
            return Ok((false, Termination::Converged)); // only pin vias: cannot fix
        }
        for v in victims {
            obs.counter(PHASE, Counter::Iterations, 1);
            if reroute(state, netlist, v, scratch) {
                obs.counter(PHASE, Counter::Reroutes, 1);
            } else {
                obs.counter(PHASE, Counter::RerouteFailures, 1);
            }
        }
    }
    Ok((false, Termination::Converged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostParams;
    use sadp_grid::{Net, Pin, RoutingGrid, SadpKind};
    use sadp_trace::NoopObserver;

    fn build(nets: Vec<Net>, w: i32, h: i32) -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let grid = RoutingGrid::three_layer(w, h);
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, st)
    }

    /// Routes every net in one unlimited activation; returns the nets
    /// that failed.
    fn route_all(st: &mut RouterState, nl: &Netlist, scratch: &mut SearchScratch) -> Vec<NetId> {
        let mut failed = Vec::new();
        initial_routing(
            st,
            nl,
            PhaseLimits::unlimited(),
            &mut InitialWork::default(),
            &mut failed,
            scratch,
            &mut NoopObserver,
        );
        failed
    }

    /// One congestion activation from fresh work, capped at `iters`.
    fn negotiate(
        st: &mut RouterState,
        nl: &Netlist,
        iters: usize,
        scratch: &mut SearchScratch,
    ) -> (bool, RnrStats) {
        rip_up_and_reroute::<false>(
            st,
            nl,
            PhaseLimits::iters_only(iters),
            &mut RnrWork::default(),
            scratch,
            &mut NoopObserver,
        )
    }

    /// One TPL-removal activation from fresh work, capped at `iters`.
    fn remove_fvps(
        st: &mut RouterState,
        nl: &Netlist,
        iters: usize,
        scratch: &mut SearchScratch,
    ) -> (bool, RnrStats) {
        rip_up_and_reroute::<true>(
            st,
            nl,
            PhaseLimits::iters_only(iters),
            &mut RnrWork::default(),
            scratch,
            &mut NoopObserver,
        )
    }

    #[test]
    fn initial_routing_routes_everything() {
        let (nl, mut st) = build(
            vec![
                Net::new("a", vec![Pin::new(4, 4), Pin::new(12, 4)]),
                Net::new("b", vec![Pin::new(4, 8), Pin::new(12, 12)]),
                Net::new("c", vec![Pin::new(6, 6), Pin::new(6, 14), Pin::new(14, 6)]),
            ],
            24,
            24,
        );
        let failed = route_all(&mut st, &nl, &mut SearchScratch::new());
        assert!(failed.is_empty());
        assert_eq!(st.solution.routed_count(), 3);
        assert!(st.solution.connectivity_errors(&nl).is_empty());
    }

    #[test]
    fn initial_routing_resumes_across_iteration_caps() {
        let nets: Vec<Net> = (0..5)
            .map(|k| {
                Net::new(
                    format!("n{k}"),
                    vec![Pin::new(3, 3 + 3 * k), Pin::new(18, 3 + 3 * k)],
                )
            })
            .collect();
        let (nl, mut st) = build(nets.clone(), 24, 24);
        let mut scratch = SearchScratch::new();
        let mut work = InitialWork::default();
        let mut failed = Vec::new();
        // Two nets per activation: 5 nets take three activations.
        let mut activations = 0;
        loop {
            let t = initial_routing(
                &mut st,
                &nl,
                PhaseLimits::iters_only(2),
                &mut work,
                &mut failed,
                &mut scratch,
                &mut NoopObserver,
            );
            activations += 1;
            if t == Termination::Converged {
                break;
            }
            assert_eq!(t, Termination::IterationCap);
        }
        assert_eq!(activations, 3);
        assert!(work.is_done());
        assert!(failed.is_empty());
        assert_eq!(st.solution.routed_count(), 5);

        // The resumed run routes the same nets as an uninterrupted one.
        let (nl2, mut st2) = build(nets, 24, 24);
        let _ = route_all(&mut st2, &nl2, &mut SearchScratch::new());
        for (id, _) in nl2.iter() {
            assert_eq!(st.solution.route(id), st2.solution.route(id), "{id:?}");
        }
    }

    #[test]
    fn congestion_negotiation_clears_overlaps() {
        // Many nets forced through a congested column.
        let mut nets = Vec::new();
        for k in 0..6 {
            nets.push(Net::new(
                format!("n{k}"),
                vec![Pin::new(2, 4 + 2 * k), Pin::new(21, 4 + 2 * k)],
            ));
        }
        let (nl, mut st) = build(nets, 24, 24);
        let mut scratch = SearchScratch::new();
        let failed = route_all(&mut st, &nl, &mut scratch);
        assert!(failed.is_empty());
        let (clean, _stats) = negotiate(&mut st, &nl, 10_000, &mut scratch);
        assert!(clean, "congestion not resolved");
        assert!(st.solution.shorts().is_empty());
        assert!(st.solution.connectivity_errors(&nl).is_empty());
    }

    /// Routes and negotiates twelve diagonal nets crossing around the
    /// center of a SID grid without TPL costs, so their vias pile up
    /// into FVP windows, then runs the TPL phase (costs on, blocked via
    /// sites refused) on one work struct in activations of at most
    /// `slice` iterations. Returns the final state, the netlist, the
    /// phase's accumulated stats, and whether it ended clean.
    fn tpl_phase_in_slices(slice: usize) -> (RouterState, Netlist, RnrStats, bool) {
        let mut nl = Netlist::new();
        for k in 0..12 {
            nl.push(Net::new(
                format!("n{k}"),
                vec![Pin::new(2 + k, 2), Pin::new(20 - k, 20)],
            ));
        }
        let grid = RoutingGrid::three_layer(24, 24);
        let mut st = RouterState::new(grid, &nl, SadpKind::Sid, CostParams::default(), true, false);
        let mut scratch = SearchScratch::new();
        let failed = route_all(&mut st, &nl, &mut scratch);
        assert!(failed.is_empty());
        let (_c, _s) = negotiate(&mut st, &nl, 10_000, &mut scratch);
        st.consider_tpl = true;
        let windows: usize = st.fvp.iter().map(|f| f.fvp_windows().len()).sum();
        assert!(windows > 0, "the TPL phase starts with no FVP window");
        let mut work = RnrWork::default();
        let mut acc = RnrStats::default();
        let clean = loop {
            let (clean, stats) = rip_up_and_reroute::<true>(
                &mut st,
                &nl,
                PhaseLimits::iters_only(slice),
                &mut work,
                &mut scratch,
                &mut NoopObserver,
            );
            acc.merge(stats);
            if stats.termination == Termination::Converged {
                break clean;
            }
        };
        (st, nl, acc, clean)
    }

    #[test]
    fn tpl_phase_removes_fvps() {
        let (st, nl, stats, clean) = tpl_phase_in_slices(10_000);
        assert!(clean, "FVPs or congestion remain");
        assert_eq!(
            stats,
            RnrStats {
                iterations: 2,
                reroutes: 2,
                failures: 0,
                termination: Termination::Converged,
            }
        );
        let totals = st.solution.stats();
        assert_eq!((totals.wirelength, totals.vias), (336, 54));
        for vl in 0..st.grid.via_layer_count() {
            assert!(st.fvp[vl as usize].fvp_windows().is_empty());
        }
        assert!(st.solution.connectivity_errors(&nl).is_empty());
    }

    /// The TPL phase resumed after every iteration walks the same
    /// sequence as one uninterrupted activation.
    #[test]
    fn tpl_phase_resumed_every_iteration_matches_uninterrupted() {
        let (whole, nl, whole_stats, whole_clean) = tpl_phase_in_slices(10_000);
        let (sliced, _, sliced_stats, sliced_clean) = tpl_phase_in_slices(1);
        assert_eq!(sliced_clean, whole_clean);
        assert_eq!(sliced_stats, whole_stats);
        for (id, _) in nl.iter() {
            assert_eq!(
                sliced.solution.route(id),
                whole.solution.route(id),
                "{id:?}"
            );
        }
    }

    #[test]
    fn colorability_check_passes_on_clean_layouts() {
        let (nl, mut st) = build(
            vec![
                Net::new("a", vec![Pin::new(4, 4), Pin::new(12, 4)]),
                Net::new("b", vec![Pin::new(4, 10), Pin::new(12, 16)]),
            ],
            24,
            24,
        );
        let mut scratch = SearchScratch::new();
        route_all(&mut st, &nl, &mut scratch);
        negotiate(&mut st, &nl, 1000, &mut scratch);
        remove_fvps(&mut st, &nl, 1000, &mut scratch);
        let (colorable, _) = ensure_colorable(
            &mut st,
            &nl,
            3,
            PhaseLimits::unlimited(),
            &mut 0,
            &mut scratch,
            &mut NoopObserver,
        )
        .expect("no worker panic");
        assert!(colorable);
    }

    /// An interrupted-and-resumed congestion phase walks the same
    /// iteration sequence as an uninterrupted one: same final routes,
    /// same accumulated counters.
    #[test]
    fn congestion_negotiation_resume_matches_uninterrupted() {
        use sadp_grid::RoutedNet;

        let nets: Vec<Net> = (0..6)
            .map(|k| {
                Net::new(
                    format!("n{k}"),
                    vec![Pin::new(2, 3 + 3 * k), Pin::new(21, 3 + 3 * k)],
                )
            })
            .collect();

        let run = |slice: usize| {
            let (nl, mut st) = build(nets.clone(), 24, 24);
            let mut scratch = SearchScratch::new();
            route_all(&mut st, &nl, &mut scratch);
            // The cost-aware initial pass avoids overlaps on an open
            // grid, so build deterministic congestion by overlaying
            // three nets onto their neighbors' metal (real reroutes can
            // do this: sharing is a cost, not a hard block).
            for k in [0u32, 2, 4] {
                let donor = st
                    .solution
                    .route(NetId(k + 1))
                    .expect("routed")
                    .edges()
                    .to_vec();
                st.uninstall_route(NetId(k));
                st.install_route(NetId(k), RoutedNet::new(donor, Vec::new()));
            }
            assert!(!st.congested_points().is_empty());
            let mut work = RnrWork::default();
            let mut acc = RnrStats::default();
            loop {
                let (_, stats) = rip_up_and_reroute::<false>(
                    &mut st,
                    &nl,
                    PhaseLimits::iters_only(slice),
                    &mut work,
                    &mut scratch,
                    &mut NoopObserver,
                );
                acc.merge(stats);
                if stats.termination == Termination::Converged {
                    break;
                }
            }
            let routes: Vec<_> = nl
                .iter()
                .map(|(id, _)| st.solution.route(id).cloned())
                .collect();
            (routes, acc.iterations, acc.reroutes, acc.failures)
        };

        let uninterrupted = run(usize::MAX);
        assert!(
            uninterrupted.1 >= 3,
            "instance must need several iterations, got {}",
            uninterrupted.1
        );
        let interrupted = run(1);
        assert_eq!(uninterrupted, interrupted);
    }
}
