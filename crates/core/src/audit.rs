//! End-to-end solution audit: connectivity, shorts, SADP turn
//! legality, FVPs, and via-layer colorability in one report.

use sadp_decomp::{audit_solution, check_mask_set, decompose_layer, DrcRules};
use sadp_grid::{Netlist, RoutingSolution, SadpKind, WireEdge};
use sadp_trace::{Counter, Phase, RouteObserver};
use tpl_decomp::{welsh_powell, DecompGraph, FvpIndex};

use crate::state::RouterState;

/// The combined audit of a finished routing solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullAudit {
    /// Nets whose pins are not all connected, a net without a route
    /// included (every net has at least two pins).
    pub disconnected: usize,
    /// Metal points shared by more than one net.
    pub shorts: usize,
    /// Forbidden SADP turns.
    pub forbidden_turns: usize,
    /// Non-preferred turns (allowed, degradation only).
    pub non_preferred_turns: usize,
    /// FVP windows across all via layers.
    pub fvp_windows: usize,
    /// Vias Welsh–Powell could not 3-color.
    pub greedy_uncolored: usize,
}

impl FullAudit {
    /// `true` when the solution is fully legal: connected, short-free,
    /// SADP decomposable, FVP-free and 3-colorable by the greedy
    /// check.
    pub fn is_clean(&self) -> bool {
        self.disconnected == 0
            && self.shorts == 0
            && self.forbidden_turns == 0
            && self.fvp_windows == 0
            && self.greedy_uncolored == 0
    }
}

/// Audits a routing solution end to end.
///
/// Unlike the router's internal flags this works on any
/// [`RoutingSolution`], so it also validates hand-built or mutated
/// solutions in tests and examples.
pub fn full_audit(kind: SadpKind, solution: &RoutingSolution, netlist: &Netlist) -> FullAudit {
    let unrouted = netlist
        .iter()
        .filter(|&(id, _)| solution.route(id).is_none())
        .count();
    let disconnected = unrouted + solution.connectivity_errors(netlist).len();
    let shorts = solution.shorts().len();
    let sadp = audit_solution(kind, solution);

    let grid = solution.grid();
    let (mut fvp_windows, mut greedy_uncolored) = (0, 0);
    for vl in 0..grid.via_layer_count() {
        let vias = solution.vias_on_layer(vl);
        let mut idx = FvpIndex::new(grid.width().max(3), grid.height().max(3));
        for (_, v) in &vias {
            idx.add_via(v.x, v.y);
        }
        let graph = DecompGraph::from_positions(vias.iter().map(|(_, v)| (v.x, v.y)));
        fvp_windows += idx.fvp_window_count();
        greedy_uncolored += welsh_powell(&graph, 3).uncolored_count();
    }

    FullAudit {
        disconnected,
        shorts,
        forbidden_turns: sadp.counts.forbidden,
        non_preferred_turns: sadp.counts.non_preferred,
        fvp_windows,
        greedy_uncolored,
    }
}

/// [`full_audit`] wrapped in a [`Phase::Audit`] span: the observer
/// receives the wall clock of the audit plus its headline counts
/// ([`Counter::AuditShorts`], [`Counter::AuditFvpWindows`],
/// [`Counter::UncolorableVias`], [`Counter::FailedNets`] for
/// disconnected nets).
pub fn full_audit_observed(
    kind: SadpKind,
    solution: &RoutingSolution,
    netlist: &Netlist,
    obs: &mut impl RouteObserver,
) -> FullAudit {
    obs.phase_start(Phase::Audit);
    let audit = full_audit(kind, solution, netlist);
    obs.counter(Phase::Audit, Counter::AuditShorts, audit.shorts as i64);
    obs.counter(
        Phase::Audit,
        Counter::AuditFvpWindows,
        audit.fvp_windows as i64,
    );
    obs.counter(
        Phase::Audit,
        Counter::UncolorableVias,
        audit.greedy_uncolored as i64,
    );
    obs.counter(Phase::Audit, Counter::FailedNets, audit.disconnected as i64);
    obs.phase_end(Phase::Audit);
    audit
}

/// Synthesizes the SADP masks of every routed metal layer and runs the
/// mask DRC — the strongest decomposability check available: it
/// exercises the actual mandrel/cut-or-trim geometry rather than the
/// turn classification alone.
///
/// Returns the number of DRC violations across all layers (0 for a
/// manufacturable solution), or the layer and error when some layer
/// does not decompose at all.
///
/// # Errors
///
/// Returns `Err((layer, error))` when mask synthesis refuses a layer
/// (a forbidden turn escaped the router — never happens for router
/// output).
pub fn mask_audit(
    kind: SadpKind,
    solution: &RoutingSolution,
) -> Result<usize, (u8, sadp_decomp::DecomposeError)> {
    let grid = solution.grid();
    let mut violations = 0usize;
    for layer in (0..grid.layer_count()).filter(|&l| grid.is_routing_layer(l)) {
        let edges: Vec<WireEdge> = solution
            .iter()
            .flat_map(|(_, r)| r.edges().iter().copied())
            .filter(|e| e.layer == layer)
            .collect();
        let masks = decompose_layer(kind, &edges).map_err(|e| (layer, e))?;
        violations += check_mask_set(&masks, &DrcRules::default(), kind).len();
    }
    Ok(violations)
}

/// Greedy colorability of every via layer of a router state (used by
/// report-only arms).
pub(crate) fn via_layers_colorable(state: &RouterState) -> bool {
    state.fvp.iter().all(|idx| {
        let graph = DecompGraph::from_positions(idx.vias());
        welsh_powell(&graph, 3).is_complete()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Router, RouterConfig};
    use sadp_grid::{Net, NetId, Netlist, Pin, RoutingGrid};

    #[test]
    fn audit_of_full_flow_is_clean() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(14, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 10), Pin::new(14, 14)]));
        let out = Router::new(
            RoutingGrid::three_layer(20, 20),
            nl.clone(),
            RouterConfig::full(SadpKind::Sim),
        )
        .try_run(&mut sadp_trace::NoopObserver)
        .expect("full flow");
        let audit = full_audit(SadpKind::Sim, &out.solution, &nl);
        assert!(audit.is_clean(), "{audit:?}");
    }

    /// Router output must decompose into DRC-clean masks — the mask
    /// synthesizer is the ground truth the turn tables abstract.
    #[test]
    fn mask_audit_of_router_output() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(14, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 10), Pin::new(14, 14)]));
        nl.push(Net::new("c", vec![Pin::new(8, 16), Pin::new(16, 8)]));
        for kind in SadpKind::VARIANTS {
            let out = Router::new(
                RoutingGrid::three_layer(20, 20),
                nl.clone(),
                RouterConfig::full(kind),
            )
            .try_run(&mut sadp_trace::NoopObserver)
            .expect("full flow");
            let v = mask_audit(kind, &out.solution).expect("decomposable");
            assert_eq!(v, 0, "{kind}: mask DRC violations");
        }
    }

    #[test]
    fn audit_flags_empty_solution_as_disconnected() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(3, 3)]));
        let sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        let audit = full_audit(SadpKind::Sim, &sol, &nl);
        // A net without a route leaves its pins unconnected.
        assert_eq!(audit.disconnected, 1);
        assert_eq!(audit.shorts, 0);
        assert!(!audit.is_clean());
    }

    #[test]
    fn audit_flags_a_removed_route_as_disconnected() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(14, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 10), Pin::new(14, 14)]));
        let out = Router::new(
            RoutingGrid::three_layer(20, 20),
            nl.clone(),
            RouterConfig::full(SadpKind::Sim),
        )
        .try_run(&mut sadp_trace::NoopObserver)
        .expect("full flow");
        assert!(out.routed_all);
        assert!(full_audit(SadpKind::Sim, &out.solution, &nl).is_clean());
        let mut partial = out.solution.clone();
        partial.take_route(NetId(1)).expect("net b is routed");
        let audit = full_audit(SadpKind::Sim, &partial, &nl);
        assert_eq!(audit.disconnected, 1, "{audit:?}");
        assert!(!audit.is_clean());
    }
}
