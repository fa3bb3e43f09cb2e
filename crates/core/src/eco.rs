//! Perturbation analysis for incremental (ECO) rerouting.
//!
//! An ECO edit ([`LayoutDelta`]) invalidates only part of a finished
//! layout. [`analyze`] computes the minimal **victim set** — the nets
//! whose routes must be ripped and rerouted because the edit perturbs
//! them — so `RoutingSession::apply_delta` can warm-start from the
//! existing solution instead of routing the instance from scratch.
//!
//! A net becomes a victim when any of these hold:
//!
//! * the delta edits the net itself (a pad move keeps the id but
//!   invalidates the route);
//! * the net occupies metal or a via within Chebyshev distance 1 of
//!   the delta's footprint on any layer — close enough to share a
//!   resource with a new pin stub, collide with a fresh blockage, or
//!   sit inside a vacated cost window;
//! * one of the net's non-pin vias participates in a forbidden via
//!   pattern whose 3×3 window is near the footprint — removing or
//!   adding vias there changes the TPL picture, so the members of the
//!   pattern must renegotiate.
//!
//! The analysis runs against the **pre-edit** state and netlist; nets
//! the delta removes are excluded from the result (they are torn down,
//! not rerouted). The output is sorted by id, so the downstream warm
//! restart is deterministic regardless of hash-set iteration order.

use std::collections::BTreeSet;

use sadp_grid::{DeltaOp, GridPoint, LayoutDelta, NetId, Netlist, Via};

use crate::state::RouterState;

/// The outcome of [`analyze`]: what the warm restart must do.
#[derive(Debug, Clone, Default)]
pub struct EcoPlan {
    /// Nets to rip up and reroute, sorted by id. All live in the
    /// edited netlist; never contains a removed or delta-added net.
    pub victims: Vec<NetId>,
    /// Ids the delta retires (their routes are torn down for good).
    pub removed: Vec<NetId>,
    /// Number of nets the delta appends (they get fresh ids past the
    /// pre-edit netlist length, in op order).
    pub added: usize,
}

/// Computes the [`EcoPlan`] of a delta against the pre-edit router
/// state and netlist. See the [module docs](self) for the membership
/// rules. The delta must have passed [`LayoutDelta::apply`] against
/// the same netlist.
pub fn analyze(state: &RouterState, netlist: &Netlist, delta: &LayoutDelta) -> EcoPlan {
    let mut footprint: BTreeSet<(i32, i32)> = BTreeSet::new();
    let mut forced: BTreeSet<NetId> = BTreeSet::new();
    let mut removed: Vec<NetId> = Vec::new();
    let mut added = 0usize;
    for op in delta.ops() {
        match op {
            DeltaOp::AddNet(net) => {
                for p in net.pins() {
                    footprint.insert((p.x, p.y));
                }
                added += 1;
            }
            DeltaOp::RemoveNet(id) => {
                // A base net contributes its base pins. Every pin of a
                // net the delta added or moved earlier is already in
                // the footprint from that op.
                if let Some(net) = netlist.get(*id) {
                    for p in net.pins() {
                        footprint.insert((p.x, p.y));
                    }
                }
                removed.push(*id);
            }
            DeltaOp::MovePad { net, from, to } => {
                forced.insert(*net);
                footprint.insert((from.x, from.y));
                footprint.insert((to.x, to.y));
            }
            DeltaOp::AddBlockage { x, y, .. } | DeltaOp::RemoveBlockage { x, y, .. } => {
                footprint.insert((*x, *y));
            }
        }
    }

    let grid = &state.grid;
    let mut victims: BTreeSet<NetId> = forced;

    // Occupancy closure: any net holding metal or a via within
    // Chebyshev distance 1 of a footprint point, on any layer.
    for &(x, y) in &footprint {
        for dx in -1..=1 {
            for dy in -1..=1 {
                let (nx, ny) = (x + dx, y + dy);
                for layer in 0..grid.layer_count() {
                    for owner in state.view.owners(GridPoint::new(layer, nx, ny)) {
                        victims.insert(owner);
                    }
                }
                for vl in 0..grid.via_layer_count() {
                    for owner in state.view.via_owners(vl, nx, ny) {
                        victims.insert(owner);
                    }
                }
            }
        }
    }

    // TPL closure: forbidden-via-pattern windows whose origin lies
    // within Chebyshev distance 2 of the footprint. The vias filling
    // such a window belong to nets whose coloring conflicts the edit
    // disturbs; rip the movable (non-pin) participants.
    let (w, h) = (grid.width(), grid.height());
    for &(x, y) in &footprint {
        for vl in 0..grid.via_layer_count() {
            let fvp = &state.fvp[vl as usize];
            for ox in (x - 2).max(0)..=(x + 2).min(w - 3) {
                for oy in (y - 2).max(0)..=(y + 2).min(h - 3) {
                    if !fvp.is_fvp_window(ox, oy) {
                        continue;
                    }
                    for cx in ox..ox + 3 {
                        for cy in oy..oy + 3 {
                            if !fvp.contains(cx, cy) || state.is_pin_via(Via::new(vl, cx, cy)) {
                                continue;
                            }
                            for owner in state.view.via_owners(vl, cx, cy) {
                                victims.insert(owner);
                            }
                        }
                    }
                }
            }
        }
    }

    // Removed nets are torn down, not rerouted; delta-added nets are
    // routed as fresh work, not victims.
    for id in &removed {
        victims.remove(id);
    }
    let old_len = netlist.len();
    victims.retain(|id| id.index() < old_len);

    EcoPlan {
        victims: victims.into_iter().collect(),
        removed,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{RouterConfig, RoutingSession};
    use sadp_grid::{Net, Pin, RoutingGrid, SadpKind};
    use sadp_trace::NoopObserver;

    fn test_netlist() -> Netlist {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(2, 2), Pin::new(12, 2)]));
        nl.push(Net::new("b", vec![Pin::new(2, 10), Pin::new(12, 10)]));
        nl.push(Net::new("c", vec![Pin::new(2, 20), Pin::new(12, 20)]));
        nl
    }

    fn routed_session<'a>(grid: &RoutingGrid, nl: &'a Netlist) -> RoutingSession<'a> {
        let mut s = RoutingSession::new(grid, nl, RouterConfig::full(SadpKind::Sim));
        assert!(s.ensure_colorable(&mut NoopObserver));
        s
    }

    #[test]
    fn blockage_far_from_a_net_leaves_it_alone() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = test_netlist();
        let s = routed_session(&grid, &nl);
        let mut d = LayoutDelta::new();
        d.add_blockage(1, 6, 2); // on net "a"'s row
        let plan = analyze(s.state(), &nl, &d);
        assert!(plan.victims.contains(&NetId(0)), "a crosses the blockage");
        assert!(
            !plan.victims.contains(&NetId(2)),
            "c is 18 tracks away from the edit"
        );
        assert!(plan.removed.is_empty());
        assert_eq!(plan.added, 0);
    }

    #[test]
    fn removal_excludes_the_net_but_keeps_neighbors() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = test_netlist();
        let s = routed_session(&grid, &nl);
        let mut d = LayoutDelta::new();
        d.remove_net(NetId(0));
        let plan = analyze(s.state(), &nl, &d);
        assert_eq!(plan.removed, vec![NetId(0)]);
        assert!(!plan.victims.contains(&NetId(0)), "removed, not rerouted");
    }

    #[test]
    fn pad_move_always_victims_the_edited_net() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = test_netlist();
        let s = routed_session(&grid, &nl);
        let mut d = LayoutDelta::new();
        d.move_pad(NetId(1), Pin::new(12, 10), Pin::new(14, 12));
        let plan = analyze(s.state(), &nl, &d);
        assert!(plan.victims.contains(&NetId(1)));
    }

    #[test]
    fn added_net_ids_are_never_victims() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = test_netlist();
        let s = routed_session(&grid, &nl);
        let mut d = LayoutDelta::new();
        d.add_net(Net::new("d", vec![Pin::new(2, 2), Pin::new(4, 4)]));
        let plan = analyze(s.state(), &nl, &d);
        assert_eq!(plan.added, 1);
        assert!(plan.victims.iter().all(|id| id.index() < nl.len()));
        assert!(
            plan.victims.contains(&NetId(0)),
            "a pins at (2,2), under the new pin stub"
        );
    }
}
