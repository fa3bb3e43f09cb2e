//! Whole-net routing: multi-pin tree growth over the dense A* kernel
//! of [`crate::search`], with escalating search windows.
//!
//! The kernel itself (search states, turn pruning, cost model) lives
//! in [`crate::search`].

use std::collections::hash_map::Entry;

use sadp_grid::{Axis, Dir, GridPoint, Net, NetId, RoutedNet, Via, WireEdge};

use crate::search::dir_code;
use crate::search::{route_connection, FoundPath, SearchScratch, TreeArms, Window};
use crate::state::{pin_vias, RouterState};

/// Routes a whole (multi-pin) net: grows a tree from the first pin,
/// connecting the nearest unconnected pin each round, with an
/// escalating search window. `scratch` holds the reusable search
/// buffers (create one per thread, pass it to every call).
///
/// Returns `None` when some pin cannot be connected even with a
/// full-grid window.
pub fn route_net(
    state: &RouterState,
    id: NetId,
    net: &Net,
    scratch: &mut SearchScratch,
) -> Option<RoutedNet> {
    route_net_with(state, id, net, |state, id, tree, target, window| {
        route_connection(state, id, tree, target, window, scratch)
    })
}

/// The escalating window margins: each connection searches
/// `bbox(tree ∪ target)` inflated by 8, then 32, then the whole grid.
const WINDOW_MARGINS: [i32; 3] = [8, 32, i32::MAX / 4];

/// [`route_net`] generic over the point-to-tree search kernel: the
/// tree-growth logic calls `connect` once per attempted connection
/// (per window-escalation step) with the tree grown so far. Used for
/// kernel differential tests.
pub fn route_net_with<F>(
    state: &RouterState,
    id: NetId,
    net: &Net,
    mut connect: F,
) -> Option<RoutedNet>
where
    F: FnMut(&RouterState, NetId, &TreeArms, GridPoint, Window) -> Option<FoundPath>,
{
    let first_routing = state.grid.first_routing_layer();
    let pads: Vec<GridPoint> = net
        .pins()
        .iter()
        .map(|p| GridPoint::new(first_routing, p.x, p.y))
        .collect();

    let mut edges: Vec<WireEdge> = Vec::new();
    // `RoutedNet::new` below sorts and dedups the list.
    let mut vias: Vec<Via> = pin_vias(&state.grid, net);
    // The tree with its planar arms, updated as each path lands (the
    // masks `RoutedNet::new(edges, vias).arm_mask` would give), and
    // its bounding box for the search window.
    let mut tree: TreeArms = TreeArms::new();
    tree.insert(pads[0], 0);
    let (mut lo, mut hi) = ((pads[0].x, pads[0].y), (pads[0].x, pads[0].y));

    let mut remaining: Vec<GridPoint> = pads[1..].to_vec();
    // Running minimum tree distance per remaining pad, kept in sync
    // with `remaining` under swap_remove and updated incrementally as
    // tree points are added — O(new tree points × remaining pads)
    // total instead of O(|tree| × |remaining|) per round.
    let mut best_d: Vec<u32> = remaining
        .iter()
        .map(|pad| pads[0].manhattan(*pad))
        .collect();
    while !remaining.is_empty() {
        // Nearest unconnected pad to the tree. The loop condition
        // keeps `remaining` (and with it `best_d`) non-empty.
        let Some((idx, _)) = best_d
            .iter()
            .enumerate()
            .map(|(i, &d)| (i, d))
            .min_by_key(|&(i, d)| (d, i))
        else {
            break;
        };
        let target = remaining.swap_remove(idx);
        best_d.swap_remove(idx);
        if tree.contains_key(&target) {
            continue;
        }

        let span = [lo, hi, (target.x, target.y)];
        let mut found = None;
        for margin in WINDOW_MARGINS {
            // `span` always holds the target, so the window is never
            // empty; treat the impossible case as "no path".
            let Some(window) = Window::around(
                span,
                margin.min(state.grid.width().max(state.grid.height())),
                state.grid.width(),
                state.grid.height(),
            ) else {
                break;
            };
            found = connect(state, id, &tree, target, window);
            if found.is_some() {
                break;
            }
        }
        let path = found?;
        let mut grow = |p: GridPoint, arm: u8| match tree.entry(p) {
            Entry::Occupied(mut e) => *e.get_mut() |= arm,
            Entry::Vacant(e) => {
                e.insert(arm);
                lo = (lo.0.min(p.x), lo.1.min(p.y));
                hi = (hi.0.max(p.x), hi.1.max(p.y));
                for (d, pad) in best_d.iter_mut().zip(remaining.iter()) {
                    *d = (*d).min(p.manhattan(*pad));
                }
            }
        };
        for e in path.edges {
            let [a, b] = e.endpoints();
            let (da, db) = match e.axis {
                Axis::Horizontal => (Dir::East, Dir::West),
                Axis::Vertical => (Dir::North, Dir::South),
            };
            grow(a, 1 << dir_code(da));
            grow(b, 1 << dir_code(db));
            edges.push(e);
        }
        for v in path.vias {
            grow(v.bottom(), 0);
            grow(v.top(), 0);
            vias.push(v);
        }
        grow(target, 0);
    }
    Some(RoutedNet::new(edges, vias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostParams;
    use benchgen::BenchSpec;
    use sadp_decomp::{classify_turn, TurnClass};
    use sadp_grid::{Net, Netlist, Pin, RoutingGrid, SadpKind};

    fn state_with(nets: Vec<Net>) -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let grid = RoutingGrid::three_layer(24, 24);
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, st)
    }

    fn route(st: &RouterState, id: NetId, net: &Net) -> Option<RoutedNet> {
        route_net(st, id, net, &mut SearchScratch::new())
    }

    #[test]
    fn routes_a_straight_net() {
        let (nl, st) = state_with(vec![Net::new("a", vec![Pin::new(4, 6), Pin::new(12, 6)])]);
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        // Straight on M2 (horizontal preferred): wirelength 8, two pin
        // vias, no M3.
        assert_eq!(r.wirelength(), 8);
        assert_eq!(r.via_count(), 2);
        assert!(r.edges().iter().all(|e| e.layer == 1));
    }

    #[test]
    fn routes_an_l_net_via_m3() {
        let (nl, st) = state_with(vec![Net::new("a", vec![Pin::new(4, 4), Pin::new(10, 10)])]);
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        // Manhattan distance 12; a via pair to M3 for the vertical
        // leg is cheaper than a non-preferred M2 leg of length 6.
        assert_eq!(r.wirelength(), 12);
        assert!(r.via_count() >= 3, "expected M3 usage, got {r:?}");
        // The route must be connected.
        let mut sol = sadp_grid::RoutingSolution::new(st.grid.clone(), &nl);
        sol.set_route(NetId(0), r);
        assert!(sol.connectivity_errors(&nl).is_empty());
    }

    #[test]
    fn multi_pin_nets_form_a_tree() {
        let (nl, st) = state_with(vec![Net::new(
            "a",
            vec![Pin::new(4, 4), Pin::new(12, 4), Pin::new(8, 10)],
        )]);
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        let mut sol = sadp_grid::RoutingSolution::new(st.grid.clone(), &nl);
        sol.set_route(NetId(0), r);
        assert!(sol.connectivity_errors(&nl).is_empty());
    }

    #[test]
    fn many_pin_nets_connect_every_pad() {
        // Stresses the incremental nearest-pad bookkeeping: pads are
        // picked up in nearest-first order while the tree reshapes the
        // distance landscape every round.
        let (nl, st) = state_with(vec![Net::new(
            "a",
            vec![
                Pin::new(2, 2),
                Pin::new(20, 2),
                Pin::new(2, 20),
                Pin::new(20, 20),
                Pin::new(11, 11),
                Pin::new(5, 14),
            ],
        )]);
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        let mut sol = sadp_grid::RoutingSolution::new(st.grid.clone(), &nl);
        sol.set_route(NetId(0), r);
        assert!(sol.connectivity_errors(&nl).is_empty());
    }

    #[test]
    fn no_forbidden_turns_in_paths() {
        // Route many diagonal nets and audit each for forbidden turns.
        for k in 0..6 {
            let (nl, st) = state_with(vec![Net::new(
                "a",
                vec![Pin::new(3 + k, 3), Pin::new(15, 9 + k)],
            )]);
            let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
            for (p, t) in r.turns() {
                assert_ne!(
                    classify_turn(SadpKind::Sim, p.x, p.y, t),
                    TurnClass::Forbidden,
                    "forbidden turn at {p}"
                );
            }
        }
    }

    /// Seeded multi-pin benchgen instances, routed net by net with
    /// each route installed, under SIM and SID.
    fn multi_pin_instances() -> Vec<(Netlist, RouterState)> {
        let spec = BenchSpec {
            name: "branches",
            nets: 24,
            width: 36,
            height: 36,
        };
        (0..4u64)
            .flat_map(|seed| [(seed, SadpKind::Sim), (seed, SadpKind::Sid)])
            .map(|(seed, kind)| {
                let nl = spec.generate(seed);
                let st =
                    RouterState::new(spec.grid(), &nl, kind, CostParams::default(), true, true);
                (nl, st)
            })
            .collect()
    }

    #[test]
    fn no_forbidden_turns_at_branch_points() {
        // Multi-pin nets start later connections from the tree, so
        // their routes carry T-junctions whose arm pairs were checked
        // against the tree's arm masks; every pair must be legal.
        let mut junctions = 0usize;
        for (nl, mut st) in multi_pin_instances() {
            let mut scratch = SearchScratch::new();
            for (id, net) in nl.iter() {
                let r = route_net(&st, id, net, &mut scratch).expect("routable");
                for (p, t) in r.turns() {
                    assert_ne!(
                        classify_turn(st.kind, p.x, p.y, t),
                        TurnClass::Forbidden,
                        "{}: forbidden turn of {id:?} at {p}",
                        st.kind
                    );
                }
                junctions += r
                    .covered_points_sorted()
                    .iter()
                    .filter(|&&p| r.arm_mask(p).count_ones() >= 3)
                    .count();
                st.install_route(id, r);
            }
        }
        assert!(junctions > 0, "no T-junction was routed");
    }

    #[test]
    fn tree_arm_masks_match_the_accumulated_route() {
        // Before every connection the tree must hold exactly the arms
        // a route of the paths returned so far has, at every point.
        let (mut connections, mut arms_seen) = (0usize, 0usize);
        for (nl, mut st) in multi_pin_instances() {
            let mut scratch = SearchScratch::new();
            for (id, net) in nl.iter() {
                let mut acc = RoutedNet::default();
                let r = route_net_with(&st, id, net, |st, id, tree, target, window| {
                    for p in acc.covered_points_sorted() {
                        assert!(tree.contains_key(p), "{id:?}: {p} missing from the tree");
                    }
                    for (&p, &mask) in tree {
                        assert_eq!(mask, acc.arm_mask(p), "{id:?}: arm mask at {p}");
                        arms_seen += (mask != 0) as usize;
                    }
                    connections += 1;
                    let path = route_connection(st, id, tree, target, window, &mut scratch)?;
                    acc = RoutedNet::new(
                        [acc.edges(), &path.edges].concat(),
                        [acc.vias(), &path.vias].concat(),
                    );
                    Some(path)
                })
                .expect("routable");
                st.install_route(id, r);
            }
        }
        assert!(connections > 100, "only {connections} connections checked");
        assert!(arms_seen > 0, "no connection started from a tree with arms");
    }

    #[test]
    fn avoids_blocked_vias() {
        let (nl, mut st) = state_with(vec![Net::new("a", vec![Pin::new(4, 4), Pin::new(10, 10)])]);
        let free = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        // The net's cheapest via site on via layer 1.
        let site = *free
            .vias()
            .iter()
            .find(|v| v.below == 1)
            .expect("the free route climbs to M3");
        // An FVP-threatening cluster below the site (the Fig. 7(d)
        // shape of `blocked_vias_are_refused_when_enforced`): one more
        // via at the site completes four vias with no diagonal corner
        // pair. Only the FVP index holds it, so the via costs of the
        // unenforced search do not move.
        for (dx, dy) in [(-1, -2), (1, -2), (0, -1)] {
            st.fvp[1].add_via(site.x + dx, site.y + dy);
        }
        assert!(st.fvp[1].would_create_fvp(site.x, site.y));
        let unenforced = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        assert!(
            unenforced.vias().contains(&site),
            "unenforced route leaves {site}"
        );
        st.enforce_blocked = true;
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        for v in r.vias() {
            if v.below == 1 {
                assert!(
                    !st.fvp[1].would_create_fvp(v.x, v.y),
                    "via on a blocked site: {v}"
                );
            }
        }
    }

    #[test]
    fn sim_trim_routes_like_sim() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(12, 10)]));
        let grid = RoutingGrid::three_layer(24, 24);
        let sim = RouterState::new(
            grid.clone(),
            &nl,
            SadpKind::Sim,
            CostParams::default(),
            true,
            true,
        );
        let trim = RouterState::new(
            grid,
            &nl,
            SadpKind::SimTrim,
            CostParams::default(),
            true,
            true,
        );
        let ra = route(&sim, NetId(0), &nl[NetId(0)]).unwrap();
        let rb = route(&trim, NetId(0), &nl[NetId(0)]).unwrap();
        // Identical turn rules => identical routes.
        assert_eq!(ra, rb);
    }

    #[test]
    fn window_escalation_reaches_far_targets() {
        // Pins farther apart than the first window margin: the search
        // must escalate and still succeed.
        let mut nl = Netlist::new();
        nl.push(Net::new("far", vec![Pin::new(2, 2), Pin::new(60, 60)]));
        let grid = RoutingGrid::three_layer(64, 64);
        let st = RouterState::new(
            grid,
            &nl,
            SadpKind::Sim,
            CostParams::default(),
            false,
            false,
        );
        let r = route(&st, NetId(0), &nl[NetId(0)]).expect("routable");
        assert_eq!(r.wirelength(), 116);
    }

    #[test]
    fn usage_steers_away_from_occupied_tracks() {
        let (nl, mut st) = state_with(vec![
            Net::new("a", vec![Pin::new(4, 6), Pin::new(12, 6)]),
            Net::new("b", vec![Pin::new(2, 6), Pin::new(14, 6)]),
        ]);
        // Route net a straight along y=6 on M2.
        let ra = route(&st, NetId(0), &nl[NetId(0)]).unwrap();
        st.install_route(NetId(0), ra);
        // Net b shares the y=6 corridor but its straight path is
        // occupied by net a; it must detour.
        let rb = route(&st, NetId(1), &nl[NetId(1)]).unwrap();
        // It must not overlap net a's wire points.
        let mut overlap = 0;
        for e in rb.edges() {
            for p in e.endpoints() {
                if st.view.occupied_by_other(p, NetId(1)) {
                    overlap += 1;
                }
            }
        }
        assert_eq!(overlap, 0, "net b should detour around net a: {rb:?}");
    }
}
