//! Mutable router state: the evolving solution, occupancy view, cost
//! maps, FVP indices (which also answer the blocked via locations of
//! Algorithm 2), and the per-net cost journals implementing
//! Algorithm 1.

use std::collections::HashSet;

use dvi::{feasible_candidate, Candidate, LayoutView};
use sadp_grid::{
    DenseGrid, Dir, GridPoint, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution,
    SadpKind, Via,
};
use tpl_decomp::{conflict_offsets, FvpIndex};

use crate::costs::CostParams;

/// Which penalty map a journal delta applies to.
///
/// `pub(crate)` so the checkpoint codec can persist and replay
/// journals verbatim (recomputing them on restore would be
/// order-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MapKind {
    /// Metal-point penalty (BDC contributions on wires).
    Wire,
    /// Via-location penalty (BDC / AMC / CDC contributions).
    ViaLoc,
}

/// One reversible cost contribution of a routed net.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delta {
    pub(crate) map: MapKind,
    pub(crate) point: GridPoint,
    pub(crate) amount: i64,
}

/// The router's complete mutable state.
///
/// Invariants maintained across [`RouterState::install_route`] /
/// [`RouterState::uninstall_route`] pairs:
///
/// * `view` mirrors `solution` plus the permanent pin seeds;
/// * `fvp[l]` and `conflict_count` track exactly the vias present
///   (pins seeded once, route vias added/removed with their net);
/// * every cost contribution of a net is journaled and reversed on
///   uninstall.
#[derive(Debug)]
pub struct RouterState {
    /// The routing grid.
    pub grid: RoutingGrid,
    /// SADP process (turn rules).
    pub kind: SadpKind,
    /// Cost parameters.
    pub params: CostParams,
    /// Apply the DVI cost assignment (BDC/AMC/CDC)?
    pub consider_dvi: bool,
    /// Apply the TPL cost assignment (TPLC) and FVP machinery?
    pub consider_tpl: bool,
    /// Occupancy view (solution routes + pin seeds).
    pub view: LayoutView,
    /// The evolving solution.
    pub solution: RoutingSolution,
    /// Negotiated-congestion history cost per metal point.
    pub history: DenseGrid<i64>,
    /// Accumulated wire penalties (BDC) per metal point.
    pub wire_penalty: DenseGrid<i64>,
    /// Accumulated via-location penalties (BDC/AMC/CDC) per via layer.
    pub via_penalty: DenseGrid<i64>,
    /// Number of existing vias within same-color pitch of each via
    /// location (drives TPLC).
    pub conflict_count: DenseGrid<i64>,
    /// Metal points blocked for wiring by layout blockages (ECO
    /// edits). Unlike FVP-blocked via locations, these are hard
    /// obstacles: the path search never occupies them, independent of
    /// `enforce_blocked`.
    pub wire_blocked: DenseGrid<bool>,
    /// Refuse via locations where one more via would create an FVP
    /// ([`FvpIndex::would_create_fvp`]) during path search (phase 2,
    /// Algorithm 2).
    pub enforce_blocked: bool,
    /// FVP index per via layer.
    pub fvp: Vec<FvpIndex>,
    /// Pin locations (fixed via stacks), used to exempt pin vias from
    /// incremental via bookkeeping and from rip-up.
    pin_vias: HashSet<(i32, i32)>,
    pub(crate) journals: Vec<Vec<Delta>>,
}

impl RouterState {
    /// Creates the state for a netlist on a grid, seeding pin pads and
    /// pin via stacks.
    pub fn new(
        grid: RoutingGrid,
        netlist: &Netlist,
        kind: SadpKind,
        params: CostParams,
        consider_dvi: bool,
        consider_tpl: bool,
    ) -> RouterState {
        let metal_layers = grid.layer_count();
        let via_layers = grid.via_layer_count();
        let (w, h) = (grid.width(), grid.height());
        let mut state = RouterState {
            view: LayoutView::new(grid.clone()),
            solution: RoutingSolution::new(grid.clone(), netlist),
            history: DenseGrid::new(metal_layers, w, h, 0),
            wire_penalty: DenseGrid::new(metal_layers, w, h, 0),
            via_penalty: DenseGrid::new(via_layers, w, h, 0),
            conflict_count: DenseGrid::new(via_layers, w, h, 0),
            wire_blocked: DenseGrid::new(metal_layers, w, h, false),
            enforce_blocked: false,
            fvp: (0..via_layers)
                .map(|_| FvpIndex::new(w.max(3), h.max(3)))
                .collect(),
            pin_vias: HashSet::new(),
            journals: vec![Vec::new(); netlist.len()],
            grid,
            kind,
            params,
            consider_dvi,
            consider_tpl,
        };
        // Seed the permanent pin pads and pin via stacks.
        for (id, net) in netlist.iter() {
            let stub = pin_stub(&state.grid, net);
            for &via in stub.vias() {
                state.pin_vias.insert((via.x, via.y));
                state.add_via_tracking(via);
            }
            state.view.add_route(id, &stub);
        }
        state
    }

    /// The via stack a net's pins contribute (also part of every
    /// installed route).
    pub fn pin_stub_for(&self, net: &Net) -> RoutedNet {
        pin_stub(&self.grid, net)
    }

    /// `true` when `via` belongs to a fixed pin via stack (below the
    /// first routing layer).
    pub fn is_pin_via(&self, via: Via) -> bool {
        via.below < self.grid.first_routing_layer() && self.pin_vias.contains(&(via.x, via.y))
    }

    fn add_via_tracking(&mut self, via: Via) {
        let vl = via.below;
        self.fvp[vl as usize].add_via(via.x, via.y);
        for (dx, dy) in conflict_offsets() {
            let p = GridPoint::new(vl, via.x + dx, via.y + dy);
            if let Some(c) = self.conflict_count.get_mut(p) {
                *c += 1;
            }
        }
    }

    fn remove_via_tracking(&mut self, via: Via) {
        let vl = via.below;
        self.fvp[vl as usize].remove_via(via.x, via.y);
        for (dx, dy) in conflict_offsets() {
            let p = GridPoint::new(vl, via.x + dx, via.y + dy);
            if let Some(c) = self.conflict_count.get_mut(p) {
                *c -= 1;
            }
        }
    }

    /// Installs a route: solution, occupancy, via tracking, and the
    /// Algorithm 1 cost assignment.
    pub fn install_route(&mut self, id: NetId, route: RoutedNet) {
        self.view.add_route(id, &route);
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.add_via_tracking(via);
            }
        }
        self.apply_net_costs(id, &route);
        self.solution.set_route(id, route);
    }

    /// Uninstalls a route, reversing everything `install_route` did.
    /// Returns the removed route.
    pub fn uninstall_route(&mut self, id: NetId) -> Option<RoutedNet> {
        let route = self.solution.take_route(id)?;
        self.remove_net_costs(id);
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.remove_via_tracking(via);
            }
        }
        self.view.remove_route(id, &route);
        Some(route)
    }

    /// Installs a route with a persisted cost journal (checkpoint
    /// restore): occupancy and via tracking as
    /// [`RouterState::install_route`] does, but the journal is
    /// replayed verbatim instead of recomputed, because recomputing it
    /// against the restored state would depend on install order.
    pub(crate) fn restore_route(&mut self, id: NetId, route: RoutedNet, journal: Vec<Delta>) {
        self.view.add_route(id, &route);
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.add_via_tracking(via);
            }
        }
        for d in &journal {
            match d.map {
                MapKind::Wire => self.wire_penalty[d.point] += d.amount,
                MapKind::ViaLoc => self.via_penalty[d.point] += d.amount,
            }
        }
        self.journals[id.index()] = journal;
        self.solution.set_route(id, route);
    }

    /// The feasible DVI candidates of a via of an installed route.
    pub fn feasible_dvics(&self, net: NetId, route: &RoutedNet, via: Via) -> Vec<Candidate> {
        Dir::PLANAR
            .iter()
            .filter_map(|&d| feasible_candidate(self.kind, &self.view, route, net, via, d))
            .collect()
    }

    /// Algorithm 1: adds the BDC / AMC / CDC penalties contributed by
    /// a freshly routed net (TPLC is tracked through
    /// `conflict_count`).
    fn apply_net_costs(&mut self, id: NetId, route: &RoutedNet) {
        if !self.consider_dvi {
            return;
        }
        let mut journal = Vec::new();
        for &via in route.vias() {
            let feas = self.feasible_dvics(id, route, via);
            let k = feas.len();
            let bdc = self.params.bdc(k);
            let cdc = self.params.cdc(k);
            for cand in &feas {
                let (lx, ly) = cand.loc;
                // Block-DVIC cost on the candidate location: the metal
                // points on both connected layers and the via slot.
                for layer in [via.below, via.below + 1] {
                    let p = GridPoint::new(layer, lx, ly);
                    if self.wire_penalty.contains(p) {
                        self.wire_penalty[p] += bdc;
                        journal.push(Delta {
                            map: MapKind::Wire,
                            point: p,
                            amount: bdc,
                        });
                    }
                }
                let pv = GridPoint::new(cand.via_layer, lx, ly);
                if self.via_penalty.contains(pv) {
                    self.via_penalty[pv] += bdc;
                    journal.push(Delta {
                        map: MapKind::ViaLoc,
                        point: pv,
                        amount: bdc,
                    });
                }
                // Conflict-DVIC cost on via locations that would share
                // this DVIC.
                for d in Dir::PLANAR {
                    let (sx, sy) = d.step();
                    let (mx, my) = (lx + sx, ly + sy);
                    if (mx, my) == (via.x, via.y) {
                        continue;
                    }
                    let pm = GridPoint::new(cand.via_layer, mx, my);
                    if self.via_penalty.contains(pm) {
                        self.via_penalty[pm] += cdc;
                        journal.push(Delta {
                            map: MapKind::ViaLoc,
                            point: pm,
                            amount: cdc,
                        });
                    }
                }
            }
        }
        // Along-metal cost: via locations adjacent to this net's
        // wires would lose DVICs to our metal. Sorted, not hashed, so
        // the journal (which checkpoints write verbatim) has one order.
        let amc = self.params.amc_cost();
        let mut wire_points: Vec<GridPoint> =
            route.edges().iter().flat_map(|e| e.endpoints()).collect();
        wire_points.sort_unstable();
        wire_points.dedup();
        for p in wire_points {
            for d in Dir::PLANAR {
                let n = p.stepped(d);
                if !self.grid.in_bounds(n) {
                    continue;
                }
                // Via layers whose vias land on this metal layer.
                for vl in [n.layer.wrapping_sub(1), n.layer] {
                    let pv = GridPoint::new(vl, n.x, n.y);
                    if vl < self.grid.via_layer_count() && self.via_penalty.contains(pv) {
                        self.via_penalty[pv] += amc;
                        journal.push(Delta {
                            map: MapKind::ViaLoc,
                            point: pv,
                            amount: amc,
                        });
                    }
                }
            }
        }
        self.journals[id.index()] = journal;
    }

    /// Reverses the cost assignment of a net (O(m) in its journal).
    fn remove_net_costs(&mut self, id: NetId) {
        let journal = std::mem::take(&mut self.journals[id.index()]);
        for d in journal {
            match d.map {
                MapKind::Wire => self.wire_penalty[d.point] -= d.amount,
                MapKind::ViaLoc => self.via_penalty[d.point] -= d.amount,
            }
        }
    }

    /// Cost of occupying metal point `p` while routing `net`: penalty
    /// map + history + present-sharing usage.
    pub fn vertex_cost(&self, p: GridPoint, net: NetId) -> i64 {
        let others = self.view.distinct_others(p, net);
        self.wire_penalty[p] + self.history[p] + self.params.usage_cost(others)
    }

    /// Cost of placing a via at `(vl, x, y)` while routing `net`, or
    /// `None` when the location is blocked (Algorithm 2).
    pub fn via_cost(&self, vl: u8, x: i32, y: i32) -> Option<i64> {
        if self.enforce_blocked && self.fvp[usize::from(vl)].would_create_fvp(x, y) {
            return None;
        }
        let p = GridPoint::new(vl, x, y);
        let mut cost = self.params.via_step() + self.via_penalty[p];
        if self.consider_tpl {
            cost += self.params.tplc(self.conflict_count[p]);
        }
        Some(cost)
    }

    /// Adds history cost at a congested metal point.
    pub fn bump_history(&mut self, p: GridPoint) {
        self.history[p] += self.params.history_step();
    }

    /// All currently congested metal points (≥ 2 distinct owners).
    ///
    /// O(#congested): the dense view tracks shared points in its
    /// overflow table, so no full-layout scan is needed.
    pub fn congested_points(&self) -> Vec<GridPoint> {
        self.view.multi_owner_points()
    }

    /// Distinct owners of a metal point, in first-registration order.
    pub fn owners_of(&self, p: GridPoint) -> Vec<NetId> {
        let mut distinct: Vec<NetId> = Vec::new();
        self.owners_into(p, &mut distinct);
        distinct
    }

    /// Allocation-free [`RouterState::owners_of`]: clears `out` and
    /// fills it with the distinct owners of `p` (the R&R hot path
    /// reuses one buffer across all iterations).
    pub fn owners_into(&self, p: GridPoint, out: &mut Vec<NetId>) {
        out.clear();
        for o in self.view.owners(p) {
            if !out.contains(&o) {
                out.push(o);
            }
        }
    }

    /// Sets or clears a wiring blockage at a metal point. Blocked
    /// points are hard obstacles for the path search; routes crossing
    /// a freshly blocked point must be ripped up by the caller.
    pub fn set_wire_blockage(&mut self, layer: u8, x: i32, y: i32, blocked: bool) {
        let p = GridPoint::new(layer, x, y);
        if self.wire_blocked.contains(p) {
            self.wire_blocked[p] = blocked;
        }
    }

    /// Seeds a net appended (or re-seeded after a pad move) by an ECO
    /// edit: grows the per-net arrays if needed and installs the pin
    /// pads and pin via stacks exactly as [`RouterState::new`] does.
    ///
    /// The slot must be empty: no installed route, no journal.
    pub fn add_net(&mut self, id: NetId, net: &Net) {
        if id.index() >= self.journals.len() {
            self.journals.resize_with(id.index() + 1, Vec::new);
        }
        self.solution.ensure_len(id.index() + 1);
        debug_assert!(self.solution.route(id).is_none(), "add_net over a route");
        debug_assert!(
            self.journals[id.index()].is_empty(),
            "add_net over a journal"
        );
        let stub = pin_stub(&self.grid, net);
        for &via in stub.vias() {
            self.pin_vias.insert((via.x, via.y));
            self.add_via_tracking(via);
        }
        self.view.add_route(id, &stub);
    }

    /// Removes a net's presence from the state for an ECO edit: rips
    /// its route (if any) and retracts its pin pads and via stacks.
    ///
    /// `net` is the net's *old* definition (the netlist may already be
    /// edited); `netlist` is the *post-edit* netlist, consulted so pin
    /// via stacks shared with a surviving net stay seeded. Shared pin
    /// positions keep their FVP via bit and `pin_vias` entry, but the
    /// removed net's TPL conflict contribution is still retracted —
    /// mirroring how [`RouterState::new`] counts one contribution per
    /// net even on shared positions.
    pub fn remove_net(&mut self, id: NetId, net: &Net, netlist: &Netlist) {
        self.uninstall_route(id);
        let stub = pin_stub(&self.grid, net);
        for &via in stub.vias() {
            let shared = netlist
                .iter()
                .filter(|&(other, _)| other != id)
                .any(|(_, n)| n.pins().iter().any(|p| (p.x, p.y) == (via.x, via.y)));
            if shared {
                // Keep the via bit; retract only this net's conflict
                // contribution.
                let vl = via.below;
                for (dx, dy) in conflict_offsets() {
                    let p = GridPoint::new(vl, via.x + dx, via.y + dy);
                    if let Some(c) = self.conflict_count.get_mut(p) {
                        *c -= 1;
                    }
                }
            } else {
                self.remove_via_tracking(via);
                self.pin_vias.remove(&(via.x, via.y));
            }
        }
        self.view.remove_route(id, &stub);
    }
}

/// The fixed via stack + pad points contributed by a net's pins: one
/// via per layer from the pin layer up to the first routing layer.
fn pin_stub(grid: &RoutingGrid, net: &Net) -> RoutedNet {
    let first_routing = grid.first_routing_layer();
    let mut vias = Vec::new();
    for &Pin { x, y } in net.pins() {
        for l in 0..first_routing {
            vias.push(Via::new(l, x, y));
        }
    }
    RoutedNet::new(Vec::new(), vias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_grid::{Axis, Net, Netlist, Pin, WireEdge};

    fn setup() -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 8), Pin::new(8, 8)]));
        let grid = RoutingGrid::three_layer(16, 16);
        let state = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, state)
    }

    fn route_a() -> RoutedNet {
        RoutedNet::new(
            (4..8)
                .map(|x| WireEdge::new(1, x, 4, Axis::Horizontal))
                .collect(),
            vec![Via::new(0, 4, 4), Via::new(0, 8, 4)],
        )
    }

    #[test]
    fn pins_are_seeded() {
        let (_nl, state) = setup();
        // Pin pads on M1 and M2 are owned.
        assert!(state
            .view
            .occupied_by_other(GridPoint::new(1, 4, 4), NetId(1)));
        assert!(state.view.via_at(0, 4, 4));
        assert!(state.is_pin_via(Via::new(0, 4, 4)));
        assert!(!state.is_pin_via(Via::new(1, 4, 4)));
        // Pin vias participate in TPL conflict counts.
        assert!(state.conflict_count[GridPoint::new(0, 5, 4)] > 0);
    }

    #[test]
    fn install_uninstall_round_trips_costs() {
        let (_nl, mut state) = setup();
        let wp_before = state.wire_penalty.clone();
        let vp_before = state.via_penalty.clone();
        let cc_before = state.conflict_count.clone();
        state.install_route(NetId(0), route_a());
        // Costs changed somewhere.
        assert!(state.via_penalty != vp_before || state.wire_penalty != wp_before);
        let removed = state.uninstall_route(NetId(0)).unwrap();
        assert_eq!(removed, route_a());
        assert_eq!(state.wire_penalty, wp_before);
        assert_eq!(state.via_penalty, vp_before);
        assert_eq!(state.conflict_count, cc_before);
        assert!(state.solution.route(NetId(0)).is_none());
    }

    #[test]
    fn restore_with_the_install_journal_reproduces_install() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        let wp = state.wire_penalty.clone();
        let vp = state.via_penalty.clone();
        let cc = state.conflict_count.clone();
        let journal = state.journals[0].clone();
        assert!(!journal.is_empty());
        state.uninstall_route(NetId(0));
        state.restore_route(NetId(0), route_a(), journal.clone());
        assert_eq!(state.wire_penalty, wp);
        assert_eq!(state.via_penalty, vp);
        assert_eq!(state.conflict_count, cc);
        // The journal is kept verbatim, not recomputed.
        assert_eq!(state.journals[0].len(), journal.len());
        assert_eq!(state.solution.route(NetId(0)), Some(&route_a()));
    }

    #[test]
    fn vertex_cost_reflects_usage() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        let p = GridPoint::new(1, 6, 4);
        // Foreign net pays usage there; owner does not.
        assert!(state.vertex_cost(p, NetId(1)) >= state.params.usage_cost(1));
        assert!(state.vertex_cost(p, NetId(0)) < state.params.usage_cost(1));
    }

    #[test]
    fn via_cost_includes_tpl_conflicts() {
        let (_nl, state) = setup();
        // Next to pin via (4,4): one conflict at least.
        let near = state.via_cost(0, 5, 4).unwrap();
        let far = state.via_cost(0, 12, 12).unwrap();
        assert!(near > far);
    }

    #[test]
    fn blocked_vias_are_refused_when_enforced() {
        let (_nl, mut state) = setup();
        // Manufacture an FVP-threatening cluster on via layer 1.
        for &(x, y) in &[(4, 4), (6, 4), (5, 5)] {
            state.add_via_tracking(Via::new(1, x, y));
        }
        // (5,6) would complete a 4-via pattern without a diagonal
        // corner pair -> blocked.
        assert!(state.fvp[1].would_create_fvp(5, 6));
        assert!(state.via_cost(1, 5, 6).is_some(), "not enforced yet");
        state.enforce_blocked = true;
        assert!(state.via_cost(1, 5, 6).is_none());
        assert!(state.via_cost(1, 10, 10).is_some());
    }

    /// Whether one more via at `(x, y)` on via layer `vl` makes a 3×3
    /// window an FVP: the nine windows are read from the occupancy
    /// view and classified one by one, sharing nothing with the FVP
    /// index.
    fn rescan_blocked(state: &RouterState, vl: u8, x: i32, y: i32) -> bool {
        let (w, h) = (state.grid.width(), state.grid.height());
        let origins = |c: i32, n: i32| (c - 2).max(0)..=c.min(n - 3);
        origins(x, w)
            .flat_map(|ox| origins(y, h).map(move |oy| (ox, oy)))
            .any(|(ox, oy)| {
                let mut vias = vec![(x - ox, y - oy)];
                for dx in 0..3 {
                    for dy in 0..3 {
                        if state.view.via_at(vl, ox + dx, oy + dy) {
                            vias.push((dx, dy));
                        }
                    }
                }
                tpl_decomp::window_is_fvp(&vias)
            })
    }

    /// Asserts that `via_cost` refuses exactly the via locations the
    /// window rescan blocks, everywhere on the grid; returns how many
    /// there are.
    fn assert_blocking_matches_rescan(state: &RouterState, what: &str) -> usize {
        assert!(state.enforce_blocked);
        let mut blocked = 0;
        for vl in 0..state.grid.via_layer_count() {
            for x in 0..state.grid.width() {
                for y in 0..state.grid.height() {
                    let rescan = rescan_blocked(state, vl, x, y);
                    assert_eq!(
                        state.via_cost(vl, x, y).is_none(),
                        rescan,
                        "{what} at v{vl} ({x}, {y})"
                    );
                    blocked += usize::from(rescan);
                }
            }
        }
        blocked
    }

    /// After the TPL phase of a SIM and a SID benchmark instance,
    /// `via_cost` refuses exactly the via locations the window rescan
    /// blocks; and again once every other net is ripped up, which
    /// takes vias out of blocking windows, and once those routes are
    /// back.
    #[test]
    fn via_cost_refuses_exactly_the_rescanned_sites() {
        use crate::{RouterConfig, RoutingSession};
        use benchgen::BenchSpec;
        for (kind, circuit) in [(SadpKind::Sim, "alu"), (SadpKind::Sid, "div")] {
            let spec = BenchSpec::paper_suite()
                .into_iter()
                .find(|s| s.name == circuit)
                .unwrap()
                .scaled(0.1);
            let (grid, nl) = (spec.grid(), spec.generate(1));
            let mut session =
                RoutingSession::try_new(&grid, &nl, RouterConfig::full(kind)).unwrap();
            session.tpl_removal(&mut sadp_trace::NoopObserver);
            let what = format!("{circuit} {kind:?}");
            let blocked = assert_blocking_matches_rescan(session.state(), &what);
            assert!(blocked > 0, "{what}: no blocked site");
            let state = &mut session.state;
            let ripped: Vec<(NetId, RoutedNet)> = nl
                .iter()
                .step_by(2)
                .filter_map(|(id, _)| Some((id, state.uninstall_route(id)?)))
                .collect();
            let after_rip = assert_blocking_matches_rescan(state, &format!("{what} ripped"));
            assert!(after_rip < blocked, "{what}: the rip-up unblocked nothing");
            for (id, route) in ripped {
                state.install_route(id, route);
            }
            let restored = assert_blocking_matches_rescan(state, &format!("{what} restored"));
            assert_eq!(restored, blocked, "{what}");
        }
    }

    #[test]
    fn congestion_is_reported() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        // Net b routed straight through net a's wire.
        state.install_route(
            NetId(1),
            RoutedNet::new(
                (4..8)
                    .map(|x| WireEdge::new(1, x, 4, Axis::Horizontal))
                    .collect(),
                vec![Via::new(0, 4, 8), Via::new(0, 8, 8)],
            ),
        );
        let congested = state.congested_points();
        assert!(!congested.is_empty());
        let owners = state.owners_of(GridPoint::new(1, 5, 4));
        assert_eq!(owners.len(), 2);
    }

    #[test]
    fn feasible_dvics_counted() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        let route = state.solution.route(NetId(0)).unwrap().clone();
        let feas = state.feasible_dvics(NetId(0), &route, Via::new(0, 4, 4));
        assert!(!feas.is_empty());
        assert!(feas.len() <= 4);
    }

    #[test]
    fn history_accumulates() {
        let (_nl, mut state) = setup();
        let p = GridPoint::new(1, 5, 5);
        let before = state.vertex_cost(p, NetId(0));
        state.bump_history(p);
        state.bump_history(p);
        assert_eq!(
            state.vertex_cost(p, NetId(0)),
            before + 2 * state.params.history_step()
        );
    }
}
