//! Mutable router state: the evolving solution, occupancy view, cost
//! maps, FVP indices, blocked via locations, and the per-net cost
//! journals implementing Algorithm 1.

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
    /// Via locations blocked because an insertion would create an FVP
    /// (Algorithm 2).
    pub blocked: DenseGrid<bool>,
    /// Metal points blocked for wiring by layout blockages (ECO
    /// edits). Unlike `blocked`, these are hard obstacles: the path
    /// search never occupies them, independent of `enforce_blocked`.
    pub wire_blocked: DenseGrid<bool>,
    /// Enforce `blocked` during path search (phase 2).
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
            blocked: DenseGrid::new(via_layers, w, h, false),
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
        self.refresh_blocked_around(vl, via.x, via.y);
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
        self.refresh_blocked_around(vl, via.x, via.y);
    }

    /// Recomputes the blocked flags in the window around a changed
    /// via.
    pub fn refresh_blocked_around(&mut self, vl: u8, x: i32, y: i32) {
        if !self.consider_tpl {
            return;
        }
        for dx in -2..=2 {
            for dy in -2..=2 {
                let p = GridPoint::new(vl, x + dx, y + dy);
                if self.blocked.contains(p) {
                    let b = self.fvp[vl as usize].would_create_fvp(p.x, p.y);
                    self.blocked[p] = b;
                }
            }
        }
    }

    /// Recomputes all blocked flags (start of the TPL R&R phase,
    /// Algorithm 2 line 2).
    pub fn refresh_all_blocked(&mut self) {
        for vl in 0..self.grid.via_layer_count() {
            for x in 0..self.grid.width() {
                for y in 0..self.grid.height() {
                    let b = self.fvp[vl as usize].would_create_fvp(x, y);
                    self.blocked[GridPoint::new(vl, x, y)] = b;
                }
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
        let p = GridPoint::new(vl, x, y);
        if self.enforce_blocked && self.blocked[p] {
            return None;
        }
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
                self.refresh_blocked_around(vl, via.x, via.y);
            } else {
                self.remove_via_tracking(via);
                self.pin_vias.remove(&(via.x, via.y));
            }
        }
        self.view.remove_route(id, &stub);
    }
}

/// A route lifted out of the state by [`RouterState::suspend_route`],
/// carrying its exact cost journal so [`RouterState::resume_route`]
/// can restore the state byte-for-byte.
///
/// Unlike an uninstall/install round trip — which *recomputes* the
/// journal against whatever the state looks like at reinstall time —
/// a suspend/resume pair preserves the original `Delta` list, so the
/// state after resume is identical to the state before suspend even
/// if unrelated costs changed in between (they did not, when the
/// caller guarantees disjoint footprints).
#[derive(Debug)]
pub struct SuspendedRoute {
    route: RoutedNet,
    journal: Vec<Delta>,
}

impl SuspendedRoute {
    /// Rebuilds a suspension from a persisted route + journal pair
    /// (checkpoint restore): [`RouterState::resume_route`] then
    /// replays the journal verbatim, exactly as if the route had been
    /// suspended in this process.
    pub(crate) fn from_parts(route: RoutedNet, journal: Vec<Delta>) -> SuspendedRoute {
        SuspendedRoute { route, journal }
    }

    /// Consumes the suspension, yielding the bare route (used when the
    /// caller decides to *reinstall through the normal path* instead of
    /// resuming, e.g. the serial reroute-failure fallback).
    pub fn into_route(self) -> RoutedNet {
        self.route
    }

    /// The suspended route.
    pub fn route(&self) -> &RoutedNet {
        &self.route
    }
}

impl RouterState {
    /// Lifts a route out of the state, preserving its cost journal.
    ///
    /// Cost maps, via tracking, and occupancy are reverted exactly as
    /// [`RouterState::uninstall_route`] would; the difference is the
    /// returned [`SuspendedRoute`] retains the journal so
    /// [`RouterState::resume_route`] can put everything back without
    /// recomputation.
    pub fn suspend_route(&mut self, id: NetId) -> Option<SuspendedRoute> {
        let route = self.solution.take_route(id)?;
        let journal = std::mem::take(&mut self.journals[id.index()]);
        for d in &journal {
            match d.map {
                MapKind::Wire => self.wire_penalty[d.point] -= d.amount,
                MapKind::ViaLoc => self.via_penalty[d.point] -= d.amount,
            }
        }
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.remove_via_tracking(via);
            }
        }
        self.view.remove_route(id, &route);
        Some(SuspendedRoute { route, journal })
    }

    /// Puts a suspended route back, replaying its preserved journal.
    ///
    /// Exact inverse of [`RouterState::suspend_route`]: after the
    /// call the state is byte-identical to the state before the
    /// suspension (assuming no overlapping mutations in between).
    pub fn resume_route(&mut self, id: NetId, suspended: SuspendedRoute) {
        let SuspendedRoute { route, journal } = suspended;
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

    /// Reverts one [`RouterState::bump_history`] at `p` (used when a
    /// speculative wave is rolled back).
    pub fn unbump_history(&mut self, p: GridPoint) {
        self.history[p] -= self.params.history_step();
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
    fn suspend_resume_round_trips_state_exactly() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        let wp = state.wire_penalty.clone();
        let vp = state.via_penalty.clone();
        let cc = state.conflict_count.clone();
        let journal_len = state.journals[0].len();
        let s = state.suspend_route(NetId(0)).unwrap();
        assert_eq!(s.route(), &route_a());
        // Everything reverted while suspended.
        assert!(state.solution.route(NetId(0)).is_none());
        assert!(state.journals[0].is_empty());
        state.resume_route(NetId(0), s);
        assert_eq!(state.wire_penalty, wp);
        assert_eq!(state.via_penalty, vp);
        assert_eq!(state.conflict_count, cc);
        // The journal is preserved verbatim, not recomputed.
        assert_eq!(state.journals[0].len(), journal_len);
        assert_eq!(state.solution.route(NetId(0)), Some(&route_a()));
    }

    #[test]
    fn unbump_reverts_bump() {
        let (_nl, mut state) = setup();
        let p = GridPoint::new(1, 5, 5);
        let before = state.history[p];
        state.bump_history(p);
        assert_ne!(state.history[p], before);
        state.unbump_history(p);
        assert_eq!(state.history[p], before);
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
        state.refresh_all_blocked();
        // (5,6) would complete a 4-via pattern without a diagonal
        // corner pair -> blocked.
        assert!(state.fvp[1].would_create_fvp(5, 6));
        assert!(state.via_cost(1, 5, 6).is_some(), "not enforced yet");
        state.enforce_blocked = true;
        assert!(state.via_cost(1, 5, 6).is_none());
        assert!(state.via_cost(1, 10, 10).is_some());
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
