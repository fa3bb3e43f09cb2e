//! Mutable router state: the evolving solution, occupancy view, pin
//! index, cost maps, FVP indices (which also answer the blocked via
//! locations of Algorithm 2), and one DVIC-feasibility byte per
//! via of every installed route.
//!
//! Algorithm 1's BDC / AMC / CDC charges of a net are a pure function
//! of its route and of which DVI candidates of each via were feasible
//! when the route was installed. The state keeps only those bytes and
//! re-derives the charges with `algorithm1_deltas` to add them
//! (install, checkpoint restore) or subtract them (uninstall).
//! Feasibility is never re-checked at uninstall: other nets have moved
//! since, so the subtraction would no longer cancel the addition.

use dvi::{dvic_feasible, LayoutView};
use sadp_grid::{
    DenseGrid, Dir, GridPoint, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution,
    SadpKind, Via,
};
use tpl_decomp::{conflict_offsets, FvpIndex};

use crate::costs::CostParams;

/// Which penalty map an Algorithm 1 delta applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MapKind {
    /// Metal-point penalty (BDC contributions on wires).
    Wire,
    /// Via-location penalty (BDC / AMC / CDC contributions).
    ViaLoc,
}

/// Algorithm 1's penalty deltas of one route, in one fixed order:
/// calls `f(map, point, amount)` once per delta.
///
/// `masks[i]` is the DVIC-feasibility byte of `route.vias()[i]`: bit
/// `j` is set when its candidate toward `Dir::PLANAR[j]` was feasible.
/// Each feasible candidate of a via with `k` of them charges BDC(`k`)
/// on its location (both metal layers and the via slot) and CDC(`k`)
/// on the via locations that would share it; every via location
/// beside the route's metal is charged AMC. Points off the grid are
/// skipped, so hostile masks cannot index out of bounds.
pub(crate) fn algorithm1_deltas(
    grid: &RoutingGrid,
    params: &CostParams,
    route: &RoutedNet,
    masks: &[u8],
    mut f: impl FnMut(MapKind, GridPoint, i64),
) {
    let via_layers = grid.via_layer_count();
    let via_slot = |vl: u8, x: i32, y: i32| vl < via_layers && grid.in_bounds_xy(x, y);
    for (via, &mask) in route.vias().iter().zip(masks) {
        let k = mask.count_ones() as usize;
        let (bdc, cdc) = (params.bdc(k), params.cdc(k));
        for (i, d) in Dir::PLANAR.into_iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let (sx, sy) = d.step();
            let (lx, ly) = (via.x + sx, via.y + sy);
            // Block-DVIC cost on the candidate location: the metal
            // points on both connected layers and the via slot.
            for layer in [via.below, via.below + 1] {
                let p = GridPoint::new(layer, lx, ly);
                if grid.in_bounds(p) {
                    f(MapKind::Wire, p, bdc);
                }
            }
            if via_slot(via.below, lx, ly) {
                f(MapKind::ViaLoc, GridPoint::new(via.below, lx, ly), bdc);
            }
            // Conflict-DVIC cost on via locations that would share
            // this DVIC.
            for m in Dir::PLANAR {
                let (mx, my) = (lx + m.step().0, ly + m.step().1);
                if (mx, my) != (via.x, via.y) && via_slot(via.below, mx, my) {
                    f(MapKind::ViaLoc, GridPoint::new(via.below, mx, my), cdc);
                }
            }
        }
    }
    // Along-metal cost: via locations adjacent to this net's wires
    // would lose DVICs to our metal. The wire endpoints are the
    // covered points with a planar arm, in sorted order.
    let amc = params.amc_cost();
    for &p in route.covered_points_sorted() {
        if route.arm_mask(p) == 0 {
            continue;
        }
        for d in Dir::PLANAR {
            let n = p.stepped(d);
            if !grid.in_bounds(n) {
                continue;
            }
            // Via layers whose vias land on this metal layer.
            for vl in [n.layer.wrapping_sub(1), n.layer] {
                if vl < via_layers {
                    f(MapKind::ViaLoc, GridPoint::new(vl, n.x, n.y), amc);
                }
            }
        }
    }
}

/// Dense pin index: for every grid cell, the nets pinned there. It is
/// the router's one record of pin positions: [`RouterState::is_pin_via`]
/// asks it for every via a route install or uninstall touches, and the
/// R&R loop once per congested point.
///
/// CSR layout (one offsets array over the cells, one packed net
/// array) instead of a `HashMap<(i32, i32), Vec<NetId>>`, so a lookup
/// neither hashes nor chases a per-cell `Vec`. Pins are fixed, so the
/// index is derived from the netlist alone: [`RouterState::new`]
/// builds it, and an ECO edit (`RoutingSession::apply_delta`) builds
/// it again from the edited netlist — one counting pass over the pins
/// and one prefix sum over the cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PinIndex {
    width: i32,
    height: i32,
    offsets: Vec<u32>,
    nets: Vec<NetId>,
}

impl PinIndex {
    /// Builds the index for a netlist on a grid. Out-of-bounds pins
    /// (rejected by validation anyway) are ignored.
    pub fn build(grid: &RoutingGrid, netlist: &Netlist) -> PinIndex {
        let (width, height) = (grid.width(), grid.height());
        let cells = (width as usize) * (height as usize);
        let cell = |x: i32, y: i32| -> Option<usize> {
            (x >= 0 && y >= 0 && x < width && y < height)
                .then(|| (y as usize) * (width as usize) + x as usize)
        };
        let mut offsets = vec![0u32; cells + 1];
        for (_, net) in netlist.iter() {
            for p in net.pins() {
                if let Some(c) = cell(p.x, p.y) {
                    offsets[c + 1] += 1;
                }
            }
        }
        for c in 0..cells {
            offsets[c + 1] += offsets[c];
        }
        let mut nets = vec![NetId(0); offsets[cells] as usize];
        let mut cursor = offsets.clone();
        for (id, net) in netlist.iter() {
            for p in net.pins() {
                if let Some(c) = cell(p.x, p.y) {
                    nets[cursor[c] as usize] = id;
                    cursor[c] += 1;
                }
            }
        }
        PinIndex {
            width,
            height,
            offsets,
            nets,
        }
    }

    /// The nets pinned at `(x, y)` (netlist order; empty off-grid).
    pub fn nets_at(&self, x: i32, y: i32) -> &[NetId] {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return &[];
        }
        let c = (y as usize) * (self.width as usize) + x as usize;
        &self.nets[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

/// The router's complete mutable state.
///
/// Invariants maintained across [`RouterState::install_route`] /
/// [`RouterState::uninstall_route`] pairs:
///
/// * `view` mirrors `solution` plus the permanent pin seeds;
/// * `fvp[l]` and `conflict_count` track exactly the vias present
///   (pins seeded once, route vias added/removed with their net);
/// * the penalty maps hold exactly the `algorithm1_deltas` of every
///   installed route under its stored DVIC-feasibility bytes.
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
    /// The nets pinned at each cell (fixed pads and via stacks): pin
    /// vias are exempt from incremental via bookkeeping and from
    /// rip-up, and a net is never ripped for congestion at its own
    /// pad.
    pub pins: PinIndex,
    /// Per net: the DVIC-feasibility byte of each via of its installed
    /// route, in `RoutedNet::vias` order, as [`algorithm1_deltas`]
    /// reads them. `None` when no cost was charged: the net is
    /// unrouted, or the state does not consider DVI.
    pub(crate) dvic: Vec<Option<Box<[u8]>>>,
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
            pins: PinIndex::build(&grid, netlist),
            dvic: vec![None; netlist.len()],
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
                state.add_via_tracking(via);
            }
            state.view.add_route(id, &stub);
        }
        state
    }

    /// `true` when `via` belongs to a fixed pin via stack (below the
    /// first routing layer).
    pub fn is_pin_via(&self, via: Via) -> bool {
        via.below < self.grid.first_routing_layer() && !self.pins.nets_at(via.x, via.y).is_empty()
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
        let masks = self.consider_dvi.then(|| self.dvic_masks(id, &route));
        self.install_with(id, route, masks);
    }

    /// Uninstalls a route, reversing everything `install_route` did.
    /// Returns the removed route.
    pub fn uninstall_route(&mut self, id: NetId) -> Option<RoutedNet> {
        let route = self.solution.take_route(id)?;
        if let Some(masks) = self.dvic[id.index()].take() {
            self.charge(&route, &masks, -1);
        }
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.remove_via_tracking(via);
            }
        }
        self.view.remove_route(id, &route);
        Some(route)
    }

    /// Installs a route with the DVIC-feasibility bytes it was
    /// installed with before (checkpoint restore): occupancy and via
    /// tracking as [`RouterState::install_route`] does, but feasibility
    /// is not re-checked, because against the restored state it would
    /// depend on install order.
    pub(crate) fn restore_route(&mut self, id: NetId, route: RoutedNet, masks: Option<Box<[u8]>>) {
        self.view.add_route(id, &route);
        self.install_with(id, route, masks);
    }

    /// The rest of an install once the route is in the view: via
    /// tracking, the charges of `masks`, and the solution.
    fn install_with(&mut self, id: NetId, route: RoutedNet, masks: Option<Box<[u8]>>) {
        for &via in route.vias() {
            if !self.is_pin_via(via) {
                self.add_via_tracking(via);
            }
        }
        if let Some(masks) = &masks {
            self.charge(&route, masks, 1);
        }
        self.dvic[id.index()] = masks;
        self.solution.set_route(id, route);
    }

    /// The DVIC-feasibility byte of each via of `route`, which must be
    /// in the view already: bit `i` is set when the candidate toward
    /// `Dir::PLANAR[i]` is feasible now.
    fn dvic_masks(&self, net: NetId, route: &RoutedNet) -> Box<[u8]> {
        route
            .vias()
            .iter()
            .map(|&via| {
                Dir::PLANAR
                    .into_iter()
                    .enumerate()
                    .fold(0u8, |mask, (i, d)| {
                        let ok = dvic_feasible(self.kind, &self.view, route, net, via, d);
                        mask | (u8::from(ok) << i)
                    })
            })
            .collect()
    }

    /// Adds (`sign` 1) or subtracts (`sign` −1) the Algorithm 1
    /// deltas of `route` under `masks` to the penalty maps.
    fn charge(&mut self, route: &RoutedNet, masks: &[u8], sign: i64) {
        let (wire, via) = (&mut self.wire_penalty, &mut self.via_penalty);
        algorithm1_deltas(
            &self.grid,
            &self.params,
            route,
            masks,
            |map, p, amount| match map {
                MapKind::Wire => wire[p] += sign * amount,
                MapKind::ViaLoc => via[p] += sign * amount,
            },
        );
    }

    /// Cost of occupying metal point `p` while routing `net`: penalty
    /// map + history + present-sharing usage.
    pub fn vertex_cost(&self, p: GridPoint, net: NetId) -> i64 {
        self.vertex_cost_at(self.history.index_of(p), net)
    }

    /// [`RouterState::vertex_cost`] of the metal point at index `i` of
    /// the metal-layer maps ([`DenseGrid::index_of`]): the search
    /// kernel's form.
    #[inline]
    pub(crate) fn vertex_cost_at(&self, i: usize, net: NetId) -> i64 {
        let others = self.view.distinct_others_at(i, net);
        self.wire_penalty.as_slice()[i]
            + self.history.as_slice()[i]
            + self.params.usage_cost(others)
    }

    /// Cost of placing a via at `(vl, x, y)` while routing `net`, or
    /// `None` when the location is blocked (Algorithm 2).
    pub fn via_cost(&self, vl: u8, x: i32, y: i32) -> Option<i64> {
        let i = self.via_penalty.index_of(GridPoint::new(vl, x, y));
        self.via_cost_at(vl, x, y, i)
    }

    /// [`RouterState::via_cost`] with `i` the index of `(vl, x, y)` in
    /// the via-layer maps: the search kernel's form. The FVP index
    /// keeps its own `(x, y)` addressing.
    #[inline]
    pub(crate) fn via_cost_at(&self, vl: u8, x: i32, y: i32, i: usize) -> Option<i64> {
        debug_assert_eq!(i, self.via_penalty.index_of(GridPoint::new(vl, x, y)));
        if self.enforce_blocked && self.fvp[usize::from(vl)].would_create_fvp(x, y) {
            return None;
        }
        let mut cost = self.params.via_step() + self.via_penalty.as_slice()[i];
        if self.consider_tpl {
            cost += self.params.tplc(self.conflict_count.as_slice()[i]);
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

    /// Distinct owners of a metal point, in ascending id order.
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
    /// The pin index is left to the caller, which rebuilds it once
    /// the whole edit is applied.
    ///
    /// The slot must be empty: no installed route, no charged costs.
    pub(crate) fn add_net(&mut self, id: NetId, net: &Net) {
        if id.index() >= self.dvic.len() {
            self.dvic.resize(id.index() + 1, None);
        }
        self.solution.ensure_len(id.index() + 1);
        debug_assert!(self.solution.route(id).is_none(), "add_net over a route");
        debug_assert!(
            self.dvic[id.index()].is_none(),
            "add_net over charged costs"
        );
        let stub = pin_stub(&self.grid, net);
        for &via in stub.vias() {
            self.add_via_tracking(via);
        }
        self.view.add_route(id, &stub);
    }

    /// Removes a net's presence from the state for an ECO edit: rips
    /// its route (if any) and retracts its pin pads and via stacks.
    ///
    /// `net` is the net's *old* definition (the netlist may already be
    /// edited); `netlist` is the *post-edit* netlist, consulted so pin
    /// via stacks shared with a surviving net stay seeded. The pin
    /// index cannot answer that: it still describes the netlist before
    /// the edit until the caller rebuilds it. Shared pin positions keep
    /// their FVP via bit, but the removed net's TPL conflict
    /// contribution is still retracted — mirroring how
    /// [`RouterState::new`] counts one contribution per net even on
    /// shared positions.
    pub(crate) fn remove_net(&mut self, id: NetId, net: &Net, netlist: &Netlist) {
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
            }
        }
        self.view.remove_route(id, &stub);
    }
}

/// The fixed via stacks of a net's pins, one via per layer from the
/// pin layer up to the first routing layer, pin by pin (unsorted, and
/// a pin given twice gives its stack twice). Every installed route
/// contains them.
pub(crate) fn pin_vias(grid: &RoutingGrid, net: &Net) -> Vec<Via> {
    let first_routing = grid.first_routing_layer();
    let mut vias = Vec::new();
    for &Pin { x, y } in net.pins() {
        for l in 0..first_routing {
            vias.push(Via::new(l, x, y));
        }
    }
    vias
}

/// The fixed via stack + pad points contributed by a net's pins.
fn pin_stub(grid: &RoutingGrid, net: &Net) -> RoutedNet {
    RoutedNet::new(Vec::new(), pin_vias(grid, net))
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
    fn pin_index_lists_the_nets_pinned_at_each_cell() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(1, 1), Pin::new(8, 1)]));
        nl.push(Net::new("b", vec![Pin::new(9, 5), Pin::new(1, 1)]));
        let pins = PinIndex::build(&RoutingGrid::three_layer(16, 16), &nl);
        assert_eq!(pins.nets_at(1, 1), &[NetId(0), NetId(1)]);
        assert_eq!(pins.nets_at(9, 5), &[NetId(1)]);
        assert!(pins.nets_at(2, 2).is_empty());
        assert!(pins.nets_at(-1, 1).is_empty() && pins.nets_at(16, 0).is_empty());
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
    fn restore_with_the_install_masks_reproduces_install() {
        let (_nl, mut state) = setup();
        state.install_route(NetId(0), route_a());
        let wp = state.wire_penalty.clone();
        let vp = state.via_penalty.clone();
        let cc = state.conflict_count.clone();
        let masks = state.dvic[0].clone().expect("costs charged");
        assert_eq!(masks.len(), route_a().vias().len());
        assert!(masks.iter().all(|&m| m != 0 && m <= 0xF));
        state.uninstall_route(NetId(0));
        assert!(state.dvic[0].is_none());
        // Restore charges the bytes as given, re-checking nothing.
        state.restore_route(NetId(0), route_a(), Some(masks.clone()));
        assert_eq!(state.wire_penalty, wp);
        assert_eq!(state.via_penalty, vp);
        assert_eq!(state.conflict_count, cc);
        assert_eq!(state.dvic[0].as_ref(), Some(&masks));
        assert_eq!(state.solution.route(NetId(0)), Some(&route_a()));
    }

    #[test]
    fn a_state_without_dvi_costs_charges_nothing() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
        let grid = RoutingGrid::three_layer(16, 16);
        let mut state =
            RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), false, true);
        state.install_route(NetId(0), route_a());
        assert!(state.dvic[0].is_none());
        assert!(state.wire_penalty.as_slice().iter().all(|&v| v == 0));
        assert!(state.via_penalty.as_slice().iter().all(|&v| v == 0));
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

    /// Algorithm 1's charges of a freshly installed route as the
    /// router journaled them before it kept one byte per via: the
    /// feasible candidates built by `dvi::feasible_candidate`, and the
    /// AMC walk over the route's edge endpoints, collected, sorted and
    /// deduplicated. The oracle of [`algorithm1_deltas`].
    fn journal_oracle(
        state: &RouterState,
        id: NetId,
        route: &RoutedNet,
    ) -> Vec<(MapKind, GridPoint, i64)> {
        let mut journal = Vec::new();
        for &via in route.vias() {
            let feas: Vec<dvi::Candidate> = Dir::PLANAR
                .iter()
                .filter_map(|&d| {
                    dvi::feasible_candidate(state.kind, &state.view, route, id, via, d)
                })
                .collect();
            let k = feas.len();
            let (bdc, cdc) = (state.params.bdc(k), state.params.cdc(k));
            for cand in &feas {
                let (lx, ly) = cand.loc;
                for layer in [via.below, via.below + 1] {
                    let p = GridPoint::new(layer, lx, ly);
                    if state.wire_penalty.contains(p) {
                        journal.push((MapKind::Wire, p, bdc));
                    }
                }
                let pv = GridPoint::new(cand.via_layer, lx, ly);
                if state.via_penalty.contains(pv) {
                    journal.push((MapKind::ViaLoc, pv, bdc));
                }
                for d in Dir::PLANAR {
                    let (sx, sy) = d.step();
                    let (mx, my) = (lx + sx, ly + sy);
                    if (mx, my) == (via.x, via.y) {
                        continue;
                    }
                    let pm = GridPoint::new(cand.via_layer, mx, my);
                    if state.via_penalty.contains(pm) {
                        journal.push((MapKind::ViaLoc, pm, cdc));
                    }
                }
            }
        }
        let amc = state.params.amc_cost();
        let mut wire_points: Vec<GridPoint> =
            route.edges().iter().flat_map(|e| e.endpoints()).collect();
        wire_points.sort_unstable();
        wire_points.dedup();
        for p in wire_points {
            for d in Dir::PLANAR {
                let n = p.stepped(d);
                if !state.grid.in_bounds(n) {
                    continue;
                }
                for vl in [n.layer.wrapping_sub(1), n.layer] {
                    let pv = GridPoint::new(vl, n.x, n.y);
                    if vl < state.grid.via_layer_count() && state.via_penalty.contains(pv) {
                        journal.push((MapKind::ViaLoc, pv, amc));
                    }
                }
            }
        }
        journal
    }

    /// Installs `route` and asserts that the deltas its stored bytes
    /// expand to are the oracle journal of this moment, as sorted
    /// lists.
    fn install_checked(state: &mut RouterState, id: NetId, route: RoutedNet) {
        state.install_route(id, route);
        let route = state.solution.route(id).expect("installed");
        let masks = state.dvic[id.index()].as_deref().expect("charged");
        assert_eq!(masks.len(), route.vias().len());
        let mut got = Vec::new();
        algorithm1_deltas(&state.grid, &state.params, route, masks, |m, p, a| {
            got.push((m, p, a))
        });
        let mut want = journal_oracle(state, id, route);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "net {}", id.0);
    }

    /// Routes the nets of `order` one by one as initial routing does,
    /// checking every install against the oracle; returns how many
    /// were routed.
    fn route_checked(state: &mut RouterState, netlist: &Netlist, order: &[NetId]) -> usize {
        let mut scratch = crate::search::SearchScratch::new();
        let mut routed = 0;
        for &id in order {
            if let Some(route) = crate::dijkstra::route_net(state, id, &netlist[id], &mut scratch) {
                install_checked(state, id, route);
                routed += 1;
            }
        }
        routed
    }

    /// A seeded Fisher–Yates shuffle (splitmix64 steps).
    fn shuffled(mut ids: Vec<NetId>, seed: u64) -> Vec<NetId> {
        let mut s = seed;
        for i in (1..ids.len()).rev() {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ids.swap(i, (z % (i as u64 + 1)) as usize);
        }
        ids
    }

    /// Uninstalls every routed net in a seeded shuffled order and
    /// asserts both penalty maps are zero everywhere after.
    fn uninstall_all_to_zero(state: &mut RouterState, seed: u64) {
        let ids: Vec<NetId> = state.solution.iter().map(|(id, _)| id).collect();
        assert!(ids.len() > 100, "only {} nets routed", ids.len());
        for id in shuffled(ids, seed) {
            state.uninstall_route(id).expect("routed");
            assert!(state.dvic[id.index()].is_none());
        }
        assert!(state.wire_penalty.as_slice().iter().all(|&v| v == 0));
        assert!(state.via_penalty.as_slice().iter().all(|&v| v == 0));
    }

    fn ecc_quarter() -> benchgen::BenchSpec {
        benchgen::BenchSpec::by_name("ecc")
            .expect("paper circuit")
            .scaled(0.25)
    }

    /// ecc@0.25, full arm, SIM and SID: every net routed one by one,
    /// then every fifth net ripped and rerouted among its moved
    /// neighbours, each install checked against the oracle; then all
    /// nets uninstalled in a shuffled order leave both maps zero.
    #[test]
    fn dvic_bytes_expand_to_the_journal_oracle() {
        let spec = ecc_quarter();
        let (grid, nl) = (spec.grid(), spec.generate(1));
        let mut order: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
        order.sort_by_key(|&id| (nl[id].hpwl(), id));
        for (seed, kind) in [(1, SadpKind::Sim), (2, SadpKind::Sid)] {
            let mut state =
                RouterState::new(grid.clone(), &nl, kind, CostParams::default(), true, true);
            assert_eq!(route_checked(&mut state, &nl, &order), nl.len(), "{kind:?}");
            let again: Vec<NetId> = order.iter().copied().step_by(5).collect();
            for &id in &again {
                state.uninstall_route(id).expect("routed");
            }
            assert_eq!(route_checked(&mut state, &nl, &again), again.len());
            uninstall_all_to_zero(&mut state, seed);
        }
    }

    /// Across an ECO delta — a removed net, a moved pad and an added
    /// net, applied through `add_net` and `remove_net` — the victims
    /// and new nets routed one by one expand to the oracle, and the
    /// shuffled uninstall of everything leaves both maps zero.
    #[test]
    fn dvic_bytes_match_the_oracle_across_an_eco_delta() {
        use crate::{RouterConfig, RoutingSession};
        use sadp_grid::LayoutDelta;
        let spec = ecc_quarter();
        let (grid, nl) = (spec.grid(), spec.generate(1));
        let used: std::collections::HashSet<(i32, i32)> = nl
            .iter()
            .flat_map(|(_, n)| n.pins().iter().map(|p| (p.x, p.y)))
            .collect();
        let mut free = (4..grid.height() - 4)
            .flat_map(|y| (4..grid.width() - 4).map(move |x| Pin::new(x, y)))
            .filter(|p| !used.contains(&(p.x, p.y)))
            .step_by(97);
        let mut delta = LayoutDelta::new();
        delta.remove_net(NetId(3));
        let moved = NetId(10);
        delta.move_pad(moved, nl[moved].pins()[0], free.next().unwrap());
        let (a, b) = (free.next().unwrap(), free.next().unwrap());
        delta.add_net(Net::new("eco_new", vec![a, b]));
        let edited = delta.apply(&grid, &nl).expect("valid delta");

        let config = RouterConfig::full(SadpKind::Sim);
        let mut session = RoutingSession::try_new(&grid, &nl, config).unwrap();
        session.ensure_colorable(&mut sadp_trace::NoopObserver);
        session
            .apply_delta(&edited, &delta, &mut sadp_trace::NoopObserver)
            .expect("delta applies");
        let order = session.progress.initial_work.order.clone();
        assert!(order.contains(&moved) && order.contains(&NetId(nl.len() as u32)));
        assert_eq!(
            route_checked(&mut session.state, &edited, &order),
            order.len()
        );
        uninstall_all_to_zero(&mut session.state, 3);
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
