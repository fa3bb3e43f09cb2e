//! DVI candidates (DVICs) and their feasibility.
//!
//! Every single via has four candidate locations beside it (paper
//! Fig. 5). A candidate is *feasible* when:
//!
//! 1. the redundant via location is inside the grid and no via of any
//!    net already sits there on the same via layer;
//! 2. on both metal layers the via connects, the net's metal either
//!    already covers the candidate location or a one-unit stub can be
//!    added without crossing another net's metal;
//! 3. every L-turn the stub would create — at the via end and, for
//!    T-junctions, at the far end — is manufacturable under the SADP
//!    turn rules including the unit-extension exception
//!    ([`sadp_decomp::stub_turn_ok`]).
//!
//! [`DviProblem`] collects all single vias of a routing solution, all
//! feasible candidates, and the pairwise conflicts (shared redundant
//! via location on one via layer, or stub metal that would short two
//! nets).

use sadp_decomp::stub_turn_ok;
use sadp_grid::{
    DenseGrid, Dir, GridPoint, NetId, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
    WireEdge,
};

/// Sentinel `Slot::owner` value: no net covers the cell.
const FREE: u32 = u32::MAX;
/// Sentinel `Slot::owner` value: the cell's owners live in the
/// overflow table at index `Slot::data`.
const SPILLED: u32 = u32::MAX - 1;

/// One occupancy cell: either free, inline (a single owning net with
/// its multiplicity in `data`), or spilled to the overflow table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    owner: u32,
    data: u32,
}

const EMPTY_SLOT: Slot = Slot {
    owner: FREE,
    data: 0,
};

/// Adds `id` to the owner multiset of `slot`, spilling the cell to the
/// overflow table on the first second-net registration. Overflow lists
/// stay in ascending id order.
fn slot_add<K>(
    slot: &mut Slot,
    spill: &mut Vec<(K, Vec<NetId>)>,
    free: &mut Vec<u32>,
    key: K,
    id: NetId,
) {
    debug_assert!(id.0 < SPILLED, "net id collides with slot sentinels");
    if slot.owner == FREE {
        *slot = Slot {
            owner: id.0,
            data: 1,
        };
    } else if slot.owner == SPILLED {
        let owners = &mut spill[slot.data as usize].1;
        owners.insert(owners.partition_point(|&o| o <= id), id);
    } else if slot.owner == id.0 {
        slot.data += 1;
    } else {
        // Second distinct net: expand the inline multiset into an
        // overflow entry.
        let mut owners = Vec::with_capacity(slot.data as usize + 1);
        owners.resize(slot.data as usize, NetId(slot.owner));
        owners.insert(owners.partition_point(|&o| o <= id), id);
        let idx = match free.pop() {
            Some(i) => {
                spill[i as usize] = (key, owners);
                i
            }
            None => {
                spill.push((key, owners));
                (spill.len() - 1) as u32
            }
        };
        *slot = Slot {
            owner: SPILLED,
            data: idx,
        };
    }
}

/// Removes one occurrence of `id` from the owner multiset of `slot`,
/// collapsing an overflow entry back inline once a single distinct
/// net remains.
fn slot_remove<K>(slot: &mut Slot, spill: &mut [(K, Vec<NetId>)], free: &mut Vec<u32>, id: NetId) {
    if slot.owner == SPILLED {
        let entry = slot.data;
        let owners = &mut spill[entry as usize].1;
        if let Some(pos) = owners.iter().position(|&o| o == id) {
            owners.remove(pos);
        }
        if owners.is_empty() {
            free.push(entry);
            *slot = EMPTY_SLOT;
        } else if owners.iter().all(|&o| o == owners[0]) {
            let collapsed = Slot {
                owner: owners[0].0,
                data: owners.len() as u32,
            };
            owners.clear();
            free.push(entry);
            *slot = collapsed;
        }
    } else if slot.owner == id.0 {
        slot.data -= 1;
        if slot.data == 0 {
            *slot = EMPTY_SLOT;
        }
    }
}

/// Iterator over the owners of one occupancy cell, with multiplicity,
/// in ascending id order.
#[derive(Debug, Clone)]
pub struct OwnerIter<'a>(OwnerIterInner<'a>);

#[derive(Debug, Clone)]
enum OwnerIterInner<'a> {
    Inline { id: u32, left: u32 },
    Slice(std::slice::Iter<'a, NetId>),
}

impl Iterator for OwnerIter<'_> {
    type Item = NetId;

    fn next(&mut self) -> Option<NetId> {
        match &mut self.0 {
            OwnerIterInner::Inline { id, left } => {
                if *left == 0 {
                    None
                } else {
                    *left -= 1;
                    Some(NetId(*id))
                }
            }
            OwnerIterInner::Slice(it) => it.next().copied(),
        }
    }
}

fn owner_iter<'a, K>(slot: Option<&Slot>, spill: &'a [(K, Vec<NetId>)]) -> OwnerIter<'a> {
    let inner = match slot {
        Some(s) if s.owner == SPILLED => OwnerIterInner::Slice(spill[s.data as usize].1.iter()),
        Some(s) if s.owner != FREE => OwnerIterInner::Inline {
            id: s.owner,
            left: s.data,
        },
        _ => OwnerIterInner::Inline { id: 0, left: 0 },
    };
    OwnerIter(inner)
}

/// An incremental view of layout occupancy: which net owns each metal
/// grid point and each via position.
///
/// Built from a whole [`RoutingSolution`] or maintained incrementally
/// by the router via [`LayoutView::add_route`] /
/// [`LayoutView::remove_route`]. Multiple owners per point are
/// tolerated (transient overlaps during negotiated routing).
///
/// Storage is dense: one `Slot` per metal grid point and one per via
/// position. The overwhelmingly common case — a single owning net —
/// is held inline in the slot, so `occupied_by_other` / `via_at` /
/// owner enumeration are O(1) array reads; the rare shared cells spill
/// into a compact overflow table whose live entries are exactly the
/// congested points.
#[derive(Debug, Clone)]
pub struct LayoutView {
    grid: RoutingGrid,
    points: DenseGrid<Slot>,
    vias: DenseGrid<Slot>,
    point_spill: Vec<(GridPoint, Vec<NetId>)>,
    point_free: Vec<u32>,
    via_spill: Vec<((u8, i32, i32), Vec<NetId>)>,
    via_free: Vec<u32>,
}

impl LayoutView {
    /// Creates an empty view over `grid`.
    pub fn new(grid: RoutingGrid) -> LayoutView {
        let points = DenseGrid::new(grid.layer_count(), grid.width(), grid.height(), EMPTY_SLOT);
        let vias = DenseGrid::new(
            grid.via_layer_count(),
            grid.width(),
            grid.height(),
            EMPTY_SLOT,
        );
        LayoutView {
            grid,
            points,
            vias,
            point_spill: Vec::new(),
            point_free: Vec::new(),
            via_spill: Vec::new(),
            via_free: Vec::new(),
        }
    }

    /// Builds the view of a complete solution.
    pub fn from_solution(solution: &RoutingSolution) -> LayoutView {
        let mut view = LayoutView::new(solution.grid().clone());
        for (id, route) in solution.iter() {
            view.add_route(id, route);
        }
        view
    }

    /// The grid this view covers.
    pub fn grid(&self) -> &RoutingGrid {
        &self.grid
    }

    /// Registers a net's route.
    pub fn add_route(&mut self, id: NetId, route: &RoutedNet) {
        for &p in route.covered_points_sorted() {
            let Some(slot) = self.points.get_mut(p) else {
                continue; // point outside the grid: nothing to track
            };
            slot_add(slot, &mut self.point_spill, &mut self.point_free, p, id);
        }
        for v in route.vias() {
            let p = GridPoint::new(v.below, v.x, v.y);
            let Some(slot) = self.vias.get_mut(p) else {
                continue;
            };
            slot_add(
                slot,
                &mut self.via_spill,
                &mut self.via_free,
                (v.below, v.x, v.y),
                id,
            );
        }
    }

    /// Unregisters a net's route (must mirror a prior `add_route`).
    pub fn remove_route(&mut self, id: NetId, route: &RoutedNet) {
        for &p in route.covered_points_sorted() {
            let Some(slot) = self.points.get_mut(p) else {
                continue; // must mirror add_route, which also skipped it
            };
            slot_remove(slot, &mut self.point_spill, &mut self.point_free, id);
        }
        for v in route.vias() {
            let p = GridPoint::new(v.below, v.x, v.y);
            let Some(slot) = self.vias.get_mut(p) else {
                continue;
            };
            slot_remove(slot, &mut self.via_spill, &mut self.via_free, id);
        }
    }

    /// `true` if any net other than `net` covers metal point `p`.
    #[inline]
    pub fn occupied_by_other(&self, p: GridPoint, net: NetId) -> bool {
        match self.points.get(p) {
            // A spilled cell holds >= 2 distinct nets by invariant.
            Some(s) if s.owner == SPILLED => true,
            Some(s) if s.owner != FREE => s.owner != net.0,
            _ => false,
        }
    }

    /// `true` if any via (of any net) sits at `(via_layer, x, y)`.
    #[inline]
    pub fn via_at(&self, via_layer: u8, x: i32, y: i32) -> bool {
        self.vias
            .get(GridPoint::new(via_layer, x, y))
            .is_some_and(|s| s.owner != FREE)
    }

    /// The nets owning metal point `p`, with multiplicity, in
    /// ascending id order (a net registered through several
    /// routes/seeds appears several times). The order depends only on
    /// the view's contents, never on the order routes were added.
    pub fn owners(&self, p: GridPoint) -> OwnerIter<'_> {
        owner_iter(self.points.get(p), &self.point_spill)
    }

    /// The nets owning the via at `(via_layer, x, y)`, in ascending id
    /// order.
    pub fn via_owners(&self, via_layer: u8, x: i32, y: i32) -> OwnerIter<'_> {
        owner_iter(
            self.vias.get(GridPoint::new(via_layer, x, y)),
            &self.via_spill,
        )
    }

    /// Distinct nets other than `net` covering point `p`.
    pub fn distinct_others(&self, p: GridPoint, net: NetId) -> usize {
        if self.points.contains(p) {
            self.distinct_others_at(self.points.index_of(p), net)
        } else {
            0
        }
    }

    /// [`LayoutView::distinct_others`] of the metal point at index `i`
    /// of a `layer_count × width × height` [`DenseGrid`] over this
    /// view's grid ([`DenseGrid::index_of`]).
    #[inline]
    pub fn distinct_others_at(&self, i: usize, net: NetId) -> usize {
        let s = self.points.as_slice()[i];
        if s.owner == SPILLED {
            // Owner lists hold a few entries: count each net other
            // than `net` at its first occurrence, in place.
            let owners = &self.point_spill[s.data as usize].1;
            owners
                .iter()
                .enumerate()
                .filter(|&(k, &o)| o != net && !owners[..k].contains(&o))
                .count()
        } else {
            usize::from(s.owner != FREE && s.owner != net.0)
        }
    }

    /// All metal points currently covered by two or more distinct
    /// nets, sorted — exactly the live overflow entries.
    pub fn multi_owner_points(&self) -> Vec<GridPoint> {
        let mut out: Vec<GridPoint> = self
            .point_spill
            .iter()
            .filter(|(_, owners)| !owners.is_empty())
            .map(|(p, _)| *p)
            .collect();
        out.sort_unstable();
        out
    }
}

/// A feasible DVI candidate: a redundant-via position for one single
/// via, plus the stub metal needed to connect it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the owning via in [`DviProblem::vias`].
    pub via_idx: u32,
    /// Direction from the single via to the redundant via.
    pub dir: Dir,
    /// Grid location of the redundant via.
    pub loc: (i32, i32),
    /// Via layer of the redundant via (same as the single via's).
    pub via_layer: u8,
    /// New metal unit edges required (empty when existing metal
    /// already reaches the location on both layers).
    pub stubs: Vec<WireEdge>,
}

/// One single via of the routing solution within a [`DviProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemVia {
    /// The via.
    pub via: Via,
    /// The net it belongs to.
    pub net: NetId,
    /// Indices of its feasible candidates in
    /// [`DviProblem::candidates`].
    pub candidates: Vec<u32>,
}

/// The TPL-aware DVI problem instance extracted from a routing
/// solution.
#[derive(Debug, Clone)]
pub struct DviProblem {
    kind: SadpKind,
    grid_width: i32,
    grid_height: i32,
    vias: Vec<ProblemVia>,
    candidates: Vec<Candidate>,
    conflicts: Vec<(u32, u32)>,
}

impl DviProblem {
    /// Validating variant of [`DviProblem::build`]: rejects a solution
    /// whose routes or vias fall outside the grid (or otherwise fail
    /// [`RoutingSolution::validate`]) with a structured error instead
    /// of building a problem over inconsistent geometry.
    pub fn try_build(
        kind: SadpKind,
        solution: &RoutingSolution,
    ) -> Result<DviProblem, sadp_grid::RouteError> {
        solution.validate()?;
        Ok(DviProblem::build(kind, solution))
    }

    /// Extracts the DVI problem from a routing solution: enumerates
    /// all single vias, their feasible DVICs, and candidate conflicts.
    ///
    /// Feasibility testing — the dominant cost — fans out per net on
    /// the [`sadp_exec`] pool against the shared read-only
    /// [`LayoutView`]; the per-net results are merged in net order
    /// with sequentially assigned indices, so the built problem is
    /// identical for any thread count.
    pub fn build(kind: SadpKind, solution: &RoutingSolution) -> DviProblem {
        let view = LayoutView::from_solution(solution);
        let routes: Vec<(NetId, &RoutedNet)> = solution.iter().collect();
        let per_net: Vec<Vec<(Via, Vec<Candidate>)>> = sadp_exec::map(&routes, |&(net, route)| {
            route
                .vias()
                .iter()
                .map(|&via| {
                    let cands: Vec<Candidate> = Dir::PLANAR
                        .iter()
                        .filter_map(|&dir| feasible_candidate(kind, &view, route, net, via, dir))
                        .collect();
                    (via, cands)
                })
                .collect()
        });
        let mut vias = Vec::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        for (&(net, _), net_vias) in routes.iter().zip(per_net) {
            for (via, cands) in net_vias {
                let mut pv = ProblemVia {
                    via,
                    net,
                    candidates: Vec::new(),
                };
                for cand in cands {
                    pv.candidates.push(candidates.len() as u32);
                    candidates.push(Candidate {
                        via_idx: vias.len() as u32,
                        ..cand
                    });
                }
                vias.push(pv);
            }
        }
        let conflicts = find_conflicts(&vias, &candidates, solution.grid());
        DviProblem {
            kind,
            grid_width: solution.grid().width(),
            grid_height: solution.grid().height(),
            vias,
            candidates,
            conflicts,
        }
    }

    /// The SADP process of the underlying layout.
    pub fn kind(&self) -> SadpKind {
        self.kind
    }

    /// Grid width in tracks.
    pub fn grid_width(&self) -> i32 {
        self.grid_width
    }

    /// Grid height in tracks.
    pub fn grid_height(&self) -> i32 {
        self.grid_height
    }

    /// All single vias.
    pub fn vias(&self) -> &[ProblemVia] {
        &self.vias
    }

    /// Number of single vias.
    pub fn via_count(&self) -> usize {
        self.vias.len()
    }

    /// All feasible candidates, across all vias.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Pairwise candidate conflicts (ordered index pairs).
    pub fn conflicts(&self) -> &[(u32, u32)] {
        &self.conflicts
    }

    /// Positions of all existing single vias on `via_layer`.
    pub fn existing_on_layer(&self, via_layer: u8) -> Vec<(i32, i32)> {
        self.vias
            .iter()
            .filter(|pv| pv.via.below == via_layer)
            .map(|pv| (pv.via.x, pv.via.y))
            .collect()
    }

    /// The distinct via layers present in the problem.
    pub fn via_layers(&self) -> Vec<u8> {
        let mut layers: Vec<u8> = self.vias.iter().map(|pv| pv.via.below).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// One past the highest via layer of the problem (0 when it has
    /// no vias): the length of a table indexed by via layer.
    pub(crate) fn via_layer_bound(&self) -> u8 {
        self.vias
            .iter()
            .map(|pv| pv.via.below + 1)
            .max()
            .unwrap_or(0)
    }

    /// Builds the shared by-location candidate index used by the DVI
    /// solvers; per-cell iteration yields ascending candidate indices.
    pub(crate) fn candidate_loc_index(&self) -> LocIndex {
        LocIndex::of_candidate_locs(
            self.via_layer_bound(),
            self.grid_width,
            self.grid_height,
            &self.candidates,
        )
    }
}

/// Tests one direction for feasibility; returns the candidate (with
/// `via_idx` left unset) when feasible. The rules are
/// [`dvic_feasible`]'s; this adds the stub metal to the answer.
pub fn feasible_candidate(
    kind: SadpKind,
    view: &LayoutView,
    route: &RoutedNet,
    net: NetId,
    via: Via,
    dir: Dir,
) -> Option<Candidate> {
    if !dvic_feasible(kind, view, route, net, via, dir) {
        return None;
    }
    let (dx, dy) = dir.step();
    let (lx, ly) = (via.x + dx, via.y + dy);
    let stubs = [via.below, via.below + 1]
        .into_iter()
        .map(|layer| GridPoint::new(layer, via.x, via.y))
        .filter(|&p| !route.has_arm(p, dir))
        .filter_map(|p| WireEdge::between(p, p.stepped(dir)))
        .collect();
    Some(Candidate {
        via_idx: u32::MAX, // patched by the caller
        dir,
        loc: (lx, ly),
        via_layer: via.below,
        stubs,
    })
}

/// Whether the candidate of `via` toward `dir` is feasible: the rules
/// of the module docs, answered without building the candidate.
///
/// The router's cost assignment asks this for every via it installs
/// (one bit per direction, see `RouterState`), and
/// [`feasible_candidate`] for every via of a [`DviProblem`].
/// Occupancy queries go through the dense view and route-side queries
/// through the route's precomputed arm masks (O(1) per probe).
pub fn dvic_feasible(
    kind: SadpKind,
    view: &LayoutView,
    route: &RoutedNet,
    net: NetId,
    via: Via,
    dir: Dir,
) -> bool {
    let (dx, dy) = dir.step();
    let (lx, ly) = (via.x + dx, via.y + dy);
    if !view.grid().in_bounds_xy(lx, ly) {
        return false;
    }
    // Rule 1: the via location must be free on this via layer.
    if view.via_at(via.below, lx, ly) {
        return false;
    }
    for layer in [via.below, via.below + 1] {
        let p = GridPoint::new(layer, via.x, via.y);
        let s = GridPoint::new(layer, lx, ly);
        if route.has_arm(p, dir) {
            continue; // metal already reaches the location
        }
        // Rule 2: the stub endpoint must not belong to another net.
        if view.occupied_by_other(s, net) {
            return false;
        }
        // Rule 3a: turns at the via end. A pin-only layer has no SADP
        // turn rules in our model (pin pads are drawn, not routed).
        if view.grid().is_routing_layer(layer) {
            let mask = route.arm_mask(p);
            for (i, arm) in Dir::PLANAR.into_iter().enumerate() {
                if mask & (1 << i) == 0 || arm == dir || arm == dir.opposite() {
                    continue; // absent, or collinear: no turn
                }
                if !stub_turn_ok(kind, via.x, via.y, arm, dir) {
                    return false;
                }
            }
            // Rule 3b: turns at the far end when it lands on own
            // metal (T-junction).
            if route.covers(s) {
                let mask = route.arm_mask(s);
                for (i, arm) in Dir::PLANAR.into_iter().enumerate() {
                    if mask & (1 << i) == 0 || arm == dir || arm == dir.opposite() {
                        continue;
                    }
                    if !stub_turn_ok(kind, s.x, s.y, arm, dir.opposite()) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Sentinel for an empty [`LocIndex`] cell / chain end.
const LOC_NONE: u32 = u32::MAX;

/// A dense by-location index: per-`(layer, x, y)` cell chains of `u32`
/// entry ids, built once over a known entry count and queried with no
/// hashing.
///
/// Insertion pushes to the front of a cell's chain, so builders insert
/// entries in *reverse* id order to make per-cell iteration yield
/// ascending ids (the order the old hash-map builders produced). This
/// is the shared helper behind `find_conflicts`, the heuristic
/// solver's `cand_by_loc`, and the ILP builder's `cands_at`.
#[derive(Debug, Clone)]
pub(crate) struct LocIndex {
    head: DenseGrid<u32>,
    next: Vec<u32>,
}

impl LocIndex {
    /// Creates an empty index over `layers * width * height` cells for
    /// `entries` chainable entry ids.
    pub(crate) fn new(layers: u8, width: i32, height: i32, entries: usize) -> LocIndex {
        LocIndex {
            head: DenseGrid::new(layers, width, height, LOC_NONE),
            next: vec![LOC_NONE; entries],
        }
    }

    /// Prepends `entry` to the chain of `(layer, x, y)`. Each entry id
    /// may be inserted at most once across all cells.
    pub(crate) fn insert(&mut self, layer: u8, x: i32, y: i32, entry: u32) {
        let Some(head) = self.head.get_mut(GridPoint::new(layer, x, y)) else {
            debug_assert!(false, "LocIndex insertion outside the grid");
            return;
        };
        debug_assert_eq!(self.next[entry as usize], LOC_NONE);
        self.next[entry as usize] = *head;
        *head = entry;
    }

    /// Iterates the entry ids at `(layer, x, y)`; empty for cells
    /// outside the grid.
    pub(crate) fn at(&self, layer: u8, x: i32, y: i32) -> LocIter<'_> {
        let cur = self
            .head
            .get(GridPoint::new(layer, x, y))
            .copied()
            .unwrap_or(LOC_NONE);
        LocIter {
            next: &self.next,
            cur,
        }
    }

    /// Iterates the non-empty cells' chains in cell order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = LocIter<'_>> + '_ {
        self.head
            .iter()
            .filter(|(_, &h)| h != LOC_NONE)
            .map(move |(_, &h)| LocIter {
                next: &self.next,
                cur: h,
            })
    }

    /// Indexes candidates by redundant-via location `(via_layer, loc)`;
    /// per-cell iteration yields candidate indices in ascending order.
    pub(crate) fn of_candidate_locs(
        layers: u8,
        width: i32,
        height: i32,
        candidates: &[Candidate],
    ) -> LocIndex {
        let mut idx = LocIndex::new(layers, width, height, candidates.len());
        for (i, c) in candidates.iter().enumerate().rev() {
            idx.insert(c.via_layer, c.loc.0, c.loc.1, i as u32);
        }
        idx
    }
}

/// Iterator over one [`LocIndex`] cell's entry chain.
#[derive(Debug, Clone)]
pub(crate) struct LocIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for LocIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == LOC_NONE {
            return None;
        }
        let e = self.cur;
        self.cur = self.next[e as usize];
        Some(e)
    }
}

/// Computes candidate conflicts: same redundant-via location on one
/// via layer (any nets), or stub metal shared between different nets.
fn find_conflicts(
    vias: &[ProblemVia],
    candidates: &[Candidate],
    grid: &RoutingGrid,
) -> Vec<(u32, u32)> {
    let by_loc = LocIndex::of_candidate_locs(
        grid.via_layer_count(),
        grid.width(),
        grid.height(),
        candidates,
    );
    // Stub endpoints live on metal layers; a candidate has at most two
    // stub edges (one per metal layer), so at most four endpoint
    // entries: entry id = candidate * 4 + endpoint slot.
    let mut by_stub_point = LocIndex::new(
        grid.layer_count(),
        grid.width(),
        grid.height(),
        candidates.len() * 4,
    );
    for (i, c) in candidates.iter().enumerate().rev() {
        let mut k = 0;
        for e in &c.stubs {
            for p in e.endpoints() {
                by_stub_point.insert(p.layer, p.x, p.y, (i * 4 + k) as u32);
                k += 1;
            }
        }
    }
    let mut set = std::collections::BTreeSet::new();
    let mut group: Vec<u32> = Vec::new();
    for chain in by_loc.groups() {
        group.clear();
        group.extend(chain);
        for (a, b) in pairs(&group) {
            if candidates[a as usize].via_idx != candidates[b as usize].via_idx {
                set.insert((a.min(b), a.max(b)));
            }
        }
    }
    for chain in by_stub_point.groups() {
        group.clear();
        group.extend(chain.map(|e| e / 4));
        for (a, b) in pairs(&group) {
            let (ca, cb) = (&candidates[a as usize], &candidates[b as usize]);
            if ca.via_idx == cb.via_idx {
                continue;
            }
            let (na, nb) = (vias[ca.via_idx as usize].net, vias[cb.via_idx as usize].net);
            if na != nb {
                set.insert((a.min(b), a.max(b)));
            }
        }
    }
    set.into_iter().collect()
}

fn pairs(items: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    items
        .iter()
        .enumerate()
        .flat_map(move |(i, &a)| items[i + 1..].iter().map(move |&b| (a, b)))
}

/// The hash-based occupancy implementation the dense [`LayoutView`]
/// replaced, kept compilable for differential tests and the
/// `bench_costs` before/after comparison (enable with
/// `--features reference-occupancy`).
#[cfg(any(test, feature = "reference-occupancy"))]
pub mod reference {
    use std::collections::HashMap;

    use sadp_decomp::stub_turn_ok;
    use sadp_grid::{
        Dir, GridPoint, NetId, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via, WireEdge,
    };

    use super::Candidate;

    /// Hash-map layout occupancy (the pre-dense implementation).
    #[derive(Debug, Clone)]
    pub struct LayoutView {
        grid: RoutingGrid,
        point_owner: HashMap<GridPoint, Vec<NetId>>,
        via_owner: HashMap<(u8, i32, i32), Vec<NetId>>,
    }

    impl LayoutView {
        /// Creates an empty view over `grid`.
        pub fn new(grid: RoutingGrid) -> LayoutView {
            LayoutView {
                grid,
                point_owner: HashMap::new(),
                via_owner: HashMap::new(),
            }
        }

        /// Builds the view of a complete solution.
        pub fn from_solution(solution: &RoutingSolution) -> LayoutView {
            let mut view = LayoutView::new(solution.grid().clone());
            for (id, route) in solution.iter() {
                view.add_route(id, route);
            }
            view
        }

        /// The grid this view covers.
        pub fn grid(&self) -> &RoutingGrid {
            &self.grid
        }

        /// Registers a net's route.
        pub fn add_route(&mut self, id: NetId, route: &RoutedNet) {
            for p in route.covered_points() {
                let owners = self.point_owner.entry(p).or_default();
                owners.insert(owners.partition_point(|&o| o <= id), id);
            }
            for v in route.vias() {
                let owners = self.via_owner.entry((v.below, v.x, v.y)).or_default();
                owners.insert(owners.partition_point(|&o| o <= id), id);
            }
        }

        /// Unregisters a net's route (must mirror a prior `add_route`).
        pub fn remove_route(&mut self, id: NetId, route: &RoutedNet) {
            for p in route.covered_points() {
                if let Some(owners) = self.point_owner.get_mut(&p) {
                    if let Some(pos) = owners.iter().position(|&o| o == id) {
                        owners.remove(pos);
                    }
                    if owners.is_empty() {
                        self.point_owner.remove(&p);
                    }
                }
            }
            for v in route.vias() {
                let key = (v.below, v.x, v.y);
                if let Some(owners) = self.via_owner.get_mut(&key) {
                    if let Some(pos) = owners.iter().position(|&o| o == id) {
                        owners.remove(pos);
                    }
                    if owners.is_empty() {
                        self.via_owner.remove(&key);
                    }
                }
            }
        }

        /// `true` if any net other than `net` covers metal point `p`.
        pub fn occupied_by_other(&self, p: GridPoint, net: NetId) -> bool {
            self.point_owner
                .get(&p)
                .is_some_and(|o| o.iter().any(|&n| n != net))
        }

        /// `true` if any via (of any net) sits at `(via_layer, x, y)`.
        pub fn via_at(&self, via_layer: u8, x: i32, y: i32) -> bool {
            self.via_owner.contains_key(&(via_layer, x, y))
        }

        /// The nets owning metal point `p` (with multiplicity), in
        /// ascending id order.
        pub fn owners(&self, p: GridPoint) -> &[NetId] {
            self.point_owner.get(&p).map(Vec::as_slice).unwrap_or(&[])
        }

        /// The nets owning the via at `(via_layer, x, y)`.
        pub fn via_owners(&self, via_layer: u8, x: i32, y: i32) -> &[NetId] {
            self.via_owner
                .get(&(via_layer, x, y))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }

        /// Distinct nets other than `net` covering point `p`.
        pub fn distinct_others(&self, p: GridPoint, net: NetId) -> usize {
            let mut seen: Vec<NetId> = Vec::new();
            for &o in self.owners(p) {
                if o != net && !seen.contains(&o) {
                    seen.push(o);
                }
            }
            seen.len()
        }
    }

    /// `arm_dirs` as the pre-dense implementation computed it: one
    /// edge-list binary search per planar direction.
    fn arm_dirs_scan(route: &RoutedNet, p: GridPoint) -> Vec<Dir> {
        let mut dirs = Vec::new();
        for d in Dir::PLANAR {
            if let Some(e) = WireEdge::between(p, p.stepped(d)) {
                if route.edges().binary_search(&e).is_ok() {
                    dirs.push(d);
                }
            }
        }
        dirs
    }

    /// `covers` as the pre-dense implementation computed it.
    fn covers_scan(route: &RoutedNet, p: GridPoint) -> bool {
        for d in Dir::PLANAR {
            if let Some(e) = WireEdge::between(p, p.stepped(d)) {
                if route.edges().binary_search(&e).is_ok() {
                    return true;
                }
            }
        }
        route
            .vias()
            .iter()
            .any(|v| (v.bottom() == p) || (v.top() == p))
    }

    /// [`super::feasible_candidate`] with the pre-dense route-side
    /// queries (edge-list binary searches) — the honest baseline for
    /// `bench_costs` and the differential property test.
    pub fn feasible_candidate_reference(
        kind: SadpKind,
        view: &LayoutView,
        route: &RoutedNet,
        net: NetId,
        via: Via,
        dir: Dir,
    ) -> Option<Candidate> {
        let (dx, dy) = dir.step();
        let (lx, ly) = (via.x + dx, via.y + dy);
        if !view.grid().in_bounds_xy(lx, ly) {
            return None;
        }
        if view.via_at(via.below, lx, ly) {
            return None;
        }
        let mut stubs = Vec::new();
        for layer in [via.below, via.below + 1] {
            let p = GridPoint::new(layer, via.x, via.y);
            let s = GridPoint::new(layer, lx, ly);
            let edge = WireEdge::between(p, s)?;
            if route.edges().binary_search(&edge).is_ok() {
                continue;
            }
            if view.occupied_by_other(s, net) {
                return None;
            }
            if view.grid().is_routing_layer(layer) {
                for arm in arm_dirs_scan(route, p) {
                    if arm == dir || arm == dir.opposite() {
                        continue;
                    }
                    if !stub_turn_ok(kind, via.x, via.y, arm, dir) {
                        return None;
                    }
                }
                if covers_scan(route, s) {
                    for arm in arm_dirs_scan(route, s) {
                        if arm == dir || arm == dir.opposite() {
                            continue;
                        }
                        if !stub_turn_ok(kind, s.x, s.y, arm, dir.opposite()) {
                            return None;
                        }
                    }
                }
            }
            stubs.push(edge);
        }
        Some(Candidate {
            via_idx: u32::MAX,
            dir,
            loc: (lx, ly),
            via_layer: via.below,
            stubs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_grid::{Axis, Net, Netlist, Pin, RoutingGrid};

    /// One net: M2 wire from (4,4) to (8,4), vias down to pins at the
    /// ends. Grid big enough that bounds never interfere.
    fn single_net_solution() -> (Netlist, RoutingSolution) {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        let edges = (4..8)
            .map(|x| WireEdge::new(1, x, 4, Axis::Horizontal))
            .collect();
        sol.set_route(
            NetId(0),
            RoutedNet::new(edges, vec![Via::new(0, 4, 4), Via::new(0, 8, 4)]),
        );
        (nl, sol)
    }

    #[test]
    fn problem_enumerates_vias_and_candidates() {
        let (_nl, sol) = single_net_solution();
        let p = DviProblem::build(SadpKind::Sim, &sol);
        assert_eq!(p.via_count(), 2);
        assert!(!p.candidates().is_empty());
        for pv in p.vias() {
            assert!(pv.candidates.len() <= 4);
            for &ci in &pv.candidates {
                let c = &p.candidates()[ci as usize];
                assert_eq!(p.vias()[c.via_idx as usize].via, pv.via);
                // Candidate is one unit from its via.
                let d = (c.loc.0 - pv.via.x).abs() + (c.loc.1 - pv.via.y).abs();
                assert_eq!(d, 1);
            }
        }
    }

    #[test]
    fn east_west_along_wire_needs_no_m2_stub() {
        let (_nl, sol) = single_net_solution();
        let p = DviProblem::build(SadpKind::Sim, &sol);
        // Via at (4,4): the east candidate lies under existing M2
        // metal, so only the M1 stub is needed.
        let east = p
            .candidates()
            .iter()
            .find(|c| c.via_idx == 0 && c.dir == Dir::East)
            .expect("east candidate feasible");
        assert!(east.stubs.iter().all(|e| e.layer == 0));
    }

    #[test]
    fn occupied_location_is_infeasible() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(6, 4)]));
        nl.push(Net::new("b", vec![Pin::new(5, 5), Pin::new(7, 5)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(
                vec![
                    WireEdge::new(1, 4, 4, Axis::Horizontal),
                    WireEdge::new(1, 5, 4, Axis::Horizontal),
                ],
                vec![Via::new(0, 4, 4), Via::new(0, 6, 4)],
            ),
        );
        // Net b's M2 wire passes right above via (4,4) at y=5.
        sol.set_route(
            NetId(1),
            RoutedNet::new(
                vec![
                    WireEdge::new(1, 5, 5, Axis::Horizontal),
                    WireEdge::new(1, 6, 5, Axis::Horizontal),
                    WireEdge::new(1, 4, 5, Axis::Horizontal),
                ],
                vec![Via::new(0, 5, 5), Via::new(0, 7, 5)],
            ),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        // North candidate of via (4,4) is blocked by net b's metal.
        let north = p
            .candidates()
            .iter()
            .find(|c| p.vias()[c.via_idx as usize].via == Via::new(0, 4, 4) && c.dir == Dir::North);
        assert!(north.is_none(), "north DVIC must be infeasible");
    }

    #[test]
    fn existing_via_blocks_candidate_location() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(5, 4)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(
                vec![WireEdge::new(1, 4, 4, Axis::Horizontal)],
                vec![Via::new(0, 4, 4), Via::new(0, 5, 4)],
            ),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        // Via (4,4)'s east candidate sits exactly on via (5,4).
        let east = p
            .candidates()
            .iter()
            .find(|c| p.vias()[c.via_idx as usize].via == Via::new(0, 4, 4) && c.dir == Dir::East);
        assert!(east.is_none());
    }

    #[test]
    fn grid_border_limits_candidates() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(2, 0)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(
                vec![
                    WireEdge::new(1, 0, 0, Axis::Horizontal),
                    WireEdge::new(1, 1, 0, Axis::Horizontal),
                ],
                vec![Via::new(0, 0, 0), Via::new(0, 2, 0)],
            ),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        // Via at (0,0): west and south are out of bounds.
        let pv = p
            .vias()
            .iter()
            .find(|pv| pv.via == Via::new(0, 0, 0))
            .unwrap();
        for &ci in &pv.candidates {
            let c = &p.candidates()[ci as usize];
            assert!(c.loc.0 >= 0 && c.loc.1 >= 0);
        }
    }

    #[test]
    fn shared_location_conflicts_are_found() {
        // Two vias two tracks apart on the same via layer: the
        // candidate between them is shared -> conflict.
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(4, 6)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        // Route: via up at (4,4), M2 east-ish? Simplest: two separate
        // pin vias joined by M2+M3.
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
        // The two via-layer-1 vias at (4,4) and (4,6) both may want
        // location (4,5).
        let shared: Vec<&Candidate> = p
            .candidates()
            .iter()
            .filter(|c| c.via_layer == 1 && c.loc == (4, 5))
            .collect();
        if shared.len() == 2 {
            let (a, b) = (shared[0], shared[1]);
            let ia = p.candidates().iter().position(|c| c == a).unwrap() as u32;
            let ib = p.candidates().iter().position(|c| c == b).unwrap() as u32;
            assert!(p.conflicts().contains(&(ia.min(ib), ia.max(ib))));
        }
    }

    #[test]
    fn layout_view_add_remove_round_trip() {
        let (_nl, sol) = single_net_solution();
        let route = sol.route(NetId(0)).unwrap().clone();
        let mut view = LayoutView::new(sol.grid().clone());
        assert!(!view.occupied_by_other(GridPoint::new(1, 5, 4), NetId(9)));
        view.add_route(NetId(0), &route);
        assert!(view.occupied_by_other(GridPoint::new(1, 5, 4), NetId(9)));
        assert!(!view.occupied_by_other(GridPoint::new(1, 5, 4), NetId(0)));
        assert!(view.via_at(0, 4, 4));
        view.remove_route(NetId(0), &route);
        assert!(!view.occupied_by_other(GridPoint::new(1, 5, 4), NetId(9)));
        assert!(!view.via_at(0, 4, 4));
    }

    #[test]
    fn via_layers_lists_layers() {
        let (_nl, sol) = single_net_solution();
        let p = DviProblem::build(SadpKind::Sim, &sol);
        assert_eq!(p.via_layers(), vec![0]);
        assert_eq!(p.existing_on_layer(0).len(), 2);
        assert!(p.existing_on_layer(1).is_empty());
    }
}
