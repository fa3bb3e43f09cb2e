//! The dense, window-local A* search kernel — the maze-routing hot
//! path shared by every phase of the flow (initial routing, negotiated
//! congestion, and the Algorithm-2 via-layer R&R).
//!
//! Search states are `(grid point, incoming direction)` so that turn
//! penalties and forbidden-turn pruning are exact: the cost of
//! entering a point depends on how the wire leaves the previous one.
//!
//! # Why dense
//!
//! The original kernel (kept as a unit-test oracle) ran textbook
//! Dijkstra over `HashMap` dist/parent maps with a fresh `BinaryHeap`
//! per pin connection, paying a hash + allocate on every expanded
//! state. This kernel instead indexes flat arrays by
//! `(layer, x − x0, y − y0, in_dir)` over the active [`Window`] and
//! reuses them across connections, nets, and R&R iterations through a
//! caller-owned [`SearchScratch`]:
//!
//! * **Epoch-stamped lazy clearing** — each search bumps an epoch
//!   counter instead of zeroing the arrays; a slot whose stamp is not
//!   the current epoch reads as "unvisited". Buffers are only ever
//!   grown, never cleared.
//! * **A\* ordering** — a consistent lower bound (`Bound`) turns
//!   Dijkstra into A*. Besides Manhattan distance and layer span it
//!   charges a point on the target's layer for crossing that layer's
//!   preferred axis: non-preferred steps or a via pair, whichever is
//!   cheaper. Its constants are computed once per search.
//! * **Compact parent encoding** — instead of a parent *key* per
//!   state, only the predecessor's incoming-direction code is stored
//!   (1 byte): the predecessor point is recovered by stepping
//!   backwards along the state's own incoming direction.
//! * **Tree marks in the scratch** — the growing tree arrives as one
//!   [`TreeArms`] map from point to planar-arm mask. At search start
//!   every in-window tree point is written into its slots as closed
//!   for all seven incoming codes (cost 0, which no step can improve,
//!   so the search never traverses the tree) and then opened as a
//!   source whose parent byte is `SOURCE_FLAG` plus its arm mask.
//!   The expansion loop reads tree membership and branch-point arms
//!   from the slot it already touches: no hashing per relax.
//! * **Dial bucket-queue open set** — integer costs and a consistent
//!   heuristic make the popped f-sequence monotone, so the open set is
//!   a `DialQueue` (O(1) push, near-O(1) pop) instead of a binary
//!   heap. Its pop order is *identical* to the heap's, pinned by the
//!   randomized differential in `bucket.rs` and the monotone-push
//!   `debug_assert` in `DialQueue::push`.
//! * **Paged windows** — windows whose state count exceeds
//!   [`FLAT_SLOT_LIMIT`] switch from the flat arrays to lazily
//!   allocated 32×32-track tile pages, so a full-grid escalation on a
//!   million-net instance allocates memory proportional to the states
//!   actually touched, not the window area.
//!
//! The 64-bit `key`/`unkey` state packing survives only as the
//! open-set payload, where it keeps queue nodes at 16 bytes and gives
//! a deterministic tie-break order.

use std::collections::HashMap;

use sadp_decomp::{classify_turn, TurnClass};
use sadp_grid::{Axis, Dir, GridPoint, NetId, RoutingGrid, TurnKind, Via, WireEdge};

use crate::bucket::DialQueue;
use crate::costs::CostParams;
use crate::state::RouterState;

/// A rectangular search window in track coordinates (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Left bound.
    pub x0: i32,
    /// Bottom bound.
    pub y0: i32,
    /// Right bound.
    pub x1: i32,
    /// Top bound.
    pub y1: i32,
}

impl Window {
    /// The window spanning a set of points, inflated by `margin` and
    /// clamped to the grid. Returns `None` when `points` is empty (an
    /// empty set has no bounding window).
    pub fn around<I: IntoIterator<Item = (i32, i32)>>(
        points: I,
        margin: i32,
        width: i32,
        height: i32,
    ) -> Option<Window> {
        let (mut x0, mut y0, mut x1, mut y1) = (i32::MAX, i32::MAX, i32::MIN, i32::MIN);
        let mut any = false;
        for (x, y) in points {
            any = true;
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        if !any {
            return None;
        }
        Some(Window {
            x0: x0.saturating_sub(margin).max(0),
            y0: y0.saturating_sub(margin).max(0),
            x1: x1.saturating_add(margin).min(width - 1),
            y1: y1.saturating_add(margin).min(height - 1),
        })
    }

    /// `true` when `(x, y)` lies inside the window.
    #[inline]
    pub fn contains(self, x: i32, y: i32) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Window width in tracks.
    #[inline]
    pub fn width(self) -> i32 {
        self.x1 - self.x0 + 1
    }

    /// Window height in tracks.
    #[inline]
    pub fn height(self) -> i32 {
        self.y1 - self.y0 + 1
    }
}

/// A path found by [`route_connection`].
#[derive(Debug, Clone, Default)]
pub struct FoundPath {
    /// New wire edges.
    pub edges: Vec<WireEdge>,
    /// New vias.
    pub vias: Vec<Via>,
    /// Total cost in [`crate::costs::SCALE`] units.
    pub cost: i64,
}

/// The tree a connection grows from: every tree point with its
/// planar-arm mask, bit `dir_code(d)` set when the tree has a
/// unit edge from the point toward `d` (the bit order of
/// [`sadp_grid::RoutedNet::arm_mask`]).
pub type TreeArms = HashMap<GridPoint, u8>;

/// Incoming-direction code for source states (no incoming wire).
pub(crate) const IN_NONE: u8 = 6;

/// Number of incoming-direction codes per grid point (6 dirs + none).
const STATES_PER_POINT: usize = 7;

/// Parent-byte flag of every slot of a tree point, with the point's
/// arm mask in the low four bits ([`ARM_BITS`]); the expansion loop
/// reads the mask of a source (`IN_NONE`) state. Predecessor codes
/// are `0..=IN_NONE`, so the bit is free.
const SOURCE_FLAG: u8 = 0x80;

/// The arm-mask bits of a tree point's parent byte.
const ARM_BITS: u8 = 0x0F;

#[inline]
pub(crate) fn dir_code(d: Dir) -> u8 {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::North => 2,
        Dir::South => 3,
        Dir::Up => 4,
        Dir::Down => 5,
    }
}

#[inline]
pub(crate) fn code_dir(c: u8) -> Option<Dir> {
    Some(match c {
        0 => Dir::East,
        1 => Dir::West,
        2 => Dir::North,
        3 => Dir::South,
        4 => Dir::Up,
        5 => Dir::Down,
        _ => return None,
    })
}

/// Packs a search state into 64 bits: layer in the top byte, then 24
/// bits each of x and y, then the incoming-direction code.
///
/// Coordinates must fit in 24 bits signed (`|x|, |y| < 2^23`); grids
/// anywhere near that size are far beyond the paper's benchmarks (the
/// largest, `top`, is 1176 × 1179).
#[inline]
pub(crate) fn key(p: GridPoint, in_code: u8) -> u64 {
    debug_assert!(
        p.x >= -(1 << 23) && p.x < 1 << 23 && p.y >= -(1 << 23) && p.y < 1 << 23,
        "coordinates exceed the 24-bit key budget: {p}"
    );
    ((p.layer as u64) << 56)
        | ((p.x as u32 as u64 & 0xFFFFFF) << 32)
        | ((p.y as u32 as u64 & 0xFFFFFF) << 8)
        | in_code as u64
}

/// Inverse of [`key`], sign-extending the 24-bit coordinates.
#[inline]
pub(crate) fn unkey(k: u64) -> (GridPoint, u8) {
    let layer = (k >> 56) as u8;
    let x = ((k >> 32) & 0xFFFFFF) as u32;
    let y = ((k >> 8) & 0xFFFFFF) as u32;
    let sx = ((x << 8) as i32) >> 8;
    let sy = ((y << 8) as i32) >> 8;
    (GridPoint::new(layer, sx, sy), (k & 0xFF) as u8)
}

/// Tile edge (in tracks) of one paged-window page.
const TILE: usize = 32;
const TILE_SHIFT: usize = 5;

/// Windows with more states than this use lazily allocated tile pages
/// instead of the flat arrays: `2^22` slots ≈ 54 MB of flat scratch,
/// comfortably covering every full-grid window of the paper's
/// mid-size circuits while keeping full-scale `div`/`top` and the
/// 10⁵–10⁶-net synthetic instances from pinning gigabytes per worker.
pub const FLAT_SLOT_LIMIT: usize = 1 << 22;

/// Bits reserved for the within-page offset in a paged slot address.
/// A page holds `layers × 32 × 32 × 7` states — at the 255-layer
/// maximum that is 1,827,840 < 2^21.
const PAGE_ADDR_SHIFT: usize = 21;
const PAGE_ADDR_MASK: usize = (1 << PAGE_ADDR_SHIFT) - 1;

/// One lazily allocated 32×32-track tile of search state (all layers
/// × all incoming-direction codes).
#[derive(Debug, Clone)]
struct Page {
    stamp: Box<[u32]>,
    dist: Box<[i64]>,
    parent: Box<[u8]>,
}

impl Page {
    fn zeroed(slots: usize) -> Page {
        Page {
            stamp: vec![0u32; slots].into_boxed_slice(),
            dist: vec![0i64; slots].into_boxed_slice(),
            parent: vec![0u8; slots].into_boxed_slice(),
        }
    }
}

/// Reusable search buffers: dist/parent/visited state over the active
/// window plus the open set.
///
/// One scratch serves any number of searches; state is lazily
/// "cleared" by bumping an epoch. Small windows index flat arrays
/// that grow to the largest such window seen; windows above
/// [`FLAT_SLOT_LIMIT`] states switch to 32×32-track tile pages
/// allocated on first touch, so memory tracks the states a search
/// actually visits rather than the window area. Create one scratch
/// per routing thread and pass it to every [`route_connection`] /
/// [`crate::dijkstra::route_net`] call.
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Epoch a flat slot was last written in; `!= epoch` = unvisited.
    stamp: Vec<u32>,
    /// Best known cost from the sources (valid when stamped).
    dist: Vec<i64>,
    /// Incoming-direction code of the predecessor state, or
    /// [`SOURCE_FLAG`] plus an arm mask (valid when stamped).
    parent: Vec<u8>,
    /// Tile pages of the paged mode (`None` = never touched).
    pages: Vec<Option<Box<Page>>>,
    /// States per page (`layer_count × 32 × 32 × 7`).
    page_slots: usize,
    /// Pages per tile row of the active window.
    tiles_x: usize,
    /// `true` when the active window is in paged mode.
    paged: bool,
    /// Open set: `(f = g + h, packed state key)`.
    queue: DialQueue,
    /// Current search epoch (0 = no search begun).
    epoch: u32,
    /// Active window geometry.
    x0: i32,
    y0: i32,
    w: usize,
    h: usize,
    /// Statistics: states expanded (open-set pops that were not
    /// stale) since construction. Drives the kernel benchmarks.
    pub expanded: u64,
    /// Statistics: searches begun since construction.
    pub searches: u64,
    /// When set, [`route_connection`] refuses to *start* a search
    /// once `expanded` has reached this value (the budget's expansion
    /// cap). Checked only at search entry — never inside the inner
    /// loop — so the kernel's per-node cost is unchanged.
    expansion_stop: Option<u64>,
}

impl Default for SearchScratch {
    fn default() -> SearchScratch {
        SearchScratch::new()
    }
}

impl SearchScratch {
    /// A scratch with empty buffers (they grow on first use).
    pub fn new() -> SearchScratch {
        SearchScratch {
            stamp: Vec::new(),
            dist: Vec::new(),
            parent: Vec::new(),
            pages: Vec::new(),
            page_slots: 0,
            tiles_x: 0,
            paged: false,
            queue: DialQueue::new(),
            epoch: 0,
            x0: 0,
            y0: 0,
            w: 0,
            h: 0,
            expanded: 0,
            searches: 0,
            expansion_stop: None,
        }
    }

    /// Installs (or lifts, with `None`) the absolute expansion-count
    /// stop value: searches no longer start once [`Self::expanded`]
    /// reaches it.
    pub fn set_expansion_stop(&mut self, stop: Option<u64>) {
        self.expansion_stop = stop;
    }

    /// Prepares the buffers for one search over `window` ×
    /// `layer_count` metal layers: picks flat or paged mode from the
    /// window's state count, grows the backing storage if needed, and
    /// bumps the epoch so every slot reads as unvisited without
    /// clearing.
    fn begin(&mut self, window: Window, layer_count: u8) {
        self.x0 = window.x0;
        self.y0 = window.y0;
        self.w = window.width() as usize;
        self.h = window.height() as usize;
        let cap = self.w * self.h * layer_count as usize * STATES_PER_POINT;
        self.paged = cap > FLAT_SLOT_LIMIT;
        if self.paged {
            let slots = layer_count as usize * TILE * TILE * STATES_PER_POINT;
            if self.page_slots != slots {
                // Layer count changed under us: page geometry is
                // stale, drop every page.
                self.pages.clear();
                self.page_slots = slots;
            }
            self.tiles_x = self.w.div_ceil(TILE);
            let tiles_y = self.h.div_ceil(TILE);
            let n_pages = self.tiles_x * tiles_y;
            if self.pages.len() < n_pages {
                self.pages.resize_with(n_pages, || None);
            }
        } else if self.stamp.len() < cap {
            self.stamp.resize(cap, 0);
            self.dist.resize(cap, 0);
            self.parent.resize(cap, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrapped after 2^32 searches: hard-reset stamps
                // once so stale slots cannot alias the new epoch.
                self.stamp.fill(0);
                for page in self.pages.iter_mut().flatten() {
                    page.stamp.fill(0);
                }
                1
            }
        };
        self.queue.clear();
        self.searches += 1;
    }

    /// Address of a state inside the active window: a flat index in
    /// flat mode, `(page << PAGE_ADDR_SHIFT) | offset` in paged mode.
    #[inline]
    fn slot(&self, p: GridPoint, in_code: u8) -> usize {
        debug_assert!(in_code as usize <= IN_NONE as usize);
        let lx = (p.x - self.x0) as usize;
        let ly = (p.y - self.y0) as usize;
        if !self.paged {
            ((p.layer as usize * self.h + ly) * self.w + lx) * STATES_PER_POINT + in_code as usize
        } else {
            let page = (ly >> TILE_SHIFT) * self.tiles_x + (lx >> TILE_SHIFT);
            let off = ((p.layer as usize * TILE + (ly & (TILE - 1))) * TILE + (lx & (TILE - 1)))
                * STATES_PER_POINT
                + in_code as usize;
            (page << PAGE_ADDR_SHIFT) | off
        }
    }

    /// Best known cost of a state, or `i64::MAX` when unvisited this
    /// epoch (including never-touched pages).
    #[inline]
    fn dist_at(&self, slot: usize) -> i64 {
        if !self.paged {
            if self.stamp[slot] == self.epoch {
                self.dist[slot]
            } else {
                i64::MAX
            }
        } else {
            match &self.pages[slot >> PAGE_ADDR_SHIFT] {
                Some(page) if page.stamp[slot & PAGE_ADDR_MASK] == self.epoch => {
                    page.dist[slot & PAGE_ADDR_MASK]
                }
                _ => i64::MAX,
            }
        }
    }

    /// Parent byte of a stamped state. For an unstamped state (a
    /// programming error) this degrades to [`SOURCE_FLAG`], which
    /// safely terminates reconstruction.
    #[inline]
    fn parent_at(&self, slot: usize) -> u8 {
        if !self.paged {
            self.parent[slot]
        } else {
            match &self.pages[slot >> PAGE_ADDR_SHIFT] {
                Some(page) => page.parent[slot & PAGE_ADDR_MASK],
                None => SOURCE_FLAG,
            }
        }
    }

    /// Stamps a state with cost `g` and predecessor `parent_code`,
    /// allocating its page on first touch in paged mode.
    #[inline]
    fn write(&mut self, slot: usize, g: i64, parent_code: u8) {
        if !self.paged {
            self.stamp[slot] = self.epoch;
            self.dist[slot] = g;
            self.parent[slot] = parent_code;
        } else {
            let slots = self.page_slots;
            let page = self.pages[slot >> PAGE_ADDR_SHIFT]
                .get_or_insert_with(|| Box::new(Page::zeroed(slots)));
            let off = slot & PAGE_ADDR_MASK;
            page.stamp[off] = self.epoch;
            page.dist[off] = g;
            page.parent[off] = parent_code;
        }
    }

    /// Number of currently allocated tile pages (memory diagnostics).
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    #[inline]
    fn relax(&mut self, to: GridPoint, in_code: u8, g: i64, parent_code: u8, f: i64) {
        let slot = self.slot(to, in_code);
        if g < self.dist_at(slot) {
            self.write(slot, g, parent_code);
            self.queue.push(f, key(to, in_code));
        }
    }
}

/// The A* lower bound toward one target, with its constants computed
/// once per search:
///
/// ```text
/// h(p) = manhattan(p, t)·wire + via_span(p, t)·via
///      + [layer(p) = layer(t)] · min(d⊥·cross, 2·via)
/// ```
///
/// `wire` and `via` are [`CostParams::min_wire_step`] and
/// [`CostParams::min_via_step`]; `d⊥` is `p`'s distance from `t`
/// across the target layer's preferred axis, and `cross` is the
/// non-preferred premium `max(0, wire_step(false) − wire_step(true))`.
/// A path on the target layer closes `d⊥` either with non-preferred
/// steps or by leaving the layer and coming back (two vias).
///
/// Consistency, move by move (all dynamic costs are non-negative):
/// a preferred step costs ≥ `wire` and keeps `d⊥`; a non-preferred
/// step costs ≥ `wire + cross` and changes `d⊥` by one; a via costs
/// ≥ `via` and changes `via_span` by one while the crossing term,
/// at most `2·via`, appears or vanishes only on the via between the
/// target layer and its neighbour, where `via_span` moves the other
/// way. So `h(p) ≤ cost(p→q) + h(q)` and `h(t) = 0`: the first pop of
/// the target is optimal, exactly as in Dijkstra.
#[derive(Debug, Clone, Copy)]
struct Bound {
    target: GridPoint,
    wire: i64,
    via: i64,
    /// Crossing premium per track of x / y distance: `cross` on the
    /// axis across the target layer's preferred axis, 0 on the other.
    cross_x: i64,
    cross_y: i64,
    /// `2·via`: a via pair around the crossing.
    cap: i64,
}

impl Bound {
    fn new(params: &CostParams, grid: &RoutingGrid, target: GridPoint) -> Bound {
        let cross = (params.wire_step(false) - params.wire_step(true)).max(0);
        let (cross_x, cross_y) = match grid.preferred_axis(target.layer) {
            Some(Axis::Horizontal) => (0, cross),
            Some(Axis::Vertical) => (cross, 0),
            None => (0, 0),
        };
        let via = params.min_via_step();
        Bound {
            target,
            wire: params.min_wire_step(),
            via,
            cross_x,
            cross_y,
            cap: 2 * via,
        }
    }

    /// The lower bound on the cost from `p` to the target.
    #[inline]
    fn at(&self, p: GridPoint) -> i64 {
        let dx = p.x.abs_diff(self.target.x) as i64;
        let dy = p.y.abs_diff(self.target.y) as i64;
        let planar = (dx + dy) * self.wire;
        if p.layer == self.target.layer {
            planar + (dx * self.cross_x + dy * self.cross_y).min(self.cap)
        } else {
            planar + p.via_span(self.target) as i64 * self.via
        }
    }
}

/// Searches a minimum-cost path from the source tree to `target`
/// using the dense A* kernel.
///
/// * `tree` — every tree point with its planar-arm mask. Points on
///   routing layers are the sources (turn legality at branch points
///   is checked against their arms); no tree point can be traversed
///   (a path may only *start* at the tree);
/// * `target` — the pad to reach (on a routing layer);
/// * `scratch` — reusable buffers (see [`SearchScratch`]).
///
/// Tree points outside `window` are ignored; the search never leaves
/// the window. Returns `None` when no path exists inside it.
///
/// The returned path has exactly the cost Dijkstra would find; only
/// tie-breaking among equal-cost paths may differ from the hash-based
/// reference kernel the unit tests compare against.
pub fn route_connection(
    state: &RouterState,
    net: NetId,
    tree: &TreeArms,
    target: GridPoint,
    window: Window,
    scratch: &mut SearchScratch,
) -> Option<FoundPath> {
    let params = &state.params;
    let grid = &state.grid;
    if !window.contains(target.x, target.y) {
        return None;
    }
    if scratch
        .expansion_stop
        .is_some_and(|s| scratch.expanded >= s)
    {
        return None; // expansion budget exhausted: refuse to search
    }
    let bound = Bound::new(params, grid, target);

    scratch.begin(window, grid.layer_count());
    // Close every in-window tree point for all incoming codes at cost
    // 0 (no step can improve on it, so `relax` never re-opens one),
    // then open the routing-layer ones as sources carrying their arms.
    // The map's iteration order is per-process, but the queue pops
    // equal f-values in key order, so the search does not depend on it.
    for (&p, &arms) in tree {
        if !window.contains(p.x, p.y) {
            continue;
        }
        for code in 0..=IN_NONE {
            let slot = scratch.slot(p, code);
            scratch.write(slot, 0, SOURCE_FLAG | arms);
        }
        if grid.is_routing_layer(p.layer) {
            scratch.queue.push(bound.at(p), key(p, IN_NONE));
        }
    }

    let mut goal: Option<(GridPoint, u8)> = None;
    while let Some((f, k)) = scratch.queue.pop() {
        let (p, in_code) = unkey(k);
        let slot = scratch.slot(p, in_code);
        let g = scratch.dist_at(slot);
        if f > g + bound.at(p) {
            continue; // stale open-set entry: the state was re-relaxed
        }
        scratch.expanded += 1;
        if p == target {
            goal = Some((p, in_code));
            break;
        }
        let in_dir = code_dir(in_code);
        // Existing arms at a branch point; only sources have no
        // incoming direction, and their parent byte holds the mask.
        let arms = match in_dir {
            None => scratch.parent_at(slot) & ARM_BITS,
            Some(_) => 0,
        };

        // Planar moves.
        for dir in Dir::PLANAR {
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && dir == in_d.opposite() {
                    continue; // no immediate U-turn
                }
            }
            let mut extra = 0i64;
            // Turn legality mid-path.
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && in_d.axis() != dir.axis() {
                    let arm = in_d.opposite();
                    let Some(turn) = TurnKind::from_arms(arm, dir) else {
                        continue; // arms share an axis: not a turn
                    };
                    match classify_turn(state.kind, p.x, p.y, turn) {
                        TurnClass::Forbidden => continue,
                        TurnClass::NonPreferred => extra += params.turn_penalty(),
                        TurnClass::Preferred => {}
                    }
                }
            }
            // Turn legality at branch points (source states).
            if arms != 0 {
                let mut ok = true;
                for arm in Dir::PLANAR {
                    if arms & (1 << dir_code(arm)) == 0 || arm.axis() == dir.axis() {
                        continue;
                    }
                    let Some(turn) = TurnKind::from_arms(arm, dir) else {
                        continue; // arms share an axis: not a turn
                    };
                    match classify_turn(state.kind, p.x, p.y, turn) {
                        TurnClass::Forbidden => {
                            ok = false;
                            break;
                        }
                        TurnClass::NonPreferred => extra += params.turn_penalty(),
                        TurnClass::Preferred => {}
                    }
                }
                if !ok {
                    continue;
                }
            }
            let v = p.stepped(dir);
            if !grid.in_bounds(v) || !window.contains(v.x, v.y) {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let preferred = grid.preferred_axis(p.layer) == dir.axis();
            let step = params.wire_step(preferred) + state.vertex_cost(v, net) + extra;
            let g2 = g + step;
            let f2 = g2 + bound.at(v);
            scratch.relax(v, dir_code(dir), g2, in_code, f2);
        }

        // Via moves between adjacent routing layers.
        for dir in [Dir::Up, Dir::Down] {
            let v = p.stepped(dir);
            if v.layer >= grid.layer_count() || !grid.is_routing_layer(v.layer) {
                continue;
            }
            if let Some(in_d) = in_dir {
                if !in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let vl = p.layer.min(v.layer);
            let Some(via_cost) = state.via_cost(vl, p.x, p.y) else {
                continue; // blocked via location
            };
            let step = via_cost + state.vertex_cost(v, net);
            let g2 = g + step;
            let f2 = g2 + bound.at(v);
            scratch.relax(v, dir_code(dir), g2, in_code, f2);
        }
    }

    let (mut p, mut in_code) = goal?;
    let cost = scratch.dist_at(scratch.slot(p, in_code));
    // Reconstruct by walking incoming directions back to a source.
    let mut edges = Vec::new();
    let mut vias = Vec::new();
    loop {
        let slot = scratch.slot(p, in_code);
        let parent_code = scratch.parent_at(slot);
        if parent_code & SOURCE_FLAG != 0 {
            break;
        }
        // Non-source states always carry an incoming direction and
        // adjacent same-layer states always form a wire edge; bail out
        // of the search (rather than panic) if either invariant is
        // ever violated.
        let dir = code_dir(in_code)?;
        let prev = p.stepped(dir.opposite());
        if prev.layer == p.layer {
            edges.push(WireEdge::between(prev, p)?);
        } else {
            vias.push(Via::new(prev.layer.min(p.layer), p.x, p.y));
        }
        p = prev;
        in_code = parent_code;
    }
    Some(FoundPath { edges, vias, cost })
}

/// The original hash-based Dijkstra kernel, kept verbatim as the
/// oracle of the differential tests below.
#[cfg(test)]
fn route_connection_reference(
    state: &RouterState,
    net: NetId,
    tree: &TreeArms,
    target: GridPoint,
    window: Window,
) -> Option<FoundPath> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let params = &state.params;
    let grid = &state.grid;
    let mut dist: HashMap<u64, i64> = HashMap::new();
    let mut parent: HashMap<u64, u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(i64, u64)>> = BinaryHeap::new();

    let relax = |dist: &mut HashMap<u64, i64>,
                 parent: &mut HashMap<u64, u64>,
                 heap: &mut BinaryHeap<Reverse<(i64, u64)>>,
                 from: u64,
                 to: u64,
                 cost: i64| {
        let cur = dist.get(&to).copied().unwrap_or(i64::MAX);
        if cost < cur {
            dist.insert(to, cost);
            parent.insert(to, from);
            heap.push(Reverse((cost, to)));
        }
    };

    for &p in tree.keys().filter(|p| grid.is_routing_layer(p.layer)) {
        let k = key(p, IN_NONE);
        dist.insert(k, 0);
        heap.push(Reverse((0, k)));
    }

    let mut goal_key: Option<u64> = None;
    while let Some(Reverse((d, k))) = heap.pop() {
        if dist.get(&k).copied().unwrap_or(i64::MAX) < d {
            continue;
        }
        let (p, in_code) = unkey(k);
        if p == target {
            goal_key = Some(k);
            break;
        }
        let in_dir = code_dir(in_code);

        for dir in Dir::PLANAR {
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            let mut extra = 0i64;
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && in_d.axis() != dir.axis() {
                    let arm = in_d.opposite();
                    let turn = TurnKind::from_arms(arm, dir).expect("perpendicular");
                    match classify_turn(state.kind, p.x, p.y, turn) {
                        TurnClass::Forbidden => continue,
                        TurnClass::NonPreferred => extra += params.turn_penalty(),
                        TurnClass::Preferred => {}
                    }
                }
            }
            if in_dir.is_none() {
                if let Some(&mask) = tree.get(&p) {
                    let arms = Dir::PLANAR
                        .into_iter()
                        .filter(|&a| mask & (1 << dir_code(a)) != 0);
                    let mut ok = true;
                    for arm in arms {
                        if arm.axis() == dir.axis() {
                            continue;
                        }
                        let turn = TurnKind::from_arms(arm, dir).expect("perpendicular");
                        match classify_turn(state.kind, p.x, p.y, turn) {
                            TurnClass::Forbidden => {
                                ok = false;
                                break;
                            }
                            TurnClass::NonPreferred => extra += params.turn_penalty(),
                            TurnClass::Preferred => {}
                        }
                    }
                    if !ok {
                        continue;
                    }
                }
            }
            let v = p.stepped(dir);
            if !grid.in_bounds(v) || !window.contains(v.x, v.y) {
                continue;
            }
            if tree.contains_key(&v) && v != target {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let preferred = grid.preferred_axis(p.layer) == dir.axis();
            let step = params.wire_step(preferred) + state.vertex_cost(v, net) + extra;
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                k,
                key(v, dir_code(dir)),
                d + step,
            );
        }

        for dir in [Dir::Up, Dir::Down] {
            let v = p.stepped(dir);
            if v.layer >= grid.layer_count() || !grid.is_routing_layer(v.layer) {
                continue;
            }
            if let Some(in_d) = in_dir {
                if !in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            if tree.contains_key(&v) && v != target {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let vl = p.layer.min(v.layer);
            let Some(via_cost) = state.via_cost(vl, p.x, p.y) else {
                continue;
            };
            let step = via_cost + state.vertex_cost(v, net);
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                k,
                key(v, dir_code(dir)),
                d + step,
            );
        }
    }

    let goal = goal_key?;
    let mut edges = Vec::new();
    let mut vias = Vec::new();
    let mut cur = goal;
    let cost = dist[&goal];
    while let Some(&prev) = parent.get(&cur) {
        let (cp, _) = unkey(cur);
        let (pp, _) = unkey(prev);
        if cp.layer == pp.layer {
            edges.push(WireEdge::between(pp, cp).expect("adjacent"));
        } else {
            vias.push(Via::new(cp.layer.min(pp.layer), cp.x, cp.y));
        }
        cur = prev;
    }
    Some(FoundPath { edges, vias, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostParams;
    use crate::dijkstra::{route_net, route_net_with};
    use benchgen::BenchSpec;
    use sadp_grid::{LayerRole, Net, Netlist, Pin, SadpKind};

    fn state_with(nets: Vec<Net>) -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let grid = RoutingGrid::three_layer(24, 24);
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, st)
    }

    #[test]
    fn window_around_empty_is_none() {
        assert_eq!(Window::around(std::iter::empty(), 8, 24, 24), None);
    }

    #[test]
    fn window_clamps_to_grid() {
        let w = Window::around([(0, 0), (5, 5)], 10, 24, 24).unwrap();
        assert_eq!(
            w,
            Window {
                x0: 0,
                y0: 0,
                x1: 15,
                y1: 15
            }
        );
        assert!(w.contains(0, 0));
        assert!(!w.contains(16, 0));
        assert_eq!(w.width(), 16);
        assert_eq!(w.height(), 16);
    }

    #[test]
    fn window_margin_does_not_overflow() {
        let w = Window::around([(3, 3)], i32::MAX / 4, 24, 24).unwrap();
        assert_eq!(
            w,
            Window {
                x0: 0,
                y0: 0,
                x1: 23,
                y1: 23
            }
        );
    }

    #[test]
    fn key_round_trips() {
        let p = GridPoint::new(2, 1175, 1178);
        for c in 0..7u8 {
            let (q, cc) = unkey(key(p, c));
            assert_eq!((q, cc), (p, c));
        }
    }

    #[test]
    fn key_round_trips_at_24_bit_edge() {
        // The largest representable coordinate.
        let p = GridPoint::new(1, (1 << 23) - 1, (1 << 23) - 1);
        let (q, c) = unkey(key(p, IN_NONE));
        assert_eq!((q, c), (p, IN_NONE));
        // Negative coordinates sign-extend correctly.
        let n = GridPoint::new(0, -5, -(1 << 23));
        let (qn, _) = unkey(key(n, 0));
        assert_eq!(qn, n);
    }

    // A test of a `debug_assert!`, so debug builds only; in release
    // builds `RoutingGrid::validate` enforces the same 2^23 limit.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "24-bit key budget")]
    fn key_rejects_oversized_coordinates() {
        // 2^23 itself no longer fits 24-bit signed; debug builds catch
        // it instead of silently aliasing to -2^23.
        let _ = key(GridPoint::new(0, 1 << 23, 0), 0);
    }

    /// The first point where `h` breaks consistency — some move
    /// `p → q` with `h(p) > floor(p → q) + h(q)` — or `h(t) ≠ 0`, over
    /// every point and every routing-layer target `t` of `grid`. A
    /// move's floor is its cost in `params` before the non-negative
    /// penalties: `wire_step(preferred)` for a planar step (pin
    /// layers have no preferred axis), `via_step()` for a via.
    fn bound_violation(
        grid: &RoutingGrid,
        params: &CostParams,
        h: impl Fn(GridPoint, GridPoint) -> i64,
    ) -> Option<String> {
        let points: Vec<GridPoint> = (0..grid.layer_count())
            .flat_map(|l| {
                (0..grid.height())
                    .flat_map(move |y| (0..grid.width()).map(move |x| GridPoint::new(l, x, y)))
            })
            .collect();
        for &t in points.iter().filter(|t| grid.is_routing_layer(t.layer)) {
            if h(t, t) != 0 {
                return Some(format!("h({t}) = {} at the target", h(t, t)));
            }
            for &p in &points {
                for dir in Dir::ALL {
                    let q = p.stepped(dir);
                    if q.layer >= grid.layer_count() || !grid.in_bounds(q) {
                        continue;
                    }
                    let floor = match dir.axis() {
                        Some(axis) => params.wire_step(grid.preferred_axis(p.layer) == Some(axis)),
                        None => params.via_step(),
                    };
                    if h(p, t) > floor + h(q, t) {
                        return Some(format!(
                            "toward {t}: h({p}) = {} > {floor} + h({q}) = {}",
                            h(p, t),
                            h(q, t)
                        ));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn bound_is_consistent_on_small_stacks() {
        let alternating = |n: usize| {
            let mut layers = vec![LayerRole::PinOnly];
            layers.extend((1..n).map(|l| {
                LayerRole::Routing(if l % 2 == 1 {
                    Axis::Horizontal
                } else {
                    Axis::Vertical
                })
            }));
            RoutingGrid::new(6, 5, layers)
        };
        let stacks = [
            RoutingGrid::three_layer(6, 5),
            alternating(4),
            alternating(5),
        ];
        let params = [
            CostParams::default(),
            CostParams::conference(),
            CostParams {
                non_preferred_mult: 1,
                ..CostParams::default()
            },
            CostParams {
                non_preferred_mult: 3,
                ..CostParams::default()
            },
            CostParams {
                via_base: 0,
                ..CostParams::default()
            },
            CostParams {
                via_base: 3,
                ..CostParams::default()
            },
        ];
        for grid in &stacks {
            for p in &params {
                let bound = |q: GridPoint, t: GridPoint| Bound::new(p, grid, t).at(q);
                assert_eq!(
                    bound_violation(grid, p, bound),
                    None,
                    "{} layers, {p:?}",
                    grid.layer_count()
                );
                // A Manhattan bound weighted by 1.25 overestimates a
                // single preferred step, so it is not consistent.
                let weighted = |q: GridPoint, t: GridPoint| {
                    (q.manhattan(t) as i64 * p.min_wire_step()
                        + q.via_span(t) as i64 * p.min_via_step())
                        * 5
                        / 4
                };
                assert!(
                    bound_violation(grid, p, weighted).is_some(),
                    "the weighted bound passed on {} layers, {p:?}",
                    grid.layer_count()
                );
            }
        }
        // Two tracks across the horizontal layer of the target: two
        // preferred-cost tracks plus the cheaper of two non-preferred
        // premiums (2000) and a via pair (4000).
        let grid = RoutingGrid::three_layer(6, 5);
        let bound = Bound::new(&CostParams::default(), &grid, GridPoint::new(1, 0, 0));
        assert_eq!(bound.at(GridPoint::new(1, 0, 2)), 4000);
        assert_eq!(bound.at(GridPoint::new(2, 0, 2)), 4000);
    }

    #[test]
    fn scratch_reuse_across_searches_is_clean() {
        // Two different connections through one scratch: the second
        // search must not see the first search's state.
        let (nl, st) = state_with(vec![
            Net::new("a", vec![Pin::new(4, 6), Pin::new(12, 6)]),
            Net::new("b", vec![Pin::new(2, 2), Pin::new(20, 20)]),
        ]);
        let mut scratch = SearchScratch::new();
        let ra = route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let rb = route_net(&st, NetId(1), &nl[NetId(1)], &mut scratch).expect("routable");
        let mut fresh = SearchScratch::new();
        let ra2 = route_net(&st, NetId(0), &nl[NetId(0)], &mut fresh).expect("routable");
        let rb2 = route_net(&st, NetId(1), &nl[NetId(1)], &mut fresh).expect("routable");
        assert_eq!(ra, ra2);
        assert_eq!(rb, rb2);
        assert!(scratch.searches >= 2);
        assert!(scratch.expanded > 0);
    }

    #[test]
    fn astar_expands_fewer_states_than_reference_visits() {
        // On a plain two-pin connection in a generous window, the
        // A* lower bound must focus the search: expanded states
        // stay well below the full state space.
        let (nl, st) = state_with(vec![Net::new("a", vec![Pin::new(2, 12), Pin::new(21, 12)])]);
        let mut scratch = SearchScratch::new();
        route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let state_space = 24 * 24 * 3 * 7;
        assert!(
            scratch.expanded < state_space / 4,
            "A* expanded {} of {} states",
            scratch.expanded,
            state_space
        );
    }

    /// The acceptance-criteria differential test: on randomized
    /// benchgen instances, the dense A* kernel must return paths with
    /// exactly the cost the hash-based Dijkstra reference finds, for
    /// every connection of every net, including under installed-route
    /// penalties and history costs.
    #[test]
    fn dense_kernel_matches_reference_cost_on_random_instances() {
        let mut instances = 0usize;
        let mut connections = 0usize;
        for seed in 0..10u64 {
            for spec in [
                BenchSpec {
                    name: "diff-a",
                    nets: 14,
                    width: 28,
                    height: 28,
                },
                BenchSpec {
                    name: "diff-b",
                    nets: 20,
                    width: 36,
                    height: 30,
                },
            ] {
                instances += 1;
                let nl = spec.generate(seed);
                let mut st = RouterState::new(
                    spec.grid(),
                    &nl,
                    if seed % 2 == 0 {
                        SadpKind::Sim
                    } else {
                        SadpKind::Sid
                    },
                    CostParams::default(),
                    true,
                    true,
                );
                // Sprinkle history so the cost landscape is nontrivial.
                for k in 0..spec.width.min(spec.height) {
                    st.bump_history(GridPoint::new(1 + (k % 2) as u8, k, (k * 7) % spec.height));
                }
                let mut scratch = SearchScratch::new();
                let ids: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
                for id in ids {
                    let routed =
                        route_net_with(&st, id, &nl[id], |st, id, tree, target, window| {
                            let dense =
                                route_connection(st, id, tree, target, window, &mut scratch);
                            let reference =
                                route_connection_reference(st, id, tree, target, window);
                            match (&dense, &reference) {
                                (Some(a), Some(b)) => {
                                    assert_eq!(
                                        a.cost, b.cost,
                                        "kernel cost mismatch routing {id:?} to {target}"
                                    );
                                    connections += 1;
                                }
                                (None, None) => {}
                                _ => panic!(
                                    "kernel reachability mismatch routing {id:?} to {target}: \
                                     dense={dense:?} reference={reference:?}"
                                ),
                            }
                            dense
                        });
                    // Install found routes so later nets search a
                    // penalized, partially occupied graph.
                    if let Some(r) = routed {
                        st.install_route(id, r);
                    }
                }
            }
        }
        assert!(
            instances >= 20,
            "need >= 20 randomized instances, got {instances}"
        );
        assert!(
            connections > 100,
            "differential test exercised too few connections"
        );
    }

    #[test]
    fn paged_scratch_matches_flat_scratch() {
        // Force one scratch into paged mode by shrinking the flat
        // threshold indirectly: route through a scratch whose `paged`
        // flag we flip by hand after `begin` picks the mode. Instead of
        // reaching into private state mid-search, route the same
        // instance through a scratch that *starts* paged because its
        // window exceeds the limit — emulated here by checking the two
        // addressing modes agree through the public route path on a
        // grid small enough to run flat, plus a direct unit check of
        // the paged address map.
        let (nl, st) = state_with(vec![
            Net::new("a", vec![Pin::new(2, 2), Pin::new(20, 20), Pin::new(4, 18)]),
            Net::new("b", vec![Pin::new(6, 3), Pin::new(18, 9)]),
        ]);
        let mut flat = SearchScratch::new();
        let mut paged = SearchScratch::new();
        // Drop the paged scratch into tile mode for the same window
        // geometry the flat one uses.
        let window = Window::around([(0, 0), (23, 23)], 0, 24, 24).unwrap();
        paged.begin(window, 3);
        paged.paged = true;
        paged.page_slots = 3 * TILE * TILE * STATES_PER_POINT;
        paged.tiles_x = paged.w.div_ceil(TILE);
        let tiles_y = paged.h.div_ceil(TILE);
        paged.pages.clear();
        paged.pages.resize_with(paged.tiles_x * tiles_y, || None);
        // Same state written through both addressing modes reads back
        // identically.
        flat.begin(window, 3);
        for (x, y, layer, code) in [(0, 0, 0u8, 0u8), (23, 23, 2, 6), (7, 15, 1, 3)] {
            let p = GridPoint::new(layer, x, y);
            let fs = flat.slot(p, code);
            let ps = paged.slot(p, code);
            flat.write(fs, 42 + x as i64, code);
            paged.write(ps, 42 + x as i64, code);
            assert_eq!(flat.dist_at(fs), paged.dist_at(ps));
            assert_eq!(flat.parent_at(fs), paged.parent_at(ps));
        }
        assert!(paged.allocated_pages() >= 1);
        // Untouched state reads unvisited in both modes.
        let q = GridPoint::new(1, 11, 3);
        assert_eq!(flat.dist_at(flat.slot(q, 2)), i64::MAX);
        assert_eq!(paged.dist_at(paged.slot(q, 2)), i64::MAX);
        // And a full route through each mode agrees end to end: run
        // the paged scratch through the public path (its next `begin`
        // re-picks flat mode for this small window, so instead compare
        // two independent fresh scratches for determinism).
        let mut s1 = SearchScratch::new();
        let mut s2 = SearchScratch::new();
        for id in [NetId(0), NetId(1)] {
            let r1 = route_net(&st, id, &nl[id], &mut s1);
            let r2 = route_net(&st, id, &nl[id], &mut s2);
            assert_eq!(r1, r2);
        }
    }

    /// End-to-end paged-mode differential: route on a grid whose full
    /// window genuinely exceeds [`FLAT_SLOT_LIMIT`] so the scratch
    /// switches to tile pages, and check every connection against the
    /// hash-based reference kernel on the same full window.
    #[test]
    fn paged_window_routes_match_reference_kernel() {
        // 480 x 480 x 3 layers x 7 codes = 4.8M slots > FLAT_SLOT_LIMIT.
        let grid = RoutingGrid::three_layer(480, 480);
        let mut nl = Netlist::new();
        nl.push(Net::new(
            "long",
            vec![Pin::new(6, 10), Pin::new(460, 430), Pin::new(30, 400)],
        ));
        nl.push(Net::new(
            "short",
            vec![Pin::new(100, 100), Pin::new(140, 108)],
        ));
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        let full = Window::around([(0, 0), (479, 479)], 0, 480, 480).unwrap();
        let cap = full.width() as usize * full.height() as usize * 3 * STATES_PER_POINT;
        assert!(cap > FLAT_SLOT_LIMIT, "window must trigger paged mode");
        let mut scratch = SearchScratch::new();
        for id in [NetId(0), NetId(1)] {
            let routed = route_net_with(&st, id, &nl[id], |st, id, tree, target, _w| {
                // Substitute the full window so the dense kernel runs
                // in paged mode; the reference kernel is window-exact.
                let dense = route_connection(st, id, tree, target, full, &mut scratch);
                let reference = route_connection_reference(st, id, tree, target, full);
                match (&dense, &reference) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost, b.cost, "paged-kernel cost mismatch for {id:?}")
                    }
                    (None, None) => {}
                    _ => panic!("paged-kernel reachability mismatch for {id:?}"),
                }
                dense
            });
            assert!(routed.is_some(), "full-window search must route {id:?}");
        }
        assert!(scratch.allocated_pages() > 0, "paged mode never engaged");
        assert!(
            scratch.allocated_pages() < scratch.pages.len(),
            "every page allocated — lazy paging saved nothing ({}/{})",
            scratch.allocated_pages(),
            scratch.pages.len()
        );
    }
}
