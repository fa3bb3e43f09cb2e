//! Forbidden via patterns (FVPs) and the incremental per-layer index.
//!
//! An FVP is a via pattern inside a 3×3 grid window that is not
//! 3-colorable under the same-color-pitch conflict model. The paper's
//! O(1) classification (§II-D):
//!
//! 1. six or more vias → FVP;
//! 2. five vias → FVP unless four of them occupy the window corners;
//! 3. four vias → FVP unless two occupy diagonally opposite corners;
//! 4. three or fewer vias → never an FVP.
//!
//! The rules read a window as a 9-bit occupancy mask: a population
//! count plus two corner tests, with no allocation. [`FvpIndex`] reads
//! its masks straight out of its via bitset; [`window_is_fvp`] builds
//! one from window-relative positions.
//! [`window_is_3colorable_bruteforce`] is the exhaustive reference the
//! test suite proves the rules equivalent to (all 512 window masks).

use crate::conflict::vias_conflict;

/// Side length of the classification window (3×3 grid points).
pub const WINDOW: i32 = 3;

/// The bit of window-relative position `(dx, dy)` in a window mask:
/// x-major, bit `3·dx + dy`, the same order as the index's cells.
#[inline]
const fn mask_bit(dx: i32, dy: i32) -> u16 {
    1 << (dx * WINDOW + dy)
}

/// The four corner bits of a window mask.
const CORNERS: u16 = DIAGONAL | ANTI_DIAGONAL;
/// Corners `(0, 0)` and `(2, 2)`.
const DIAGONAL: u16 = mask_bit(0, 0) | mask_bit(2, 2);
/// Corners `(2, 0)` and `(0, 2)`.
const ANTI_DIAGONAL: u16 = mask_bit(2, 0) | mask_bit(0, 2);

/// The §II-D rules on a 9-bit window mask (bit [`mask_bit`]`(dx, dy)`
/// set when a via occupies `(dx, dy)`): `true` when the pattern is an
/// FVP. This is the one classifier behind [`window_is_fvp`] and
/// [`FvpIndex`].
#[inline]
fn mask_is_fvp(mask: u16) -> bool {
    match mask.count_ones() {
        0..=3 => false,
        // Colorable iff some diagonally opposite corner pair is
        // occupied.
        4 => mask & DIAGONAL != DIAGONAL && mask & ANTI_DIAGONAL != ANTI_DIAGONAL,
        // Colorable iff all four corners are occupied.
        5 => mask & CORNERS != CORNERS,
        _ => true,
    }
}

/// Classifies a via pattern inside a 3×3 window.
///
/// `vias` holds window-relative positions with coordinates in `0..3`;
/// duplicates are ignored. Returns `true` when the pattern is a
/// forbidden via pattern (not 3-colorable).
///
/// # Panics
///
/// Panics if a position lies outside the window.
///
/// ```
/// use tpl_decomp::window_is_fvp;
/// // Four corners plus center: 3-colorable (paper Fig. 7(a)-like).
/// assert!(!window_is_fvp(&[(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]));
/// // Four vias, no diagonal corner pair: FVP (Fig. 7(d)).
/// assert!(window_is_fvp(&[(0, 0), (1, 0), (0, 1), (1, 1)]));
/// ```
pub fn window_is_fvp(vias: &[(i32, i32)]) -> bool {
    let mut mask = 0u16;
    for &(x, y) in vias {
        assert!(
            (0..WINDOW).contains(&x) && (0..WINDOW).contains(&y),
            "({x}, {y}) lies outside the {WINDOW}x{WINDOW} window"
        );
        mask |= mask_bit(x, y);
    }
    mask_is_fvp(mask)
}

/// Exhaustive 3-coloring of the window conflict graph — the reference
/// implementation the rule-based classifier is verified against.
pub fn window_is_3colorable_bruteforce(vias: &[(i32, i32)]) -> bool {
    let mut pts: Vec<(i32, i32)> = vias.to_vec();
    pts.sort_unstable();
    pts.dedup();
    let n = pts.len();
    if n <= 3 {
        return true;
    }
    // Backtracking over 3 colors.
    fn assign(pts: &[(i32, i32)], colors: &mut Vec<u8>, i: usize) -> bool {
        if i == pts.len() {
            return true;
        }
        'colors: for c in 0..3u8 {
            for j in 0..i {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                if colors[j] == c && vias_conflict(dx, dy) {
                    continue 'colors;
                }
            }
            colors[i] = c;
            if assign(pts, colors, i + 1) {
                return true;
            }
        }
        false
    }
    let mut colors = vec![0u8; n];
    assign(&pts, &mut colors, 0)
}

/// A flat bitset over grid cells.
#[derive(Debug, Clone, Default)]
struct BitGrid {
    words: Vec<u64>,
}

impl BitGrid {
    fn new(cells: usize) -> BitGrid {
        BitGrid {
            words: vec![0; cells.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Sets bit `i`; returns `true` if it was previously clear.
    #[inline]
    fn set(&mut self, i: usize) -> bool {
        let w = &mut self.words[i >> 6];
        let m = 1u64 << (i & 63);
        let was_clear = *w & m == 0;
        *w |= m;
        was_clear
    }

    /// Clears bit `i`; returns `true` if it was previously set.
    #[inline]
    fn clear(&mut self, i: usize) -> bool {
        let w = &mut self.words[i >> 6];
        let m = 1u64 << (i & 63);
        let was_set = *w & m != 0;
        *w &= !m;
        was_set
    }

    /// Bits `i..i + 3` as the low bits of a `u16`. All three must be
    /// in range.
    #[inline]
    fn get3(&self, i: usize) -> u16 {
        let (w, b) = (i >> 6, i & 63);
        let mut bits = self.words[w] >> b;
        if b > 61 {
            // The run straddles a word boundary.
            bits |= self.words[w + 1] << (64 - b);
        }
        (bits & 7) as u16
    }

    /// Iterates over set bit indices in ascending order.
    fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some((wi << 6) | b)
                }
            })
        })
    }
}

/// The window origins `(ox, oy)` whose 3×3 area contains `(x, y)` on a
/// `w × h` grid.
fn windows_touching(w: i32, h: i32, x: i32, y: i32) -> impl Iterator<Item = (i32, i32)> {
    let x0 = (x - WINDOW + 1).max(0);
    let x1 = x.min(w - WINDOW);
    let y0 = (y - WINDOW + 1).max(0);
    let y1 = y.min(h - WINDOW);
    (x0..=x1).flat_map(move |ox| (y0..=y1).map(move |oy| (ox, oy)))
}

/// An incremental FVP index over one via layer.
///
/// Tracks the set of vias on the layer and the set of 3×3 windows
/// whose current pattern is an FVP. Adding or removing a via updates
/// at most nine windows (O(1)); the full FVP list is available at any
/// time, which is exactly what the paper's via-layer TPL violation
/// removal R&R (Algorithm 2) needs.
///
/// Both the via set and the FVP-window set are dense bitsets indexed
/// in x-major order, so membership tests are single word reads and
/// iteration yields positions in sorted `(x, y)` order. FVP windows
/// are additionally tracked in an epoch-stamped dirty list — a
/// superset of the currently-set origins, with each origin pushed at
/// most once per epoch — so [`FvpIndex::fvp_windows`] is proportional
/// to the number of recently-violating windows, not the grid area.
///
/// ```
/// use tpl_decomp::FvpIndex;
///
/// let mut idx = FvpIndex::new(10, 10);
/// for &(x, y) in &[(1, 1), (3, 1), (2, 2)] {
///     idx.add_via(x, y);
/// }
/// assert!(idx.fvp_windows().is_empty());
/// idx.add_via(2, 1); // four vias, no diagonal corner pair -> FVP
/// assert!(!idx.fvp_windows().is_empty());
/// idx.remove_via(2, 1);
/// assert!(idx.fvp_windows().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FvpIndex {
    width: i32,
    height: i32,
    vias: BitGrid,
    fvp: BitGrid,
    via_count: usize,
    fvp_count: usize,
    /// Superset of the set FVP origins; rebuilt when it grows well
    /// past `fvp_count`.
    dirty: Vec<(i32, i32)>,
    /// Per-origin epoch stamp deduplicating `dirty` pushes.
    stamp: Vec<u32>,
    epoch: u32,
}

impl FvpIndex {
    /// Creates an empty index for a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than the window size.
    pub fn new(width: i32, height: i32) -> FvpIndex {
        assert!(
            width >= WINDOW && height >= WINDOW,
            "grid must be at least {WINDOW}x{WINDOW}"
        );
        let cells = (width * height) as usize;
        FvpIndex {
            width,
            height,
            vias: BitGrid::new(cells),
            fvp: BitGrid::new(cells),
            via_count: 0,
            fvp_count: 0,
            dirty: Vec::new(),
            stamp: vec![u32::MAX; cells],
            epoch: 0,
        }
    }

    /// The x-major cell index of `(x, y)` (ascending index order is
    /// lexicographic `(x, y)` order).
    #[inline]
    fn cell(&self, x: i32, y: i32) -> usize {
        debug_assert!(x >= 0 && x < self.width && y >= 0 && y < self.height);
        (x * self.height + y) as usize
    }

    /// Number of vias currently in the index.
    pub fn via_count(&self) -> usize {
        self.via_count
    }

    /// `true` if a via is present at `(x, y)`.
    pub fn contains(&self, x: i32, y: i32) -> bool {
        self.vias.get(self.cell(x, y))
    }

    /// Iterates over all vias in sorted `(x, y)` order.
    pub fn vias(&self) -> impl Iterator<Item = (i32, i32)> + '_ {
        let h = self.height;
        self.vias
            .iter_set()
            .map(move |i| ((i as i32) / h, (i as i32) % h))
    }

    /// The origins of all windows whose pattern is currently an FVP,
    /// in sorted `(x, y)` order.
    pub fn fvp_windows(&self) -> Vec<(i32, i32)> {
        let mut out: Vec<(i32, i32)> = self
            .dirty
            .iter()
            .copied()
            .filter(|&(ox, oy)| self.fvp.get(self.cell(ox, oy)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of windows whose pattern is currently an FVP.
    pub fn fvp_window_count(&self) -> usize {
        self.fvp_count
    }

    /// `true` if window `(ox, oy)` is currently an FVP.
    pub fn is_fvp_window(&self, ox: i32, oy: i32) -> bool {
        self.fvp.get(self.cell(ox, oy))
    }

    /// The via mask of window `(ox, oy)`: the window's three columns
    /// are three 3-bit runs of the x-major via bitset.
    #[inline]
    fn window_mask(&self, ox: i32, oy: i32) -> u16 {
        let col = self.cell(ox, oy);
        let h = self.height as usize;
        self.vias.get3(col) | self.vias.get3(col + h) << 3 | self.vias.get3(col + 2 * h) << 6
    }

    fn refresh_window(&mut self, ox: i32, oy: i32) {
        let cell = self.cell(ox, oy);
        if mask_is_fvp(self.window_mask(ox, oy)) {
            if self.fvp.set(cell) {
                self.fvp_count += 1;
            }
            if self.stamp[cell] != self.epoch {
                self.stamp[cell] = self.epoch;
                self.dirty.push((ox, oy));
            }
        } else if self.fvp.clear(cell) {
            self.fvp_count -= 1;
        }
    }

    /// Rebuilds the dirty list from the currently-set FVP origins once
    /// stale entries dominate it.
    fn maybe_compact_dirty(&mut self) {
        if self.dirty.len() <= 4 * self.fvp_count + 64 {
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        let mut live = Vec::with_capacity(self.fvp_count);
        for i in 0..self.dirty.len() {
            let (ox, oy) = self.dirty[i];
            let cell = self.cell(ox, oy);
            if self.fvp.get(cell) && self.stamp[cell] != self.epoch {
                self.stamp[cell] = self.epoch;
                live.push((ox, oy));
            }
        }
        self.dirty = live;
    }

    /// Adds a via, updating the affected windows. Returns `false` if a
    /// via was already present there.
    pub fn add_via(&mut self, x: i32, y: i32) -> bool {
        if !self.vias.set(self.cell(x, y)) {
            return false;
        }
        self.via_count += 1;
        for (ox, oy) in windows_touching(self.width, self.height, x, y) {
            self.refresh_window(ox, oy);
        }
        self.maybe_compact_dirty();
        true
    }

    /// Removes a via, updating the affected windows. Returns `false`
    /// if no via was present there.
    pub fn remove_via(&mut self, x: i32, y: i32) -> bool {
        if !self.vias.clear(self.cell(x, y)) {
            return false;
        }
        self.via_count -= 1;
        for (ox, oy) in windows_touching(self.width, self.height, x, y) {
            self.refresh_window(ox, oy);
        }
        self.maybe_compact_dirty();
        true
    }

    /// Would inserting a via at `(x, y)` create at least one FVP?
    ///
    /// This is the check behind the *blocked via locations* of
    /// Algorithm 2 (Fig. 10) and behind the FVP guard of the DVI
    /// heuristic. The position itself may be empty or occupied; an
    /// occupied position trivially returns the current state.
    pub fn would_create_fvp(&self, x: i32, y: i32) -> bool {
        if self.contains(x, y) {
            return windows_touching(self.width, self.height, x, y)
                .any(|(ox, oy)| self.fvp.get(self.cell(ox, oy)));
        }
        windows_touching(self.width, self.height, x, y)
            .any(|(ox, oy)| mask_is_fvp(self.window_mask(ox, oy) | mask_bit(x - ox, y - oy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mask classifier agrees with exhaustive 3-coloring on all
    /// 512 possible window masks — the rules of §II-D are exactly
    /// 3-colorability under the conflict model — and `window_is_fvp`
    /// builds the mask of the positions it is given.
    #[test]
    fn rules_equal_bruteforce_on_all_patterns() {
        for mask in 0u16..512 {
            let vias: Vec<(i32, i32)> = (0..WINDOW)
                .flat_map(|dx| (0..WINDOW).map(move |dy| (dx, dy)))
                .filter(|&(dx, dy)| mask & mask_bit(dx, dy) != 0)
                .collect();
            let colorable = window_is_3colorable_bruteforce(&vias);
            assert_eq!(mask_is_fvp(mask), !colorable, "mask {mask:#011b}");
            assert_eq!(window_is_fvp(&vias), !colorable, "mask {mask:#011b}");
        }
    }

    #[test]
    fn paper_figure7_examples() {
        // Fig. 7(a): 5 vias with 4 on corners — not an FVP.
        assert!(!window_is_fvp(&[(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]));
        // Fig. 7(b): 5 vias not on four corners — FVP.
        assert!(window_is_fvp(&[(0, 0), (2, 0), (0, 2), (1, 1), (1, 2)]));
        // Fig. 7(c): 4 vias with a diagonal corner pair — not an FVP.
        assert!(!window_is_fvp(&[(0, 0), (2, 2), (1, 0), (0, 1)]));
        // Fig. 7(d): 4 vias without a diagonal corner pair — FVP.
        assert!(window_is_fvp(&[(0, 0), (2, 0), (1, 1), (1, 2)]));
    }

    /// The paper's motivation against the via-spacing rule of refs
    /// [18]/[19]: the diamond pattern keeps every pair at Manhattan
    /// distance 2 (no forbidden adjacent positions) yet is an FVP —
    /// spacing rules alone do not ensure TPL decomposability.
    #[test]
    fn spacing_rule_compliant_diamond_is_fvp() {
        let diamond = [(0, 1), (1, 0), (1, 2), (2, 1)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (a, b): ((i32, i32), (i32, i32)) = (diamond[i], diamond[j]);
                assert!((a.0 - b.0).abs() + (a.1 - b.1).abs() >= 2);
            }
        }
        assert!(window_is_fvp(&diamond));
        assert!(!window_is_3colorable_bruteforce(&diamond));
    }

    #[test]
    fn six_vias_always_fvp() {
        assert!(window_is_fvp(&[
            (0, 0),
            (2, 0),
            (0, 2),
            (2, 2),
            (1, 1),
            (1, 0)
        ]));
    }

    #[test]
    fn duplicates_are_ignored() {
        assert!(!window_is_fvp(&[(0, 0), (0, 0), (1, 1), (1, 1)]));
    }

    #[test]
    fn index_tracks_additions_and_removals() {
        let mut idx = FvpIndex::new(8, 8);
        assert_eq!(idx.via_count(), 0);
        // Build Fig. 7(d) at origin (2,2): FVP.
        for &(x, y) in &[(2, 2), (4, 2), (3, 3), (3, 4)] {
            assert!(idx.add_via(x, y));
        }
        assert!(idx.fvp_windows().contains(&(2, 2)));
        assert!(!idx.add_via(2, 2), "double insert rejected");
        assert!(idx.remove_via(3, 3));
        assert!(idx.fvp_windows().is_empty());
        assert!(!idx.remove_via(3, 3));
        assert_eq!(idx.via_count(), 3);
    }

    #[test]
    fn would_create_fvp_predicts() {
        let mut idx = FvpIndex::new(8, 8);
        for &(x, y) in &[(2, 2), (4, 2), (3, 3)] {
            idx.add_via(x, y);
        }
        // Adding (3,4) completes Fig. 7(d).
        assert!(idx.would_create_fvp(3, 4));
        // Adding the far diagonal corner (4,4) gives 4 vias *with* a
        // diagonal pair (2,2)-(4,4): fine.
        assert!(!idx.would_create_fvp(4, 4));
        // The prediction matches reality.
        idx.add_via(3, 4);
        assert!(!idx.fvp_windows().is_empty());
    }

    #[test]
    fn windows_clamp_at_borders() {
        let mut idx = FvpIndex::new(3, 3);
        // Only one window exists on a 3x3 grid.
        for &(x, y) in &[(0, 0), (1, 0), (0, 1), (1, 1)] {
            idx.add_via(x, y);
        }
        assert_eq!(idx.fvp_windows().len(), 1);
        assert!(idx.fvp_windows().contains(&(0, 0)));
    }

    #[test]
    fn dense_line_of_vias_is_not_fvp() {
        // A full row of 3 vias in every window: 3 vias per window,
        // never an FVP (they take the 3 different colors).
        let mut idx = FvpIndex::new(10, 10);
        for x in 0..10 {
            idx.add_via(x, 5);
        }
        assert!(idx.fvp_windows().is_empty());
    }
}
