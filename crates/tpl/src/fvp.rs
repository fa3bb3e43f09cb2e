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
//! count plus two corner tests, with no allocation. [`window_is_fvp`]
//! builds one from window-relative positions; [`FvpIndex`] reads its
//! masks straight out of its via bitset and classifies them through a
//! 512-entry table derived from the same rules at compile time.
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
/// FVP. This is the one classifier behind [`window_is_fvp`] and, through
/// [`THREATS`], [`FvpIndex`].
#[inline]
const fn mask_is_fvp(mask: u16) -> bool {
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

/// Every bit of a window mask.
const ALL: u16 = (1 << (WINDOW * WINDOW)) - 1;

/// `THREATS[m]` is the mask of the window positions where one more via
/// makes window mask `m` an FVP: bit `q` is set iff
/// `mask_is_fvp(m | 1 << q)`. A position already in `m` reads the
/// window's own state, and a pattern that is not 3-colorable stays so
/// when a via is added, so `THREATS[m] == ALL` exactly when `m` is an
/// FVP.
static THREATS: [u16; 512] = threat_table();

const fn threat_table() -> [u16; 512] {
    let mut table = [0; 512];
    let mut m = 0;
    while m < 512 {
        let mut q = 0;
        while q < WINDOW * WINDOW {
            if mask_is_fvp(m as u16 | 1 << q) {
                table[m] |= 1 << q;
            }
            q += 1;
        }
        m += 1;
    }
    table
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

/// The window origins `(ox, oy)` whose 3×3 area contains both `a` and
/// `b` on a `w × h` grid (none when they are too far apart).
fn windows_holding(
    w: i32,
    h: i32,
    a: (i32, i32),
    b: (i32, i32),
) -> impl Iterator<Item = (i32, i32)> {
    let x0 = (a.0.max(b.0) - WINDOW + 1).max(0);
    let x1 = a.0.min(b.0).min(w - WINDOW);
    let y0 = (a.1.max(b.1) - WINDOW + 1).max(0);
    let y1 = a.1.min(b.1).min(h - WINDOW);
    (x0..=x1).flat_map(move |ox| (y0..=y1).map(move |oy| (ox, oy)))
}

/// An incremental FVP index over one via layer.
///
/// Tracks the set of vias on the layer, the set of 3×3 windows whose
/// current pattern is an FVP, and the *blocked via locations* of
/// Algorithm 2: the cells where one more via would create an FVP.
/// Adding or removing a via updates at most nine windows (O(1)); the
/// full FVP list is available at any time, which is exactly what the
/// paper's via-layer TPL violation removal R&R (Algorithm 2) needs,
/// and [`FvpIndex::would_create_fvp`] is one byte read.
///
/// Both the via set and the FVP-window set are dense bitsets indexed
/// in x-major order, so membership tests are single word reads and
/// iteration yields positions in sorted `(x, y)` order. FVP windows
/// are additionally tracked in an epoch-stamped dirty list — a
/// superset of the currently-set origins, with each origin pushed at
/// most once per epoch — so [`FvpIndex::fvp_windows`] is proportional
/// to the number of recently-violating windows, not the grid area.
/// Each cell keeps a count of the windows containing it that one more
/// via there would make (or, on an occupied cell, that already are)
/// FVPs; a via edit moves the counts of the cells whose bit of the
/// 512-entry threat table flips in each of its windows.
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
    /// Per cell, the number of windows containing it that are FVPs
    /// once a via is there (at most nine).
    threats: Vec<u8>,
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
            threats: vec![0; cells],
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

    /// Moves window `(ox, oy)` from via mask `was` to `now`: the
    /// counts of the cells whose [`THREATS`] bit flips, and the
    /// window's FVP bit.
    fn refresh_window(&mut self, ox: i32, oy: i32, was: u16, now: u16) {
        let (was, now) = (THREATS[usize::from(was)], THREATS[usize::from(now)]);
        if was == now {
            return;
        }
        let cell = self.cell(ox, oy);
        let h = self.height as usize;
        // Mask bit `q` is window offset `(q / 3, q % 3)` (`mask_bit`).
        let at = |q: u32| cell + (q / 3) as usize * h + (q % 3) as usize;
        let mut gained = now & !was;
        while gained != 0 {
            self.threats[at(gained.trailing_zeros())] += 1;
            gained &= gained - 1;
        }
        let mut lost = was & !now;
        while lost != 0 {
            self.threats[at(lost.trailing_zeros())] -= 1;
            lost &= lost - 1;
        }
        if now == ALL {
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

    /// Refreshes the windows around `(x, y)` after its via bit flipped.
    fn refresh_around(&mut self, x: i32, y: i32) {
        for (ox, oy) in windows_holding(self.width, self.height, (x, y), (x, y)) {
            let now = self.window_mask(ox, oy);
            self.refresh_window(ox, oy, now ^ mask_bit(x - ox, y - oy), now);
        }
        self.maybe_compact_dirty();
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
        self.refresh_around(x, y);
        true
    }

    /// Removes a via, updating the affected windows. Returns `false`
    /// if no via was present there.
    pub fn remove_via(&mut self, x: i32, y: i32) -> bool {
        if !self.vias.clear(self.cell(x, y)) {
            return false;
        }
        self.via_count -= 1;
        self.refresh_around(x, y);
        true
    }

    /// Would inserting a via at `(x, y)` create at least one FVP?
    ///
    /// This is the check behind the *blocked via locations* of
    /// Algorithm 2 (Fig. 10) and behind the FVP guard of the DVI
    /// heuristic: one byte read. The position itself may be empty or
    /// occupied; an occupied position returns whether a window
    /// containing it is an FVP now.
    #[inline]
    pub fn would_create_fvp(&self, x: i32, y: i32) -> bool {
        self.threats[self.cell(x, y)] != 0
    }

    /// [`FvpIndex::would_create_fvp`] at `(x, y)` as it would read
    /// with one more via at the empty position `(ax, ay)`, without
    /// changing the index: only the windows holding both positions see
    /// the extra via.
    pub fn would_create_fvp_with(&self, x: i32, y: i32, ax: i32, ay: i32) -> bool {
        debug_assert!(!self.contains(ax, ay), "({ax}, {ay}) holds a via");
        self.would_create_fvp(x, y)
            || windows_holding(self.width, self.height, (x, y), (ax, ay)).any(|(ox, oy)| {
                let mask = self.window_mask(ox, oy) | mask_bit(ax - ox, ay - oy);
                THREATS[usize::from(mask)] & mask_bit(x - ox, y - oy) != 0
            })
    }

    /// [`FvpIndex::would_create_fvp`] by rescanning the nine windows
    /// around `(x, y)`: the oracle the threat counts are tested
    /// against.
    #[cfg(test)]
    fn would_create_fvp_scan(&self, x: i32, y: i32) -> bool {
        windows_holding(self.width, self.height, (x, y), (x, y))
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

    /// Every entry of the threat table is the classifier applied to
    /// the mask with one more via, at each of the nine positions, and
    /// a full entry marks exactly the FVP masks.
    #[test]
    fn threat_table_is_the_classifier_plus_one_via() {
        for mask in 0u16..512 {
            for q in 0..WINDOW * WINDOW {
                assert_eq!(
                    THREATS[usize::from(mask)] & 1 << q != 0,
                    mask_is_fvp(mask | 1 << q),
                    "mask {mask:#011b}, position {q}"
                );
            }
            assert_eq!(THREATS[usize::from(mask)] == ALL, mask_is_fvp(mask));
        }
    }

    proptest::proptest! {
        /// Under random add/remove sequences on small grids, borders
        /// and corners included, the counts answer
        /// `would_create_fvp` as the nine-window rescan does at every
        /// cell, empty or occupied, and `would_create_fvp_with` as the
        /// rescan of a copy holding the extra via.
        #[test]
        fn threat_counts_match_the_window_rescan(
            w in 3i32..13,
            h in 3i32..10,
            ops in proptest::collection::vec((0u8..3, 0i32..12, 0i32..9), 1..60)
        ) {
            let mut idx = FvpIndex::new(w, h);
            let cells = || (0..w).flat_map(|x| (0..h).map(move |y| (x, y)));
            for (op, x, y) in ops {
                let (x, y) = (x % w, y % h);
                // One edit in three is a removal.
                if op == 0 {
                    idx.remove_via(x, y);
                } else {
                    idx.add_via(x, y);
                }
                for (cx, cy) in cells() {
                    proptest::prop_assert_eq!(
                        idx.would_create_fvp(cx, cy),
                        idx.would_create_fvp_scan(cx, cy),
                        "at ({}, {}) on {}x{}", cx, cy, w, h
                    );
                }
                // The extra via: the first empty cell after the edit's.
                let next = cells()
                    .cycle()
                    .skip((x * h + y + 1) as usize)
                    .take((w * h) as usize)
                    .find(|&(cx, cy)| !idx.contains(cx, cy));
                if let Some((ax, ay)) = next {
                    let mut with = idx.clone();
                    with.add_via(ax, ay);
                    for (cx, cy) in cells() {
                        proptest::prop_assert_eq!(
                            idx.would_create_fvp_with(cx, cy, ax, ay),
                            with.would_create_fvp_scan(cx, cy),
                            "at ({}, {}) with ({}, {})", cx, cy, ax, ay
                        );
                    }
                }
            }
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
