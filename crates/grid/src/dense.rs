//! A flat dense per-layer grid container used for cost maps, usage
//! counters and occupancy bitmaps throughout the suite.

use crate::geom::GridPoint;
use crate::RouteError;

/// A dense `layers × width × height` array addressed by [`GridPoint`].
///
/// Out-of-range accesses are programming errors and panic (the router
/// always clamps its search window to the grid first).
///
/// ```
/// use sadp_grid::{DenseGrid, GridPoint};
/// let mut g: DenseGrid<u32> = DenseGrid::new(2, 4, 4, 0);
/// g[GridPoint::new(1, 3, 2)] = 7;
/// assert_eq!(g[GridPoint::new(1, 3, 2)], 7);
/// assert_eq!(g[GridPoint::new(0, 3, 2)], 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseGrid<T> {
    layers: u8,
    width: i32,
    height: i32,
    data: Vec<T>,
}

impl<T: Clone> DenseGrid<T> {
    /// Creates a grid with every cell set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not positive or the cell count
    /// exceeds [`MAX_DENSE_CELLS`](crate::MAX_DENSE_CELLS) (use
    /// [`DenseGrid::try_new`] on untrusted dimensions).
    pub fn new(layers: u8, width: i32, height: i32, fill: T) -> Self {
        match DenseGrid::try_new(layers, width, height, fill) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`DenseGrid::new`]: untrusted dimensions (e.g. a
    /// hostile `grid` header) yield a typed error instead of an OOM
    /// abort from `vec![fill; huge]`.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidGrid`] on
    /// non-positive dimensions or a cell count over
    /// [`MAX_DENSE_CELLS`](crate::MAX_DENSE_CELLS).
    pub fn try_new(layers: u8, width: i32, height: i32, fill: T) -> Result<Self, RouteError> {
        if width <= 0 || height <= 0 {
            return Err(RouteError::InvalidGrid {
                reason: "grid dimensions must be positive".to_string(),
            });
        }
        // u128: 255 x i32::MAX x i32::MAX overflows u64.
        let cells = layers as u128 * width as u128 * height as u128;
        if cells > crate::MAX_DENSE_CELLS as u128 {
            return Err(RouteError::InvalidGrid {
                reason: format!(
                    "dense grid of {layers} x {width} x {height} = {cells} cells \
                     exceeds the {} cell cap",
                    crate::MAX_DENSE_CELLS
                ),
            });
        }
        Ok(DenseGrid {
            layers,
            width,
            height,
            data: vec![fill; cells as usize],
        })
    }

    /// Resets every cell to `fill`.
    pub fn fill(&mut self, fill: T) {
        for cell in &mut self.data {
            *cell = fill.clone();
        }
    }
}

impl<T> DenseGrid<T> {
    /// Number of layers.
    #[inline]
    pub fn layers(&self) -> u8 {
        self.layers
    }

    /// Grid width (number of vertical tracks).
    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Grid height (number of horizontal tracks).
    #[inline]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// `true` if `p` addresses a cell of this grid.
    #[inline]
    pub fn contains(&self, p: GridPoint) -> bool {
        p.layer < self.layers && p.x >= 0 && p.x < self.width && p.y >= 0 && p.y < self.height
    }

    #[inline]
    fn idx(&self, p: GridPoint) -> usize {
        debug_assert!(self.contains(p), "grid point {p} out of bounds");
        (p.layer as usize * self.height as usize + p.y as usize) * self.width as usize
            + p.x as usize
    }

    /// Borrow the cell at `p`, or `None` when out of range.
    #[inline]
    pub fn get(&self, p: GridPoint) -> Option<&T> {
        if self.contains(p) {
            Some(&self.data[self.idx(p)])
        } else {
            None
        }
    }

    /// Mutably borrow the cell at `p`, or `None` when out of range.
    #[inline]
    pub fn get_mut(&mut self, p: GridPoint) -> Option<&mut T> {
        if self.contains(p) {
            let i = self.idx(p);
            Some(&mut self.data[i])
        } else {
            None
        }
    }

    /// Iterates over `(point, &value)` pairs in layer-major order.
    pub fn iter(&self) -> impl Iterator<Item = (GridPoint, &T)> + '_ {
        let (w, h) = (self.width, self.height);
        self.data.iter().enumerate().map(move |(i, v)| {
            let x = (i % w as usize) as i32;
            let rest = i / w as usize;
            let y = (rest % h as usize) as i32;
            let layer = (rest / h as usize) as u8;
            (GridPoint::new(layer, x, y), v)
        })
    }
}

impl<T> std::ops::Index<GridPoint> for DenseGrid<T> {
    type Output = T;

    #[inline]
    fn index(&self, p: GridPoint) -> &T {
        let i = self.idx(p);
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<GridPoint> for DenseGrid<T> {
    #[inline]
    fn index_mut(&mut self, p: GridPoint) -> &mut T {
        let i = self.idx(p);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let mut g: DenseGrid<i64> = DenseGrid::new(3, 5, 7, -1);
        let p = GridPoint::new(2, 4, 6);
        assert_eq!(g[p], -1);
        g[p] = 42;
        assert_eq!(g[p], 42);
        assert_eq!(g[GridPoint::new(2, 4, 5)], -1);
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g: DenseGrid<u8> = DenseGrid::new(2, 4, 4, 0);
        assert!(g.contains(GridPoint::new(0, 0, 0)));
        assert!(g.contains(GridPoint::new(1, 3, 3)));
        assert!(!g.contains(GridPoint::new(2, 0, 0)));
        assert!(!g.contains(GridPoint::new(0, 4, 0)));
        assert!(!g.contains(GridPoint::new(0, 0, -1)));
        assert!(g.get(GridPoint::new(0, 9, 9)).is_none());
    }

    #[test]
    fn iter_visits_every_cell_once() {
        let mut g: DenseGrid<u32> = DenseGrid::new(2, 3, 4, 0);
        let mut n = 0u32;
        for layer in 0..2 {
            for y in 0..4 {
                for x in 0..3 {
                    g[GridPoint::new(layer, x, y)] = n;
                    n += 1;
                }
            }
        }
        let mut count = 0usize;
        for (p, &v) in g.iter() {
            assert_eq!(g[p], v);
            count += 1;
        }
        assert_eq!(count, 2 * 3 * 4);
    }

    #[test]
    fn fill_resets() {
        let mut g: DenseGrid<u32> = DenseGrid::new(1, 2, 2, 5);
        g[GridPoint::new(0, 0, 0)] = 9;
        g.fill(1);
        assert!(g.iter().all(|(_, &v)| v == 1));
    }

    #[test]
    #[should_panic]
    fn indexing_out_of_range_panics() {
        let g: DenseGrid<u8> = DenseGrid::new(1, 2, 2, 0);
        let _ = g[GridPoint::new(1, 0, 0)];
    }

    /// Regression (issue 7): `layers * width * height` used to be
    /// computed unchecked and fed straight to `vec![fill; len]`, so an
    /// adversarial header aborted the process on OOM. The cap turns it
    /// into a typed error before any allocation.
    #[test]
    fn try_new_rejects_oversized_cell_counts() {
        let r: Result<DenseGrid<u64>, _> = DenseGrid::try_new(9, 2_000_000_000, 2_000_000_000, 0);
        let err = r.unwrap_err();
        assert!(
            matches!(&err, RouteError::InvalidGrid { reason } if reason.contains("cell cap")),
            "{err}"
        );
        let r: Result<DenseGrid<u8>, _> = DenseGrid::try_new(1, 0, 4, 0);
        assert!(r.is_err());
        let ok: DenseGrid<u8> = DenseGrid::try_new(2, 3, 3, 7).unwrap();
        assert_eq!(ok[GridPoint::new(1, 2, 2)], 7);
    }

    #[test]
    #[should_panic(expected = "cell cap")]
    fn new_panics_on_oversized_cell_counts() {
        let _: DenseGrid<u8> = DenseGrid::new(9, 2_000_000_000, 2_000_000_000, 0);
    }
}
