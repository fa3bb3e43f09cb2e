//! The TPL decomposition graph of one via layer.
//!
//! Each via is a vertex; an edge joins two vias within the same-color
//! via pitch. TPL layout decomposition is 3-coloring this graph.

use std::collections::HashMap;

use crate::conflict::conflict_offsets;

/// The decomposition graph of a set of via positions.
///
/// Construction is O(n) using a position hash and the constant
/// conflict neighborhood.
///
/// ```
/// use tpl_decomp::DecompGraph;
/// let g = DecompGraph::from_positions([(0, 0), (1, 0), (5, 5)]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.degree(0), 1); // (0,0) - (1,0)
/// assert_eq!(g.degree(2), 0); // (5,5) is isolated
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecompGraph {
    positions: Vec<(i32, i32)>,
    /// The vertex of each distinct position.
    index: HashMap<(i32, i32), u32>,
    adjacency: Vec<Vec<u32>>,
}

impl DecompGraph {
    /// Builds the graph from via positions. Duplicate positions are
    /// collapsed into one vertex, so vertex ids are not input slots:
    /// map a position to its vertex with [`DecompGraph::vertex_at`].
    pub fn from_positions<I>(positions: I) -> DecompGraph
    where
        I: IntoIterator<Item = (i32, i32)>,
    {
        let mut index: HashMap<(i32, i32), u32> = HashMap::new();
        let mut pos = Vec::new();
        for p in positions {
            index.entry(p).or_insert_with(|| {
                pos.push(p);
                (pos.len() - 1) as u32
            });
        }
        let mut adjacency = vec![Vec::new(); pos.len()];
        for (i, &(x, y)) in pos.iter().enumerate() {
            for (dx, dy) in conflict_offsets() {
                if let Some(&j) = index.get(&(x + dx, y + dy)) {
                    adjacency[i].push(j);
                }
            }
            adjacency[i].sort_unstable();
        }
        DecompGraph {
            positions: pos,
            index,
            adjacency,
        }
    }

    /// The vertex at position `p`, if the graph has one there.
    ///
    /// ```
    /// use tpl_decomp::DecompGraph;
    /// let g = DecompGraph::from_positions([(0, 0), (3, 0), (0, 0)]);
    /// assert_eq!(g.vertex_at((0, 0)), Some(0));
    /// assert_eq!(g.vertex_at((3, 0)), Some(1));
    /// assert_eq!(g.vertex_at((1, 1)), None);
    /// ```
    pub fn vertex_at(&self, p: (i32, i32)) -> Option<u32> {
        self.index.get(&p).copied()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The via position of vertex `v`.
    pub fn position(&self, v: usize) -> (i32, i32) {
        self.positions[v]
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[v]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Splits the vertex set into connected components.
    pub fn components(&self) -> Vec<Vec<u32>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut comp = vec![s as u32];
            seen[s] = true;
            let mut stack = vec![s as u32];
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v as usize) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        comp.push(w);
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Validates a (partial) coloring: every pair of adjacent colored
    /// vertices must differ. Returns offending vertex pairs.
    pub fn coloring_conflicts(&self, colors: &[Option<u8>]) -> Vec<(u32, u32)> {
        let mut bad = Vec::new();
        for v in 0..self.len() {
            if let Some(cv) = colors[v] {
                for &w in self.neighbors(v) {
                    if (w as usize) > v {
                        if let Some(cw) = colors[w as usize] {
                            if cv == cw {
                                bad.push((v as u32, w));
                            }
                        }
                    }
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::vias_conflict;

    #[test]
    fn edges_match_conflict_predicate() {
        let pts = [(0, 0), (1, 1), (2, 2), (3, 0), (0, 2)];
        let g = DecompGraph::from_positions(pts);
        for i in 0..g.len() {
            for j in 0..g.len() {
                let (a, b) = (g.position(i), g.position(j));
                let expect = vias_conflict(b.0 - a.0, b.1 - a.1);
                assert_eq!(
                    g.neighbors(i).contains(&(j as u32)),
                    expect,
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn duplicates_collapse() {
        let g = DecompGraph::from_positions([(0, 0), (0, 0), (1, 0)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.vertex_at((1, 0)), Some(1));
    }

    #[test]
    fn components_partition() {
        let g = DecompGraph::from_positions([(0, 0), (1, 0), (10, 10), (11, 10), (20, 0)]);
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn coloring_conflicts_detects_violation() {
        let g = DecompGraph::from_positions([(0, 0), (1, 0)]);
        assert!(g.coloring_conflicts(&[Some(0), Some(1)]).is_empty());
        assert_eq!(g.coloring_conflicts(&[Some(0), Some(0)]).len(), 1);
        // Uncolored vertices never conflict.
        assert!(g.coloring_conflicts(&[Some(0), None]).is_empty());
    }
}
