//! Property-based tests of the TPL machinery.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tpl_decomp::{
    exact_color, vias_conflict, welsh_powell, window_is_3colorable_bruteforce, DecompGraph,
    FvpIndex,
};

/// Side of the grid the index properties run on.
const N: i32 = 10;

/// The window-relative positions of `vias` inside window `(ox, oy)`.
fn window(vias: &BTreeSet<(i32, i32)>, ox: i32, oy: i32) -> Vec<(i32, i32)> {
    vias.iter()
        .filter(|&&(x, y)| (ox..ox + 3).contains(&x) && (oy..oy + 3).contains(&y))
        .map(|&(x, y)| (x - ox, y - oy))
        .collect()
}

proptest! {
    /// The incremental index predicts exactly what add_via produces.
    #[test]
    fn would_create_fvp_is_consistent(
        pts in proptest::collection::vec((0i32..12, 0i32..12), 1..20)
    ) {
        let mut idx = FvpIndex::new(12, 12);
        let mut last = None;
        for (x, y) in pts {
            if idx.contains(x, y) {
                continue;
            }
            let predicted = idx.would_create_fvp(x, y);
            idx.add_via(x, y);
            // Prediction == after insertion some window containing the
            // via is an FVP.
            let actual = idx
                .fvp_windows()
                .iter()
                .any(|&(ox, oy)| (ox..ox + 3).contains(&x) && (oy..oy + 3).contains(&y));
            prop_assert_eq!(predicted, actual, "at ({}, {})", x, y);
            last = Some((x, y));
        }
        // Removing and re-adding the last via restores the windows.
        if let Some((x, y)) = last {
            let with = idx.fvp_windows();
            idx.remove_via(x, y);
            idx.add_via(x, y);
            prop_assert_eq!(with, idx.fvp_windows());
        }
    }

    /// Exact coloring succeeds whenever greedy does, and both are
    /// proper.
    #[test]
    fn exact_dominates_greedy(
        pts in proptest::collection::vec((0i32..15, 0i32..15), 0..25)
    ) {
        let g = DecompGraph::from_positions(pts);
        let greedy = welsh_powell(&g, 3);
        prop_assert!(g.coloring_conflicts(&greedy.colors).is_empty());
        if greedy.is_complete() {
            let exact = exact_color(&g, 3);
            prop_assert!(exact.is_some());
            let wrapped: Vec<Option<u8>> = exact.unwrap().into_iter().map(Some).collect();
            prop_assert!(g.coloring_conflicts(&wrapped).is_empty());
        }
    }

    /// Under random add/remove sequences the index's FVP windows are
    /// exactly the windows exhaustive 3-coloring rejects, and
    /// `would_create_fvp` at every cell gives the brute-force answer:
    /// some window containing the cell is (or, with the cell added,
    /// would be) not 3-colorable. Both sides are checked against the
    /// exhaustive colorer, not the rule-based classifier.
    #[test]
    fn index_matches_bruteforce_under_edits(
        ops in proptest::collection::vec((0u8..3, 0i32..N, 0i32..N), 1..60)
    ) {
        let mut idx = FvpIndex::new(N, N);
        let mut vias = BTreeSet::new();
        for (op, x, y) in ops {
            // One edit in three is a removal.
            if op == 0 {
                prop_assert_eq!(idx.remove_via(x, y), vias.remove(&(x, y)));
            } else {
                prop_assert_eq!(idx.add_via(x, y), vias.insert((x, y)));
            }
        }
        let origins = || (0..=N - 3).flat_map(|ox| (0..=N - 3).map(move |oy| (ox, oy)));
        let expected: Vec<(i32, i32)> = origins()
            .filter(|&(ox, oy)| !window_is_3colorable_bruteforce(&window(&vias, ox, oy)))
            .collect();
        prop_assert_eq!(idx.fvp_windows(), expected.clone());
        prop_assert_eq!(idx.fvp_window_count(), expected.len());
        for x in 0..N {
            for y in 0..N {
                let mut with = vias.clone();
                with.insert((x, y));
                let brute = origins()
                    .filter(|&(ox, oy)| (ox..ox + 3).contains(&x) && (oy..oy + 3).contains(&y))
                    .any(|(ox, oy)| !window_is_3colorable_bruteforce(&window(&with, ox, oy)));
                prop_assert_eq!(idx.would_create_fvp(x, y), brute, "at ({}, {})", x, y);
            }
        }
    }

    /// Graph edges are exactly the symmetric conflict relation.
    #[test]
    fn graph_edges_are_symmetric(
        pts in proptest::collection::vec((0i32..12, 0i32..12), 0..25)
    ) {
        let g = DecompGraph::from_positions(pts);
        for v in 0..g.len() {
            for &w in g.neighbors(v) {
                prop_assert!(g.neighbors(w as usize).contains(&(v as u32)));
                let (a, b) = (g.position(v), g.position(w as usize));
                prop_assert!(vias_conflict(b.0 - a.0, b.1 - a.1));
            }
        }
    }
}
