//! # dvi
//!
//! Double via insertion (DVI) for SADP-routed layouts with TPL
//! via-layer manufacturability — §II-C and §III-E of the paper.
//!
//! A *DVI candidate* (DVIC) is one of the four locations beside a
//! single via where a redundant via could be inserted; feasibility is
//! governed by the SADP turn rules (including the unit-extension
//! exception), by occupancy, and by grid bounds. The *TPL-aware DVI*
//! problem inserts a maximum number of redundant vias — at most one
//! per single via, conflict-free — such that every via layer remains
//! TPL decomposable.
//!
//! Two solvers are provided, as in the paper:
//!
//! * [`ilp::solve_ilp`] — the literal ILP formulation (constraints
//!   C1–C8) emitted into the [`bilp`] branch-and-bound solver; the
//!   optimality reference.
//! * [`heuristic::solve_heuristic`] — the fast priority-queue
//!   heuristic (Algorithm 3) with the DVI-penalty ordering and the
//!   FVP insertion guard.
//!
//! ```
//! use sadp_grid::{Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid,
//!                 RoutingSolution, SadpKind, Via, WireEdge, Axis};
//! use dvi::DviProblem;
//!
//! let mut nl = Netlist::new();
//! nl.push(Net::new("a", vec![Pin::new(2, 2), Pin::new(5, 2)]));
//! let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
//! sol.set_route(NetId(0), RoutedNet::new(
//!     vec![WireEdge::new(1, 2, 2, Axis::Horizontal),
//!          WireEdge::new(1, 3, 2, Axis::Horizontal),
//!          WireEdge::new(1, 4, 2, Axis::Horizontal)],
//!     vec![Via::new(0, 2, 2), Via::new(0, 5, 2)],
//! ));
//! let problem = DviProblem::build(SadpKind::Sim, &sol);
//! assert_eq!(problem.via_count(), 2);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod candidates;
#[cfg(test)]
mod diff_tests;
pub mod heuristic;
pub mod ilp;
pub mod ilp_lazy;
pub mod report;
pub mod resilient;

pub use candidates::{
    dvic_feasible, feasible_candidate, Candidate, DviProblem, LayoutView, OwnerIter, ProblemVia,
};
pub use heuristic::{
    solve_heuristic, solve_heuristic_improved, solve_heuristic_observed, DviParams,
};
pub use ilp::{build_ilp, solve_ilp, IlpMapping};
pub use ilp_lazy::{solve_ilp_lazy, solve_ilp_lazy_observed, LazyIlpOptions, LazyStats};
pub use report::DviOutcome;
pub use resilient::{solve_resilient, DviSolver, ResilientDviOptions, ResilientDviResult};
