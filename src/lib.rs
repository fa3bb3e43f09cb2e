//! # sadp-dvi
//!
//! Umbrella crate for the reproduction of *"Self-Aligned Double
//! Patterning-Aware Detailed Routing with Double Via Insertion and Via
//! Manufacturability Consideration"* (Ding, Chu, Mak — DAC 2016).
//!
//! Re-exports every workspace crate under one roof. See the individual
//! crates for the detailed APIs:
//!
//! * [`grid`] — routing grid, netlists, routed-solution model.
//! * [`sadp`] — SADP color pre-assignment, turn legality, mask synthesis.
//! * [`tpl`] — via-layer TPL decomposition, FVP classifier, coloring.
//! * [`ilp`] — 0-1 ILP branch-and-bound solver (Gurobi substitute).
//! * [`dvi`] — double-via-insertion candidates, ILP model, heuristic.
//! * [`router`] — the SADP-aware detailed router itself.
//! * `bench` ([`benchgen`]) — synthetic benchmark generator.
//! * [`trace`] ([`sadp_trace`]) — phase-level observability (observer
//!   trait, no-op and JSON-report sinks).
//!
//! Most programs only need the [`prelude`]:
//!
//! ```
//! use sadp_dvi::prelude::*;
//!
//! let spec = BenchSpec::paper_suite()[0].scaled(0.05);
//! let netlist = spec.generate(1);
//! let grid = spec.grid();
//! let config = RouterConfig::builder(SadpKind::Sim)
//!     .dvi(true)
//!     .tpl(true)
//!     .build()
//!     .expect("valid config");
//! let outcome = RoutingSession::new(&grid, &netlist, config)
//!     .try_finish(&mut NoopObserver)
//!     .expect("routing flow");
//! assert!(outcome.routed_all);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use benchgen as bench;
pub use bilp as ilp;
pub use dvi;
pub use sadp_decomp as sadp;
pub use sadp_grid as grid;
pub use sadp_router as router;
pub use sadp_service as service;
pub use sadp_trace as trace;
pub use tpl_decomp as tpl;

/// The types and functions nearly every user of the workspace touches:
/// grid/netlist modeling, the staged router, the DVI solvers, the
/// benchmark generator, the observability sinks, and the routing
/// service job API.
pub mod prelude {
    pub use benchgen::BenchSpec;
    pub use dvi::{
        solve_heuristic, solve_heuristic_improved, solve_heuristic_improved_observed,
        solve_heuristic_observed, solve_ilp, solve_ilp_lazy, solve_ilp_lazy_observed,
        solve_ilp_observed, solve_resilient, DviOutcome, DviParams, DviProblem, DviSolver,
        LazyIlpOptions, ResilientDviOptions, ResilientDviResult,
    };
    pub use sadp_grid::{
        Axis, DeltaOp, LayoutDelta, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid,
        RoutingSolution, SadpKind, Via, WireEdge,
    };
    pub use sadp_router::{
        full_audit, full_audit_observed, mask_audit, ConfigError, CostParams, FullAudit,
        RouteBudget, RouteError, Router, RouterConfig, RoutingOutcome, RoutingSession, Termination,
    };
    pub use sadp_service::{
        outcome_fingerprint, Arm, JobBudget, JobEvent, JobId, JobOutcome, JobSource, Priority,
        RouteRequest, RouteResponse, RouteSummary, Service, ServiceConfig,
    };
    pub use sadp_trace::{
        merge_reports, Counter, EventLog, JsonReport, NoopObserver, Phase, RouteObserver,
    };
}
