//! # sadp-router
//!
//! The paper's primary contribution: SADP-aware detailed routing with
//! double-via-insertion (DVI) optimization and via-layer TPL
//! manufacturability — the full flow of Fig. 8:
//!
//! 1. **Routing-graph modeling** over the pre-colored grid, with
//!    preferred/non-preferred directions and forbidden-turn pruning
//!    ([`dijkstra`]).
//! 2. **Independent routing iterations** with the cost-assignment
//!    scheme of Algorithm 1 — block-DVIC (BDC), along-metal (AMC),
//!    conflict-DVIC (CDC), and TPL (TPLC) penalties added to the
//!    routing graph after each net ([`costs`], [`state`]).
//! 3. **Negotiated-congestion rip-up and reroute**, then **via-layer
//!    TPL violation removal R&R** (Algorithm 2) driven by forbidden
//!    via patterns with via-location blocking ([`rnr`]).
//! 4. A global **3-colorability check** of the via-layer
//!    decomposition graph (Welsh–Powell), with R&R fallback.
//!
//! The produced [`sadp_grid::RoutingSolution`] is SADP decomposable on
//! metal layers and TPL decomposable on via layers, ready for
//! post-routing TPL-aware DVI (the [`dvi`] crate).
//!
//! ```no_run
//! use sadp_grid::{Net, Netlist, Pin, RoutingGrid, SadpKind};
//! use sadp_router::{Router, RouterConfig};
//! use sadp_trace::NoopObserver;
//!
//! let grid = RoutingGrid::three_layer(64, 64);
//! let mut netlist = Netlist::new();
//! netlist.push(Net::new("n0", vec![Pin::new(4, 4), Pin::new(20, 9)]));
//! let config = RouterConfig::full(SadpKind::Sim);
//! let outcome = Router::new(grid, netlist, config)
//!     .try_run(&mut NoopObserver)
//!     .expect("valid inputs");
//! assert!(outcome.routed_all);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
mod bucket;
pub mod budget;
pub mod checkpoint;
pub mod costs;
pub mod dijkstra;
pub mod eco;
pub mod flow;
pub mod rnr;
pub mod search;
pub mod shard;
pub mod state;

pub use audit::{full_audit, full_audit_observed, mask_audit, FullAudit};
pub use budget::{PhaseLimits, RouteBudget, Termination};
pub use checkpoint::CHECKPOINT_HEADER;
pub use costs::CostParams;
pub use eco::EcoPlan;
pub use flow::{
    ConfigError, Router, RouterConfig, RouterConfigBuilder, RoutingOutcome, RoutingSession,
};
pub use sadp_grid::RouteError;
pub use search::SearchScratch;
pub use shard::ShardParams;
