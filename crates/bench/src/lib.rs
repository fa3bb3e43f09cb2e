//! # bench-suite
//!
//! The experiment harness: one binary per table of the paper
//! (`table1` … `table7`), the `bench_*` binaries, and Criterion
//! micro-benches. This library holds the shared pieces — the bench
//! ledger (flags, result files, baseline gates), the per-arm runner
//! (route → post-routing TPL-aware DVI → metrics), and aligned table
//! rendering with the paper's `Ave.` / `Nor.` summary rows.

#![warn(missing_docs)]

pub mod harness;
pub mod ledger;
pub mod table;

pub use harness::{four_arms, run_arm, run_arm_observed, ArmInput, ArmMetrics, DviMode, RunArgs};
pub use table::TableBuilder;
