//! # benchgen
//!
//! Synthetic placed-netlist benchmarks reproducing the statistics of
//! the paper's benchmark suite (Table I, originally from the PARR
//! flow of ref. \[18\], which is not publicly available — see
//! `DESIGN.md` §2.1 for the substitution argument).
//!
//! Each spec fixes the circuit name, net count, and routing-grid
//! dimensions exactly as in Table I; the generator fills in pins with
//! a seeded, deterministic spatial distribution: mostly-local nets
//! with a tail of longer ones, 2–5 pins per net, and a minimum
//! pin-to-pin spacing of three tracks so that the fixed pin-via layer
//! is trivially TPL-clean (the interesting via layer between M2 and
//! M3 is produced entirely by the router, as in the paper).
//!
//! ```
//! use benchgen::BenchSpec;
//!
//! let spec = BenchSpec::paper_suite()[0];  // ecc
//! assert_eq!(spec.nets, 1671);
//! let tiny = spec.scaled(0.01);
//! let netlist = tiny.generate(42);
//! assert_eq!(netlist.len(), tiny.nets);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod oracle;
pub mod spec;

pub use spec::BenchSpec;
