//! # sadp-decomp
//!
//! SADP (self-aligned double patterning) layout decomposition for the
//! detailed-routing suite: the color pre-assignment of the routing
//! grid, the preferred / non-preferred / forbidden turn-legality
//! tables used by the router and by double-via-insertion feasibility,
//! mandrel + cut/trim mask synthesis, and mask design-rule checks.
//!
//! Two process flavors are supported, mirroring the paper:
//!
//! * **SIM** (Spacer-Is-Metal, cut approach): mandrels are printed by
//!   the core mask, spacers deposited around them *are* the metal, and
//!   a cut mask removes unwanted spacer.
//! * **SID** (Spacer-Is-Dielectric, trim approach): spacers define the
//!   dielectric trenches between wires; mandrels form along the black
//!   tracks and a trim mask keeps the wanted metal.
//!
//! The turn-legality model is re-derived from the color
//! pre-assignment (see `DESIGN.md` §2.3): for SIM the class of an
//! L-turn follows from whether each arm's mandrel panel faces the
//! other arm; for SID it follows from the track colors at the corner.
//!
//! ```
//! use sadp_grid::{SadpKind, TurnKind};
//! use sadp_decomp::{classify_turn, TurnClass};
//!
//! // A turn at an (even, even) corner whose arms face the mandrel
//! // panels is preferred in SIM.
//! assert_eq!(
//!     classify_turn(SadpKind::Sim, 2, 2, TurnKind::EastNorth),
//!     TurnClass::Preferred
//! );
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod drc;
pub mod masks;
pub mod turns;

pub use audit::{audit_solution, AuditReport, TurnCounts};
pub use drc::{check_mask_set, DrcRules, DrcViolation};
pub use masks::{decompose_layer, DecomposeError, MaskSet};
pub use turns::{
    classify_turn, mandrel_side_horizontal, mandrel_side_vertical, stub_turn_ok, turn_table,
    TurnClass, TurnTable,
};
