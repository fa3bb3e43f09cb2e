//! Turn-legality classification on the pre-colored routing grid.
//!
//! The color pre-assignment fixes, before routing, where mandrel
//! patterns may be formed:
//!
//! * **SIM:** panels (the strips between adjacent tracks) are colored
//!   alternately grey/white in both directions; mandrels sit in the
//!   middle of grey panels. We adopt the convention that the grey
//!   panel adjacent to a horizontal wire on track `y` lies **north**
//!   of the wire when `y` is even and **south** when `y` is odd, and
//!   the grey panel adjacent to a vertical wire on track `x` lies
//!   **east** when `x` is even and **west** when `x` is odd. (With
//!   unit track pitch, consecutive tracks alternate which side their
//!   grey panel is on — exactly the alternating panel coloring.)
//! * **SID:** tracks themselves are colored alternately black/grey in
//!   both directions; mandrels form only along black tracks (even
//!   indices) and are centered on them.
//!
//! An L-shaped metal pattern (a *turn*) is then classified as:
//!
//! * [`TurnClass::Preferred`] — decomposable with no degradation.
//!   SIM: both arms' mandrels face the other arm, so they merge into
//!   a single L-shaped mandrel whose spacer traces the metal corner.
//!   SID: both arms lie on black tracks (one L-shaped mandrel).
//! * [`TurnClass::NonPreferred`] — decomposable with degradation
//!   (spacer rounding at the corner). SIM: both mandrels face away
//!   from the corner; two separate mandrels whose end-cap spacers
//!   meet at the corner. SID: both arms on grey tracks; the corner is
//!   defined by the trim mask between spacers.
//! * [`TurnClass::Forbidden`] — undecomposable; the router must never
//!   create it. SIM: exactly one mandrel faces the corner, which
//!   would place that mandrel flush against the other arm's metal and
//!   violate the core-mask spacing rule. SID: one arm on a black and
//!   one on a grey track — no consistent mandrel/trim assignment
//!   exists.
//!
//! **Unit-extension exception** (paper Fig. 6(a)): the one-grid-unit
//! stubs created by double via insertion may realize a turn that the
//! table forbids, because a short stub can be kept by the cut/trim
//! mask alone. [`stub_turn_ok`] encodes this: in SIM a forbidden stub
//! turn is excused when the *existing* wire's mandrel faces the stub
//! (the stub is then covered by that mandrel's own spacer); in SID it
//! is excused when the existing wire lies on a black (mandrel) track.

use sadp_grid::{Axis, Dir, SadpKind, TurnKind};

/// SADP decomposability class of an L-turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TurnClass {
    /// Decomposable with no layout degradation.
    Preferred,
    /// Decomposable with degradation (e.g. spacer rounding); allowed
    /// but penalized in routing.
    NonPreferred,
    /// Undecomposable; strictly avoided in routing.
    Forbidden,
}

impl std::fmt::Display for TurnClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TurnClass::Preferred => "preferred",
            TurnClass::NonPreferred => "non-preferred",
            TurnClass::Forbidden => "forbidden",
        })
    }
}

/// The side (north or south) of the grey/mandrel panel adjacent to a
/// horizontal wire on track `y`.
///
/// Only meaningful for SIM; for SID the mandrel is centered on black
/// tracks instead (this function still reports the convention used by
/// the mask synthesizer for trim shapes).
#[inline]
pub fn mandrel_side_horizontal(y: i32) -> Dir {
    if y.rem_euclid(2) == 0 {
        Dir::North
    } else {
        Dir::South
    }
}

/// The side (east or west) of the grey/mandrel panel adjacent to a
/// vertical wire on track `x`.
#[inline]
pub fn mandrel_side_vertical(x: i32) -> Dir {
    if x.rem_euclid(2) == 0 {
        Dir::East
    } else {
        Dir::West
    }
}

/// `true` if track index `t` is a black (mandrel) track under the SID
/// pre-assignment.
#[inline]
pub fn sid_track_is_black(t: i32) -> bool {
    t.rem_euclid(2) == 0
}

/// Classifies the L-turn `turn` at corner `(x, y)` under process
/// `kind`.
///
/// ```
/// use sadp_grid::{SadpKind, TurnKind};
/// use sadp_decomp::{classify_turn, TurnClass};
///
/// // SIM at an even/even corner: mandrels lie north and east, so the
/// // east-north turn merges them (preferred) while the west-south
/// // turn faces away on both arms (non-preferred).
/// assert_eq!(classify_turn(SadpKind::Sim, 2, 4, TurnKind::EastNorth), TurnClass::Preferred);
/// assert_eq!(classify_turn(SadpKind::Sim, 2, 4, TurnKind::WestSouth), TurnClass::NonPreferred);
/// assert_eq!(classify_turn(SadpKind::Sim, 2, 4, TurnKind::EastSouth), TurnClass::Forbidden);
/// ```
pub fn classify_turn(kind: SadpKind, x: i32, y: i32, turn: TurnKind) -> TurnClass {
    match kind {
        // Turn legality is a property of the mandrel geometry, which
        // SIM-with-trim shares with SIM.
        SadpKind::Sim | SadpKind::SimTrim => {
            // Does the horizontal arm's mandrel face the vertical arm,
            // and vice versa?
            let match_h = turn.vertical_arm() == mandrel_side_horizontal(y);
            let match_v = turn.horizontal_arm() == mandrel_side_vertical(x);
            match (match_h, match_v) {
                (true, true) => TurnClass::Preferred,
                (false, false) => TurnClass::NonPreferred,
                _ => TurnClass::Forbidden,
            }
        }
        SadpKind::Sid => {
            // Track colors at the corner: the horizontal arm runs on
            // horizontal track y, the vertical arm on vertical track x.
            match (sid_track_is_black(x), sid_track_is_black(y)) {
                (true, true) => TurnClass::Preferred,
                (false, false) => TurnClass::NonPreferred,
                _ => TurnClass::Forbidden,
            }
        }
    }
}

/// The class of every planar arm pair at each corner parity:
/// `table[x & 1][y & 1][a][b]` is the class of the L whose arms run
/// `Dir::PLANAR[a]` and `Dir::PLANAR[b]` from a corner at `(x, y)`,
/// or `None` when the two arms share an axis (no turn).
pub type TurnTable = [[[[Option<TurnClass>; 4]; 4]; 2]; 2];

/// [`classify_turn`] for every corner parity and arm pair of process
/// `kind`, for lookups in a hot loop. Classification depends on a
/// corner only through its parity, so `x & 1` and `y & 1` (which
/// equal `rem_euclid(2)` for negative coordinates too) select the
/// entry of any point.
///
/// ```
/// use sadp_grid::{SadpKind, TurnKind};
/// use sadp_decomp::{classify_turn, turn_table};
///
/// let table = turn_table(SadpKind::Sim);
/// // Arms East (0) and North (2) at (3, -2): parity (1, 0).
/// assert_eq!(
///     table[1][0][0][2],
///     Some(classify_turn(SadpKind::Sim, 3, -2, TurnKind::EastNorth))
/// );
/// assert_eq!(table[1][0][0][1], None); // East and West: no turn
/// ```
pub fn turn_table(kind: SadpKind) -> TurnTable {
    let mut table = [[[[None; 4]; 4]; 2]; 2];
    for (px, by_y) in table.iter_mut().enumerate() {
        for (py, by_arm) in by_y.iter_mut().enumerate() {
            for (a, by_out) in by_arm.iter_mut().enumerate() {
                for (b, class) in by_out.iter_mut().enumerate() {
                    *class = TurnKind::from_arms(Dir::PLANAR[a], Dir::PLANAR[b])
                        .map(|t| classify_turn(kind, px as i32, py as i32, t));
                }
            }
        }
    }
    table
}

/// Decides whether the one-unit stub turn created by a double-via
/// insertion is manufacturable.
///
/// `wire_arm` is a direction in which the *existing* wire extends from
/// the via point `(x, y)`; `stub_dir` is the direction of the one-unit
/// extension towards the DVI candidate. The two must be perpendicular.
///
/// Returns `true` when the resulting L is preferred or non-preferred,
/// or when it is forbidden but excused by the unit-extension
/// exception. Non-perpendicular or non-planar direction pairs form no
/// turn at all, so no turn constraint applies and they return `true`.
pub fn stub_turn_ok(kind: SadpKind, x: i32, y: i32, wire_arm: Dir, stub_dir: Dir) -> bool {
    let Some(turn) = TurnKind::from_arms(wire_arm, stub_dir) else {
        return true;
    };
    if classify_turn(kind, x, y, turn) != TurnClass::Forbidden {
        return true;
    }
    let Some(wire_axis) = wire_arm.axis() else {
        return true;
    };
    match kind {
        SadpKind::Sim | SadpKind::SimTrim => match wire_axis {
            // Stub is vertical, existing wire horizontal: excused when
            // the wire's mandrel panel faces the stub.
            Axis::Horizontal => mandrel_side_horizontal(y) == stub_dir,
            // Stub is horizontal, existing wire vertical.
            Axis::Vertical => mandrel_side_vertical(x) == stub_dir,
        },
        SadpKind::Sid => match wire_axis {
            // Excused when the existing wire lies on a black track.
            Axis::Horizontal => sid_track_is_black(y),
            Axis::Vertical => sid_track_is_black(x),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_grid::Parity;

    /// Every parity class must expose, in SIM, exactly one preferred,
    /// one non-preferred and two forbidden orientations — matching the
    /// paper's Fig. 4(a)(b) census.
    #[test]
    fn sim_census_per_parity() {
        for p in Parity::ALL {
            let (x, y) = (p.x_odd as i32, p.y_odd as i32);
            let classes: Vec<TurnClass> = TurnKind::ALL
                .iter()
                .map(|&t| classify_turn(SadpKind::Sim, x, y, t))
                .collect();
            let pref = classes
                .iter()
                .filter(|&&c| c == TurnClass::Preferred)
                .count();
            let nonp = classes
                .iter()
                .filter(|&&c| c == TurnClass::NonPreferred)
                .count();
            let forb = classes
                .iter()
                .filter(|&&c| c == TurnClass::Forbidden)
                .count();
            assert_eq!((pref, nonp, forb), (1, 1, 2), "parity {p:?}");
        }
    }

    /// In SID the class depends only on the corner's track colors:
    /// black/black preferred, grey/grey non-preferred, mixed forbidden.
    #[test]
    fn sid_census_per_parity() {
        for t in TurnKind::ALL {
            assert_eq!(classify_turn(SadpKind::Sid, 0, 0, t), TurnClass::Preferred);
            assert_eq!(
                classify_turn(SadpKind::Sid, 1, 1, t),
                TurnClass::NonPreferred
            );
            assert_eq!(classify_turn(SadpKind::Sid, 0, 1, t), TurnClass::Forbidden);
            assert_eq!(classify_turn(SadpKind::Sid, 1, 0, t), TurnClass::Forbidden);
        }
    }

    /// Classification is parity-periodic across the whole grid.
    #[test]
    fn classification_is_parity_periodic() {
        for kind in SadpKind::ALL {
            for t in TurnKind::ALL {
                for x in -2..3 {
                    for y in -2..3 {
                        assert_eq!(
                            classify_turn(kind, x, y, t),
                            classify_turn(kind, x + 2, y + 4, t)
                        );
                    }
                }
            }
        }
    }

    /// The lookup table agrees with `classify_turn` for every process,
    /// corner (negative and beyond the first period included), arm
    /// and outgoing direction, and holds `None` exactly for collinear
    /// arm pairs.
    #[test]
    fn turn_table_matches_classify_turn() {
        for kind in SadpKind::VARIANTS {
            let table = turn_table(kind);
            for x in -3..5 {
                for y in -3..5 {
                    let at = &table[(x & 1) as usize][(y & 1) as usize];
                    for (a, arm) in Dir::PLANAR.into_iter().enumerate() {
                        for (b, out) in Dir::PLANAR.into_iter().enumerate() {
                            let expected =
                                TurnKind::from_arms(arm, out).map(|t| classify_turn(kind, x, y, t));
                            assert_eq!(at[a][b], expected, "{kind} ({x}, {y}) {arm}{out}");
                            assert_eq!(expected.is_none(), arm.axis() == out.axis());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sim_preferred_matches_mandrel_sides() {
        // (even, even): mandrels north & east -> EastNorth preferred.
        assert_eq!(
            classify_turn(SadpKind::Sim, 0, 0, TurnKind::EastNorth),
            TurnClass::Preferred
        );
        // (odd, odd): mandrels south & west -> WestSouth preferred.
        assert_eq!(
            classify_turn(SadpKind::Sim, 1, 1, TurnKind::WestSouth),
            TurnClass::Preferred
        );
        // (odd, even): mandrels north & west -> WestNorth preferred.
        assert_eq!(
            classify_turn(SadpKind::Sim, 1, 0, TurnKind::WestNorth),
            TurnClass::Preferred
        );
        // (even, odd): mandrels south & east -> EastSouth preferred.
        assert_eq!(
            classify_turn(SadpKind::Sim, 0, 1, TurnKind::EastSouth),
            TurnClass::Preferred
        );
    }

    /// Stub turns that are preferred or non-preferred are always ok.
    #[test]
    fn stub_allows_non_forbidden_turns() {
        for kind in SadpKind::ALL {
            for x in 0..2 {
                for y in 0..2 {
                    for wire_arm in [Dir::East, Dir::West] {
                        for stub in [Dir::North, Dir::South] {
                            let t = TurnKind::from_arms(wire_arm, stub).unwrap();
                            if classify_turn(kind, x, y, t) != TurnClass::Forbidden {
                                assert!(stub_turn_ok(kind, x, y, wire_arm, stub));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The SIM unit-extension exception: at (even, even) the
    /// horizontal wire's mandrel faces north, so a forbidden
    /// north-stub is excused while a forbidden south-stub is not.
    #[test]
    fn sim_unit_extension_exception() {
        // (0, 0): EastNorth preferred, EastSouth forbidden (match_v
        // true, match_h false). South stub from an east wire arm: the
        // mandrel faces north, stub south -> not excused.
        assert!(!stub_turn_ok(SadpKind::Sim, 0, 0, Dir::East, Dir::South));
        // WestNorth at (0,0) is forbidden (match_h true, match_v
        // false). North stub from a west arm: mandrel faces north ->
        // excused.
        assert_eq!(
            classify_turn(SadpKind::Sim, 0, 0, TurnKind::WestNorth),
            TurnClass::Forbidden
        );
        assert!(stub_turn_ok(SadpKind::Sim, 0, 0, Dir::West, Dir::North));
    }

    /// The SIM exception depends on both the grid-point type and the
    /// wire orientation — the two factors of paper §II-C.
    #[test]
    fn sim_stub_feasibility_depends_on_orientation() {
        // Same point (0,0), same stub direction (North), different
        // wire axis: horizontal wire (arm West) is excused, vertical
        // wire (arm ... ) cannot make a North stub (collinear), use a
        // horizontal stub instead:
        // vertical wire arm North with East stub at (0,0): EastNorth is
        // preferred -> ok; at (1,0): classify EastNorth at x=1 odd:
        // match_v = East==West false; match_h = North==North true ->
        // forbidden; excuse: mandrel_side_vertical(1)=West != East ->
        // not excused.
        assert!(stub_turn_ok(SadpKind::Sim, 0, 0, Dir::North, Dir::East));
        assert!(!stub_turn_ok(SadpKind::Sim, 1, 0, Dir::North, Dir::East));
        // Same orientation, different point type -> different result.
    }

    /// The SID exception depends only on the existing wire's track
    /// color (paper Fig. 6(c)(d): same orientations, different point
    /// types, different feasibility).
    #[test]
    fn sid_stub_feasibility_depends_on_point_type() {
        // Horizontal wire on black track y=0, vertical stub at mixed
        // corner (1, 0): forbidden but excused.
        assert_eq!(
            classify_turn(SadpKind::Sid, 1, 0, TurnKind::EastNorth),
            TurnClass::Forbidden
        );
        assert!(stub_turn_ok(SadpKind::Sid, 1, 0, Dir::East, Dir::North));
        // Horizontal wire on grey track y=1, vertical stub at mixed
        // corner (0, 1): forbidden and not excused.
        assert_eq!(
            classify_turn(SadpKind::Sid, 0, 1, TurnKind::EastNorth),
            TurnClass::Forbidden
        );
        assert!(!stub_turn_ok(SadpKind::Sid, 0, 1, Dir::East, Dir::North));
    }

    #[test]
    fn stub_accepts_degenerate_arms_without_turn_constraint() {
        // Collinear or non-planar pairs form no L-turn, so no turn
        // rule applies (total function; previously a panic).
        assert!(stub_turn_ok(SadpKind::Sim, 0, 0, Dir::East, Dir::West));
        assert!(stub_turn_ok(SadpKind::Sid, 0, 0, Dir::Up, Dir::North));
    }

    /// SIM-with-trim shares SIM's mandrel geometry: identical turn
    /// classes and stub exceptions everywhere.
    #[test]
    fn sim_trim_matches_sim() {
        for x in 0..2 {
            for y in 0..2 {
                for t in TurnKind::ALL {
                    assert_eq!(
                        classify_turn(SadpKind::Sim, x, y, t),
                        classify_turn(SadpKind::SimTrim, x, y, t)
                    );
                }
                for wire in [Dir::East, Dir::West] {
                    for stub in [Dir::North, Dir::South] {
                        assert_eq!(
                            stub_turn_ok(SadpKind::Sim, x, y, wire, stub),
                            stub_turn_ok(SadpKind::SimTrim, x, y, wire, stub)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mandrel_sides_alternate() {
        assert_eq!(mandrel_side_horizontal(0), Dir::North);
        assert_eq!(mandrel_side_horizontal(1), Dir::South);
        assert_eq!(mandrel_side_horizontal(-1), Dir::South);
        assert_eq!(mandrel_side_vertical(0), Dir::East);
        assert_eq!(mandrel_side_vertical(3), Dir::West);
        assert_eq!(mandrel_side_vertical(-2), Dir::East);
    }
}
