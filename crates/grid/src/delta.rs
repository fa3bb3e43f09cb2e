//! Typed layout deltas for incremental (ECO) rerouting.
//!
//! A [`LayoutDelta`] is an ordered batch of edits against an existing
//! grid + netlist pair: nets appear or disappear, a pad moves, a
//! routing track gets blocked or unblocked. The router consumes deltas
//! through `RoutingSession::apply_delta` (in `sadp-router`), which
//! rips up only the nets the edit perturbs instead of rerouting the
//! instance from scratch; the service layer ships them over the wire
//! in the text form produced by [`write_delta`].
//!
//! Net identity across a delta follows the netlist's tombstone model:
//! removing a net retires its id (the slot is never reused), adding a
//! net appends a fresh id, and moving a pad keeps the net's id. This
//! keeps every id stable across the edit, which is what lets the
//! router patch its per-net indexes in place.
//!
//! ```
//! use sadp_grid::{LayoutDelta, Net, NetId, Pin};
//! let mut delta = LayoutDelta::new();
//! delta.remove_net(NetId(3));
//! delta.add_net(Net::new("patch", vec![Pin::new(1, 1), Pin::new(6, 2)]));
//! delta.add_blockage(1, 4, 4);
//! let text = sadp_grid::write_delta(&delta);
//! let back = sadp_grid::parse_delta(&text).unwrap();
//! assert_eq!(delta, back);
//! ```

use std::fmt::Write as _;

use crate::io::ParseLayoutError;
use crate::netlist::{Net, NetId, Netlist, Pin};
use crate::{RouteError, RoutingGrid};

/// One edit inside a [`LayoutDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Append a new net; it receives the next free id when applied.
    AddNet(Net),
    /// Retire an existing net (its id becomes a tombstone).
    RemoveNet(NetId),
    /// Move one pad of an existing net from `from` to `to`, keeping
    /// the net's id.
    MovePad {
        /// The edited net.
        net: NetId,
        /// The pad's current location (must be a pin of `net`).
        from: Pin,
        /// The pad's new location.
        to: Pin,
    },
    /// Block a routing-grid point on a metal layer for wiring.
    AddBlockage {
        /// Metal layer index (must be a routing layer).
        layer: u8,
        /// Track index along x.
        x: i32,
        /// Track index along y.
        y: i32,
    },
    /// Remove a blockage previously placed at this point.
    RemoveBlockage {
        /// Metal layer index (must be a routing layer).
        layer: u8,
        /// Track index along x.
        x: i32,
        /// Track index along y.
        y: i32,
    },
}

/// An ordered batch of layout edits. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutDelta {
    ops: Vec<DeltaOp>,
}

impl LayoutDelta {
    /// Creates an empty delta.
    pub fn new() -> LayoutDelta {
        LayoutDelta::default()
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Appends an [`DeltaOp::AddNet`].
    pub fn add_net(&mut self, net: Net) {
        self.ops.push(DeltaOp::AddNet(net));
    }

    /// Appends a [`DeltaOp::RemoveNet`].
    pub fn remove_net(&mut self, id: NetId) {
        self.ops.push(DeltaOp::RemoveNet(id));
    }

    /// Appends a [`DeltaOp::MovePad`].
    pub fn move_pad(&mut self, net: NetId, from: Pin, to: Pin) {
        self.ops.push(DeltaOp::MovePad { net, from, to });
    }

    /// Appends an [`DeltaOp::AddBlockage`].
    pub fn add_blockage(&mut self, layer: u8, x: i32, y: i32) {
        self.ops.push(DeltaOp::AddBlockage { layer, x, y });
    }

    /// Appends a [`DeltaOp::RemoveBlockage`].
    pub fn remove_blockage(&mut self, layer: u8, x: i32, y: i32) {
        self.ops.push(DeltaOp::RemoveBlockage { layer, x, y });
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the delta holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the ops in order to a copy of `netlist` and returns the
    /// edited netlist, checking each op against `grid` and the netlist
    /// as edited so far: removed/edited ids must name live nets (a net
    /// added earlier in the same delta may be edited later), pins and
    /// blockages must lie inside the grid, blockage layers must be
    /// routing layers, and a moved pad must currently exist. Blockage
    /// ops leave the netlist as it is; the router applies those to its
    /// own state.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidNetlist`] or [`RouteError::InvalidGrid`]
    /// naming the first offending op.
    pub fn apply(&self, grid: &RoutingGrid, netlist: &Netlist) -> Result<Netlist, RouteError> {
        let mut edited = netlist.clone();
        for op in &self.ops {
            match op {
                DeltaOp::AddNet(net) => {
                    for p in net.pins() {
                        if !grid.in_bounds_xy(p.x, p.y) {
                            return Err(RouteError::InvalidNetlist {
                                net: net.name().to_string(),
                                reason: format!(
                                    "delta adds pin {p} outside the {}x{} grid",
                                    grid.width(),
                                    grid.height()
                                ),
                            });
                        }
                    }
                    edited.push(net.clone());
                }
                DeltaOp::RemoveNet(id) => {
                    if !edited.retire(*id) {
                        return Err(RouteError::InvalidNetlist {
                            net: String::new(),
                            reason: format!("delta removes unknown or retired {id}"),
                        });
                    }
                }
                DeltaOp::MovePad { net, from, to } => {
                    let Some(n) = edited.get(*net) else {
                        return Err(RouteError::InvalidNetlist {
                            net: String::new(),
                            reason: format!("delta moves a pad of unknown or retired {net}"),
                        });
                    };
                    if !n.pins().contains(from) {
                        return Err(RouteError::InvalidNetlist {
                            net: n.name().to_string(),
                            reason: format!("delta moves pad {from}, which is not a pin"),
                        });
                    }
                    if !grid.in_bounds_xy(to.x, to.y) {
                        return Err(RouteError::InvalidNetlist {
                            net: n.name().to_string(),
                            reason: format!(
                                "delta moves pad to {to}, outside the {}x{} grid",
                                grid.width(),
                                grid.height()
                            ),
                        });
                    }
                    let moved = move_pad_net(n, *from, *to)?;
                    edited.replace(*net, moved);
                }
                DeltaOp::AddBlockage { layer, x, y } | DeltaOp::RemoveBlockage { layer, x, y } => {
                    if !grid.is_routing_layer(*layer) {
                        return Err(RouteError::InvalidGrid {
                            reason: format!("delta blockage on non-routing layer {layer}"),
                        });
                    }
                    if !grid.in_bounds_xy(*x, *y) {
                        return Err(RouteError::InvalidGrid {
                            reason: format!(
                                "delta blockage at ({x},{y}) outside the {}x{} grid",
                                grid.width(),
                                grid.height()
                            ),
                        });
                    }
                }
            }
        }
        Ok(edited)
    }
}

/// Rebuilds `net` with the pad at `from` moved to `to`, preserving
/// pin order and the net's name.
fn move_pad_net(net: &Net, from: Pin, to: Pin) -> Result<Net, RouteError> {
    let pins: Vec<Pin> = net
        .pins()
        .iter()
        .map(|&p| if p == from { to } else { p })
        .collect();
    Net::try_new(net.name(), pins)
}

/// Serializes a delta into its line-oriented text form:
///
/// ```text
/// addnet <name> <npins> <x> <y> ...
/// delnet <id>
/// movepad <id> <from_x> <from_y> <to_x> <to_y>
/// block <layer> <x> <y>
/// unblock <layer> <x> <y>
/// ```
pub fn write_delta(delta: &LayoutDelta) -> String {
    let mut out = String::new();
    for op in delta.ops() {
        match op {
            DeltaOp::AddNet(net) => {
                let _ = write!(out, "addnet {} {}", net.name(), net.pins().len());
                for p in net.pins() {
                    let _ = write!(out, " {} {}", p.x, p.y);
                }
                out.push('\n');
            }
            DeltaOp::RemoveNet(id) => {
                let _ = writeln!(out, "delnet {}", id.0);
            }
            DeltaOp::MovePad { net, from, to } => {
                let _ = writeln!(
                    out,
                    "movepad {} {} {} {} {}",
                    net.0, from.x, from.y, to.x, to.y
                );
            }
            DeltaOp::AddBlockage { layer, x, y } => {
                let _ = writeln!(out, "block {layer} {x} {y}");
            }
            DeltaOp::RemoveBlockage { layer, x, y } => {
                let _ = writeln!(out, "unblock {layer} {x} {y}");
            }
        }
    }
    out
}

/// Parses the text form produced by [`write_delta`].
///
/// # Errors
///
/// [`ParseLayoutError`] naming the first malformed line.
pub fn parse_delta(text: &str) -> Result<LayoutDelta, ParseLayoutError> {
    let mut delta = LayoutDelta::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut toks = trimmed.split_whitespace();
        let err = |token: &str, message: &str| ParseLayoutError {
            line,
            column: 0,
            token: token.to_string(),
            message: message.to_string(),
        };
        let head = toks.next().unwrap_or("");
        match head {
            "addnet" => {
                let name = toks
                    .next()
                    .ok_or_else(|| err("", "addnet needs a net name"))?
                    .to_string();
                let count: usize = parse_num(toks.next(), line, "addnet pin count")?;
                let mut pins = Vec::with_capacity(count);
                for _ in 0..count {
                    let x = parse_num(toks.next(), line, "addnet pin x")?;
                    let y = parse_num(toks.next(), line, "addnet pin y")?;
                    pins.push(Pin::new(x, y));
                }
                if toks.next().is_some() {
                    return Err(err(trimmed, "trailing tokens after addnet pins"));
                }
                let net = Net::try_new(name, pins)
                    .map_err(|e| err(trimmed, &format!("addnet rejected: {e}")))?;
                delta.add_net(net);
            }
            "delnet" => {
                let id: u32 = parse_num(toks.next(), line, "delnet id")?;
                if toks.next().is_some() {
                    return Err(err(trimmed, "trailing tokens after delnet"));
                }
                delta.remove_net(NetId(id));
            }
            "movepad" => {
                let id: u32 = parse_num(toks.next(), line, "movepad id")?;
                let fx = parse_num(toks.next(), line, "movepad from x")?;
                let fy = parse_num(toks.next(), line, "movepad from y")?;
                let tx = parse_num(toks.next(), line, "movepad to x")?;
                let ty = parse_num(toks.next(), line, "movepad to y")?;
                if toks.next().is_some() {
                    return Err(err(trimmed, "trailing tokens after movepad"));
                }
                delta.move_pad(NetId(id), Pin::new(fx, fy), Pin::new(tx, ty));
            }
            "block" | "unblock" => {
                let layer: u8 = parse_num(toks.next(), line, "blockage layer")?;
                let x = parse_num(toks.next(), line, "blockage x")?;
                let y = parse_num(toks.next(), line, "blockage y")?;
                if toks.next().is_some() {
                    return Err(err(trimmed, "trailing tokens after blockage"));
                }
                if head == "block" {
                    delta.add_blockage(layer, x, y);
                } else {
                    delta.remove_blockage(layer, x, y);
                }
            }
            other => {
                return Err(err(other, "unknown delta op"));
            }
        }
    }
    Ok(delta)
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseLayoutError> {
    let tok = tok.ok_or_else(|| ParseLayoutError {
        line,
        column: 0,
        token: String::new(),
        message: format!("missing {what}"),
    })?;
    tok.parse().map_err(|_| ParseLayoutError {
        line,
        column: 0,
        token: tok.to_string(),
        message: format!("malformed {what}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (RoutingGrid, Netlist) {
        let grid = RoutingGrid::three_layer(16, 16);
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(1, 1), Pin::new(8, 1)]));
        nl.push(Net::new("b", vec![Pin::new(2, 5), Pin::new(9, 5)]));
        (grid, nl)
    }

    #[test]
    fn round_trips_every_op() {
        let mut d = LayoutDelta::new();
        d.add_net(Net::new(
            "n",
            vec![Pin::new(0, 0), Pin::new(3, 3), Pin::new(5, 1)],
        ));
        d.remove_net(NetId(7));
        d.move_pad(NetId(2), Pin::new(1, 2), Pin::new(3, 4));
        d.add_blockage(1, 4, 4);
        d.remove_blockage(2, 5, 6);
        let text = write_delta(&d);
        assert_eq!(parse_delta(&text).unwrap(), d);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_delta("frobnicate 1\n").is_err());
        assert!(parse_delta("delnet xyz\n").is_err());
        assert!(parse_delta("movepad 0 1 2 3\n").is_err());
        assert!(parse_delta("addnet solo 1 0 0\n").is_err());
        assert!(parse_delta("block 1 2\n").is_err());
        assert!(parse_delta("delnet 1 extra\n").is_err());
        // Comments and blank lines are fine.
        assert!(parse_delta("# nothing\n\n").unwrap().is_empty());
    }

    #[test]
    fn apply_checks_liveness_in_order() {
        let (grid, nl) = base();
        let mut d = LayoutDelta::new();
        d.remove_net(NetId(0));
        d.remove_net(NetId(0)); // already retired
        assert!(d.apply(&grid, &nl).is_err());

        // A net added by the delta may be edited later in the delta.
        let mut d = LayoutDelta::new();
        d.add_net(Net::new("n", vec![Pin::new(0, 0), Pin::new(3, 3)]));
        d.move_pad(NetId(2), Pin::new(3, 3), Pin::new(4, 4));
        assert!(d.apply(&grid, &nl).is_ok());
    }

    #[test]
    fn apply_checks_bounds_and_layers() {
        let (grid, nl) = base();
        let mut d = LayoutDelta::new();
        d.add_blockage(0, 1, 1); // metal 1 is not a routing layer
        assert!(d.apply(&grid, &nl).is_err());
        let mut d = LayoutDelta::new();
        d.add_blockage(1, 99, 1);
        assert!(d.apply(&grid, &nl).is_err());
        let mut d = LayoutDelta::new();
        d.move_pad(NetId(0), Pin::new(5, 5), Pin::new(6, 6)); // not a pin
        assert!(d.apply(&grid, &nl).is_err());
        let mut d = LayoutDelta::new();
        d.add_net(Net::new("n", vec![Pin::new(0, 0), Pin::new(99, 0)]));
        assert!(d.apply(&grid, &nl).is_err());
    }

    #[test]
    fn apply_retires_appends_and_moves() {
        let (grid, base_nl) = base();
        let mut d = LayoutDelta::new();
        d.remove_net(NetId(0));
        d.add_net(Net::new("c", vec![Pin::new(3, 3), Pin::new(6, 6)]));
        d.move_pad(NetId(1), Pin::new(2, 5), Pin::new(2, 7));
        d.add_blockage(1, 4, 4);
        let nl = d.apply(&grid, &base_nl).unwrap();
        assert_eq!(base_nl.len(), 2, "the input netlist is left as it was");
        assert_eq!(nl.len(), 3); // slots, including the tombstone
        assert_eq!(nl.active_len(), 2);
        assert!(nl.get(NetId(0)).is_none());
        assert!(nl.is_retired(NetId(0)));
        assert_eq!(nl.get(NetId(1)).unwrap().pins()[0], Pin::new(2, 7));
        assert_eq!(nl.get(NetId(2)).unwrap().name(), "c");
        let ids: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NetId(1), NetId(2)]);
    }
}
