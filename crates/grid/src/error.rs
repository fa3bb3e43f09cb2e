//! The structured error taxonomy shared across the routing workspace.
//!
//! Every fallible public entry point of `sadp-grid`, `sadp-router`,
//! and `dvi` reports failures through [`RouteError`] instead of
//! panicking: cross-validation of grids / netlists / solutions, parse
//! errors, configuration errors, budget exhaustion, and solver or
//! worker failures. The enum lives in this substrate crate so the
//! higher layers can fold their own error types into it (e.g.
//! `sadp-router`'s `ConfigError` via `From`).

use crate::io::ParseLayoutError;

/// A structured routing-flow error.
///
/// The taxonomy mirrors the flow's trust boundaries: what came in off
/// disk ([`RouteError::Parse`]), what the caller constructed
/// ([`RouteError::InvalidGrid`] / [`RouteError::InvalidNetlist`] /
/// [`RouteError::InvalidSolution`] / [`RouteError::Config`]), and what
/// went wrong while running ([`RouteError::Budget`],
/// [`RouteError::Solver`], [`RouteError::TaskPanicked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A text-format parse failed (see [`ParseLayoutError`]).
    Parse(ParseLayoutError),
    /// A routing grid failed validation.
    InvalidGrid {
        /// What is wrong with the grid.
        reason: String,
    },
    /// A netlist failed validation against its grid.
    InvalidNetlist {
        /// Name of the offending net (empty when the netlist as a
        /// whole is at fault).
        net: String,
        /// What is wrong.
        reason: String,
    },
    /// A routing solution failed validation against its grid.
    InvalidSolution {
        /// Id of the offending net, when one is identifiable.
        net: Option<u32>,
        /// What is wrong.
        reason: String,
    },
    /// A router/solver configuration was rejected.
    Config {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A budget was exhausted in a context that cannot degrade to a
    /// partial result.
    Budget {
        /// The phase or component that ran out of budget.
        phase: String,
        /// What was exhausted.
        reason: String,
    },
    /// A solver failed (after any configured fallback also failed).
    Solver {
        /// The solver that failed ("ilp", "ilp-lazy", "heuristic", …).
        solver: String,
        /// Why it failed.
        reason: String,
    },
    /// A panic inside the routing flow, contained by
    /// `RoutingSession::try_new` or `RoutingSession::try_finish`
    /// (`sadp-router`).
    TaskPanicked {
        /// The panic message.
        message: String,
    },
    /// A durability artifact (job journal, session checkpoint) was
    /// rejected: checksum mismatch, version mismatch, torn or
    /// truncated data, or a binding mismatch against the live layout.
    Durability {
        /// The artifact or mechanism that failed ("journal",
        /// "checkpoint", "recovery", …).
        what: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Parse(e) => write!(f, "parse error: {e}"),
            RouteError::InvalidGrid { reason } => write!(f, "invalid grid: {reason}"),
            RouteError::InvalidNetlist { net, reason } => {
                if net.is_empty() {
                    write!(f, "invalid netlist: {reason}")
                } else {
                    write!(f, "invalid netlist: net '{net}': {reason}")
                }
            }
            RouteError::InvalidSolution { net, reason } => match net {
                Some(id) => write!(f, "invalid solution: net#{id}: {reason}"),
                None => write!(f, "invalid solution: {reason}"),
            },
            RouteError::Config { reason } => write!(f, "invalid configuration: {reason}"),
            RouteError::Budget { phase, reason } => {
                write!(f, "budget exhausted in {phase}: {reason}")
            }
            RouteError::Solver { solver, reason } => {
                write!(f, "solver '{solver}' failed: {reason}")
            }
            RouteError::TaskPanicked { message } => write!(f, "routing flow panicked: {message}"),
            RouteError::Durability { what, reason } => {
                write!(f, "durability failure in {what}: {reason}")
            }
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseLayoutError> for RouteError {
    fn from(e: ParseLayoutError) -> RouteError {
        RouteError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_every_variant() {
        let cases: Vec<(RouteError, &str)> = vec![
            (
                RouteError::Parse(ParseLayoutError {
                    line: 3,
                    column: 5,
                    token: "xyz".into(),
                    message: "bad".into(),
                }),
                "parse error: line 3",
            ),
            (
                RouteError::InvalidGrid { reason: "r".into() },
                "invalid grid: r",
            ),
            (
                RouteError::InvalidNetlist {
                    net: "clk".into(),
                    reason: "r".into(),
                },
                "net 'clk'",
            ),
            (
                RouteError::InvalidNetlist {
                    net: String::new(),
                    reason: "empty".into(),
                },
                "invalid netlist: empty",
            ),
            (
                RouteError::InvalidSolution {
                    net: Some(7),
                    reason: "r".into(),
                },
                "net#7",
            ),
            (
                RouteError::Config { reason: "r".into() },
                "invalid configuration",
            ),
            (
                RouteError::Budget {
                    phase: "dvi".into(),
                    reason: "deadline".into(),
                },
                "budget exhausted in dvi",
            ),
            (
                RouteError::Solver {
                    solver: "ilp".into(),
                    reason: "r".into(),
                },
                "solver 'ilp'",
            ),
            (
                RouteError::TaskPanicked {
                    message: "boom".into(),
                },
                "routing flow panicked: boom",
            ),
            (
                RouteError::Durability {
                    what: "journal".into(),
                    reason: "checksum mismatch".into(),
                },
                "durability failure in journal",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }

    #[test]
    fn parse_errors_convert_and_chain() {
        let p = ParseLayoutError {
            line: 1,
            column: 0,
            token: String::new(),
            message: "m".into(),
        };
        let e: RouteError = p.clone().into();
        assert_eq!(e, RouteError::Parse(p));
        assert!(std::error::Error::source(&e).is_some());
    }
}
