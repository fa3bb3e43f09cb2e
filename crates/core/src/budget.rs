//! Route budgets: wall-clock deadlines, per-phase iteration caps, and
//! A* node-expansion caps, with the [`Termination`] taxonomy that tags
//! every (possibly partial) outcome.
//!
//! A [`RouteBudget`] is declarative (durations and counts); calling
//! `RoutingSession::set_budget` *activates* it — the deadline becomes
//! an absolute [`Instant`] and the expansion cap becomes an absolute
//! stop value of the session's cumulative expansion counter. Each
//! phase activation derives its [`PhaseLimits`] from the active budget
//! and what is left of the phase's own configured iteration cap, and
//! checks [`PhaseLimits::stop_reason`] *between* iterations — never
//! inside the timed search kernel — so exhaustion always stops on a
//! consistent state that a later activation can resume from.

use std::time::{Duration, Instant};

/// Why a phase (or a whole run) stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The phase ran to completion: no work left (or, for the
    /// coloring fix, its configured attempts were spent).
    #[default]
    Converged,
    /// The iteration cap (configured cap or budgeted per-phase cap)
    /// stopped the phase with work remaining.
    IterationCap,
    /// The wall-clock deadline expired with work remaining.
    Deadline,
    /// The A* node-expansion cap was reached with work remaining.
    ExpansionCap,
}

impl Termination {
    /// Stable lowercase name used in reports and notes.
    pub fn name(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::IterationCap => "iteration_cap",
            Termination::Deadline => "deadline",
            Termination::ExpansionCap => "expansion_cap",
        }
    }

    /// `true` when the phase finished its work (no budget stop).
    pub fn is_converged(self) -> bool {
        self == Termination::Converged
    }

    /// Parses a stable [`Termination::name`] back into the variant.
    ///
    /// Used when decoding persisted artifacts (job-journal completion
    /// records, session checkpoints). Returns `None` for unknown
    /// names so callers can surface a typed durability error.
    pub fn parse(name: &str) -> Option<Termination> {
        match name {
            "converged" => Some(Termination::Converged),
            "iteration_cap" => Some(Termination::IterationCap),
            "deadline" => Some(Termination::Deadline),
            "expansion_cap" => Some(Termination::ExpansionCap),
            _ => None,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative resource budget for (part of) a routing run.
///
/// The default is unlimited. All limits are optional and combine:
/// whichever exhausts first stops the current phase with the matching
/// [`Termination`].
///
/// ```
/// use std::time::Duration;
/// use sadp_router::RouteBudget;
///
/// let b = RouteBudget::unlimited()
///     .with_deadline(Duration::from_millis(200))
///     .with_max_phase_iters(10_000);
/// assert_eq!(b.max_phase_iters(), Some(10_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteBudget {
    deadline: Option<Duration>,
    max_phase_iters: Option<usize>,
    max_expansions: Option<u64>,
}

impl RouteBudget {
    /// No limits: every phase runs to its configured completion.
    pub fn unlimited() -> RouteBudget {
        RouteBudget::default()
    }

    /// Caps the wall clock, measured from budget activation.
    pub fn with_deadline(mut self, d: Duration) -> RouteBudget {
        self.deadline = Some(d);
        self
    }

    /// Caps the iterations of each *phase activation* (the configured
    /// per-phase caps still apply; the smaller wins). A stop by this
    /// cap only pauses the phase. Each phase call of a session first
    /// re-activates every unfinished earlier phase, each under its own
    /// count of `n`, so one pass of the four phase calls can run up to
    /// `4n` iterations.
    pub fn with_max_phase_iters(mut self, n: usize) -> RouteBudget {
        self.max_phase_iters = Some(n);
        self
    }

    /// Caps A* node expansions, measured from budget activation.
    ///
    /// Unlike deadlines and iteration caps — which stop *between* R&R
    /// iterations — the expansion cap can cut a search short
    /// mid-reroute (the interrupted reroute fails and its old route is
    /// reinstalled), so a run interrupted by it resumes to a valid but
    /// not necessarily identical final solution.
    pub fn with_max_expansions(mut self, n: u64) -> RouteBudget {
        self.max_expansions = Some(n);
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured per-phase iteration cap, if any.
    pub fn max_phase_iters(&self) -> Option<usize> {
        self.max_phase_iters
    }

    /// The configured expansion cap, if any.
    pub fn max_expansions(&self) -> Option<u64> {
        self.max_expansions
    }
}

/// A [`RouteBudget`] anchored to absolute clock / counter values at
/// activation time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveBudget {
    pub(crate) deadline: Option<Instant>,
    pub(crate) expansion_stop: Option<u64>,
    pub(crate) max_phase_iters: Option<usize>,
}

impl ActiveBudget {
    pub(crate) fn unlimited() -> ActiveBudget {
        ActiveBudget {
            deadline: None,
            expansion_stop: None,
            max_phase_iters: None,
        }
    }

    /// Anchors `budget` now: the deadline counts from this call, the
    /// expansion cap from the current cumulative expansion count.
    pub(crate) fn activate(budget: &RouteBudget, expanded_now: u64) -> ActiveBudget {
        ActiveBudget {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            expansion_stop: budget
                .max_expansions
                .map(|n| expanded_now.saturating_add(n)),
            max_phase_iters: budget.max_phase_iters,
        }
    }

    /// Derives the limits of one phase activation that may run at most
    /// `cap_left` more iterations of its phase's configured cap.
    pub(crate) fn limits(&self, cap_left: usize) -> PhaseLimits {
        PhaseLimits {
            max_iters: self.max_phase_iters.map_or(cap_left, |b| b.min(cap_left)),
            deadline: self.deadline,
            expansion_stop: self.expansion_stop,
        }
    }
}

/// The effective limits of one phase activation.
#[derive(Debug, Clone, Copy)]
pub struct PhaseLimits {
    /// Iteration cap for this activation.
    pub max_iters: usize,
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Instant>,
    /// Absolute cumulative-expansion stop value, if any.
    pub expansion_stop: Option<u64>,
}

impl PhaseLimits {
    /// No limits at all.
    pub fn unlimited() -> PhaseLimits {
        PhaseLimits {
            max_iters: usize::MAX,
            deadline: None,
            expansion_stop: None,
        }
    }

    /// Only an iteration cap (the pre-budget `max_iters` behavior).
    pub fn iters_only(max_iters: usize) -> PhaseLimits {
        PhaseLimits {
            max_iters,
            ..PhaseLimits::unlimited()
        }
    }

    /// Decides, *between* iterations, whether the phase must stop:
    /// `iterations` is the count done in this activation, `expanded`
    /// the session's cumulative A* expansion count. Returns the
    /// termination reason, or `None` to continue.
    pub fn stop_reason(&self, iterations: usize, expanded: u64) -> Option<Termination> {
        if iterations >= self.max_iters {
            return Some(Termination::IterationCap);
        }
        if let Some(stop) = self.expansion_stop {
            if expanded >= stop {
                return Some(Termination::ExpansionCap);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Termination::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termination_names_and_default() {
        assert_eq!(Termination::default(), Termination::Converged);
        assert!(Termination::Converged.is_converged());
        for t in [
            Termination::IterationCap,
            Termination::Deadline,
            Termination::ExpansionCap,
        ] {
            assert!(!t.is_converged());
            assert!(!t.name().is_empty());
        }
        assert_eq!(Termination::Deadline.to_string(), "deadline");
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let limits = ActiveBudget::unlimited().limits(usize::MAX);
        assert_eq!(limits.stop_reason(1_000_000, u64::MAX - 1), None);
    }

    #[test]
    fn iteration_cap_combines_with_config_cap() {
        let b = RouteBudget::unlimited().with_max_phase_iters(5);
        let active = ActiveBudget::activate(&b, 0);
        assert_eq!(
            active.limits(10).max_iters,
            5,
            "budget cap wins when smaller"
        );
        assert_eq!(
            active.limits(3).max_iters,
            3,
            "config cap wins when smaller"
        );
        let limits = active.limits(10);
        assert_eq!(limits.stop_reason(4, 0), None);
        assert_eq!(limits.stop_reason(5, 0), Some(Termination::IterationCap));
    }

    #[test]
    fn expansion_cap_is_absolute_from_activation() {
        let b = RouteBudget::unlimited().with_max_expansions(100);
        let active = ActiveBudget::activate(&b, 250);
        let limits = active.limits(usize::MAX);
        assert_eq!(limits.stop_reason(0, 349), None);
        assert_eq!(limits.stop_reason(0, 350), Some(Termination::ExpansionCap));
    }

    #[test]
    fn zero_deadline_stops_immediately() {
        let b = RouteBudget::unlimited().with_deadline(Duration::ZERO);
        let active = ActiveBudget::activate(&b, 0);
        let limits = active.limits(usize::MAX);
        assert_eq!(limits.stop_reason(0, 0), Some(Termination::Deadline));
    }

    #[test]
    fn iteration_cap_outranks_other_reasons() {
        // Deterministic tie-break: caps are checked before clocks.
        let limits = PhaseLimits {
            max_iters: 1,
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            expansion_stop: Some(0),
        };
        assert_eq!(limits.stop_reason(1, 5), Some(Termination::IterationCap));
        assert_eq!(limits.stop_reason(0, 5), Some(Termination::ExpansionCap));
    }
}
