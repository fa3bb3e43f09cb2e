//! The overall flow (paper Fig. 8): routing-graph modeling →
//! independent routing iterations with cost assignment → negotiated
//! congestion R&R → via-layer TPL violation removal R&R →
//! 3-colorability check → done.
//!
//! Two surfaces drive it:
//!
//! * [`RoutingSession`] — the staged API: `new → initial_route →
//!   negotiate → tpl_removal → ensure_colorable → try_finish`. It borrows
//!   the grid and netlist, takes a [`RouteObserver`] per stage, and
//!   lets callers inspect or stop the flow between phases. A
//!   [`RouteBudget`] installed with [`RoutingSession::set_budget`]
//!   bounds the work; exhaustion leaves the session in a valid,
//!   resumable state (install a fresh budget and call the phase
//!   methods again) and tags the eventual outcome with a
//!   [`Termination`] reason.
//! * [`Router`] — the one-shot wrapper: [`Router::try_run`] opens a
//!   session with [`RoutingSession::try_new`] and finishes it with
//!   [`RoutingSession::try_finish`].
//!
//! [`RoutingSession::try_finish`] and [`Router::try_run`] are the only
//! ways to finish a run. They return structured [`RouteError`]s
//! instead of panicking: invalid inputs are rejected up front, and a
//! panic in any phase they run is contained and reported as
//! [`RouteError::TaskPanicked`].
//!
//! A session runs on its caller's thread, one phase after another, as
//! the paper's flow is one serial schedule. A panic in a phase method
//! called directly (`initial_route`, `negotiate`, …) unwinds to that
//! caller.

use std::fmt;
use std::time::{Duration, Instant};

use sadp_grid::{
    DeltaOp, LayoutDelta, Net, NetId, Netlist, Pin, RouteError, RoutingGrid, RoutingSolution,
    SadpKind, SolutionStats,
};
use sadp_trace::{Counter, JsonReport, Phase, RouteObserver};

use crate::budget::{ActiveBudget, RouteBudget, Termination};
use crate::costs::CostParams;
use crate::rnr::{
    ensure_colorable, initial_routing, rip_up_and_reroute, InitialWork, RnrStats, RnrWork,
};
use crate::search::SearchScratch;
use crate::state::{PinIndex, RouterState};

/// Failpoint name for an injected delay at the start of every phase
/// activation (used by the chaos tests to force deadline exhaustion).
const FAILPOINT_SLOW_PHASE: &str = "core.slow_phase";

/// Failpoint name for an injected panic at the start of every phase
/// activation (used by the chaos tests to prove panics are contained).
const FAILPOINT_PHASE_PANIC: &str = "core.phase_panic";

/// Upper bound accepted for explicit R&R iteration caps (an explicit
/// cap above this is almost certainly a unit mistake).
pub const MAX_ITER_CAP: usize = 50_000_000;

/// Upper bound accepted for the coloring-fix attempt count.
pub const MAX_COLORING_ATTEMPTS: usize = 10_000;

/// Configuration of one routing run — the four experiment arms of the
/// paper's Tables III/IV are spanned by `consider_dvi` ×
/// `consider_tpl`.
///
/// This value is the whole configuration of a run: a session never
/// reads the environment, and it runs every phase on its caller's
/// thread, so no execution setting outside it can change the output.
///
/// Construct validated configurations with [`RouterConfig::builder`];
/// the four arm shorthands ([`RouterConfig::baseline`],
/// [`RouterConfig::with_dvi`], [`RouterConfig::with_tpl`],
/// [`RouterConfig::full`]) are thin wrappers over it.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// SADP process for the metal layers.
    pub sadp: SadpKind,
    /// Apply the DVI cost assignment (BDC / AMC / CDC).
    pub consider_dvi: bool,
    /// Apply the TPL cost assignment (TPLC) and run the FVP-removal
    /// R&R phase.
    pub consider_tpl: bool,
    /// Cost parameters (Table II).
    pub params: CostParams,
    /// Iteration cap for the congestion R&R phase (0 = auto from
    /// netlist size). It counts the phase's iterations across every
    /// activation, so budget slices and checkpoint restores do not
    /// extend it; an ECO warm start ([`RoutingSession::apply_delta`])
    /// restarts the count.
    pub max_congestion_iters: usize,
    /// Iteration cap for the TPL R&R phase (0 = auto), counted like
    /// `max_congestion_iters`.
    pub max_tpl_iters: usize,
    /// Attempts of the final coloring-fix loop.
    pub coloring_attempts: usize,
}

/// A [`RouterConfig`] field rejected by
/// [`RouterConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `coloring_attempts` must be in `1..=MAX_COLORING_ATTEMPTS`.
    ColoringAttempts(usize),
    /// `max_congestion_iters` above [`MAX_ITER_CAP`].
    CongestionIterCap(usize),
    /// `max_tpl_iters` above [`MAX_ITER_CAP`].
    TplIterCap(usize),
    /// A cost weight that must be non-negative was negative.
    NegativeCostWeight(&'static str, i64),
    /// A cost factor that must be ≥ 1 was smaller.
    CostFactorBelowOne(&'static str, i64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ColoringAttempts(n) => write!(
                f,
                "coloring_attempts must be in 1..={MAX_COLORING_ATTEMPTS}, got {n}"
            ),
            ConfigError::CongestionIterCap(n) => write!(
                f,
                "max_congestion_iters must be 0 (auto) or <= {MAX_ITER_CAP}, got {n}"
            ),
            ConfigError::TplIterCap(n) => write!(
                f,
                "max_tpl_iters must be 0 (auto) or <= {MAX_ITER_CAP}, got {n}"
            ),
            ConfigError::NegativeCostWeight(name, v) => {
                write!(f, "cost weight {name} must be non-negative, got {v}")
            }
            ConfigError::CostFactorBelowOne(name, v) => {
                write!(f, "cost factor {name} must be >= 1, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for RouteError {
    fn from(e: ConfigError) -> RouteError {
        RouteError::Config {
            reason: e.to_string(),
        }
    }
}

/// Fluent, validating builder for [`RouterConfig`].
///
/// ```
/// use sadp_grid::SadpKind;
/// use sadp_router::RouterConfig;
///
/// let config = RouterConfig::builder(SadpKind::Sim)
///     .dvi(true)
///     .tpl(true)
///     .max_congestion_iters(5_000)
///     .build()
///     .expect("valid config");
/// assert!(config.consider_dvi && config.consider_tpl);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
    /// Enables/disables the DVI cost assignment (BDC / AMC / CDC).
    pub fn dvi(mut self, on: bool) -> Self {
        self.config.consider_dvi = on;
        self
    }

    /// Enables/disables the TPL cost assignment and FVP-removal phase.
    pub fn tpl(mut self, on: bool) -> Self {
        self.config.consider_tpl = on;
        self
    }

    /// Sets the cost parameters (Table II).
    pub fn params(mut self, params: CostParams) -> Self {
        self.config.params = params;
        self
    }

    /// Sets the congestion R&R iteration cap (0 = auto).
    pub fn max_congestion_iters(mut self, cap: usize) -> Self {
        self.config.max_congestion_iters = cap;
        self
    }

    /// Sets the TPL R&R iteration cap (0 = auto).
    pub fn max_tpl_iters(mut self, cap: usize) -> Self {
        self.config.max_tpl_iters = cap;
        self
    }

    /// Sets the attempts of the final coloring-fix loop.
    pub fn coloring_attempts(mut self, attempts: usize) -> Self {
        self.config.coloring_attempts = attempts;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: a zero or absurd
    /// coloring-attempt count, an iteration cap above
    /// [`MAX_ITER_CAP`], or a nonsensical cost parameter.
    pub fn build(self) -> Result<RouterConfig, ConfigError> {
        let c = &self.config;
        if c.coloring_attempts == 0 || c.coloring_attempts > MAX_COLORING_ATTEMPTS {
            return Err(ConfigError::ColoringAttempts(c.coloring_attempts));
        }
        if c.max_congestion_iters > MAX_ITER_CAP {
            return Err(ConfigError::CongestionIterCap(c.max_congestion_iters));
        }
        if c.max_tpl_iters > MAX_ITER_CAP {
            return Err(ConfigError::TplIterCap(c.max_tpl_iters));
        }
        let p = &c.params;
        for (name, v) in [
            ("alpha", p.alpha),
            ("amc", p.amc),
            ("beta", p.beta),
            ("gamma", p.gamma),
            ("non_preferred_turn", p.non_preferred_turn),
            ("usage", p.usage),
            ("history_increment", p.history_increment),
            ("via_base", p.via_base),
        ] {
            if v < 0 {
                return Err(ConfigError::NegativeCostWeight(name, v));
            }
        }
        for (name, v) in [
            ("wire_base", p.wire_base),
            ("non_preferred_mult", p.non_preferred_mult),
        ] {
            if v < 1 {
                return Err(ConfigError::CostFactorBelowOne(name, v));
            }
        }
        Ok(self.config)
    }
}

impl RouterConfig {
    /// Starts a validating builder from the baseline arm's defaults.
    pub fn builder(sadp: SadpKind) -> RouterConfigBuilder {
        RouterConfigBuilder {
            config: RouterConfig {
                sadp,
                consider_dvi: false,
                consider_tpl: false,
                params: CostParams::default(),
                max_congestion_iters: 0,
                max_tpl_iters: 0,
                coloring_attempts: 3,
            },
        }
    }

    /// Plain SADP-aware routing (the baseline arm).
    pub fn baseline(sadp: SadpKind) -> RouterConfig {
        RouterConfig::builder(sadp).config
    }

    /// Baseline + DVI consideration ("Consider DVI").
    pub fn with_dvi(sadp: SadpKind) -> RouterConfig {
        let mut config = RouterConfig::builder(sadp).config;
        config.consider_dvi = true;
        config
    }

    /// Baseline + via-layer TPL ("Consider via layer TPL").
    pub fn with_tpl(sadp: SadpKind) -> RouterConfig {
        let mut config = RouterConfig::builder(sadp).config;
        config.consider_tpl = true;
        config
    }

    /// Both considerations ("Consider DVI & via layer TPL").
    pub fn full(sadp: SadpKind) -> RouterConfig {
        let mut config = RouterConfig::builder(sadp).config;
        config.consider_dvi = true;
        config.consider_tpl = true;
        config
    }
}

/// Result of a routing run with the paper's quality flags.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The final solution.
    pub solution: RoutingSolution,
    /// Wirelength / via / net statistics (WL and #Vias columns).
    pub stats: SolutionStats,
    /// Every net routed (the paper reports 100% routability). `false`
    /// also when a budget stopped the initial-routing phase before it
    /// attempted every net.
    pub routed_all: bool,
    /// No two nets share a routing resource in the **final** solution.
    /// Recomputed after the last R&R phase: the TPL-removal and
    /// coloring-fix phases reroute nets, so neither the congestion
    /// phase's verdict nor the TPL phase's FVP-clean flag can stand in
    /// for this.
    pub congestion_free: bool,
    /// No forbidden via pattern remains on any via layer of the final
    /// solution (also recomputed at the end of the flow).
    pub fvp_free: bool,
    /// Every via-layer decomposition graph is 3-colorable
    /// (Welsh–Powell / exact verification).
    pub colorable: bool,
    /// How the run stopped: [`Termination::Converged`] when every
    /// phase finished its work, otherwise the first phase's budget
    /// stop reason. A non-converged outcome is still a valid partial
    /// solution.
    pub termination: Termination,
    /// Wall-clock routing time (the CPU column).
    pub runtime: Duration,
    /// Congestion-phase counters.
    pub congestion_stats: RnrStats,
    /// TPL-phase counters.
    pub tpl_stats: RnrStats,
}

impl RoutingOutcome {
    /// Writes the outcome's quality flags and headline metrics into a
    /// [`JsonReport`], so a run report carries the final verdicts next
    /// to its per-phase spans.
    pub fn record_into(&self, report: &mut JsonReport) {
        report.set_flag("routed_all", self.routed_all);
        report.set_flag("congestion_free", self.congestion_free);
        report.set_flag("fvp_free", self.fvp_free);
        report.set_flag("colorable", self.colorable);
        report.set_flag("converged", self.termination.is_converged());
        report.set_note("termination", self.termination.name());
        report.set_metric("wirelength", self.stats.wirelength as i64);
        report.set_metric("vias", self.stats.vias as i64);
        report.set_metric("routed_nets", self.stats.nets as i64);
        report.set_metric("runtime_ns", self.runtime.as_nanos() as i64);
        report.set_metric(
            "congestion_iterations",
            self.congestion_stats.iterations as i64,
        );
        report.set_metric("tpl_iterations", self.tpl_stats.iterations as i64);
    }
}

/// The chaos failpoints hit at the start of every phase activation
/// (see the `faultinject` crate): an injected delay, then an injected
/// panic.
fn phase_failpoints() {
    faultinject::maybe_delay(FAILPOINT_SLOW_PHASE);
    faultinject::maybe_panic(FAILPOINT_PHASE_PANIC);
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The four phases of the flow, in paper order.
#[derive(Clone, Copy)]
enum Stage {
    Initial,
    Congestion,
    Tpl,
    Coloring,
}

impl Stage {
    fn previous(self) -> Option<Stage> {
        match self {
            Stage::Initial => None,
            Stage::Congestion => Some(Stage::Initial),
            Stage::Tpl => Some(Stage::Congestion),
            Stage::Coloring => Some(Stage::Tpl),
        }
    }
}

/// One R&R phase's bookkeeping: its resumable work, how its last
/// activation stopped, whether it ended clean, and its counters
/// accumulated over every activation (an ECO warm start keeps them).
#[derive(Debug, Default)]
pub(crate) struct RnrProgress {
    pub(crate) work: RnrWork,
    pub(crate) term: Option<Termination>,
    pub(crate) clean: bool,
    pub(crate) stats: RnrStats,
}

impl RnrProgress {
    /// `true` when the phase converged or its configured iteration
    /// `cap` is spent: `work.rotation` counts the phase's iterations
    /// since the work was last reset.
    pub(crate) fn done(&self, cap: usize) -> bool {
        self.term == Some(Termination::Converged) || self.work.rotation >= cap
    }
}

/// A session's phase bookkeeping: each phase's resumable work, how
/// its last activation stopped, and what it has produced so far. A new
/// session starts from the default, a checkpoint restore parses one,
/// and an ECO warm start rewinds one.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    pub(crate) initial_work: InitialWork,
    pub(crate) initial_term: Option<Termination>,
    pub(crate) failed: Vec<NetId>,
    pub(crate) congestion: RnrProgress,
    pub(crate) tpl: RnrProgress,
    pub(crate) coloring_attempts_done: usize,
    pub(crate) coloring_term: Option<Termination>,
    pub(crate) colorable: Option<bool>,
}

/// The staged routing flow: one phase per method, in paper order,
/// with a [`RouteObserver`] threaded through every stage.
///
/// The session **borrows** the grid and netlist — running the four
/// experiment arms no longer forces a `netlist.clone()` and a grid
/// rebuild per arm. Each stage runs any prerequisite stages that have
/// not finished yet, so calling only [`RoutingSession::try_finish`]
/// after `new` still produces a complete run ([`Router::try_run`] does
/// exactly that).
///
/// # Budgets and resumption
///
/// [`RoutingSession::set_budget`] bounds subsequent work. A phase
/// stopped by the budget keeps its pending work; calling the same
/// phase method again (typically after installing a fresh budget)
/// continues exactly where it stopped — an interrupted-and-resumed
/// session walks the same iteration sequence as an uninterrupted one
/// (except under [`RouteBudget::with_max_expansions`], which can cut
/// a search mid-net). A phase that is done — it converged, or it spent
/// its configured iteration cap ([`RouterConfig::max_congestion_iters`],
/// [`RouterConfig::max_tpl_iters`]) over all its activations — is never
/// re-run: its method returns the cached result.
///
/// ```
/// use sadp_grid::{Net, Netlist, Pin, RoutingGrid, SadpKind};
/// use sadp_router::{RouterConfig, RoutingSession};
/// use sadp_trace::JsonReport;
///
/// let grid = RoutingGrid::three_layer(24, 24);
/// let mut netlist = Netlist::new();
/// netlist.push(Net::new("n0", vec![Pin::new(4, 4), Pin::new(16, 9)]));
/// let mut report = JsonReport::new("demo");
/// let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
/// session.initial_route(&mut report);
/// let (clean, _stats) = session.negotiate(&mut report);
/// assert!(clean);
/// // ... inspect session.solution() here, then continue ...
/// let outcome = session.try_finish(&mut report).expect("no contained fault");
/// assert!(outcome.routed_all);
/// outcome.record_into(&mut report);
/// ```
#[derive(Debug)]
pub struct RoutingSession<'a> {
    // Fields are `pub(crate)` so the checkpoint codec
    // (`crate::checkpoint`) can capture and restore a session
    // mid-flight; outside the crate the accessors below are the API.
    pub(crate) netlist: &'a Netlist,
    pub(crate) config: RouterConfig,
    pub(crate) state: RouterState,
    pub(crate) scratch: SearchScratch,
    pub(crate) start: Instant,
    pub(crate) budget: ActiveBudget,
    pub(crate) progress: Progress,
}

impl<'a> RoutingSession<'a> {
    /// Opens a session for one netlist on a grid. The wall clock of
    /// the eventual [`RoutingOutcome::runtime`] starts here.
    pub fn new(grid: &RoutingGrid, netlist: &'a Netlist, config: RouterConfig) -> Self {
        let state = RouterState::new(
            grid.clone(),
            netlist,
            config.sadp,
            config.params,
            config.consider_dvi,
            config.consider_tpl,
        );
        RoutingSession {
            netlist,
            config,
            state,
            scratch: SearchScratch::new(),
            start: Instant::now(),
            budget: ActiveBudget::unlimited(),
            progress: Progress::default(),
        }
    }

    /// Fallible [`RoutingSession::new`]: validates the grid and the
    /// netlist against it first, and contains any panic of the state
    /// construction.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidGrid`] / [`RouteError::InvalidNetlist`]
    /// for rejected inputs; [`RouteError::TaskPanicked`] if state
    /// construction panicked despite validation.
    pub fn try_new(
        grid: &RoutingGrid,
        netlist: &'a Netlist,
        config: RouterConfig,
    ) -> Result<Self, RouteError> {
        grid.validate()?;
        netlist.validate(grid)?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RoutingSession::new(grid, netlist, config)
        }))
        .map_err(|p| RouteError::TaskPanicked {
            message: panic_message(p.as_ref()),
        })
    }

    /// The netlist being routed.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The session's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The evolving solution (valid between any two stages).
    pub fn solution(&self) -> &RoutingSolution {
        &self.state.solution
    }

    /// The full router state, for audits and diagnostics between
    /// stages.
    pub fn state(&self) -> &RouterState {
        &self.state
    }

    /// Congestion-phase counters accumulated over every activation so
    /// far.
    pub fn congestion_stats(&self) -> RnrStats {
        self.progress.congestion.stats
    }

    /// TPL-phase counters accumulated over every activation so far.
    pub fn tpl_stats(&self) -> RnrStats {
        self.progress.tpl.stats
    }

    /// Installs (and immediately activates) a resource budget for all
    /// subsequent work: the deadline counts from this call, the
    /// expansion cap from the session's cumulative expansion count.
    /// Replaces any previous budget; `RouteBudget::unlimited()` lifts
    /// all limits.
    pub fn set_budget(&mut self, budget: RouteBudget) {
        self.budget = ActiveBudget::activate(&budget, self.scratch.expanded);
        self.scratch.set_expansion_stop(self.budget.expansion_stop);
    }

    /// How the work done so far stopped: the first phase's
    /// non-converged stop reason, or [`Termination::Converged`].
    pub fn termination(&self) -> Termination {
        let p = &self.progress;
        [
            p.initial_term,
            p.congestion.term,
            p.tpl.term,
            p.coloring_term,
        ]
        .into_iter()
        .flatten()
        .find(|t| !t.is_converged())
        .unwrap_or(Termination::Converged)
    }

    /// `true` when the coloring check is done, so nothing is left for
    /// a resumed budget to continue. A phase that spent its configured
    /// iteration cap counts as done; [`RoutingSession::termination`]
    /// still reports that cap.
    pub fn converged(&self) -> bool {
        self.done(Stage::Coloring)
    }

    /// An R&R phase's configured iteration cap, with 0 (auto) resolved
    /// from the netlist size.
    pub(crate) fn auto_cap(&self, explicit: usize) -> usize {
        if explicit == 0 {
            60 * self.netlist.len() + 2000
        } else {
            explicit
        }
    }

    /// The one pending rule: a stage is done when it converged or, for
    /// an R&R stage, when it spent its configured iteration cap. A
    /// budget stop only pauses it.
    fn done(&self, stage: Stage) -> bool {
        let p = &self.progress;
        match stage {
            Stage::Initial => p.initial_term == Some(Termination::Converged),
            Stage::Congestion => p
                .congestion
                .done(self.auto_cap(self.config.max_congestion_iters)),
            Stage::Tpl => p.tpl.done(self.auto_cap(self.config.max_tpl_iters)),
            Stage::Coloring => p.coloring_term == Some(Termination::Converged),
        }
    }

    /// Drives the flow through `stage` as far as the budget allows: a
    /// stage that is done returns at once; otherwise the stage before
    /// it is advanced first, and this one runs only once that one is
    /// done.
    fn advance(&mut self, stage: Stage, obs: &mut impl RouteObserver) {
        if self.done(stage) {
            return;
        }
        if let Some(previous) = stage.previous() {
            self.advance(previous, obs);
            if !self.done(previous) {
                return;
            }
        }
        match stage {
            Stage::Initial => self.run_initial(obs),
            Stage::Congestion => self.run_rnr::<false>(obs),
            Stage::Tpl => self.run_rnr::<true>(obs),
            Stage::Coloring => self.run_coloring(obs),
        }
    }

    fn run_initial(&mut self, obs: &mut impl RouteObserver) {
        let limits = self.budget.limits(usize::MAX);
        obs.phase_start(Phase::InitialRouting);
        phase_failpoints();
        let p = &mut self.progress;
        let t = initial_routing(
            &mut self.state,
            self.netlist,
            limits,
            &mut p.initial_work,
            &mut p.failed,
            &mut self.scratch,
            obs,
        );
        obs.phase_end(Phase::InitialRouting);
        p.initial_term = Some(t);
    }

    /// One activation of an R&R stage: congestion negotiation, or with
    /// `FVPS` TPL removal, which a configuration without TPL records as
    /// done at once. The activation runs at most the iterations left
    /// of the stage's configured cap, so the cap bounds the whole
    /// phase and a budget slice only pauses it.
    fn run_rnr<const FVPS: bool>(&mut self, obs: &mut impl RouteObserver) {
        if FVPS && !self.config.consider_tpl {
            let p = &mut self.progress;
            p.tpl.clean = p.congestion.clean;
            p.tpl.term = Some(Termination::Converged);
            return;
        }
        let cap = self.auto_cap(if FVPS {
            self.config.max_tpl_iters
        } else {
            self.config.max_congestion_iters
        });
        let (phase, rnr) = if FVPS {
            (Phase::TplViolationRemoval, &mut self.progress.tpl)
        } else {
            (Phase::CongestionNegotiation, &mut self.progress.congestion)
        };
        // Not done, so `rotation < cap`.
        let limits = self.budget.limits(cap - rnr.work.rotation);
        obs.phase_start(phase);
        phase_failpoints();
        let (clean, stats) = rip_up_and_reroute::<FVPS>(
            &mut self.state,
            self.netlist,
            limits,
            &mut rnr.work,
            &mut self.scratch,
            obs,
        );
        obs.phase_end(phase);
        rnr.clean = clean;
        rnr.stats.merge(stats);
        rnr.term = Some(stats.termination);
    }

    fn run_coloring(&mut self, obs: &mut impl RouteObserver) {
        obs.phase_start(Phase::ColoringFix);
        phase_failpoints();
        let p = &mut self.progress;
        if self.config.consider_tpl {
            let limits = self.budget.limits(usize::MAX);
            let (colorable, t) = ensure_colorable(
                &mut self.state,
                self.netlist,
                self.config.coloring_attempts,
                limits,
                &mut p.coloring_attempts_done,
                &mut self.scratch,
                obs,
            );
            if t.is_converged() {
                p.colorable = Some(colorable);
            }
            p.coloring_term = Some(t);
        } else {
            // Report-only: check colorability without fixing.
            p.colorable = Some(crate::audit::via_layers_colorable(&self.state));
            p.coloring_term = Some(Termination::Converged);
        }
        obs.phase_end(Phase::ColoringFix);
    }

    /// Phase 1 — routes every net once in HPWL order. Returns the
    /// nets that could not be routed at all (normally empty). When a
    /// budget stopped a previous activation, calling this again
    /// continues with the next net.
    pub fn initial_route(&mut self, obs: &mut impl RouteObserver) -> &[NetId] {
        self.advance(Stage::Initial, obs);
        &self.progress.failed
    }

    /// Phase 2 — negotiated-congestion R&R. Returns
    /// `(congestion_free, stats)` with the stats accumulated over
    /// every activation. A budget-stopped activation is resumed by
    /// calling this again; a done phase (converged, or ended by
    /// [`RouterConfig::max_congestion_iters`]) is not re-run.
    pub fn negotiate(&mut self, obs: &mut impl RouteObserver) -> (bool, RnrStats) {
        self.advance(Stage::Congestion, obs);
        let c = &self.progress.congestion;
        (c.clean, c.stats)
    }

    /// Phase 3 — via-layer TPL violation removal R&R (Algorithm 2).
    /// Runs only when the configuration considers TPL; otherwise it
    /// records the stage as done and returns immediately. Returns
    /// `(clean, stats)` where clean means congestion- and FVP-free.
    pub fn tpl_removal(&mut self, obs: &mut impl RouteObserver) -> (bool, RnrStats) {
        self.advance(Stage::Tpl, obs);
        let t = &self.progress.tpl;
        (t.clean, t.stats)
    }

    /// Phase 4 — the final 3-colorability check. With TPL considered
    /// this rips and reroutes nets with uncolorable vias
    /// (`coloring_attempts` rounds across all activations); otherwise
    /// it only audits, as in the paper's report-only arms. Returns the
    /// colorability verdict (`false` when the budget stopped the
    /// check before a verdict was reached — resume to get one).
    pub fn ensure_colorable(&mut self, obs: &mut impl RouteObserver) -> bool {
        self.advance(Stage::Coloring, obs);
        self.progress.colorable.unwrap_or(false)
    }

    /// Finishes the flow: runs any remaining stages (as far as the
    /// budget allows), recomputes the final quality flags from the
    /// **final** router state (see
    /// [`RoutingOutcome::congestion_free`]), and assembles the
    /// outcome. The recomputation is itself observable as a
    /// [`Phase::Audit`] span. A budget-stopped run yields a valid
    /// partial outcome tagged with its [`Termination`] reason.
    ///
    /// # Errors
    ///
    /// [`RouteError::TaskPanicked`] when a phase it runs, or the final
    /// audit, panicked.
    pub fn try_finish(self, obs: &mut impl RouteObserver) -> Result<RoutingOutcome, RouteError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut session = self;
            session.advance(Stage::Coloring, obs);
            session.into_outcome(obs)
        }))
        .map_err(|p| RouteError::TaskPanicked {
            message: panic_message(p.as_ref()),
        })
    }

    fn into_outcome(self, obs: &mut impl RouteObserver) -> RoutingOutcome {
        let routed_all = self.done(Stage::Initial) && self.progress.failed.is_empty();
        let termination = self.termination();

        // `congestion_free` and `fvp_free` are recomputed here rather
        // than carried over from phase return values: the TPL-removal
        // and coloring-fix phases rip up and reroute nets after the
        // congestion phase, so an earlier "clean" verdict (in
        // particular the TPL phase's FVP-clean flag) must never stand
        // in for the final congestion state.
        obs.phase_start(Phase::Audit);
        let congested = self.state.congested_points();
        obs.counter(Phase::Audit, Counter::AuditShorts, congested.len() as i64);
        let fvp_windows: usize = (0..self.state.grid.via_layer_count())
            .map(|vl| self.state.fvp[vl as usize].fvp_window_count())
            .sum();
        obs.counter(Phase::Audit, Counter::AuditFvpWindows, fvp_windows as i64);
        // A budget can stop the flow before the coloring check ran:
        // audit the current state so the flag is still truthful.
        let colorable = match self.progress.colorable {
            Some(c) => c,
            None => crate::audit::via_layers_colorable(&self.state),
        };
        obs.phase_end(Phase::Audit);

        let stats = self.state.solution.stats();
        RoutingOutcome {
            solution: self.state.solution,
            stats,
            routed_all,
            congestion_free: congested.is_empty(),
            fvp_free: fvp_windows == 0,
            colorable,
            termination,
            runtime: self.start.elapsed(),
            congestion_stats: self.progress.congestion.stats,
            tpl_stats: self.progress.tpl.stats,
        }
    }

    /// Warm-starts the session from a layout edit instead of routing
    /// from scratch (incremental / ECO rerouting).
    ///
    /// `edited` must be the session's current netlist with `delta`
    /// applied ([`LayoutDelta::apply`]); both must outlive the
    /// session. The method
    ///
    /// 1. computes the minimal victim set ([`crate::eco::analyze`]) —
    ///    the nets the edit perturbs through occupancy, cost windows,
    ///    or via-coloring conflicts — against the pre-edit state,
    /// 2. applies the ops in order, patching occupancy, via tracking,
    ///    pin seeds and wiring blockages **in place**, then rebuilds
    ///    the pin index from `edited`,
    /// 3. rips up only the victims, and
    /// 4. rewinds the phase machinery so the normal `initial_route →
    ///    negotiate → tpl_removal → ensure_colorable` sequence re-runs
    ///    warm over just the victims and added nets. Budgets,
    ///    observers, and resumability behave exactly as on a cold
    ///    session.
    ///
    /// Emits [`Counter::EcoVictims`] (nets ripped) and
    /// [`Counter::EcoReused`] (routes kept) under
    /// [`Phase::InitialRouting`].
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidNetlist`] / [`RouteError::InvalidGrid`]
    /// when the delta fails validation or `edited` is not the base
    /// netlist plus the delta. On error the session is unchanged.
    pub fn apply_delta(
        &mut self,
        edited: &'a Netlist,
        delta: &LayoutDelta,
        obs: &mut impl RouteObserver,
    ) -> Result<(), RouteError> {
        // `apply` checks each op against the netlist as edited so far,
        // rebuilding every pad-moved net with `Net::try_new`; base +
        // delta must then be exactly `edited`, whose ids the analysis
        // and the patches below assume. All checks precede the first
        // write to the state, so a rejected delta leaves the session
        // unchanged and the edits below cannot fail.
        if delta.apply(&self.state.grid, self.netlist)? != *edited {
            return Err(RouteError::InvalidNetlist {
                net: String::new(),
                reason: "edited netlist does not equal base netlist + delta".to_string(),
            });
        }
        edited.validate(&self.state.grid)?;

        // Perturbation analysis runs against the pre-edit state.
        let plan = crate::eco::analyze(&self.state, self.netlist, delta);

        // Apply the ops in order, mirroring them on a simulated
        // netlist so every step sees the definitions in force at that
        // point. The pin index still describes the base netlist here,
        // which answers `is_pin_via` alike for every route an op
        // uninstalls: a route's vias below the first routing layer sit
        // on its own net's base pads.
        let mut sim = self.netlist.clone();
        for op in delta.ops() {
            match op {
                DeltaOp::AddNet(net) => {
                    let id = sim.push(net.clone());
                    self.state.add_net(id, net);
                }
                DeltaOp::RemoveNet(id) => {
                    let old = sim[*id].clone();
                    sim.retire(*id);
                    self.state.remove_net(*id, &old, &sim);
                }
                DeltaOp::MovePad { net, from, to } => {
                    let old = sim[*net].clone();
                    let pins: Vec<Pin> = old
                        .pins()
                        .iter()
                        .map(|&p| if p == *from { *to } else { p })
                        .collect();
                    let moved = Net::try_new(old.name(), pins)?;
                    sim.replace(*net, moved.clone());
                    self.state.remove_net(*net, &old, &sim);
                    self.state.add_net(*net, &moved);
                }
                DeltaOp::AddBlockage { layer, x, y } => {
                    self.state.set_wire_blockage(*layer, *x, *y, true);
                }
                DeltaOp::RemoveBlockage { layer, x, y } => {
                    self.state.set_wire_blockage(*layer, *x, *y, false);
                }
            }
        }

        // The pin index is a function of the netlist: rebuild it from
        // `edited` before the victims' uninstalls ask `is_pin_via`.
        self.state.pins = PinIndex::build(&self.state.grid, edited);

        // Rip the victims; everything else keeps its route, penalties,
        // and history (the warm start).
        for &v in &plan.victims {
            let _ = self.state.uninstall_route(v);
        }
        obs.counter(
            Phase::InitialRouting,
            Counter::EcoVictims,
            plan.victims.len() as i64,
        );
        obs.counter(
            Phase::InitialRouting,
            Counter::EcoReused,
            self.state.solution.routed_count() as i64,
        );

        // Rewind the phase machinery: the victims, the added nets, and
        // any initial-routing work a budget left unattempted become
        // the new initial-routing work, in the same (HPWL, id) order a
        // cold session would use. Every later phase restarts from the
        // patched state, its iteration count included; only the
        // untouched failed nets and the accumulated stats carry over.
        // Blocked-via enforcement, once on, stays on: the FVP indexes
        // answer every via location from the patched state.
        let old = std::mem::take(&mut self.progress);
        let mut pending: std::collections::BTreeSet<NetId> = plan.victims.iter().copied().collect();
        if old.initial_work.seeded {
            pending.extend(
                old.initial_work.order[old.initial_work.pos..]
                    .iter()
                    .copied(),
            );
        } else {
            pending.extend(self.netlist.iter().map(|(id, _)| id));
        }
        pending.extend((self.netlist.len()..edited.len()).map(|i| NetId(i as u32)));
        for id in &plan.removed {
            pending.remove(id);
        }
        let mut order: Vec<NetId> = pending.into_iter().collect();
        order.sort_by_key(|&id| (edited[id].hpwl(), id));
        self.progress = Progress {
            initial_work: InitialWork {
                order,
                pos: 0,
                seeded: true,
            },
            failed: old
                .failed
                .into_iter()
                .filter(|id| !plan.removed.contains(id) && !plan.victims.contains(id))
                .collect(),
            congestion: RnrProgress {
                stats: old.congestion.stats,
                ..RnrProgress::default()
            },
            tpl: RnrProgress {
                stats: old.tpl.stats,
                ..RnrProgress::default()
            },
            ..Progress::default()
        };
        self.netlist = edited;
        Ok(())
    }
}

/// The SADP-aware detailed router — the one-shot wrapper over
/// [`RoutingSession`].
///
/// See the crate docs for the flow; construct with a grid, a placed
/// netlist, and a [`RouterConfig`], then call [`Router::try_run`].
/// Callers that need borrowing, budgets, or stage-by-stage control
/// should use [`RoutingSession`] directly.
#[derive(Debug)]
pub struct Router {
    grid: RoutingGrid,
    netlist: Netlist,
    config: RouterConfig,
}

impl Router {
    /// Creates a router for one netlist.
    pub fn new(grid: RoutingGrid, netlist: Netlist, config: RouterConfig) -> Router {
        Router {
            grid,
            netlist,
            config,
        }
    }

    /// The netlist being routed.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Runs the full flow, reporting phase spans and counters into
    /// `obs`: validates inputs, contains panics, and returns
    /// structured [`RouteError`]s.
    ///
    /// # Errors
    ///
    /// See [`RoutingSession::try_new`] and
    /// [`RoutingSession::try_finish`].
    pub fn try_run(self, obs: &mut impl RouteObserver) -> Result<RoutingOutcome, RouteError> {
        RoutingSession::try_new(&self.grid, &self.netlist, self.config)?.try_finish(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_grid::{Net, Pin};
    use sadp_trace::{EventLog, NoopObserver, TraceEvent};

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(16, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 8), Pin::new(16, 12)]));
        nl.push(Net::new("c", vec![Pin::new(8, 4), Pin::new(8, 16)]));
        nl.push(Net::new(
            "d",
            vec![Pin::new(6, 6), Pin::new(14, 14), Pin::new(6, 14)],
        ));
        nl
    }

    #[test]
    fn full_flow_produces_clean_solution() {
        for kind in SadpKind::ALL {
            let out = Router::new(
                RoutingGrid::three_layer(24, 24),
                small_netlist(),
                RouterConfig::full(kind),
            )
            .try_run(&mut NoopObserver)
            .expect("full flow");
            assert!(out.routed_all, "{kind}: not all routed");
            assert!(out.congestion_free, "{kind}: congested");
            assert!(out.fvp_free, "{kind}: FVPs remain");
            assert!(out.colorable, "{kind}: uncolorable");
            assert_eq!(out.termination, Termination::Converged);
            assert!(out.stats.wirelength > 0);
            assert!(out.solution.shorts().is_empty());
        }
    }

    #[test]
    fn baseline_flow_routes_everything() {
        let out = Router::new(
            RoutingGrid::three_layer(24, 24),
            small_netlist(),
            RouterConfig::baseline(SadpKind::Sim),
        )
        .try_run(&mut NoopObserver)
        .expect("baseline flow");
        assert!(out.routed_all);
        assert!(out.congestion_free);
    }

    #[test]
    fn router_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Router>();
        assert_send_sync::<RouterConfig>();
        assert_send_sync::<RoutingOutcome>();
        assert_send_sync::<RoutingSession<'static>>();
    }

    #[test]
    fn stages_are_idempotent_and_inspectable() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        let mut obs = NoopObserver;
        assert!(s.initial_route(&mut obs).is_empty());
        assert_eq!(s.solution().routed_count(), nl.len());
        let first = s.negotiate(&mut obs);
        let again = s.negotiate(&mut obs);
        assert_eq!(first, again, "re-running a converged stage is a no-op");
        let (clean, _) = s.tpl_removal(&mut obs);
        assert!(clean);
        assert!(s.ensure_colorable(&mut obs));
        assert!(s.converged());
        let out = s.try_finish(&mut obs).expect("no contained fault");
        assert!(out.routed_all && out.congestion_free && out.fvp_free);
    }

    #[test]
    fn try_finish_alone_runs_the_whole_flow() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
            .try_finish(&mut NoopObserver)
            .expect("no contained fault");
        assert!(out.routed_all && out.congestion_free && out.colorable);
    }

    #[test]
    fn observed_phases_follow_flow_order() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut log = EventLog::new();
        let _ = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
            .try_finish(&mut log)
            .expect("no contained fault");
        assert_eq!(
            log.phase_sequence(),
            vec![
                Phase::InitialRouting,
                Phase::CongestionNegotiation,
                Phase::TplViolationRemoval,
                Phase::ColoringFix,
                Phase::Audit,
            ]
        );
        assert!(log.balanced());
    }

    #[test]
    fn baseline_arm_skips_tpl_phase() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut log = EventLog::new();
        let _ = RoutingSession::new(&grid, &nl, RouterConfig::baseline(SadpKind::Sim))
            .try_finish(&mut log)
            .expect("no contained fault");
        assert!(!log.phase_sequence().contains(&Phase::TplViolationRemoval));
        assert!(log.phase_sequence().contains(&Phase::ColoringFix));
    }

    /// Regression test for the `congestion_free` misreport: the TPL
    /// phase's FVP-clean flag must not imply congestion-free, because
    /// phases running *after* it (the coloring fix) rip up and reroute
    /// nets and can re-introduce resource sharing. The pre-fix code
    /// computed `congestion_free = clean || congested().is_empty()`
    /// before the coloring fix ran, so the state built here — TPL
    /// phase clean, congestion afterwards — was reported as
    /// congestion-free.
    #[test]
    fn congestion_after_clean_tpl_phase_is_not_reported_free() {
        use sadp_grid::RoutedNet;

        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        let mut obs = NoopObserver;
        assert!(s.initial_route(&mut obs).is_empty());
        s.negotiate(&mut obs);
        let (fvp_clean, _) = s.tpl_removal(&mut obs);
        assert!(fvp_clean, "precondition: the TPL phase itself ended clean");
        assert!(s.state.congested_points().is_empty());

        // Simulate a coloring-fix reroute that lands net "a" on top of
        // net "b"'s wire metal (the search permits shared points at a
        // usage cost, so real reroutes can do exactly this). Mark the
        // coloring stage done so try_finish() keeps our mutation.
        s.ensure_colorable(&mut obs);
        let overlap: Vec<_> = s
            .state
            .solution
            .route(NetId(1))
            .expect("net b routed")
            .edges()
            .to_vec();
        s.state.uninstall_route(NetId(0));
        s.state
            .install_route(NetId(0), RoutedNet::new(overlap, Vec::new()));
        assert!(
            !s.state.congested_points().is_empty(),
            "constructed overlap must register as congestion"
        );

        let out = s.try_finish(&mut obs).expect("no contained fault");
        assert!(
            !out.congestion_free,
            "a congested final state was reported congestion_free"
        );
    }

    #[test]
    fn audit_span_reports_residual_violations() {
        use sadp_grid::RoutedNet;

        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        let mut obs = NoopObserver;
        s.ensure_colorable(&mut obs);
        let overlap: Vec<_> = s
            .state
            .solution
            .route(NetId(1))
            .expect("net b routed")
            .edges()
            .to_vec();
        s.state.uninstall_route(NetId(0));
        s.state
            .install_route(NetId(0), RoutedNet::new(overlap, Vec::new()));

        let mut log = EventLog::new();
        let out = s.try_finish(&mut log).expect("no contained fault");
        assert!(!out.congestion_free);
        let audited: i64 = log.total(Phase::Audit, Counter::AuditShorts);
        assert!(audited > 0, "audit span must report the residual overlap");
    }

    #[test]
    fn config_arms_differ() {
        let base = RouterConfig::baseline(SadpKind::Sim);
        let dvi = RouterConfig::with_dvi(SadpKind::Sim);
        let tpl = RouterConfig::with_tpl(SadpKind::Sim);
        let full = RouterConfig::full(SadpKind::Sim);
        assert!(!base.consider_dvi && !base.consider_tpl);
        assert!(dvi.consider_dvi && !dvi.consider_tpl);
        assert!(!tpl.consider_dvi && tpl.consider_tpl);
        assert!(full.consider_dvi && full.consider_tpl);
    }

    #[test]
    fn builder_validates_fields() {
        assert!(RouterConfig::builder(SadpKind::Sim).build().is_ok());
        assert_eq!(
            RouterConfig::builder(SadpKind::Sim)
                .coloring_attempts(0)
                .build()
                .unwrap_err(),
            ConfigError::ColoringAttempts(0)
        );
        assert_eq!(
            RouterConfig::builder(SadpKind::Sim)
                .max_congestion_iters(MAX_ITER_CAP + 1)
                .build()
                .unwrap_err(),
            ConfigError::CongestionIterCap(MAX_ITER_CAP + 1)
        );
        assert_eq!(
            RouterConfig::builder(SadpKind::Sim)
                .max_tpl_iters(usize::MAX)
                .build()
                .unwrap_err(),
            ConfigError::TplIterCap(usize::MAX)
        );
        let bad_params = CostParams {
            alpha: -1,
            ..CostParams::default()
        };
        assert_eq!(
            RouterConfig::builder(SadpKind::Sim)
                .params(bad_params)
                .build()
                .unwrap_err(),
            ConfigError::NegativeCostWeight("alpha", -1)
        );
        let bad_mult = CostParams {
            non_preferred_mult: 0,
            ..CostParams::default()
        };
        assert_eq!(
            RouterConfig::builder(SadpKind::Sim)
                .params(bad_mult)
                .build()
                .unwrap_err(),
            ConfigError::CostFactorBelowOne("non_preferred_mult", 0)
        );
        let err = ConfigError::ColoringAttempts(0);
        assert!(err.to_string().contains("coloring_attempts"));
        let as_route_error: RouteError = err.into();
        assert!(matches!(as_route_error, RouteError::Config { .. }));
    }

    #[test]
    fn builder_matches_arm_shorthands() {
        let by_builder = RouterConfig::builder(SadpKind::Sid)
            .dvi(true)
            .tpl(true)
            .build()
            .unwrap();
        let full = RouterConfig::full(SadpKind::Sid);
        assert_eq!(by_builder.sadp, full.sadp);
        assert_eq!(by_builder.consider_dvi, full.consider_dvi);
        assert_eq!(by_builder.consider_tpl, full.consider_tpl);
        assert_eq!(by_builder.coloring_attempts, full.coloring_attempts);
    }

    #[test]
    fn arm_shorthands_pass_builder_validation() {
        // The shorthands skip the builder's validation step; make sure
        // the defaults they hand out would pass it.
        for config in [
            RouterConfig::baseline(SadpKind::Sim),
            RouterConfig::with_dvi(SadpKind::Sim),
            RouterConfig::with_tpl(SadpKind::Sid),
            RouterConfig::full(SadpKind::Sid),
        ] {
            let rebuilt = RouterConfigBuilder { config }.build();
            assert!(rebuilt.is_ok(), "{config:?}");
        }
    }

    #[test]
    fn outcome_records_into_report() {
        let out = Router::new(
            RoutingGrid::three_layer(24, 24),
            small_netlist(),
            RouterConfig::full(SadpKind::Sim),
        )
        .try_run(&mut NoopObserver)
        .expect("full flow");
        let mut rep = JsonReport::new("unit");
        out.record_into(&mut rep);
        assert_eq!(rep.flag("congestion_free"), Some(true));
        assert_eq!(rep.flag("converged"), Some(true));
        assert_eq!(rep.note_value("termination"), Some("converged"));
        assert_eq!(rep.metric("wirelength"), Some(out.stats.wirelength as i64));
        assert!(rep.metric("runtime_ns").unwrap() > 0);
    }

    #[test]
    fn event_log_counters_match_outcome_stats() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut log = EventLog::new();
        let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
            .try_finish(&mut log)
            .expect("no contained fault");
        assert_eq!(
            log.total(Phase::CongestionNegotiation, Counter::Reroutes),
            out.congestion_stats.reroutes as i64
        );
        assert_eq!(
            log.total(Phase::CongestionNegotiation, Counter::Iterations),
            out.congestion_stats.iterations as i64
        );
        assert_eq!(
            log.total(Phase::TplViolationRemoval, Counter::Iterations),
            out.tpl_stats.iterations as i64
        );
        // Every iteration is either a reroute or a failure.
        for phase in [Phase::CongestionNegotiation, Phase::TplViolationRemoval] {
            assert_eq!(
                log.total(phase, Counter::Iterations),
                log.total(phase, Counter::Reroutes) + log.total(phase, Counter::RerouteFailures)
            );
        }
        // No stray start/end pairs hide in the counter stream.
        assert!(log.events().iter().all(
            |e| !matches!(e, TraceEvent::Counter(Phase::Audit, Counter::AuditShorts, v) if *v != 0)
        ));
    }

    #[test]
    fn try_new_rejects_invalid_netlist() {
        let grid = RoutingGrid::three_layer(24, 24);
        let mut nl = Netlist::new();
        nl.push(Net::new("off", vec![Pin::new(2, 2), Pin::new(999, 2)]));
        let err = RoutingSession::try_new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
            .expect_err("out-of-bounds pin must be rejected");
        assert!(matches!(err, RouteError::InvalidNetlist { .. }), "{err}");
    }

    #[test]
    fn zero_deadline_yields_partial_outcome_and_resumes() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        s.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
        let mut obs = NoopObserver;
        assert!(!s.initial_route(&mut obs).is_empty() || s.solution().routed_count() == 0);
        assert_eq!(s.termination(), Termination::Deadline);
        assert!(!s.converged());

        // Lift the budget: the session continues to a full, clean run.
        s.set_budget(RouteBudget::unlimited());
        assert!(s.ensure_colorable(&mut obs));
        assert!(s.converged());
        let out = s.try_finish(&mut obs).expect("no contained fault");
        assert!(out.routed_all && out.congestion_free && out.colorable);
        assert_eq!(out.termination, Termination::Converged);
    }

    #[test]
    fn budget_stop_is_tagged_in_outcome() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        s.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
        let out = s.try_finish(&mut NoopObserver).expect("no contained fault");
        assert_eq!(out.termination, Termination::Deadline);
        assert!(!out.routed_all);
        let mut rep = JsonReport::new("partial");
        out.record_into(&mut rep);
        assert_eq!(rep.flag("converged"), Some(false));
        assert_eq!(rep.note_value("termination"), Some("deadline"));
    }

    #[test]
    fn expansion_cap_stops_the_search() {
        let grid = RoutingGrid::three_layer(24, 24);
        let nl = small_netlist();
        let mut s = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim));
        s.set_budget(RouteBudget::unlimited().with_max_expansions(1));
        let mut obs = NoopObserver;
        s.initial_route(&mut obs);
        assert_eq!(s.termination(), Termination::ExpansionCap);
        s.set_budget(RouteBudget::unlimited());
        assert!(s.initial_route(&mut obs).is_empty());
        assert!(s.ensure_colorable(&mut obs));
    }
}
