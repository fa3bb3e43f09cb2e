//! The job API: what a client submits ([`RouteRequest`]), what it gets
//! back immediately ([`JobId`]), what it can stream ([`JobEvent`]), and
//! what it ends with ([`RouteResponse`]).
//!
//! Everything here is deterministic by construction: the [`run_id`]
//! derives from the request text (never the wall clock), and the
//! [`outcome_fingerprint`] hashes the solution text plus the quality
//! flags — the same fields the repo's determinism suites pin — so a
//! request routed through the service, through `sadpd`, or directly on
//! a bare `RoutingSession` fingerprints identically.
//!
//! [`run_id`]: RouteRequest::run_id

use std::time::Duration;

use sadp_grid::{write_solution, Netlist, RoutingGrid, SadpKind};
use sadp_router::{ConfigError, RouteBudget, RouterConfig, RoutingOutcome, Termination};
use sadp_trace::{fnv1a, JsonReport};

/// Identifies a submitted job within one [`Service`](crate::Service)
/// instance (sequential, starting at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority band. Within a band jobs run in submission
/// order; across bands the scheduler interleaves with a 4/2/1
/// credit-weighted round-robin so low-priority work progresses but
/// never starves interactive jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Interactive jobs: largest scheduling share.
    High,
    /// The default band.
    #[default]
    Normal,
    /// Bulk/batch work: smallest share, still guaranteed progress.
    Low,
}

impl Priority {
    /// Band index (0 = high) used by the scheduler and the wire format.
    pub fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses [`Priority::name`] output.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// Where the layout + netlist of a job come from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// The text format of `sadp_grid::read_netlist`, inline.
    Inline {
        /// The layout text (grid header + net lines).
        layout: String,
    },
    /// A named circuit of the paper suite (`benchgen::BenchSpec`),
    /// optionally scaled, generated from a seed.
    Spec {
        /// Circuit name (`ecc`, `efc`, `ctl`, `alu`, `div`, `top`).
        name: String,
        /// Netlist scale factor in (0, 1] (1.0 = full size).
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A synthetic paper-density circuit with an explicit net count.
    Synthetic {
        /// Number of nets.
        nets: usize,
        /// Generator seed.
        seed: u64,
    },
    /// An incremental (ECO) job: route `base` to convergence, then
    /// apply `delta` through `RoutingSession::apply_delta` and finish
    /// warm. The executor reuses a cached base layout when one is
    /// available.
    Eco {
        /// The layout the delta edits. Nesting `Eco` inside `Eco` is
        /// rejected.
        base: Box<JobSource>,
        /// The edit, in the `sadp_grid::parse_delta` text form.
        delta: String,
    },
}

impl JobSource {
    /// Materializes the grid and netlist, or a reason they can't be.
    /// For [`JobSource::Eco`] this yields the **base** layout (with
    /// the delta parsed and validated against it); the executor
    /// applies the delta after routing the base.
    pub fn materialize(&self) -> Result<(RoutingGrid, Netlist), String> {
        match self {
            JobSource::Inline { layout } => {
                sadp_grid::read_netlist(layout).map_err(|e| format!("parse error: {e}"))
            }
            JobSource::Spec { name, scale, seed } => {
                let spec = benchgen::BenchSpec::by_name(name)
                    .ok_or_else(|| format!("unknown circuit {name:?}"))?;
                // `BenchSpec::scaled` only shrinks a circuit.
                if !scale.is_finite() || *scale <= 0.0 || *scale > 1.0 {
                    return Err(format!("scale {scale} out of range (0, 1]"));
                }
                let spec = spec.scaled(*scale);
                Ok((spec.grid(), spec.generate(*seed)))
            }
            JobSource::Synthetic { nets, seed } => {
                if *nets == 0 || *nets > 2_000_000 {
                    return Err(format!("net count {nets} out of range [1, 2e6]"));
                }
                let spec = benchgen::BenchSpec::synthetic(*nets);
                Ok((spec.grid(), spec.generate(*seed)))
            }
            JobSource::Eco { base, delta } => {
                if matches!(**base, JobSource::Eco { .. }) {
                    return Err("nested eco sources are not supported".into());
                }
                let (grid, netlist) = base.materialize()?;
                let d =
                    sadp_grid::parse_delta(delta).map_err(|e| format!("delta parse error: {e}"))?;
                d.apply(&grid, &netlist)
                    .map_err(|e| format!("invalid delta: {e}"))?;
                Ok((grid, netlist))
            }
        }
    }

    /// The scale of a spec source (or of an eco base's spec) when it
    /// is not finite. JSON has no number for it, so the journal could
    /// not persist the request; `Service::submit` refuses it.
    pub(crate) fn non_finite_scale(&self) -> Option<f64> {
        match self {
            JobSource::Spec { scale, .. } if !scale.is_finite() => Some(*scale),
            JobSource::Eco { base, .. } => base.non_finite_scale(),
            _ => None,
        }
    }

    /// Canonical text used for [`RouteRequest::run_id`] derivation and
    /// the executor's layout-cache key.
    pub(crate) fn canonical(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            JobSource::Inline { layout } => {
                let _ = write!(out, "inline:{:016x}", fnv1a(layout.as_bytes()));
            }
            JobSource::Spec { name, scale, seed } => {
                let _ = write!(out, "spec:{name}:{scale}:{seed}");
            }
            JobSource::Synthetic { nets, seed } => {
                let _ = write!(out, "synthetic:{nets}:{seed}");
            }
            JobSource::Eco { base, delta } => {
                out.push_str("eco:");
                base.canonical(out);
                let _ = write!(out, ":{:016x}", fnv1a(delta.as_bytes()));
            }
        }
    }
}

/// Which arm of the paper flow to run (see `RouterConfig`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Plain SADP-aware routing.
    Baseline,
    /// Baseline + DVI cost assignment.
    Dvi,
    /// Baseline + via-layer TPL costs and removal.
    Tpl,
    /// Both considerations (the paper's headline arm).
    #[default]
    Full,
}

impl Arm {
    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::Dvi => "dvi",
            Arm::Tpl => "tpl",
            Arm::Full => "full",
        }
    }

    /// Parses [`Arm::name`] output.
    pub fn parse(s: &str) -> Option<Arm> {
        match s {
            "baseline" => Some(Arm::Baseline),
            "dvi" => Some(Arm::Dvi),
            "tpl" => Some(Arm::Tpl),
            "full" => Some(Arm::Full),
            _ => None,
        }
    }
}

/// Per-job resource limits, all optional. The deadline counts from the
/// moment a worker *starts* the job (queue time does not consume it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Wall-clock deadline in milliseconds; expiry yields a valid
    /// partial outcome tagged `deadline`, not an error.
    pub deadline_ms: Option<u64>,
    /// Iteration cap of each rip-up-and-reroute phase (congestion
    /// negotiation and TPL removal): [`RouteRequest::router_config`]
    /// sets both `RouterConfig` caps to it. Such a cap counts its
    /// phase's iterations over the whole run, so a capped job routes
    /// the same however the service slices it. `0` keeps the automatic
    /// cap; a cap above `sadp_router::flow::MAX_ITER_CAP` fails the
    /// job with kind `config`.
    pub max_phase_iters: Option<usize>,
    /// A* node-expansion cap for the whole job.
    pub max_expansions: Option<u64>,
}

impl JobBudget {
    /// No limits.
    pub fn unlimited() -> JobBudget {
        JobBudget::default()
    }

    /// The deadline and the expansion cap as a `RouteBudget`
    /// (deadline re-anchored by the worker at start time). The
    /// iteration cap is part of the router configuration instead.
    pub fn to_route_budget(&self) -> RouteBudget {
        let mut b = RouteBudget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_expansions {
            b = b.with_max_expansions(n);
        }
        b
    }
}

/// A complete, self-contained routing job description: everything a
/// worker needs to reproduce the run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRequest {
    /// Layout + netlist source.
    pub source: JobSource,
    /// SADP process variant.
    pub kind: SadpKind,
    /// Flow arm (which considerations are enabled).
    pub arm: Arm,
    /// Resource limits.
    pub budget: JobBudget,
    /// Scheduling band.
    pub priority: Priority,
}

impl RouteRequest {
    /// A full-arm, unlimited, normal-priority request for `source`.
    pub fn new(source: JobSource, kind: SadpKind) -> RouteRequest {
        RouteRequest {
            source,
            kind,
            arm: Arm::Full,
            budget: JobBudget::unlimited(),
            priority: Priority::Normal,
        }
    }

    /// The router configuration this request resolves to, with the
    /// job's [`JobBudget::max_phase_iters`] as both R&R iteration
    /// caps. A session reads no other setting, so the request fully
    /// determines the routing result.
    pub fn router_config(&self) -> Result<RouterConfig, ConfigError> {
        let (dvi, tpl) = match self.arm {
            Arm::Baseline => (false, false),
            Arm::Dvi => (true, false),
            Arm::Tpl => (false, true),
            Arm::Full => (true, true),
        };
        let cap = self.budget.max_phase_iters.unwrap_or(0);
        RouterConfig::builder(self.kind)
            .dvi(dvi)
            .tpl(tpl)
            .max_congestion_iters(cap)
            .max_tpl_iters(cap)
            .build()
    }

    /// The deterministic run identifier: an FNV-1a hash of the
    /// canonical request text. Identical requests — wherever and
    /// whenever submitted — share a `run_id`; any change to the
    /// source, arm, kind, budget, or priority changes it.
    pub fn run_id(&self) -> u64 {
        use std::fmt::Write as _;
        let mut c = String::new();
        self.source.canonical(&mut c);
        let _ = write!(
            c,
            "|{}|{}|{:?}:{:?}:{:?}|{}",
            self.kind,
            self.arm.name(),
            self.budget.deadline_ms,
            self.budget.max_phase_iters,
            self.budget.max_expansions,
            self.priority.name(),
        );
        fnv1a(c.as_bytes())
    }
}

/// One entry of a job's progress stream, bridged from the session's
/// `RouteObserver` phase spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// The job left the queue and a worker began executing it.
    Started,
    /// A flow phase began (first activation only; budget slicing
    /// re-activates phases without re-announcing them).
    PhaseStart {
        /// Stable phase name (`sadp_trace::Phase::name`).
        phase: &'static str,
    },
    /// A flow phase finished its work.
    PhaseEnd {
        /// Stable phase name.
        phase: &'static str,
    },
    /// A cancellation request was observed; the job winds down.
    Cancelling,
}

impl JobEvent {
    /// Stable wire encoding (`started`, `phase_start:<name>`, …).
    pub fn wire_name(&self) -> String {
        match self {
            JobEvent::Started => "started".into(),
            JobEvent::PhaseStart { phase } => format!("phase_start:{phase}"),
            JobEvent::PhaseEnd { phase } => format!("phase_end:{phase}"),
            JobEvent::Cancelling => "cancelling".into(),
        }
    }
}

/// Quality + cost summary of a (possibly partial) routing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSummary {
    /// Every net routed.
    pub routed_all: bool,
    /// Final solution is congestion-free.
    pub congestion_free: bool,
    /// No forbidden via pattern remains.
    pub fvp_free: bool,
    /// Via-layer decomposition graphs are 3-colorable.
    pub colorable: bool,
    /// How the run stopped (`Converged` or the budget stop reason).
    pub termination: Termination,
    /// Total wirelength.
    pub wirelength: u64,
    /// Total via count.
    pub vias: u64,
    /// Routed net count.
    pub nets: usize,
    /// The deterministic outcome fingerprint
    /// ([`outcome_fingerprint`]).
    pub fingerprint: u64,
}

/// How a job ended. Every submitted job resolves to exactly one of
/// these — the service never drops a job on the floor.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The flow produced an outcome (converged, or a budget-tagged
    /// partial one — check [`RouteSummary::termination`]).
    Completed {
        /// Quality + cost summary.
        summary: RouteSummary,
        /// The per-phase observability report of the run.
        report: Box<JsonReport>,
    },
    /// The job failed with a typed error; the daemon and its other
    /// jobs are unaffected.
    Failed {
        /// Stable error kind (`parse`, `invalid_grid`, `config`,
        /// `task_panicked`, `panic`, …).
        kind: String,
        /// Human-readable detail.
        error: String,
    },
    /// The job was cancelled (in queue or mid-phase) before it could
    /// produce an outcome.
    Cancelled,
}

impl JobOutcome {
    /// Stable wire name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// The terminal answer to a [`RouteRequest`].
#[derive(Debug, Clone)]
pub struct RouteResponse {
    /// The job this answers.
    pub job: JobId,
    /// The request's deterministic run identifier.
    pub run_id: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Events dropped from the (bounded) progress stream.
    pub dropped_events: usize,
}

/// The deterministic fingerprint of a routing outcome: FNV-1a over the
/// solution text, the four quality flags, the termination tag, and the
/// wirelength/via totals. Wall-clock fields are excluded, so reruns of
/// the same request — on any pool size, through any entry point —
/// fingerprint identically.
pub fn outcome_fingerprint(out: &RoutingOutcome) -> u64 {
    let mut text = write_solution(&out.solution);
    use std::fmt::Write as _;
    let _ = write!(
        text,
        "|{}{}{}{}|{}|{}:{}",
        out.routed_all as u8,
        out.congestion_free as u8,
        out.fvp_free as u8,
        out.colorable as u8,
        out.termination,
        out.stats.wirelength,
        out.stats.vias,
    );
    fnv1a(text.as_bytes())
}

/// Builds the summary of an outcome (fingerprint included).
pub fn summarize(out: &RoutingOutcome) -> RouteSummary {
    RouteSummary {
        routed_all: out.routed_all,
        congestion_free: out.congestion_free,
        fvp_free: out.fvp_free,
        colorable: out.colorable,
        termination: out.termination,
        wirelength: out.stats.wirelength,
        vias: out.stats.vias,
        nets: out.stats.nets,
        fingerprint: outcome_fingerprint(out),
    }
}

/// Maps a `RouteError` to its stable wire kind.
pub fn error_kind(e: &sadp_router::RouteError) -> &'static str {
    use sadp_router::RouteError as E;
    match e {
        E::Parse(_) => "parse",
        E::InvalidGrid { .. } => "invalid_grid",
        E::InvalidNetlist { .. } => "invalid_netlist",
        E::InvalidSolution { .. } => "invalid_solution",
        E::Config { .. } => "config",
        E::Budget { .. } => "budget",
        E::Solver { .. } => "solver",
        E::TaskPanicked { .. } => "task_panicked",
        E::Durability { .. } => "durability",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request() -> RouteRequest {
        RouteRequest::new(
            JobSource::Spec {
                name: "ecc".into(),
                scale: 0.02,
                seed: 7,
            },
            SadpKind::Sim,
        )
    }

    #[test]
    fn run_id_is_deterministic_and_sensitive() {
        let a = small_request();
        let b = small_request();
        assert_eq!(a.run_id(), b.run_id());
        let mut c = small_request();
        c.priority = Priority::Low;
        assert_ne!(a.run_id(), c.run_id());
        let mut d = small_request();
        d.budget.deadline_ms = Some(5);
        assert_ne!(a.run_id(), d.run_id());
    }

    #[test]
    fn sources_materialize_or_reject() {
        assert!(small_request().source.materialize().is_ok());
        let bad = JobSource::Spec {
            name: "nope".into(),
            scale: 1.0,
            seed: 0,
        };
        assert!(bad.materialize().is_err());
        let bad_scale = JobSource::Spec {
            name: "ecc".into(),
            scale: -1.0,
            seed: 0,
        };
        assert!(bad_scale.materialize().is_err());
        for scale in [1.0 + 1e-9, 2.0, 16.0] {
            let too_big = JobSource::Spec {
                name: "ecc".into(),
                scale,
                seed: 0,
            };
            let err = too_big.materialize().unwrap_err();
            assert!(err.contains("(0, 1]"), "{err}");
        }
        let synth = JobSource::Synthetic { nets: 16, seed: 1 };
        let (grid, nl) = synth.materialize().unwrap();
        assert_eq!(nl.len(), 16);
        assert!(grid.width() > 0);
        let inline = JobSource::Inline {
            layout: "not a layout".into(),
        };
        assert!(inline.materialize().is_err());
    }

    #[test]
    fn arm_and_priority_round_trip() {
        for arm in [Arm::Baseline, Arm::Dvi, Arm::Tpl, Arm::Full] {
            assert_eq!(Arm::parse(arm.name()), Some(arm));
        }
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        assert_eq!(Arm::parse("x"), None);
        assert_eq!(Priority::parse(""), None);
    }

    #[test]
    fn request_resolves_to_matching_config() {
        let mut req = small_request();
        req.arm = Arm::Full;
        let config = req.router_config().unwrap();
        assert!(config.consider_dvi && config.consider_tpl);
        req.arm = Arm::Baseline;
        let config = req.router_config().unwrap();
        assert!(!config.consider_dvi && !config.consider_tpl);
        assert_eq!((config.max_congestion_iters, config.max_tpl_iters), (0, 0));
        // The job's iteration cap is both configured R&R caps, not a
        // budget; a cap the builder refuses is a config error.
        req.budget.max_phase_iters = Some(3);
        let config = req.router_config().unwrap();
        assert_eq!((config.max_congestion_iters, config.max_tpl_iters), (3, 3));
        assert_eq!(req.budget.to_route_budget(), RouteBudget::unlimited());
        req.budget.max_phase_iters = Some(sadp_router::flow::MAX_ITER_CAP + 1);
        assert!(req.router_config().is_err());
    }
}
