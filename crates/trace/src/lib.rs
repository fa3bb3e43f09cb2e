//! # sadp-trace
//!
//! Phase-level observability for the SADP-aware routing flow. The
//! paper's evaluation (Tables III/IV CPU columns, the R&R iteration
//! behavior across the four arms of Fig. 8) is all *per-phase*
//! measurement; this crate provides the event vocabulary and sinks
//! that let the router, the DVI solvers, and the audits report those
//! measurements first-class instead of every caller re-deriving them
//! with external stopwatches.
//!
//! The design is a static callback interface, not a logging framework:
//!
//! * [`RouteObserver`] — the trait instrumented code calls into.
//!   Every method has an empty default body, and call sites take
//!   `&mut impl RouteObserver`, so the no-op sink monomorphizes to
//!   nothing (verified by the `bench_search` ns/connection gate
//!   against `BENCH_search.json`).
//! * [`Phase`] — the six phase-scoped spans of the flow: initial
//!   routing, congestion R&R, TPL-violation removal, coloring fix,
//!   DVI, and audits.
//! * [`Counter`] — per-iteration counter events inside a phase
//!   (reroutes, failures, cost deltas, FVP hits, dead-via counts, …).
//! * [`NoopObserver`] — the zero-overhead sink.
//! * [`EventLog`] — records the raw event sequence; the golden-trace
//!   tests assert on it.
//! * [`JsonReport`] — aggregates spans into a structured run report
//!   (per-phase wall clock, counter totals, log₂ value histograms,
//!   final quality flags) and serializes it to JSON with no external
//!   dependencies. Reports produced by parallel `sadp-exec` tasks
//!   merge deterministically in task-index order via
//!   [`merge_reports`].

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// The phase-scoped spans of the routing flow (paper Fig. 8 plus the
/// post-routing passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// First routing pass over every net (HPWL order).
    InitialRouting,
    /// Negotiated-congestion rip-up and reroute.
    CongestionNegotiation,
    /// Via-layer TPL violation removal R&R (Algorithm 2).
    TplViolationRemoval,
    /// Final 3-colorability check with R&R fallback.
    ColoringFix,
    /// Post-routing TPL-aware double via insertion (heuristic or ILP).
    Dvi,
    /// Solution audits (full audit, mask audit).
    Audit,
}

impl Phase {
    /// Every phase, in canonical flow order.
    pub const ALL: [Phase; 6] = [
        Phase::InitialRouting,
        Phase::CongestionNegotiation,
        Phase::TplViolationRemoval,
        Phase::ColoringFix,
        Phase::Dvi,
        Phase::Audit,
    ];

    /// Stable machine-readable name (the JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::InitialRouting => "initial_routing",
            Phase::CongestionNegotiation => "congestion_negotiation",
            Phase::TplViolationRemoval => "tpl_violation_removal",
            Phase::ColoringFix => "coloring_fix",
            Phase::Dvi => "dvi",
            Phase::Audit => "audit",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-iteration counter events emitted inside a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// One R&R iteration processed (a violation popped and acted on).
    Iterations,
    /// A net successfully ripped and rerouted.
    Reroutes,
    /// A reroute that failed (old route reinstalled).
    RerouteFailures,
    /// History / penalty cost added to the routing graph (cost units).
    CostDelta,
    /// A congestion violation processed.
    CongestionHits,
    /// An FVP violation processed.
    FvpHits,
    /// A net the initial pass could not route at all.
    FailedNets,
    /// One attempt of the coloring-fix loop.
    ColoringAttempts,
    /// Vias a coloring pass left uncolorable.
    UncolorableVias,
    /// Redundant vias inserted by DVI.
    InsertedVias,
    /// Single vias left dead (unprotected) after DVI.
    DeadVias,
    /// Shorts found by an audit.
    AuditShorts,
    /// FVP windows found by an audit.
    AuditFvpWindows,
    /// A phase stopped by a budget or iteration cap before it
    /// converged (see `sadp-router`'s `Termination`).
    BudgetStops,
    /// A speculative parallel R&R wave executed (intra-instance
    /// sharding; serial fallback steps count no wave).
    Waves,
    /// A speculative wave entry spilled to the serial fixup path
    /// (window escalation needed, or speculation invalidated).
    WaveSpills,
    /// Nets an ECO delta ripped for rerouting (the victim set).
    EcoVictims,
    /// Routed nets an ECO delta kept installed untouched.
    EcoReused,
}

impl Counter {
    /// Stable machine-readable name (the JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Iterations => "iterations",
            Counter::Reroutes => "reroutes",
            Counter::RerouteFailures => "reroute_failures",
            Counter::CostDelta => "cost_delta",
            Counter::CongestionHits => "congestion_hits",
            Counter::FvpHits => "fvp_hits",
            Counter::FailedNets => "failed_nets",
            Counter::ColoringAttempts => "coloring_attempts",
            Counter::UncolorableVias => "uncolorable_vias",
            Counter::InsertedVias => "inserted_vias",
            Counter::DeadVias => "dead_vias",
            Counter::AuditShorts => "audit_shorts",
            Counter::AuditFvpWindows => "audit_fvp_windows",
            Counter::BudgetStops => "budget_stops",
            Counter::Waves => "waves",
            Counter::WaveSpills => "wave_spills",
            Counter::EcoVictims => "eco_victims",
            Counter::EcoReused => "eco_reused",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The observer interface the routing flow, the DVI solvers, and the
/// audits report into.
///
/// All methods default to empty bodies; instrumented code takes
/// `&mut impl RouteObserver`, so a [`NoopObserver`] compiles away
/// entirely. Implementations must not assume phases nest — they are
/// sequential spans, though the same phase may open more than once
/// (e.g. one [`Phase::Dvi`] span per solver call).
pub trait RouteObserver {
    /// A phase span opens.
    fn phase_start(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// The most recently opened span of `phase` closes.
    fn phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// `value` is added to `counter` within `phase`. Emitted per
    /// iteration (values are deltas, not running totals).
    fn counter(&mut self, phase: Phase, counter: Counter, value: i64) {
        let _ = (phase, counter, value);
    }

    /// A free-form key/value annotation on the run (e.g. which DVI
    /// solver actually produced the result, or the termination
    /// reason). Later notes with the same key replace earlier ones.
    fn note(&mut self, key: &str, value: &str) {
        let _ = (key, value);
    }
}

/// The zero-overhead sink: every callback is the trait's empty
/// default, monomorphized away at the call sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl RouteObserver for NoopObserver {}

/// Forwarding through a mutable reference, so callers can pass
/// `&mut observer` without giving it up.
impl<T: RouteObserver + ?Sized> RouteObserver for &mut T {
    fn phase_start(&mut self, phase: Phase) {
        (**self).phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        (**self).phase_end(phase);
    }
    fn counter(&mut self, phase: Phase, counter: Counter, value: i64) {
        (**self).counter(phase, counter, value);
    }
    fn note(&mut self, key: &str, value: &str) {
        (**self).note(key, value);
    }
}

/// One raw observer event, as recorded by [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `phase_start(phase)`.
    PhaseStart(Phase),
    /// `phase_end(phase)`.
    PhaseEnd(Phase),
    /// `counter(phase, counter, value)`.
    Counter(Phase, Counter, i64),
}

/// Records the exact event sequence — the golden-trace sink used by
/// tests and debugging, with no timing attached.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Every recorded event, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The phases in the order their spans opened.
    pub fn phase_sequence(&self) -> Vec<Phase> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseStart(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// Sum of `counter` values recorded within `phase`.
    pub fn total(&self, phase: Phase, counter: Counter) -> i64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Counter(p, c, v) if *p == phase && *c == counter => *v,
                _ => 0,
            })
            .sum()
    }

    /// `true` when every `phase_start` has a matching later
    /// `phase_end` and spans close in LIFO order.
    pub fn balanced(&self) -> bool {
        let mut stack: Vec<Phase> = Vec::new();
        for e in &self.events {
            match e {
                TraceEvent::PhaseStart(p) => stack.push(*p),
                TraceEvent::PhaseEnd(p) => {
                    if stack.pop() != Some(*p) {
                        return false;
                    }
                }
                TraceEvent::Counter(..) => {}
            }
        }
        stack.is_empty()
    }
}

impl RouteObserver for EventLog {
    fn phase_start(&mut self, phase: Phase) {
        self.events.push(TraceEvent::PhaseStart(phase));
    }
    fn phase_end(&mut self, phase: Phase) {
        self.events.push(TraceEvent::PhaseEnd(phase));
    }
    fn counter(&mut self, phase: Phase, counter: Counter, value: i64) {
        self.events.push(TraceEvent::Counter(phase, counter, value));
    }
}

/// Number of log₂ histogram buckets ([`CounterAgg::histogram`]).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Aggregate of one counter within one phase span.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterAgg {
    /// Sum of event values.
    pub total: i64,
    /// Number of events.
    pub events: u64,
    /// Log₂ value histogram: bucket 0 counts events with value ≤ 1,
    /// bucket `i` counts values in `(2^(i-1), 2^i]`; the last bucket
    /// absorbs everything larger. Negative values land in bucket 0.
    pub histogram: [u64; HISTOGRAM_BUCKETS],
}

impl CounterAgg {
    fn record(&mut self, value: i64) {
        self.total += value;
        self.events += 1;
        let mag = value.max(0) as u64;
        let bucket = if mag <= 1 {
            0
        } else {
            (64 - (mag - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.histogram[bucket] += 1;
    }
}

/// One closed phase span of a [`JsonReport`].
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// The phase.
    pub phase: Phase,
    /// Wall clock between `phase_start` and `phase_end`.
    pub wall: Duration,
    /// Counter aggregates recorded while the span was open.
    pub counters: BTreeMap<Counter, CounterAgg>,
}

/// The JSON-report sink: aggregates phase spans, counters, and
/// caller-set quality flags / metrics into a machine-readable run
/// report.
///
/// One `JsonReport` describes one routing/DVI run (one "arm"). Runs
/// executed in parallel on the `sadp-exec` pool merge with
/// [`merge_reports`]: because the pool returns results in task-index
/// order, the merged document is byte-identical for any thread count
/// (the PR 2 determinism guarantee) — only the wall-clock numbers
/// inside each run differ between executions.
#[derive(Debug, Clone)]
pub struct JsonReport {
    label: String,
    run_id: u64,
    spans: Vec<PhaseSpan>,
    /// Indices into `spans` of the currently open spans (LIFO).
    open: Vec<(usize, Instant)>,
    flags: BTreeMap<String, bool>,
    metrics: BTreeMap<String, i64>,
    notes: BTreeMap<String, String>,
}

/// FNV-1a over a byte string — the deterministic (seed- and
/// content-derived, never wall-clock) hash behind [`JsonReport`] run
/// ids and outcome fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl JsonReport {
    /// An empty report labeled `label` (e.g. `"ecc/+both"`). The run
    /// id defaults to a hash of the label; callers running the same
    /// labeled work more than once (e.g. concurrent service jobs)
    /// should install a distinguishing id with
    /// [`JsonReport::set_run_id`] so [`merge_reports`] output stays
    /// attributable.
    pub fn new(label: impl Into<String>) -> JsonReport {
        let label = label.into();
        JsonReport {
            run_id: fnv1a(label.as_bytes()),
            label,
            spans: Vec::new(),
            open: Vec::new(),
            flags: BTreeMap::new(),
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    /// [`JsonReport::new`] with an explicit run id.
    pub fn with_run_id(label: impl Into<String>, run_id: u64) -> JsonReport {
        let mut r = JsonReport::new(label);
        r.run_id = run_id;
        r
    }

    /// The report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The stable run identifier (serialized as a 16-digit hex
    /// string). Deterministic: derived from the label, or whatever the
    /// caller seeded via [`JsonReport::set_run_id`] — never the clock.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Replaces the run id (see [`JsonReport::new`] on why concurrent
    /// same-label runs need distinct ids).
    pub fn set_run_id(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Every closed span, in open order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// The spans of one phase (a phase may open more than once).
    pub fn spans_of(&self, phase: Phase) -> impl Iterator<Item = &PhaseSpan> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Sum of all span wall clocks. Spans are sequential, so for a
    /// single run this is ≤ the run's total wall clock.
    pub fn span_total(&self) -> Duration {
        self.spans.iter().map(|s| s.wall).sum()
    }

    /// Total of `counter` across every span of `phase`.
    pub fn total(&self, phase: Phase, counter: Counter) -> i64 {
        self.spans_of(phase)
            .filter_map(|s| s.counters.get(&counter))
            .map(|agg| agg.total)
            .sum()
    }

    /// Sets a final quality flag (e.g. `"congestion_free"`).
    pub fn set_flag(&mut self, name: impl Into<String>, value: bool) {
        self.flags.insert(name.into(), value);
    }

    /// Sets a final scalar metric (e.g. `"wirelength"`).
    pub fn set_metric(&mut self, name: impl Into<String>, value: i64) {
        self.metrics.insert(name.into(), value);
    }

    /// Reads back a flag set with [`JsonReport::set_flag`].
    pub fn flag(&self, name: &str) -> Option<bool> {
        self.flags.get(name).copied()
    }

    /// Reads back a metric set with [`JsonReport::set_metric`].
    pub fn metric(&self, name: &str) -> Option<i64> {
        self.metrics.get(name).copied()
    }

    /// Sets a free-form annotation (also reachable through
    /// [`RouteObserver::note`]).
    pub fn set_note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.insert(key.into(), value.into());
    }

    /// Reads back a note set with [`JsonReport::set_note`] /
    /// [`RouteObserver::note`].
    pub fn note_value(&self, key: &str) -> Option<&str> {
        self.notes.get(key).map(String::as_str)
    }

    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        let p2 = " ".repeat(indent + 2);
        let p4 = " ".repeat(indent + 4);
        out.push_str(&format!("{pad}{{\n"));
        out.push_str(&format!("{p2}\"run\": \"{}\",\n", escape(&self.label)));
        out.push_str(&format!("{p2}\"run_id\": \"{:016x}\",\n", self.run_id));
        out.push_str(&format!(
            "{p2}\"span_total_ns\": {},\n",
            self.span_total().as_nanos()
        ));
        out.push_str(&format!("{p2}\"phases\": [\n"));
        for (i, span) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{p4}{{\"phase\": \"{}\", \"wall_ns\": {}",
                span.phase.name(),
                span.wall.as_nanos()
            ));
            if !span.counters.is_empty() {
                out.push_str(", \"counters\": {");
                let mut first = true;
                for (c, agg) in &span.counters {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let hist: Vec<String> = agg.histogram.iter().map(|b| b.to_string()).collect();
                    out.push_str(&format!(
                        "\"{}\": {{\"total\": {}, \"events\": {}, \"log2_histogram\": [{}]}}",
                        c.name(),
                        agg.total,
                        agg.events,
                        hist.join(", ")
                    ));
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!("{p2}],\n"));
        out.push_str(&format!("{p2}\"flags\": {{"));
        let mut first = true;
        for (name, v) in &self.flags {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": {}", escape(name), v));
        }
        out.push_str("},\n");
        out.push_str(&format!("{p2}\"metrics\": {{"));
        let mut first = true;
        for (name, v) in &self.metrics {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": {}", escape(name), v));
        }
        out.push_str("},\n");
        out.push_str(&format!("{p2}\"notes\": {{"));
        let mut first = true;
        for (name, v) in &self.notes {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": \"{}\"", escape(name), escape(v)));
        }
        out.push_str("}\n");
        out.push_str(&format!("{pad}}}"));
    }
}

impl RouteObserver for JsonReport {
    fn phase_start(&mut self, phase: Phase) {
        self.spans.push(PhaseSpan {
            phase,
            wall: Duration::ZERO,
            counters: BTreeMap::new(),
        });
        self.open.push((self.spans.len() - 1, Instant::now()));
    }

    fn phase_end(&mut self, phase: Phase) {
        // Close the innermost open span of this phase (LIFO); an
        // unmatched end is ignored.
        if let Some(pos) = self
            .open
            .iter()
            .rposition(|&(i, _)| self.spans[i].phase == phase)
        {
            let (i, t0) = self.open.remove(pos);
            self.spans[i].wall = t0.elapsed();
        }
    }

    fn note(&mut self, key: &str, value: &str) {
        self.set_note(key, value);
    }

    fn counter(&mut self, phase: Phase, counter: Counter, value: i64) {
        // Attribute to the innermost open span of the phase, or to a
        // fresh zero-duration span when the phase is not open (a
        // counter emitted outside a span still must not be lost).
        let idx = self
            .open
            .iter()
            .rev()
            .map(|&(i, _)| i)
            .find(|&i| self.spans[i].phase == phase);
        let i = match idx {
            Some(i) => i,
            None => {
                self.spans.push(PhaseSpan {
                    phase,
                    wall: Duration::ZERO,
                    counters: BTreeMap::new(),
                });
                self.spans.len() - 1
            }
        };
        self.spans[i]
            .counters
            .entry(counter)
            .or_default()
            .record(value);
    }
}

/// Merges per-task reports into one JSON document.
///
/// The caller passes reports in task-index order (what
/// `sadp_exec::map` returns); the document preserves that order, so
/// the merged structure is identical for any `SADP_EXEC_THREADS`.
pub fn merge_reports(title: &str, reports: &[JsonReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"report\": \"{}\",\n", escape(title)));
    out.push_str(&format!("  \"runs\": {},\n", reports.len()));
    out.push_str("  \"results\": [\n");
    for (i, r) in reports.iter().enumerate() {
        r.write_json(&mut out, 4);
        if i + 1 < reports.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escapes `s` as the inside of a JSON string literal: quote,
/// backslash, and control characters (`\n`, `\r`, `\t` by name, the
/// rest as `\u00XX`). The one escaper of the workspace; the service
/// wire protocol re-exports it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(obs: &mut impl RouteObserver) {
        obs.phase_start(Phase::InitialRouting);
        obs.counter(Phase::InitialRouting, Counter::FailedNets, 0);
        obs.phase_end(Phase::InitialRouting);
        obs.phase_start(Phase::CongestionNegotiation);
        for v in [1, 1, 3] {
            obs.counter(Phase::CongestionNegotiation, Counter::Reroutes, v);
        }
        obs.counter(Phase::CongestionNegotiation, Counter::RerouteFailures, 1);
        obs.phase_end(Phase::CongestionNegotiation);
    }

    #[test]
    fn noop_observer_accepts_everything() {
        drive(&mut NoopObserver);
    }

    #[test]
    fn event_log_records_sequence_and_totals() {
        let mut log = EventLog::new();
        drive(&mut log);
        assert_eq!(
            log.phase_sequence(),
            vec![Phase::InitialRouting, Phase::CongestionNegotiation]
        );
        assert!(log.balanced());
        assert_eq!(
            log.total(Phase::CongestionNegotiation, Counter::Reroutes),
            5
        );
        assert_eq!(
            log.total(Phase::CongestionNegotiation, Counter::RerouteFailures),
            1
        );
        assert_eq!(log.total(Phase::InitialRouting, Counter::Reroutes), 0);
    }

    #[test]
    fn escape_maps_quotes_backslashes_and_controls() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g é"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g é"
        );
    }

    #[test]
    fn unbalanced_log_detected() {
        let mut log = EventLog::new();
        log.phase_start(Phase::Dvi);
        assert!(!log.balanced());
        log.phase_end(Phase::Audit);
        assert!(!log.balanced());
    }

    #[test]
    fn json_report_aggregates_spans() {
        let mut rep = JsonReport::new("ecc/+both");
        drive(&mut rep);
        rep.set_flag("congestion_free", true);
        rep.set_metric("wirelength", 1234);
        assert_eq!(rep.spans().len(), 2);
        assert_eq!(
            rep.total(Phase::CongestionNegotiation, Counter::Reroutes),
            5
        );
        let agg = &rep.spans()[1].counters[&Counter::Reroutes];
        assert_eq!(agg.events, 3);
        // Values 1, 1 land in bucket 0; value 3 in bucket 2 ((2,4]).
        assert_eq!(agg.histogram[0], 2);
        assert_eq!(agg.histogram[2], 1);
        assert_eq!(rep.flag("congestion_free"), Some(true));
        assert_eq!(rep.metric("wirelength"), Some(1234));
        let json = rep.to_json();
        assert!(json.contains("\"run\": \"ecc/+both\""));
        assert!(json.contains("\"phase\": \"congestion_negotiation\""));
        assert!(json.contains("\"congestion_free\": true"));
        assert!(json.contains("\"wirelength\": 1234"));
    }

    #[test]
    fn notes_round_trip_and_serialize() {
        let mut rep = JsonReport::new("x");
        // Through the observer interface…
        RouteObserver::note(&mut rep, "dvi_solver", "ilp");
        // …and replaced by a later note with the same key.
        rep.set_note("dvi_solver", "heuristic");
        rep.set_note("termination", "deadline");
        assert_eq!(rep.note_value("dvi_solver"), Some("heuristic"));
        assert_eq!(rep.note_value("missing"), None);
        let json = rep.to_json();
        assert!(json
            .contains("\"notes\": {\"dvi_solver\": \"heuristic\", \"termination\": \"deadline\"}"));
        // Sinks without note support ignore them silently.
        RouteObserver::note(&mut NoopObserver, "k", "v");
        RouteObserver::note(&mut EventLog::new(), "k", "v");
    }

    #[test]
    fn counter_outside_open_span_is_kept() {
        let mut rep = JsonReport::new("x");
        rep.counter(Phase::Dvi, Counter::DeadVias, 7);
        assert_eq!(rep.total(Phase::Dvi, Counter::DeadVias), 7);
        assert_eq!(rep.spans().len(), 1);
        assert_eq!(rep.spans()[0].wall, Duration::ZERO);
    }

    #[test]
    fn repeated_phases_get_separate_spans() {
        let mut rep = JsonReport::new("x");
        for _ in 0..2 {
            rep.phase_start(Phase::Dvi);
            rep.counter(Phase::Dvi, Counter::InsertedVias, 4);
            rep.phase_end(Phase::Dvi);
        }
        assert_eq!(rep.spans_of(Phase::Dvi).count(), 2);
        assert_eq!(rep.total(Phase::Dvi, Counter::InsertedVias), 8);
    }

    #[test]
    fn span_total_sums_walls() {
        let mut rep = JsonReport::new("x");
        rep.phase_start(Phase::InitialRouting);
        std::thread::sleep(Duration::from_millis(2));
        rep.phase_end(Phase::InitialRouting);
        assert!(rep.span_total() >= Duration::from_millis(1));
    }

    #[test]
    fn merge_preserves_order_and_escapes() {
        let a = JsonReport::new("a\"1");
        let b = JsonReport::new("b");
        let doc = merge_reports("four-arms", &[a, b]);
        assert!(doc.contains("\"report\": \"four-arms\""));
        assert!(doc.contains("\"runs\": 2"));
        let ia = doc.find("a\\\"1").expect("escaped label a");
        let ib = doc.find("\"run\": \"b\"").expect("label b");
        assert!(ia < ib, "task order preserved");
    }

    #[test]
    fn run_ids_are_deterministic_and_serialized() {
        let a = JsonReport::new("ecc/+both");
        let b = JsonReport::new("ecc/+both");
        assert_eq!(a.run_id(), b.run_id(), "same label, same default id");
        assert_ne!(a.run_id(), JsonReport::new("efc/+both").run_id());
        let mut c = JsonReport::with_run_id("ecc/+both", 0xdead_beef);
        assert_eq!(c.run_id(), 0xdead_beef);
        c.set_run_id(7);
        assert_eq!(c.run_id(), 7);
        assert!(c.to_json().contains("\"run_id\": \"0000000000000007\""));
        // Two same-label jobs distinguished by seeded ids stay
        // attributable in a merged document.
        let doc = merge_reports(
            "svc",
            &[
                JsonReport::with_run_id("job", 1),
                JsonReport::with_run_id("job", 2),
            ],
        );
        let i1 = doc.find("0000000000000001").expect("id 1 present");
        let i2 = doc.find("0000000000000002").expect("id 2 present");
        assert!(i1 < i2, "task order preserved");
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn histogram_buckets_cover_large_values() {
        let mut agg = CounterAgg::default();
        agg.record(-5);
        agg.record(1);
        agg.record(2);
        agg.record(1 << 40);
        assert_eq!(agg.events, 4);
        assert_eq!(agg.histogram[0], 2); // -5 and 1
        assert_eq!(agg.histogram[1], 1); // 2
        assert_eq!(agg.histogram[HISTOGRAM_BUCKETS - 1], 1); // huge
    }
}
