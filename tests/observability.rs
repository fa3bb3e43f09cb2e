//! Observability-layer tests: the golden event sequence a staged run
//! must emit, counter/stat agreement between sinks, span-timing sanity,
//! and the guarantee that attaching an observer never perturbs routing.

use proptest::prelude::*;

use sadp_dvi::grid::write_solution;
use sadp_dvi::prelude::*;

fn spec() -> BenchSpec {
    BenchSpec::paper_suite()[0].scaled(0.03)
}

/// A tiny, fully deterministic circuit: the golden tests pin exact
/// event sequences on it, so it must stay fixed.
fn small_case() -> (RoutingGrid, Netlist) {
    let grid = RoutingGrid::three_layer(24, 24);
    let mut nl = Netlist::new();
    nl.push(Net::new("a", vec![Pin::new(3, 3), Pin::new(19, 3)]));
    nl.push(Net::new("b", vec![Pin::new(3, 7), Pin::new(19, 11)]));
    nl.push(Net::new(
        "c",
        vec![Pin::new(7, 15), Pin::new(15, 5), Pin::new(11, 19)],
    ));
    nl.push(Net::new("d", vec![Pin::new(5, 11), Pin::new(17, 17)]));
    (grid, nl)
}

// ---------------------------------------------------------------------------
// Golden event sequence
// ---------------------------------------------------------------------------

#[test]
fn full_arm_emits_the_golden_phase_sequence() {
    let (grid, nl) = small_case();
    let mut log = EventLog::new();
    let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut log)
        .expect("routing flow");
    assert!(out.routed_all && out.congestion_free && out.colorable);
    assert!(log.balanced(), "every phase_start has a matching phase_end");
    assert_eq!(
        log.phase_sequence(),
        vec![
            Phase::InitialRouting,
            Phase::CongestionNegotiation,
            Phase::TplViolationRemoval,
            Phase::ColoringFix,
            Phase::Audit,
        ],
    );
}

#[test]
fn baseline_arm_emits_no_tpl_phase() {
    let (grid, nl) = small_case();
    let mut log = EventLog::new();
    let out = RoutingSession::new(&grid, &nl, RouterConfig::baseline(SadpKind::Sim))
        .try_finish(&mut log)
        .expect("routing flow");
    assert!(out.routed_all);
    assert!(log.balanced());
    // Baseline still *reports* colorability (ColoringFix span) but never
    // runs the TPL-violation-removal R&R.
    assert_eq!(
        log.phase_sequence(),
        vec![
            Phase::InitialRouting,
            Phase::CongestionNegotiation,
            Phase::ColoringFix,
            Phase::Audit,
        ],
    );
}

#[test]
fn golden_counter_totals_match_outcome_stats() {
    let (grid, nl) = small_case();
    let mut log = EventLog::new();
    let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut log)
        .expect("routing flow");

    // Counter totals and RnrStats are two views of the same run.
    for (phase, stats) in [
        (Phase::CongestionNegotiation, &out.congestion_stats),
        (Phase::TplViolationRemoval, &out.tpl_stats),
    ] {
        assert_eq!(
            log.total(phase, Counter::Iterations),
            stats.iterations as i64
        );
        assert_eq!(log.total(phase, Counter::Reroutes), stats.reroutes as i64);
        assert_eq!(
            log.total(phase, Counter::RerouteFailures),
            stats.failures as i64
        );
        // Every iteration either reroutes or fails — nothing else.
        assert_eq!(
            log.total(phase, Counter::Iterations),
            log.total(phase, Counter::Reroutes) + log.total(phase, Counter::RerouteFailures)
        );
    }
    // A clean run never leaves failed nets or uncolorable vias behind.
    assert_eq!(log.total(Phase::InitialRouting, Counter::FailedNets), 0);
    assert_eq!(log.total(Phase::Audit, Counter::AuditShorts), 0);
    assert_eq!(log.total(Phase::Audit, Counter::AuditFvpWindows), 0);
}

#[test]
fn golden_sequence_is_reproducible() {
    // Same inputs → byte-identical event streams (no timing leakage in
    // the logical part of the log).
    let (grid, nl) = small_case();
    let run = || {
        let mut log = EventLog::new();
        RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sid))
            .try_finish(&mut log)
            .expect("routing flow");
        log.events().to_vec()
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------------
// JsonReport sink
// ---------------------------------------------------------------------------

#[test]
fn report_spans_cover_all_phases_once() {
    let (grid, nl) = small_case();
    let mut report = JsonReport::new("golden/full");
    let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut report)
        .expect("routing flow");
    out.record_into(&mut report);
    for phase in [
        Phase::InitialRouting,
        Phase::CongestionNegotiation,
        Phase::TplViolationRemoval,
        Phase::ColoringFix,
        Phase::Audit,
    ] {
        assert_eq!(report.spans_of(phase).count(), 1, "{phase}");
    }
    assert_eq!(report.flag("routed_all"), Some(true));
    assert_eq!(report.flag("congestion_free"), Some(true));
    assert_eq!(report.metric("routed_nets"), Some(nl.len() as i64));
    // The report serializes and mentions every phase it spans.
    let json = report.to_json();
    for span in report.spans() {
        assert!(json.contains(span.phase.name()), "{}", span.phase);
    }
}

#[test]
fn span_durations_sum_within_total_runtime() {
    // Phase spans nest inside the session's wall clock, so their sum
    // can never exceed `RoutingOutcome::runtime`.
    let netlist = spec().generate(9);
    let grid = spec().grid();
    let mut report = JsonReport::new("timing");
    let out = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut report)
        .expect("routing flow");
    assert!(
        report.span_total() <= out.runtime,
        "span sum {:?} exceeds runtime {:?}",
        report.span_total(),
        out.runtime
    );
}

#[test]
fn report_and_log_agree_on_counter_totals() {
    let (grid, nl) = small_case();
    let config = RouterConfig::full(SadpKind::Sim);
    let mut log = EventLog::new();
    RoutingSession::new(&grid, &nl, config)
        .try_finish(&mut log)
        .expect("routing flow");
    let mut report = JsonReport::new("agree");
    RoutingSession::new(&grid, &nl, config)
        .try_finish(&mut report)
        .expect("routing flow");
    for phase in Phase::ALL {
        for counter in [
            Counter::Iterations,
            Counter::Reroutes,
            Counter::RerouteFailures,
            Counter::CongestionHits,
            Counter::FvpHits,
            Counter::ColoringAttempts,
            Counter::FailedNets,
        ] {
            assert_eq!(
                report.total(phase, counter),
                log.total(phase, counter),
                "{phase}/{counter}"
            );
        }
    }
}

#[test]
fn dvi_spans_attach_to_the_same_report() {
    let (grid, nl) = small_case();
    let mut report = JsonReport::new("with-dvi");
    let out = RoutingSession::new(&grid, &nl, RouterConfig::full(SadpKind::Sim))
        .try_finish(&mut report)
        .expect("routing flow");
    let problem = DviProblem::build(SadpKind::Sim, &out.solution);
    let dvi = solve_heuristic_observed(&problem, &DviParams::default(), &mut report);
    assert_eq!(report.spans_of(Phase::Dvi).count(), 1);
    assert_eq!(
        report.total(Phase::Dvi, Counter::InsertedVias),
        dvi.inserted_count() as i64
    );
    assert_eq!(
        report.total(Phase::Dvi, Counter::DeadVias),
        dvi.dead_via_count as i64
    );
    assert_eq!(report.total(Phase::Dvi, Counter::UncolorableVias), 0);
}

// ---------------------------------------------------------------------------
// Observers must not perturb routing
// ---------------------------------------------------------------------------

/// Strategy: small random netlists with spaced pins (same shape as
/// tests/properties.rs).
fn arb_netlist(grid: i32) -> impl Strategy<Value = Netlist> {
    proptest::collection::vec((2..grid - 2, 2..grid - 2), 4..14).prop_map(move |raw| {
        let mut pins: Vec<(i32, i32)> = Vec::new();
        for (x, y) in raw {
            if pins
                .iter()
                .all(|&(px, py)| (px - x).abs().max((py - y).abs()) >= 3)
            {
                pins.push((x, y));
            }
        }
        let mut nl = Netlist::new();
        for pair in pins.chunks(2) {
            if let [a, b] = pair {
                nl.push(Net::new(
                    format!("n{}", nl.len()),
                    vec![Pin::new(a.0, a.1), Pin::new(b.0, b.1)],
                ));
            }
        }
        if nl.is_empty() {
            nl.push(Net::new("fallback", vec![Pin::new(2, 2), Pin::new(8, 8)]));
        }
        nl
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Attaching any sink (no-op, event log, JSON report) yields a
    /// byte-identical solution: observation is strictly read-only.
    #[test]
    fn observers_never_change_the_solution(nl in arb_netlist(26), sim in any::<bool>()) {
        let kind = if sim { SadpKind::Sim } else { SadpKind::Sid };
        let grid = RoutingGrid::three_layer(26, 26);
        let config = RouterConfig::full(kind);
        let quiet =
            RoutingSession::new(&grid, &nl, config).try_finish(&mut NoopObserver).expect("routing flow");
        let mut report = JsonReport::new("prop");
        let reported = RoutingSession::new(&grid, &nl, config).try_finish(&mut report).expect("routing flow");
        let mut log = EventLog::new();
        let logged = RoutingSession::new(&grid, &nl, config).try_finish(&mut log).expect("routing flow");
        prop_assert_eq!(quiet.stats, reported.stats);
        let baseline_text = write_solution(&quiet.solution);
        prop_assert_eq!(&baseline_text, &write_solution(&reported.solution));
        prop_assert_eq!(&baseline_text, &write_solution(&logged.solution));
    }

    /// Span durations always sum within the outcome's total runtime,
    /// whatever the netlist and arm.
    #[test]
    fn span_total_bounded_by_runtime(nl in arb_netlist(26), full in any::<bool>()) {
        let grid = RoutingGrid::three_layer(26, 26);
        let config = if full {
            RouterConfig::full(SadpKind::Sim)
        } else {
            RouterConfig::baseline(SadpKind::Sim)
        };
        let mut report = JsonReport::new("prop-timing");
        let out = RoutingSession::new(&grid, &nl, config).try_finish(&mut report).expect("routing flow");
        prop_assert!(report.span_total() <= out.runtime);
    }
}
