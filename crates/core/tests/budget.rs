//! Integration tests of the session resource budget: exhaustion must
//! yield a valid, tagged partial outcome, and a resumed session (fresh
//! budget, same session value) must continue where it stopped —
//! reaching the exact final state an unbudgeted run produces.

use std::time::Duration;

use benchgen::BenchSpec;
use sadp_grid::{write_solution, SadpKind};
use sadp_router::{RouteBudget, RouterConfig, RoutingOutcome, RoutingSession, Termination};
use sadp_trace::{EventLog, JsonReport, NoopObserver, Phase, RouteObserver};

fn fingerprint(out: &RoutingOutcome) -> (String, [bool; 4], u64, u64) {
    (
        write_solution(&out.solution),
        [
            out.routed_all,
            out.congestion_free,
            out.fvp_free,
            out.colorable,
        ],
        out.stats.wirelength,
        out.stats.vias,
    )
}

/// Drives every phase as far as the active budget allows.
fn step(session: &mut RoutingSession, obs: &mut impl RouteObserver) {
    session.initial_route(obs);
    session.negotiate(obs);
    session.tpl_removal(obs);
    session.ensure_colorable(obs);
}

#[test]
fn iteration_capped_session_resumes_to_the_unbudgeted_fingerprint() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(7));
    let config = RouterConfig::full(SadpKind::Sim);

    let unbudgeted = RoutingSession::new(&grid, &netlist, config)
        .try_finish(&mut NoopObserver)
        .expect("routing flow");

    // Interleave no-progress deadline stops (the budget expired before
    // the activation could run an iteration) with tiny iteration-cap
    // slices. Deadline and iteration-cap stops both land *between*
    // iterations, so the resumed session walks the identical sequence.
    let mut session = RoutingSession::new(&grid, &netlist, config);
    let mut obs = NoopObserver;
    let mut activations = 0usize;
    while !session.converged() {
        session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
        step(&mut session, &mut obs);
        assert!(
            session.converged() || session.termination() == Termination::Deadline,
            "zero deadline must stop with a Deadline tag, got {}",
            session.termination()
        );
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
        step(&mut session, &mut obs);
        activations += 1;
        assert!(activations < 100_000, "resumed session makes no progress");
    }
    assert!(
        activations > 1,
        "instance too small to exercise budget stops"
    );
    session.set_budget(RouteBudget::unlimited());
    let resumed = session.try_finish(&mut obs).expect("routing flow");

    assert_eq!(resumed.termination, Termination::Converged);
    assert_eq!(fingerprint(&resumed), fingerprint(&unbudgeted));
}

#[test]
fn iteration_cap_is_reported_while_unconverged() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(1));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_max_phase_iters(1));
    let mut obs = NoopObserver;
    step(&mut session, &mut obs);
    // One iteration routes one net; the suite circuit has many.
    assert!(!session.converged());
    assert_eq!(session.termination(), Termination::IterationCap);
}

#[test]
fn zero_deadline_outcome_is_valid_and_tagged() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(1));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
    let out = session.try_finish(&mut NoopObserver).expect("routing flow");
    assert_eq!(out.termination, Termination::Deadline);
    assert!(!out.routed_all, "nothing could have been routed");
    // The partial outcome still records into a report, flagged
    // unconverged with its stop reason.
    let mut report = JsonReport::new("budget");
    out.record_into(&mut report);
    assert_eq!(report.flag("converged"), Some(false));
    assert_eq!(report.note_value("termination"), Some("deadline"));
}

#[test]
fn expansion_capped_session_resumes_to_completion() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(3));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_max_expansions(1));
    let mut obs = NoopObserver;
    step(&mut session, &mut obs);
    assert!(!session.converged());
    assert_eq!(session.termination(), Termination::ExpansionCap);
    session.set_budget(RouteBudget::unlimited());
    let out = session.try_finish(&mut obs).expect("routing flow");
    assert_eq!(out.termination, Termination::Converged);
    assert!(out.routed_all);
}

/// A configured iteration cap ends a phase and counts the phase's
/// iterations over all its activations; a budget only pauses it. A
/// capped run driven through the four phase calls in budget slices,
/// larger or smaller than the cap, ends where `try_finish` ends, cap
/// stop included, and never re-runs the capped phase once the later
/// phases are done.
#[test]
fn capped_phase_is_done_under_budget_slices() {
    let spec = BenchSpec::by_name("ecc")
        .expect("paper circuit")
        .scaled(0.25);
    let (grid, netlist) = (spec.grid(), spec.generate(1));
    // (cap, slice, wirelength, vias) of the capped run.
    for (cap, slice, wirelength, vias) in
        [(1, 16, 7983, 1889), (3, 2, 7981, 1887), (4, 3, 7980, 1885)]
    {
        let config = RouterConfig::builder(SadpKind::Sim)
            .dvi(true)
            .tpl(true)
            .max_congestion_iters(cap)
            .build()
            .expect("valid config");

        let mut session = RoutingSession::new(&grid, &netlist, config);
        let negotiated = session.negotiate(&mut NoopObserver);
        let unsliced = session.try_finish(&mut NoopObserver).expect("routing flow");
        assert_eq!(
            unsliced.termination,
            Termination::IterationCap,
            "cap {cap}: negotiation must need more than the capped iterations"
        );
        assert_eq!(unsliced.congestion_stats.iterations, cap);
        assert_eq!(
            (unsliced.stats.wirelength, unsliced.stats.vias),
            (wirelength, vias)
        );

        let mut session = RoutingSession::new(&grid, &netlist, config);
        let mut log = EventLog::new();
        let mut slices = 0usize;
        while !session.converged() {
            session.set_budget(RouteBudget::unlimited().with_max_phase_iters(slice));
            step(&mut session, &mut log);
            slices += 1;
            assert!(slices < 100_000, "sliced session makes no progress");
        }
        let activations = log
            .phase_sequence()
            .into_iter()
            .filter(|&p| p == Phase::CongestionNegotiation)
            .count();
        assert_eq!(
            activations,
            cap.div_ceil(slice),
            "cap {cap}, slice {slice}: the capped phase ran again"
        );

        let mut quiet = EventLog::new();
        assert_eq!(session.negotiate(&mut quiet), negotiated);
        assert!(quiet.events().is_empty(), "a done phase opened a span");

        let sliced = session.try_finish(&mut NoopObserver).expect("routing flow");
        assert_eq!(sliced.termination, unsliced.termination);
        assert_eq!(sliced.congestion_stats, unsliced.congestion_stats);
        assert_eq!(fingerprint(&sliced), fingerprint(&unsliced));
    }
}
