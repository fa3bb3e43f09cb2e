//! Chaos suite: deterministic fault injection against the full
//! routing flow.
//!
//! The resilience contract under test: **any** combination of armed
//! failpoints and resource budgets (including a zero budget) yields
//! either `Ok(outcome)` — possibly partial, tagged with its
//! [`Termination`] reason — or a typed [`RouteError`]. Never a panic,
//! never a hang.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex; within a test the plan is seeded and therefore the whole
//! suite is deterministic.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faultinject::FaultSpec;
use sadp_dvi::prelude::*;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock poisons it; the data
    // is `()`, so the poison carries no hazard.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The four experiment arms of the paper's tables.
fn arms(kind: SadpKind) -> [RouterConfig; 4] {
    [
        RouterConfig::baseline(kind),
        RouterConfig::with_dvi(kind),
        RouterConfig::with_tpl(kind),
        RouterConfig::full(kind),
    ]
}

fn tiny_instance() -> (RoutingGrid, Netlist) {
    let spec = BenchSpec::paper_suite()[0].scaled(0.01);
    (spec.grid(), spec.generate(1))
}

/// Runs one session to the end under whatever faults are armed and
/// asserts the resilience contract.
fn assert_contract(grid: &RoutingGrid, netlist: &Netlist, config: RouterConfig) {
    let session = RoutingSession::try_new(grid, netlist, config).expect("inputs are valid");
    match session.try_finish(&mut NoopObserver) {
        Ok(outcome) => {
            // A partial outcome must still be internally consistent.
            outcome
                .solution
                .validate()
                .expect("outcome solution is well-formed");
        }
        Err(RouteError::TaskPanicked { .. }) | Err(RouteError::Solver { .. }) => {}
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

#[test]
fn worker_panics_never_escape_any_arm() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    for kind in [SadpKind::Sim, SadpKind::Sid] {
        for config in arms(kind) {
            for p in [0.5, 1.0] {
                let _f = faultinject::arm(42, FaultSpec::new().point("exec.task_panic", p));
                assert_contract(&grid, &netlist, config);
            }
        }
    }
}

#[test]
fn slow_phases_respect_the_deadline() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let _f = faultinject::arm(
        7,
        FaultSpec::new()
            .point("core.slow_phase", 1.0)
            .delay(Duration::from_millis(30)),
    );
    let start = Instant::now();
    let mut session = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .expect("inputs are valid");
    session.set_budget(RouteBudget::unlimited().with_deadline(Duration::from_millis(1)));
    let out = session
        .try_finish(&mut NoopObserver)
        .expect("no worker faults armed");
    // The injected delay outlives the deadline before the first
    // routing iteration: a valid partial outcome, tagged.
    assert_eq!(out.termination, Termination::Deadline);
    assert!(!out.routed_all);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "budgeted run must stay bounded"
    );
}

#[test]
fn zero_budget_yields_tagged_partial_outcomes_everywhere() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    for kind in [SadpKind::Sim, SadpKind::Sid] {
        for config in arms(kind) {
            let mut session =
                RoutingSession::try_new(&grid, &netlist, config).expect("inputs are valid");
            session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
            let out = session
                .try_finish(&mut NoopObserver)
                .expect("no faults armed");
            assert_eq!(out.termination, Termination::Deadline);
            assert!(!out.routed_all);
        }
    }
}

#[test]
fn dvi_solver_abort_degrades_to_the_heuristic() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let outcome = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .expect("inputs are valid")
        .try_finish(&mut NoopObserver)
        .expect("routing succeeds without faults");
    let problem =
        DviProblem::try_build(SadpKind::Sim, &outcome.solution).expect("solution is valid");
    let _f = faultinject::arm(3, FaultSpec::new().point("dvi.solver_abort", 1.0));
    for solver in [DviSolver::Ilp, DviSolver::IlpLazy] {
        let options = ResilientDviOptions {
            solver,
            ..ResilientDviOptions::default()
        };
        let r = solve_resilient(&problem, &options, &mut NoopObserver)
            .expect("the heuristic fallback must produce a result");
        assert_eq!(r.solver_used, DviSolver::Heuristic);
        assert!(r.degraded());
    }
}

#[test]
fn all_failpoints_at_once_hold_the_contract() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let start = Instant::now();
    for seed in [1u64, 2, 3] {
        let _f = faultinject::arm(
            seed,
            FaultSpec::new()
                .point("exec.task_panic", 0.3)
                .point("core.slow_phase", 0.5)
                .point("dvi.solver_abort", 1.0)
                .delay(Duration::from_millis(5)),
        );
        for kind in [SadpKind::Sim, SadpKind::Sid] {
            for config in arms(kind) {
                assert_contract(&grid, &netlist, config);
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "chaos matrix must stay bounded"
    );
}
