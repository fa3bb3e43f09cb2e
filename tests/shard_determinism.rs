//! Determinism contract of the intra-instance sharded R&R scheduler.
//!
//! The sharded scheduler speculates searches in parallel but commits
//! them in the serial order, so the routing outcome must be
//! **byte-identical** to the single-threaded run for any thread count,
//! any region size, and any budget interruption point. These tests pin
//! that contract on a generated paper-suite instance; the committed
//! `BENCH_matrix.json` fingerprints pin it on the full circuit×arm
//! matrix.

use sadp_dvi::prelude::*;

/// A small-but-congested generated instance (the same generator the
/// bench matrix uses).
fn instance() -> (RoutingGrid, Netlist) {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    (spec.grid(), spec.generate(1))
}

fn run_arm(
    grid: &RoutingGrid,
    netlist: &Netlist,
    config: RouterConfig,
    threads: usize,
) -> RoutingOutcome {
    sadp_exec::with_threads(threads, || {
        RoutingSession::new(grid, netlist, config)
            .try_finish(&mut NoopObserver)
            .expect("routing flow")
    })
}

fn assert_same_outcome(a: &RoutingOutcome, b: &RoutingOutcome, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(a.routed_all, b.routed_all, "{what}: routed_all diverged");
    assert_eq!(
        a.congestion_free, b.congestion_free,
        "{what}: congestion_free diverged"
    );
    assert_eq!(a.fvp_free, b.fvp_free, "{what}: fvp_free diverged");
    assert_eq!(a.colorable, b.colorable, "{what}: colorable diverged");
    assert_eq!(
        a.solution.routed_count(),
        b.solution.routed_count(),
        "{what}: route count diverged"
    );
    for (id, route) in a.solution.iter() {
        assert_eq!(
            Some(route),
            b.solution.route(id),
            "{what}: route of {id:?} diverged"
        );
    }
}

#[test]
fn sharded_outcomes_are_identical_across_threads_and_regions() {
    let (grid, netlist) = instance();
    for config in [
        RouterConfig::baseline(SadpKind::Sim),
        RouterConfig::full(SadpKind::Sim),
    ] {
        let serial = run_arm(&grid, &netlist, config, 1);
        assert!(serial.routed_all, "fixture must route fully");
        for threads in [2, 4, 8] {
            for region in [4, 16, 64] {
                let config = RouterConfig {
                    shard: ShardParams { region },
                    ..config
                };
                let sharded = run_arm(&grid, &netlist, config, threads);
                assert_same_outcome(
                    &serial,
                    &sharded,
                    &format!("threads={threads} region={region}"),
                );
            }
        }
    }
}

#[test]
fn sharded_counter_totals_match_serial() {
    // The seven routing counters are part of the serial schedule and
    // must match exactly; only the wave meta-counters may differ with
    // the thread count.
    let (grid, netlist) = instance();
    let config = RouterConfig::full(SadpKind::Sim);
    let totals = |threads: usize| {
        sadp_exec::with_threads(threads, || {
            let mut log = EventLog::new();
            RoutingSession::new(&grid, &netlist, config)
                .try_finish(&mut log)
                .expect("routing flow");
            [
                Counter::Iterations,
                Counter::Reroutes,
                Counter::RerouteFailures,
                Counter::CongestionHits,
                Counter::CostDelta,
                Counter::FailedNets,
                Counter::BudgetStops,
            ]
            .map(|c| {
                [
                    Phase::InitialRouting,
                    Phase::CongestionNegotiation,
                    Phase::TplViolationRemoval,
                ]
                .map(|p| log.total(p, c))
            })
        })
    };
    assert_eq!(totals(1), totals(4));
}

#[test]
fn budget_interrupted_sharded_run_resumes_to_the_serial_outcome() {
    let (grid, netlist) = instance();
    let config = RouterConfig::full(SadpKind::Sim);
    let serial = run_arm(&grid, &netlist, config, 1);

    for threads in [2, 4] {
        let resumed = sadp_exec::with_threads(threads, || {
            let mut session = RoutingSession::new(&grid, &netlist, config);
            // Drip-feed the phases a few iterations at a time; every
            // budget stop lands mid-phase and must roll the in-flight
            // wave back to an exact serial state before resuming.
            let mut slices = 0;
            loop {
                session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
                session.ensure_colorable(&mut NoopObserver);
                slices += 1;
                if session.converged() {
                    break;
                }
                assert!(slices < 10_000, "resumption must make progress");
            }
            assert!(slices > 2, "the cap must actually interrupt the run");
            session.set_budget(RouteBudget::unlimited());
            session.try_finish(&mut NoopObserver).expect("routing flow")
        });
        assert_same_outcome(&serial, &resumed, &format!("resumed threads={threads}"));
    }
}
