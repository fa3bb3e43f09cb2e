//! Property tests of the execution layer's determinism contract and
//! of the `RoutingOutcome` quality flags.
//!
//! Two invariants, checked on randomly scaled/seeded generator
//! instances of the paper circuits:
//!
//! 1. The full routing flow produces *identical* outcomes (routes,
//!    stats, quality flags, and the routing counters of the three R&R
//!    phases) whether the execution pool runs with one thread or four
//!    — the pool's task-index merge rule at work.
//! 2. `congestion_free` is consistent with the final solution: when
//!    the flag is set, the installed routes share no metal points.

use benchgen::BenchSpec;
use proptest::prelude::*;
use sadp_grid::{NetId, RoutedNet, SadpKind};
use sadp_router::{Router, RouterConfig, RoutingOutcome};
use sadp_trace::{Counter, EventLog, Phase, RouteObserver};

/// Everything deterministic about an outcome (runtimes excluded).
fn fingerprint(out: &RoutingOutcome) -> (Vec<(NetId, RoutedNet)>, [bool; 4], u64, u64) {
    let routes: Vec<(NetId, RoutedNet)> =
        out.solution.iter().map(|(id, r)| (id, r.clone())).collect();
    (
        routes,
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

/// The seven routing counters of the three R&R phases, as an
/// `EventLog` totals them (counter-major).
fn rnr_counters(log: &EventLog) -> [[i64; 3]; 7] {
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
}

fn route(
    spec: &BenchSpec,
    seed: u64,
    kind: SadpKind,
    obs: &mut impl RouteObserver,
) -> RoutingOutcome {
    Router::new(spec.grid(), spec.generate(seed), RouterConfig::full(kind))
        .try_run(obs)
        .expect("full flow")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serial (1 thread) and parallel (4 threads) runs of the complete
    /// flow — routing, TPL R&R, audits, DVI candidate generation — are
    /// byte-identical, and so are their R&R counter totals.
    #[test]
    fn outcome_is_identical_for_any_thread_count(
        circuit in 0usize..6,
        seed in 0u64..1000,
    ) {
        let spec = BenchSpec::paper_suite()[circuit].scaled(0.02);
        let run = |threads: usize| {
            sadp_exec::with_threads(threads, || {
                let mut log = EventLog::new();
                let out = route(&spec, seed, SadpKind::Sim, &mut log);
                (fingerprint(&out), rnr_counters(&log))
            })
        };
        let (serial, serial_counters) = run(1);
        let (parallel, parallel_counters) = run(4);
        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(serial_counters, parallel_counters);
    }

    /// The `congestion_free` flag never misreports: when set, the
    /// final installed routes share no metal point (no shorts), for
    /// both SADP process variants.
    #[test]
    fn congestion_free_flag_is_consistent_with_solution(
        circuit in 0usize..6,
        seed in 0u64..1000,
    ) {
        let spec = BenchSpec::paper_suite()[circuit].scaled(0.02);
        for kind in [SadpKind::Sim, SadpKind::Sid] {
            let out = route(&spec, seed, kind, &mut sadp_trace::NoopObserver);
            if out.congestion_free {
                prop_assert!(
                    out.solution.shorts().is_empty(),
                    "{} ({kind}): congestion_free set but solution has shorts",
                    spec.name
                );
            }
        }
    }
}
