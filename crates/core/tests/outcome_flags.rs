//! Property test of the `RoutingOutcome` quality flags on randomly
//! scaled/seeded generator instances of the paper circuits:
//! `congestion_free` is consistent with the final solution — when the
//! flag is set, the installed routes share no metal points.

use benchgen::BenchSpec;
use proptest::prelude::*;
use sadp_grid::SadpKind;
use sadp_router::{Router, RouterConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

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
            let out = Router::new(spec.grid(), spec.generate(seed), RouterConfig::full(kind))
                .try_run(&mut sadp_trace::NoopObserver)
                .expect("full flow");
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
