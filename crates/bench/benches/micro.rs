//! Criterion micro-benchmarks over the suite's hot kernels: the FVP
//! classifier and incremental index, conflict-graph construction and
//! coloring, the branch-and-bound ILP, the DVI heuristic, single-net
//! routing, and the full flow on a tiny circuit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use benchgen::BenchSpec;
use dvi::{solve_heuristic, solve_ilp_lazy, DviParams, DviProblem, LazyIlpOptions};
use sadp_grid::SadpKind;
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, Router, RouterConfig, SearchScratch};
use tpl_decomp::{welsh_powell, window_is_fvp, DecompGraph, FvpIndex};

fn bench_fvp(c: &mut Criterion) {
    let patterns: Vec<Vec<(i32, i32)>> = (0u32..512)
        .map(|mask| {
            (0..9)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| (b % 3, b / 3))
                .collect()
        })
        .collect();
    c.bench_function("fvp/classify_512_windows", |b| {
        b.iter(|| {
            let mut fvps = 0usize;
            for p in &patterns {
                if window_is_fvp(black_box(p)) {
                    fvps += 1;
                }
            }
            black_box(fvps)
        })
    });

    c.bench_function("fvp/index_add_remove_1k", |b| {
        b.iter(|| {
            let mut idx = FvpIndex::new(64, 64);
            for i in 0..1000 {
                let (x, y) = ((i * 7) % 60, (i * 13) % 60);
                idx.add_via(x, y);
            }
            for i in 0..1000 {
                let (x, y) = ((i * 7) % 60, (i * 13) % 60);
                idx.remove_via(x, y);
            }
            black_box(idx.via_count())
        })
    });
}

fn bench_coloring(c: &mut Criterion) {
    let positions: Vec<(i32, i32)> = (0..2000)
        .map(|i| ((i * 37) % 200, (i * 61) % 200))
        .collect();
    c.bench_function("tpl/graph_build_2k_vias", |b| {
        b.iter(|| DecompGraph::from_positions(black_box(positions.iter().copied())))
    });
    let graph = DecompGraph::from_positions(positions.iter().copied());
    c.bench_function("tpl/welsh_powell_2k_vias", |b| {
        b.iter(|| welsh_powell(black_box(&graph), 3))
    });
}

fn bench_bilp(c: &mut Criterion) {
    use bilp::{Model, Sense, SolveOptions};
    c.bench_function("bilp/packing_60_vars", |b| {
        b.iter(|| {
            let mut m = Model::maximize();
            let vars = m.add_vars(60);
            for (i, &v) in vars.iter().enumerate() {
                m.set_objective_coeff(v, 1 + (i as i64 % 3));
            }
            for i in 0..60 {
                for j in (i + 1)..60 {
                    if (i * j) % 7 == 0 {
                        m.add_constraint([(vars[i], 1), (vars[j], 1)], Sense::Le, 1);
                    }
                }
            }
            black_box(m.solve(&SolveOptions::default()).objective)
        })
    });
}

fn routed_problem() -> DviProblem {
    let spec = BenchSpec::paper_suite()[0].scaled(0.04);
    let netlist = spec.generate(1);
    let out = Router::new(spec.grid(), netlist, RouterConfig::full(SadpKind::Sim))
        .try_run(&mut sadp_trace::NoopObserver)
        .expect("full flow");
    DviProblem::build(SadpKind::Sim, &out.solution)
}

fn bench_dvi(c: &mut Criterion) {
    let problem = routed_problem();
    c.bench_function("dvi/heuristic_small_circuit", |b| {
        b.iter(|| solve_heuristic(black_box(&problem), &DviParams::default()))
    });
    c.bench_function("dvi/lazy_ilp_small_circuit", |b| {
        b.iter(|| solve_ilp_lazy(black_box(&problem), &LazyIlpOptions::default()))
    });
}

fn bench_search(c: &mut Criterion) {
    // The dense A* kernel on a net-routing workload (pristine state,
    // shared scratch).
    let spec = BenchSpec::paper_suite()[0].scaled(0.03);
    let netlist = spec.generate(2);
    let state = RouterState::new(
        spec.grid(),
        &netlist,
        SadpKind::Sim,
        CostParams::default(),
        true,
        true,
    );
    let mut scratch = SearchScratch::new();
    c.bench_function("search/dense_astar_route_nets", |b| {
        b.iter(|| {
            let mut wl = 0u64;
            for (id, net) in netlist.iter() {
                if let Some(r) = route_net(&state, id, net, &mut scratch) {
                    wl += r.wirelength();
                }
            }
            black_box(wl)
        })
    });
}

fn bench_router(c: &mut Criterion) {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let netlist = spec.generate(1);
    c.bench_function("router/full_flow_tiny_circuit", |b| {
        b.iter(|| {
            Router::new(
                spec.grid(),
                netlist.clone(),
                RouterConfig::full(SadpKind::Sim),
            )
            .try_run(&mut sadp_trace::NoopObserver)
            .expect("full flow")
            .stats
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fvp, bench_coloring, bench_bilp, bench_dvi, bench_search, bench_router
);
criterion_main!(benches);
