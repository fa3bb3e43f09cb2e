//! Ablation studies for the design choices:
//!
//! 1. **DVI-penalty terms** (Algorithm 3): dead-via count of the
//!    heuristic with each DP term (δ / λ / μ) disabled in turn.
//! 2. **Cost-assignment weight α** (Algorithm 1): dead-via count after
//!    routing with different block-DVIC weights.
//! 3. **1-swap improvement** (our extension): Algorithm 3 vs the
//!    swap-improved variant vs the exact lazy-cut ILP.
//!
//! ```text
//! cargo run --release -p bench-suite --bin ablation -- \
//!     [--scale f] [--seed n] [--circuits a,b]
//! ```

use bench_suite::table::{num, text};
use bench_suite::{ArmInput, RunArgs, TableBuilder};
use dvi::{
    solve_heuristic, solve_heuristic_improved, solve_ilp_lazy, DviParams, DviProblem,
    LazyIlpOptions,
};
use sadp_grid::SadpKind;
use sadp_router::{CostParams, RouterConfig, RoutingSession};
use sadp_trace::NoopObserver;

fn main() {
    let args = RunArgs::parse();
    let suite = args.suite();
    // Generate every circuit once; all three studies borrow the same
    // grids and netlists through the staged session API.
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, args.seed))
        .collect();

    // Part 1: DP-term ablation on the fully-considered routing.
    let variants: [(&str, DviParams); 5] = [
        (
            "full (1,1,1)",
            DviParams {
                delta: 1,
                lambda: 1,
                mu: 1,
            },
        ),
        (
            "no delta (0,1,1)",
            DviParams {
                delta: 0,
                lambda: 1,
                mu: 1,
            },
        ),
        (
            "no lambda (1,0,1)",
            DviParams {
                delta: 1,
                lambda: 0,
                mu: 1,
            },
        ),
        (
            "no mu (1,1,0)",
            DviParams {
                delta: 1,
                lambda: 1,
                mu: 0,
            },
        ),
        (
            "none (0,0,0)",
            DviParams {
                delta: 0,
                lambda: 0,
                mu: 0,
            },
        ),
    ];
    let mut headers = vec!["CKT".to_string()];
    let mut decimals = vec![0usize];
    for (name, _) in &variants {
        headers.push(format!("#DV|{name}"));
        decimals.push(0);
    }
    let mut t = TableBuilder::new(
        format!(
            "Ablation A: DVI-penalty terms of the heuristic (scale {}, seed {})",
            args.scale, args.seed
        ),
        headers,
        decimals,
    );
    for v in 0..variants.len() {
        t.normalize(1 + v, 1);
    }
    // One task per circuit (route once, ablate all five variants);
    // logs are buffered and replayed in suite order.
    let rows: Vec<(Vec<usize>, String)> = sadp_exec::map(&inputs, |input| {
        let out = RoutingSession::new(
            &input.grid,
            &input.netlist,
            RouterConfig::full(SadpKind::Sim),
        )
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
        let problem = DviProblem::build(SadpKind::Sim, &out.solution);
        let mut dead = Vec::with_capacity(variants.len());
        let mut log = String::new();
        for (name, params) in &variants {
            let h = solve_heuristic(&problem, params);
            log.push_str(&format!(
                "  {} / {name}: dead={}\n",
                input.name, h.dead_via_count
            ));
            dead.push(h.dead_via_count);
        }
        (dead, log)
    });
    for (input, (dead, log)) in inputs.iter().zip(&rows) {
        eprint!("{log}");
        let mut cells = vec![text(&input.name)];
        cells.extend(dead.iter().map(|&d| num(d as f64)));
        t.row(cells);
    }
    print!("{}", t.render());
    println!();

    // Part 2: alpha (block-DVIC weight) sweep during routing.
    let alphas = [0i64, 2, 4, 8, 16];
    let mut headers = vec!["CKT".to_string()];
    let mut decimals = vec![0usize];
    for a in alphas {
        headers.push(format!("#DV|a={a}"));
        decimals.push(0);
    }
    let mut t = TableBuilder::new(
        format!(
            "Ablation B: block-DVIC weight alpha in the cost assignment (scale {}, seed {})",
            args.scale, args.seed
        ),
        headers,
        decimals,
    );
    for (i, _) in alphas.iter().enumerate() {
        t.normalize(1 + i, 1);
    }
    // One task per (circuit, alpha) pair — routing dominates here.
    let tasks: Vec<(usize, i64)> = (0..inputs.len())
        .flat_map(|s| alphas.iter().map(move |&a| (s, a)))
        .collect();
    let results: Vec<(usize, String)> = sadp_exec::map(&tasks, |&(s, alpha)| {
        let input = &inputs[s];
        let config = RouterConfig::builder(SadpKind::Sim)
            .dvi(true)
            .tpl(true)
            .params(CostParams {
                alpha,
                ..CostParams::default()
            })
            .build()
            .expect("ablation params are valid");
        let out = RoutingSession::new(&input.grid, &input.netlist, config)
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        let problem = DviProblem::build(SadpKind::Sim, &out.solution);
        let h = solve_heuristic(&problem, &DviParams::default());
        let log = format!(
            "  {} / alpha={alpha}: dead={}",
            input.name, h.dead_via_count
        );
        (h.dead_via_count, log)
    });
    for (s, input) in inputs.iter().enumerate() {
        let mut cells = vec![text(&input.name)];
        for (i, _) in alphas.iter().enumerate() {
            let (dead, log) = &results[s * alphas.len() + i];
            eprintln!("{log}");
            cells.push(num(*dead as f64));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!();

    // Part 3: heuristic vs swap-improved heuristic vs exact ILP.
    let mut t = TableBuilder::new(
        format!(
            "Ablation C: Algorithm 3 vs 1-swap improvement vs exact ILP (scale {}, seed {})",
            args.scale, args.seed
        ),
        vec![
            "CKT".into(),
            "#DV|heur".into(),
            "#DV|heur+swap".into(),
            "#DV|ILP".into(),
            "CPU(s)|heur".into(),
            "CPU(s)|heur+swap".into(),
            "CPU(s)|ILP".into(),
        ],
        vec![0, 0, 0, 0, 3, 3, 3],
    );
    for c in 1..=3 {
        t.normalize(c, 3);
    }
    for c in 4..=6 {
        t.normalize(c, 4);
    }
    // One task per circuit; the ILP dominates the runtime, so circuits
    // make natural work units.
    let rows: Vec<([f64; 6], String)> = sadp_exec::map(&inputs, |input| {
        let out = RoutingSession::new(
            &input.grid,
            &input.netlist,
            RouterConfig::full(SadpKind::Sim),
        )
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
        let problem = DviProblem::build(SadpKind::Sim, &out.solution);
        let h = solve_heuristic(&problem, &DviParams::default());
        let hi = solve_heuristic_improved(&problem, &DviParams::default());
        let (ilp, _) = solve_ilp_lazy(
            &problem,
            &LazyIlpOptions {
                time_limit: Some(args.ilp_limit),
                ..LazyIlpOptions::default()
            },
        );
        let log = format!(
            "  {}: heur={} heur+swap={} ilp={}",
            input.name, h.dead_via_count, hi.dead_via_count, ilp.dead_via_count
        );
        (
            [
                h.dead_via_count as f64,
                hi.dead_via_count as f64,
                ilp.dead_via_count as f64,
                h.runtime.as_secs_f64(),
                hi.runtime.as_secs_f64(),
                ilp.runtime.as_secs_f64(),
            ],
            log,
        )
    });
    for (input, (vals, log)) in inputs.iter().zip(&rows) {
        eprintln!("{log}");
        let mut cells = vec![text(&input.name)];
        cells.extend(vals.iter().map(|&v| num(v)));
        t.row(cells);
    }
    print!("{}", t.render());
}
