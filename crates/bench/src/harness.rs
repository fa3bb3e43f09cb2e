//! Experiment runner shared by the table binaries.

use std::time::{Duration, Instant};

use benchgen::BenchSpec;
use dvi::{
    solve_heuristic_observed, solve_ilp_lazy_observed, DviParams, DviProblem, LazyIlpOptions,
};
use sadp_grid::{NetId, Netlist, RoutingGrid, SadpKind};
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, RouteBudget, RouterConfig, RoutingSession, SearchScratch};
use sadp_trace::{merge_reports, JsonReport, NoopObserver, RouteObserver};

use crate::ledger::Flags;

/// Which solver computes the post-routing TPL-aware DVI metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DviMode {
    /// The literal C1–C8 ILP (optimality reference; slow).
    Ilp,
    /// Algorithm 3 (fast).
    Heuristic,
}

/// Command-line arguments shared by all table binaries.
///
/// ```text
/// --scale f        benchmark scale factor in (0,1]   (default 0.2)
/// --seed n         generator seed                     (default 1)
/// --dvi ilp|heur   post-routing DVI solver            (default heur)
/// --ilp-limit s    ILP time limit per circuit, secs   (default 600)
/// --time-budget s  routing wall-clock budget per arm  (default none)
/// --circuits a,b   subset of circuit names            (default all)
/// --report path    write a merged per-phase JSON report
/// ```
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Benchmark scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// DVI solver for #DV / #UV columns.
    pub dvi_mode: DviMode,
    /// ILP time limit per circuit.
    pub ilp_limit: Duration,
    /// Routing wall-clock budget per arm; exhaustion yields a partial
    /// outcome tagged with its [`sadp_router::Termination`] reason
    /// instead of running to convergence.
    pub time_budget: Option<Duration>,
    /// Circuit-name filter (`None` = the full suite).
    pub circuits: Option<Vec<String>>,
    /// Path to write the merged per-phase JSON run report to.
    pub report: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: 0.2,
            seed: 1,
            dvi_mode: DviMode::Heuristic,
            ilp_limit: Duration::from_secs(600),
            time_budget: None,
            circuits: None,
            report: None,
        }
    }
}

impl RunArgs {
    /// Parses the command line through [`Flags`]; a usage error
    /// prints one line and exits 2.
    pub fn parse() -> RunArgs {
        let flags = Flags::parse(&[
            ("--scale", "f"),
            ("--seed", "n"),
            ("--dvi", "ilp|heur"),
            ("--ilp-limit", "secs"),
            ("--time-budget", "secs"),
            ("--circuits", "a,b,..."),
            ("--report", "path"),
        ]);
        let d = RunArgs::default();
        RunArgs {
            scale: flags.get("--scale", d.scale),
            seed: flags.get("--seed", d.seed),
            dvi_mode: match flags.choice("--dvi", &["heur", "heuristic", "ilp"], 0) {
                2 => DviMode::Ilp,
                _ => DviMode::Heuristic,
            },
            ilp_limit: Duration::from_secs(flags.get("--ilp-limit", d.ilp_limit.as_secs())),
            time_budget: flags.opt("--time-budget").map(Duration::from_secs_f64),
            circuits: Some(flags.list("--circuits", &[])).filter(|c| !c.is_empty()),
            report: flags.opt("--report"),
        }
    }

    /// The benchmark suite selected by these arguments.
    pub fn suite(&self) -> Vec<BenchSpec> {
        BenchSpec::paper_suite()
            .into_iter()
            .filter(|s| {
                self.circuits
                    .as_ref()
                    .is_none_or(|list| list.iter().any(|n| n == s.name))
            })
            .map(|s| s.scaled(self.scale))
            .collect()
    }
}

/// The paper circuits named in `names`, scaled by `scale`. A list
/// that names none of them prints one line and exits 2.
pub fn select_suite(names: &[String], scale: f64) -> Vec<BenchSpec> {
    let suite: Vec<BenchSpec> = BenchSpec::paper_suite()
        .into_iter()
        .filter(|s| names.iter().any(|n| n == s.name))
        .map(|s| s.scaled(scale))
        .collect();
    if suite.is_empty() {
        eprintln!("no circuits matched {:?} (try --help)", names.join(","));
        std::process::exit(2);
    }
    suite
}

/// Metrics of one experiment arm on one circuit — the table columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmMetrics {
    /// Total wirelength.
    pub wl: u64,
    /// Total via count.
    pub vias: u64,
    /// Detailed-routing CPU seconds.
    pub cpu: f64,
    /// Dead via count after post-routing DVI.
    pub dv: usize,
    /// Uncolorable via count.
    pub uv: usize,
    /// DVI-pass CPU seconds.
    pub dvi_cpu: f64,
    /// 100% routability achieved.
    pub routed: bool,
}

/// One circuit's generated inputs, prepared **once** and borrowed by
/// every arm: the staged [`RoutingSession`] takes `&RoutingGrid` and
/// `&Netlist`, so running the four-arm matrix no longer clones the
/// netlist or rebuilds the grid per arm.
#[derive(Debug, Clone)]
pub struct ArmInput {
    /// Circuit name (table row label).
    pub name: String,
    /// The routing grid.
    pub grid: RoutingGrid,
    /// The generated placed netlist.
    pub netlist: Netlist,
}

impl ArmInput {
    /// Generates the circuit's grid and netlist from its spec.
    pub fn prepare(spec: &BenchSpec, seed: u64) -> ArmInput {
        ArmInput {
            name: spec.name.to_string(),
            grid: spec.grid(),
            netlist: spec.generate(seed),
        }
    }
}

/// Routes one circuit under `config` and evaluates post-routing
/// TPL-aware DVI with the chosen solver.
pub fn run_arm(input: &ArmInput, config: RouterConfig, args: &RunArgs) -> ArmMetrics {
    run_arm_observed(input, config, args, &mut NoopObserver)
}

/// [`run_arm`] with an observer: routing phases and the DVI pass
/// report their spans and counters into `obs`.
pub fn run_arm_observed(
    input: &ArmInput,
    config: RouterConfig,
    args: &RunArgs,
    obs: &mut impl RouteObserver,
) -> ArmMetrics {
    let mut session = RoutingSession::new(&input.grid, &input.netlist, config);
    if let Some(deadline) = args.time_budget {
        session.set_budget(RouteBudget::unlimited().with_deadline(deadline));
    }
    let outcome = session.try_finish(obs).expect("routing flow");
    let problem = DviProblem::build(config.sadp, &outcome.solution);
    let (dv, uv, dvi_cpu) = match args.dvi_mode {
        DviMode::Heuristic => {
            let h = solve_heuristic_observed(&problem, &DviParams::default(), obs);
            (
                h.dead_via_count,
                h.uncolorable_count,
                h.runtime.as_secs_f64(),
            )
        }
        DviMode::Ilp => {
            let (o, _stats) = solve_ilp_lazy_observed(
                &problem,
                &LazyIlpOptions {
                    time_limit: Some(args.ilp_limit),
                    ..LazyIlpOptions::default()
                },
                obs,
            );
            (
                o.dead_via_count,
                o.uncolorable_count,
                o.runtime.as_secs_f64(),
            )
        }
    };
    ArmMetrics {
        wl: outcome.stats.wirelength,
        vias: outcome.stats.vias,
        cpu: outcome.runtime.as_secs_f64(),
        dv,
        uv,
        dvi_cpu,
        routed: outcome.routed_all && outcome.congestion_free,
    }
}

/// One timed initial-routing pass ([`time_initial_route`]).
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    /// Wall clock of the per-net search calls.
    pub total_ns: u128,
    /// Connection searches run.
    pub connections: u64,
    /// Nets routed.
    pub routed: usize,
    /// Nets the search could not route.
    pub failed: usize,
}

impl KernelRun {
    /// Mean search time per connection.
    pub fn ns_per_connection(&self) -> f64 {
        self.total_ns as f64 / self.connections.max(1) as f64
    }
}

/// The search-kernel workload of `bench_search` and `bench_scale`,
/// which dominates router runtime: every net of the instance routed
/// once in HPWL order with routes installed as they land, timing only
/// the per-net search calls (install and bookkeeping excluded).
pub fn time_initial_route(spec: &BenchSpec, seed: u64) -> KernelRun {
    let netlist = spec.generate(seed);
    let params = CostParams::default();
    let mut state = RouterState::new(spec.grid(), &netlist, SadpKind::Sim, params, true, true);
    let mut order: Vec<NetId> = netlist.iter().map(|(id, _)| id).collect();
    order.sort_by_key(|&id| (netlist[id].hpwl(), id));
    let mut scratch = SearchScratch::new();
    let (mut total_ns, mut routed, mut failed) = (0, 0, 0);
    for id in order {
        let t0 = Instant::now();
        let route = route_net(&state, id, &netlist[id], &mut scratch);
        total_ns += t0.elapsed().as_nanos();
        match route {
            Some(route) => {
                state.install_route(id, route);
                routed += 1;
            }
            None => failed += 1,
        }
    }
    let connections = scratch.searches;
    KernelRun {
        total_ns,
        connections,
        routed,
        failed,
    }
}

/// The rungs of a size ladder up to `level` (0 small, 1 medium,
/// 2 full), from `(name, level)` pairs. A rung's name is its spec:
/// `circuit-scale` (`ecc-0.25`) or `synth-<k>k` (`synth-100k`).
pub fn ladder(rungs: &[(&'static str, u8)], level: u8) -> Vec<(&'static str, BenchSpec)> {
    let spec = |name: &str| match name.split_once('-') {
        Some(("synth", k)) => Some(BenchSpec::synthetic(
            k.trim_end_matches('k').parse::<usize>().ok()? * 1000,
        )),
        Some((circuit, scale)) => Some(BenchSpec::by_name(circuit)?.scaled(scale.parse().ok()?)),
        None => None,
    };
    rungs
        .iter()
        .filter(|&&(_, l)| l <= level)
        .map(|&(name, _)| {
            (
                name,
                spec(name).unwrap_or_else(|| panic!("bad rung {name}")),
            )
        })
        .collect()
}

/// The four experiment arms of Tables III/IV, in paper order.
pub fn four_arms(kind: SadpKind) -> [(&'static str, RouterConfig); 4] {
    [
        ("SADP-aware routing", RouterConfig::baseline(kind)),
        ("Consider DVI", RouterConfig::with_dvi(kind)),
        ("Consider via layer TPL", RouterConfig::with_tpl(kind)),
        ("Consider DVI & via layer TPL", RouterConfig::full(kind)),
    ]
}

/// Runs and prints a Tables III/IV-style four-arm comparison for one
/// SADP process (shared by the `table3` and `table4` binaries).
pub fn arm_table(kind: SadpKind, title: &str) {
    use crate::table::{num, text};
    let args = RunArgs::parse();
    let dvi_label = match args.dvi_mode {
        DviMode::Ilp => "ILP",
        DviMode::Heuristic => "heuristic",
    };
    let arms = four_arms(kind);
    let mut headers = vec!["CKT".to_string()];
    let mut decimals = vec![0usize];
    for (name, _) in &arms {
        for col in ["WL", "#Vias", "CPU(s)", "#DV", "#UV"] {
            headers.push(format!("{col}|{}", short(name)));
            decimals.push(if col == "CPU(s)" { 1 } else { 0 });
        }
    }
    let mut t = crate::table::TableBuilder::new(
        format!(
            "{title}: {kind} SADP-aware detailed routing considering DVI and via layer TPL \
             (scale {}, seed {}, post-routing DVI: {dvi_label})",
            args.scale, args.seed
        ),
        headers,
        decimals,
    );
    // Normalize each arm's metric against the baseline arm's metric.
    for a in 0..arms.len() {
        for c in 0..5 {
            t.normalize(1 + a * 5 + c, 1 + c);
        }
    }
    // The circuit × arm matrix is embarrassingly parallel: generate
    // each circuit's inputs once, flatten the matrix into independent
    // tasks that borrow them (each router run owns its own scratch),
    // and replay the buffered progress logs in task order afterwards,
    // so the output is byte-identical to the serial run. Each task
    // fills its own JsonReport; `sadp_exec::map` returns results in
    // task-index order, so the merged report is deterministic for any
    // `SADP_EXEC_THREADS`.
    let suite = args.suite();
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, args.seed))
        .collect();
    let tasks: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..arms.len()).map(move |a| (s, a)))
        .collect();
    let results: Vec<(ArmMetrics, String, JsonReport)> = sadp_exec::map(&tasks, |&(s, a)| {
        let input = &inputs[s];
        let mut report = JsonReport::new(format!("{kind}/{}/{}", input.name, short(arms[a].0)));
        let m = run_arm_observed(input, arms[a].1, &args, &mut report);
        report.set_flag("routed", m.routed);
        report.set_metric("wirelength", m.wl as i64);
        report.set_metric("vias", m.vias as i64);
        report.set_metric("dead_vias", m.dv as i64);
        report.set_metric("uncolorable_vias", m.uv as i64);
        let log = format!(
            "  [{}] {}: WL={} vias={} cpu={:.1}s dv={} uv={}",
            kind, input.name, m.wl, m.vias, m.cpu, m.dv, m.uv
        );
        (m, log, report)
    });
    for (s, input) in inputs.iter().enumerate() {
        let mut cells = vec![text(&input.name)];
        for a in 0..arms.len() {
            let (m, log, _) = &results[s * arms.len() + a];
            assert!(m.routed, "{}: routability below 100%", input.name);
            cells.extend([
                num(m.wl as f64),
                num(m.vias as f64),
                num(m.cpu),
                num(m.dv as f64),
                num(m.uv as f64),
            ]);
            eprintln!("{log}");
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(arm columns: base = plain SADP-aware routing, +DVI, +TPL, +both; \
              all normalized against base)"
    );
    if let Some(path) = &args.report {
        let reports: Vec<JsonReport> = results.into_iter().map(|(_, _, r)| r).collect();
        std::fs::write(path, merge_reports(title, &reports)).expect("write report");
        eprintln!("per-phase run report written to {path}");
    }
}

fn short(arm: &str) -> &'static str {
    match arm {
        "SADP-aware routing" => "base",
        "Consider DVI" => "+DVI",
        "Consider via layer TPL" => "+TPL",
        _ => "+both",
    }
}

/// Runs and prints a Tables VI/VII-style ILP-vs-heuristic comparison
/// (shared by the `table6` and `table7` binaries). The routing arm is
/// always "consider DVI & via layer TPL", as in the paper.
pub fn ilp_vs_heuristic_table(kind: SadpKind, title: &str) {
    use crate::table::{num, text};
    let args = RunArgs::parse();
    let mut t = crate::table::TableBuilder::new(
        format!(
            "{title}: TPL-aware DVI for {kind} SADP-aware detailed routing \
             (scale {}, seed {}, ILP limit {:?})",
            args.scale, args.seed, args.ilp_limit
        ),
        vec![
            "CKT".into(),
            "#DV|ILP".into(),
            "#UV|ILP".into(),
            "CPU(s)|ILP".into(),
            "gap|ILP".into(),
            "#DV|Heur".into(),
            "#UV|Heur".into(),
            "CPU(s)|Heur".into(),
        ],
        vec![0, 0, 0, 1, 0, 0, 0, 3],
    );
    // Paper normalizes against the heuristic columns.
    t.normalize(1, 5)
        .normalize(3, 7)
        .normalize(5, 5)
        .normalize(7, 7);
    // One task per circuit; logs buffered and replayed in suite order.
    let suite = args.suite();
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, args.seed))
        .collect();
    let rows: Vec<([f64; 7], String)> = sadp_exec::map(&inputs, |input| {
        let outcome = RoutingSession::new(&input.grid, &input.netlist, RouterConfig::full(kind))
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        assert!(outcome.routed_all, "{}: unroutable", input.name);
        let problem = DviProblem::build(kind, &outcome.solution);
        let heur = solve_heuristic_observed(&problem, &DviParams::default(), &mut NoopObserver);
        let (ilp, stats) = solve_ilp_lazy_observed(
            &problem,
            &LazyIlpOptions {
                time_limit: Some(args.ilp_limit),
                ..LazyIlpOptions::default()
            },
            &mut NoopObserver,
        );
        let gap = (stats.best_bound - ilp.inserted_count() as i64).max(0);
        let log = format!(
            "  [{}] {}: ILP dv={} uv={} cpu={:.1}s (optimal={}, gap {}, rounds {}, cuts {}) |              heur dv={} uv={} cpu={:.3}s",
            kind,
            input.name,
            ilp.dead_via_count,
            ilp.uncolorable_count,
            ilp.runtime.as_secs_f64(),
            stats.proven_optimal,
            gap,
            stats.rounds,
            stats.cuts,
            heur.dead_via_count,
            heur.uncolorable_count,
            heur.runtime.as_secs_f64()
        );
        (
            [
                ilp.dead_via_count as f64,
                ilp.uncolorable_count as f64,
                ilp.runtime.as_secs_f64(),
                gap as f64,
                heur.dead_via_count as f64,
                heur.uncolorable_count as f64,
                heur.runtime.as_secs_f64(),
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
    println!(
        "(gap = proven optimality gap of the branch-and-bound ILP at the time limit; \
              0 means optimal)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = RunArgs::default();
        assert_eq!(a.scale, 0.2);
        assert_eq!(a.dvi_mode, DviMode::Heuristic);
        assert_eq!(a.suite().len(), 6);
    }

    #[test]
    fn suite_filter() {
        let a = RunArgs {
            circuits: Some(vec!["ecc".into(), "alu".into()]),
            ..RunArgs::default()
        };
        let suite = a.suite();
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name, "ecc");
    }

    #[test]
    fn tiny_arm_runs_end_to_end() {
        let args = RunArgs {
            scale: 0.01,
            ..RunArgs::default()
        };
        let spec = BenchSpec::paper_suite()[0].scaled(args.scale);
        let input = ArmInput::prepare(&spec, args.seed);
        let m = run_arm(&input, RouterConfig::full(SadpKind::Sim), &args);
        assert!(m.routed);
        assert!(m.wl > 0);
        assert_eq!(m.uv, 0);
    }

    #[test]
    fn observed_arm_matches_noop_arm() {
        let args = RunArgs {
            scale: 0.01,
            ..RunArgs::default()
        };
        let spec = BenchSpec::paper_suite()[0].scaled(args.scale);
        let input = ArmInput::prepare(&spec, args.seed);
        let config = RouterConfig::full(SadpKind::Sim);
        let plain = run_arm(&input, config, &args);
        let mut report = JsonReport::new("unit");
        let observed = run_arm_observed(&input, config, &args, &mut report);
        // The observer must not perturb the solution.
        assert_eq!(plain.wl, observed.wl);
        assert_eq!(plain.vias, observed.vias);
        assert_eq!(plain.dv, observed.dv);
        assert_eq!(plain.uv, observed.uv);
        // All phases present: routing spans plus the DVI span.
        assert!(report.spans_of(sadp_trace::Phase::InitialRouting).count() == 1);
        assert!(report.spans_of(sadp_trace::Phase::Dvi).count() == 1);
    }
}
