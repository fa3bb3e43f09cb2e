//! `flow-paper` and `top-route`: the complete routing flow, one
//! circuit per operation.
//!
//! A round routes every circuit of the workload once, each through
//! the staged session (`initial_route` → `negotiate` → `tpl_removal`
//! → `ensure_colorable` → `try_finish`), plus post-route DVI
//! (`DviProblem::build` + `solve_heuristic_observed`) on flow-paper.
//! Rounds repeat while another one fits in the run's time, and a
//! circuit's latency is its median over the rounds. Each set-up's and
//! each flow's time is scaled to the reference host by the speed of
//! the calibration kernel just before and just after it
//! (`calibrate.rs`). The first round's solutions are audited; later
//! rounds must reproduce its fingerprints exactly. A traced run
//! alternates untraced and traced rounds, so it measures its own
//! tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use benchgen::BenchSpec;
use dvi::{solve_heuristic_observed, DviOutcome, DviParams, DviProblem};
use sadp_grid::{Netlist, RouteError, RoutingGrid, RoutingSolution, SadpKind};
use sadp_router::{full_audit, mask_audit, RouterConfig, RoutingOutcome, RoutingSession};
use sadp_service::outcome_fingerprint;
use sadp_trace::{Counter, JsonReport, NoopObserver, Phase, RouteObserver};

use crate::calibrate::{Calibration, FLOW_KERNEL};
use crate::report::{median, Outcome, Row, SETUPS};
use crate::Args;

/// One circuit of a workload, generated from the run's seed.
struct Instance {
    name: String,
    kind: SadpKind,
    grid: RoutingGrid,
    netlist: Netlist,
}

/// A circuit of a workload: its size, its arm, and which netlist of
/// the run's seed it routes (0 is `generate(seed)`).
type Circuit = (BenchSpec, SadpKind, u64);

/// The circuits of a workload, and whether it runs post-route DVI.
///
/// flow-paper is the paper's Tables III/IV/VI/VII suite (five
/// circuits × SIM and SID, full arm, then DVI) at a quarter of the
/// nets, so a run holds about ten rounds. top-route is the largest
/// circuit at a quarter of its nets (as many as full-size div), SIM,
/// routing only: full-size top takes ~26 s on one core, and even half
/// size leaves a run too few rounds for a steady median. It routes four
/// netlists of the seed (one at the smoke test's size): one netlist's
/// routing time moves by about a tenth from seed to seed, and the
/// run's latencies stand on four.
fn circuits(workload: &str, quick: bool) -> (Vec<Circuit>, bool) {
    let spec = |name: &str| {
        BenchSpec::by_name(name)
            .expect("paper suite circuit")
            .scaled(if quick { 0.02 } else { 0.25 })
    };
    if workload == "top-route" {
        let netlists = if quick { 1 } else { 4 };
        return (
            (0..netlists)
                .map(|n| (spec("top"), SadpKind::Sim, n))
                .collect(),
            false,
        );
    }
    let circuits = ["ecc", "efc", "ctl", "alu", "div"]
        .iter()
        .flat_map(|name| [SadpKind::Sim, SadpKind::Sid].map(|k| (spec(name), k, 0)))
        .collect();
    (circuits, true)
}

/// The set-up a user of the flow pays before routing: generate every
/// circuit and open its session.
fn setup(
    specs: &[Circuit],
    seed: u64,
    layers: &mut Vec<(f64, f64)>,
) -> Result<Vec<Instance>, RouteError> {
    let t = Instant::now();
    let inputs: Vec<Instance> = specs
        .iter()
        .map(|&(spec, kind, n)| Instance {
            name: match n {
                0 => format!("{}/{kind}", spec.name),
                _ => format!("{}.{n}/{kind}", spec.name),
            },
            kind,
            grid: spec.grid(),
            netlist: spec.generate(seed ^ (n << 32)),
        })
        .collect();
    let generate = t.elapsed().as_secs_f64();
    for inst in &inputs {
        RoutingSession::try_new(&inst.grid, &inst.netlist, RouterConfig::full(inst.kind))?;
    }
    layers.push((generate, t.elapsed().as_secs_f64() - generate));
    Ok(inputs)
}

/// Seconds spent in each public call of one flow, in call order.
const CALLS: [&str; 7] = [
    "core.initial_route_s",
    "core.negotiate_s",
    "core.tpl_removal_s",
    "core.ensure_colorable_s",
    "core.finish_s",
    "dvi.build_s",
    "dvi.solve_s",
];

struct FlowRun {
    outcome: RoutingOutcome,
    dvi: Option<(DviProblem, DviOutcome)>,
    calls: [f64; 7],
}

impl FlowRun {
    fn latency_ms(&self) -> f64 {
        self.calls.iter().sum::<f64>() * 1e3
    }

    fn dead_vias(&self) -> u64 {
        self.dvi
            .as_ref()
            .map_or(0, |(_, h)| h.dead_via_count as u64)
    }
}

/// Routes one circuit through the staged session; the same calls
/// whether `obs` is the no-op or the tracing observer. Opening the
/// session is set-up, outside the measured calls.
fn flow_one(
    inst: &Instance,
    dvi: bool,
    obs: &mut impl RouteObserver,
) -> Result<FlowRun, RouteError> {
    let mut session =
        RoutingSession::try_new(&inst.grid, &inst.netlist, RouterConfig::full(inst.kind))?;
    let mut calls = [0.0; 7];
    let mut t = Instant::now();
    let mut lap = |i: usize| {
        calls[i] = t.elapsed().as_secs_f64();
        t = Instant::now();
    };
    session.initial_route(obs);
    lap(0);
    session.negotiate(obs);
    lap(1);
    session.tpl_removal(obs);
    lap(2);
    session.ensure_colorable(obs);
    lap(3);
    let outcome = session.try_finish(obs)?;
    lap(4);
    let dvi = if dvi {
        let problem = DviProblem::build(inst.kind, &outcome.solution);
        lap(5);
        let solved = solve_heuristic_observed(&problem, &DviParams::default(), obs);
        lap(6);
        Some((problem, solved))
    } else {
        None
    };
    Ok(FlowRun {
        outcome,
        dvi,
        calls,
    })
}

/// Audits an emitted solution from the solution alone, adds what the
/// audits find to `out`, and returns the solution's defect count.
///
/// A disconnected net, short, FVP window or greedily uncolored via
/// contradicts the clean verdict the router reports, so it makes the
/// run incorrect. Forbidden turns and mask DRC violations (a layer
/// mask synthesis refuses counts one) are defects the router has no
/// verdict on: they are counted, not failed. Mask synthesis runs on
/// SID only: for SIM it is quadratic in the wire runs of a layer
/// (16 s on div), so SIM relies on the turn audit.
fn audit(
    label: &str,
    kind: SadpKind,
    solution: &RoutingSolution,
    netlist: &Netlist,
    out: &mut Outcome,
) -> u64 {
    let t = Instant::now();
    let a = full_audit(kind, solution, netlist);
    *out.layers.entry("check.full_audit_s").or_default() += t.elapsed().as_secs_f64();
    let contradictions = a.disconnected + a.shorts + a.fvp_windows + a.greedy_uncolored;
    if contradictions > 0 {
        out.problems.push(format!("{label}: audit found {a:?}"));
    }
    let mut defects = contradictions + a.forbidden_turns;
    if kind == SadpKind::Sid {
        let t = Instant::now();
        defects += mask_audit(kind, solution).unwrap_or(1);
        *out.layers.entry("check.mask_audit_s").or_default() += t.elapsed().as_secs_f64();
    }
    out.defects += defects as u64;
    defects as u64
}

/// `counter` summed over the three rip-up-and-reroute phases.
fn rnr_total(rep: &JsonReport, counter: Counter) -> f64 {
    [
        Phase::CongestionNegotiation,
        Phase::TplViolationRemoval,
        Phase::ColoringFix,
    ]
    .iter()
    .map(|&p| rep.total(p, counter) as f64)
    .sum()
}

/// Adds a traced flow's per-layer numbers to its round's totals.
fn add_layers(round: &mut BTreeMap<&'static str, f64>, run: &FlowRun, rep: &JsonReport) {
    let mut add = |k: &'static str, v: f64| *round.entry(k).or_default() += v;
    for (name, secs) in CALLS.iter().zip(run.calls) {
        add(name, secs);
    }
    let total = |phase, counter| rep.total(phase, counter) as f64;
    add(
        "rnr.congestion_iterations",
        total(Phase::CongestionNegotiation, Counter::Iterations),
    );
    add("rnr.reroutes", rnr_total(rep, Counter::Reroutes));
    add(
        "rnr.reroute_failures",
        rnr_total(rep, Counter::RerouteFailures),
    );
    add(
        "rnr.congestion_hits",
        total(Phase::CongestionNegotiation, Counter::CongestionHits),
    );
    add(
        "rnr.tpl_iterations",
        total(Phase::TplViolationRemoval, Counter::Iterations),
    );
    add(
        "rnr.fvp_hits",
        total(Phase::TplViolationRemoval, Counter::FvpHits),
    );
    add(
        "coloring.attempts",
        total(Phase::ColoringFix, Counter::ColoringAttempts),
    );
    if let Some((problem, h)) = &run.dvi {
        add("dvi.vias", problem.via_count() as f64);
        add("dvi.candidates", problem.candidates().len() as f64);
        add("dvi.conflicts", problem.conflicts().len() as f64);
        add("dvi.inserted", h.inserted_count() as f64);
        add("dvi.dead_vias", h.dead_via_count as f64);
    }
    add("span_s", rep.span_total().as_secs_f64());
    add("flow_s", run.latency_ms() / 1e3);
}

/// Per-key median over rounds of per-layer values.
fn median_layers(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = rounds.iter().flat_map(|r| r.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(k).copied()).collect();
            (k, median(&values))
        })
        .collect()
}

pub fn run(workload: &str, args: &Args) -> Result<Outcome, String> {
    let (specs, dvi) = circuits(workload, args.quick);
    let mut out = Outcome::default();
    let mut calibration = Calibration::new(FLOW_KERNEL);
    let mut setup_layers = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = setup(&specs, args.seed, &mut setup_layers).map_err(|e| e.to_string())?;
        out.setups
            .push(calibration.scale(t.elapsed().as_secs_f64()));
    }

    // (fingerprint, dead vias) of each circuit's first flow.
    let mut reference: Vec<(u64, u64)> = Vec::new();
    // Per circuit, each untraced flow's time as measured and as scaled
    // to the reference host.
    let mut per_circuit_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut per_circuit_scaled: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut untraced_rounds: Vec<f64> = Vec::new();
    let mut traced_rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let min_rounds = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    for round in 0.. {
        let round_started = Instant::now();
        let traced = args.trace && round % 2 == 1;
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut round_ms = 0.0;
        for (i, inst) in inputs.iter().enumerate() {
            let run = if traced {
                let mut rep = JsonReport::new(inst.name.clone());
                let run = flow_one(inst, dvi, &mut rep).map_err(|e| e.to_string())?;
                add_layers(&mut totals, &run, &rep);
                run
            } else {
                flow_one(inst, dvi, &mut NoopObserver).map_err(|e| e.to_string())?
            };
            round_ms += run.latency_ms();
            // Traced flows are timed by the kernel too, so the next
            // flow's "just before" samples are as recent.
            let scaled_ms = calibration.scale(run.latency_ms() / 1e3) * 1e3;
            if !traced {
                per_circuit_ms[i].push(run.latency_ms());
                per_circuit_scaled[i].push(scaled_ms);
            }
            out.attempted += 1;
            let o = &run.outcome;
            if !(o.routed_all && o.congestion_free && o.fvp_free && o.colorable) {
                out.failed += 1;
            }
            let key = (outcome_fingerprint(o), run.dead_vias());
            if round == 0 {
                let uncolorable = run.dvi.as_ref().map_or(0, |(_, h)| h.uncolorable_count) as u64;
                out.defects += uncolorable;
                let defects = audit(&inst.name, inst.kind, &o.solution, &inst.netlist, &mut out)
                    + uncolorable;
                out.quality.wirelength += o.stats.wirelength;
                out.quality.vias += o.stats.vias;
                out.quality.dead_vias += run.dead_vias();
                out.quality.add_netlist(&inst.netlist);
                out.rows.push(Row {
                    name: inst.name.clone(),
                    latency_ms: 0.0,
                    wirelength: o.stats.wirelength,
                    vias: o.stats.vias,
                    dead_vias: run.dead_vias(),
                    defects,
                });
                reference.push(key);
            } else if key != reference[i] {
                out.problems.push(format!(
                    "{} round {round}{}: fingerprint/dead vias {key:?} differ from the first flow's {:?}",
                    inst.name,
                    if traced { " (traced)" } else { "" },
                    reference[i]
                ));
            }
        }
        if traced {
            traced_rounds.push(totals);
        } else {
            untraced_rounds.push(round_ms);
        }
        // Stop when a round as long as this one would overrun the time.
        if round + 1 >= min_rounds && started.elapsed() + round_started.elapsed() > args.seconds {
            break;
        }
    }
    out.calibration_ms = calibration.median_ms();
    out.latencies_ms = per_circuit_scaled.iter().map(|ms| median(ms)).collect();
    for (row, ms) in out.rows.iter_mut().zip(&per_circuit_ms) {
        row.latency_ms = median(ms);
    }

    if args.trace {
        let mut layers = median_layers(&traced_rounds);
        let flow_s = layers.remove("flow_s").unwrap_or(0.0);
        let span_s = layers.remove("span_s").unwrap_or(0.0);
        let (reroutes, failures) = (
            layers.get("rnr.reroutes").copied().unwrap_or(0.0),
            layers.get("rnr.reroute_failures").copied().unwrap_or(0.0),
        );
        if reroutes + failures > 0.0 {
            layers.insert(
                "rnr.reroute_success_ratio",
                reroutes / (reroutes + failures),
            );
        }
        if let (Some(&ins), Some(&dead)) = (layers.get("dvi.inserted"), layers.get("dvi.dead_vias"))
        {
            if ins + dead > 0.0 {
                layers.insert("dvi.protection_rate", ins / (ins + dead));
            }
        }
        let generate: Vec<f64> = setup_layers.iter().map(|l| l.0).collect();
        let open: Vec<f64> = setup_layers.iter().map(|l| l.1).collect();
        layers.insert("benchgen.generate_s", median(&generate));
        layers.insert("core.session_new_s", median(&open));
        // Share of the flow the router's own phase spans account for.
        layers.insert("trace.coverage", span_s / flow_s);
        let untraced_ms = median(&untraced_rounds);
        layers.insert(
            "trace.overhead_pct",
            (flow_s * 1e3 / untraced_ms - 1.0) * 100.0,
        );
        layers.insert("check.defects", out.defects as f64);
        out.layers.extend(layers);
    }
    Ok(out)
}
