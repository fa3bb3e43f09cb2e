//! Benchmark of the maze-routing search kernel: routes
//! table1/table2-class workloads with the dense A* kernel and emits
//! `BENCH_search.json` with ns/connection per circuit.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_search \
//!     [-- --scale f --seed n --reps k --circuits a,b --out path
//!      --baseline BENCH_search.json --tolerance 3.0]
//! ```
//!
//! With `--baseline`, the run compares each circuit's dense
//! ns/connection against the named report and exits non-zero when any
//! circuit is slower by more than `--tolerance` percent — the CI gate
//! that keeps the observer plumbing (a `NoopObserver` monomorphizes to
//! nothing) from taxing the search hot path.
//!
//! The kernel routes the netlists in HPWL order with routes installed
//! as they land (the initial-routing workload, which dominates router
//! runtime). The committed baseline's `reference_*` and `speedup`
//! fields (24.5x geomean) are historical: the hash-based reference
//! kernel is a unit-test oracle now and is no longer measured.

use std::time::Instant;

use benchgen::BenchSpec;
use sadp_grid::{NetId, SadpKind};
use sadp_router::dijkstra::route_net_with;
use sadp_router::search::route_connection;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

struct KernelRun {
    total_ns: u128,
    connections: u64,
    routed: usize,
    failed: usize,
}

impl KernelRun {
    fn ns_per_connection(&self) -> f64 {
        self.total_ns as f64 / self.connections.max(1) as f64
    }
}

/// Routes every net of the instance, timing only the per-net search
/// calls (install/bookkeeping excluded).
fn run_kernel(spec: &BenchSpec, seed: u64) -> KernelRun {
    let netlist = spec.generate(seed);
    let mut state = RouterState::new(
        spec.grid(),
        &netlist,
        SadpKind::Sim,
        CostParams::default(),
        true,
        true,
    );
    let mut order: Vec<NetId> = netlist.iter().map(|(id, _)| id).collect();
    order.sort_by_key(|&id| (netlist[id].hpwl(), id));
    let mut scratch = SearchScratch::new();
    let mut run = KernelRun {
        total_ns: 0,
        connections: 0,
        routed: 0,
        failed: 0,
    };
    for id in order {
        let t0 = Instant::now();
        let routed = route_net_with(&state, id, &netlist[id], |st, id, src, tree, tgt, win| {
            run.connections += 1;
            route_connection(st, id, src, tree, tgt, win, &mut scratch)
        });
        run.total_ns += t0.elapsed().as_nanos();
        match routed {
            Some(route) => {
                state.install_route(id, route);
                run.routed += 1;
            }
            None => run.failed += 1,
        }
    }
    run
}

fn parse_or_die<T: std::str::FromStr>(val: &str, flag: &str, what: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {what}, got {val:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 1u64;
    let mut reps = 3usize;
    let mut circuits: Vec<String> = ["ecc", "efc", "ctl", "alu"].map(String::from).to_vec();
    let mut out = String::from("BENCH_search.json");
    let mut baseline: Option<String> = None;
    let mut tolerance = 3.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => scale = parse_or_die(need(i), "--scale", "a float"),
            "--seed" => seed = parse_or_die(need(i), "--seed", "an integer"),
            "--reps" => reps = parse_or_die(need(i), "--reps", "an integer"),
            "--circuits" => circuits = need(i).split(',').map(|s| s.trim().to_string()).collect(),
            "--out" => out = need(i).clone(),
            "--baseline" => baseline = Some(need(i).clone()),
            "--tolerance" => tolerance = parse_or_die(need(i), "--tolerance", "a percentage"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--scale f] [--seed n] [--reps k] [--circuits a,b,...] [--out path] \
                     [--baseline path] [--tolerance pct]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let suite: Vec<BenchSpec> = BenchSpec::paper_suite()
        .into_iter()
        .filter(|s| circuits.iter().any(|n| n == s.name))
        .map(|s| s.scaled(scale))
        .collect();
    if suite.is_empty() {
        eprintln!("no circuits matched {:?} (try --help)", circuits.join(","));
        std::process::exit(2);
    }

    // One task per circuit; logs and rows merge in suite order.
    let per_spec: Vec<(String, String)> = sadp_exec::map(&suite, |spec| {
        let dense = (0..reps.max(1))
            .map(|_| run_kernel(spec, seed))
            .min_by_key(|run| run.total_ns)
            .expect("at least one rep");
        assert_eq!(dense.failed, 0, "{}: dense kernel failed nets", spec.name);
        let log = format!(
            "  {}: {} nets, {:.0} ns/conn ({} conns)",
            spec.name,
            dense.routed,
            dense.ns_per_connection(),
            dense.connections,
        );
        let row = format!(
            "    {{\"name\": \"{}\", \"nets\": {}, \"grid\": [{}, {}], \
             \"dense_ns_per_connection\": {:.1}, \"dense_connections\": {}}}",
            spec.name,
            dense.routed,
            spec.width,
            spec.height,
            dense.ns_per_connection(),
            dense.connections,
        );
        (row, log)
    });
    let mut rows = Vec::new();
    for (row, log) in per_spec {
        eprintln!("{log}");
        rows.push(row);
    }
    let json = format!(
        "{{\n  \"bench\": \"search-kernel\",\n  \"seed\": {seed},\n  \"scale\": {scale},\n  \
         \"reps\": {reps},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{} circuit(s) -> {out}", suite.len());

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = 0usize;
        for spec in &suite {
            let Some(base) = baseline_ns(&text, spec.name) else {
                eprintln!("  baseline {path} has no entry for {}; skipping", spec.name);
                continue;
            };
            let now = dense_ns(&json, spec.name).expect("own report has the circuit");
            let delta = (now - base) / base * 100.0;
            let verdict = if delta > tolerance { "FAIL" } else { "ok" };
            eprintln!(
                "  baseline check {}: {now:.1} ns/conn vs {base:.1} baseline ({delta:+.1}%) {verdict}",
                spec.name
            );
            if delta > tolerance {
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("{failures} circuit(s) regressed more than {tolerance}% vs {path}");
            std::process::exit(1);
        }
        println!("baseline check passed: all circuits within {tolerance}% of {path}");
    }
}

/// Pulls `"dense_ns_per_connection"` for one circuit out of a
/// `BENCH_search.json` document (string scan — the workspace has no
/// JSON parser dependency).
fn dense_ns(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"dense_ns_per_connection\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

fn baseline_ns(json: &str, name: &str) -> Option<f64> {
    dense_ns(json, name)
}
