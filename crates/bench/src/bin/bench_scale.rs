//! Scale sweep of the routing kernel: initial-routes instances from
//! bench scale 0.05 up through the full paper circuits and a 10⁵-net
//! synthetic, then emits `BENCH_scale.json` with ns/connection and
//! peak RSS per rung.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_scale \
//!     [-- --rungs small|medium|full --seed n --reps k --out path
//!      --baseline BENCH_scale.json --tolerance 25 --rss-tolerance 50]
//! ```
//!
//! Rungs run in ascending instance size. Peak RSS is the process
//! high-water mark (`VmHWM`) sampled after each rung, so a rung's
//! figure includes everything smaller that ran before it — with
//! ascending order the largest rung dominates its own number, which is
//! the quantity the regression gate cares about.
//!
//! With `--baseline`, every rung present in both the run and the named
//! report is compared on ns/connection (and peak RSS at a looser
//! tolerance); rungs present in only one side are skipped with a note,
//! so the PR-sized `--rungs small`/`medium` runs gate cleanly against
//! the committed full-sweep baseline.

use std::time::Instant;

use benchgen::BenchSpec;
use sadp_grid::{NetId, SadpKind};
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

/// One sweep rung: display name + fully resolved spec.
struct Rung {
    name: &'static str,
    spec: BenchSpec,
}

/// The sweep ladder, ascending by net count. `level` 0 = small
/// (PR-fast), 1 = medium, 2 = full (nightly / baseline refresh).
fn ladder(level: u8) -> Vec<Rung> {
    let ecc = BenchSpec::by_name("ecc").expect("paper suite has ecc");
    let mut rungs = vec![
        Rung {
            name: "ecc-0.05",
            spec: ecc.scaled(0.05),
        },
        Rung {
            name: "ecc-0.25",
            spec: ecc.scaled(0.25),
        },
        Rung {
            name: "ecc-1.0",
            spec: ecc,
        },
    ];
    if level >= 1 {
        rungs.push(Rung {
            name: "div-1.0",
            spec: BenchSpec::by_name("div").expect("paper suite has div"),
        });
    }
    if level >= 2 {
        rungs.push(Rung {
            name: "top-1.0",
            spec: BenchSpec::by_name("top").expect("paper suite has top"),
        });
        rungs.push(Rung {
            name: "synth-100k",
            spec: BenchSpec::synthetic(100_000),
        });
    }
    rungs
}

struct RungResult {
    connections: u64,
    routed: usize,
    failed: usize,
    total_ns: u128,
    peak_rss_kb: u64,
}

impl RungResult {
    fn ns_per_connection(&self) -> f64 {
        self.total_ns as f64 / self.connections.max(1) as f64
    }
}

/// Initial-routes the instance once in HPWL order (the workload that
/// dominates router runtime), timing the per-net search calls.
fn run_rung(spec: &BenchSpec, seed: u64) -> RungResult {
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
    let mut result = RungResult {
        connections: 0,
        routed: 0,
        failed: 0,
        total_ns: 0,
        peak_rss_kb: 0,
    };
    for id in order {
        let before = scratch.searches;
        let t0 = Instant::now();
        let routed = route_net(&state, id, &netlist[id], &mut scratch);
        result.total_ns += t0.elapsed().as_nanos();
        result.connections += scratch.searches - before;
        match routed {
            Some(route) => {
                state.install_route(id, route);
                result.routed += 1;
            }
            None => result.failed += 1,
        }
    }
    result.peak_rss_kb = peak_rss_kb();
    result
}

/// Process peak resident set (`VmHWM`) in KiB, 0 if unreadable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

fn parse_or_die<T: std::str::FromStr>(val: &str, flag: &str, what: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {what}, got {val:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut level = 2u8;
    let mut seed = 1u64;
    let mut reps = 1usize;
    let mut out = String::from("BENCH_scale.json");
    let mut baseline: Option<String> = None;
    let mut tolerance = 25.0f64;
    let mut rss_tolerance = 50.0f64;
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
            "--rungs" => {
                level = match need(i).as_str() {
                    "small" => 0,
                    "medium" => 1,
                    "full" => 2,
                    other => {
                        eprintln!("--rungs takes small|medium|full, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => seed = parse_or_die(need(i), "--seed", "an integer"),
            "--reps" => reps = parse_or_die(need(i), "--reps", "an integer"),
            "--out" => out = need(i).clone(),
            "--baseline" => baseline = Some(need(i).clone()),
            "--tolerance" => tolerance = parse_or_die(need(i), "--tolerance", "a percentage"),
            "--rss-tolerance" => {
                rss_tolerance = parse_or_die(need(i), "--rss-tolerance", "a percentage")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--rungs small|medium|full] [--seed n] [--reps k] [--out path] \
                     [--baseline path] [--tolerance pct] [--rss-tolerance pct]"
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

    // Serial, ascending: rung order is what keeps the cumulative
    // VmHWM figures attributable (see module docs).
    let mut rows = Vec::new();
    let mut measured: Vec<(String, f64, u64)> = Vec::new();
    for rung in ladder(level) {
        let mut best: Option<RungResult> = None;
        for _ in 0..reps.max(1) {
            let r = run_rung(&rung.spec, seed);
            if best.as_ref().is_none_or(|b| r.total_ns < b.total_ns) {
                best = Some(r);
            }
        }
        let r = best.expect("at least one rep ran");
        assert_eq!(
            r.failed, 0,
            "{}: initial routing failed {} nets",
            rung.name, r.failed
        );
        eprintln!(
            "  {}: {} nets on {}x{}, {:.0} ns/conn ({} conns), {:.1} s total, peak RSS {} MiB",
            rung.name,
            r.routed,
            rung.spec.width,
            rung.spec.height,
            r.ns_per_connection(),
            r.connections,
            r.total_ns as f64 / 1e9,
            r.peak_rss_kb / 1024
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"nets\": {}, \"grid\": [{}, {}], \
             \"connections\": {}, \"ns_per_connection\": {:.1}, \
             \"total_ms\": {:.1}, \"peak_rss_kb\": {}}}",
            rung.name,
            r.routed,
            rung.spec.width,
            rung.spec.height,
            r.connections,
            r.ns_per_connection(),
            r.total_ns as f64 / 1e6,
            r.peak_rss_kb
        ));
        measured.push((rung.name.to_string(), r.ns_per_connection(), r.peak_rss_kb));
    }
    let json = format!(
        "{{\n  \"bench\": \"scale-sweep\",\n  \"seed\": {seed},\n  \"reps\": {reps},\n  \
         \"rungs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{} rung(s) -> {out}", measured.len());

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = 0usize;
        let mut compared = 0usize;
        for (name, now_ns, now_rss) in &measured {
            let Some(base_ns) = field(&text, name, "ns_per_connection") else {
                eprintln!("  baseline {path} has no rung {name}; skipping");
                continue;
            };
            compared += 1;
            let delta = (now_ns - base_ns) / base_ns * 100.0;
            let verdict = if delta > tolerance { "FAIL" } else { "ok" };
            eprintln!(
                "  baseline check {name}: {now_ns:.1} ns/conn vs {base_ns:.1} \
                 ({delta:+.1}%) {verdict}"
            );
            if delta > tolerance {
                failures += 1;
            }
            if let Some(base_rss) = field(&text, name, "peak_rss_kb") {
                // A zero on either side means `/proc/self/status` was
                // unreadable for that run (e.g. a non-Linux host), not
                // a real measurement — a ratio against it is
                // meaningless, so the RSS leg is skipped, not gated.
                if base_rss <= 0.0 || *now_rss == 0 {
                    eprintln!(
                        "  baseline check {name}: peak RSS unavailable \
                         (now {now_rss} kB, baseline {base_rss:.0} kB); RSS leg skipped"
                    );
                } else {
                    let rss_delta = (*now_rss as f64 - base_rss) / base_rss * 100.0;
                    let verdict = if rss_delta > rss_tolerance {
                        "FAIL"
                    } else {
                        "ok"
                    };
                    eprintln!(
                        "  baseline check {name}: {now_rss} kB peak RSS vs {base_rss:.0} \
                         ({rss_delta:+.1}%) {verdict}"
                    );
                    if rss_delta > rss_tolerance {
                        failures += 1;
                    }
                }
            }
        }
        if compared == 0 {
            eprintln!("no rung of this run exists in {path}; nothing gated");
            std::process::exit(1);
        }
        if failures > 0 {
            eprintln!("{failures} check(s) regressed beyond tolerance vs {path}");
            std::process::exit(1);
        }
        println!(
            "baseline check passed: {compared} rung(s) within {tolerance}% ns/conn \
             (+{rss_tolerance}% RSS) of {path}"
        );
    }
}

/// Pulls a numeric field for one rung out of a `BENCH_scale.json`
/// document (string scan — the workspace has no JSON parser
/// dependency).
fn field(json: &str, name: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let pat = format!("\"{key}\": ");
    let v = &rest[rest.find(&pat)? + pat.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}
