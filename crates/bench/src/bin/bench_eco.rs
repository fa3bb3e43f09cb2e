//! Warm-start (ECO) speedup sweep: routes a base circuit to
//! convergence, perturbs it with pad-move deltas of increasing size,
//! and compares `RoutingSession::apply_delta` + warm finish against a
//! from-scratch route of the edited layout. Emits `BENCH_eco.json`
//! with per-rung wall clocks and the geomean speedup per delta size.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_eco \
//!     [-- --rungs small|medium|full --seed n --reps k --out path
//!      --baseline BENCH_eco.json]
//! ```
//!
//! With `--baseline`, [`FLOOR`] gates the geomean of the 1-net-delta
//! rows at 5x — the headline claim that editing one net must not cost
//! a full reroute — and [`GATE`] compares every row's speedup against
//! the committed report with 40% slack (speedups are ratios of two
//! same-host measurements, so they travel better across machines than
//! absolute times, but still breathe with load). [`VICTIMS`] holds
//! every row's victim count to the baseline's exactly: the analysis is
//! deterministic, so any change to it is a change of behaviour.

use std::collections::HashSet;
use std::time::Instant;

use bench_suite::harness::ladder;
use bench_suite::ledger::{self, fixed, Bound, Flags, Gate, Verdict};
use benchgen::BenchSpec;
use sadp_grid::{LayoutDelta, NetId, Netlist, Pin, RoutingGrid, SadpKind};
use sadp_router::{eco, RouterConfig, RoutingSession};
use sadp_trace::json::Value;
use sadp_trace::NoopObserver;

/// Each row's warm-vs-cold speedup may fall at most 40% below the
/// baseline.
const GATE: Gate = ("speedup", Bound::Fall(0.4));

/// Each row's victim count must equal the baseline's: it may neither
/// rise nor fall.
const VICTIMS: [Gate; 2] = [("victims", Bound::Rise(0.0)), ("victims", Bound::Fall(0.0))];

/// The geomean warm-vs-cold speedup of 1-net deltas (row
/// `geomean/d1`) must stay at 5x or more.
const FLOOR: Gate = ("speedup", Bound::AtLeast(5.0));

/// The sweep ladder with the level (0 small = PR-fast, 1 medium = the
/// committed baseline, 2 full = nightly) that adds each rung.
const RUNGS: [(&str, u8); 5] = [
    ("ecc-0.25", 0),
    ("ecc-1.0", 0),
    ("alu-1.0", 1),
    ("div-1.0", 1),
    ("top-1.0", 2),
];

const DELTA_SIZES: [usize; 3] = [1, 8, 64];

/// The nearest cell to `(x, y)` not covered by any pad in `used`,
/// by expanding Chebyshev rings (deterministic scan order).
fn nearest_free(x: i32, y: i32, grid: &RoutingGrid, used: &HashSet<(i32, i32)>) -> (i32, i32) {
    let reach = grid.width().max(grid.height());
    for r in 1..reach {
        for dy in -r..=r {
            for dx in -r..=r {
                if dx.abs().max(dy.abs()) != r {
                    continue;
                }
                let (nx, ny) = (x + dx, y + dy);
                if nx >= 0
                    && ny >= 0
                    && nx < grid.width()
                    && ny < grid.height()
                    && !used.contains(&(nx, ny))
                {
                    return (nx, ny);
                }
            }
        }
    }
    panic!("die has no free cell near ({x},{y})");
}

/// A `k`-net ECO: moves the first pad of `k` evenly spaced nets to
/// the nearest free cell. Targets avoid every pad (original or newly
/// placed) — co-located pads of different nets overlap permanently
/// through their pin stubs, which would make the edit unroutable for
/// warm and cold alike.
fn make_delta(grid: &RoutingGrid, nl: &Netlist, k: usize) -> LayoutDelta {
    let mut used: HashSet<(i32, i32)> = nl
        .iter()
        .flat_map(|(_, n)| n.pins().iter().map(|p| (p.x, p.y)))
        .collect();
    let stride = (nl.len() / k).max(1);
    let mut d = LayoutDelta::new();
    for i in 0..k {
        let id = NetId((i * stride) as u32);
        let from = nl[id].pins()[0];
        let to = nearest_free(from.x, from.y, grid, &used);
        used.insert(to);
        d.move_pad(id, from, Pin::new(to.0, to.1));
    }
    d
}

/// Measures one (rung, delta size) cell, named `name`: best-of-`reps`
/// warm and cold wall clocks over identical edits. Returns the result
/// row and its warm-vs-cold speedup.
fn run_cell(name: &str, spec: &BenchSpec, k: usize, seed: u64, reps: usize) -> (Value, f64) {
    let grid = spec.grid();
    let nl = spec.generate(seed);
    let delta = make_delta(&grid, &nl, k);
    let edited = delta.apply(&grid, &nl).expect("bench delta is valid");
    let config = RouterConfig::full(SadpKind::Sim);
    let mut obs = NoopObserver;

    let mut victims = 0usize;
    let mut warm_best = f64::MAX;
    let mut cold_best = f64::MAX;
    for _ in 0..reps.max(1) {
        // Warm: converge the base (untimed), then time the delta
        // application plus the warm finish. Both arms end in
        // `try_finish`, so both wall clocks include one final audit.
        let mut base =
            RoutingSession::try_new(&grid, &nl, config).expect("paper circuits are valid");
        assert!(
            base.ensure_colorable(&mut obs),
            "{name}: base must converge"
        );
        victims = eco::analyze(base.state(), &nl, &delta).victims.len();
        let t0 = Instant::now();
        base.apply_delta(&edited, &delta, &mut obs)
            .expect("bench delta is valid");
        let warm_out = base.try_finish(&mut obs).expect("warm finish");
        warm_best = warm_best.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            warm_out.routed_all,
            "{name}: warm run must route all after a {k}-net delta"
        );

        // Cold: route the edited layout from scratch.
        let t0 = Instant::now();
        let cold = RoutingSession::try_new(&grid, &edited, config).expect("edited layout is valid");
        let cold_out = cold.try_finish(&mut obs).expect("cold finish");
        cold_best = cold_best.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(cold_out.routed_all, "{name}: cold run must route all");
    }

    let speedup = cold_best / warm_best.max(1e-6);
    eprintln!(
        "  {name}: {} nets, {victims} victims, warm {warm_best:.1} ms vs cold {cold_best:.1} ms \
         ({speedup:.1}x)",
        nl.len()
    );
    let row = Value::obj([
        ("name", Value::from(name)),
        ("nets", Value::from(nl.len())),
        ("delta_nets", Value::from(k)),
        ("victims", Value::from(victims)),
        ("warm_ms", fixed(warm_best, 2)),
        ("cold_ms", fixed(cold_best, 2)),
        ("speedup", fixed(speedup, 2)),
    ]);
    (row, speedup)
}

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[("--rungs", "small|medium|full"), ("--reps", "k")],
        "BENCH_eco.json",
    );
    let level = flags.choice("--rungs", &["small", "medium", "full"], 1) as u8;
    let reps = flags.get("--reps", 2usize);

    let mut rows = Vec::new();
    let mut names = Vec::new();
    let mut speedups = vec![Vec::new(); DELTA_SIZES.len()];
    for (rung, spec) in ladder(&RUNGS, level) {
        for (i, k) in DELTA_SIZES.into_iter().enumerate() {
            let name = format!("{rung}/d{k}");
            let (row, speedup) = run_cell(&name, &spec, k, seed, reps);
            rows.push(row);
            names.push(name);
            speedups[i].push(speedup.ln());
        }
    }
    let geomeans: Vec<Value> = DELTA_SIZES
        .iter()
        .zip(&speedups)
        .map(|(k, logs)| {
            let g = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
            eprintln!("  geomean {k}-net delta: {g:.1}x warm-vs-cold");
            let name = Value::from(format!("geomean/d{k}"));
            Value::obj([("name", name), ("speedup", fixed(g, 2))])
        })
        .collect();
    let fields = vec![
        ("reps", Value::from(reps)),
        ("rungs", Value::Arr(rows)),
        ("geomean", Value::Arr(geomeans)),
    ];
    let doc = ledger::write(&out, "eco-warm-start", seed, fields);
    println!("{} row(s) -> {out}", names.len());

    let mut verdict = Verdict::new(baseline.as_ref());
    if verdict.gating() {
        verdict.gate(&doc, Some("geomean/d1"), &FLOOR);
    }
    for name in &names {
        verdict.gate(&doc, Some(name), &GATE);
        for gate in &VICTIMS {
            verdict.gate(&doc, Some(name), gate);
        }
    }
    verdict.finish();
}
