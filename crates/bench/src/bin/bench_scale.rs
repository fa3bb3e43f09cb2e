//! Scale sweep of the routing kernel: initial-routes instances from
//! bench scale 0.05 up through the full paper circuits and a 10⁵-net
//! synthetic, then emits `BENCH_scale.json` with ns/connection,
//! expanded states, ns/expansion and peak RSS per rung.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_scale \
//!     [-- --rungs small|medium|full --seed n --reps k --out path
//!      --baseline BENCH_scale.json]
//! ```
//!
//! Rungs run in ascending instance size. Peak RSS is the process
//! high-water mark (`VmHWM`) sampled after each rung, so a rung's
//! figure includes everything smaller that ran before it — with
//! ascending order the largest rung dominates its own number, which is
//! the quantity the regression gate cares about.
//!
//! With `--baseline`, every rung present in both the run and the named
//! report is compared by [`GATES`] on ns/connection (25%) and peak RSS
//! (50%); rungs missing from the baseline are skipped with a note, so
//! the PR-sized `--rungs small`/`medium` runs gate cleanly against the
//! committed full-sweep baseline. A peak RSS of 0 means
//! `/proc/self/status` was unreadable, so that leg is skipped.

use bench_suite::harness::{ladder, time_initial_route};
use bench_suite::ledger::{self, fixed, Bound, Flags, Gate, Verdict};
use sadp_trace::json::Value;

/// Per rung: ns/connection may rise at most 25% and peak RSS at most
/// 50% over the baseline.
const GATES: [Gate; 2] = [
    ("ns_per_connection", Bound::Rise(0.25)),
    ("peak_rss_kb", Bound::Rise(0.5)),
];

/// The sweep ladder, ascending by net count, with the level (0 small =
/// PR-fast, 1 medium, 2 full = nightly / baseline refresh) that adds
/// each rung.
const RUNGS: [(&str, u8); 6] = [
    ("ecc-0.05", 0),
    ("ecc-0.25", 0),
    ("ecc-1.0", 0),
    ("div-1.0", 1),
    ("top-1.0", 2),
    ("synth-100k", 2),
];

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

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[("--rungs", "small|medium|full"), ("--reps", "k")],
        "BENCH_scale.json",
    );
    let level = flags.choice("--rungs", &["small", "medium", "full"], 2) as u8;
    let reps = flags.get("--reps", 1usize);

    // Serial, ascending: rung order is what keeps the cumulative
    // VmHWM figures attributable (see module docs).
    let rungs = ladder(&RUNGS, level);
    let mut rows = Vec::new();
    for (name, spec) in &rungs {
        let r = (0..reps.max(1))
            .map(|_| time_initial_route(spec, seed))
            .min_by_key(|run| run.total_ns)
            .expect("at least one rep ran");
        let rss_kb = peak_rss_kb();
        assert_eq!(
            r.failed, 0,
            "{name}: initial routing failed {} nets",
            r.failed
        );
        eprintln!(
            "  {name}: {} nets on {}x{}, {:.0} ns/conn ({} conns), {:.1} ns/expansion \
             ({} expansions), {:.1} s total, peak RSS {} MiB",
            r.routed,
            spec.width,
            spec.height,
            r.ns_per_connection(),
            r.connections,
            r.ns_per_expansion(),
            r.expansions,
            r.total_ns as f64 / 1e9,
            rss_kb / 1024
        );
        rows.push(Value::obj([
            ("name", Value::from(*name)),
            ("nets", Value::from(r.routed)),
            ("grid", Value::from(vec![spec.width, spec.height])),
            ("connections", Value::from(r.connections)),
            ("ns_per_connection", fixed(r.ns_per_connection(), 1)),
            ("expansions", Value::from(r.expansions)),
            ("ns_per_expansion", fixed(r.ns_per_expansion(), 1)),
            ("total_ms", fixed(r.total_ns as f64 / 1e6, 1)),
            ("peak_rss_kb", Value::from(rss_kb)),
        ]));
    }
    let fields = vec![("reps", Value::from(reps)), ("rungs", Value::Arr(rows))];
    let doc = ledger::write(&out, "scale-sweep", seed, fields);
    println!("{} rung(s) -> {out}", rungs.len());

    let mut verdict = Verdict::new(baseline.as_ref());
    for (name, _) in &rungs {
        for gate in &GATES {
            verdict.gate(&doc, Some(name), gate);
        }
    }
    verdict.finish();
}
