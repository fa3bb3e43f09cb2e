//! Serial-vs-parallel benchmark of the experiment matrix: runs the
//! circuit × arm matrix with the execution pool pinned to one thread
//! and at the requested width, one instance per pool task. After one
//! untimed warm-up pass the two legs run in ABBA order, three rounds,
//! and each keeps its minimum; their ratio is the `speedup`, so at
//! `--threads 1` it reads about 1.00. Every run must produce
//! byte-identical fingerprints (the determinism contract). Emits
//! `BENCH_matrix.json` with the wall-clocks, the speedup, and the 16
//! fingerprints.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_matrix \
//!     [-- --scale f --seed n --threads k --circuits a,b --out path \
//!         --baseline BENCH_matrix.json]
//! ```
//!
//! With `--baseline`, the run turns into a regression gate: it fails
//! (exit 1) when any fingerprint differs from the committed baseline.
//! The speedup reflects the machine (~1.0x on a single core) and is
//! recorded, not gated.

use std::time::Instant;

use bench_suite::harness::select_suite;
use bench_suite::ledger::{self, fixed, host_cores, Flags, Verdict};
use bench_suite::{four_arms, run_arm, ArmInput, ArmMetrics, RunArgs};
use sadp_grid::SadpKind;
use sadp_trace::json::Value;

/// Everything deterministic about one arm's outcome — CPU times are
/// excluded, they legitimately differ run to run.
fn fingerprint(m: &ArmMetrics) -> String {
    format!(
        "wl={} vias={} dv={} uv={} routed={}",
        m.wl, m.vias, m.dv, m.uv, m.routed
    )
}

/// Timed ABBA rounds. The matrix at the default scale runs in about
/// 80 ms on a 2-core VM, and one run's time moves by a tenth or more
/// with the host's load, so each leg keeps the fastest of six.
const ROUNDS: usize = 3;

fn run_matrix(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<String>, f64) {
    let arms = four_arms(SadpKind::Sim);
    let tasks: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..arms.len()).map(move |a| (s, a)))
        .collect();
    let t0 = Instant::now();
    let metrics = sadp_exec::with_threads(threads, || {
        sadp_exec::map(&tasks, |&(s, a)| run_arm(&inputs[s], arms[a].1, args))
    });
    let secs = t0.elapsed().as_secs_f64();
    let prints = tasks
        .iter()
        .zip(&metrics)
        .map(|(&(s, a), m)| format!("{}/{}: {}", inputs[s].name, arms[a].0, fingerprint(m)))
        .collect();
    (prints, secs)
}

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[
            ("--scale", "f"),
            ("--threads", "k"),
            ("--circuits", "a,b,..."),
        ],
        "BENCH_matrix.json",
    );
    let scale = flags.get("--scale", 0.05f64);
    let threads = flags.get("--threads", 4usize);
    let circuits = flags.list("--circuits", &["ecc", "efc", "ctl", "alu"]);

    let suite = select_suite(&circuits, scale);
    let run_args = RunArgs::default();

    let host_cores = host_cores();
    eprintln!(
        "matrix: {} circuits x 4 arms, scale {scale}, seed {seed} \
         (host has {host_cores} hardware threads)",
        suite.len(),
    );
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, seed))
        .collect();
    // An untimed serial pass warms caches and the allocator; then
    // `ROUNDS` times the legs run serial, parallel, parallel, serial,
    // and each keeps its fastest time, so neither leg gains from its
    // place in the order.
    let (serial_fp, _) = run_matrix(&inputs, &run_args, 1);
    let mut best = [f64::INFINITY; 2];
    for leg in (0..ROUNDS).flat_map(|_| [0, 1, 1, 0]) {
        let width = [1, threads][leg];
        let (fp, secs) = run_matrix(&inputs, &run_args, width);
        // The determinism contract: identical metrics for any width.
        assert_eq!(fp, serial_fp, "matrix results diverged at {width} threads");
        best[leg] = best[leg].min(secs);
    }
    let [serial_secs, parallel_secs] = best;
    eprintln!("  serial (1 thread):    {serial_secs:.2}s");
    eprintln!("  parallel ({threads} threads): {parallel_secs:.2}s");
    eprintln!(
        "  determinism: all {} arm fingerprints identical at 1 and {threads} threads",
        serial_fp.len()
    );

    let speedup = serial_secs / parallel_secs.max(1e-9);
    let fields = vec![
        ("scale", Value::from(scale)),
        ("circuits", Value::from(suite.len())),
        ("arms", Value::from(4usize)),
        ("threads", Value::from(threads)),
        ("serial_secs", fixed(serial_secs, 3)),
        ("parallel_secs", fixed(parallel_secs, 3)),
        ("speedup", fixed(speedup, 3)),
        ("identical_outputs", Value::Bool(true)),
        ("fingerprints", Value::from(serial_fp)),
    ];
    let doc = ledger::write(&out, "experiment-matrix", seed, fields);
    println!("matrix speedup at {threads} threads: {speedup:.2}x -> {out}");

    // Regression gate against a committed baseline.
    let mut verdict = Verdict::new(baseline.as_ref());
    verdict.identical(&doc, "fingerprints");
    verdict.finish();
}
