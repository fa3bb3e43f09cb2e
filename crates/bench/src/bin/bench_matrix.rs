//! Serial-vs-parallel benchmark of the experiment matrix, in two
//! dimensions:
//!
//! * **Across instances** — runs the circuit × arm matrix once with
//!   the execution pool pinned to one thread and once at the requested
//!   width (`speedup`): the pre-existing task-level parallelism.
//! * **Within one instance** — runs the same matrix *sequentially*,
//!   so each routing session's sharded R&R scheduler is the only
//!   parallelism (`intra_speedup`).
//!
//! Both dimensions must produce byte-identical fingerprints at every
//! width (the determinism contract); the intra sweep additionally
//! checks thread counts 2/4/8. Emits `BENCH_matrix.json` with the
//! wall-clocks, both speedups, and the 16 fingerprints.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_matrix \
//!     [-- --scale f --seed n --threads k --circuits a,b --out path \
//!         --baseline BENCH_matrix.json]
//! ```
//!
//! With `--baseline`, the run turns into a regression gate: it fails
//! (exit 1) when any fingerprint differs from the committed baseline,
//! or — on hosts with ≥ 4 cores at ≥ 4 threads — when `intra_speedup`
//! falls below [`FLOOR`]'s 1.5x. Speedups reflect the machine: on a
//! single-core container both are ~1.0x by construction, so the floor
//! is only enforced on multi-core hosts.

use std::time::Instant;

use bench_suite::harness::select_suite;
use bench_suite::ledger::{self, fixed, host_cores, Bound, Flags, Gate, Verdict};
use bench_suite::{four_arms, run_arm, ArmInput, ArmMetrics, RunArgs};
use sadp_grid::SadpKind;
use sadp_trace::json::Value;

/// The intra-instance sharded speedup must reach 1.5x, checked on
/// hosts with 4 or more cores at 4 or more threads.
const FLOOR: Gate = ("intra_speedup", Bound::AtLeast(1.5));

/// Everything deterministic about one arm's outcome — CPU times are
/// excluded, they legitimately differ run to run.
fn fingerprint(m: &ArmMetrics) -> String {
    format!(
        "wl={} vias={} dv={} uv={} routed={}",
        m.wl, m.vias, m.dv, m.uv, m.routed
    )
}

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

/// The intra-instance leg: the matrix tasks run strictly one after
/// another on the main thread, so the only concurrency is each
/// session's sharded R&R scheduler on the pool.
fn run_matrix_intra(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<String>, f64) {
    let arms = four_arms(SadpKind::Sim);
    let t0 = Instant::now();
    let mut prints = Vec::with_capacity(inputs.len() * arms.len());
    sadp_exec::with_threads(threads, || {
        for input in inputs {
            for (name, config) in arms {
                let m = run_arm(input, config, args);
                prints.push(format!("{}/{}: {}", input.name, name, fingerprint(&m)));
            }
        }
    });
    (prints, t0.elapsed().as_secs_f64())
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
    let (serial_fp, serial_secs) = run_matrix(&inputs, &run_args, 1);
    eprintln!("  across, serial (1 thread):    {serial_secs:.2}s");
    let (parallel_fp, parallel_secs) = run_matrix(&inputs, &run_args, threads);
    eprintln!("  across, parallel ({threads} threads): {parallel_secs:.2}s");

    // The determinism contract: identical metrics for any width.
    assert_eq!(
        serial_fp, parallel_fp,
        "serial and parallel matrix results diverged"
    );

    // Intra-instance leg: instances strictly sequential, sharded R&R
    // inside each. The sweep widths double as determinism probes.
    let (intra_serial_fp, intra_serial_secs) = run_matrix_intra(&inputs, &run_args, 1);
    eprintln!("  intra, serial (1 thread):     {intra_serial_secs:.2}s");
    assert_eq!(
        serial_fp, intra_serial_fp,
        "sequential and pooled serial runs diverged"
    );
    let mut intra_parallel_secs = intra_serial_secs;
    let mut widths = vec![2usize, 4, 8];
    if !widths.contains(&threads) {
        widths.push(threads);
    }
    for width in widths {
        let (fp, secs) = run_matrix_intra(&inputs, &run_args, width);
        eprintln!("  intra, sharded ({width} threads):   {secs:.2}s");
        assert_eq!(serial_fp, fp, "sharded run at {width} threads diverged");
        if width == threads {
            intra_parallel_secs = secs;
        }
    }
    eprintln!(
        "  determinism: all {} arm fingerprints identical across every width",
        serial_fp.len()
    );

    let speedup = serial_secs / parallel_secs.max(1e-9);
    let intra_speedup = intra_serial_secs / intra_parallel_secs.max(1e-9);
    let fields = vec![
        ("scale", Value::from(scale)),
        ("circuits", Value::from(suite.len())),
        ("arms", Value::from(4usize)),
        ("threads", Value::from(threads)),
        ("serial_secs", fixed(serial_secs, 3)),
        ("parallel_secs", fixed(parallel_secs, 3)),
        ("speedup", fixed(speedup, 3)),
        ("intra_serial_secs", fixed(intra_serial_secs, 3)),
        ("intra_parallel_secs", fixed(intra_parallel_secs, 3)),
        ("intra_speedup", fixed(intra_speedup, 3)),
        ("identical_outputs", Value::Bool(true)),
        ("fingerprints", Value::from(serial_fp)),
    ];
    let doc = ledger::write(&out, "experiment-matrix", seed, fields);
    println!(
        "matrix speedup at {threads} threads: across {speedup:.2}x, intra {intra_speedup:.2}x \
         -> {out}"
    );

    // Regression gate against a committed baseline; the speedup floor
    // only means something with real cores.
    let mut verdict = Verdict::new(baseline.as_ref());
    verdict.identical(&doc, "fingerprints");
    if verdict.gating() {
        if host_cores >= 4 && threads >= 4 {
            verdict.gate(&doc, None, &FLOOR);
        } else {
            eprintln!("  intra_speedup floor skipped ({host_cores} cores, {threads} threads)");
        }
    }
    verdict.finish();
}
