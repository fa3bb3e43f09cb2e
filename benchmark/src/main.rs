//! `sadp-bench`: one benchmark for the whole SADP routing flow.
//!
//! ```text
//! sadp-bench [run] [--workload W] --seed N [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! sadp-bench compare PARENT_DIR CHILD_DIR
//! ```
//!
//! `run` measures one workload and prints every metric as
//! `name value unit`, then a one-line JSON verdict as the last stdout
//! line. `--trace 1` is the separate traced run: it prints the
//! per-layer metrics instead of the end-to-end ones. Without
//! `--workload`, `run` runs each workload in a child process of its
//! own, so peak RSS belongs to one workload. `--out DIR` also writes a
//! result file per run, which `compare` reads. README.md has the
//! workloads and the metric dictionary.

mod calibrate;
mod compare;
mod flow;
mod report;
mod service;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use report::{Outcome, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 3] = ["flow-paper", "top-route", "service-mix"];

/// Exec-pool width of every run. One thread: on a shared two-core
/// host a second thread competes with other tenants for the second
/// core and widens the run-to-run spread of the flow time (README.md).
pub const EXEC_THREADS: &str = "1";

const USAGE: &str = "usage: sadp-bench [run] [--workload W] --seed N [--seconds S] [--trace 0|1] \
                     [--out DIR] [--quick]\n       sadp-bench compare PARENT_DIR CHILD_DIR";

/// Parsed `run` arguments.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// Tiny instances, for the smoke test.
    pub quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        out: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} (one of {WORKLOADS:?})"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("run") => &argv[1..],
        _ => &argv[..],
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_workload(w, &args),
        None => run_each_workload(rest),
    }
}

/// Re-executes this binary once per workload and waits for each.
fn run_each_workload(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        match Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .status()
        {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w}: exited with {s}");
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    // Before any thread starts: the pool width is read from the
    // environment by every thread, service workers included.
    std::env::set_var("SADP_EXEC_THREADS", EXEC_THREADS);
    let result = match workload {
        "flow-paper" | "top-route" => flow::run(workload, args),
        _ => service::run(args),
    };
    let (outcome, rss) = match result.and_then(|o| report::peak_rss_mb().map(|rss| (o, rss))) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = metrics_of(&outcome, rss, args.trace);
    for (name, unit, value) in &metrics {
        println!("{name} {} {unit}", report::num(*value));
    }
    for p in &outcome.problems {
        eprintln!("{workload}: {p}");
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_result(dir, workload, args, &outcome, rss) {
            eprintln!("{workload}: cannot write result to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::verdict_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

fn metrics_of(outcome: &Outcome, rss: f64, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let (names, values): (&[(&str, &str)], Vec<f64>) = if trace {
        (&PER_LAYER, outcome.per_layer())
    } else {
        (&END_TO_END, outcome.end_to_end(rss))
    };
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

fn write_result(
    dir: &std::path::Path,
    workload: &str,
    args: &Args,
    outcome: &Outcome,
    rss: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut metrics = metrics_of(outcome, rss, false);
    if args.trace {
        metrics.extend(metrics_of(outcome, rss, true));
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}-{stamp}.json",
        args.seed, args.trace as u8
    ));
    std::fs::write(path, report::result_json(workload, args, outcome, &metrics))
}
