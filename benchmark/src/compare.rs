//! `sadp-bench compare PARENT_DIR CHILD_DIR`: applies the bounds in
//! `BENCHMARK.json` (read from the working directory) to two sets of
//! untraced result files.
//!
//! Per workload and end-to-end metric it prints each side's median
//! and quartiles, then a verdict: `regression` when the child's median
//! is worse than the parent's by more than the bound, `unresolved`
//! when the parent's own quartile spread is wider than the bound
//! (unless every child run beats every parent run), `ok` otherwise.
//! It exits 1 on any regression.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use sadp_service::wire::{self, Value};

use crate::report::percentile;

/// Runs needed on each side of every workload.
const MIN_RUNS: usize = 5;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn main(argv: &[String]) -> ExitCode {
    let [parent, child] = argv else {
        eprintln!("usage: sadp-bench compare PARENT_DIR CHILD_DIR");
        return ExitCode::from(2);
    };
    match compare(Path::new(parent), Path::new(child)) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    wire::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let spec = read_json(Path::new("BENCHMARK.json"))?;
    let Some(Value::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".into()),
            }
        })
        .collect()
}

/// Every untraced full-size result file in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let result = read_json(&path)?;
        let flag = |k| matches!(result.get(k), Some(Value::Bool(true)));
        if flag("trace") || flag("quick") {
            continue;
        }
        let workload = result
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// First quartile, median, third quartile.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 25.0),
        percentile(values, 50.0),
        percentile(values, 75.0),
    )
}

fn compare(parent_dir: &Path, child_dir: &Path) -> Result<bool, String> {
    let bounds = bounds()?;
    let parent = load(parent_dir)?;
    let child = load(child_dir)?;
    let mut regressed = false;
    println!(
        "{:<12} {:<20} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "child median [q1, q3]", "change"
    );
    for (workload, p_metrics) in &parent {
        let c_metrics = child
            .get(workload)
            .ok_or_else(|| format!("{workload}: no runs in {}", child_dir.display()))?;
        for b in &bounds {
            let (Some(p), Some(c)) = (p_metrics.get(&b.name), c_metrics.get(&b.name)) else {
                return Err(format!("{workload}: metric {} missing", b.name));
            };
            if p.len() < MIN_RUNS || c.len() < MIN_RUNS {
                return Err(format!(
                    "{workload}: {} parent and {} child runs, need {MIN_RUNS} each",
                    p.len(),
                    c.len()
                ));
            }
            let (p1, pm, p3) = quartiles(p);
            let (c1, cm, c3) = quartiles(c);
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (cm - pm) / pm;
            let spread = (p3 - p1) / pm;
            let all_better = c
                .iter()
                .all(|&cv| p.iter().all(|&pv| sign * (cv - pv) < 0.0));
            let verdict = if spread > b.bound && !all_better {
                "unresolved"
            } else if worse > b.bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<12} {:<20} {:>30} {:>30} {:>7.2}%  {verdict}",
                b.name,
                format!("{pm:.4} [{p1:.4}, {p3:.4}]"),
                format!("{cm:.4} [{c1:.4}, {c3:.4}]"),
                (cm - pm) / pm * 100.0
            );
        }
    }
    Ok(regressed)
}
