//! What a workload returns, the metric dictionary, and the two output
//! forms: the `name value unit` lines ending in the one-line JSON
//! verdict on stdout, and the per-run result file `compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sadp_grid::Netlist;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// End-to-end metrics, printed by every untraced run of every
/// workload (README.md defines each per workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("wirelength_per_hpwl", "ratio"),
    ("vias_per_pin", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("benchgen.generate_s", "s"),
    ("core.session_new_s", "s"),
    ("core.initial_route_s", "s"),
    ("core.negotiate_s", "s"),
    ("core.tpl_removal_s", "s"),
    ("core.ensure_colorable_s", "s"),
    ("core.finish_s", "s"),
    ("rnr.congestion_iterations", "count"),
    ("rnr.reroutes", "count"),
    ("rnr.reroute_failures", "count"),
    ("rnr.reroute_success_ratio", "ratio"),
    ("rnr.congestion_hits", "count"),
    ("rnr.tpl_iterations", "count"),
    ("rnr.fvp_hits", "count"),
    ("coloring.attempts", "count"),
    ("dvi.build_s", "s"),
    ("dvi.solve_s", "s"),
    ("dvi.vias", "count"),
    ("dvi.candidates", "count"),
    ("dvi.conflicts", "count"),
    ("dvi.inserted", "count"),
    ("dvi.dead_vias", "count"),
    ("dvi.protection_rate", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.parse_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("service.submit_rtt_p50_us", "us"),
    ("service.submit_rtt_p99_us", "us"),
    ("service.poll_rtt_p50_us", "us"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.run_p50_ms", "ms"),
    ("service.over_limit_jobs", "count"),
    ("service.phase.initial_routing_ms", "ms"),
    ("service.phase.congestion_negotiation_ms", "ms"),
    ("service.phase.tpl_violation_removal_ms", "ms"),
    ("service.phase.coloring_fix_ms", "ms"),
    ("service.phase.audit_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("journal.live", "count"),
    ("check.full_audit_s", "s"),
    ("check.mask_audit_s", "s"),
    ("check.defects", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.calibration_ms", "ms"),
];

/// Totals behind the two quality metrics, summed over the solutions a
/// workload checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    pub wirelength: u64,
    pub vias: u64,
    /// Half-perimeter of every net's pin box: the wirelength floor.
    pub hpwl: u64,
    pub pins: u64,
    /// Dead vias left by post-route DVI (flow-paper only).
    pub dead_vias: u64,
}

impl Quality {
    /// Adds the routing floor of `netlist` (HPWL and pin count).
    pub fn add_netlist(&mut self, netlist: &Netlist) {
        for (_, net) in netlist.iter() {
            let pins = net.pins();
            let (x0, x1) = min_max(pins.iter().map(|p| p.x));
            let (y0, y1) = min_max(pins.iter().map(|p| p.y));
            self.hpwl += (x1 - x0 + y1 - y0) as u64;
            self.pins += pins.len() as u64;
        }
    }
}

fn min_max(values: impl Iterator<Item = i32>) -> (i32, i32) {
    values.fold((i32::MAX, i32::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// One checked instance of a flow workload (a row of the result file).
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub latency_ms: f64,
    pub wirelength: u64,
    pub vias: u64,
    pub dead_vias: u64,
    pub defects: u64,
}

/// Everything a workload measured in one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up, scaled to the reference host
    /// (`calibrate.rs`).
    pub setups: Vec<f64>,
    /// Milliseconds per operation, scaled to the reference host, from
    /// untraced operations only: one per circuit (its median flow) on
    /// the flows, one per job on service-mix.
    pub latencies_ms: Vec<f64>,
    /// The calibration kernel's median time in the run.
    pub calibration_ms: f64,
    pub quality: Quality,
    pub attempted: u64,
    /// Operations whose result the program itself reports as not
    /// legal, or that never returned one.
    pub failed: u64,
    /// Violations the audits found that the program has no verdict on
    /// (see `flow::audit`): counted, not failed.
    pub defects: u64,
    /// Broken output contracts: an audit contradicting the program's
    /// verdict, or a repeated flow whose fingerprint changed.
    pub problems: Vec<String>,
    /// Per-layer values (traced runs); names must be in [`PER_LAYER`].
    pub layers: BTreeMap<&'static str, f64>,
    pub rows: Vec<Row>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<f64> {
        vec![
            median(&self.setups),
            percentile(&self.latencies_ms, 50.0),
            percentile(&self.latencies_ms, 99.0),
            peak_rss_mb,
            ratio(self.quality.wirelength, self.quality.hpwl),
            ratio(self.quality.vias, self.quality.pins),
        ]
    }

    /// Every per-layer metric in [`PER_LAYER`] order, 0 where the
    /// workload did not set it.
    ///
    /// # Panics
    ///
    /// On a layer name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn per_layer(&self) -> Vec<f64> {
        for name in self.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "undeclared per-layer metric {name}"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, _)| match name {
                "bench.calibration_ms" => self.calibration_ms,
                _ => self.layers.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Linearly interpolated percentile (`p` in 0..=100); 0 for no data.
/// Its quartiles are Python's
/// `statistics.quantiles(values, n=4, method="inclusive")`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit the checkout is at, from `.git` in the working
/// directory, or `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Formats a metric value with all its digits (shortest round-trip
/// form), as JSON and the text lines both use.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn verdict_line(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// The result file of one run: provenance, verdict, quality totals,
/// sample counts, every metric, and the per-circuit rows of the flow
/// workloads.
pub fn result_json(
    workload: &str,
    args: &crate::Args,
    outcome: &Outcome,
    metrics: &[(&str, &str, f64)],
) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let q = &outcome.quality;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{workload}\",");
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", num(args.seconds.as_secs_f64()));
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"quick\": {},", args.quick);
    let _ = writeln!(out, "  \"commit\": \"{}\",", commit());
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"exec_threads\": {},", crate::EXEC_THREADS);
    // The metrics' times are scaled to the reference host
    // (`calibrate.rs`); the rows' times are as measured.
    let _ = writeln!(
        out,
        "  \"calibration_ms\": {},",
        num(outcome.calibration_ms)
    );
    let _ = writeln!(out, "  \"correct\": {},", outcome.correct());
    let _ = writeln!(out, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(out, "  \"failed\": {},", outcome.failed);
    let _ = writeln!(out, "  \"defects\": {},", outcome.defects);
    let problems: Vec<String> = outcome
        .problems
        .iter()
        .map(|s| format!("\"{}\"", sadp_service::wire::escape(s)))
        .collect();
    let _ = writeln!(out, "  \"problems\": [{}],", problems.join(", "));
    let _ = writeln!(
        out,
        "  \"quality\": {{\"wirelength\": {}, \"vias\": {}, \"hpwl\": {}, \"pins\": {}, \"dead_vias\": {}}},",
        q.wirelength, q.vias, q.hpwl, q.pins, q.dead_vias
    );
    // The latency percentiles stand on this many samples (per-circuit
    // medians on the flow workloads), `setup_s` on this many set-ups.
    let _ = writeln!(
        out,
        "  \"samples\": {{\"setups\": {}, \"latencies\": {}}},",
        outcome.setups.len(),
        outcome.latencies_ms.len()
    );
    out.push_str("  \"metrics\": {\n");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n  \"rows\": [\n");
    for (i, r) in outcome.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"latency_ms\": {}, \"wirelength\": {}, \"vias\": {}, \"dead_vias\": {}, \"defects\": {}}}",
            r.name,
            num(r.latency_ms),
            r.wirelength,
            r.vias,
            r.dead_vias,
            r.defects
        );
        out.push_str(if i + 1 < outcome.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_interpolates_between_ranks() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let q: Vec<f64> = [25.0, 50.0, 75.0]
            .iter()
            .map(|&p| percentile(&v, p))
            .collect();
        assert_eq!(q, [3.25, 5.5, 7.75]);
        assert!((percentile(&v, 99.0) - 9.91).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
