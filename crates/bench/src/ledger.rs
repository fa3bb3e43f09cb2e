//! The bench ledger every `bench_*` binary shares: one flag parser,
//! one result-file writer, one baseline reader and one comparator.
//!
//! A binary declares its gates as constants beside the code that runs
//! them: a metric and a [`Bound`], either relative (a row's metric may
//! get worse than the committed baseline by at most a fraction) or
//! absolute (a floor). [`Verdict`] applies them and decides the exit
//! code.

use std::str::FromStr;

use sadp_trace::json::{self, Value};

/// One accepted flag and the placeholder its usage line shows.
pub type FlagSpec = (&'static str, &'static str);

/// The `--flag value` pairs of one command line; the last value of a
/// repeated flag wins.
#[derive(Debug)]
pub struct Flags {
    spec: Vec<FlagSpec>,
    values: Vec<(&'static str, String)>,
}

/// The flags every `bench_*` binary takes besides its own.
const BENCH_FLAGS: [FlagSpec; 3] = [("--seed", "n"), ("--out", "path"), ("--baseline", "path")];

impl Flags {
    /// Parses the process arguments against `spec`. `--help` prints
    /// the usage line and exits 0; an unknown flag or a missing value
    /// prints one line and exits 2.
    pub fn parse(spec: &[FlagSpec]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Flags::from_args(&args, spec.to_vec()) {
            Ok(Some(flags)) => flags,
            Ok(None) => {
                let usage: Vec<String> = spec.iter().map(|(f, v)| format!("[{f} {v}]")).collect();
                eprintln!("usage: {}", usage.join(" "));
                std::process::exit(0);
            }
            Err(e) => exit_usage(&format!("{e} (try --help)")),
        }
    }

    /// `Ok(None)` when `--help` was asked for.
    fn from_args(args: &[String], spec: Vec<FlagSpec>) -> Result<Option<Flags>, String> {
        let mut values = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let Some(&(name, _)) = spec.iter().find(|(name, _)| name == arg) else {
                return Err(format!("unknown argument {arg}"));
            };
            let value = args.next().ok_or(format!("missing value for {name}"))?;
            values.push((name, value.clone()));
        }
        Ok(Some(Flags { spec, values }))
    }

    /// [`Flags::parse`] for a `bench_*` binary: its own `spec` plus
    /// `--seed n` (default 1), `--out path` (default `out`) and
    /// `--baseline path`, returned parsed after the flags.
    pub fn bench(spec: &[FlagSpec], out: &str) -> (Flags, u64, String, Option<Baseline>) {
        let flags = Flags::parse(&[spec, &BENCH_FLAGS].concat());
        let (seed, out) = (flags.get("--seed", 1), flags.get("--out", out.to_string()));
        let baseline = flags.baseline();
        (flags, seed, out, baseline)
    }

    /// The value of `flag` as given.
    fn raw(&self, flag: &str) -> Option<&str> {
        let given = self.values.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// `flag` parsed as `T`, if given; a value that does not parse
    /// prints one line and exits 2.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.raw(flag)?;
        Some(raw.parse().unwrap_or_else(|_| self.bad_value(flag, raw)))
    }

    /// `flag` parsed as `T`, or `default`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// A comma-separated `flag`, or `default`.
    pub fn list(&self, flag: &str, default: &[&str]) -> Vec<String> {
        match self.raw(flag) {
            Some(raw) => raw.split(',').map(|s| s.trim().to_string()).collect(),
            None => default.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The index of `flag`'s value in `choices`, or `default`; any
    /// other value prints one line and exits 2.
    pub fn choice(&self, flag: &str, choices: &[&str], default: usize) -> usize {
        self.raw(flag).map_or(default, |raw| {
            let at = choices.iter().position(|c| *c == raw);
            at.unwrap_or_else(|| self.bad_value(flag, raw))
        })
    }

    /// The `--baseline` file, read and parsed; an unreadable or
    /// malformed file prints one line and exits 2.
    fn baseline(&self) -> Option<Baseline> {
        let path = self.raw("--baseline")?;
        Some(Baseline::read(path).unwrap_or_else(|e| exit_usage(&e)))
    }

    fn bad_value(&self, flag: &str, raw: &str) -> ! {
        let spec = self.spec.iter().find(|(name, _)| *name == flag);
        let placeholder = spec.map_or("a value", |(_, v)| v);
        exit_usage(&format!("{flag} takes {placeholder}, got {raw:?}"))
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Hardware threads of this host, stamped into every result file.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `x` rounded to `decimals` places, as written to a result file.
pub fn fixed(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Num((x * scale).round() / scale)
}

/// Writes one result file to `path` — `bench`, `seed` and
/// `host_cores`, then `fields` in order — and returns the document the
/// gates read the run's values from.
pub fn write(path: &str, bench: &str, seed: u64, fields: Vec<(&str, Value)>) -> Value {
    let stamp = [
        ("bench", Value::from(bench)),
        ("seed", Value::from(seed)),
        ("host_cores", Value::from(host_cores())),
    ];
    let doc = Value::obj(stamp.into_iter().chain(fields));
    std::fs::write(path, doc.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    doc
}

/// `metric` of the row called `name` in any top-level array of `doc`
/// (`None`: of `doc` itself), if it is a number.
fn metric(doc: &Value, name: Option<&str>, metric: &str) -> Option<f64> {
    row(doc, name)?.get(metric)?.as_f64()
}

fn row<'a>(doc: &'a Value, name: Option<&str>) -> Option<&'a Value> {
    let Some(name) = name else {
        return Some(doc);
    };
    let Value::Obj(fields) = doc else {
        return None;
    };
    let rows = fields.iter().filter_map(|(_, v)| match v {
        Value::Arr(rows) => Some(rows),
        _ => None,
    });
    rows.flatten()
        .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
}

/// A committed result file, the reference a run is gated against.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    doc: Value,
}

impl Baseline {
    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file, named in the message.
    pub fn read(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
        let path = path.to_string();
        Ok(Baseline { path, doc })
    }

    /// The parsed document.
    pub fn doc(&self) -> &Value {
        &self.doc
    }

    /// `metric` of row `name` (`None`: top level), if it is a number.
    pub fn metric(&self, name: Option<&str>, metric_name: &str) -> Option<f64> {
        metric(&self.doc, name, metric_name)
    }
}

/// How a [`Gate`] bounds its metric: relative to the baseline, or
/// absolute (a floor, checked against the run alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// May rise at most this fraction over the baseline (0.03 = 3%).
    Rise(f64),
    /// May fall at most this fraction below the baseline.
    Fall(f64),
    /// Must be this value or less.
    AtMost(f64),
    /// Must be this value or more.
    AtLeast(f64),
}

impl Bound {
    fn relative(self) -> bool {
        matches!(self, Bound::Rise(_) | Bound::Fall(_))
    }

    /// The limit a value is held to, given the baseline's value.
    fn limit(self, was: f64) -> f64 {
        match self {
            Bound::Rise(b) => was * (1.0 + b),
            Bound::Fall(b) => was * (1.0 - b),
            Bound::AtMost(limit) | Bound::AtLeast(limit) => limit,
        }
    }

    fn holds(self, now: f64, limit: f64) -> bool {
        match self {
            Bound::Rise(_) | Bound::AtMost(_) => now <= limit,
            Bound::Fall(_) | Bound::AtLeast(_) => now >= limit,
        }
    }
}

/// One gate: a metric and its bound.
pub type Gate = (&'static str, Bound);

/// The comparator: applies gates to one run, printing one line per
/// check, and decides the exit code.
#[derive(Debug)]
pub struct Verdict<'a> {
    baseline: Option<&'a Baseline>,
    compared: usize,
    failures: usize,
}

impl<'a> Verdict<'a> {
    /// A verdict against `baseline`; without one, only absolute
    /// bounds are checked.
    pub fn new(baseline: Option<&'a Baseline>) -> Verdict<'a> {
        Verdict {
            baseline,
            compared: 0,
            failures: 0,
        }
    }

    /// `true` when a baseline was given.
    pub fn gating(&self) -> bool {
        self.baseline.is_some()
    }

    fn check(&mut self, label: &str, ok: bool, detail: &str) {
        self.failures += usize::from(!ok);
        eprintln!("  {label}: {detail} {}", if ok { "ok" } else { "FAIL" });
    }

    /// Checks `gate` on row `name` (`None`: top level) of `run`. An
    /// absolute bound always applies, and a missing value fails it. A
    /// relative bound applies only with a baseline: a row the baseline
    /// lacks is skipped (a partial run against a full baseline), a
    /// metric missing from a present row fails, and a value of zero or
    /// less on either side is unmeasured and skipped.
    pub fn gate(&mut self, run: &Value, name: Option<&str>, &(key, bound): &Gate) {
        let label = format!("{} {key}", name.unwrap_or("run"));
        let now = metric(run, name, key);
        if !bound.relative() {
            let limit = bound.limit(0.0);
            let shown = now.map_or("missing".into(), |n| n.to_string());
            let ok = now.is_some_and(|n| bound.holds(n, limit));
            return self.check(&label, ok, &format!("{shown} against {bound:?}"));
        }
        let Some(base) = self.baseline else {
            return;
        };
        if row(&base.doc, name).is_none() {
            eprintln!("  {label}: no such row in {}; skipping", base.path);
            return;
        }
        match (now, base.metric(name, key)) {
            (Some(now), Some(was)) if now > 0.0 && was > 0.0 => {
                self.compared += 1;
                let change = (now - was) / was * 100.0;
                let detail = format!("{now} vs {was} baseline ({change:+.1}%, {bound:?})");
                self.check(&label, bound.holds(now, bound.limit(was)), &detail);
            }
            (Some(now), Some(was)) => {
                eprintln!("  {label}: unmeasured ({now} vs {was} baseline); skipping");
            }
            _ => self.check(&label, false, "missing from the run or the baseline"),
        }
    }

    /// Requires top-level `key` of `run` to equal the baseline's.
    pub fn identical(&mut self, run: &Value, key: &str) {
        let Some(base) = self.baseline else {
            return;
        };
        self.compared += 1;
        let (now, was) = (run.get(key), base.doc.get(key));
        let mut detail = format!("identical to baseline {}", base.path);
        if let (Some(Value::Arr(now)), Some(Value::Arr(was))) = (now, was) {
            let same = now.iter().zip(was).filter(|(n, w)| n == w).count();
            detail += &format!(" ({same} of {} equal)", was.len());
            for (n, w) in now.iter().zip(was).filter(|(n, w)| n != w) {
                eprintln!("    baseline: {w}\n    current:  {n}");
            }
        }
        self.check(key, now.is_some() && now == was, &detail);
    }

    /// `Err` when a check failed, or a baseline was given and no row
    /// was compared.
    fn result(&self) -> Result<String, String> {
        let against = self.baseline.map(|b| format!(" against {}", b.path));
        let against = against.unwrap_or_default();
        if self.failures > 0 {
            return Err(format!("{} check(s) failed{against}", self.failures));
        }
        if self.compared == 0 && self.gating() {
            return Err(format!("no row of this run is in the baseline{against}"));
        }
        Ok(format!(
            "gates passed: {} comparison(s){against}",
            self.compared
        ))
    }

    /// Prints the outcome and exits 1 when the run fails its gates.
    pub fn finish(self) {
        match self.result() {
            Ok(summary) => println!("{summary}"),
            Err(reason) => {
                eprintln!("{reason}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[FlagSpec] = &[("--scale", "f"), ("--circuits", "a,b"), ("--rungs", "s|m")];

    fn flags(args: &[&str]) -> Result<Option<Flags>, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::from_args(&args, SPEC.to_vec())
    }

    #[test]
    fn flags_parse_values_lists_and_choices() {
        let f = flags(&[
            "--scale",
            "0.5",
            "--circuits",
            "ecc, alu",
            "--scale",
            "0.25",
        ]);
        let f = f.unwrap().unwrap();
        assert_eq!(f.get("--scale", 1.0), 0.25, "the last value wins");
        assert_eq!(f.list("--circuits", &["x"]), ["ecc", "alu"]);
        assert_eq!(f.choice("--rungs", &["s", "m"], 1), 1);
        assert_eq!(f.opt::<u64>("--seed"), None);
        assert!(flags(&["--tolerance", "3"]).is_err(), "unknown flag");
        assert!(flags(&["--scale"]).is_err(), "missing value");
        assert!(flags(&["--scale", "1", "--help"]).unwrap().is_none());
    }

    const RUN: &str = r#"{"rows": [{"name": "a", "ns": 124, "x": 7, "rss": 5}, {"name": "b", "ns": 1}],
        "jobs_per_sec": 20, "overhead": 12, "prints": ["p", "q"]}"#;

    /// The checks' result against a fixed baseline and [`RUN`].
    fn verdict(checks: impl FnOnce(&mut Verdict, &Value)) -> Result<String, String> {
        let base = Baseline {
            path: "base.json".into(),
            doc: json::parse(
                r#"{"rows": [{"name": "a", "ns": 100, "x": 10, "rss": 0}],
                    "jobs_per_sec": 50, "prints": ["p", "q"]}"#,
            )
            .unwrap(),
        };
        let mut v = Verdict::new(Some(&base));
        checks(&mut v, &json::parse(RUN).unwrap());
        v.result()
    }

    #[test]
    fn the_comparator_applies_bounds_floors_and_identity() {
        let a = Some("a");
        assert!(verdict(|v, r| v.gate(r, a, &("ns", Bound::Rise(0.25)))).is_ok());
        assert!(verdict(|v, r| v.gate(r, a, &("x", Bound::Fall(0.25)))).is_err());
        assert!(verdict(|v, r| v.gate(r, None, &("jobs_per_sec", Bound::Fall(0.6)))).is_ok());
        assert!(verdict(|v, r| v.gate(r, a, &("missing", Bound::Rise(0.5)))).is_err());
        assert!(verdict(|v, r| v.identical(r, "prints")).is_ok());
        assert!(verdict(|v, r| {
            v.identical(r, "prints");
            v.gate(r, None, &("overhead", Bound::AtMost(10.0)));
        })
        .is_err());
        // A row the baseline lacks, or an unmeasured (zero) value,
        // compares nothing, and a baseline that compared nothing fails.
        let nothing = verdict(|v, r| {
            v.gate(r, Some("b"), &("ns", Bound::Rise(0.25)));
            v.gate(r, a, &("rss", Bound::Rise(0.5)));
        });
        assert!(nothing.unwrap_err().contains("no row"));
        // Without a baseline only absolute bounds apply.
        let run = json::parse(RUN).unwrap();
        let mut free = Verdict::new(None);
        free.gate(&run, a, &("ns", Bound::Rise(0.0)));
        assert!(free.result().is_ok());
        free.gate(&run, a, &("ns", Bound::AtLeast(200.0)));
        assert!(free.result().is_err());
    }
}
