//! `service-mix`: an open-loop stream of routing jobs through the
//! daemon's wire protocol.
//!
//! One generator thread drives `wire::serve` (the loop `sadpd` wraps)
//! over one in-process socket pair, on a durable service (one worker,
//! journal in a fresh directory). Jobs arrive on a fixed schedule of
//! [`RATE`] per second whatever the service does; a job's latency runs
//! from its due time to the first poll that sees it done, so a stall
//! also delays the jobs queued behind it. The mix: SIM/SID synthetic
//! jobs of 20-56 nets in all three priority bands, and every 50th a
//! 400-net low-priority bulk job cycling three fixed layouts (the
//! layout cache serves their repeats). Whenever no job is in flight
//! and the next one is not due for a while, the generator times a
//! small calibration kernel once, and the run's times are scaled to
//! the reference host by the kernel's median (`calibrate.rs`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sadp_grid::SadpKind;
use sadp_service::wire::{self, Value};
use sadp_service::{DurabilityConfig, JobSource, Priority, RouteRequest, Service, ServiceConfig};

use crate::calibrate::{Calibration, GAP_KERNEL};
use crate::report::{mean, median, percentile, Outcome, Quality, SETUPS};
use crate::Args;

/// Offered load, jobs per second: about a quarter of what one worker
/// completes on the reference host (~110-125 jobs/s), and half of it
/// when other tenants slow the host down, so queues stay short and
/// latency measures the service, not a growing backlog.
const RATE: f64 = 28.0;
/// The latency limit on p99.
const LIMIT_MS: f64 = 250.0;
/// How long the generator waits for the last jobs after the final
/// arrival before counting them missing.
const DRAIN: Duration = Duration::from_secs(60);
/// The generator times the calibration kernel (~2-5 ms) only when the
/// next job is due at least this much later, so no job waits for it.
const GAP: Duration = Duration::from_millis(10);

/// The job stream of a run. The small jobs come from the run's seed;
/// the bulk jobs cycle three fixed layouts, the same in every run,
/// because they set the tail latency.
fn requests(seed: u64, count: usize, quick: bool) -> Vec<RouteRequest> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E5);
    (0..count)
        .map(|i| {
            if i % 50 == 49 {
                let mut r = RouteRequest::new(
                    JobSource::Synthetic {
                        nets: if quick { 60 } else { 400 },
                        seed: (i / 50 % 3) as u64 + 1,
                    },
                    SadpKind::Sim,
                );
                r.priority = Priority::Low;
                return r;
            }
            let source = JobSource::Synthetic {
                nets: rng.gen_range(20..=56),
                seed: rng.next_u64(),
            };
            let kind = if rng.gen_bool(0.5) {
                SadpKind::Sim
            } else {
                SadpKind::Sid
            };
            let mut r = RouteRequest::new(source, kind);
            r.priority =
                [Priority::High, Priority::Normal, Priority::Low][rng.gen_range(0..3usize)];
            r
        })
        .collect()
}

/// A durable service behind `wire::serve` on one socket pair.
struct Daemon {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    thread: JoinHandle<std::io::Result<usize>>,
    dir: PathBuf,
    reply: String,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let (service, _) = Service::start_durable(config, DurabilityConfig::new(&dir))
            .map_err(|e| e.to_string())?;
        let io = |e: std::io::Error| e.to_string();
        let (client, server) = UnixStream::pair().map_err(io)?;
        let server_reader = BufReader::new(server.try_clone().map_err(io)?);
        let thread = std::thread::spawn(move || wire::serve(server_reader, server, service));
        Ok(Daemon {
            writer: client.try_clone().map_err(io)?,
            reader: BufReader::new(client),
            thread,
            dir,
            reply: String::new(),
        })
    }

    /// Sends one request line and returns the reply line.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        let io = |e: std::io::Error| format!("daemon connection: {e}");
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply).map_err(io)? == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(self.reply.trim_end())
    }

    /// Shuts the service down (cancelling any job still queued, so a
    /// stuck job cannot hold the run past its deadline), closes the
    /// connection, joins the serve thread, and removes the journal.
    fn stop(mut self) -> Result<(), String> {
        self.call(r#"{"op":"shutdown","mode":"now"}"#)?;
        self.writer
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| e.to_string())?;
        self.thread
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())
    }
}

/// A fresh journal directory inside the build directory.
fn journal_dir(k: usize) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join(format!("sadp-bench-journal-{}-{k}", std::process::id()))
}

/// Set-up: build the job list, derive each job's routing floor from
/// its layout, and start the durable daemon.
fn setup(
    args: &Args,
    count: usize,
    k: usize,
) -> Result<(Vec<RouteRequest>, Quality, Daemon), String> {
    let requests = requests(args.seed, count, args.quick);
    let mut floor = Quality::default();
    for r in &requests {
        floor.add_netlist(&r.source.materialize()?.1);
    }
    let dir = journal_dir(k);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok((requests, floor, Daemon::start(dir)?))
}

struct Pending {
    id: u64,
    index: usize,
    acked: Duration,
    running_seen: bool,
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("reply lacks {key:?}"))
}

fn as_bool(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("reply field {key:?} is not a boolean")),
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("reply field {key:?} is not a count"))
}

fn as_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("reply field {key:?} is not a string"))
}

#[derive(Default)]
struct Samples {
    submit_rtt_us: Vec<f64>,
    poll_rtt_us: Vec<f64>,
    encode_us: Vec<f64>,
    parse_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    phase_ms: BTreeMap<String, f64>,
}

/// Records one finished job: its verdict, quality, and embedded report.
fn finish_job(
    reply: &Value,
    request: &RouteRequest,
    out: &mut Outcome,
    samples: &mut Samples,
    fingerprints: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    if as_str(reply, "outcome")? != "completed" {
        out.failed += 1;
        return Ok(());
    }
    let clean = ["routed_all", "congestion_free", "fvp_free", "colorable"]
        .iter()
        .map(|k| as_bool(reply, k))
        .collect::<Result<Vec<bool>, String>>()?;
    if clean.contains(&false) {
        out.failed += 1;
    }
    out.quality.wirelength += as_u64(reply, "wirelength")?;
    out.quality.vias += as_u64(reply, "vias")?;
    // Identical requests (the bulk seeds) must route identically.
    let mut key = String::new();
    wire::encode_request(&mut key, request);
    let fp = as_str(reply, "fingerprint")?.to_string();
    if let Some(prev) = fingerprints.insert(key, fp.clone()) {
        if prev != fp {
            out.problems
                .push(format!("repeated job routed differently: {prev} vs {fp}"));
        }
    }
    let report = wire::parse(as_str(reply, "report")?)?;
    samples
        .run_ms
        .push(as_u64(&report, "span_total_ns")? as f64 / 1e6);
    if let Some(Value::Arr(phases)) = report.get("phases") {
        for p in phases {
            *samples
                .phase_ms
                .entry(as_str(p, "phase")?.to_string())
                .or_default() += as_u64(p, "wall_ns")? as f64 / 1e6;
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let count = ((RATE * args.seconds.as_secs_f64()).round() as usize).max(1);
    let mut out = Outcome::default();
    let mut calibration = Calibration::new(GAP_KERNEL);
    for k in 1..SETUPS {
        let t = Instant::now();
        let (_, _, daemon) = setup(args, count, k)?;
        out.setups
            .push(calibration.scale(t.elapsed().as_secs_f64()));
        daemon.stop()?;
    }
    let t = Instant::now();
    let (requests, floor, mut daemon) = setup(args, count, SETUPS)?;
    out.setups
        .push(calibration.scale(t.elapsed().as_secs_f64()));
    out.quality = floor;

    let due = |i: usize| Duration::from_secs_f64(i as f64 / RATE);
    let mut samples = Samples::default();
    let mut fingerprints = BTreeMap::new();
    let mut pending: Vec<Pending> = Vec::new();
    // Job latencies as measured.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut next = 0usize;
    let mut sampled_gap = 0usize;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        if next < count && now >= due(next) {
            samples.lag_ms.push((now - due(next)).as_secs_f64() * 1e3);
            let t = Instant::now();
            let mut line = String::from(r#"{"op":"submit","request":"#);
            wire::encode_request(&mut line, &requests[next]);
            line.push('}');
            samples.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let reply = daemon.call(&line)?;
            samples.submit_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let v = wire::parse(reply)?;
            samples.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            if as_bool(&v, "ok")? {
                pending.push(Pending {
                    id: as_u64(&v, "job")?,
                    index: next,
                    acked: start.elapsed(),
                    running_seen: false,
                });
            } else {
                out.failed += 1;
            }
            next += 1;
            continue;
        }
        if next == count && (pending.is_empty() || now > due(count) + DRAIN) {
            break;
        }
        let mut i = 0;
        while i < pending.len() {
            let line = format!(r#"{{"op":"poll","job":{}}}"#, pending[i].id);
            let t = Instant::now();
            let reply = daemon.call(&line)?;
            samples.poll_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            let seen = start.elapsed();
            let bytes = reply.len();
            let t = Instant::now();
            let v = wire::parse(reply)?;
            samples.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            let p = &mut pending[i];
            match as_str(&v, "state")? {
                "running" if !p.running_seen => {
                    p.running_seen = true;
                    samples
                        .queue_wait_ms
                        .push((seen - p.acked).as_secs_f64() * 1e3);
                }
                "done" => {
                    latencies_ms.push((seen - due(p.index)).as_secs_f64() * 1e3);
                    samples.reply_bytes.push(bytes as f64);
                    let request = &requests[p.index];
                    finish_job(&v, request, &mut out, &mut samples, &mut fingerprints)?;
                    pending.swap_remove(i);
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        let now = start.elapsed();
        // Once per gap between two arrivals, with nothing in flight.
        if pending.is_empty() && next < count && sampled_gap < next && due(next) > now + GAP {
            calibration.sample();
            sampled_gap = next;
            continue;
        }
        let wake = if next < count {
            due(next).min(now + Duration::from_millis(1))
        } else {
            now + Duration::from_millis(1)
        };
        std::thread::sleep(wake.saturating_sub(now));
    }
    // Jobs still pending after the drain window never finished.
    out.failed += pending.len() as u64;

    let stats = wire::parse(daemon.call(r#"{"op":"stats"}"#)?)?;
    let cache_hits = as_u64(&stats, "cache_hits")? as f64;
    let cache_misses = as_u64(&stats, "cache_misses")? as f64;
    let journal_live = as_u64(&stats, "journal_live")? as f64;
    daemon.stop()?;
    out.calibration_ms = calibration.median_ms();
    out.latencies_ms = latencies_ms
        .iter()
        .map(|&ms| calibration.scale_by_run(ms))
        .collect();

    if args.trace {
        let latency_total: f64 = latencies_ms.iter().sum();
        let over_limit =
            latencies_ms.iter().filter(|&&ms| ms > LIMIT_MS).count() as u64 + out.failed;
        let mut layers: BTreeMap<&'static str, f64> = [
            ("wire.encode_us", median(&samples.encode_us)),
            ("wire.parse_us", median(&samples.parse_us)),
            ("wire.reply_bytes", mean(&samples.reply_bytes)),
            ("service.submit_rtt_p50_us", median(&samples.submit_rtt_us)),
            (
                "service.submit_rtt_p99_us",
                percentile(&samples.submit_rtt_us, 99.0),
            ),
            ("service.poll_rtt_p50_us", median(&samples.poll_rtt_us)),
            ("service.queue_wait_p50_ms", median(&samples.queue_wait_ms)),
            (
                "service.queue_wait_p99_ms",
                percentile(&samples.queue_wait_ms, 99.0),
            ),
            ("service.run_p50_ms", median(&samples.run_ms)),
            ("service.over_limit_jobs", over_limit as f64),
            ("service.cache_hits", cache_hits),
            ("service.cache_misses", cache_misses),
            ("journal.live", journal_live),
            (
                "trace.coverage",
                samples.run_ms.iter().sum::<f64>() / latency_total,
            ),
            ("bench.gen_lag_p99_ms", percentile(&samples.lag_ms, 99.0)),
        ]
        .into_iter()
        .collect();
        for (phase, ms) in &samples.phase_ms {
            let name = match phase.as_str() {
                "initial_routing" => "service.phase.initial_routing_ms",
                "congestion_negotiation" => "service.phase.congestion_negotiation_ms",
                "tpl_violation_removal" => "service.phase.tpl_violation_removal_ms",
                "coloring_fix" => "service.phase.coloring_fix_ms",
                "audit" => "service.phase.audit_ms",
                _ => continue,
            };
            layers.insert(name, *ms);
        }
        out.layers.extend(layers);
    }
    Ok(out)
}
