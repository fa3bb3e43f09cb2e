//! Durability cost/benefit bench: what the write-ahead journal costs
//! per job, how long a restart spends scanning journals of growing
//! size, and what a checkpoint warm-restart saves over a cold re-run.
//! Emits `BENCH_recovery.json`.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_recovery \
//!     [-- --jobs n --workers w --seed n --out path --max-overhead 10
//!      --baseline BENCH_recovery.json --tolerance 50]
//! ```
//!
//! Hard gates: every job terminal, identical fingerprints between the
//! plain and durable runs, warm-restart outcome identical to cold, and
//! journal overhead within `--max-overhead` percent. With
//! `--baseline`, durable throughput and recovery-scan speed are also
//! gated against the committed numbers (latency-style metrics swing
//! with host io, so the default tolerance is generous).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sadp_grid::SadpKind;
use sadp_router::{RouteBudget, RouterConfig, RoutingSession};
use sadp_service::{
    DurabilityConfig, JobId, JobOutcome, JobSource, Journal, Priority, RouteRequest, Service,
    ServiceConfig,
};
use sadp_trace::NoopObserver;

/// The job mix both the plain and durable legs run: medium synthetic
/// instances across kinds and priority bands, big enough that routing
/// work dominates and the two fsyncs per job are the measured margin.
fn make_request(i: usize, seed: u64) -> RouteRequest {
    let mut request = RouteRequest::new(
        JobSource::Synthetic {
            nets: 30 + (i % 5) * 10,
            seed: seed.wrapping_add(i as u64),
        },
        if i.is_multiple_of(2) {
            SadpKind::Sim
        } else {
            SadpKind::Sid
        },
    );
    request.priority = match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    request
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sadp-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits the mix, drains it, and returns (wall, fingerprints in job
/// order). Exits on any non-terminal or failed job — a durability
/// bench over broken runs would be meaningless.
fn run_leg(service: &Service, jobs: usize, seed: u64) -> (Duration, Vec<u64>) {
    let t0 = Instant::now();
    let ids: Vec<JobId> = (0..jobs)
        .map(|i| {
            service.submit(make_request(i, seed)).unwrap_or_else(|e| {
                eprintln!("submit {i} rejected: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let fingerprints: Vec<u64> = ids
        .iter()
        .map(|id| {
            let response = service.wait(*id).unwrap_or_else(|| {
                eprintln!("{id} unknown to the service");
                std::process::exit(1);
            });
            match response.outcome {
                JobOutcome::Completed { summary, .. } => summary.fingerprint,
                other => {
                    eprintln!("{id} did not complete: {}", other.name());
                    std::process::exit(1);
                }
            }
        })
        .collect();
    (t0.elapsed(), fingerprints)
}

/// Times a recovery scan over a journal holding `records` live accepts.
fn time_recovery_scan(records: usize, seed: u64) -> Duration {
    let dir = scratch_dir(&format!("scan-{records}"));
    {
        let (mut journal, _, _) = Journal::open(&dir).expect("fresh journal");
        for i in 0..records {
            journal
                .append_accept(JobId(i as u64 + 1), &make_request(i, seed))
                .expect("append accept");
        }
    }
    let t0 = Instant::now();
    let (_, recovered, truncated) = Journal::open(&dir).expect("scan journal");
    let wall = t0.elapsed();
    assert_eq!(recovered.len(), records);
    assert!(!truncated);
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

fn parse_or_die<T: std::str::FromStr>(val: &str, flag: &str, what: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {what}, got {val:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut jobs = 200usize;
    let mut workers = 0usize;
    let mut seed = 1u64;
    let mut out = String::from("BENCH_recovery.json");
    let mut max_overhead = 10.0f64;
    let mut baseline: Option<String> = None;
    let mut tolerance = 50.0f64;
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
            "--jobs" => jobs = parse_or_die(need(i), "--jobs", "an integer"),
            "--workers" => workers = parse_or_die(need(i), "--workers", "an integer"),
            "--seed" => seed = parse_or_die(need(i), "--seed", "an integer"),
            "--out" => out = need(i).clone(),
            "--max-overhead" => {
                max_overhead = parse_or_die(need(i), "--max-overhead", "a percentage")
            }
            "--baseline" => baseline = Some(need(i).clone()),
            "--tolerance" => tolerance = parse_or_die(need(i), "--tolerance", "a percentage"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--jobs n] [--workers w] [--seed n] [--out path] \
                     [--max-overhead pct] [--baseline path] [--tolerance pct]"
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

    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };

    // Leg 1: the same mixed load on a plain and on a durable service.
    let plain = Service::start(config);
    let pool = plain.workers();
    eprintln!("journal overhead: {jobs} job(s) on {pool} worker(s), plain vs durable");
    let (plain_wall, plain_fps) = run_leg(&plain, jobs, seed);
    plain.shutdown();

    let dir = scratch_dir("overhead");
    let (durable, report) =
        Service::start_durable(config, DurabilityConfig::new(&dir)).expect("fresh durable service");
    assert!(report.requeued.is_empty() && report.replayed.is_empty());
    let (durable_wall, durable_fps) = run_leg(&durable, jobs, seed);
    durable.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if plain_fps != durable_fps {
        eprintln!("FATAL: durable run diverged from plain run on the same requests");
        std::process::exit(1);
    }
    let plain_s = plain_wall.as_secs_f64();
    let durable_s = durable_wall.as_secs_f64();
    let overhead_pct = (durable_s - plain_s) / plain_s * 100.0;
    let overhead_us_per_job = (durable_s - plain_s) * 1e6 / jobs as f64;
    let plain_jps = jobs as f64 / plain_s;
    let durable_jps = jobs as f64 / durable_s;
    eprintln!(
        "  plain {plain_s:.2} s ({plain_jps:.1} jobs/s), durable {durable_s:.2} s \
         ({durable_jps:.1} jobs/s): {overhead_pct:+.1}% ({overhead_us_per_job:.0} us/job)"
    );

    // Leg 2: recovery-scan time as the journal grows.
    let scan_sizes = [50usize, 200, 800];
    let scan_ms: Vec<f64> = scan_sizes
        .iter()
        .map(|&n| {
            let wall = time_recovery_scan(n, seed);
            let ms = wall.as_secs_f64() * 1e3;
            eprintln!("recovery scan: {n} live record(s) in {ms:.2} ms");
            ms
        })
        .collect();
    let recover_us_per_record = scan_ms[2] * 1e3 / scan_sizes[2] as f64;

    // Leg 3: checkpoint warm-restart vs cold re-run on a circuit that
    // takes several negotiation slices to converge.
    let spec_request = {
        let mut r = RouteRequest::new(
            JobSource::Spec {
                name: "ecc".into(),
                scale: 0.02,
                seed: 7,
            },
            SadpKind::Sim,
        );
        r.arm = sadp_service::Arm::Full;
        r
    };
    let (grid, netlist) = spec_request
        .source
        .materialize()
        .expect("spec materializes");
    let router_config: RouterConfig = spec_request.router_config().expect("config builds");
    let mut obs = NoopObserver;
    let t0 = Instant::now();
    let cold = RoutingSession::try_new(&grid, &netlist, router_config)
        .expect("session builds")
        .try_finish(&mut obs)
        .expect("cold run finishes");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The snapshot a crashed worker would have left mid-run.
    let checkpoint = {
        let mut session =
            RoutingSession::try_new(&grid, &netlist, router_config).expect("session builds");
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
        session.initial_route(&mut obs);
        session.negotiate(&mut obs);
        session.tpl_removal(&mut obs);
        session.ensure_colorable(&mut obs);
        assert!(
            !session.converged(),
            "instance converged before a slice cut"
        );
        session.checkpoint()
    };
    let t0 = Instant::now();
    let mut warm_session = RoutingSession::restore(&grid, &netlist, router_config, &checkpoint)
        .expect("checkpoint restores");
    warm_session.set_budget(RouteBudget::unlimited());
    let warm = warm_session
        .try_finish(&mut obs)
        .expect("warm run finishes");
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    if (
        warm.stats.wirelength,
        warm.stats.vias,
        warm.routed_all,
        warm.colorable,
    ) != (
        cold.stats.wirelength,
        cold.stats.vias,
        cold.routed_all,
        cold.colorable,
    ) {
        eprintln!("FATAL: warm restart diverged from the cold run");
        std::process::exit(1);
    }
    let warm_speedup = cold_ms / warm_ms.max(1e-6);
    eprintln!(
        "checkpoint warm restart: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms \
         ({warm_speedup:.2}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"seed\": {seed},\n  \"workers\": {pool},\n  \
         \"host_cores\": {},\n  \"jobs\": {jobs},\n  \
         \"plain_jobs_per_sec\": {plain_jps:.1},\n  \
         \"durable_jobs_per_sec\": {durable_jps:.1},\n  \
         \"journal_overhead_pct\": {overhead_pct:.2},\n  \
         \"journal_overhead_us_per_job\": {overhead_us_per_job:.1},\n  \
         \"recover_ms_50\": {:.3},\n  \"recover_ms_200\": {:.3},\n  \
         \"recover_ms_800\": {:.3},\n  \
         \"recover_us_per_record\": {recover_us_per_record:.2},\n  \
         \"cold_route_ms\": {cold_ms:.1},\n  \"warm_restore_ms\": {warm_ms:.1},\n  \
         \"warm_speedup\": {warm_speedup:.2},\n  \"all_terminal\": true\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        scan_ms[0],
        scan_ms[1],
        scan_ms[2],
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{jobs} job(s) -> {out}");

    if overhead_pct > max_overhead {
        eprintln!(
            "journal overhead {overhead_pct:.1}% exceeds the {max_overhead}% budget — \
             the write-ahead path has regressed"
        );
        std::process::exit(1);
    }
    println!("overhead gate passed: {overhead_pct:.1}% <= {max_overhead}%");

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        // Throughput-style gates: lower-is-worse for jobs/s,
        // higher-is-worse for scan time.
        for (key, current, higher_is_better) in [
            ("durable_jobs_per_sec", durable_jps, true),
            ("recover_us_per_record", recover_us_per_record, false),
        ] {
            let Some(base) = field(&text, key) else {
                eprintln!("baseline {path} has no {key} field");
                std::process::exit(1);
            };
            let delta = if higher_is_better {
                (base - current) / base * 100.0
            } else {
                (current - base) / base.max(1e-9) * 100.0
            };
            let verdict = if delta > tolerance { "FAIL" } else { "ok" };
            eprintln!(
                "  baseline check {key}: {current:.2} vs {base:.2} \
                 ({:+.1}% vs baseline) {verdict}",
                -delta
            );
            failed |= delta > tolerance;
        }
        if failed {
            eprintln!("recovery metrics regressed beyond {tolerance}% vs {path}");
            std::process::exit(1);
        }
        println!("baseline check passed: within {tolerance}% of {path}");
    }
}

/// Pulls a top-level numeric field out of a `BENCH_recovery.json`
/// document (string scan — the workspace has no JSON parser
/// dependency).
fn field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let v = &json[json.find(&pat)? + pat.len()..];
    let end = v.find([',', '\n', '}'])?;
    v[..end].trim().parse().ok()
}
