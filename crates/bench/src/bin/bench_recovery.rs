//! Durability cost/benefit bench: what the write-ahead journal costs
//! per job, how long a restart spends scanning journals of growing
//! size, and what a checkpoint warm-restart saves over a cold re-run.
//! Emits `BENCH_recovery.json`.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_recovery \
//!     [-- --jobs n --workers w --seed n --out path
//!      --baseline BENCH_recovery.json]
//! ```
//!
//! Hard gates: every job terminal, identical fingerprints between the
//! plain and durable runs, warm-restart outcome identical to cold, and
//! journal overhead within [`OVERHEAD`]'s 10%. With `--baseline`,
//! durable throughput and recovery-scan speed are also gated against
//! the committed numbers by [`GATES`] (latency-style metrics swing
//! with host io, so the 60% bound is generous).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench_suite::ledger::{self, fixed, Bound, Flags, Gate, Verdict};
use sadp_grid::SadpKind;
use sadp_router::{RouteBudget, RouterConfig, RoutingSession};
use sadp_service::{
    DurabilityConfig, JobId, JobOutcome, JobSource, Journal, Priority, RouteRequest, Service,
    ServiceConfig,
};
use sadp_trace::json::Value;
use sadp_trace::NoopObserver;

/// Durable throughput and per-record recovery-scan time may each get
/// at most 60% worse than the baseline.
const GATES: [Gate; 2] = [
    ("durable_jobs_per_sec", Bound::Fall(0.6)),
    ("recover_us_per_record", Bound::Rise(0.6)),
];

/// The write-ahead journal may cost at most 10% of throughput, checked
/// on every run.
const OVERHEAD: Gate = ("journal_overhead_pct", Bound::AtMost(10.0));

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

fn main() {
    let (flags, seed, out, baseline) = Flags::bench(
        &[("--jobs", "n"), ("--workers", "w")],
        "BENCH_recovery.json",
    );
    let jobs = flags.get("--jobs", 200usize);
    let workers = flags.get("--workers", 0usize);

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

    let fields = vec![
        ("workers", Value::from(pool)),
        ("jobs", Value::from(jobs)),
        ("plain_jobs_per_sec", fixed(plain_jps, 1)),
        ("durable_jobs_per_sec", fixed(durable_jps, 1)),
        ("journal_overhead_pct", fixed(overhead_pct, 2)),
        ("journal_overhead_us_per_job", fixed(overhead_us_per_job, 1)),
        ("recover_ms_50", fixed(scan_ms[0], 3)),
        ("recover_ms_200", fixed(scan_ms[1], 3)),
        ("recover_ms_800", fixed(scan_ms[2], 3)),
        ("recover_us_per_record", fixed(recover_us_per_record, 2)),
        ("cold_route_ms", fixed(cold_ms, 1)),
        ("warm_restore_ms", fixed(warm_ms, 1)),
        ("warm_speedup", fixed(warm_speedup, 2)),
        ("all_terminal", Value::Bool(true)),
    ];
    let doc = ledger::write(&out, "recovery", seed, fields);
    println!("{jobs} job(s) -> {out}");

    let mut verdict = Verdict::new(baseline.as_ref());
    verdict.gate(&doc, None, &OVERHEAD);
    for gate in &GATES {
        verdict.gate(&doc, None, gate);
    }
    verdict.finish();
}
