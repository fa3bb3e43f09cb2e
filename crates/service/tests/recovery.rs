//! Crash-recovery acceptance suite: jobs accepted by a durable
//! service survive crashes — simulated in-process (journals built to
//! look like a mid-flight power cut, io failpoints tearing writes and
//! reads) and for real (`sadpd` killed with SIGKILL mid-job and
//! restarted) — and every recovered job reaches a typed terminal
//! state whose `outcome_fingerprint` is byte-identical to an
//! uninterrupted run.
//!
//! Fault plans are process-global, so every test serializes on one
//! lock.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sadp_grid::{RouteError, SadpKind};
use sadp_router::{RouteBudget, RoutingSession};
use sadp_service::wire::{self, Value};
use sadp_service::{
    journal, Arm, DurabilityConfig, JobId, JobOutcome, JobSource, Journal, Priority, RouteRequest,
    RouteResponse, RouteSummary, Service, ServiceConfig, SubmitError,
};
use sadp_trace::NoopObserver;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sadp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        ..ServiceConfig::default()
    }
}

fn synth(nets: usize, seed: u64, kind: SadpKind) -> RouteRequest {
    RouteRequest::new(JobSource::Synthetic { nets, seed }, kind)
}

fn summary(resp: &RouteResponse) -> &RouteSummary {
    match &resp.outcome {
        JobOutcome::Completed { summary, .. } => summary,
        other => panic!("expected Completed for {}, got {}", resp.job, other.name()),
    }
}

/// A mixed five-job workload: priorities, kinds, a user iteration
/// budget, and an eco delta — everything the journal must round-trip.
fn mixed_requests() -> Vec<RouteRequest> {
    let mut a = synth(6, 1, SadpKind::Sim);
    a.priority = Priority::High;
    let b = synth(10, 2, SadpKind::Sid);
    let mut c = synth(8, 3, SadpKind::SimTrim);
    c.budget.max_phase_iters = Some(2);
    let mut d = RouteRequest::new(
        JobSource::Eco {
            base: Box::new(JobSource::Synthetic { nets: 6, seed: 1 }),
            delta: "delnet 0\n".into(),
        },
        SadpKind::Sim,
    );
    d.arm = Arm::Dvi;
    let mut e = synth(12, 4, SadpKind::Sim);
    e.arm = Arm::Baseline;
    e.priority = Priority::Low;
    vec![a, b, c, d, e]
}

#[test]
fn empty_journal_starts_clean_and_replays_after_restart() {
    let _g = lock();
    let dir = tmp("empty");
    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    assert!(report.requeued.is_empty() && report.replayed.is_empty() && !report.truncated);
    let req = synth(6, 9, SadpKind::Sim);
    let id = service.submit(req).unwrap();
    let first = service.wait(id).unwrap();
    let fp = summary(&first).fingerprint;
    assert_eq!(
        service.stats().journal_live,
        0,
        "completion retired the accept"
    );
    service.shutdown();

    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(report.replayed, vec![id]);
    assert!(report.requeued.is_empty());
    let replay = service.wait(id).unwrap();
    assert_eq!(replay.run_id, first.run_id);
    match &replay.outcome {
        JobOutcome::Completed { summary, report } => {
            assert_eq!(summary.fingerprint, fp);
            assert_eq!(report.note_value("journal_replay"), Some("true"));
        }
        other => panic!("expected replayed completion, got {}", other.name()),
    }
    // Replayed ids stay reserved: the next submit continues numbering.
    let next = service.submit(synth(6, 10, SadpKind::Sim)).unwrap();
    assert_eq!(next, JobId(id.0 + 1));
    service.wait(next);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_interrupted_jobs_requeue_and_fingerprint_identically() {
    let _g = lock();
    // Reference outcomes: the same requests on a plain service.
    let reqs = mixed_requests();
    let plain = Service::start(cfg(1));
    let ids: Vec<JobId> = reqs
        .iter()
        .map(|r| plain.submit(r.clone()).unwrap())
        .collect();
    let reference: Vec<RouteResponse> = ids.iter().map(|id| plain.wait(*id).unwrap()).collect();
    plain.shutdown();

    // Simulate the crash: all five accepts hit the journal, only the
    // first two completions did.
    let dir = tmp("chaos");
    {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        for (i, r) in reqs.iter().enumerate() {
            j.append_accept(JobId(i as u64 + 1), r).unwrap();
        }
        for resp in &reference[..2] {
            j.append_complete(resp).unwrap();
        }
    }
    let (service, report) = Service::start_durable(cfg(2), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(report.replayed, vec![JobId(1), JobId(2)]);
    assert_eq!(report.requeued, vec![JobId(3), JobId(4), JobId(5)]);
    assert!(!report.truncated);
    for (i, want) in reference.iter().enumerate() {
        let got = service.wait(JobId(i as u64 + 1)).unwrap();
        assert_eq!(got.run_id, want.run_id);
        match (&got.outcome, &want.outcome) {
            (
                JobOutcome::Completed { summary: a, report },
                JobOutcome::Completed { summary: b, .. },
            ) => {
                assert_eq!(a.fingerprint, b.fingerprint, "job {}", i + 1);
                assert_eq!(a.termination, b.termination, "job {}", i + 1);
                assert_eq!(
                    (a.wirelength, a.vias, a.nets),
                    (b.wirelength, b.vias, b.nets)
                );
                if i < 2 {
                    assert_eq!(report.note_value("journal_replay"), Some("true"));
                }
            }
            (x, y) => panic!("job {}: {} vs reference {}", i + 1, x.name(), y.name()),
        }
    }
    service.shutdown();

    // A second restart finds every job terminal: nothing to redo.
    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(report.replayed.len(), reqs.len());
    assert!(report.requeued.is_empty());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_resumes_from_checkpoint_and_rejection_falls_back_cold() {
    let _g = lock();
    let mut req = RouteRequest::new(
        JobSource::Spec {
            name: "ecc".into(),
            scale: 0.02,
            seed: 7,
        },
        SadpKind::Sim,
    );
    req.arm = Arm::Full;

    // The uninterrupted reference fingerprint.
    let plain = Service::start(cfg(1));
    let id = plain.submit(req.clone()).unwrap();
    let reference = summary(&plain.wait(id).unwrap()).fingerprint;
    plain.shutdown();

    // Craft the crash scene: an accept with no completion, plus the
    // checkpoint a budget-sliced worker would have left behind.
    let dir = tmp("warm");
    {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        j.append_accept(JobId(1), &req).unwrap();
    }
    let (grid, netlist) = req.source.materialize().unwrap();
    let config = req.router_config().unwrap();
    let mut session = RoutingSession::try_new(&grid, &netlist, config).unwrap();
    session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
    let mut obs = NoopObserver;
    session.initial_route(&mut obs);
    session.negotiate(&mut obs);
    session.tpl_removal(&mut obs);
    session.ensure_colorable(&mut obs);
    assert!(!session.converged(), "instance too small to stop mid-run");
    std::fs::write(dir.join("ckpt-1.txt"), session.checkpoint()).unwrap();
    drop(session);

    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(report.requeued, vec![JobId(1)]);
    let resp = service.wait(JobId(1)).unwrap();
    match &resp.outcome {
        JobOutcome::Completed { summary, report } => {
            assert_eq!(report.note_value("warm_start"), Some("checkpoint"));
            assert_eq!(summary.fingerprint, reference, "warm != cold outcome");
        }
        other => panic!("expected completion, got {}", other.name()),
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // A corrupt checkpoint is rejected with a cold-start fallback —
    // same fingerprint, and the bad snapshot is deleted.
    let dir = tmp("warm-reject");
    {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        j.append_accept(JobId(1), &req).unwrap();
    }
    std::fs::write(dir.join("ckpt-1.txt"), "sadp-checkpoint v1\ngarbage\n").unwrap();
    let (service, _) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    let resp = service.wait(JobId(1)).unwrap();
    match &resp.outcome {
        JobOutcome::Completed { summary, report } => {
            assert_eq!(report.note_value("warm_start"), Some("rejected"));
            assert_eq!(summary.fingerprint, reference);
        }
        other => panic!("expected completion, got {}", other.name()),
    }
    assert!(
        !dir.join("ckpt-1.txt").exists(),
        "rejected checkpoint is deleted"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seed past 2^53 has no exact f64. The journal must hand the same
/// seed back to a restart, or the accept record's run_id no longer
/// matches its request and the service refuses to start.
#[test]
fn seeds_past_f64_precision_survive_a_restart() {
    let _g = lock();
    let req = synth(6, 0x9E37_79B9_7F4A_7C15, SadpKind::Sim);
    let dir = tmp("wide-seed");
    let (service, _) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    let id = service.submit(req.clone()).unwrap();
    let first = service.wait(id).unwrap();
    let fingerprint = summary(&first).fingerprint;
    service.shutdown();

    // Replayed from its complete record.
    let (service, report) =
        Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).expect("the journal replays");
    assert_eq!(report.replayed, vec![id]);
    let replay = service.wait(id).unwrap();
    assert_eq!(replay.run_id, req.run_id());
    assert_eq!(summary(&replay).fingerprint, fingerprint);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Rerun from its accept record alone: the crash came first.
    let dir = tmp("wide-seed-crash");
    {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        j.append_accept(JobId(1), &req).unwrap();
    }
    let (service, report) =
        Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).expect("the journal replays");
    assert_eq!(report.requeued, vec![JobId(1)]);
    let rerun = service.wait(JobId(1)).unwrap();
    assert_eq!(summary(&rerun).fingerprint, fingerprint);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_requeues_prefix_and_reports_truncation() {
    let _g = lock();
    let dir = tmp("torn-tail");
    let req = synth(6, 3, SadpKind::Sim);
    let path = {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        j.append_accept(JobId(1), &req).unwrap();
        j.path().to_path_buf()
    };
    // A crash mid-append: half of job 2's accept frame.
    let torn = journal::frame(r#"{"rec":"accept","job":2}"#);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(f);

    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    assert!(report.truncated, "torn tail must be reported");
    assert_eq!(report.requeued, vec![JobId(1)]);
    assert!(summary(&service.wait(JobId(1)).unwrap()).fingerprint != 0);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn semantically_corrupt_journal_refuses_service_start() {
    let _g = lock();
    let dir = tmp("refuse");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("journal.log"),
        journal::frame("sadpd-journal v999"),
    )
    .unwrap();
    match Service::start_durable(cfg(1), DurabilityConfig::new(&dir)) {
        Err(RouteError::Durability { what, reason }) => {
            assert_eq!(what, "journal");
            assert!(reason.contains("version mismatch"), "{reason}");
        }
        Ok(_) => panic!("version-mismatched journal accepted"),
        Err(e) => panic!("expected a durability error, got {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_rolls_back_submit_with_typed_error() {
    let _g = lock();
    let dir = tmp("fsync");
    let (service, _) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    let guard = faultinject::arm(
        11,
        faultinject::FaultSpec::new().point("io.fsync_fail", 1.0),
    );
    match service.submit(synth(6, 1, SadpKind::Sim)) {
        Err(SubmitError::Journal(e)) => assert!(e.contains("fsync"), "{e}"),
        other => panic!("expected a journal submit error, got {other:?}"),
    }
    drop(guard);
    // The failed submit left no trace: the same id is handed out
    // again and the journal stays usable.
    let id = service.submit(synth(6, 1, SadpKind::Sim)).unwrap();
    assert_eq!(id, JobId(1));
    service.wait(id);
    service.shutdown();
    let (_, recovered, _) = Journal::open(&dir).unwrap();
    assert_eq!(recovered.len(), 1, "exactly one job ever became durable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scale JSON has no number for (`1e999` reads as infinity) is
/// refused at submit, before the journal append: the journal stays
/// parsable, the valid job submitted next completes, and a restart
/// over the same journal replays it. NaN, an eco base, and a plain
/// service get the same typed refusal.
#[test]
fn non_finite_scale_is_refused_before_the_journal() {
    let _g = lock();
    let dir = tmp("nonfinite");
    let (service, _) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir)).unwrap();
    let input = concat!(
        r#"{"op":"submit","request":{"source":{"spec":"ecc","scale":1e999,"seed":1}}}"#,
        "\n",
        r#"{"op":"submit","request":{"source":{"synthetic":6,"seed":1}}}"#,
        "\n",
        r#"{"op":"wait","job":1}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut output = Vec::new();
    wire::serve(input.as_bytes(), &mut output, service).expect("in-memory transport");
    let text = String::from_utf8(output).expect("utf8 protocol output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one response per request: {text}");
    assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
    assert!(lines[0].contains("not finite"), "{}", lines[0]);
    assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
    let wait = wire::parse(lines[2]).expect("valid wait response");
    assert_eq!(wait.get("job").and_then(Value::as_u64), Some(1));
    assert_eq!(
        wait.get("outcome").and_then(Value::as_str),
        Some("completed"),
        "{}",
        lines[2]
    );
    let fingerprint = wait
        .get("fingerprint")
        .and_then(Value::as_str)
        .map(String::from);

    let (service, report) = Service::start_durable(cfg(1), DurabilityConfig::new(&dir))
        .expect("the journal holds only parsable records");
    assert_eq!(report.replayed, vec![JobId(1)]);
    let replay = service.wait(JobId(1)).expect("replayed job");
    assert_eq!(
        Some(format!("{:016x}", summary(&replay).fingerprint)),
        fingerprint
    );
    for source in [
        JobSource::Spec {
            name: "ecc".into(),
            scale: f64::NAN,
            seed: 1,
        },
        JobSource::Eco {
            base: Box::new(JobSource::Spec {
                name: "ecc".into(),
                scale: f64::INFINITY,
                seed: 1,
            }),
            delta: "delnet 0\n".into(),
        },
    ] {
        let request = RouteRequest::new(source, SadpKind::Sim);
        assert!(matches!(
            service.submit(request.clone()),
            Err(SubmitError::InvalidRequest(_))
        ));
        let plain = Service::start(cfg(1));
        assert!(matches!(
            plain.submit(request),
            Err(SubmitError::InvalidRequest(_))
        ));
        plain.shutdown();
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_freezes_journal_and_recovery_keeps_prefix() {
    let _g = lock();
    let dir = tmp("torn-write");
    let (mut j, _, _) = Journal::open(&dir).unwrap();
    j.append_accept(JobId(1), &synth(6, 1, SadpKind::Sim))
        .unwrap();
    let guard = faultinject::arm(
        12,
        faultinject::FaultSpec::new().point("io.torn_write", 1.0),
    );
    match j.append_accept(JobId(2), &synth(7, 2, SadpKind::Sim)) {
        Err(RouteError::Durability { reason, .. }) => {
            assert!(reason.contains("torn write"), "{reason}")
        }
        other => panic!("expected torn-write failure, got {other:?}"),
    }
    drop(guard);
    assert!(j.is_frozen(), "a torn write models process death");
    match j.append_accept(JobId(3), &synth(8, 3, SadpKind::Sim)) {
        Err(RouteError::Durability { reason, .. }) => {
            assert!(reason.contains("frozen"), "{reason}")
        }
        other => panic!("frozen journal accepted an append: {other:?}"),
    }
    drop(j);

    // Restart: the half-frame is the torn tail; job 1 survives.
    let (_, recovered, truncated) = Journal::open(&dir).unwrap();
    assert!(truncated);
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].id, JobId(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_read_recovers_gracefully_without_physical_truncation() {
    let _g = lock();
    let dir = tmp("short-read");
    let path = {
        let (mut j, _, _) = Journal::open(&dir).unwrap();
        j.append_accept(JobId(1), &synth(6, 1, SadpKind::Sim))
            .unwrap();
        j.append_accept(JobId(2), &synth(7, 2, SadpKind::Sim))
            .unwrap();
        j.path().to_path_buf()
    };
    let len_before = std::fs::metadata(&path).unwrap().len();
    let guard = faultinject::arm(
        13,
        faultinject::FaultSpec::new().point("io.short_read", 1.0),
    );
    let (j, recovered, _) = Journal::open(&dir).expect("short read is not corruption");
    drop(guard);
    drop(j);
    assert!(recovered.len() <= 2, "a prefix of the real set");
    // The torn point was a read artifact: the file must be untouched,
    // and a clean scan sees both jobs.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
    let (_, recovered, truncated) = Journal::open(&dir).unwrap();
    assert!(!truncated);
    assert_eq!(recovered.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- //
// Process-level crash tests against the real sadpd binary.         //
// ---------------------------------------------------------------- //

struct Daemon {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
    /// Stderr lines, read on a thread so a test can wait for one.
    stderr: mpsc::Receiver<String>,
    /// The stderr lines received so far.
    log: String,
}

fn spawn_sadpd(args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sadpd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sadpd");
    let stdin = child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    Daemon {
        child,
        stdin,
        stdout,
        stderr: rx,
        log: String::new(),
    }
}

impl Daemon {
    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin open");
        stdin.write_all(line.as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read response");
        line
    }

    /// Closes stdin (EOF ends the serve loop), waits for exit and
    /// returns the exit verdict with the whole stderr.
    fn finish(mut self) -> (bool, String) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("daemon exits");
        // The reader thread ends at EOF, which closes the channel.
        for line in self.stderr.iter() {
            self.log.push_str(&line);
            self.log.push('\n');
        }
        (status.success(), self.log)
    }

    /// Waits until stderr shows `needle`; `false` on timeout or when
    /// stderr closes first.
    fn wait_for_stderr(&mut self, needle: &str, within: Duration) -> bool {
        let deadline = Instant::now() + within;
        while !self.log.contains(needle) {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(line) = self.stderr.recv_timeout(left) else {
                return false;
            };
            self.log.push_str(&line);
            self.log.push('\n');
        }
        true
    }

    fn wait_for_exit(&mut self, within: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < within {
            if self.child.try_wait().expect("try_wait").is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        false
    }
}

/// A string field of one JSON reply line.
fn field(line: &str, key: &str) -> String {
    let reply = wire::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    reply
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .to_string()
}

const SLOW_SUBMIT: &str =
    r#"{"op":"submit","request":{"source":{"spec":"ecc","scale":0.02,"seed":7},"arm":"full"}}"#;

#[test]
fn sigkilled_daemon_recovers_job_with_identical_fingerprint() {
    let _g = lock();
    // Clean reference run in its own journal dir.
    let clean_dir = tmp("kill9-clean");
    let mut clean = spawn_sadpd(&["--journal", clean_dir.to_str().unwrap(), "--workers", "1"]);
    clean.send(SLOW_SUBMIT);
    clean.send(r#"{"op":"wait","job":1}"#);
    let _ack = clean.recv();
    let reference = field(&clean.recv(), "fingerprint");
    clean.send(r#"{"op":"shutdown"}"#);
    let (ok, _) = clean.finish();
    assert!(ok);

    // The victim: tight slices so checkpoints appear early, then
    // SIGKILL — no destructors, no goodbye.
    let dir = tmp("kill9");
    let mut victim = spawn_sadpd(&[
        "--journal",
        dir.to_str().unwrap(),
        "--workers",
        "1",
        "--slice-iters",
        "1",
        "--checkpoint-every",
        "1",
    ]);
    victim.send(SLOW_SUBMIT);
    let ack = victim.recv();
    assert!(ack.contains(r#""ok":true"#), "{ack}");
    // Kill once a checkpoint exists (or the job finished first — the
    // recovery contract is fingerprint identity either way).
    let ckpt = dir.join("ckpt-1.txt");
    let start = Instant::now();
    while !ckpt.exists() && start.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.child.kill().expect("SIGKILL");
    let _ = victim.child.wait();

    // Restart over the same journal: the job replays or re-runs to
    // the exact same fingerprint.
    let mut revived = spawn_sadpd(&["--journal", dir.to_str().unwrap(), "--workers", "1"]);
    revived.send(r#"{"op":"wait","job":1}"#);
    let resp = revived.recv();
    assert_eq!(field(&resp, "outcome"), "completed", "{resp}");
    assert_eq!(field(&resp, "fingerprint"), reference, "{resp}");
    revived.send(r#"{"op":"shutdown"}"#);
    let (ok, stderr) = revived.finish();
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("journal"),
        "recovery is announced: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[cfg(unix)]
fn send_signal(child: &Child, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
}

#[cfg(unix)]
#[test]
fn sigterm_drains_queued_work_then_exits() {
    let _g = lock();
    let mut daemon = spawn_sadpd(&["--workers", "1"]);
    daemon.send(r#"{"op":"submit","request":{"source":{"synthetic":6,"seed":4}}}"#);
    let ack = daemon.recv();
    assert!(ack.contains(r#""ok":true"#), "{ack}");
    send_signal(&daemon.child, "-TERM");
    assert!(
        daemon.wait_for_exit(Duration::from_secs(30)),
        "daemon drains and exits on SIGTERM"
    );
    let (ok, stderr) = daemon.finish();
    assert!(ok, "{stderr}");
    assert!(stderr.contains("draining"), "{stderr}");
    assert!(stderr.contains("drained, exiting"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn second_sigterm_escalates_to_abort() {
    let _g = lock();
    let mut daemon = spawn_sadpd(&["--workers", "1", "--slice-iters", "1"]);
    // The monitor polls every 50 ms and exits at the first poll that
    // finds the drain idle, so the queue must outlast several polls
    // after the first signal is seen. 24 distinct quarter-size ecc
    // jobs take over a second to drain in a release build (three
    // 0.05-scale jobs took one poll); the second signal cancels
    // whatever is still queued.
    for seed in 7..31 {
        daemon.send(
            &SLOW_SUBMIT
                .replace("\"scale\":0.02", "\"scale\":0.25")
                .replace("\"seed\":7", &format!("\"seed\":{seed}")),
        );
        let ack = daemon.recv();
        assert!(ack.contains(r#""ok":true"#), "{ack}");
    }
    send_signal(&daemon.child, "-TERM");
    // Signal again only once the monitor has acted on the first one,
    // so the second lands while the drain is busy.
    assert!(
        daemon.wait_for_stderr("draining", Duration::from_secs(30)),
        "first signal seen: {}",
        daemon.log
    );
    send_signal(&daemon.child, "-TERM");
    assert!(
        daemon.wait_for_exit(Duration::from_secs(30)),
        "escalated shutdown exits promptly"
    );
    let (ok, stderr) = daemon.finish();
    assert!(ok, "{stderr}");
    assert!(stderr.contains("second signal"), "{stderr}");
}
