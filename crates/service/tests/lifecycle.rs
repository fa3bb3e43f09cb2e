//! Service lifecycle: submit → complete, queue-side cancellation,
//! deadline expiry as a tagged partial, queue-cap rejection, and
//! drain-on-shutdown.

use sadp_grid::SadpKind;
use sadp_router::Termination;
use sadp_service::{
    JobEvent, JobId, JobOutcome, JobSource, Priority, RouteRequest, Service, ServiceConfig,
    SubmitError,
};

fn synthetic(nets: usize, seed: u64) -> RouteRequest {
    RouteRequest::new(JobSource::Synthetic { nets, seed }, SadpKind::Sim)
}

#[test]
fn submit_completes_with_summary_and_stable_run_id() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let request = synthetic(80, 3);
    let expected_run_id = request.run_id();
    let id = service.submit(request).expect("accepts job");
    assert_eq!(id, JobId(1));

    let response = service.wait(id).expect("known job");
    assert_eq!(response.job, id);
    assert_eq!(response.run_id, expected_run_id);
    match &response.outcome {
        JobOutcome::Completed { summary, report } => {
            assert!(summary.routed_all, "80-net synthetic converges");
            assert_eq!(summary.termination, Termination::Converged);
            assert_eq!(summary.nets, 80);
            assert!(summary.wirelength > 0);
            assert_ne!(summary.fingerprint, 0);
            assert_eq!(report.run_id(), expected_run_id);
        }
        other => panic!("expected Completed, got {}", other.name()),
    }

    // Terminal state is stable and the response replays on poll.
    let status = service.poll(id).expect("known job");
    assert_eq!(status.state.name(), "done");
    assert!(status.response.is_some());
    assert_eq!(service.shutdown(), 1);
}

#[test]
fn events_stream_started_and_phase_spans() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let id = service.submit(synthetic(60, 9)).expect("accepts job");
    service.wait(id);
    // All events are still buffered: nothing polled them away yet.
    let status = service.poll(id).expect("known job");
    assert!(status.events.contains(&JobEvent::Started));
    assert!(status
        .events
        .iter()
        .any(|e| matches!(e, JobEvent::PhaseStart { phase } if *phase == "initial_routing")));
    // Events deliver exactly once.
    let again = service.poll(id).expect("known job");
    assert!(again.events.is_empty());
    service.shutdown();
}

#[test]
fn queued_job_cancels_immediately() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // One worker: the second submission cannot start while the first
    // occupies it, so it is still queued when the cancel arrives.
    let blocker = service.submit(synthetic(1200, 1)).expect("accepts job");
    let victim = service.submit(synthetic(400, 2)).expect("accepts job");
    assert!(service.cancel(victim), "queued job accepts cancellation");
    let response = service.wait(victim).expect("known job");
    assert!(matches!(response.outcome, JobOutcome::Cancelled));
    // Cancel of a terminal job is a no-op.
    assert!(!service.cancel(victim));
    // Unknown ids are rejected, not invented.
    assert!(!service.cancel(JobId(99)));
    assert!(service.poll(JobId(99)).is_none());
    assert!(service.wait(JobId(99)).is_none());

    let response = service.wait(blocker).expect("known job");
    assert!(matches!(response.outcome, JobOutcome::Completed { .. }));
    assert_eq!(service.shutdown(), 2);
}

#[test]
fn deadline_expiry_yields_tagged_partial() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut request = synthetic(400, 7);
    request.budget.deadline_ms = Some(0);
    let id = service.submit(request).expect("accepts job");
    let response = service.wait(id).expect("known job");
    match &response.outcome {
        JobOutcome::Completed { summary, .. } => {
            assert_eq!(summary.termination, Termination::Deadline);
            assert!(!summary.routed_all, "zero deadline routes nothing");
        }
        other => panic!(
            "deadline expiry must complete as partial, got {}",
            other.name()
        ),
    }
    service.shutdown();
}

/// A job iteration cap above the router's limit fails the job with
/// kind `config` before any routing.
#[test]
fn oversized_iteration_cap_fails_as_config() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut request = synthetic(20, 1);
    request.budget.max_phase_iters = Some(sadp_router::flow::MAX_ITER_CAP + 1);
    let id = service.submit(request).expect("accepts job");
    match service.wait(id).expect("known job").outcome {
        JobOutcome::Failed { kind, .. } => assert_eq!(kind, "config"),
        other => panic!("expected Failed, got {}", other.name()),
    }
    service.shutdown();
}

#[test]
fn queue_cap_rejects_submissions() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 0,
        ..ServiceConfig::default()
    });
    assert_eq!(
        service.submit(synthetic(10, 1)),
        Err(SubmitError::QueueFull)
    );
    assert_eq!(service.shutdown(), 0);
}

#[test]
fn shutdown_drains_every_queued_job() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut ids = Vec::new();
    for seed in 0..6u64 {
        let mut request = synthetic(40 + 4 * seed as usize, seed);
        request.priority = match seed % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        ids.push(service.submit(request).expect("accepts job"));
    }
    // Drain mode finishes all six even though none were waited on.
    assert_eq!(service.shutdown(), 6);
}

#[test]
fn shutdown_now_cancels_queued_jobs() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut ids = Vec::new();
    for seed in 0..4u64 {
        ids.push(service.submit(synthetic(600, seed)).expect("accepts job"));
    }
    // Abort mode resolves everything (running jobs wind down at their
    // next slice boundary, queued ones cancel outright) — every job
    // still reaches a typed terminal state.
    let done = service.shutdown_with(sadp_service::ShutdownMode::Now);
    assert_eq!(done, 4);
}
