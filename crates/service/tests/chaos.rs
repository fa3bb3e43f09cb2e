//! The acceptance chaos leg: a 500-job mixed load with the
//! `exec.task_panic` failpoint armed. The failpoint fires in pool
//! tasks, among them `ensure_colorable`'s per-layer `try_map_indexed`,
//! whose panics surface as contained `TaskPanicked` faults; the service
//! must keep every job typed — completed, failed, or cancelled — and
//! the daemon itself must neither panic nor hang.
//!
//! Own test binary: fault plans are process-global.

use sadp_grid::SadpKind;
use sadp_service::{
    JobBudget, JobOutcome, JobSource, Priority, RouteRequest, Service, ServiceConfig,
};

#[test]
fn mixed_load_survives_injected_worker_panics() {
    // Two pool threads, so the injected panics also unwind inside pool
    // workers and not only on the inline serial path; pinned so the
    // run does not depend on the host's core count.
    std::env::set_var("SADP_EXEC_THREADS", "2");
    let _faults = faultinject::arm(
        42,
        faultinject::FaultSpec::new().point("exec.task_panic", 0.02),
    );

    let service = Service::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });

    const JOBS: usize = 500;
    let mut ids = Vec::with_capacity(JOBS);
    let mut cancelled_early = Vec::new();
    for i in 0..JOBS {
        let mut request = RouteRequest::new(
            JobSource::Synthetic {
                nets: 24 + (i % 5) * 10,
                seed: i as u64,
            },
            if i % 2 == 0 {
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
        if i % 7 == 0 {
            request.budget = JobBudget {
                deadline_ms: Some(1),
                ..JobBudget::unlimited()
            };
        }
        let id = service.submit(request).expect("accepts job");
        if i % 11 == 0 {
            service.cancel(id);
            cancelled_early.push(id);
        }
        ids.push(id);
    }

    let (mut completed, mut failed, mut cancelled) = (0usize, 0usize, 0usize);
    for id in &ids {
        let response = service.wait(*id).expect("every job resolves");
        match &response.outcome {
            JobOutcome::Completed { summary, .. } => {
                completed += 1;
                assert_ne!(summary.fingerprint, 0);
            }
            JobOutcome::Failed { kind, error } => {
                failed += 1;
                assert!(
                    kind == "task_panicked" || kind == "panic",
                    "unexpected failure kind {kind}: {error}"
                );
            }
            JobOutcome::Cancelled => cancelled += 1,
        }
    }
    assert_eq!(completed + failed + cancelled, JOBS);
    assert!(completed > 0, "most jobs complete despite injected faults");
    assert!(
        failed > 0,
        "p=0.02 over thousands of pool tasks injects at least one fault"
    );
    // Early cancels may legally race to Completed if the worker won;
    // what matters is that none of them is still pending, which the
    // exhaustive total above already checks.
    assert!(cancelled <= cancelled_early.len());

    // The daemon survived: a clean drain accounts for every job.
    assert_eq!(service.shutdown(), JOBS);

    std::env::remove_var("SADP_EXEC_THREADS");
}
