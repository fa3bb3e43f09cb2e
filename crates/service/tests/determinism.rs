//! The entry-point determinism contract: one `RouteRequest` must
//! fingerprint identically on a bare `RoutingSession`, through the
//! in-process `Service` at any pool size (sliced or not), and over the
//! `sadpd` JSON-lines wire. A job's iteration cap is a configured R&R
//! cap, so a capped job obeys the same contract.

use sadp_grid::SadpKind;
use sadp_router::{RouterConfig, RoutingSession, Termination};
use sadp_service::wire::{self, Value};
use sadp_service::{
    outcome_fingerprint, JobOutcome, JobSource, RouteRequest, Service, ServiceConfig,
};
use sadp_trace::NoopObserver;

fn request() -> RouteRequest {
    RouteRequest::new(
        JobSource::Synthetic {
            nets: 180,
            seed: 11,
        },
        SadpKind::Sim,
    )
}

/// The reference: the staged session, driven directly, no service.
fn bare_fingerprint() -> u64 {
    let req = request();
    let (grid, netlist) = req.source.materialize().expect("valid source");
    let config = req.router_config().expect("valid config");
    let mut obs = NoopObserver;
    let mut session = RoutingSession::try_new(&grid, &netlist, config).expect("valid inputs");
    session.initial_route(&mut obs);
    session.negotiate(&mut obs);
    session.tpl_removal(&mut obs);
    session.ensure_colorable(&mut obs);
    let outcome = session.try_finish(&mut obs).expect("clean run");
    outcome_fingerprint(&outcome)
}

fn service_fingerprint(config: ServiceConfig, request: RouteRequest) -> (u64, u64) {
    let service = Service::start(config);
    let id = service.submit(request).expect("accepts job");
    let response = service.wait(id).expect("known job");
    service.shutdown();
    match response.outcome {
        JobOutcome::Completed { summary, .. } => (summary.fingerprint, response.run_id),
        other => panic!("expected Completed, got {}", other.name()),
    }
}

#[test]
fn all_entry_points_fingerprint_identically() {
    let reference = bare_fingerprint();
    let expected_run_id = request().run_id();

    // In-process service, serial pool.
    let (fp1, rid1) = service_fingerprint(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        request(),
    );
    assert_eq!(fp1, reference, "workers=1 deviates from bare session");
    assert_eq!(rid1, expected_run_id);

    // Wider pool: scheduling must not leak into the result.
    let (fp4, rid4) = service_fingerprint(
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
        request(),
    );
    assert_eq!(fp4, reference, "workers=4 deviates from bare session");
    assert_eq!(rid4, expected_run_id);

    // Aggressive slicing: budget slicing is output-invariant.
    let (fp_sliced, _) = service_fingerprint(
        ServiceConfig {
            workers: 1,
            slice_iters: 1,
            ..ServiceConfig::default()
        },
        request(),
    );
    assert_eq!(
        fp_sliced, reference,
        "slice_iters=1 deviates from bare session"
    );

    // The sadpd wire: same request as JSON-lines, served in-memory.
    let input = concat!(
        r#"{"op":"submit","request":{"source":{"synthetic":180,"seed":11},"kind":"SIM","arm":"full","priority":"normal"}}"#,
        "\n",
        r#"{"op":"wait","job":1}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut output = Vec::new();
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handled = wire::serve(input.as_bytes(), &mut output, service).expect("in-memory transport");
    assert_eq!(handled, 3);
    let text = String::from_utf8(output).expect("utf8 protocol output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {text}");

    let submit = wire::parse(lines[0]).expect("valid submit response");
    assert_eq!(
        submit.get("run_id").and_then(Value::as_str),
        Some(format!("{expected_run_id:016x}").as_str())
    );
    let wait = wire::parse(lines[1]).expect("valid wait response");
    assert_eq!(
        wait.get("outcome").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        wait.get("fingerprint").and_then(Value::as_str),
        Some(format!("{reference:016x}").as_str()),
        "sadpd wire deviates from bare session"
    );
    let shutdown = wire::parse(lines[2]).expect("valid shutdown response");
    assert_eq!(shutdown.get("jobs").and_then(Value::as_u64), Some(1));
}

/// A job capped at 3 iterations per R&R phase routes like a bare
/// session configured with that cap, at every slice size. ecc at a
/// quarter of its size (SIM, seed 1, full arm) needs more than 3
/// congestion iterations, so the cap ends that phase.
#[test]
fn capped_jobs_fingerprint_identically_at_every_slice_size() {
    let mut req = RouteRequest::new(
        JobSource::Spec {
            name: "ecc".into(),
            scale: 0.25,
            seed: 1,
        },
        SadpKind::Sim,
    );
    req.budget.max_phase_iters = Some(3);
    let (grid, netlist) = req.source.materialize().expect("valid source");
    let config = RouterConfig::builder(SadpKind::Sim)
        .dvi(true)
        .tpl(true)
        .max_congestion_iters(3)
        .max_tpl_iters(3)
        .build()
        .expect("valid config");
    let outcome = RoutingSession::try_new(&grid, &netlist, config)
        .expect("valid inputs")
        .try_finish(&mut NoopObserver)
        .expect("clean run");
    assert_eq!(outcome.termination, Termination::IterationCap);
    assert!(outcome.routed_all);
    let reference = outcome_fingerprint(&outcome);

    for slice_iters in [1, 2, 64] {
        let (fp, _) = service_fingerprint(
            ServiceConfig {
                workers: 1,
                slice_iters,
                ..ServiceConfig::default()
            },
            req.clone(),
        );
        assert_eq!(
            fp, reference,
            "slice_iters={slice_iters} deviates from the capped session"
        );
    }
}

#[test]
fn wire_transcripts_are_byte_identical_across_runs() {
    let input = concat!(
        r#"{"op":"submit","request":{"source":{"synthetic":90,"seed":4},"kind":"SID","arm":"tpl","priority":"high"}}"#,
        "\n",
        r#"{"op":"wait","job":1}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut transcripts = Vec::new();
    for _ in 0..2 {
        let mut output = Vec::new();
        let service = Service::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        wire::serve(input.as_bytes(), &mut output, service).expect("in-memory transport");
        // The embedded report carries wall-clock phase timings; strip
        // the report field and compare the rest byte-for-byte.
        let text = String::from_utf8(output).expect("utf8 protocol output");
        let stripped: String = text
            .lines()
            .map(|l| match l.find(r#","report":""#) {
                Some(i) => &l[..i],
                None => l,
            })
            .collect::<Vec<_>>()
            .join("\n");
        transcripts.push(stripped);
    }
    assert_eq!(transcripts[0], transcripts[1]);
}

/// A seed past 2^53 has no exact f64, so it only routes the same
/// layout over the wire as through `Service::submit` if the wire's
/// integers are exact.
#[test]
fn seeds_past_f64_precision_route_identically_over_the_wire() {
    let request = RouteRequest::new(
        JobSource::Synthetic {
            nets: 40,
            seed: 0x9E37_79B9_7F4A_7C15,
        },
        SadpKind::Sim,
    );
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let id = service.submit(request.clone()).expect("accepts job");
    let direct = service.wait(id).expect("known job");
    service.shutdown();
    let fingerprint = match direct.outcome {
        JobOutcome::Completed { summary, .. } => summary.fingerprint,
        other => panic!("expected Completed, got {}", other.name()),
    };

    let mut input = String::from(r#"{"op":"submit","request":"#);
    wire::encode_request(&mut input, &request);
    input.push_str("}\n{\"op\":\"wait\",\"job\":1}\n");
    let mut output = Vec::new();
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    wire::serve(input.as_bytes(), &mut output, service).expect("in-memory transport");
    let text = String::from_utf8(output).expect("utf8 protocol output");
    let replies: Vec<Value> = text
        .lines()
        .map(|l| wire::parse(l).expect("valid reply"))
        .collect();
    assert_eq!(replies.len(), 2, "{text}");
    assert_eq!(
        replies[0].get("run_id").and_then(Value::as_str),
        Some(format!("{:016x}", request.run_id()).as_str()),
        "{text}"
    );
    assert_eq!(
        replies[1].get("fingerprint").and_then(Value::as_str),
        Some(format!("{fingerprint:016x}").as_str()),
        "the wire routed another layout"
    );
}
