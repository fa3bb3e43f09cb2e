//! The deterministic JSON-lines protocol `sadpd` speaks, built on
//! [`sadp_trace::json`] (re-exported here as [`Value`], [`parse`] and
//! [`escape`]).
//!
//! One request object per input line, one response object per output
//! line, fixed field order — byte-identical responses for identical
//! request streams (wall-clock data lives only inside the embedded,
//! escaped report string, which fingerprint comparisons exclude).
//!
//! ```text
//! → {"op":"submit","request":{"source":{"spec":"ecc","scale":0.05,"seed":1},"kind":"SIM","arm":"full","priority":"normal"}}
//! ← {"ok":true,"op":"submit","job":1,"run_id":"97cf8e8329275d4f"}
//! → {"op":"wait","job":1}
//! ← {"ok":true,"op":"wait","job":1,"state":"done","outcome":"completed","fingerprint":"0a6a...","routed_all":true,...}
//! → {"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown","jobs":1}
//! ```

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use sadp_grid::SadpKind;
pub use sadp_trace::json::{escape, parse, Value};

use crate::job::{Arm, JobBudget, JobOutcome, JobSource, Priority, RouteRequest};
use crate::service::{JobState, Service, ShutdownMode};
use crate::JobId;

/// Encodes a request in its canonical wire form — fixed field order,
/// the exact inverse of [`decode_request`]. This is the request text
/// the job journal persists, so the encoding is append-only stable.
pub fn encode_request(out: &mut String, req: &RouteRequest) {
    out.push_str("{\"source\":");
    encode_source(out, &req.source);
    let kind = match req.kind {
        SadpKind::Sim => "SIM",
        SadpKind::Sid => "SID",
        SadpKind::SimTrim => "SIM_TRIM",
    };
    let _ = write!(out, r#","kind":"{kind}","arm":"{}""#, req.arm.name());
    let b = &req.budget;
    if b.deadline_ms.is_some() || b.max_phase_iters.is_some() || b.max_expansions.is_some() {
        out.push_str(",\"budget\":{");
        let mut first = true;
        let mut field = |out: &mut String, name: &str, v: Option<u64>| {
            if let Some(v) = v {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, r#""{name}":{v}"#);
            }
        };
        field(out, "deadline_ms", b.deadline_ms);
        field(out, "max_phase_iters", b.max_phase_iters.map(|n| n as u64));
        field(out, "max_expansions", b.max_expansions);
        out.push('}');
    }
    let _ = write!(out, r#","priority":"{}"}}"#, req.priority.name());
}

/// Encodes a source object (recursing one level for `eco` bases).
fn encode_source(out: &mut String, source: &JobSource) {
    match source {
        JobSource::Inline { layout } => {
            let _ = write!(out, r#"{{"inline":"{}"}}"#, escape(layout));
        }
        JobSource::Spec { name, scale, seed } => {
            // f64 Display is shortest-round-trip, so decode's
            // `as_f64` reads back the identical scale.
            let _ = write!(
                out,
                r#"{{"spec":"{}","scale":{scale},"seed":{seed}}}"#,
                escape(name)
            );
        }
        JobSource::Synthetic { nets, seed } => {
            let _ = write!(out, r#"{{"synthetic":{nets},"seed":{seed}}}"#);
        }
        JobSource::Eco { base, delta } => {
            out.push_str("{\"eco\":");
            encode_source(out, base);
            let _ = write!(out, r#","delta":"{}"}}"#, escape(delta));
        }
    }
}

/// Decodes a source object (recursing one level for `eco` bases).
fn decode_source(source: &Value) -> Result<JobSource, String> {
    if let Some(layout) = source.get("inline").and_then(Value::as_str) {
        Ok(JobSource::Inline {
            layout: layout.into(),
        })
    } else if let Some(name) = source.get("spec").and_then(Value::as_str) {
        Ok(JobSource::Spec {
            name: name.into(),
            scale: source
                .get("scale")
                .map(|s| s.as_f64().ok_or("invalid scale"))
                .transpose()?
                .unwrap_or(1.0),
            seed: source
                .get("seed")
                .map(|s| s.as_u64().ok_or("invalid seed"))
                .transpose()?
                .unwrap_or(1),
        })
    } else if let Some(nets) = source.get("synthetic").and_then(Value::as_u64) {
        Ok(JobSource::Synthetic {
            nets: nets as usize,
            seed: source
                .get("seed")
                .map(|s| s.as_u64().ok_or("invalid seed"))
                .transpose()?
                .unwrap_or(1),
        })
    } else if let Some(base) = source.get("eco") {
        let delta = source
            .get("delta")
            .and_then(Value::as_str)
            .ok_or("eco source needs a delta string")?;
        Ok(JobSource::Eco {
            base: Box::new(decode_source(base)?),
            delta: delta.into(),
        })
    } else {
        Err("source needs one of: inline, spec, synthetic, eco".into())
    }
}

/// Decodes a request object into a typed [`RouteRequest`].
///
/// # Errors
///
/// A message naming the missing/invalid field.
pub fn decode_request(v: &Value) -> Result<RouteRequest, String> {
    let source = decode_source(v.get("source").ok_or("missing field: source")?)?;

    let kind = match v.get("kind").and_then(Value::as_str).unwrap_or("SIM") {
        "SIM" | "sim" => SadpKind::Sim,
        "SID" | "sid" => SadpKind::Sid,
        "SIM_TRIM" | "sim_trim" => SadpKind::SimTrim,
        other => return Err(format!("unknown kind {other:?} (SIM, SID, SIM_TRIM)")),
    };
    let arm = match v.get("arm").and_then(Value::as_str) {
        None => Arm::Full,
        Some(s) => Arm::parse(s).ok_or_else(|| format!("unknown arm {s:?}"))?,
    };
    let priority = match v.get("priority").and_then(Value::as_str) {
        None => Priority::Normal,
        Some(s) => Priority::parse(s).ok_or_else(|| format!("unknown priority {s:?}"))?,
    };
    let mut budget = JobBudget::unlimited();
    if let Some(b) = v.get("budget") {
        budget.deadline_ms = b
            .get("deadline_ms")
            .map(|x| x.as_u64().ok_or("invalid deadline_ms"))
            .transpose()?;
        budget.max_phase_iters = b
            .get("max_phase_iters")
            .map(|x| x.as_u64().ok_or("invalid max_phase_iters"))
            .transpose()?
            .map(|n| n as usize);
        budget.max_expansions = b
            .get("max_expansions")
            .map(|x| x.as_u64().ok_or("invalid max_expansions"))
            .transpose()?;
    }
    Ok(RouteRequest {
        source,
        kind,
        arm,
        budget,
        priority,
    })
}

fn encode_status(out: &mut String, service: &Service, id: JobId, op: &str) {
    match service.poll(id) {
        None => {
            let _ = write!(
                out,
                r#"{{"ok":false,"op":"{op}","error":"unknown job {id}"}}"#
            );
        }
        Some(status) => {
            let _ = write!(
                out,
                r#"{{"ok":true,"op":"{op}","job":{},"state":"{}""#,
                id.0,
                status.state.name()
            );
            if !status.events.is_empty() {
                out.push_str(",\"events\":[");
                for (i, ev) in status.events.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", escape(&ev.wire_name()));
                }
                out.push(']');
            }
            if let Some(resp) = &status.response {
                encode_response_fields(out, resp);
            }
            out.push('}');
        }
    }
}

fn encode_response_fields(out: &mut String, resp: &crate::job::RouteResponse) {
    let _ = write!(
        out,
        r#","run_id":"{:016x}","outcome":"{}""#,
        resp.run_id,
        resp.outcome.name()
    );
    match &resp.outcome {
        JobOutcome::Completed { summary, report } => {
            let _ = write!(
                out,
                concat!(
                    r#","fingerprint":"{:016x}","routed_all":{},"congestion_free":{},"#,
                    r#""fvp_free":{},"colorable":{},"termination":"{}","wirelength":{},"#,
                    r#""vias":{},"nets":{}"#
                ),
                summary.fingerprint,
                summary.routed_all,
                summary.congestion_free,
                summary.fvp_free,
                summary.colorable,
                summary.termination,
                summary.wirelength,
                summary.vias,
                summary.nets,
            );
            let _ = write!(out, r#","report":"{}""#, escape(&report.to_json()));
        }
        JobOutcome::Failed { kind, error } => {
            let _ = write!(
                out,
                r#","kind":"{}","error":"{}""#,
                escape(kind),
                escape(error)
            );
        }
        JobOutcome::Cancelled => {}
    }
    if resp.dropped_events > 0 {
        let _ = write!(out, r#","dropped_events":{}"#, resp.dropped_events);
    }
}

/// Serves the JSON-lines protocol until EOF or a `shutdown` op, then
/// returns the number of requests handled. The `sadpd` binary is a
/// thin wrapper over this, so every protocol path is testable
/// in-process with in-memory readers/writers.
///
/// # Errors
///
/// Only transport-level I/O errors; protocol errors are answered on
/// the wire (`"ok":false`) and never abort the loop.
pub fn serve<R: BufRead, W: Write>(
    reader: R,
    mut writer: W,
    service: Service,
) -> std::io::Result<usize> {
    let mut handled = 0usize;
    let mut service = Some(service);
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        handled += 1;
        let mut out = String::new();
        let mut shutdown_mode = None;
        match parse(trimmed) {
            Err(e) => {
                let _ = write!(
                    out,
                    r#"{{"ok":false,"error":"{}"}}"#,
                    escape(&e.to_string())
                );
            }
            Ok(v) => {
                let op = v.get("op").and_then(Value::as_str).unwrap_or("");
                // After a shutdown op the service is gone but the
                // connection may still carry requests; every one of
                // them gets a typed protocol error, never a panic.
                let Some(svc) = service.as_ref() else {
                    let _ = write!(
                        out,
                        r#"{{"ok":false,"op":"{}","error":"service is shut down"}}"#,
                        escape(op)
                    );
                    out.push('\n');
                    writer.write_all(out.as_bytes())?;
                    writer.flush()?;
                    continue;
                };
                match op {
                    "submit" => {
                        match v.get("request").ok_or("missing field: request".to_string()) {
                            Err(e) => {
                                let _ = write!(
                                    out,
                                    r#"{{"ok":false,"op":"submit","error":"{}"}}"#,
                                    escape(&e)
                                );
                            }
                            Ok(req) => match decode_request(req) {
                                Err(e) => {
                                    let _ = write!(
                                        out,
                                        r#"{{"ok":false,"op":"submit","error":"{}"}}"#,
                                        escape(&e)
                                    );
                                }
                                Ok(request) => {
                                    let run_id = request.run_id();
                                    match svc.submit(request) {
                                        Ok(id) => {
                                            let _ = write!(
                                                out,
                                                r#"{{"ok":true,"op":"submit","job":{},"run_id":"{:016x}"}}"#,
                                                id.0, run_id
                                            );
                                        }
                                        Err(e) => {
                                            let _ = write!(
                                                out,
                                                r#"{{"ok":false,"op":"submit","error":"{}"}}"#,
                                                escape(&e.to_string())
                                            );
                                        }
                                    }
                                }
                            },
                        }
                    }
                    "poll" | "wait" => match v.get("job").and_then(Value::as_u64) {
                        None => {
                            let _ = write!(
                                out,
                                r#"{{"ok":false,"op":"{op}","error":"missing job id"}}"#
                            );
                        }
                        Some(id) => {
                            let id = JobId(id);
                            if op == "wait" {
                                // Block to terminal first, then encode
                                // through the same poll path.
                                if svc.wait(id).is_none() {
                                    let _ = write!(
                                        out,
                                        r#"{{"ok":false,"op":"wait","error":"unknown job {id}"}}"#
                                    );
                                } else {
                                    encode_status(&mut out, svc, id, op);
                                }
                            } else {
                                encode_status(&mut out, svc, id, op);
                            }
                        }
                    },
                    "cancel" => match v.get("job").and_then(Value::as_u64) {
                        None => {
                            let _ = write!(
                                out,
                                r#"{{"ok":false,"op":"cancel","error":"missing job id"}}"#
                            );
                        }
                        Some(id) => {
                            let accepted = svc.cancel(JobId(id));
                            let _ = write!(
                                out,
                                r#"{{"ok":true,"op":"cancel","job":{id},"accepted":{accepted}}}"#
                            );
                        }
                    },
                    "stats" | "health" => {
                        let s = svc.stats();
                        let _ = write!(
                            out,
                            concat!(
                                r#"{{"ok":true,"op":"{}","queued":{},"running":{},"#,
                                r#""completed":{},"failed":{},"cancelled":{},"#,
                                r#""cache_hits":{},"cache_misses":{},"journal_live":{}}}"#
                            ),
                            op,
                            s.queued,
                            s.running,
                            s.completed,
                            s.failed,
                            s.cancelled,
                            s.cache_hits,
                            s.cache_misses,
                            s.journal_live,
                        );
                    }
                    "shutdown" => {
                        shutdown_mode = Some(
                            match v.get("mode").and_then(Value::as_str).unwrap_or("drain") {
                                "now" => ShutdownMode::Now,
                                _ => ShutdownMode::Drain,
                            },
                        );
                    }
                    other => {
                        let _ = write!(
                            out,
                            r#"{{"ok":false,"error":"unknown op {}"}}"#,
                            escape(&format!("{other:?}"))
                        );
                    }
                }
            }
        }
        if let Some(mode) = shutdown_mode {
            if let Some(svc) = service.take() {
                let jobs = svc.shutdown_with(mode);
                let _ = write!(out, r#"{{"ok":true,"op":"shutdown","jobs":{jobs}}}"#);
            }
            // Keep reading: later requests on the same connection are
            // answered with "service is shut down" until EOF.
        }
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
    }
    // EOF without a shutdown op: drain what was accepted.
    if let Some(svc) = service.take() {
        svc.shutdown();
    }
    Ok(handled)
}

/// `true` when `state` is terminal on the wire.
pub fn is_terminal(state: JobState) -> bool {
    state == JobState::Done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_protocol_objects() {
        let v = parse(
            r#"{"op":"submit","request":{"source":{"spec":"ecc","scale":0.05,"seed":3},"kind":"SID","arm":"tpl","priority":"low","budget":{"deadline_ms":250}}}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
        let req = decode_request(v.get("request").unwrap()).unwrap();
        assert_eq!(req.kind, SadpKind::Sid);
        assert_eq!(req.arm, Arm::Tpl);
        assert_eq!(req.priority, Priority::Low);
        assert_eq!(req.budget.deadline_ms, Some(250));
        match req.source {
            JobSource::Spec { name, scale, seed } => {
                assert_eq!(name, "ecc");
                assert_eq!(scale, 0.05);
                assert_eq!(seed, 3);
            }
            other => panic!("wrong source {other:?}"),
        }
    }

    #[test]
    fn decode_handles_eco_sources() {
        let v = parse(
            r#"{"source":{"eco":{"spec":"ecc","scale":0.05,"seed":1},"delta":"block 1 3 4\n"}}"#,
        )
        .unwrap();
        let req = decode_request(&v).unwrap();
        match req.source {
            JobSource::Eco { base, delta } => {
                assert!(matches!(*base, JobSource::Spec { .. }));
                assert_eq!(delta, "block 1 3 4\n");
            }
            other => panic!("wrong source {other:?}"),
        }
        let missing_delta = parse(r#"{"source":{"eco":{"synthetic":4}}}"#).unwrap();
        assert!(decode_request(&missing_delta).is_err());
    }

    #[test]
    fn encode_request_round_trips_through_decode() {
        use crate::job::RouteRequest;
        let mut eco = RouteRequest::new(
            JobSource::Eco {
                base: Box::new(JobSource::Spec {
                    name: "ecc".into(),
                    scale: 0.05,
                    seed: 3,
                }),
                delta: "block 1 3 4\n".into(),
            },
            SadpKind::SimTrim,
        );
        eco.arm = Arm::Dvi;
        eco.priority = Priority::High;
        eco.budget.deadline_ms = Some(250);
        eco.budget.max_expansions = Some(9_000_000_000);
        let mut inline = RouteRequest::new(
            JobSource::Inline {
                layout: "grid 8 8 3\nnet a \"quoted\"\n".into(),
            },
            SadpKind::Sid,
        );
        inline.budget.max_phase_iters = Some(7);
        let plain = RouteRequest::new(JobSource::Synthetic { nets: 12, seed: 5 }, SadpKind::Sim);
        for req in [eco, inline, plain] {
            let mut text = String::new();
            encode_request(&mut text, &req);
            let v = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let back = decode_request(&v).unwrap();
            assert_eq!(back, req, "{text}");
            assert_eq!(back.run_id(), req.run_id());
        }
    }

    #[test]
    fn ops_after_shutdown_answer_typed_errors_not_panics() {
        let input = concat!(
            r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":1}}}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"poll","job":1}"#,
            "\n",
            r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":2}}}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let service = Service::start(crate::ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let handled = serve(input.as_bytes(), &mut out, service).unwrap();
        assert_eq!(handled, 5);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(lines[1].contains(r#""op":"shutdown","jobs":1"#), "{out}");
        for line in &lines[2..] {
            assert!(
                line.contains(r#""ok":false"#) && line.contains("service is shut down"),
                "{line}"
            );
        }
    }

    #[test]
    fn hostile_nesting_is_answered_and_the_loop_keeps_serving() {
        let input = format!(
            "{}\n{}\n{}\n",
            "[".repeat(100_000),
            r#"{"op":"health"}"#,
            r#"{"op":"shutdown"}"#
        );
        let mut out = Vec::new();
        let service = Service::start(crate::ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        assert_eq!(serve(input.as_bytes(), &mut out, service).unwrap(), 3);
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<Value> = out.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 3, "{out}");
        assert_eq!(replies[0].get("ok"), Some(&Value::Bool(false)), "{out}");
        assert!(replies[0]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("nesting deeper than 64")));
        assert_eq!(replies[1].get("ok"), Some(&Value::Bool(true)), "{out}");
        assert_eq!(replies[1].get("op").and_then(Value::as_str), Some("health"));
        assert_eq!(
            replies[2].get("op").and_then(Value::as_str),
            Some("shutdown")
        );
    }

    #[test]
    fn stats_op_reports_deterministic_counters() {
        let input = concat!(
            r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":1}}}"#,
            "\n",
            r#"{"op":"wait","job":1}"#,
            "\n",
            r#"{"op":"health"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let service = Service::start(crate::ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        serve(input.as_bytes(), &mut out, service).unwrap();
        let out = String::from_utf8(out).unwrap();
        let stats = out.lines().nth(2).unwrap();
        assert_eq!(
            stats,
            concat!(
                r#"{"ok":true,"op":"health","queued":0,"running":0,"#,
                r#""completed":1,"failed":0,"cancelled":0,"#,
                r#""cache_hits":0,"cache_misses":1,"journal_live":0}"#
            ),
        );
    }

    #[test]
    fn decode_rejects_missing_and_unknown_fields() {
        let no_source = parse(r#"{"kind":"SIM"}"#).unwrap();
        assert!(decode_request(&no_source).is_err());
        let bad_kind = parse(r#"{"source":{"synthetic":4},"kind":"XXX"}"#).unwrap();
        assert!(decode_request(&bad_kind).is_err());
        let bad_arm = parse(r#"{"source":{"synthetic":4},"arm":"xxl"}"#).unwrap();
        assert!(decode_request(&bad_arm).is_err());
        let minimal = parse(r#"{"source":{"synthetic":4}}"#).unwrap();
        let req = decode_request(&minimal).unwrap();
        assert_eq!(req.arm, Arm::Full);
        assert_eq!(req.priority, Priority::Normal);
    }
}
