//! The deterministic JSON-lines protocol `sadpd` speaks, built on
//! [`sadp_trace::json`] (re-exported here as [`Value`], [`parse`] and
//! [`escape`]). Requests decode from a [`Value`]; every reply, and
//! every job-journal record, is a [`Value`] written by that module's
//! one writer, so integers are exact over the whole `u64` range.
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

use std::io::{BufRead, Write};

use sadp_grid::SadpKind;
pub use sadp_trace::json::{escape, parse, Value};

use crate::job::{
    Arm, JobBudget, JobEvent, JobOutcome, JobSource, Priority, RouteRequest, RouteResponse,
};
use crate::service::{Service, ShutdownMode};
use crate::JobId;

/// Object members in wire order.
pub(crate) type Fields = Vec<(&'static str, Value)>;

/// A 64-bit id or hash as the 16 hex digits the wire carries.
pub(crate) fn hex(n: u64) -> Value {
    Value::Str(format!("{n:016x}"))
}

/// Appends a request in its canonical wire form — fixed field order,
/// the exact inverse of [`decode_request`]. This is the request the
/// job journal persists, so the encoding is append-only stable.
pub fn encode_request(out: &mut String, req: &RouteRequest) {
    out.push_str(&request_value(req).to_string());
}

/// The [`Value`] that [`encode_request`] writes.
pub(crate) fn request_value(req: &RouteRequest) -> Value {
    let kind = match req.kind {
        SadpKind::Sim => "SIM",
        SadpKind::Sid => "SID",
        SadpKind::SimTrim => "SIM_TRIM",
    };
    let b = &req.budget;
    let budget: Fields = [
        ("deadline_ms", b.deadline_ms),
        ("max_phase_iters", b.max_phase_iters.map(|n| n as u64)),
        ("max_expansions", b.max_expansions),
    ]
    .into_iter()
    .filter_map(|(name, v)| Some((name, v?.into())))
    .collect();
    let mut fields = vec![
        ("source", source_value(&req.source)),
        ("kind", kind.into()),
        ("arm", req.arm.name().into()),
    ];
    if !budget.is_empty() {
        fields.push(("budget", Value::obj(budget)));
    }
    fields.push(("priority", req.priority.name().into()));
    Value::obj(fields)
}

/// A source object (recursing one level for `eco` bases).
fn source_value(source: &JobSource) -> Value {
    match source {
        JobSource::Inline { layout } => Value::obj([("inline", layout.as_str().into())]),
        // The writer prints an f64 shortest-round-trip, so decode's
        // `as_f64` reads back the identical scale.
        JobSource::Spec { name, scale, seed } => Value::obj([
            ("spec", name.as_str().into()),
            ("scale", (*scale).into()),
            ("seed", (*seed).into()),
        ]),
        JobSource::Synthetic { nets, seed } => {
            Value::obj([("synthetic", (*nets).into()), ("seed", (*seed).into())])
        }
        JobSource::Eco { base, delta } => Value::obj([
            ("eco", source_value(base)),
            ("delta", delta.as_str().into()),
        ]),
    }
}

/// The optional `u64` member `name` of `v`; present but not a `u64`
/// is an error.
fn opt_u64(v: &Value, name: &str) -> Result<Option<u64>, String> {
    v.get(name)
        .map(|x| x.as_u64().ok_or_else(|| format!("invalid {name}")))
        .transpose()
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
            seed: opt_u64(source, "seed")?.unwrap_or(1),
        })
    } else if let Some(nets) = source.get("synthetic").and_then(Value::as_u64) {
        Ok(JobSource::Synthetic {
            nets: nets as usize,
            seed: opt_u64(source, "seed")?.unwrap_or(1),
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
        budget.deadline_ms = opt_u64(b, "deadline_ms")?;
        budget.max_phase_iters = opt_u64(b, "max_phase_iters")?.map(|n| n as usize);
        budget.max_expansions = opt_u64(b, "max_expansions")?;
    }
    Ok(RouteRequest {
        source,
        kind,
        arm,
        budget,
        priority,
    })
}

/// The deterministic members of a terminal response, in wire order:
/// `run_id`, `outcome`, then a completed job's summary (`fingerprint`
/// … `nets`) or a failed job's `kind` and `error`. The `wait`/`poll`
/// reply and the journal's `complete` record both carry them.
pub(crate) fn response_fields(resp: &RouteResponse) -> Fields {
    let mut fields = vec![
        ("run_id", hex(resp.run_id)),
        ("outcome", resp.outcome.name().into()),
    ];
    match &resp.outcome {
        JobOutcome::Completed { summary: s, .. } => fields.extend([
            ("fingerprint", hex(s.fingerprint)),
            ("routed_all", s.routed_all.into()),
            ("congestion_free", s.congestion_free.into()),
            ("fvp_free", s.fvp_free.into()),
            ("colorable", s.colorable.into()),
            ("termination", s.termination.name().into()),
            ("wirelength", s.wirelength.into()),
            ("vias", s.vias.into()),
            ("nets", s.nets.into()),
        ]),
        JobOutcome::Failed { kind, error } => {
            fields.extend([
                ("kind", kind.as_str().into()),
                ("error", error.as_str().into()),
            ]);
        }
        JobOutcome::Cancelled => {}
    }
    fields
}

fn job_id(request: &Value) -> Result<JobId, String> {
    request
        .get("job")
        .and_then(Value::as_u64)
        .map(JobId)
        .ok_or_else(|| "missing job id".into())
}

fn submit(svc: &Service, request: &Value) -> Result<Fields, String> {
    let request = decode_request(request.get("request").ok_or("missing field: request")?)?;
    let run_id = request.run_id();
    let id = svc.submit(request).map_err(|e| e.to_string())?;
    Ok(vec![("job", id.0.into()), ("run_id", hex(run_id))])
}

/// A `poll` reply, or a `wait` reply once the job is terminal.
fn status(svc: &Service, op: &str, request: &Value) -> Result<Fields, String> {
    let id = job_id(request)?;
    let unknown = || format!("unknown job {id}");
    if op == "wait" {
        svc.wait(id).ok_or_else(unknown)?;
    }
    let status = svc.poll(id).ok_or_else(unknown)?;
    let mut fields = vec![("job", id.0.into()), ("state", status.state.name().into())];
    if !status.events.is_empty() {
        let events: Vec<String> = status.events.iter().map(JobEvent::wire_name).collect();
        fields.push(("events", events.into()));
    }
    if let Some(resp) = &status.response {
        fields.extend(response_fields(resp));
        if let JobOutcome::Completed { report, .. } = &resp.outcome {
            fields.push(("report", report.to_json().into()));
        }
        if resp.dropped_events > 0 {
            fields.push(("dropped_events", resp.dropped_events.into()));
        }
    }
    Ok(fields)
}

fn stats(svc: &Service) -> Fields {
    let s = svc.stats();
    vec![
        ("queued", s.queued.into()),
        ("running", s.running.into()),
        ("completed", s.completed.into()),
        ("failed", s.failed.into()),
        ("cancelled", s.cancelled.into()),
        ("cache_hits", s.cache_hits.into()),
        ("cache_misses", s.cache_misses.into()),
        ("journal_live", s.journal_live.into()),
    ]
}

/// The reply to one parsed request: `{"ok":true,"op":…,…}`, or the
/// error reply of [`refusal`]. A `shutdown` op consumes the service;
/// every later request is refused with "service is shut down".
fn answer(service: &mut Option<Service>, request: &Value) -> Value {
    let op = request.get("op").and_then(Value::as_str).unwrap_or("");
    let fields = match service.as_ref() {
        None => Err("service is shut down".to_string()),
        Some(svc) => match op {
            "submit" => submit(svc, request),
            "poll" | "wait" => status(svc, op, request),
            "cancel" => job_id(request)
                .map(|id| vec![("job", id.0.into()), ("accepted", svc.cancel(id).into())]),
            "stats" | "health" => Ok(stats(svc)),
            "shutdown" => {
                let mode = match request.get("mode").and_then(Value::as_str) {
                    Some("now") => ShutdownMode::Now,
                    _ => ShutdownMode::Drain,
                };
                let jobs = service.take().map_or(0, |svc| svc.shutdown_with(mode));
                Ok(vec![("jobs", jobs.into())])
            }
            other => return refusal(None, format!("unknown op {other:?}")),
        },
    };
    match fields {
        Ok(fields) => Value::obj(
            [("ok", true.into()), ("op", op.into())]
                .into_iter()
                .chain(fields),
        ),
        Err(error) => refusal(Some(op), error),
    }
}

/// The one error reply, `{"ok":false,"op":…,"error":…}`; `op` is left
/// out when the line did not parse or named no known op.
fn refusal(op: Option<&str>, error: String) -> Value {
    let op = op.map(|op| ("op", Value::from(op)));
    Value::obj(
        [("ok", false.into())]
            .into_iter()
            .chain(op)
            .chain([("error", error.into())]),
    )
}

/// Serves the JSON-lines protocol until EOF, then returns the number
/// of requests handled. The `sadpd` binary is a thin wrapper over
/// this, so every protocol path is testable in-process with in-memory
/// readers/writers.
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
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        handled += 1;
        let reply = match parse(line) {
            Ok(request) => answer(&mut service, &request),
            Err(e) => refusal(None, e.to_string()),
        };
        let mut text = reply.to_string();
        text.push('\n');
        writer.write_all(text.as_bytes())?;
        writer.flush()?;
    }
    // EOF without a shutdown op: drain what was accepted.
    if let Some(svc) = service.take() {
        svc.shutdown();
    }
    Ok(handled)
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
        // Integers past 2^53 have no exact f64: they must survive as
        // written, or the run_id and the routed layout change.
        let past_f64 = (1u64 << 53) + 1;
        let mut wide = RouteRequest::new(
            JobSource::Synthetic {
                nets: 12,
                seed: past_f64,
            },
            SadpKind::Sim,
        );
        wide.budget.deadline_ms = Some(past_f64);
        wide.budget.max_phase_iters = Some(usize::MAX);
        wide.budget.max_expansions = Some(u64::MAX);
        let mut widest = RouteRequest::new(
            JobSource::Eco {
                base: Box::new(JobSource::Spec {
                    name: "ecc".into(),
                    scale: 0.05,
                    seed: u64::MAX,
                }),
                delta: "delnet 0\n".into(),
            },
            SadpKind::Sid,
        );
        widest.budget.deadline_ms = Some(u64::MAX);
        widest.budget.max_expansions = Some(past_f64);
        for req in [eco, inline, plain, wide, widest] {
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
