//! Golden bytes of the `sadpd` protocol and the job journal: one
//! reply of every shape and one journal record of each kind, pinned
//! byte for byte. Clients parse these lines and parent journals must
//! keep replaying, so any change to the encoders that moves a byte
//! fails here first.
//!
//! A completed job's `report` string carries wall-clock timings; it is
//! checked to be a JSON document and then masked as `"<report>"`.
//! Every other byte is compared as written.
//!
//! Fault plans are process-global, so the tests serialize on one lock.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use sadp_service::wire::{self, Value};
use sadp_service::{DurabilityConfig, Journal, Service, ServiceConfig};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sadp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serves `requests`, one per line, and returns the replies with a
/// report string masked.
fn transcript(service: Service, requests: &[&str]) -> Vec<String> {
    let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let mut out = Vec::new();
    let handled = wire::serve(input.as_bytes(), &mut out, service).expect("in-memory transport");
    assert_eq!(handled, requests.len());
    let text = String::from_utf8(out).expect("utf8 protocol output");
    text.lines().map(mask_report).collect()
}

fn mask_report(line: &str) -> String {
    let reply = wire::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    match reply.get("report").and_then(Value::as_str) {
        Some(report) => {
            assert!(wire::parse(report).is_ok(), "report is JSON: {report}");
            let quoted = format!("\"{}\"", wire::escape(report));
            assert!(line.contains(&quoted), "{line}");
            line.replacen(&quoted, "\"<report>\"", 1)
        }
        None => line.to_string(),
    }
}

/// The payloads of `journal.log` under `dir`, in file order, header
/// line included.
fn journal_records(dir: &Path) -> Vec<String> {
    let bytes = std::fs::read(dir.join("journal.log")).expect("journal file");
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        records.push(String::from_utf8(payload.to_vec()).expect("utf8 record"));
        pos += 12 + len;
    }
    records
}

fn assert_lines(got: &[String], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "{got:#?}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "line {i}");
    }
}

#[test]
fn every_reply_shape_and_journal_record_is_pinned() {
    let _g = lock();
    let dir = tmp("replies");
    let config = ServiceConfig {
        workers: 1,
        event_cap: 3,
        ..ServiceConfig::default()
    };
    let (service, _) = Service::start_durable(config, DurabilityConfig::new(&dir)).unwrap();
    let got = transcript(
        service,
        &[
            r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":1}}}"#,
            r#"{"op":"wait","job":1}"#,
            r#"{"op":"submit","request":{"source":{"inline":"not a layout"},"kind":"SID"}}"#,
            r#"{"op":"wait","job":2}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","request":{"kind":"SIM"}}"#,
            r#"{"op":"submit","request":{"source":{"synthetic":4},"arm":"xxl"}}"#,
            r#"{"op":"submit","request":{"source":{"spec":"ecc","scale":1e999,"seed":1}}}"#,
            r#"{"op":"poll"}"#,
            r#"{"op":"poll","job":99}"#,
            r#"{"op":"wait","job":99}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"cancel","job":1}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"health"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{}"#,
            r#"{"op":"#,
            // The first job keeps the one worker busy while the second
            // waits in the queue and is cancelled there.
            r#"{"op":"submit","request":{"source":{"synthetic":400,"seed":3},"priority":"low"}}"#,
            r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":2},"priority":"low"}}"#,
            r#"{"op":"poll","job":4}"#,
            r#"{"op":"cancel","job":4}"#,
            r#"{"op":"wait","job":4}"#,
            r#"{"op":"shutdown","mode":"now"}"#,
            r#"{"op":"poll","job":1}"#,
            r#"{"op":"frobnicate"}"#,
        ],
    );
    assert_lines(
        &got,
        &[
            r#"{"ok":true,"op":"submit","job":1,"run_id":"8c3b0ea791d16760"}"#,
            r#"{"ok":true,"op":"wait","job":1,"state":"done","events":["started","phase_start:initial_routing","phase_end:initial_routing"],"run_id":"8c3b0ea791d16760","outcome":"completed","fingerprint":"08642787f073e1da","routed_all":true,"congestion_free":true,"fvp_free":true,"colorable":true,"termination":"converged","wirelength":44,"vias":18,"nets":4,"report":"<report>","dropped_events":8}"#,
            r#"{"ok":true,"op":"submit","job":2,"run_id":"2a650c7bb2692c55"}"#,
            r#"{"ok":true,"op":"wait","job":2,"state":"done","events":["started"],"run_id":"2a650c7bb2692c55","outcome":"failed","kind":"source","error":"parse error: line 1: unknown directive 'not' (column 1, near 'not')"}"#,
            r#"{"ok":false,"op":"submit","error":"missing field: request"}"#,
            r#"{"ok":false,"op":"submit","error":"missing field: source"}"#,
            r#"{"ok":false,"op":"submit","error":"unknown arm \"xxl\""}"#,
            r#"{"ok":false,"op":"submit","error":"invalid request: scale inf is not finite"}"#,
            r#"{"ok":false,"op":"poll","error":"missing job id"}"#,
            r#"{"ok":false,"op":"poll","error":"unknown job job-99"}"#,
            r#"{"ok":false,"op":"wait","error":"unknown job job-99"}"#,
            r#"{"ok":false,"op":"cancel","error":"missing job id"}"#,
            r#"{"ok":true,"op":"cancel","job":1,"accepted":false}"#,
            r#"{"ok":true,"op":"stats","queued":0,"running":0,"completed":1,"failed":1,"cancelled":0,"cache_hits":0,"cache_misses":1,"journal_live":0}"#,
            r#"{"ok":true,"op":"health","queued":0,"running":0,"completed":1,"failed":1,"cancelled":0,"cache_hits":0,"cache_misses":1,"journal_live":0}"#,
            r#"{"ok":false,"error":"unknown op \"frobnicate\""}"#,
            r#"{"ok":false,"error":"unknown op \"\""}"#,
            r#"{"ok":false,"error":"expected a value at byte 6"}"#,
            r#"{"ok":true,"op":"submit","job":3,"run_id":"8f8b6f57eae402e9"}"#,
            r#"{"ok":true,"op":"submit","job":4,"run_id":"7426870acf232e26"}"#,
            r#"{"ok":true,"op":"poll","job":4,"state":"queued"}"#,
            r#"{"ok":true,"op":"cancel","job":4,"accepted":true}"#,
            r#"{"ok":true,"op":"wait","job":4,"state":"done","run_id":"7426870acf232e26","outcome":"cancelled"}"#,
            r#"{"ok":true,"op":"shutdown","jobs":4}"#,
            r#"{"ok":false,"op":"poll","error":"service is shut down"}"#,
            r#"{"ok":false,"op":"frobnicate","error":"service is shut down"}"#,
        ],
    );

    let mut records = journal_records(&dir);
    // The busy job's completion: its event count depends on where the
    // shutdown stopped it.
    let last = records.pop().expect("records");
    assert!(
        last.starts_with(
            r#"{"rec":"complete","job":3,"run_id":"8f8b6f57eae402e9","outcome":"cancelled","#
        ),
        "{last}"
    );
    assert_lines(
        &records,
        &[
            r#"sadpd-journal v1"#,
            r#"{"rec":"accept","job":1,"run_id":"8c3b0ea791d16760","request":{"source":{"synthetic":4,"seed":1},"kind":"SIM","arm":"full","priority":"normal"}}"#,
            r#"{"rec":"complete","job":1,"run_id":"8c3b0ea791d16760","outcome":"completed","fingerprint":"08642787f073e1da","routed_all":true,"congestion_free":true,"fvp_free":true,"colorable":true,"termination":"converged","wirelength":44,"vias":18,"nets":4,"dropped_events":8}"#,
            r#"{"rec":"accept","job":2,"run_id":"2a650c7bb2692c55","request":{"source":{"inline":"not a layout"},"kind":"SID","arm":"full","priority":"normal"}}"#,
            r#"{"rec":"complete","job":2,"run_id":"2a650c7bb2692c55","outcome":"failed","kind":"source","error":"parse error: line 1: unknown directive 'not' (column 1, near 'not')","dropped_events":0}"#,
            r#"{"rec":"accept","job":3,"run_id":"8f8b6f57eae402e9","request":{"source":{"synthetic":400,"seed":3},"kind":"SIM","arm":"full","priority":"low"}}"#,
            r#"{"rec":"accept","job":4,"run_id":"7426870acf232e26","request":{"source":{"synthetic":4,"seed":2},"kind":"SIM","arm":"full","priority":"low"}}"#,
            r#"{"rec":"complete","job":4,"run_id":"7426870acf232e26","outcome":"cancelled","dropped_events":0}"#,
        ],
    );

    // Compaction writes the id highwater.
    let (mut journal, _, _) = Journal::open(&dir).unwrap();
    journal.compact().unwrap();
    drop(journal);
    assert_lines(
        &journal_records(&dir),
        &["sadpd-journal v1", r#"{"rec":"highwater","next":5}"#],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_refusals_from_the_service_are_pinned() {
    let _g = lock();
    let full = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 0,
        ..ServiceConfig::default()
    });
    let submit = r#"{"op":"submit","request":{"source":{"synthetic":4,"seed":1}}}"#;
    let got = transcript(full, &[submit, r#"{"op":"shutdown"}"#]);
    assert_lines(
        &got,
        &[
            r#"{"ok":false,"op":"submit","error":"job queue is full"}"#,
            r#"{"ok":true,"op":"shutdown","jobs":0}"#,
        ],
    );

    let dir = tmp("fsync");
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let (service, _) = Service::start_durable(config, DurabilityConfig::new(&dir)).unwrap();
    let guard = faultinject::arm(
        11,
        faultinject::FaultSpec::new().point("io.fsync_fail", 1.0),
    );
    let got = transcript(service, &[submit, r#"{"op":"shutdown"}"#]);
    drop(guard);
    assert_lines(
        &got,
        &[
            r#"{"ok":false,"op":"submit","error":"journal write failed: durability failure in journal: fsync failed (failpoint io.fsync_fail)"}"#,
            r#"{"ok":true,"op":"shutdown","jobs":0}"#,
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}
