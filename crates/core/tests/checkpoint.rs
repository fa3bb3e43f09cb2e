//! Integration tests of session checkpoints: a session checkpointed
//! at a budget stop, serialized to text, and restored (as another
//! process would after a crash) must continue to the exact final
//! state — same solution bytes, same flags — as both an uninterrupted
//! run and the live resumed session. Corrupt or mismatched snapshots
//! are rejected with typed durability errors.

use std::time::Duration;

use benchgen::BenchSpec;
use sadp_grid::{write_solution, Netlist, RouteError, RoutingGrid, SadpKind};
use sadp_router::{
    RouteBudget, RouterConfig, RoutingOutcome, RoutingSession, Termination, CHECKPOINT_HEADER,
};
use sadp_trace::{NoopObserver, RouteObserver};

fn fingerprint(out: &RoutingOutcome) -> (String, [bool; 4], u64, u64) {
    (
        write_solution(&out.solution),
        [
            out.routed_all,
            out.congestion_free,
            out.fvp_free,
            out.colorable,
        ],
        out.stats.wirelength,
        out.stats.vias,
    )
}

fn step(session: &mut RoutingSession, obs: &mut impl RouteObserver) {
    session.initial_route(obs);
    session.negotiate(obs);
    session.tpl_removal(obs);
    session.ensure_colorable(obs);
}

fn instance() -> (RoutingGrid, Netlist, RouterConfig) {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    (
        spec.grid(),
        spec.generate(7),
        RouterConfig::full(SadpKind::Sim),
    )
}

/// Runs `session` to convergence in fixed iteration-cap slices,
/// checkpointing at every slice boundary; after each checkpoint the
/// session is *discarded and restored from the text*, proving each
/// snapshot alone carries the full resumable state.
fn run_through_checkpoints(
    grid: &RoutingGrid,
    netlist: &Netlist,
    config: RouterConfig,
    slice: usize,
) -> (RoutingOutcome, usize) {
    let mut session = RoutingSession::new(grid, netlist, config);
    let mut obs = NoopObserver;
    let mut restores = 0usize;
    while !session.converged() {
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(slice));
        step(&mut session, &mut obs);
        if session.converged() {
            break;
        }
        let text = session.checkpoint();
        drop(session);
        session = RoutingSession::restore(grid, netlist, config, &text)
            .expect("round-tripped checkpoint restores");
        restores += 1;
        assert!(restores < 100_000, "restored session makes no progress");
    }
    session.set_budget(RouteBudget::unlimited());
    (
        session.try_finish(&mut obs).expect("routing flow"),
        restores,
    )
}

#[test]
fn checkpoint_restored_run_matches_uninterrupted_fingerprint() {
    let (grid, netlist, config) = instance();
    let uninterrupted = RoutingSession::new(&grid, &netlist, config)
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    let (restored, restores) = run_through_checkpoints(&grid, &netlist, config, 3);
    assert!(
        restores > 1,
        "instance too small to exercise checkpoint stops"
    );
    assert_eq!(restored.termination, Termination::Converged);
    assert_eq!(fingerprint(&restored), fingerprint(&uninterrupted));
}

/// A restored session rebuilds its occupancy view in net-id order,
/// whatever order the live run installed routes in; the rip-up
/// victims it picks from shared cells must not depend on that. At
/// quarter scale some cells are shared when a slice ends. The second
/// input is a small flow whose TPL phase iterates: at 1-iteration
/// slices a restore lands inside that phase.
#[test]
fn restore_at_every_slice_matches_uninterrupted_run_at_quarter_scale() {
    // (circuit, scale, seed, slice, least TPL iterations)
    for (name, scale, seed, slice, tpl_iterations) in
        [("ecc", 0.25, 1, 16, 0), ("div", 0.02, 2, 1, 1)]
    {
        let spec = BenchSpec::by_name(name)
            .expect("paper circuit")
            .scaled(scale);
        let (grid, netlist) = (spec.grid(), spec.generate(seed));
        let config = RouterConfig::full(SadpKind::Sim);
        let uninterrupted = RoutingSession::new(&grid, &netlist, config)
            .try_finish(&mut NoopObserver)
            .expect("routing flow");
        let (restored, restores) = run_through_checkpoints(&grid, &netlist, config, slice);
        assert!(restores > 1, "{name}: no checkpoint stop to restore from");
        assert!(
            restored.tpl_stats.iterations >= tpl_iterations,
            "{name}: the TPL phase ran {} iterations",
            restored.tpl_stats.iterations
        );
        assert_eq!(restored.termination, Termination::Converged);
        assert_eq!(fingerprint(&restored), fingerprint(&uninterrupted));
    }
}

#[test]
fn checkpoint_is_deterministic_and_round_trips() {
    let (grid, netlist, config) = instance();
    let sliced = || {
        let mut session = RoutingSession::new(&grid, &netlist, config);
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(5));
        step(&mut session, &mut NoopObserver);
        session
    };
    let session = sliced();
    let a = session.checkpoint();
    let b = session.checkpoint();
    assert_eq!(a, b, "same state must snapshot to identical bytes");
    // A second, independent session of the same netlist writes the
    // same text: no byte may depend on per-process hash state.
    assert_eq!(
        sliced().checkpoint(),
        a,
        "independent sessions must snapshot to identical bytes"
    );
    // Restore and immediately re-checkpoint: the snapshot of the
    // restored session equals the original (no information lost).
    let restored = RoutingSession::restore(&grid, &netlist, config, &a).expect("restores");
    assert_eq!(restored.checkpoint(), a);
}

#[test]
fn deadline_stopped_session_checkpoints_and_resumes() {
    let (grid, netlist, config) = instance();
    let mut session = RoutingSession::new(&grid, &netlist, config);
    session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
    step(&mut session, &mut NoopObserver);
    assert_eq!(session.termination(), Termination::Deadline);
    let text = session.checkpoint();
    let mut restored = RoutingSession::restore(&grid, &netlist, config, &text).expect("restores");
    restored.set_budget(RouteBudget::unlimited());
    let out = restored
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    assert_eq!(out.termination, Termination::Converged);
    let clean = RoutingSession::new(&grid, &netlist, config)
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    assert_eq!(fingerprint(&out), fingerprint(&clean));
}

/// The pool width is not part of a checkpoint: a snapshot taken on two
/// threads restores on one thread and finishes to the uninterrupted
/// fingerprint.
#[test]
fn checkpoint_restores_under_another_thread_count() {
    let (grid, netlist, config) = instance();
    let uninterrupted = RoutingSession::new(&grid, &netlist, config)
        .try_finish(&mut NoopObserver)
        .expect("routing flow");
    let text = sadp_exec::with_threads(2, || {
        let mut session = RoutingSession::new(&grid, &netlist, config);
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(5));
        step(&mut session, &mut NoopObserver);
        assert!(!session.converged(), "slice too large for this instance");
        session.checkpoint()
    });
    let restored = sadp_exec::with_threads(1, || {
        let mut session =
            RoutingSession::restore(&grid, &netlist, config, &text).expect("restores");
        session.set_budget(RouteBudget::unlimited());
        session.try_finish(&mut NoopObserver).expect("routing flow")
    });
    assert_eq!(fingerprint(&restored), fingerprint(&uninterrupted));
}

fn mid_run_checkpoint() -> (RoutingGrid, Netlist, RouterConfig, String) {
    let (grid, netlist, config) = instance();
    let text = sliced_checkpoint(&grid, &netlist, config);
    (grid, netlist, config, text)
}

/// The checkpoint of a session of `config` stopped by a 5-iteration
/// slice.
fn sliced_checkpoint(grid: &RoutingGrid, netlist: &Netlist, config: RouterConfig) -> String {
    let mut session = RoutingSession::new(grid, netlist, config);
    session.set_budget(RouteBudget::unlimited().with_max_phase_iters(5));
    step(&mut session, &mut NoopObserver);
    assert!(!session.converged(), "slice too large for this instance");
    session.checkpoint()
}

fn expect_durability(r: Result<RoutingSession<'_>, RouteError>, needle: &str) {
    match r {
        Err(RouteError::Durability { what, reason }) => {
            assert_eq!(what, "checkpoint");
            assert!(reason.contains(needle), "'{reason}' !~ '{needle}'");
        }
        Err(e) => panic!("expected a durability error, got {e}"),
        Ok(_) => panic!("corrupt checkpoint accepted"),
    }
}

#[test]
fn version_mismatch_is_rejected_as_typed_error() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    // A later version, and the cost-journal format of v1.
    for other in ["sadp-checkpoint v999", "sadp-checkpoint v1"] {
        let bumped = text.replacen(CHECKPOINT_HEADER, other, 1);
        expect_durability(
            RoutingSession::restore(&grid, &netlist, config, &bumped),
            "version mismatch",
        );
    }
}

#[test]
fn checksum_mismatch_is_rejected_as_typed_error() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    // Flip one digit inside the body (the expanded counter).
    let tampered = text.replacen("expanded ", "expanded 9", 1);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &tampered),
        "checksum",
    );
    let truncated = &text[..text.len() / 2];
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, truncated),
        "checksum",
    );
}

#[test]
fn binding_mismatch_is_rejected_as_typed_error() {
    let (grid, _netlist, config, text) = mid_run_checkpoint();
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let other = spec.generate(8); // different seed -> different netlist
    expect_durability(
        RoutingSession::restore(&grid, &other, config, &text),
        "netlist fingerprint",
    );
    let (grid2, netlist2, _, text2) = mid_run_checkpoint();
    let other_config = RouterConfig::with_dvi(SadpKind::Sim);
    expect_durability(
        RoutingSession::restore(&grid2, &netlist2, other_config, &text2),
        "config fingerprint",
    );
}

/// `text` with the first line of its embedded solution that starts
/// with `prefix` dropped, the byte count shrunk to match, and the body
/// re-signed with a *valid* checksum.
fn drop_solution_line(text: &str, prefix: &str) -> String {
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    let marker = "\nsolution ";
    let at = body.rfind(marker).expect("solution section");
    let (head, tail) = body.split_at(at);
    let tail = &tail[marker.len()..];
    let (len_line, sol) = tail.split_once('\n').expect("length line");
    let old_len: usize = len_line.trim().parse().expect("byte count");
    let sol = &sol[..old_len];
    let line_at = sol.find(prefix).expect("solution has such a line");
    let line_end = sol[line_at..].find('\n').expect("line end") + line_at + 1;
    let tampered_sol = format!("{}{}", &sol[..line_at], &sol[line_end..]);
    signed(&format!(
        "{head}{marker}{}\n{tampered_sol}",
        tampered_sol.len()
    ))
}

#[test]
fn simulated_replay_rejects_tampered_solution() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    // Drop one wire line: every `dvic` digit count still matches its
    // route's vias, so only the simulated-replay hard check can catch
    // this.
    let tampered = drop_solution_line(&text, "wire ");
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &tampered),
        "replay mismatch: reinstalled solution",
    );
}

/// A route that lost a via no longer has one `dvic` digit per via:
/// restore refuses it before any replay.
#[test]
fn dvic_digit_count_differing_from_the_via_count_is_rejected() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    let tampered = drop_solution_line(&text, "via ");
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &tampered),
        "dvic digit count",
    );
}

/// One `dvic` digit changed in a re-signed checkpoint charges other
/// penalties than the writer's; the penalty hash of the audit line
/// refuses it.
#[test]
fn changed_dvic_digit_is_rejected() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    // Clear the first non-zero digit: that via loses every candidate.
    let mut changed = false;
    let tampered: String = body
        .split_inclusive('\n')
        .map(|line| match line.strip_prefix("dvic ") {
            Some(rest) if !changed => {
                let (id, digits) = rest.trim_end().split_once(' ').expect("dvic fields");
                let Some(i) = digits.find(|c| c != '0') else {
                    return line.to_string();
                };
                changed = true;
                format!("dvic {id} {}0{}\n", &digits[..i], &digits[i + 1..])
            }
            _ => line.to_string(),
        })
        .collect();
    assert!(changed, "no via with a feasible candidate");
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &signed(&tampered)),
        "penalty maps",
    );
    // The untouched body, re-signed, still restores.
    assert!(RoutingSession::restore(&grid, &netlist, config, &signed(body)).is_ok());
}

/// `dvic` lines must name exactly the routed nets of a session that
/// charges DVI costs.
#[test]
fn dvic_lines_must_match_the_charged_routes() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    let first = body.find("\ndvic ").expect("a charged route") + 1;
    let first_end = body[first..].find('\n').expect("line end") + first + 1;
    let missing = format!("{}{}", &body[..first], &body[first_end..]);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &signed(&missing)),
        "no dvic masks for routed net",
    );
    let unrouted = (0..netlist.len())
        .find(|id| !body.contains(&format!("\nroute {id}\n")))
        .expect("a net still unrouted");
    let extra = format!("{}dvic {unrouted} 0\n{}", &body[..first], &body[first..]);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &signed(&extra)),
        "dvic masks for unrouted net",
    );
    // A session without DVI costs writes no `dvic` line and refuses one.
    let tpl_only = RouterConfig::with_tpl(SadpKind::Sim);
    let text = sliced_checkpoint(&grid, &netlist, tpl_only);
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    assert!(!body.contains("\ndvic "));
    let at = body.find("\nsolution ").expect("solution section") + 1;
    let injected = format!("{}dvic 0 0\n{}", &body[..at], &body[at..]);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, tpl_only, &signed(&injected)),
        "without DVI costs",
    );
}

/// `body` framed with its valid checksum line (FNV-1a, matching the
/// checkpoint frame).
fn signed(body: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in body.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{body}checksum {h:016x}\n")
}

/// The `tpl` line repeats `enforce_blocked`; a validly signed
/// checkpoint where the two disagree is refused.
#[test]
fn tpl_line_disagreeing_with_enforce_blocked_is_rejected() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    assert!(
        body.contains("\nenforce_blocked 0\n"),
        "run still unenforced"
    );
    let flipped = body.replacen("\nenforce_blocked 0\n", "\nenforce_blocked 1\n", 1);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &signed(&flipped)),
        "tpl activated disagrees",
    );
    // The untouched body, re-signed, still restores.
    assert!(RoutingSession::restore(&grid, &netlist, config, &signed(body)).is_ok());
}

/// The `done` fields of the `congestion` and `tpl` lines follow from
/// the phase's termination, its rotation and the configured cap; a
/// validly signed checkpoint whose field disagrees is refused.
#[test]
fn done_field_disagreeing_with_its_phase_is_rejected() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    for (line, flipped, needle) in [
        (
            "\ncongestion 0 0 0\n",
            "\ncongestion 0 1 0\n",
            "congestion done disagrees",
        ),
        (
            "\ntpl 0 0 0 0 0\n",
            "\ntpl 0 0 0 1 0\n",
            "tpl done disagrees",
        ),
    ] {
        assert!(body.contains(line), "run still in initial routing");
        let tampered = body.replacen(line, flipped, 1);
        expect_durability(
            RoutingSession::restore(&grid, &netlist, config, &signed(&tampered)),
            needle,
        );
    }
}
