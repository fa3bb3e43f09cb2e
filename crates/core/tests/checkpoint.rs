//! Integration tests of session checkpoints: a session checkpointed
//! at a budget stop, serialized to text, and restored (as another
//! process would after a crash) must continue to the exact final
//! state — same solution bytes, same flags — as both an uninterrupted
//! run and the live resumed session. Corrupt or mismatched snapshots
//! are rejected with typed durability errors.

use std::time::Duration;

use benchgen::BenchSpec;
use sadp_grid::{write_solution, Netlist, RouteError, RoutingGrid, SadpKind};
use sadp_router::{RouteBudget, RouterConfig, RoutingOutcome, RoutingSession, Termination};
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
    let mut session = RoutingSession::new(&grid, &netlist, config);
    session.set_budget(RouteBudget::unlimited().with_max_phase_iters(5));
    step(&mut session, &mut NoopObserver);
    assert!(!session.converged(), "slice too large for this instance");
    let text = session.checkpoint();
    (grid, netlist, config, text)
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
    let bumped = text.replacen("sadp-checkpoint v1", "sadp-checkpoint v999", 1);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &bumped),
        "version mismatch",
    );
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

#[test]
fn simulated_replay_rejects_tampered_solution() {
    let (grid, netlist, config, text) = mid_run_checkpoint();
    // Re-frame a tampered body with a *valid* checksum: drop one via
    // line from the embedded solution, shrink the byte count, and
    // re-sign. Only the simulated-replay hard check can catch this.
    let (body, _) = text.rsplit_once("checksum ").expect("framed");
    let marker = "\nsolution ";
    let at = body.rfind(marker).expect("solution section");
    let (head, tail) = body.split_at(at);
    let tail = &tail[marker.len()..];
    let (len_line, sol) = tail.split_once('\n').expect("length line");
    let old_len: usize = len_line.trim().parse().expect("byte count");
    let sol = &sol[..old_len];
    let via_at = sol.find("via ").expect("solution has a via");
    let via_end = sol[via_at..].find('\n').expect("line end") + via_at + 1;
    let tampered_sol = format!("{}{}", &sol[..via_at], &sol[via_end..]);
    let mut tampered = format!("{head}{marker}{}\n{tampered_sol}", tampered_sol.len());
    // Trim the leading '\n' duplication: head already ends without it.
    tampered = tampered.replacen("\n\nsolution", "\nsolution", 1);
    expect_durability(
        RoutingSession::restore(&grid, &netlist, config, &signed(&tampered)),
        "replay mismatch",
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
