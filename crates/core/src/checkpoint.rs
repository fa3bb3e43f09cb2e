//! Session checkpoints: serialize a budget-stopped [`RoutingSession`]
//! to a checksummed text snapshot and restore it byte-exactly later
//! (possibly in another process).
//!
//! The snapshot captures everything a resumed activation observes:
//! the partial solution (solution text form), the DVIC-feasibility
//! byte of every via of every charged route (one hex digit per via;
//! `RouterState::restore_route` re-derives the route's Algorithm 1
//! charges from them, so restore is order-independent — re-checking
//! feasibility on restore would not be), the negotiated-congestion
//! history, the pending work
//! of every phase (the congestion heap as its points in pop order,
//! renumbered on restore; the TPL heap as its key set — unique
//! sequence numbers make the pop order a pure function of the set),
//! phase terminations, and the cumulative expansion counter. The two
//! R&R `done` fields are derived (converged, or the configured cap
//! spent) and restore checks them against that rule. Restoring and
//! continuing under the same budget slicing therefore produces the
//! same `outcome_fingerprint` as an uninterrupted run — the
//! durability contract the service's journal-replay recovery relies
//! on.
//!
//! Format: line-oriented text, a `sadp-checkpoint v2` header, a
//! binding line tying the snapshot to its netlist and configuration
//! (FNV-1a fingerprints), an `audit` line with the state digest and a
//! hash of both penalty maps, and a trailing `checksum` line over all
//! preceding bytes. Any mismatch — version, checksum, binding, a
//! `dvic` digit count that is not the route's via count, a
//! simulated-replay divergence, or penalty maps that differ from the
//! writer's — is rejected as [`RouteError::Durability`]. A `v1` file
//! (per-net cost journals) is refused like any other version.

use std::cmp::Reverse;
use std::time::Instant;

use sadp_grid::{
    read_solution, write_netlist, write_solution, GridPoint, NetId, Netlist, RouteError,
    RoutingGrid,
};
use sadp_trace::fnv1a;

use crate::budget::{ActiveBudget, Termination};
use crate::flow::{Progress, RouterConfig, RoutingSession};
use crate::rnr::{InitialWork, RnrStats, Violation};
use crate::state::RouterState;

/// Magic + version header of the checkpoint format.
pub const CHECKPOINT_HEADER: &str = "sadp-checkpoint v2";

/// The hex digit of each DVIC-feasibility byte (four bits).
const HEX: &[u8; 16] = b"0123456789abcdef";

fn durability(reason: impl Into<String>) -> RouteError {
    RouteError::Durability {
        what: "checkpoint".into(),
        reason: reason.into(),
    }
}

fn term_name(t: Option<Termination>) -> &'static str {
    match t {
        None => "-",
        Some(t) => t.name(),
    }
}

fn parse_term_opt(s: &str) -> Result<Option<Termination>, RouteError> {
    if s == "-" {
        return Ok(None);
    }
    Termination::parse(s)
        .map(Some)
        .ok_or_else(|| durability(format!("unknown termination '{s}'")))
}

/// Line cursor over the checkpoint body that tracks its byte
/// position, so the raw embedded solution section can be sliced out
/// after the `solution <len>` marker line.
struct LineReader<'s> {
    rest: &'s str,
}

impl<'s> LineReader<'s> {
    fn new(text: &'s str) -> LineReader<'s> {
        LineReader { rest: text }
    }

    fn line(&mut self) -> Result<&'s str, RouteError> {
        if self.rest.is_empty() {
            return Err(durability("truncated body"));
        }
        match self.rest.find('\n') {
            Some(i) => {
                let l = &self.rest[..i];
                self.rest = &self.rest[i + 1..];
                Ok(l)
            }
            None => {
                let l = self.rest;
                self.rest = "";
                Ok(l)
            }
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: Option<&str>, what: &str) -> Result<T, RouteError> {
    s.and_then(|s| s.parse().ok())
        .ok_or_else(|| durability(format!("bad or missing {what}")))
}

fn parse_bool(s: Option<&str>, what: &str) -> Result<bool, RouteError> {
    match s {
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        _ => Err(durability(format!("bad or missing {what}"))),
    }
}

/// FNV-1a fingerprint binding a checkpoint to its netlist-on-grid.
fn netlist_fingerprint(grid: &RoutingGrid, netlist: &Netlist) -> u64 {
    fnv1a(write_netlist(grid, netlist).as_bytes())
}

/// FNV-1a fingerprint binding a checkpoint to the routing fields of
/// its configuration: process kind, arm, cost parameters, both phase
/// caps, and coloring attempts — every field of the configuration.
/// The exhaustive destructuring makes a new field a compile error here
/// until it is classified.
fn config_fingerprint(config: &RouterConfig) -> u64 {
    let RouterConfig {
        sadp,
        consider_dvi,
        consider_tpl,
        params,
        max_congestion_iters,
        max_tpl_iters,
        coloring_attempts,
    } = config;
    fnv1a(
        format!(
            "{sadp:?} {consider_dvi} {consider_tpl} {params:?} \
             {max_congestion_iters} {max_tpl_iters} {coloring_attempts}"
        )
        .as_bytes(),
    )
}

fn push_stats(out: &mut String, key: &str, s: RnrStats) {
    out.push_str(&format!(
        "{key} {} {} {} {}\n",
        s.iterations,
        s.reroutes,
        s.failures,
        s.termination.name()
    ));
}

fn parse_stats(
    rest: &mut std::str::SplitWhitespace<'_>,
    key: &str,
) -> Result<RnrStats, RouteError> {
    let iterations = parse_num(rest.next(), key)?;
    let reroutes = parse_num(rest.next(), key)?;
    let failures = parse_num(rest.next(), key)?;
    let term = rest
        .next()
        .and_then(Termination::parse)
        .ok_or_else(|| durability(format!("bad termination in {key}")))?;
    Ok(RnrStats {
        iterations,
        reroutes,
        failures,
        termination: term,
    })
}

impl<'a> RoutingSession<'a> {
    /// Serializes the session's full resumable state to the
    /// checkpoint text form.
    ///
    /// The snapshot is deterministic: the same session state always
    /// yields the same bytes. Call between phase activations (the
    /// natural slice boundaries of a budget-driven run); a session
    /// whose search was cut *mid-net* by an expansion cap checkpoints
    /// the state as of the interrupted activation's entry, which is
    /// exactly what a resumed run re-executes.
    pub fn checkpoint(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "bind {:016x} {:016x}\n",
            netlist_fingerprint(&self.state.grid, self.netlist),
            config_fingerprint(&self.config)
        ));
        let d = state_digest(&self.state);
        out.push_str(&format!(
            "audit {} {:016x} {} {} {:016x} {} {} {:016x}\n",
            d.congested,
            d.congested_hash,
            d.fvp_windows,
            d.vias_tracked,
            d.conflict_hash,
            d.wirelength,
            d.via_count,
            penalty_hash(&self.state)
        ));
        out.push_str(&format!("expanded {}\n", self.scratch.expanded));
        out.push_str(&format!(
            "enforce_blocked {}\n",
            self.state.enforce_blocked as u8
        ));
        let p = &self.progress;
        out.push_str(&format!("failed {}", p.failed.len()));
        for id in &p.failed {
            out.push_str(&format!(" {}", id.0));
        }
        out.push('\n');
        out.push_str(&format!(
            "initial {} {} {}",
            p.initial_work.seeded as u8,
            p.initial_work.pos,
            p.initial_work.order.len()
        ));
        for id in &p.initial_work.order {
            out.push_str(&format!(" {}", id.0));
        }
        out.push('\n');
        out.push_str(&format!(
            "terms {} {} {} {}\n",
            term_name(p.initial_term),
            term_name(p.congestion.term),
            term_name(p.tpl.term),
            term_name(p.coloring_term)
        ));
        // The `done` fields follow from the rest of the snapshot and
        // the configured caps; restore checks that they agree.
        let c = &p.congestion;
        out.push_str(&format!(
            "congestion {} {} {}\n",
            c.work.rotation,
            c.done(self.auto_cap(self.config.max_congestion_iters)) as u8,
            c.clean as u8
        ));
        push_stats(&mut out, "cstats", c.stats);
        // The congestion heap holds only congested points, which pop
        // in push order: its points in that order restore it.
        let queue = c.work.pending();
        out.push_str(&format!("cqueue {}\n", queue.len()));
        for (_, _, v) in queue {
            if let Violation::Congestion(q) = v {
                out.push_str(&format!("cq {} {} {}\n", q.layer, q.x, q.y));
            }
        }
        // The third field repeats `enforce_blocked`: the line keeps
        // its five fields so existing checkpoints stay readable and
        // byte-identical, and restore checks that the two agree.
        let t = &p.tpl;
        out.push_str(&format!(
            "tpl {} {} {} {} {}\n",
            t.work.seq,
            t.work.rotation,
            self.state.enforce_blocked as u8,
            t.done(self.auto_cap(self.config.max_tpl_iters)) as u8,
            t.clean as u8
        ));
        push_stats(&mut out, "tstats", t.stats);
        // The heap's pop order is a pure function of its key set
        // (sequence numbers are unique), so a dump in pop order
        // restores it exactly — and keeps the snapshot bytes
        // deterministic.
        let entries = t.work.pending();
        out.push_str(&format!("theap {}\n", entries.len()));
        for (_, seq, v) in entries {
            match v {
                Violation::Congestion(q) => {
                    out.push_str(&format!("tv C {} {} {} {}\n", q.layer, q.x, q.y, seq));
                }
                Violation::Fvp(vl, (ox, oy)) => {
                    out.push_str(&format!("tv F {vl} {ox} {oy} {seq}\n"));
                }
            }
        }
        out.push_str(&format!(
            "coloring {} {}\n",
            p.coloring_attempts_done,
            match p.colorable {
                None => "-",
                Some(false) => "0",
                Some(true) => "1",
            }
        ));
        let hist: Vec<(GridPoint, i64)> = self
            .state
            .history
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(p, &v)| (p, v))
            .collect();
        out.push_str(&format!("hist {}\n", hist.len()));
        for (p, v) in hist {
            out.push_str(&format!("h {} {} {} {}\n", p.layer, p.x, p.y, v));
        }
        let wb: Vec<GridPoint> = self
            .state
            .wire_blocked
            .iter()
            .filter(|(_, &b)| b)
            .map(|(p, _)| p)
            .collect();
        out.push_str(&format!("wblocked {}\n", wb.len()));
        for p in wb {
            out.push_str(&format!("wb {} {} {}\n", p.layer, p.x, p.y));
        }
        for (id, masks) in self.state.dvic.iter().enumerate() {
            let Some(masks) = masks else {
                continue;
            };
            out.push_str(&format!("dvic {id} "));
            out.extend(masks.iter().map(|&m| HEX[usize::from(m & 0xF)] as char));
            out.push('\n');
        }
        let solution = write_solution(&self.state.solution);
        out.push_str(&format!("solution {}\n", solution.len()));
        out.push_str(&solution);
        let checksum = fnv1a(out.as_bytes());
        out.push_str(&format!("checksum {checksum:016x}\n"));
        out
    }

    /// Restores a session from checkpoint `text`, warm-starting it
    /// exactly as [`RoutingSession::apply_delta`] warm-starts an ECO
    /// base: the caller supplies the same grid, netlist, and
    /// configuration the checkpointed run used (the binding line
    /// verifies this), and the restored session continues its phase
    /// sequence from the recorded point.
    ///
    /// Restore ends with a **simulated replay** hard check: every
    /// restored route is re-installed into a scratch state through
    /// the normal install path and the order-independent state
    /// (occupancy conflicts, TPL conflict counts, FVP windows,
    /// solution statistics) must agree with the snapshot. A tampered
    /// or internally inconsistent checkpoint is rejected instead of
    /// silently producing divergent routing.
    ///
    /// # Errors
    ///
    /// [`RouteError::Durability`] on a version, checksum, binding, or
    /// replay mismatch (and any malformed field); the underlying
    /// validation error when grid or netlist are themselves invalid.
    pub fn restore(
        grid: &RoutingGrid,
        netlist: &'a Netlist,
        config: RouterConfig,
        text: &str,
    ) -> Result<RoutingSession<'a>, RouteError> {
        // --- frame: header, checksum ---
        let body = verify_frame(text)?;
        let mut lines = LineReader::new(body);
        let header = lines.line()?;
        debug_assert_eq!(header, CHECKPOINT_HEADER);

        // --- binding ---
        let bind = lines.line()?;
        let mut toks = bind.split_whitespace();
        if toks.next() != Some("bind") {
            return Err(durability("missing bind line"));
        }
        let want_netlist = u64::from_str_radix(toks.next().unwrap_or(""), 16)
            .map_err(|_| durability("bad netlist fingerprint"))?;
        let want_config = u64::from_str_radix(toks.next().unwrap_or(""), 16)
            .map_err(|_| durability("bad config fingerprint"))?;
        if want_netlist != netlist_fingerprint(grid, netlist) {
            return Err(durability("netlist fingerprint mismatch"));
        }
        if want_config != config_fingerprint(&config) {
            return Err(durability("config fingerprint mismatch"));
        }
        let audit_line = lines.line()?;
        let (recorded, recorded_penalty) = parse_audit(audit_line)?;

        let mut session = RoutingSession::try_new(grid, netlist, config)?;

        // --- scalars and work queues ---
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "expanded")?;
        session.scratch.expanded = parse_num(t.next(), "expanded")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "enforce_blocked")?;
        let enforce_blocked = parse_bool(t.next(), "enforce_blocked")?;
        let caps = (
            session.auto_cap(config.max_congestion_iters),
            session.auto_cap(config.max_tpl_iters),
        );
        session.progress = parse_progress(&mut lines, grid, netlist.len(), enforce_blocked, caps)?;

        // --- dense-state overlays ---
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "hist")?;
        let n: usize = parse_num(t.next(), "hist count")?;
        for _ in 0..n {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            expect_key(&mut t, "h")?;
            let p = parse_point(&mut t, grid, "h")?;
            let v: i64 = parse_num(t.next(), "history amount")?;
            if !session.state.history.contains(p) {
                return Err(durability("history point out of bounds"));
            }
            session.state.history[p] = v;
        }
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "wblocked")?;
        let n: usize = parse_num(t.next(), "wblocked count")?;
        for _ in 0..n {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            expect_key(&mut t, "wb")?;
            let p = parse_point(&mut t, grid, "wb")?;
            if !session.state.wire_blocked.contains(p) {
                return Err(durability("wire blockage out of bounds"));
            }
            session.state.wire_blocked[p] = true;
        }

        // --- DVIC-feasibility bytes ---
        let mut masks: Vec<Option<Box<[u8]>>> = vec![None; netlist.len()];
        let solution_len: usize;
        loop {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            match t.next() {
                Some("dvic") => {
                    if !config.consider_dvi {
                        return Err(durability("dvic masks on a session without DVI costs"));
                    }
                    let id: usize = parse_num(t.next(), "dvic net id")?;
                    let slot = masks
                        .get_mut(id)
                        .ok_or_else(|| durability("dvic net id out of range"))?;
                    if slot.is_some() {
                        return Err(durability(format!("second dvic line for net {id}")));
                    }
                    *slot = Some(parse_masks(t.next().unwrap_or(""))?);
                    if t.next().is_some() {
                        return Err(durability("trailing field on a dvic line"));
                    }
                }
                Some("solution") => {
                    solution_len = parse_num(t.next(), "solution byte count")?;
                    break;
                }
                _ => return Err(durability("unexpected line in dvic section")),
            }
        }

        // --- solution + charges from the recorded bytes ---
        let rest = lines.rest;
        if rest.len() < solution_len {
            return Err(durability("solution section truncated"));
        }
        let solution_text = &rest[..solution_len];
        if rest[solution_len..].trim() != "" {
            return Err(durability("trailing bytes after solution section"));
        }
        let mut parsed = read_solution(grid.clone(), netlist, solution_text)
            .map_err(|e| durability(format!("embedded solution rejected: {e}")))?;
        for (i, masks) in masks.into_iter().enumerate() {
            let id = NetId(i as u32);
            match (parsed.take_route(id), masks) {
                (None, None) => {}
                (None, Some(_)) => {
                    return Err(durability(format!("dvic masks for unrouted net {i}")));
                }
                (Some(_), None) if config.consider_dvi => {
                    return Err(durability(format!("no dvic masks for routed net {i}")));
                }
                (Some(route), Some(m)) if m.len() != route.vias().len() => {
                    return Err(durability(format!(
                        "dvic digit count {} differs from the {} vias of net {i}",
                        m.len(),
                        route.vias().len()
                    )));
                }
                (Some(route), masks) => session.state.restore_route(id, route, masks),
            }
        }
        session.state.enforce_blocked = enforce_blocked;
        session.budget = ActiveBudget::unlimited();
        session.start = Instant::now();

        simulated_replay_check(&session.state, &recorded, grid, netlist, &config)?;
        if penalty_hash(&session.state) != recorded_penalty {
            return Err(durability(
                "replay mismatch: penalty maps charged from the dvic masks diverge from the recorded hash",
            ));
        }
        Ok(session)
    }
}

/// Parses the phase bookkeeping, from the `failed` line through the
/// `coloring` line, into one [`Progress`] record. `enforce_blocked`
/// is the value of the earlier line of that name, which the `tpl`
/// line repeats; `caps` are the congestion and TPL iteration caps the
/// two `done` fields are checked against.
fn parse_progress(
    lines: &mut LineReader<'_>,
    grid: &RoutingGrid,
    nets: usize,
    enforce_blocked: bool,
    caps: (usize, usize),
) -> Result<Progress, RouteError> {
    let mut p = Progress::default();
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "failed")?;
    let n: usize = parse_num(t.next(), "failed count")?;
    p.failed = parse_ids(&mut t, n, nets, "failed")?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "initial")?;
    let seeded = parse_bool(t.next(), "initial seeded")?;
    let pos: usize = parse_num(t.next(), "initial pos")?;
    let n: usize = parse_num(t.next(), "initial order count")?;
    let order = parse_ids(&mut t, n, nets, "initial order")?;
    if pos > order.len() {
        return Err(durability("initial cursor past order end"));
    }
    p.initial_work = InitialWork { order, pos, seeded };
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "terms")?;
    p.initial_term = parse_term_opt(t.next().unwrap_or(""))?;
    p.congestion.term = parse_term_opt(t.next().unwrap_or(""))?;
    p.tpl.term = parse_term_opt(t.next().unwrap_or(""))?;
    p.coloring_term = parse_term_opt(t.next().unwrap_or(""))?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "congestion")?;
    p.congestion.work.rotation = parse_num(t.next(), "congestion rotation")?;
    if parse_bool(t.next(), "congestion done")? != p.congestion.done(caps.0) {
        return Err(durability("congestion done disagrees with its phase"));
    }
    p.congestion.clean = parse_bool(t.next(), "congestion clean")?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "cstats")?;
    p.congestion.stats = parse_stats(&mut t, "cstats")?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "cqueue")?;
    let n: usize = parse_num(t.next(), "cqueue count")?;
    for _ in 0..n {
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "cq")?;
        let q = parse_point(&mut t, grid, "cq")?;
        p.congestion.work.push(Violation::Congestion(q));
    }
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "tpl")?;
    p.tpl.work.seq = parse_num(t.next(), "tpl seq")?;
    p.tpl.work.rotation = parse_num(t.next(), "tpl rotation")?;
    if parse_bool(t.next(), "tpl activated")? != enforce_blocked {
        return Err(durability("tpl activated disagrees with enforce_blocked"));
    }
    if parse_bool(t.next(), "tpl done")? != p.tpl.done(caps.1) {
        return Err(durability("tpl done disagrees with its phase"));
    }
    p.tpl.clean = parse_bool(t.next(), "tpl clean")?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "tstats")?;
    p.tpl.stats = parse_stats(&mut t, "tstats")?;
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "theap")?;
    let n: usize = parse_num(t.next(), "theap count")?;
    for _ in 0..n {
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "tv")?;
        let (v, vseq) = parse_violation(&mut t, grid)?;
        if vseq > p.tpl.work.seq {
            return Err(durability("heap sequence exceeds counter"));
        }
        p.tpl.work.heap.push(Reverse((v.rank(), vseq, v)));
    }
    let l = lines.line()?;
    let mut t = l.split_whitespace();
    expect_key(&mut t, "coloring")?;
    p.coloring_attempts_done = parse_num(t.next(), "coloring attempts")?;
    p.colorable = match t.next() {
        Some("-") => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => return Err(durability("bad colorable flag")),
    };
    Ok(p)
}

/// Parses one `dvic` line's digits: one hex digit (`0-9a-f`) per via.
fn parse_masks(digits: &str) -> Result<Box<[u8]>, RouteError> {
    digits
        .bytes()
        .map(|c| match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(durability("bad dvic digit")),
        })
        .collect()
}

/// Verifies header + trailing checksum; returns the body (everything
/// before the checksum line, checksum excluded).
fn verify_frame(text: &str) -> Result<&str, RouteError> {
    let first = text.lines().next().unwrap_or("");
    if first != CHECKPOINT_HEADER {
        if first.starts_with("sadp-checkpoint") {
            return Err(durability(format!(
                "version mismatch: got '{first}', want '{CHECKPOINT_HEADER}'"
            )));
        }
        return Err(durability("not a checkpoint (bad header)"));
    }
    let tail = text
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .map(|(_, last)| last)
        .unwrap_or("");
    let Some(sum_hex) = tail.strip_prefix("checksum ") else {
        return Err(durability("missing checksum line"));
    };
    let want =
        u64::from_str_radix(sum_hex.trim(), 16).map_err(|_| durability("bad checksum encoding"))?;
    let body_len = text.len() - (tail.len() + 1).min(text.len());
    let body = &text[..body_len];
    if fnv1a(body.as_bytes()) != want {
        return Err(durability("checksum mismatch"));
    }
    Ok(body)
}

fn expect_key(toks: &mut std::str::SplitWhitespace<'_>, key: &str) -> Result<(), RouteError> {
    if toks.next() == Some(key) {
        Ok(())
    } else {
        Err(durability(format!("expected '{key}' line")))
    }
}

fn parse_ids(
    toks: &mut std::str::SplitWhitespace<'_>,
    n: usize,
    len: usize,
    what: &str,
) -> Result<Vec<NetId>, RouteError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id: u32 = parse_num(toks.next(), what)?;
        if id as usize >= len {
            return Err(durability(format!("{what}: net id {id} out of range")));
        }
        out.push(NetId(id));
    }
    Ok(out)
}

fn parse_point(
    toks: &mut std::str::SplitWhitespace<'_>,
    grid: &RoutingGrid,
    what: &str,
) -> Result<GridPoint, RouteError> {
    let layer: u8 = parse_num(toks.next(), what)?;
    let x: i32 = parse_num(toks.next(), what)?;
    let y: i32 = parse_num(toks.next(), what)?;
    let p = GridPoint::new(layer, x, y);
    // Coordinates only: a caller that indexes a map checks the layer
    // against that map.
    if x < 0 || y < 0 || x >= grid.width() || y >= grid.height() {
        return Err(durability(format!("{what}: point out of bounds")));
    }
    Ok(p)
}

fn parse_violation(
    toks: &mut std::str::SplitWhitespace<'_>,
    grid: &RoutingGrid,
) -> Result<(Violation, u64), RouteError> {
    match toks.next() {
        Some("C") => {
            let p = parse_point(toks, grid, "tv")?;
            let seq: u64 = parse_num(toks.next(), "tv seq")?;
            Ok((Violation::Congestion(p), seq))
        }
        Some("F") => {
            let vl: u8 = parse_num(toks.next(), "tv layer")?;
            let ox: i32 = parse_num(toks.next(), "tv ox")?;
            let oy: i32 = parse_num(toks.next(), "tv oy")?;
            let seq: u64 = parse_num(toks.next(), "tv seq")?;
            if vl >= grid.via_layer_count() {
                return Err(durability("tv: via layer out of range"));
            }
            Ok((Violation::Fvp(vl, (ox, oy)), seq))
        }
        _ => Err(durability("bad violation tag")),
    }
}

/// Order-independent digest of a router state: exactly the
/// quantities that must be identical between the process that wrote a
/// checkpoint and any process that replays it, regardless of route
/// install order. The penalty maps are hashed apart
/// ([`penalty_hash`]): they depend on the feasibility each route saw
/// at install, which a replay in net-id order does not reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StateDigest {
    congested: usize,
    congested_hash: u64,
    fvp_windows: usize,
    vias_tracked: usize,
    conflict_hash: u64,
    wirelength: u64,
    via_count: u64,
}

/// FNV-1a over 64-bit words: one xor and one multiply per integer,
/// so the digest hashes fields without formatting them. Each step is
/// a bijection of the running hash, so a change to any one field
/// always changes the result.
struct WordHash(u64);

impl WordHash {
    fn new() -> WordHash {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: i64) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn point(&mut self, p: GridPoint) {
        self.push(i64::from(p.layer));
        self.push(i64::from(p.x));
        self.push(i64::from(p.y));
    }
}

fn state_digest(state: &RouterState) -> StateDigest {
    let mut congested = state.congested_points();
    congested.sort_unstable();
    let mut ch = WordHash::new();
    for &p in &congested {
        ch.point(p);
    }
    let mut conflicts = WordHash::new();
    for (p, &v) in state.conflict_count.iter() {
        if v != 0 {
            conflicts.point(p);
            conflicts.push(v);
        }
    }
    let stats = state.solution.stats();
    StateDigest {
        congested: congested.len(),
        congested_hash: ch.0,
        fvp_windows: (0..state.grid.via_layer_count())
            .map(|vl| state.fvp[vl as usize].fvp_window_count())
            .sum(),
        vias_tracked: (0..state.grid.via_layer_count())
            .map(|vl| state.fvp[vl as usize].via_count())
            .sum(),
        conflict_hash: conflicts.0,
        wirelength: stats.wirelength,
        via_count: stats.vias,
    }
}

/// One hash of both penalty maps, every cell in map order: a state
/// restored from the `dvic` masks charges exactly the writer's
/// penalties, so the two hashes agree.
fn penalty_hash(state: &RouterState) -> u64 {
    let mut h = WordHash::new();
    for &v in state.wire_penalty.as_slice() {
        h.push(v);
    }
    for &v in state.via_penalty.as_slice() {
        h.push(v);
    }
    h.0
}

/// Parses the `audit` line: the state digest and the penalty hash.
fn parse_audit(line: &str) -> Result<(StateDigest, u64), RouteError> {
    let mut t = line.split_whitespace();
    expect_key(&mut t, "audit")?;
    let hex = |s: Option<&str>, what: &str| {
        u64::from_str_radix(s.unwrap_or(""), 16)
            .map_err(|_| durability(format!("bad audit {what}")))
    };
    let congested = parse_num(t.next(), "audit congested")?;
    let congested_hash = hex(t.next(), "congested hash")?;
    let fvp_windows = parse_num(t.next(), "audit fvp windows")?;
    let vias_tracked = parse_num(t.next(), "audit via count")?;
    let conflict_hash = hex(t.next(), "conflict hash")?;
    let wirelength = parse_num(t.next(), "audit wirelength")?;
    let via_count = parse_num(t.next(), "audit vias")?;
    let penalty = hex(t.next(), "penalty hash")?;
    let digest = StateDigest {
        congested,
        congested_hash,
        fvp_windows,
        vias_tracked,
        conflict_hash,
        wirelength,
        via_count,
    };
    Ok((digest, penalty))
}

/// The restore hard check — a **simulated replay**: every restored
/// route is reinstalled into a scratch state through the normal
/// [`RouterState::install_route`] path, and the scratch state's
/// order-independent digest must equal the digest the checkpointing
/// process recorded at capture time. This ties the embedded solution
/// to the live state the original process actually had: a snapshot
/// whose solution was altered (even with a re-signed checksum) or
/// whose auxiliary state drifted from its solution is rejected. The
/// mask-restored state itself must match too, pinning the restore
/// path against the install path. The scratch state charges no DVI
/// costs: the digest does not read the penalty maps, and its net-id
/// install order would not reproduce the writer's anyway.
fn simulated_replay_check(
    restored: &RouterState,
    recorded: &StateDigest,
    grid: &RoutingGrid,
    netlist: &Netlist,
    config: &RouterConfig,
) -> Result<(), RouteError> {
    let mut sim = RouterState::new(
        grid.clone(),
        netlist,
        config.sadp,
        config.params,
        false,
        config.consider_tpl,
    );
    for (id, _) in netlist.iter() {
        if let Some(route) = restored.solution.route(id) {
            sim.install_route(id, route.clone());
        }
    }
    if state_digest(&sim) != *recorded {
        return Err(durability(
            "replay mismatch: reinstalled solution diverges from the recorded state digest",
        ));
    }
    if state_digest(restored) != *recorded {
        return Err(durability(
            "replay mismatch: mask-restored state diverges from the recorded state digest",
        ));
    }
    Ok(())
}
