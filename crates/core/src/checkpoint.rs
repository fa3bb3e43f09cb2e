//! Session checkpoints: serialize a budget-stopped [`RoutingSession`]
//! to a checksummed text snapshot and restore it byte-exactly later
//! (possibly in another process).
//!
//! The snapshot captures everything a resumed activation observes:
//! the partial solution (solution text form), the verbatim per-net
//! cost journals (replayed verbatim by `RouterState::restore_route`,
//! so restore is order-independent — recomputing costs on restore
//! would not be), the negotiated-congestion history, the pending work
//! queues of every phase (congestion queue verbatim, TPL heap as its
//! key set — unique sequence numbers make the pop order a pure
//! function of the set), phase terminations, and the cumulative
//! expansion counter. Restoring and continuing under the same budget
//! slicing therefore produces the same `outcome_fingerprint` as an
//! uninterrupted run — the durability contract the service's
//! journal-replay recovery relies on.
//!
//! Format: line-oriented text, a `sadp-checkpoint v1` header, a
//! binding line tying the snapshot to its netlist and configuration
//! (FNV-1a fingerprints), and a trailing `checksum` line over all
//! preceding bytes. Any mismatch — version, checksum, binding, or a
//! simulated-replay divergence — is rejected as
//! [`RouteError::Durability`].

use std::cmp::Reverse;
use std::time::Instant;

use sadp_grid::{
    read_solution, write_netlist, write_solution, GridPoint, NetId, Netlist, RouteError,
    RoutingGrid,
};
use sadp_trace::fnv1a;

use crate::budget::{ActiveBudget, Termination};
use crate::flow::{RouterConfig, RoutingSession};
use crate::rnr::{CongestionWork, InitialWork, RnrStats, TplWork, Violation};
use crate::state::{Delta, MapKind, RouterState};

/// Magic + version header of the checkpoint format.
pub const CHECKPOINT_HEADER: &str = "sadp-checkpoint v1";

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
            "audit {} {:016x} {} {} {:016x} {} {}\n",
            d.congested,
            d.congested_hash,
            d.fvp_windows,
            d.vias_tracked,
            d.conflict_hash,
            d.wirelength,
            d.via_count
        ));
        out.push_str(&format!("expanded {}\n", self.scratch.expanded));
        out.push_str(&format!(
            "enforce_blocked {}\n",
            self.state.enforce_blocked as u8
        ));
        out.push_str(&format!("failed {}", self.failed.len()));
        for id in &self.failed {
            out.push_str(&format!(" {}", id.0));
        }
        out.push('\n');
        out.push_str(&format!(
            "initial {} {} {}",
            self.initial_work.seeded as u8,
            self.initial_work.pos,
            self.initial_work.order.len()
        ));
        for id in &self.initial_work.order {
            out.push_str(&format!(" {}", id.0));
        }
        out.push('\n');
        out.push_str(&format!(
            "terms {} {} {} {}\n",
            term_name(self.initial_term),
            term_name(self.congestion_term),
            term_name(self.tpl_term),
            term_name(self.coloring_term)
        ));
        out.push_str(&format!(
            "congestion {} {} {}\n",
            self.congestion_work.rotation, self.congestion_done as u8, self.congestion_clean as u8
        ));
        push_stats(&mut out, "cstats", self.congestion_stats);
        out.push_str(&format!("cqueue {}\n", self.congestion_work.queue.len()));
        for p in &self.congestion_work.queue {
            out.push_str(&format!("cq {} {} {}\n", p.layer, p.x, p.y));
        }
        // The third field repeats `enforce_blocked`: the line keeps
        // its five fields so existing checkpoints stay readable and
        // byte-identical, and restore checks that the two agree.
        out.push_str(&format!(
            "tpl {} {} {} {} {}\n",
            self.tpl_work.seq,
            self.tpl_work.rotation,
            self.state.enforce_blocked as u8,
            self.tpl_done as u8,
            self.tpl_clean as u8
        ));
        push_stats(&mut out, "tstats", self.tpl_stats);
        // The heap's pop order is a pure function of its key set
        // (sequence numbers are unique), so a sorted dump restores it
        // exactly — and keeps the snapshot bytes deterministic.
        let mut entries: Vec<(u8, u64, Violation)> =
            self.tpl_work.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        out.push_str(&format!("theap {}\n", entries.len()));
        for (_, seq, v) in entries {
            match v {
                Violation::Congestion(p) => {
                    out.push_str(&format!("tv C {} {} {} {}\n", p.layer, p.x, p.y, seq));
                }
                Violation::Fvp(vl, (ox, oy)) => {
                    out.push_str(&format!("tv F {vl} {ox} {oy} {seq}\n"));
                }
            }
        }
        out.push_str(&format!(
            "coloring {} {}\n",
            self.coloring_attempts_done,
            match self.colorable {
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
        for (id, journal) in self.state.journals.iter().enumerate() {
            if journal.is_empty() {
                continue;
            }
            out.push_str(&format!("journal {id} {}\n", journal.len()));
            for d in journal {
                let kind = match d.map {
                    MapKind::Wire => 'w',
                    MapKind::ViaLoc => 'v',
                };
                out.push_str(&format!(
                    "jd {kind} {} {} {} {}\n",
                    d.point.layer, d.point.x, d.point.y, d.amount
                ));
            }
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
        let recorded = parse_digest(audit_line)?;

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
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "failed")?;
        let n: usize = parse_num(t.next(), "failed count")?;
        session.failed = parse_ids(&mut t, n, netlist.len(), "failed")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "initial")?;
        let seeded = parse_bool(t.next(), "initial seeded")?;
        let pos: usize = parse_num(t.next(), "initial pos")?;
        let n: usize = parse_num(t.next(), "initial order count")?;
        let order = parse_ids(&mut t, n, netlist.len(), "initial order")?;
        if pos > order.len() {
            return Err(durability("initial cursor past order end"));
        }
        session.initial_work = InitialWork { order, pos, seeded };
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "terms")?;
        session.initial_term = parse_term_opt(t.next().unwrap_or(""))?;
        session.congestion_term = parse_term_opt(t.next().unwrap_or(""))?;
        session.tpl_term = parse_term_opt(t.next().unwrap_or(""))?;
        session.coloring_term = parse_term_opt(t.next().unwrap_or(""))?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "congestion")?;
        let c_rotation: usize = parse_num(t.next(), "congestion rotation")?;
        session.congestion_done = parse_bool(t.next(), "congestion done")?;
        session.congestion_clean = parse_bool(t.next(), "congestion clean")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "cstats")?;
        session.congestion_stats = parse_stats(&mut t, "cstats")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "cqueue")?;
        let n: usize = parse_num(t.next(), "cqueue count")?;
        let mut cwork = CongestionWork {
            rotation: c_rotation,
            ..CongestionWork::default()
        };
        for _ in 0..n {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            expect_key(&mut t, "cq")?;
            cwork.queue.push_back(parse_point(&mut t, grid, "cq")?);
        }
        session.congestion_work = cwork;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "tpl")?;
        let seq: u64 = parse_num(t.next(), "tpl seq")?;
        let rotation: usize = parse_num(t.next(), "tpl rotation")?;
        if parse_bool(t.next(), "tpl activated")? != enforce_blocked {
            return Err(durability("tpl activated disagrees with enforce_blocked"));
        }
        session.tpl_done = parse_bool(t.next(), "tpl done")?;
        session.tpl_clean = parse_bool(t.next(), "tpl clean")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "tstats")?;
        session.tpl_stats = parse_stats(&mut t, "tstats")?;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "theap")?;
        let n: usize = parse_num(t.next(), "theap count")?;
        let mut twork = TplWork {
            seq,
            rotation,
            ..TplWork::default()
        };
        for _ in 0..n {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            expect_key(&mut t, "tv")?;
            let (v, vseq) = parse_violation(&mut t, grid)?;
            if vseq > seq {
                return Err(durability("heap sequence exceeds counter"));
            }
            twork.heap.push(Reverse((v.rank(), vseq, v)));
        }
        session.tpl_work = twork;
        let l = lines.line()?;
        let mut t = l.split_whitespace();
        expect_key(&mut t, "coloring")?;
        session.coloring_attempts_done = parse_num(t.next(), "coloring attempts")?;
        session.colorable = match t.next() {
            Some("-") => None,
            Some("0") => Some(false),
            Some("1") => Some(true),
            _ => return Err(durability("bad colorable flag")),
        };

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

        // --- per-net cost journals ---
        let mut journals: Vec<Vec<Delta>> = vec![Vec::new(); netlist.len()];
        let solution_len: usize;
        loop {
            let l = lines.line()?;
            let mut t = l.split_whitespace();
            match t.next() {
                Some("journal") => {
                    let id: usize = parse_num(t.next(), "journal net id")?;
                    let n: usize = parse_num(t.next(), "journal delta count")?;
                    if id >= netlist.len() {
                        return Err(durability("journal net id out of range"));
                    }
                    let mut deltas = Vec::with_capacity(n);
                    for _ in 0..n {
                        let l = lines.line()?;
                        let mut t = l.split_whitespace();
                        expect_key(&mut t, "jd")?;
                        let map = match t.next() {
                            Some("w") => MapKind::Wire,
                            Some("v") => MapKind::ViaLoc,
                            _ => return Err(durability("bad journal map kind")),
                        };
                        let point = parse_point(&mut t, grid, "jd")?;
                        let amount: i64 = parse_num(t.next(), "journal amount")?;
                        deltas.push(Delta { map, point, amount });
                    }
                    journals[id] = deltas;
                }
                Some("solution") => {
                    solution_len = parse_num(t.next(), "solution byte count")?;
                    break;
                }
                _ => return Err(durability("unexpected line in journal section")),
            }
        }

        // --- solution + verbatim journal replay ---
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
        for (id, journal) in journals.into_iter().enumerate() {
            let id = NetId(id as u32);
            match parsed.take_route(id) {
                Some(route) => session.state.restore_route(id, route, journal),
                None if journal.is_empty() => {}
                None => return Err(durability("cost journal for an unrouted net")),
            }
        }
        session.state.enforce_blocked = enforce_blocked;
        session.budget = ActiveBudget::unlimited();
        session.start = Instant::now();

        simulated_replay_check(&session.state, &recorded, grid, netlist, &config)?;
        Ok(session)
    }
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
    // Via-layer points (journals, queues) use via-layer indices that
    // are also valid metal indices; bounds-check coordinates only.
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
/// install order. Penalty maps are excluded on purpose — their exact
/// values depend on install order, which is why restore replays
/// journals verbatim in the first place.
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

fn state_digest(state: &RouterState) -> StateDigest {
    let mut congested = state.congested_points();
    congested.sort_unstable();
    let mut ctext = String::new();
    for p in &congested {
        ctext.push_str(&format!("{} {} {};", p.layer, p.x, p.y));
    }
    let mut conflict_text = String::new();
    for (p, &v) in state.conflict_count.iter() {
        if v != 0 {
            conflict_text.push_str(&format!("{} {} {} {};", p.layer, p.x, p.y, v));
        }
    }
    let stats = state.solution.stats();
    StateDigest {
        congested: congested.len(),
        congested_hash: fnv1a(ctext.as_bytes()),
        fvp_windows: (0..state.grid.via_layer_count())
            .map(|vl| state.fvp[vl as usize].fvp_window_count())
            .sum(),
        vias_tracked: (0..state.grid.via_layer_count())
            .map(|vl| state.fvp[vl as usize].via_count())
            .sum(),
        conflict_hash: fnv1a(conflict_text.as_bytes()),
        wirelength: stats.wirelength,
        via_count: stats.vias,
    }
}

fn parse_digest(line: &str) -> Result<StateDigest, RouteError> {
    let mut t = line.split_whitespace();
    expect_key(&mut t, "audit")?;
    let congested = parse_num(t.next(), "audit congested")?;
    let congested_hash = u64::from_str_radix(t.next().unwrap_or(""), 16)
        .map_err(|_| durability("bad audit congested hash"))?;
    let fvp_windows = parse_num(t.next(), "audit fvp windows")?;
    let vias_tracked = parse_num(t.next(), "audit via count")?;
    let conflict_hash = u64::from_str_radix(t.next().unwrap_or(""), 16)
        .map_err(|_| durability("bad audit conflict hash"))?;
    let wirelength = parse_num(t.next(), "audit wirelength")?;
    let via_count = parse_num(t.next(), "audit vias")?;
    Ok(StateDigest {
        congested,
        congested_hash,
        fvp_windows,
        vias_tracked,
        conflict_hash,
        wirelength,
        via_count,
    })
}

/// The restore hard check — a **simulated replay**: every restored
/// route is reinstalled into a scratch state through the normal
/// [`RouterState::install_route`] path, and the scratch state's
/// order-independent digest must equal the digest the checkpointing
/// process recorded at capture time. This ties the embedded solution
/// to the live state the original process actually had: a snapshot
/// whose solution was altered (even with a re-signed checksum) or
/// whose auxiliary state drifted from its solution is rejected. The
/// journal-replayed state itself must match too, pinning the
/// restore path against the install path.
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
        config.consider_dvi,
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
            "replay mismatch: journal-replayed state diverges from the recorded state digest",
        ));
    }
    Ok(())
}
