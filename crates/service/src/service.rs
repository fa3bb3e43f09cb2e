//! The in-process routing service: a worker pool over staged
//! `RoutingSession`s with priority + fair-share scheduling, budget
//! slicing for cancellation/deadlines, and per-job panic containment.
//!
//! ## Scheduling
//!
//! Three FIFO bands (high/normal/low) drained by a credit-weighted
//! round-robin (4/2/1): each dispatch takes the highest band that
//! still has credits *and* work; when no such band exists the credits
//! reset. A stream of 100k-net low-priority jobs therefore consumes at
//! most 1 dispatch in 7 once higher bands have work, while an idle
//! service still gives the low band full throughput.
//!
//! ## Cancellation and deadlines
//!
//! Workers never run a session to completion in one activation.
//! Instead they install a per-activation iteration-cap budget (the
//! *slice*) and re-check the job's cancel flag and deadline between
//! slices. Budget slicing is output-invariant (pinned by
//! `crates/core/tests/budget.rs`), so a sliced run fingerprints
//! identically to an unsliced one. Slices grow geometrically, which
//! keeps early cancellation latency low and re-activations few. A
//! configured phase cap ends its phase under any slice, so
//! termination does not need the doubling; it still pays because a
//! durable service writes a fsynced checkpoint at every slice boundary
//! by default (`checkpoint_every` 1).
//!
//! ## Containment
//!
//! Each job runs inside `catch_unwind`; a panicking job (including a
//! contained `sadp-exec` worker panic surfacing through the session)
//! resolves to a typed [`JobOutcome::Failed`] and the worker thread
//! moves on. The daemon itself never dies with a job.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sadp_grid::{Netlist, RouteError, RoutingGrid};
use sadp_router::RoutingSession;
use sadp_trace::{fnv1a, Counter, JsonReport, Phase, RouteObserver};

use crate::job::{
    error_kind, summarize, JobEvent, JobId, JobOutcome, JobSource, RouteRequest, RouteResponse,
};
use crate::journal::{DurabilityConfig, Journal};

/// Tuning of a [`Service`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads (0 = the `sadp-exec` process default).
    pub workers: usize,
    /// Maximum queued-but-not-started jobs; submission beyond this
    /// returns [`SubmitError::QueueFull`].
    pub queue_cap: usize,
    /// Initial per-activation iteration slice (doubles per
    /// activation). Smaller = faster cancellation, more re-activation
    /// overhead.
    pub slice_iters: usize,
    /// Per-job progress-event buffer cap; overflow is dropped and
    /// counted in [`RouteResponse::dropped_events`].
    pub event_cap: usize,
    /// Maximum generated layouts kept in the fingerprint-keyed cache
    /// (LRU-evicted). `0` disables caching. Repeated `Spec`/`Synthetic`
    /// jobs (including eco bases) skip regeneration on a hit.
    pub layout_cache_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_cap: 65_536,
            slice_iters: 64,
            event_cap: 256,
            layout_cache_cap: 16,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is shutting down and accepts no new jobs.
    ShuttingDown,
    /// The queue is at [`ServiceConfig::queue_cap`].
    QueueFull,
    /// A durable service could not fsync the job's accept record to
    /// its journal; the job was rolled back and never existed.
    Journal(String),
    /// The request cannot be journaled as written: a spec source (or
    /// eco base) whose scale is not finite. Refused on every service,
    /// durable or not, so a request is accepted or refused the same
    /// way everywhere.
    InvalidRequest(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
            SubmitError::QueueFull => f.write_str("job queue is full"),
            SubmitError::Journal(e) => write!(f, "journal write failed: {e}"),
            SubmitError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Lifecycle state reported by [`Service::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Terminal; the response is available.
    Done,
}

impl JobState {
    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// One [`Service::poll`] snapshot: the state, any progress events
/// drained since the last poll, and the response once terminal.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Progress events drained by this poll (each event is delivered
    /// to exactly one poll).
    pub events: Vec<JobEvent>,
    /// The terminal answer, present iff `state == Done`.
    pub response: Option<RouteResponse>,
}

/// Per-job data shared between the scheduler, the executing worker,
/// and pollers without holding the scheduler lock during routing.
struct JobShared {
    cancel: AtomicBool,
    events: Mutex<EventBuf>,
}

struct EventBuf {
    buf: VecDeque<JobEvent>,
    dropped: usize,
    cap: usize,
}

impl EventBuf {
    fn push(&mut self, ev: JobEvent) {
        if self.buf.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.buf.push_back(ev);
        }
    }
}

struct JobEntry {
    request: RouteRequest,
    state: JobState,
    shared: Arc<JobShared>,
    response: Option<RouteResponse>,
}

/// Drain/abort choice for [`Service::shutdown_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish every queued job first.
    Drain,
    /// Cancel queued jobs (running jobs get their cancel flag set and
    /// wind down at the next slice boundary).
    Now,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Open,
    Draining,
    Aborting,
}

struct Sched {
    queues: [VecDeque<JobId>; 3],
    credits: [u32; 3],
    /// Index = JobId.0 - 1. `None` marks an id that the journal's
    /// highwater reserves but whose records were compacted away
    /// (unknown to `poll`, never reused by `submit`).
    jobs: Vec<Option<JobEntry>>,
    gate: Gate,
}

const CREDIT_WEIGHTS: [u32; 3] = [4, 2, 1];

/// A fresh per-job shared block (cancel flag + event buffer).
fn new_shared(event_cap: usize) -> Arc<JobShared> {
    Arc::new(JobShared {
        cancel: AtomicBool::new(false),
        events: Mutex::new(EventBuf {
            buf: VecDeque::new(),
            dropped: 0,
            cap: event_cap.max(1),
        }),
    })
}

impl Sched {
    fn fresh() -> Sched {
        Sched {
            queues: Default::default(),
            credits: CREDIT_WEIGHTS,
            jobs: Vec::new(),
            gate: Gate::Open,
        }
    }

    fn entry(&self, id: JobId) -> Option<&JobEntry> {
        self.jobs.get((id.0 as usize).checked_sub(1)?)?.as_ref()
    }

    fn entry_mut(&mut self, id: JobId) -> Option<&mut JobEntry> {
        self.jobs.get_mut((id.0 as usize).checked_sub(1)?)?.as_mut()
    }

    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// The credit-weighted round-robin dispatch decision.
    fn pick(&mut self) -> Option<JobId> {
        if self.queues.iter().all(VecDeque::is_empty) {
            return None;
        }
        loop {
            for band in 0..3 {
                if self.credits[band] > 0 {
                    if let Some(id) = self.queues[band].pop_front() {
                        self.credits[band] -= 1;
                        return Some(id);
                    }
                }
            }
            // Every band with work is out of credits: new round.
            self.credits = CREDIT_WEIGHTS;
        }
    }
}

struct Inner {
    sched: Mutex<Sched>,
    work_cv: Condvar,
    done_cv: Condvar,
    config: ServiceConfig,
    cache: LayoutCache,
    durable: Option<Durable>,
}

/// The durability state of a journaled service: the write-ahead log
/// plus where per-job session checkpoints live.
///
/// Lock order: the scheduler lock may be held while taking the
/// journal lock (submit does), never the reverse.
struct Durable {
    journal: Mutex<Journal>,
    dir: PathBuf,
    checkpoint_every: usize,
}

impl Durable {
    fn checkpoint_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("ckpt-{}.txt", id.0))
    }

    /// Atomically replaces the job's session snapshot (tmp + rename,
    /// fsynced). Best effort: a failed snapshot only costs a cold
    /// restart after a crash, so it must never fail the job.
    fn write_checkpoint(&self, id: JobId, text: &str) {
        let tmp = self.dir.join(format!("ckpt-{}.tmp", id.0));
        let result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_data()?;
            std::fs::rename(&tmp, self.checkpoint_path(id))
        })();
        if let Err(e) = result {
            eprintln!("sadpd: checkpoint write for {id} failed: {e}");
        }
    }

    fn journal(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Journals a terminal response and drops the job's checkpoint file.
/// A failed completion append is logged and tolerated: the response
/// is already correct in memory, and after a crash the job simply
/// re-runs — deterministically, to the same fingerprint.
fn record_terminal(inner: &Inner, resp: &RouteResponse) {
    let Some(durable) = &inner.durable else {
        return;
    };
    if let Err(e) = durable.journal().append_complete(resp) {
        eprintln!("sadpd: journal completion for {} failed: {e}", resp.job);
    }
    let _ = std::fs::remove_file(durable.checkpoint_path(resp.job));
}

/// A fingerprint-keyed, LRU-evicted cache of generated layouts.
///
/// Keyed by the FNV-1a hash of the source's canonical text (the same
/// text `run_id` hashes), so two submissions describing the same
/// `Spec`/`Synthetic` layout share one generation. `Inline` sources
/// bypass it — the layout text is already in hand, and caching would
/// hold a second copy for no generation savings.
struct LayoutCache {
    inner: Mutex<CacheInner>,
    cap: usize,
}

struct CacheInner {
    entries: Vec<CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

struct CacheEntry {
    key: u64,
    last_used: u64,
    grid: RoutingGrid,
    netlist: Netlist,
}

impl LayoutCache {
    fn new(cap: usize) -> LayoutCache {
        LayoutCache {
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
            cap,
        }
    }

    /// Materializes `source`, reusing a cached layout when one exists.
    /// The third element is the verdict for the job report:
    /// `"hit"`, `"miss"`, or `"bypass"`.
    fn fetch(&self, source: &JobSource) -> Result<(RoutingGrid, Netlist, &'static str), String> {
        let cacheable =
            matches!(source, JobSource::Spec { .. } | JobSource::Synthetic { .. }) && self.cap > 0;
        if !cacheable {
            let (grid, netlist) = source.materialize()?;
            return Ok((grid, netlist, "bypass"));
        }
        let mut canon = String::new();
        source.canonical(&mut canon);
        let key = fnv1a(canon.as_bytes());
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
                entry.last_used = tick;
                let out = (entry.grid.clone(), entry.netlist.clone(), "hit");
                inner.hits += 1;
                return Ok(out);
            }
            inner.misses += 1;
        }
        // Generate outside the lock: layout generation is the
        // expensive part, and concurrent misses on the same key only
        // cost a duplicate generation, never a wrong answer.
        let (grid, netlist) = source.materialize()?;
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.iter().any(|e| e.key == key) {
            if inner.entries.len() >= self.cap {
                if let Some(lru) =
                    (0..inner.entries.len()).min_by_key(|&i| inner.entries[i].last_used)
                {
                    inner.entries.swap_remove(lru);
                }
            }
            inner.entries.push(CacheEntry {
                key,
                last_used: tick,
                grid: grid.clone(),
                netlist: netlist.clone(),
            });
        }
        Ok((grid, netlist, "miss"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }
}

/// A long-lived routing service. See the [module docs](self) for the
/// scheduling and containment model; see [`crate::wire`] for the
/// JSON-lines surface the `sadpd` binary puts on top.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// What [`Service::start_durable`] reconstructed from the journal.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Jobs with an accept but no completion record: re-enqueued in
    /// id order (warm-started from their checkpoint when one exists
    /// and restores cleanly, from scratch otherwise).
    pub requeued: Vec<JobId>,
    /// Jobs whose completion record survived: immediately `Done`,
    /// their responses replayable through `poll`/`wait`.
    pub replayed: Vec<JobId>,
    /// A torn record was found at the journal tail and truncated
    /// away (the signature of a crash mid-append).
    pub truncated: bool,
}

impl Service {
    /// Starts the worker pool (no durability: jobs live and die with
    /// the process).
    pub fn start(config: ServiceConfig) -> Service {
        Service::boot(config, None, Sched::fresh())
    }

    /// Starts a durable service: scans (or creates) the job journal
    /// under `durability.dir`, re-enqueues every accepted-but-
    /// unfinished job, restores already-completed responses for
    /// replay, then opens for business. The returned report says what
    /// recovery found.
    ///
    /// # Errors
    ///
    /// `RouteError::Durability` when the journal is unreadable or
    /// semantically corrupt (see [`Journal::open`]); torn tails are
    /// not errors — they are truncated and reported.
    pub fn start_durable(
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<(Service, RecoveryReport), RouteError> {
        let (journal, recovered, truncated) = Journal::open(&durability.dir)?;
        let mut sched = Sched::fresh();
        sched
            .jobs
            .resize_with(journal.next_id().saturating_sub(1) as usize, || None);
        let mut report = RecoveryReport {
            truncated,
            ..RecoveryReport::default()
        };
        for job in recovered {
            let idx = (job.id.0 - 1) as usize;
            let state = match &job.response {
                Some(_) => {
                    report.replayed.push(job.id);
                    JobState::Done
                }
                None => {
                    // Recovered jobs arrive in id order, so each band
                    // queue keeps submission (= id) order.
                    sched.queues[job.request.priority.band()].push_back(job.id);
                    report.requeued.push(job.id);
                    JobState::Queued
                }
            };
            sched.jobs[idx] = Some(JobEntry {
                request: job.request,
                state,
                shared: new_shared(config.event_cap),
                response: job.response,
            });
        }
        let durable = Durable {
            journal: Mutex::new(journal),
            dir: durability.dir,
            checkpoint_every: durability.checkpoint_every,
        };
        Ok((Service::boot(config, Some(durable), sched), report))
    }

    fn boot(config: ServiceConfig, durable: Option<Durable>, sched: Sched) -> Service {
        let workers = if config.workers == 0 {
            sadp_exec::thread_count()
        } else {
            config.workers
        }
        .max(1);
        let inner = Arc::new(Inner {
            sched: Mutex::new(sched),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            config,
            cache: LayoutCache::new(config.layout_cache_cap),
            durable,
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sadpd-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| panic!("spawn worker {w}: {e}"))
            })
            .collect();
        Service {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Accepts a job; it starts as soon as the scheduler picks it.
    /// On a durable service the accept record is fsynced to the
    /// journal *before* the `JobId` is returned — an id in hand means
    /// the job survives any crash.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidRequest`] for a non-finite spec scale,
    /// [`SubmitError::ShuttingDown`] after a shutdown began,
    /// [`SubmitError::QueueFull`] at the queue cap, and
    /// [`SubmitError::Journal`] when the accept record could not be
    /// made durable (the job is rolled back as if never submitted).
    pub fn submit(&self, request: RouteRequest) -> Result<JobId, SubmitError> {
        if let Some(scale) = request.source.non_finite_scale() {
            return Err(SubmitError::InvalidRequest(format!(
                "scale {scale} is not finite"
            )));
        }
        let mut sched = self.lock();
        if sched.gate != Gate::Open {
            return Err(SubmitError::ShuttingDown);
        }
        if sched.queued_total() >= self.inner.config.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        let id = JobId(sched.jobs.len() as u64 + 1);
        let band = request.priority.band();
        if let Some(durable) = &self.inner.durable {
            // Write-ahead, under the scheduler lock so journal order
            // is id order. The fsync makes submit slower on a durable
            // service; that is the contract being bought.
            if let Err(e) = durable.journal().append_accept(id, &request) {
                return Err(SubmitError::Journal(e.to_string()));
            }
        }
        sched.jobs.push(Some(JobEntry {
            request,
            state: JobState::Queued,
            shared: new_shared(self.inner.config.event_cap),
            response: None,
        }));
        sched.queues[band].push_back(id);
        drop(sched);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Snapshot of a job: its state, the progress events produced
    /// since the previous poll, and the response once terminal.
    /// `None` for an unknown id.
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        let sched = self.lock();
        let entry = sched.entry(id)?;
        let (events, _) = drain_events(&entry.shared);
        Some(JobStatus {
            state: entry.state,
            events,
            response: entry.response.clone(),
        })
    }

    /// Blocks until `id` is terminal and returns its response (`None`
    /// for an unknown id). Progress events not yet drained by `poll`
    /// are discarded.
    pub fn wait(&self, id: JobId) -> Option<RouteResponse> {
        let mut sched = self.lock();
        loop {
            match sched.entry(id) {
                None => return None,
                Some(e) if e.state == JobState::Done => {
                    return e.response.clone();
                }
                Some(_) => {
                    sched = self
                        .inner
                        .done_cv
                        .wait(sched)
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    /// Requests cancellation. A queued job resolves to `Cancelled`
    /// immediately; a running one winds down at its next slice
    /// boundary. Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut sched = self.lock();
        let Some(entry) = sched.entry_mut(id) else {
            return false;
        };
        match entry.state {
            JobState::Done => false,
            JobState::Running => {
                entry.shared.cancel.store(true, Ordering::Relaxed);
                true
            }
            JobState::Queued => {
                entry.shared.cancel.store(true, Ordering::Relaxed);
                let run_id = entry.request.run_id();
                entry.state = JobState::Done;
                let response = RouteResponse {
                    job: id,
                    run_id,
                    outcome: JobOutcome::Cancelled,
                    dropped_events: 0,
                };
                entry.response = Some(response.clone());
                let band = entry.request.priority.band();
                sched.queues[band].retain(|&q| q != id);
                drop(sched);
                record_terminal(&self.inner, &response);
                self.inner.done_cv.notify_all();
                true
            }
        }
    }

    /// Graceful shutdown: drains the queue, joins the workers, and
    /// returns the number of jobs that reached a terminal state over
    /// the service's lifetime.
    pub fn shutdown(self) -> usize {
        self.shutdown_with(ShutdownMode::Drain)
    }

    /// [`Service::shutdown`] with an explicit drain/abort choice.
    pub fn shutdown_with(mut self, mode: ShutdownMode) -> usize {
        engage_gate(&self.inner, mode);
        for handle in self.workers.drain(..) {
            // A worker that somehow panicked outside the contained job
            // body must not take the shutdown down with it.
            let _ = handle.join();
        }
        let sched = self.lock();
        sched
            .jobs
            .iter()
            .flatten()
            .filter(|e| e.state == JobState::Done)
            .count()
    }

    /// A handle that can request shutdown and observe idleness
    /// without consuming the service — what a signal-handling thread
    /// needs while the main thread owns the service inside a serve
    /// loop.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// A deterministic operational snapshot: job lifecycle counts,
    /// layout-cache hit/miss totals, and the journal's live-record
    /// count (0 for a non-durable service).
    pub fn stats(&self) -> ServiceStats {
        let sched = self.lock();
        let mut stats = ServiceStats::default();
        for entry in sched.jobs.iter().flatten() {
            match entry.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running => stats.running += 1,
                JobState::Done => match &entry.response {
                    Some(r) => match r.outcome {
                        JobOutcome::Completed { .. } => stats.completed += 1,
                        JobOutcome::Failed { .. } => stats.failed += 1,
                        JobOutcome::Cancelled => stats.cancelled += 1,
                    },
                    None => stats.failed += 1,
                },
            }
        }
        drop(sched);
        let (hits, misses) = self.inner.cache.stats();
        stats.cache_hits = hits;
        stats.cache_misses = misses;
        if let Some(durable) = &self.inner.durable {
            stats.journal_live = durable.journal().live_records();
        }
        stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        // A panic while holding the scheduler lock is contained per
        // job; the scheduler state itself is only mutated at
        // transition points, so a poisoned lock is still consistent.
        self.inner.sched.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Deterministic counters reported by [`Service::stats`] (and the
/// wire `stats`/`health` op). Wall-clock data is deliberately absent
/// so scripted transcripts stay byte-reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted and waiting for a worker.
    pub queued: usize,
    /// Jobs a worker is executing.
    pub running: usize,
    /// Terminal jobs that produced an outcome.
    pub completed: usize,
    /// Terminal jobs that failed with a typed error.
    pub failed: usize,
    /// Terminal jobs that were cancelled.
    pub cancelled: usize,
    /// Layout-cache hits.
    pub cache_hits: u64,
    /// Layout-cache misses.
    pub cache_misses: u64,
    /// Journal accept records without a completion (0 when not
    /// durable).
    pub journal_live: usize,
}

/// Non-consuming shutdown control for a running [`Service`]; see
/// [`Service::shutdown_handle`].
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl ShutdownHandle {
    /// Closes the gate like [`Service::shutdown_with`] but without
    /// joining the workers: `Drain` stops intake and lets queued jobs
    /// finish, `Now` additionally cancels everything still queued or
    /// running. Escalation (`Drain` then `Now`) is honored; `Now`
    /// never downgrades back to `Drain`.
    pub fn request(&self, mode: ShutdownMode) {
        engage_gate(&self.inner, mode);
    }

    /// `true` once every accepted job is terminal.
    pub fn is_idle(&self) -> bool {
        let sched = self.inner.sched.lock().unwrap_or_else(|p| p.into_inner());
        sched
            .jobs
            .iter()
            .flatten()
            .all(|e| e.state == JobState::Done)
    }

    /// Blocks until every accepted job is terminal.
    pub fn wait_idle(&self) {
        let mut sched = self.inner.sched.lock().unwrap_or_else(|p| p.into_inner());
        while !sched
            .jobs
            .iter()
            .flatten()
            .all(|e| e.state == JobState::Done)
        {
            sched = self
                .inner
                .done_cv
                .wait(sched)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The shared first half of a shutdown: close the gate, resolve the
/// queue under `Now`, and wake everyone. Journal appends for the
/// resolved cancellations happen outside the scheduler lock.
fn engage_gate(inner: &Inner, mode: ShutdownMode) {
    let mut cancelled = Vec::new();
    {
        let mut sched = inner.sched.lock().unwrap_or_else(|p| p.into_inner());
        sched.gate = match mode {
            ShutdownMode::Drain if sched.gate == Gate::Aborting => Gate::Aborting,
            ShutdownMode::Drain => Gate::Draining,
            ShutdownMode::Now => Gate::Aborting,
        };
        if mode == ShutdownMode::Now {
            // Resolve everything still queued to Cancelled.
            for band in 0..3 {
                while let Some(id) = sched.queues[band].pop_front() {
                    if let Some(entry) = sched.entry_mut(id) {
                        let run_id = entry.request.run_id();
                        entry.state = JobState::Done;
                        let response = RouteResponse {
                            job: id,
                            run_id,
                            outcome: JobOutcome::Cancelled,
                            dropped_events: 0,
                        };
                        entry.response = Some(response.clone());
                        cancelled.push(response);
                    }
                }
            }
            // Running jobs wind down at their next slice.
            for entry in sched.jobs.iter().flatten() {
                if entry.state == JobState::Running {
                    entry.shared.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
    }
    for response in &cancelled {
        record_terminal(inner, response);
    }
    inner.work_cv.notify_all();
    inner.done_cv.notify_all();
}

fn drain_events(shared: &JobShared) -> (Vec<JobEvent>, usize) {
    let mut buf = shared.events.lock().unwrap_or_else(|p| p.into_inner());
    let events = buf.buf.drain(..).collect();
    (events, buf.dropped)
}

fn worker_loop(inner: &Inner) {
    loop {
        let (id, request, shared) = {
            let mut sched = inner.sched.lock().unwrap_or_else(|p| p.into_inner());
            let id = loop {
                match sched.gate {
                    Gate::Aborting => return,
                    Gate::Draining if sched.queued_total() == 0 => return,
                    _ => {}
                }
                if let Some(id) = sched.pick() {
                    break id;
                }
                sched = inner.work_cv.wait(sched).unwrap_or_else(|p| p.into_inner());
            };
            let Some(entry) = sched.entry_mut(id) else {
                continue;
            };
            if entry.state != JobState::Queued {
                // Raced with a queue-side cancel.
                continue;
            }
            entry.state = JobState::Running;
            (id, entry.request.clone(), Arc::clone(&entry.shared))
        };

        {
            let mut buf = shared.events.lock().unwrap_or_else(|p| p.into_inner());
            buf.push(JobEvent::Started);
        }
        let slice = inner.config.slice_iters.max(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(&request, &shared, slice, &inner.cache, ckpt(inner, id))
        }))
        .unwrap_or_else(|p| JobOutcome::Failed {
            kind: "panic".into(),
            error: panic_text(p.as_ref()),
        });

        let dropped = shared
            .events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .dropped;
        let response = RouteResponse {
            job: id,
            run_id: request.run_id(),
            outcome,
            dropped_events: dropped,
        };
        // Write-ahead ordering: the completion record is durable
        // before the response becomes observable.
        record_terminal(inner, &response);
        {
            let mut sched = inner.sched.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(entry) = sched.entry_mut(id) {
                entry.state = JobState::Done;
                entry.response = Some(response);
            }
        }
        inner.done_cv.notify_all();
    }
}

/// Bridges the session's observer stream into the job's event buffer
/// (first phase activation only — budget slicing re-activates phases
/// without re-announcing them) while accumulating the full
/// `JsonReport`.
struct BridgeObserver<'a> {
    report: JsonReport,
    shared: &'a JobShared,
    announced: [bool; Phase::ALL.len()],
    ended: [bool; Phase::ALL.len()],
}

impl BridgeObserver<'_> {
    fn emit(&self, ev: JobEvent) {
        let mut buf = self.shared.events.lock().unwrap_or_else(|p| p.into_inner());
        buf.push(ev);
    }
}

impl RouteObserver for BridgeObserver<'_> {
    fn phase_start(&mut self, phase: Phase) {
        self.report.phase_start(phase);
        let i = phase as usize;
        if !self.announced[i] {
            self.announced[i] = true;
            self.emit(JobEvent::PhaseStart {
                phase: phase.name(),
            });
        }
    }

    fn phase_end(&mut self, phase: Phase) {
        self.report.phase_end(phase);
        let i = phase as usize;
        if !self.ended[i] {
            self.ended[i] = true;
            self.emit(JobEvent::PhaseEnd {
                phase: phase.name(),
            });
        }
    }

    fn counter(&mut self, phase: Phase, counter: Counter, value: i64) {
        self.report.counter(phase, counter, value);
    }

    fn note(&mut self, key: &str, value: &str) {
        self.report.note(key, value);
    }
}

/// The (durability, id) pair threaded through job execution when the
/// service journals — `None` on a plain service.
fn ckpt(inner: &Inner, id: JobId) -> Option<(&Durable, JobId)> {
    inner.durable.as_ref().map(|d| (d, id))
}

/// Drives `session` to a terminal point under the job's budget,
/// slicing for cancellation. Returns `true` iff the job was cancelled
/// mid-drive. Called once for ordinary jobs, twice for eco jobs
/// (cold base, then warm post-delta) — the deadline spans both.
///
/// On a durable service, `ckpt` makes each iteration-cap slice
/// boundary a checkpoint: the session snapshots to `ckpt-<id>.txt`,
/// so a crash resumes from the last boundary instead of from scratch
/// (output-invariant either way — slicing is pinned not to change
/// outcomes). Slices double from `base_slice`: not for termination —
/// the job's own iteration cap is a configured phase cap, which ends
/// its phase under any slice — but to keep re-activations and those
/// fsynced checkpoint writes few.
fn drive_session(
    session: &mut RoutingSession<'_>,
    request: &RouteRequest,
    shared: &JobShared,
    obs: &mut BridgeObserver<'_>,
    base_slice: usize,
    deadline: Option<Instant>,
    ckpt: Option<(&Durable, JobId)>,
) -> bool {
    let cancelled = || shared.cancel.load(Ordering::Relaxed);
    // An expansion cap cuts searches mid-reroute, so re-activating it
    // per slice would change the outcome. Honor it with a single
    // unsliced activation instead (documented cancellation-latency
    // tradeoff for expansion-capped jobs).
    let sliced = request.budget.max_expansions.is_none();
    let mut slice = base_slice.max(1);
    let mut boundaries = 0usize;

    loop {
        if cancelled() {
            obs.emit(JobEvent::Cancelling);
            return true;
        }
        let mut budget = request.budget.to_route_budget();
        if sliced {
            budget = budget.with_max_phase_iters(slice);
            if let Some(d) = deadline {
                budget = budget.with_deadline(d.saturating_duration_since(Instant::now()));
            }
        }
        session.set_budget(budget);
        session.initial_route(obs);
        session.negotiate(obs);
        session.tpl_removal(obs);
        session.ensure_colorable(obs);
        if session.converged() || !sliced {
            // A single unsliced activation is always terminal: the
            // user's own budget did whatever stopping there was to do.
            return false;
        }
        // Deadline exhaustion is terminal: try_finish finalizes the
        // partial outcome under the expired budget. It is read from
        // the clock, not from `termination()`, which keeps reporting
        // the `IterationCap` of an R&R phase that spent its configured
        // cap while a later phase is paused.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        // Otherwise a slice paused the flow: a boundary.
        if let Some((durable, id)) = ckpt {
            boundaries += 1;
            if durable.checkpoint_every > 0 && boundaries.is_multiple_of(durable.checkpoint_every) {
                durable.write_checkpoint(id, &session.checkpoint());
            }
        }
        slice = slice.saturating_mul(2);
    }
}

fn execute_job(
    request: &RouteRequest,
    shared: &JobShared,
    base_slice: usize,
    cache: &LayoutCache,
    ckpt: Option<(&Durable, JobId)>,
) -> JobOutcome {
    if shared.cancel.load(Ordering::Relaxed) {
        return JobOutcome::Cancelled;
    }
    let fail_source = |error: String| JobOutcome::Failed {
        kind: "source".into(),
        error,
    };
    // Split an eco job into its base source and delta text; ordinary
    // jobs are a base with no delta.
    let (base_source, delta_text) = match &request.source {
        JobSource::Eco { base, delta } => {
            if matches!(**base, JobSource::Eco { .. }) {
                return fail_source("nested eco sources are not supported".into());
            }
            (&**base, Some(delta.as_str()))
        }
        source => (source, None),
    };
    let (grid, netlist, cache_verdict) = match cache.fetch(base_source) {
        Ok(x) => x,
        Err(error) => return fail_source(error),
    };
    // Parse and apply the delta up front (the edited netlist must
    // outlive the session that warm-restarts onto it).
    let eco = match delta_text {
        None => None,
        Some(text) => {
            let delta = match sadp_grid::parse_delta(text) {
                Ok(d) => d,
                Err(e) => return fail_source(format!("delta parse error: {e}")),
            };
            match delta.apply(&grid, &netlist) {
                Ok(edited) => Some((delta, edited)),
                Err(e) => return fail_source(format!("invalid delta: {e}")),
            }
        }
    };
    let config = match request.router_config() {
        Ok(c) => c,
        Err(e) => {
            return JobOutcome::Failed {
                kind: "config".into(),
                error: e.to_string(),
            };
        }
    };
    let mut obs = BridgeObserver {
        report: JsonReport::with_run_id(format!("{:016x}", request.run_id()), request.run_id()),
        shared,
        announced: [false; Phase::ALL.len()],
        ended: [false; Phase::ALL.len()],
    };
    obs.note("layout_cache", cache_verdict);

    // Checkpoints bind to the base netlist, so eco jobs — whose
    // session crosses a netlist edit mid-flight — run without them
    // (a crash re-runs the eco job from scratch; still deterministic).
    let ckpt = if eco.is_some() { None } else { ckpt };

    // A crash-interrupted job warm-starts from its last session
    // snapshot when one exists and passes the restore checks (binding
    // fingerprints, checksum, simulated replay); any rejection falls
    // back to a cold start, which reaches the identical outcome.
    let mut session = None;
    if let Some((durable, id)) = ckpt {
        let path = durable.checkpoint_path(id);
        if let Ok(text) = std::fs::read_to_string(&path) {
            match RoutingSession::restore(&grid, &netlist, config, &text) {
                Ok(s) => {
                    obs.note("warm_start", "checkpoint");
                    session = Some(s);
                }
                Err(e) => {
                    obs.note("warm_start", "rejected");
                    eprintln!("sadpd: checkpoint for {id} rejected ({e}); cold start");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
    let mut session = match session {
        Some(s) => s,
        None => match RoutingSession::try_new(&grid, &netlist, config) {
            Ok(s) => s,
            Err(e) => {
                return JobOutcome::Failed {
                    kind: error_kind(&e).into(),
                    error: e.to_string(),
                };
            }
        },
    };

    let started = Instant::now();
    let deadline = request
        .budget
        .deadline_ms
        .map(|ms| started + Duration::from_millis(ms));

    if drive_session(
        &mut session,
        request,
        shared,
        &mut obs,
        base_slice,
        deadline,
        ckpt,
    ) {
        return JobOutcome::Cancelled;
    }
    if let Some((delta, edited)) = &eco {
        if let Err(e) = session.apply_delta(edited, delta, &mut obs) {
            return JobOutcome::Failed {
                kind: error_kind(&e).into(),
                error: e.to_string(),
            };
        }
        if drive_session(
            &mut session,
            request,
            shared,
            &mut obs,
            base_slice,
            deadline,
            None,
        ) {
            return JobOutcome::Cancelled;
        }
    }

    match session.try_finish(&mut obs) {
        Ok(outcome) => {
            let summary = summarize(&outcome);
            let mut report = obs.report;
            outcome.record_into(&mut report);
            JobOutcome::Completed {
                summary,
                report: Box::new(report),
            }
        }
        Err(e) => JobOutcome::Failed {
            kind: error_kind(&e).into(),
            error: e.to_string(),
        },
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_round_robin_shares_bands() {
        let mut sched = Sched {
            queues: Default::default(),
            credits: CREDIT_WEIGHTS,
            jobs: Vec::new(),
            gate: Gate::Open,
        };
        // 8 high, 8 normal, 8 low queued (ids disjoint per band).
        for i in 0..8u64 {
            sched.queues[0].push_back(JobId(i + 1));
            sched.queues[1].push_back(JobId(i + 101));
            sched.queues[2].push_back(JobId(i + 201));
        }
        let picks: Vec<u64> = std::iter::from_fn(|| sched.pick()).map(|j| j.0).collect();
        assert_eq!(picks.len(), 24);
        // First full credit round: 4 high, 2 normal, 1 low.
        assert_eq!(picks[..7], [1, 2, 3, 4, 101, 102, 201]);
        // Low-priority work is never starved: all three bands appear
        // in the first two rounds.
        assert!(picks[..14].iter().any(|&p| p > 200));
    }

    #[test]
    fn pick_falls_through_to_lower_bands_when_higher_are_empty() {
        let mut sched = Sched {
            queues: Default::default(),
            credits: CREDIT_WEIGHTS,
            jobs: Vec::new(),
            gate: Gate::Open,
        };
        sched.queues[2].push_back(JobId(1));
        sched.queues[2].push_back(JobId(2));
        assert_eq!(sched.pick(), Some(JobId(1)));
        assert_eq!(sched.pick(), Some(JobId(2)));
        assert_eq!(sched.pick(), None);
    }

    #[test]
    fn layout_cache_hits_evicts_and_bypasses() {
        let cache = LayoutCache::new(2);
        let a = JobSource::Synthetic { nets: 4, seed: 1 };
        let (grid1, nl1, v1) = cache.fetch(&a).unwrap();
        assert_eq!(v1, "miss");
        let (grid2, nl2, v2) = cache.fetch(&a).unwrap();
        assert_eq!(v2, "hit");
        assert_eq!(grid1.width(), grid2.width());
        assert_eq!(nl1, nl2);

        // Two more distinct keys overflow the cap; LRU keeps len <= 2.
        for nets in [5, 6] {
            let (_, _, v) = cache
                .fetch(&JobSource::Synthetic { nets, seed: 1 })
                .unwrap();
            assert_eq!(v, "miss");
        }
        assert!(cache.lock().entries.len() <= 2);
        assert_eq!(cache.stats(), (1, 3));

        // A zero-cap cache always bypasses.
        let off = LayoutCache::new(0);
        let (_, _, v) = off.fetch(&a).unwrap();
        assert_eq!(v, "bypass");
        assert_eq!(off.stats(), (0, 0));
    }

    #[test]
    fn event_buffer_caps_and_counts_drops() {
        let mut buf = EventBuf {
            buf: VecDeque::new(),
            dropped: 0,
            cap: 2,
        };
        for _ in 0..5 {
            buf.push(JobEvent::Started);
        }
        assert_eq!(buf.buf.len(), 2);
        assert_eq!(buf.dropped, 3);
    }
}
