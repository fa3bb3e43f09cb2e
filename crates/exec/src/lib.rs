//! # sadp-exec
//!
//! A small, dependency-free execution layer for the embarrassingly
//! parallel parts of the system: the circuit × arm × SADP experiment
//! matrix, per-via-layer index construction, coloring checks and
//! audits, and per-net DVI candidate generation. The rip-up-and-reroute
//! loops inside one routing instance are not among them: each reroute
//! reads the costs the previous one wrote, so they run serially.
//!
//! The pool is a hand-rolled scoped-thread work-stealing scheduler
//! (the workspace is offline, so no `rayon`/`crossbeam`): the task
//! range `0..n` is split into chunks that are dealt round-robin onto
//! one double-ended queue per worker; each worker pops chunks from the
//! *front* of its own deque and, when empty, steals a chunk from the
//! *back* of a victim's deque in ring order. Workers collect
//! `(task index, result)` pairs locally; after `std::thread::scope`
//! joins, the pairs are merged and sorted by task index.
//!
//! **Determinism rule.** Because results are merged in task-index
//! order, [`map`] / [`map_indexed`] return *exactly* what the serial
//! loop `(0..n).map(f).collect()` returns, for any thread count and
//! any interleaving — provided `f` is a pure function of its index.
//! Parallel output is therefore byte-identical to serial output; the
//! only thing scheduling may reorder is side effects (so callers
//! buffer their logging and replay it in task order).
//!
//! **Thread-count override.** The pool width is, in priority order:
//! a scoped [`with_threads`] override (used by benches and tests), the
//! `SADP_EXEC_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. A width of 1 short-circuits
//! to a serial inline loop that spawns no threads at all — the
//! fallback path CI pins with `SADP_EXEC_THREADS=1`. Calls nested
//! inside a pool worker also run inline, so fan-out inside fan-out
//! (e.g. per-net DVI candidate generation inside an experiment-matrix
//! task) cannot oversubscribe the machine.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The environment variable overriding the pool width
/// (`1` = serial inline execution; unset/invalid = machine default).
pub const THREADS_ENV: &str = "SADP_EXEC_THREADS";

/// The fault-injection failpoint hit once per pool task (see the
/// `faultinject` crate): when armed, the task panics. [`map_indexed`] /
/// [`map`] propagate that panic; [`try_map_indexed`] / [`try_map`]
/// contain it as a [`TaskPanicked`] error.
pub const FAILPOINT_TASK_PANIC: &str = "exec.task_panic";

/// A worker task panicked inside [`try_map_indexed`] / [`try_map`].
///
/// Carries the lowest panicking task index and the panic payload
/// rendered to a string (`&str` / `String` payloads verbatim,
/// anything else as a placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// The lowest task index whose closure panicked.
    pub task: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanicked {}

/// Renders a caught panic payload to a human-readable string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers: nested maps run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The pool width the next [`map`] / [`map_indexed`] call on this
/// thread will use: [`with_threads`] override, else `SADP_EXEC_THREADS`,
/// else `available_parallelism()` (1 on failure). Always ≥ 1.
pub fn thread_count() -> usize {
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the pool width pinned to `threads` on this thread
/// (overriding `SADP_EXEC_THREADS`), restoring the previous override
/// afterwards. Used by the serial-vs-parallel benches and the
/// determinism tests.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = push_threads(threads);
    f()
}

/// Pins the pool width for this thread until it drops, then restores
/// the previous override — also when a [`with_threads`] scope unwinds.
#[must_use = "the override is lifted when the guard drops"]
struct ThreadsGuard {
    prev: Option<usize>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

/// Installs a scoped pool-width override on this thread (see
/// [`ThreadsGuard`]). A width of 0 is clamped to 1 (serial).
fn push_threads(threads: usize) -> ThreadsGuard {
    ThreadsGuard {
        prev: OVERRIDE.with(|c| c.replace(Some(threads.max(1)))),
    }
}

/// `true` when called from inside a pool worker (nested maps run
/// inline rather than spawning a second pool).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Applies `f` to every index in `0..tasks` and returns the results in
/// index order — byte-identical to `(0..tasks).map(f).collect()` for
/// any thread count (see the crate docs for the determinism rule).
///
/// A panic in any task propagates to the caller after the scope joins.
pub fn map_indexed<R, F>(tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let g = |i: usize| {
        faultinject::maybe_panic(FAILPOINT_TASK_PANIC);
        f(i)
    };
    let threads = thread_count().min(tasks);
    if threads <= 1 || in_worker() {
        return (0..tasks).map(g).collect();
    }
    run_pool(tasks, threads, &g)
}

/// Applies `f` to every element of `items`, returning results in item
/// order (the slice-convenience form of [`map_indexed`]).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

/// Panic-containing variant of [`map_indexed`]: each task runs under
/// `catch_unwind`, and a panicking task yields
/// `Err(`[`TaskPanicked`]`)` for the *lowest* panicking index instead
/// of unwinding through the caller. All other tasks still run to
/// completion (the pool never cancels), so the wall clock matches the
/// panic-free run.
///
/// `f` must leave any shared state it touches consistent on panic
/// (tasks here are pure index→value functions, per the determinism
/// rule, so this holds trivially for intended uses).
pub fn try_map_indexed<R, F>(tasks: usize, f: F) -> Result<Vec<R>, TaskPanicked>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let g = |i: usize| -> Result<R, TaskPanicked> {
        catch_unwind(AssertUnwindSafe(|| {
            faultinject::maybe_panic(FAILPOINT_TASK_PANIC);
            f(i)
        }))
        .map_err(|payload| TaskPanicked {
            task: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let threads = thread_count().min(tasks);
    let results: Vec<Result<R, TaskPanicked>> = if threads <= 1 || in_worker() {
        (0..tasks).map(g).collect()
    } else {
        run_pool(tasks, threads, &g)
    };
    // Results are already in task-index order, so `collect` surfaces
    // the lowest panicking index deterministically.
    results.into_iter().collect()
}

/// Slice-convenience form of [`try_map_indexed`].
pub fn try_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, TaskPanicked>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_map_indexed(items.len(), |i| f(&items[i]))
}

/// The parallel path: chunked per-worker deques with ring-order
/// stealing, worker-local result accumulation, index-sorted merge.
fn run_pool<R, F>(tasks: usize, threads: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Chunks small enough that uneven task costs can rebalance by
    // stealing, large enough that deque traffic stays negligible.
    let chunk = (tasks / (threads * 4)).max(1);
    let deques: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut start = 0usize;
    let mut dealt = 0usize;
    while start < tasks {
        let end = (start + chunk).min(tasks);
        deques[dealt % threads]
            .lock()
            .expect("deque poisoned")
            .push_back(start..end);
        start = end;
        dealt += 1;
    }

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(tasks));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let deques = &deques;
                let results = &results;
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let own = deques[me].lock().expect("deque poisoned").pop_front();
                        let range = match own {
                            Some(r) => r,
                            // Own deque drained: steal from the back of
                            // the next victim (ring order) that has work.
                            None => match (1..threads).find_map(|off| {
                                deques[(me + off) % threads]
                                    .lock()
                                    .expect("deque poisoned")
                                    .pop_back()
                            }) {
                                Some(r) => r,
                                None => break,
                            },
                        };
                        for i in range {
                            local.push((i, f(i)));
                        }
                    }
                    results.lock().expect("results poisoned").append(&mut local);
                })
            })
            .collect();
        // Re-raise the first worker panic with its original payload
        // (scope would otherwise wrap it in a generic message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut pairs = results.into_inner().expect("results poisoned");
    debug_assert_eq!(pairs.len(), tasks, "every task produces one result");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_serial_for_all_widths() {
        let serial: Vec<u64> = (0..137)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        for threads in [1, 2, 3, 4, 8, 200] {
            let parallel = with_threads(threads, || {
                map_indexed(137, |i| (i as u64).wrapping_mul(0x9e3779b9))
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn slice_map_preserves_order() {
        let items: Vec<i64> = (0..50).map(|i| i * 3 - 7).collect();
        let out = with_threads(4, || map(&items, |&x| x * x));
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task() {
        assert_eq!(
            with_threads(4, || map_indexed(0, |i| i)),
            Vec::<usize>::new()
        );
        assert_eq!(with_threads(4, || map_indexed(1, |i| i + 10)), vec![10]);
    }

    #[test]
    fn uneven_task_costs_rebalance() {
        // First chunk is slow; stealing must still complete everything
        // and the result stays in index order.
        let out = with_threads(4, || {
            map_indexed(64, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 2
            })
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = with_threads(4, || {
            map_indexed(500, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn nested_maps_run_inline_in_workers() {
        let out = with_threads(4, || {
            map_indexed(8, |i| {
                assert!(in_worker() || thread_count() == 1);
                // The nested call must not spawn a second pool.
                let inner = map_indexed(16, move |j| i * 100 + j);
                inner.iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = thread_count();
        let inner = with_threads(7, thread_count);
        assert_eq!(inner, 7);
        assert_eq!(thread_count(), outer);
        // Zero is clamped to the serial floor.
        assert_eq!(with_threads(0, thread_count), 1);
    }

    #[test]
    fn push_threads_guard_nests_and_restores() {
        let outer = thread_count();
        {
            let _g1 = push_threads(5);
            assert_eq!(thread_count(), 5);
            {
                let _g2 = push_threads(2);
                assert_eq!(thread_count(), 2);
            }
            assert_eq!(thread_count(), 5, "inner guard restores outer override");
        }
        assert_eq!(thread_count(), outer);
    }

    #[test]
    fn env_variable_is_honored_without_override() {
        // Note: env mutation is process-global; every other test in
        // this module pins its width via `with_threads`, which takes
        // precedence, so this cannot race their results.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_count() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(thread_count() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn try_map_contains_panics_and_reports_lowest_index() {
        for threads in [1, 4] {
            let err = with_threads(threads, || {
                try_map_indexed(32, |i| {
                    if i == 13 || i == 21 {
                        panic!("task {i} exploded");
                    }
                    i
                })
            })
            .unwrap_err();
            assert_eq!(err.task, 13, "threads={threads}");
            assert_eq!(err.message, "task 13 exploded");
            assert!(err.to_string().contains("task 13 panicked"));
        }
    }

    #[test]
    fn try_map_matches_map_when_nothing_panics() {
        let ok = with_threads(4, || try_map_indexed(100, |i| i * 7)).unwrap();
        assert_eq!(ok, (0..100).map(|i| i * 7).collect::<Vec<_>>());
        let items: Vec<i32> = (0..20).collect();
        let out = with_threads(4, || try_map(&items, |&x| x + 1)).unwrap();
        assert_eq!(out, (1..21).collect::<Vec<_>>());
    }

    // Injected `exec.task_panic` faults are exercised by the
    // root-level chaos suite (`tests/chaos.rs`): faultinject arming is
    // process-global and would race the other parallel unit tests in
    // this binary, which all hit the same failpoint via map_indexed.

    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn task_panics_propagate() {
        with_threads(4, || {
            map_indexed(32, |i| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
                i
            })
        });
    }
}
