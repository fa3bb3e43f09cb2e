//! # sadp-exec
//!
//! A small, dependency-free execution layer for work *across* routing
//! instances: the circuit × arm experiment matrix and the table and
//! bench binaries, which run one independent routing flow per task.
//! It also supplies the service's default worker count
//! ([`thread_count`]). Nothing inside one routing session uses it: a
//! session runs every phase, its coloring checks, DVI build and audits
//! on its caller's thread.
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
//! to a serial inline loop that spawns no threads at all.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

/// The environment variable overriding the pool width
/// (`1` = serial inline execution; unset/invalid = machine default).
pub const THREADS_ENV: &str = "SADP_EXEC_THREADS";

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
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
    let threads = thread_count().min(tasks);
    if threads <= 1 {
        return (0..tasks).map(f).collect();
    }
    run_pool(tasks, threads, &f)
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
