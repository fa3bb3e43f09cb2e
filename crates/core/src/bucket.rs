//! A Dial bucket queue for the A* open set.
//!
//! The search kernel's costs are non-negative integers and its
//! consistent heuristic makes the popped `f = g + h` sequence
//! monotonically non-decreasing, so the classic Dial construction
//! applies: a ring of `NB` width-1 buckets covers the window
//! `[base, base + NB)` of f-values, a cursor (`base`) only ever moves
//! forward, and pushes/pops are O(1) plus a bitmap scan amortized over
//! the cost range — no `O(log n)` heap reshuffle on a frontier that
//! can reach hundreds of thousands of states on full-size circuits.
//!
//! Two departures from the textbook version keep it a *drop-in*
//! replacement for the `BinaryHeap<Reverse<(f, key)>>` it replaces:
//!
//! * **Exact heap-identical pop order.** The binary heap pops equal-f
//!   entries in ascending key order, and route tie-breaking depends on
//!   it. The ring therefore keeps width-1 buckets (one f-value per
//!   bucket). When the cursor reaches a bucket, the bucket is sorted
//!   once into a descending `run` whose end is its minimum key; late
//!   pushes with `f == base` land in a small `late` min-heap, and each
//!   pop takes the smaller of the two heads. That interleaves exactly
//!   as the global heap would, so every pop sequence is byte-identical
//!   to the heap kernel's, which is what the differential tests pin.
//!   A sort is one cache-friendly pass with predictable branches;
//!   draining a heap over the whole bucket paid an `O(log n)`
//!   sift-down with a data-dependent branch per pop.
//! * **An overflow heap for out-of-window pushes.** Edge costs are not
//!   statically bounded (history and usage penalties grow without
//!   limit during negotiation), so an entry with `f >= base + NB`
//!   goes to a plain binary heap instead of aborting; when the ring
//!   drains, the cursor jumps to the overflow minimum and the next
//!   window's worth of entries migrates back into the ring. Initial
//!   sources (whose `f = h` can sit far above `base = 0`) enter the
//!   same way, so no special start-up rebasing is needed.
//!
//! The queue never shrinks its allocations: buckets and heaps are
//! reused across searches through [`DialQueue::clear`], mirroring the
//! epoch-reuse discipline of `SearchScratch`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of width-1 buckets in the ring. 2^14 milli-units spans ~16
/// preferred-direction wire steps — wide enough that ordinary relax
/// steps stay in the ring and only cold sources / heavily penalized
/// edges take the overflow path.
const NB: usize = 1 << 14;
/// Occupancy bitmap words.
const NW: usize = NB / 64;

/// A monotone integer priority queue over `(f, key)` pairs with pop
/// order identical to `BinaryHeap<Reverse<(i64, u64)>>`.
#[derive(Debug, Clone)]
pub(crate) struct DialQueue {
    /// Ring of width-1 buckets; slot `f % NB` holds keys with that
    /// exact f-value while `base < f < base + NB`.
    buckets: Vec<Vec<u64>>,
    /// One occupancy bit per bucket (scan accelerator).
    words: Vec<u64>,
    /// Entries currently in ring buckets (excluding `run` and `late`).
    ring_len: usize,
    /// f-value of the bucket being drained; the pop cursor.
    base: i64,
    /// The drained bucket's keys (`f == base`), sorted descending so
    /// the minimum pops off the end.
    run: Vec<u64>,
    /// Keys pushed with `f == base` after the bucket was sorted.
    late: BinaryHeap<Reverse<u64>>,
    /// Entries with `f >= base + NB`.
    overflow: BinaryHeap<Reverse<(i64, u64)>>,
}

impl Default for DialQueue {
    fn default() -> Self {
        DialQueue::new()
    }
}

impl DialQueue {
    pub(crate) fn new() -> DialQueue {
        DialQueue {
            buckets: vec![Vec::new(); NB],
            words: vec![0u64; NW],
            ring_len: 0,
            base: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Empties the queue, keeping all allocations for reuse. Resets
    /// the cursor to 0 so a fresh search can begin.
    pub(crate) fn clear(&mut self) {
        if self.ring_len > 0 {
            for w in 0..NW {
                let mut bits = self.words[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    self.buckets[w * 64 + b].clear();
                    bits &= bits - 1;
                }
                self.words[w] = 0;
            }
            self.ring_len = 0;
        }
        self.run.clear();
        self.late.clear();
        self.overflow.clear();
        self.base = 0;
    }

    #[inline]
    fn slot(f: i64) -> usize {
        debug_assert!(f >= 0, "search f-values are non-negative");
        (f as u64 % NB as u64) as usize
    }

    /// Pushes an entry. `f` must be `>= `the last popped f (monotone
    /// usage contract; sources pushed before the first pop only need
    /// `f >= 0`).
    #[inline]
    pub(crate) fn push(&mut self, f: i64, key: u64) {
        debug_assert!(
            f >= self.base,
            "non-monotone push: {f} < base {}",
            self.base
        );
        if f == self.base {
            self.late.push(Reverse(key));
        } else if f - self.base < NB as i64 {
            let s = DialQueue::slot(f);
            self.buckets[s].push(key);
            self.words[s / 64] |= 1u64 << (s % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((f, key)));
        }
    }

    /// Pops the minimum `(f, key)` entry, in exactly the order the
    /// reference binary heap would.
    pub(crate) fn pop(&mut self) -> Option<(i64, u64)> {
        loop {
            // Re-home overflow entries that the advancing cursor has
            // brought inside the ring window, so the late heap and
            // the scan below see them. Each entry migrates at most
            // once, and overflow then holds only f >= base + NB —
            // strictly above anything the ring scan can land on.
            while let Some(&Reverse((g, _))) = self.overflow.peek() {
                if g - self.base >= NB as i64 {
                    break;
                }
                let Some(Reverse((g, key))) = self.overflow.pop() else {
                    break; // unreachable: peek just succeeded
                };
                self.push(g, key);
            }
            // Merge the sorted run with the late heap: the smaller
            // head is the heap's next `(base, key)`. Equal heads are
            // equal pairs, so either order pops the same sequence.
            match (self.run.last(), self.late.peek()) {
                (Some(&r), Some(&Reverse(l))) if l < r => {
                    self.late.pop();
                    return Some((self.base, l));
                }
                (Some(_), _) => return self.run.pop().map(|k| (self.base, k)),
                (None, Some(_)) => return self.late.pop().map(|Reverse(k)| (self.base, k)),
                (None, None) => {}
            }
            if self.ring_len == 0 {
                // Ring empty too: jump the cursor to the overflow
                // minimum; the migration loop above re-homes the next
                // window's worth of entries on the next iteration.
                let &Reverse((f, _)) = self.overflow.peek()?;
                self.base = f;
                continue;
            }
            // Advance to the first occupied bucket past `base`. All
            // ring entries lie in (base, base + NB), so the first set
            // bit in circular scan order is the minimum f.
            let start = DialQueue::slot(self.base) + 1; // may be NB (wraps)
            let mut dist = 1usize;
            let mut w = (start % NB) / 64;
            let mut bits = self.words[w] & !((1u64 << ((start % NB) % 64)) - 1);
            loop {
                if bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    let s = w * 64 + b;
                    // Circular distance from the cursor slot to s.
                    let from = DialQueue::slot(self.base);
                    dist = (s + NB - from - 1) % NB + 1;
                    self.base += dist as i64;
                    debug_assert_eq!(DialQueue::slot(self.base), s);
                    self.words[w] &= !(1u64 << b);
                    self.ring_len -= self.buckets[s].len();
                    // `run` is empty here. Copy rather than swap: each
                    // bucket keeps its own allocation, so capacities
                    // do not migrate around the ring and pile up.
                    self.run.extend_from_slice(&self.buckets[s]);
                    self.buckets[s].clear();
                    self.run.sort_unstable_by(|a, b| b.cmp(a));
                    break;
                }
                w = (w + 1) % NW;
                bits = self.words[w];
                dist += 64; // loose progress counter; exact dist computed on hit
                debug_assert!(dist <= NB + 64, "occupancy bitmap out of sync");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the exact open-set the kernel used before.
    #[derive(Default)]
    struct HeapRef(BinaryHeap<Reverse<(i64, u64)>>);

    impl HeapRef {
        fn push(&mut self, f: i64, k: u64) {
            self.0.push(Reverse((f, k)));
        }
        fn pop(&mut self) -> Option<(i64, u64)> {
            self.0.pop().map(|Reverse(p)| p)
        }
    }

    #[test]
    fn pops_in_f_then_key_order() {
        let mut q = DialQueue::new();
        q.push(5, 30);
        q.push(3, 10);
        q.push(5, 20);
        q.push(3, 40);
        assert_eq!(q.pop(), Some((3, 10)));
        assert_eq!(q.pop(), Some((3, 40)));
        assert_eq!(q.pop(), Some((5, 20)));
        assert_eq!(q.pop(), Some((5, 30)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_entries_take_the_overflow_path_and_come_back() {
        let mut q = DialQueue::new();
        // Typical A* start: sources far above base 0.
        q.push(1_000_000, 7);
        q.push(2_000_000, 8);
        q.push(1_000_000, 3);
        assert_eq!(q.pop(), Some((1_000_000, 3)));
        // Monotone pushes between pops, spanning several windows.
        q.push(1_000_000 + NB as i64 * 3, 9);
        assert_eq!(q.pop(), Some((1_000_000, 7)));
        assert_eq!(q.pop(), Some((1_000_000 + NB as i64 * 3, 9)));
        assert_eq!(q.pop(), Some((2_000_000, 8)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_same_f_pushes_match_heap_order() {
        // Push more equal-f keys *while draining* that f level — the
        // case where a naive FIFO bucket diverges from the heap.
        let mut q = DialQueue::new();
        let mut h = HeapRef::default();
        for (f, k) in [(10, 50), (10, 20), (11, 5)] {
            q.push(f, k);
            h.push(f, k);
        }
        assert_eq!(q.pop(), h.pop()); // (10, 20)
        q.push(10, 1);
        h.push(10, 1);
        assert_eq!(q.pop(), h.pop()); // (10, 1): the late push wins
        assert_eq!(q.pop(), h.pop()); // (10, 50)
        assert_eq!(q.pop(), h.pop()); // (11, 5)
        assert_eq!(q.pop(), h.pop()); // None
    }

    #[test]
    fn randomized_monotone_streams_are_heap_identical() {
        // Seeded LCG stream of interleaved pushes and pops with the
        // monotone contract (pushed f >= last popped f), mixing
        // duplicate keys, equal-f runs, and window-crossing jumps.
        // Rounds from 20 on use the run mix: long equal-f runs one or
        // two levels ahead, drained while late pushes at the drained
        // level bring keys below the run's head, so pops must merge
        // the sorted run with the late heap.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let mut merged = 0usize;
        for round in 0..30 {
            let runs = round >= 20;
            let mut q = DialQueue::new();
            let mut h = HeapRef::default();
            let mut floor = 0i64;
            let mut live = 0usize;
            for _step in 0..2000 {
                if live == 0 || next() % 3 != 0 {
                    let (f, k) = if !runs {
                        let bump = match next() % 4 {
                            0 => next() as i64 % 5,               // same-f cluster
                            1 => next() as i64 % 2000,            // in-window step
                            2 => next() as i64 % (NB as i64 * 2), // window jump
                            _ => 1000,                            // wire step
                        };
                        (floor + bump, next() % 64) // few keys => many exact ties
                    } else if next() % 4 == 0 {
                        (floor, next() % 512) // late push at the drained level
                    } else {
                        (floor + 1 + next() as i64 % 2, 256 + next() % 4096)
                    };
                    q.push(f, k);
                    h.push(f, k);
                    live += 1;
                } else {
                    if let (Some(&r), Some(&Reverse(l))) = (q.run.last(), q.late.peek()) {
                        merged += usize::from(l < r);
                    }
                    let a = q.pop();
                    let b = h.pop();
                    assert_eq!(a, b, "divergence from heap order");
                    if let Some((f, _)) = a {
                        floor = f;
                    }
                    live -= 1;
                }
            }
            let mut q2 = q;
            let mut h2 = h;
            loop {
                let (a, b) = (q2.pop(), h2.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
        assert!(merged > 100, "late keys below a run head: {merged}");
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = DialQueue::new();
        q.push(100, 1);
        q.push(1_000_000, 2); // overflow
        assert_eq!(q.pop(), Some((100, 1)));
        q.clear();
        assert_eq!(q.pop(), None);
        // Cursor is back at 0: small f-values are accepted again.
        q.push(3, 9);
        assert_eq!(q.pop(), Some((3, 9)));
    }
}
