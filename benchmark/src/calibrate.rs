//! A fixed reference computation that tracks how fast the host runs
//! the router at the moment.
//!
//! On a shared host the router runs up to two or three times slower
//! for stretches of seconds to minutes, with no time lost waiting for
//! a core: other tenants slow its execution (README.md, End-to-end
//! metrics). A run therefore also times this kernel — a shortest-path
//! search over a fixed weighted grid with a binary heap, like the
//! router's own search — and scales its times to the reference host by
//! the kernel's. The flows time it just before and just after each
//! set-up and each flow ([`Calibration::scale`]); service-mix in the
//! gaps between its jobs ([`Calibration::sample`],
//! [`Calibration::scale_by_run`]). The kernel is the benchmark's own
//! code and its input never changes, so no change to the router moves
//! it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::median;

/// A kernel size, its median time on the reference host (two shared
/// vCPUs, Intel Xeon 2.1 GHz) in a quiet stretch, and how the timed
/// work follows it: when the kernel takes `s` times its quiet time, the
/// work takes about `s` to the power `power` times its own. A scaled
/// time reads as the time it would take on the quiet reference host.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    pub side: usize,
    pub reference_ms: f64,
    pub power: f64,
}

/// The flows' kernel: 360,000 nodes, about as many grid cells as a
/// quarter-size paper circuit. The router slows down more than the
/// kernel, whose data fits in a core's L2 cache while the router's
/// grids do not: log flow time against log kernel time has slope
/// 1.56-1.60 over twenty runs each of flow-paper and top-route (paired
/// by seed), and power 1.5 gave the steadiest scaled flow times in
/// five-minute logs of both (README.md, End-to-end metrics).
pub const FLOW_KERNEL: Kernel = Kernel {
    side: 600,
    reference_ms: 22.0,
    power: 1.5,
};

/// service-mix's kernel, small enough to run between two jobs without
/// delaying the next. It takes 1/9.7 of the flows' kernel's time
/// (medians of 300 alternating samples of each, three times). The
/// router's own work is about half of a job's latency (`trace.coverage`
/// ~0.44; the rest is the journal's `fsync`, the wire and polling), so
/// latency follows the kernel with about half the flows' power.
pub const GAP_KERNEL: Kernel = Kernel {
    side: 200,
    reference_ms: 22.0 / 9.7,
    power: 0.75,
};

pub struct Calibration {
    kernel: Kernel,
    weights: Vec<u8>,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    checksum: Option<u64>,
    samples_ms: Vec<f64>,
    /// The samples of the last call to [`Calibration::scale`] (at
    /// first, of `new`): the host's speed just before the next work.
    previous_ms: Vec<f64>,
}

impl Calibration {
    /// Builds the kernel's input and times it once.
    pub fn new(kernel: Kernel) -> Calibration {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let weights = (0..kernel.side * kernel.side)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 9 + 1) as u8
            })
            .collect();
        let mut calibration = Calibration {
            kernel,
            weights,
            dist: Vec::new(),
            heap: BinaryHeap::new(),
            checksum: None,
            samples_ms: Vec::new(),
            previous_ms: Vec::new(),
        };
        calibration.previous_ms = calibration.sample_for(Duration::ZERO);
        calibration
    }

    /// Dijkstra from one corner over the whole grid; the sum of the
    /// distances, which must repeat exactly.
    fn kernel(&mut self) -> u64 {
        let side = self.kernel.side;
        let (w, dist, heap) = (&self.weights, &mut self.dist, &mut self.heap);
        dist.clear();
        dist.resize(side * side, u32::MAX);
        dist[0] = 0;
        heap.push(Reverse((0, 0)));
        while let Some(Reverse((d, k))) = heap.pop() {
            let k = k as usize;
            if d > dist[k] {
                continue;
            }
            let (x, y) = (k % side, k / side);
            let mut relax = |j: usize| {
                let nd = d + u32::from(w[j]);
                if nd < dist[j] {
                    dist[j] = nd;
                    heap.push(Reverse((nd, j as u32)));
                }
            };
            if x > 0 {
                relax(k - 1);
            }
            if x + 1 < side {
                relax(k + 1);
            }
            if y > 0 {
                relax(k - side);
            }
            if y + 1 < side {
                relax(k + side);
            }
        }
        dist.iter().map(|&d| u64::from(d)).sum()
    }

    /// Times the kernel once.
    ///
    /// # Panics
    ///
    /// If the kernel's result changes between calls (a benchmark bug).
    pub fn sample(&mut self) {
        let t = Instant::now();
        let sum = black_box(self.kernel());
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            *self.checksum.get_or_insert(sum),
            sum,
            "calibration kernel result changed"
        );
    }

    /// Times the kernel at least once and until `budget` is spent, and
    /// returns these samples' times in milliseconds.
    fn sample_for(&mut self, budget: Duration) -> Vec<f64> {
        let first = self.samples_ms.len();
        let t = Instant::now();
        loop {
            self.sample();
            if t.elapsed() >= budget {
                break;
            }
        }
        self.samples_ms[first..].to_vec()
    }

    fn to_reference(&self, measured: f64, kernel_ms: f64) -> f64 {
        measured * (self.kernel.reference_ms / kernel_ms).powf(self.kernel.power)
    }

    /// Call right after timing some work, of `measured_s` seconds: times
    /// the kernel for a tenth of that (at least once), and returns the
    /// work's time scaled to the reference host, with the kernel's
    /// median over these samples and those taken just before the work.
    pub fn scale(&mut self, measured_s: f64) -> f64 {
        let after = self.sample_for(Duration::from_secs_f64(measured_s / 10.0));
        let kernel_ms = median(&[self.previous_ms.as_slice(), &after].concat());
        self.previous_ms = after;
        self.to_reference(measured_s, kernel_ms)
    }

    /// `measured` (any time unit) scaled to the reference host with the
    /// kernel's median over the whole run.
    pub fn scale_by_run(&self, measured: f64) -> f64 {
        self.to_reference(measured, self.median_ms())
    }

    /// The kernel's median time in this run.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}
