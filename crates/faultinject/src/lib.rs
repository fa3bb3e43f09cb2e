//! Deterministic seeded fault injection for chaos testing.
//!
//! Library crates call cheap hooks at named *failpoints*
//! ([`should_fail`], [`maybe_panic`], [`maybe_delay`]). In production
//! the hooks are a single relaxed atomic load (no plan armed → no
//! work). Chaos tests arm a [`FaultSpec`] with a seed; whether the
//! n-th hit of a failpoint fires is then a pure function of
//! `(seed, failpoint name, occurrence index)`, so failures are
//! reproducible across runs and thread counts as long as each thread
//! hits the point in a deterministic order — and statistically stable
//! regardless.
//!
//! Failpoints currently wired into the workspace:
//!
//! | name                | effect when fired                        |
//! |---------------------|------------------------------------------|
//! | `dvi.solver_abort`  | DVI ILP solve aborts (panics internally; caught by the resilient wrapper) |
//! | `core.slow_phase`   | routing phase sleeps for the armed delay |
//! | `core.phase_panic`  | routing phase panics as it starts (contained by `try_finish`, or unwinds to the caller of a phase method) |
//! | `io.torn_write`     | a journal append persists only a byte prefix, then the journal goes dead (simulated crash mid-write) |
//! | `io.fsync_fail`     | a journal fsync reports failure; the accepting `submit` returns a typed error |
//! | `io.short_read`     | a journal recovery scan sees a truncated tail (simulated partially-persisted file) |
//!
//! ```
//! let _guard = faultinject::arm(
//!     7,
//!     faultinject::FaultSpec::new().point("core.phase_panic", 0.5),
//! );
//! assert!(faultinject::is_armed());
//! // ... run the system under test; ~half the phase starts panic ...
//! drop(_guard); // disarms
//! assert!(!faultinject::is_armed());
//! ```
//!
//! Arming is process-global: tests that arm faults must serialize
//! (e.g. behind a shared `Mutex`) or they will see each other's plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fast-path flag: `true` while a plan is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The armed plan, if any. Locked only on the slow path.
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

struct Plan {
    seed: u64,
    /// failpoint name → probability of firing per hit.
    points: HashMap<String, f64>,
    /// Sleep length for [`maybe_delay`] failpoints.
    delay: Duration,
    /// failpoint name → number of hits observed so far.
    hits: HashMap<String, u64>,
}

/// Which failpoints fire with which probability.
///
/// Build with [`FaultSpec::new`] and chained [`FaultSpec::point`] /
/// [`FaultSpec::delay`] calls, then pass to [`arm`].
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    points: Vec<(String, f64)>,
    delay: Duration,
}

impl FaultSpec {
    /// An empty spec: no failpoint fires.
    pub fn new() -> FaultSpec {
        FaultSpec::default()
    }

    /// Arms failpoint `name` with per-hit probability `p`
    /// (`p >= 1.0` fires every hit, `p <= 0.0` never fires).
    pub fn point(mut self, name: &str, p: f64) -> FaultSpec {
        self.points.push((name.to_string(), p));
        self
    }

    /// Sleep length used when a delay failpoint fires (default 0).
    pub fn delay(mut self, d: Duration) -> FaultSpec {
        self.delay = d;
        self
    }
}

/// RAII guard returned by [`arm`]; disarms all failpoints on drop.
#[must_use = "faults disarm when the guard drops"]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `spec` process-globally under `seed`, replacing any previous
/// plan. Returns a guard that disarms on drop.
pub fn arm(seed: u64, spec: FaultSpec) -> FaultGuard {
    let plan = Plan {
        seed,
        points: spec.points.into_iter().collect(),
        delay: spec.delay,
        hits: HashMap::new(),
    };
    {
        let mut slot = lock_plan();
        *slot = Some(plan);
    }
    ARMED.store(true, Ordering::Release);
    FaultGuard(())
}

/// Disarms all failpoints immediately (also done by the guard drop).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    let mut slot = lock_plan();
    *slot = None;
}

/// `true` while a fault plan is armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Records a hit on failpoint `name` and decides whether it fires.
///
/// Deterministic: the decision for the n-th hit of a point depends
/// only on `(seed, name, n)`.
pub fn should_fail(name: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut slot = lock_plan();
    let Some(plan) = slot.as_mut() else {
        return false;
    };
    let Some(&p) = plan.points.get(name) else {
        return false;
    };
    let hit = plan.hits.entry(name.to_string()).or_insert(0);
    let occurrence = *hit;
    *hit += 1;
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    let mut rng = SmallRng::seed_from_u64(
        plan.seed ^ fnv1a(name) ^ occurrence.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    rng.gen_bool(p)
}

/// Panics with `"fault injected: {name}"` when the failpoint fires.
pub fn maybe_panic(name: &str) {
    if should_fail(name) {
        panic!("fault injected: {name}");
    }
}

/// Sleeps for the armed delay when the failpoint fires.
pub fn maybe_delay(name: &str) {
    let d = {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let slot = lock_plan();
        match slot.as_ref() {
            Some(plan) => plan.delay,
            None => return,
        }
    };
    if should_fail(name) && !d.is_zero() {
        std::thread::sleep(d);
    }
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<Plan>> {
    // A panicked holder only ever poisons the lock between plain map
    // operations; the plan data stays consistent, so keep going.
    match PLAN.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// FNV-1a hash of a failpoint name, used to decorrelate points that
/// share a seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global state: tests in this module serialize themselves.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn unarmed_is_inert() {
        let _t = test_guard();
        disarm();
        assert!(!is_armed());
        assert!(!should_fail("dvi.solver_abort"));
        maybe_panic("dvi.solver_abort");
        maybe_delay("core.slow_phase");
    }

    #[test]
    fn certain_point_always_fires_and_guard_disarms() {
        let _t = test_guard();
        {
            let _g = arm(1, FaultSpec::new().point("x", 1.0));
            assert!(is_armed());
            for _ in 0..10 {
                assert!(should_fail("x"));
            }
            assert!(!should_fail("y"), "unlisted point never fires");
        }
        assert!(!is_armed());
        assert!(!should_fail("x"));
    }

    #[test]
    fn zero_probability_never_fires() {
        let _t = test_guard();
        let _g = arm(2, FaultSpec::new().point("x", 0.0));
        for _ in 0..100 {
            assert!(!should_fail("x"));
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_occurrence() {
        let _t = test_guard();
        let run = |seed: u64| -> Vec<bool> {
            let _g = arm(seed, FaultSpec::new().point("x", 0.5));
            (0..64).map(|_| should_fail("x")).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed replays the same decisions");
        assert_ne!(a, c, "different seed gives a different pattern");
        assert!(
            a.iter().any(|&f| f) && a.iter().any(|&f| !f),
            "p=0.5 mixes outcomes: {a:?}"
        );
    }

    #[test]
    fn maybe_panic_fires() {
        let _t = test_guard();
        let _g = arm(3, FaultSpec::new().point("x", 1.0));
        let err = std::panic::catch_unwind(|| maybe_panic("x")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fault injected: x"), "{msg}");
    }
}
