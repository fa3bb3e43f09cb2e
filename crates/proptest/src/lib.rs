//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this local
//! path crate reimplements the subset of proptest the workspace's
//! property tests use: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map` / `prop_flat_map`, integer-range and tuple strategies,
//! [`collection::vec`], [`any`], [`Just`], [`ProptestConfig`], and the
//! `prop_assert*` macros.
//!
//! Unlike upstream proptest there is no shrinking: a failing case
//! panics immediately with the seed-derived case number in the
//! standard assertion message. Case generation is deterministic per
//! test-function name, so failures reproduce exactly.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The deterministic RNG driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// An RNG seeded from the test name (stable across runs), with an
    /// optional override via the `PROPTEST_SEED` environment variable.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.parse::<u64>() {
                h ^= extra.rotate_left(17);
            }
        }
        TestRng(SmallRng::seed_from_u64(h))
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A value generator (upstream proptest's `Strategy`, sans shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (rejection sampling; panics
    /// after 1000 consecutive rejections).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            pred,
            whence,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive cases: {}",
            self.whence
        )
    }
}

/// A strategy always producing a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical whole-domain strategy (upstream
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws one uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A vector-length specification: an exact size or a half-open
    /// range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange(core::ops::Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange(*r.start()..r.end() + 1)
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let range = &self.size.0;
            let n = if range.start + 1 < range.end {
                rng.0.gen_range(range.clone())
            } else {
                range.start
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Asserts a condition inside a property (panics on failure, like a
/// plain `assert!` — this shim has no shrinking to resume).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(binding in strategy, ...)`
/// becomes a `#[test]` running the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cfg.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic("t1");
        let s = (0i32..10, 5u8..=6, any::<bool>());
        for _ in 0..200 {
            let (a, b, _c) = s.generate(&mut rng);
            assert!((0..10).contains(&a));
            assert!(b == 5 || b == 6);
        }
    }

    #[test]
    fn map_flat_map_and_vec_compose() {
        let mut rng = crate::TestRng::deterministic("t2");
        let s = (1usize..4).prop_flat_map(|n| {
            crate::collection::vec(0i32..100, n..n + 1).prop_map(move |v| (n, v))
        });
        for _ in 0..100 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn determinism_per_name() {
        let mut a = crate::TestRng::deterministic("same");
        let mut b = crate::TestRng::deterministic("same");
        let s = crate::collection::vec(0u64..1_000_000, 3..10);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: bindings, Just, and asserts all work.
        #[test]
        fn macro_smoke(x in 0i32..50, y in Just(7i32), flip in any::<bool>()) {
            prop_assert!(x < 50);
            prop_assert_eq!(y, 7);
            prop_assert_ne!(x - y, x, "flip={}", flip);
        }
    }
}
