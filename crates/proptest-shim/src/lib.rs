//! A minimal, offline stand-in for the [`proptest`] property-testing crate.
//!
//! The build environment cannot fetch crates from a registry, so the
//! workspace points the `proptest` dev-dependency at this shim. It
//! implements the subset used by `tests/theorems.rs`:
//!
//! * the [`Strategy`] trait with [`Strategy::prop_map`], implemented for
//!   integer ranges, tuples of strategies, [`Just`], and [`any`];
//! * [`collection::vec`] and the [`prop_oneof!`] macro;
//! * the [`proptest!`] macro with `#![proptest_config(..)]`, and the
//!   [`prop_assert!`]/[`prop_assert_eq!`] assertion macros.
//!
//! Sampling is a deterministic xorshift PRNG (seeded per test from the
//! test name, overridable via `PROPTEST_SEED`), so failures reproduce.
//! There is no shrinking: a failing case panics with the sampled inputs
//! already interpolated into the assertion message where the test
//! provides one. `PROPTEST_CASES` overrides the configured case count.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic test-case RNG (xorshift64*).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seed a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> TestRng {
        TestRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator (the proptest `Strategy` trait, minus shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Sample one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty range strategy");
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(i64, u64, i32, u32, usize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical "any value" strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Sample an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// A uniform choice among boxed strategies (built by [`prop_oneof!`]).
pub struct OneOf<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Build from the given arms (at least one).
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> OneOf<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Collection strategies (proptest's `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generate `Vec`s of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
    /// Accepted for API compatibility; unused by the shim (no shrinking).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

impl ProptestConfig {
    /// The effective case count: `PROPTEST_CASES` overrides the config.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

/// Seed for a named test: `PROPTEST_SEED` override, else an FNV-1a hash
/// of the test name (stable across runs).
pub fn seed_for(test_name: &str) -> u64 {
    if let Some(s) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return s;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Everything a test file needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Property assertion: like `assert!`, reported per sampled case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Property equality assertion: like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(Box::new($arm) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// Declare property tests. Each `name(arg in strategy, ..)` item becomes a
/// `#[test]` function that samples the strategies `cases` times with a
/// deterministic RNG and runs the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal item muncher for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = config.effective_cases();
            let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name)));
            for _case in 0..cases {
                $(let $arg = $crate::Strategy::sample(&$strat, &mut rng);)*
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_sample_within_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..100 {
            let v = (3..7i64).sample(&mut rng);
            assert!((3i64..7).contains(&v));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![(0..2i64).prop_map(|v| v * 10), Just(99i64),];
        let mut rng = TestRng::new(2);
        for _ in 0..50 {
            let v: i64 = s.sample(&mut rng);
            assert!([0i64, 10, 99].contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let s = collection::vec(0..5i64, 1..4);
        let mut rng = TestRng::new(3);
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!((1usize..4).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// The macro itself: tuples, any, and assertions.
        #[test]
        fn macro_generates_cases(pair in (0..4i64, 1..3i64), flag in any::<bool>()) {
            prop_assert!(pair.0 < 4 && pair.1 >= 1);
            prop_assert_eq!(i64::from(flag) * 2, if flag { 2 } else { 0 }, "on {:?}", pair);
        }
    }
}
