//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so property tests run
//! on this self-contained engine: seeded random generation, a [`Strategy`]
//! trait with `prop_map` / `prop_flat_map`, tuple and range strategies,
//! [`collection::vec`], [`Just`], [`any`], `prop_oneof!`, and the
//! [`proptest!`] macro. There is **no shrinking** — a failing case reports
//! its generated inputs verbatim, which the deterministic per-test seeds
//! make reproducible.

use rand::rngs::StdRng;

pub use rand::SeedableRng;

/// The generator handed to strategies.
pub type TestRng = StdRng;

/// Configuration for a [`proptest!`] block (subset of the upstream struct).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (for heterogeneous unions).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed, dynamically typed strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
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
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rand::Rng::gen_range(rng, self.clone())
    }
}

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

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rand::RngCore::next_u64(rng) as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rand::RngCore::next_u64(rng) & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Generates any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice among boxed alternatives (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics on an empty option list.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rand::Rng::gen_range(rng, 0..self.options.len());
        self.options[i].generate(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Admissible size specifications for [`vec`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rand::Rng::gen_range(rng, self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Payload used by `prop_assume!` rejections; the harness skips such cases.
#[doc(hidden)]
pub const ASSUME_REJECTED: &str = "__proptest_shim_assume_rejected__";

#[doc(hidden)]
pub fn __case_seed(test_name: &str, case: u32) -> u64 {
    // FNV-1a over the test name, mixed with the case index: deterministic
    // across runs, distinct across tests.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

#[doc(hidden)]
pub fn __run_case<V: std::fmt::Debug>(test_name: &str, case: u32, values: V, body: impl FnOnce(V)) {
    let rendered = format!("{:?}", values);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(values)));
    if let Err(payload) = result {
        if payload
            .downcast_ref::<&str>()
            .is_some_and(|s| *s == ASSUME_REJECTED)
            || payload
                .downcast_ref::<String>()
                .is_some_and(|s| s == ASSUME_REJECTED)
        {
            return; // rejected by prop_assume!, not a failure
        }
        eprintln!(
            "proptest case {} of '{}' failed with inputs: {}",
            case, test_name, rendered
        );
        std::panic::resume_unwind(payload);
    }
}

/// Property-test harness macro (subset of upstream `proptest!`).
///
/// As upstream, the macro adds no test attribute of its own: each property
/// carries its own `#[test]`, which the macro passes through with the rest
/// of its attributes. A property written without one is a plain function
/// and does not run.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let seed = $crate::__case_seed(stringify!($name), case);
                    let mut rng: $crate::TestRng = $crate::SeedableRng::seed_from_u64(seed);
                    let values = (
                        $( $crate::Strategy::generate(&($strat), &mut rng), )+
                    );
                    $crate::__run_case(stringify!($name), case, values, |values| {
                        let ( $($arg,)+ ) = values;
                        $body
                    });
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert within a property (no shrinking: forwards to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality within a property (forwards to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality within a property (forwards to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Reject the current case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($t:tt)*)?) => {
        if !$cond {
            std::panic::panic_any($crate::ASSUME_REJECTED);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };

    pub mod prop {
        //! `prop::collection::…` paths.
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair_strategy() -> impl Strategy<Value = (usize, u64)> {
        (0usize..10).prop_flat_map(|n| (Just(n), 0u64..100))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -2.0..2.0f64) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u64..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn flat_map_and_patterns((n, k) in pair_strategy()) {
            prop_assert!(n < 10 && k < 100);
        }

        #[test]
        fn oneof_and_assume(b in prop_oneof![Just(true), Just(false)], x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
            let _ = b;
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(super::__case_seed("a", 0), super::__case_seed("a", 0));
        assert_ne!(super::__case_seed("a", 0), super::__case_seed("b", 0));
        assert_ne!(super::__case_seed("a", 0), super::__case_seed("a", 1));
    }
}
