//! Offline drop-in subset of the `proptest` crate.
//!
//! Supports exactly the strategy surface this workspace's property tests
//! use: numeric range strategies, tuples of strategies, `any::<bool>()`,
//! `prop::collection::vec`, and character-class string "regexes" of the
//! shape `[class]{lo,hi}` / `[class]` / literal chars. Cases are generated
//! from a deterministic per-test seed; there is no shrinking — the failing
//! input is printed instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; draw fresh ones.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Per-case verdict type returned by generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A value generator (no shrinking).
pub trait Strategy {
    /// Generated value type.
    type Value: Debug;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! numeric_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
numeric_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// `any::<T>()` support.
pub trait Arbitrary: Sized + Debug {
    /// The strategy type `any` returns.
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy for the type.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for `any::<bool>()`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen::<bool>()
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

// ---------- string "regex" strategies ----------

/// One `[class]{lo,hi}` (or single-char) piece of a pattern.
#[derive(Debug, Clone)]
struct PatternPiece {
    choices: Vec<char>,
    lo: usize,
    hi: usize,
}

/// Parses the tiny regex subset used in the tests: concatenations of
/// `[class]{lo,hi}`, `[class]{n}`, `[class]` and literal characters.
/// Character classes support ranges (`a-z`) and literals (space, `.`).
fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let choices: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed `[` in pattern {pattern:?}"));
            let body = &chars[i + 1..close];
            i = close + 1;
            let mut set = Vec::new();
            let mut j = 0;
            while j < body.len() {
                if j + 2 < body.len() && body[j + 1] == '-' {
                    let (lo, hi) = (body[j], body[j + 2]);
                    assert!(lo <= hi, "bad class range in {pattern:?}");
                    for c in lo..=hi {
                        set.push(c);
                    }
                    j += 3;
                } else {
                    set.push(body[j]);
                    j += 1;
                }
            }
            set
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed `{{` in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse().expect("repeat lower bound"),
                    b.trim().parse().expect("repeat upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("repeat count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        pieces.push(PatternPiece { choices, lo, hi });
    }
    pieces
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let n = rng.gen_range(piece.lo..=piece.hi);
            for _ in 0..n {
                out.push(piece.choices[rng.gen_range(0..piece.choices.len())]);
            }
        }
        out
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Element-count specification for [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy for vectors of `element` with a size in `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec(..)` resolves.
pub mod prop {
    pub use crate::collection;
}

/// Deterministic per-test seed (FNV-1a over the test path).
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds the RNG for one case of a test run.
pub fn case_rng(test_name: &str, attempt: u64) -> TestRng {
    TestRng::seed_from_u64(seed_for(test_name) ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Asserts a condition inside a property test body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Asserts inequality inside a property test body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Rejects the current inputs (draw fresh ones, not counted as a case).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        $crate::prop_assume!($cond)
    };
}

/// The `proptest! { ... }` block: expands each contained function into a
/// `#[test]` that drives the configured number of generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr);) => {};
    (($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            let mut passed: u32 = 0;
            let mut attempt: u64 = 0;
            while passed < config.cases {
                attempt += 1;
                assert!(
                    attempt <= u64::from(config.cases) * 200,
                    "{test_path}: too many rejected cases ({attempt} attempts for {} passes)",
                    passed
                );
                let mut rng = $crate::case_rng(test_path, attempt);
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: $crate::TestCaseResult = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "{test_path}: property failed at case {} (attempt {attempt}): {msg}\n  inputs: {:#?}",
                            passed + 1,
                            ($(&$arg,)+)
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_parser_handles_test_classes() {
        let mut rng = crate::case_rng("pattern", 1);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{0,12}", &mut rng);
            assert!(s.len() <= 12);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::generate(&"[A-Za-z. ]{0,30}", &mut rng);
            assert!(t.len() <= 30);
            assert!(t
                .chars()
                .all(|c| c.is_ascii_alphabetic() || c == '.' || c == ' '));
            let u = Strategy::generate(&"[A-Za-z]{1,16}", &mut rng);
            assert!((1..=16).contains(&u.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_generate_in_bounds(
            x in -5.0f64..5.0,
            pair in (0usize..10, 1u64..3),
            v in prop::collection::vec(any::<bool>(), 3),
        ) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!(pair.0 < 10);
            prop_assert!((1..3).contains(&pair.1));
            prop_assert_eq!(v.len(), 3);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_report_inputs() {
        proptest! {
            #[allow(unused)]
            fn inner(x in 0usize..4) {
                prop_assert!(x < 3, "x was {}", x);
            }
        }
        inner();
    }
}
