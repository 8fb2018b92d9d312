//! # hpm-check — deterministic std-only property testing
//!
//! A minimal in-tree replacement for the slice of `proptest` this
//! workspace used, so the build stays hermetic (zero registry
//! dependencies). Properties are written with the [`props!`] macro:
//!
//! ```
//! use hpm_check::prelude::*;
//!
//! props! {
//!     fn doubling_is_even(x in int(0u32..1_000)) {
//!         require_eq!((x * 2) % 2, 0);
//!     }
//! }
//! ```
//!
//! Each property runs a fixed number of deterministic cases (default
//! 64) seeded from the property name, so suites are reproducible and
//! independent of test ordering. On failure the input is greedily
//! shrunk via hedgehog-style integrated shrink trees, and the panic
//! names the case seed and the shrunk input. Nothing is written to the
//! source tree: a failure worth keeping is pinned as a fixed `#[test]`
//! that runs the shrunk input through the property.
//!
//! Environment knobs:
//!
//! | variable            | default | meaning                              |
//! |---------------------|---------|--------------------------------------|
//! | `HPM_CHECK_CASES`   | 64      | cases per property                   |
//! | `HPM_CHECK_SEED`    | fixed   | master seed (decimal or `0x…` hex)   |
//! | `HPM_CHECK_SHRINKS` | 2048    | shrink-candidate evaluation budget   |

pub mod alloc;
pub mod fail;
pub mod gen;
pub mod mutate;
pub mod runner;
pub mod tree;

pub use gen::{choice, float, index, int, just, tuple, vec, Gen, Index};
pub use runner::{Config, Runner};
pub use tree::Tree;

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseError {
    /// Input rejected by [`assume!`]; the case is retried with fresh
    /// input and does not count towards the case budget.
    Discard,
    /// The property is violated; the message describes how.
    Fail(String),
}

/// Result type of one property evaluation.
pub type CaseResult = Result<(), CaseError>;

/// One-stop imports for property-test files.
pub mod prelude {
    pub use crate::gen::{choice, float, index, int, just, tuple, vec, Gen, Index};
    pub use crate::{assume, props, require, require_eq, require_ne};
    pub use crate::{CaseError, CaseResult};
}

/// Defines `#[test]` functions that each check a property over many
/// generated inputs.
///
/// Syntax per property (several may share one block):
///
/// ```text
/// #[cases(128)]              // optional: raise the case floor
/// fn name(pat in generator, pat2 in generator2) { body }
/// ```
///
/// The body uses [`require!`]/[`require_eq!`]/[`require_ne!`] to state
/// the property and [`assume!`] to discard unsuitable inputs; plain
/// panics (e.g. library `assert!`s) are caught and shrunk too.
#[macro_export]
macro_rules! props {
    () => {};
    (
        #[cases($min_cases:expr)]
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $crate::props! {
            @one ($min_cases)
            $(#[$meta])*
            fn $name($($arg in $gen),+) $body
        }
        $crate::props!{$($rest)*}
    };
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $crate::props! {
            @one (1)
            $(#[$meta])*
            fn $name($($arg in $gen),+) $body
        }
        $crate::props!{$($rest)*}
    };
    (
        @one ($min_cases:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $gen:expr),+ $(,)?) $body:block
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __runner = $crate::runner::Runner::new(stringify!($name)).min_cases($min_cases);
            let __gen = $crate::gen::tuple(($($gen,)+));
            __runner.run(__gen, |__case| {
                let ($($arg,)+) = __case.clone();
                $body
                Ok(())
            });
        }
    };
}

/// Fails the current case unless the condition holds (ports
/// `prop_assert!`).
#[macro_export]
macro_rules! require {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::CaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::CaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless both sides compare equal (ports
/// `prop_assert_eq!`).
#[macro_export]
macro_rules! require_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return Err($crate::CaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return Err($crate::CaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Fails the current case when both sides compare equal (ports
/// `prop_assert_ne!`).
#[macro_export]
macro_rules! require_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return Err($crate::CaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Discards the current case unless the condition holds (ports
/// `prop_assume!`); discarded cases are regenerated and do not count.
#[macro_export]
macro_rules! assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::CaseError::Discard);
        }
    };
}
