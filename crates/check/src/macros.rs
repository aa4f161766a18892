//! The `property!` driver macro and the assertion macros its bodies use.

/// Declares `#[test]` functions that run a property over generated
/// inputs, in the style of `proptest!`:
///
/// ```
/// use modref_check::prelude::*;
///
/// property! {
///     #![cases = 64]
///     fn addition_commutes(a in ints(0..1000u32), b in ints(0..1000u32)) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// The optional leading `#![cases = N]` applies to every property in the
/// invocation (default 256). Bodies may use [`prop_assert!`],
/// [`prop_assert_eq!`], [`prop_assert_ne!`] and [`prop_assume!`]; plain
/// `assert!`/`panic!` also count as failures (panics are caught), they
/// just lose the nicely formatted value interpolation.
///
/// On failure the input is shrunk greedily and the report includes a
/// `MODREF_SEED=… cargo test <name>` replay line.
///
/// [`prop_assert!`]: crate::prop_assert
/// [`prop_assert_eq!`]: crate::prop_assert_eq
/// [`prop_assert_ne!`]: crate::prop_assert_ne
/// [`prop_assume!`]: crate::prop_assume
#[macro_export]
macro_rules! property {
    // Internal arms first (the public catch-all would swallow them).
    (@config ($config:expr)) => {};
    (
        @config ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let strategy = ($($strategy,)+);
            let config = $config;
            $crate::runner::run_property(
                stringify!($name),
                &config,
                &strategy,
                |value| {
                    let ($($arg,)+) = value.clone();
                    let run = || -> $crate::runner::CaseResult {
                        $body
                        $crate::runner::CaseResult::Pass
                    };
                    run()
                },
            );
        }
        $crate::property!(@config ($config) $($rest)*);
    };
    // Public entry: with a block-level case count.
    (
        #![cases = $cases:expr]
        $($rest:tt)*
    ) => {
        $crate::property!(@config ($crate::runner::Config::with_cases($cases)) $($rest)*);
    };
    // Public entry: default config.
    (
        $($rest:tt)*
    ) => {
        $crate::property!(@config ($crate::runner::Config::default()) $($rest)*);
    };
}

/// Fails the current property case if `cond` is false; supports an
/// optional `format!`-style message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::runner::CaseResult::Fail(format!($($fmt)+));
        }
    };
}

/// Fails the case if the two expressions are unequal, printing both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::runner::CaseResult::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::runner::CaseResult::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($left), stringify!($right), l, r, format!($($fmt)+)
            ));
        }
    }};
}

/// Fails the case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return $crate::runner::CaseResult::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Discards the current case (not a failure) if `cond` is false — for
/// filtering generated inputs that the property does not apply to.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::runner::CaseResult::Reject;
        }
    };
}
