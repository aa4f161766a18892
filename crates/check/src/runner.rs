//! The property driver: run N generated cases, shrink on failure, and
//! print a replayable seed.
//!
//! Determinism contract:
//!
//! * Every property has a *default seed* derived from its name, so a bare
//!   `cargo test` is bit-for-bit reproducible on every machine.
//! * `MODREF_SEED=<n>` overrides the seed for every property in the
//!   process — paste the value from a failure report to replay it.
//! * `MODREF_CASES=<n>` scales the case count (e.g. soak runs).
//!
//! On failure the runner greedily shrinks the input: it asks the strategy
//! for smaller candidates, keeps the first one that still fails, and
//! repeats until no candidate fails, then panics with the minimal input
//! and the replay instructions.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, SplitMix64};
use crate::strategy::Strategy;

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// The property held.
    Pass,
    /// The input was rejected by `prop_assume!` — not a failure.
    Reject,
    /// The property failed with this message.
    Fail(String),
}

/// Per-property configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases (before `MODREF_CASES` scaling).
    pub cases: u32,
    /// Cap on shrink iterations, to bound worst-case runtime.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 256,
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

/// Stable 64-bit FNV-1a — the default per-property seed is the hash of
/// the property name, so adding a property never perturbs its neighbours.
#[must_use]
pub fn stable_hash(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The seed a property will actually run with: `MODREF_SEED` if set,
/// otherwise the stable hash of its name.
#[must_use]
pub fn effective_seed(name: &str) -> u64 {
    match std::env::var("MODREF_SEED") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("MODREF_SEED must be a u64, got {v:?}")),
        Err(_) => stable_hash(name),
    }
}

fn effective_cases(cases: u32) -> u32 {
    match std::env::var("MODREF_CASES") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("MODREF_CASES must be a u32, got {v:?}")),
        Err(_) => cases,
    }
}

// Panic suppression while probing cases: the default hook prints
// "thread panicked at ..." for every caught panic, which would bury the
// real report under shrinking noise. A process-wide hook (installed
// once) checks a thread-local flag and stays silent while the runner is
// probing; all other panics go to the previous hook untouched.
std::thread_local! {
    static PROBING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PROBING.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs one case, converting panics into [`CaseResult::Fail`].
fn probe<V, F>(test: &F, value: &V) -> CaseResult
where
    F: Fn(&V) -> CaseResult,
{
    install_quiet_hook();
    PROBING.with(|p| p.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| test(value)));
    PROBING.with(|p| p.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => CaseResult::Fail(panic_message(payload)),
    }
}

/// Runs `test` over `config.cases` inputs drawn from `strategy`.
///
/// # Panics
///
/// Panics with a replayable report on the first (shrunk) failing input,
/// or if the rejection rate is so high the property is vacuous.
pub fn run_property<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseResult,
{
    let seed = effective_seed(name);
    let cases = effective_cases(config.cases);
    // One SplitMix64 stream hands each case its own independent seed, so
    // case k is replayable without regenerating cases 0..k.
    let mut case_seeds = SplitMix64::new(seed);

    let mut rejects: u64 = 0;
    let mut case: u32 = 0;
    // Mirrors proptest's global reject budget: interpreter-backed
    // properties legitimately discard most generated cases (fuel
    // truncation), so the budget is generous before declaring vacuity.
    let max_attempts = 40 * u64::from(cases) + 64;
    let mut attempts: u64 = 0;
    while case < cases {
        attempts += 1;
        if attempts > max_attempts {
            panic!(
                "property `{name}`: gave up after {rejects} rejected inputs \
                 ({case} cases ran) — the prop_assume! filter is too strict"
            );
        }
        let case_seed = case_seeds.next_u64();
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        match probe(&test, &value) {
            CaseResult::Pass => case += 1,
            CaseResult::Reject => rejects += 1,
            CaseResult::Fail(first_message) => {
                let (minimal, message, steps) =
                    shrink_failure(config, strategy, &test, value, first_message);
                panic!(
                    "property `{name}` failed (case {case}, {steps} shrink steps).\n\
                     minimal input: {minimal:?}\n\
                     failure: {message}\n\
                     replay with: MODREF_SEED={seed} cargo test {name}"
                );
            }
        }
    }
}

/// Greedy shrink: repeatedly move to the first failing candidate.
fn shrink_failure<S, F>(
    config: &Config,
    strategy: &S,
    test: &F,
    mut value: S::Value,
    mut message: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseResult,
{
    let mut steps = 0;
    'outer: while steps < config.max_shrink_steps {
        for candidate in strategy.shrink(&value) {
            steps += 1;
            if let CaseResult::Fail(m) = probe(test, &candidate) {
                value = candidate;
                message = m;
                continue 'outer;
            }
            if steps >= config.max_shrink_steps {
                break;
            }
        }
        break;
    }
    (value, message, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{ints, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let counted = std::cell::Cell::new(0u32);
        run_property(
            "always_true",
            &Config::with_cases(50),
            &ints(0..10u32),
            |_| {
                counted.set(counted.get() + 1);
                CaseResult::Pass
            },
        );
        assert_eq!(counted.get(), 50);
    }

    #[test]
    fn failing_property_shrinks_to_threshold() {
        let failure = catch_unwind(AssertUnwindSafe(|| {
            run_property(
                "ge_50_fails",
                &Config::with_cases(200),
                &ints(0..1000u32),
                |&v| {
                    if v >= 50 {
                        CaseResult::Fail(format!("{v} is too big"))
                    } else {
                        CaseResult::Pass
                    }
                },
            );
        }))
        .expect_err("property must fail");
        let report = panic_message(failure);
        // Greedy shrinking on the halving ladder lands exactly on the
        // smallest failing value.
        assert!(report.contains("minimal input: 50"), "report: {report}");
        assert!(report.contains("MODREF_SEED="), "report: {report}");
    }

    #[test]
    fn vec_failures_shrink_small() {
        let failure = catch_unwind(AssertUnwindSafe(|| {
            run_property(
                "sum_lt_100",
                &Config::with_cases(300),
                &vec_of(ints(0..50u32), 0..20),
                |v| {
                    if v.iter().sum::<u32>() >= 100 {
                        CaseResult::Fail("sum too big".into())
                    } else {
                        CaseResult::Pass
                    }
                },
            );
        }))
        .expect_err("property must fail");
        let report = panic_message(failure);
        assert!(report.contains("minimal input"), "report: {report}");
    }

    #[test]
    fn rejection_storm_is_reported() {
        let failure = catch_unwind(AssertUnwindSafe(|| {
            run_property(
                "rejects_everything",
                &Config::with_cases(10),
                &ints(0..10u32),
                |_| CaseResult::Reject,
            );
        }))
        .expect_err("must give up");
        assert!(panic_message(failure).contains("gave up"));
    }
}
