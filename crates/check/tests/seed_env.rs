//! The `MODREF_SEED` / `MODREF_CASES` environment contract, isolated in
//! its own test binary because it mutates environment variables that
//! `run_property` reads (integration-test binaries are separate
//! processes, so this cannot race the rest of the suite — and the single
//! test below keeps the mutations on one thread).

use std::cell::RefCell;

use modref_check::runner::{effective_seed, run_property, stable_hash, CaseResult};
use modref_check::strategy::{ints_inclusive, vec_of};
use modref_check::Config;

fn record(name: &str) -> Vec<Vec<u8>> {
    let seen = RefCell::new(Vec::new());
    run_property(
        name,
        &Config::with_cases(32),
        &vec_of(ints_inclusive(0..=255u8), 0..12),
        |v| {
            seen.borrow_mut().push(v.clone());
            CaseResult::Pass
        },
    );
    seen.into_inner()
}

#[test]
fn modref_seed_overrides_and_replays_exactly() {
    // Without the variable: the name-derived default.
    assert_eq!(effective_seed("p"), stable_hash("p"));
    let default_run = record("p");

    // With the variable: same seed ⇒ identical generated case sequence,
    // for any property name.
    std::env::set_var("MODREF_SEED", "123456789");
    assert_eq!(effective_seed("p"), 123456789);
    let a = record("p");
    let b = record("q");
    assert_eq!(a, b, "MODREF_SEED pins the sequence regardless of name");

    std::env::set_var("MODREF_SEED", "987654321");
    let c = record("p");
    assert_ne!(a, c, "a different seed must change the sequence");

    std::env::remove_var("MODREF_SEED");
    let after = record("p");
    assert_eq!(
        default_run, after,
        "removing the override restores the default"
    );

    // MODREF_CASES scales the case count.
    std::env::set_var("MODREF_CASES", "7");
    let short = record("p");
    assert_eq!(short.len(), 7);
    std::env::remove_var("MODREF_CASES");
}
