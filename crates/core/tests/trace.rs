//! Differential checks for the observability layer.
//!
//! Recording a trace must be a pure observer: for generated programs at
//! one thread and many, every set the analysis exposes must be bit-for-bit
//! identical with tracing on and off. A tripped guard must still flush a
//! coherent, parseable trace that names the degradation. Replay a failure
//! with `MODREF_SEED=<seed> cargo test -p modref-core --test trace`.

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::trace::{parse_json, Json};
use modref_core::{Analyzer, Budget, Guard, Trace};
use modref_ir::Program;
use modref_progen::{generate, GenConfig};

/// Runs the analysis with and without a live trace at `threads` workers
/// and fails on the first set that differs.
fn check_observer_only(program: &Program, threads: usize, seed: u64) -> CaseResult {
    let plain = Analyzer::new().threads(threads).analyze(program);
    let trace = Trace::enabled();
    let traced = Analyzer::new()
        .threads(threads)
        .with_trace(trace.clone())
        .analyze(program);
    for p in program.procs() {
        prop_assert_eq!(
            plain.gmod(p),
            traced.gmod(p),
            "GMOD({}) differs under tracing at {} threads (seed {})",
            p,
            threads,
            seed
        );
        prop_assert_eq!(plain.guse(p), traced.guse(p), "GUSE({}) differs", p);
        prop_assert_eq!(plain.rmod(p), traced.rmod(p), "RMOD({}) differs", p);
        prop_assert_eq!(plain.ruse(p), traced.ruse(p), "RUSE({}) differs", p);
        prop_assert_eq!(
            plain.imod_plus(p),
            traced.imod_plus(p),
            "IMOD+({}) differs",
            p
        );
        prop_assert_eq!(
            plain.iuse_plus(p),
            traced.iuse_plus(p),
            "IUSE+({}) differs",
            p
        );
    }
    for s in program.sites() {
        prop_assert_eq!(
            plain.dmod_site(s),
            traced.dmod_site(s),
            "DMOD({}) differs",
            s
        );
        prop_assert_eq!(
            plain.duse_site(s),
            traced.duse_site(s),
            "DUSE({}) differs",
            s
        );
        prop_assert_eq!(plain.mod_site(s), traced.mod_site(s), "MOD({}) differs", s);
        prop_assert_eq!(plain.use_site(s), traced.use_site(s), "USE({}) differs", s);
    }
    // The recording itself must be well-formed whatever the schedule did.
    let chrome = trace.export_chrome();
    prop_assert!(
        parse_json(&chrome).is_ok(),
        "trace is not valid JSON at {} threads (seed {})",
        threads,
        seed
    );
    CaseResult::Pass
}

/// The distinct names of all complete-span events in a trace.
fn span_names(trace: &Trace) -> Vec<String> {
    let chrome = trace.export_chrome();
    let root = parse_json(&chrome).expect("trace parses");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut names: Vec<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("span has a name")
                .to_owned()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

property! {
    #![cases = 64]

    fn tracing_is_observer_only_sequential(
        seed in any_u64(),
        n in ints(2..32usize),
        depth in ints(0..4u32),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        match check_observer_only(&program, 1, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn tracing_is_observer_only_pooled(
        seed in any_u64(),
        n in ints(2..32usize),
        depth in ints(0..4u32),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        match check_observer_only(&program, 4, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn fortran_profile_is_observer_only(
        seed in any_u64(),
        n in ints(2..40usize),
        threads in ints(1..6usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        match check_observer_only(&program, threads, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }
}

#[test]
fn full_run_records_every_executed_phase() {
    let program = generate(&GenConfig::pascal_like(24, 3), 7);
    let trace = Trace::enabled();
    Analyzer::new().with_trace(trace.clone()).analyze(&program);
    let names = span_names(&trace);
    for expected in [
        "analyze",
        "local",
        "rmod",
        "ruse",
        "imod_plus",
        "iuse_plus",
        "gmod",
        "guse",
        "dmod",
        "alias",
        "modsets",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span `{expected}` in {names:?}"
        );
    }
}

#[test]
fn level_scheduled_run_records_per_level_spans() {
    let program = generate(&GenConfig::pascal_like(24, 3), 7);
    let trace = Trace::enabled();
    // More than one thread runs the level-scheduled algorithm.
    Analyzer::new()
        .threads(4)
        .with_trace(trace.clone())
        .analyze(&program);
    let names = span_names(&trace);
    assert!(
        names.iter().any(|n| n == "gmod.level"),
        "missing per-level spans in {names:?}"
    );
}

#[test]
fn tripped_budget_still_flushes_a_coherent_trace() {
    let program = generate(&GenConfig::fortran_like(60), 11);
    let budget = Budget::unlimited().with_ops(50);
    let guard = Guard::new(&budget);
    let trace = Trace::enabled();
    let outcome = Analyzer::new()
        .with_trace(trace.clone())
        .analyze_guarded(&program, &guard);
    assert!(
        matches!(outcome, modref_core::AnalysisOutcome::Degraded { .. }),
        "a 50-op budget must trip on a 60-procedure program"
    );

    let chrome = trace.export_chrome();
    let root = parse_json(&chrome).expect("degraded trace still parses");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let degraded: Vec<&Json> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("name").and_then(Json::as_str) == Some("degraded")
        })
        .collect();
    assert_eq!(degraded.len(), 1, "exactly one degradation instant");
    let args = degraded[0].get("args").expect("degraded instant has args");
    let reason = args
        .get("reason")
        .and_then(Json::as_str)
        .expect("degradation names its reason");
    assert!(!reason.is_empty());
}
