//! The guarded runtime: budgets, deadlines, cancellation, and fault
//! injection must never hang, never crash the caller, and — the core
//! soundness contract — every degraded set must be a superset of the
//! exact one. Replay a failure with
//! `MODREF_SEED=<seed> cargo test -p modref-core --test guarded`.

use std::time::Duration;

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::{
    AnalysisOutcome, Analyzer, Budget, CancelToken, DegradeReason, FaultPlan, Guard, Interrupt,
    Phase, SetRepr, Summary,
};
use modref_ir::Program;
use modref_progen::{generate, GenConfig};

/// Every fault-injection site the analysis pipeline checkpoints.
/// (`"sections"` belongs to the separate `modref-sections` entry point.)
const PIPELINE_SITES: [&str; 7] = [
    "local",
    "rmod",
    "imod_plus",
    "gmod",
    "dmod",
    "alias",
    "modsets",
];

/// Degraded sets may only ever *grow*: checks `exact ⊆ degraded` for
/// every per-procedure and per-site set the summary exposes.
fn check_superset(program: &Program, exact: &Summary, degraded: &Summary, ctx: &str) -> CaseResult {
    for p in program.procs() {
        prop_assert!(
            exact.gmod(p).is_subset(degraded.gmod(p)),
            "{ctx}: GMOD({p}) lost bits: exact {:?} ⊄ degraded {:?}",
            exact.gmod(p),
            degraded.gmod(p)
        );
        prop_assert!(
            exact.guse(p).is_subset(degraded.guse(p)),
            "{ctx}: GUSE({p}) lost bits"
        );
        prop_assert!(
            exact.rmod(p).is_subset(degraded.rmod(p)),
            "{ctx}: RMOD({p}) lost bits"
        );
        prop_assert!(
            exact.imod_plus(p).is_subset(degraded.imod_plus(p)),
            "{ctx}: IMOD+({p}) lost bits"
        );
    }
    for s in program.sites() {
        prop_assert!(
            exact.mod_site(s).is_subset(degraded.mod_site(s)),
            "{ctx}: MOD({s}) lost bits: exact {:?} ⊄ degraded {:?}",
            exact.mod_site(s),
            degraded.mod_site(s)
        );
        prop_assert!(
            exact.use_site(s).is_subset(degraded.use_site(s)),
            "{ctx}: USE({s}) lost bits: exact {:?} ⊄ degraded {:?}",
            exact.use_site(s),
            degraded.use_site(s)
        );
        prop_assert!(
            exact.dmod_site(s).is_subset(degraded.dmod_site(s)),
            "{ctx}: DMOD({s}) lost bits"
        );
    }
    CaseResult::Pass
}

/// Panics with the harness message unless the case passed — lets the
/// property-style helpers serve plain `#[test]` functions too.
fn expect_pass(result: CaseResult) {
    match result {
        CaseResult::Pass => {}
        other => panic!("{other:?}"),
    }
}

fn demo_program(n: usize, depth: u32, seed: u64) -> Program {
    generate(&GenConfig::tiny(n, depth), seed)
}

#[test]
fn unlimited_guard_is_clean_and_bit_identical() {
    for seed in 0..16u64 {
        let program = demo_program(8, 3, seed);
        let exact = Analyzer::new().analyze(&program);
        for threads in [1usize, 4] {
            let outcome = Analyzer::new()
                .threads(threads)
                .analyze_guarded(&program, &Guard::unlimited());
            let AnalysisOutcome::Clean(summary) = outcome else {
                panic!("seed {seed}: unlimited guard must stay clean");
            };
            for s in program.sites() {
                assert_eq!(exact.mod_site(s), summary.mod_site(s), "seed {seed}");
                assert_eq!(exact.use_site(s), summary.use_site(s), "seed {seed}");
            }
        }
    }
}

#[test]
fn zero_budget_degrades_soundly_at_any_thread_count() {
    for seed in 0..8u64 {
        let program = demo_program(10, 3, seed);
        let exact = Analyzer::new().analyze(&program);
        for threads in [1usize, 4] {
            let guard = Guard::new(&Budget::unlimited().with_ops(0));
            let outcome = Analyzer::new()
                .threads(threads)
                .analyze_guarded(&program, &guard);
            let AnalysisOutcome::Degraded {
                summary, reason, ..
            } = outcome
            else {
                panic!("seed {seed} t{threads}: zero budget must degrade");
            };
            assert!(
                matches!(
                    reason,
                    DegradeReason::Interrupted(Interrupt::BitvecBudget | Interrupt::BoolBudget)
                ),
                "seed {seed}: unexpected reason {reason}"
            );
            expect_pass(check_superset(
                &program,
                &exact,
                &summary,
                &format!("seed {seed} t{threads} zero-budget"),
            ));
        }
    }
}

#[test]
fn pre_cancelled_token_degrades_immediately_with_cancelled_reason() {
    let program = demo_program(10, 2, 7);
    let exact = Analyzer::new().analyze(&program);
    let token = CancelToken::new();
    token.cancel();
    for threads in [1usize, 4] {
        let guard = Guard::unlimited().with_cancel(token.clone());
        let outcome = Analyzer::new()
            .threads(threads)
            .analyze_guarded(&program, &guard);
        let AnalysisOutcome::Degraded {
            summary,
            reason,
            completed_phases,
        } = outcome
        else {
            panic!("a pre-cancelled run must degrade");
        };
        assert!(
            matches!(reason, DegradeReason::Interrupted(Interrupt::Cancelled)),
            "unexpected reason {reason}"
        );
        // With cancellation observed before any phase, nothing after the
        // (chargeless) local scan can claim exact completion.
        assert!(
            completed_phases.len() <= 1,
            "cancelled before work, yet {completed_phases:?} claim completion"
        );
        expect_pass(check_superset(&program, &exact, &summary, "pre-cancelled"));
    }
}

#[test]
fn mid_flight_cancel_terminates_and_stays_sound() {
    // A larger program plus a cancel fired from another thread partway
    // in: whatever the race produces, the run must terminate and the
    // output must be sound. Both pool modes are exercised.
    for round in 0..6u64 {
        let program = generate(&GenConfig::fortran_like(64), round);
        let exact = Analyzer::new().analyze(&program);
        for threads in [1usize, 4] {
            let token = CancelToken::new();
            let guard = Guard::unlimited().with_cancel(token.clone());
            let canceller = std::thread::spawn({
                let token = token.clone();
                move || {
                    std::thread::sleep(Duration::from_micros(200));
                    token.cancel();
                }
            });
            let outcome = Analyzer::new()
                .threads(threads)
                .parallel()
                .analyze_guarded(&program, &guard);
            canceller.join().expect("canceller joins");
            match outcome {
                AnalysisOutcome::Clean(summary) => {
                    // Cancel arrived after the finish line — exact.
                    for s in program.sites() {
                        assert_eq!(exact.mod_site(s), summary.mod_site(s));
                    }
                }
                AnalysisOutcome::Degraded {
                    summary, reason, ..
                } => {
                    assert!(
                        matches!(reason, DegradeReason::Interrupted(Interrupt::Cancelled)),
                        "round {round}: unexpected reason {reason}"
                    );
                    expect_pass(check_superset(
                        &program,
                        &exact,
                        &summary,
                        &format!("round {round} t{threads} mid-cancel"),
                    ));
                }
            }
        }
    }
}

#[test]
fn forced_panic_at_every_site_is_contained_and_sound() {
    let program = demo_program(12, 3, 11);
    let exact = Analyzer::new().analyze(&program);
    for site in PIPELINE_SITES {
        for threads in [1usize, 4] {
            let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
            let outcome = Analyzer::new()
                .threads(threads)
                .analyze_guarded(&program, &guard);
            let AnalysisOutcome::Degraded {
                summary,
                reason,
                completed_phases,
            } = outcome
            else {
                panic!("panic at `{site}` must surface as degradation");
            };
            match &reason {
                DegradeReason::Panic { message, .. } => {
                    assert!(
                        message.contains(site),
                        "site `{site}`: panic message `{message}` names the site"
                    );
                }
                other => panic!("site `{site}`: expected a panic reason, got {other}"),
            }
            assert!(
                completed_phases.len() < 10,
                "site `{site}`: a cut phase cannot also be complete"
            );
            expect_pass(check_superset(
                &program,
                &exact,
                &summary,
                &format!("panic@{site} t{threads}"),
            ));
        }
    }
}

#[test]
fn forced_exhaust_at_every_site_trips_the_budget() {
    let program = demo_program(12, 3, 13);
    let exact = Analyzer::new().analyze(&program);
    for site in PIPELINE_SITES {
        let guard = Guard::unlimited().with_faults(FaultPlan::new().exhaust_at(site));
        let outcome = Analyzer::new().threads(4).analyze_guarded(&program, &guard);
        let AnalysisOutcome::Degraded {
            summary, reason, ..
        } = outcome
        else {
            panic!("exhaust at `{site}` must degrade");
        };
        assert!(
            matches!(reason, DegradeReason::Interrupted(Interrupt::BitvecBudget)),
            "site `{site}`: unexpected reason {reason}"
        );
        expect_pass(check_superset(
            &program,
            &exact,
            &summary,
            &format!("exhaust@{site}"),
        ));
    }
}

/// Boolean steps an analysis charges to `guard` when it counts them (a cap
/// no run can reach, so the guard never trips on its own).
fn counting_guard() -> Guard {
    Guard::new(&Budget::unlimited().with_bool_steps(u64::MAX / 2))
}

#[test]
fn budget_trip_inside_the_alias_worklist_degrades_soundly() {
    // Aim a boolean-step cap halfway into the alias solver's worklist:
    // `before` steps are charged when it starts (the `alias` checkpoint),
    // `total` when the run ends, and nothing after it charges boolean
    // steps — so a run whose charge ends strictly between them tripped
    // inside the loop, not at a phase boundary.
    let program = generate(&GenConfig::pascal_like(80, 4), 3);
    let exact = Analyzer::new().analyze(&program);
    let at_checkpoint = counting_guard().with_faults(FaultPlan::new().exhaust_at("alias"));
    let _ = Analyzer::new()
        .threads(1)
        .analyze_guarded(&program, &at_checkpoint);
    let before = at_checkpoint.charged().1;
    let full = counting_guard();
    let outcome = Analyzer::new().threads(1).analyze_guarded(&program, &full);
    assert!(matches!(outcome, AnalysisOutcome::Clean(_)));
    let total = full.charged().1;
    assert!(
        total >= before + 256,
        "alias solve too small: {before}..{total}"
    );

    let guard = Guard::new(&Budget::unlimited().with_bool_steps(before + (total - before) / 2));
    let outcome = Analyzer::new().threads(1).analyze_guarded(&program, &guard);
    let charged = guard.charged().1;
    assert!(
        before < charged && charged < total,
        "tripped outside the worklist: {charged}"
    );
    let AnalysisOutcome::Degraded {
        summary,
        reason,
        completed_phases,
    } = outcome
    else {
        panic!("a cap inside the alias worklist must degrade");
    };
    assert!(
        matches!(reason, DegradeReason::Interrupted(Interrupt::BoolBudget)),
        "unexpected reason {reason}"
    );
    assert!(
        completed_phases.contains(&Phase::Dmod),
        "{completed_phases:?}"
    );
    assert!(
        !completed_phases.contains(&Phase::Aliases),
        "{completed_phases:?}"
    );
    expect_pass(check_superset(
        &program,
        &exact,
        &summary,
        "alias mid-worklist",
    ));

    // Recovery: the same analysis unbudgeted is exact again.
    let AnalysisOutcome::Clean(again) = Analyzer::new()
        .threads(1)
        .analyze_guarded(&program, &Guard::unlimited())
    else {
        panic!("an unlimited rerun must be clean");
    };
    for s in program.sites() {
        assert_eq!(
            again.mod_site(s),
            exact.mod_site(s),
            "MOD({s}) after recovery"
        );
        assert_eq!(
            again.use_site(s),
            exact.use_site(s),
            "USE({s}) after recovery"
        );
    }
}

#[test]
fn stall_fault_alone_never_degrades() {
    // A stall is slow, not wrong: with no deadline the run must come
    // back clean and bit-identical.
    let program = demo_program(8, 2, 17);
    let exact = Analyzer::new().analyze(&program);
    let guard = Guard::unlimited().with_faults(FaultPlan::new().stall_at("gmod"));
    let AnalysisOutcome::Clean(summary) = Analyzer::new().analyze_guarded(&program, &guard) else {
        panic!("a pure stall must not degrade an unlimited run");
    };
    for s in program.sites() {
        assert_eq!(exact.mod_site(s), summary.mod_site(s));
        assert_eq!(exact.use_site(s), summary.use_site(s));
    }
}

#[test]
fn stall_under_a_deadline_trips_the_deadline() {
    let program = demo_program(10, 3, 19);
    let exact = Analyzer::new().analyze(&program);
    let mut plan = FaultPlan::new();
    for site in PIPELINE_SITES {
        plan = plan.stall_at(site);
    }
    let guard =
        Guard::new(&Budget::unlimited().with_deadline(Duration::from_millis(1))).with_faults(plan);
    let AnalysisOutcome::Degraded {
        summary, reason, ..
    } = Analyzer::new().analyze_guarded(&program, &guard)
    else {
        panic!("stalling every phase under a 1ms deadline must degrade");
    };
    assert!(
        matches!(reason, DegradeReason::Interrupted(Interrupt::Deadline)),
        "unexpected reason {reason}"
    );
    expect_pass(check_superset(&program, &exact, &summary, "stall+deadline"));
}

#[test]
fn degraded_no_use_keeps_use_sets_empty() {
    // `without_use` promises empty USE sets; degradation must not
    // accidentally widen them into non-emptiness.
    let program = demo_program(10, 2, 23);
    let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at("alias"));
    let outcome = Analyzer::new()
        .without_use()
        .analyze_guarded(&program, &guard);
    assert!(outcome.is_degraded());
    let summary = outcome.into_summary();
    for s in program.sites() {
        assert!(
            summary.use_site(s).is_empty(),
            "USE({s}) must stay empty under --no-use, degraded or not"
        );
    }
}

#[test]
fn hybrid_forced_panic_at_every_site_is_contained_and_sound() {
    // The guard runtime must contain faults identically under the hybrid
    // representation: superset-sound degradation, and — pressure gone —
    // answers bit-identical to the dense exact baseline.
    let program = demo_program(12, 3, 29);
    let exact = Analyzer::new().analyze(&program);
    for site in PIPELINE_SITES {
        for threads in [1usize, 4] {
            let mut analyzer = Analyzer::new();
            analyzer.set_repr(SetRepr::Hybrid).threads(threads);
            let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
            let outcome = analyzer.analyze_guarded(&program, &guard);
            assert!(
                outcome.is_degraded(),
                "hybrid panic at `{site}` must surface as degradation"
            );
            expect_pass(check_superset(
                &program,
                &exact,
                &outcome.into_summary(),
                &format!("hybrid panic@{site} t{threads}"),
            ));
            // Recovery: the same hybrid-configured analyzer, no faults.
            let AnalysisOutcome::Clean(recovered) =
                analyzer.analyze_guarded(&program, &Guard::unlimited())
            else {
                panic!("hybrid recovery after panic@{site} must be clean");
            };
            for s in program.sites() {
                assert_eq!(
                    exact.mod_site(s),
                    recovered.mod_site(s),
                    "recovery MOD({s})"
                );
                assert_eq!(
                    exact.use_site(s),
                    recovered.use_site(s),
                    "recovery USE({s})"
                );
            }
        }
    }
}

#[test]
fn hybrid_zero_budget_degrades_soundly() {
    for seed in 0..8u64 {
        let program = demo_program(10, 3, seed);
        let exact = Analyzer::new().analyze(&program);
        let guard = Guard::new(&Budget::unlimited().with_ops(0));
        let mut analyzer = Analyzer::new();
        analyzer.set_repr(SetRepr::Hybrid);
        let outcome = analyzer.analyze_guarded(&program, &guard);
        assert!(
            outcome.is_degraded(),
            "seed {seed}: zero budget must degrade"
        );
        expect_pass(check_superset(
            &program,
            &exact,
            &outcome.into_summary(),
            &format!("seed {seed} hybrid zero-budget"),
        ));
    }
}

property! {
    #![cases = 64]

    fn seeded_fault_plans_never_hang_and_stay_sound(
        seed in any_u64(),
        fault_seed in any_u64(),
        n in ints(2..14usize),
        depth in ints(1..4u32),
        threads in ints(1..5usize),
    ) {
        // Whatever a seeded fault pattern does — panic, stall, exhaust,
        // or nothing — the guarded run terminates with sound output,
        // under either set representation (the fault seed's low bit
        // doubles as the representation coin so half the cases run
        // hybrid).
        let program = generate(&GenConfig::tiny(n, depth), seed);
        let exact = Analyzer::new().analyze(&program);
        let guard = Guard::new(&Budget::unlimited().with_deadline(Duration::from_secs(60)))
            .with_faults(FaultPlan::seeded(fault_seed));
        let repr = if fault_seed & 1 == 1 { SetRepr::Hybrid } else { SetRepr::Dense };
        let outcome = Analyzer::new()
            .threads(threads)
            .set_repr(repr)
            .analyze_guarded(&program, &guard);
        match outcome {
            AnalysisOutcome::Clean(summary) => {
                for s in program.sites() {
                    prop_assert_eq!(
                        exact.mod_site(s),
                        summary.mod_site(s),
                        "seed {}/{}: clean run must be exact",
                        seed,
                        fault_seed
                    );
                }
            }
            AnalysisOutcome::Degraded { summary, .. } => {
                match check_superset(
                    &program,
                    &exact,
                    &summary,
                    &format!("seed {seed}/{fault_seed} t{threads}"),
                ) {
                    CaseResult::Pass => {}
                    other => return other,
                }
            }
        }
    }

    fn tight_op_budgets_degrade_soundly(
        seed in any_u64(),
        budget in ints(0..2_000usize),
        n in ints(2..16usize),
        depth in ints(1..4u32),
    ) {
        // Sweep the budget knob through the interesting range: from
        // instant trips to almost-enough. Soundness must hold at every
        // cutoff point, and generous budgets must reproduce exactness.
        let program = generate(&GenConfig::tiny(n, depth), seed);
        let exact = Analyzer::new().analyze(&program);
        let guard = Guard::new(&Budget::unlimited().with_ops(budget as u64));
        match Analyzer::new().threads(2).analyze_guarded(&program, &guard) {
            AnalysisOutcome::Clean(summary) => {
                for s in program.sites() {
                    prop_assert_eq!(
                        exact.mod_site(s),
                        summary.mod_site(s),
                        "seed {}: budget {} untripped yet inexact",
                        seed,
                        budget
                    );
                }
            }
            AnalysisOutcome::Degraded { summary, .. } => {
                match check_superset(
                    &program,
                    &exact,
                    &summary,
                    &format!("seed {seed} budget {budget}"),
                ) {
                    CaseResult::Pass => {}
                    other => return other,
                }
            }
        }
    }
}
