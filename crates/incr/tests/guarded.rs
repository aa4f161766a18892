//! Fault and budget coverage of the incremental apply path.
//!
//! Three contracts, mirroring the batch pipeline's (`modref-core`'s
//! `guarded` suite) at every new checkpoint site:
//!
//! 1. an armed fault (injected panic) or exhausted budget yields
//!    [`IncrOutcome::Degraded`], never an escaped panic or a hang;
//! 2. the degraded sets are **sound**: the exact sets of the edited
//!    program are subsets of everything the engine reports;
//! 3. the cache is left coherent — the failed apply drops it, and the
//!    next clean apply is again bit-identical to a from-scratch run.

use modref_core::{
    AliasPairs, Analyzer, Budget, EffectSet, FaultPlan, Guard, HybridSet, Interrupt,
};
use modref_incr::{Edit, IncrDegradeReason, IncrOutcome, IncrementalEngine, IncrementalEngineIn};
use modref_ir::{Actual, Expr, ProcId, Program, VarId};
use modref_progen::{generate, GenConfig};

/// Fault-injection sites every apply path checkpoints (set-local, patch,
/// and full rebuild alike).
const INCR_SITES: [&str; 7] = [
    "incr",
    "incr.local",
    "incr.rmod",
    "incr.plus",
    "incr.gmod",
    "incr.gmod.sweep",
    "incr.final",
];

/// Sites only the structural-patch path reaches — inside the dynamic
/// condensation maintenance itself.
const PATCH_SITES: [&str; 2] = ["incr.dyncond", "incr.gmod.patch"];

fn demo_program(seed: u64) -> Program {
    generate(&GenConfig::tiny(10, 3), seed)
}

/// A `set-local` edit that perturbs the first procedure after main, built
/// against the engine's current program so it always validates.
fn perturbing_edit(program: &Program) -> Edit {
    let p = program
        .procs()
        .nth(1)
        .expect("generated programs have procs");
    let mods: Vec<VarId> = program
        .visible_set(p)
        .iter()
        .map(VarId::new)
        .filter(|&v| program.var(v).rank() == 0)
        .take(2)
        .collect();
    Edit::SetLocalEffects {
        proc_: p,
        mods,
        uses: vec![],
    }
}

/// A *structural* edit (a new call with by-value actuals) that keeps the
/// variable universe and every id, so it takes the dynamic-condensation
/// patch path when a cache is present.
fn structural_edit(program: &Program) -> Edit {
    let callee = program
        .procs()
        .find(|&p| p != ProcId::MAIN && program.proc_(p).parent() == Some(ProcId::MAIN))
        .expect("generated programs have top-level procedures");
    let args: Vec<Actual> = program
        .proc_(callee)
        .formals()
        .iter()
        .map(|_| Actual::Value(Expr::constant(1)))
        .collect();
    Edit::AddCallSite {
        caller: ProcId::MAIN,
        callee,
        args,
    }
}

/// `exact ⊆ reported` for everything the engine exposes. The exact
/// baseline is always the dense scratch pipeline, so the check also pins
/// hybrid engines to the historical answer.
fn assert_superset<S: EffectSet>(engine: &IncrementalEngineIn<S>, ctx: &str) {
    let program = engine.program();
    let exact = Analyzer::new().analyze(program);
    for p in program.procs() {
        assert!(
            exact.gmod(p).is_subset(&engine.gmod(p).to_dense()),
            "{ctx}: GMOD({p}) lost bits: exact {:?} ⊄ reported {:?}",
            exact.gmod(p),
            engine.gmod(p)
        );
        assert!(
            exact.guse(p).is_subset(&engine.guse(p).to_dense()),
            "{ctx}: GUSE({p}) lost bits"
        );
        assert!(
            exact.rmod(p).is_subset(&engine.rmod(p).to_dense()),
            "{ctx}: RMOD({p}) lost bits"
        );
        assert!(
            exact
                .imod_plus(p)
                .is_subset(&engine.imod_plus(p).to_dense()),
            "{ctx}: IMOD+({p}) lost bits"
        );
    }
    for s in program.sites() {
        assert!(
            exact.mod_site(s).is_subset(&engine.mod_site(s).to_dense()),
            "{ctx}: MOD({s}) lost bits: exact {:?} ⊄ reported {:?}",
            exact.mod_site(s),
            engine.mod_site(s)
        );
        assert!(
            exact.use_site(s).is_subset(&engine.use_site(s).to_dense()),
            "{ctx}: USE({s}) lost bits"
        );
        assert!(
            exact
                .dmod_site(s)
                .is_subset(&engine.dmod_site(s).to_dense()),
            "{ctx}: DMOD({s}) lost bits"
        );
    }
}

/// Bit-identity of the engine against scratch (the recovery half of the
/// coherence contract), via the dense image for hybrid engines.
fn assert_bit_identical<S: EffectSet>(engine: &IncrementalEngineIn<S>, ctx: &str) {
    let program = engine.program();
    let exact = Analyzer::new().analyze(program);
    for p in program.procs() {
        assert_eq!(
            &engine.gmod(p).to_dense(),
            exact.gmod(p),
            "{ctx}: GMOD({p})"
        );
        assert_eq!(
            &engine.guse(p).to_dense(),
            exact.guse(p),
            "{ctx}: GUSE({p})"
        );
        assert_eq!(
            &engine.rmod(p).to_dense(),
            exact.rmod(p),
            "{ctx}: RMOD({p})"
        );
    }
    for s in program.sites() {
        assert_eq!(
            &engine.mod_site(s).to_dense(),
            exact.mod_site(s),
            "{ctx}: MOD({s})"
        );
        assert_eq!(
            &engine.use_site(s).to_dense(),
            exact.use_site(s),
            "{ctx}: USE({s})"
        );
    }
}

#[test]
fn injected_panic_at_every_incr_site_degrades_soundly_and_recovers() {
    for (i, &site) in INCR_SITES.iter().enumerate() {
        let seed = 100 + i as u64;
        let mut engine = IncrementalEngine::new(demo_program(seed));
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("site `{site}`: armed fault must degrade the apply");
        };
        assert!(
            matches!(&reason, IncrDegradeReason::Panic(m) if m.contains(site)),
            "site `{site}`: unexpected degrade reason {reason}"
        );
        assert!(engine.stats().degraded, "site `{site}`: stats must say so");
        // Sound over-approximation of the *edited* program.
        assert_superset(&engine, &format!("fault at `{site}`"));
        // Cache coherence: the next clean apply rebuilds and is exact.
        let next = perturbing_edit(engine.program());
        let outcome = engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit");
        assert!(
            matches!(outcome, IncrOutcome::Clean(_)),
            "site `{site}`: clean apply after a fault must succeed"
        );
        assert!(
            engine.stats().full_rebuild,
            "site `{site}`: the post-fault apply must rebuild from scratch"
        );
        assert!(!engine.stats().degraded, "site `{site}`: recovered");
        assert_bit_identical(&engine, &format!("recovery after `{site}`"));
    }
}

#[test]
fn injected_panic_inside_patch_path_degrades_soundly_and_recovers() {
    // `incr.dyncond` / `incr.gmod.patch` only fire on the structural-patch
    // path, which needs a live cache — so fault a *structural* edit right
    // after the initial build.
    for (i, &site) in PATCH_SITES.iter().enumerate() {
        let seed = 300 + i as u64;
        let mut engine = IncrementalEngine::new(demo_program(seed));
        let edit = structural_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("site `{site}`: armed fault must degrade the apply");
        };
        assert!(
            matches!(&reason, IncrDegradeReason::Panic(m) if m.contains(site)),
            "site `{site}`: unexpected degrade reason {reason}"
        );
        // Sound over-approximation of the edited (call-added) program.
        assert_superset(&engine, &format!("fault at `{site}`"));
        // Recovery: the next clean apply rebuilds from scratch…
        let next = perturbing_edit(engine.program());
        match engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("site `{site}`: clean apply degraded: {reason}")
            }
        }
        assert!(engine.stats().full_rebuild, "site `{site}`: must rebuild");
        assert_bit_identical(&engine, &format!("recovery after `{site}`"));
        // …and the rebuilt cache is again *patchable*: a further
        // structural edit succeeds incrementally and stays exact.
        let again = structural_edit(engine.program());
        match engine
            .apply_guarded(&again, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("site `{site}`: patch apply degraded: {reason}")
            }
        }
        assert!(
            !engine.stats().full_rebuild,
            "site `{site}`: the rebuilt cache must be reusable"
        );
        assert_bit_identical(&engine, &format!("patch after recovery `{site}`"));
    }
}

#[test]
fn zero_budget_apply_degrades_soundly_and_recovers() {
    let mut engine = IncrementalEngine::new(demo_program(7));
    let edit = perturbing_edit(engine.program());
    let guard = Guard::new(&Budget::unlimited().with_ops(0));
    let outcome = engine
        .apply_guarded(&edit, &guard)
        .expect("the edit itself is valid");
    let IncrOutcome::Degraded { reason } = outcome else {
        panic!("zero budget must degrade the apply");
    };
    assert!(
        matches!(
            reason,
            IncrDegradeReason::Interrupted(Interrupt::BitvecBudget | Interrupt::BoolBudget)
        ),
        "unexpected degrade reason {reason}"
    );
    assert_superset(&engine, "zero-budget");
    let next = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&next, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, "recovery after zero-budget");
}

#[test]
fn rejected_edit_under_guard_is_a_no_op() {
    let mut engine = IncrementalEngine::new(demo_program(11));
    let before: Vec<_> = engine.gmod_all().to_vec();
    let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at("incr"));
    // Removing main is rejected before any recomputation starts, so the
    // armed fault never fires and nothing changes.
    let err = engine
        .apply_guarded(
            &Edit::RemoveProcedure {
                proc_: modref_ir::ProcId::MAIN,
            },
            &guard,
        )
        .expect_err("removing main is rejected");
    assert!(matches!(err, modref_incr::EditError::RemoveMain));
    assert_eq!(engine.gmod_all(), &before[..]);
    assert!(!engine.stats().degraded);
    assert_bit_identical(&engine, "after rejected edit");
}

#[test]
fn faults_keep_firing_across_consecutive_applies() {
    // Two faulted applies in a row: the second must behave exactly like
    // the first (degraded, sound), not trip over the poisoned state.
    let mut engine = IncrementalEngine::new(demo_program(23));
    for round in 0..2 {
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at("incr.gmod"));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        assert!(
            outcome.is_degraded(),
            "round {round}: armed fault must degrade"
        );
        assert_superset(&engine, &format!("round {round}"));
    }
    let edit = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&edit, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, "recovery after repeated faults");
}

#[test]
fn hybrid_engine_panic_at_every_incr_site_degrades_soundly_and_recovers() {
    // The same fault wall with the hybrid representation selected: the
    // degradation ladder and cache-drop recovery run through generic
    // `EffectSet` code, and both halves are checked against the *dense*
    // exact baseline.
    for (i, &site) in INCR_SITES.iter().enumerate() {
        let seed = 500 + i as u64;
        let mut engine = IncrementalEngineIn::<HybridSet>::new(demo_program(seed));
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("hybrid site `{site}`: armed fault must degrade the apply");
        };
        assert!(
            matches!(&reason, IncrDegradeReason::Panic(m) if m.contains(site)),
            "hybrid site `{site}`: unexpected degrade reason {reason}"
        );
        assert_superset(&engine, &format!("hybrid fault at `{site}`"));
        let next = perturbing_edit(engine.program());
        match engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("hybrid site `{site}`: clean apply degraded: {reason}")
            }
        }
        assert!(
            engine.stats().full_rebuild,
            "hybrid site `{site}`: the post-fault apply must rebuild"
        );
        assert_bit_identical(&engine, &format!("hybrid recovery after `{site}`"));
    }
}

#[test]
fn hybrid_engine_patch_path_faults_degrade_soundly_and_recover() {
    for (i, &site) in PATCH_SITES.iter().enumerate() {
        let seed = 700 + i as u64;
        let mut engine = IncrementalEngineIn::<HybridSet>::new(demo_program(seed));
        let edit = structural_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        assert!(
            outcome.is_degraded(),
            "hybrid site `{site}`: armed fault must degrade the apply"
        );
        assert_superset(&engine, &format!("hybrid patch fault at `{site}`"));
        let next = perturbing_edit(engine.program());
        match engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("hybrid site `{site}`: clean apply degraded: {reason}")
            }
        }
        assert_bit_identical(&engine, &format!("hybrid patch recovery `{site}`"));
    }
}

#[test]
fn hybrid_lazy_query_faults_degrade_soundly_and_recover() {
    // The demand path's `query.*` checkpoints, armed while the hybrid
    // representation backs the memo. Answers are always dense, so the
    // superset and recovery checks compare directly against scratch.
    // The program routes one site query through every demand stage:
    // locals, a binding cycle (RMOD), IMOD⁺, a cyclic GMOD component,
    // and an alias pair at the queried call.
    let mut b = modref_ir::ProgramBuilder::new();
    let g = b.global("g");
    let p = b.proc_("p", &["x", "y"]);
    let q = b.proc_("q", &["z"]);
    b.assign(p, b.formal(p, 0), Expr::constant(1));
    b.assign(q, b.formal(q, 0), Expr::constant(2));
    b.call(p, q, &[b.formal(p, 1)]);
    b.call(q, p, &[b.formal(q, 0), b.formal(q, 0)]);
    let main = b.main();
    b.call(main, p, &[g, g]);
    let program = b.finish().expect("valid");

    let scratch = Analyzer::new().analyze(&program);
    let site = program.sites().next().expect("has a site");
    for at in [
        "query",
        "query.local",
        "query.rmod",
        "query.plus",
        "query.gmod",
        "query.alias",
        "query.final",
    ] {
        let armed = Guard::unlimited().with_faults(FaultPlan::new().panic_at(at));
        let mut lazy = modref_incr::QueryEngineIn::<HybridSet>::new_lazy(program.clone());
        let out = lazy.site_answer(site, &armed);
        let reason = out
            .degraded
            .unwrap_or_else(|| panic!("hybrid panic@`{at}`: site query must trip the fault"));
        assert!(reason.contains(at), "hybrid@`{at}`: reason was {reason}");
        assert!(
            scratch.mod_site(site).is_subset(&out.answer.mods),
            "hybrid@`{at}`: degraded MOD not a superset"
        );
        assert!(
            scratch.use_site(site).is_subset(&out.answer.uses),
            "hybrid@`{at}`: degraded USE not a superset"
        );
        let calm = lazy.site_answer(site, &Guard::unlimited());
        assert!(calm.degraded.is_none(), "hybrid@`{at}`: must recover");
        assert_eq!(
            &calm.answer.mods,
            scratch.mod_site(site),
            "hybrid@`{at}`: exact MOD"
        );
        assert_eq!(
            &calm.answer.uses,
            scratch.use_site(site),
            "hybrid@`{at}`: exact USE"
        );
    }
}

#[test]
fn hybrid_engine_zero_budget_degrades_soundly_and_recovers() {
    let mut engine = IncrementalEngineIn::<HybridSet>::new(demo_program(7));
    let edit = perturbing_edit(engine.program());
    let guard = Guard::new(&Budget::unlimited().with_ops(0));
    let outcome = engine
        .apply_guarded(&edit, &guard)
        .expect("the edit itself is valid");
    assert!(outcome.is_degraded(), "zero budget must degrade the apply");
    assert_superset(&engine, "hybrid zero-budget");
    let next = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&next, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, "hybrid recovery after zero-budget");
}

/// A guard that counts boolean steps without ever tripping on its own.
fn counting_guard() -> Guard {
    Guard::new(&Budget::unlimited().with_bool_steps(u64::MAX / 2))
}

/// A program whose alias relation keeps the solver busy for hundreds of
/// work items.
fn alias_rich_program() -> Program {
    generate(&GenConfig::pascal_like(80, 4), 3)
}

/// The removal of the call site of [`alias_rich_program`] whose alias
/// update over-deletes the most pairs, with the caller's pair count: an
/// edit that keeps delete-and-rederive busy for hundreds of work items.
fn alias_churning_removal(program: &Program) -> (Edit, usize) {
    let aliases = AliasPairs::compute(program);
    let mut best = None;
    let mut most = 0;
    for site in program.sites() {
        let edit = Edit::RemoveCallSite { site };
        let (after, delta) = program.apply_edit(&edit).expect("removable");
        let (_, change) = aliases
            .clone()
            .update_guarded(program, &after, &delta, &Guard::unlimited())
            .expect("unlimited");
        if change.pairs_overdeleted > most {
            most = change.pairs_overdeleted;
            best = Some((edit, aliases.pair_count(program.site(site).caller())));
        }
    }
    best.expect("the program has alias pairs to over-delete")
}

/// Charges of one structural apply of `edit` on a fresh engine:
/// `(at the alias update's entry, whole apply)`, plus the clean apply's
/// over-deleted pair count.
fn alias_update_window(program: &Program, edit: &Edit) -> (u64, u64, usize) {
    // The update starts right after the `incr.final` checkpoint and is the
    // last thing the apply charges boolean steps for.
    let at_checkpoint = counting_guard().with_faults(FaultPlan::new().exhaust_at("incr.final"));
    let mut engine = IncrementalEngine::new(program.clone());
    let outcome = engine
        .apply_guarded(edit, &at_checkpoint)
        .expect("valid edit");
    assert!(outcome.is_degraded());
    let before = at_checkpoint.charged().1;
    let full = counting_guard();
    let mut engine = IncrementalEngine::new(program.clone());
    let outcome = engine.apply_guarded(edit, &full).expect("valid edit");
    assert!(matches!(outcome, IncrOutcome::Clean(_)));
    assert!(
        !engine.stats().full_rebuild,
        "the edit must take the patch path"
    );
    (
        before,
        full.charged().1,
        engine.stats().alias_pairs_overdeleted,
    )
}

/// Applies `edit` on a fresh engine under a boolean-step cap of `cap`,
/// requires a budget degrade charged at `before + (lo, hi]`, soundness,
/// and an exact next apply.
fn trip_alias_update(program: &Program, edit: &Edit, cap: u64, window: (u64, u64), ctx: &str) {
    let guard = Guard::new(&Budget::unlimited().with_bool_steps(cap));
    let mut engine = IncrementalEngine::new(program.clone());
    let outcome = engine.apply_guarded(edit, &guard).expect("valid edit");
    let charged = guard.charged().1;
    assert!(
        window.0 < charged && charged <= window.1,
        "{ctx}: tripped outside {window:?}: {charged}"
    );
    let IncrOutcome::Degraded { reason } = outcome else {
        panic!("{ctx}: a cap inside the alias update must degrade the apply");
    };
    assert!(
        matches!(
            reason,
            IncrDegradeReason::Interrupted(Interrupt::BoolBudget)
        ),
        "{ctx}: unexpected degrade reason {reason}"
    );
    assert!(engine.aliases().is_none(), "{ctx}: the relation is dropped");
    assert_superset(&engine, ctx);
    let next = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&next, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("{ctx}: clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, &format!("recovery after {ctx}"));
}

#[test]
fn budget_trip_inside_the_patch_alias_worklist_degrades_soundly_and_recovers() {
    // A cap halfway between the charge at the update's entry and the
    // charge of a full apply trips inside the update.
    let program = alias_rich_program();
    let (edit, _) = alias_churning_removal(&program);
    let (before, total, _) = alias_update_window(&program, &edit);
    assert!(
        total >= before + 256,
        "alias update too small: {before}..{total}"
    );
    let cap = before + (total - before) / 2;
    trip_alias_update(
        &program,
        &edit,
        cap,
        (before, total - 1),
        "patch alias mid-worklist",
    );
}

#[test]
fn budget_trips_inside_over_deletion_and_re_derivation_degrade_soundly_and_recover() {
    // The update charges one boolean step per item and polls every 64:
    // over-deletion processes the removed site, one push of each caller
    // pair through it and each over-deleted pair; re-derivation then
    // checks each over-deleted pair once. A cap `c` steps past the
    // update's entry trips at the first poll past `c`, so halfway into
    // each stretch lands inside it once the stretch holds 128 items.
    let program = alias_rich_program();
    let (edit, caller_pairs) = alias_churning_removal(&program);
    let (before, _, overdeleted) = alias_update_window(&program, &edit);
    let deletion = (1 + caller_pairs + overdeleted) as u64;
    let rederivation = overdeleted as u64;
    assert!(
        deletion >= 128 && rederivation >= 128,
        "stretches too short: {deletion} / {rederivation}"
    );
    trip_alias_update(
        &program,
        &edit,
        before + deletion / 2,
        (before, before + deletion),
        "over-deletion",
    );
    trip_alias_update(
        &program,
        &edit,
        before + deletion + rederivation / 2,
        (before + deletion, before + deletion + rederivation),
        "re-derivation",
    );
}

#[test]
fn a_fault_pinned_at_alias_degrades_a_structural_apply() {
    // The maintained update still passes the `alias` checkpoint, so
    // seeded and pinned fault plans reach it on the patch path.
    let program = alias_rich_program();
    let (edit, _) = alias_churning_removal(&program);
    for (i, plan) in [
        FaultPlan::new().panic_at("alias"),
        FaultPlan::new().exhaust_at("alias"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut engine = IncrementalEngine::new(program.clone());
        let outcome = engine
            .apply_guarded(&edit, &Guard::unlimited().with_faults(plan))
            .expect("valid edit");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("plan {i}: a fault at `alias` must degrade the patch apply");
        };
        match (i, &reason) {
            (0, IncrDegradeReason::Panic(m)) => assert!(m.contains("`alias`"), "{m}"),
            (1, IncrDegradeReason::Interrupted(Interrupt::BitvecBudget)) => {}
            _ => panic!("plan {i}: unexpected degrade reason {reason}"),
        }
        assert_superset(&engine, &format!("fault plan {i} at `alias`"));
        let next = structural_edit(engine.program());
        match engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => panic!("plan {i}: clean apply degraded: {reason}"),
        }
        assert_bit_identical(&engine, &format!("recovery after fault plan {i}"));
    }
}

#[test]
fn budget_trip_inside_the_lazy_alias_closure_degrades_soundly_and_recovers() {
    // A lazy site query settles every earlier stage's charge before its
    // `query.alias` checkpoint and charges no boolean step after the
    // closure solve. The retry on the *same* memo resumes from whatever
    // pairs the cut solve left behind and must still be exact.
    let program = alias_rich_program();
    let scratch = Analyzer::new().analyze(&program);
    let mut tested = 0;
    let sites: Vec<_> = program.sites().collect();
    for &site in sites.iter().rev() {
        let at_checkpoint =
            counting_guard().with_faults(FaultPlan::new().exhaust_at("query.alias"));
        let out =
            modref_incr::QueryEngine::new_lazy(program.clone()).site_answer(site, &at_checkpoint);
        assert!(out.degraded.is_some(), "exhaust@query.alias must degrade");
        let before = at_checkpoint.charged().1;
        let full = counting_guard();
        let out = modref_incr::QueryEngine::new_lazy(program.clone()).site_answer(site, &full);
        assert!(out.degraded.is_none());
        let total = full.charged().1;
        if total < before + 256 {
            continue;
        }

        let guard = Guard::new(&Budget::unlimited().with_bool_steps(before + (total - before) / 2));
        let mut lazy = modref_incr::QueryEngine::new_lazy(program.clone());
        let out = lazy.site_answer(site, &guard);
        let charged = guard.charged().1;
        assert!(
            before < charged && charged < total,
            "{site}: tripped outside: {charged}"
        );
        let reason = out
            .degraded
            .expect("a cap inside the closure solve must degrade");
        assert!(
            reason.contains("bool"),
            "{site}: unexpected reason {reason}"
        );
        assert!(
            scratch.mod_site(site).is_subset(&out.answer.mods),
            "{site}: MOD lost bits"
        );
        assert!(
            scratch.use_site(site).is_subset(&out.answer.uses),
            "{site}: USE lost bits"
        );

        let calm = lazy.site_answer(site, &Guard::unlimited());
        assert!(calm.degraded.is_none(), "{site}: must recover");
        assert_eq!(
            &calm.answer.mods,
            scratch.mod_site(site),
            "{site}: exact MOD"
        );
        assert_eq!(
            &calm.answer.uses,
            scratch.use_site(site),
            "{site}: exact USE"
        );
        assert_eq!(
            &calm.answer.dmod,
            scratch.dmod_site(site),
            "{site}: exact DMOD"
        );
        tested += 1;
        if tested == 3 {
            break;
        }
    }
    assert_eq!(tested, 3, "too few sites with a large alias closure");
}
