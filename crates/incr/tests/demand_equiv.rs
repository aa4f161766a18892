//! The differential guarantee of the demand-driven query path.
//!
//! The lazy [`QueryEngine`] must answer every `MOD`/`USE`/`DMOD`/`DUSE`
//! site query and every `GMOD`/`GUSE` procedure query **bit-identically**
//! to a from-scratch exhaustive [`Analyzer`] — while sharing one demand
//! memo across all queries on a program, in either query order. Three
//! walls:
//!
//! 1. *Exhaustive small worlds*: every call multi-graph over up to four
//!    procedures (the same enumeration `core/tests/exhaustive.rs` runs
//!    for the solvers), flat and binding-chained.
//! 2. *Seeded progen sweeps*: generated programs plus random edit
//!    scripts, checked after every applied edit, at 1 and 4 scratch
//!    threads. Replay a failure with
//!    `MODREF_SEED=<seed> cargo test -p modref-incr --test demand_equiv`.
//! 3. *Fault injection*: an armed panic or budget-exhaustion at every
//!    `query.*` guard checkpoint must degrade the answer to a proven
//!    **superset** of the exact sets (never unsound, never a crash), and
//!    the same engine must answer exactly once the pressure is gone.

use modref_bitset::OpCounter;
use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::{Analyzer, Budget, FaultPlan, Guard, ProcAnswer, SiteAnswer};
use modref_incr::{Edit, EditGen, QueryEngine};
use modref_ir::{Expr, Program, ProgramBuilder, VarId};
use modref_progen::{generate, GenConfig};

/// Every guard checkpoint the demand walk can trip on (see
/// `modref_core::demand`). Kept in sync by the fault-injection tests
/// below: each site must actually *fire* on the rich program.
const QUERY_SITES: &[&str] = &[
    "query",
    "query.local",
    "query.rmod",
    "query.plus",
    "query.gmod",
    "query.alias",
    "query.final",
];

/// Queries every site and procedure through one shared-memo lazy engine
/// and asserts bit-identity against a scratch analysis. `reverse` flips
/// the query order, so memoized partial fixpoints are exercised both as
/// "computed on demand" and as "already finalised by an earlier query".
fn assert_demand_matches_scratch(program: &Program, reverse: bool, ctx: &str) {
    let scratch = Analyzer::new().analyze(program);
    let guard = Guard::unlimited();
    let mut lazy = QueryEngine::new_lazy(program.clone());
    let sites: Vec<_> = if reverse {
        program
            .sites()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect()
    } else {
        program.sites().collect()
    };
    let procs: Vec<_> = if reverse {
        program
            .procs()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect()
    } else {
        program.procs().collect()
    };
    // Reverse order also asks procs *first*, so site queries start from a
    // memo another query family warmed.
    if reverse {
        for &p in &procs {
            let out = lazy.proc_answer(p, &guard);
            assert!(out.degraded.is_none(), "{ctx}: unlimited query degraded");
            assert_eq!(&out.answer.gmod, scratch.gmod(p), "{ctx}: GMOD({p})");
            assert_eq!(&out.answer.guse, scratch.guse(p), "{ctx}: GUSE({p})");
        }
    }
    for &s in &sites {
        let out = lazy.site_answer(s, &guard);
        assert!(out.degraded.is_none(), "{ctx}: unlimited query degraded");
        assert_eq!(&out.answer.mods, scratch.mod_site(s), "{ctx}: MOD({s})");
        assert_eq!(&out.answer.uses, scratch.use_site(s), "{ctx}: USE({s})");
        assert_eq!(&out.answer.dmod, scratch.dmod_site(s), "{ctx}: DMOD({s})");
        assert_eq!(&out.answer.duse, scratch.duse_site(s), "{ctx}: DUSE({s})");
    }
    if !reverse {
        for &p in &procs {
            let out = lazy.proc_answer(p, &guard);
            assert!(out.degraded.is_none(), "{ctx}: unlimited query degraded");
            assert_eq!(&out.answer.gmod, scratch.gmod(p), "{ctx}: GMOD({p})");
            assert_eq!(&out.answer.guse, scratch.guse(p), "{ctx}: GUSE({p})");
        }
    }
}

/// All directed edge slots among `n` procedures, with or without
/// self-loops (mirrors `core/tests/exhaustive.rs`).
fn edge_slots(n: usize, self_loops: bool) -> Vec<(usize, usize)> {
    let mut slots = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if self_loops || i != j {
                slots.push((i, j));
            }
        }
    }
    slots
}

fn edges_of(slots: &[(usize, usize)], mask: u64) -> Vec<(usize, usize)> {
    slots
        .iter()
        .enumerate()
        .filter(|&(k, _)| mask & (1 << k) != 0)
        .map(|(_, &e)| e)
        .collect()
}

/// Flat configuration: parameterless procedures, each writing its own
/// global; edge `(i, j)` is a no-argument call `pi → pj`.
fn flat_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &[])).collect();
    for (i, &p) in procs.iter().enumerate() {
        b.assign(p, globals[i], Expr::constant(1));
    }
    let main = b.main();
    for &p in &procs {
        b.call(main, p, &[]);
    }
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[]);
    }
    b.finish().expect("flat instances are always valid")
}

/// Binding configuration: each procedure takes one reference formal,
/// only the last writes it; edge `(i, j)` passes `pi`'s formal on to
/// `pj`, so the demanded `RMOD` walk must chase bindings through every
/// cycle shape the mask encodes.
fn binding_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &["x"])).collect();
    if let Some(&last) = procs.last() {
        b.assign(last, b.formal(last, 0), Expr::constant(1));
    }
    let main = b.main();
    for (i, &p) in procs.iter().enumerate() {
        b.call(main, p, &[globals[i]]);
    }
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[b.formal(procs[i], 0)]);
    }
    b.finish().expect("binding instances are always valid")
}

#[test]
fn demand_matches_scratch_on_all_small_worlds_up_to_three_procs() {
    let mut instances = 0usize;
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            for (kind, program) in [
                ("flat", flat_program(n, &edges)),
                ("binding", binding_program(n, &edges)),
            ] {
                let ctx = format!("{kind} n={n} mask={mask:#x}");
                assert_demand_matches_scratch(&program, false, &ctx);
                assert_demand_matches_scratch(&program, true, &ctx);
                instances += 1;
            }
        }
    }
    // 2 × (2 + 16 + 512): the enumeration itself is part of the contract.
    assert_eq!(instances, 1060, "the small-world enumeration shrank");
}

#[test]
fn demand_matches_scratch_on_all_four_proc_worlds_flat() {
    let slots = edge_slots(4, false);
    assert_eq!(slots.len(), 12);
    for mask in 0..(1u64 << slots.len()) {
        let program = flat_program(4, &edges_of(&slots, mask));
        assert_demand_matches_scratch(&program, mask % 2 == 1, &format!("flat n=4 mask={mask:#x}"));
    }
}

#[test]
fn demand_matches_scratch_on_all_four_proc_worlds_binding() {
    let slots = edge_slots(4, false);
    for mask in 0..(1u64 << slots.len()) {
        let program = binding_program(4, &edges_of(&slots, mask));
        assert_demand_matches_scratch(
            &program,
            mask % 2 == 1,
            &format!("binding n=4 mask={mask:#x}"),
        );
    }
}

/// One progen sweep: random edits stream through a lazy engine (pure IR
/// apply + memo invalidation); after every applied edit the demanded
/// answers must match a scratch analysis at `threads` workers.
fn run_sweep(program: &Program, threads: usize, seed: u64, steps: usize) -> CaseResult {
    let mut lazy = QueryEngine::new_lazy(program.clone());
    let guard = Guard::unlimited();
    let mut gen = EditGen::new(seed ^ 0xde3a_4d00_77u64);
    for step in 0..=steps {
        if step > 0 {
            let edit = gen.next_edit(lazy.program());
            if lazy.apply_guarded(&edit, &guard).is_err() {
                continue; // rejected edits leave program and memo untouched
            }
        }
        let program = lazy.program().clone();
        let scratch = Analyzer::new().threads(threads).analyze(&program);
        for s in program.sites() {
            let out = lazy.site_answer(s, &guard);
            prop_assert!(
                out.degraded.is_none(),
                "unlimited demand query degraded at step {} (seed {})",
                step,
                seed
            );
            prop_assert_eq!(
                &out.answer.mods,
                scratch.mod_site(s),
                "MOD({}) diverged at step {} / {} threads (seed {})",
                s,
                step,
                threads,
                seed
            );
            prop_assert_eq!(
                &out.answer.uses,
                scratch.use_site(s),
                "USE({}) diverged at step {} (seed {})",
                s,
                step,
                seed
            );
            prop_assert_eq!(
                &out.answer.dmod,
                scratch.dmod_site(s),
                "DMOD({}) diverged at step {} (seed {})",
                s,
                step,
                seed
            );
            prop_assert_eq!(
                &out.answer.duse,
                scratch.duse_site(s),
                "DUSE({}) diverged at step {} (seed {})",
                s,
                step,
                seed
            );
        }
        for p in program.procs() {
            let out = lazy.proc_answer(p, &guard);
            prop_assert_eq!(
                &out.answer.gmod,
                scratch.gmod(p),
                "GMOD({}) diverged at step {} / {} threads (seed {})",
                p,
                step,
                threads,
                seed
            );
            prop_assert_eq!(
                &out.answer.guse,
                scratch.guse(p),
                "GUSE({}) diverged at step {} (seed {})",
                p,
                step,
                seed
            );
        }
    }
    CaseResult::Pass
}

property! {
    #![cases = 24]

    fn demand_is_bit_identical_to_scratch_flat(
        seed in any_u64(),
        n in ints(2..14usize),
        steps in ints(1..9usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        for &threads in &[1usize, 4] {
            match run_sweep(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn demand_is_bit_identical_to_scratch_pascal(
        seed in any_u64(),
        n in ints(4..20usize),
        depth in ints(2..5u32),
        steps in ints(1..7usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        for &threads in &[1usize, 4] {
            match run_sweep(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn demand_is_bit_identical_to_scratch_binding_heavy(
        seed in any_u64(),
        n in ints(2..10usize),
        params in ints(1..4usize),
        steps in ints(1..7usize),
    ) {
        let program = generate(&GenConfig::binding_heavy(n, params), seed);
        match run_sweep(&program, 1, seed, steps) {
            CaseResult::Pass => {}
            other => return other,
        }
    }
}

/// Every site and procedure answer of `lazy`, in program order, with the
/// operations each charged.
fn answer_all(lazy: &mut QueryEngine) -> (Vec<SiteAnswer>, Vec<ProcAnswer>, OpCounter) {
    let guard = Guard::unlimited();
    let program = lazy.program().clone();
    let mut ops = OpCounter::new();
    let mut sites = Vec::new();
    for s in program.sites() {
        let out = lazy.site_answer(s, &guard);
        assert!(out.degraded.is_none(), "unlimited query degraded");
        ops += out.ops;
        sites.push(out.answer);
    }
    let mut procs = Vec::new();
    for p in program.procs() {
        let out = lazy.proc_answer(p, &guard);
        assert!(out.degraded.is_none(), "unlimited query degraded");
        ops += out.ops;
        procs.push(out.answer);
    }
    (sites, procs, ops)
}

/// Warm lazy sessions through an edit stream. After a body-only edit the
/// kept memo must answer exactly as a fresh memo and as scratch, and may
/// only have saved work; after a structural edit the memo must have been
/// discarded, so the same queries charge exactly a fresh memo's work.
fn run_retained_sweep(program: &Program, threads: usize, seed: u64, steps: usize) -> CaseResult {
    let mut lazy = QueryEngine::new_lazy(program.clone());
    let _ = answer_all(&mut lazy);
    let mut gen = EditGen::new(seed ^ 0x4e7a_1bed_u64);
    for step in 0..steps {
        let edit = gen.next_edit(lazy.program());
        let body_only = matches!(edit, Edit::SetLocalEffects { .. });
        if lazy.apply_guarded(&edit, &Guard::unlimited()).is_err() {
            continue;
        }
        let program = lazy.program().clone();
        let (kept_sites, kept_procs, kept_ops) = answer_all(&mut lazy);
        let (fresh_sites, fresh_procs, fresh_ops) =
            answer_all(&mut QueryEngine::new_lazy(program.clone()));
        prop_assert!(
            kept_sites == fresh_sites && kept_procs == fresh_procs,
            "kept and fresh memos answer differently after {} at step {} (seed {})",
            edit.kind(),
            step,
            seed
        );
        let scratch = Analyzer::new().threads(threads).analyze(&program);
        for (s, answer) in program.sites().zip(&kept_sites) {
            prop_assert!(
                &answer.mods == scratch.mod_site(s)
                    && &answer.uses == scratch.use_site(s)
                    && &answer.dmod == scratch.dmod_site(s)
                    && &answer.duse == scratch.duse_site(s),
                "site {} differs from scratch at step {} / {} threads (seed {})",
                s,
                step,
                threads,
                seed
            );
        }
        for (p, answer) in program.procs().zip(&kept_procs) {
            prop_assert!(
                &answer.gmod == scratch.gmod(p) && &answer.guse == scratch.guse(p),
                "procedure {} differs from scratch at step {} (seed {})",
                p,
                step,
                seed
            );
        }
        if body_only {
            prop_assert!(
                kept_ops.bitvec_steps <= fresh_ops.bitvec_steps
                    && kept_ops.bool_steps <= fresh_ops.bool_steps
                    && kept_ops.nodes_visited <= fresh_ops.nodes_visited
                    && kept_ops.edges_visited <= fresh_ops.edges_visited,
                "a kept memo worked more than a fresh one at step {} (seed {}): {:?} vs {:?}",
                step,
                seed,
                kept_ops,
                fresh_ops
            );
            // The alias closures are kept, so no site query re-walks one.
            prop_assert!(
                program.num_sites() == 0 || kept_ops.nodes_visited < fresh_ops.nodes_visited,
                "a kept memo saved nothing at step {} (seed {})",
                step,
                seed
            );
        } else {
            prop_assert_eq!(
                kept_ops,
                fresh_ops,
                "a structural edit kept memo state at step {} (seed {})",
                step,
                seed
            );
        }
    }
    CaseResult::Pass
}

property! {
    #![cases = 16]

    fn kept_memo_matches_fresh_memo_and_scratch_flat(
        seed in any_u64(),
        n in ints(2..16usize),
        steps in ints(1..10usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        for &threads in &[1usize, 4] {
            match run_retained_sweep(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn kept_memo_matches_fresh_memo_and_scratch_pascal(
        seed in any_u64(),
        n in ints(4..20usize),
        depth in ints(2..5u32),
        steps in ints(1..10usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        for &threads in &[1usize, 4] {
            match run_retained_sweep(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }
}

/// A lazy site query cut short inside its alias closure leaves partial
/// pairs in the memo. A body-only edit keeps them (no body feeds §5), and
/// the same query afterwards must resume from them to the exact answer
/// of the edited program.
#[test]
fn alias_trip_then_body_edit_then_same_query_is_exact() {
    let program = generate(&GenConfig::pascal_like(80, 4), 3);
    let counting = || Guard::new(&Budget::unlimited().with_bool_steps(u64::MAX / 2));
    let mut tested = 0;
    for site in program.sites().collect::<Vec<_>>().into_iter().rev() {
        // The boolean steps charged up to the alias checkpoint, and in all.
        let at_checkpoint = counting().with_faults(FaultPlan::new().exhaust_at("query.alias"));
        let _ = QueryEngine::new_lazy(program.clone()).site_answer(site, &at_checkpoint);
        let before = at_checkpoint.charged().1;
        let full = counting();
        let _ = QueryEngine::new_lazy(program.clone()).site_answer(site, &full);
        let total = full.charged().1;
        if total < before + 256 {
            continue;
        }

        let mut lazy = QueryEngine::new_lazy(program.clone());
        let cap = Guard::new(&Budget::unlimited().with_bool_steps(before + (total - before) / 2));
        let out = lazy.site_answer(site, &cap);
        let charged = cap.charged().1;
        assert!(
            before < charged && charged < total,
            "{site}: tripped outside: {charged}"
        );
        assert!(
            out.degraded.is_some(),
            "{site}: a cap inside the closure must degrade"
        );

        // Rewrite the callee's body to write every scalar it can see.
        let callee = program.site(site).callee();
        let mods: Vec<VarId> = program
            .visible_set(callee)
            .iter()
            .map(VarId::new)
            .filter(|&v| program.var(v).rank() == 0)
            .collect();
        let edit = Edit::SetLocalEffects {
            proc_: callee,
            mods,
            uses: vec![],
        };
        lazy.apply_guarded(&edit, &Guard::unlimited())
            .expect("valid edit");
        let edited = lazy.program().clone();
        let scratch = Analyzer::new().analyze(&edited);
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
        assert_eq!(
            &calm.answer.duse,
            scratch.duse_site(site),
            "{site}: exact DUSE"
        );
        tested += 1;
        if tested == 3 {
            break;
        }
    }
    assert_eq!(tested, 3, "too few sites with a large alias closure");
}

/// A program whose single "hot" site query walks through *every* demand
/// stage: local effects, a binding chain (`RMOD`), `IMOD⁺`, a cyclic
/// `GMOD` component, and aliased reference formals at the queried call.
fn fault_rich_program() -> Program {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let _h = b.global("h");
    let p = b.proc_("p", &["x", "y"]);
    let q = b.proc_("q", &["z"]);
    b.assign(p, b.formal(p, 0), Expr::constant(1));
    b.assign(q, b.formal(q, 0), Expr::constant(2));
    // A two-proc cycle passing formals along, so RMOD and GMOD both have
    // a real fixpoint to find.
    b.call(p, q, &[b.formal(p, 1)]);
    b.call(q, p, &[b.formal(q, 0), b.formal(q, 0)]);
    let main = b.main();
    // The queried site: the same actual bound to both reference formals,
    // so the caller has a live alias pair to fold in.
    b.call(main, p, &[g, g]);
    b.finish().expect("valid")
}

#[test]
fn injected_faults_at_every_query_site_degrade_soundly_and_recover() {
    let program = fault_rich_program();
    let scratch = Analyzer::new().analyze(&program);
    let site = program.sites().next().expect("has a site");
    let proc_ = program.procs().next().expect("has a proc");
    for &at in QUERY_SITES {
        for panic in [false, true] {
            let plan = if panic {
                FaultPlan::new().panic_at(at)
            } else {
                FaultPlan::new().exhaust_at(at)
            };
            let armed = Guard::unlimited().with_faults(plan);
            let mode = if panic { "panic" } else { "exhaust" };
            let mut lazy = QueryEngine::new_lazy(program.clone());

            let out = lazy.site_answer(site, &armed);
            let reason = out
                .degraded
                .unwrap_or_else(|| panic!("{mode}@`{at}`: site query must trip the fault"));
            // A contained panic names the checkpoint it fired at; a forced
            // exhaustion reads as the ordinary budget interrupt.
            if panic {
                assert!(reason.contains(at), "{mode}@`{at}`: reason was {reason}");
            }
            // Sound: the degraded answer contains the exact one.
            assert!(
                scratch.mod_site(site).is_subset(&out.answer.mods),
                "{mode}@`{at}`: MOD"
            );
            assert!(
                scratch.use_site(site).is_subset(&out.answer.uses),
                "{mode}@`{at}`: USE"
            );
            assert!(
                scratch.dmod_site(site).is_subset(&out.answer.dmod),
                "{mode}@`{at}`: DMOD"
            );
            assert!(
                scratch.duse_site(site).is_subset(&out.answer.duse),
                "{mode}@`{at}`: DUSE"
            );
            // Recovery: the same engine answers exactly under no pressure
            // (after an interrupt the memo kept only finalised values;
            // after a contained panic it was dropped entirely).
            let calm = lazy.site_answer(site, &Guard::unlimited());
            assert!(calm.degraded.is_none(), "{mode}@`{at}`: must recover");
            assert_eq!(
                &calm.answer.mods,
                scratch.mod_site(site),
                "{mode}@`{at}`: exact MOD"
            );
            assert_eq!(
                &calm.answer.uses,
                scratch.use_site(site),
                "{mode}@`{at}`: exact USE"
            );

            // Procedure queries share the ladder (skip the alias stage,
            // which only site queries reach).
            if at == "query.alias" {
                continue;
            }
            let armed = Guard::unlimited().with_faults(if panic {
                FaultPlan::new().panic_at(at)
            } else {
                FaultPlan::new().exhaust_at(at)
            });
            let mut lazy = QueryEngine::new_lazy(program.clone());
            let out = lazy.proc_answer(proc_, &armed);
            let reason = out
                .degraded
                .unwrap_or_else(|| panic!("{mode}@`{at}`: proc query must trip the fault"));
            if panic {
                assert!(reason.contains(at), "{mode}@`{at}`: reason was {reason}");
            }
            assert!(
                scratch.gmod(proc_).is_subset(&out.answer.gmod),
                "{mode}@`{at}`: GMOD"
            );
            assert!(
                scratch.guse(proc_).is_subset(&out.answer.guse),
                "{mode}@`{at}`: GUSE"
            );
            let calm = lazy.proc_answer(proc_, &Guard::unlimited());
            assert!(calm.degraded.is_none(), "{mode}@`{at}`: must recover");
            assert_eq!(
                &calm.answer.gmod,
                scratch.gmod(proc_),
                "{mode}@`{at}`: exact GMOD"
            );
            assert_eq!(
                &calm.answer.guse,
                scratch.guse(proc_),
                "{mode}@`{at}`: exact GUSE"
            );
        }
    }
}

/// Zero budgets and tight deadlines must degrade, never panic or hang —
/// and a later unlimited query on the same engine is exact.
#[test]
fn starved_budgets_degrade_soundly_on_generated_programs() {
    for seed in 0..8u64 {
        let program = generate(&GenConfig::fortran_like(10), seed);
        let scratch = Analyzer::new().analyze(&program);
        let mut lazy = QueryEngine::new_lazy(program.clone());
        let tight = Guard::new(&modref_core::Budget::unlimited().with_bitvec_steps(1));
        for s in program.sites().take(4) {
            let out = lazy.site_answer(s, &tight);
            if out.degraded.is_some() {
                assert!(
                    scratch.mod_site(s).is_subset(&out.answer.mods),
                    "seed {seed}: degraded MOD({s}) not a superset"
                );
            }
            let calm = lazy.site_answer(s, &Guard::unlimited());
            assert!(calm.degraded.is_none());
            assert_eq!(
                &calm.answer.mods,
                scratch.mod_site(s),
                "seed {seed}: MOD({s})"
            );
        }
    }
}
