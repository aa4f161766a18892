//! Named cases of the engine's `ALIAS` maintenance across structural
//! edits: insertion, and delete-and-rederive (DRed) for removals and
//! rebinds. Each case checks the maintained relation — and every final
//! set — against a from-scratch analysis of the edited program, plus the
//! pair counters the apply reports.

use modref_core::Analyzer;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::{Actual, CallSiteId, Program, ProgramBuilder, Ref, VarId};

/// Applies `edit` and checks the engine against scratch; returns the
/// apply's `(added, removed, over-deleted)` alias pair counters.
fn apply_checked(engine: &mut IncrementalEngine, edit: &Edit) -> (usize, usize, usize) {
    engine.apply(edit).expect("valid edit");
    let stats = *engine.stats();
    assert!(!stats.full_rebuild, "{edit:?} must take the patch path");
    let program = engine.program();
    let scratch = Analyzer::new().analyze(program);
    let aliases = engine.aliases().expect("a clean engine holds its relation");
    assert_eq!(aliases, scratch.aliases(), "ALIAS after {edit:?}");
    for s in program.sites() {
        assert_eq!(engine.mod_site(s), scratch.mod_site(s), "MOD({s})");
        assert_eq!(engine.use_site(s), scratch.use_site(s), "USE({s})");
    }
    (
        stats.alias_pairs_added,
        stats.alias_pairs_removed,
        stats.alias_pairs_overdeleted,
    )
}

fn by_ref(v: VarId) -> Actual {
    Actual::Ref(Ref::scalar(v))
}

#[test]
fn support_only_through_a_cycle_is_removed() {
    // p(x, y) calls p(y, x); main calls p(g, g). Around the cycle each
    // pair of p re-derives another, but ⟨x, g⟩ and ⟨y, g⟩ have no support
    // once main's call is gone. ⟨x, y⟩ stays: the recursive call passes
    // p's own formal y, visible in p, for x, which seeds it by R2.
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let p = b.proc_("p", &["x", "y"]);
    let (x, y) = (b.formal(p, 0), b.formal(p, 1));
    b.call(p, p, &[y, x]);
    let main = b.main();
    let from_main = b.call(main, p, &[g, g]);
    let mut engine = IncrementalEngine::new(b.finish().expect("valid"));
    assert_eq!(engine.aliases().expect("built").pair_count(p), 3);

    let counts = apply_checked(&mut engine, &Edit::RemoveCallSite { site: from_main });
    assert_eq!(counts, (0, 2, 3));
    let aliases = engine.aliases().expect("clean");
    assert!(aliases.are_aliased(p, x, y));
    assert!(!aliases.are_aliased(p, x, g) && !aliases.are_aliased(p, y, g));
}

#[test]
fn support_only_through_a_two_procedure_cycle_is_removed() {
    // p(x) calls q(x), q(z) calls p(z); main calls p(g). ⟨x, g⟩ in p and
    // ⟨z, g⟩ in q each re-derive the other, and nothing else supports
    // them once main's call is gone: every pair of both goes.
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let p = b.proc_("p", &["x"]);
    let q = b.proc_("q", &["z"]);
    b.call(p, q, &[b.formal(p, 0)]);
    b.call(q, p, &[b.formal(q, 0)]);
    let main = b.main();
    let from_main = b.call(main, p, &[g]);
    let mut engine = IncrementalEngine::new(b.finish().expect("valid"));

    let counts = apply_checked(&mut engine, &Edit::RemoveCallSite { site: from_main });
    assert_eq!(counts, (0, 2, 2));
    let aliases = engine.aliases().expect("clean");
    assert_eq!(aliases.pair_count(p) + aliases.pair_count(q), 0);
}

#[test]
fn an_alternate_derivation_survives() {
    // Two sites pass g to p's formal f; removing either keeps ⟨f, g⟩.
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let p = b.proc_("p", &["f"]);
    let f = b.formal(p, 0);
    let main = b.main();
    let first = b.call(main, p, &[g]);
    b.call(main, p, &[g]);
    let mut engine = IncrementalEngine::new(b.finish().expect("valid"));

    let counts = apply_checked(&mut engine, &Edit::RemoveCallSite { site: first });
    assert_eq!(counts, (0, 0, 1), "over-deleted, then re-derived");
    assert!(engine.aliases().expect("clean").are_aliased(p, f, g));
}

#[test]
fn a_rebind_replaces_one_pair_with_another() {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let h = b.global("h");
    let p = b.proc_("p", &["f"]);
    let f = b.formal(p, 0);
    let main = b.main();
    let site = b.call(main, p, &[g]);
    let mut engine = IncrementalEngine::new(b.finish().expect("valid"));

    let rebind = Edit::RebindActual {
        site,
        position: 0,
        actual: by_ref(h),
    };
    let counts = apply_checked(&mut engine, &rebind);
    assert_eq!(counts, (1, 1, 1));
    let aliases = engine.aliases().expect("clean");
    assert!(aliases.are_aliased(p, f, h));
    assert!(!aliases.are_aliased(p, f, g));
}

/// main calls outer(g) twice; outer's nested inner() sees outer's formal
/// `a` and the global `g` as free variables, so ⟨a, g⟩ reaches it by R4.
fn nested_program() -> (Program, [CallSiteId; 2]) {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let outer = b.proc_("outer", &["a"]);
    let inner = b.nested_proc(outer, "inner", &[]);
    let a = b.formal(outer, 0);
    b.assign(inner, a, modref_ir::Expr::constant(1));
    b.call(outer, inner, &[]);
    let main = b.main();
    let first = b.call(main, outer, &[g]);
    let second = b.call(main, outer, &[g]);
    (b.finish().expect("valid"), [first, second])
}

#[test]
fn a_nested_free_variable_pair_is_over_deleted_and_re_derived() {
    let (program, [first, _]) = nested_program();
    let inner = program
        .procs()
        .find(|&p| program.proc_name(p) == "inner")
        .expect("declared");
    let mut engine = IncrementalEngine::new(program);
    assert_eq!(engine.aliases().expect("built").pair_count(inner), 1);

    // Removing one of main's calls over-deletes ⟨a, g⟩ in outer and, by
    // R4, in inner; the other call re-derives both.
    let counts = apply_checked(&mut engine, &Edit::RemoveCallSite { site: first });
    assert_eq!(counts, (0, 0, 2));
    assert_eq!(engine.aliases().expect("clean").pair_count(inner), 1);

    // Removing the last one removes both for good, and inserting it again
    // brings both back.
    let last = CallSiteId::new(engine.program().num_sites() - 1);
    let call = engine.program().site(last).clone();
    let counts = apply_checked(&mut engine, &Edit::RemoveCallSite { site: last });
    assert_eq!(counts, (0, 2, 2));
    assert_eq!(engine.aliases().expect("clean").pair_count(inner), 0);
    let add = Edit::AddCallSite {
        caller: call.caller(),
        callee: call.callee(),
        args: call.args().to_vec(),
    };
    assert_eq!(apply_checked(&mut engine, &add), (2, 0, 0));
}
