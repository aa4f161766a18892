//! The differential wall of the edit path.
//!
//! [`Program::apply_edit`] shares every part an edit leaves alone and
//! re-checks only the parts the edit touched. The reference,
//! `Program::apply_edit_deep`, copies the whole program, applies the
//! edit to the copy and runs the full `Program::validate`. For every
//! edit both must return the same `Result`: the same program (pretty
//! printed, and table by table with the same ids) with the same
//! [`EditDelta`], or the same [`EditError`] naming the same ids.
//!
//! Two walls: seeded `EditGen` streams on generated programs, each edit
//! also tried in a corrupted form that usually fails validation; and
//! handcrafted invalid edits, one per validation error an edit can hit.
//! Replay a failure with
//! `MODREF_SEED=<seed> cargo test -p modref-incr --test edit_equiv`.

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_incr::EditGen;
use modref_ir::{
    Actual, CallSiteId, Edit, EditError, Expr, ProcId, Program, ProgramBuilder, Ref, Subscript,
    ValidationError, VarId,
};
use modref_progen::{generate, GenConfig};

/// Asserts that both apply paths agree on `edit`; returns the edited
/// program when the edit applies.
fn assert_same_apply(program: &Program, edit: &Edit, ctx: &str) -> Option<Program> {
    match (program.apply_edit(edit), program.apply_edit_deep(edit)) {
        (Ok((fast, fast_delta)), Ok((deep, deep_delta))) => {
            assert_eq!(fast_delta, deep_delta, "{ctx}: {edit:?}: deltas differ");
            assert_same_program(&fast, &deep, &format!("{ctx}: {edit:?}"));
            Some(fast)
        }
        (Err(fast), Err(deep)) => {
            assert_eq!(fast, deep, "{ctx}: {edit:?}: errors differ");
            None
        }
        (fast, deep) => panic!(
            "{ctx}: {edit:?}: apply_edit gave {:?} but the deep-copy path {:?}",
            fast.map(|_| ()),
            deep.map(|_| ())
        ),
    }
}

fn assert_same_program(fast: &Program, deep: &Program, ctx: &str) {
    assert_eq!(fast.to_source(), deep.to_source(), "{ctx}: source differs");
    assert_eq!(
        (fast.num_procs(), fast.num_vars(), fast.num_sites()),
        (deep.num_procs(), deep.num_vars(), deep.num_sites()),
        "{ctx}: sizes differ"
    );
    assert_eq!(
        fast.symbols().len(),
        deep.symbols().len(),
        "{ctx}: interners differ"
    );
    for p in fast.procs() {
        assert_eq!(fast.proc_(p), deep.proc_(p), "{ctx}: procedure {p} differs");
    }
    for v in fast.vars() {
        assert_eq!(fast.var(v), deep.var(v), "{ctx}: variable {v} differs");
        assert_eq!(
            fast.var_name(v),
            deep.var_name(v),
            "{ctx}: name of {v} differs"
        );
    }
    for s in fast.sites() {
        assert_eq!(fast.site(s), deep.site(s), "{ctx}: site {s} differs");
    }
}

/// A splitmix64 stream for the corruptions (the edits come from
/// `EditGen`).
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// `edit` with one of its ids replaced by a random one — often out of
/// scope, out of range, invisible or of the wrong arity — so the error
/// paths of both appliers meet the same inputs.
fn corrupt(edit: &Edit, program: &Program, mix: &mut Mix) -> Edit {
    let any_var = |mix: &mut Mix| VarId::new(mix.below(program.num_vars() + 2));
    let any_proc = |mix: &mut Mix| ProcId::new(mix.below(program.num_procs() + 1));
    let mut out = edit.clone();
    match &mut out {
        Edit::SetLocalEffects { mods, uses, proc_ } => match mix.below(3) {
            0 => mods.push(any_var(mix)),
            1 => uses.push(any_var(mix)),
            _ => *proc_ = any_proc(mix),
        },
        Edit::AddCallSite {
            caller,
            callee,
            args,
        } => match mix.below(4) {
            0 => *caller = any_proc(mix),
            1 => *callee = any_proc(mix),
            2 => {
                args.pop();
            }
            _ => args.push(Actual::Ref(Ref::scalar(any_var(mix)))),
        },
        Edit::RemoveCallSite { site } => {
            *site = CallSiteId::new(mix.below(program.num_sites() + 1))
        }
        Edit::AddProcedure { parent, .. } => *parent = any_proc(mix),
        Edit::RemoveProcedure { proc_ } => *proc_ = any_proc(mix),
        Edit::RebindActual {
            position, actual, ..
        } => {
            if mix.below(2) == 0 {
                *position += mix.below(2);
            }
            *actual = Actual::Ref(Ref::scalar(any_var(mix)));
        }
    }
    out
}

/// One stream: `steps` edits from `EditGen` (mixed or structural-heavy),
/// each also tried corrupted, each checked against the deep-copy path.
fn run_stream(mut program: Program, seed: u64, steps: usize, structural: bool) -> CaseResult {
    let mut gen = EditGen::new(seed ^ 0x00ed_17e9_u64);
    let mut mix = Mix(seed);
    for step in 0..steps {
        let edit = if structural {
            gen.next_structural_edit(&program)
        } else {
            gen.next_edit(&program)
        };
        let ctx = format!("seed {seed} step {step}");
        let bad = corrupt(&edit, &program, &mut mix);
        let _ = assert_same_apply(&program, &bad, &format!("{ctx} (corrupted)"));
        if let Some(next) = assert_same_apply(&program, &edit, &ctx) {
            program = next;
        }
    }
    CaseResult::Pass
}

property! {
    #![cases = 24]

    fn apply_edit_matches_the_deep_copy_path_flat(
        seed in any_u64(),
        n in ints(2..24usize),
        steps in ints(1..40usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        for structural in [false, true] {
            match run_stream(program.clone(), seed, steps, structural) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn apply_edit_matches_the_deep_copy_path_nested(
        seed in any_u64(),
        n in ints(4..24usize),
        depth in ints(2..5u32),
        steps in ints(1..40usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        for structural in [false, true] {
            match run_stream(program.clone(), seed, steps, structural) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }
}

/// `main` calls `p(g)`; `p(x)` declares local `t` and nested `inner`;
/// `q` is a sibling of `p`; `arr` is a rank-2 global array.
struct Fixture {
    program: Program,
    g: VarId,
    arr: VarId,
    t: VarId,
    p: ProcId,
    q: ProcId,
    inner: ProcId,
}

fn fixture() -> Fixture {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let arr = b.global_array("arr", 2);
    let p = b.proc_("p", &["x"]);
    let t = b.local(p, "t");
    b.assign(p, t, Expr::load(b.formal(p, 0)));
    let inner = b.nested_proc(p, "inner", &[]);
    b.assign(inner, t, Expr::constant(1));
    b.call(p, inner, &[]);
    let q = b.proc_("q", &[]);
    let main = b.main();
    b.call(main, p, &[g]);
    Fixture {
        program: b.finish().expect("valid"),
        g,
        arr,
        t,
        p,
        q,
        inner,
    }
}

/// What the edit does wrong, the edit, and the error it must meet.
type Case = (&'static str, Edit, fn(&EditError) -> bool);

#[test]
fn invalid_edits_fail_identically_on_both_paths() {
    let f = fixture();
    let main_site = CallSiteId::new(1);
    let cases: Vec<Case> = vec![
        (
            "set-local writes a variable out of scope",
            Edit::SetLocalEffects {
                proc_: f.q,
                mods: vec![f.g, f.t],
                uses: vec![],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::OutOfScope { .. })),
        ),
        (
            "set-local reads a variable that does not exist",
            Edit::SetLocalEffects {
                proc_: f.p,
                mods: vec![],
                uses: vec![VarId::new(99)],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::DanglingVar { .. })),
        ),
        (
            "add-call passes an array section of the wrong rank",
            Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: f.p,
                args: vec![Actual::Ref(Ref {
                    var: f.arr,
                    subs: vec![Subscript::Const(0)],
                })],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::RankMismatch { .. })),
        ),
        (
            "add-call passes the wrong number of actuals",
            Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: f.p,
                args: vec![],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::ArityMismatch { .. })),
        ),
        (
            "add-call targets a nephew",
            Edit::AddCallSite {
                caller: f.q,
                callee: f.inner,
                args: vec![],
            },
            |e| {
                matches!(
                    e,
                    EditError::Invalid(ValidationError::CalleeNotVisible { .. })
                )
            },
        ),
        (
            "add-call targets main",
            Edit::AddCallSite {
                caller: f.p,
                callee: ProcId::MAIN,
                args: vec![],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::CallToMain { .. })),
        ),
        (
            "add-call passes a caller-invisible variable",
            Edit::AddCallSite {
                caller: f.q,
                callee: f.p,
                args: vec![Actual::Value(Expr::load(f.t))],
            },
            |e| matches!(e, EditError::Invalid(ValidationError::OutOfScope { .. })),
        ),
        (
            "rebind to a variable out of scope",
            Edit::RebindActual {
                site: main_site,
                position: 0,
                actual: Actual::Ref(Ref::scalar(f.t)),
            },
            |e| matches!(e, EditError::Invalid(ValidationError::OutOfScope { .. })),
        ),
        (
            "rebind past the arity",
            Edit::RebindActual {
                site: main_site,
                position: 1,
                actual: Actual::Ref(Ref::scalar(f.g)),
            },
            |e| matches!(e, EditError::BadPosition { .. }),
        ),
        (
            "remove-call of a site that does not exist",
            Edit::RemoveCallSite {
                site: CallSiteId::new(7),
            },
            |e| matches!(e, EditError::UnknownSite(_)),
        ),
        (
            "add-proc under a procedure that does not exist",
            Edit::AddProcedure {
                name: "lost".into(),
                parent: ProcId::new(42),
                formals: vec![],
            },
            |e| matches!(e, EditError::UnknownProc(_)),
        ),
        (
            "remove-proc of a procedure with a nested procedure",
            Edit::RemoveProcedure { proc_: f.p },
            |e| matches!(e, EditError::HasChildren(_)),
        ),
        (
            "remove-proc of a procedure still called",
            Edit::RemoveProcedure { proc_: f.inner },
            |e| matches!(e, EditError::ProcedureInUse(..)),
        ),
        (
            "remove-proc of main",
            Edit::RemoveProcedure {
                proc_: ProcId::MAIN,
            },
            |e| matches!(e, EditError::RemoveMain),
        ),
    ];
    for (what, edit, expected) in cases {
        assert!(
            assert_same_apply(&f.program, &edit, what).is_none(),
            "{what}: the edit applied"
        );
        let err = f.program.apply_edit(&edit).expect_err("just checked");
        assert!(expected(&err), "{what}: unexpected error {err:?}");
    }
}

#[test]
fn valid_edits_of_every_kind_agree_on_both_paths() {
    let f = fixture();
    let mut program = f.program.clone();
    let edits = [
        Edit::SetLocalEffects {
            proc_: f.inner,
            mods: vec![f.t, f.g],
            uses: vec![f.arr],
        },
        Edit::AddCallSite {
            caller: f.inner,
            callee: f.q,
            args: vec![],
        },
        Edit::AddProcedure {
            name: "fresh".into(),
            parent: f.q,
            formals: vec!["x".into(), "brand_new".into()],
        },
        Edit::RebindActual {
            site: CallSiteId::new(1),
            position: 0,
            actual: Actual::Value(Expr::load(f.g)),
        },
        Edit::RemoveCallSite {
            site: CallSiteId::new(0),
        },
        Edit::RemoveCallSite {
            site: CallSiteId::new(1),
        },
        Edit::RemoveProcedure {
            proc_: ProcId::new(4),
        },
    ];
    for (i, edit) in edits.iter().enumerate() {
        program = assert_same_apply(&program, edit, &format!("edit {i}"))
            .unwrap_or_else(|| panic!("edit {i} ({edit:?}) must apply"));
    }
}
