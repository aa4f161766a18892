//! `LMOD`/`LUSE` per statement and `IMOD`/`IUSE` per procedure.
//!
//! These are the "initial information" sets of §2 of the paper, gathered by
//! purely local inspection:
//!
//! * `LMOD(s)` — variables a statement might modify, exclusive of any
//!   procedure calls in it;
//! * `IMOD(p) = ⋃_{s∈p} LMOD(s)` — the *initially modified* set;
//! * the §3.3 nesting extension — `IMOD(p)` additionally absorbs
//!   `IMOD(q) ∖ LOCAL(q)` for every procedure `q` declared in `p`, computed
//!   bottom-up, so that a modification of `p`'s local by a procedure nested
//!   in `p` is charged to `p` before the interprocedural phases run.
//!
//! The `USE` problem is "analogous" (§1); this module computes both sides.

use modref_bitset::{BitSet, EffectSet};

use crate::ids::ProcId;
use crate::program::Program;
use crate::stmt::{Actual, Expr, Ref, Stmt};
use crate::visit::{walk_exprs, walk_stmts};

/// The local (intraprocedural) effect sets of a program.
///
/// # Examples
///
/// ```
/// use modref_ir::{Expr, LocalEffects, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let p = b.proc_("p", &[]);
/// let inner = b.nested_proc(p, "inner", &[]);
/// let t = b.local(p, "t");
/// b.assign(inner, t, Expr::load(g)); // inner writes p's local, reads g
/// let program = b.finish()?;
///
/// let fx = LocalEffects::compute(&program);
/// // The §3.3 extension charges the write of t to p as well …
/// assert!(fx.imod(p).contains(t.index()));
/// // … but a plain (unextended) IMOD(p) would not see it.
/// assert!(!fx.imod_flat(p).contains(t.index()));
/// assert!(fx.iuse(p).contains(g.index()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalEffectsIn<S: EffectSet> {
    imod_flat: Vec<S>,
    iuse_flat: Vec<S>,
    imod: Vec<S>,
    iuse: Vec<S>,
}

/// [`LocalEffectsIn`] over the paper's dense bit vectors — the
/// representation every public API defaults to.
pub type LocalEffects = LocalEffectsIn<BitSet>;

impl<S: EffectSet> LocalEffectsIn<S> {
    /// Computes all local sets for `program` in one pass over every
    /// statement plus a bottom-up sweep of the nesting tree — linear in
    /// program size, as §3.3 requires.
    pub fn compute(program: &Program) -> Self {
        let locals: Vec<S> = program
            .local_sets()
            .into_iter()
            .map(S::from_dense_owned)
            .collect();
        Self::compute_pooled(program, &locals, &modref_par::ThreadPool::new(1))
    }

    /// [`Self::compute`] with the per-procedure statement walks spread
    /// over `pool`, folding through the caller's `LOCAL(p)` rows
    /// (`locals[p]`). Each procedure's flat sets depend only on its own
    /// body, so the scan is embarrassingly parallel. The §3.3 sweep stays
    /// sequential (it is a tiny tree fold), and the result is identical to
    /// the sequential path at any thread count.
    pub fn compute_pooled(program: &Program, locals: &[S], pool: &modref_par::ThreadPool) -> Self {
        let (imod_flat, iuse_flat): (Vec<S>, Vec<S>) = if pool.is_sequential() {
            program.procs().map(|p| flat_effects_of(program, p)).unzip()
        } else {
            pool.par_map(program.num_procs(), |i| {
                flat_effects_of(program, ProcId::new(i))
            })
            .into_iter()
            .unzip()
        };
        let (imod, iuse) = extend_nesting(program, &imod_flat, &iuse_flat, locals);
        LocalEffectsIn {
            imod_flat,
            iuse_flat,
            imod,
            iuse,
        }
    }

    /// The maximally conservative local effects: every set is `p`'s full
    /// visible set. Used as the sound fallback when a guarded analysis is
    /// cut short before (or during) the local phase — whatever a statement
    /// in `p` actually touches is visible in `p`, so these sets
    /// over-approximate any exactly computed ones.
    pub fn conservative(program: &Program) -> Self {
        let visible: Vec<S> = program
            .visible_sets()
            .into_iter()
            .map(S::from_dense_owned)
            .collect();
        LocalEffectsIn {
            imod_flat: visible.clone(),
            iuse_flat: visible.clone(),
            imod: visible.clone(),
            iuse: visible,
        }
    }

    /// Converts every set to the dense default representation. For the
    /// dense instantiation this is a field-by-field identity move.
    pub fn into_dense(self) -> LocalEffects {
        fn conv<S: EffectSet>(sets: Vec<S>) -> Vec<BitSet> {
            sets.into_iter().map(S::into_dense).collect()
        }
        LocalEffectsIn {
            imod_flat: conv(self.imod_flat),
            iuse_flat: conv(self.iuse_flat),
            imod: conv(self.imod),
            iuse: conv(self.iuse),
        }
    }

    /// `IMOD(p)` with the §3.3 nesting extension. This is the set the
    /// interprocedural phases consume.
    pub fn imod(&self, p: ProcId) -> &S {
        &self.imod[p.index()]
    }

    /// `IUSE(p)` with the nesting extension.
    pub fn iuse(&self, p: ProcId) -> &S {
        &self.iuse[p.index()]
    }

    /// Plain `IMOD(p) = ⋃ LMOD(s)` without the nesting extension.
    pub fn imod_flat(&self, p: ProcId) -> &S {
        &self.imod_flat[p.index()]
    }

    /// Plain `IUSE(p)` without the nesting extension.
    pub fn iuse_flat(&self, p: ProcId) -> &S {
        &self.iuse_flat[p.index()]
    }

    /// All extended `IMOD` sets, indexed by procedure.
    pub fn imod_all(&self) -> &[S] {
        &self.imod
    }

    /// All extended `IUSE` sets, indexed by procedure.
    pub fn iuse_all(&self) -> &[S] {
        &self.iuse
    }
}

/// The flat `(IMOD(p), IUSE(p))` of a single procedure — one walk over
/// `p`'s own body, no nesting extension. This is the per-procedure slice
/// of [`LocalEffects::compute`], exposed so the incremental engine can
/// rescan exactly the procedures an edit touched and demand-driven
/// clients can pay for exactly the procedures a query reaches.
pub fn flat_effects_of<S: EffectSet>(program: &Program, p: ProcId) -> (S, S) {
    let nv = program.num_vars();
    let mut m = S::empty(nv);
    let mut u = S::empty(nv);
    walk_stmts(program.proc_(p).body(), &mut |s| {
        accumulate_stmt(program, s, &mut m, &mut u);
    });
    (m, u)
}

/// One node of the §3.3 nesting fold: joins `ext(q) ∖ LOCAL(q)` into
/// `set` for every procedure `q` declared directly in `p`, where `ext(q)`
/// is `q`'s already-extended set and `local(q)` its `LOCAL` row. Starting
/// from `p`'s flat set, this yields `p`'s extended set. Whole-program
/// folds ([`extend_nesting`]) and demand-driven ones (which extend only
/// the procedures a query reaches) both run it.
pub fn absorb_children<'e, 'l, S: EffectSet + 'e + 'l>(
    program: &Program,
    p: ProcId,
    set: &mut S,
    ext: impl Fn(ProcId) -> &'e S,
    local: impl Fn(ProcId) -> &'l S,
) {
    for &q in program.proc_(p).children() {
        set.union_with_difference(ext(q), local(q));
    }
}

/// The §3.3 nesting extension of every procedure's flat sets, children
/// before parents, through the cached `LOCAL` rows `locals`: returns the
/// extended `(IMOD, IUSE)` vectors.
pub fn extend_nesting<S: EffectSet>(
    program: &Program,
    flat_mod: &[S],
    flat_use: &[S],
    locals: &[S],
) -> (Vec<S>, Vec<S>) {
    // `ProgramBuilder` and the front end create children after their parent,
    // but sort by level to be independent of id order.
    let mut order: Vec<ProcId> = program.procs().collect();
    order.sort_by_key(|&p| std::cmp::Reverse(program.proc_(p).level()));
    let mut imod = flat_mod.to_vec();
    let mut iuse = flat_use.to_vec();
    for &p in &order {
        for ext in [&mut imod, &mut iuse] {
            // Children sit at other indices, so the row is moved out while
            // they are read.
            let mut set = std::mem::replace(&mut ext[p.index()], S::empty(0));
            absorb_children(
                program,
                p,
                &mut set,
                |q| &ext[q.index()],
                |q| &locals[q.index()],
            );
            ext[p.index()] = set;
        }
    }
    (imod, iuse)
}

/// `LMOD(s)`: the variables statement `s` (including statements nested in
/// it) might modify, exclusive of procedure calls.
///
/// # Examples
///
/// ```
/// use modref_ir::{lmod_of_stmt, Expr, ProgramBuilder, Ref, Stmt};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let program = b.finish()?;
/// let s = Stmt::Assign { target: Ref::scalar(g), value: Expr::constant(1) };
/// assert!(lmod_of_stmt(&program, &s).contains(g.index()));
/// # Ok(())
/// # }
/// ```
pub fn lmod_of_stmt(program: &Program, stmt: &Stmt) -> BitSet {
    let mut m = BitSet::new(program.num_vars());
    let mut u = BitSet::new(program.num_vars());
    walk_stmts(std::slice::from_ref(stmt), &mut |s| {
        accumulate_stmt(program, s, &mut m, &mut u);
    });
    m
}

/// `LUSE(s)`: the variables statement `s` (including nested statements)
/// might read, exclusive of procedure calls. By-value actual expressions
/// *are* read locally (the caller evaluates them), as are subscript
/// variables of by-reference array sections.
pub fn luse_of_stmt(program: &Program, stmt: &Stmt) -> BitSet {
    let mut m = BitSet::new(program.num_vars());
    let mut u = BitSet::new(program.num_vars());
    walk_stmts(std::slice::from_ref(stmt), &mut |s| {
        accumulate_stmt(program, s, &mut m, &mut u);
    });
    u
}

fn accumulate_stmt<S: EffectSet>(program: &Program, s: &Stmt, m: &mut S, u: &mut S) {
    match s {
        Stmt::Assign { target, value } => {
            m.insert(target.var.index());
            use_subscripts(target, u);
            use_expr(value, u);
        }
        Stmt::Read { target } => {
            m.insert(target.var.index());
            use_subscripts(target, u);
        }
        Stmt::Print { value } => use_expr(value, u),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => use_expr(cond, u),
        Stmt::Call { site } => {
            for arg in program.site(*site).args() {
                match arg {
                    // Reference actuals are not locally used or modified —
                    // their effects come from the callee's summary.
                    Actual::Ref(r) => use_subscripts(r, u),
                    Actual::Value(e) => use_expr(e, u),
                }
            }
        }
    }
}

fn use_expr<S: EffectSet>(e: &Expr, u: &mut S) {
    walk_exprs(e, &mut |sub| {
        if let Expr::Load(r) = sub {
            u.insert(r.var.index());
            use_subscripts(r, u);
        }
    });
}

fn use_subscripts<S: EffectSet>(r: &Ref, u: &mut S) {
    for sub in &r.subs {
        if let crate::stmt::Subscript::Var(v) = sub {
            u.insert(v.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stmt::{Actual, BinOp, Subscript};

    #[test]
    fn assign_and_read_modify() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let main = b.main();
        b.assign(main, g, Expr::load(h));
        b.read(main, h);
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        assert!(fx.imod(main).contains(g.index()));
        assert!(fx.imod(main).contains(h.index()));
        assert!(fx.iuse(main).contains(h.index()));
        assert!(!fx.iuse(main).contains(g.index()));
    }

    #[test]
    fn control_flow_conditions_are_uses() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let k = b.global("k");
        let main = b.main();
        b.stmt(
            main,
            Stmt::While {
                cond: Expr::binary(BinOp::Lt, Expr::load(g), Expr::constant(3)),
                body: vec![Stmt::If {
                    cond: Expr::load(k),
                    then_branch: vec![],
                    else_branch: vec![],
                }],
            },
        );
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        assert!(fx.iuse(main).contains(g.index()));
        assert!(fx.iuse(main).contains(k.index()));
        assert!(fx.imod(main).is_empty());
    }

    #[test]
    fn call_actuals_value_used_reference_not() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x", "y"]);
        b.assign(p, b.formal(p, 0), Expr::constant(0));
        let main = b.main();
        b.call_args(
            main,
            p,
            vec![
                Actual::Ref(crate::Ref::scalar(g)),
                Actual::Value(Expr::load(h)),
            ],
        );
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        // h is evaluated by the caller; g is only bound.
        assert!(fx.iuse(main).contains(h.index()));
        assert!(!fx.iuse(main).contains(g.index()));
        assert!(!fx.imod(main).contains(g.index()));
    }

    #[test]
    fn subscripts_are_uses_target_array_is_mod() {
        let mut b = ProgramBuilder::new();
        let a = b.global_array("a", 2);
        let i = b.global("i");
        let main = b.main();
        b.assign_indexed(
            main,
            a,
            vec![Subscript::Var(i), Subscript::Const(0)],
            Expr::constant(9),
        );
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        assert!(fx.imod(main).contains(a.index()));
        assert!(fx.iuse(main).contains(i.index()));
        assert!(!fx.imod(main).contains(i.index()));
    }

    #[test]
    fn nesting_extension_is_transitive_and_filters_locals() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        let tp = b.local(p, "tp");
        let q = b.nested_proc(p, "q", &[]);
        let tq = b.local(q, "tq");
        let r = b.nested_proc(q, "r", &[]);
        // r writes g (level 0), p's local, q's local.
        b.assign(r, g, Expr::constant(1));
        b.assign(r, tp, Expr::constant(2));
        b.assign(r, tq, Expr::constant(3));
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);

        // q absorbs r's writes except … r has no locals, so everything.
        assert!(fx.imod(q).contains(tq.index()));
        assert!(fx.imod(q).contains(tp.index()));
        assert!(fx.imod(q).contains(g.index()));
        // p absorbs q's extended set minus q's locals: tq filtered out.
        assert!(fx.imod(p).contains(tp.index()));
        assert!(fx.imod(p).contains(g.index()));
        assert!(!fx.imod(p).contains(tq.index()));
        // flat sets untouched.
        assert!(fx.imod_flat(p).is_empty());
        assert!(fx.imod_flat(q).is_empty());
    }

    #[test]
    fn formals_filtered_by_nesting_extension() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.nested_proc(p, "q", &["x"]);
        let xq = b.formal(q, 0);
        b.assign(q, xq, Expr::constant(1));
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        // q's formal is local to q; p must not inherit it.
        assert!(fx.imod(q).contains(xq.index()));
        assert!(!fx.imod(p).contains(xq.index()));
    }

    #[test]
    fn pooled_matches_sequential() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        let tp = b.local(p, "tp");
        let q = b.nested_proc(p, "q", &[]);
        b.assign(q, tp, Expr::load(g));
        b.assign(p, g, Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");

        let seq = LocalEffects::compute(&program);
        let locals = program.local_sets();
        for threads in [1, 2, 4] {
            let pool = modref_par::ThreadPool::new(threads);
            let par = LocalEffects::compute_pooled(&program, &locals, &pool);
            for pr in program.procs() {
                assert_eq!(seq.imod(pr), par.imod(pr));
                assert_eq!(seq.iuse(pr), par.iuse(pr));
                assert_eq!(seq.imod_flat(pr), par.imod_flat(pr));
                assert_eq!(seq.iuse_flat(pr), par.iuse_flat(pr));
            }
        }
    }

    #[test]
    fn per_statement_helpers() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let program = b.finish().expect("valid");
        let s = Stmt::If {
            cond: Expr::load(h),
            then_branch: vec![Stmt::Assign {
                target: crate::Ref::scalar(g),
                value: Expr::constant(1),
            }],
            else_branch: vec![],
        };
        let m = lmod_of_stmt(&program, &s);
        let u = luse_of_stmt(&program, &s);
        assert!(m.contains(g.index()));
        assert!(!m.contains(h.index()));
        assert!(u.contains(h.index()));
    }
}
