//! `DMOD` — equation (2): projecting `GMOD` through call-site bindings.
//!
//! For a call site `e = (p, q)`, the *direct* side effects of the call are
//! `b_e(GMOD(q))`: every variable of `GMOD(q)` that outlives `q` maps to
//! itself, and every formal of `q` maps to the actual bound at `e` (if the
//! actual is a by-reference variable). `q`'s locals are deallocated on
//! return and vanish. For a whole statement `s`,
//! `DMOD(s) = LMOD(s) ∪ ⋃_{e ∈ s} b_e(GMOD(callee(e)))`.

use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_guard::{Guard, Interrupt};
use modref_ir::{Actual, CallSiteId, Program, Stmt};

/// Per-call-site direct side-effect sets (`DMOD` or `DUSE`).
#[derive(Debug, Clone)]
pub struct DmodSolutionIn<S: EffectSet> {
    per_site: Vec<S>,
    stats: OpCounter,
}

/// [`DmodSolutionIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type DmodSolution = DmodSolutionIn<BitSet>;

impl<S: EffectSet> DmodSolutionIn<S> {
    /// `b_e(GMOD(callee))` for call site `e` — the variables the call may
    /// modify, before alias factoring.
    pub fn dmod_site(&self, s: CallSiteId) -> &S {
        &self.per_site[s.index()]
    }

    /// All per-site sets, indexed by call site.
    pub fn all(&self) -> &[S] {
        &self.per_site
    }

    /// Work performed (dominated by one bit-set scan per call site).
    pub fn stats(&self) -> OpCounter {
        self.stats
    }
}

/// Computes `b_e(GMOD(callee))` for every call site.
///
/// `gmod[q]` must hold `GMOD(q)` (or `GUSE(q)` for the `USE` problem).
/// Step (1) of §5; `O(N_C · E_C)` in the worst case because each site may
/// copy a set of size `O(N_C)`.
///
/// # Panics
///
/// Panics if `gmod.len() != program.num_procs()`.
pub fn compute_dmod<S: EffectSet>(program: &Program, gmod: &[S]) -> DmodSolutionIn<S> {
    compute_dmod_guarded(
        program,
        gmod,
        &modref_par::ThreadPool::new(1),
        &Guard::unlimited(),
    )
    .expect("an unlimited guard cannot interrupt the solver")
}

/// [`compute_dmod`] with the per-site projections spread over `pool`,
/// under a cooperative [`Guard`]. Each site's `b_e(GMOD(callee))` is
/// independent of every other site's, so the fan-out is exact; a
/// sequential pool computes inline. The fan-out polls the guard between
/// sites (and between chunks on the pool), charging one bit-vector step
/// per projected site.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips mid-projection; partial per-site sets are discarded.
///
/// # Panics
///
/// Panics if `gmod.len() != program.num_procs()`.
pub fn compute_dmod_guarded<S: EffectSet>(
    program: &Program,
    gmod: &[S],
    pool: &modref_par::ThreadPool,
    guard: &Guard,
) -> Result<DmodSolutionIn<S>, Interrupt> {
    assert_eq!(gmod.len(), program.num_procs(), "one GMOD per procedure");
    guard.checkpoint("dmod")?;
    let mut stats = OpCounter::new();
    stats.edges_visited += program.num_sites() as u64;
    stats.bitvec_steps += program.num_sites() as u64;

    let per_site = if pool.is_sequential() {
        let mut v = Vec::with_capacity(program.num_sites());
        for s in program.sites() {
            if s.index() % 64 == 0 {
                guard.charge(64.min(program.num_sites() - s.index()) as u64, 0);
                guard.check()?;
            }
            let callee = program.site(s).callee();
            v.push(project_site(program, s, &gmod[callee.index()]));
        }
        v
    } else {
        let slots = pool.par_map_while(
            program.num_sites(),
            || !guard.should_stop(),
            |i| {
                if i % 64 == 0 {
                    guard.charge(64.min(program.num_sites() - i) as u64, 0);
                    let _ = guard.check();
                }
                let s = CallSiteId::new(i);
                let callee = program.site(s).callee();
                project_site(program, s, &gmod[callee.index()])
            },
        );
        let mut v = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                Some(set) => v.push(set),
                None => {
                    guard.check()?;
                    return Err(guard.interrupt().unwrap_or(Interrupt::Halted));
                }
            }
        }
        v
    };
    guard.check()?;

    Ok(DmodSolutionIn { per_site, stats })
}

/// `b_e(callee_set)` for one call site: survivors map to themselves,
/// formals map to their by-reference actuals, callee locals vanish.
pub fn project_site<S: EffectSet>(program: &Program, s: CallSiteId, callee_set: &S) -> S {
    let site = program.site(s);
    let callee = site.callee();
    let mut set = S::empty(program.num_vars());
    let locals = S::from_dense_owned(program.local_set(callee));
    set.union_with_difference(callee_set, &locals);
    for (pos, &f) in program.proc_(callee).formals().iter().enumerate() {
        if callee_set.contains(f.index()) {
            if let Actual::Ref(r) = &site.args()[pos] {
                set.insert(r.var.index());
            }
        }
    }
    set
}

/// `DMOD(s)` for an arbitrary statement: `LMOD(s)` plus the per-site sets
/// of every call site contained in `s` (equation 2).
///
/// # Examples
///
/// ```
/// use modref_core::Analyzer;
/// use modref_ir::{Expr, ProgramBuilder, Ref, Stmt};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let h = b.global("h");
/// let p = b.proc_("p", &[]);
/// b.assign(p, g, Expr::constant(1));
/// let main = b.main();
/// let call = b.call_stmt(main, p, vec![]);
/// let stmt = Stmt::If {
///     cond: Expr::constant(1),
///     then_branch: vec![call, Stmt::Assign { target: Ref::scalar(h), value: Expr::constant(2) }],
///     else_branch: vec![],
/// };
/// b.stmt(main, stmt.clone());
/// let program = b.finish()?;
/// let summary = Analyzer::new().analyze(&program);
/// let dmod = modref_core::dmod::dmod_of_stmt(&program, &stmt, summary.dmod_all());
/// assert!(dmod.contains(g.index())); // via the call
/// assert!(dmod.contains(h.index())); // via LMOD
/// # Ok(())
/// # }
/// ```
pub fn dmod_of_stmt(program: &Program, stmt: &Stmt, dmod_sites: &[BitSet]) -> BitSet {
    let mut set = modref_ir::lmod_of_stmt(program, stmt);
    modref_ir::walk_stmts(std::slice::from_ref(stmt), &mut |s| {
        if let Stmt::Call { site } = s {
            set.union_with(&dmod_sites[site.index()]);
        }
    });
    set
}

/// `DUSE(s)` for an arbitrary statement, analogously.
pub fn duse_of_stmt(program: &Program, stmt: &Stmt, duse_sites: &[BitSet]) -> BitSet {
    let mut set = modref_ir::luse_of_stmt(program, stmt);
    modref_ir::walk_stmts(std::slice::from_ref(stmt), &mut |s| {
        if let Stmt::Call { site } = s {
            set.union_with(&duse_sites[site.index()]);
        }
    });
    set
}

impl<S: EffectSet> DmodSolutionIn<S> {
    /// The degraded-path fallback: projects already-reported (possibly
    /// over-approximated) `GMOD` sets through every site binding, with no
    /// guard — bounded linear work. Sound because [`project_site`] is
    /// monotone: a superset `GMOD` input yields a superset projection.
    pub(crate) fn conservative(program: &Program, gmod: &[S]) -> Self {
        let per_site = program
            .sites()
            .map(|s| {
                let callee = program.site(s).callee();
                project_site(program, s, &gmod[callee.index()])
            })
            .collect();
        DmodSolutionIn {
            per_site,
            stats: OpCounter::new(),
        }
    }

    /// All-empty per-site sets (used when a half of the problem is
    /// disabled).
    pub(crate) fn empty_impl(program: &Program) -> Self {
        DmodSolutionIn {
            per_site: vec![S::empty(program.num_vars()); program.num_sites()],
            stats: OpCounter::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_binding::{solve_rmod, BindingGraph};
    use modref_ir::{CallGraph, Expr, LocalEffects, ProgramBuilder};

    fn dmod_sets(b: &ProgramBuilder) -> (Program, DmodSolution) {
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let rmod = solve_rmod(&program, fx.imod_all(), &beta);
        let (plus, _) = crate::imod_plus::compute_imod_plus(&program, fx.imod_all(), &rmod);
        let cg = CallGraph::build(&program);
        let gmod = crate::gmod_nested::solve_gmod_multi_naive(
            &program,
            cg.graph(),
            &plus,
            &program.local_sets(),
        );
        let dmod = compute_dmod(&program, gmod.gmod_all());
        (program, dmod)
    }

    #[test]
    fn formal_maps_to_actual_local_disappears() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let q = b.proc_("q", &["y"]);
        let t = b.local(q, "t");
        b.assign(q, b.formal(q, 0), Expr::constant(1)); // y
        b.assign(q, t, Expr::constant(2)); // local
        b.assign(q, h, Expr::constant(3)); // global
        let main = b.main();
        let s = b.call(main, q, &[g]);
        let (_, dmod) = dmod_sets(&b);
        let set = dmod.dmod_site(s);
        assert!(set.contains(g.index()), "formal y ↦ actual g");
        assert!(set.contains(h.index()), "global maps to itself");
        assert!(!set.contains(t.index()), "callee local vanishes");
        assert!(
            !set.contains(b.formal(q, 0).index()),
            "the formal itself is filtered (it is local to q)"
        );
    }

    #[test]
    fn same_actual_bound_twice() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y", "z"]);
        b.assign(q, b.formal(q, 1), Expr::constant(1)); // only z
        let main = b.main();
        let s = b.call(main, q, &[g, g]);
        let (_, dmod) = dmod_sets(&b);
        assert!(dmod.dmod_site(s).contains(g.index()));
    }

    #[test]
    fn by_value_actual_not_modified_even_if_formal_is() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let main = b.main();
        let s = b.call_args(main, q, vec![modref_ir::Actual::Value(Expr::load(g))]);
        let (_, dmod) = dmod_sets(&b);
        assert!(!dmod.dmod_site(s).contains(g.index()));
    }

    #[test]
    fn two_sites_same_callee_differ() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let main = b.main();
        let s1 = b.call(main, q, &[g]);
        let s2 = b.call(main, q, &[h]);
        let (_, dmod) = dmod_sets(&b);
        assert!(dmod.dmod_site(s1).contains(g.index()));
        assert!(!dmod.dmod_site(s1).contains(h.index()));
        assert!(dmod.dmod_site(s2).contains(h.index()));
        assert!(!dmod.dmod_site(s2).contains(g.index()));
    }

    #[test]
    fn transitive_effects_visible_at_site() {
        // main calls p; p calls q; q writes a global. DMOD(main's site)
        // must see it.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &[]);
        b.assign(q, g, Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[]);
        let main = b.main();
        let s = b.call(main, p, &[]);
        let (_, dmod) = dmod_sets(&b);
        assert!(dmod.dmod_site(s).contains(g.index()));
    }
}
