//! `IMOD⁺` — equation (5) of the paper.
//!
//! `IMOD⁺(p) = IMOD(p) ∪ ⋃_{e=(p,q)} b_e(RMOD(q))`: everything `p`
//! modifies directly, plus every variable `p` passes by reference to a
//! procedure that modifies the receiving formal. After this step the only
//! side effects left to propagate are those to variables that outlive the
//! callee — which is what makes the global phase's binding function
//! degenerate into the simple filter of equation (4).

use modref_bitset::{EffectSet, OpCounter};
use modref_guard::{Guard, Interrupt};
use modref_ir::{Actual, CallSiteId, ProcId, Program, VarId};

use modref_binding::RmodSolutionIn;

use crate::meter::Meter;

/// Computes `IMOD⁺` (or `IUSE⁺`) for every procedure.
///
/// `initial[p]` is the §3.3-extended `IMOD(p)` (respectively `IUSE(p)`),
/// and `rmod` the matching solution of the reference-formal problem. One
/// pass over the call sites: linear in program size.
///
/// # Panics
///
/// Panics if `initial.len() != program.num_procs()`.
///
/// # Examples
///
/// ```
/// use modref_binding::{solve_rmod, BindingGraph};
/// use modref_core::compute_imod_plus;
/// use modref_ir::{Expr, LocalEffects, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// // q writes its formal; p passes a *local* to q, so IMOD⁺(p) gains it.
/// let mut b = ProgramBuilder::new();
/// let q = b.proc_("q", &["y"]);
/// b.assign(q, b.formal(q, 0), Expr::constant(1));
/// let p = b.proc_("p", &[]);
/// let t = b.local(p, "t");
/// b.call(p, q, &[t]);
/// let main = b.main();
/// b.call(main, p, &[]);
/// let program = b.finish()?;
///
/// let fx = LocalEffects::compute(&program);
/// let beta = BindingGraph::build(&program);
/// let rmod = solve_rmod(&program, fx.imod_all(), &beta);
/// let (plus, _ops) = compute_imod_plus(&program, fx.imod_all(), &rmod);
/// assert!(plus[p.index()].contains(t.index()));
/// assert!(!fx.imod(p).contains(t.index())); // not a *local* effect
/// # Ok(())
/// # }
/// ```
pub fn compute_imod_plus<S: EffectSet>(
    program: &Program,
    initial: &[S],
    rmod: &RmodSolutionIn<S>,
) -> (Vec<S>, OpCounter) {
    compute_imod_plus_guarded(program, initial, rmod.rmod_all(), &Guard::unlimited())
        .expect("an unlimited guard cannot interrupt the solver")
}

/// [`compute_imod_plus`] over plain `RMOD` rows, under a cooperative
/// [`Guard`]: the single pass over call sites polls the guard every few
/// hundred sites and charges its boolean work against the budget.
///
/// `rmod[q]` is `RMOD(q)` (only bits of `q`'s own formals are read), as
/// both the batch [`RmodSolutionIn`] and the incremental engine hold it.
/// The pass has no fault-injection checkpoint of its own: each caller
/// names its phase's site before calling.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips mid-pass; the partial result is discarded.
///
/// # Panics
///
/// Panics if `initial.len()` or `rmod.len()` differs from
/// `program.num_procs()`.
pub fn compute_imod_plus_guarded<S: EffectSet>(
    program: &Program,
    initial: &[S],
    rmod: &[S],
    guard: &Guard,
) -> Result<(Vec<S>, OpCounter), Interrupt> {
    assert_eq!(
        initial.len(),
        program.num_procs(),
        "one initial set per procedure"
    );
    assert_eq!(rmod.len(), program.num_procs(), "one RMOD per procedure");
    let mut stats = OpCounter::new();
    let mut meter = Meter::new(256);
    let mut plus = initial.to_vec();
    for s in program.sites() {
        meter.tick(guard, &stats)?;
        stats.edges_visited += 1;
        let caller = program.site(s).caller();
        fold_site(program, s, &mut plus[caller.index()], |callee, formal| {
            stats.bool_steps += 1;
            Ok(rmod[callee.index()].contains(formal.index()))
        })?;
    }
    meter.settle(guard, &stats)?;
    Ok((plus, stats))
}

/// Equation (5) at one call site `s`: inserts into `plus` every
/// by-reference actual whose receiving formal is in the callee's `RMOD`,
/// as `in_rmod(callee, formal)` reports. `in_rmod` is asked once per
/// actual, in order, by-value actuals included; an error stops the fold
/// and is returned.
pub(crate) fn fold_site<S: EffectSet>(
    program: &Program,
    s: CallSiteId,
    plus: &mut S,
    mut in_rmod: impl FnMut(ProcId, VarId) -> Result<bool, Interrupt>,
) -> Result<(), Interrupt> {
    let site = program.site(s);
    let callee = site.callee();
    for (arg, &formal) in site.args().iter().zip(program.proc_(callee).formals()) {
        if in_rmod(callee, formal)? {
            if let Actual::Ref(r) = arg {
                plus.insert(r.var.index());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_binding::{solve_rmod, BindingGraph};
    use modref_bitset::BitSet;
    use modref_ir::{Expr, LocalEffects, ProgramBuilder, Ref};

    fn plus_sets(b: &ProgramBuilder) -> (Program, Vec<BitSet>) {
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let rmod = solve_rmod(&program, fx.imod_all(), &beta);
        let (plus, _) = compute_imod_plus(&program, fx.imod_all(), &rmod);
        (program, plus)
    }

    #[test]
    fn global_passed_by_reference_lands_in_caller() {
        // The classic case the 1984 paper got wrong: a global passed as an
        // actual to a modified formal must appear in the caller's IMOD⁺.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[g]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, plus) = plus_sets(&b);
        assert!(plus[p.index()].contains(g.index()));
    }

    #[test]
    fn unmodified_formal_contributes_nothing() {
        let mut b = ProgramBuilder::new();
        let _g = b.global("g");
        let q = b.proc_("q", &["y", "z"]);
        b.assign(q, b.formal(q, 1), Expr::constant(1)); // only z
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let u = b.local(p, "u");
        b.call(p, q, &[t, u]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, plus) = plus_sets(&b);
        assert!(!plus[p.index()].contains(t.index()));
        assert!(plus[p.index()].contains(u.index()));
    }

    #[test]
    fn by_value_actual_never_modified() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let main = b.main();
        b.call_args(main, q, vec![modref_ir::Actual::Value(Expr::load(g))]);
        let (_, plus) = plus_sets(&b);
        assert!(!plus[main.index()].contains(g.index()));
    }

    #[test]
    fn formal_actual_chains_compose_with_rmod() {
        // r writes w; q passes its formal to r; p passes a local to q.
        let mut b = ProgramBuilder::new();
        let r = b.proc_("r", &["w"]);
        b.assign(r, b.formal(r, 0), Expr::constant(1));
        let q = b.proc_("q", &["y"]);
        b.call(q, r, &[b.formal(q, 0)]);
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        b.call(p, q, &[t]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, plus) = plus_sets(&b);
        assert!(plus[p.index()].contains(t.index()));
        // q's own IMOD⁺ contains its formal, via RMOD(q).
        assert!(plus[q.index()].contains(b.formal(q, 0).index()));
    }

    #[test]
    fn array_section_actual_counts_as_whole_array() {
        let mut b = ProgramBuilder::new();
        let q = b.nested_proc_ranked(b.main(), "q", &[("row", 1)]);
        b.assign_indexed(
            q,
            b.formal(q, 0),
            vec![modref_ir::Subscript::Const(0)],
            Expr::constant(1),
        );
        let a = b.global_array("a", 2);
        let main = b.main();
        b.call_args(
            main,
            q,
            vec![modref_ir::Actual::Ref(Ref::indexed(
                a,
                [modref_ir::Subscript::Const(1), modref_ir::Subscript::All],
            ))],
        );
        let (_, plus) = plus_sets(&b);
        assert!(plus[main.index()].contains(a.index()));
    }
}
