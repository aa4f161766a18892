//! The multi-level `GMOD` problem for languages with nested procedure
//! declarations (§4, second half).
//!
//! With nesting, "global versus local" is relative: a variable declared at
//! level `ℓ` is global to everything nested below its declaring procedure.
//! The paper solves one problem per nesting level: *problem `i`* ignores
//! every call-graph edge into a procedure declared at a level shallower
//! than `i`, and treats the variables declared at levels `< i` as its
//! globals. A variable declared at level `ℓ` is summarised exactly by
//! problem `ℓ + 1`, because a call chain can only re-enter the declaring
//! procedure's subtree through the declaring procedure itself — so the
//! chains on which the variable survives the `∖ LOCAL` filters are
//! precisely the chains whose tails stay at levels `≥ ℓ + 1`. The union of
//! all problems is the exact `GMOD`.
//!
//! Two drivers are provided:
//!
//! * [`solve_gmod_multi_naive`] — re-runs Figure 2 once per level:
//!   `O(d_P · (E_C + N_C))` bit-vector steps. Simple and the correctness
//!   oracle for the next one.
//! * [`solve_gmod_multi_fused`] — the paper's optimisation: **one**
//!   depth-first pass keeping a *vector* of lowlinks (one per level) and
//!   parallel stacks, exploiting that the level-`i` components refine the
//!   level-`(i-1)` components: `O(E_C + d_P · N_C)` bit-vector steps.

use modref_bitset::{EffectSet, OpCounter, SetMatrix};
use modref_graph::DiGraph;
use modref_guard::{Guard, Interrupt};
use modref_ir::Program;

use crate::gmod::{findgmod, ClosureFilter, GmodSolutionIn};
use crate::meter::Meter;

/// The set of variables declared at levels `< i`, for `i` in `0..=d_P`
/// (`level_lt[0]` is empty; `level_lt[1]` is the true globals plus main's
/// locals; …).
fn level_masks<S: EffectSet>(program: &Program) -> Vec<S> {
    let dp = program.max_level() as usize;
    let mut masks = vec![S::empty(program.num_vars()); dp + 1];
    for v in program.vars() {
        let lv = program.var_level(v) as usize;
        for mask in masks.iter_mut().skip(lv + 1) {
            mask.insert(v.index());
        }
    }
    masks
}

/// Exact nested `GMOD` by running Figure 2 once per nesting level and
/// taking the union — `O(d_P (E_C + N_C))` bit-vector steps. The reference
/// the tests and experiment E3 check [`solve_gmod_multi_fused`] against;
/// no production path runs it.
///
/// `seeds[p]` is `IMOD⁺(p)`, `locals[p]` is `LOCAL(p)`.
///
/// # Panics
///
/// Panics if the slice lengths differ from `program.num_procs()`.
pub fn solve_gmod_multi_naive<S: EffectSet>(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[S],
    locals: &[S],
) -> GmodSolutionIn<S> {
    assert_eq!(seeds.len(), program.num_procs(), "one seed per procedure");
    assert_eq!(locals.len(), program.num_procs(), "one LOCAL per procedure");
    let dp = program.max_level() as usize;
    let masks: Vec<S> = level_masks(program);
    let callee_level: Vec<usize> = call_graph
        .edges()
        .map(|e| program.proc_(modref_ir::ProcId::new(e.to)).level() as usize)
        .collect();

    let mut total_stats = OpCounter::new();
    let mut union_sets: Vec<S> = seeds.to_vec();
    #[allow(clippy::needless_range_loop)] // `i` is the problem number, not just an index
    for i in 1..=dp {
        let sol = findgmod(
            call_graph,
            program.num_vars(),
            seeds,
            locals,
            |e| callee_level[e] >= i,
            &ClosureFilter::Mask(masks[i].clone()),
            &Guard::unlimited(),
        )
        .expect("an unlimited guard cannot interrupt the solver");
        let (sets, stats) = sol.into_parts();
        total_stats += stats;
        for (acc, s) in union_sets.iter_mut().zip(&sets) {
            acc.union_with(s);
            total_stats.bitvec_steps += 1;
        }
    }
    GmodSolutionIn::new(union_sets, total_stats)
}

/// Exact nested `GMOD` in a single depth-first pass with lowlink *vectors*
/// — `O(E_C + d_P · N_C)` bit-vector steps (§4's optimisation).
///
/// For every node the algorithm keeps one lowlink per problem level and
/// one stack per level. An edge into a procedure at level `ℓ` belongs to
/// problems `1..=ℓ`; it updates a *single* lowlink slot (the deepest
/// problem in which its target is still stacked), and a suffix-min
/// correction at node exit propagates the value to the shallower problems
/// — the step "the lowlink vector must be corrected" of §4. Closing the
/// level-`i` component of a root broadcasts `GMOD[root] ∩ {level < i}` to
/// the members popped from stack `i`.
///
/// # Panics
///
/// Panics if the slice lengths differ from `program.num_procs()`.
pub fn solve_gmod_multi_fused<S: EffectSet>(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[S],
    locals: &[S],
) -> GmodSolutionIn<S> {
    solve_gmod_multi_fused_guarded(program, call_graph, seeds, locals, &Guard::unlimited())
        .expect("an unlimited guard cannot interrupt the solver")
}

/// [`solve_gmod_multi_fused`] under a cooperative [`Guard`] (checkpoint
/// `"gmod"`, strides in the single depth-first pass).
pub fn solve_gmod_multi_fused_guarded<S: EffectSet>(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[S],
    locals: &[S],
    guard: &Guard,
) -> Result<GmodSolutionIn<S>, Interrupt> {
    assert_eq!(seeds.len(), program.num_procs(), "one seed per procedure");
    assert_eq!(locals.len(), program.num_procs(), "one LOCAL per procedure");
    guard.checkpoint("gmod")?;
    let n = call_graph.num_nodes();
    let dp = program.max_level() as usize;
    let mut stats = OpCounter::new();
    let mut meter = Meter::new(256);
    if dp == 0 || n == 0 {
        // Only main exists (or nothing): GMOD = IMOD⁺.
        return Ok(GmodSolutionIn::new(seeds.to_vec(), stats));
    }
    let masks: Vec<S> = level_masks(program);
    let callee_level: Vec<usize> = call_graph
        .edges()
        .map(|e| program.proc_(modref_ir::ProcId::new(e.to)).level() as usize)
        .collect();

    const UNVISITED: usize = usize::MAX;
    let mut dfn = vec![UNVISITED; n];
    // lowlink[v] has dp + 1 slots; slot i (1-based) serves problem i.
    let mut lowlink: Vec<Vec<usize>> = vec![Vec::new(); n];
    // stacks[i] for problems 1..=dp (slot 0 unused).
    let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); dp + 1];
    // v is on stack `i` iff i < pop_frontier[v]. Components refine with
    // depth, so pops happen deepest-problem-first.
    let mut pop_frontier = vec![0usize; n];
    let mut next_dfn = 0usize;
    let mut gmod: SetMatrix<S> = SetMatrix::new(n, program.num_vars());
    let mut frames: Vec<(usize, usize)> = Vec::new();

    let discover = |v: usize,
                    dfn: &mut Vec<usize>,
                    lowlink: &mut Vec<Vec<usize>>,
                    stacks: &mut Vec<Vec<usize>>,
                    pop_frontier: &mut Vec<usize>,
                    gmod: &mut SetMatrix<S>,
                    next_dfn: &mut usize,
                    stats: &mut OpCounter| {
        dfn[v] = *next_dfn;
        *next_dfn += 1;
        lowlink[v] = vec![dfn[v]; dp + 1];
        for stack in stacks.iter_mut().skip(1) {
            stack.push(v);
        }
        pop_frontier[v] = dp + 1;
        gmod.or_row_with_set(v, &seeds[v]);
        stats.bitvec_steps += 1;
        stats.nodes_visited += 1;
    };

    for root in 0..n {
        if dfn[root] != UNVISITED {
            continue;
        }
        discover(
            root,
            &mut dfn,
            &mut lowlink,
            &mut stacks,
            &mut pop_frontier,
            &mut gmod,
            &mut next_dfn,
            &mut stats,
        );
        frames.push((root, 0));

        while let Some(&mut (p, ref mut cursor)) = frames.last_mut() {
            meter.tick(guard, &stats)?;
            let succs = call_graph.successors_slice(p);
            if *cursor < succs.len() {
                let (q, edge_id) = succs[*cursor];
                *cursor += 1;
                stats.edges_visited += 1;
                let lq = callee_level[edge_id]; // edge lives in problems 1..=lq
                if dfn[q] == UNVISITED {
                    discover(
                        q,
                        &mut dfn,
                        &mut lowlink,
                        &mut stacks,
                        &mut pop_frontier,
                        &mut gmod,
                        &mut next_dfn,
                        &mut stats,
                    );
                    frames.push((q, 0));
                } else {
                    // Non-tree edge: one bit-vector step of equation (4)
                    // (sound for every problem; completeness comes from
                    // the per-level broadcasts) …
                    gmod.or_rows_minus(p, q, &locals[q]);
                    stats.bitvec_steps += 1;
                    // … and a single-slot lowlink update at the deepest
                    // problem in which q is still stacked.
                    let top = lq.min(pop_frontier[q].saturating_sub(1));
                    if top >= 1 && dfn[q] < dfn[p] {
                        lowlink[p][top] = lowlink[p][top].min(dfn[q]);
                    }
                }
            } else {
                frames.pop();
                // Suffix-min correction: a slot-`j` value also belongs to
                // every shallower problem `i < j` (those graphs contain a
                // superset of the edges).
                #[allow(clippy::needless_range_loop)] // adjacent-slot access
                for i in (1..dp).rev() {
                    if lowlink[p][i + 1] < lowlink[p][i] {
                        lowlink[p][i] = lowlink[p][i + 1];
                    }
                }
                // Close components, deepest problem first.
                for i in (1..=dp).rev() {
                    if i < pop_frontier[p] && lowlink[p][i] == dfn[p] {
                        loop {
                            let u = stacks[i].pop().expect("fused stack underflow");
                            pop_frontier[u] = i;
                            if u == p {
                                break;
                            }
                            gmod.or_rows_masked(u, p, &masks[i]);
                            stats.bitvec_steps += 1;
                        }
                    }
                }
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    // Tree edge parent → p: equation (4) once …
                    gmod.or_rows_minus(parent, p, &locals[p]);
                    stats.bitvec_steps += 1;
                    // … and lowlink merges for every problem containing
                    // the edge (its target is p).
                    let lp = program.proc_(modref_ir::ProcId::new(p)).level() as usize;
                    #[allow(clippy::needless_range_loop)] // parallel indexing of two vectors
                    for i in 1..=lp.min(dp) {
                        if lowlink[p][i] < lowlink[parent][i] {
                            lowlink[parent][i] = lowlink[p][i];
                        }
                    }
                }
            }
        }
    }

    meter.settle(guard, &stats)?;
    Ok(GmodSolutionIn::new(gmod.into_rows(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmod::GmodSolution;
    use modref_binding::{solve_rmod, BindingGraph};
    use modref_bitset::BitSet;
    use modref_ir::{CallGraph, Expr, LocalEffects, ProgramBuilder};

    fn pipeline_inputs(b: &ProgramBuilder) -> (Program, DiGraph, Vec<BitSet>, Vec<BitSet>) {
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let rmod = solve_rmod(&program, fx.imod_all(), &beta);
        let (plus, _) = crate::imod_plus::compute_imod_plus(&program, fx.imod_all(), &rmod);
        let cg = CallGraph::build(&program);
        let locals = program.local_sets();
        (program, cg.graph().clone(), plus, locals)
    }

    fn both(b: &ProgramBuilder) -> (Program, GmodSolution, GmodSolution) {
        let (program, graph, plus, locals) = pipeline_inputs(b);
        let naive = solve_gmod_multi_naive(&program, &graph, &plus, &locals);
        let fused = solve_gmod_multi_fused(&program, &graph, &plus, &locals);
        (program, naive, fused)
    }

    fn assert_agree(program: &Program, naive: &GmodSolution, fused: &GmodSolution) {
        for p in program.procs() {
            assert_eq!(
                naive.gmod(p),
                fused.gmod(p),
                "naive and fused disagree on {} ({})",
                p,
                program.proc_name(p)
            );
        }
    }

    #[test]
    fn two_level_matches_one_level() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &[]);
        b.assign(q, g, Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (program, graph, plus, locals) = pipeline_inputs(&b);
        let one = crate::gmod::solve_gmod_one_level(&program, &graph, &plus, &locals);
        let naive = solve_gmod_multi_naive(&program, &graph, &plus, &locals);
        let fused = solve_gmod_multi_fused(&program, &graph, &plus, &locals);
        for p in program.procs() {
            assert_eq!(one.gmod(p), naive.gmod(p));
            assert_eq!(one.gmod(p), fused.gmod(p));
        }
    }

    #[test]
    fn enclosing_local_modified_by_nested_callee() {
        // p has local t; nested inner writes t; p calls inner.
        // t ∈ GMOD(inner) and t ∈ GMOD(p) (it is p's own local, visible
        // after the *call* returns) but t ∉ GMOD(main)'s view past p.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let inner = b.nested_proc(p, "inner", &[]);
        b.assign(inner, t, Expr::constant(1));
        b.call(p, inner, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        assert!(naive.gmod(inner).contains(t.index()));
        assert!(naive.gmod(p).contains(t.index()));
        assert!(!naive.gmod(main).contains(t.index()));
    }

    #[test]
    fn deep_nesting_chain() {
        // main → a (level 1) → b (nested in a, level 2) → c (nested in b,
        // level 3); c writes a's local, b's local, and a global.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let a = b.proc_("a", &[]);
        let ta = b.local(a, "ta");
        let bb = b.nested_proc(a, "b", &[]);
        let tb = b.local(bb, "tb");
        let c = b.nested_proc(bb, "c", &[]);
        b.assign(c, g, Expr::constant(1));
        b.assign(c, ta, Expr::constant(2));
        b.assign(c, tb, Expr::constant(3));
        b.call(bb, c, &[]);
        b.call(a, bb, &[]);
        let main = b.main();
        b.call(main, a, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        // g propagates all the way up.
        for p in [c, bb, a, main] {
            assert!(naive.gmod(p).contains(g.index()));
        }
        // ta survives up to a, not to main.
        assert!(naive.gmod(bb).contains(ta.index()));
        assert!(naive.gmod(a).contains(ta.index()));
        assert!(!naive.gmod(main).contains(ta.index()));
        // tb survives only to b.
        assert!(naive.gmod(c).contains(tb.index()));
        assert!(naive.gmod(bb).contains(tb.index()));
        assert!(!naive.gmod(a).contains(tb.index()));
    }

    #[test]
    fn recursive_cycle_inside_subtree_propagates_enclosing_local() {
        // a (level 1) has local t and two nested procs u, v (level 2)
        // forming a cycle u ⇄ v; v writes t. Problem 2's SCC {u, v}
        // must broadcast t (level 1 < 2) to u even if the one-level
        // algorithm's root filter would have missed it.
        let mut b = ProgramBuilder::new();
        let a = b.proc_("a", &[]);
        let t = b.local(a, "t");
        let u = b.nested_proc(a, "u", &[]);
        let v = b.nested_proc(a, "v", &[]);
        b.call(u, v, &[]);
        b.call(v, u, &[]);
        b.assign(v, t, Expr::constant(1));
        b.call(a, u, &[]);
        let main = b.main();
        b.call(main, a, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        assert!(naive.gmod(v).contains(t.index()));
        assert!(naive.gmod(u).contains(t.index()));
        assert!(naive.gmod(a).contains(t.index()));
        assert!(!naive.gmod(main).contains(t.index()));
    }

    #[test]
    fn cycle_through_declaring_procedure_filters_its_local() {
        // a (level 1, local t) ⇄ its nested child u (level 2); u writes t.
        // Chains from main: main → a → u modifies t; t local to a, so
        // GMOD(main) must not contain t (entering via a filters it), but
        // GMOD(a) must.
        let mut b = ProgramBuilder::new();
        let a = b.proc_("a", &[]);
        let t = b.local(a, "t");
        let u = b.nested_proc(a, "u", &[]);
        b.assign(u, t, Expr::constant(1));
        b.call(a, u, &[]);
        b.call(u, a, &[]); // ancestor call closes the cycle {a, u}
        let main = b.main();
        b.call(main, a, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        assert!(naive.gmod(a).contains(t.index()));
        // u can reach a "modification of t" only through a itself… but t
        // is not local to u, and u → a → u chains keep t alive from u's
        // perspective? No: the only modifier is u itself (and a via its
        // extended IMOD? a's IMOD⁺ gains t only if a writes it — it does
        // not). From u, the chain u → a → u: the tail passes through a,
        // where t is local — filtered. But u also modifies t *itself*
        // (IMOD⁺(u) ∋ t), so GMOD(u) ∋ t regardless.
        assert!(naive.gmod(u).contains(t.index()));
        assert!(!naive.gmod(main).contains(t.index()));
    }

    #[test]
    fn sibling_subtrees_do_not_leak() {
        // Two top-level procs p1, p2 with equally named nested structure;
        // p1.inner writes p1's local only.
        let mut b = ProgramBuilder::new();
        let p1 = b.proc_("p1", &[]);
        let t1 = b.local(p1, "t");
        let i1 = b.nested_proc(p1, "inner", &[]);
        b.assign(i1, t1, Expr::constant(1));
        b.call(p1, i1, &[]);
        let p2 = b.proc_("p2", &[]);
        let t2 = b.local(p2, "t");
        let i2 = b.nested_proc(p2, "inner", &[]);
        b.assign(i2, t2, Expr::constant(1));
        b.call(p2, i2, &[]);
        let main = b.main();
        b.call(main, p1, &[]);
        b.call(main, p2, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        assert!(!naive.gmod(p1).contains(t2.index()));
        assert!(!naive.gmod(p2).contains(t1.index()));
        assert!(!naive.gmod(i1).contains(t2.index()));
    }

    #[test]
    fn main_locals_behave_like_globals_below() {
        let mut b = ProgramBuilder::new();
        let main = b.main();
        let m = b.local(main, "m");
        let p = b.proc_("p", &[]);
        b.assign(p, m, Expr::constant(1));
        b.call(main, p, &[]);
        let (program, naive, fused) = both(&b);
        assert_agree(&program, &naive, &fused);
        assert!(naive.gmod(p).contains(m.index()));
        assert!(naive.gmod(main).contains(m.index()));
    }

    #[test]
    fn level_masks_are_monotone() {
        let mut b = ProgramBuilder::new();
        let _g = b.global("g");
        let p = b.proc_("p", &[]);
        let _t = b.local(p, "t");
        let q = b.nested_proc(p, "q", &[]);
        let _u = b.local(q, "u");
        let program = b.finish().expect("valid");
        let masks: Vec<BitSet> = level_masks(&program);
        assert_eq!(masks.len(), 3); // levels 0..=2
        assert!(masks[0].is_empty());
        for i in 0..masks.len() - 1 {
            assert!(masks[i].is_subset(&masks[i + 1]));
        }
        // mask[1] = globals + main locals; here just g.
        assert_eq!(masks[1].len(), 1);
        assert_eq!(masks[2].len(), 2); // + p's local t
    }

    #[test]
    fn fused_work_bound_scales_with_edges_not_levels() {
        // Same graph analysed as dP grows must keep fused bitvec steps
        // within E + dP·N-ish, while naive pays dP·(E + N).
        fn build(depth: usize, width: usize) -> ProgramBuilder {
            let mut b = ProgramBuilder::new();
            let g = b.global("g");
            let main = b.main();
            // A chain of nested procedures of the given depth; at each
            // depth, `width` sibling leaves are called.
            let mut parent = main;
            let mut prev = main;
            for d in 0..depth {
                let p = b.nested_proc(parent, &format!("n{d}"), &[]);
                b.assign(p, g, Expr::constant(1));
                b.call(prev, p, &[]);
                for w in 0..width {
                    let leaf = b.nested_proc(p, &format!("leaf{d}_{w}"), &[]);
                    b.assign(leaf, g, Expr::constant(2));
                    b.call(p, leaf, &[]);
                }
                parent = p;
                prev = p;
            }
            b
        }
        let b = build(8, 4);
        let (program, graph, plus, locals) = pipeline_inputs(&b);
        let naive = solve_gmod_multi_naive(&program, &graph, &plus, &locals);
        let fused = solve_gmod_multi_fused(&program, &graph, &plus, &locals);
        assert_agree(&program, &naive, &fused);
        assert!(
            fused.stats().bitvec_steps < naive.stats().bitvec_steps,
            "fused ({}) should beat naive ({})",
            fused.stats().bitvec_steps,
            naive.stats().bitvec_steps
        );
    }
}
