//! Level-scheduled `GMOD` — the parallel counterpart of `findgmod`.
//!
//! `GMOD` is the least solution of equation (4),
//! `GMOD(p) = IMOD⁺(p) ∪ ⋃_{(p,q)} (GMOD(q) ∖ LOCAL(q))`, and the least
//! fixed point does not care in which order the inequations are applied —
//! only [`crate::gmod`]'s sequential single-pass *algorithm* does. This
//! module exploits that freedom: condense the call graph, split the
//! condensation into topological levels ([`modref_graph::Levels`]), and
//! process every component of a level concurrently. A component's
//! successors all sit at strictly lower levels and are final, so each
//! component solves a small closed fixpoint:
//!
//! 1. **base**: `IMOD⁺(u)` joined with `GMOD(q) ∖ LOCAL(q)` for every
//!    edge `u → q` leaving the component (one bit-vector step per edge,
//!    reading only finalised lower-level rows);
//! 2. **internal fixpoint**: iterate `GMOD(u) ∪= GMOD(q) ∖ LOCAL(q)` over
//!    the component's internal edges until nothing changes (at most
//!    `|members|` rounds; trivial components skip this entirely).
//!
//! For nested programs the multi-level decomposition of
//! [`crate::gmod_nested`] carries over verbatim: problem `i` runs on the
//! subgraph keeping only edges whose callee sits at level `≥ i`, and the
//! union of all problems plus the seeds is the exact nested `GMOD`. The
//! per-problem *mask* broadcast of the sequential drivers is not needed —
//! it is an optimisation of the one-pass algorithm, not part of the
//! fixpoint being computed (a variable declared at level `ℓ` is never
//! local to any procedure enterable in problem `ℓ + 1`, so the plain hop
//! filter preserves it exactly where the mask broadcast would).
//!
//! The result is **bit-identical** to the sequential solvers at any
//! thread count — `crates/core/tests/par_equiv.rs` enforces this
//! differentially — because every component's fixpoint is unique and
//! cross-component reads only touch finalised levels.

use modref_bitset::{EffectSet, OpCounter, SetMatrix};
use modref_graph::{tarjan, Condensation, DiGraph};
use modref_guard::{Guard, Interrupt};
use modref_ir::Program;
use modref_par::ThreadPool;

use crate::gmod::GmodSolutionIn;

/// Solves `GMOD` (or `GUSE`) by level-scheduled propagation over the
/// condensation, processing each level's components on `pool`.
///
/// `seeds[p]` must be `IMOD⁺(p)` (or `IUSE⁺(p)`); `locals[p]` is
/// `LOCAL(p)`. Exact for any nesting depth; with a sequential pool it is
/// simply a deterministic sequential algorithm with the same output.
///
/// # Panics
///
/// Panics if the slice lengths differ from `program.num_procs()`.
pub fn solve_gmod_levels<S: EffectSet>(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[S],
    locals: &[S],
    pool: &ThreadPool,
) -> GmodSolutionIn<S> {
    solve_gmod_levels_traced(
        program,
        call_graph,
        seeds,
        locals,
        pool,
        &Guard::unlimited(),
        &modref_trace::Trace::disabled(),
    )
    .expect("an unlimited guard cannot interrupt the solver")
}

/// [`solve_gmod_levels`] under a cooperative [`Guard`], recording into
/// `trace`.
///
/// The guard gets checkpoint `"gmod"` at entry, a budget charge plus poll
/// between condensation levels, and pool workers that drop out between
/// chunks once it trips, so cancellation drains the level fan-out
/// promptly. The trace gets one `gmod.level` span per condensation level
/// (annotated with the level index, its component count, and its
/// bit-vector steps), plus a `gmod.problem` span per multi-level problem
/// on nested programs. This is the view that explains a flat
/// parallel-scaling curve: level width, not thread count, bounds the
/// useful concurrency. Identical output at any thread count; tracing only
/// observes.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips; partial rows are discarded.
pub fn solve_gmod_levels_traced<S: EffectSet>(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[S],
    locals: &[S],
    pool: &ThreadPool,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<GmodSolutionIn<S>, Interrupt> {
    assert_eq!(seeds.len(), program.num_procs(), "one seed per procedure");
    assert_eq!(locals.len(), program.num_procs(), "one LOCAL per procedure");
    guard.checkpoint("gmod")?;
    let n = call_graph.num_nodes();
    let mut stats = OpCounter::new();
    if n == 0 {
        return Ok(GmodSolutionIn::new(seeds.to_vec(), stats));
    }
    let dp = program.max_level() as usize;
    if dp <= 1 {
        // Two-level scoping: equation (4) over the whole multi-graph is
        // the single problem, and its LFP is what Figure 2 computes.
        let sets = solve_problem(
            call_graph,
            program.num_vars(),
            seeds,
            locals,
            pool,
            &mut stats,
            guard,
            trace,
        )?;
        return Ok(GmodSolutionIn::new(sets, stats));
    }

    // Problem i keeps only edges into procedures at level ≥ i (§4's
    // multi-level decomposition); the union over all problems plus the
    // seeds is the exact nested GMOD.
    let callee_level: Vec<usize> = call_graph
        .edges()
        .map(|e| program.proc_(modref_ir::ProcId::new(e.to)).level() as usize)
        .collect();
    let mut total: Vec<S> = seeds.to_vec();
    for i in 1..=dp {
        guard.check()?;
        let mut problem_span = trace.span("gmod.problem");
        problem_span.arg("problem", i as u64);
        let mut restricted = DiGraph::new(n);
        for (e, &lv) in call_graph.edges().zip(&callee_level) {
            if lv >= i {
                restricted.add_edge(e.from, e.to);
            }
        }
        problem_span.arg("edges", restricted.num_edges() as u64);
        let sets = solve_problem(
            &restricted,
            program.num_vars(),
            seeds,
            locals,
            pool,
            &mut stats,
            guard,
            trace,
        )?;
        drop(problem_span);
        let mut union_steps = 0u64;
        for (acc, s) in total.iter_mut().zip(&sets) {
            acc.union_with(s);
            union_steps += 1;
        }
        stats.bitvec_steps += union_steps;
        guard.charge(union_steps, 0);
    }
    guard.check()?;
    Ok(GmodSolutionIn::new(total, stats))
}

/// The LFP of `G(u) = seeds(u) ∪ ⋃_{(u,q)∈graph} (G(q) ∖ locals(q))`,
/// computed level-parallel over the condensation of `graph`.
#[allow(clippy::too_many_arguments)]
fn solve_problem<S: EffectSet>(
    graph: &DiGraph,
    num_vars: usize,
    seeds: &[S],
    locals: &[S],
    pool: &ThreadPool,
    stats: &mut OpCounter,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<Vec<S>, Interrupt> {
    let n = graph.num_nodes();
    let sccs = tarjan(graph);
    let cond = Condensation::build(graph, &sccs);
    let levels = cond.levels();
    let comp_map = sccs.component_map();
    // Position of each node within its component's member slice, so a
    // component task can address its local matrix rows.
    let mut comp_pos = vec![0usize; n];
    for members in sccs.iter() {
        for (k, &m) in members.iter().enumerate() {
            comp_pos[m] = k;
        }
    }

    let mut g: Vec<S> = vec![S::empty(num_vars); n];
    for level in 0..levels.num_levels() {
        let group = levels.group(level);
        let mut level_span = trace.span("gmod.level");
        level_span.arg("level", level as u64);
        level_span.arg("components", group.len() as u64);
        // Components of one level are pairwise independent: each task
        // writes only its own members' rows (returned by value and stored
        // below) and reads only rows finalised at lower levels. Workers
        // leave the fan-out between chunks once the guard trips.
        let results = {
            let g_final = &g;
            pool.par_map_while(
                group.len(),
                || !guard.should_stop(),
                |k| {
                    if k % 64 == 0 {
                        let _ = guard.check();
                    }
                    let c = group[k];
                    let mut counter = OpCounter::new();
                    solve_component(
                        sccs.members(c),
                        |u| graph.successors_slice(u).iter().map(|&(q, _)| q),
                        |q| (comp_map[q] == c).then(|| comp_pos[q]),
                        |u| &seeds[u],
                        |q| &locals[q],
                        |q| &g_final[q],
                        &mut counter,
                        // The direct poll converts a passed deadline into
                        // a trip while every pool thread is busy inside
                        // component solves.
                        |_| guard.check(),
                    )
                    .map(|rows| (rows, counter))
                },
            )
        };
        let mut level_work = OpCounter::new();
        for (slot, &c) in results.into_iter().zip(group) {
            let Some(Ok((sets, counter))) = slot else {
                guard.check()?;
                return Err(guard.interrupt().unwrap_or(Interrupt::Halted));
            };
            level_work += counter;
            for (set, &u) in sets.into_iter().zip(sccs.members(c)) {
                g[u] = set;
            }
        }
        level_span.arg("bitvec_steps", level_work.bitvec_steps);
        drop(level_span);
        *stats += level_work;
        guard.charge(level_work.bitvec_steps, level_work.bool_steps);
        guard.check()?;
    }
    Ok(g)
}

/// One component's closed fixpoint: base sets from finalised successor
/// rows, then inner iteration over the component's own edges.
///
/// Public so every solver of equation (4) solves a component with this
/// one kernel: the level schedule here, the incremental engine
/// (`modref-incr`) on exactly the dirty components of its maintained
/// condensations, and the demand memo ([`crate::demand`]) on the
/// components its Tarjan walk pops. Bit-identity among them then follows
/// from the uniqueness of each component's fixpoint. The kernel reads
/// everything by node id through accessors, so each caller keeps its own
/// storage:
///
/// * `members` — the component's nodes, in row order;
/// * `successors(u)` — `u`'s successors in this problem's multi-graph;
/// * `member_pos(q)` — `q`'s position in `members`, `None` outside;
/// * `seed(u)` — `IMOD⁺(u)` (or `IUSE⁺(u)`) of a member;
/// * `local(q)` — `LOCAL(q)` of any node an edge enters;
/// * `row(q)` — the final row of any node outside the component that a
///   member's edge enters.
///
/// Returns one row per member, in member order, and counts the work in
/// `ops` (one node per member, one edge per successor entry, one
/// bit-vector step per row operation). `poll` runs before each round of
/// the inner iteration and may count and charge `ops` itself.
///
/// # Errors
///
/// Returns `poll`'s error if it fails while the component iterates; the
/// partial rows are discarded.
#[allow(clippy::too_many_arguments)]
pub fn solve_component<'a, S, I>(
    members: &[usize],
    successors: impl Fn(usize) -> I,
    member_pos: impl Fn(usize) -> Option<usize>,
    seed: impl Fn(usize) -> &'a S,
    local: impl Fn(usize) -> &'a S,
    row: impl Fn(usize) -> &'a S,
    ops: &mut OpCounter,
    mut poll: impl FnMut(&mut OpCounter) -> Result<(), Interrupt>,
) -> Result<Vec<S>, Interrupt>
where
    S: EffectSet + 'a,
    I: IntoIterator<Item = usize>,
{
    ops.nodes_visited += members.len() as u64;

    if let [u] = members {
        // Singleton fast path (self-edges are no-ops under the hop
        // filter: G(u) ∖ L(u) ⊆ G(u)).
        let mut set = seed(*u).clone();
        ops.bitvec_steps += 1;
        for q in successors(*u) {
            ops.edges_visited += 1;
            if q != *u {
                set.union_with_difference(row(q), local(q));
                ops.bitvec_steps += 1;
            }
        }
        return Ok(vec![set]);
    }

    // (row of caller, row of callee, callee node) for intra-component
    // edges; self-edges dropped as no-ops. While building the base rows,
    // accumulate the component's *transfer set* `T` — every contribution
    // any member can inject, already stripped of its own hop's locals —
    // and the union `L` of the members' local sets.
    let domain = seed(members[0]).domain();
    let mut internal: Vec<(usize, usize, usize)> = Vec::new();
    let mut bases: Vec<S> = Vec::with_capacity(members.len());
    let mut transfer = S::empty(domain);
    let mut member_locals = S::empty(domain);
    for (k, &u) in members.iter().enumerate() {
        member_locals.union_with(local(u));
        transfer.union_with_difference(seed(u), local(u));
        ops.bitvec_steps += 2;
        let mut base = seed(u).clone();
        ops.bitvec_steps += 1;
        for q in successors(u) {
            ops.edges_visited += 1;
            match member_pos(q) {
                None => {
                    base.union_with_difference(row(q), local(q));
                    transfer.union_with_difference(row(q), local(q));
                    ops.bitvec_steps += 2;
                }
                Some(kq) if q != u => internal.push((k, kq, q)),
                Some(_) => {}
            }
        }
        bases.push(base);
    }

    // SCC collapse (§4): when `T ∩ L = ∅`, no internal hop's `∖ LOCAL`
    // filter can strip anything a member injects, so every contribution
    // reaches every member intact (the component is strongly connected)
    // and the least fixpoint is exactly `row(u) = base(u) ∪ T`: it *is* a
    // fixpoint (each equation reproduces `T` unfiltered), and any
    // fixpoint contains it (each contribution survives some internal
    // path). This is always the case for flat-scope programs — member
    // locals are invisible to each other — and turns the quadratic
    // passes-× -edges iteration into one pass.
    ops.bool_steps += 1;
    if transfer.is_disjoint(&member_locals) {
        for base in &mut bases {
            base.union_with(&transfer);
        }
        ops.bitvec_steps += bases.len() as u64;
        return Ok(bases);
    }

    let mut m: SetMatrix<S> = SetMatrix::new(bases.len(), domain);
    for (k, base) in bases.iter().enumerate() {
        m.or_row_with_set(k, base);
    }
    loop {
        poll(ops)?;
        let mut changed = false;
        for &(kf, kt, q) in &internal {
            changed |= m.or_rows_minus(kf, kt, local(q));
            ops.bitvec_steps += 1;
        }
        if !changed {
            break;
        }
    }
    Ok(m.into_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn assert_matches_sequential(b: &ProgramBuilder, threads: usize) {
        let (program, graph, plus, locals) = pipeline_inputs(b);
        let pool = ThreadPool::new(threads);
        let level = solve_gmod_levels(&program, &graph, &plus, &locals, &pool);
        let reference = if program.max_level() <= 1 {
            crate::gmod::solve_gmod_one_level(&program, &graph, &plus, &locals)
        } else {
            crate::gmod_nested::solve_gmod_multi_fused(&program, &graph, &plus, &locals)
        };
        for p in program.procs() {
            assert_eq!(
                level.gmod(p),
                reference.gmod(p),
                "level-scheduled disagrees on {} ({})",
                p,
                program.proc_name(p)
            );
        }
    }

    #[test]
    fn one_level_chain_cycle_and_cross_edges() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let r = b.proc_("r", &[]);
        b.assign(r, g, Expr::constant(1));
        let q = b.proc_("q", &[]);
        let t = b.local(q, "t");
        b.assign(q, t, Expr::constant(2));
        b.assign(q, h, Expr::constant(3));
        b.call(q, r, &[]);
        let p = b.proc_("p", &[]);
        b.call(p, q, &[]);
        b.call(p, r, &[]);
        b.call(r, p, &[]); // cycle {p, q, r}
        let main = b.main();
        b.call(main, p, &[]);
        assert_matches_sequential(&b, 1);
        assert_matches_sequential(&b, 4);
    }

    #[test]
    fn nested_program_matches_fused() {
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
        b.call(c, bb, &[]); // cycle {b, c} inside the subtree
        let main = b.main();
        b.call(main, a, &[]);
        assert_matches_sequential(&b, 1);
        assert_matches_sequential(&b, 4);
    }

    #[test]
    fn cycle_through_declaring_procedure() {
        let mut b = ProgramBuilder::new();
        let a = b.proc_("a", &[]);
        let t = b.local(a, "t");
        let u = b.nested_proc(a, "u", &[]);
        b.assign(u, t, Expr::constant(1));
        b.call(a, u, &[]);
        b.call(u, a, &[]);
        let main = b.main();
        b.call(main, a, &[]);
        assert_matches_sequential(&b, 3);
    }

    #[test]
    fn disconnected_and_degenerate_shapes() {
        // Unreachable procedure plus an empty main body.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let dead = b.proc_("dead", &[]);
        b.assign(dead, g, Expr::constant(1));
        let _main = b.main();
        assert_matches_sequential(&b, 2);
    }
}
