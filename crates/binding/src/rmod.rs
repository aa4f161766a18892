//! The Figure 1 `RMOD` solver.

use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_graph::{tarjan, Condensation};
use modref_guard::{Guard, Interrupt, Strided};
use modref_ir::{ProcId, Program, VarId};

use crate::multigraph::BindingGraph;

/// Charges the counter delta since `last` against the guard and advances
/// the snapshot — budget enforcement in exactly the units the stats report.
fn settle(guard: &Guard, stats: &OpCounter, last: &mut OpCounter) {
    let d = stats.delta_since(last);
    guard.charge(d.bitvec_steps, d.bool_steps);
    *last = *stats;
}

/// The solution of the reference-formal-parameter problem: for each
/// procedure `p`, `RMOD(p)` — the formals of `p` that may be modified by
/// an invocation of `p` (§3.2).
#[derive(Debug, Clone)]
pub struct RmodSolutionIn<S: EffectSet> {
    rmod: Vec<S>,
    modified: S,
    stats: OpCounter,
}

/// [`RmodSolutionIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type RmodSolution = RmodSolutionIn<BitSet>;

impl<S: EffectSet> RmodSolutionIn<S> {
    /// `RMOD(p)` as a set over the program's variable universe; only bits
    /// of `p`'s formals can be set.
    pub fn rmod(&self, p: ProcId) -> &S {
        &self.rmod[p.index()]
    }

    /// All `RMOD` sets, indexed by procedure.
    pub fn rmod_all(&self) -> &[S] {
        &self.rmod
    }

    /// `true` if the formal parameter `formal` may be modified by an
    /// invocation of its owner. `false` for non-formals.
    pub fn is_modified(&self, formal: VarId) -> bool {
        self.modified.contains(formal.index())
    }

    /// The sound over-approximation used when the Figure 1 solver is cut
    /// short: every reference formal of every procedure is assumed
    /// modified. `RMOD` ranges over formals only, so this is the top of
    /// its lattice.
    pub fn conservative(program: &Program) -> Self {
        let nv = program.num_vars();
        let mut rmod = vec![S::empty(nv); program.num_procs()];
        let mut modified = S::empty(nv);
        for p in program.procs() {
            for &f in program.proc_(p).formals() {
                rmod[p.index()].insert(f.index());
                modified.insert(f.index());
            }
        }
        RmodSolutionIn {
            rmod,
            modified,
            stats: OpCounter::new(),
        }
    }

    /// Work performed, in the paper's cost model (§3.2 counts *simple
    /// logical steps*, reported as `bool_steps`).
    pub fn stats(&self) -> OpCounter {
        self.stats
    }
}

/// Solves equation (6) by the four steps of Figure 1:
///
/// 1. find the strongly connected components of `β`;
/// 2. give each SCC a representer whose `IMOD` is the OR of its members';
/// 3. sweep the condensation from leaves to roots applying
///    `RMOD(m) = IMOD(m) ∨ ⋁_{(m,n)∈E_β} RMOD(n)`;
/// 4. broadcast each representer's value back to its members.
///
/// Every step is `O(N_β + E_β)`; the counter in the result records the
/// actual boolean-step totals so experiments can verify linearity.
///
/// `initial` holds one seed set per procedure: for the `MOD` problem the
/// (§3.3-extended) `IMOD(p)` sets, for the analogous `USE` problem the
/// `IUSE(p)` sets. Only the bits of each procedure's own formals are read.
///
/// # Panics
///
/// Panics if `initial.len() != program.num_procs()`.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn solve_rmod<S: EffectSet>(
    program: &Program,
    initial: &[S],
    beta: &BindingGraph,
) -> RmodSolutionIn<S> {
    solve_rmod_traced(
        program,
        initial,
        beta,
        &modref_par::ThreadPool::new(1),
        &Guard::unlimited(),
        &modref_trace::Trace::disabled(),
    )
    .expect("an unlimited guard cannot interrupt the solver")
}

/// [`solve_rmod`] on a thread pool, under a cooperative [`Guard`],
/// recording into a trace.
///
/// Step (4) — the per-formal broadcast that materialises the `RMOD(p)`
/// sets — fans out over `pool`, one task per procedure. Steps (1)–(3) are
/// a single `O(N_β + E_β)` boolean sweep and stay sequential. A
/// procedure's set depends only on the (by then final) representer
/// values, so the output is identical to [`solve_rmod`] at any thread
/// count; a sequential pool takes the exact sequential path.
///
/// The solver polls `guard` at its entry checkpoint (`"rmod"`), at
/// inner-loop strides, and between pool chunks, charging its boolean
/// steps against the budget as it goes.
///
/// `trace` gets one span per Figure 1 stage — `rmod.seed` (per-node
/// `IMOD` bits), `rmod.sccs` (step 1), `rmod.sweep` (steps 2–3 over the
/// condensation), and `rmod.broadcast` (step 4) — each annotated with
/// its share of the solver's boolean steps. Tracing only observes.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] on a trip; the remaining work is
/// abandoned and partial results are discarded (the caller substitutes
/// the conservative summary).
pub fn solve_rmod_traced<S: EffectSet>(
    program: &Program,
    initial: &[S],
    beta: &BindingGraph,
    pool: &modref_par::ThreadPool,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<RmodSolutionIn<S>, Interrupt> {
    assert_eq!(
        initial.len(),
        program.num_procs(),
        "one initial set per procedure"
    );
    guard.checkpoint("rmod")?;
    let mut stats = OpCounter::new();
    let mut last = OpCounter::new();
    let mut stride = Strided::new(512);
    let n = beta.num_nodes();

    let imod_bit = {
        let mut span = trace.span("rmod.seed");
        let seeds = rmod_seed(program, initial, beta, &mut stride, guard, &mut stats)?;
        span.arg("beta_nodes", n as u64);
        span.arg("bool_steps", stats.bool_steps);
        seeds
    };
    settle(guard, &stats, &mut last);

    // Step (1): SCCs.
    let sccs = {
        let mut span = trace.span("rmod.sccs");
        let sccs = tarjan(beta.graph());
        span.arg("components", sccs.len() as u64);
        span.arg("beta_edges", beta.num_edges() as u64);
        sccs
    };
    stats.nodes_visited += n as u64;
    stats.edges_visited += beta.num_edges() as u64;
    settle(guard, &stats, &mut last);
    guard.check()?;

    // Steps (2)-(3) over the condensation.
    let before_sweep = stats.bool_steps;
    let mut sweep_span = trace.span("rmod.sweep");

    // Step (2): representer IMOD = OR over members.
    let mut rep_value = vec![false; sccs.len()];
    for (c, members) in sccs.iter().enumerate() {
        for &m in members {
            stride.tick(guard)?;
            rep_value[c] |= imod_bit[m];
            stats.bool_steps += 1;
        }
    }

    // Step (3): leaves-to-roots sweep of equation (6). Tarjan numbers
    // components in reverse topological order, so ascending id order *is*
    // leaves first, and every successor is already final.
    let cond = Condensation::build(beta.graph(), &sccs);
    for c in 0..sccs.len() {
        stride.tick(guard)?;
        for d in cond.graph().successor_nodes(c) {
            rep_value[c] |= rep_value[d];
            stats.bool_steps += 1;
            stats.edges_visited += 1;
        }
    }
    sweep_span.arg("bool_steps", stats.bool_steps - before_sweep);
    drop(sweep_span);
    settle(guard, &stats, &mut last);

    // Step (4): broadcast to members, materialising per-procedure sets.
    let before_broadcast = stats.bool_steps;
    let mut broadcast_span = trace.span("rmod.broadcast");
    broadcast_span.arg("pooled", u64::from(!pool.is_sequential()));
    let (rmod, modified) = rmod_broadcast(
        program,
        initial,
        beta,
        |node| rep_value[sccs.component_of(node)],
        pool,
        &mut stride,
        guard,
        &mut stats,
    )?;
    if !pool.is_sequential() {
        settle(guard, &stats, &mut last);
        guard.check()?;
    }
    broadcast_span.arg("bool_steps", stats.bool_steps - before_broadcast);
    drop(broadcast_span);

    Ok(RmodSolutionIn {
        rmod,
        modified,
        stats,
    })
}

/// Figure 1's seed: for each β node, whether its formal is in its
/// owner's `initial` set — `IMOD(fp)` with the §3.3 nesting extension
/// already folded into `initial`. Counts one boolean step and one node
/// visit per node in `stats` and polls `guard` every `stride` ticks; the
/// caller charges the steps.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a poll finds it tripped.
pub fn rmod_seed<S: EffectSet>(
    program: &Program,
    initial: &[S],
    beta: &BindingGraph,
    stride: &mut Strided,
    guard: &Guard,
    stats: &mut OpCounter,
) -> Result<Vec<bool>, Interrupt> {
    let n = beta.num_nodes();
    let mut seeds = Vec::with_capacity(n);
    for node in 0..n {
        stride.tick(guard)?;
        let formal = beta.formal_of_node(node);
        let (owner, _) = program
            .formal_position(formal)
            .expect("β nodes are formals");
        stats.bool_steps += 1;
        stats.nodes_visited += 1;
        seeds.push(initial[owner.index()].contains(formal.index()));
    }
    Ok(seeds)
}

/// Figure 1's step (4): broadcasts each β node's final value
/// (`in_rmod(node)`) to its formal, materialising every `RMOD(p)` and
/// their union. Formals never bound at any site have no β node; their
/// bit is their `initial` bit. Counts one boolean step per visited node
/// and formal in `stats`; the caller charges them.
///
/// A pooled `pool` runs one task per procedure, each writing only its own
/// set from the final node values, so the sets match the sequential
/// sweep exactly. Workers drop out between chunks once the guard trips;
/// a direct poll inside the body turns a passed deadline into a trip
/// even while every thread is busy here.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a poll finds it tripped.
#[allow(clippy::too_many_arguments)]
pub fn rmod_broadcast<S: EffectSet>(
    program: &Program,
    initial: &[S],
    beta: &BindingGraph,
    in_rmod: impl Fn(usize) -> bool + Sync,
    pool: &modref_par::ThreadPool,
    stride: &mut Strided,
    guard: &Guard,
    stats: &mut OpCounter,
) -> Result<(Vec<S>, S), Interrupt> {
    let nv = program.num_vars();
    let mut modified = S::empty(nv);
    if pool.is_sequential() {
        let mut rmod = vec![S::empty(nv); program.num_procs()];
        for node in 0..beta.num_nodes() {
            stride.tick(guard)?;
            stats.bool_steps += 1;
            if in_rmod(node) {
                let formal = beta.formal_of_node(node);
                let (owner, _) = program.formal_position(formal).expect("formal");
                rmod[owner.index()].insert(formal.index());
                modified.insert(formal.index());
            }
        }
        for p in program.procs() {
            stride.tick(guard)?;
            for &f in program.proc_(p).formals() {
                stats.bool_steps += 1;
                if beta.node_of_formal(f).is_none() && initial[p.index()].contains(f.index()) {
                    rmod[p.index()].insert(f.index());
                    modified.insert(f.index());
                }
            }
        }
        return Ok((rmod, modified));
    }
    let results: Vec<Option<(S, u64)>> = pool.par_map_while(
        program.num_procs(),
        || !guard.should_stop(),
        |pi| {
            if pi % 64 == 0 {
                let _ = guard.check();
            }
            let p = ProcId::new(pi);
            let mut set = S::empty(nv);
            let mut steps = 0u64;
            for &f in program.proc_(p).formals() {
                steps += 1;
                let bit = match beta.node_of_formal(f) {
                    Some(node) => in_rmod(node),
                    None => initial[pi].contains(f.index()),
                };
                if bit {
                    set.insert(f.index());
                }
            }
            (set, steps)
        },
    );
    let mut rmod = Vec::with_capacity(program.num_procs());
    for slot in results {
        let Some((set, steps)) = slot else {
            guard.check()?;
            return Err(guard.interrupt().unwrap_or(Interrupt::Halted));
        };
        stats.bool_steps += steps;
        modified.union_with(&set);
        rmod.push(set);
    }
    Ok((rmod, modified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::{Expr, LocalEffects, ProgramBuilder};

    fn analyse(b: &ProgramBuilder) -> (Program, RmodSolution) {
        let program = b.finish().expect("valid");
        let effects = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let solution = solve_rmod(&program, effects.imod_all(), &beta);
        (program, solution)
    }

    #[test]
    fn direct_modification_without_bindings() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x", "y"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        let g = b.global("g");
        let main = b.main();
        b.call(main, p, &[g, g]);
        let (_, sol) = analyse(&b);
        assert!(sol.is_modified(b.formal(p, 0)));
        assert!(!sol.is_modified(b.formal(p, 1)));
    }

    #[test]
    fn chain_propagates_backwards() {
        // main → a(x) → b(y) → c(z); only c writes z.
        let mut b = ProgramBuilder::new();
        let c = b.proc_("c", &["z"]);
        b.assign(c, b.formal(c, 0), Expr::constant(1));
        let bb = b.proc_("b", &["y"]);
        b.call(bb, c, &[b.formal(bb, 0)]);
        let a = b.proc_("a", &["x"]);
        b.call(a, bb, &[b.formal(a, 0)]);
        let g = b.global("g");
        let main = b.main();
        b.call(main, a, &[g]);
        let (_, sol) = analyse(&b);
        assert!(sol.is_modified(b.formal(a, 0)));
        assert!(sol.is_modified(b.formal(bb, 0)));
        assert!(sol.is_modified(b.formal(c, 0)));
    }

    #[test]
    fn chain_stops_where_nothing_is_modified() {
        // a(x) → b(y); b never writes y.
        let mut b = ProgramBuilder::new();
        let bb = b.proc_("b", &["y"]);
        b.print(bb, Expr::load(b.formal(bb, 0)));
        let a = b.proc_("a", &["x"]);
        b.call(a, bb, &[b.formal(a, 0)]);
        let g = b.global("g");
        let main = b.main();
        b.call(main, a, &[g]);
        let (_, sol) = analyse(&b);
        assert!(!sol.is_modified(b.formal(a, 0)));
        assert!(!sol.is_modified(b.formal(bb, 0)));
    }

    #[test]
    fn cycle_shares_one_answer() {
        // Mutual recursion p(x) ⇄ q(y); only q writes.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let q = b.proc_("q", &["y"]);
        b.call(p, q, &[b.formal(p, 0)]);
        b.call(q, p, &[b.formal(q, 0)]);
        b.assign(q, b.formal(q, 0), Expr::constant(7));
        let g = b.global("g");
        let main = b.main();
        b.call(main, p, &[g]);
        let (_, sol) = analyse(&b);
        assert!(sol.is_modified(b.formal(p, 0)));
        assert!(sol.is_modified(b.formal(q, 0)));
    }

    #[test]
    fn clean_cycle_stays_unmodified() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let q = b.proc_("q", &["y"]);
        b.call(p, q, &[b.formal(p, 0)]);
        b.call(q, p, &[b.formal(q, 0)]);
        let g = b.global("g");
        let main = b.main();
        b.call(main, p, &[g]);
        let (_, sol) = analyse(&b);
        assert!(!sol.is_modified(b.formal(p, 0)));
        assert!(!sol.is_modified(b.formal(q, 0)));
    }

    #[test]
    fn rmod_contains_only_own_formals() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let q = b.proc_("q", &["y"]);
        b.call(p, q, &[b.formal(p, 0)]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let g = b.global("g");
        let main = b.main();
        b.call(main, p, &[g]);
        let (program, sol) = analyse(&b);
        for proc_ in program.procs() {
            for v in sol.rmod(proc_).iter() {
                let (owner, _) = program
                    .formal_position(modref_ir::VarId::new(v))
                    .expect("rmod holds formals only");
                assert_eq!(owner, proc_);
            }
        }
        assert_eq!(sol.rmod(main).len(), 0);
    }

    #[test]
    fn modification_via_nested_procedure_counts() {
        // §3.3 point 1: p's formal written inside a procedure nested in p.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let inner = b.nested_proc(p, "inner", &[]);
        b.assign(inner, b.formal(p, 0), Expr::constant(3));
        b.call(p, inner, &[]);
        let g = b.global("g");
        let main = b.main();
        b.call(main, p, &[g]);
        let (_, sol) = analyse(&b);
        assert!(sol.is_modified(b.formal(p, 0)));
    }

    #[test]
    fn guarded_solver_matches_unguarded_and_trips_on_zero_budget() {
        let mut b = ProgramBuilder::new();
        let c = b.proc_("c", &["z"]);
        b.assign(c, b.formal(c, 0), Expr::constant(1));
        let a = b.proc_("a", &["x"]);
        b.call(a, c, &[b.formal(a, 0)]);
        let g = b.global("g");
        let main = b.main();
        b.call(main, a, &[g]);
        let program = b.finish().expect("valid");
        let effects = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let pool = modref_par::ThreadPool::new(1);

        let plain = solve_rmod(&program, effects.imod_all(), &beta);
        let trace = modref_trace::Trace::disabled();
        let guarded = solve_rmod_traced(
            &program,
            effects.imod_all(),
            &beta,
            &pool,
            &Guard::unlimited(),
            &trace,
        )
        .expect("unlimited");
        for p in program.procs() {
            assert_eq!(plain.rmod(p), guarded.rmod(p));
        }
        assert_eq!(plain.stats(), guarded.stats());

        let tight = Guard::new(&modref_guard::Budget::unlimited().with_bool_steps(0));
        let err = solve_rmod_traced(&program, effects.imod_all(), &beta, &pool, &tight, &trace)
            .expect_err("zero budget must trip");
        assert_eq!(err, Interrupt::BoolBudget);
    }

    #[test]
    fn pooled_broadcast_matches_sequential() {
        // Mixed shapes: a modified chain, a clean formal, an unbound
        // formal whose RMOD bit comes straight from IMOD.
        let mut b = ProgramBuilder::new();
        let c = b.proc_("c", &["z"]);
        b.assign(c, b.formal(c, 0), Expr::constant(1));
        let a = b.proc_("a", &["x", "y"]);
        b.call(a, c, &[b.formal(a, 0)]);
        let u = b.proc_("unbound", &["w"]);
        b.assign(u, b.formal(u, 0), Expr::constant(2));
        let g = b.global("g");
        let main = b.main();
        b.call(main, a, &[g, g]);
        let program = b.finish().expect("valid");
        let effects = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);

        let seq = solve_rmod(&program, effects.imod_all(), &beta);
        for threads in [2, 4] {
            let pool = modref_par::ThreadPool::new(threads);
            let par = solve_rmod_traced(
                &program,
                effects.imod_all(),
                &beta,
                &pool,
                &Guard::unlimited(),
                &modref_trace::Trace::disabled(),
            )
            .expect("unlimited");
            for p in program.procs() {
                assert_eq!(seq.rmod(p), par.rmod(p), "rmod({p}) differs");
            }
            assert!(par.is_modified(b.formal(u, 0)));
            assert!(par.is_modified(b.formal(a, 0)));
            assert!(!par.is_modified(b.formal(a, 1)));
        }
    }

    #[test]
    fn work_is_linear_in_beta() {
        // A long chain: bool steps should grow linearly with its length.
        fn chain(len: usize) -> u64 {
            let mut b = ProgramBuilder::new();
            let mut procs = Vec::new();
            for i in 0..len {
                procs.push(b.proc_(&format!("p{i}"), &["x"]));
            }
            b.assign(
                procs[len - 1],
                b.formal(procs[len - 1], 0),
                Expr::constant(1),
            );
            for i in 0..len - 1 {
                b.call(procs[i], procs[i + 1], &[b.formal(procs[i], 0)]);
            }
            let g = b.global("g");
            let main = b.main();
            b.call(main, procs[0], &[g]);
            let program = b.finish().expect("valid");
            let effects = LocalEffects::compute(&program);
            let beta = BindingGraph::build(&program);
            solve_rmod(&program, effects.imod_all(), &beta)
                .stats()
                .bool_steps
        }
        let small = chain(50);
        let large = chain(500);
        let ratio = large as f64 / small as f64;
        assert!(
            (8.0..12.0).contains(&ratio),
            "expected ~10x work for 10x size, got {ratio:.2} ({small} → {large})"
        );
    }
}
