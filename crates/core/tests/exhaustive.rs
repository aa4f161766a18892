//! Exhaustive small-world equivalence of every `GMOD` solver.
//!
//! The property suites sample; this file *enumerates*. For every call
//! multi-graph over up to four procedures — every subset of the possible
//! call edges, self-loops included where the count stays tractable — and
//! three body/binding configurations, all production solvers
//! (`findgmod`-style one-level where applicable, the naive and fused
//! multi-level drivers, and the level-scheduled parallel solver) must
//! agree bit-for-bit with the brute-force iterative baseline on
//! pipeline-derived seeds. The oracle is finite and fully covered — a
//! disagreement on *any* ≤4-procedure topology fails here, no sampling
//! luck involved.
//!
//! The same corpus doubles as the **representation-differential wall**:
//! the full pipeline run with `SetRepr::Hybrid` (and `Auto`) must be
//! bit-identical to the dense default on every enumerated topology and
//! on seeded generator sweeps at 1 and 4 threads. Replay a sweep failure
//! with `MODREF_SEED=<seed> cargo test -p modref-core --test exhaustive`.

use modref_bitset::BitSet;
use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::{
    solve_gmod_levels, solve_gmod_multi_fused, solve_gmod_multi_naive, solve_gmod_one_level,
    Analyzer, SetRepr, Summary,
};
use modref_ir::{CallGraph, Expr, LocalEffects, Program, ProgramBuilder};
use modref_par::ThreadPool;
use modref_progen::{generate, GenConfig};

/// All directed edge slots among `n` procedures (ordered pairs), with or
/// without self-loops.
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

/// The edges selected by `mask` over `slots`.
fn edges_of(slots: &[(usize, usize)], mask: u64) -> Vec<(usize, usize)> {
    slots
        .iter()
        .enumerate()
        .filter(|&(k, _)| mask & (1 << k) != 0)
        .map(|(_, &e)| e)
        .collect()
}

/// Pipeline-derived seeds (`IMOD⁺`) and `LOCAL` sets — the same inputs
/// the analyzer hands its `GMOD` stage.
fn seeds_of(program: &Program) -> (Vec<BitSet>, Vec<BitSet>) {
    let fx = LocalEffects::compute(program);
    let beta = modref_binding::BindingGraph::build(program);
    let rmod = modref_binding::solve_rmod(program, fx.imod_all(), &beta);
    let (plus, _) = modref_core::compute_imod_plus(program, fx.imod_all(), &rmod);
    (plus, program.local_sets())
}

/// Checks every solver against the iterative baseline on one program.
/// `ctx` names the instance for failure messages.
fn assert_solvers_agree(program: &Program, pool: &ThreadPool, ctx: &str) {
    let (seeds, locals) = seeds_of(program);
    let cg = CallGraph::build(program);
    let baseline = modref_baselines::iterative_gmod(program, cg.graph(), &seeds, &locals);
    let naive = solve_gmod_multi_naive(program, cg.graph(), &seeds, &locals);
    let fused = solve_gmod_multi_fused(program, cg.graph(), &seeds, &locals);
    let levels = solve_gmod_levels(program, cg.graph(), &seeds, &locals, pool);
    let one_level = (program.max_level() <= 1)
        .then(|| solve_gmod_one_level(program, cg.graph(), &seeds, &locals));
    for p in program.procs() {
        let want = baseline.gmod(p);
        assert_eq!(naive.gmod(p), want, "{ctx}: naive differs at {p}");
        assert_eq!(fused.gmod(p), want, "{ctx}: fused differs at {p}");
        assert_eq!(
            levels.gmod(p),
            want,
            "{ctx}: level-scheduled differs at {p}"
        );
        if let Some(one) = &one_level {
            assert_eq!(one.gmod(p), want, "{ctx}: findgmod differs at {p}");
        }
    }
}

/// Flat configuration: `n` parameterless procedures, each writing its own
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

/// Binding configuration: each procedure takes one reference formal and
/// writes it; edge `(i, j)` passes `pi`'s formal on to `pj`, so `RMOD`
/// must chase bindings through every cycle shape the mask encodes.
fn binding_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &["x"])).collect();
    for (i, &p) in procs.iter().enumerate() {
        // Only the *last* of the n procedures writes its formal: a mod
        // bit must travel the binding chain to be observed at all, which
        // is what distinguishes the graph shapes from one another.
        if i == n - 1 {
            b.assign(p, b.formal(p, 0), Expr::constant(1));
        }
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

/// Nested configuration: a lexical chain `main ⊃ p0 ⊃ p1 ⊃ …`, each
/// procedure writing one global and one local. Edges that violate
/// nesting visibility make the instance invalid — those are skipped, and
/// the test asserts the valid count so a validator regression (suddenly
/// rejecting or accepting everything) cannot pass silently.
fn nested_program(n: usize, edges: &[(usize, usize)]) -> Option<Program> {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let mut procs = Vec::with_capacity(n);
    let mut parent = b.main();
    for i in 0..n {
        let p = b.nested_proc(parent, &format!("p{i}"), &[]);
        procs.push(p);
        parent = p;
    }
    for (i, &p) in procs.iter().enumerate() {
        b.assign(p, globals[i], Expr::constant(1));
    }
    let main = b.main();
    b.call(main, procs[0], &[]);
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[]);
    }
    b.finish().ok()
}

#[test]
fn all_call_graphs_up_to_three_procs_with_self_loops_flat() {
    let pool = ThreadPool::with_threads(Some(2));
    let mut instances = 0usize;
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            let program = flat_program(n, &edges);
            assert_solvers_agree(&program, &pool, &format!("flat n={n} mask={mask:#x}"));
            instances += 1;
        }
    }
    // 2 + 16 + 512: the enumeration itself is part of the contract.
    assert_eq!(instances, 530, "the small-world enumeration shrank");
}

#[test]
fn all_call_graphs_of_four_procs_flat() {
    let pool = ThreadPool::with_threads(Some(2));
    let slots = edge_slots(4, false);
    assert_eq!(slots.len(), 12);
    for mask in 0..(1u64 << slots.len()) {
        let edges = edges_of(&slots, mask);
        let program = flat_program(4, &edges);
        assert_solvers_agree(&program, &pool, &format!("flat n=4 mask={mask:#x}"));
    }
}

#[test]
fn all_call_graphs_up_to_three_procs_with_self_loops_binding() {
    let pool = ThreadPool::with_threads(Some(2));
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            let program = binding_program(n, &edges);
            assert_solvers_agree(&program, &pool, &format!("binding n={n} mask={mask:#x}"));
        }
    }
}

#[test]
fn all_call_graphs_of_four_procs_binding() {
    let pool = ThreadPool::with_threads(Some(2));
    let slots = edge_slots(4, false);
    for mask in 0..(1u64 << slots.len()) {
        let edges = edges_of(&slots, mask);
        let program = binding_program(4, &edges);
        assert_solvers_agree(&program, &pool, &format!("binding n=4 mask={mask:#x}"));
    }
}

#[test]
fn all_visible_call_graphs_up_to_three_procs_nested() {
    let pool = ThreadPool::with_threads(Some(2));
    let mut valid = 0usize;
    let mut skipped = 0usize;
    for n in 2..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            match nested_program(n, &edges) {
                Some(program) => {
                    assert_solvers_agree(&program, &pool, &format!("nested n={n} mask={mask:#x}"));
                    valid += 1;
                }
                None => skipped += 1,
            }
        }
    }
    // In a strict lexical chain only p0 → p2 is invisible (n = 3), so at
    // least the n = 2 enumeration (all 16) and the n = 3 masks avoiding
    // that one slot (2^9 − 2^8 = 256) must validate. If this floor is
    // missed, the visibility validator changed out from under the test.
    assert!(
        valid >= 16 + 256,
        "only {valid} nested instances validated ({skipped} skipped)"
    );
    assert!(skipped > 0, "some nested edges must be invisible");
}

// ── Representation-differential wall ────────────────────────────────────
//
// Everything below runs the *whole* pipeline twice — dense and hybrid —
// and demands bit-identity on every set either summary exposes. The
// dense run is the byte-identical historical output; the hybrid run
// exercises the `EffectSet`-generic solver stack end to end.

/// Asserts every set the two summaries expose is identical.
fn assert_summaries_identical(want: &Summary, got: &Summary, program: &Program, ctx: &str) {
    for p in program.procs() {
        assert_eq!(want.rmod(p), got.rmod(p), "{ctx}: RMOD({p}) differs");
        assert_eq!(want.ruse(p), got.ruse(p), "{ctx}: RUSE({p}) differs");
        assert_eq!(
            want.imod_plus(p),
            got.imod_plus(p),
            "{ctx}: IMOD+({p}) differs"
        );
        assert_eq!(
            want.iuse_plus(p),
            got.iuse_plus(p),
            "{ctx}: IUSE+({p}) differs"
        );
        assert_eq!(want.gmod(p), got.gmod(p), "{ctx}: GMOD({p}) differs");
        assert_eq!(want.guse(p), got.guse(p), "{ctx}: GUSE({p}) differs");
    }
    for s in program.sites() {
        assert_eq!(
            want.dmod_site(s),
            got.dmod_site(s),
            "{ctx}: DMOD({s}) differs"
        );
        assert_eq!(
            want.duse_site(s),
            got.duse_site(s),
            "{ctx}: DUSE({s}) differs"
        );
        assert_eq!(want.mod_site(s), got.mod_site(s), "{ctx}: MOD({s}) differs");
        assert_eq!(want.use_site(s), got.use_site(s), "{ctx}: USE({s}) differs");
    }
}

/// Runs the pipeline dense and hybrid (at each of `thread_counts`) plus
/// `Auto`, asserting bit-identity everywhere.
fn assert_reprs_agree(program: &Program, thread_counts: &[usize], ctx: &str) {
    let dense = Analyzer::new().set_repr(SetRepr::Dense).analyze(program);
    for &threads in thread_counts {
        let hybrid = Analyzer::new()
            .set_repr(SetRepr::Hybrid)
            .threads(threads)
            .analyze(program);
        assert_summaries_identical(
            &dense,
            &hybrid,
            program,
            &format!("{ctx} hybrid threads={threads}"),
        );
    }
    // `Auto` resolves per universe size; whichever representation it
    // picks, the answer may not move a bit.
    let auto = Analyzer::new().set_repr(SetRepr::Auto).analyze(program);
    assert_summaries_identical(&dense, &auto, program, &format!("{ctx} auto"));
}

#[test]
fn hybrid_matches_dense_on_all_small_topologies() {
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            assert_reprs_agree(
                &flat_program(n, &edges),
                &[1, 4],
                &format!("flat n={n} mask={mask:#x}"),
            );
            assert_reprs_agree(
                &binding_program(n, &edges),
                &[1, 4],
                &format!("binding n={n} mask={mask:#x}"),
            );
            if n >= 2 {
                if let Some(program) = nested_program(n, &edges) {
                    assert_reprs_agree(&program, &[1, 4], &format!("nested n={n} mask={mask:#x}"));
                }
            }
        }
    }
}

#[test]
fn hybrid_matches_dense_on_all_four_proc_topologies() {
    let slots = edge_slots(4, false);
    for mask in 0..(1u64 << slots.len()) {
        let edges = edges_of(&slots, mask);
        assert_reprs_agree(
            &flat_program(4, &edges),
            &[1],
            &format!("flat n=4 mask={mask:#x}"),
        );
        assert_reprs_agree(
            &binding_program(4, &edges),
            &[1],
            &format!("binding n=4 mask={mask:#x}"),
        );
    }
}

/// A program whose variable universe exceeds [`modref_bitset::AUTO_DENSE_DOMAIN`],
/// so `SetRepr::Auto` genuinely resolves to the hybrid representation
/// (on the small enumerated worlds above it always resolves dense).
fn wide_program() -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..1200).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..4).map(|i| b.proc_(&format!("p{i}"), &["x"])).collect();
    for (i, &p) in procs.iter().enumerate() {
        // Each procedure touches a sparse scatter of the wide universe.
        for k in 0..5 {
            b.assign(
                p,
                globals[(i * 97 + k * 251) % globals.len()],
                Expr::constant(1),
            );
        }
        b.assign(p, b.formal(p, 0), Expr::constant(1));
    }
    let main = b.main();
    for (i, &p) in procs.iter().enumerate() {
        b.call(main, p, &[globals[i]]);
    }
    // A cycle plus a binding chain so RMOD, GMOD SCCs, and DMOD all fire.
    b.call(procs[0], procs[1], &[b.formal(procs[0], 0)]);
    b.call(procs[1], procs[2], &[b.formal(procs[1], 0)]);
    b.call(procs[2], procs[0], &[b.formal(procs[2], 0)]);
    b.call(procs[2], procs[3], &[globals[500]]);
    b.finish().expect("the wide program is valid")
}

#[test]
fn auto_resolves_hybrid_past_the_dense_domain_and_stays_identical() {
    let program = wide_program();
    assert!(
        SetRepr::Auto.use_hybrid(program.num_vars(), None),
        "the wide program must push Auto over the dense-domain threshold \
         (num_vars = {})",
        program.num_vars()
    );
    assert_reprs_agree(&program, &[1, 4], "wide");
}

/// Property-sweep twin of [`assert_reprs_agree`]: reports the first
/// difference as a shrinkable failure instead of panicking.
fn check_reprs_agree(program: &Program, threads: usize, seed: u64) -> CaseResult {
    let dense = Analyzer::new().set_repr(SetRepr::Dense).analyze(program);
    let hybrid = Analyzer::new()
        .set_repr(SetRepr::Hybrid)
        .threads(threads)
        .analyze(program);
    for p in program.procs() {
        prop_assert_eq!(
            dense.gmod(p),
            hybrid.gmod(p),
            "GMOD({}) differs dense/hybrid at {} threads (seed {})",
            p,
            threads,
            seed
        );
        prop_assert_eq!(dense.guse(p), hybrid.guse(p), "GUSE({}) differs", p);
        prop_assert_eq!(dense.rmod(p), hybrid.rmod(p), "RMOD({}) differs", p);
        prop_assert_eq!(dense.ruse(p), hybrid.ruse(p), "RUSE({}) differs", p);
        prop_assert_eq!(
            dense.imod_plus(p),
            hybrid.imod_plus(p),
            "IMOD+({}) differs",
            p
        );
        prop_assert_eq!(
            dense.iuse_plus(p),
            hybrid.iuse_plus(p),
            "IUSE+({}) differs",
            p
        );
    }
    for s in program.sites() {
        prop_assert_eq!(
            dense.dmod_site(s),
            hybrid.dmod_site(s),
            "DMOD({}) differs",
            s
        );
        prop_assert_eq!(
            dense.duse_site(s),
            hybrid.duse_site(s),
            "DUSE({}) differs",
            s
        );
        prop_assert_eq!(dense.mod_site(s), hybrid.mod_site(s), "MOD({}) differs", s);
        prop_assert_eq!(dense.use_site(s), hybrid.use_site(s), "USE({}) differs", s);
    }
    CaseResult::Pass
}

property! {
    #![cases = 48]

    fn hybrid_matches_dense_on_generated_fortran(
        seed in any_u64(),
        n in ints(2..32usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        for &threads in &[1usize, 4] {
            match check_reprs_agree(&program, threads, seed) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn hybrid_matches_dense_on_generated_pascal(
        seed in any_u64(),
        n in ints(2..24usize),
        depth in ints(1..5u32),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        for &threads in &[1usize, 4] {
            match check_reprs_agree(&program, threads, seed) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn hybrid_matches_dense_on_generated_binding_heavy(
        seed in any_u64(),
        n in ints(2..12usize),
        params in ints(1..4usize),
    ) {
        let program = generate(&GenConfig::binding_heavy(n, params), seed);
        match check_reprs_agree(&program, 1, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }
}
