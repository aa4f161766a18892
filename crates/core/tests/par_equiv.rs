//! Differential equivalence of the parallel solver core.
//!
//! The parallel pipeline (`Analyzer::threads(N)`) swaps in a pooled local
//! scan, a pooled `RMOD` broadcast, the level-scheduled `GMOD` solver,
//! and pooled per-site projections. None of that may change a single bit:
//! for generated programs across three generator profiles, every
//! intermediate and final set of the analysis must be identical between
//! one thread and many. Replay a failure with
//! `MODREF_SEED=<seed> cargo test -p modref-core --test par_equiv`.

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::{solve_gmod_levels, Analyzer, BitSet, Summary};
use modref_ir::{CallGraph, ProcId, Program};
use modref_par::ThreadPool;
use modref_progen::{generate, GenConfig};

/// Checks bit-identity of everything the two summaries expose; returns
/// the first difference as a failure.
fn check_identical(program: &Program, threads: usize, seed: u64) -> CaseResult {
    let one = Analyzer::new().threads(1).analyze(program);
    let many = Analyzer::new().threads(threads).analyze(program);
    for p in program.procs() {
        prop_assert_eq!(
            one.gmod(p),
            many.gmod(p),
            "GMOD({}) differs at {} threads (seed {})",
            p,
            threads,
            seed
        );
        prop_assert_eq!(one.guse(p), many.guse(p), "GUSE({}) differs", p);
        prop_assert_eq!(one.rmod(p), many.rmod(p), "RMOD({}) differs", p);
        prop_assert_eq!(one.ruse(p), many.ruse(p), "RUSE({}) differs", p);
        prop_assert_eq!(one.imod_plus(p), many.imod_plus(p), "IMOD+({}) differs", p);
        prop_assert_eq!(one.iuse_plus(p), many.iuse_plus(p), "IUSE+({}) differs", p);
    }
    for s in program.sites() {
        prop_assert_eq!(one.dmod_site(s), many.dmod_site(s), "DMOD({}) differs", s);
        prop_assert_eq!(one.duse_site(s), many.duse_site(s), "DUSE({}) differs", s);
        prop_assert_eq!(one.mod_site(s), many.mod_site(s), "MOD({}) differs", s);
        prop_assert_eq!(one.use_site(s), many.use_site(s), "USE({}) differs", s);
    }
    CaseResult::Pass
}

property! {
    #![cases = 96]

    fn fortran_like_is_thread_count_invariant(
        seed in any_u64(),
        n in ints(2..40usize),
        threads in ints(2..9usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        match check_identical(&program, threads, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn pascal_like_is_thread_count_invariant(
        seed in any_u64(),
        n in ints(2..30usize),
        depth in ints(1..5u32),
        threads in ints(2..9usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        match check_identical(&program, threads, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn tiny_deeply_nested_is_thread_count_invariant(
        seed in any_u64(),
        n in ints(2..14usize),
        depth in ints(1..6u32),
    ) {
        let program = generate(&GenConfig::tiny(n, depth), seed);
        match check_identical(&program, 4, seed) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn explicit_level_scheduled_matches_default_sequential(
        seed in any_u64(),
        n in ints(2..24usize),
        depth in ints(0..4u32),
    ) {
        // The level-scheduled algorithm itself (not just the parallel
        // pipeline) must agree with the sequential default even on one
        // thread.
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        let default = Analyzer::new().threads(1).analyze(&program);
        let call_graph = CallGraph::build(&program);
        let locals = program.local_sets();
        let pool = ThreadPool::new(1);
        let seeds = |side: fn(&Summary, ProcId) -> &BitSet| -> Vec<BitSet> {
            program.procs().map(|p| side(&default, p).clone()).collect()
        };
        let gmod = solve_gmod_levels(
            &program,
            call_graph.graph(),
            &seeds(Summary::imod_plus),
            &locals,
            &pool,
        );
        let guse = solve_gmod_levels(
            &program,
            call_graph.graph(),
            &seeds(Summary::iuse_plus),
            &locals,
            &pool,
        );
        for p in program.procs() {
            prop_assert_eq!(default.gmod(p), gmod.gmod(p), "GMOD({}) differs", p);
            prop_assert_eq!(default.guse(p), guse.gmod(p), "GUSE({}) differs", p);
        }
    }
}
