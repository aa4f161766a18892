//! Shared helpers for the cross-crate integration and property tests.
//!
//! The heart of the suite is [`assert_pipeline_matches_oracle`]: run the
//! full linear-time pipeline and the exhaustive equation-(1) oracle on the
//! same program and require bit-for-bit agreement of `GMOD`, `RMOD`, and
//! per-site `DMOD` — for both the `MOD` and `USE` problems.

use modref_baselines::OracleSolution;
use modref_core::{
    solve_gmod_levels, solve_gmod_multi_fused, solve_gmod_multi_naive, solve_gmod_one_level,
    Analyzer, BitSet, GmodSolution, Summary,
};
use modref_ir::{CallGraph, LocalEffects, Program};
use modref_par::ThreadPool;

/// Runs the pipeline and compares every set against the oracle; the
/// `GMOD` solvers the pipeline picks between (one-level Figure 2 where
/// it is exact, fused multi-level, level-scheduled) and the naive
/// multi-level reference are each run directly on the pipeline's `IMOD⁺`
/// and compared too.
///
/// # Panics
///
/// Panics with a descriptive message on the first disagreement.
pub fn assert_pipeline_matches_oracle(program: &Program) -> Summary {
    let summary = Analyzer::new().analyze(program);
    let effects = LocalEffects::compute(program);

    let mod_oracle = OracleSolution::solve(program, effects.imod_all());
    compare_half(program, &summary, &mod_oracle, true);
    let use_oracle = OracleSolution::solve(program, effects.iuse_all());
    compare_half(program, &summary, &use_oracle, false);
    summary
}

fn compare_half(program: &Program, summary: &Summary, oracle: &OracleSolution, is_mod: bool) {
    let side = if is_mod { "MOD" } else { "USE" };
    let plus: Vec<BitSet> = program
        .procs()
        .map(|p| {
            if is_mod {
                summary.imod_plus(p).clone()
            } else {
                summary.iuse_plus(p).clone()
            }
        })
        .collect();
    let call_graph = CallGraph::build(program);
    let (graph, locals) = (call_graph.graph(), program.local_sets());
    let mut solvers: Vec<(&str, GmodSolution)> = vec![
        (
            "naive",
            solve_gmod_multi_naive(program, graph, &plus, &locals),
        ),
        (
            "fused",
            solve_gmod_multi_fused(program, graph, &plus, &locals),
        ),
        (
            "levels",
            solve_gmod_levels(program, graph, &plus, &locals, &ThreadPool::new(1)),
        ),
    ];
    if program.max_level() <= 1 {
        solvers.push((
            "one-level",
            solve_gmod_one_level(program, graph, &plus, &locals),
        ));
    }
    for p in program.procs() {
        let fast = if is_mod {
            summary.gmod(p)
        } else {
            summary.guse(p)
        };
        assert_eq!(
            fast,
            oracle.gmod(p),
            "{side}: G{side} mismatch at {p} ({})\nprogram:\n{}",
            program.proc_name(p),
            program.to_source()
        );
        for (name, solution) in &solvers {
            assert_eq!(
                solution.gmod(p),
                oracle.gmod(p),
                "{side}: {name} G{side} mismatch at {p} ({})\nprogram:\n{}",
                program.proc_name(p),
                program.to_source()
            );
        }
        let fast_r = if is_mod {
            summary.rmod(p)
        } else {
            summary.ruse(p)
        };
        assert_eq!(
            fast_r,
            &oracle.rmod(program, p),
            "{side}: R{side} mismatch at {p} ({})\nprogram:\n{}",
            program.proc_name(p),
            program.to_source()
        );
    }
    for s in program.sites() {
        let fast = if is_mod {
            summary.dmod_site(s)
        } else {
            summary.duse_site(s)
        };
        assert_eq!(
            fast,
            oracle.dmod_site(s),
            "{side}: D{side} mismatch at site {s}\nprogram:\n{}",
            program.to_source()
        );
    }
}
