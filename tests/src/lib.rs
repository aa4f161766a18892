//! Shared helpers for the cross-crate integration and property tests.
//!
//! The heart of the suite is [`assert_pipeline_matches_oracle`]: run the
//! full linear-time pipeline and the exhaustive equation-(1) oracle on the
//! same program and require bit-for-bit agreement of `GMOD`, `RMOD`, and
//! per-site `DMOD` — for both the `MOD` and `USE` problems.

use modref_baselines::OracleSolution;
use modref_core::{solve_gmod_multi_naive, Analyzer, BitSet, GmodAlgorithm, Summary};
use modref_ir::{CallGraph, LocalEffects, Program};

/// Runs the pipeline with the given `GMOD` algorithm and compares every
/// set against the oracle.
///
/// # Panics
///
/// Panics with a descriptive message on the first disagreement.
pub fn assert_pipeline_matches_oracle(program: &Program, algorithm: GmodAlgorithm) -> Summary {
    let summary = Analyzer::new().gmod_algorithm(algorithm).analyze(program);
    let effects = LocalEffects::compute(program);

    let mod_oracle = OracleSolution::solve(program, effects.imod_all());
    compare_half(program, &summary, &mod_oracle, true, algorithm);
    let use_oracle = OracleSolution::solve(program, effects.iuse_all());
    compare_half(program, &summary, &use_oracle, false, algorithm);
    summary
}

fn compare_half(
    program: &Program,
    summary: &Summary,
    oracle: &OracleSolution,
    is_mod: bool,
    algorithm: GmodAlgorithm,
) {
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
    let naive = solve_gmod_multi_naive(
        program,
        CallGraph::build(program).graph(),
        &plus,
        &program.local_sets(),
    );
    for p in program.procs() {
        let fast = if is_mod {
            summary.gmod(p)
        } else {
            summary.guse(p)
        };
        assert_eq!(
            fast,
            oracle.gmod(p),
            "{side}: G{side} mismatch at {p} ({}) with {algorithm:?}\nprogram:\n{}",
            program.proc_name(p),
            program.to_source()
        );
        assert_eq!(
            naive.gmod(p),
            oracle.gmod(p),
            "{side}: naive multi-level G{side} mismatch at {p} ({})\nprogram:\n{}",
            program.proc_name(p),
            program.to_source()
        );
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

/// The algorithms every program is checked under. The naive multi-level
/// reference, which no algorithm setting selects, is checked by every
/// [`assert_pipeline_matches_oracle`] call instead.
pub fn all_algorithms(program: &Program) -> Vec<GmodAlgorithm> {
    let mut algs = vec![GmodAlgorithm::MultiLevelFused];
    if program.max_level() <= 1 {
        algs.push(GmodAlgorithm::OneLevel);
    }
    algs
}
