//! The differential guarantee of the incremental engine.
//!
//! For generated programs and random edit scripts, after **every** prefix
//! of the script the engine's results must be bit-identical — every
//! intermediate (`IMOD`, `RMOD`/`RUSE`, `IMOD⁺`, `GMOD`/`GUSE`, and the
//! `ALIAS` relation the engine maintains across structural edits) and
//! every final per-site set — to a from-scratch [`Analyzer`] run on the
//! edited program, both single-threaded and with a worker pool. Rejected edits
//! must leave everything untouched (they are skipped, which also covers
//! the reject path). Replay a failure with
//! `MODREF_SEED=<seed> cargo test -p modref-incr --test incr_equiv`.

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_core::Analyzer;
use modref_incr::{EditGen, IncrementalEngine, IncrementalExt};
use modref_progen::{generate, GenConfig};

/// Compares everything the engine exposes against a scratch analysis of
/// its current program.
fn check_matches_scratch(
    engine: &IncrementalEngine,
    threads: usize,
    seed: u64,
    step: usize,
) -> CaseResult {
    let program = engine.program();
    let scratch = Analyzer::new().threads(threads).analyze(program);
    let Some(aliases) = engine.aliases() else {
        return CaseResult::Fail(format!(
            "no alias relation at step {step} / {threads} threads (seed {seed})"
        ));
    };
    for p in program.procs() {
        prop_assert!(
            aliases.same_pairs(scratch.aliases(), p),
            "ALIAS({}) diverged at step {} / {} threads (seed {}): {} pairs, scratch {}",
            p,
            step,
            threads,
            seed,
            aliases.pair_count(p),
            scratch.aliases().pair_count(p)
        );
        prop_assert_eq!(
            engine.imod(p),
            scratch.local_effects().imod(p),
            "IMOD({}) diverged at step {} / {} threads (seed {})",
            p,
            step,
            threads,
            seed
        );
        prop_assert_eq!(
            engine.iuse(p),
            scratch.local_effects().iuse(p),
            "IUSE({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
        prop_assert_eq!(
            engine.rmod(p),
            scratch.rmod(p),
            "RMOD({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
        prop_assert_eq!(
            engine.ruse(p),
            scratch.ruse(p),
            "RUSE({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
        prop_assert_eq!(
            engine.imod_plus(p),
            scratch.imod_plus(p),
            "IMOD+({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
        prop_assert_eq!(
            engine.iuse_plus(p),
            scratch.iuse_plus(p),
            "IUSE+({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
        prop_assert_eq!(
            engine.gmod(p),
            scratch.gmod(p),
            "GMOD({}) diverged at step {} / {} threads (seed {})",
            p,
            step,
            threads,
            seed
        );
        prop_assert_eq!(
            engine.guse(p),
            scratch.guse(p),
            "GUSE({}) diverged at step {} (seed {})",
            p,
            step,
            seed
        );
    }
    for s in program.sites() {
        prop_assert_eq!(
            engine.dmod_site(s),
            scratch.dmod_site(s),
            "DMOD({}) diverged at step {} (seed {})",
            s,
            step,
            seed
        );
        prop_assert_eq!(
            engine.duse_site(s),
            scratch.duse_site(s),
            "DUSE({}) diverged at step {} (seed {})",
            s,
            step,
            seed
        );
        prop_assert_eq!(
            engine.mod_site(s),
            scratch.mod_site(s),
            "MOD({}) diverged at step {} / {} threads (seed {})",
            s,
            step,
            threads,
            seed
        );
        prop_assert_eq!(
            engine.use_site(s),
            scratch.use_site(s),
            "USE({}) diverged at step {} (seed {})",
            s,
            step,
            seed
        );
    }
    CaseResult::Pass
}

/// Runs one random edit script against one engine, checking bit-identity
/// after the initial build and after every applied edit.
fn run_script(program: &modref_ir::Program, threads: usize, seed: u64, steps: usize) -> CaseResult {
    run_script_with(program, threads, seed, steps, false)
}

/// As [`run_script`], with `structural` selecting the churn-heavy edit
/// diet that hammers the dynamic-condensation patch path.
fn run_script_with(
    program: &modref_ir::Program,
    threads: usize,
    seed: u64,
    steps: usize,
    structural: bool,
) -> CaseResult {
    let mut engine = Analyzer::new()
        .threads(threads)
        .incremental(program.clone());
    match check_matches_scratch(&engine, threads, seed, 0) {
        CaseResult::Pass => {}
        other => return other,
    }
    // A distinct stream from the program generator's, but derived from
    // the same replayable seed.
    let mut gen = EditGen::new(seed ^ 0xed17_5c21_97a5_u64);
    for step in 1..=steps {
        let edit = if structural {
            gen.next_structural_edit(engine.program())
        } else {
            gen.next_edit(engine.program())
        };
        let before_gmod: Vec<_> = engine.gmod_all().to_vec();
        match engine.apply(&edit) {
            Ok(_) => {}
            Err(_) => {
                // A rejected edit must be a perfect no-op.
                prop_assert_eq!(
                    engine.gmod_all(),
                    &before_gmod[..],
                    "rejected edit mutated results at step {} (seed {})",
                    step,
                    seed
                );
                continue;
            }
        }
        match check_matches_scratch(&engine, threads, seed, step) {
            CaseResult::Pass => {}
            other => return other,
        }
    }
    CaseResult::Pass
}

property! {
    #![cases = 32]

    fn incremental_is_bit_identical_to_scratch_flat(
        seed in any_u64(),
        n in ints(2..14usize),
        steps in ints(1..33usize),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        for &threads in &[1usize, 4] {
            match run_script(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn incremental_is_bit_identical_to_scratch_nested(
        seed in any_u64(),
        n in ints(2..12usize),
        depth in ints(1..5u32),
        steps in ints(1..25usize),
    ) {
        let program = generate(&GenConfig::tiny(n, depth), seed);
        for &threads in &[1usize, 4] {
            match run_script(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    fn incremental_is_bit_identical_to_scratch_binding_heavy(
        seed in any_u64(),
        n in ints(2..10usize),
        params in ints(1..4usize),
        steps in ints(1..17usize),
    ) {
        let program = generate(&GenConfig::binding_heavy(n, params), seed);
        match run_script(&program, 1, seed, steps) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn incremental_is_bit_identical_to_scratch_pascal(
        seed in any_u64(),
        n in ints(4..24usize),
        depth in ints(2..5u32),
        steps in ints(1..21usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        for &threads in &[1usize, 4] {
            match run_script(&program, threads, seed, steps) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }

    /// The churn-heavy diet: mostly call/procedure edits, so nearly every
    /// apply exercises the dynamic-condensation patch path (merges,
    /// splits, window reorders) rather than the set-local fast path.
    fn incremental_is_bit_identical_under_structural_churn(
        seed in any_u64(),
        n in ints(2..12usize),
        depth in ints(1..4u32),
        steps in ints(4..29usize),
    ) {
        let program = generate(&GenConfig::tiny(n, depth), seed);
        for &threads in &[1usize, 4] {
            match run_script_with(&program, threads, seed, steps, true) {
                CaseResult::Pass => {}
                other => return other,
            }
        }
    }
}
