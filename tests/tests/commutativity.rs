//! Dynamic validation of `Summary::may_interfere`: adjacent call
//! statements that the summaries prove non-interfering (and that perform
//! no I/O) can be swapped without changing program behaviour.

use modref_check::prelude::*;
use modref_core::Analyzer;
use modref_interp::Interpreter;
use modref_ir::{Program, Stmt};
use modref_progen::{generate, GenConfig};

/// Which procedures may perform I/O, directly or through calls.
fn io_procs(program: &Program) -> Vec<bool> {
    let mut direct = vec![false; program.num_procs()];
    for p in program.procs() {
        modref_ir::walk_stmts(program.proc_(p).body(), &mut |s| {
            if matches!(s, Stmt::Read { .. } | Stmt::Print { .. }) {
                direct[p.index()] = true;
            }
        });
    }
    // Propagate callee→caller to a fixpoint (tiny graphs; chaotic loop).
    let mut changed = true;
    while changed {
        changed = false;
        for s in program.sites() {
            let site = program.site(s);
            if direct[site.callee().index()] && !direct[site.caller().index()] {
                direct[site.caller().index()] = true;
                changed = true;
            }
        }
    }
    direct
}

/// Positions of adjacent `(Call, Call)` pairs at the top level of main.
fn adjacent_call_pairs(program: &Program) -> Vec<usize> {
    let body = program.proc_(program.main()).body();
    (0..body.len().saturating_sub(1))
        .filter(|&k| {
            matches!(body[k], Stmt::Call { .. }) && matches!(body[k + 1], Stmt::Call { .. })
        })
        .collect()
}

fn swap_in_main(program: &Program, k: usize) -> Program {
    program
        .map_bodies(|p, body| {
            let mut out = body.to_vec();
            if p == program.main() {
                out.swap(k, k + 1);
            }
            out
        })
        .expect("swapping two statements preserves validity")
}

property! {
    #![cases = 48]

    #[test]
    fn non_interfering_adjacent_calls_commute(
        seed in any_u64(),
        input_seed in any_u64(),
        n in ints(2..12usize),
    ) {
        let program = generate(&GenConfig::tiny(n, 2), seed);
        let summary = Analyzer::new().analyze(&program);
        let io = io_procs(&program);

        let body = program.proc_(program.main()).body().to_vec();
        for k in adjacent_call_pairs(&program) {
            let (Stmt::Call { site: s1 }, Stmt::Call { site: s2 }) = (&body[k], &body[k + 1])
            else {
                unreachable!()
            };
            let callee1 = program.site(*s1).callee();
            let callee2 = program.site(*s2).callee();
            if summary.may_interfere(*s1, *s2) || io[callee1.index()] || io[callee2.index()] {
                continue;
            }
            // Statement-level extra: by-value argument evaluation is a
            // caller-local read (LUSE of the call statement), so a write
            // by the other call to one of those variables still orders
            // the pair.
            let lu1 = modref_ir::luse_of_stmt(&program, &body[k]);
            let lu2 = modref_ir::luse_of_stmt(&program, &body[k + 1]);
            if !summary.mod_site(*s1).is_disjoint(&lu2)
                || !summary.mod_site(*s2).is_disjoint(&lu1)
            {
                continue;
            }
            let swapped = swap_in_main(&program, k);
            let before = Interpreter::new(&program, input_seed).with_fuel(15_000).run();
            let after = Interpreter::new(&swapped, input_seed).with_fuel(15_000).run();
            prop_assume!(!before.truncated && !after.truncated);
            prop_assert_eq!(
                &before.printed, &after.printed,
                "seed {}/{}: sites {} and {} declared independent but swapping \
                 them changed the output\n{}",
                seed, input_seed, s1, s2, program.to_source()
            );
        }
    }

    #[test]
    fn interference_is_symmetric(seed in any_u64(), n in ints(2..12usize)) {
        let program = generate(&GenConfig::tiny(n, 2), seed);
        let summary = Analyzer::new().analyze(&program);
        let sites: Vec<_> = program.sites().collect();
        for &a in &sites {
            for &b in &sites {
                prop_assert_eq!(
                    summary.may_interfere(a, b),
                    summary.may_interfere(b, a)
                );
            }
        }
    }
}
