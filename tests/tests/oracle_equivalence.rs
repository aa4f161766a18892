//! Property tests: the linear-time pipeline equals the exhaustive
//! equation-(1) oracle on random programs, and so does every `GMOD`
//! solver the pipeline picks between.

use modref_check::prelude::*;
use modref_progen::{generate, GenConfig};
use modref_tests::assert_pipeline_matches_oracle;

property! {
    #![cases = 48]

    #[test]
    fn flat_random_programs_match_oracle(seed in any_u64(), n in ints(2..14usize)) {
        let program = generate(&GenConfig::tiny(n, 1), seed);
        assert_pipeline_matches_oracle(&program);
    }

    #[test]
    fn nested_random_programs_match_oracle(
        seed in any_u64(),
        n in ints(2..14usize),
        depth in ints(2..5u32),
    ) {
        let program = generate(&GenConfig::tiny(n, depth), seed);
        assert_pipeline_matches_oracle(&program);
    }

    #[test]
    fn binding_heavy_programs_match_oracle(seed in any_u64(), n in ints(2..10usize)) {
        let program = generate(&GenConfig::binding_heavy(n, 3), seed);
        assert_pipeline_matches_oracle(&program);
    }

    #[test]
    fn unreachable_heavy_programs_match_oracle_after_pruning(
        seed in any_u64(),
        n in ints(2..12usize),
    ) {
        // Reachability off: lots of dead procedures. The paper's standing
        // assumption is that unreachable procedures are eliminated first;
        // after pruning, pipeline and oracle agree exactly.
        let cfg = GenConfig {
            ensure_reachable: false,
            ..GenConfig::tiny(n, 2)
        };
        let raw = generate(&cfg, seed);
        let program = raw.without_unreachable().program;
        assert_pipeline_matches_oracle(&program);

        // On the *unpruned* program the pipeline may only be conservative:
        // a superset of the oracle (the §3.3 conventions assume nested
        // procedures run whenever their parent does).
        let summary = modref_core::Analyzer::new().analyze(&raw);
        let fx = modref_ir::LocalEffects::compute(&raw);
        let oracle = modref_baselines::OracleSolution::solve(&raw, fx.imod_all());
        for p in raw.procs() {
            prop_assert!(
                oracle.gmod(p).is_subset(summary.gmod(p)),
                "pipeline must stay sound at {}", p
            );
        }
    }

    #[test]
    fn mod_is_superset_of_dmod_and_dmod_of_lmod_parts(seed in any_u64(), n in ints(2..12usize)) {
        let program = generate(&GenConfig::tiny(n, 2), seed);
        let summary = modref_core::Analyzer::new().analyze(&program);
        for s in program.sites() {
            prop_assert!(summary.dmod_site(s).is_subset(summary.mod_site(s)));
            prop_assert!(summary.duse_site(s).is_subset(summary.use_site(s)));
        }
        for p in program.procs() {
            // RMOD ⊆ IMOD⁺ ⊆ GMOD.
            prop_assert!(summary.rmod(p).is_subset(summary.gmod(p)));
            prop_assert!(summary.imod_plus(p).is_subset(summary.gmod(p)));
            prop_assert!(
                summary.local_effects().imod(p).is_subset(summary.imod_plus(p))
            );
        }
    }

    #[test]
    fn iterative_eq4_matches_multi_level(seed in any_u64(), n in ints(2..14usize), depth in ints(1..5u32)) {
        // Equation (4)'s fixpoint is the definition; the multi-level
        // drivers must compute exactly it.
        let program = generate(&GenConfig::tiny(n, depth), seed);
        let fx = modref_ir::LocalEffects::compute(&program);
        let beta = modref_binding::BindingGraph::build(&program);
        let rmod = modref_binding::solve_rmod(&program, fx.imod_all(), &beta);
        let (plus, _) = modref_core::compute_imod_plus(&program, fx.imod_all(), &rmod);
        let cg = modref_ir::CallGraph::build(&program);
        let locals = program.local_sets();

        let iter = modref_baselines::iterative_gmod(&program, cg.graph(), &plus, &locals);
        let naive = modref_core::solve_gmod_multi_naive(&program, cg.graph(), &plus, &locals);
        let fused = modref_core::solve_gmod_multi_fused(&program, cg.graph(), &plus, &locals);
        let elim = modref_baselines::elimination_gmod(&program, cg.graph(), &plus, &locals);
        for p in program.procs() {
            prop_assert_eq!(iter.gmod(p), naive.gmod(p), "naive at {}", p);
            prop_assert_eq!(iter.gmod(p), fused.gmod(p), "fused at {}", p);
            prop_assert_eq!(iter.gmod(p), elim.gmod(p), "elimination at {}", p);
        }
    }

    #[test]
    fn rmod_baselines_agree(seed in any_u64(), n in ints(2..14usize)) {
        let program = generate(&GenConfig::binding_heavy(n, 2), seed);
        let fx = modref_ir::LocalEffects::compute(&program);
        let beta = modref_binding::BindingGraph::build(&program);
        let fig1 = modref_binding::solve_rmod(&program, fx.imod_all(), &beta);
        let per_param = modref_baselines::rmod_per_parameter(&program, fx.imod_all(), &beta);
        let swift = modref_baselines::rmod_swift_standin(&program, fx.imod_all());
        for p in program.procs() {
            prop_assert_eq!(fig1.rmod(p), per_param.rmod(p), "per-param at {}", p);
            prop_assert_eq!(fig1.rmod(p), swift.rmod(p), "swift at {}", p);
        }
    }

    #[test]
    fn monotone_under_added_write(seed in any_u64(), n in ints(2..10usize)) {
        // Adding one more write (a `read g0;` at the end of main, which is
        // syntactically valid anywhere in the statement list) can only
        // grow the MOD-side sets.
        let text = generate(&GenConfig::tiny(n, 2), seed).to_source();
        // Parse the same source twice (so variable/procedure ids align),
        // once with the extra statement.
        let program = modref_frontend::parse_program(&text).expect("round trip");
        let base = modref_core::Analyzer::new().analyze(&program);

        let cut = text.rfind('}').expect("program ends with }");
        let bigger_text = format!("{}  read g0;\n}}", &text[..cut]);
        let bigger = modref_frontend::parse_program(&bigger_text)
            .expect("injected statement keeps the program valid");
        prop_assume!(bigger.num_vars() == program.num_vars());
        let more = modref_core::Analyzer::new().analyze(&bigger);
        for p in program.procs() {
            prop_assert!(base.gmod(p).is_subset(more.gmod(p)));
        }
    }
}
