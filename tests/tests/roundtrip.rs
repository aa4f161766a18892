//! Round-trip properties: generated programs survive pretty-printing and
//! re-parsing with identical analysis results (compared by *names*, since
//! re-parsing renumbers ids).

use std::collections::BTreeSet;

use modref_check::prelude::*;
use modref_core::Analyzer;
use modref_ir::Program;
use modref_progen::{generate, GenConfig};

/// Stable, id-free fingerprint of a summary: for each call site (in
/// textual order they appear — preserved by the printer), the caller and
/// callee names plus the sorted MOD/USE variable names.
fn fingerprint(program: &Program) -> Vec<(String, String, BTreeSet<String>, BTreeSet<String>)> {
    let summary = Analyzer::new().analyze(program);
    let mut rows = Vec::new();
    for s in program.sites() {
        let info = program.site(s);
        let names = |set: &modref_bitset::BitSet| -> BTreeSet<String> {
            set.iter()
                .map(|i| program.var_name(modref_ir::VarId::new(i)).to_owned())
                .collect()
        };
        rows.push((
            program.proc_name(info.caller()).to_owned(),
            program.proc_name(info.callee()).to_owned(),
            names(summary.mod_site(s)),
            names(summary.use_site(s)),
        ));
    }
    // Site order differs between generation order and print order; use a
    // canonical sort.
    rows.sort();
    rows
}

property! {
    #![cases = 32]

    #[test]
    fn analysis_survives_print_parse(seed in any_u64(), n in ints(2..12usize), depth in ints(1..4u32)) {
        let original = generate(&GenConfig::tiny(n, depth), seed);
        let reparsed = modref_frontend::parse_program(&original.to_source())
            .expect("printed source reparses");
        prop_assert_eq!(original.num_procs(), reparsed.num_procs());
        prop_assert_eq!(original.num_sites(), reparsed.num_sites());
        prop_assert_eq!(original.num_vars(), reparsed.num_vars());
        prop_assert_eq!(fingerprint(&original), fingerprint(&reparsed));
    }

    #[test]
    fn print_is_a_fixed_point_after_one_parse(seed in any_u64(), n in ints(2..12usize)) {
        let text = generate(&GenConfig::tiny(n, 3), seed).to_source();
        let once = modref_frontend::parse_program(&text).expect("parses").to_source();
        let twice = modref_frontend::parse_program(&once).expect("parses").to_source();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn pruning_preserves_analysis_of_survivors(seed in any_u64(), n in ints(2..12usize)) {
        let cfg = GenConfig { ensure_reachable: false, ..GenConfig::tiny(n, 2) };
        let raw = generate(&cfg, seed);
        let pruned = raw.without_unreachable();
        let raw_summary = Analyzer::new().analyze(&pruned.program);
        // Analyzing the pruned program directly equals analyzing it as a
        // fresh parse (sanity that pruning produced a coherent Program).
        let reparsed = modref_frontend::parse_program(&pruned.program.to_source())
            .expect("pruned program prints parseably");
        let again = Analyzer::new().analyze(&reparsed);
        // Re-parsing renumbers procedures (tree order vs creation order):
        // match them by name, which the generator keeps unique.
        for p_old in pruned.program.procs() {
            let name = pruned.program.proc_name(p_old);
            let p_new = reparsed
                .procs()
                .find(|&p| reparsed.proc_name(p) == name)
                .expect("same procedures after reparse");
            prop_assert_eq!(
                raw_summary.gmod(p_old).len(),
                again.gmod(p_new).len(),
                "at {}", name
            );
        }
    }
}
