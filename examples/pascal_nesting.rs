//! Lexical nesting (§3.3 and §4): a Pascal-style program where a deeply
//! nested procedure modifies variables at several enclosing levels, and
//! the multi-level `GMOD` algorithm keeps each local confined to the
//! scope that declared it.
//!
//! ```text
//! cargo run -p modref-core --example pascal_nesting
//! ```

use std::error::Error;

use modref_core::{solve_gmod_multi_fused, Analyzer, BitSet};
use modref_frontend::parse_program;
use modref_ir::CallGraph;

fn main() -> Result<(), Box<dyn Error>> {
    let source = "
        var depth0;                      # a true global

        proc outer(x) {
          var depth1;                    # local to outer
          proc middle() {
            var depth2;                  # local to middle
            proc innermost() {
              depth0 = 1;                # touches every level
              depth1 = 2;
              depth2 = 3;
              x = 4;                     # outer's reference formal!
            }
            call innermost();
          }
          call middle();
        }

        main {
          var m;
          call outer(m);
        }
    ";

    let program = parse_program(source)?;
    let summary = Analyzer::new().analyze(&program);
    // The fused multi-level algorithm run on its own agrees with the
    // pipeline's GMOD.
    let imod_plus: Vec<BitSet> = program
        .procs()
        .map(|p| summary.imod_plus(p).clone())
        .collect();
    let fused = solve_gmod_multi_fused(
        &program,
        CallGraph::build(&program).graph(),
        &imod_plus,
        &program.local_sets(),
    );
    assert_eq!(fused.gmod_all(), summary.gmod_all());

    let proc_by_name = |name: &str| {
        program
            .procs()
            .find(|&p| program.proc_name(p) == name)
            .expect("procedure exists")
    };
    let var_by_name = |name: &str| {
        program
            .vars()
            .find(|&v| program.var_name(v) == name)
            .expect("variable exists")
    };

    println!("GMOD per procedure (what an invocation may modify):\n");
    for name in ["innermost", "middle", "outer", "main"] {
        let p = proc_by_name(name);
        let mut mods: Vec<&str> = summary
            .gmod(p)
            .iter()
            .map(|i| program.var_name(modref_ir::VarId::new(i)))
            .collect();
        mods.sort_unstable();
        println!("  GMOD({name:<9}) = {{{}}}", mods.join(", "));
    }

    // Each `depthN` local is visible in GMOD up to its declaring scope and
    // no further.
    let (outer, middle, main) = (
        proc_by_name("outer"),
        proc_by_name("middle"),
        program.main(),
    );
    assert!(summary.gmod(middle).contains(var_by_name("depth1").index()));
    assert!(!summary.gmod(main).contains(var_by_name("depth1").index()));
    assert!(!summary.gmod(outer).contains(var_by_name("depth2").index()));
    assert!(summary.gmod(main).contains(var_by_name("depth0").index()));

    // The write to outer's formal three scopes down is a reference-formal
    // effect: RMOD(outer) reports it, and main's call site sees `m`
    // modified.
    assert!(summary.rmod(outer).contains(var_by_name("x").index()));
    let site = program
        .sites()
        .find(|&s| program.site(s).caller() == main)
        .expect("main calls outer");
    assert!(summary.mod_site(site).contains(var_by_name("m").index()));
    println!("\ncall outer(m) in main: MOD contains m — the write reaches up through");
    println!("three nesting levels via the reference formal, while depth1/depth2 stay confined.");
    Ok(())
}
