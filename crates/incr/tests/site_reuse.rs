//! Which call sites a structural patch re-finalises.
//!
//! On the patch path a site keeps its old `DMOD`/`MOD` (and `DUSE`/`USE`)
//! unless it is new, its caller's `ALIAS` changed, its callee's `LOCAL`
//! or `GMOD`/`GUSE` changed, or its caller is one the edit touched. These
//! tests pin both halves: a site whose inputs moved only through its own
//! actuals is still redone, and a patch that moves nothing else leaves
//! other sites alone — with every answer equal to a scratch analysis.

use modref_core::Analyzer;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::{Actual, CallSiteId, Expr, ProcId, Program, ProgramBuilder, Ref};

fn assert_matches_scratch(engine: &IncrementalEngine, ctx: &str) {
    let program = engine.program();
    let scratch = Analyzer::new().analyze(program);
    for s in program.sites() {
        assert_eq!(
            engine.dmod_site(s),
            scratch.dmod_site(s),
            "{ctx}: DMOD({s})"
        );
        assert_eq!(engine.mod_site(s), scratch.mod_site(s), "{ctx}: MOD({s})");
        assert_eq!(
            engine.duse_site(s),
            scratch.duse_site(s),
            "{ctx}: DUSE({s})"
        );
        assert_eq!(engine.use_site(s), scratch.use_site(s), "{ctx}: USE({s})");
    }
}

/// `main` calls `w(g)` where `w(x)` writes its formal, and `p()` calls
/// `w(h)` from a second caller.
fn two_callers() -> (Program, ProcId) {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let h = b.global("h");
    let w = b.proc_("w", &["x"]);
    b.assign(w, b.formal(w, 0), Expr::constant(1));
    let p = b.proc_("p", &[]);
    b.call(p, w, &[h]);
    let main = b.main();
    b.call(main, w, &[g]);
    b.call(main, p, &[]);
    (b.finish().expect("valid"), w)
}

#[test]
fn rebind_refinalises_its_site_when_no_set_it_reads_moves() {
    // Rebinding `main`'s call `w(g)` to `w(h)`: `ALIAS(main)` stays empty
    // and `GMOD(w) = {x}` stays put, so only the rebind itself says the
    // site's `DMOD` moved from {g} to {h}.
    let (program, w) = two_callers();
    let h = program
        .vars()
        .find(|&v| program.var_name(v) == "h")
        .expect("h");
    let site = program
        .sites()
        .find(|&s| program.site(s).caller() == ProcId::MAIN && !program.site(s).args().is_empty())
        .expect("main calls w");
    let mut engine = IncrementalEngine::new(program);
    let gmod_before = engine.gmod(w).clone();
    let delta = engine
        .apply(&Edit::RebindActual {
            site,
            position: 0,
            actual: Actual::Ref(Ref::scalar(h)),
        })
        .expect("valid rebind");
    assert!(
        !engine.stats().full_rebuild,
        "a rebind takes the patch path"
    );
    assert_eq!(engine.gmod(w), &gmod_before, "the callee's GMOD stays put");
    assert!(
        delta.changed_sites.contains(&site),
        "the rebound site's answer moved"
    );
    assert!(engine.stats().sites_recomputed >= 1);
    assert_matches_scratch(&engine, "after rebind");
}

#[test]
fn add_call_with_constant_actuals_reuses_unaffected_sites() {
    // A call with only by-value actuals adds no alias pair anywhere and
    // changes no callee's `GMOD` but its caller's; sites of other callers
    // keep their answers.
    let (program, w) = two_callers();
    let num_sites_before = program.num_sites();
    let mut engine = IncrementalEngine::new(program);
    engine
        .apply(&Edit::AddCallSite {
            caller: ProcId::MAIN,
            callee: w,
            args: vec![Actual::Value(Expr::constant(3))],
        })
        .expect("valid add-call");
    let stats = engine.stats();
    assert!(!stats.full_rebuild, "an add-call takes the patch path");
    let num_sites = engine.program().num_sites();
    assert_eq!(num_sites, num_sites_before + 1);
    assert!(
        stats.sites_recomputed < num_sites,
        "{} of {num_sites} sites recomputed",
        stats.sites_recomputed
    );
    assert_eq!(stats.sites_recomputed + stats.sites_reused, num_sites);
    assert_matches_scratch(&engine, "after add-call");

    // And the site it added can go again, still exact.
    engine
        .apply(&Edit::RemoveCallSite {
            site: CallSiteId::new(num_sites - 1),
        })
        .expect("valid remove-call");
    assert_matches_scratch(&engine, "after remove-call");
}
