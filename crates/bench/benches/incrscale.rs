//! E11 incremental scaling: amortized per-edit cost of the incremental
//! engine vs a from-scratch re-analysis, across progen workloads of 64
//! to 1024 procedures.
//!
//! The timed incremental iteration is one `apply` of a *toggling*
//! `set-local` edit pair (A, B, A, …), so the program is structurally
//! stable and every iteration does the same dirty-set propagation — the
//! honest steady-state editing workload. The scratch row re-analyzes the
//! edited program from nothing. Compare `incremental_edit` to `scratch`
//! within one param to read the amortized speedup; EXPERIMENTS.md holds
//! the analysis. `MODREF_SEED=<n>` replays a different workload seed and
//! is stamped on every JSON line.

use modref_check::{BenchGroup, BenchOptions};
use modref_core::Analyzer;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::{Program, VarId};
use modref_progen::{generate, GenConfig};

/// Two `set-local` edits on the first real procedure that undo each
/// other's effect sets, so applying them alternately keeps the program
/// bounded while exercising the full invalidation path every time.
fn toggle_edits(program: &Program) -> (Edit, Edit) {
    let p = program
        .procs()
        .nth(1)
        .expect("generated programs have procs");
    let pool: Vec<VarId> = program
        .visible_set(p)
        .iter()
        .map(VarId::new)
        .filter(|&v| program.var(v).rank() == 0)
        .collect();
    assert!(pool.len() >= 2, "workload too small for a toggle pair");
    let a = Edit::SetLocalEffects {
        proc_: p,
        mods: vec![pool[0]],
        uses: vec![],
    };
    let b = Edit::SetLocalEffects {
        proc_: p,
        mods: vec![pool[1]],
        uses: vec![pool[0]],
    };
    (a, b)
}

fn main() {
    let mut opts = BenchOptions::from_env();
    let seed: u64 = opts
        .seed
        .as_deref()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    opts.seed = Some(seed.to_string());
    let mut group = BenchGroup::with_options("incrscale", opts).samples(5);
    let trace = modref_core::Trace::enabled();

    let workloads: Vec<(String, GenConfig)> = vec![
        ("fortran_64".into(), GenConfig::fortran_like(64)),
        ("fortran_256".into(), GenConfig::fortran_like(256)),
        ("fortran_1024".into(), GenConfig::fortran_like(1024)),
        ("pascal_128_d4".into(), GenConfig::pascal_like(128, 4)),
        ("binding_64_p3".into(), GenConfig::binding_heavy(64, 3)),
    ];

    for (param, cfg) in workloads {
        let program = generate(&cfg, seed);
        let (a, b) = toggle_edits(&program);

        // The IR-apply floor both paths pay: `Program::apply_edit`
        // alone, no analysis. It copies only the edited procedure and
        // re-checks only its body.
        let mut flip = false;
        group.bench("apply_edit", &param, || {
            flip = !flip;
            program
                .apply_edit(if flip { &a } else { &b })
                .expect("toggle edit applies")
        });

        // From-scratch per-edit response: rebuild the program for the
        // edit, then analyze it from nothing — what an editor without the
        // incremental engine must do on every keystroke.
        let mut flip = false;
        group.bench("scratch", &param, || {
            flip = !flip;
            let (next, _) = program
                .apply_edit(if flip { &a } else { &b })
                .expect("toggle edit applies");
            Analyzer::new().analyze(&next)
        });

        // Amortized per-edit cost: each iteration is exactly one apply
        // (IR apply + dirty-set recomputation against the warm cache).
        let mut engine = IncrementalEngine::new(program.clone());
        engine.apply(&a).expect("toggle edit applies");
        let mut flip = false;
        group.bench("incremental_edit", &param, || {
            flip = !flip;
            engine
                .apply(if flip { &b } else { &a })
                .expect("toggle edit applies");
        });

        // One traced apply per workload rides along (off the clock) so
        // the reused-vs-recomputed counters land in TRACE_incrscale.*.
        engine.with_trace(trace.clone());
        flip = !flip;
        engine
            .apply(if flip { &b } else { &a })
            .expect("toggle edit applies");
        engine.with_trace(modref_core::Trace::disabled());
    }
    group.finish_with_trace(&trace);
}
