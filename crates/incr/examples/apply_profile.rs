//! Per-phase wall profile of steady-state incremental applies — the
//! instrument behind EXPERIMENTS.md E11's copy-cost analysis. Runs the
//! `incrscale` toggle workload on one progen program with tracing on and
//! prints the aggregated `incr.phase.*` span summary.
//!
//! ```text
//! cargo run --release -p modref-incr --example apply_profile [procs] [applies]
//! ```

use modref_core::Trace;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::VarId;
use modref_progen::{generate, GenConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let procs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let applies: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let program = generate(&GenConfig::fortran_like(procs), 42);
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

    let mut engine = IncrementalEngine::new(program);
    engine.apply(&a).expect("toggle edit applies");
    let trace = Trace::enabled();
    engine.with_trace(trace.clone());
    let start = std::time::Instant::now();
    for i in 0..applies {
        engine
            .apply(if i % 2 == 0 { &b } else { &a })
            .expect("toggle edit applies");
    }
    let total = start.elapsed();
    println!(
        "{applies} applies on fortran_{procs}: {:.3} ms/apply",
        total.as_secs_f64() * 1e3 / applies as f64
    );
    print!("{}", trace.export_summary());
}
