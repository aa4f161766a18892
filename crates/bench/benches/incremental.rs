//! E9 wall-clock: one local-effect edit applied by the incremental engine
//! vs a from-scratch re-analysis.

use modref_check::BenchGroup;
use modref_core::Analyzer;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::{LocalEffects, VarId};
use modref_progen::{generate, GenConfig};

fn main() {
    let mut group = BenchGroup::new("incremental").samples(5);
    for &n in &[100usize, 400, 1600] {
        let program = generate(&GenConfig::fortran_like(n), 5);
        let target = program
            .procs()
            .nth(program.num_procs() / 2)
            .expect("mid proc");
        let g = program
            .vars()
            .find(|&v| program.var(v).is_global() && program.var(v).rank() == 0)
            .expect("global");
        // The target's body keeps its current effects and also writes `g`.
        let fx = LocalEffects::compute(&program);
        let mut mods: Vec<VarId> = fx.imod_flat(target).iter().map(VarId::new).collect();
        if !mods.contains(&g) {
            mods.push(g);
        }
        let edit = Edit::SetLocalEffects {
            proc_: target,
            mods,
            uses: fx.iuse_flat(target).iter().map(VarId::new).collect(),
        };

        group.bench_with_setup(
            "edit_incremental",
            n,
            || IncrementalEngine::new(program.clone()),
            |mut engine| {
                engine.apply(&edit).expect("edit applies");
                engine
            },
        );
        let edited = {
            let mut engine = IncrementalEngine::new(program.clone());
            engine.apply(&edit).expect("edit applies");
            engine.program().clone()
        };
        group.bench("edit_full_reanalysis", n, || {
            Analyzer::new().analyze(&edited)
        });
    }
    group.finish();
}
