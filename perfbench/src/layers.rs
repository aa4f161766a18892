//! The batch pipeline decomposed into its layers' public functions, for
//! the traced run, and the op-count growth slopes.
//!
//! [`decomposed`] makes the same calls `Analyzer::analyze` makes with one
//! thread (local effects, call and binding graphs, RMOD, IMOD⁺, GMOD for
//! MOD and USE, DMOD, §5 aliases, MOD/USE factoring), each inside a span
//! named after its crate. The run checks that the result renders to the
//! same bytes as the untraced path and that each phase's op counts equal
//! `Summary::stats()`.

use modref_binding::{solve_rmod, BindingGraph};
use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_core::dmod::compute_dmod;
use modref_core::modsets::compute_mod;
use modref_core::{
    compute_imod_plus, solve_gmod_multi_fused, solve_gmod_one_level, AliasPairs, Analyzer,
    GmodSolution, PhaseStats,
};
use modref_incr::SiteSets;
use modref_ir::{CallGraph, LocalEffects, Program};
use modref_progen::{generate, GenConfig};

use crate::spans::Recorder;
use crate::util::{derive, loglog_slope};

/// What the decomposed pipeline produced, plus the counts the layers
/// report through their return values.
pub struct Decomposed {
    pub sets: SiteSets,
    pub counts: PhaseCounts,
    pub beta_nodes: usize,
    pub beta_edges: usize,
    pub alias_pairs: usize,
    pub heap_bytes: usize,
}

/// Per-phase op counters, in the order `PhaseStats` keeps them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCounts {
    pub rmod: OpCounter,
    pub ruse: OpCounter,
    pub imod_plus: OpCounter,
    pub gmod: OpCounter,
    pub guse: OpCounter,
    pub dmod: OpCounter,
    pub modsets: OpCounter,
}

impl PhaseCounts {
    pub fn of(stats: &PhaseStats) -> PhaseCounts {
        PhaseCounts {
            rmod: stats.rmod,
            ruse: stats.ruse,
            imod_plus: stats.imod_plus,
            gmod: stats.gmod,
            guse: stats.guse,
            dmod: stats.dmod,
            modsets: stats.modsets,
        }
    }

    /// (bit-vector steps, boolean steps) over every phase.
    pub fn steps(&self) -> (u64, u64) {
        let all = [
            self.rmod,
            self.ruse,
            self.imod_plus,
            self.gmod,
            self.guse,
            self.dmod,
            self.modsets,
        ];
        (
            all.iter().map(|c| c.bitvec_steps).sum(),
            all.iter().map(|c| c.bool_steps).sum(),
        )
    }

    /// Paper cost units (bit-vector + boolean steps) per reported phase,
    /// MOD and USE sides summed.
    pub fn per_phase(&self) -> [(&'static str, u64); 5] {
        let units = |c: OpCounter| c.bitvec_steps + c.bool_steps;
        [
            ("rmod", units(self.rmod) + units(self.ruse)),
            ("imod_plus", units(self.imod_plus)),
            ("gmod", units(self.gmod) + units(self.guse)),
            ("dmod", units(self.dmod)),
            ("modsets", units(self.modsets)),
        ]
    }
}

/// The analyzer every untraced path uses: one solver thread.
pub fn analyzer() -> Analyzer {
    let mut a = Analyzer::new();
    a.threads(1);
    a
}

/// One `MOD`-or-`USE` half: RMOD → IMOD⁺ → GMOD.
fn half(
    rec: &mut Recorder,
    program: &Program,
    graphs: &(CallGraph, BindingGraph),
    initial: &[BitSet],
    locals: &[BitSet],
    counts: (&mut OpCounter, &mut OpCounter, &mut OpCounter),
) -> Vec<BitSet> {
    let rmod = rec.span("binding.rmod", |_| solve_rmod(program, initial, &graphs.1));
    *counts.0 += rmod.stats();
    let (plus, plus_ops) = rec.span("core.imod_plus", |_| {
        compute_imod_plus(program, initial, &rmod)
    });
    *counts.1 += plus_ops;
    let gmod: GmodSolution = rec.span("core.gmod", |_| {
        if program.max_level() <= 1 {
            solve_gmod_one_level(program, graphs.0.graph(), &plus, locals)
        } else {
            solve_gmod_multi_fused(program, graphs.0.graph(), &plus, locals)
        }
    });
    *counts.2 += gmod.stats();
    gmod.gmod_all().to_vec()
}

/// Runs the pipeline layer by layer, each call inside its span.
pub fn decomposed(rec: &mut Recorder, program: &Program) -> Decomposed {
    let mut c = PhaseCounts::default();
    let effects = rec.span("ir.local_effects", |_| LocalEffects::compute(program));
    let graphs = rec.span("binding.build", |_| {
        (CallGraph::build(program), BindingGraph::build(program))
    });
    let locals = program.local_sets();
    let gmod = half(
        rec,
        program,
        &graphs,
        effects.imod_all(),
        &locals,
        (&mut c.rmod, &mut c.imod_plus, &mut c.gmod),
    );
    let guse = half(
        rec,
        program,
        &graphs,
        effects.iuse_all(),
        &locals,
        (&mut c.ruse, &mut c.imod_plus, &mut c.guse),
    );
    let (dmod, duse) = rec.span("core.dmod", |_| {
        (compute_dmod(program, &gmod), compute_dmod(program, &guse))
    });
    c.dmod += dmod.stats();
    c.dmod += duse.stats();
    let aliases = rec.span("core.alias", |_| AliasPairs::compute(program));
    let (mods, uses) = rec.span("core.modsets", |_| {
        (
            compute_mod(program, &dmod, &aliases),
            compute_mod(program, &duse, &aliases),
        )
    });
    c.modsets += mods.stats();
    c.modsets += uses.stats();
    let sets = SiteSets {
        mods: mods.all().to_vec(),
        uses: uses.all().to_vec(),
        dmods: dmod.all().to_vec(),
    };
    let heap_bytes = [
        &gmod,
        &guse,
        &sets.mods,
        &sets.uses,
        &sets.dmods,
        duse.all(),
    ]
    .iter()
    .flat_map(|v| v.iter())
    .map(EffectSet::heap_bytes)
    .sum();
    Decomposed {
        sets,
        counts: c,
        beta_nodes: graphs.1.num_nodes(),
        beta_edges: graphs.1.num_edges(),
        alias_pairs: program.procs().map(|p| aliases.pair_count(p)).sum(),
        heap_bytes,
    }
}

/// Log-log slope of each phase's op count against program size
/// (procedures + call sites) over three sizes of one program family.
/// Counts repeat exactly, so these slopes do too.
pub fn growth_slopes(seed: u64, nested: bool) -> Vec<(&'static str, f64)> {
    let sizes: [usize; 3] = if nested {
        [125, 250, 500]
    } else {
        [100, 200, 400]
    };
    let analyzer = analyzer();
    let mut points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 5];
    for (k, &n) in sizes.iter().enumerate() {
        let cfg = if nested {
            GenConfig::pascal_like(n, crate::inputs::EDITOR_DEPTH)
        } else {
            GenConfig::fortran_like(n)
        };
        let program = generate(&cfg, derive(seed, 3000 + k as u64));
        let size = (program.num_procs() + program.num_sites()) as f64;
        let counts = PhaseCounts::of(analyzer.analyze(&program).stats());
        for (i, (_, ops)) in counts.per_phase().iter().enumerate() {
            points[i].push((size, *ops as f64));
        }
    }
    PhaseCounts::default()
        .per_phase()
        .iter()
        .zip(&points)
        .map(|((name, _), pts)| (*name, loglog_slope(pts)))
        .collect()
}
