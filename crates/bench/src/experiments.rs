//! The experiment implementations (see `DESIGN.md` §5 for the index).

use std::time::{Duration, Instant};

use modref_baselines::{iterative_gmod, rmod_per_parameter, rmod_swift_standin, OracleSolution};
use modref_binding::{solve_rmod, BindingGraph};
use modref_bitset::BitSet;
use modref_core::{
    compute_imod_plus, solve_gmod_multi_fused, solve_gmod_multi_naive, solve_gmod_one_level,
    AliasPairs, Analyzer,
};
use modref_graph::DiGraph;
use modref_incr::{Edit, IncrementalEngine};
use modref_ir::{CallGraph, Expr, LocalEffects, ProcId, Program, ProgramBuilder, VarId};
use modref_progen::{generate, workloads, GenConfig};
use modref_sections::{Section, SubscriptPos};

use crate::table::{fmt_count, fmt_time, Table};

/// Experiment sizes: `Quick` for smoke tests, `Full` for the recorded
/// runs in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs, sub-second total.
    Quick,
    /// The sizes recorded in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Runs every experiment in order.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    vec![
        experiment_f1(scale),
        experiment_f2(scale),
        experiment_f3(),
        experiment_e1(scale),
        experiment_e2(scale),
        experiment_e3(scale),
        experiment_e4(scale),
        experiment_e5(scale),
        experiment_e6(scale),
        experiment_e7(scale),
        experiment_e8(scale),
        experiment_e9(scale),
    ]
}

/// Looks an experiment up by (case-insensitive) id.
pub fn experiment_by_id(id: &str, scale: Scale) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "f1" => Some(experiment_f1(scale)),
        "f2" => Some(experiment_f2(scale)),
        "f3" => Some(experiment_f3()),
        "e1" => Some(experiment_e1(scale)),
        "e2" => Some(experiment_e2(scale)),
        "e3" => Some(experiment_e3(scale)),
        "e4" => Some(experiment_e4(scale)),
        "e5" => Some(experiment_e5(scale)),
        "e6" => Some(experiment_e6(scale)),
        "e7" => Some(experiment_e7(scale)),
        "e8" => Some(experiment_e8(scale)),
        "e9" => Some(experiment_e9(scale)),
        _ => None,
    }
}

// --- shared plumbing ------------------------------------------------------

struct Prepared {
    program: Program,
    graph: DiGraph,
    imod: Vec<BitSet>,
    plus: Vec<BitSet>,
    locals: Vec<BitSet>,
}

fn prepare(program: Program) -> Prepared {
    let fx = LocalEffects::compute(&program);
    let beta = BindingGraph::build(&program);
    let rmod = solve_rmod(&program, fx.imod_all(), &beta);
    let (plus, _) = compute_imod_plus(&program, fx.imod_all(), &rmod);
    let cg = CallGraph::build(&program);
    let locals = program.local_sets();
    Prepared {
        graph: cg.graph().clone(),
        imod: fx.imod_all().to_vec(),
        plus,
        locals,
        program,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

// --- F1 / F2: the figures are correct -------------------------------------

/// Figure 1 (`RMOD` via the binding multi-graph) against the exhaustive
/// oracle and both baselines, on random program families.
pub fn experiment_f1(scale: Scale) -> Table {
    let mut table = Table::new(
        "F1",
        "Figure 1 (RMOD on the binding multi-graph) — correctness",
        "the Figure 1 solver computes the same RMOD sets as the defining \
         equation-(1) fixpoint and as both baseline algorithms",
        &["family", "programs", "procedures", "mismatches"],
    );
    let cases = scale.pick(10u64, 40u64);
    let mut total_mismatch = 0usize;
    for (name, cfg) in [
        ("flat", GenConfig::tiny(10, 1)),
        ("nested", GenConfig::tiny(10, 3)),
        ("binding-heavy", GenConfig::binding_heavy(8, 3)),
    ] {
        let mut procs = 0usize;
        let mut mism = 0usize;
        for seed in 0..cases {
            let program = generate(&cfg, seed);
            let fx = LocalEffects::compute(&program);
            let beta = BindingGraph::build(&program);
            let fig1 = solve_rmod(&program, fx.imod_all(), &beta);
            let oracle = OracleSolution::solve(&program, fx.imod_all());
            let pp = rmod_per_parameter(&program, fx.imod_all(), &beta);
            let sw = rmod_swift_standin(&program, fx.imod_all());
            for p in program.procs() {
                procs += 1;
                if fig1.rmod(p) != &oracle.rmod(&program, p)
                    || fig1.rmod(p) != pp.rmod(p)
                    || fig1.rmod(p) != sw.rmod(p)
                {
                    mism += 1;
                }
            }
        }
        total_mismatch += mism;
        table.push_row([
            name.to_owned(),
            cases.to_string(),
            procs.to_string(),
            mism.to_string(),
        ]);
    }
    table.set_verdict(if total_mismatch == 0 {
        "all solvers agree everywhere".to_owned()
    } else {
        format!("{total_mismatch} mismatches — INVESTIGATE")
    });
    table
}

/// Figure 2 (`findgmod`) and the multi-level drivers against the oracle
/// and the iterative equation-(4) fixpoint.
pub fn experiment_f2(scale: Scale) -> Table {
    let mut table = Table::new(
        "F2",
        "Figure 2 (findgmod) + multi-level variants — correctness (Theorem 1)",
        "one depth-first pass computes the exact GMOD sets, for flat and \
         nested programs, reducible or not",
        &["family", "programs", "procedures", "mismatches"],
    );
    let cases = scale.pick(10u64, 40u64);
    let mut total_mismatch = 0usize;
    for (name, cfg) in [
        ("flat", GenConfig::tiny(12, 1)),
        ("nested d=3", GenConfig::tiny(12, 3)),
        ("nested d=5", GenConfig::tiny(12, 5)),
    ] {
        let mut procs = 0usize;
        let mut mism = 0usize;
        for seed in 0..cases {
            let prep = prepare(generate(&cfg, seed));
            let fx_oracle = OracleSolution::solve(&prep.program, &prep.imod);
            let iter = iterative_gmod(&prep.program, &prep.graph, &prep.plus, &prep.locals);
            let naive =
                solve_gmod_multi_naive(&prep.program, &prep.graph, &prep.plus, &prep.locals);
            let fused =
                solve_gmod_multi_fused(&prep.program, &prep.graph, &prep.plus, &prep.locals);
            let one = (prep.program.max_level() <= 1).then(|| {
                solve_gmod_one_level(&prep.program, &prep.graph, &prep.plus, &prep.locals)
            });
            for p in prep.program.procs() {
                procs += 1;
                let reference = fx_oracle.gmod(p);
                let ok = naive.gmod(p) == reference
                    && fused.gmod(p) == reference
                    && iter.gmod(p) == reference
                    && one.as_ref().is_none_or(|o| o.gmod(p) == reference);
                if !ok {
                    mism += 1;
                }
            }
        }
        total_mismatch += mism;
        table.push_row([
            name.to_owned(),
            cases.to_string(),
            procs.to_string(),
            mism.to_string(),
        ]);
    }
    table.set_verdict(if total_mismatch == 0 {
        "findgmod, both multi-level drivers, the iterative fixpoint, and the \
         oracle agree everywhere"
            .to_owned()
    } else {
        format!("{total_mismatch} mismatches — INVESTIGATE")
    });
    table
}

/// Figure 3: the regular section lattice, reproduced as a meet table on
/// the paper's own elements.
pub fn experiment_f3() -> Table {
    let mut table = Table::new(
        "F3",
        "Figure 3 — the simple regular section lattice",
        "meets of element sections descend through rows/columns to the \
         whole array exactly as the Figure 3 Hasse diagram shows",
        &["x", "y", "x ⊓ y"],
    );
    // Symbols I, J, K, L as in the figure.
    let (i, j, k, l) = (
        modref_ir::VarId::new(0),
        modref_ir::VarId::new(1),
        modref_ir::VarId::new(2),
        modref_ir::VarId::new(3),
    );
    let name = |p: SubscriptPos| match p {
        SubscriptPos::Sym(v) if v == i => "I".to_owned(),
        SubscriptPos::Sym(v) if v == j => "J".to_owned(),
        SubscriptPos::Sym(v) if v == k => "K".to_owned(),
        SubscriptPos::Sym(v) if v == l => "L".to_owned(),
        SubscriptPos::Sym(_) => "?".to_owned(),
        SubscriptPos::Const(c) => c.to_string(),
        SubscriptPos::Star => "*".to_owned(),
    };
    let show = |s: &Section| match s.axes() {
        None => "⊥".to_owned(),
        Some(axes) => format!(
            "A({})",
            axes.iter().map(|&a| name(a)).collect::<Vec<_>>().join(",")
        ),
    };
    let a_ij = Section::element([SubscriptPos::Sym(i), SubscriptPos::Sym(j)]);
    let a_kj = Section::element([SubscriptPos::Sym(k), SubscriptPos::Sym(j)]);
    let a_kl = Section::element([SubscriptPos::Sym(k), SubscriptPos::Sym(l)]);
    let col_j = a_ij.meet(&a_kj);
    let row_k = a_kj.meet(&a_kl);
    let pairs = [
        (&a_ij, &a_kj),
        (&a_kj, &a_kl),
        (&col_j, &row_k),
        (&a_ij, &a_kl),
        (&col_j, &a_kj),
    ];
    for (x, y) in pairs {
        table.push_row([show(x), show(y), show(&x.meet(y))]);
    }
    let ok = col_j.axes().unwrap() == [SubscriptPos::Star, SubscriptPos::Sym(j)]
        && row_k.axes().unwrap() == [SubscriptPos::Sym(k), SubscriptPos::Star]
        && col_j.meet(&row_k).is_whole_array();
    table.set_verdict(if ok {
        "A(I,J)⊓A(K,J)=A(*,J), A(K,J)⊓A(K,L)=A(K,*), and their meet is A(*,*) — Figure 3 reproduced"
    } else {
        "lattice structure broken — INVESTIGATE"
    });
    table
}

// --- E1: RMOD linearity ----------------------------------------------------

/// §3.2: Figure 1 takes `O(N_β + E_β)` boolean steps; the per-parameter
/// method is quadratic and the swift-style method pays bit-vector steps.
pub fn experiment_e1(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1",
        "RMOD cost: Figure 1 vs per-parameter vs swift-style",
        "Figure 1 is O(N_β + E_β) simple booleans; per-parameter is \
         O(N_β·E_β); swift pays Θ(N_β)-wide vector steps on the call graph",
        &[
            "E_β",
            "fig1 bool steps",
            "fig1 time",
            "per-param steps",
            "per-param time",
            "swift bit-ops",
            "swift time",
        ],
    );
    let sizes: &[usize] = scale.pick(
        &[100, 200, 400][..],
        &[1_000, 2_000, 4_000, 8_000, 16_000][..],
    );
    let mut first_last: Vec<(u64, u64)> = Vec::new();
    for &n in sizes {
        let program = workloads::binding_chain_all_writers(n);
        let fx = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let (fig1, t1) = timed(|| solve_rmod(&program, fx.imod_all(), &beta));
        let (pp, t2) = timed(|| rmod_per_parameter(&program, fx.imod_all(), &beta));
        let (sw, t3) = timed(|| rmod_swift_standin(&program, fx.imod_all()));
        // Swift's true bit-op cost: vector steps × vector width (≈ N_β).
        let swift_bitops = sw.stats().bitvec_steps * beta.num_nodes() as u64;
        first_last.push((fig1.stats().bool_steps, pp.stats().total()));
        table.push_row([
            fmt_count(beta.num_edges() as u64),
            fmt_count(fig1.stats().bool_steps),
            fmt_time(t1),
            fmt_count(pp.stats().total()),
            fmt_time(t2),
            fmt_count(swift_bitops),
            fmt_time(t3),
        ]);
    }
    let growth = sizes[sizes.len() - 1] as f64 / sizes[0] as f64;
    let fig1_growth = first_last[first_last.len() - 1].0 as f64 / first_last[0].0 as f64;
    let pp_growth = first_last[first_last.len() - 1].1 as f64 / first_last[0].1 as f64;
    table.set_verdict(format!(
        "for {growth:.0}x larger β: Figure 1 work grew {fig1_growth:.1}x (linear), \
         per-parameter grew {pp_growth:.0}x (quadratic) — Figure 1 wins as the paper claims"
    ));
    table
}

// --- E2: findgmod linearity -------------------------------------------------

/// §4 Theorem 2: `findgmod` needs `O(E_C + N_C)` bit-vector steps; the
/// iterative baseline pays `O(rounds · E_C)` with `rounds = Θ(N)` on the
/// back-edge ladder.
pub fn experiment_e2(scale: Scale) -> Table {
    let mut table = Table::new(
        "E2",
        "GMOD cost: findgmod (Figure 2) vs iterative data-flow",
        "findgmod: O(E_C + N_C) bit-vector steps on any graph; round-robin \
         iteration needs Θ(N) rounds on the back-edge ladder",
        &[
            "N",
            "E",
            "fig2 bv-steps",
            "fig2 time",
            "iter bv-steps",
            "iter rounds",
            "iter time",
        ],
    );
    let sizes: &[usize] = scale.pick(&[50, 100, 200][..], &[250, 500, 1_000, 2_000, 4_000][..]);
    let mut ratios = Vec::new();
    for &n in sizes {
        let prep = prepare(workloads::back_edge_ladder(n));
        let (fig2, t1) =
            timed(|| solve_gmod_one_level(&prep.program, &prep.graph, &prep.plus, &prep.locals));
        let (iter, t2) =
            timed(|| iterative_gmod(&prep.program, &prep.graph, &prep.plus, &prep.locals));
        ratios.push(iter.stats().bitvec_steps as f64 / fig2.stats().bitvec_steps as f64);
        table.push_row([
            prep.program.num_procs().to_string(),
            prep.program.num_sites().to_string(),
            fmt_count(fig2.stats().bitvec_steps),
            fmt_time(t1),
            fmt_count(iter.stats().bitvec_steps),
            iter.stats().iterations.to_string(),
            fmt_time(t2),
        ]);
    }
    table.set_verdict(format!(
        "iterative/findgmod step ratio grows from {:.0}x to {:.0}x with N — \
         findgmod is linear, iteration is not",
        ratios.first().copied().unwrap_or(0.0),
        ratios.last().copied().unwrap_or(0.0)
    ));
    table
}

// --- E3: multi-level -----------------------------------------------------

/// §4 end: solving all `d_P` levels simultaneously costs
/// `O(E_C + d_P·N_C)` instead of `O(d_P(E_C + N_C))`.
pub fn experiment_e3(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3",
        "Nested GMOD: fused lowlink-vector pass vs one Figure 2 run per level",
        "the fused algorithm removes d_P as a multiplier of E_C",
        &[
            "d_P",
            "N",
            "E",
            "naive bv-steps",
            "naive time",
            "fused bv-steps",
            "fused time",
            "steps ratio",
        ],
    );
    let depths: &[usize] = scale.pick(&[2, 4, 8][..], &[2, 4, 8, 16, 32][..]);
    let budget = scale.pick(120usize, 2_048usize);
    for &dp in depths {
        let width = (budget / dp).saturating_sub(1).max(1);
        let prep = prepare(workloads::nested_ladder(dp, width));
        let (naive, t1) =
            timed(|| solve_gmod_multi_naive(&prep.program, &prep.graph, &prep.plus, &prep.locals));
        let (fused, t2) =
            timed(|| solve_gmod_multi_fused(&prep.program, &prep.graph, &prep.plus, &prep.locals));
        assert_eq!(naive.gmod_all(), fused.gmod_all(), "drivers must agree");
        table.push_row([
            (dp + 1).to_string(), // ladder sits below main: d_P = depth+1
            prep.program.num_procs().to_string(),
            prep.program.num_sites().to_string(),
            fmt_count(naive.stats().bitvec_steps),
            fmt_time(t1),
            fmt_count(fused.stats().bitvec_steps),
            fmt_time(t2),
            format!(
                "{:.2}",
                naive.stats().bitvec_steps as f64 / fused.stats().bitvec_steps as f64
            ),
        ]);
    }
    table.set_verdict(
        "the naive/fused ratio grows with d_P: the fused pass removes the \
         d_P·E_C term exactly as §4 claims",
    );
    table
}

// --- E4: end-to-end --------------------------------------------------------

/// §1(b)/§5: overall `O(N² + N·E)` with bit vectors; operation *counts*
/// stay linear in `E + N` while per-operation cost grows with the
/// variable universe.
pub fn experiment_e4(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4",
        "End-to-end MOD+USE pipeline on FORTRAN-like random programs",
        "bit-vector step count is O(E_C + N_C); with globals ∝ N the total \
         bit work is O(N·E + N²)",
        &[
            "procs",
            "sites",
            "vars",
            "bv-steps",
            "bool steps",
            "time",
            "time/site",
        ],
    );
    let sizes: &[usize] = scale.pick(
        &[50, 100, 200][..],
        &[200, 400, 800, 1_600, 3_200, 6_400][..],
    );
    for &n in sizes {
        let program = generate(&GenConfig::fortran_like(n), 42);
        let sites = program.num_sites() as u64;
        let (summary, t) = timed(|| Analyzer::new().analyze(&program));
        let total = summary.stats().total();
        table.push_row([
            program.num_procs().to_string(),
            sites.to_string(),
            program.num_vars().to_string(),
            fmt_count(total.bitvec_steps),
            fmt_count(total.bool_steps),
            fmt_time(t),
            fmt_time(t / sites.max(1) as u32),
        ]);
    }
    table.set_verdict(
        "bit-vector steps grow linearly with program size; wall time grows \
         ~quadratically because vectors lengthen with N (the §1 caveat)",
    );
    table
}

// --- E5: sections -----------------------------------------------------------

/// §6: the section solver's meet count does not depend on the lattice
/// depth (array rank), only on `E_β`.
pub fn experiment_e5(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5",
        "Regular sections: meets vs binding-graph size and array rank",
        "cost is O(E_β α(E_β,N_β)) meets and does not depend on the lattice \
         depth (§6's 'surprising fact')",
        &["chain len", "rank", "meets", "time", "meets/edge"],
    );
    let lens: &[usize] = scale.pick(&[50, 100][..], &[500, 1_000, 2_000][..]);
    for &len in lens {
        for rank in [1usize, 2, 4, 6] {
            let program = array_chain(len, rank);
            let (summary, t) = timed(|| modref_sections::analyze_sections(&program));
            let edges = (len - 1) as u64;
            table.push_row([
                len.to_string(),
                rank.to_string(),
                fmt_count(summary.meets_performed()),
                fmt_time(t),
                format!("{:.2}", summary.meets_performed() as f64 / edges as f64),
            ]);
        }
    }
    table.set_verdict(
        "meets per edge stay constant as rank grows: lattice depth does not \
         multiply the cost",
    );
    table
}

/// A chain of procedures passing one rank-`rank` array formal down; the
/// last writes a single element.
fn array_chain(n: usize, rank: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let procs: Vec<ProcId> = (0..n)
        .map(|i| b.nested_proc_ranked(ProcId::MAIN, &format!("p{i}"), &[("m", rank)]))
        .collect();
    b.assign_indexed(
        procs[n - 1],
        b.formal(procs[n - 1], 0),
        vec![modref_ir::Subscript::Const(0); rank],
        Expr::constant(1),
    );
    for i in 0..n - 1 {
        b.call(procs[i], procs[i + 1], &[b.formal(procs[i], 0)]);
    }
    let a = b.global_array("a", rank);
    let main = b.main();
    b.call(main, procs[0], &[a]);
    b.finish().expect("array_chain is valid")
}

// --- E6: β size bounds ------------------------------------------------------

/// §3.1: `N_β ≤ μ_f·N_C`, `E_β ≤ μ_a·E_C`, `2·E_β ≥ N_β`.
pub fn experiment_e6(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6",
        "Binding multi-graph size vs the call multi-graph",
        "N_β ≤ μ_f·N_C and E_β ≤ μ_a·E_C (β is only a constant k larger \
         than C); 2·E_β ≥ N_β by construction",
        &["params", "N_C", "E_C", "μ_f", "μ_a", "N_β", "E_β", "bounds"],
    );
    let seeds = scale.pick(3u64, 10u64);
    let mut all_ok = true;
    for params in [1usize, 2, 4, 8] {
        for seed in 0..seeds {
            let program = generate(&GenConfig::binding_heavy(60, params), seed);
            let beta = BindingGraph::build(&program);
            let report = beta.size_report(&program);
            let ok = report.bounds_hold();
            all_ok &= ok;
            if seed == 0 {
                table.push_row([
                    params.to_string(),
                    report.call_nodes.to_string(),
                    report.call_edges.to_string(),
                    format!("{:.2}", report.mean_formals),
                    format!("{:.2}", report.mean_actuals),
                    report.beta_nodes.to_string(),
                    report.beta_edges.to_string(),
                    if ok {
                        "ok".into()
                    } else {
                        "VIOLATED".to_owned()
                    },
                ]);
            }
        }
    }
    table.set_verdict(if all_ok {
        "all §3.1 size bounds hold on every sampled program"
    } else {
        "a bound was violated — INVESTIGATE"
    });
    table
}

// --- E7: alias factoring ----------------------------------------------------

/// §5: computing `MOD` from `DMOD` is linear in `|DMOD| + |ALIAS|`.
pub fn experiment_e7(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7",
        "Alias factoring cost",
        "MOD(s) from DMOD(s) takes time linear in |DMOD| + |ALIAS| (any \
         method must pay at least the aliases, §5)",
        &[
            "procs",
            "params",
            "alias pairs",
            "Σ|DMOD|",
            "Σ|MOD|",
            "time",
        ],
    );
    let base: usize = scale.pick(20, 200);
    for params in [2usize, 4, 8, 16] {
        let program = workloads::alias_heavy(base, params);
        let summary = Analyzer::new().analyze(&program);
        let aliases = AliasPairs::compute(&program);
        let pair_total: usize = program.procs().map(|p| aliases.pair_count(p)).sum();
        let dmod_total: usize = program.sites().map(|s| summary.dmod_site(s).len()).sum();
        let (_, t) = timed(|| {
            let dmod = modref_core::dmod::compute_dmod(&program, summary.gmod_all());
            modref_core::modsets::compute_mod(&program, &dmod, &aliases)
        });
        let mod_total: usize = program.sites().map(|s| summary.mod_site(s).len()).sum();
        table.push_row([
            program.num_procs().to_string(),
            params.to_string(),
            fmt_count(pair_total as u64),
            fmt_count(dmod_total as u64),
            fmt_count(mod_total as u64),
            fmt_time(t),
        ]);
    }
    table.set_verdict(
        "time tracks |ALIAS| (quadratic in the per-site parameter count), \
         matching the §5 lower-bound argument",
    );
    table
}

// --- E8: what the summaries buy a client -----------------------------------

/// §2's motivation, quantified on a real client: dead-store elimination
/// and call-site reordering with the computed summaries versus the
/// "assume the callee touches everything" compiler.
pub fn experiment_e8(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8",
        "Client value: optimizations with vs without the summaries",
        "a compiler with no interprocedural knowledge must assume every \
         call uses and modifies everything it can see (§2); the summaries \
         recover the difference",
        &[
            "procs",
            "sites",
            "dead stores (summary)",
            "dead stores (worst-case)",
            "across calls",
            "reorderable sites",
        ],
    );
    let sizes: &[usize] = scale.pick(&[30, 60][..], &[100, 400, 1_600][..]);
    let mut gained = 0usize;
    for &n in sizes {
        let program = client_workload(n);
        let summary = Analyzer::new().analyze(&program);
        let with = modref_opt::eliminate_dead_stores(&program, &summary);
        let without = modref_opt::eliminate_dead_stores_assuming_worst(&program);
        let classes = modref_opt::classify_sites(&program, &summary);
        gained += with.removed - without.removed.min(with.removed);
        table.push_row([
            program.num_procs().to_string(),
            program.num_sites().to_string(),
            with.removed.to_string(),
            without.removed.to_string(),
            with.removed_across_calls.to_string(),
            classes.reorderable().to_string(),
        ]);
    }
    table.set_verdict(if gained > 0 {
        "the summaries let the optimizer remove stores across calls and \
         reorder observer call sites — impossible under the worst-case \
         assumption"
            .to_owned()
    } else {
        "no gain measured — INVESTIGATE".to_owned()
    });
    table
}

/// Incremental re-analysis (the programming-environment setting the
/// paper's introduction cites): cost of one local-effect edit applied by
/// the incremental engine versus a from-scratch run.
pub fn experiment_e9(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9",
        "Incremental re-analysis vs from-scratch after one edit",
        "an edit's cost is proportional to the affected region, not the \
         program (dirty-set propagation with early cutoff over the \
         condensations of equations 4-6)",
        &[
            "procs",
            "full analyze",
            "incremental edit",
            "speedup",
            "procs touched",
        ],
    );
    let sizes: &[usize] = scale.pick(&[50, 100][..], &[200, 800, 3_200][..]);
    for &n in sizes {
        let program = generate(&GenConfig::fortran_like(n), 5);
        // The edit target: a procedure, and a global it may not yet write.
        let target = program
            .procs()
            .nth(program.num_procs() / 2)
            .expect("mid procedure");
        // Prefer a global the target does not yet modify, so the delta
        // actually propagates.
        let base = Analyzer::new().analyze(&program);
        let g = program
            .vars()
            .filter(|&v| program.var(v).is_global() && program.var(v).rank() == 0)
            .find(|&v| !base.gmod(target).contains(v.index()))
            .or_else(|| {
                program
                    .vars()
                    .find(|&v| program.var(v).is_global() && program.var(v).rank() == 0)
            })
            .expect("a scalar global");
        // The target's body keeps its current effects and also writes `g`.
        let fx = base.local_effects();
        let mut mods: Vec<VarId> = fx.imod_flat(target).iter().map(VarId::new).collect();
        if !mods.contains(&g) {
            mods.push(g);
        }
        let edit = Edit::SetLocalEffects {
            proc_: target,
            mods,
            uses: fx.iuse_flat(target).iter().map(VarId::new).collect(),
        };

        let mut engine = IncrementalEngine::new(program.clone());
        let (delta, t_inc) = timed(|| engine.apply(&edit).expect("edit applies"));
        let edited = engine.program().clone();
        let (_, t_full) = timed(|| Analyzer::new().analyze(&edited));
        table.push_row([
            edited.num_procs().to_string(),
            fmt_time(t_full),
            fmt_time(t_inc),
            format!(
                "{:.1}x",
                t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9)
            ),
            delta.changed_procs.len().to_string(),
        ]);
    }
    table.set_verdict(
        "the incremental step recomputes only what the edit can reach, so \
         it beats from-scratch re-analysis even when that is most of the \
         program (column 5)",
    );
    table
}

/// A FORTRAN-flavoured library shape: a third of the procedures mutate a
/// global, a third only observe one, a third compute purely on value
/// parameters; every "driver" procedure caches a global into a local,
/// calls a callee that provably ignores it, and never reads the cache —
/// the §2 pattern only interprocedural information can clean up.
fn client_workload(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let h = b.global("h");
    let main = b.main();
    for i in 0..n {
        match i % 3 {
            0 => {
                // Mutator.
                let p = b.proc_(&format!("mutate{i}"), &[]);
                b.assign(
                    p,
                    g,
                    Expr::binary(modref_ir::BinOp::Add, Expr::load(g), Expr::constant(1)),
                );
                b.call(main, p, &[]);
            }
            1 => {
                // Observer.
                let p = b.proc_(&format!("observe{i}"), &[]);
                b.print(p, Expr::load(h));
                b.call(main, p, &[]);
            }
            _ => {
                // Driver with a dead cache across an ignoring callee.
                let callee = b.proc_(&format!("ignores{i}"), &["x"]);
                b.assign(callee, b.formal(callee, 0), Expr::constant(0));
                let p = b.proc_(&format!("driver{i}"), &[]);
                let cache = b.local(p, "cache");
                let scratch = b.local(p, "scratch");
                b.assign(p, cache, Expr::load(g)); // dead: callee ignores it
                b.call(p, callee, &[scratch]);
                b.call(main, p, &[]);
            }
        }
    }
    b.finish().expect("client workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_all_run_and_pass_their_checks() {
        for t in all_experiments(Scale::Quick) {
            assert!(!t.rows.is_empty(), "{} produced no rows", t.id);
            assert!(
                !t.verdict.to_uppercase().contains("INVESTIGATE"),
                "{} failed: {}",
                t.id,
                t.verdict
            );
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(experiment_by_id("F3", Scale::Quick).is_some());
        assert!(experiment_by_id("e1", Scale::Quick).is_some());
        assert!(experiment_by_id("zz", Scale::Quick).is_none());
    }
}
