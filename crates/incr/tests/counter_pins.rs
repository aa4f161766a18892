//! Counter pins: the work the solvers report, in the paper's cost units,
//! on two fixed programs.
//!
//! The differential walls prove the *answers* equal the oracle; these
//! pins prove the *work* did not move. They hold, for one flat and one
//! depth-4 nested program, the per-query `OpCounter` of every demanded
//! site and procedure, the `PhaseStats` of `Analyzer::analyze` at one
//! and four threads, and the `IncrStats` of every apply of a fixed edit
//! script. A refactor that shares a kernel between the batch solvers,
//! the incremental engine and the demand memo must leave every one of
//! these numbers where it was; a change that means to move them updates
//! the pinned digests and says why.

use modref_bitset::OpCounter;
use modref_core::demand::{query_proc_guarded, query_site_guarded, DemandMemo};
use modref_core::{Analyzer, Guard, PhaseStats, Trace};
use modref_incr::{EditGen, IncrStats, IncrementalExt};
use modref_ir::Program;
use modref_progen::{generate, GenConfig};

/// FNV-1a over the rendered counters: stable across toolchains, unlike
/// `std`'s hashers.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn ops(c: &OpCounter) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        c.bitvec_steps, c.bool_steps, c.meets, c.nodes_visited, c.edges_visited, c.iterations
    )
}

fn flat_program() -> Program {
    generate(&GenConfig::fortran_like(80), 11)
}

fn nested_program() -> Program {
    let program = generate(&GenConfig::pascal_like(80, 4), 11);
    assert_eq!(program.max_level(), 4, "the nested pin needs depth 4");
    program
}

/// Every site, then every procedure, demanded in id order against one
/// memo — later queries reuse what earlier ones finalised, so the pin
/// also covers the memo hits.
fn demand_digest(program: &Program) -> String {
    let mut memo = DemandMemo::new(program);
    let (guard, trace) = (Guard::unlimited(), Trace::disabled());
    let mut out = String::new();
    for s in program.sites() {
        let (_, c) = query_site_guarded(program, &mut memo, s, &guard, &trace).expect("unlimited");
        out.push_str(&format!("s{}:{};", s.index(), ops(&c)));
    }
    for p in program.procs() {
        let (_, c) = query_proc_guarded(program, &mut memo, p, &guard, &trace).expect("unlimited");
        out.push_str(&format!("p{}:{};", p.index(), ops(&c)));
    }
    out
}

fn phase_digest(program: &Program, threads: usize) -> String {
    let summary = Analyzer::new().threads(threads).analyze(program);
    let s: &PhaseStats = summary.stats();
    format!(
        "rmod {} ruse {} plus {} gmod {} guse {} dmod {} modsets {} cut {:?}",
        ops(&s.rmod),
        ops(&s.ruse),
        ops(&s.imod_plus),
        ops(&s.gmod),
        ops(&s.guse),
        ops(&s.dmod),
        ops(&s.modsets),
        s.cut
    )
}

fn incr_line(s: &IncrStats) -> String {
    format!(
        "full {} deg {} flat {} rmod {}/{} gmod {}/{} sites {}/{} alias {}/{}/{};",
        u8::from(s.full_rebuild),
        u8::from(s.degraded),
        s.procs_flat_recomputed,
        s.rmod_components_reused,
        s.rmod_components_recomputed,
        s.gmod_components_reused,
        s.gmod_components_recomputed,
        s.sites_reused,
        s.sites_recomputed,
        s.alias_pairs_added,
        s.alias_pairs_removed,
        s.alias_pairs_overdeleted
    )
}

/// The initial build, 24 mixed edits and 12 structural ones from a fixed
/// generator seed; rejected edits are recorded as such.
fn incr_digest(program: &Program, threads: usize) -> String {
    let mut engine = Analyzer::new()
        .threads(threads)
        .incremental(program.clone());
    let mut out = incr_line(engine.stats());
    let mut gen = EditGen::new(0x5eed_c0de);
    for step in 0..36 {
        let edit = if step < 24 {
            gen.next_edit(engine.program())
        } else {
            gen.next_structural_edit(engine.program())
        };
        match engine.apply(&edit) {
            Ok(_) => out.push_str(&incr_line(engine.stats())),
            Err(_) => out.push_str("rejected;"),
        }
    }
    out
}

/// Compares each digest with its pinned FNV-1a hash; on any mismatch,
/// names every digest that moved with its new hash and counters.
fn check(pins: &[(&str, String, u64)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, actual, pinned)| fnv1a(actual) != *pinned)
        .map(|(what, actual, _)| format!("{what}: now {:#x}\n{actual}", fnv1a(actual)))
        .collect();
    assert!(moved.is_empty(), "counters moved:\n{}", moved.join("\n"));
}

#[test]
fn demand_query_counters_are_pinned() {
    check(&[
        (
            "flat demand ops",
            demand_digest(&flat_program()),
            0xfcf4_31fe_8552_5ed2,
        ),
        (
            "nested demand ops",
            demand_digest(&nested_program()),
            0x9e76_0cbd_9213_2029,
        ),
    ]);
}

#[test]
fn batch_phase_counters_are_pinned() {
    let (flat, nested) = (flat_program(), nested_program());
    check(&[
        (
            "flat PhaseStats, 1 thread",
            phase_digest(&flat, 1),
            0xe57c_faf3_80b5_defa,
        ),
        (
            "flat PhaseStats, 4 threads",
            phase_digest(&flat, 4),
            0xf71b_1699_5856_d8d8,
        ),
        (
            "nested PhaseStats, 1 thread",
            phase_digest(&nested, 1),
            0x3fc5_bce5_4c79_70af,
        ),
        (
            "nested PhaseStats, 4 threads",
            phase_digest(&nested, 4),
            0x8b93_e8fb_dec1_7aa2,
        ),
    ]);
}

#[test]
fn incremental_stats_are_pinned() {
    let (flat, nested) = (flat_program(), nested_program());
    check(&[
        (
            "flat IncrStats, 1 thread",
            incr_digest(&flat, 1),
            0x8997_76f3_c597_abbd,
        ),
        (
            "flat IncrStats, 4 threads",
            incr_digest(&flat, 4),
            0x8997_76f3_c597_abbd,
        ),
        (
            "nested IncrStats, 1 thread",
            incr_digest(&nested, 1),
            0xa33e_8a9f_74d0_bafb,
        ),
        (
            "nested IncrStats, 4 threads",
            incr_digest(&nested, 4),
            0xa33e_8a9f_74d0_bafb,
        ),
    ]);
}
