//! E13 set-representation sweep: dense vs hybrid vs auto across the
//! universe-size × row-density grid (`--set-repr`, docs/SETREPR.md).
//!
//! Each cell `u{universe}_d{density}` builds a batch of seeded rows at
//! the target density and times the solver's inner-loop op mix — union
//! chains, masked unions (`GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`, eq. 4), and a
//! membership/iteration pass — under each representation. The `auto` row
//! carries the measurement of whatever [`SetRepr::Auto`] *resolves* for
//! the cell, copied verbatim from that representation's timed row: the
//! knob dispatches once per analysis, so independently re-timing the
//! identical code path would gate scheduler noise rather than the
//! heuristic. The regression gate rides on it:
//!
//! ```text
//! bench_gate --pair auto:dense target/modref-bench/BENCH_setrepr.json 1.10
//! ```
//!
//! fails CI when the heuristic's pick ever costs more than 10% over
//! dense on any swept cell (it must only ever *pick* a winner, never
//! invent a loser — dense-resolved cells hold at exactly 1.0, so the
//! gate bites precisely where `Auto` dares to differ). Recorded rows
//! carry the deterministic side of the story:
//!
//! * `*_bytes` — heap bytes held by the cell's row batch per
//!   representation (the ≥2× sparse-cell memory win checked into
//!   `BENCH_setrepr.json`);
//! * `*_ops` — the [`OpCounter`] charge of one workload pass. The cost
//!   model prices whole-vector steps independently of representation
//!   (that is what keeps the paper's complexity accounting auditable),
//!   so these rows are equal by construction — checked, not assumed.
//!
//! `MODREF_SEED=<n>` replays a different row-batch seed.

use modref_bitset::{BitSet, EffectSet, HybridSet, OpCounter, SetRepr};
use modref_check::{BenchGroup, BenchOptions, Rng};

/// Rows per cell: enough that a workload pass is a real union chain,
/// small enough that the 100k-universe dense cells stay cache-resident.
const ROWS: usize = 24;

/// Builds the cell's row batch: `ROWS` element lists at `density` over
/// `universe`, deterministic in `seed`.
fn element_rows(universe: usize, density: f64, seed: u64) -> Vec<Vec<usize>> {
    let per_row = ((universe as f64 * density) as usize).max(1);
    let mut rng = Rng::seed_from_u64(seed);
    (0..ROWS)
        .map(|_| (0..per_row).map(|_| rng.gen_range(0..universe)).collect())
        .collect()
}

/// One solver-shaped workload pass: a union chain into an accumulator,
/// the paper's masked union (`acc ∪= row ∖ mask`), and a subset +
/// iteration sweep. Returns a value derived from every phase so nothing
/// is optimised away.
fn workload<S: EffectSet>(rows: &[S], universe: usize, ops: &mut OpCounter) -> usize {
    let mut acc = S::empty(universe);
    for row in rows {
        acc.union_with_counted(row, ops);
    }
    let mask = &rows[0];
    let mut masked = S::empty(universe);
    for row in rows {
        masked.union_with_difference_counted(row, mask, ops);
    }
    let mut narrowed = acc.clone();
    narrowed.intersect_with_counted(mask, ops);
    let mut sum = narrowed.len() + usize::from(narrowed.is_subset(&acc));
    for x in acc.iter() {
        sum = sum.wrapping_add(x);
    }
    sum
}

/// Heap bytes held by a row batch (what a solver's per-proc tables pay).
fn batch_bytes<S: EffectSet>(rows: &[S]) -> u128 {
    rows.iter().map(|r| r.heap_bytes() as u128).sum()
}

fn main() {
    let mut opts = BenchOptions::from_env();
    let seed: u64 = opts
        .seed
        .as_deref()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    opts.seed = Some(seed.to_string());
    let mut group = BenchGroup::with_options("setrepr", opts.clone()).samples(7);

    let universes = [1_000usize, 10_000, 100_000];
    let densities = [(0.001f64, "0.1"), (0.01, "1"), (0.10, "10"), (0.50, "50")];

    // Which representation Auto resolves per cell, for the copy pass.
    let mut auto_picks: Vec<(String, &'static str)> = Vec::new();

    for universe in universes {
        for (density, tag) in densities {
            let param = format!("u{universe}_d{tag}");
            let elems = element_rows(universe, density, seed);
            let dense_rows: Vec<BitSet> = elems
                .iter()
                .map(|e| BitSet::from_elems(universe, e.iter().copied()))
                .collect();
            let hybrid_rows: Vec<HybridSet> = elems
                .iter()
                .map(|e| HybridSet::from_elems(universe, e.iter().copied()))
                .collect();
            let per_row = ((universe as f64 * density) as usize).max(1);
            let pick = if SetRepr::Auto.use_hybrid(universe, Some(per_row)) {
                "hybrid"
            } else {
                "dense"
            };
            auto_picks.push((param.clone(), pick));

            let mut scratch = OpCounter::new();
            group.bench("dense", &param, || {
                workload(&dense_rows, universe, &mut scratch)
            });
            group.bench("hybrid", &param, || {
                workload(&hybrid_rows, universe, &mut scratch)
            });

            // The deterministic rows: memory held per representation and
            // the cost-model charge of one pass (representation-blind by
            // construction of the counted ops — assert it, then record).
            let mut dense_ops = OpCounter::new();
            let mut hybrid_ops = OpCounter::new();
            let d = workload(&dense_rows, universe, &mut dense_ops);
            let h = workload(&hybrid_rows, universe, &mut hybrid_ops);
            assert_eq!(d, h, "{param}: representations disagree");
            assert_eq!(
                dense_ops.total(),
                hybrid_ops.total(),
                "{param}: the cost model must charge identically"
            );
            group.record("dense_bytes", &param, batch_bytes(&dense_rows));
            group.record("hybrid_bytes", &param, batch_bytes(&hybrid_rows));
            let auto_bytes = if pick == "hybrid" {
                batch_bytes(&hybrid_rows)
            } else {
                batch_bytes(&dense_rows)
            };
            group.record("auto_bytes", &param, auto_bytes);
            group.record("dense_ops", &param, u128::from(dense_ops.total()));
            group.record("hybrid_ops", &param, u128::from(hybrid_ops.total()));
        }
    }
    let results = group.finish();

    // The auto rows: per cell, the timed measurement of the
    // representation Auto resolves to, under the gate's bench name.
    let mut auto_group = BenchGroup::with_options("setrepr", opts);
    for (param, pick) in auto_picks {
        let resolved = results
            .iter()
            .find(|r| r.bench == pick && r.param == param)
            .unwrap_or_else(|| panic!("{param}: no timed `{pick}` row"));
        auto_group.record("auto", &param, resolved.median_ns);
    }
    auto_group.finish();
}
