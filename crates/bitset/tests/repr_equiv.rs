//! The representation-differential wall (ISSUE 10, satellites 1–2).
//!
//! Every [`EffectSet`] operation must produce *bit-identical* results under
//! the dense [`BitSet`] and the [`HybridSet`] representations: same changed
//! flags, same membership, same ascending iteration, same dense image. The
//! properties here drive random op sequences through both representations
//! in lockstep (shrinking to a minimal failing sequence via `modref-check`,
//! replayable with `MODREF_SEED`), and the deterministic tests pin the
//! promotion thresholds exactly at K = `SPILL_MAX`, K+1, and the density
//! cutoff ±1.

use modref_bitset::{BitSet, EffectSet, HybridSet, SetMatrix, DENSITY_DIV, INLINE_BITS, SPILL_MAX};
use modref_check::prelude::*;

/// Universes straddling the word boundary, the inline cutoff, and sizes
/// where the density / spill promotions actually trigger.
const DOMAINS: [usize; 8] = [1, 63, 64, 65, 100, 129, 300, 2048];

/// One encoded mutation/probe: `(kind, x, elems_a, elems_b)`.
type Op = (usize, usize, Vec<usize>, Vec<usize>);

fn build<S: EffectSet>(domain: usize, elems: &[usize]) -> S {
    S::from_elems(domain, elems.iter().map(|&e| e % domain))
}

/// Applies one op to a set of representation `S`; returns an observation
/// that must match across representations.
fn apply<S: EffectSet>(set: &mut S, domain: usize, op: &Op) -> (bool, usize) {
    let (kind, x, a, b) = op;
    let x = x % domain;
    let sa: S = build(domain, a);
    let sb: S = build(domain, b);
    let flag = match kind % 12 {
        0 => set.insert(x),
        1 => set.remove(x),
        2 => set.contains(x),
        3 => {
            set.clear();
            false
        }
        4 => set.union_with(&sa),
        5 => set.intersect_with(&sa),
        6 => set.difference_with(&sa),
        7 => set.union_with_difference(&sa, &sb),
        8 => set.union_with_intersection(&sa, &sb),
        9 => set.is_subset(&sa),
        10 => set.is_disjoint(&sa),
        _ => {
            // Round-trip through the dense image, exercising from_dense.
            *set = S::from_dense(&set.to_dense());
            set.is_empty()
        }
    };
    (flag, set.len())
}

/// Checks the hybrid set's internal invariants: if it has not promoted, it
/// must still be below every promotion threshold.
fn check_invariants(h: &HybridSet, domain: usize) -> Result<(), String> {
    if !h.is_dense_repr() {
        if h.spill_len() > SPILL_MAX {
            return Err(format!(
                "unpromoted spill {} > {}",
                h.spill_len(),
                SPILL_MAX
            ));
        }
        if domain > INLINE_BITS && h.len() * DENSITY_DIV >= domain {
            return Err(format!(
                "unpromoted at density {}/{} (cutoff {})",
                h.len(),
                domain,
                domain.div_ceil(DENSITY_DIV)
            ));
        }
    }
    Ok(())
}

property! {
    #![cases = 192]
    fn op_sequences_bit_identical(
        domain in element_of(DOMAINS.to_vec()),
        ops in vec_of(
            (ints(0..12usize), ints(0..2048usize),
             vec_of(ints(0..2048usize), 0..32), vec_of(ints(0..2048usize), 0..32)),
            0..24,
        ),
    ) {
        let mut dense = BitSet::new(domain);
        let mut hybrid = HybridSet::empty(domain);
        for (i, op) in ops.iter().enumerate() {
            let obs_d = apply(&mut dense, domain, op);
            let obs_h = apply(&mut hybrid, domain, op);
            prop_assert_eq!(obs_d, obs_h, "op {i} {:?} diverged", op.0);
            prop_assert_eq!(
                hybrid.to_dense(), dense.clone(),
                "op {i} contents diverged"
            );
            prop_assert_eq!(
                hybrid.iter().collect::<Vec<_>>(),
                dense.iter().collect::<Vec<_>>()
            );
            prop_assert_eq!(hybrid.is_empty(), EffectSet::is_empty(&dense));
            prop_assert_eq!(hybrid.domain(), EffectSet::domain(&dense));
            if let Err(e) = check_invariants(&hybrid, domain) {
                prop_assert!(false, "op {i}: {e}");
            }
        }
        // Canonical equality: a hybrid rebuilt from the dense image equals
        // the evolved hybrid regardless of its promotion state.
        prop_assert_eq!(HybridSet::from_dense(&dense), hybrid);
    }

}

property! {
    #[allow(clippy::type_complexity)]
    fn matrix_ops_bit_identical(
        domain in element_of(vec![65usize, 100, 300]),
        ops in vec_of(
            (ints(0..6usize), ints(0..4usize), ints(0..4usize),
             vec_of(ints(0..300usize), 0..24)),
            0..20,
        ),
    ) {
        const ROWS: usize = 4;
        let mut md: SetMatrix<BitSet> = SetMatrix::new(ROWS, domain);
        let mut mh: SetMatrix<HybridSet> = SetMatrix::new(ROWS, domain);
        for (i, (kind, dst, src, elems)) in ops.iter().enumerate() {
            let (dst, src) = (dst % ROWS, src % ROWS);
            let sd: BitSet = build(domain, elems);
            let sh: HybridSet = build(domain, elems);
            let (cd, ch) = match kind % 6 {
                0 => (md.or_rows(dst, src), mh.or_rows(dst, src)),
                1 => (md.or_rows_minus(dst, src, &sd), mh.or_rows_minus(dst, src, &sh)),
                2 => (md.or_rows_masked(dst, src, &sd), mh.or_rows_masked(dst, src, &sh)),
                3 => (md.or_row_with_set(dst, &sd), mh.or_row_with_set(dst, &sh)),
                4 => {
                    let col = elems.first().copied().unwrap_or(0) % domain;
                    (md.insert(dst, col), mh.insert(dst, col))
                }
                _ => {
                    md.set_row(dst, &sd);
                    mh.set_row(dst, &sh);
                    (true, true)
                }
            };
            prop_assert_eq!(cd, ch, "matrix op {i} changed-flag diverged");
            for r in 0..ROWS {
                prop_assert_eq!(
                    mh.row(r).to_dense(), md.row(r).clone(),
                    "matrix op {i} row {r} diverged"
                );
                prop_assert_eq!(mh.row_len(r), md.row_len(r));
            }
        }
    }

}

// Satellite 2: sequences concentrated around the promotion thresholds
// (inline-word boundary, spill cap, density cutoff), oscillating via
// inserts/removes/unions, with the dense model as the oracle.
property! {
    #![cases = 192]
    fn promotion_boundary_oscillation(
        domain in element_of(vec![65usize, 80, 100, 10_000]),
        ops in vec_of(
            (ints(0..4usize), ints(0..10_000usize), vec_of(ints(0..10_000usize), 0..18)),
            1..40,
        ),
    ) {
        let mut dense = BitSet::new(domain);
        let mut hybrid = HybridSet::empty(domain);
        // Bias elements toward the word boundary and the spill range so the
        // sequence crosses 64, SPILL_MAX and the density cutoff repeatedly.
        let squeeze = |x: usize| -> usize {
            match x % 3 {
                0 => (INLINE_BITS.saturating_sub(8) + x % 16) % domain,
                1 => (INLINE_BITS + x % (2 * SPILL_MAX + 2)).min(domain - 1),
                _ => x % domain,
            }
        };
        for (i, (kind, x, elems)) in ops.iter().enumerate() {
            let x = squeeze(*x);
            match kind % 4 {
                0 => {
                    prop_assert_eq!(dense.insert(x), hybrid.insert(x), "insert at op {i}");
                }
                1 => {
                    prop_assert_eq!(dense.remove(x), hybrid.remove(x), "remove at op {i}");
                }
                2 => {
                    let od = BitSet::from_iter_with_domain(
                        domain, elems.iter().map(|&e| squeeze(e)));
                    let oh = HybridSet::from_dense(&od);
                    prop_assert_eq!(
                        dense.union_with(&od), hybrid.union_with(&oh),
                        "union at op {i}"
                    );
                }
                _ => {
                    let od = BitSet::from_iter_with_domain(
                        domain, elems.iter().map(|&e| squeeze(e)));
                    let oh = HybridSet::from_dense(&od);
                    prop_assert_eq!(
                        dense.difference_with(&od), hybrid.difference_with(&oh),
                        "difference at op {i}"
                    );
                }
            }
            prop_assert_eq!(hybrid.to_dense(), dense.clone(), "contents at op {i}");
            if let Err(e) = check_invariants(&hybrid, domain) {
                prop_assert!(false, "op {i}: {e}");
            }
        }
    }
}

/// Exactly K = `SPILL_MAX` spilled elements stay inline; K+1 promotes —
/// whether the (K+1)-th arrives by `insert` or by `union_with`.
#[test]
fn spill_cap_exact_boundary() {
    let domain = 100_000;

    let mut by_insert = HybridSet::empty(domain);
    for i in 0..SPILL_MAX {
        by_insert.insert(INLINE_BITS + 2 * i);
    }
    assert!(!by_insert.is_dense_repr(), "exactly K spilled stays small");
    assert_eq!(by_insert.spill_len(), SPILL_MAX);
    by_insert.insert(INLINE_BITS + 2 * SPILL_MAX);
    assert!(by_insert.is_dense_repr(), "K+1 spilled promotes");

    let half = SPILL_MAX / 2;
    let a_elems: Vec<usize> = (0..half).map(|i| INLINE_BITS + 2 * i).collect();
    let b_elems: Vec<usize> = (0..SPILL_MAX - half)
        .map(|i| INLINE_BITS + 1000 + 2 * i)
        .collect();
    let mut merged = HybridSet::from_elems(domain, a_elems.iter().copied());
    merged.union_with(&HybridSet::from_elems(domain, b_elems.iter().copied()));
    assert!(!merged.is_dense_repr(), "union to exactly K stays small");
    assert_eq!(merged.spill_len(), SPILL_MAX);
    merged.union_with(&HybridSet::from_elems(domain, [INLINE_BITS + 5000]));
    assert!(merged.is_dense_repr(), "union past K promotes");
    // Promotion preserved contents.
    assert_eq!(merged.len(), SPILL_MAX + 1);
}

/// Density cutoff ±1: `len * DENSITY_DIV >= domain` promotes, one element
/// below does not — and `from_dense` makes the same call.
#[test]
fn density_cutoff_exact_boundary() {
    for domain in [65usize, 100, 128, 257] {
        let cutoff = domain.div_ceil(DENSITY_DIV);
        let mut s = HybridSet::empty(domain);
        for i in 0..cutoff - 1 {
            s.insert(i % INLINE_BITS);
        }
        assert!(
            !s.is_dense_repr(),
            "domain {domain}: cutoff-1 ({}) stays small",
            cutoff - 1
        );
        // Hold the set below the spill cap so only density can promote.
        assert!(cutoff - 1 <= INLINE_BITS, "test premise at domain {domain}");
        s.insert(INLINE_BITS);
        assert!(
            s.is_dense_repr(),
            "domain {domain}: cutoff ({cutoff}) promotes"
        );

        let below = BitSet::from_iter_with_domain(domain, 0..cutoff - 1);
        assert!(!HybridSet::from_dense(&below).is_dense_repr());
        let at = BitSet::from_iter_with_domain(domain, 0..cutoff);
        assert!(HybridSet::from_dense(&at).is_dense_repr());
    }
}

/// `domain <= 64` never promotes: the inline word *is* the dense form.
#[test]
fn inline_domain_never_promotes() {
    for domain in [1usize, 63, 64] {
        let mut s = HybridSet::empty(domain);
        for i in 0..domain {
            s.insert(i);
        }
        assert!(!s.is_dense_repr(), "domain {domain}");
        assert_eq!(s.to_dense(), BitSet::full(domain));
    }
}

/// The `*_counted` trait ops charge identical `OpCounter` steps under both
/// representations — the paper's cost model is representation-invariant.
#[test]
fn counted_ops_charge_identically() {
    use modref_bitset::OpCounter;

    fn drive<S: EffectSet>() -> u64 {
        let mut ops = OpCounter::new();
        let mut s = S::from_elems(1000, [1usize, 70, 900]);
        let other = S::from_elems(1000, (0..40).map(|i| i * 7));
        s.union_with_counted(&other, &mut ops);
        s.difference_with_counted(&other, &mut ops);
        let mask = S::from_elems(1000, [7usize, 70]);
        s.union_with_difference_counted(&other, &mask, &mut ops);
        s.union_with_intersection_counted(&other, &mask, &mut ops);
        s.intersect_with_counted(&other, &mut ops);
        ops.bitvec_steps
    }

    assert_eq!(drive::<BitSet>(), drive::<HybridSet>());
}
