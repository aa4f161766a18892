//! Property-based tests: `BitSet`/`SetMatrix` against a `BTreeSet` model.

use std::collections::BTreeSet;

use modref_bitset::{BitSet, SetMatrix};
use modref_check::prelude::*;

const DOMAIN: usize = 300;

fn elems() -> impl Strategy<Value = Vec<usize>> {
    vec_of(ints(0..DOMAIN), 0..64)
}

fn model(v: &[usize]) -> BTreeSet<usize> {
    v.iter().copied().collect()
}

fn build(v: &[usize]) -> BitSet {
    BitSet::from_iter_with_domain(DOMAIN, v.iter().copied())
}

property! {
    fn union_matches_model(a in elems(), b in elems()) {
        let (ma, mb) = (model(&a), model(&b));
        let mut s = build(&a);
        s.union_with(&build(&b));
        let want: Vec<usize> = ma.union(&mb).copied().collect();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), want);
    }

    fn intersection_matches_model(a in elems(), b in elems()) {
        let (ma, mb) = (model(&a), model(&b));
        let mut s = build(&a);
        s.intersect_with(&build(&b));
        let want: Vec<usize> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), want);
    }

    fn difference_matches_model(a in elems(), b in elems()) {
        let (ma, mb) = (model(&a), model(&b));
        let mut s = build(&a);
        s.difference_with(&build(&b));
        let want: Vec<usize> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), want);
    }

    fn union_with_difference_is_composite(a in elems(), b in elems(), c in elems()) {
        let mut fast = build(&a);
        fast.union_with_difference(&build(&b), &build(&c));
        let mut tmp = build(&b);
        tmp.difference_with(&build(&c));
        let mut slow = build(&a);
        slow.union_with(&tmp);
        prop_assert_eq!(fast, slow);
    }

    fn len_matches_model(a in elems()) {
        prop_assert_eq!(build(&a).len(), model(&a).len());
    }

    fn subset_disjoint_consistency(a in elems(), b in elems()) {
        let (ma, mb) = (model(&a), model(&b));
        let (sa, sb) = (build(&a), build(&b));
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
    }

    fn matrix_or_rows_matches_sets(a in elems(), b in elems(), mask in elems()) {
        let (ma, mb, mmask) = (model(&a), model(&b), model(&mask));
        let mut m: SetMatrix<BitSet> = SetMatrix::new(2, DOMAIN);
        prop_assert_eq!(m.or_row_with_set(0, &build(&a)), !ma.is_empty());
        prop_assert_eq!(m.or_row_with_set(1, &build(&b)), !mb.is_empty());
        let changed = m.or_rows_minus(0, 1, &build(&mask));
        let want: BTreeSet<usize> = ma.union(&(&mb - &mmask)).copied().collect();
        prop_assert_eq!(changed, want != ma);
        prop_assert_eq!(m.row_to_set(0).iter().collect::<BTreeSet<_>>(), want);
        // Source row is untouched; a second pass changes nothing.
        prop_assert_eq!(m.row_to_set(1).iter().collect::<BTreeSet<_>>(), mb);
        prop_assert!(!m.or_rows_minus(0, 1, &build(&mask)));
    }
}
