//! The [`SetMatrix`]: many [`EffectSet`] rows over one shared universe.
//!
//! One row per procedure, with the split-row primitives equation (4) of
//! Cooper–Kennedy 1988 needs (`GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`). With
//! `S = BitSet` each row is its own dense vector; with `S = HybridSet`
//! sparse rows stay one word plus a small spill until they promote.

use std::fmt;

use crate::EffectSet;

/// A rectangular matrix of [`EffectSet`] rows over the universe `0..cols`.
///
/// # Examples
///
/// ```
/// use modref_bitset::{BitSet, SetMatrix};
///
/// let mut m: SetMatrix<BitSet> = SetMatrix::new(3, 10);
/// m.insert(0, 4);
/// m.insert(1, 7);
/// m.or_rows(0, 1); // row0 ∪= row1
/// assert!(m.contains(0, 7));
/// assert!(!m.contains(1, 4));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SetMatrix<S: EffectSet> {
    cols: usize,
    rows: Vec<S>,
}

impl<S: EffectSet> SetMatrix<S> {
    /// Creates an all-empty matrix with `rows` rows over universe `0..cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        SetMatrix {
            cols,
            rows: (0..rows).map(|_| S::empty(cols)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Size of the shared universe (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `col` in row `row`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn insert(&mut self, row: usize, col: usize) -> bool {
        self.rows[row].insert(col)
    }

    /// Clears bit `col` in row `row`; returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn remove(&mut self, row: usize, col: usize) -> bool {
        self.rows[row].remove(col)
    }

    /// Tests bit `col` in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range. Columns past the universe read as
    /// `false`.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.rows[row].contains(col)
    }

    /// `row[dst] ∪= row[src]`; returns `true` if the destination changed.
    ///
    /// `dst == src` is allowed and is a no-op.
    pub fn or_rows(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with(s)
    }

    /// `row[dst] ∪= row[src] ∖ mask` where `mask` is an external set of the
    /// same universe (e.g. `LOCAL[q]`); returns `true` if `dst` changed.
    ///
    /// `dst == src` applies `row[dst] ∪= row[dst] ∖ mask`, a no-op.
    pub fn or_rows_minus(&mut self, dst: usize, src: usize, mask: &S) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with_difference(s, mask)
    }

    /// `row[dst] ∪= row[src] ∩ mask`; returns `true` if `dst` changed.
    pub fn or_rows_masked(&mut self, dst: usize, src: usize, mask: &S) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with_intersection(s, mask)
    }

    /// `row[dst] ∪= set`; returns `true` if the row changed.
    pub fn or_row_with_set(&mut self, dst: usize, set: &S) -> bool {
        self.rows[dst].union_with(set)
    }

    /// Shared view of row `row`.
    pub fn row(&self, row: usize) -> &S {
        &self.rows[row]
    }

    /// Copies row `src` into a fresh set.
    pub fn row_to_set(&self, src: usize) -> S {
        self.rows[src].clone()
    }

    /// Replaces row `dst` with the contents of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or `set.domain() != self.cols()`.
    pub fn set_row(&mut self, dst: usize, set: &S) {
        assert_eq!(set.domain(), self.cols, "set domain mismatch");
        self.rows[dst] = set.clone();
    }

    /// Consumes the matrix, yielding its rows.
    pub fn into_rows(self) -> Vec<S> {
        self.rows
    }

    /// Iterates over the set columns of row `row`, ascending.
    pub fn row_iter(&self, row: usize) -> S::ElemIter<'_> {
        self.rows[row].iter()
    }

    /// Number of set bits in row `row`.
    pub fn row_len(&self, row: usize) -> usize {
        self.rows[row].len()
    }

    /// Returns `true` if rows `a` and `b` hold identical sets.
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.rows[a] == self.rows[b]
    }

    /// Total heap bytes across all rows (for the bench memory columns).
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.heap_bytes()).sum()
    }

    fn check_row(&self, row: usize) {
        assert!(
            row < self.rows.len(),
            "row {row} out of range 0..{}",
            self.rows.len()
        );
    }

    /// Splits the storage into one mutable and one shared row.
    fn two_rows(&mut self, dst: usize, src: usize) -> (&mut S, &S) {
        debug_assert_ne!(dst, src);
        if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        }
    }
}

impl<S: EffectSet> fmt::Debug for SetMatrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut dbg = f.debug_map();
        for (r, row) in self.rows.iter().enumerate() {
            dbg.entry(&r, &row.iter().collect::<Vec<_>>());
        }
        dbg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSet, HybridSet};

    fn exercise<S: EffectSet>() {
        let mut m: SetMatrix<S> = SetMatrix::new(3, 100);
        assert!(m.insert(0, 1));
        assert!(!m.insert(0, 1));
        assert!(m.insert(2, 69));
        assert!(m.or_rows(0, 2));
        assert!(m.contains(0, 69));
        assert!(!m.or_rows(0, 0));
        assert!(m.or_rows(2, 0));
        assert!(m.contains(2, 1));
        assert!(!m.or_rows(2, 0));
        assert!(m.remove(2, 1));
        assert!(!m.remove(2, 1));
        let local = S::from_elems(100, [69usize]);
        assert!(m.or_rows_minus(1, 0, &local));
        assert!(m.contains(1, 1) && !m.contains(1, 69));
        assert!(m.or_rows_masked(1, 0, &local));
        assert!(m.contains(1, 69));
        assert_eq!(m.row_len(1), 2);
        let s = S::from_elems(100, [0usize, 63, 64, 99]);
        m.set_row(2, &s);
        assert_eq!(m.row_to_set(2), s);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 63, 64, 99]);
        assert!(!m.rows_equal(0, 2));
        m.or_row_with_set(0, &s);
        assert!(m.remove(0, 69));
        assert_eq!(m.row(0).len(), 5);

        let mut empty: SetMatrix<S> = SetMatrix::new(3, 0);
        assert!(!empty.or_rows(0, 1));
        assert_eq!(empty.row_len(2), 0);
    }

    #[test]
    fn dense_rows() {
        exercise::<BitSet>();
    }

    #[test]
    fn hybrid_rows() {
        exercise::<HybridSet>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn self_or_checks_bounds() {
        let mut m: SetMatrix<BitSet> = SetMatrix::new(2, 8);
        m.or_rows(5, 5);
    }
}
