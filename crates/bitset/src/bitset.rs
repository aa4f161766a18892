//! The dense fixed-universe [`BitSet`].

use std::fmt;

use crate::{words_for, DomainMismatch, WORD_BITS};

/// A dense set of `usize` elements drawn from a fixed universe `0..domain`.
///
/// Every set operation that combines two sets requires both operands to have
/// the same domain size; this models the paper's bit vectors, which are all
/// as long as the variable universe of the program under analysis.
///
/// # Domain-mismatch contract
///
/// The binary operations (`union_with`, `intersect_with`, …) **debug-assert**
/// that both operands share one domain. In release builds the check is
/// elided from these hot loops: a mismatch then yields an unspecified (but
/// memory-safe) result — the word loops simply stop at the shorter vector.
/// All sets produced by one analysis share the program's variable universe,
/// so the solvers never mix domains; at trust boundaries (deserialised
/// state, cross-program sets) use the fallible `try_*` variants, which
/// return a typed [`DomainMismatch`] error in every build profile.
///
/// # Examples
///
/// ```
/// use modref_bitset::BitSet;
///
/// let mut mods = BitSet::new(10);
/// mods.insert(2);
/// mods.insert(7);
/// assert!(mods.contains(2));
/// assert_eq!(mods.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    domain: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set over the universe `0..domain`.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = modref_bitset::BitSet::new(100);
    /// assert!(s.is_empty());
    /// assert_eq!(s.domain(), 100);
    /// ```
    pub fn new(domain: usize) -> Self {
        BitSet {
            domain,
            words: vec![0; words_for(domain)],
        }
    }

    /// Creates a set containing every element of the universe.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = modref_bitset::BitSet::full(70);
    /// assert_eq!(s.len(), 70);
    /// assert!(s.contains(69));
    /// ```
    pub fn full(domain: usize) -> Self {
        let mut set = BitSet {
            domain,
            words: vec![!0u64; words_for(domain)],
        };
        set.trim_tail();
        set
    }

    /// Creates a set from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= domain`.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = modref_bitset::BitSet::from_iter_with_domain(8, [1, 5]);
    /// assert!(s.contains(5));
    /// ```
    pub fn from_iter_with_domain<I: IntoIterator<Item = usize>>(domain: usize, iter: I) -> Self {
        let mut set = BitSet::new(domain);
        for x in iter {
            set.insert(x);
        }
        set
    }

    /// The size of the universe this set draws from.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of elements currently in the set.
    ///
    /// This is `O(domain / 64)`.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `x`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.domain()`.
    pub fn insert(&mut self, x: usize) -> bool {
        self.check(x);
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes `x`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.domain()`.
    pub fn remove(&mut self, x: usize) -> bool {
        self.check(x);
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Tests membership of `x`. Elements outside the universe are absent.
    pub fn contains(&self, x: usize) -> bool {
        if x >= self.domain {
            return false;
        }
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ∪= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.check_domains(other);
        let mut changed = false;
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// `self ∩= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.check_domains(other);
        let mut changed = false;
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            let next = *d & s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// `self ∖= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        self.check_domains(other);
        let mut changed = false;
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            let next = *d & !s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// `self ∪= src ∖ minus` in one pass; returns `true` if `self` changed.
    ///
    /// This is the single-step form of the paper's equation (4),
    /// `GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`, and is what makes each edge of the
    /// call graph cost exactly one bit-vector step in `findgmod`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn union_with_difference(&mut self, src: &BitSet, minus: &BitSet) -> bool {
        self.check_domains(src);
        self.check_domains(minus);
        let mut changed = false;
        for ((d, s), m) in self.words.iter_mut().zip(&src.words).zip(&minus.words) {
            let next = *d | (s & !m);
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// `self ∪= src ∩ mask` in one pass; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn union_with_intersection(&mut self, src: &BitSet, mask: &BitSet) -> bool {
        self.check_domains(src);
        self.check_domains(mask);
        let mut changed = false;
        for ((d, s), m) in self.words.iter_mut().zip(&src.words).zip(&mask.words) {
            let next = *d | (s & m);
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// Returns `true` if the two sets share no element.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check_domains(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every element of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the domains differ; release builds elide the
    /// check (see the type-level *domain-mismatch contract*). Use the
    /// corresponding `try_*` method where a checked, typed error is needed.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_domains(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = modref_bitset::BitSet::from_iter_with_domain(200, [150, 3]);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 150]);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Read-only view of the underlying words (for hashing/serialisation).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn check(&self, x: usize) {
        assert!(
            x < self.domain,
            "element {x} out of universe 0..{}",
            self.domain
        );
    }

    fn check_domains(&self, other: &BitSet) {
        debug_assert_eq!(
            self.domain, other.domain,
            "bit-set domain mismatch: {} vs {}",
            self.domain, other.domain
        );
    }

    /// Checks that `other` draws from the same universe, returning a typed
    /// error otherwise. The backbone of the `try_*` operations.
    pub fn checked_domains(&self, other: &BitSet) -> Result<(), DomainMismatch> {
        if self.domain == other.domain {
            Ok(())
        } else {
            Err(DomainMismatch {
                left: self.domain,
                right: other.domain,
            })
        }
    }

    /// Fallible [`union_with`](BitSet::union_with): checked in every build
    /// profile, returning [`DomainMismatch`] instead of asserting.
    pub fn try_union_with(&mut self, other: &BitSet) -> Result<bool, DomainMismatch> {
        self.checked_domains(other)?;
        Ok(self.union_with(other))
    }

    /// Fallible [`intersect_with`](BitSet::intersect_with).
    pub fn try_intersect_with(&mut self, other: &BitSet) -> Result<bool, DomainMismatch> {
        self.checked_domains(other)?;
        Ok(self.intersect_with(other))
    }

    /// Fallible [`difference_with`](BitSet::difference_with).
    pub fn try_difference_with(&mut self, other: &BitSet) -> Result<bool, DomainMismatch> {
        self.checked_domains(other)?;
        Ok(self.difference_with(other))
    }

    /// Fallible [`union_with_difference`](BitSet::union_with_difference).
    pub fn try_union_with_difference(
        &mut self,
        src: &BitSet,
        minus: &BitSet,
    ) -> Result<bool, DomainMismatch> {
        self.checked_domains(src)?;
        self.checked_domains(minus)?;
        Ok(self.union_with_difference(src, minus))
    }

    /// Fallible [`union_with_intersection`](BitSet::union_with_intersection).
    pub fn try_union_with_intersection(
        &mut self,
        src: &BitSet,
        mask: &BitSet,
    ) -> Result<bool, DomainMismatch> {
        self.checked_domains(src)?;
        self.checked_domains(mask)?;
        Ok(self.union_with_intersection(src, mask))
    }

    /// Fallible [`is_subset`](BitSet::is_subset).
    pub fn try_is_subset(&self, other: &BitSet) -> Result<bool, DomainMismatch> {
        self.checked_domains(other)?;
        Ok(self.is_subset(other))
    }

    /// Fallible [`is_disjoint`](BitSet::is_disjoint).
    pub fn try_is_disjoint(&self, other: &BitSet) -> Result<bool, DomainMismatch> {
        self.checked_domains(other)?;
        Ok(self.is_disjoint(other))
    }

    /// Zeroes any bits past `domain` in the last word.
    fn trim_tail(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.domain;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0u64 >> extra;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`BitSet`], ascending.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contains_out_of_domain_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1_000_000));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_domain_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn union_domain_mismatch_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn full_respects_domain() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert_eq!(s.iter().max(), Some(66));
        let e = BitSet::full(0);
        assert!(e.is_empty());
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::from_iter_with_domain(100, [1, 2]);
        let b = BitSet::from_iter_with_domain(100, [2, 3]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn intersect_and_difference() {
        let mut a = BitSet::from_iter_with_domain(100, [1, 2, 3, 99]);
        let b = BitSet::from_iter_with_domain(100, [2, 3, 4]);
        let mut c = a.clone();
        assert!(c.intersect_with(&b));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert!(a.difference_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 99]);
    }

    #[test]
    fn union_with_difference_matches_composed_ops() {
        let mut fast = BitSet::from_iter_with_domain(256, [0, 100]);
        let src = BitSet::from_iter_with_domain(256, [100, 200, 255]);
        let minus = BitSet::from_iter_with_domain(256, [200]);
        let mut slow_tmp = src.clone();
        slow_tmp.difference_with(&minus);
        let mut slow = fast.clone();
        slow.union_with(&slow_tmp);
        assert!(fast.union_with_difference(&src, &minus));
        assert_eq!(fast, slow);
        assert!(!fast.union_with_difference(&src, &minus));
    }

    #[test]
    fn union_with_intersection_matches_composed_ops() {
        let mut fast = BitSet::from_iter_with_domain(70, [1]);
        let src = BitSet::from_iter_with_domain(70, [2, 3, 69]);
        let mask = BitSet::from_iter_with_domain(70, [3, 69]);
        assert!(fast.union_with_intersection(&src, &mask));
        assert_eq!(fast.iter().collect::<Vec<_>>(), vec![1, 3, 69]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_iter_with_domain(64, [1, 2]);
        let b = BitSet::from_iter_with_domain(64, [1, 2, 3]);
        let c = BitSet::from_iter_with_domain(64, [10]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::new(64).is_subset(&a));
    }

    #[test]
    fn debug_is_never_empty() {
        let s = BitSet::new(8);
        assert_eq!(format!("{s:?}"), "{}");
        let mut s2 = BitSet::new(8);
        s2.insert(5);
        assert_eq!(format!("{s2:?}"), "{5}");
    }

    #[test]
    fn extend_and_into_iterator() {
        let mut s = BitSet::new(16);
        s.extend([4usize, 8, 4]);
        let via_ref: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(via_ref, vec![4, 8]);
    }

    #[test]
    fn try_ops_report_domain_mismatch() {
        let mut a = BitSet::new(64);
        let b = BitSet::new(65);
        let err = DomainMismatch {
            left: 64,
            right: 65,
        };
        assert_eq!(a.try_union_with(&b), Err(err));
        assert_eq!(a.try_intersect_with(&b), Err(err));
        assert_eq!(a.try_difference_with(&b), Err(err));
        assert_eq!(a.try_is_subset(&b), Err(err));
        assert_eq!(a.try_is_disjoint(&b), Err(err));
        let c = BitSet::new(64);
        assert_eq!(a.try_union_with_difference(&c, &b), Err(err));
        assert_eq!(a.try_union_with_intersection(&b, &c), Err(err));
        // Matching domains succeed and report change like the panicking forms.
        let d = BitSet::from_iter_with_domain(64, [7]);
        assert_eq!(a.try_union_with(&d), Ok(true));
        assert_eq!(a.try_union_with(&d), Ok(false));
        assert!(a.contains(7));
    }

    #[test]
    fn word_boundary_domains() {
        // domain % 64 == 0 and ±1: the tail-trim and word-count edges.
        for domain in [63usize, 64, 65, 127, 128, 129] {
            let full = BitSet::full(domain);
            assert_eq!(full.len(), domain, "full len at {domain}");
            assert_eq!(full.iter().max(), Some(domain - 1));
            assert!(!full.contains(domain));

            let mut s = BitSet::new(domain);
            s.insert(domain - 1);
            assert!(s.is_subset(&full), "subset at {domain}");
            let mut t = full.clone();
            assert!(t.difference_with(&s), "difference at {domain}");
            assert_eq!(t.len(), domain - 1);
            assert!(t.is_disjoint(&s), "disjoint at {domain}");

            let mut u = BitSet::new(domain);
            assert!(u.union_with_difference(&full, &s));
            assert_eq!(u, t, "union_with_difference at {domain}");
            let mut v = BitSet::new(domain);
            assert!(v.union_with_intersection(&full, &s));
            assert_eq!(v, s, "union_with_intersection at {domain}");
            assert_eq!(words_for(domain), full.as_words().len());
        }
    }

    #[test]
    fn empty_domain_set_is_sane() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut t = s.clone();
        assert!(!t.union_with(&s));
    }
}
