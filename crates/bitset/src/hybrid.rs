//! The small/spilled/dense [`HybridSet`] representation.
//!
//! Most MOD/GMOD rows in real call graphs touch a handful of variables out
//! of a universe of thousands (ROADMAP item 5). `HybridSet` stores such
//! rows as one inline word (elements `0..64`) plus a small sorted spill
//! vector (elements `>= 64`), in the style of the metamath-knife bitset,
//! and transparently **promotes** to the dense [`BitSet`] form when the row
//! stops being sparse:
//!
//! * the spill exceeds [`SPILL_MAX`] elements, or
//! * the cardinality reaches `domain / DENSITY_DIV` (only for universes
//!   larger than one word — at `domain <= 64` the inline word is already
//!   the dense representation).
//!
//! Promotion is one-way: a set never demotes (except via [`clear`], which
//! resets to the empty inline form). Equality and hashing are canonical
//! over `(domain, elements)`, so a promoted set compares equal to an
//! unpromoted one with the same contents — representation state is a pure
//! performance artifact, which is what the representation-differential
//! test wall verifies.
//!
//! [`clear`]: EffectSet::clear

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{BitSet, DomainMismatch, EffectSet, WORD_BITS};

/// Maximum number of spilled (`>= 64`) elements held inline before a
/// [`HybridSet`] promotes to the dense representation.
pub const SPILL_MAX: usize = 12;

/// Number of elements covered by the inline word.
pub const INLINE_BITS: usize = WORD_BITS;

/// Density promotion divisor: a small set promotes once
/// `len * DENSITY_DIV >= domain` (for `domain > INLINE_BITS`).
pub const DENSITY_DIV: usize = 4;

/// A set of `usize` elements from `0..domain` that is cheap while sparse
/// and promotes to a dense [`BitSet`] once it is not.
///
/// # Examples
///
/// ```
/// use modref_bitset::{EffectSet, HybridSet};
///
/// let mut s = HybridSet::empty(100_000);
/// s.insert(3);
/// s.insert(99_999);
/// assert!(s.contains(99_999));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 99_999]);
/// assert!(!s.is_dense_repr());
/// ```
#[derive(Clone)]
pub struct HybridSet {
    domain: usize,
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Sparse inline form: `low` covers `0..64`, `spill` is sorted, unique,
    /// every element in `64..domain`, and `spill.len() <= SPILL_MAX`.
    Small { low: u64, spill: Vec<u32> },
    /// Promoted dense form (only for `domain > INLINE_BITS`).
    Dense(BitSet),
}

impl HybridSet {
    /// Returns `true` if this set has promoted to the dense representation.
    ///
    /// Representation state never affects set semantics — this accessor
    /// exists for the promotion-boundary tests and the bench memory
    /// accounting.
    pub fn is_dense_repr(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Number of spilled (`>= 64`) elements currently held inline
    /// (0 once promoted).
    pub fn spill_len(&self) -> usize {
        match &self.repr {
            Repr::Small { spill, .. } => spill.len(),
            Repr::Dense(_) => 0,
        }
    }

    /// Fallible [`union_with`](EffectSet::union_with): returns a typed
    /// [`DomainMismatch`] instead of relying on the debug assertion.
    pub fn try_union_with(&mut self, other: &Self) -> Result<bool, DomainMismatch> {
        if self.domain != other.domain {
            return Err(DomainMismatch {
                left: self.domain,
                right: other.domain,
            });
        }
        Ok(self.union_with(other))
    }

    fn check_domains(&self, other: &Self) {
        debug_assert_eq!(
            self.domain, other.domain,
            "bit-set domain mismatch: {} vs {}",
            self.domain, other.domain
        );
    }

    /// Promotes to dense if the sparse invariants no longer pay off.
    fn maybe_promote(&mut self) {
        if self.domain <= INLINE_BITS {
            return;
        }
        let promote = match &self.repr {
            Repr::Small { low, spill } => {
                spill.len() > SPILL_MAX
                    || (low.count_ones() as usize + spill.len()) * DENSITY_DIV >= self.domain
            }
            Repr::Dense(_) => false,
        };
        if promote {
            self.promote();
        }
    }

    fn promote(&mut self) {
        if let Repr::Small { low, spill } = &self.repr {
            let mut dense = BitSet::new(self.domain);
            let mut bits = *low;
            while bits != 0 {
                dense.insert(bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            for &x in spill {
                dense.insert(x as usize);
            }
            self.repr = Repr::Dense(dense);
        }
    }
}

impl Default for HybridSet {
    fn default() -> Self {
        HybridSet::empty(0)
    }
}

impl PartialEq for HybridSet {
    fn eq(&self, other: &Self) -> bool {
        if self.domain != other.domain {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Small { low: a, spill: sa }, Repr::Small { low: b, spill: sb }) => {
                a == b && sa == sb
            }
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            // Mixed representation states: canonical element comparison.
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for HybridSet {}

impl Hash for HybridSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Canonical over (domain, ascending elements) so that promoted and
        // unpromoted sets with equal contents hash identically.
        self.domain.hash(state);
        for x in self.iter() {
            x.hash(state);
        }
    }
}

impl fmt::Debug for HybridSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl EffectSet for HybridSet {
    const REPR_NAME: &'static str = "hybrid";

    type ElemIter<'a> = HybridIter<'a>;

    fn empty(domain: usize) -> Self {
        HybridSet {
            domain,
            repr: Repr::Small {
                low: 0,
                spill: Vec::new(),
            },
        }
    }

    fn full(domain: usize) -> Self {
        if domain > INLINE_BITS {
            HybridSet {
                domain,
                repr: Repr::Dense(BitSet::full(domain)),
            }
        } else {
            HybridSet {
                domain,
                repr: Repr::Small {
                    low: if domain == 0 {
                        0
                    } else {
                        !0u64 >> (INLINE_BITS - domain)
                    },
                    spill: Vec::new(),
                },
            }
        }
    }

    fn domain(&self) -> usize {
        self.domain
    }

    fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { low, spill } => low.count_ones() as usize + spill.len(),
            Repr::Dense(d) => d.len(),
        }
    }

    fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small { low, spill } => *low == 0 && spill.is_empty(),
            Repr::Dense(d) => d.is_empty(),
        }
    }

    fn insert(&mut self, x: usize) -> bool {
        assert!(
            x < self.domain,
            "element {x} out of universe 0..{}",
            self.domain
        );
        let fresh = match &mut self.repr {
            Repr::Small { low, spill } => {
                if x < INLINE_BITS {
                    let mask = 1u64 << x;
                    let fresh = *low & mask == 0;
                    *low |= mask;
                    fresh
                } else {
                    let x = x as u32;
                    match spill.binary_search(&x) {
                        Ok(_) => false,
                        Err(pos) => {
                            spill.insert(pos, x);
                            true
                        }
                    }
                }
            }
            Repr::Dense(d) => d.insert(x),
        };
        if fresh {
            self.maybe_promote();
        }
        fresh
    }

    fn remove(&mut self, x: usize) -> bool {
        assert!(
            x < self.domain,
            "element {x} out of universe 0..{}",
            self.domain
        );
        match &mut self.repr {
            Repr::Small { low, spill } => {
                if x < INLINE_BITS {
                    let mask = 1u64 << x;
                    let present = *low & mask != 0;
                    *low &= !mask;
                    present
                } else {
                    match spill.binary_search(&(x as u32)) {
                        Ok(pos) => {
                            spill.remove(pos);
                            true
                        }
                        Err(_) => false,
                    }
                }
            }
            Repr::Dense(d) => d.remove(x),
        }
    }

    fn contains(&self, x: usize) -> bool {
        if x >= self.domain {
            return false;
        }
        match &self.repr {
            Repr::Small { low, spill } => {
                if x < INLINE_BITS {
                    *low & (1u64 << x) != 0
                } else {
                    spill.binary_search(&(x as u32)).is_ok()
                }
            }
            Repr::Dense(d) => d.contains(x),
        }
    }

    fn clear(&mut self) {
        self.repr = Repr::Small {
            low: 0,
            spill: Vec::new(),
        };
    }

    fn union_with(&mut self, other: &Self) -> bool {
        self.check_domains(other);
        // Absorbing a dense operand into a small receiver would overflow the
        // spill almost surely; promote up front so the word loop does the work.
        if !self.is_dense_repr() && other.is_dense_repr() {
            self.promote();
        }
        let changed = match (&mut self.repr, &other.repr) {
            (
                Repr::Small { low, spill },
                Repr::Small {
                    low: olow,
                    spill: ospill,
                },
            ) => {
                let next = *low | olow;
                let mut changed = next != *low;
                *low = next;
                if !ospill.is_empty() {
                    let before = spill.len();
                    let mut merged = Vec::with_capacity(before + ospill.len());
                    let (mut i, mut j) = (0, 0);
                    while i < spill.len() && j < ospill.len() {
                        match spill[i].cmp(&ospill[j]) {
                            std::cmp::Ordering::Less => {
                                merged.push(spill[i]);
                                i += 1;
                            }
                            std::cmp::Ordering::Greater => {
                                merged.push(ospill[j]);
                                j += 1;
                            }
                            std::cmp::Ordering::Equal => {
                                merged.push(spill[i]);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    merged.extend_from_slice(&spill[i..]);
                    merged.extend_from_slice(&ospill[j..]);
                    changed |= merged.len() != before;
                    *spill = merged;
                }
                changed
            }
            (Repr::Dense(d), Repr::Small { .. }) => {
                let mut changed = false;
                for x in other.iter() {
                    changed |= d.insert(x);
                }
                changed
            }
            (Repr::Small { .. }, Repr::Dense(_)) => {
                unreachable!("small receiver promoted before dense union")
            }
            (Repr::Dense(d), Repr::Dense(od)) => d.union_with(od),
        };
        if changed {
            self.maybe_promote();
        }
        changed
    }

    fn intersect_with(&mut self, other: &Self) -> bool {
        self.check_domains(other);
        match (&mut self.repr, &other.repr) {
            (
                Repr::Small { low, spill },
                Repr::Small {
                    low: olow,
                    spill: ospill,
                },
            ) => {
                let next = *low & olow;
                let mut changed = next != *low;
                *low = next;
                let before = spill.len();
                spill.retain(|x| ospill.binary_search(x).is_ok());
                changed |= spill.len() != before;
                changed
            }
            (Repr::Small { low, spill }, Repr::Dense(od)) => {
                let olow = od.as_words().first().copied().unwrap_or(0);
                let next = *low & olow;
                let mut changed = next != *low;
                *low = next;
                let before = spill.len();
                spill.retain(|&x| od.contains(x as usize));
                changed |= spill.len() != before;
                changed
            }
            (Repr::Dense(d), _) => {
                // The result is a subset of `other`; collect survivors
                // (bounded by |other| for a small `other`) and rebuild.
                let before = d.len();
                let kept: Vec<usize> = other.iter().filter(|&x| d.contains(x)).collect();
                if kept.len() == before {
                    return false;
                }
                d.clear();
                for x in kept {
                    d.insert(x);
                }
                true
            }
        }
    }

    fn difference_with(&mut self, other: &Self) -> bool {
        self.check_domains(other);
        match (&mut self.repr, &other.repr) {
            (
                Repr::Small { low, spill },
                Repr::Small {
                    low: olow,
                    spill: ospill,
                },
            ) => {
                let next = *low & !olow;
                let mut changed = next != *low;
                *low = next;
                if !ospill.is_empty() {
                    let before = spill.len();
                    spill.retain(|x| ospill.binary_search(x).is_err());
                    changed |= spill.len() != before;
                }
                changed
            }
            (Repr::Small { low, spill }, Repr::Dense(od)) => {
                let olow = od.as_words().first().copied().unwrap_or(0);
                let next = *low & !olow;
                let mut changed = next != *low;
                *low = next;
                let before = spill.len();
                spill.retain(|&x| !od.contains(x as usize));
                changed |= spill.len() != before;
                changed
            }
            (Repr::Dense(d), Repr::Small { .. }) => {
                let mut changed = false;
                for x in other.iter() {
                    changed |= d.remove(x);
                }
                changed
            }
            (Repr::Dense(d), Repr::Dense(od)) => d.difference_with(od),
        }
    }

    fn union_with_difference(&mut self, src: &Self, minus: &Self) -> bool {
        self.check_domains(src);
        self.check_domains(minus);
        if let (Repr::Dense(d), Repr::Dense(s), Repr::Dense(m)) =
            (&mut self.repr, &src.repr, &minus.repr)
        {
            return d.union_with_difference(s, m);
        }
        let mut changed = false;
        for x in src.iter() {
            if !minus.contains(x) {
                changed |= self.insert(x);
            }
        }
        changed
    }

    fn union_with_intersection(&mut self, src: &Self, mask: &Self) -> bool {
        self.check_domains(src);
        self.check_domains(mask);
        if let (Repr::Dense(d), Repr::Dense(s), Repr::Dense(m)) =
            (&mut self.repr, &src.repr, &mask.repr)
        {
            return d.union_with_intersection(s, m);
        }
        let mut changed = false;
        for x in src.iter() {
            if mask.contains(x) {
                changed |= self.insert(x);
            }
        }
        changed
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        self.check_domains(other);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a.is_disjoint(b),
            (Repr::Small { .. }, _) => self.iter().all(|x| !other.contains(x)),
            (_, Repr::Small { .. }) => other.iter().all(|x| !self.contains(x)),
        }
    }

    fn is_subset(&self, other: &Self) -> bool {
        self.check_domains(other);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a.is_subset(b),
            _ => self.len() <= other.len() && self.iter().all(|x| other.contains(x)),
        }
    }

    fn iter(&self) -> HybridIter<'_> {
        match &self.repr {
            Repr::Small { low, spill } => HybridIter::Small {
                low: *low,
                spill,
                spill_idx: 0,
            },
            Repr::Dense(d) => HybridIter::Dense(d.iter()),
        }
    }

    fn from_dense(set: &BitSet) -> Self {
        let domain = set.domain();
        if domain <= INLINE_BITS {
            return HybridSet {
                domain,
                repr: Repr::Small {
                    low: set.as_words().first().copied().unwrap_or(0),
                    spill: Vec::new(),
                },
            };
        }
        let len = set.len();
        let high = len - (set.as_words()[0].count_ones() as usize);
        if high <= SPILL_MAX && len * DENSITY_DIV < domain {
            let mut spill = Vec::with_capacity(high);
            for x in set.iter() {
                if x >= INLINE_BITS {
                    spill.push(x as u32);
                }
            }
            HybridSet {
                domain,
                repr: Repr::Small {
                    low: set.as_words()[0],
                    spill,
                },
            }
        } else {
            HybridSet {
                domain,
                repr: Repr::Dense(set.clone()),
            }
        }
    }

    fn from_dense_owned(set: BitSet) -> Self {
        let domain = set.domain();
        if domain <= INLINE_BITS {
            return HybridSet::from_dense(&set);
        }
        let len = set.len();
        let high = len - (set.as_words()[0].count_ones() as usize);
        if high <= SPILL_MAX && len * DENSITY_DIV < domain {
            HybridSet::from_dense(&set)
        } else {
            HybridSet {
                domain,
                repr: Repr::Dense(set),
            }
        }
    }

    fn to_dense(&self) -> BitSet {
        match &self.repr {
            Repr::Small { .. } => BitSet::from_iter_with_domain(self.domain, self.iter()),
            Repr::Dense(d) => d.clone(),
        }
    }

    fn into_dense(self) -> BitSet {
        match self.repr {
            Repr::Small { .. } => BitSet::from_iter_with_domain(self.domain, self.iter()),
            Repr::Dense(d) => d,
        }
    }

    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small { spill, .. } => spill.capacity() * std::mem::size_of::<u32>(),
            Repr::Dense(d) => d.as_words().len() * std::mem::size_of::<u64>(),
        }
    }
}

impl Extend<usize> for HybridSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<'a> IntoIterator for &'a HybridSet {
    type Item = usize;
    type IntoIter = HybridIter<'a>;

    fn into_iter(self) -> HybridIter<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`HybridSet`], ascending.
#[derive(Debug, Clone)]
pub enum HybridIter<'a> {
    /// Iterating the inline word then the sorted spill.
    Small {
        /// Remaining inline bits.
        low: u64,
        /// The sorted spill slice.
        spill: &'a [u32],
        /// Next spill index to yield.
        spill_idx: usize,
    },
    /// Iterating a promoted dense set.
    Dense(crate::Iter<'a>),
}

impl Iterator for HybridIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            HybridIter::Small {
                low,
                spill,
                spill_idx,
            } => {
                if *low != 0 {
                    let bit = low.trailing_zeros() as usize;
                    *low &= *low - 1;
                    Some(bit)
                } else if *spill_idx < spill.len() {
                    let x = spill[*spill_idx] as usize;
                    *spill_idx += 1;
                    Some(x)
                } else {
                    None
                }
            }
            HybridIter::Dense(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn insert_remove_contains_across_word_boundary() {
        let mut s = HybridSet::empty(10_000);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(9_999));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(65));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 9_999]);
        assert!(!s.is_dense_repr());
    }

    #[test]
    fn spill_overflow_promotes() {
        let mut s = HybridSet::empty(100_000);
        for i in 0..SPILL_MAX {
            s.insert(1000 + i);
            assert!(!s.is_dense_repr(), "at spill {} still small", i + 1);
        }
        assert_eq!(s.spill_len(), SPILL_MAX);
        s.insert(5000);
        assert!(s.is_dense_repr(), "spill {} promotes", SPILL_MAX + 1);
        assert_eq!(s.len(), SPILL_MAX + 1);
    }

    #[test]
    fn density_promotes() {
        let domain = 100usize;
        let cutoff = domain.div_ceil(DENSITY_DIV);
        let mut s = HybridSet::empty(domain);
        for i in 0..cutoff - 1 {
            s.insert(i);
            assert!(!s.is_dense_repr(), "below cutoff at len {}", i + 1);
        }
        s.insert(cutoff - 1);
        assert!(s.is_dense_repr(), "promotes at len {cutoff}");
    }

    #[test]
    fn small_domain_never_promotes() {
        let mut s = HybridSet::empty(64);
        for i in 0..64 {
            s.insert(i);
        }
        assert!(!s.is_dense_repr());
        assert_eq!(s.len(), 64);
        assert_eq!(s, HybridSet::full(64));
    }

    #[test]
    fn eq_and_hash_are_canonical_across_promotion() {
        let mut promoted = HybridSet::empty(1_000);
        for i in 0..300 {
            promoted.insert(i);
        }
        assert!(promoted.is_dense_repr());
        for i in 3..300 {
            promoted.remove(i);
        }
        let small = HybridSet::from_elems(1_000, [0usize, 1, 2]);
        assert!(!small.is_dense_repr());
        assert_eq!(promoted, small);
        assert_eq!(small, promoted);
        assert_eq!(hash_of(&promoted), hash_of(&small));
    }

    #[test]
    fn full_matches_dense_full() {
        for domain in [0usize, 1, 63, 64, 65, 200] {
            let h = HybridSet::full(domain);
            assert_eq!(h.to_dense(), BitSet::full(domain), "domain {domain}");
            assert_eq!(h.len(), domain);
        }
    }

    #[test]
    fn clear_resets_to_small() {
        let mut s = HybridSet::full(500);
        assert!(s.is_dense_repr());
        s.clear();
        assert!(!s.is_dense_repr());
        assert!(s.is_empty());
        assert_eq!(s.domain(), 500);
    }

    #[test]
    fn try_union_reports_mismatch() {
        let mut a = HybridSet::empty(10);
        let b = HybridSet::empty(11);
        assert_eq!(
            a.try_union_with(&b),
            Err(DomainMismatch {
                left: 10,
                right: 11
            })
        );
        let c = HybridSet::from_elems(10, [4usize]);
        assert_eq!(a.try_union_with(&c), Ok(true));
        assert!(a.contains(4));
    }

    #[test]
    fn heap_bytes_is_small_while_sparse() {
        let mut s = HybridSet::empty(100_000);
        s.insert(1);
        s.insert(70_000);
        let dense = s.to_dense();
        assert!(EffectSet::heap_bytes(&s) * 100 < EffectSet::heap_bytes(&dense));
    }
}
