//! The [`EffectSet`] abstraction: one trait, two representations.
//!
//! Every solver in the workspace manipulates *effect sets* — subsets of the
//! program's variable universe (`MOD`, `USE`, `GMOD`, …). The paper states
//! its complexity bounds in whole-vector *bit-vector steps*, which are
//! representation-independent: a solver charges one step per abstract
//! set-op regardless of how the set is stored. This module captures that
//! contract as a trait so the solver stack can be instantiated with either
//!
//! * [`BitSet`] — the paper's dense "exceedingly long bit vectors" (§4), or
//! * [`HybridSet`](crate::HybridSet) — an inline-word + spilled-sorted-list
//!   representation that transparently promotes to dense past a density
//!   threshold, cutting memory traffic on the sparse rows that dominate
//!   real call graphs.
//!
//! Two sets of the same representation and domain are equal iff they hold
//! the same elements; iteration is always ascending. Solvers therefore
//! produce **bit-identical** results under either representation — a claim
//! enforced by the representation-differential test wall
//! (`crates/bitset/tests/repr_equiv.rs`, `crates/core/tests/exhaustive.rs`).

use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

use crate::{BitSet, OpCounter};

/// Error returned by the fallible (`try_*`) binary set operations when the
/// two operands draw from different universes.
///
/// The infallible operations (`union_with`, …) *debug-assert* equal domains
/// and document the release-build contract instead of checking on every
/// hot-loop call; use the `try_*` forms at trust boundaries (deserialised
/// input, cross-program sets) where a typed error is worth the branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainMismatch {
    /// Domain of the left-hand (receiver) set.
    pub left: usize,
    /// Domain of the right-hand (argument) set.
    pub right: usize,
}

impl fmt::Display for DomainMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit-set domain mismatch: {} vs {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for DomainMismatch {}

/// A set of `usize` elements drawn from a fixed universe `0..domain`,
/// as used by every solver phase.
///
/// # Contract
///
/// * Binary operations require both operands to share one domain. This is
///   debug-asserted; in release builds a mismatch yields an unspecified
///   (but memory-safe) result. Use the `try_*` inherent methods on the
///   concrete types where a typed [`DomainMismatch`] error is needed.
/// * `Eq`/`Hash` are canonical over `(domain, elements)` — two sets of the
///   same type compare equal iff they contain the same elements, whatever
///   internal representation state they are in.
/// * [`iter`](EffectSet::iter) yields elements in ascending order.
/// * The `*_counted` variants charge the paper's cost model exactly one
///   `bitvec_steps` per whole-vector operation, independent of
///   representation, so `--metrics` output is identical across
///   representations.
pub trait EffectSet:
    Clone + PartialEq + Eq + Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Human-readable representation name (`"dense"`, `"hybrid"`).
    const REPR_NAME: &'static str;

    /// Ascending iterator over the elements.
    type ElemIter<'a>: Iterator<Item = usize> + 'a
    where
        Self: 'a;

    /// Creates an empty set over `0..domain`.
    fn empty(domain: usize) -> Self;

    /// Creates a set containing every element of `0..domain`.
    fn full(domain: usize) -> Self;

    /// The size of the universe this set draws from.
    fn domain(&self) -> usize;

    /// Number of elements currently in the set.
    fn len(&self) -> usize;

    /// Returns `true` if the set contains no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `x`, returning `true` if it was not already present.
    ///
    /// Panics if `x >= self.domain()`.
    fn insert(&mut self, x: usize) -> bool;

    /// Removes `x`, returning `true` if it was present.
    ///
    /// Panics if `x >= self.domain()`.
    fn remove(&mut self, x: usize) -> bool;

    /// Tests membership of `x`. Elements outside the universe are absent.
    fn contains(&self, x: usize) -> bool;

    /// Removes every element.
    fn clear(&mut self);

    /// `self ∪= other`; returns `true` if `self` changed.
    fn union_with(&mut self, other: &Self) -> bool;

    /// `self ∩= other`; returns `true` if `self` changed.
    fn intersect_with(&mut self, other: &Self) -> bool;

    /// `self ∖= other`; returns `true` if `self` changed.
    fn difference_with(&mut self, other: &Self) -> bool;

    /// `self ∪= src ∖ minus` in one pass; returns `true` if `self` changed.
    ///
    /// The single-step form of the paper's equation (4).
    fn union_with_difference(&mut self, src: &Self, minus: &Self) -> bool;

    /// `self ∪= src ∩ mask` in one pass; returns `true` if `self` changed.
    fn union_with_intersection(&mut self, src: &Self, mask: &Self) -> bool;

    /// Returns `true` if the two sets share no element.
    fn is_disjoint(&self, other: &Self) -> bool;

    /// Returns `true` if every element of `self` is in `other`.
    fn is_subset(&self, other: &Self) -> bool;

    /// Iterates over the elements in ascending order.
    fn iter(&self) -> Self::ElemIter<'_>;

    /// Builds a set of this representation from a dense one.
    fn from_dense(set: &BitSet) -> Self;

    /// Builds a set of this representation from a dense one, consuming it.
    ///
    /// For `BitSet` this is the identity move, which keeps the dense
    /// pipeline path allocation-free at representation boundaries.
    fn from_dense_owned(set: BitSet) -> Self;

    /// Converts to the dense representation.
    fn to_dense(&self) -> BitSet;

    /// Converts to the dense representation, consuming `self`.
    ///
    /// For `BitSet` this is the identity move.
    fn into_dense(self) -> BitSet;

    /// Bytes of heap storage currently owned by this set (excluding the
    /// inline struct itself). Feeds the `BENCH_setrepr` memory columns.
    fn heap_bytes(&self) -> usize;

    /// Builds a set from an iterator of elements.
    fn from_elems<I: IntoIterator<Item = usize>>(domain: usize, elems: I) -> Self {
        let mut s = Self::empty(domain);
        for x in elems {
            s.insert(x);
        }
        s
    }

    /// [`union_with`](EffectSet::union_with), charged as one bit-vector step.
    fn union_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.union_with(other)
    }

    /// [`intersect_with`](EffectSet::intersect_with), charged as one
    /// bit-vector step.
    fn intersect_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.intersect_with(other)
    }

    /// [`difference_with`](EffectSet::difference_with), charged as one
    /// bit-vector step.
    fn difference_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.difference_with(other)
    }

    /// [`union_with_difference`](EffectSet::union_with_difference), charged
    /// as one bit-vector step (the paper's per-edge cost in `findgmod`).
    fn union_with_difference_counted(
        &mut self,
        src: &Self,
        minus: &Self,
        ops: &mut OpCounter,
    ) -> bool {
        ops.bitvec_steps += 1;
        self.union_with_difference(src, minus)
    }

    /// [`union_with_intersection`](EffectSet::union_with_intersection),
    /// charged as one bit-vector step.
    fn union_with_intersection_counted(
        &mut self,
        src: &Self,
        mask: &Self,
        ops: &mut OpCounter,
    ) -> bool {
        ops.bitvec_steps += 1;
        self.union_with_intersection(src, mask)
    }
}

impl EffectSet for BitSet {
    const REPR_NAME: &'static str = "dense";

    type ElemIter<'a> = crate::Iter<'a>;

    fn empty(domain: usize) -> Self {
        BitSet::new(domain)
    }

    fn full(domain: usize) -> Self {
        BitSet::full(domain)
    }

    fn domain(&self) -> usize {
        BitSet::domain(self)
    }

    fn len(&self) -> usize {
        BitSet::len(self)
    }

    fn is_empty(&self) -> bool {
        BitSet::is_empty(self)
    }

    fn insert(&mut self, x: usize) -> bool {
        BitSet::insert(self, x)
    }

    fn remove(&mut self, x: usize) -> bool {
        BitSet::remove(self, x)
    }

    fn contains(&self, x: usize) -> bool {
        BitSet::contains(self, x)
    }

    fn clear(&mut self) {
        BitSet::clear(self)
    }

    fn union_with(&mut self, other: &Self) -> bool {
        BitSet::union_with(self, other)
    }

    fn intersect_with(&mut self, other: &Self) -> bool {
        BitSet::intersect_with(self, other)
    }

    fn difference_with(&mut self, other: &Self) -> bool {
        BitSet::difference_with(self, other)
    }

    fn union_with_difference(&mut self, src: &Self, minus: &Self) -> bool {
        BitSet::union_with_difference(self, src, minus)
    }

    fn union_with_intersection(&mut self, src: &Self, mask: &Self) -> bool {
        BitSet::union_with_intersection(self, src, mask)
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        BitSet::is_disjoint(self, other)
    }

    fn is_subset(&self, other: &Self) -> bool {
        BitSet::is_subset(self, other)
    }

    fn iter(&self) -> Self::ElemIter<'_> {
        BitSet::iter(self)
    }

    fn from_dense(set: &BitSet) -> Self {
        set.clone()
    }

    fn from_dense_owned(set: BitSet) -> Self {
        set
    }

    fn to_dense(&self) -> BitSet {
        self.clone()
    }

    fn into_dense(self) -> BitSet {
        self
    }

    fn heap_bytes(&self) -> usize {
        self.as_words().len() * std::mem::size_of::<u64>()
    }
}

/// The set representation an [`Analyzer`](https://docs.rs/modref-core)
/// run should use, selected via the `--set-repr` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetRepr {
    /// The paper's dense bit vectors (the default; byte-identical to all
    /// historical output).
    #[default]
    Dense,
    /// The inline-word/spilled hybrid representation everywhere.
    Hybrid,
    /// Choose per-analysis by universe size (and an optional expected-
    /// cardinality hint): hybrid for large sparse universes, dense
    /// otherwise.
    Auto,
}

/// Universe size at or below which [`SetRepr::Auto`] always picks dense:
/// at 1988-paper scales a dense row is a handful of words and the hybrid
/// bookkeeping cannot win.
pub const AUTO_DENSE_DOMAIN: usize = 1024;

/// With a cardinality hint, `Auto` picks hybrid only when the expected
/// per-row cardinality keeps rows in the *small* (unpromoted) form even
/// if every element lands past the inline word — that is, at most
/// [`SPILL_MAX`](crate::SPILL_MAX) elements. The `BENCH_setrepr` density
/// sweep is the evidence: once rows promote, the hybrid form pays the
/// dense cost plus dispatch overhead and wins nothing.
pub const AUTO_SMALL_LEN: usize = crate::hybrid::SPILL_MAX;

impl SetRepr {
    /// Resolves the knob against a concrete universe: returns `true` when
    /// the hybrid representation should be used.
    ///
    /// `expected_len` is an optional sparsity hint (e.g. a bench's target
    /// row density); without one, `Auto` assumes large universes are
    /// sparse, which is what real call graphs look like (ROADMAP item 5).
    pub fn use_hybrid(self, domain: usize, expected_len: Option<usize>) -> bool {
        match self {
            SetRepr::Dense => false,
            SetRepr::Hybrid => true,
            SetRepr::Auto => {
                domain > AUTO_DENSE_DOMAIN && expected_len.is_none_or(|l| l <= AUTO_SMALL_LEN)
            }
        }
    }

    /// The canonical CLI spelling of this variant.
    pub fn as_str(self) -> &'static str {
        match self {
            SetRepr::Dense => "dense",
            SetRepr::Hybrid => "hybrid",
            SetRepr::Auto => "auto",
        }
    }
}

impl fmt::Display for SetRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SetRepr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(SetRepr::Dense),
            "hybrid" => Ok(SetRepr::Hybrid),
            "auto" => Ok(SetRepr::Auto),
            other => Err(format!(
                "unknown set representation `{other}` (expected dense|hybrid|auto)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_repr_round_trips() {
        for repr in [SetRepr::Dense, SetRepr::Hybrid, SetRepr::Auto] {
            assert_eq!(repr.as_str().parse::<SetRepr>(), Ok(repr));
        }
        assert!("sparse".parse::<SetRepr>().is_err());
        assert_eq!(SetRepr::default(), SetRepr::Dense);
    }

    #[test]
    fn auto_resolution() {
        assert!(!SetRepr::Auto.use_hybrid(100, None));
        assert!(!SetRepr::Auto.use_hybrid(AUTO_DENSE_DOMAIN, None));
        assert!(SetRepr::Auto.use_hybrid(AUTO_DENSE_DOMAIN + 1, None));
        assert!(SetRepr::Auto.use_hybrid(10_000, Some(10)));
        assert!(!SetRepr::Auto.use_hybrid(10_000, Some(5_000)));
        assert!(!SetRepr::Dense.use_hybrid(1 << 20, Some(0)));
        assert!(SetRepr::Hybrid.use_hybrid(8, Some(8)));
    }

    #[test]
    fn domain_mismatch_display() {
        let e = DomainMismatch { left: 3, right: 7 };
        assert_eq!(e.to_string(), "bit-set domain mismatch: 3 vs 7");
    }

    #[test]
    fn dense_effect_set_round_trip() {
        let mut s = <BitSet as EffectSet>::empty(130);
        assert_eq!(<BitSet as EffectSet>::REPR_NAME, "dense");
        EffectSet::insert(&mut s, 5);
        EffectSet::insert(&mut s, 129);
        let d = EffectSet::to_dense(&s);
        assert_eq!(d, s);
        assert_eq!(EffectSet::into_dense(s.clone()), d);
        assert_eq!(<BitSet as EffectSet>::from_dense(&d), d);
        assert_eq!(EffectSet::heap_bytes(&d), 3 * 8);
        let full = <BitSet as EffectSet>::full(70);
        assert_eq!(EffectSet::len(&full), 70);
    }

    #[test]
    fn counted_ops_charge_one_step_each() {
        let mut ops = OpCounter::new();
        let mut a = BitSet::from_iter_with_domain(64, [1]);
        let b = BitSet::from_iter_with_domain(64, [2]);
        a.union_with_counted(&b, &mut ops);
        a.intersect_with_counted(&b, &mut ops);
        a.difference_with_counted(&b, &mut ops);
        let c = b.clone();
        a.union_with_difference_counted(&b, &c, &mut ops);
        a.union_with_intersection_counted(&b, &c, &mut ops);
        assert_eq!(ops.bitvec_steps, 5);
    }
}
