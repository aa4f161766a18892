#![warn(missing_docs)]

//! Dense bit-vector sets for interprocedural data-flow analysis.
//!
//! The algorithms of Cooper & Kennedy (PLDI 1988) state their complexity in
//! *bit-vector steps*: whole-vector boolean operations over a universe of
//! variables that, for interprocedural problems, grows linearly with program
//! size (§1 of the paper). This crate provides the two structures every
//! solver in the workspace uses:
//!
//! * [`BitSet`] — a fixed-universe dense set of `usize` elements.
//! * [`SetMatrix`] — a rectangular array of rows over one shared universe,
//!   with the split-row operations (`or_rows_minus`, `or_rows_masked`)
//!   that equation (4) of the paper needs (`GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`).
//!
//! Both types are plain data: no interior mutability, `Clone`/`Eq`,
//! and deterministic iteration in ascending element order.
//!
//! Since the solvers charge their cost model in representation-independent
//! whole-vector steps, the *representation* is swappable: the [`EffectSet`]
//! trait abstracts the set operations every solver phase uses, with two
//! implementations — dense [`BitSet`] and the sparse-friendly
//! [`HybridSet`] (inline word + sorted spill, promoting to dense past a
//! density threshold). [`SetMatrix`] rows are any [`EffectSet`], and
//! [`SetRepr`] is the user-facing knob
//! (`--set-repr dense|hybrid|auto`). See `docs/SETREPR.md`.
//!
//! # Examples
//!
//! ```
//! use modref_bitset::BitSet;
//!
//! let mut a = BitSet::new(128);
//! a.insert(3);
//! a.insert(96);
//! let mut b = BitSet::new(128);
//! b.insert(96);
//! b.insert(100);
//! let changed = a.union_with(&b);
//! assert!(changed);
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 96, 100]);
//! ```

mod bitset;
mod counter;
mod effect;
mod hybrid;
mod matrix;

pub use bitset::{BitSet, Iter};
pub use counter::OpCounter;
pub use effect::{DomainMismatch, EffectSet, SetRepr, AUTO_DENSE_DOMAIN, AUTO_SMALL_LEN};
pub use hybrid::{HybridIter, HybridSet, DENSITY_DIV, INLINE_BITS, SPILL_MAX};
pub use matrix::SetMatrix;

/// Number of bits per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
pub(crate) const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

#[cfg(test)]
mod tests {
    use super::words_for;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }
}
