//! Input strategies: generation + greedy shrinking.
//!
//! A [`Strategy`] knows how to *generate* a value from an [`Rng`] and how
//! to propose *shrink candidates* — strictly "smaller" variants of a
//! failing value. The runner tries candidates greedily: the first one
//! that still fails becomes the new failing value, until no candidate
//! fails. That is exactly the shrinking discipline of classic QuickCheck,
//! which in practice lands on minimal counterexamples for the integer /
//! vector / tuple shapes this workspace generates.
//!
//! Combinators are deliberately few: integer ranges, vectors, tuples,
//! weighted unions, constant values, `map`, and an escape hatch
//! ([`custom`]) for bespoke shapes like random graphs.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::rng::{Rng, UniformInt};

/// A generator of test inputs with greedy shrinking.
pub trait Strategy {
    /// The values this strategy produces.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly-smaller variants of `value`, most aggressive
    /// first. Returning an empty vector ends shrinking at `value`.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Maps generated values through `f`. Shrinking does not see through
    /// the mapping (candidates stop at the mapped value), which is the
    /// usual price of a one-way function.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous alternatives can share a
    /// [`Union`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: Clone + Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut Rng) -> V {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &V) -> Vec<V> {
        (**self).shrink(value)
    }
}

// --- integers ----------------------------------------------------------

/// Uniform integers in `range` (`lo..hi` or `lo..=hi`), shrinking toward
/// the range's low end by exponential halving.
pub fn ints<T: UniformInt + Shrinkable>(range: Range<T>) -> IntStrategy<T> {
    IntStrategy {
        lo: range.start,
        hi: range.end.prev(),
    }
}

/// Inclusive-range variant of [`ints`].
pub fn ints_inclusive<T: UniformInt + Shrinkable>(range: RangeInclusive<T>) -> IntStrategy<T> {
    IntStrategy {
        lo: *range.start(),
        hi: *range.end(),
    }
}

/// Any `u64`: seeds, hash inputs, etc. Shrinks toward 0.
pub fn any_u64() -> IntStrategy<u64> {
    IntStrategy {
        lo: 0,
        hi: u64::MAX,
    }
}

/// Integer ops the shrinker needs, kept off the public `Rng` surface.
pub trait Shrinkable: Copy + PartialOrd {
    /// The predecessor (used to turn `lo..hi` into inclusive bounds).
    fn prev(self) -> Self;
    /// Midpoint toward `lo`, rounding toward `lo`.
    fn midpoint_toward(self, lo: Self) -> Self;
    /// The successor of `lo` side step: one closer to `lo`.
    fn step_toward(self, lo: Self) -> Self;
}

macro_rules! impl_shrinkable {
    ($($t:ty),*) => {$(
        impl Shrinkable for $t {
            fn prev(self) -> Self { self - 1 }
            fn midpoint_toward(self, lo: Self) -> Self {
                // Overflow-safe midpoint.
                lo + (self - lo) / 2
            }
            fn step_toward(self, lo: Self) -> Self {
                if self > lo { self - 1 } else { self }
            }
        }
    )*};
}

impl_shrinkable!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// See [`ints`].
#[derive(Clone, Debug)]
pub struct IntStrategy<T> {
    lo: T,
    hi: T,
}

impl<T: UniformInt + Shrinkable + Debug> Strategy for IntStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        assert!(self.lo <= self.hi, "empty integer strategy range");
        T::sample_inclusive(rng, self.lo, self.hi)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let v = *value;
        if !(v > self.lo) {
            return Vec::new();
        }
        let mut out = vec![self.lo];
        let mid = v.midpoint_toward(self.lo);
        if mid > self.lo && mid < v {
            out.push(mid);
        }
        let step = v.step_toward(self.lo);
        if step < v && step > self.lo && Some(&step) != out.last() {
            out.push(step);
        }
        out
    }
}

// --- vectors -----------------------------------------------------------

/// A vector of `elem` values with a length drawn from `len` — the
/// workhorse collection strategy. Shrinks by removing chunks (halves
/// first, then single elements) and then by shrinking elements in place.
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        min_len: len.start,
        max_len: len.end.saturating_sub(1),
    }
}

/// See [`vec_of`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let len = if self.min_len >= self.max_len {
            self.min_len
        } else {
            rng.gen_range(self.min_len..=self.max_len)
        };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // 1. Remove large chunks: first half, second half.
        if n > self.min_len {
            let keep_half = |r: Range<usize>| -> Vec<S::Value> {
                value
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !r.contains(i))
                    .map(|(_, v)| v.clone())
                    .collect()
            };
            if n / 2 > 0 && n - n / 2 >= self.min_len {
                out.push(keep_half(0..n / 2));
            }
            if n / 2 >= self.min_len {
                out.push(keep_half(n / 2..n));
            }
            // 2. Remove single elements (from the back, a few spots).
            for i in (0..n).rev().take(8) {
                if n - 1 >= self.min_len {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
        }
        // 3. Shrink elements in place (first shrink of each position).
        for i in 0..n {
            if let Some(smaller) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = smaller;
                out.push(v);
            }
        }
        out
    }
}

// --- tuples ------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($S:ident : $V:ident : $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(S0:V0:0);
impl_tuple_strategy!(S0:V0:0, S1:V1:1);
impl_tuple_strategy!(S0:V0:0, S1:V1:1, S2:V2:2);
impl_tuple_strategy!(S0:V0:0, S1:V1:1, S2:V2:2, S3:V3:3);
impl_tuple_strategy!(S0:V0:0, S1:V1:1, S2:V2:2, S3:V3:3, S4:V4:4);

// --- constants, unions, map, custom ------------------------------------

/// Always produces `value` — the leaf of [`Union`] alternatives.
pub fn just<V: Clone + Debug>(value: V) -> Just<V> {
    Just(value)
}

/// See [`just`].
#[derive(Clone, Debug)]
pub struct Just<V>(pub V);

impl<V: Clone + Debug> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut Rng) -> V {
        self.0.clone()
    }
}

/// Picks one of several boxed alternatives with the given weights —
/// the analogue of `prop_oneof!`. Shrinking delegates to every
/// alternative (a candidate from *any* arm that still fails is fine).
pub fn weighted<V: Clone + Debug>(arms: Vec<(u32, BoxedStrategy<V>)>) -> Union<V> {
    assert!(!arms.is_empty(), "weighted union needs at least one arm");
    assert!(arms.iter().any(|(w, _)| *w > 0), "all weights are zero");
    Union { arms }
}

/// Equal-weight convenience over [`weighted`].
pub fn one_of<V: Clone + Debug>(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
    weighted(arms.into_iter().map(|s| (1, s)).collect())
}

/// A uniformly chosen element of a fixed list, shrinking toward the
/// front of the list.
pub fn element_of<V: Clone + Debug + PartialEq>(items: Vec<V>) -> ElementOf<V> {
    assert!(!items.is_empty(), "element_of needs at least one item");
    ElementOf { items }
}

/// See [`element_of`].
#[derive(Clone, Debug)]
pub struct ElementOf<V> {
    items: Vec<V>,
}

impl<V: Clone + Debug + PartialEq> Strategy for ElementOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut Rng) -> V {
        self.items[rng.gen_range(0..self.items.len())].clone()
    }

    fn shrink(&self, value: &V) -> Vec<V> {
        match self.items.iter().position(|v| v == value) {
            Some(0) | None => Vec::new(),
            Some(_) => vec![self.items[0].clone()],
        }
    }
}

/// See [`weighted`].
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
}

impl<V: Clone + Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut Rng) -> V {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.gen_range(0..total);
        for (w, arm) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return arm.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights changed mid-draw")
    }

    fn shrink(&self, value: &V) -> Vec<V> {
        self.arms
            .iter()
            .flat_map(|(_, arm)| arm.shrink(value))
            .collect()
    }
}

/// See [`Strategy::map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// The escape hatch: a strategy from plain closures, for shapes the
/// combinators do not cover (dependent generation like "a graph on `n`
/// nodes with edges `< n`"). Pass `|_| Vec::new()` to opt out of
/// shrinking.
pub fn custom<V, G, S>(generate: G, shrink: S) -> Custom<G, S>
where
    V: Clone + Debug,
    G: Fn(&mut Rng) -> V,
    S: Fn(&V) -> Vec<V>,
{
    Custom { generate, shrink }
}

/// See [`custom`].
#[derive(Clone)]
pub struct Custom<G, S> {
    generate: G,
    shrink: S,
}

impl<V, G, S> Strategy for Custom<G, S>
where
    V: Clone + Debug,
    G: Fn(&mut Rng) -> V,
    S: Fn(&V) -> Vec<V>,
{
    type Value = V;

    fn generate(&self, rng: &mut Rng) -> V {
        (self.generate)(rng)
    }

    fn shrink(&self, value: &V) -> Vec<V> {
        (self.shrink)(value)
    }
}

// --- strings -----------------------------------------------------------

/// Strings over a fixed character set, length drawn from `len`. Shrinks
/// like a vector: drop chunks, then single characters.
pub fn string_from(charset: &str, len: Range<usize>) -> StringStrategy {
    assert!(!charset.is_empty(), "string_from needs a non-empty charset");
    StringStrategy {
        charset: charset.chars().collect(),
        min_len: len.start,
        max_len: len.end.saturating_sub(1),
    }
}

/// Arbitrary text: mostly printable ASCII with unicode salted in, the
/// hermetic stand-in for proptest's `"\\PC*"` regex strategy.
pub fn arbitrary_text(len: Range<usize>) -> StringStrategy {
    let mut charset: String = (' '..='~').collect();
    charset.push_str("\n\t\r\0");
    charset.push_str("αβγλΩЖ中文¡é\u{1F600}\u{202E}\u{FEFF}");
    StringStrategy {
        charset: charset.chars().collect(),
        min_len: len.start,
        max_len: len.end.saturating_sub(1),
    }
}

/// See [`string_from`].
#[derive(Clone, Debug)]
pub struct StringStrategy {
    charset: Vec<char>,
    min_len: usize,
    max_len: usize,
}

impl Strategy for StringStrategy {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let len = if self.min_len >= self.max_len {
            self.min_len
        } else {
            rng.gen_range(self.min_len..=self.max_len)
        };
        (0..len)
            .map(|_| self.charset[rng.gen_range(0..self.charset.len())])
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let chars: Vec<char> = value.chars().collect();
        let n = chars.len();
        let mut out = Vec::new();
        if n > self.min_len {
            if n / 2 > 0 && n - n / 2 >= self.min_len {
                out.push(chars[n / 2..].iter().collect());
            }
            if n / 2 >= self.min_len {
                out.push(chars[..n / 2].iter().collect());
            }
            for i in (0..n).rev().take(8) {
                if n - 1 >= self.min_len {
                    let mut v = chars.clone();
                    v.remove(i);
                    out.push(v.into_iter().collect());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_shrink_moves_toward_low_end() {
        let s = ints(0..100usize);
        let cands = s.shrink(&80);
        assert!(cands.contains(&0));
        assert!(cands.iter().all(|&c| c < 80));
        assert!(s.shrink(&0).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec_of(ints(0..10u32), 2..8);
        let v = vec![9, 9, 9];
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "candidate {cand:?} below min length");
        }
    }

    #[test]
    fn union_draws_every_arm() {
        let s = weighted(vec![
            (1, just(0u8).boxed()),
            (1, just(1u8).boxed()),
            (2, just(2u8).boxed()),
        ]);
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn string_generation_stays_in_charset() {
        let s = string_from("ab", 0..10);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            let text = s.generate(&mut rng);
            assert!(text.chars().all(|c| c == 'a' || c == 'b'));
            assert!(text.len() < 10);
        }
    }
}
