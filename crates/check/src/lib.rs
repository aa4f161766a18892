#![warn(missing_docs)]

//! `modref-check` — the workspace's hermetic test & bench substrate.
//!
//! The modref workspace builds and verifies fully offline: no registry
//! crates, no network, no nondeterminism. This crate supplies the three
//! ingredients that external crates (`rand`, `proptest`, `criterion`)
//! used to provide:
//!
//! * [`rng`] — deterministic PRNGs ([`SplitMix64`] seeding,
//!   xoshiro256\*\* generation) with the small `gen_range` / `gen_bool` /
//!   `shuffle` surface the generators and tests use.
//! * [`strategy`] + [`runner`] + the [`property!`] macro — a minimal
//!   proptest-style harness: generator combinators, an N-case driver,
//!   greedy input shrinking on failure, and failure replay via the
//!   `MODREF_SEED` environment variable.
//! * [`bench`] — a wall-clock micro-benchmark runner (warmup +
//!   median-of-K) emitting JSON lines in the `BENCH_<group>.json`
//!   trajectory convention.
//!
//! # Replay workflow
//!
//! Every property's default seed is derived from its own name, so plain
//! `cargo test` is reproducible everywhere. When a property fails, the
//! report ends with a line like:
//!
//! ```text
//! replay with: MODREF_SEED=1234567890 cargo test my_property
//! ```
//!
//! Exporting that variable re-runs the identical case sequence (and
//! therefore the identical failure) on any machine. `MODREF_CASES=N`
//! scales how many cases each property runs.

pub mod bench;
#[macro_use]
pub mod macros;
pub mod rng;
pub mod runner;
pub mod strategy;

pub use bench::{BenchGroup, BenchOptions, BenchResult};
pub use rng::{Rng, SplitMix64};
pub use runner::{CaseResult, Config};
pub use strategy::{
    any_u64, arbitrary_text, custom, element_of, ints, ints_inclusive, just, one_of, string_from,
    vec_of, weighted, BoxedStrategy, Strategy,
};

/// Everything a property-test file needs: `use modref_check::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{
        any_u64, arbitrary_text, custom, element_of, ints, ints_inclusive, just, one_of,
        string_from, vec_of, weighted, BoxedStrategy, Strategy,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, property, Rng};
}
