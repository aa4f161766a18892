//! Incremental MOD/USE summaries — cached, edit-driven recomputation.
//!
//! The batch pipeline ([`modref_core::Analyzer`]) answers "what does this
//! *program* mod and use"; this crate answers the question an editor or
//! build server actually asks: "the program just *changed* — what do the
//! summaries look like now?" An [`IncrementalEngine`] keeps the full
//! per-phase state of Cooper–Kennedy's linear-time analysis — flat and
//! extended `LMOD`/`LUSE`, the Figure 1 `RMOD`/`RUSE` sweep over the
//! binding multi-graph's condensation, the per-component `GMOD`/`GUSE`
//! fixpoints of the level schedule, and the per-site projections — and,
//! for each typed [`Edit`], recomputes only the pieces the edit
//! invalidates. The invariant, enforced by an exhaustive differential rig
//! (`tests/incr_equiv.rs`), is strict: after **every** edit the engine's
//! results are bit-identical to a from-scratch run on the edited program,
//! at every thread count.
//!
//! Three layers:
//!
//! * [`engine`] — the cache, the dirty-set propagation over the two
//!   condensations ([`modref_graph::SparseSweep`]), and the guarded apply
//!   path that degrades soundly (conservative sets, cache dropped) on a
//!   budget trip or contained panic;
//! * [`script`] — a tiny text format for edit scripts (`analyze --edits`
//!   in the CLI) plus [`EditGen`], the seeded random edit generator the
//!   property suite and the `incrscale` bench share;
//! * [`render`] — the one shared renderer for per-site `MOD`/`DMOD`/`USE`
//!   reports (text and JSON), used byte-identically by the CLI and the
//!   `modref-serve` daemon;
//! * [`query`] — the [`QueryEngine`] front door that answers point
//!   queries either from the warm incremental cache (Full mode) or by
//!   demand-driven lazy resolution over `modref_core::demand` (Lazy
//!   mode), with promotion on `all` queries;
//! * re-exports of the edit vocabulary ([`Edit`], [`EditDelta`],
//!   [`EditError`]) so consumers need only this crate.

pub mod engine;
pub mod query;
pub mod render;
pub mod script;

pub use engine::{
    IncrDegradeReason, IncrDelta, IncrOutcome, IncrStats, IncrementalEngine, IncrementalEngineIn,
    IncrementalExt, ReplayError,
};
pub use modref_ir::{Edit, EditDelta, EditError};
pub use query::{AnyQueryEngine, QueryEngine, QueryEngineIn, QueryOutcome};
pub use render::SiteSets;
pub use script::{EditGen, Script, ScriptError};
