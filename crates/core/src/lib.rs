#![warn(missing_docs)]

//! Linear-time interprocedural side-effect analysis — the complete
//! pipeline of **Cooper & Kennedy, "Interprocedural Side-Effect Analysis
//! in Linear Time", PLDI 1988**.
//!
//! Given a program (built with [`modref_ir::ProgramBuilder`] or parsed by
//! `modref-frontend`), the analysis annotates every call site `s` with
//!
//! * `MOD(s)` — variables whose values *might change* by executing `s`;
//! * `USE(s)` — variables whose values *might be read* by executing `s`;
//!
//! flow-insensitively (a side effect counts if it occurs on *some* path).
//! The computation follows the paper's decomposition:
//!
//! 1. **Local sets** — `IMOD`/`IUSE` per procedure
//!    ([`modref_ir::LocalEffects`], §2 and §3.3);
//! 2. **Reference formals** — `RMOD`/`RUSE` on the *binding multi-graph*
//!    ([`modref_binding`], Figure 1, `O(N_β + E_β)` boolean steps);
//! 3. **`IMOD⁺`** — fold reference-parameter effects back into each
//!    procedure (equation 5, [`imod_plus`]);
//! 4. **Globals** — `GMOD`/`GUSE` by the depth-first `findgmod` algorithm
//!    (Figure 2, `O(E_C + N_C)` bit-vector steps, [`gmod`]), or its
//!    multi-level variant for nested-procedure languages
//!    (`O(E_C + d_P·N_C)`, [`gmod_nested`]);
//! 5. **`DMOD`/`MOD`** — per-call-site projection through the binding
//!    `b_e` plus alias factoring (§5, [`dmod`], [`modsets`], [`alias`]).
//!
//! # Examples
//!
//! ```
//! use modref_core::Analyzer;
//! use modref_ir::{Expr, ProgramBuilder};
//!
//! # fn main() -> Result<(), modref_ir::ValidationError> {
//! // proc inc(x) { x = x + g; }   main { call inc(h); }
//! let mut b = ProgramBuilder::new();
//! let g = b.global("g");
//! let h = b.global("h");
//! let inc = b.proc_("inc", &["x"]);
//! let x = b.formal(inc, 0);
//! b.assign(inc, x, Expr::binary(modref_ir::BinOp::Add, Expr::load(x), Expr::load(g)));
//! let main = b.main();
//! let site = b.call(main, inc, &[h]);
//! let program = b.finish()?;
//!
//! let summary = Analyzer::new().analyze(&program);
//! // The call writes h (bound to x) and reads g and h.
//! assert!(summary.mod_site(site).contains(h.index()));
//! assert!(!summary.mod_site(site).contains(g.index()));
//! assert!(summary.use_site(site).contains(g.index()));
//! assert!(summary.use_site(site).contains(h.index()));
//! # Ok(())
//! # }
//! ```

pub mod alias;
pub mod demand;
pub mod dmod;
pub mod gmod;
pub mod gmod_levels;
pub mod gmod_nested;
pub mod imod_plus;
mod meter;
pub mod modsets;
pub mod pipeline;

pub use alias::{AliasChange, AliasPairs};
pub use demand::{
    conservative_proc_answer, conservative_site_answer, query_proc_guarded, query_site_guarded,
    DemandMemo, ProcAnswer, Side, SiteAnswer,
};
pub use dmod::{DmodSolution, DmodSolutionIn};
pub use gmod::{solve_gmod_one_level, solve_gmod_one_level_guarded, GmodSolution, GmodSolutionIn};
pub use gmod_levels::{solve_component, solve_gmod_levels, solve_gmod_levels_traced};
pub use gmod_nested::{
    solve_gmod_multi_fused, solve_gmod_multi_fused_guarded, solve_gmod_multi_naive,
};
pub use imod_plus::{compute_imod_plus, compute_imod_plus_guarded};
pub use modsets::{ModSolution, ModSolutionIn};
pub use pipeline::{
    AnalysisOutcome, Analyzer, DegradeReason, Phase, PhaseMask, PhaseStats, PhaseWall, Summary,
};

/// The set-representation layer ([`Analyzer::set_repr`]), re-exported so
/// downstream crates need not depend on `modref-bitset` directly.
pub use modref_bitset::{BitSet, EffectSet, HybridSet, SetRepr};

/// The guard machinery (budgets, deadlines, cancellation, fault
/// injection), re-exported so downstream crates need not depend on
/// `modref-guard` directly.
pub use modref_guard as guard;
pub use modref_guard::{Budget, CancelToken, FaultAction, FaultPlan, Guard, Interrupt};

/// The tracing layer ([`Analyzer::with_trace`]), re-exported so
/// downstream crates need not depend on `modref-trace` directly.
pub use modref_trace as trace;
pub use modref_trace::Trace;
