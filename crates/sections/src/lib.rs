#![warn(missing_docs)]

//! **Regular section analysis** — §6 of Cooper & Kennedy, PLDI 1988,
//! following Callahan & Kennedy's framework.
//!
//! Whole-array `MOD` information is too coarse for parallelisation: a loop
//! calling `update(a[i, *])` modifies one *row* per iteration, and a
//! dependence test that only knows "`a` is modified" must serialise the
//! loop. Regular sections replace the single modified-bit per array with a
//! small lattice of access shapes — single elements `a[i, j]`, rows
//! `a[i, *]`, columns `a[*, j]`, and the whole array `a[*, *]` (the
//! paper's Figure 3).
//!
//! This crate extends the scalar pipeline with:
//!
//! * [`Section`] — the lattice (one [`SubscriptPos`] per axis; `meet`
//!   coarsens pointwise, so the lattice height is `rank + 2` and every
//!   fixpoint terminates);
//! * [`EdgeFn`] — the paper's `g_e` edge functions: a binding that passes
//!   `a[i, *]` to a rank-1 formal maps the formal's sections back into
//!   rows of `a`, translating callee-frame symbols to caller-frame
//!   symbols where the binding allows and widening to `*` otherwise;
//! * [`solve_sections`] — the data-flow problem
//!   `rsd(fp₁) = lrsd(fp₁) ⊓ ⊓_{e=(fp₁,fp₂)} g_e(rsd(fp₂))` over the
//!   array sub-graph of the binding multi-graph, solved leaves-to-roots
//!   over the SCC condensation (within a component, iteration converges
//!   because the per-node lattice height is bounded — the paper's third
//!   `g` property makes it one extra pass in practice);
//! * per-call-site projection and the dependence tests ([`definitely_disjoint`], [`independent_across_iterations`]) the
//!   paralleliser example uses.
//!
//! # Examples
//!
//! ```
//! use modref_sections::{analyze_sections, SubscriptPos};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = modref_frontend::parse_program("
//!     var a[*, *];
//!     proc zero_row(row[*]) {
//!       var j;
//!       j = 0;
//!       while (j < 10) { row[j] = 0; j = j + 1; }
//!     }
//!     main {
//!       var i;
//!       i = 1;
//!       call zero_row(a[i, *]);
//!     }
//! ")?;
//! let sections = analyze_sections(&program);
//! let site = program.sites().next().expect("one call site");
//! let a = program.vars().find(|&v| program.var_name(v) == "a").unwrap();
//! // The call modifies exactly row i of a: ⟨Sym(i), ★⟩.
//! let sec = sections.mod_section_at_site(site, a).expect("a is written");
//! let axes = sec.axes().expect("not bottom");
//! assert!(matches!(axes[0], SubscriptPos::Sym(_)));
//! assert!(matches!(axes[1], SubscriptPos::Star));
//! # Ok(())
//! # }
//! ```

mod bindfn;
mod dependence;
mod lattice;
pub mod parallel;
mod solve;

pub use bindfn::EdgeFn;
pub use dependence::{definitely_disjoint, independent_across_iterations};
pub use lattice::{Section, SubscriptPos};
pub use parallel::{parallel_report, Blocker, LoopReport};
pub use solve::{analyze_sections, analyze_sections_traced, solve_sections, SectionSummary};
