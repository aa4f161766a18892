#![warn(missing_docs)]

//! A procedural intermediate representation for interprocedural
//! side-effect analysis.
//!
//! This crate models the class of programs Cooper & Kennedy's PLDI 1988
//! paper analyses: a program is a set of procedures with
//!
//! * **reference formal parameters** (FORTRAN/Pascal `var` parameters) —
//!   binding an actual to a formal at a call site makes the callee's writes
//!   visible to the caller;
//! * **global and local scalar/array variables**, with optional **lexical
//!   nesting** of procedure declarations (Pascal style, §3.3 and §4 of the
//!   paper) — a local of `p` is global to procedures declared inside `p`;
//! * **call sites** that pass variables (or array sections) by reference
//!   and arbitrary expressions by value.
//!
//! The representation is deliberately *flow-insensitive-friendly*: the
//! analyses never look at intraprocedural control flow beyond collecting,
//! per statement, which variables it locally modifies ([`LMOD`]) and uses.
//!
//! Entry points:
//!
//! * [`Program`] — the immutable, validated program; built through
//!   [`ProgramBuilder`] or parsed from MiniProc source by the
//!   `modref-frontend` crate.
//! * [`LocalEffects`] — `LMOD`/`IMOD` and `LUSE`/`IUSE` sets (§2), with the
//!   nested-procedure `IMOD` extension of §3.3.
//! * [`CallGraph`] — the call multi-graph `C = (N_C, E_C)` of §2.
//!
//! [`LMOD`]: LocalEffects
//!
//! # Examples
//!
//! Build the paper's running-example shape — a procedure that modifies a
//! global and one of its reference formals — and inspect its local sets:
//!
//! ```
//! use modref_ir::{Expr, ProgramBuilder};
//!
//! # fn main() -> Result<(), modref_ir::ValidationError> {
//! let mut b = ProgramBuilder::new();
//! let g = b.global("g");
//! let p = b.proc_("p", &["x", "y"]);
//! b.assign(p, b.formal(p, 0), Expr::constant(1)); // x := 1
//! b.assign(p, g, Expr::load(b.formal(p, 1)));     // g := y
//! let main = b.main();
//! b.call(main, p, &[g, g]);
//! let program = b.finish()?;
//!
//! let effects = modref_ir::LocalEffects::compute(&program);
//! assert!(effects.imod(p).contains(b.formal(p, 0).index()));
//! assert!(effects.imod(p).contains(g.index()));
//! assert!(effects.iuse(p).contains(b.formal(p, 1).index()));
//! # Ok(())
//! # }
//! ```

mod builder;
mod callgraph;
mod edit;
mod error;
mod ids;
mod localeffects;
mod pretty;
mod program;
mod prune;
mod stats;
mod stmt;
mod symbol;
mod visit;

pub use builder::ProgramBuilder;
pub use callgraph::CallGraph;
pub use edit::{Edit, EditDelta, EditError};
pub use error::ValidationError;
pub use ids::{CallSiteId, ProcId, VarId};
pub use localeffects::{
    absorb_children, extend_nesting, flat_effects_of, lmod_of_stmt, luse_of_stmt, LocalEffects,
    LocalEffectsIn,
};
pub use program::{CallSite, Procedure, Program, VarInfo, VarKind};
pub use prune::PrunedProgram;
pub use stats::ProgramStats;
pub use stmt::{Actual, BinOp, Expr, Ref, Stmt, Subscript, UnOp};
pub use symbol::{Interner, Symbol};
pub use visit::{walk_exprs, walk_stmts};
