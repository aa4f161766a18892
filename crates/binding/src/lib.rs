#![warn(missing_docs)]

//! The **binding multi-graph** `β = (N_β, E_β)` and the linear-time `RMOD`
//! solver — §3 of Cooper & Kennedy, PLDI 1988.
//!
//! The reference-formal-parameter subproblem asks: which formal parameters
//! of each procedure may be modified by an invocation of that procedure?
//! The paper's insight is to change graphs: instead of propagating sets
//! over the call graph, build a graph whose *nodes are formal parameters*
//! and whose edges are individual *binding events* (formal of the caller —
//! or of a lexical ancestor of the caller, §3.3 — passed as an actual to a
//! formal of the callee). On that graph the problem degenerates to one
//! boolean per node, solvable by SCC condensation plus one
//! reverse-topological sweep: `O(N_β + E_β)` *simple logical steps*
//! (Figure 1), versus the swift algorithm's `O(E_C α(E_C, N_C))`
//! *bit-vector* steps.
//!
//! # Examples
//!
//! A binding chain `main ─g→ p(x) ─x→ q(y)` where `q` writes `y`:
//!
//! ```
//! use modref_binding::{solve_rmod, BindingGraph};
//! use modref_ir::{Expr, LocalEffects, ProgramBuilder};
//!
//! # fn main() -> Result<(), modref_ir::ValidationError> {
//! let mut b = ProgramBuilder::new();
//! let g = b.global("g");
//! let q = b.proc_("q", &["y"]);
//! b.assign(q, b.formal(q, 0), Expr::constant(1)); // y := 1
//! let p = b.proc_("p", &["x"]);
//! b.call(p, q, &[b.formal(p, 0)]);                // q(x)
//! let main = b.main();
//! b.call(main, p, &[g]);                          // p(g)
//! let program = b.finish()?;
//!
//! let effects = LocalEffects::compute(&program);
//! let beta = BindingGraph::build(&program);
//! assert_eq!(beta.num_nodes(), 2); // x and y participate
//! assert_eq!(beta.num_edges(), 1); // the x→y binding
//!
//! let rmod = solve_rmod(&program, effects.imod_all(), &beta);
//! assert!(rmod.is_modified(b.formal(q, 0))); // directly
//! assert!(rmod.is_modified(b.formal(p, 0))); // through the chain
//! # Ok(())
//! # }
//! ```

mod multigraph;
mod rmod;

pub use multigraph::{BindingGraph, SizeReport};
pub use rmod::{
    rmod_broadcast, rmod_seed, solve_rmod, solve_rmod_traced, RmodSolution, RmodSolutionIn,
};
