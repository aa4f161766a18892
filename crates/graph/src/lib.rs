#![warn(missing_docs)]

//! Directed multi-graphs and the graph algorithms behind Cooper–Kennedy
//! interprocedural side-effect analysis.
//!
//! Both graphs the paper manipulates — the *call multi-graph*
//! `C = (N_C, E_C)` of §2 and the *binding multi-graph* `β = (N_β, E_β)` of
//! §3.1 — are directed graphs that may carry parallel edges (a procedure can
//! call another from several sites; a formal can be re-bound at each). This
//! crate provides the shared machinery:
//!
//! * [`DiGraph`] — a compact directed multi-graph over `usize` node ids.
//! * [`scc::tarjan`] — iterative Tarjan strongly-connected components
//!   (the paper's Figure 2 is an adaptation of this algorithm).
//! * [`dfs::DepthFirst`] — depth-first search with tree/back/forward/cross
//!   edge classification, matching the vocabulary of §4's proofs.
//! * [`condense::Condensation`] — the acyclic quotient graph used by the
//!   Figure 1 `RMOD` solver.
//! * [`levels::Levels`] — topological levels of a condensation, the
//!   schedule for level-parallel propagation.
//! * [`topo::topological_order`] and [`reach::reachable_from`].
//!
//! All traversals are iterative (explicit stacks), so pathological inputs —
//! call chains millions deep — cannot overflow the thread stack.
//!
//! # Examples
//!
//! ```
//! use modref_graph::{tarjan, DiGraph};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 0);
//! g.add_edge(1, 2);
//! let sccs = tarjan(&g);
//! assert_eq!(sccs.len(), 2);
//! assert_eq!(sccs.component_of(0), sccs.component_of(1));
//! assert_ne!(sccs.component_of(0), sccs.component_of(2));
//! ```

pub mod condense;
pub mod dfs;
pub mod digraph;
pub mod dirty;
pub mod dot;
pub mod dyncond;
pub mod levels;
pub mod reach;
pub mod scc;
pub mod topo;

pub use condense::Condensation;
pub use dfs::{DepthFirst, EdgeKind};
pub use digraph::{DiGraph, Edge, EdgeId, NodeId};
pub use dirty::SparseSweep;
pub use dyncond::{DynCondensation, PatchEffect};
pub use levels::Levels;
pub use scc::{tarjan, SccId, Sccs};
