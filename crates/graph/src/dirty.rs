//! Dirty-set propagation over a condensation.
//!
//! Both sweeps the incremental engine reuses — the Figure 1 `RMOD` pass
//! over the binding multi-graph's condensation and the level-scheduled
//! `GMOD` pass over the call multi-graph's condensation — share one
//! dataflow orientation: a component's value is a function of its
//! *successors'* values (callees, bound formals), and components are
//! processed successors-first (ascending [`SccId`] or sinks-first level
//! order). [`SparseSweep`] tracks, during such a sweep, which components
//! must be recomputed:
//!
//! * components whose inputs changed outright (edited seeds, changed
//!   membership) are **seeded** dirty before the sweep;
//! * when a dirty component is recomputed and its value actually
//!   *changed*, every predecessor becomes dirty ([`SparseSweep::update`]
//!   with `changed = true`);
//! * when a recomputation reproduces the cached value, the dirtiness
//!   stops there — predecessors whose other inputs are clean keep their
//!   cached fixpoints ("downward only past unchanged fixpoints").
//!
//! Because the processing order is successors-first, a predecessor is
//! always visited *after* every component that could dirty it, so one
//! sweep suffices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::scc::SccId;

/// Dirty-component bookkeeping for one successors-first sweep over a
/// condensation (see the module docs). Instead of walking every
/// component of the condensation and asking "dirty or clean?", it visits
/// **only** the dirty frontier, pulled from a min-heap ordered by
/// topological level. Work is `O(D log D + E_D)` in the number of dirty
/// components `D` and their incident condensation edges — independent of
/// the total graph size. This is the "per-phase dirty-set sparsification"
/// half of the early-cutoff scheme: a one-procedure edit on a 1024-node
/// flat condensation touches a handful of components, not 1024.
///
/// Correctness relies on the orientation of the module docs: a
/// component's value depends only on its successors, which sit at strictly
/// *lower* levels. Seeds are all enqueued before the first batch is drawn,
/// and [`SparseSweep::update`] only enqueues predecessors — which sit at
/// strictly *higher* levels than the component just recomputed — so every
/// component is drawn after all components that could dirty it.
///
/// Components that are never drawn keep their cached values implicitly;
/// there is no per-component `skip` call (that linear pass is exactly what
/// this type removes).
///
/// # Examples
///
/// ```
/// use modref_graph::{DiGraph, Levels, SparseSweep};
///
/// // Condensation 2 → 1 → 0 (levels 2, 1, 0).
/// let g = DiGraph::from_edges(3, [(2, 1), (1, 0)]);
/// let levels = Levels::compute(&g);
/// let preds: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![]];
/// let mut sweep = SparseSweep::new(&preds, levels.level_map());
/// sweep.seed(1);
/// let mut batch = Vec::new();
/// assert!(sweep.next_batch(&mut batch));
/// assert_eq!(batch, vec![1]);
/// sweep.update(1, true); // value changed → predecessor 2 joins the frontier
/// assert!(sweep.next_batch(&mut batch));
/// assert_eq!(batch, vec![2]);
/// sweep.update(2, false);
/// assert!(!sweep.next_batch(&mut batch)); // 0 was never touched
/// assert_eq!(sweep.recomputed(), 2);
/// ```
#[derive(Debug)]
pub struct SparseSweep<'a> {
    preds: &'a [Vec<SccId>],
    level_of: &'a [usize],
    heap: BinaryHeap<Reverse<(usize, SccId)>>,
    queued: Vec<bool>,
    recomputed: usize,
}

impl<'a> SparseSweep<'a> {
    /// Prepares a sweep over a condensation given its deduplicated
    /// predecessor lists (no self-loops) and its level map — exactly the
    /// shape [`crate::dyncond::DynCondensation`] maintains.
    pub fn new(preds: &'a [Vec<SccId>], level_of: &'a [usize]) -> Self {
        debug_assert_eq!(preds.len(), level_of.len());
        SparseSweep {
            preds,
            level_of,
            heap: BinaryHeap::new(),
            queued: vec![false; preds.len()],
            recomputed: 0,
        }
    }

    /// Marks `c` dirty. All seeds must be planted before the first
    /// [`SparseSweep::next_batch`] call; duplicates are absorbed.
    pub fn seed(&mut self, c: SccId) {
        if !self.queued[c] {
            self.queued[c] = true;
            self.heap.push(Reverse((self.level_of[c], c)));
        }
    }

    /// Drains every dirty component at the current minimum level into
    /// `batch` (ascending component id — the same order a dense
    /// level-group walk would produce) and returns `true`; returns `false`
    /// when the frontier is exhausted. Components within a batch share a
    /// level, hence are pairwise independent and safe to recompute in
    /// parallel. Call [`SparseSweep::update`] for each drained component
    /// before asking for the next batch.
    pub fn next_batch(&mut self, batch: &mut Vec<SccId>) -> bool {
        batch.clear();
        let Some(&Reverse((level, _))) = self.heap.peek() else {
            return false;
        };
        while let Some(&Reverse((l, c))) = self.heap.peek() {
            if l != level {
                break;
            }
            self.heap.pop();
            batch.push(c);
        }
        true
    }

    /// Records that dirty component `c` was recomputed; on `changed`,
    /// its predecessors (strictly higher level) join the frontier.
    pub fn update(&mut self, c: SccId, changed: bool) {
        self.recomputed += 1;
        if changed {
            for &p in &self.preds[c] {
                debug_assert!(self.level_of[p] > self.level_of[c]);
                if !self.queued[p] {
                    self.queued[p] = true;
                    self.heap.push(Reverse((self.level_of[p], p)));
                }
            }
        }
    }

    /// Number of components recomputed so far.
    pub fn recomputed(&self) -> usize {
        self.recomputed
    }

    /// Total number of components in the condensation (dirty or not) —
    /// the reuse count is `total() - recomputed()`.
    pub fn total(&self) -> usize {
        self.preds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_sweep_visits_only_the_frontier() {
        // Diamond 3 → {1, 2} → 0 plus an untouched island 4.
        let preds: Vec<Vec<SccId>> = vec![vec![1, 2], vec![3], vec![3], vec![], vec![]];
        let level_of = vec![0, 1, 1, 2, 0];
        let mut sweep = SparseSweep::new(&preds, &level_of);
        sweep.seed(0);
        sweep.seed(0); // duplicate seed absorbed
        let mut batch = Vec::new();
        assert!(sweep.next_batch(&mut batch));
        assert_eq!(batch, vec![0]);
        sweep.update(0, true);
        assert!(sweep.next_batch(&mut batch));
        assert_eq!(batch, vec![1, 2]); // one level, ascending ids
        sweep.update(1, false);
        sweep.update(2, false);
        // Both fixpoints survived → 3 never enters the frontier.
        assert!(!sweep.next_batch(&mut batch));
        assert_eq!(sweep.recomputed(), 3);
        assert_eq!(sweep.total(), 5);
    }

    #[test]
    fn sparse_sweep_change_reaches_transitive_predecessors() {
        // Chain 3 → 2 → 1 → 0, everything changes.
        let preds: Vec<Vec<SccId>> = vec![vec![1], vec![2], vec![3], vec![]];
        let level_of = vec![0, 1, 2, 3];
        let mut sweep = SparseSweep::new(&preds, &level_of);
        sweep.seed(0);
        let mut batch = Vec::new();
        let mut order = Vec::new();
        while sweep.next_batch(&mut batch) {
            for &c in &batch {
                order.push(c);
                sweep.update(c, true);
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(sweep.recomputed(), 4);
    }
}
