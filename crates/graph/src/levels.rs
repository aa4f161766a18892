//! Topological levels of a condensation — the schedule for parallel
//! propagation over an acyclic quotient graph.
//!
//! [`crate::tarjan`] numbers components in reverse topological order, so
//! every edge of a [`Condensation`] points from a higher id to a lower
//! one. The *level* of a component is the length of its longest outgoing
//! path: `0` for sinks (components with no successors), otherwise
//! `1 + max(level of successors)`. Two facts make levels a parallel
//! schedule:
//!
//! * components sharing a level are pairwise independent (an edge between
//!   them would force a level difference), so they can be processed
//!   concurrently;
//! * every successor of a level-`ℓ` component sits at a level `< ℓ`, so a
//!   sinks-first sweep (`0, 1, 2, …`) sees all dependencies finalised —
//!   the parallel analogue of Figure 1's leaves-to-roots order.

use crate::condense::Condensation;
use crate::digraph::DiGraph;
use crate::scc::SccId;

/// The topological levels of a [`Condensation`], built by
/// [`Condensation::levels`].
#[derive(Debug, Clone)]
pub struct Levels {
    level_of: Vec<usize>,
    groups: Vec<Vec<SccId>>,
}

impl Levels {
    /// Computes the levels of any reverse-topologically numbered quotient
    /// DAG (every edge `a → b` with `b < a`) in `O(N + E)`. This is the
    /// computation behind [`Condensation::levels`], exposed for callers —
    /// like [`crate::dyncond::DynCondensation`] — that maintain the
    /// quotient themselves.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if an edge violates the numbering invariant.
    pub fn compute(quotient: &DiGraph) -> Levels {
        let n = quotient.num_nodes();
        let mut level_of = vec![0usize; n];
        let mut deepest = 0usize;
        for c in 0..n {
            let mut level = 0;
            for d in quotient.successor_nodes(c) {
                debug_assert!(d < c, "quotient edge must point to a lower id");
                level = level.max(level_of[d] + 1);
            }
            level_of[c] = level;
            deepest = deepest.max(level);
        }
        let mut groups: Vec<Vec<SccId>> = vec![Vec::new(); if n == 0 { 0 } else { deepest + 1 }];
        for (c, &level) in level_of.iter().enumerate() {
            groups[level].push(c);
        }
        Levels { level_of, groups }
    }

    /// Assembles a `Levels` from precomputed parts. The caller guarantees
    /// consistency: `groups[l]` holds exactly the components with
    /// `level_of == l`, in ascending id order, with no trailing empty
    /// group.
    pub fn from_parts(level_of: Vec<usize>, groups: Vec<Vec<SccId>>) -> Levels {
        debug_assert!(groups
            .iter()
            .enumerate()
            .all(|(l, g)| g.iter().all(|&c| level_of[c] == l)));
        debug_assert!(groups.last().is_none_or(|g| !g.is_empty()));
        Levels { level_of, groups }
    }

    /// The `level_of` map as a slice indexed by component id.
    pub fn level_map(&self) -> &[usize] {
        &self.level_of
    }

    /// Mutable access to `(level_of, groups)` for in-place level repair
    /// by the dynamic condensation. The [`Levels::from_parts`] invariants
    /// must hold again once the repair finishes.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<usize>, &mut Vec<Vec<SccId>>) {
        (&mut self.level_of, &mut self.groups)
    }

    /// Number of distinct levels (0 for an empty condensation).
    pub fn num_levels(&self) -> usize {
        self.groups.len()
    }

    /// The level of component `c`.
    pub fn level_of(&self, c: SccId) -> usize {
        self.level_of[c]
    }

    /// The components at `level`, in ascending id order.
    pub fn group(&self, level: usize) -> &[SccId] {
        &self.groups[level]
    }

    /// Iterates the groups sinks-first (level 0, 1, 2, …) — the order in
    /// which a dependency-respecting sweep must process them.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &[SccId]> + '_ {
        self.groups.iter().map(Vec::as_slice)
    }
}

impl Condensation {
    /// Computes the topological levels of this condensation in
    /// `O(N + E)`: ascending component id is reverse topological order,
    /// so every successor's level is final when its predecessor asks.
    pub fn levels(&self) -> Levels {
        Levels::compute(self.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::scc::tarjan;

    fn levels_of(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> (Levels, Vec<SccId>) {
        let g = DiGraph::from_edges(n, edges);
        let sccs = tarjan(&g);
        let cond = Condensation::build(&g, &sccs);
        (cond.levels(), sccs.component_map().to_vec())
    }

    #[test]
    fn chain_gets_one_component_per_level() {
        // 0 → 1 → 2 → 3: four singleton components, levels 3, 2, 1, 0.
        let (levels, comp) = levels_of(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(levels.num_levels(), 4);
        assert_eq!(levels.level_of(comp[3]), 0);
        assert_eq!(levels.level_of(comp[0]), 3);
        for l in 0..4 {
            assert_eq!(levels.group(l).len(), 1);
        }
    }

    #[test]
    fn diamond_places_independent_branches_on_one_level() {
        // 0 → {1, 2} → 3: the middle nodes share a level.
        let (levels, comp) = levels_of(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(levels.num_levels(), 3);
        assert_eq!(levels.level_of(comp[1]), levels.level_of(comp[2]));
        assert_eq!(levels.level_of(comp[3]), 0);
        assert_eq!(levels.level_of(comp[0]), 2);
    }

    #[test]
    fn cycles_collapse_before_levelling() {
        // 0 ⇄ 1 → 2: two components, the cycle above the sink.
        let (levels, comp) = levels_of(3, [(0, 1), (1, 0), (1, 2)]);
        assert_eq!(levels.num_levels(), 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(levels.level_of(comp[0]), 1);
        assert_eq!(levels.level_of(comp[2]), 0);
    }

    #[test]
    fn level_is_longest_path_not_shortest() {
        // 3 → 2 → 1 → 0 and 3 → 0: node 3 must sit at level 3, not 1.
        let (levels, comp) = levels_of(4, [(3, 2), (2, 1), (1, 0), (3, 0)]);
        assert_eq!(levels.level_of(comp[3]), 3);
    }

    #[test]
    fn every_edge_crosses_levels_downward_and_groups_partition() {
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0), // cycle {0,1,2}
                (2, 3),
                (3, 4),
                (4, 3), // cycle {3,4}
                (1, 5),
                (5, 6),
                (3, 6),
                (6, 7),
            ],
        );
        let sccs = tarjan(&g);
        let cond = Condensation::build(&g, &sccs);
        let levels = cond.levels();
        for e in cond.graph().edges() {
            assert!(
                levels.level_of(e.to) < levels.level_of(e.from),
                "edge {e:?} does not descend"
            );
        }
        let total: usize = levels.groups().map(<[SccId]>::len).sum();
        assert_eq!(total, sccs.len(), "groups partition the components");
        for (l, group) in levels.groups().enumerate() {
            for &c in group {
                assert_eq!(levels.level_of(c), l);
            }
        }
    }

    #[test]
    fn empty_graph_has_no_levels() {
        let (levels, _) = levels_of(0, []);
        assert_eq!(levels.num_levels(), 0);
        assert_eq!(levels.groups().len(), 0);
    }
}
