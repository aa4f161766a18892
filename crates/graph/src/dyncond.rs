//! Dynamically maintained SCC condensation — the structure behind the
//! incremental engine's early-cutoff sweeps.
//!
//! A batch run computes [`crate::tarjan`], [`Condensation`] and [`Levels`]
//! from scratch in `O(N + E)`. The incremental engine cannot afford that
//! on every edit: a one-line change to a 1024-procedure program usually
//! touches *no* structure at all, and when it does touch structure it
//! inserts or deletes a single multi-graph edge. [`DynCondensation`] keeps
//! the triple `(Sccs, condensation, Levels)` — with Tarjan's
//! reverse-topological numbering invariant (`edge a → b ⇒ comp(b) <
//! comp(a)`) — valid across single-edge [`DynCondensation::insert_edge`] /
//! [`DynCondensation::delete_edge`] patches:
//!
//! * edges that land inside a component, or that already respect the
//!   numbering, cost `O(out-degree)`;
//! * an order-violating insert triggers a Pearce–Kelly window repair
//!   (Pearce & Kelly, *A dynamic topological sort algorithm for directed
//!   acyclic graphs*, JEA 2006) confined to the affected id window — and a
//!   component **merge** when the new edge closes a cycle;
//! * an intra-component delete re-runs Tarjan *on that component only*,
//!   splicing any split parts into the global numbering.
//!
//! Only the repair paths that renumber components (`merge`, `split`,
//! window reorder) rebuild the quotient graph and levels, and even those
//! skip the full-graph DFS. The common paths patch levels in place with a
//! worklist relaxation.

use std::collections::HashMap;
use std::mem;

use crate::condense::Condensation;
use crate::digraph::{DiGraph, NodeId};
use crate::levels::Levels;
use crate::scc::{tarjan, SccId, Sccs};

/// What a single edge patch dirtied.
#[derive(Debug, Clone)]
pub struct PatchEffect {
    /// Graph nodes whose component structure or successor set changed —
    /// the seeds for a [`crate::dirty::SparseSweep`] over the patched
    /// condensation. Always non-empty for a successful patch.
    pub dirty: Vec<NodeId>,
    /// `true` if component ids were reassigned (merge, split, or window
    /// reorder). Node ids are never reassigned; per-node caches survive
    /// every patch, per-component caches only survive when this is
    /// `false`.
    pub renumbered: bool,
}

/// An SCC condensation (with levels) maintained under single-edge inserts
/// and deletes. See the module docs for the algorithmic contract.
///
/// # Examples
///
/// ```
/// use modref_graph::{DiGraph, DynCondensation};
///
/// let mut dc = DynCondensation::build(DiGraph::from_edges(3, [(0, 1), (1, 2)]));
/// assert_eq!(dc.sccs().len(), 3);
/// // Closing the loop merges everything into one component …
/// let patch = dc.insert_edge(2, 0);
/// assert!(patch.renumbered);
/// assert_eq!(dc.sccs().len(), 1);
/// // … and breaking it splits the component back apart.
/// let patch = dc.delete_edge(2, 0);
/// assert!(patch.renumbered);
/// assert_eq!(dc.sccs().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DynCondensation {
    graph: DiGraph,
    /// Multi-graph reverse adjacency (duplicates kept, arbitrary order).
    graph_preds: Vec<Vec<NodeId>>,
    sccs: Sccs,
    /// `comp_pos[n]` = index of `n` within `sccs.members(comp_of(n))`.
    comp_pos: Vec<usize>,
    /// Simple quotient DAG; every edge points from a higher id to a lower.
    cond: DiGraph,
    /// Deduplicated, ascending, self-loop-free predecessors per component.
    cond_preds: Vec<Vec<SccId>>,
    levels: Levels,
    patches: usize,
    renumbers: usize,
}

impl DynCondensation {
    /// Builds the initial condensation from scratch (`O(N + E)`).
    pub fn build(graph: DiGraph) -> Self {
        let sccs = tarjan(&graph);
        let mut graph_preds = vec![Vec::new(); graph.num_nodes()];
        for e in graph.edges() {
            graph_preds[e.to].push(e.from);
        }
        let mut dc = DynCondensation {
            graph,
            graph_preds,
            sccs,
            comp_pos: Vec::new(),
            cond: DiGraph::new(0),
            cond_preds: Vec::new(),
            levels: Levels::from_parts(Vec::new(), Vec::new()),
            patches: 0,
            renumbers: 0,
        };
        dc.rebuild_comp_pos();
        dc.rebuild_quotient();
        dc
    }

    /// The maintained multi-graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The maintained components (Tarjan numbering invariant holds).
    pub fn sccs(&self) -> &Sccs {
        &self.sccs
    }

    /// The maintained simple quotient DAG.
    pub fn cond(&self) -> &DiGraph {
        &self.cond
    }

    /// Deduplicated, ascending, self-loop-free component predecessors —
    /// the shape [`crate::dirty::SparseSweep`] consumes.
    pub fn cond_preds(&self) -> &[Vec<SccId>] {
        &self.cond_preds
    }

    /// The maintained topological levels of the quotient.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// `comp_pos[n]` = index of node `n` within its component's member
    /// list — the row index per-component solvers use.
    pub fn comp_pos(&self) -> &[usize] {
        &self.comp_pos
    }

    /// Multi-graph predecessors of `n` (duplicates kept).
    pub fn predecessors(&self, n: NodeId) -> &[NodeId] {
        &self.graph_preds[n]
    }

    /// Number of edge patches applied since [`DynCondensation::build`].
    pub fn patches(&self) -> usize {
        self.patches
    }

    /// Number of patches that had to renumber components.
    pub fn renumbers(&self) -> usize {
        self.renumbers
    }

    /// Appends a fresh isolated node as a singleton component at the
    /// highest id (no edges ⇒ the numbering invariant is untouched),
    /// at level 0.
    pub fn add_node(&mut self) -> NodeId {
        let n = self.graph.add_node();
        self.graph_preds.push(Vec::new());
        let (mut comp_of, mut members) = self.take_sccs().into_parts();
        let c = members.len();
        comp_of.push(c);
        members.push(vec![n]);
        self.sccs = Sccs::from_parts(comp_of, members);
        self.comp_pos.push(0);
        let cc = self.cond.add_node();
        debug_assert_eq!(cc, c);
        self.cond_preds.push(Vec::new());
        let (level_of, groups) = self.levels.parts_mut();
        level_of.push(0);
        if groups.is_empty() {
            groups.push(Vec::new());
        }
        groups[0].push(c);
        n
    }

    /// Inserts multi-graph edge `u → v` and repairs the condensation.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> PatchEffect {
        self.patches += 1;
        self.graph.add_edge(u, v);
        self.graph_preds[v].push(u);
        let cu = self.sccs.component_of(u);
        let cv = self.sccs.component_of(v);
        if cu == cv {
            // Intra-component (or self-loop): structure untouched.
            return PatchEffect {
                dirty: vec![u],
                renumbered: false,
            };
        }
        if cv < cu {
            // Respects the numbering: at most a new quotient edge.
            if !self.cond.successor_nodes(cu).any(|d| d == cv) {
                self.cond.add_edge(cu, cv);
                let pos = self.cond_preds[cv]
                    .binary_search(&cu)
                    .expect_err("quotient edge was absent");
                self.cond_preds[cv].insert(pos, cu);
                self.relax_levels(cu);
            }
            return PatchEffect {
                dirty: vec![u],
                renumbered: false,
            };
        }
        self.insert_violation(u, cu, cv)
    }

    /// Deletes one instance of multi-graph edge `u → v` and repairs the
    /// condensation.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no such edge exists.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> PatchEffect {
        self.patches += 1;
        let removed = self.graph.remove_edge(u, v);
        debug_assert!(removed, "delete_edge({u}, {v}): no such edge");
        let pos = self.graph_preds[v]
            .iter()
            .rposition(|&p| p == u)
            .expect("reverse adjacency lists the edge");
        self.graph_preds[v].swap_remove(pos);
        let cu = self.sccs.component_of(u);
        let cv = self.sccs.component_of(v);
        if cu != cv {
            // Inter-component: drop the quotient edge if this was the last
            // multi-graph edge inducing it.
            let survives = self.sccs.members(cu).iter().any(|&m| {
                self.graph
                    .successor_nodes(m)
                    .any(|w| self.sccs.component_of(w) == cv)
            });
            if !survives {
                let removed = self.cond.remove_edge(cu, cv);
                debug_assert!(removed);
                let pos = self.cond_preds[cv]
                    .binary_search(&cu)
                    .expect("quotient predecessor recorded");
                self.cond_preds[cv].remove(pos);
                self.relax_levels(cu);
            }
            return PatchEffect {
                dirty: vec![u],
                renumbered: false,
            };
        }
        if self.sccs.members(cu).len() == 1 {
            // A self-loop vanished; the singleton stays a singleton.
            return PatchEffect {
                dirty: vec![u],
                renumbered: false,
            };
        }
        self.split_check(cu, u)
    }

    /// Order-violating insert (`comp(v) > comp(u)`): Pearce–Kelly window
    /// repair, merging the cycle's components if the edge closed one.
    fn insert_violation(&mut self, u: NodeId, cu: SccId, cv: SccId) -> PatchEffect {
        self.renumbers += 1;
        let k = self.sccs.len();
        let (lo, hi) = (cu, cv);
        // F: components reachable from cv in the (pre-edge) quotient with
        // ids ≥ lo. Successor ids strictly decrease, so any path from cv
        // to cu stays inside the window — lo ∈ F ⟺ the edge closes a
        // cycle.
        let mut in_f = vec![false; k];
        let mut stack = vec![cv];
        in_f[cv] = true;
        while let Some(x) = stack.pop() {
            for y in self.cond.successor_nodes(x) {
                if y >= lo && !in_f[y] {
                    in_f[y] = true;
                    stack.push(y);
                }
            }
        }
        // B: components reaching cu with ids ≤ hi (predecessor ids
        // strictly increase).
        let mut in_b = vec![false; k];
        stack.push(cu);
        in_b[cu] = true;
        while let Some(x) = stack.pop() {
            for &y in &self.cond_preds[x] {
                if y <= hi && !in_b[y] {
                    in_b[y] = true;
                    stack.push(y);
                }
            }
        }
        // Pool of ids to redistribute, ascending. F ∩ B is non-empty
        // exactly when there is a cycle (a member both reaches cu and is
        // reachable from cv).
        let mut pool: Vec<SccId> = Vec::new();
        let mut f_only: Vec<SccId> = Vec::new();
        let mut shared: Vec<SccId> = Vec::new();
        let mut b_only: Vec<SccId> = Vec::new();
        for c in lo..=hi {
            match (in_f[c], in_b[c]) {
                (true, true) => shared.push(c),
                (true, false) => f_only.push(c),
                (false, true) => b_only.push(c),
                (false, false) => continue,
            }
            pool.push(c);
        }
        debug_assert_eq!(shared.is_empty(), !in_f[lo], "cycle ⟺ cu ∈ F");

        // New occupancy of the pool slots: descendants of cv take the
        // lowest slots, ancestors of cu the highest, and the merged cycle
        // (if any) the slot just below the ancestors. Relative order
        // within each class is preserved, F members never gain id, B
        // members never lose id — so every quotient edge, including those
        // to components of the window outside F ∪ B, keeps pointing
        // high → low (see tests for the property check).
        let mut map: Vec<SccId> = (0..k).collect();
        for (&c, &slot) in f_only.iter().zip(&pool) {
            map[c] = slot;
        }
        let b_start = pool.len() - b_only.len();
        for (&c, &slot) in b_only.iter().zip(&pool[b_start..]) {
            map[c] = slot;
        }
        let mut holes: &[SccId] = &[];
        if !shared.is_empty() {
            for &c in &shared {
                map[c] = pool[b_start - 1];
            }
            holes = &pool[f_only.len()..b_start - 1];
        }
        // A merge vacates the |shared| − 1 slots between the descendants
        // and the merged cycle; compact the numbering by shifting every
        // id above each hole down. Compaction is strictly monotone on
        // occupied ids, so it preserves the invariant the slot assignment
        // established.
        if !holes.is_empty() {
            for m in &mut map {
                debug_assert!(holes.binary_search(m).is_err(), "occupied id is a hole");
                *m -= holes.partition_point(|&h| h < *m);
            }
        }
        let dirty = if shared.is_empty() {
            vec![u]
        } else {
            // Every node of the merged component gets a new fixpoint row.
            shared
                .iter()
                .flat_map(|&c| self.sccs.members(c).iter().copied())
                .collect()
        };
        self.renumber(&map, k - holes.len());
        PatchEffect {
            dirty,
            renumbered: true,
        }
    }

    /// Intra-component delete in a multi-member component: re-run Tarjan
    /// on the component's induced subgraph; splice any split parts into
    /// the global numbering at the old id.
    fn split_check(&mut self, c: SccId, u: NodeId) -> PatchEffect {
        let members = self.sccs.members(c);
        let local_of: HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut local = DiGraph::new(members.len());
        for (i, &n) in members.iter().enumerate() {
            for w in self.graph.successor_nodes(n) {
                if let Some(&j) = local_of.get(&w) {
                    local.add_edge(i, j);
                }
            }
        }
        let local_sccs = tarjan(&local);
        let m = local_sccs.len();
        if m == 1 {
            return PatchEffect {
                dirty: vec![u],
                renumbered: false,
            };
        }
        // The component split into m parts. Local Tarjan numbers them
        // reverse-topologically, so giving local part j the global id
        // c + j keeps the global invariant: ids below c are untouched,
        // ids above c shift up by m − 1.
        self.renumbers += 1;
        let dirty = members.to_vec();
        let k = self.sccs.len();
        let mut split_of: Vec<SccId> = vec![0; members.len()];
        for (i, _) in members.iter().enumerate() {
            split_of[i] = c + local_sccs.component_of(i);
        }
        let (mut comp_of, old_members) = self.take_sccs().into_parts();
        let mut new_members: Vec<Vec<NodeId>> = Vec::with_capacity(k + m - 1);
        for (old_c, ms) in old_members.into_iter().enumerate() {
            if old_c == c {
                for part in 0..m {
                    new_members.push(
                        ms.iter()
                            .enumerate()
                            .filter(|&(i, _)| split_of[i] == c + part)
                            .map(|(_, &n)| n)
                            .collect(),
                    );
                }
            } else {
                new_members.push(ms);
            }
        }
        for (nc, ms) in new_members.iter().enumerate() {
            for &n in ms {
                comp_of[n] = nc;
            }
        }
        self.sccs = Sccs::from_parts(comp_of, new_members);
        self.rebuild_comp_pos();
        self.rebuild_quotient();
        PatchEffect {
            dirty,
            renumbered: true,
        }
    }

    /// Applies a component renumbering map (`map[old] = new`, possibly
    /// many-to-one for merges) and rebuilds the derived structures.
    fn renumber(&mut self, map: &[SccId], k_new: usize) {
        let (mut comp_of, old_members) = self.take_sccs().into_parts();
        let mut new_members: Vec<Vec<NodeId>> = vec![Vec::new(); k_new];
        for (old_c, ms) in old_members.into_iter().enumerate() {
            let nc = map[old_c];
            if new_members[nc].is_empty() {
                new_members[nc] = ms;
            } else {
                new_members[nc].extend(ms);
            }
        }
        for (nc, ms) in new_members.iter().enumerate() {
            for &n in ms {
                comp_of[n] = nc;
            }
        }
        self.sccs = Sccs::from_parts(comp_of, new_members);
        self.rebuild_comp_pos();
        self.rebuild_quotient();
    }

    fn take_sccs(&mut self) -> Sccs {
        mem::replace(&mut self.sccs, Sccs::from_parts(Vec::new(), Vec::new()))
    }

    fn rebuild_comp_pos(&mut self) {
        self.comp_pos.clear();
        self.comp_pos.resize(self.graph.num_nodes(), 0);
        for ms in self.sccs.iter() {
            for (i, &n) in ms.iter().enumerate() {
                self.comp_pos[n] = i;
            }
        }
    }

    /// Recomputes quotient, predecessors and levels from the (valid)
    /// `graph` + `sccs` pair in `O(N + E)` — no Tarjan DFS.
    fn rebuild_quotient(&mut self) {
        self.cond = Condensation::build(&self.graph, &self.sccs).graph().clone();
        self.cond_preds.clear();
        self.cond_preds.resize(self.cond.num_nodes(), Vec::new());
        for e in self.cond.edges() {
            self.cond_preds[e.to].push(e.from);
        }
        for p in &mut self.cond_preds {
            p.sort_unstable();
        }
        self.levels = Levels::compute(&self.cond);
    }

    /// Worklist relaxation of `level(c) = max(level(d) + 1)` over quotient
    /// successors, starting at `start`, propagating to predecessors on
    /// every change. Handles raises (edge added) and drops (edge removed);
    /// converges to the exact longest-path levels because the quotient is
    /// a DAG.
    fn relax_levels(&mut self, start: SccId) {
        let mut work = vec![start];
        while let Some(c) = work.pop() {
            let need = self
                .cond
                .successor_nodes(c)
                .map(|d| self.levels.level_of(d) + 1)
                .max()
                .unwrap_or(0);
            if need == self.levels.level_of(c) {
                continue;
            }
            let (level_of, groups) = self.levels.parts_mut();
            let old = level_of[c];
            let pos = groups[old]
                .binary_search(&c)
                .expect("component listed at its level");
            groups[old].remove(pos);
            while need >= groups.len() {
                groups.push(Vec::new());
            }
            let pos = groups[need]
                .binary_search(&c)
                .expect_err("component absent from its new level");
            groups[need].insert(pos, c);
            level_of[c] = need;
            while groups.last().is_some_and(|g| g.is_empty()) {
                groups.pop();
            }
            work.extend_from_slice(&self.cond_preds[c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full structural audit: numbering invariant, quotient = scratch
    /// condensation (as edge sets), levels = scratch levels, partitions
    /// agree with a scratch Tarjan up to component renaming.
    fn check(dc: &DynCondensation) {
        let scratch = tarjan(dc.graph());
        assert_eq!(scratch.len(), dc.sccs().len());
        // Same partition (compare as sets of sorted member lists).
        let canon = |s: &Sccs| {
            let mut sets: Vec<Vec<NodeId>> = s
                .iter()
                .map(|m| {
                    let mut v = m.to_vec();
                    v.sort_unstable();
                    v
                })
                .collect();
            sets.sort();
            sets
        };
        assert_eq!(canon(dc.sccs()), canon(&scratch), "partition drifted");
        // Numbering invariant on the maintained ids.
        for e in dc.graph().edges() {
            let (a, b) = (dc.sccs().component_of(e.from), dc.sccs().component_of(e.to));
            assert!(b <= a, "edge {e:?}: comp {b} > comp {a}");
        }
        // Quotient graph matches a scratch condensation of the maintained
        // numbering, and the recorded predecessors match it.
        let fresh = Condensation::build(dc.graph(), dc.sccs());
        let edge_set = |g: &DiGraph| {
            let mut v: Vec<(usize, usize)> = g.edges().map(|e| (e.from, e.to)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(edge_set(dc.cond()), edge_set(fresh.graph()));
        for (c, preds) in dc.cond_preds().iter().enumerate() {
            let mut expect: Vec<SccId> = dc
                .cond()
                .edges()
                .filter(|e| e.to == c)
                .map(|e| e.from)
                .collect();
            expect.sort_unstable();
            assert_eq!(preds, &expect);
        }
        // Levels match a scratch recompute exactly (groups included).
        let fresh_levels = Levels::compute(dc.cond());
        assert_eq!(dc.levels().level_map(), fresh_levels.level_map());
        assert_eq!(dc.levels().num_levels(), fresh_levels.num_levels());
        for l in 0..fresh_levels.num_levels() {
            assert_eq!(dc.levels().group(l), fresh_levels.group(l));
        }
        // comp_pos agrees with member lists.
        for (c, ms) in dc.sccs().iter().enumerate() {
            for (i, &n) in ms.iter().enumerate() {
                assert_eq!(dc.sccs().component_of(n), c);
                assert_eq!(dc.comp_pos()[n], i);
            }
        }
    }

    #[test]
    fn ordered_insert_and_delete_patch_in_place() {
        let mut dc = DynCondensation::build(DiGraph::from_edges(3, [(0, 1), (1, 2)]));
        check(&dc);
        let p = dc.insert_edge(0, 2); // comp(2) < comp(0): no renumber
        assert!(!p.renumbered);
        assert_eq!(p.dirty, vec![0]);
        check(&dc);
        let p = dc.delete_edge(0, 2);
        assert!(!p.renumbered);
        check(&dc);
        assert_eq!(dc.renumbers(), 0);
    }

    #[test]
    fn cycle_merge_and_split_roundtrip() {
        let mut dc = DynCondensation::build(DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let p = dc.insert_edge(3, 1); // closes {1, 2, 3}
        assert!(p.renumbered);
        let mut dirty = p.dirty.clone();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 2, 3]);
        assert_eq!(dc.sccs().len(), 2);
        check(&dc);
        let p = dc.delete_edge(3, 1); // splits back
        assert!(p.renumbered);
        assert_eq!(dc.sccs().len(), 4);
        check(&dc);
        assert_eq!(dc.renumbers(), 2);
    }

    #[test]
    fn reorder_without_cycle() {
        // 2 → 1, 2 → 0, plus isolated 3. Insert 0 → 3: comp(3) > comp(0)
        // forces a window reorder but no merge.
        let mut dc = DynCondensation::build(DiGraph::from_edges(4, [(2, 1), (2, 0)]));
        let (c0, c3) = (dc.sccs().component_of(0), dc.sccs().component_of(3));
        assert!(c3 > c0, "precondition: insert must violate the order");
        let p = dc.insert_edge(0, 3);
        assert!(p.renumbered);
        assert_eq!(dc.sccs().len(), 4);
        check(&dc);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut dc = DynCondensation::build(DiGraph::new(2));
        dc.insert_edge(0, 0);
        check(&dc);
        let p = dc.insert_edge(1, 0);
        assert!(!p.renumbered);
        dc.insert_edge(1, 0); // parallel: quotient unchanged
        check(&dc);
        dc.delete_edge(1, 0); // one copy survives → quotient edge survives
        assert_eq!(dc.cond().num_edges(), 1);
        check(&dc);
        dc.delete_edge(1, 0);
        assert_eq!(dc.cond().num_edges(), 0);
        check(&dc);
        dc.delete_edge(0, 0);
        check(&dc);
    }

    #[test]
    fn add_node_is_a_singleton_at_the_top() {
        let mut dc = DynCondensation::build(DiGraph::from_edges(2, [(0, 1)]));
        let n = dc.add_node();
        assert_eq!(n, 2);
        check(&dc);
        let p = dc.insert_edge(n, 0); // highest id calling down: ordered
        assert!(!p.renumbered);
        check(&dc);
    }

    #[test]
    fn nested_merges_then_full_teardown() {
        // Build two 2-cycles, bridge them into a 4-cycle, then delete
        // every edge one by one, auditing after each patch.
        let mut dc = DynCondensation::build(DiGraph::new(4));
        let edges = [
            (0, 1),
            (1, 0), // cycle {0,1}
            (2, 3),
            (3, 2), // cycle {2,3}
            (1, 2),
            (3, 0), // bridge both ways → one 4-cycle
        ];
        for &(u, v) in &edges {
            dc.insert_edge(u, v);
            check(&dc);
        }
        assert_eq!(dc.sccs().len(), 1);
        for &(u, v) in edges.iter().rev() {
            dc.delete_edge(u, v);
            check(&dc);
        }
        assert_eq!(dc.sccs().len(), 4);
        assert_eq!(dc.cond().num_edges(), 0);
    }
}
