//! Property tests for the dynamically maintained condensation and the
//! sparse early-cutoff sweep.
//!
//! Two walls:
//!
//! * after **arbitrary edge churn** (random interleavings of inserts and
//!   deletes, audited after *every* patch) the maintained
//!   `(Sccs, condensation, Levels)` triple is indistinguishable from a
//!   from-scratch recompute;
//! * on a random condensation with random seed perturbations, the
//!   [`SparseSweep`] recomputes a **subset** of the components the dense
//!   [`DirtySweep`] touches, and both land on exactly the from-scratch
//!   fixpoint — the cutoff never trades soundness for sparseness.

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_graph::{
    tarjan, Condensation, DiGraph, DynCondensation, Levels, NodeId, SccId, SparseSweep,
};

/// Canonical partition: sorted member lists, sorted.
fn canon_partition(sccs: &modref_graph::Sccs) -> Vec<Vec<NodeId>> {
    let mut sets: Vec<Vec<NodeId>> = sccs
        .iter()
        .map(|m| {
            let mut v = m.to_vec();
            v.sort_unstable();
            v
        })
        .collect();
    sets.sort();
    sets
}

fn sorted_edges(g: &DiGraph) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = g.edges().map(|e| (e.from, e.to)).collect();
    v.sort_unstable();
    v
}

/// Propagates a failed audit out of the enclosing property body.
macro_rules! check_audit {
    ($dc:expr, $edges:expr) => {
        match audit($dc, $edges) {
            CaseResult::Pass => {}
            other => return other,
        }
    };
}

/// Full structural audit of a [`DynCondensation`] against from-scratch
/// recomputes and the expected edge multiset.
fn audit(dc: &DynCondensation, edges: &[(usize, usize)]) -> CaseResult {
    let mut expect = edges.to_vec();
    expect.sort_unstable();
    prop_assert_eq!(sorted_edges(dc.graph()), expect, "maintained edge multiset");

    // Partition equals scratch Tarjan (up to renaming).
    let scratch = tarjan(dc.graph());
    prop_assert_eq!(
        canon_partition(dc.sccs()),
        canon_partition(&scratch),
        "partition drifted from scratch Tarjan"
    );

    // Numbering invariant on the maintained ids.
    for e in dc.graph().edges() {
        let (a, b) = (dc.sccs().component_of(e.from), dc.sccs().component_of(e.to));
        prop_assert!(b <= a, "edge {:?} maps to comps {} -> {}", e, a, b);
    }

    // Quotient graph and predecessors equal a scratch condensation of the
    // maintained numbering.
    let fresh = Condensation::build(dc.graph(), dc.sccs());
    prop_assert_eq!(sorted_edges(dc.cond()), sorted_edges(fresh.graph()));
    for (c, preds) in dc.cond_preds().iter().enumerate() {
        let mut expect: Vec<SccId> = dc
            .cond()
            .edges()
            .filter(|e| e.to == c)
            .map(|e| e.from)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(preds.clone(), expect, "cond_preds[{}]", c);
    }

    // Levels (map *and* groups) equal a scratch recompute.
    let fresh_levels = Levels::compute(dc.cond());
    prop_assert_eq!(dc.levels().level_map(), fresh_levels.level_map());
    prop_assert_eq!(dc.levels().num_levels(), fresh_levels.num_levels());
    for l in 0..fresh_levels.num_levels() {
        prop_assert_eq!(dc.levels().group(l), fresh_levels.group(l), "group {}", l);
    }

    // comp_pos agrees with the member lists.
    for (c, ms) in dc.sccs().iter().enumerate() {
        for (i, &n) in ms.iter().enumerate() {
            prop_assert_eq!(dc.sccs().component_of(n), c);
            prop_assert_eq!(dc.comp_pos()[n], i, "comp_pos[{}]", n);
        }
    }
    CaseResult::Pass
}

/// A churn script: `n` nodes and a list of `(kind, a, b)` steps. Kinds
/// `< 6` insert edge `(a % n, b % n)`; kinds `>= 6` delete the present
/// edge at index `b % len` (falling back to insert when none exist).
/// Shrinking drops steps — halves first, then singles from the tail.
fn arb_churn() -> impl Strategy<Value = (usize, Vec<(u8, usize, usize)>)> {
    custom(
        |rng: &mut Rng| {
            let n = rng.gen_range(2..20usize);
            let steps = rng.gen_range(1..48usize);
            let ops = (0..steps)
                .map(|_| {
                    (
                        rng.gen_range(0..10u64) as u8,
                        rng.gen_range(0..n),
                        rng.gen_range(0..1 << 30),
                    )
                })
                .collect();
            (n, ops)
        },
        |&(n, ref ops): &(usize, Vec<(u8, usize, usize)>)| {
            let mut out = Vec::new();
            let m = ops.len();
            if m > 0 {
                out.push((n, ops[..m / 2].to_vec()));
                out.push((n, ops[m / 2..].to_vec()));
                for i in (0..m).rev().take(8) {
                    let mut o = ops.clone();
                    o.remove(i);
                    out.push((n, o));
                }
            }
            out
        },
    )
}

/// A random condensation-shaped DAG (every edge `i → j` with `j < i`, so
/// ascending id is successors-first) plus old/new seed masks and extra
/// over-approximate dirt, for the cutoff-subset property.
#[allow(clippy::type_complexity)]
fn arb_cutoff_case(
) -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<u64>, Vec<u64>, Vec<usize>)> {
    custom(
        |rng: &mut Rng| {
            let n = rng.gen_range(2..24usize);
            let m = rng.gen_range(0..60usize);
            let edges: Vec<(usize, usize)> = (0..m)
                .filter_map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    (a != b).then(|| (a.max(b), a.min(b)))
                })
                .collect();
            let old: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256u64)).collect();
            let mut new = old.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let c = rng.gen_range(0..n);
                // Half the perturbations are no-ops: seeds rewritten to the
                // same value, the case early cutoff exists to exploit.
                if rng.gen_bool(0.5) {
                    new[c] ^= 1u64 << rng.gen_range(0..8u32);
                }
            }
            let extra: Vec<usize> = (0..rng.gen_range(0..4usize))
                .map(|_| rng.gen_range(0..n))
                .collect();
            (n, edges, old, new, extra)
        },
        |_| Vec::new(),
    )
}

/// The fixpoint the sweeps must agree on: `value(c) = seed(c) | OR of
/// successor values`, solved successors-first.
fn scratch_fixpoint(n: usize, g: &DiGraph, seeds: &[u64]) -> Vec<u64> {
    let mut vals = vec![0u64; n];
    for c in 0..n {
        let mut v = seeds[c];
        for d in g.successor_nodes(c) {
            v |= vals[d];
        }
        vals[c] = v;
    }
    vals
}

/// The dense oracle for [`SparseSweep`]: dirty-component bookkeeping for
/// one successors-first sweep that visits *every* component of the
/// condensation and asks "dirty or clean?".
#[derive(Debug, Clone)]
struct DirtySweep {
    preds: Vec<Vec<SccId>>,
    dirty: Vec<bool>,
    reused: usize,
    recomputed: usize,
}

impl DirtySweep {
    /// Prepares a sweep over `condensed` (a [`Condensation::graph`],
    /// though any acyclic [`DiGraph`] whose sweep order is
    /// successors-first works). All components start clean.
    fn new(condensed: &DiGraph) -> Self {
        let mut preds = vec![Vec::new(); condensed.num_nodes()];
        for e in condensed.edges() {
            if e.from != e.to {
                preds[e.to].push(e.from);
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        DirtySweep {
            preds,
            dirty: vec![false; condensed.num_nodes()],
            reused: 0,
            recomputed: 0,
        }
    }

    /// Marks `c` dirty before the sweep (its inputs changed).
    fn seed(&mut self, c: SccId) {
        self.dirty[c] = true;
    }

    /// Whether `c` must be recomputed when the sweep reaches it.
    fn is_dirty(&self, c: SccId) -> bool {
        self.dirty[c]
    }

    /// Records that dirty component `c` was recomputed; `changed` says
    /// whether the new value differs from the cached one. On change,
    /// every predecessor of `c` becomes dirty.
    fn update(&mut self, c: SccId, changed: bool) {
        self.recomputed += 1;
        if changed {
            for i in 0..self.preds[c].len() {
                let p = self.preds[c][i];
                self.dirty[p] = true;
            }
        }
    }

    /// Records that clean component `c` kept its cached value.
    fn skip(&mut self, c: SccId) {
        debug_assert!(!self.dirty[c], "skipped a dirty component");
        self.reused += 1;
    }

    /// Number of components whose cached value was kept.
    fn reused(&self) -> usize {
        self.reused
    }

    /// Number of components recomputed.
    fn recomputed(&self) -> usize {
        self.recomputed
    }
}

#[test]
fn clean_graph_reuses_everything() {
    let g = DiGraph::from_edges(4, [(3, 2), (2, 1), (1, 0)]);
    let mut sweep = DirtySweep::new(&g);
    for c in 0..4 {
        assert!(!sweep.is_dirty(c));
        sweep.skip(c);
    }
    assert_eq!(sweep.reused(), 4);
    assert_eq!(sweep.recomputed(), 0);
}

#[test]
fn unchanged_fixpoint_stops_propagation() {
    // Diamond: 3 → {1, 2} → 0.
    let g = DiGraph::from_edges(4, [(3, 1), (3, 2), (1, 0), (2, 0)]);
    let mut sweep = DirtySweep::new(&g);
    sweep.seed(0);
    sweep.update(0, true); // 0 changed → 1 and 2 dirty
    assert!(sweep.is_dirty(1) && sweep.is_dirty(2));
    sweep.update(1, false); // 1's fixpoint survived …
    sweep.update(2, false); // … and so did 2's
    assert!(!sweep.is_dirty(3)); // → 3 is reused
    sweep.skip(3);
    assert_eq!((sweep.recomputed(), sweep.reused()), (3, 1));
}

#[test]
fn parallel_edges_and_self_loops_dedup() {
    let mut g = DiGraph::new(2);
    g.add_edge(1, 0);
    g.add_edge(1, 0); // parallel
    g.add_edge(1, 1); // self-loop: a component never dirties itself
    let mut sweep = DirtySweep::new(&g);
    sweep.seed(0);
    sweep.update(0, true);
    assert!(sweep.is_dirty(1));
    assert_eq!(sweep.preds[1], vec![] as Vec<SccId>); // self-loop excluded
    assert_eq!(sweep.preds[0], vec![1]); // parallel edges deduplicated
    sweep.update(1, true); // root change dirties nobody
    assert_eq!(sweep.recomputed(), 2);
}

/// Replays a churn script (see [`arb_churn`]), auditing after every
/// patch.
fn replay_churn(n: usize, ops: &[(u8, usize, usize)]) -> CaseResult {
    let mut dc = DynCondensation::build(DiGraph::new(n));
    let mut edges: Vec<(usize, usize)> = Vec::new();
    check_audit!(&dc, &edges);
    for &(kind, a, b) in ops {
        if kind < 6 || edges.is_empty() {
            let (u, v) = (a % n, b % n);
            dc.insert_edge(u, v);
            edges.push((u, v));
        } else {
            let (u, v) = edges.swap_remove(b % edges.len());
            dc.delete_edge(u, v);
        }
        check_audit!(&dc, &edges);
    }
    CaseResult::Pass
}

/// A merge whose window also holds a component outside both the
/// descendants of the new edge's head and the ancestors of its tail: the
/// ancestors must keep the highest slots, or an ancestor's edge into that
/// component ends up pointing low → high. (Shrunk from a failing churn
/// case.)
#[test]
fn merge_keeps_ancestors_above_untouched_window_components() {
    let ops = [
        (6, 4, 440841910),
        (5, 4, 395722421),
        (1, 6, 490197356),
        (2, 1, 880006519),
        (8, 2, 524928914),
        (5, 0, 762506122),
        (7, 6, 1022776028),
        (5, 5, 647434774),
        (4, 3, 458595141),
        (2, 1, 898522978),
        (0, 0, 221727784),
        (1, 6, 775333267),
        (0, 0, 120363038),
        (2, 3, 213127543),
        (4, 1, 497299720),
        (4, 0, 261114809),
        (0, 6, 328592413),
        (4, 4, 658345739),
        (7, 0, 479630728),
        (8, 3, 492714402),
        (6, 6, 62610858),
        (9, 0, 691639182),
        (6, 4, 870472675),
        (9, 3, 1020099422),
        (1, 1, 350781794),
        (3, 4, 941347657),
        (1, 2, 45217516),
    ];
    if let CaseResult::Fail(why) = replay_churn(7, &ops) {
        panic!("{why}");
    }
}

property! {
    #![cases = 64]

    /// After every single patch of an arbitrary insert/delete interleaving,
    /// the maintained condensation equals a from-scratch recompute.
    fn dyncond_equals_scratch_under_churn(case in arb_churn()) {
        let (n, ops) = case;
        if let fail @ CaseResult::Fail(_) = replay_churn(n, &ops) {
            return fail;
        }
    }

}

property! {
    #![cases = 64]

    /// Node growth interleaved with churn: `add_node` keeps the audit
    /// green and new nodes participate in later cycles.
    fn dyncond_add_node_under_churn(case in arb_churn()) {
        let (n, ops) = case;
        let mut dc = DynCondensation::build(DiGraph::new(n));
        let mut nodes = n;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            if step % 5 == 4 {
                let fresh = dc.add_node();
                prop_assert_eq!(fresh, nodes);
                nodes += 1;
            }
            if kind < 6 || edges.is_empty() {
                let (u, v) = (a % nodes, b % nodes);
                dc.insert_edge(u, v);
                edges.push((u, v));
            } else {
                let (u, v) = edges.swap_remove(b % edges.len());
                dc.delete_edge(u, v);
            }
            check_audit!(&dc, &edges);
        }
    }

}

property! {
    #![cases = 64]

    /// The sparse early-cutoff sweep recomputes a subset of what the dense
    /// PR-5 sweep recomputes, and both reach the exact scratch fixpoint.
    fn cutoff_dirty_set_is_subset_of_dense_sweep(case in arb_cutoff_case()) {
        let (n, edges, old_seeds, new_seeds, extra) = case;
        let g = DiGraph::from_edges(n, edges.iter().copied());
        let old_vals = scratch_fixpoint(n, &g, &old_seeds);
        let want = scratch_fixpoint(n, &g, &new_seeds);

        // Dense PR-5 sweep: visits every component, seeded with the true
        // changes *plus* arbitrary over-approximate extras.
        let mut dense_vals = old_vals.clone();
        let mut dense = DirtySweep::new(&g);
        let mut dense_dirty = vec![false; n];
        for c in 0..n {
            if old_seeds[c] != new_seeds[c] {
                dense.seed(c);
            }
        }
        for &c in &extra {
            dense.seed(c);
        }
        for c in 0..n {
            if dense.is_dirty(c) {
                dense_dirty[c] = true;
                let mut v = new_seeds[c];
                for d in g.successor_nodes(c) {
                    v |= dense_vals[d];
                }
                let changed = v != dense_vals[c];
                dense_vals[c] = v;
                dense.update(c, changed);
            } else {
                dense.skip(c);
            }
        }
        prop_assert_eq!(&dense_vals, &want, "dense sweep missed the fixpoint");

        // Sparse sweep: frontier only, seeded with the true changes only.
        let mut preds: Vec<Vec<SccId>> = vec![Vec::new(); n];
        for e in g.edges() {
            preds[e.to].push(e.from);
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        let levels = Levels::compute(&g);
        let mut sparse_vals = old_vals.clone();
        let mut sparse = SparseSweep::new(&preds, levels.level_map());
        let mut sparse_dirty = vec![false; n];
        for c in 0..n {
            if old_seeds[c] != new_seeds[c] {
                sparse.seed(c);
            }
        }
        let mut batch = Vec::new();
        while sparse.next_batch(&mut batch) {
            for &c in &batch {
                sparse_dirty[c] = true;
                let mut v = new_seeds[c];
                for d in g.successor_nodes(c) {
                    v |= sparse_vals[d];
                }
                let changed = v != sparse_vals[c];
                sparse_vals[c] = v;
                sparse.update(c, changed);
            }
        }
        prop_assert_eq!(&sparse_vals, &want, "sparse sweep missed the fixpoint");
        prop_assert!(sparse.recomputed() <= n);

        // Cutoff dirty set ⊆ dense dirty set.
        for c in 0..n {
            prop_assert!(
                !sparse_dirty[c] || dense_dirty[c],
                "component {} recomputed sparsely but not densely",
                c
            );
        }
    }
}
