//! Demand-driven `MOD(site)` / `GMOD(p)` queries — §4's equations solved
//! lazily over the slice of the β / call multi-graph a single query can
//! reach, instead of exhaustively for every procedure.
//!
//! The exhaustive pipeline ([`crate::pipeline::Analyzer`]) computes every
//! summary of every procedure even when the consumer wants one call site's
//! `MOD` set. This module grows the second answer path: pull-based
//! resolution with memoized partial fixpoints.
//!
//! * **Local effects** (`IMOD`/`IUSE` with the §3.3 nesting extension) are
//!   materialised per procedure on first touch — the batch statement walk
//!   ([`modref_ir::flat_effects_of`]) over that procedure's own body and
//!   the batch fold step ([`modref_ir::absorb_children`]) over its nesting
//!   subtree.
//! * **`RMOD` bits** resolve by early-exit depth-first search over β: a
//!   formal's bit is set iff its β node reaches any node whose formal is
//!   in its owner's extended `IMOD`. A successful search memoizes
//!   `Reaches` along the DFS spine; an exhausted search memoizes `Avoids`
//!   for *every* visited node (everything reachable from a visited node
//!   was itself visited and found unseeded), so later queries skip entire
//!   explored regions.
//! * **`GMOD` rows** resolve by a Tarjan walk *from the queried node* over
//!   the (per-problem, level-filtered) call multi-graph. Already-memoized
//!   rows act as finalised external inputs and are not re-entered; the
//!   moment a component pops, its inputs are materialised and it is
//!   solved by the level-scheduled solver's own kernel
//!   ([`crate::gmod_levels::solve_component`]) over the memo's rows —
//!   early cutoff, successors-first. Because every component's least
//!   fixpoint is unique, the demanded rows are **bit-identical** to the
//!   exhaustive solvers' rows.
//! * **`ALIAS` pairs** resolve over the *ancestor closure* of the querying
//!   caller (every procedure that can transitively call it): the closure
//!   is closed under "callers of", so the restricted worklist computes the
//!   exact full-program relation for every closure member (see
//!   [`AliasPairs::solve_closure_guarded`]).
//!
//! The final per-site composition (`DMOD` projection, §5 alias factoring)
//! reuses the exhaustive kernels verbatim, so a demand answer is the same
//! *bytes* as the exhaustive pipeline's answer for the same query — the
//! differential suite in `crates/incr/tests/demand_equiv.rs` enforces
//! this at thread counts 1 and 4.
//!
//! Cost: a query charges work proportional to the reachable slice —
//! `O(N_slice + E_slice)` graph steps plus one bit-vector step per slice
//! edge — not to program size. `BENCH_demand` gates this sublinearity.
//!
//! Guard integration: queries poll at the `query`, `query.local`,
//! `query.rmod`, `query.plus`, `query.gmod`, `query.alias`, and
//! `query.final` checkpoints. On an interrupt the memo keeps only fully
//! finalised values (completed components, decided reachability verdicts,
//! completed closures), so a later retry resumes from a *correct* state;
//! callers degrade to [`conservative_site_answer`] /
//! [`conservative_proc_answer`], which over-approximate any exact answer.

use std::collections::HashMap;
use std::sync::Arc;

use modref_binding::BindingGraph;
use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_graph::DiGraph;
use modref_guard::{Guard, Interrupt};
use modref_ir::{absorb_children, flat_effects_of, CallGraph, CallSiteId, ProcId, Program, VarId};

use crate::alias::AliasPairs;
use crate::dmod::project_site;
use crate::gmod_levels::solve_component;
use crate::imod_plus::fold_site;

/// Which of the two analogous problems (§1) a demand walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The `MOD` family: `IMOD`, `RMOD`, `IMOD⁺`, `GMOD`, `DMOD`.
    Mod,
    /// The `USE` family: `IUSE`, `RUSE`, `IUSE⁺`, `GUSE`, `DUSE`.
    Use,
}

impl Side {
    fn idx(self) -> usize {
        match self {
            Side::Mod => 0,
            Side::Use => 1,
        }
    }
}

/// Memoized reachability verdict for one β node (one side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Verdict {
    #[default]
    Unknown,
    /// Reaches a seeded node — the formal's `RMOD` bit is set.
    Reaches,
    /// Exhaustively searched; reaches no seeded node.
    Avoids,
}

/// The demand engine's memo table: partial fixpoints keyed by the program
/// snapshot it was created against.
///
/// Everything in here is a *final* value of the corresponding exhaustive
/// equation system — interrupted queries never leave partial rows behind
/// (see the module docs) — so answers assembled from any mix of memoized
/// and freshly-demanded values stay bit-identical to the exhaustive
/// pipeline. The memo is only valid for the exact program it was built
/// from. After an edit that changes the call or binding structure or the
/// variable universe the owner must discard it (`DemandMemo::new` again).
/// After an edit that changes only procedure bodies (`set-local`) the
/// owner may instead call [`DemandMemoIn::after_body_edit`], which keeps
/// what no body can change. `modref-incr`'s `QueryEngine` does exactly
/// this.
#[derive(Debug, Clone)]
pub struct DemandMemoIn<S: EffectSet> {
    num_vars: usize,
    dp: usize,
    call_graph: Option<Arc<CallGraph>>,
    rev_graph: Option<Arc<DiGraph>>,
    beta: Option<Arc<BindingGraph>>,
    /// Per-procedure flat `(IMOD, IUSE)` — no nesting extension.
    flat: Vec<Option<(S, S)>>,
    /// Per-side, per-procedure §3.3-extended `IMOD`/`IUSE`.
    ext: [Vec<Option<S>>; 2],
    /// Per-procedure `LOCAL(p)`.
    locals: Vec<Option<S>>,
    /// Per-side, per-β-node reachability verdicts (sized when β is built).
    rmod: [Vec<Verdict>; 2],
    /// Per-side, per-procedure `IMOD⁺`/`IUSE⁺`.
    plus: [Vec<Option<S>>; 2],
    /// Per-side, per-problem, per-procedure `GMOD` problem rows. With
    /// `dp ≤ 1` only problem 0 (the full multi-graph) exists; nested
    /// programs use problems `1..=dp` (edges into level ≥ i), matching
    /// `solve_gmod_levels_traced` exactly.
    rows: [Vec<Vec<Option<S>>>; 2],
    /// Per-side, per-procedure assembled `GMOD`/`GUSE`.
    total: [Vec<Option<S>>; 2],
    aliases: AliasPairs,
    /// `true` once a computed closure covered this procedure — its pairs
    /// are final.
    alias_done: Vec<bool>,
}

/// [`DemandMemoIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type DemandMemo = DemandMemoIn<BitSet>;

impl<S: EffectSet> DemandMemoIn<S> {
    /// An empty memo for (exactly) this program snapshot.
    pub fn new(program: &Program) -> Self {
        let np = program.num_procs();
        let dp = program.max_level() as usize;
        let nproblems = if dp <= 1 { 1 } else { dp + 1 };
        DemandMemoIn {
            num_vars: program.num_vars(),
            dp,
            call_graph: None,
            rev_graph: None,
            beta: None,
            flat: vec![None; np],
            ext: [vec![None; np], vec![None; np]],
            locals: vec![None; np],
            rmod: [Vec::new(), Vec::new()],
            plus: [vec![None; np], vec![None; np]],
            rows: [
                vec![vec![None; np]; nproblems],
                vec![vec![None; np]; nproblems],
            ],
            total: [vec![None; np], vec![None; np]],
            aliases: AliasPairs::empty_impl(program),
            alias_done: vec![false; np],
        }
    }

    /// Re-targets the memo at `program`, the result of an edit that
    /// changed only the bodies of the `touched` procedures: same sites,
    /// same procedures, same variables (an `EditDelta` with neither
    /// `structure_changed` nor `universe_changed`).
    ///
    /// A body is the input of exactly one thing here: its procedure's
    /// flat `IMOD`/`IUSE`, which the §3.3 extension folds into every
    /// lexical ancestor. So the call graph, its reverse, β, `LOCAL`, the
    /// `ALIAS` relation (finalised or partial) and the flat and extended
    /// sets of every other procedure stay. Everything downstream of the
    /// extended sets — every `RMOD` verdict, `IMOD⁺` row, `GMOD` problem
    /// row and total — is dropped: on the programs this serves, one
    /// strongly connected component holds most procedures, so finer
    /// invalidation of the fixpoints would keep little.
    ///
    /// # Panics
    ///
    /// Panics if `program` has a different number of procedures than the
    /// snapshot the memo was built for.
    pub fn after_body_edit(&mut self, program: &Program, touched: &[ProcId]) {
        assert_eq!(self.flat.len(), program.num_procs(), "stale demand memo");
        debug_assert_eq!(
            self.num_vars,
            program.num_vars(),
            "a body edit keeps the universe"
        );
        for &p in touched {
            self.flat[p.index()] = None;
            let mut next = Some(p);
            while let Some(q) = next {
                for ext in &mut self.ext {
                    ext[q.index()] = None;
                }
                next = program.proc_(q).parent();
            }
        }
        for verdicts in &mut self.rmod {
            verdicts.fill(Verdict::Unknown);
        }
        for side in 0..2 {
            self.plus[side].fill(None);
            for rows in &mut self.rows[side] {
                rows.fill(None);
            }
            self.total[side].fill(None);
        }
    }

    /// The memoized `GMOD(p)`/`GUSE(p)`, if a previous query finalised it.
    pub fn cached_total(&self, side: Side, p: ProcId) -> Option<&S> {
        self.total[side.idx()][p.index()].as_ref()
    }
}

/// A demanded per-site answer: the same four sets the exhaustive pipeline
/// reports for a call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteAnswer {
    /// `MOD(s)` — `DMOD(s)` extended with the caller's alias pairs.
    pub mods: BitSet,
    /// `USE(s)`.
    pub uses: BitSet,
    /// `DMOD(s)`.
    pub dmod: BitSet,
    /// `DUSE(s)`.
    pub duse: BitSet,
}

/// A demanded per-procedure answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcAnswer {
    /// `GMOD(p)`.
    pub gmod: BitSet,
    /// `GUSE(p)`.
    pub guse: BitSet,
}

/// The sound fallback when a site query is cut short: every reported set
/// widens to the caller's visible set, which contains any exactly computed
/// `MOD`/`USE`/`DMOD`/`DUSE` (the same ladder the exhaustive pipeline's
/// degraded mode uses).
pub fn conservative_site_answer(program: &Program, s: CallSiteId) -> SiteAnswer {
    let v = program.visible_set(program.site(s).caller());
    SiteAnswer {
        mods: v.clone(),
        uses: v.clone(),
        dmod: v.clone(),
        duse: v,
    }
}

/// The sound fallback for a procedure query: `GMOD(p) ⊆ visible(p)` always
/// (every hop strips the callee's locals), so the visible set is a
/// superset of the exact answer.
pub fn conservative_proc_answer(program: &Program, p: ProcId) -> ProcAnswer {
    let v = program.visible_set(p);
    ProcAnswer {
        gmod: v.clone(),
        guse: v,
    }
}

/// Answers `MOD(s)`, `USE(s)`, `DMOD(s)`, `DUSE(s)` for one call site by
/// walking only the slice of the program the site depends on. The memo
/// accumulates every partial fixpoint touched, so repeated queries get
/// cheaper. Returns the answer plus the operations charged, in the
/// paper's cost units.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a budget, deadline, cancellation,
/// or injected fault trips mid-query; the memo keeps only finalised
/// values and the caller should degrade to [`conservative_site_answer`].
///
/// # Panics
///
/// Panics if `memo` was built from a different program snapshot.
pub fn query_site_guarded<S: EffectSet>(
    program: &Program,
    memo: &mut DemandMemoIn<S>,
    s: CallSiteId,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<(SiteAnswer, OpCounter), Interrupt> {
    assert_eq!(memo.flat.len(), program.num_procs(), "stale demand memo");
    guard.checkpoint("query")?;
    let mut span = trace.span("query.site");
    span.arg("site", s.index() as u64);
    let site = program.site(s);
    let caller = site.caller();
    let callee = site.callee();
    let mut d = Demand::new(program, memo, guard);
    d.ensure_total(Side::Mod, callee.index())?;
    d.ensure_total(Side::Use, callee.index())?;
    let gmod = d.memo.total[Side::Mod.idx()][callee.index()]
        .clone()
        .expect("just ensured");
    let guse = d.memo.total[Side::Use.idx()][callee.index()]
        .clone()
        .expect("just ensured");
    let dmod = project_site(program, s, &gmod);
    let duse = project_site(program, s, &guse);
    d.ops.bitvec_steps += 2;
    d.ensure_alias(caller.index())?;
    guard.checkpoint("query.final")?;
    let mods = d.memo.aliases.extend_with_aliases(caller, &dmod);
    let uses = d.memo.aliases.extend_with_aliases(caller, &duse);
    d.ops.bitvec_steps += 2;
    d.settle()?;
    let ops = d.ops;
    span.arg("bitvec_steps", ops.bitvec_steps);
    span.arg("bool_steps", ops.bool_steps);
    span.arg("nodes", ops.nodes_visited);
    span.arg("edges", ops.edges_visited);
    Ok((
        SiteAnswer {
            mods: mods.into_dense(),
            uses: uses.into_dense(),
            dmod: dmod.into_dense(),
            duse: duse.into_dense(),
        },
        ops,
    ))
}

/// Answers `GMOD(p)` / `GUSE(p)` for one procedure on demand.
///
/// # Errors
///
/// As for [`query_site_guarded`]; degrade to
/// [`conservative_proc_answer`].
///
/// # Panics
///
/// Panics if `memo` was built from a different program snapshot.
pub fn query_proc_guarded<S: EffectSet>(
    program: &Program,
    memo: &mut DemandMemoIn<S>,
    p: ProcId,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<(ProcAnswer, OpCounter), Interrupt> {
    assert_eq!(memo.flat.len(), program.num_procs(), "stale demand memo");
    guard.checkpoint("query")?;
    let mut span = trace.span("query.proc");
    span.arg("proc", p.index() as u64);
    let mut d = Demand::new(program, memo, guard);
    d.ensure_total(Side::Mod, p.index())?;
    d.ensure_total(Side::Use, p.index())?;
    guard.checkpoint("query.final")?;
    let gmod = d.memo.total[Side::Mod.idx()][p.index()]
        .clone()
        .expect("just ensured");
    let guse = d.memo.total[Side::Use.idx()][p.index()]
        .clone()
        .expect("just ensured");
    d.settle()?;
    let ops = d.ops;
    span.arg("bitvec_steps", ops.bitvec_steps);
    span.arg("bool_steps", ops.bool_steps);
    span.arg("nodes", ops.nodes_visited);
    span.arg("edges", ops.edges_visited);
    Ok((
        ProcAnswer {
            gmod: gmod.into_dense(),
            guse: guse.into_dense(),
        },
        ops,
    ))
}

/// Charges `ops`' delta since `charged` against `guard`, advances
/// `charged`, and polls the guard.
fn settle(guard: &Guard, ops: &OpCounter, charged: &mut OpCounter) -> Result<(), Interrupt> {
    let d = ops.delta_since(charged);
    guard.charge(d.bitvec_steps, d.bool_steps);
    *charged = *ops;
    guard.check()
}

/// Does problem `prob` keep the edge into callee `q`? Problem 0 is the
/// whole multi-graph (`dp ≤ 1`); nested problem `i ≥ 1` keeps edges into
/// procedures at level ≥ i — the same filter `solve_gmod_levels_traced`
/// applies.
fn edge_kept(program: &Program, prob: usize, q: usize) -> bool {
    prob == 0 || program.proc_(ProcId::new(q)).level() as usize >= prob
}

/// One query's working state: the program snapshot, the shared memo, the
/// guard, and the operation ledger (charged incrementally via `settle`).
struct Demand<'a, S: EffectSet> {
    program: &'a Program,
    memo: &'a mut DemandMemoIn<S>,
    guard: &'a Guard,
    ops: OpCounter,
    charged: OpCounter,
}

impl<'a, S: EffectSet> Demand<'a, S> {
    fn new(program: &'a Program, memo: &'a mut DemandMemoIn<S>, guard: &'a Guard) -> Self {
        Demand {
            program,
            memo,
            guard,
            ops: OpCounter::new(),
            charged: OpCounter::new(),
        }
    }

    /// Charges the op delta since the last settle against the guard and
    /// polls it — budget enforcement in exactly the units reported.
    fn settle(&mut self) -> Result<(), Interrupt> {
        settle(self.guard, &self.ops, &mut self.charged)
    }

    // Graph construction (call graph, β, reversed call graph) is *not*
    // charged to the query ledger: the batch pipeline builds the same
    // graphs before its first phase and `PhaseStats::total()` counts
    // solver steps only, so charging builds here would make the two
    // sides' op totals incomparable. Builds are cheap, one-time, and
    // memoized; every *solver* step the demand engine takes is charged.

    fn call_graph(&mut self) -> Arc<CallGraph> {
        if self.memo.call_graph.is_none() {
            self.memo.call_graph = Some(Arc::new(CallGraph::build(self.program)));
        }
        Arc::clone(self.memo.call_graph.as_ref().expect("just built"))
    }

    fn beta(&mut self) -> Arc<BindingGraph> {
        if self.memo.beta.is_none() {
            let beta = BindingGraph::build(self.program);
            self.memo.rmod = [
                vec![Verdict::Unknown; beta.num_nodes()],
                vec![Verdict::Unknown; beta.num_nodes()],
            ];
            self.memo.beta = Some(Arc::new(beta));
        }
        Arc::clone(self.memo.beta.as_ref().expect("just built"))
    }

    fn ensure_local(&mut self, p: usize) {
        if self.memo.locals[p].is_none() {
            self.ops.nodes_visited += 1;
            self.memo.locals[p] = Some(S::from_dense_owned(self.program.local_set(ProcId::new(p))));
        }
    }

    /// §3.3-extended `IMOD(p)`/`IUSE(p)`: the flat set of `p`'s own body
    /// folded with each child's extended set minus the child's locals —
    /// the same statement walk and per-node fold as
    /// `LocalEffects::compute`, restricted to `p`'s nesting subtree.
    fn ensure_ext(&mut self, side: Side, p: usize) -> Result<(), Interrupt> {
        if self.memo.ext[side.idx()][p].is_some() {
            return Ok(());
        }
        self.guard.checkpoint("query.local")?;
        let program = self.program;
        let proc_ = ProcId::new(p);
        if self.memo.flat[p].is_none() {
            self.ops.nodes_visited += 1;
            self.memo.flat[p] = Some(flat_effects_of(program, proc_));
        }
        // One step for the copy of the flat set and one per child folded
        // in, counted as each child is reached.
        self.ops.bitvec_steps += 1;
        for &q in program.proc_(proc_).children() {
            self.ensure_ext(side, q.index())?;
            self.ensure_local(q.index());
            self.ops.bitvec_steps += 1;
        }
        let memo = &*self.memo;
        let flat = memo.flat[p].as_ref().expect("just filled");
        let mut set = match side {
            Side::Mod => flat.0.clone(),
            Side::Use => flat.1.clone(),
        };
        absorb_children(
            program,
            proc_,
            &mut set,
            |q| {
                memo.ext[side.idx()][q.index()]
                    .as_ref()
                    .expect("just ensured")
            },
            |q| memo.locals[q.index()].as_ref().expect("just ensured"),
        );
        self.settle()?;
        self.memo.ext[side.idx()][p] = Some(set);
        Ok(())
    }

    /// Is β node `n`'s formal locally modified (its owner's extended set
    /// contains it)? This is the `rmod.seed` bit of the Figure 1 solver.
    fn seeded(&mut self, side: Side, beta: &BindingGraph, n: usize) -> Result<bool, Interrupt> {
        let f = beta.formal_of_node(n);
        let (owner, _) = self
            .program
            .formal_position(f)
            .expect("β nodes are formals");
        self.ensure_ext(side, owner.index())?;
        self.ops.bool_steps += 1;
        Ok(self.memo.ext[side.idx()][owner.index()]
            .as_ref()
            .expect("just ensured")
            .contains(f.index()))
    }

    /// The `RMOD` (or `RUSE`) bit of one formal: equation (6)'s fixpoint
    /// is boolean reachability over β, so the demanded bit is an
    /// early-exit DFS with memoized verdicts.
    fn rmod_bit(&mut self, side: Side, f: VarId) -> Result<bool, Interrupt> {
        let beta = self.beta();
        let Some(start) = beta.node_of_formal(f) else {
            // Unbound formal: its bit is its (extended) IMOD bit, exactly
            // as the Figure 1 broadcast treats node-less formals.
            let (owner, _) = self
                .program
                .formal_position(f)
                .expect("rmod_bit takes formals");
            self.ensure_ext(side, owner.index())?;
            self.ops.bool_steps += 1;
            return Ok(self.memo.ext[side.idx()][owner.index()]
                .as_ref()
                .expect("just ensured")
                .contains(f.index()));
        };
        match self.memo.rmod[side.idx()][start] {
            Verdict::Reaches => return Ok(true),
            Verdict::Avoids => return Ok(false),
            Verdict::Unknown => {}
        }
        self.guard.checkpoint("query.rmod")?;
        self.ops.nodes_visited += 1;
        if self.seeded(side, &beta, start)? {
            self.memo.rmod[side.idx()][start] = Verdict::Reaches;
            return Ok(true);
        }
        // Iterative DFS. On success, everything on the spine reaches the
        // seeded node; on exhaustion, *every* visited node avoids (its
        // whole out-cone was explored unseeded).
        let mut visited: std::collections::HashSet<usize> = std::collections::HashSet::new();
        visited.insert(start);
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let found = 'dfs: loop {
            let Some(frame) = stack.last_mut() else {
                break false;
            };
            let v = frame.0;
            let ei = frame.1;
            frame.1 += 1;
            let succs = beta.graph().successors_slice(v);
            if ei >= succs.len() {
                stack.pop();
                continue;
            }
            let (w, _) = succs[ei];
            self.ops.edges_visited += 1;
            match self.memo.rmod[side.idx()][w] {
                Verdict::Reaches => break 'dfs true,
                Verdict::Avoids => continue,
                Verdict::Unknown => {}
            }
            if !visited.insert(w) {
                continue;
            }
            self.ops.nodes_visited += 1;
            if self.seeded(side, &beta, w)? {
                self.memo.rmod[side.idx()][w] = Verdict::Reaches;
                break 'dfs true;
            }
            if self.ops.edges_visited % 256 == 0 {
                self.settle()?;
            }
            stack.push((w, 0));
        };
        if found {
            for &(v, _) in &stack {
                self.memo.rmod[side.idx()][v] = Verdict::Reaches;
            }
        } else {
            for &v in &visited {
                self.memo.rmod[side.idx()][v] = Verdict::Avoids;
            }
        }
        self.settle()?;
        Ok(found)
    }

    /// `IMOD⁺(p)` (equation (5)): the extended set plus every by-reference
    /// actual whose receiving formal is in the callee's `RMOD` — with the
    /// formal bits demanded from β rather than pre-solved.
    fn ensure_plus(&mut self, side: Side, u: usize) -> Result<(), Interrupt> {
        if self.memo.plus[side.idx()][u].is_some() {
            return Ok(());
        }
        self.guard.checkpoint("query.plus")?;
        self.ensure_ext(side, u)?;
        let program = self.program;
        let cg = self.call_graph();
        let mut set = self.memo.ext[side.idx()][u].clone().expect("just ensured");
        for &(_, e) in cg.graph().successors_slice(u) {
            self.ops.edges_visited += 1;
            fold_site(program, CallSiteId::new(e), &mut set, |_, formal| {
                self.ops.bool_steps += 1;
                self.rmod_bit(side, formal)
            })?;
        }
        self.settle()?;
        self.memo.plus[side.idx()][u] = Some(set);
        Ok(())
    }

    /// The problem-`prob` `GMOD` row of `start`, demanded via a Tarjan
    /// walk that treats memoized rows as finalised external inputs.
    /// Components pop successors-first, so each is solved as a closed
    /// fixpoint over already-final rows — the exact situation of the
    /// level-scheduled kernel, whose unique fixpoint makes the demanded
    /// rows bit-identical to the exhaustive ones.
    fn problem_row(&mut self, side: Side, prob: usize, start: usize) -> Result<(), Interrupt> {
        if self.memo.rows[side.idx()][prob][start].is_some() {
            return Ok(());
        }
        self.guard.checkpoint("query.gmod")?;
        let cg = self.call_graph();
        let graph = cg.graph();
        let mut index: HashMap<usize, u32> = HashMap::new();
        let mut low: HashMap<usize, u32> = HashMap::new();
        let mut on_stack: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut scc_stack: Vec<usize> = Vec::new();
        let mut next = 0u32;
        let mut frames: Vec<(usize, usize)> = Vec::new();

        index.insert(start, next);
        low.insert(start, next);
        next += 1;
        scc_stack.push(start);
        on_stack.insert(start);
        frames.push((start, 0));
        self.ops.nodes_visited += 1;

        loop {
            let Some(frame) = frames.last_mut() else {
                break;
            };
            let v = frame.0;
            let ei = frame.1;
            frame.1 += 1;
            let succs = graph.successors_slice(v);
            if ei < succs.len() {
                let (w, _) = succs[ei];
                if !edge_kept(self.program, prob, w) {
                    continue;
                }
                self.ops.edges_visited += 1;
                if self.memo.rows[side.idx()][prob][w].is_some() {
                    continue; // finalised external input
                }
                match index.get(&w) {
                    None => {
                        index.insert(w, next);
                        low.insert(w, next);
                        next += 1;
                        scc_stack.push(w);
                        on_stack.insert(w);
                        frames.push((w, 0));
                        self.ops.nodes_visited += 1;
                        if self.ops.nodes_visited % 256 == 0 {
                            self.settle()?;
                        }
                    }
                    Some(&wi) => {
                        if on_stack.contains(&w) {
                            let lv = low[&v].min(wi);
                            low.insert(v, lv);
                        }
                    }
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let lv = low[&parent].min(low[&v]);
                    low.insert(parent, lv);
                }
                if low[&v] == index[&v] {
                    let mut members = Vec::new();
                    loop {
                        let w = scc_stack.pop().expect("root below members");
                        on_stack.remove(&w);
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members.reverse(); // discovery order, for determinism
                    self.solve_scc(side, prob, &members)?;
                }
            }
        }
        Ok(())
    }

    /// One component's closed fixpoint: materialise every input the
    /// kernel reads — the members' `IMOD⁺` rows and the `LOCAL` row of
    /// every node a kept edge enters — then run
    /// [`crate::gmod_levels::solve_component`] over the memo's rows.
    fn solve_scc(&mut self, side: Side, prob: usize, members: &[usize]) -> Result<(), Interrupt> {
        let cg = self.call_graph();
        let program = self.program;
        let kept = move |q: usize| edge_kept(program, prob, q);
        for &u in members {
            self.ensure_plus(side, u)?;
            self.ensure_local(u);
            for &(q, _) in cg.graph().successors_slice(u) {
                if kept(q) {
                    self.ensure_local(q);
                }
            }
        }
        let pos: HashMap<usize, usize> = members.iter().enumerate().map(|(k, &u)| (u, k)).collect();
        let memo = &*self.memo;
        let (guard, charged) = (self.guard, &mut self.charged);
        let rows = solve_component(
            members,
            |u| {
                cg.graph()
                    .successors_slice(u)
                    .iter()
                    .map(|&(q, _)| q)
                    .filter(move |&q| kept(q))
            },
            |q| pos.get(&q).copied(),
            |u| memo.plus[side.idx()][u].as_ref().expect("just ensured"),
            |q| memo.locals[q].as_ref().expect("just ensured"),
            |q| {
                memo.rows[side.idx()][prob][q]
                    .as_ref()
                    .expect("successors-first: external row finalised")
            },
            &mut self.ops,
            |ops| {
                settle(guard, ops, charged)?;
                ops.iterations += 1;
                Ok(())
            },
        )?;
        for (row, &u) in rows.into_iter().zip(members) {
            self.memo.rows[side.idx()][prob][u] = Some(row);
        }
        self.settle()
    }

    /// The assembled `GMOD(p)`/`GUSE(p)`: the single problem row for
    /// two-level programs, or `IMOD⁺(p) ∪ ⋃_{i=1..dp} rowᵢ(p)` for nested
    /// ones — the same union `solve_gmod_levels_traced` forms.
    fn ensure_total(&mut self, side: Side, p: usize) -> Result<(), Interrupt> {
        if self.memo.total[side.idx()][p].is_some() {
            return Ok(());
        }
        let dp = self.memo.dp;
        if dp <= 1 {
            self.problem_row(side, 0, p)?;
            self.memo.total[side.idx()][p] = self.memo.rows[side.idx()][0][p].clone();
        } else {
            self.ensure_plus(side, p)?;
            let mut acc = self.memo.plus[side.idx()][p].clone().expect("just ensured");
            for i in 1..=dp {
                self.problem_row(side, i, p)?;
                acc.union_with(self.memo.rows[side.idx()][i][p].as_ref().expect("ensured"));
                self.ops.bitvec_steps += 1;
            }
            self.settle()?;
            self.memo.total[side.idx()][p] = Some(acc);
        }
        Ok(())
    }

    /// Finalises `ALIAS(q)` for `caller` (and, for free, every procedure
    /// in its ancestor closure) by running the pair worklist restricted to
    /// sites whose callee the closure contains. Pairs a cut-short earlier
    /// solve left in the memo are sound, and the solver resumes from them.
    fn ensure_alias(&mut self, caller: usize) -> Result<(), Interrupt> {
        if self.memo.alias_done[caller] {
            return Ok(());
        }
        self.guard.checkpoint("query.alias")?;
        let cg = self.call_graph();
        if self.memo.rev_graph.is_none() {
            self.memo.rev_graph = Some(Arc::new(cg.graph().reversed()));
        }
        let rev = Arc::clone(self.memo.rev_graph.as_ref().expect("just built"));
        // Ancestor closure: every procedure that can transitively call
        // `caller` — reverse reachability. Closed under "callers of", so
        // the restricted alias system is exact on it.
        let mut in_closure = vec![false; self.program.num_procs()];
        in_closure[caller] = true;
        let mut work = vec![caller];
        self.ops.nodes_visited += 1;
        while let Some(v) = work.pop() {
            for q in rev.successor_nodes(v) {
                self.ops.edges_visited += 1;
                if !in_closure[q] {
                    in_closure[q] = true;
                    self.ops.nodes_visited += 1;
                    work.push(q);
                }
            }
        }
        self.settle()?;
        let items =
            self.memo
                .aliases
                .solve_closure_guarded(self.program, &in_closure, self.guard)?;
        // The worklist charged the guard itself (one boolean step per
        // seeded site or propagated pair); record the same work in this
        // query's ledger without double-charging.
        self.ops.bool_steps += items;
        self.charged.bool_steps += items;
        for (p, inc) in in_closure.iter().enumerate() {
            if *inc {
                self.memo.alias_done[p] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Analyzer;
    use modref_ir::{Expr, ProgramBuilder};

    fn assert_demand_matches(program: &Program) {
        let summary = Analyzer::new().analyze(program);
        let mut memo = DemandMemo::new(program);
        let guard = Guard::unlimited();
        let trace = modref_trace::Trace::disabled();
        for s in program.sites() {
            let (ans, _) =
                query_site_guarded(program, &mut memo, s, &guard, &trace).expect("unlimited guard");
            assert_eq!(&ans.mods, summary.mod_site(s), "MOD({s}) differs");
            assert_eq!(&ans.uses, summary.use_site(s), "USE({s}) differs");
            assert_eq!(&ans.dmod, summary.dmod_site(s), "DMOD({s}) differs");
            assert_eq!(&ans.duse, summary.duse_site(s), "DUSE({s}) differs");
        }
        for p in program.procs() {
            let (ans, _) =
                query_proc_guarded(program, &mut memo, p, &guard, &trace).expect("unlimited guard");
            assert_eq!(&ans.gmod, summary.gmod(p), "GMOD({p}) differs");
            assert_eq!(&ans.guse, summary.guse(p), "GUSE({p}) differs");
        }
    }

    #[test]
    fn flat_chain_with_bindings() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let c = b.proc_("c", &["z"]);
        b.assign(c, b.formal(c, 0), Expr::constant(1));
        let q = b.proc_("q", &["y"]);
        b.call(q, c, &[b.formal(q, 0)]);
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        b.call(p, q, &[t]);
        b.assign(p, g, Expr::constant(2));
        let main = b.main();
        b.call(main, p, &[]);
        assert_demand_matches(&b.finish().expect("valid"));
    }

    #[test]
    fn recursive_cycle_with_aliases() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x", "y"]);
        b.call(p, p, &[b.formal(p, 1), b.formal(p, 0)]);
        b.assign(p, b.formal(p, 0), Expr::constant(7));
        let main = b.main();
        b.call(main, p, &[g, g]);
        assert_demand_matches(&b.finish().expect("valid"));
    }

    #[test]
    fn nested_multi_level_program() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let a = b.proc_("a", &[]);
        let ta = b.local(a, "ta");
        let bb = b.nested_proc(a, "b", &[]);
        let tb = b.local(bb, "tb");
        let c = b.nested_proc(bb, "c", &[]);
        b.assign(c, g, Expr::constant(1));
        b.assign(c, ta, Expr::constant(2));
        b.assign(c, tb, Expr::constant(3));
        b.call(bb, c, &[]);
        b.call(a, bb, &[]);
        b.call(c, bb, &[]);
        let main = b.main();
        b.call(main, a, &[]);
        assert_demand_matches(&b.finish().expect("valid"));
    }

    #[test]
    fn memo_reuse_is_consistent_across_query_order() {
        // Query sites in both orders; answers must not depend on what the
        // memo already holds.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let r = b.proc_("r", &["w"]);
        b.assign(r, b.formal(r, 0), Expr::constant(1));
        let q = b.proc_("q", &["y"]);
        b.call(q, r, &[b.formal(q, 0)]);
        b.call(r, q, &[b.formal(r, 0)]); // cycle {q, r}
        let p = b.proc_("p", &[]);
        b.call(p, q, &[g]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");

        let guard = Guard::unlimited();
        let trace = modref_trace::Trace::disabled();
        let sites: Vec<_> = program.sites().collect();
        let mut fwd = DemandMemo::new(&program);
        let forward: Vec<_> = sites
            .iter()
            .map(|&s| {
                query_site_guarded(&program, &mut fwd, s, &guard, &trace)
                    .expect("unlimited")
                    .0
            })
            .collect();
        let mut rev = DemandMemo::new(&program);
        let backward: Vec<_> = sites
            .iter()
            .rev()
            .map(|&s| {
                query_site_guarded(&program, &mut rev, s, &guard, &trace)
                    .expect("unlimited")
                    .0
            })
            .collect();
        for (i, ans) in forward.iter().enumerate() {
            assert_eq!(ans, &backward[sites.len() - 1 - i]);
        }
    }

    #[test]
    fn conservative_answers_superset_exact() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[g]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);
        for s in program.sites() {
            let cons = conservative_site_answer(&program, s);
            assert!(summary.mod_site(s).is_subset(&cons.mods));
            assert!(summary.use_site(s).is_subset(&cons.uses));
            assert!(summary.dmod_site(s).is_subset(&cons.dmod));
        }
        for p in program.procs() {
            let cons = conservative_proc_answer(&program, p);
            assert!(summary.gmod(p).is_subset(&cons.gmod));
            assert!(summary.guse(p).is_subset(&cons.guse));
        }
    }

    #[test]
    fn zero_budget_trips_and_memo_stays_usable() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let main = b.main();
        let s = b.call(main, q, &[g]);
        let program = b.finish().expect("valid");
        let mut memo = DemandMemo::new(&program);
        let trace = modref_trace::Trace::disabled();

        let tight = Guard::new(&modref_guard::Budget::unlimited().with_bitvec_steps(0));
        let err = query_site_guarded(&program, &mut memo, s, &tight, &trace)
            .expect_err("zero budget must trip");
        assert_ne!(err, Interrupt::Cancelled);

        // The same memo answers exactly once the pressure is gone.
        let summary = Analyzer::new().analyze(&program);
        let (ans, _) = query_site_guarded(&program, &mut memo, s, &Guard::unlimited(), &trace)
            .expect("unlimited");
        assert_eq!(&ans.mods, summary.mod_site(s));
    }
}
