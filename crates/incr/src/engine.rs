//! The incremental summary engine.
//!
//! [`IncrementalEngine`] holds a program, the full set of analysis
//! results for it, and a cache of per-phase intermediates. Applying a
//! typed [`Edit`] recomputes *exactly the invalidated pieces* — the dirty
//! frontier of the binding multi-graph's condensation for `RMOD`/`RUSE`
//! (Figure 1) and of each level-scheduled `GMOD` problem, plus the call
//! sites whose inputs moved — while everything else is kept, untouched,
//! in per-node caches. The results after every edit are **bit-identical**
//! to a from-scratch [`Analyzer::analyze`] run on the edited program; the
//! differential test rig (`tests/incr_equiv.rs`) enforces this for random
//! edit scripts at several thread counts.
//!
//! Three apply paths, picked per edit from the [`EditDelta`]:
//!
//! * **set-local** — no structure, no universe change. The binding and
//!   call condensations are reused *as cached objects*: no graph is
//!   rebuilt, no Tarjan runs, and the sweeps are [`SparseSweep`]s whose
//!   work is proportional to the dirty frontier, not the program.
//! * **structural patch** — structure changed but every procedure and
//!   variable id survived (add/remove call, rebind, add a formal-less
//!   procedure). The cached [`DynCondensation`]s are *patched* edge by
//!   edge (Pearce–Kelly window repair, component-local re-Tarjan), and
//!   the patch dirt seeds the same sparse sweeps. The `ALIAS` relation
//!   is carried across the edit by insertion and delete-and-rederive
//!   ([`AliasPairs::update_guarded`]), not solved again.
//! * **full** — no cache, or the variable universe changed. The graphs
//!   and condensations are built fresh and every component is seeded
//!   into the same sparse sweeps, which then visit all of them.
//!
//! Whatever the path, each per-node step is the batch solver's own: the
//! statement walk [`flat_effects_of`] and the §3.3 fold
//! [`extend_nesting`] from `modref-ir`, Figure 1's seed and broadcast
//! ([`rmod_seed`], [`rmod_broadcast`]) from `modref-binding`, equation
//! (5) from [`compute_imod_plus_guarded`], and equation (4)'s component
//! closure [`solve_component`]. The engine itself owns only what is
//! incremental: the caches, the dirty frontiers and the early cutoff.
//!
//! # Why reuse is sound
//!
//! Every set the pipeline computes is the least fixed point of a system
//! whose per-component subproblems are *closed* once their successors
//! (callees, bound formals) are final. A cached component value is reused
//! only when
//!
//! 1. its local structure is unchanged (membership and outgoing edges —
//!    any patch that touches them puts its nodes in the dirty seed set),
//! 2. its inputs are unchanged (seeds and the `LOCAL` sets its edges
//!    filter through), and
//! 3. no successor's value changed (an **early cutoff**: a recomputed
//!    component whose fixpoint is bit-identical to its cached rows stops
//!    the dirt right there, so predecessors are never drawn into the
//!    frontier).
//!
//! Under those three conditions the component solves the *same* closed
//! subproblem as the cached run did, and a least fixed point is unique —
//! so the cached rows equal what [`solve_component`] would recompute,
//! bit for bit. Recomputed components run the *same steps* the
//! from-scratch solvers run, so no second implementation has to agree
//! with the first. Caches are keyed **per node** (per β node, per
//! procedure), not per component, so they survive the component
//! renumbering a merge, split, or window reorder performs. See
//! `docs/INCREMENTAL.md` for the full argument.
//!
//! # Failure containment
//!
//! [`IncrementalEngine::apply_guarded`] runs under a cooperative
//! [`Guard`]. The cache is *taken out* of the engine before any
//! recomputation starts; it is put back only when every phase has
//! committed. An interrupt or contained panic therefore leaves the
//! engine with **no** cache and conservative (sound, over-approximate)
//! result sets; the next successful apply rebuilds from scratch and is
//! again bit-identical to a clean run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use modref_binding::{rmod_broadcast, rmod_seed, BindingGraph};
use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_core::{compute_imod_plus_guarded, solve_component, Analyzer};
use modref_graph::{DiGraph, DynCondensation, SparseSweep};
use modref_guard::{panic_message, Guard, Interrupt, Strided};
use modref_ir::{
    extend_nesting, flat_effects_of, CallGraph, CallSiteId, Edit, EditDelta, EditError, ProcId,
    Program, VarId,
};
use modref_par::ThreadPool;
use modref_trace::Trace;

use modref_core::AliasPairs;

use crate::script::Script;

/// A failure replaying a recorded edit history
/// ([`IncrementalEngine::replay_history`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 0-based index of the offending history entry.
    pub index: usize,
    /// What went wrong: a parse, resolution, or apply failure.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "history entry {}: {}", self.index, self.message)
    }
}

impl std::error::Error for ReplayError {}

/// All result sets, in the same shape the batch [`Summary`] reports them.
///
/// [`Summary`]: modref_core::Summary
#[derive(Debug, Default, Clone)]
struct Results<S: EffectSet> {
    /// §3.3-extended `IMOD`/`IUSE` per procedure.
    imod: Vec<S>,
    iuse: Vec<S>,
    /// Figure 1 `RMOD`/`RUSE` per procedure (only own-formal bits).
    rmod: Vec<S>,
    ruse: Vec<S>,
    /// Equation (5) `IMOD⁺`/`IUSE⁺`.
    plus_mod: Vec<S>,
    plus_use: Vec<S>,
    /// Equation (4) `GMOD`/`GUSE`.
    gmod: Vec<S>,
    guse: Vec<S>,
    /// Per-site projections and final alias-factored sets.
    dmod: Vec<S>,
    duse: Vec<S>,
    mods: Vec<S>,
    uses: Vec<S>,
}

/// Cached intermediates that outlive one apply. Everything here is an
/// *optimisation*: the engine is correct with any subset missing (it
/// recomputes), and the whole cache is dropped on a failed apply.
struct Cache<S: EffectSet> {
    /// Flat (un-extended) per-procedure `LMOD`/`LUSE` unions.
    flat_mod: Vec<S>,
    flat_use: Vec<S>,
    /// `LOCAL(p)` per procedure.
    local_sets: Vec<S>,
    /// Figure 1 structures, maintained across set-local and structural
    /// patch edits.
    beta: BetaCache,
    /// The `GMOD` problem family, likewise maintained.
    call: CallCache<S>,
    /// Banning alias pairs; body-independent, reusable across `set-local`
    /// and maintained across structural patches.
    aliases: AliasPairs,
}

/// The binding multi-graph, its dynamically maintained condensation, and
/// the per-*node* seed and representer booleans of the last Figure 1
/// sweep (both problem sides). Node ids are formals in program order, so
/// they are stable under every edit that keeps the variable universe;
/// component ids are *not* stable, which is why nothing here is keyed by
/// them.
struct BetaCache {
    beta: BindingGraph,
    /// Sorted `(from, to)` edge multiset — the diff base for patches.
    edges: Vec<(usize, usize)>,
    dc: DynCondensation,
    seed_mod: Vec<bool>,
    seed_use: Vec<bool>,
    rep_mod: Vec<bool>,
    rep_use: Vec<bool>,
}

/// The call multi-graph's `GMOD` problem family: one maintained
/// condensation per nesting problem (shared by both sides) plus the
/// per-procedure fixpoint rows of the last sweep.
struct CallCache<S: EffectSet> {
    /// The nesting depth the family was built for; a depth change
    /// invalidates the whole family.
    dp: usize,
    /// Sorted `(from, to, callee_level)` edge multiset of the *full*
    /// call graph — the diff base for patches.
    edges: Vec<(usize, usize, usize)>,
    problems: Vec<ProblemCache<S>>,
}

/// One `GMOD` problem: its maintained condensation and the cached
/// per-node (per-procedure) fixpoint rows for both sides.
struct ProblemCache<S: EffectSet> {
    dc: DynCondensation,
    rows_mod: Vec<S>,
    rows_use: Vec<S>,
}

/// Which apply path this edit takes; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Full,
    SetLocal,
    Patch,
}

/// Reused-vs-recomputed counters for one apply.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IncrStats {
    /// `true` when no cache was available (first build, post-failure
    /// rebuild, or [`IncrementalEngine::refresh`]).
    pub full_rebuild: bool,
    /// `true` while the engine holds degraded (conservative) results.
    pub degraded: bool,
    /// Procedures whose flat `LMOD`/`LUSE` were rescanned.
    pub procs_flat_recomputed: usize,
    /// Binding-condensation components kept / redone (both sides summed).
    pub rmod_components_reused: usize,
    /// See [`IncrStats::rmod_components_reused`].
    pub rmod_components_recomputed: usize,
    /// `GMOD` condensation components kept / redone (all problems and
    /// both sides summed).
    pub gmod_components_reused: usize,
    /// See [`IncrStats::gmod_components_reused`].
    pub gmod_components_recomputed: usize,
    /// Call sites whose projection + factoring were kept / redone.
    pub sites_reused: usize,
    /// See [`IncrStats::sites_reused`].
    pub sites_recomputed: usize,
    /// `ALIAS` pairs the apply added, net. A full solve counts every pair
    /// it derived; a structural patch counts the pairs its update added.
    pub alias_pairs_added: usize,
    /// `ALIAS` pairs a structural patch removed, net.
    pub alias_pairs_removed: usize,
    /// `ALIAS` pairs a structural patch over-deleted before re-deriving
    /// (delete-and-rederive's removal work; see `modref_core::alias`).
    pub alias_pairs_overdeleted: usize,
}

/// What one successful apply changed, in terms of observable results.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IncrDelta {
    /// Procedures (new ids) whose `GMOD` or `GUSE` set differs from the
    /// pre-edit value (removed procedures are not listed; new ones are).
    pub changed_procs: Vec<ProcId>,
    /// Call sites (new ids) whose final `MOD` or `USE` set differs.
    pub changed_sites: Vec<CallSiteId>,
}

/// Why a guarded apply degraded.
#[derive(Debug, Clone)]
pub enum IncrDegradeReason {
    /// The guard tripped: deadline, a budget, or cancellation.
    Interrupted(Interrupt),
    /// A phase panicked; the engine contained it.
    Panic(String),
}

impl std::fmt::Display for IncrDegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrDegradeReason::Interrupted(i) => write!(f, "{i}"),
            IncrDegradeReason::Panic(m) => write!(f, "panic during incremental apply: {m}"),
        }
    }
}

/// The result of [`IncrementalEngine::apply_guarded`].
#[derive(Debug)]
pub enum IncrOutcome {
    /// The apply completed; results are bit-identical to a from-scratch
    /// run on the edited program.
    Clean(IncrDelta),
    /// The apply was cut short. The engine now reports conservative
    /// (sound, over-approximate) sets and has dropped its cache; the next
    /// successful apply rebuilds from scratch.
    Degraded {
        /// What stopped the apply.
        reason: IncrDegradeReason,
    },
}

impl IncrOutcome {
    /// `true` for [`IncrOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, IncrOutcome::Degraded { .. })
    }
}

/// Obtains an [`IncrementalEngine`] from an [`Analyzer`] configuration,
/// carrying over its thread count and trace handle.
pub trait IncrementalExt {
    /// Builds the engine (running the initial full analysis) with this
    /// analyzer's threads and trace, over the default dense sets.
    fn incremental(&self, program: Program) -> IncrementalEngine;

    /// [`IncrementalExt::incremental`] over a caller-chosen set
    /// representation `S` — `modref serve` uses this to build hybrid
    /// sessions when the server-wide `--set-repr` knob selects them.
    fn incremental_in<S: EffectSet>(&self, program: Program) -> IncrementalEngineIn<S>;
}

impl IncrementalExt for Analyzer {
    fn incremental(&self, program: Program) -> IncrementalEngine {
        self.incremental_in::<BitSet>(program)
    }

    fn incremental_in<S: EffectSet>(&self, program: Program) -> IncrementalEngineIn<S> {
        let mut engine = IncrementalEngineIn::with_config(
            program,
            self.configured_threads(),
            self.trace_handle().clone(),
        );
        engine.rebuild();
        engine
    }
}

/// The engine. See the module docs; `tests/` hold the differential and
/// fault suites.
///
/// # Examples
///
/// ```
/// use modref_incr::{Edit, IncrementalEngine};
/// use modref_ir::{Expr, ProgramBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let h = b.global("h");
/// let p = b.proc_("p", &[]);
/// b.assign(p, g, Expr::constant(1));
/// let main = b.main();
/// let s = b.call(main, p, &[]);
/// let mut engine = IncrementalEngine::new(b.finish()?);
/// assert!(engine.mod_site(s).contains(g.index()));
///
/// // Edit p to write h instead of g; only the affected pieces recompute.
/// engine.apply(&Edit::SetLocalEffects { proc_: p, mods: vec![h], uses: vec![] })?;
/// assert!(!engine.mod_site(s).contains(g.index()));
/// assert!(engine.mod_site(s).contains(h.index()));
/// # Ok(())
/// # }
/// ```
pub struct IncrementalEngineIn<S: EffectSet> {
    program: Program,
    threads: Option<usize>,
    trace: Trace,
    cache: Option<Cache<S>>,
    res: Results<S>,
    stats: IncrStats,
}

/// [`IncrementalEngineIn`] over the paper's dense bit vectors — the
/// default representation of the public API.
pub type IncrementalEngine = IncrementalEngineIn<BitSet>;

impl<S: EffectSet> IncrementalEngineIn<S> {
    /// Builds the engine and runs the initial full analysis.
    pub fn new(program: Program) -> Self {
        let mut engine = Self::with_config(program, None, Trace::disabled());
        engine.rebuild();
        engine
    }

    fn with_config(program: Program, threads: Option<usize>, trace: Trace) -> Self {
        IncrementalEngineIn {
            program,
            threads,
            trace,
            cache: None,
            res: Results::default(),
            stats: IncrStats::default(),
        }
    }

    /// Sets the worker-thread count for the pooled stages (dirty `GMOD`
    /// component fan-out). Semantics follow [`Analyzer::threads`]: `0`
    /// means one thread per core, unset defers to `MODREF_THREADS`.
    /// Results are bit-identical at any thread count.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = Some(threads);
        self
    }

    /// Records applies into `trace`: one `incr.apply` span per apply,
    /// annotated with the edit kind and the reused-vs-recomputed
    /// counters. Tracing only observes.
    pub fn with_trace(&mut self, trace: Trace) -> &mut Self {
        self.trace = trace;
        self
    }

    /// The current (post-edit) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The `ALIAS` relation the final sets were factored with, mirroring
    /// [`Summary::aliases`](modref_core::Summary::aliases); `None` while
    /// the engine holds degraded results.
    pub fn aliases(&self) -> Option<&AliasPairs> {
        self.cache.as_ref().map(|c| &c.aliases)
    }

    /// The counters of the most recent apply (or rebuild).
    pub fn stats(&self) -> &IncrStats {
        &self.stats
    }

    /// Drops the cache and recomputes everything from scratch.
    pub fn refresh(&mut self) {
        self.cache = None;
        self.rebuild();
    }

    fn rebuild(&mut self) {
        self.cache = None;
        match self.recompute(None, &Guard::unlimited()) {
            Ok(_) => {}
            Err(i) => unreachable!("an unlimited guard cannot interrupt the engine: {i}"),
        }
    }

    /// Applies `edit` with nothing able to interrupt the recomputation.
    ///
    /// # Errors
    ///
    /// Returns the [`EditError`] if the edit is rejected; the program,
    /// results, and cache are untouched in that case.
    ///
    /// # Panics
    ///
    /// Re-raises a solver panic (which [`IncrementalEngine::apply_guarded`]
    /// would contain).
    pub fn apply(&mut self, edit: &Edit) -> Result<IncrDelta, EditError> {
        match self.apply_guarded(edit, &Guard::unlimited())? {
            IncrOutcome::Clean(delta) => Ok(delta),
            IncrOutcome::Degraded { reason } => panic!("incremental apply failed: {reason}"),
        }
    }

    /// Applies `edit` under a cooperative [`Guard`] and always returns.
    ///
    /// The edit is validated first; a rejected edit changes nothing. Once
    /// the edit commits, the recomputation runs under the guard with
    /// checkpoints at `incr`, `incr.local`, `incr.rmod`, `incr.dyncond`
    /// (structural patches only), `incr.plus`, `incr.gmod`,
    /// `incr.gmod.patch` (structural patches only), `incr.gmod.sweep`,
    /// and `incr.final` (fault-injection sites for
    /// [`modref_guard::FaultPlan`]). On an interrupt or contained panic
    /// the engine degrades: conservative result sets, cache dropped.
    ///
    /// # Errors
    ///
    /// Returns the [`EditError`] if the edit is rejected (program,
    /// results, and cache untouched).
    pub fn apply_guarded(&mut self, edit: &Edit, guard: &Guard) -> Result<IncrOutcome, EditError> {
        let (next, delta) = {
            let _span = self.trace.span("incr.phase.edit");
            self.program.apply_edit(edit)?
        };
        // The pre-edit program (parts shared with the new one) is what a
        // structural patch over-deletes alias pairs through.
        let before = std::mem::replace(&mut self.program, next);
        match catch_unwind(AssertUnwindSafe(|| {
            self.recompute(Some((&before, &delta)), guard)
        })) {
            Ok(Ok(d)) => Ok(IncrOutcome::Clean(d)),
            Ok(Err(interrupt)) => {
                self.degrade();
                Ok(IncrOutcome::Degraded {
                    reason: IncrDegradeReason::Interrupted(interrupt),
                })
            }
            Err(payload) => {
                self.degrade();
                Ok(IncrOutcome::Degraded {
                    reason: IncrDegradeReason::Panic(panic_message(payload.as_ref())),
                })
            }
        }
    }

    /// Replays a recorded edit history — one edit-script line per entry,
    /// in the `--edits` grammar — through the same
    /// `Script::parse → resolve → apply` pipeline interactive edits use,
    /// so a replayed engine is bit-identical to one that applied the
    /// edits live. This is how `modref serve` resurrects a session from
    /// its journal or parked history. Returns the number of edits
    /// applied. Runs unguarded (recovery is not a budgeted request); a
    /// contained panic degrades soundly rather than propagating, and the
    /// caller's bit-identity check decides what to do about it.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] naming the first entry that fails to
    /// parse, resolve, or apply. The engine keeps the state produced by
    /// the entries before it.
    pub fn replay_history<'a, I>(&mut self, history: I) -> Result<u64, ReplayError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        replay_lines(self, history, Self::program, |engine, edit| {
            engine.apply_guarded(edit, &Guard::unlimited())
        })
    }

    /// Conservative results for the current program: every set is widened
    /// to the same fallbacks the batch pipeline's degradation ladder uses
    /// (all formals for `RMOD`, visible sets elsewhere), so everything
    /// observable at run time stays inside the reported sets.
    fn degrade(&mut self) {
        self.cache = None;
        let program = &self.program;
        let visible: Vec<S> = program
            .visible_sets()
            .into_iter()
            .map(S::from_dense_owned)
            .collect();
        let nv = program.num_vars();
        let mut rmod = vec![S::empty(nv); program.num_procs()];
        for p in program.procs() {
            for &f in program.proc_(p).formals() {
                rmod[p.index()].insert(f.index());
            }
        }
        let per_site: Vec<S> = program
            .sites()
            .map(|s| visible[program.site(s).caller().index()].clone())
            .collect();
        self.res = Results {
            imod: visible.clone(),
            iuse: visible.clone(),
            rmod: rmod.clone(),
            ruse: rmod,
            plus_mod: visible.clone(),
            plus_use: visible.clone(),
            gmod: visible.clone(),
            guse: visible,
            dmod: per_site.clone(),
            duse: per_site.clone(),
            mods: per_site.clone(),
            uses: per_site,
        };
        self.stats = IncrStats {
            degraded: true,
            ..IncrStats::default()
        };
    }

    /// The one recomputation path. `edit` is `None` for a full build, and
    /// otherwise the pre-edit program with the edit's delta. The cache and
    /// prior results are taken out *first*: any interrupt or panic after
    /// this point leaves the engine cacheless, so a failed apply can never
    /// leave stale intermediates behind.
    fn recompute(
        &mut self,
        edit: Option<(&Program, &EditDelta)>,
        guard: &Guard,
    ) -> Result<IncrDelta, Interrupt> {
        let delta = edit.map(|(_, d)| d);
        let cache = self.cache.take();
        let prior_res = std::mem::take(&mut self.res);
        let mut stats = IncrStats::default();
        let mut span = self.trace.span("incr.apply");
        span.note("edit", delta.map_or("rebuild", |d| d.kind));
        guard.checkpoint("incr")?;

        let program = &self.program;
        let np = program.num_procs();
        let nv = program.num_vars();
        let ns = program.num_sites();
        let pool = ThreadPool::with_threads(self.threads);

        let had_cache = cache.is_some();
        let mode = match (had_cache, delta) {
            (true, Some(d)) if !d.structure_changed && !d.universe_changed => Mode::SetLocal,
            (true, Some(d)) if !d.universe_changed && identity_maps(d) => Mode::Patch,
            _ => Mode::Full,
        };
        stats.full_rebuild = !(had_cache && delta.is_some());

        // Split the cache; the graph caches survive only the set-local
        // and patch paths (their node ids are invalidated by a universe
        // change).
        let (old_flat, old_local_sets, old_beta, old_call, old_aliases) = match (cache, mode) {
            (Some(c), Mode::SetLocal | Mode::Patch) => (
                Some((c.flat_mod, c.flat_use)),
                Some(c.local_sets),
                Some(c.beta),
                Some(c.call),
                Some(c.aliases),
            ),
            _ => (None, None, None, None, None),
        };

        // Prior observable results, translated into the edited program's
        // id spaces, for change detection and (set-local only) site reuse.
        let old: Option<OldResults<S>> = match (mode, delta) {
            (Mode::SetLocal, Some(_)) => Some(OldResults::from_results(prior_res)),
            (Mode::Patch, Some(d)) => Some(OldResults::permuted(prior_res, d, nv, ns)),
            (Mode::Full, Some(d)) if had_cache => Some(OldResults::remapped(prior_res, d, program)),
            _ => None,
        };
        let (is_new_proc, is_new_site) = match (old.is_some(), delta) {
            (true, Some(d)) => {
                let mut ip = vec![true; np];
                for m in d.proc_map.iter().flatten() {
                    ip[m.index()] = false;
                }
                let mut is = vec![true; ns];
                for m in d.site_map.iter().flatten() {
                    is[m.index()] = false;
                }
                (ip, is)
            }
            _ => (vec![true; np], vec![true; ns]),
        };

        // ---- Phase: local sets (flat LMOD/LUSE + the §3.3 extension) ----
        guard.checkpoint("incr.local")?;
        let phase_span = self.trace.span("incr.phase.local");
        // Declarations can only change through a universe change, which
        // forces a full rebuild — so under the set-local and patch modes
        // the cached `LOCAL(p)` vector is reused wholesale instead of
        // being reallocated (and compared) on every apply.
        let (local_sets, locals_reused) = match old_local_sets {
            Some(old_ls) if old_ls.len() == np => (old_ls, true),
            _ => (
                program
                    .local_sets()
                    .into_iter()
                    .map(S::from_dense_owned)
                    .collect::<Vec<S>>(),
                false,
            ),
        };
        let locals_dirty: Vec<bool> = if locals_reused {
            // The cache was only kept for modes that cannot touch
            // declarations, so a reused vector is exactly the fresh one.
            is_new_proc.clone()
        } else {
            vec![true; np]
        };
        let mut touched: Vec<bool> = match mode {
            Mode::Full => vec![true; np],
            _ => {
                let mut t = vec![false; np];
                if let Some(d) = delta {
                    for &p in &d.touched_procs {
                        t[p.index()] = true;
                    }
                }
                for (p, &fresh) in is_new_proc.iter().enumerate() {
                    t[p] |= fresh;
                }
                t
            }
        };
        if mode == Mode::Full {
            touched.iter_mut().for_each(|t| *t = true);
        }
        let (mut flat_mod, mut flat_use) = match old_flat {
            Some((mut m, mut u)) => {
                m.resize(np, S::empty(nv));
                u.resize(np, S::empty(nv));
                (m, u)
            }
            None => (vec![S::empty(nv); np], vec![S::empty(nv); np]),
        };
        for p in program.procs() {
            if !touched[p.index()] {
                continue;
            }
            let (m, u) = flat_effects_of(program, p);
            flat_mod[p.index()] = m;
            flat_use[p.index()] = u;
            stats.procs_flat_recomputed += 1;
        }
        guard.charge(0, np as u64);
        let (imod, iuse) = extend_nesting(program, &flat_mod, &flat_use, &local_sets);

        // ---- Phase: RMOD/RUSE over the binding condensation ----
        drop(phase_span);
        let phase_span = self.trace.span("incr.phase.rmod");
        guard.checkpoint("incr.rmod")?;
        let mut beta_patch_nodes: Vec<usize> = Vec::new();
        let (mut bc, beta_fresh) = match (mode, old_beta) {
            (Mode::SetLocal, Some(bc)) => (bc, false),
            (Mode::Patch, Some(mut bc)) => {
                guard.checkpoint("incr.dyncond")?;
                let beta = BindingGraph::build(program);
                let new_edges = sorted_beta_edges(&beta);
                if bc.dc.graph().num_nodes() == beta.num_nodes() {
                    let (dels, ins) = diff_sorted(&bc.edges, &new_edges);
                    for (u, v) in dels {
                        beta_patch_nodes.extend(bc.dc.delete_edge(u, v).dirty);
                    }
                    for (u, v) in ins {
                        beta_patch_nodes.extend(bc.dc.insert_edge(u, v).dirty);
                    }
                    bc.beta = beta;
                    bc.edges = new_edges;
                    (bc, false)
                } else {
                    (fresh_beta_cache(beta, new_edges), true)
                }
            }
            _ => {
                let beta = BindingGraph::build(program);
                let edges = sorted_beta_edges(&beta);
                (fresh_beta_cache(beta, edges), true)
            }
        };
        let mut rmod_reused = 0usize;
        let mut rmod_recomputed = 0usize;
        let (new_seed_mod, rmod) = rmod_sweep(
            program,
            &bc.beta,
            &bc.dc,
            &imod,
            (!beta_fresh).then_some(&bc.seed_mod[..]),
            &beta_patch_nodes,
            &mut bc.rep_mod,
            &mut rmod_reused,
            &mut rmod_recomputed,
            guard,
        )?;
        bc.seed_mod = new_seed_mod;
        let (new_seed_use, ruse) = rmod_sweep(
            program,
            &bc.beta,
            &bc.dc,
            &iuse,
            (!beta_fresh).then_some(&bc.seed_use[..]),
            &beta_patch_nodes,
            &mut bc.rep_use,
            &mut rmod_reused,
            &mut rmod_recomputed,
            guard,
        )?;
        bc.seed_use = new_seed_use;
        stats.rmod_components_reused = rmod_reused;
        stats.rmod_components_recomputed = rmod_recomputed;

        // ---- Phase: IMOD⁺/IUSE⁺ (equation 5; one cheap boolean pass) ----
        drop(phase_span);
        let phase_span = self.trace.span("incr.phase.plus");
        guard.checkpoint("incr.plus")?;
        let (plus_mod, _) = compute_imod_plus_guarded(program, &imod, &rmod, guard)?;
        let (plus_use, _) = compute_imod_plus_guarded(program, &iuse, &ruse, guard)?;
        let plus_mod_dirty = diff_procs(
            &plus_mod,
            old.as_ref().map(|o| o.plus_mod.as_slice()),
            &is_new_proc,
        );
        let plus_use_dirty = diff_procs(
            &plus_use,
            old.as_ref().map(|o| o.plus_use.as_slice()),
            &is_new_proc,
        );

        // ---- Phase: GMOD/GUSE (maintained level-scheduled fixpoints) ----
        drop(phase_span);
        let phase_span = self.trace.span("incr.phase.gmod");
        guard.checkpoint("incr.gmod")?;
        let dp = program.max_level() as usize;
        let nproblems = dp.max(1);
        let mut call_patch_nodes: Vec<Vec<usize>> = vec![Vec::new(); nproblems];
        let (mut cc, call_fresh) = match (mode, old_call) {
            (Mode::SetLocal, Some(cc))
                if cc.dp == dp
                    && cc.problems.len() == nproblems
                    && cc.problems.iter().all(|p| p.dc.graph().num_nodes() == np) =>
            {
                (cc, false)
            }
            (Mode::Patch, Some(mut cc)) if cc.dp == dp && cc.problems.len() == nproblems => {
                guard.checkpoint("incr.gmod.patch")?;
                let call_graph = CallGraph::build(program);
                let triples = sorted_call_edges(program, call_graph.graph());
                for pc in &mut cc.problems {
                    while pc.dc.graph().num_nodes() < np {
                        pc.dc.add_node();
                        pc.rows_mod.push(S::empty(nv));
                        pc.rows_use.push(S::empty(nv));
                    }
                }
                let (dels, ins) = diff_sorted(&cc.edges, &triples);
                for (k, pc) in cc.problems.iter_mut().enumerate() {
                    let min_lvl = if dp <= 1 { 0 } else { k + 1 };
                    for &(f, t, lv) in &dels {
                        if lv >= min_lvl {
                            call_patch_nodes[k].extend(pc.dc.delete_edge(f, t).dirty);
                        }
                    }
                    for &(f, t, lv) in &ins {
                        if lv >= min_lvl {
                            call_patch_nodes[k].extend(pc.dc.insert_edge(f, t).dirty);
                        }
                    }
                }
                cc.edges = triples;
                (cc, false)
            }
            _ => {
                let call_graph = CallGraph::build(program);
                let triples = sorted_call_edges(program, call_graph.graph());
                (fresh_call_cache(dp, nproblems, np, nv, triples), true)
            }
        };
        let mut gmod_reused = 0usize;
        let mut gmod_recomputed = 0usize;
        let mut gmod_acc = (dp > 1).then(|| plus_mod.clone());
        let mut guse_acc = (dp > 1).then(|| plus_use.clone());
        for (k, pc) in cc.problems.iter_mut().enumerate() {
            let dirty_mod = (!call_fresh).then(|| {
                (
                    plus_mod_dirty.as_slice(),
                    locals_dirty.as_slice(),
                    call_patch_nodes[k].as_slice(),
                )
            });
            sweep_gmod_side(
                &pc.dc,
                &mut pc.rows_mod,
                &plus_mod,
                &local_sets,
                dirty_mod,
                &pool,
                guard,
                &mut gmod_reused,
                &mut gmod_recomputed,
            )?;
            let dirty_use = (!call_fresh).then(|| {
                (
                    plus_use_dirty.as_slice(),
                    locals_dirty.as_slice(),
                    call_patch_nodes[k].as_slice(),
                )
            });
            sweep_gmod_side(
                &pc.dc,
                &mut pc.rows_use,
                &plus_use,
                &local_sets,
                dirty_use,
                &pool,
                guard,
                &mut gmod_reused,
                &mut gmod_recomputed,
            )?;
            if let Some(acc) = &mut gmod_acc {
                for (a, r) in acc.iter_mut().zip(&pc.rows_mod) {
                    a.union_with(r);
                }
                guard.charge(np as u64, 0);
            }
            if let Some(acc) = &mut guse_acc {
                for (a, r) in acc.iter_mut().zip(&pc.rows_use) {
                    a.union_with(r);
                }
                guard.charge(np as u64, 0);
            }
        }
        let assemble_span = self.trace.span("incr.phase.gmod.assemble");
        let gmod = match gmod_acc {
            Some(acc) => acc,
            None => cc.problems[0].rows_mod.clone(),
        };
        let guse = match guse_acc {
            Some(acc) => acc,
            None => cc.problems[0].rows_use.clone(),
        };
        drop(assemble_span);
        stats.gmod_components_reused = gmod_reused;
        stats.gmod_components_recomputed = gmod_recomputed;
        let diff_span = self.trace.span("incr.phase.gmod.diff");
        let gmod_dirty = diff_procs(&gmod, old.as_ref().map(|o| o.gmod.as_slice()), &is_new_proc);
        let guse_dirty = diff_procs(&guse, old.as_ref().map(|o| o.guse.as_slice()), &is_new_proc);
        drop(diff_span);

        // ---- Phase: aliases, per-site projection, factoring ----
        drop(phase_span);
        let phase_span = self.trace.span("incr.phase.final");
        guard.checkpoint("incr.final")?;
        // `caller_stale[p]`: old results of sites in `p` cannot be reused,
        // because `ALIAS(p)` differs from the relation they were factored
        // with, or because a patch touched `p` — the only sign of a
        // `rebind`, which changes a site's actuals but not its id.
        let (aliases, mut caller_stale) = match (mode, old_aliases, edit) {
            // Alias pairs depend only on call sites and visibility, both
            // unchanged under a set-local edit.
            (Mode::SetLocal, Some(a), _) => (a, vec![false; np]),
            // A patch keeps every procedure and variable id, so the
            // relation is carried across it by insertion and DRed, and the
            // update names the procedures whose relation changed.
            (Mode::Patch, Some(old_a), Some((before, d))) => {
                let (a, change) = old_a.update_guarded(before, program, d, guard)?;
                stats.alias_pairs_added = change.pairs_added;
                stats.alias_pairs_removed = change.pairs_removed;
                stats.alias_pairs_overdeleted = change.pairs_overdeleted;
                let mut stale = vec![false; np];
                for p in change.changed {
                    stale[p.index()] = true;
                }
                (a, stale)
            }
            _ => {
                let a = AliasPairs::compute_guarded(program, guard)?;
                stats.alias_pairs_added = program.procs().map(|p| a.pair_count(p)).sum();
                (a, vec![true; np])
            }
        };
        if let (Mode::Patch, Some(d)) = (mode, delta) {
            for &p in &d.touched_procs {
                caller_stale[p.index()] = true;
            }
        }
        let mut old_sites = old.map(|o| (o.dmod, o.duse, o.mods, o.uses));
        let no_old = old_sites.is_none();
        let mut dmod = Vec::with_capacity(ns);
        let mut duse = Vec::with_capacity(ns);
        let mut mods = Vec::with_capacity(ns);
        let mut uses = Vec::with_capacity(ns);
        let mut changed_sites = Vec::new();
        for s in program.sites() {
            let site = program.site(s);
            let callee = site.callee().index();
            let caller = site.caller();
            let i = s.index();
            let stale =
                no_old || is_new_site[i] || caller_stale[caller.index()] || locals_dirty[callee];
            let redo_mod = stale || gmod_dirty[callee];
            let redo_use = stale || guse_dirty[callee];
            // Each side compares its fresh value against the (permuted)
            // old one *before* the other side may consume its slots, so
            // a one-sided redo still reports change correctly.
            let (dm, m, mod_changed) = if redo_mod {
                let dm = modref_core::dmod::project_site(program, s, &gmod[callee]);
                let m = aliases.extend_with_aliases(caller, &dm);
                let changed = is_new_site[i] || old_sites.as_ref().is_none_or(|o| m != o.2[i]);
                (dm, m, changed)
            } else {
                let o = old_sites.as_mut().expect("a reused site has old results");
                (
                    std::mem::take(&mut o.0[i]),
                    std::mem::take(&mut o.2[i]),
                    false,
                )
            };
            let (du, u, use_changed) = if redo_use {
                let du = modref_core::dmod::project_site(program, s, &guse[callee]);
                let u = aliases.extend_with_aliases(caller, &du);
                let changed = is_new_site[i] || old_sites.as_ref().is_none_or(|o| u != o.3[i]);
                (du, u, changed)
            } else {
                let o = old_sites.as_mut().expect("a reused site has old results");
                (
                    std::mem::take(&mut o.1[i]),
                    std::mem::take(&mut o.3[i]),
                    false,
                )
            };
            if redo_mod || redo_use {
                stats.sites_recomputed += 1;
            } else {
                stats.sites_reused += 1;
            }
            if mod_changed || use_changed {
                changed_sites.push(s);
            }
            dmod.push(dm);
            duse.push(du);
            mods.push(m);
            uses.push(u);
        }
        guard.charge(ns as u64, 0);
        guard.check()?;
        drop(phase_span);

        // ---- Commit ----
        let changed_procs: Vec<ProcId> = program
            .procs()
            .filter(|p| gmod_dirty[p.index()] || guse_dirty[p.index()])
            .collect();
        self.res = Results {
            imod,
            iuse,
            rmod,
            ruse,
            plus_mod,
            plus_use,
            gmod,
            guse,
            dmod,
            duse,
            mods,
            uses,
        };
        self.cache = Some(Cache {
            flat_mod,
            flat_use,
            local_sets,
            beta: bc,
            call: cc,
            aliases,
        });
        span.arg("full_rebuild", u64::from(stats.full_rebuild));
        span.arg("flat_recomputed", stats.procs_flat_recomputed as u64);
        span.arg("rmod_reused", stats.rmod_components_reused as u64);
        span.arg("rmod_recomputed", stats.rmod_components_recomputed as u64);
        span.arg("gmod_reused", stats.gmod_components_reused as u64);
        span.arg("gmod_recomputed", stats.gmod_components_recomputed as u64);
        span.arg("sites_reused", stats.sites_reused as u64);
        span.arg("sites_recomputed", stats.sites_recomputed as u64);
        span.arg("alias_added", stats.alias_pairs_added as u64);
        span.arg("alias_removed", stats.alias_pairs_removed as u64);
        span.arg("alias_overdeleted", stats.alias_pairs_overdeleted as u64);
        self.stats = stats;
        Ok(IncrDelta {
            changed_procs,
            changed_sites,
        })
    }

    // ---- Accessors (mirroring `Summary`) ----

    /// `IMOD(p)` with the §3.3 nesting extension.
    pub fn imod(&self, p: ProcId) -> &S {
        &self.res.imod[p.index()]
    }

    /// `IUSE(p)` with the nesting extension.
    pub fn iuse(&self, p: ProcId) -> &S {
        &self.res.iuse[p.index()]
    }

    /// `RMOD(p)`: formals of `p` an invocation may modify.
    pub fn rmod(&self, p: ProcId) -> &S {
        &self.res.rmod[p.index()]
    }

    /// `RUSE(p)`.
    pub fn ruse(&self, p: ProcId) -> &S {
        &self.res.ruse[p.index()]
    }

    /// `IMOD⁺(p)` (equation 5).
    pub fn imod_plus(&self, p: ProcId) -> &S {
        &self.res.plus_mod[p.index()]
    }

    /// `IUSE⁺(p)`.
    pub fn iuse_plus(&self, p: ProcId) -> &S {
        &self.res.plus_use[p.index()]
    }

    /// `GMOD(p)`.
    pub fn gmod(&self, p: ProcId) -> &S {
        &self.res.gmod[p.index()]
    }

    /// `GUSE(p)`.
    pub fn guse(&self, p: ProcId) -> &S {
        &self.res.guse[p.index()]
    }

    /// All `GMOD` sets, indexed by procedure.
    pub fn gmod_all(&self) -> &[S] {
        &self.res.gmod
    }

    /// All `GUSE` sets, indexed by procedure.
    pub fn guse_all(&self) -> &[S] {
        &self.res.guse
    }

    /// `DMOD` restricted to call site `s` (before aliases).
    pub fn dmod_site(&self, s: CallSiteId) -> &S {
        &self.res.dmod[s.index()]
    }

    /// `DUSE` restricted to call site `s`.
    pub fn duse_site(&self, s: CallSiteId) -> &S {
        &self.res.duse[s.index()]
    }

    /// `MOD(s)`: the final answer for call site `s`.
    pub fn mod_site(&self, s: CallSiteId) -> &S {
        &self.res.mods[s.index()]
    }

    /// `USE(s)`.
    pub fn use_site(&self, s: CallSiteId) -> &S {
        &self.res.uses[s.index()]
    }

    /// All per-site `MOD` sets.
    pub fn mod_all(&self) -> &[S] {
        &self.res.mods
    }

    /// All per-site `USE` sets.
    pub fn use_all(&self) -> &[S] {
        &self.res.uses
    }
}

/// The parse → resolve → apply loop behind both `replay_history`s: each
/// history line is parsed as an edit script, each step resolved against
/// `target`'s current program and applied. Returns the number of edits
/// applied, or the first failing line's index and message.
pub(crate) fn replay_lines<'a, T>(
    target: &mut T,
    history: impl IntoIterator<Item = &'a str>,
    program: impl Fn(&T) -> &Program,
    mut apply: impl FnMut(&mut T, &Edit) -> Result<IncrOutcome, EditError>,
) -> Result<u64, ReplayError> {
    let mut applied = 0u64;
    for (index, line) in history.into_iter().enumerate() {
        let fail = |message: String| ReplayError { index, message };
        let script = Script::parse(line).map_err(|e| fail(e.message))?;
        for step in script.steps() {
            let edit = step.resolve(program(target)).map_err(|e| fail(e.message))?;
            apply(target, &edit).map_err(|e| fail(e.to_string()))?;
            applied += 1;
        }
    }
    Ok(applied)
}

/// `true` when every surviving procedure and variable keeps its id — the
/// precondition for patching the cached graph structures in place.
fn identity_maps(d: &EditDelta) -> bool {
    d.proc_map
        .iter()
        .enumerate()
        .all(|(i, m)| m.map(ProcId::index) == Some(i))
        && d.var_map
            .iter()
            .enumerate()
            .all(|(i, m)| m.map(VarId::index) == Some(i))
}

/// Prior observable results, translated into the edited program's id
/// spaces — the diff base for change detection and (set-local) site
/// reuse.
struct OldResults<S: EffectSet> {
    plus_mod: Vec<S>,
    plus_use: Vec<S>,
    gmod: Vec<S>,
    guse: Vec<S>,
    dmod: Vec<S>,
    duse: Vec<S>,
    mods: Vec<S>,
    uses: Vec<S>,
}

impl<S: EffectSet> OldResults<S> {
    /// Set-local: every id space is untouched; the results move verbatim.
    fn from_results(res: Results<S>) -> OldResults<S> {
        OldResults {
            plus_mod: res.plus_mod,
            plus_use: res.plus_use,
            gmod: res.gmod,
            guse: res.guse,
            dmod: res.dmod,
            duse: res.duse,
            mods: res.mods,
            uses: res.uses,
        }
    }

    /// Structural patch: procedure and variable ids are identities, but
    /// call-site ids may have shifted — permute the per-site vectors.
    fn permuted(res: Results<S>, d: &EditDelta, nv: usize, ns: usize) -> OldResults<S> {
        let permute = |old: Vec<S>| -> Vec<S> {
            let mut out = vec![S::empty(nv); ns];
            for (i, set) in old.into_iter().enumerate() {
                if let Some(s) = d.site_map.get(i).copied().flatten() {
                    out[s.index()] = set;
                }
            }
            out
        };
        OldResults {
            plus_mod: res.plus_mod,
            plus_use: res.plus_use,
            gmod: res.gmod,
            guse: res.guse,
            dmod: permute(res.dmod),
            duse: permute(res.duse),
            mods: permute(res.mods),
            uses: permute(res.uses),
        }
    }

    /// Full rebuild after a universe change: remap every id space so the
    /// reported [`IncrDelta`] still names exactly what moved.
    fn remapped(res: Results<S>, d: &EditDelta, program: &Program) -> OldResults<S> {
        let np = program.num_procs();
        let nv = program.num_vars();
        let ns = program.num_sites();
        let remap_set = |old: &S| -> S {
            S::from_elems(
                nv,
                old.iter().filter_map(|i| d.var_map[i].map(VarId::index)),
            )
        };
        let remap_proc_vec = |old: &[S]| -> Vec<S> {
            let mut out = vec![S::empty(nv); np];
            for (i, set) in old.iter().enumerate() {
                if let Some(p) = d.proc_map.get(i).copied().flatten() {
                    out[p.index()] = remap_set(set);
                }
            }
            out
        };
        let remap_site_vec = |old: &[S]| -> Vec<S> {
            let mut out = vec![S::empty(nv); ns];
            for (i, set) in old.iter().enumerate() {
                if let Some(s) = d.site_map.get(i).copied().flatten() {
                    out[s.index()] = remap_set(set);
                }
            }
            out
        };
        OldResults {
            plus_mod: remap_proc_vec(&res.plus_mod),
            plus_use: remap_proc_vec(&res.plus_use),
            gmod: remap_proc_vec(&res.gmod),
            guse: remap_proc_vec(&res.guse),
            dmod: remap_site_vec(&res.dmod),
            duse: remap_site_vec(&res.duse),
            mods: remap_site_vec(&res.mods),
            uses: remap_site_vec(&res.uses),
        }
    }
}

/// Two-pointer diff of two sorted multisets: `(deletions, insertions)`
/// turning `old` into `new`.
fn diff_sorted<T: Ord + Copy>(old: &[T], new: &[T]) -> (Vec<T>, Vec<T>) {
    let (mut dels, mut ins) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                dels.push(*a);
                i += 1;
            }
            (Some(_), Some(b)) => {
                ins.push(*b);
                j += 1;
            }
            (Some(a), None) => {
                dels.push(*a);
                i += 1;
            }
            (None, Some(b)) => {
                ins.push(*b);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (dels, ins)
}

fn sorted_beta_edges(beta: &BindingGraph) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = beta.graph().edges().map(|e| (e.from, e.to)).collect();
    v.sort_unstable();
    v
}

fn sorted_call_edges(program: &Program, g: &DiGraph) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<(usize, usize, usize)> = g
        .edges()
        .map(|e| {
            (
                e.from,
                e.to,
                program.proc_(ProcId::new(e.to)).level() as usize,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

fn fresh_beta_cache(beta: BindingGraph, edges: Vec<(usize, usize)>) -> BetaCache {
    let dc = DynCondensation::build(beta.graph().clone());
    BetaCache {
        beta,
        edges,
        dc,
        seed_mod: Vec::new(),
        seed_use: Vec::new(),
        rep_mod: Vec::new(),
        rep_use: Vec::new(),
    }
}

/// Builds the `GMOD` problem family from scratch. Problem `k` (0-based)
/// restricts the call multi-graph to edges whose callee sits at nesting
/// level `≥ k + 1`; for two-level programs the single problem runs on the
/// full graph, matching the batch solver exactly.
fn fresh_call_cache<S: EffectSet>(
    dp: usize,
    nproblems: usize,
    np: usize,
    nv: usize,
    triples: Vec<(usize, usize, usize)>,
) -> CallCache<S> {
    let mut problems = Vec::with_capacity(nproblems);
    for k in 0..nproblems {
        let min_lvl = if dp <= 1 { 0 } else { k + 1 };
        let mut g = DiGraph::new(np);
        for &(f, t, lv) in &triples {
            if lv >= min_lvl {
                g.add_edge(f, t);
            }
        }
        problems.push(ProblemCache {
            dc: DynCondensation::build(g),
            rows_mod: vec![S::empty(nv); np],
            rows_use: vec![S::empty(nv); np],
        });
    }
    CallCache {
        dp,
        edges: triples,
        problems,
    }
}

/// One side of Figure 1 over the maintained binding condensation: the
/// batch solver's seed and broadcast steps around a [`SparseSweep`]
/// frontier. With no cached seeds (`old_seeds: None`, a fresh
/// condensation) every component is seeded; with a cache, the frontier
/// starts at components whose seeds moved or whose structure a patch
/// touched, and grows only through components whose recomputed value
/// changed — the early cutoff stops it at any component whose value
/// equals its cached one. `rep` holds the per-*node* representer booleans
/// and is updated in place. Returns the seeds and the `RMOD` sets.
#[allow(clippy::too_many_arguments)]
fn rmod_sweep<S: EffectSet>(
    program: &Program,
    beta: &BindingGraph,
    dc: &DynCondensation,
    initial: &[S],
    old_seeds: Option<&[bool]>,
    patch_nodes: &[usize],
    rep: &mut Vec<bool>,
    reused: &mut usize,
    recomputed: &mut usize,
    guard: &Guard,
) -> Result<(Vec<bool>, Vec<S>), Interrupt> {
    let mut ops = OpCounter::new();
    let mut stride = Strided::new(512);
    let seeds = rmod_seed(program, initial, beta, &mut stride, guard, &mut ops)?;
    guard.charge(0, ops.bool_steps);
    guard.check()?;

    let sccs = dc.sccs();
    let cond = dc.cond();
    let mut sweep = SparseSweep::new(dc.cond_preds(), dc.levels().level_map());
    match old_seeds {
        None => {
            rep.clear();
            rep.resize(seeds.len(), false);
            for c in 0..sccs.len() {
                sweep.seed(c);
            }
        }
        Some(old) => {
            debug_assert_eq!(
                old.len(),
                seeds.len(),
                "β node set is stable under cached applies"
            );
            for (node, (&new, &was)) in seeds.iter().zip(old).enumerate() {
                if new != was {
                    sweep.seed(sccs.component_of(node));
                }
            }
            for &node in patch_nodes {
                sweep.seed(sccs.component_of(node));
            }
        }
    }
    let mut batch = Vec::new();
    while sweep.next_batch(&mut batch) {
        for &c in &batch {
            let mut value = false;
            for &m in sccs.members(c) {
                value |= seeds[m];
            }
            for d in cond.successor_nodes(c) {
                value |= rep[sccs.members(d)[0]];
            }
            let changed = sccs.members(c).iter().any(|&m| rep[m] != value);
            for &m in sccs.members(c) {
                rep[m] = value;
            }
            sweep.update(c, changed);
        }
    }
    *reused += sweep.total() - sweep.recomputed();
    *recomputed += sweep.recomputed();
    guard.charge(0, sweep.recomputed() as u64);
    guard.check()?;

    // The budget counts Figure 1 here in components recomputed, so the
    // broadcast's per-formal steps go uncharged; it runs sequentially,
    // like the frontier loop.
    let (rmod, _) = rmod_broadcast(
        program,
        initial,
        beta,
        |node| rep[node],
        &ThreadPool::new(1),
        &mut stride,
        guard,
        &mut OpCounter::new(),
    )?;
    Ok((seeds, rmod))
}

/// `new[p] != old[p]` per procedure (new procedures always dirty; no old
/// results means everything is; an old vector shorter than `new` — ids
/// appended by the edit — dirties the tail).
fn diff_procs<S: EffectSet>(new: &[S], old: Option<&[S]>, is_new: &[bool]) -> Vec<bool> {
    match old {
        Some(old) => (0..new.len())
            .map(|p| is_new[p] || old.get(p).is_none_or(|o| new[p] != *o))
            .collect(),
        None => vec![true; new.len()],
    }
}

/// One side of one `GMOD` problem over its maintained condensation, as a
/// [`SparseSweep`] whose batches — pairwise-independent components of one
/// level — are solved on the pool with the batch kernel. `dirty: None`
/// (a fresh condensation, zeroed rows) seeds every component. `dirty:
/// Some((seed_dirty, locals_dirty, patch_nodes))` starts the frontier
/// from procedures whose `IMOD⁺` seeds moved, the *predecessors* of
/// procedures whose `LOCAL` filter moved (`LOCAL(q)` is applied on edges
/// into `q`, so it is the callers' input), and the nodes an edge patch
/// touched. Either way the frontier then grows only through components
/// whose recomputed fixpoint actually changed.
#[allow(clippy::too_many_arguments)]
fn sweep_gmod_side<S: EffectSet>(
    dc: &DynCondensation,
    rows: &mut [S],
    seeds: &[S],
    locals: &[S],
    dirty: Option<(&[bool], &[bool], &[usize])>,
    pool: &ThreadPool,
    guard: &Guard,
    reused: &mut usize,
    recomputed: &mut usize,
) -> Result<(), Interrupt> {
    guard.checkpoint("incr.gmod.sweep")?;
    let graph = dc.graph();
    let sccs = dc.sccs();
    let comp_map = sccs.component_map();
    let comp_pos = dc.comp_pos();
    let mut sweep = SparseSweep::new(dc.cond_preds(), dc.levels().level_map());
    match dirty {
        None => {
            for c in 0..sccs.len() {
                sweep.seed(c);
            }
        }
        Some((seed_dirty, locals_dirty, patch_nodes)) => {
            for (p, &d) in seed_dirty.iter().enumerate() {
                if d {
                    sweep.seed(comp_map[p]);
                }
            }
            for (q, &d) in locals_dirty.iter().enumerate() {
                if d {
                    for &u in dc.predecessors(q) {
                        sweep.seed(comp_map[u]);
                    }
                }
            }
            for &node in patch_nodes {
                sweep.seed(comp_map[node]);
            }
        }
    }
    let mut batch = Vec::new();
    while sweep.next_batch(&mut batch) {
        let results = {
            let g_final: &[S] = rows;
            pool.par_map_while(
                batch.len(),
                || !guard.should_stop(),
                |i| {
                    if i % 64 == 0 {
                        let _ = guard.check();
                    }
                    let c = batch[i];
                    let mut counter = OpCounter::new();
                    solve_component(
                        sccs.members(c),
                        |u| graph.successors_slice(u).iter().map(|&(q, _)| q),
                        |q| (comp_map[q] == c).then(|| comp_pos[q]),
                        |u| &seeds[u],
                        |q| &locals[q],
                        |q| &g_final[q],
                        &mut counter,
                        |_| guard.check(),
                    )
                    .map(|sets| (sets, counter))
                },
            )
        };
        let mut work = OpCounter::new();
        for (slot, &c) in results.into_iter().zip(&batch) {
            let Some(Ok((sets, counter))) = slot else {
                guard.check()?;
                return Err(guard.interrupt().unwrap_or(Interrupt::Halted));
            };
            work += counter;
            let members = sccs.members(c);
            let changed = sets.iter().zip(members).any(|(set, &m)| rows[m] != *set);
            for (set, &m) in sets.into_iter().zip(members) {
                rows[m] = set;
            }
            sweep.update(c, changed);
        }
        guard.charge(work.bitvec_steps, work.bool_steps);
        guard.check()?;
    }
    *reused += sweep.total() - sweep.recomputed();
    *recomputed += sweep.recomputed();
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::{Actual, Expr, ProgramBuilder};

    fn base_engine() -> (IncrementalEngine, VarId, VarId, ProcId, ProcId, CallSiteId) {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::load(g));
        let q = b.proc_("q", &[]);
        b.assign(q, h, Expr::constant(1));
        let main = b.main();
        let s = b.call(main, p, &[g]);
        b.call(main, q, &[]);
        let program = b.finish().expect("valid");
        (IncrementalEngine::new(program), g, h, p, q, s)
    }

    fn assert_matches_scratch(engine: &IncrementalEngine) {
        let summary = Analyzer::new().analyze(engine.program());
        for p in engine.program().procs() {
            assert_eq!(engine.rmod(p), summary.rmod(p), "rmod({p})");
            assert_eq!(engine.ruse(p), summary.ruse(p), "ruse({p})");
            assert_eq!(engine.imod_plus(p), summary.imod_plus(p), "plus({p})");
            assert_eq!(engine.gmod(p), summary.gmod(p), "gmod({p})");
            assert_eq!(engine.guse(p), summary.guse(p), "guse({p})");
        }
        for s in engine.program().sites() {
            assert_eq!(engine.dmod_site(s), summary.dmod_site(s), "dmod({s})");
            assert_eq!(engine.duse_site(s), summary.duse_site(s), "duse({s})");
            assert_eq!(engine.mod_site(s), summary.mod_site(s), "mod({s})");
            assert_eq!(engine.use_site(s), summary.use_site(s), "use({s})");
        }
    }

    #[test]
    fn initial_build_matches_scratch() {
        let (engine, ..) = base_engine();
        assert!(engine.stats().full_rebuild);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn set_local_effects_applies_incrementally() {
        let (mut engine, g, h, _p, q, s) = base_engine();
        let delta = engine
            .apply(&Edit::SetLocalEffects {
                proc_: q,
                mods: vec![g],
                uses: vec![h],
            })
            .expect("valid edit");
        assert!(!engine.stats().full_rebuild);
        assert!(delta.changed_procs.contains(&q));
        assert_matches_scratch(&engine);
        let _ = s;
    }

    #[test]
    fn unrelated_edit_reuses_components() {
        let (mut engine, g, _h, _p, q, _s) = base_engine();
        // Re-assert q's existing effects: nothing changes downstream.
        let before = engine.gmod(q).clone();
        engine
            .apply(&Edit::SetLocalEffects {
                proc_: q,
                mods: engine.gmod(q).iter().map(VarId::new).collect(),
                uses: vec![],
            })
            .expect("valid edit");
        assert_eq!(&before, engine.gmod(q));
        assert!(engine.stats().gmod_components_reused > 0);
        assert_matches_scratch(&engine);
        let _ = g;
    }

    #[test]
    fn structural_edits_apply_incrementally() {
        let (mut engine, g, h, p, _q, _s) = base_engine();
        engine
            .apply(&Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: p,
                args: vec![Actual::Ref(modref_ir::Ref::scalar(h))],
            })
            .expect("valid edit");
        assert_matches_scratch(&engine);
        engine
            .apply(&Edit::AddProcedure {
                name: "fresh".into(),
                parent: ProcId::MAIN,
                formals: vec!["z".into()],
            })
            .expect("valid edit");
        assert_matches_scratch(&engine);
        let s0 = CallSiteId::new(0);
        engine
            .apply(&Edit::RebindActual {
                site: s0,
                position: 0,
                actual: Actual::Ref(modref_ir::Ref::scalar(g)),
            })
            .expect("valid edit");
        assert_matches_scratch(&engine);
        engine
            .apply(&Edit::RemoveCallSite { site: s0 })
            .expect("valid edit");
        assert_matches_scratch(&engine);
        // The add-call edit above appended a second call to p; drop it so
        // p becomes call-free and removable.
        engine
            .apply(&Edit::RemoveCallSite {
                site: CallSiteId::new(1),
            })
            .expect("valid edit");
        assert_matches_scratch(&engine);
        engine
            .apply(&Edit::RemoveProcedure { proc_: p })
            .expect("valid edit");
        assert_matches_scratch(&engine);
    }

    #[test]
    fn rejected_edit_leaves_everything_intact() {
        let (mut engine, ..) = base_engine();
        let before_gmod: Vec<BitSet> = engine.gmod_all().to_vec();
        let err = engine
            .apply(&Edit::RemoveProcedure {
                proc_: ProcId::MAIN,
            })
            .expect_err("removing main is rejected");
        assert!(matches!(err, EditError::RemoveMain));
        assert_eq!(engine.gmod_all(), &before_gmod[..]);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn refresh_is_idempotent() {
        let (mut engine, g, _h, _p, q, _s) = base_engine();
        engine
            .apply(&Edit::SetLocalEffects {
                proc_: q,
                mods: vec![g],
                uses: vec![],
            })
            .expect("valid edit");
        let gmods: Vec<BitSet> = engine.gmod_all().to_vec();
        engine.refresh();
        assert!(engine.stats().full_rebuild);
        assert_eq!(engine.gmod_all(), &gmods[..]);
    }

    #[test]
    fn analyzer_extension_carries_threads() {
        let (engine, ..) = base_engine();
        let program = engine.program().clone();
        let via_analyzer = Analyzer::new().threads(2).incremental(program);
        assert_matches_scratch(&via_analyzer);
    }

    #[test]
    fn reasserting_local_effects_cuts_off_everything() {
        let (mut engine, _g, h, _p, q, _s) = base_engine();
        // q already writes exactly {h}; re-asserting the same effects must
        // cut off at the seeds — zero components recomputed anywhere.
        let delta = engine
            .apply(&Edit::SetLocalEffects {
                proc_: q,
                mods: vec![h],
                uses: vec![],
            })
            .expect("valid edit");
        assert!(delta.changed_procs.is_empty());
        assert!(delta.changed_sites.is_empty());
        let s = engine.stats();
        assert!(!s.full_rebuild);
        assert_eq!(s.rmod_components_recomputed, 0);
        assert_eq!(s.gmod_components_recomputed, 0);
        assert_eq!(s.sites_recomputed, 0);
        assert!(s.sites_reused > 0);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn structural_patch_reuses_components() {
        let (mut engine, _g, h, p, _q, _s) = base_engine();
        // A new call with a *global* actual patches the call condensation
        // but adds no binding edge, so Figure 1 reuses every component.
        engine
            .apply(&Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: p,
                args: vec![Actual::Ref(modref_ir::Ref::scalar(h))],
            })
            .expect("valid edit");
        let s = engine.stats();
        assert!(!s.full_rebuild);
        assert_eq!(s.rmod_components_recomputed, 0);
        assert!(s.gmod_components_reused > 0);
        assert_matches_scratch(&engine);
    }
}
