//! The per-session query engine: one front door over the *exhaustive*
//! incremental cache and the *demand-driven* memo, so a consumer (the
//! CLI's `--query`, a `modref serve` session) can answer point queries
//! without solving the world.
//!
//! A [`QueryEngine`] starts in one of two modes:
//!
//! * **Full** — wraps a warm [`IncrementalEngine`]. Every summary is
//!   already solved; point queries are O(1) reads of its cached rows.
//! * **Lazy** — holds just the program plus a
//!   [`DemandMemo`](modref_core::DemandMemo). Nothing is solved up
//!   front; `MOD(site)` / `GMOD(p)` queries walk only the β/call-graph
//!   slice the query reaches (see `modref_core::demand`), memoizing
//!   partial fixpoints as they go. An `all` query *promotes* the session
//!   to Full (one exhaustive solve, cached thereafter).
//!
//! The memo-sharing/invalidation contract: in Full mode the exhaustive
//! cache *is* the memo — queries read it directly. In Lazy mode an edit
//! goes through the same [`Edit`] vocabulary (pure IR apply, no
//! analysis). A structural or universe-changing edit discards the demand
//! memo, exactly as an apply invalidates the incremental cache. A
//! body-only edit (`set-local`) keeps what no body can change — the
//! graphs, β, `LOCAL`, the §5 alias relation, the local effects of the
//! untouched procedures — and drops every fixpoint value
//! ([`DemandMemoIn::after_body_edit`]). Either way a query after an edit
//! can never observe stale sets.
//!
//! Degradation mirrors the incremental engine's ladder: a lazy query cut
//! short by the guard (budget, deadline, cancellation, injected fault)
//! or a contained panic answers with the conservative visible-set
//! widening — a superset of the exact answer — and reports why; the memo
//! keeps only finalised values across an interrupt, and is dropped on a
//! contained panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use modref_bitset::{BitSet, EffectSet, HybridSet, OpCounter, SetRepr};
use modref_core::demand::{
    conservative_proc_answer, conservative_site_answer, query_proc_guarded, query_site_guarded,
    DemandMemoIn, ProcAnswer, SiteAnswer,
};
use modref_core::Trace;
use modref_core::{Analyzer, Guard};
use modref_guard::panic_message;
use modref_ir::{CallSiteId, Edit, EditError, ProcId, Program};

use crate::engine::{
    replay_lines, IncrDelta, IncrOutcome, IncrementalEngineIn, IncrementalExt, ReplayError,
};
use crate::render::SiteSets;

/// One answered query: the sets, why they were widened (if they were),
/// and the work charged in the paper's cost units.
#[derive(Debug)]
pub struct QueryOutcome<T> {
    /// The answer — exact unless `degraded` is set, in which case it is
    /// the sound conservative widening.
    pub answer: T,
    /// `Some(reason)` when the query was cut short and the answer is the
    /// visible-set fallback.
    pub degraded: Option<String>,
    /// Operations charged by this query (zero for Full-mode cache reads).
    pub ops: OpCounter,
}

enum State<S: EffectSet> {
    Lazy {
        program: Program,
        memo: DemandMemoIn<S>,
        threads: Option<usize>,
        trace: Trace,
    },
    Full(IncrementalEngineIn<S>),
    /// Transient placeholder while promoting; never observable.
    Poisoned,
}

/// See the module docs. Constructed per session (serve) or per run (CLI).
pub struct QueryEngineIn<S: EffectSet> {
    state: State<S>,
}

/// [`QueryEngineIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type QueryEngine = QueryEngineIn<BitSet>;

impl<S: EffectSet> QueryEngineIn<S> {
    /// A lazy engine: no up-front analysis, demand-driven queries.
    pub fn new_lazy(program: Program) -> Self {
        Self::new_lazy_with(program, None, Trace::disabled())
    }

    /// [`QueryEngine::new_lazy`] with the thread count and trace handle a
    /// promotion to Full will use.
    pub fn new_lazy_with(program: Program, threads: Option<usize>, trace: Trace) -> Self {
        let memo = DemandMemoIn::new(&program);
        QueryEngineIn {
            state: State::Lazy {
                program,
                memo,
                threads,
                trace,
            },
        }
    }

    /// A full engine wrapping an already-built incremental cache.
    pub fn new_full(engine: IncrementalEngineIn<S>) -> Self {
        QueryEngineIn {
            state: State::Full(engine),
        }
    }

    /// `true` while no exhaustive solve has run (demand-driven mode).
    pub fn is_lazy(&self) -> bool {
        matches!(self.state, State::Lazy { .. })
    }

    /// The current (post-edit) program.
    pub fn program(&self) -> &Program {
        match &self.state {
            State::Lazy { program, .. } => program,
            State::Full(engine) => engine.program(),
            State::Poisoned => unreachable!("promotion never escapes"),
        }
    }

    /// `true` while the engine holds degraded (widened) *state* — only
    /// possible in Full mode after a cut-short apply. Lazy degradation is
    /// per-query (see [`QueryOutcome::degraded`]), never sticky.
    pub fn holds_degraded(&self) -> bool {
        match &self.state {
            State::Lazy { .. } => false,
            State::Full(engine) => engine.stats().degraded,
            State::Poisoned => unreachable!("promotion never escapes"),
        }
    }

    /// The wrapped incremental engine, if this session has been promoted
    /// (or was opened Full).
    pub fn engine(&self) -> Option<&IncrementalEngineIn<S>> {
        match &self.state {
            State::Full(engine) => Some(engine),
            _ => None,
        }
    }

    /// Applies one edit. Full mode delegates to
    /// [`IncrementalEngine::apply_guarded`] (incremental recompute under
    /// the guard); Lazy mode is a pure IR apply — no analysis runs — plus
    /// the lazy cache's invalidation: an edit that changes the call or
    /// binding structure or the variable universe discards the demand
    /// memo, and a body-only edit re-targets it with
    /// [`DemandMemoIn::after_body_edit`], keeping the graphs, the alias
    /// relation and the untouched local effects. A lazy apply is always
    /// [`IncrOutcome::Clean`] with an empty delta (nothing is solved, so
    /// nothing observable changed yet).
    ///
    /// # Errors
    ///
    /// Returns the [`EditError`] if the edit is rejected; program and
    /// memo are untouched.
    pub fn apply_guarded(&mut self, edit: &Edit, guard: &Guard) -> Result<IncrOutcome, EditError> {
        match &mut self.state {
            State::Lazy { program, memo, .. } => {
                let (next, delta) = program.apply_edit(edit)?;
                *program = next;
                if delta.structure_changed || delta.universe_changed {
                    *memo = DemandMemoIn::new(program);
                } else {
                    memo.after_body_edit(program, &delta.touched_procs);
                }
                Ok(IncrOutcome::Clean(IncrDelta::default()))
            }
            State::Full(engine) => engine.apply_guarded(edit, guard),
            State::Poisoned => unreachable!("promotion never escapes"),
        }
    }

    /// Replays a recorded edit history (the `--edits` grammar), exactly
    /// as [`IncrementalEngine::replay_history`] — but a lazy session
    /// replays at IR speed, with no analysis at all. Returns the number
    /// of edits applied.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] naming the first entry that fails to
    /// parse, resolve, or apply; state produced by earlier entries is
    /// kept.
    pub fn replay_history<'a, I>(&mut self, history: I) -> Result<u64, ReplayError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        replay_lines(self, history, Self::program, |engine, edit| {
            engine.apply_guarded(edit, &Guard::unlimited())
        })
    }

    /// `MOD(s)`/`USE(s)`/`DMOD(s)`/`DUSE(s)` for one call site. Lazy mode
    /// demands exactly the slice the site depends on; Full mode reads the
    /// cache. Never fails: a cut-short lazy query degrades to the
    /// conservative answer with the reason recorded.
    pub fn site_answer(&mut self, s: CallSiteId, guard: &Guard) -> QueryOutcome<SiteAnswer> {
        match &mut self.state {
            State::Full(engine) => QueryOutcome {
                answer: SiteAnswer {
                    mods: engine.mod_site(s).to_dense(),
                    uses: engine.use_site(s).to_dense(),
                    dmod: engine.dmod_site(s).to_dense(),
                    duse: engine.duse_site(s).to_dense(),
                },
                degraded: engine
                    .stats()
                    .degraded
                    .then(|| "session holds degraded (sound, widened) results".to_owned()),
                ops: OpCounter::new(),
            },
            State::Lazy {
                program,
                memo,
                trace,
                ..
            } => {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    query_site_guarded(program, memo, s, guard, trace)
                }));
                match attempt {
                    Ok(Ok((answer, ops))) => QueryOutcome {
                        answer,
                        degraded: None,
                        ops,
                    },
                    Ok(Err(interrupt)) => QueryOutcome {
                        answer: conservative_site_answer(program, s),
                        degraded: Some(interrupt.to_string()),
                        ops: OpCounter::new(),
                    },
                    Err(payload) => {
                        // Containment mirrors the incremental engine: the
                        // memo is dropped (a panicking solver may have
                        // been interrupted anywhere) and the answer is
                        // the sound widening.
                        *memo = DemandMemoIn::new(program);
                        QueryOutcome {
                            answer: conservative_site_answer(program, s),
                            degraded: Some(format!(
                                "panic during demand query: {}",
                                panic_message(payload.as_ref())
                            )),
                            ops: OpCounter::new(),
                        }
                    }
                }
            }
            State::Poisoned => unreachable!("promotion never escapes"),
        }
    }

    /// `GMOD(p)`/`GUSE(p)` for one procedure, with the same mode split
    /// and degradation contract as [`QueryEngine::site_answer`].
    pub fn proc_answer(&mut self, p: ProcId, guard: &Guard) -> QueryOutcome<ProcAnswer> {
        match &mut self.state {
            State::Full(engine) => QueryOutcome {
                answer: ProcAnswer {
                    gmod: engine.gmod(p).to_dense(),
                    guse: engine.guse(p).to_dense(),
                },
                degraded: engine
                    .stats()
                    .degraded
                    .then(|| "session holds degraded (sound, widened) results".to_owned()),
                ops: OpCounter::new(),
            },
            State::Lazy {
                program,
                memo,
                trace,
                ..
            } => {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    query_proc_guarded(program, memo, p, guard, trace)
                }));
                match attempt {
                    Ok(Ok((answer, ops))) => QueryOutcome {
                        answer,
                        degraded: None,
                        ops,
                    },
                    Ok(Err(interrupt)) => QueryOutcome {
                        answer: conservative_proc_answer(program, p),
                        degraded: Some(interrupt.to_string()),
                        ops: OpCounter::new(),
                    },
                    Err(payload) => {
                        *memo = DemandMemoIn::new(program);
                        QueryOutcome {
                            answer: conservative_proc_answer(program, p),
                            degraded: Some(format!(
                                "panic during demand query: {}",
                                panic_message(payload.as_ref())
                            )),
                            ops: OpCounter::new(),
                        }
                    }
                }
            }
            State::Poisoned => unreachable!("promotion never escapes"),
        }
    }

    /// Every site's sets — the `query all` target. A lazy session is
    /// first *promoted*: one exhaustive incremental build replaces the
    /// demand memo, and the session stays Full (subsequent point queries
    /// are cache reads, subsequent edits recompute incrementally).
    pub fn all_sets(&mut self) -> SiteSets {
        self.promote();
        match &self.state {
            State::Full(engine) => SiteSets::from_engine(engine),
            _ => unreachable!("promote() always lands in Full"),
        }
    }

    /// Promotes a lazy session to Full by running the exhaustive
    /// analysis with the configured threads and trace. No-op when
    /// already Full.
    pub fn promote(&mut self) {
        if let State::Full(_) = self.state {
            return;
        }
        let state = std::mem::replace(&mut self.state, State::Poisoned);
        let State::Lazy {
            program,
            threads,
            trace,
            ..
        } = state
        else {
            unreachable!("promotion never escapes");
        };
        let mut analyzer = Analyzer::new();
        analyzer.with_trace(trace);
        if let Some(t) = threads {
            analyzer.threads(t);
        }
        self.state = State::Full(analyzer.incremental_in::<S>(program));
    }
}

/// A [`QueryEngineIn`] over whichever set representation a [`SetRepr`]
/// knob picked at construction time — the dispatch point `modref serve`
/// sessions and the CLI's `--query` path use so one `--set-repr` flag
/// covers the demand memo, the incremental caches, and every per-node
/// row behind them. Answers are always dense ([`SiteAnswer`] /
/// [`ProcAnswer`]), so consumers are representation-blind.
pub enum AnyQueryEngine {
    /// The paper's dense bit vectors (the default).
    Dense(QueryEngineIn<BitSet>),
    /// The hybrid small/spilled representation.
    Hybrid(QueryEngineIn<HybridSet>),
}

impl AnyQueryEngine {
    /// A lazy engine over the representation `repr` selects for this
    /// program's universe (no size hint: a demand session cannot know
    /// its answer sizes up front).
    pub fn new_lazy_with(
        program: Program,
        threads: Option<usize>,
        trace: Trace,
        repr: SetRepr,
    ) -> Self {
        if repr.use_hybrid(program.num_vars(), None) {
            AnyQueryEngine::Hybrid(QueryEngineIn::new_lazy_with(program, threads, trace))
        } else {
            AnyQueryEngine::Dense(QueryEngineIn::new_lazy_with(program, threads, trace))
        }
    }

    /// A full engine: runs the exhaustive initial analysis with
    /// `analyzer`'s threads and trace, over the representation `repr`
    /// selects.
    pub fn new_full_with(analyzer: &Analyzer, program: Program, repr: SetRepr) -> Self {
        if repr.use_hybrid(program.num_vars(), None) {
            AnyQueryEngine::Hybrid(QueryEngineIn::new_full(
                analyzer.incremental_in::<HybridSet>(program),
            ))
        } else {
            AnyQueryEngine::Dense(QueryEngineIn::new_full(
                analyzer.incremental_in::<BitSet>(program),
            ))
        }
    }

    /// Wraps an already-built dense engine (journal recovery rebuilds
    /// dense so its bit-identity check runs against the dense goldens).
    pub fn from_dense_full(engine: IncrementalEngineIn<BitSet>) -> Self {
        AnyQueryEngine::Dense(QueryEngineIn::new_full(engine))
    }

    /// `"dense"` or `"hybrid"` — which representation this engine runs.
    pub fn repr_name(&self) -> &'static str {
        match self {
            AnyQueryEngine::Dense(_) => BitSet::REPR_NAME,
            AnyQueryEngine::Hybrid(_) => HybridSet::REPR_NAME,
        }
    }

    /// See [`QueryEngineIn::program`].
    pub fn program(&self) -> &Program {
        match self {
            AnyQueryEngine::Dense(e) => e.program(),
            AnyQueryEngine::Hybrid(e) => e.program(),
        }
    }

    /// See [`QueryEngineIn::is_lazy`].
    pub fn is_lazy(&self) -> bool {
        match self {
            AnyQueryEngine::Dense(e) => e.is_lazy(),
            AnyQueryEngine::Hybrid(e) => e.is_lazy(),
        }
    }

    /// See [`QueryEngineIn::holds_degraded`].
    pub fn holds_degraded(&self) -> bool {
        match self {
            AnyQueryEngine::Dense(e) => e.holds_degraded(),
            AnyQueryEngine::Hybrid(e) => e.holds_degraded(),
        }
    }

    /// See [`QueryEngineIn::apply_guarded`].
    ///
    /// # Errors
    ///
    /// Returns the [`EditError`] if the edit is rejected.
    pub fn apply_guarded(&mut self, edit: &Edit, guard: &Guard) -> Result<IncrOutcome, EditError> {
        match self {
            AnyQueryEngine::Dense(e) => e.apply_guarded(edit, guard),
            AnyQueryEngine::Hybrid(e) => e.apply_guarded(edit, guard),
        }
    }

    /// See [`QueryEngineIn::replay_history`].
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] naming the first failing entry.
    pub fn replay_history<'a, I>(&mut self, history: I) -> Result<u64, ReplayError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        match self {
            AnyQueryEngine::Dense(e) => e.replay_history(history),
            AnyQueryEngine::Hybrid(e) => e.replay_history(history),
        }
    }

    /// See [`QueryEngineIn::site_answer`].
    pub fn site_answer(&mut self, s: CallSiteId, guard: &Guard) -> QueryOutcome<SiteAnswer> {
        match self {
            AnyQueryEngine::Dense(e) => e.site_answer(s, guard),
            AnyQueryEngine::Hybrid(e) => e.site_answer(s, guard),
        }
    }

    /// See [`QueryEngineIn::proc_answer`].
    pub fn proc_answer(&mut self, p: ProcId, guard: &Guard) -> QueryOutcome<ProcAnswer> {
        match self {
            AnyQueryEngine::Dense(e) => e.proc_answer(p, guard),
            AnyQueryEngine::Hybrid(e) => e.proc_answer(p, guard),
        }
    }

    /// See [`QueryEngineIn::all_sets`].
    pub fn all_sets(&mut self) -> SiteSets {
        match self {
            AnyQueryEngine::Dense(e) => e.all_sets(),
            AnyQueryEngine::Hybrid(e) => e.all_sets(),
        }
    }

    /// See [`QueryEngineIn::promote`].
    pub fn promote(&mut self) {
        match self {
            AnyQueryEngine::Dense(e) => e.promote(),
            AnyQueryEngine::Hybrid(e) => e.promote(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IncrementalEngine;
    use modref_ir::{Expr, ProgramBuilder};

    fn sample() -> (Program, CallSiteId, ProcId) {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        let main = b.main();
        let s = b.call(main, p, &[g]);
        (b.finish().expect("valid"), s, p)
    }

    #[test]
    fn lazy_and_full_agree_on_point_queries() {
        let (program, s, p) = sample();
        let guard = Guard::unlimited();
        let mut lazy = QueryEngine::new_lazy(program.clone());
        let mut full = QueryEngine::new_full(IncrementalEngine::new(program));
        let (ls, fs) = (lazy.site_answer(s, &guard), full.site_answer(s, &guard));
        assert_eq!(ls.answer, fs.answer);
        assert!(ls.degraded.is_none() && fs.degraded.is_none());
        let (lp, fp) = (lazy.proc_answer(p, &guard), full.proc_answer(p, &guard));
        assert_eq!(lp.answer, fp.answer);
    }

    #[test]
    fn lazy_edit_invalidates_and_requeries_exactly() {
        let (program, s, _p) = sample();
        let guard = Guard::unlimited();
        let h = program
            .vars()
            .find(|&v| program.var_name(v) == "g")
            .expect("g exists");
        let target = program
            .procs()
            .find(|&p| program.proc_name(p) == "p")
            .expect("p exists");
        let edit = Edit::SetLocalEffects {
            proc_: target,
            mods: vec![],
            uses: vec![h],
        };
        let mut lazy = QueryEngine::new_lazy(program.clone());
        let _ = lazy.site_answer(s, &guard); // warm the memo
        lazy.apply_guarded(&edit, &guard).expect("edit applies");
        let mut full = QueryEngine::new_full(IncrementalEngine::new(program));
        full.apply_guarded(&edit, &guard).expect("edit applies");
        assert_eq!(
            lazy.site_answer(s, &guard).answer,
            full.site_answer(s, &guard).answer
        );
    }

    #[test]
    fn all_query_promotes_and_matches_full() {
        let (program, s, _p) = sample();
        let guard = Guard::unlimited();
        let mut lazy = QueryEngine::new_lazy(program.clone());
        assert!(lazy.is_lazy());
        let promoted = lazy.all_sets();
        assert!(!lazy.is_lazy());
        let full = SiteSets::from_engine(&IncrementalEngine::new(program));
        assert_eq!(promoted.mods, full.mods);
        assert_eq!(promoted.uses, full.uses);
        assert_eq!(promoted.dmods, full.dmods);
        // Still answers point queries (now from the cache).
        assert!(lazy.site_answer(s, &guard).degraded.is_none());
    }

    #[test]
    fn interrupted_lazy_query_degrades_soundly() {
        let (program, s, _p) = sample();
        let mut lazy = QueryEngine::new_lazy(program.clone());
        let tight = Guard::new(&modref_core::Budget::unlimited().with_bitvec_steps(0));
        let out = lazy.site_answer(s, &tight);
        assert!(out.degraded.is_some());
        let guard = Guard::unlimited();
        let exact = QueryEngine::new_full(IncrementalEngine::new(program))
            .site_answer(s, &guard)
            .answer;
        assert!(exact.mods.is_subset(&out.answer.mods));
        assert!(exact.uses.is_subset(&out.answer.uses));
        // And the same engine answers exactly once the pressure is gone.
        assert_eq!(lazy.site_answer(s, &guard).answer, exact);
    }
}
