//! The end-to-end analysis pipeline and its [`Summary`].
//!
//! Two entry points: [`Analyzer::analyze`] runs to completion (or
//! propagates a solver panic), while [`Analyzer::analyze_guarded`] runs
//! under a cooperative [`Guard`] and *always* returns — on a deadline,
//! budget trip, cancellation, or contained panic it degrades phase by
//! phase to documented conservative over-approximations that remain sound
//! (everything observable at run time stays inside the reported sets).
//! See `docs/ROBUSTNESS.md` for the degradation ladder and the soundness
//! argument.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use modref_binding::{solve_rmod_traced, BindingGraph, RmodSolutionIn};
use modref_bitset::{BitSet, EffectSet, HybridSet, OpCounter, SetRepr};
use modref_guard::{panic_message, Guard, Interrupt};
use modref_ir::{CallGraph, CallSiteId, LocalEffects, LocalEffectsIn, ProcId, Program};
use modref_par::ThreadPool;
use modref_trace::Trace;

use crate::alias::AliasPairs;
use crate::dmod::{compute_dmod_guarded, DmodSolutionIn};
use crate::gmod::{solve_gmod_one_level_guarded, GmodSolutionIn};
use crate::gmod_levels::solve_gmod_levels_traced;
use crate::gmod_nested::solve_gmod_multi_fused_guarded;
use crate::imod_plus::compute_imod_plus_guarded;
use crate::modsets::compute_mod_guarded;

/// Attaches the non-zero fields of an [`OpCounter`] as numeric span
/// attributes, so traced phases report their work in the paper's units.
fn span_ops(span: &mut modref_trace::Span<'_>, ops: &OpCounter) {
    for (key, value) in [
        ("bitvec_steps", ops.bitvec_steps),
        ("bool_steps", ops.bool_steps),
        ("meets", ops.meets),
        ("nodes_visited", ops.nodes_visited),
        ("edges_visited", ops.edges_visited),
        ("iterations", ops.iterations),
    ] {
        if value != 0 {
            span.arg(key, value);
        }
    }
}

/// The program's visible sets, converted into the working representation
/// (the pipeline's conservative fallback material).
fn visible_sets_in<S: EffectSet>(program: &Program) -> Vec<S> {
    program
        .visible_sets()
        .into_iter()
        .map(S::from_dense_owned)
        .collect()
}

/// Converts a whole solution vector to the dense default representation
/// (an identity move per element for the dense instantiation).
fn sets_to_dense<S: EffectSet>(sets: Vec<S>) -> Vec<BitSet> {
    sets.into_iter().map(S::into_dense).collect()
}

/// The `GMOD` algorithm a half runs, picked from the pool and the
/// program: level-scheduled propagation is the only one that uses the
/// pool within a half; sequentially, Figure 2 is exact for two-level
/// scoping and the fused multi-level algorithm otherwise.
#[derive(Debug, Clone, Copy)]
enum GmodAlgorithm {
    OneLevel,
    MultiLevelFused,
    LevelScheduled,
}

/// The pipeline phases, in execution order. [`Analyzer::analyze_guarded`]
/// reports which ones completed exactly and which fell back.
///
/// Each phase's name (see [`Phase::name`]) doubles as its fault-injection
/// checkpoint site for [`modref_guard::FaultPlan`], except that the two
/// halves of a Figure 1 / equation (5) / Figure 2 problem share one site
/// (`"rmod"`, `"imod_plus"`, `"gmod"`): the `USE` half runs the same
/// solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// §3.3 local `IMOD`/`IUSE` collection.
    Local,
    /// Figure 1 `RMOD`.
    Rmod,
    /// Figure 1 `RUSE`.
    Ruse,
    /// Equation (5) `IMOD⁺`.
    ImodPlus,
    /// Equation (5) `IUSE⁺`.
    IusePlus,
    /// Figure 2 (or multi-level) `GMOD`.
    Gmod,
    /// Figure 2 (or multi-level) `GUSE`.
    Guse,
    /// Equation (2) per-site projection, both halves.
    Dmod,
    /// Banning alias pairs.
    Aliases,
    /// §5 step (2) alias factoring, both halves.
    ModSets,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; 10] = [
        Phase::Local,
        Phase::Rmod,
        Phase::Ruse,
        Phase::ImodPlus,
        Phase::IusePlus,
        Phase::Gmod,
        Phase::Guse,
        Phase::Dmod,
        Phase::Aliases,
        Phase::ModSets,
    ];

    /// A stable lowercase name, also used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Local => "local",
            Phase::Rmod => "rmod",
            Phase::Ruse => "ruse",
            Phase::ImodPlus => "imod_plus",
            Phase::IusePlus => "iuse_plus",
            Phase::Gmod => "gmod",
            Phase::Guse => "guse",
            Phase::Dmod => "dmod",
            Phase::Aliases => "alias",
            Phase::ModSets => "modsets",
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A small set of [`Phase`]s; [`PhaseStats::cut`] uses it to report which
/// phases fell back to their conservative approximation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMask(u16);

impl PhaseMask {
    /// `true` if no phase is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` if `phase` is in the set.
    pub fn contains(self, phase: Phase) -> bool {
        self.0 & phase.bit() != 0
    }

    /// The members, in execution order.
    pub fn iter(self) -> impl Iterator<Item = Phase> {
        Phase::ALL.into_iter().filter(move |p| self.contains(*p))
    }

    fn insert(&mut self, phase: Phase) {
        self.0 |= phase.bit();
    }
}

/// Why a guarded run degraded.
#[derive(Debug, Clone)]
pub enum DegradeReason {
    /// The guard tripped: deadline, a budget, or cancellation.
    Interrupted(Interrupt),
    /// A phase panicked; the runtime contained it and fell back.
    Panic {
        /// The first phase whose solver panicked.
        phase: Phase,
        /// The rendered panic payload.
        message: String,
    },
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Interrupted(i) => write!(f, "{i}"),
            DegradeReason::Panic { phase, message } => {
                write!(f, "panic in the {phase} phase: {message}")
            }
        }
    }
}

/// The result of [`Analyzer::analyze_guarded`].
#[derive(Debug, Clone)]
pub enum AnalysisOutcome {
    /// Every phase ran to completion; the summary is exact — bit-identical
    /// to what [`Analyzer::analyze`] returns.
    Clean(Summary),
    /// At least one phase was cut short. The summary is still *sound*
    /// (every reported set contains the corresponding exact set) but
    /// over-approximate: cut phases fall back to the documented
    /// conservative ladder, and later phases consume the reported —
    /// possibly widened — inputs.
    Degraded {
        /// The sound over-approximate summary.
        summary: Summary,
        /// The primary cause. A tripped guard wins over contained panics
        /// (the trip is what cascaded); with no trip, the first panic.
        reason: DegradeReason,
        /// Phases that ran to completion on their real inputs, in
        /// execution order. Phases the configuration skips
        /// ([`Analyzer::without_use`], [`Analyzer::without_aliases`]) are
        /// not listed.
        completed_phases: Vec<Phase>,
    },
}

impl AnalysisOutcome {
    /// The summary, exact or degraded.
    pub fn summary(&self) -> &Summary {
        match self {
            AnalysisOutcome::Clean(s) | AnalysisOutcome::Degraded { summary: s, .. } => s,
        }
    }

    /// Consumes the outcome, keeping the summary.
    pub fn into_summary(self) -> Summary {
        match self {
            AnalysisOutcome::Clean(s) | AnalysisOutcome::Degraded { summary: s, .. } => s,
        }
    }

    /// `true` for [`AnalysisOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnalysisOutcome::Degraded { .. })
    }
}

/// One phase that did not complete exactly: either the guard interrupted
/// it (`panic: None`) or it panicked (`panic: Some(message)`).
struct Failure {
    phase: Phase,
    panic: Option<String>,
}

/// Runs one phase attempt under `catch_unwind`; on an interrupt or a
/// contained panic, records the failure and computes the fallback (timed
/// into `fallback_wall`). The fallback path never consults the guard, so
/// a degraded run always terminates with bounded linear work.
fn run_phase<T>(
    phase: Phase,
    failures: &mut Vec<Failure>,
    fallback_wall: &mut Duration,
    attempt: impl FnOnce() -> Result<T, Interrupt>,
    fallback: impl FnOnce() -> T,
) -> T {
    let fall = |failures: &mut Vec<Failure>, panic: Option<String>| {
        failures.push(Failure { phase, panic });
        let t = Instant::now();
        let value = fallback();
        *fallback_wall += t.elapsed();
        value
    };
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(Ok(value)) => value,
        Ok(Err(_interrupt)) => fall(failures, None),
        Err(payload) => fall(failures, Some(panic_message(payload.as_ref()))),
    }
}

/// Configures and runs the analysis.
///
/// The default configuration computes both the `MOD` and `USE` problems
/// and factors aliases in. See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    set_repr: SetRepr,
    skip_use: bool,
    skip_aliases: bool,
    parallel: bool,
    threads: Option<usize>,
    trace: Trace,
}

impl Analyzer {
    /// The default analyzer: automatic `GMOD` algorithm, `USE` and alias
    /// phases enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the internal set representation the solvers run on (see
    /// `docs/SETREPR.md`). The default, [`SetRepr::Dense`], is the paper's
    /// dense bit vectors; [`SetRepr::Hybrid`] runs every phase on the
    /// sparse-friendly [`HybridSet`]; [`SetRepr::Auto`] picks per program
    /// (hybrid only for universes past the density cutoff). The reported
    /// [`Summary`] is always dense and bit-identical across
    /// representations — only working memory and constant factors change.
    pub fn set_repr(&mut self, repr: SetRepr) -> &mut Self {
        self.set_repr = repr;
        self
    }

    /// The set representation configured through [`Analyzer::set_repr`]
    /// ([`SetRepr::Dense`] by default).
    pub fn configured_set_repr(&self) -> SetRepr {
        self.set_repr
    }

    /// Skips the `USE` problem (the `use_*` accessors then return empty
    /// sets).
    pub fn without_use(&mut self) -> &mut Self {
        self.skip_use = true;
        self
    }

    /// Skips alias analysis; `MOD(s)` then equals `DMOD(s)` (the paper's
    /// "absence of aliasing" bound applies).
    pub fn without_aliases(&mut self) -> &mut Self {
        self.skip_aliases = true;
        self
    }

    /// Runs the `MOD` and `USE` halves on separate threads. The two
    /// problems share only immutable inputs, so this is a free ~2x on
    /// large programs (no-op when `without_use` is set).
    pub fn parallel(&mut self) -> &mut Self {
        self.parallel = true;
        self
    }

    /// Sets the worker-thread count for the pooled phases (local scan,
    /// `RMOD` broadcast, level-scheduled `GMOD`, per-site projection).
    /// `0` means one thread per available core. An explicit setting
    /// overrides the `MODREF_THREADS` environment variable; without
    /// either, the pipeline runs on one thread. More than one thread also
    /// runs the `MOD` and `USE` halves concurrently, as
    /// [`Analyzer::parallel`] does. Results are bit-identical at any
    /// thread count.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = Some(threads);
        self
    }

    /// Records the run into `trace` (see [`modref_trace`]): one span per
    /// pipeline phase annotated with its operation counts, per-level
    /// `GMOD` spans, guard-charge and pool counters, and a `degraded`
    /// instant when a guarded run falls back. Tracing only observes —
    /// results are bit-identical with tracing on or off, at any thread
    /// count — and the default [`Trace::disabled`] handle makes every
    /// record a no-op. Export the data afterwards with
    /// [`Trace::export_chrome`] or [`Trace::export_summary`] on a clone of
    /// the handle passed here.
    pub fn with_trace(&mut self, trace: Trace) -> &mut Self {
        self.trace = trace;
        self
    }

    /// The thread count configured through [`Analyzer::threads`], if any.
    /// `None` means the `MODREF_THREADS` environment default applies.
    pub fn configured_threads(&self) -> Option<usize> {
        self.threads
    }

    /// The trace this analyzer records into ([`Trace::disabled`] unless
    /// [`Analyzer::with_trace`] was called).
    pub fn trace_handle(&self) -> &Trace {
        &self.trace
    }

    /// Runs the full pipeline on a validated program.
    ///
    /// Equivalent to [`Analyzer::analyze_guarded`] with an unlimited
    /// [`Guard`]: nothing can interrupt the run, and a solver panic —
    /// which the guarded runtime would contain — is re-raised.
    pub fn analyze(&self, program: &Program) -> Summary {
        match self.analyze_guarded(program, &Guard::unlimited()) {
            AnalysisOutcome::Clean(summary) => summary,
            AnalysisOutcome::Degraded { reason, .. } => {
                // An unlimited guard never trips, so the only possible
                // degradation is a contained panic; the ungated API keeps
                // its pre-guard contract and propagates it.
                panic!("analysis failed: {reason}")
            }
        }
    }

    /// Runs the full pipeline under a cooperative [`Guard`] and always
    /// returns.
    ///
    /// Every solver polls the guard at phase boundaries and on
    /// inner-loop strides, charging its work (in the paper's cost units)
    /// against the guard's [`Budget`](modref_guard::Budget). When a phase
    /// is interrupted — deadline, budget, cancellation — or panics (each
    /// phase runs under `catch_unwind`), that phase falls back to a
    /// conservative over-approximation and the pipeline continues;
    /// every later phase consumes the *reported* (possibly widened)
    /// inputs, so the final summary stays sound: each reported set
    /// contains the exact one. Once the guard has tripped, every
    /// remaining guarded phase fails fast at its entry checkpoint, so a
    /// tripped run finishes with bounded linear fallback work.
    pub fn analyze_guarded(&self, program: &Program, guard: &Guard) -> AnalysisOutcome {
        if self.set_repr.use_hybrid(program.num_vars(), None) {
            self.analyze_guarded_in::<HybridSet>(program, guard)
        } else {
            self.analyze_guarded_in::<BitSet>(program, guard)
        }
    }

    /// [`Analyzer::analyze_guarded`] monomorphised over one concrete set
    /// representation. Every solver phase, fallback, and intermediate
    /// vector uses `S`; the returned [`Summary`] converts to dense at the
    /// boundary (an identity move when `S` is [`BitSet`]).
    fn analyze_guarded_in<S: EffectSet>(
        &self,
        program: &Program,
        guard: &Guard,
    ) -> AnalysisOutcome {
        let started = Instant::now();
        let mut stats = PhaseStats::default();
        let pool = ThreadPool::with_threads(self.threads);
        let mut failures: Vec<Failure> = Vec::new();
        let mut run_span = self.trace.span("analyze");
        run_span.arg("threads", pool.threads() as u64);
        run_span.arg("procs", program.num_procs() as u64);
        run_span.arg("sites", program.num_sites() as u64);
        let pool_before = pool.stats();

        // Phase 0: local sets and shared structures. The graphs are
        // unguarded: they are single linear passes the fallbacks
        // themselves would need.
        let t = Instant::now();
        let local_span = self.trace.span("local");
        let locals: Vec<S> = program
            .local_sets()
            .into_iter()
            .map(S::from_dense_owned)
            .collect();
        let effects = run_phase(
            Phase::Local,
            &mut failures,
            &mut stats.wall.fallback,
            || {
                guard.checkpoint("local")?;
                Ok(LocalEffectsIn::<S>::compute_pooled(program, &locals, &pool))
            },
            || LocalEffectsIn::<S>::conservative(program),
        );
        drop(local_span);
        stats.wall.local += t.elapsed();
        let call_graph = CallGraph::build(program);
        let beta = BindingGraph::build(program);

        // Phases 1-3 for MOD, optionally for USE. Each half reads only
        // immutable inputs, so with `parallel()` (or a multi-thread pool)
        // the USE half runs on its own thread while the MOD half uses the
        // current one; pool jobs from the two halves serialise on the
        // pool's submit lock. The halves share `guard`, so one half's
        // budget trip also stops the other at its next poll.
        let run_half = |initial: &[S], is_mod: bool| {
            let mut half_stats = PhaseStats::default();
            let mut half_failures = Vec::new();
            let r = self.half_pipeline(
                program,
                &call_graph,
                &beta,
                initial,
                &locals,
                &pool,
                &mut half_stats,
                is_mod,
                guard,
                &mut half_failures,
            );
            (r, half_stats, half_failures)
        };
        let halves_concurrent = self.parallel || pool.threads() > 1;
        let (mod_half, use_half) = if self.skip_use {
            (run_half(effects.imod_all(), true), None)
        } else if halves_concurrent {
            std::thread::scope(|scope| {
                let use_thread = scope.spawn(|| run_half(effects.iuse_all(), false));
                let mod_result = run_half(effects.imod_all(), true);
                (
                    mod_result,
                    // Phase panics are contained *inside* the half; a
                    // panic escaping the half thread is a runtime bug.
                    Some(use_thread.join().expect("USE half must not panic")),
                )
            })
        } else {
            (
                run_half(effects.imod_all(), true),
                Some(run_half(effects.iuse_all(), false)),
            )
        };
        let ((gmod, imod_plus, rmod), mod_stats, mod_failures) = mod_half;
        stats.rmod += mod_stats.rmod;
        stats.gmod += mod_stats.gmod;
        stats.imod_plus += mod_stats.imod_plus;
        stats.wall.absorb(&mod_stats.wall);
        failures.extend(mod_failures);
        let (guse, iuse_plus, ruse) = match use_half {
            Some(((g, i, r), use_stats, use_failures)) => {
                stats.ruse += use_stats.ruse;
                stats.guse += use_stats.guse;
                stats.imod_plus += use_stats.imod_plus;
                stats.wall.absorb(&use_stats.wall);
                failures.extend(use_failures);
                (g, i, r)
            }
            None => {
                let empty = vec![S::empty(program.num_vars()); program.num_procs()];
                (empty.clone(), empty.clone(), empty)
            }
        };

        // Phase 4: per-site projection — of the *reported* GMOD/GUSE, so
        // an earlier fallback flows through soundly (projection is
        // monotone), and the fallback here projects the same inputs
        // without a guard.
        let t = Instant::now();
        let mut dmod_span = self.trace.span("dmod");
        let dmod = run_phase(
            Phase::Dmod,
            &mut failures,
            &mut stats.wall.fallback,
            || compute_dmod_guarded(program, &gmod, &pool, guard),
            || DmodSolutionIn::conservative(program, &gmod),
        );
        stats.dmod += dmod.stats();
        let duse = if self.skip_use {
            DmodSolutionIn::empty_impl(program)
        } else {
            let d = run_phase(
                Phase::Dmod,
                &mut failures,
                &mut stats.wall.fallback,
                || compute_dmod_guarded(program, &guse, &pool, guard),
                || DmodSolutionIn::conservative(program, &guse),
            );
            stats.dmod += d.stats();
            d
        };
        span_ops(&mut dmod_span, &stats.dmod);
        drop(dmod_span);
        stats.wall.dmod += t.elapsed();

        // Phase 5: aliases and factoring. An interrupted alias phase has
        // no cheap over-approximate relation (top is quadratic), so the
        // factoring below compensates by widening the final sets instead.
        let t = Instant::now();
        let aliases = if self.skip_aliases {
            AliasPairs::empty_impl(program)
        } else {
            let mut alias_span = self.trace.span("alias");
            let pairs = run_phase(
                Phase::Aliases,
                &mut failures,
                &mut stats.wall.fallback,
                || AliasPairs::compute_guarded(program, guard),
                || AliasPairs::empty_impl(program),
            );
            let total_pairs: usize = program.procs().map(|p| pairs.pair_count(p)).sum();
            alias_span.arg("pairs", total_pairs as u64);
            pairs
        };
        let aliases_cut = !self.skip_aliases && failures.iter().any(|f| f.phase == Phase::Aliases);
        stats.wall.aliases += t.elapsed();
        let t = Instant::now();
        let conservative_sites = |skip: bool| -> Vec<S> {
            if skip {
                vec![S::empty(program.num_vars()); program.num_sites()]
            } else {
                let visible = program.visible_sets();
                program
                    .sites()
                    .map(|s| S::from_dense(&visible[program.site(s).caller().index()]))
                    .collect()
            }
        };
        let mut modsets_span = self.trace.span("modsets");
        let mods = run_phase(
            Phase::ModSets,
            &mut failures,
            &mut stats.wall.fallback,
            || compute_mod_guarded(program, &dmod, &aliases, &pool, guard),
            || crate::modsets::ModSolutionIn::conservative(conservative_sites(false)),
        );
        stats.modsets += mods.stats();
        let uses = run_phase(
            Phase::ModSets,
            &mut failures,
            &mut stats.wall.fallback,
            || compute_mod_guarded(program, &duse, &aliases, &pool, guard),
            || crate::modsets::ModSolutionIn::conservative(conservative_sites(self.skip_use)),
        );
        stats.modsets += uses.stats();
        span_ops(&mut modsets_span, &stats.modsets);
        drop(modsets_span);
        stats.wall.modsets += t.elapsed();

        let mut mod_sites = mods.into_sets();
        let mut use_sites = uses.into_sets();
        if aliases_cut {
            // Factoring against an *empty* alias relation would
            // under-approximate; widen the final sets to the caller's
            // visible set, which contains any alias partner the exact
            // relation could contribute.
            mod_sites = conservative_sites(false);
            use_sites = conservative_sites(self.skip_use);
        }
        stats.wall.total = started.elapsed();

        // Run-level metrics: cumulative guard charge (the budget's view of
        // the work) and the pool's work-distribution deltas for this run.
        let (charged_bitvec, charged_bool) = guard.charged();
        self.trace.counter("guard_bitvec_charged", charged_bitvec);
        self.trace.counter("guard_bool_charged", charged_bool);
        let pool_after = pool.stats();
        self.trace
            .counter("pool_jobs", pool_after.jobs - pool_before.jobs);
        self.trace
            .counter("pool_chunks", pool_after.chunks - pool_before.chunks);
        self.trace.counter(
            "pool_cancelled_jobs",
            pool_after.cancelled_jobs - pool_before.cancelled_jobs,
        );
        drop(run_span);

        let mut cut = PhaseMask::default();
        for f in &failures {
            cut.insert(f.phase);
        }
        stats.cut = cut;

        let summary = Summary {
            effects: effects.into_dense(),
            rmod: sets_to_dense(rmod),
            ruse: sets_to_dense(ruse),
            imod_plus: sets_to_dense(imod_plus),
            iuse_plus: sets_to_dense(iuse_plus),
            gmod: sets_to_dense(gmod),
            guse: sets_to_dense(guse),
            dmod_sites: dmod.all().iter().map(|d| d.to_dense()).collect(),
            duse_sites: duse.all().iter().map(|d| d.to_dense()).collect(),
            mod_sites: sets_to_dense(mod_sites),
            use_sites: sets_to_dense(use_sites),
            aliases,
            beta_nodes: beta.num_nodes(),
            beta_edges: beta.num_edges(),
            stats,
        };

        if failures.is_empty() {
            return AnalysisOutcome::Clean(summary);
        }
        let reason = if let Some(interrupt) = guard.interrupt() {
            DegradeReason::Interrupted(interrupt)
        } else if let Some(f) = failures.iter().find(|f| f.panic.is_some()) {
            DegradeReason::Panic {
                phase: f.phase,
                message: f.panic.clone().expect("matched Some above"),
            }
        } else {
            // Unreachable in practice: an interrupt failure implies the
            // guard latched a cause. Report the drain sentinel.
            DegradeReason::Interrupted(Interrupt::Halted)
        };
        let reason_text = reason.to_string();
        let cut_names: Vec<&str> = cut.iter().map(Phase::name).collect();
        self.trace.instant_note(
            "degraded",
            &[
                ("reason", reason_text.as_str()),
                ("cut_phases", cut_names.join(",").as_str()),
            ],
        );
        let completed_phases = Phase::ALL
            .into_iter()
            .filter(|p| {
                !cut.contains(*p)
                    && !(self.skip_use && matches!(p, Phase::Ruse | Phase::IusePlus | Phase::Guse))
                    && !(self.skip_aliases && matches!(p, Phase::Aliases))
            })
            .collect();
        AnalysisOutcome::Degraded {
            summary,
            reason,
            completed_phases,
        }
    }

    /// RMOD → IMOD⁺ → GMOD for one side of the problem, each phase with
    /// its conservative fallback (all formals / visible sets).
    #[allow(clippy::too_many_arguments)]
    fn half_pipeline<S: EffectSet>(
        &self,
        program: &Program,
        call_graph: &CallGraph,
        beta: &BindingGraph,
        initial: &[S],
        locals: &[S],
        pool: &ThreadPool,
        stats: &mut PhaseStats,
        is_mod: bool,
        guard: &Guard,
        failures: &mut Vec<Failure>,
    ) -> (Vec<S>, Vec<S>, Vec<S>) {
        let (rmod_phase, plus_phase, gmod_phase) = if is_mod {
            (Phase::Rmod, Phase::ImodPlus, Phase::Gmod)
        } else {
            (Phase::Ruse, Phase::IusePlus, Phase::Guse)
        };
        let t = Instant::now();
        let mut rmod_span = self.trace.span(rmod_phase.name());
        let rmod = run_phase(
            rmod_phase,
            failures,
            &mut stats.wall.fallback,
            || solve_rmod_traced(program, initial, beta, pool, guard, &self.trace),
            || RmodSolutionIn::conservative(program),
        );
        span_ops(&mut rmod_span, &rmod.stats());
        drop(rmod_span);
        if is_mod {
            stats.rmod += rmod.stats();
            stats.wall.rmod += t.elapsed();
        } else {
            stats.ruse += rmod.stats();
            stats.wall.ruse += t.elapsed();
        }
        let t = Instant::now();
        let mut plus_span = self.trace.span(plus_phase.name());
        let (plus, plus_stats) = run_phase(
            plus_phase,
            failures,
            &mut stats.wall.fallback,
            || {
                guard.checkpoint("imod_plus")?;
                compute_imod_plus_guarded(program, initial, rmod.rmod_all(), guard)
            },
            || (visible_sets_in::<S>(program), OpCounter::new()),
        );
        span_ops(&mut plus_span, &plus_stats);
        drop(plus_span);
        stats.imod_plus += plus_stats;
        stats.wall.imod_plus += t.elapsed();

        let algorithm = if pool.threads() > 1 {
            GmodAlgorithm::LevelScheduled
        } else if program.max_level() <= 1 {
            GmodAlgorithm::OneLevel
        } else {
            GmodAlgorithm::MultiLevelFused
        };
        let t = Instant::now();
        let mut gmod_span = self.trace.span(gmod_phase.name());
        gmod_span.note(
            "algorithm",
            match algorithm {
                GmodAlgorithm::OneLevel => "one_level",
                GmodAlgorithm::MultiLevelFused => "multi_fused",
                GmodAlgorithm::LevelScheduled => "level_scheduled",
            },
        );
        let gmod: GmodSolutionIn<S> = run_phase(
            gmod_phase,
            failures,
            &mut stats.wall.fallback,
            || match algorithm {
                GmodAlgorithm::OneLevel => {
                    solve_gmod_one_level_guarded(program, call_graph.graph(), &plus, locals, guard)
                }
                GmodAlgorithm::MultiLevelFused => solve_gmod_multi_fused_guarded(
                    program,
                    call_graph.graph(),
                    &plus,
                    locals,
                    guard,
                ),
                GmodAlgorithm::LevelScheduled => solve_gmod_levels_traced(
                    program,
                    call_graph.graph(),
                    &plus,
                    locals,
                    pool,
                    guard,
                    &self.trace,
                ),
            },
            || GmodSolutionIn::new(visible_sets_in::<S>(program), OpCounter::new()),
        );
        span_ops(&mut gmod_span, &gmod.stats());
        drop(gmod_span);
        if is_mod {
            stats.gmod += gmod.stats();
            stats.wall.gmod += t.elapsed();
        } else {
            stats.guse += gmod.stats();
            stats.wall.guse += t.elapsed();
        }
        let (gmod_sets, _) = gmod.into_parts();
        let rmod_sets = rmod.rmod_all().to_vec();
        (gmod_sets, plus, rmod_sets)
    }
}

/// Work counters per pipeline phase, in the paper's cost units.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Figure 1 (`RMOD`), boolean steps.
    pub rmod: OpCounter,
    /// `RUSE` (the `USE` analogue of Figure 1).
    pub ruse: OpCounter,
    /// Equation (5).
    pub imod_plus: OpCounter,
    /// Figure 2 / multi-level `GMOD`, bit-vector steps.
    pub gmod: OpCounter,
    /// `GUSE`.
    pub guse: OpCounter,
    /// Equation (2) projection.
    pub dmod: OpCounter,
    /// §5 step (2) alias factoring.
    pub modsets: OpCounter,
    /// Phases that fell back to their conservative approximation; empty
    /// for an exact run.
    pub cut: PhaseMask,
    /// Wall-clock time per phase (measured, not modelled — unlike the
    /// counters these vary run to run).
    pub wall: PhaseWall,
}

impl PhaseStats {
    /// Sum over all phases.
    pub fn total(&self) -> OpCounter {
        let mut t = OpCounter::new();
        t += self.rmod;
        t += self.ruse;
        t += self.imod_plus;
        t += self.gmod;
        t += self.guse;
        t += self.dmod;
        t += self.modsets;
        t
    }
}

/// Wall-clock time spent in each pipeline phase.
///
/// When the `MOD` and `USE` halves run concurrently, the per-phase
/// durations of the two halves are summed — CPU-seconds of useful work —
/// so they can exceed [`PhaseWall::total`], which is elapsed time of the
/// whole [`Analyzer::analyze`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseWall {
    /// Phase 0: local `IMOD`/`IUSE` scan.
    pub local: Duration,
    /// Figure 1 (`RMOD`).
    pub rmod: Duration,
    /// `RUSE`.
    pub ruse: Duration,
    /// Equation (5).
    pub imod_plus: Duration,
    /// `GMOD`.
    pub gmod: Duration,
    /// `GUSE`.
    pub guse: Duration,
    /// Equation (2) projection, both halves.
    pub dmod: Duration,
    /// §5 alias-pair computation.
    pub aliases: Duration,
    /// §5 step (2) factoring, both halves.
    pub modsets: Duration,
    /// Time spent assembling conservative fallbacks on a degraded run
    /// (zero for an exact run).
    pub fallback: Duration,
    /// Elapsed time of the whole pipeline run.
    pub total: Duration,
}

impl PhaseWall {
    fn absorb(&mut self, other: &PhaseWall) {
        self.local += other.local;
        self.rmod += other.rmod;
        self.ruse += other.ruse;
        self.imod_plus += other.imod_plus;
        self.gmod += other.gmod;
        self.guse += other.guse;
        self.dmod += other.dmod;
        self.aliases += other.aliases;
        self.modsets += other.modsets;
        self.fallback += other.fallback;
        self.total += other.total;
    }
}

/// Everything the analysis computed.
#[derive(Debug, Clone)]
pub struct Summary {
    effects: LocalEffects,
    rmod: Vec<BitSet>,
    ruse: Vec<BitSet>,
    imod_plus: Vec<BitSet>,
    iuse_plus: Vec<BitSet>,
    gmod: Vec<BitSet>,
    guse: Vec<BitSet>,
    dmod_sites: Vec<BitSet>,
    duse_sites: Vec<BitSet>,
    mod_sites: Vec<BitSet>,
    use_sites: Vec<BitSet>,
    aliases: AliasPairs,
    beta_nodes: usize,
    beta_edges: usize,
    stats: PhaseStats,
}

impl Summary {
    /// The local (`IMOD`/`IUSE`) sets the pipeline started from.
    pub fn local_effects(&self) -> &LocalEffects {
        &self.effects
    }

    /// `RMOD(p)`: formals of `p` that an invocation may modify.
    pub fn rmod(&self, p: ProcId) -> &BitSet {
        &self.rmod[p.index()]
    }

    /// `RUSE(p)`: formals of `p` that an invocation may read.
    pub fn ruse(&self, p: ProcId) -> &BitSet {
        &self.ruse[p.index()]
    }

    /// `IMOD⁺(p)` (equation 5).
    pub fn imod_plus(&self, p: ProcId) -> &BitSet {
        &self.imod_plus[p.index()]
    }

    /// `IUSE⁺(p)`.
    pub fn iuse_plus(&self, p: ProcId) -> &BitSet {
        &self.iuse_plus[p.index()]
    }

    /// `GMOD(p)`: everything an invocation of `p` may modify.
    pub fn gmod(&self, p: ProcId) -> &BitSet {
        &self.gmod[p.index()]
    }

    /// `GUSE(p)`.
    pub fn guse(&self, p: ProcId) -> &BitSet {
        &self.guse[p.index()]
    }

    /// All `GMOD` sets, indexed by procedure.
    pub fn gmod_all(&self) -> &[BitSet] {
        &self.gmod
    }

    /// All `GUSE` sets, indexed by procedure.
    pub fn guse_all(&self) -> &[BitSet] {
        &self.guse
    }

    /// `DMOD` restricted to call site `s` (before aliases).
    pub fn dmod_site(&self, s: CallSiteId) -> &BitSet {
        &self.dmod_sites[s.index()]
    }

    /// All per-site `DMOD` sets.
    pub fn dmod_all(&self) -> &[BitSet] {
        &self.dmod_sites
    }

    /// `DUSE` restricted to call site `s`.
    pub fn duse_site(&self, s: CallSiteId) -> &BitSet {
        &self.duse_sites[s.index()]
    }

    /// `MOD(s)`: the final answer for call site `s`.
    pub fn mod_site(&self, s: CallSiteId) -> &BitSet {
        &self.mod_sites[s.index()]
    }

    /// `USE(s)`.
    pub fn use_site(&self, s: CallSiteId) -> &BitSet {
        &self.use_sites[s.index()]
    }

    /// All per-site `MOD` sets.
    pub fn mod_all(&self) -> &[BitSet] {
        &self.mod_sites
    }

    /// All per-site `USE` sets.
    pub fn use_all(&self) -> &[BitSet] {
        &self.use_sites
    }

    /// The alias pairs used for the final factoring step.
    pub fn aliases(&self) -> &AliasPairs {
        &self.aliases
    }

    /// `(N_β, E_β)` of the binding multi-graph that was built.
    pub fn beta_size(&self) -> (usize, usize) {
        (self.beta_nodes, self.beta_edges)
    }

    /// `true` if the two call sites may *interfere*: one may write what
    /// the other reads or writes. Non-interfering calls commute — a
    /// scheduler may reorder or overlap them.
    ///
    /// Two caveats for statement-level reordering: I/O effects are not
    /// variables and must be checked separately, and the *evaluation of
    /// by-value arguments* is a caller-local read (part of the call
    /// statement's `LUSE`, not of `USE(s)`) — add
    /// [`modref_ir::luse_of_stmt`] of the call statements when reordering
    /// whole statements.
    ///
    /// # Examples
    ///
    /// ```
    /// use modref_core::Analyzer;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let program = modref_frontend::parse_program("
    ///     var g, h;
    ///     proc wg() { g = 1; }
    ///     proc rh() { h = h + 0; }
    ///     proc rg() { g = g + 0; }
    ///     main { call wg(); call rh(); call rg(); }
    /// ")?;
    /// let summary = Analyzer::new().analyze(&program);
    /// let sites: Vec<_> = program.sites().collect();
    /// assert!(!summary.may_interfere(sites[0], sites[1])); // g vs h
    /// assert!(summary.may_interfere(sites[0], sites[2]));  // both touch g
    /// # Ok(())
    /// # }
    /// ```
    pub fn may_interfere(&self, a: CallSiteId, b: CallSiteId) -> bool {
        let (ma, ua) = (self.mod_site(a), self.use_site(a));
        let (mb, ub) = (self.mod_site(b), self.use_site(b));
        !ma.is_disjoint(mb) || !ma.is_disjoint(ub) || !mb.is_disjoint(ua)
    }

    /// Per-phase work counters.
    pub fn stats(&self) -> &PhaseStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::{Expr, ProgramBuilder};

    #[test]
    fn end_to_end_mod_and_use() {
        // proc swapish(x, y) { t = x; x = g; g = t; }  (reads x,g writes x,g)
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("swapish", &["x", "y"]);
        let t = b.local(p, "t");
        let x = b.formal(p, 0);
        b.assign(p, t, Expr::load(x));
        b.assign(p, x, Expr::load(g));
        b.assign(p, g, Expr::load(t));
        let main = b.main();
        let h = b.global("h");
        let k = b.global("k");
        let s = b.call(main, p, &[h, k]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);

        assert!(summary.mod_site(s).contains(h.index())); // via x
        assert!(summary.mod_site(s).contains(g.index()));
        assert!(!summary.mod_site(s).contains(k.index())); // y untouched
        assert!(summary.use_site(s).contains(h.index())); // x read
        assert!(summary.use_site(s).contains(g.index()));
        assert!(!summary.use_site(s).contains(k.index()));
        // t never escapes.
        assert!(!summary.mod_site(s).contains(t.index()));
        assert_eq!(summary.beta_size(), (0, 0));
    }

    #[test]
    fn without_use_leaves_use_sets_empty() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        b.print(p, Expr::load(g));
        let main = b.main();
        let s = b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().without_use().analyze(&program);
        assert!(summary.use_site(s).is_empty());
        let full = Analyzer::new().analyze(&program);
        assert!(full.use_site(s).contains(g.index()));
    }

    #[test]
    fn algorithms_agree_on_nested_program() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let inner = b.nested_proc(p, "inner", &[]);
        b.assign(inner, t, Expr::load(g));
        b.assign(inner, g, Expr::constant(1));
        b.call(p, inner, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");

        // One thread on a nested program runs the fused algorithm.
        let fused = Analyzer::new().threads(1).analyze(&program);
        let cg = CallGraph::build(&program);
        let locals = program.local_sets();
        let plus = |side: fn(&Summary, ProcId) -> &BitSet| -> Vec<BitSet> {
            program.procs().map(|p| side(&fused, p).clone()).collect()
        };
        let naive_mod = crate::gmod_nested::solve_gmod_multi_naive(
            &program,
            cg.graph(),
            &plus(Summary::imod_plus),
            &locals,
        );
        let naive_use = crate::gmod_nested::solve_gmod_multi_naive(
            &program,
            cg.graph(),
            &plus(Summary::iuse_plus),
            &locals,
        );
        for proc_ in program.procs() {
            assert_eq!(naive_mod.gmod(proc_), fused.gmod(proc_));
            assert_eq!(naive_use.gmod(proc_), fused.guse(proc_));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let program = modref_progen_stub();
        let seq = Analyzer::new().analyze(&program);
        let par = Analyzer::new().parallel().analyze(&program);
        for p in program.procs() {
            assert_eq!(seq.gmod(p), par.gmod(p));
            assert_eq!(seq.guse(p), par.guse(p));
        }
        for s in program.sites() {
            assert_eq!(seq.mod_site(s), par.mod_site(s));
            assert_eq!(seq.use_site(s), par.use_site(s));
        }
    }

    #[test]
    fn thread_counts_agree_end_to_end() {
        let program = modref_progen_stub();
        let one = Analyzer::new().threads(1).analyze(&program);
        for threads in [2, 4] {
            let many = Analyzer::new().threads(threads).analyze(&program);
            for p in program.procs() {
                assert_eq!(one.gmod(p), many.gmod(p), "{threads} threads");
                assert_eq!(one.guse(p), many.guse(p), "{threads} threads");
                assert_eq!(one.rmod(p), many.rmod(p), "{threads} threads");
            }
            for s in program.sites() {
                assert_eq!(one.mod_site(s), many.mod_site(s));
                assert_eq!(one.use_site(s), many.use_site(s));
            }
        }
    }

    #[test]
    fn wall_times_are_recorded() {
        let program = modref_progen_stub();
        let summary = Analyzer::new().analyze(&program);
        let wall = summary.stats().wall;
        assert!(wall.total > std::time::Duration::ZERO);
        assert!(wall.total >= wall.aliases);
    }

    /// A small deterministic program exercising both halves.
    fn modref_progen_stub() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::load(g));
        b.assign(p, h, Expr::constant(1));
        let q = b.proc_("q", &[]);
        b.call(q, p, &[h]);
        let main = b.main();
        b.call(main, q, &[]);
        b.call(main, p, &[g]);
        b.finish().expect("valid")
    }

    #[test]
    fn stats_are_populated() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);
        assert!(summary.stats().total().total() > 0);
        assert!(summary.stats().gmod.bitvec_steps > 0);
    }
}
