//! Command implementations for the `modref` CLI.

use std::error::Error;
use std::fs;
use std::io::{BufWriter, Write};
use std::time::Duration;

use modref_binding::BindingGraph;
use modref_bitset::BitSet;
use modref_core::trace::{parse_json, Json};
use modref_core::{AnalysisOutcome, Analyzer, Budget, FaultPlan, Guard, SetRepr, Trace};
use modref_incr::render::{
    render_json, render_json_proc, render_json_site_answer, render_text, set_names, SiteSets,
};
use modref_incr::{AnyQueryEngine, IncrOutcome, IncrementalExt, Script};
use modref_ir::{CallGraph, CallSiteId, Program, VarId};
use modref_sections::analyze_sections;

use crate::options::{Command, DotWhat, QuerySpec};

/// How a command finished: exact results, or sound-but-widened ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every phase ran to completion; the output is exact.
    Clean,
    /// The analysis tripped a budget, deadline, or injected fault and
    /// fell back to conservative sets. Mapped to exit code 3.
    Degraded,
}

/// Executes a parsed command.
pub fn run(cmd: &Command) -> Result<RunStatus, Box<dyn Error>> {
    match cmd {
        Command::Analyze {
            file,
            no_use,
            no_alias,
            parallel,
            json,
            threads,
            timeout_ms,
            budget_ops,
            trace,
            metrics,
            edits,
            query,
            set_repr,
        } => to_stdout(|out| {
            analyze(
                out,
                file,
                *no_use,
                *no_alias,
                *parallel,
                *json,
                *threads,
                *timeout_ms,
                *budget_ops,
                trace.as_deref(),
                *metrics,
                edits.as_deref(),
                query.as_ref(),
                *set_repr,
            )
        }),
        Command::Summary { file } => to_stdout(|out| summary(out, file)).map(|()| RunStatus::Clean),
        Command::Sections { file } => {
            to_stdout(|out| sections(out, file)).map(|()| RunStatus::Clean)
        }
        Command::Parallel { file } => {
            to_stdout(|out| parallel(out, file)).map(|()| RunStatus::Clean)
        }
        Command::Dot { file, what } => {
            to_stdout(|out| dot(out, file, *what)).map(|()| RunStatus::Clean)
        }
        Command::Check { file } => to_stdout(|out| check(out, file)).map(|()| RunStatus::Clean),
        Command::TraceCheck { file } => {
            to_stdout(|out| trace_check(out, file)).map(|()| RunStatus::Clean)
        }
        Command::Run { file, seed, fuel } => {
            to_stdout(|out| run_program(out, file, *seed, *fuel)).map(|()| RunStatus::Clean)
        }
        Command::Serve {
            addr,
            max_sessions,
            request_budget_ops,
            request_timeout_ms,
            threads,
            state_dir,
            no_evict,
            fsync,
            max_conns,
            set_repr,
        } => serve(
            addr,
            *max_sessions,
            *request_budget_ops,
            *request_timeout_ms,
            *threads,
            state_dir.as_deref(),
            *no_evict,
            fsync,
            *max_conns,
            *set_repr,
        )
        .map(|()| RunStatus::Clean),
        Command::Client {
            addr,
            script,
            retries,
            retry_base_ms,
        } => client(addr, script, *retries, *retry_base_ms),
    }
}

/// Runs `report` against one locked, buffered stdout and flushes it, so a
/// report is written in a few large writes and any write error — a
/// reader that closed the pipe early, say — comes back as an error
/// instead of a panic inside `print!`. Output written before an error is
/// still flushed.
fn to_stdout<T>(
    report: impl FnOnce(&mut dyn Write) -> Result<T, Box<dyn Error>>,
) -> Result<T, Box<dyn Error>> {
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let result = report(&mut out);
    let flushed = out.flush();
    let value = result?;
    flushed?;
    Ok(value)
}

/// Parses a `--addr` value with a pinned message (OS bind errors vary;
/// this one is ours).
fn parse_addr(addr: &str) -> Result<std::net::SocketAddr, String> {
    addr.parse()
        .map_err(|_| format!("invalid --addr `{addr}` (expected host:port, e.g. 127.0.0.1:7788)"))
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it and
/// drains.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs the graceful-drain handler for SIGTERM and SIGINT via the
/// raw libc `signal` (no dependency; only async-signal-safe work — one
/// atomic store — happens in the handler).
fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

/// Runs the analysis daemon until SIGTERM/SIGINT, then drains: stop
/// accepting, finish in-flight requests, fsync and close every journal,
/// exit 0. `MODREF_FAULT` arms request guards exactly like it arms
/// `analyze`.
#[allow(clippy::too_many_arguments)]
fn serve(
    addr: &str,
    max_sessions: usize,
    request_budget_ops: Option<u64>,
    request_timeout_ms: Option<u64>,
    threads: Option<usize>,
    state_dir: Option<&str>,
    no_evict: bool,
    fsync: &str,
    max_conns: usize,
    set_repr: SetRepr,
) -> Result<(), Box<dyn Error>> {
    let addr = parse_addr(addr)?;
    let cfg = modref_serve::ServerConfig {
        max_sessions,
        request_budget_ops,
        request_timeout_ms,
        threads,
        state_dir: state_dir.map(std::path::PathBuf::from),
        evict: !no_evict,
        fsync: modref_serve::FsyncPolicy::parse(fsync)?,
        max_conns,
        retry_after_ms: 50,
        faults: FaultPlan::from_env(),
        fault_session: None,
        trace: Trace::disabled(),
        set_repr,
    };
    let server =
        modref_serve::Server::bind(addr, cfg).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    // The listen line first — tools watching stderr key on it — then the
    // recovery summary, when there was anything to recover.
    eprintln!("modref-serve listening on {}", server.local_addr());
    let rec = server.recovery();
    if rec.recovered + rec.parked + rec.quarantined + rec.skipped > 0 {
        eprintln!(
            "recovered {} live + {} parked sessions \
             ({} quarantined, {} skipped, {} torn tails truncated)",
            rec.recovered, rec.parked, rec.quarantined, rec.skipped, rec.truncated_tails
        );
    }
    install_drain_handlers();
    let handle = server.spawn();
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let synced = handle.drain();
    eprintln!("modref-serve drained ({synced} journals synced)");
    Ok(())
}

/// Drives a running daemon from a script; query reports go to stdout
/// verbatim, acks to stderr. Refused connects and `overloaded` responses
/// retry with backoff (`--retries 1` disables). Exit contract matches
/// `analyze`: 0 clean, 3 if any response was degraded, 1 on errors.
fn client(
    addr: &str,
    script_path: &str,
    retries: u32,
    retry_base_ms: u64,
) -> Result<RunStatus, Box<dyn Error>> {
    let addr = parse_addr(addr)?;
    let text =
        fs::read_to_string(script_path).map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
    let base = std::path::Path::new(script_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    let policy = modref_serve::RetryPolicy {
        attempts: retries,
        base_ms: retry_base_ms,
        ..modref_serve::RetryPolicy::default()
    };
    let outcome = modref_serve::run_drive_with(
        addr,
        &text,
        base,
        &mut std::io::stdout(),
        &mut std::io::stderr(),
        &policy,
    )?;
    Ok(match outcome {
        modref_serve::DriveOutcome::Degraded => RunStatus::Degraded,
        // `run_drive_with` reports failures through `Err`.
        modref_serve::DriveOutcome::Clean | modref_serve::DriveOutcome::Failed => RunStatus::Clean,
    })
}

fn load(file: &str) -> Result<Program, Box<dyn Error>> {
    let source = fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    Ok(modref_frontend::parse_program(&source)?)
}

/// The report's `{a, b}` set form — the shared renderer's, so every
/// command prints sets identically.
fn names(program: &Program, set: &BitSet) -> String {
    set_names(program, set)
}

/// The per-site text report shared by plain and `--edits` analyses (and,
/// via `modref-serve`, the analysis server) — one renderer, byte for byte.
fn print_site_report(
    out: &mut dyn Write,
    program: &Program,
    sets: &SiteSets,
    no_use: bool,
    no_alias: bool,
) -> std::io::Result<()> {
    write!(out, "{}", render_text(program, sets, no_use, no_alias))
}

/// The whole-analysis guard the `analyze` paths run under: `--timeout-ms`
/// and `--budget-ops` plus any `MODREF_FAULT` armed in the environment.
fn guard_from_flags(timeout_ms: Option<u64>, budget_ops: Option<u64>) -> Guard {
    let mut budget = Budget::unlimited();
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = budget_ops {
        budget = budget.with_ops(n);
    }
    let mut guard = Guard::new(&budget);
    if let Some(plan) = FaultPlan::from_env() {
        guard = guard.with_faults(plan);
    }
    guard
}

#[allow(clippy::too_many_arguments)]
fn analyze(
    out: &mut dyn Write,
    file: &str,
    no_use: bool,
    no_alias: bool,
    parallel: bool,
    json: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    budget_ops: Option<u64>,
    trace_out: Option<&str>,
    metrics: bool,
    edits: Option<&str>,
    query: Option<&QuerySpec>,
    set_repr: SetRepr,
) -> Result<RunStatus, Box<dyn Error>> {
    let trace = if trace_out.is_some() || metrics {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let source = fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let program = modref_frontend::parse_program_traced(&source, &trace)?;

    if let Some(spec) = query {
        return analyze_query(
            out, program, spec, edits, json, threads, timeout_ms, budget_ops, trace_out, metrics,
            &trace, set_repr,
        );
    }

    if let Some(script_path) = edits {
        return if set_repr.use_hybrid(program.num_vars(), None) {
            analyze_edits_in::<modref_core::HybridSet>(
                out,
                file,
                program,
                script_path,
                no_use,
                no_alias,
                json,
                threads,
                timeout_ms,
                budget_ops,
                trace_out,
                metrics,
                &trace,
            )
        } else {
            analyze_edits_in::<modref_core::BitSet>(
                out,
                file,
                program,
                script_path,
                no_use,
                no_alias,
                json,
                threads,
                timeout_ms,
                budget_ops,
                trace_out,
                metrics,
                &trace,
            )
        };
    }

    let mut analyzer = Analyzer::new();
    analyzer.with_trace(trace.clone());
    analyzer.set_repr(set_repr);
    if no_use {
        analyzer.without_use();
    }
    if no_alias {
        analyzer.without_aliases();
    }
    if parallel {
        analyzer.parallel();
    }
    if let Some(t) = threads {
        analyzer.threads(t);
    }

    let guard = guard_from_flags(timeout_ms, budget_ops);
    let (summary, status) = match analyzer.analyze_guarded(&program, &guard) {
        AnalysisOutcome::Clean(summary) => (summary, RunStatus::Clean),
        AnalysisOutcome::Degraded {
            summary,
            reason,
            completed_phases,
        } => {
            let done: Vec<String> = completed_phases.iter().map(|p| p.to_string()).collect();
            eprintln!("warning: analysis degraded: {reason}");
            eprintln!(
                "  phases completed exactly: {}",
                if done.is_empty() {
                    "(none)".to_owned()
                } else {
                    done.join(", ")
                }
            );
            eprintln!("  reported sets are sound over-approximations of the exact ones");
            (summary, RunStatus::Degraded)
        }
    };

    if let Some(path) = trace_out {
        fs::write(path, trace.export_chrome())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if metrics {
        eprint!("{}", trace.export_summary());
    }

    if json {
        write!(
            out,
            "{}",
            render_json(&program, &SiteSets::from_summary(&program, &summary))
        )?;
        return Ok(status);
    }

    writeln!(
        out,
        "{}: {} procedures, {} call sites, {} variables",
        file,
        program.num_procs(),
        program.num_sites(),
        program.num_vars()
    )?;
    let (bn, be) = summary.beta_size();
    writeln!(out, "binding multi-graph: {bn} nodes, {be} edges\n")?;
    print_site_report(
        out,
        &program,
        &SiteSets::from_summary(&program, &summary),
        no_use,
        no_alias,
    )?;
    Ok(status)
}

/// Answers a point query demand-driven: only the β/call-graph slice the
/// query reaches is solved (see `modref_core::demand`), so a single-site
/// question on a large program costs a fraction of the exhaustive run.
/// `--edits` replays at pure-IR speed first (no analysis), then the query
/// resolves against the edited program. A budget/deadline/fault trip
/// degrades to the conservative visible-set answer and exit code 3, like
/// every other analyze path.
#[allow(clippy::too_many_arguments)]
fn analyze_query(
    out: &mut dyn Write,
    program: Program,
    spec: &QuerySpec,
    edits: Option<&str>,
    json: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    budget_ops: Option<u64>,
    trace_out: Option<&str>,
    metrics: bool,
    trace: &Trace,
    set_repr: SetRepr,
) -> Result<RunStatus, Box<dyn Error>> {
    let mut qe = AnyQueryEngine::new_lazy_with(program, threads, trace.clone(), set_repr);
    if let Some(script_path) = edits {
        let text = fs::read_to_string(script_path)
            .map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
        qe.replay_history(text.lines())
            .map_err(|e| format!("{script_path}: {e}"))?;
    }
    let guard = guard_from_flags(timeout_ms, budget_ops);
    let program = qe.program().clone();

    let mut status = RunStatus::Clean;
    let note_degraded = |reason: &Option<String>, status: &mut RunStatus| {
        if let Some(reason) = reason {
            eprintln!("warning: query degraded: {reason}");
            eprintln!("  reported sets are sound over-approximations of the exact ones");
            *status = RunStatus::Degraded;
        }
    };
    let (report, ops) = match spec {
        QuerySpec::Site(n) => {
            if *n >= program.num_sites() {
                return Err(format!(
                    "site index {n} out of range (program has {} call sites)",
                    program.num_sites()
                )
                .into());
            }
            let s = CallSiteId::new(*n);
            let out = qe.site_answer(s, &guard);
            note_degraded(&out.degraded, &mut status);
            let a = &out.answer;
            let text = if json {
                render_json_site_answer(&program, s, &a.mods, &a.uses, &a.dmod)
            } else {
                let info = program.site(s);
                format!(
                    "site {s}: call {} (in {})\n  MOD  = {}\n  DMOD = {}\n  USE  = {}\n",
                    program.proc_name(info.callee()),
                    program.proc_name(info.caller()),
                    names(&program, &a.mods),
                    names(&program, &a.dmod),
                    names(&program, &a.uses),
                )
            };
            (text, out.ops)
        }
        QuerySpec::Proc(name) => {
            let p = program
                .procs()
                .find(|&p| program.proc_name(p) == name)
                .ok_or_else(|| format!("no procedure named `{name}`"))?;
            let out = qe.proc_answer(p, &guard);
            note_degraded(&out.degraded, &mut status);
            let a = &out.answer;
            let text = if json {
                render_json_proc(&program, name, &a.gmod, &a.guse)
            } else {
                format!(
                    "proc {name}\n  GMOD = {}\n  GUSE = {}\n",
                    names(&program, &a.gmod),
                    names(&program, &a.guse),
                )
            };
            (text, out.ops)
        }
    };

    if let Some(path) = trace_out {
        fs::write(path, trace.export_chrome())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if metrics {
        eprintln!(
            "query ops: {} bitvec, {} bool, {} edges ({} total)",
            ops.bitvec_steps,
            ops.bool_steps,
            ops.edges_visited,
            ops.total()
        );
        eprint!("{}", trace.export_summary());
    }
    write!(out, "{report}")?;
    Ok(status)
}

/// Applies an edit script through the incremental engine and reports the
/// final program's sets. Budgets/faults guard every apply; a degraded
/// apply widens soundly and maps to exit code 3 like the batch path.
#[allow(clippy::too_many_arguments)]
fn analyze_edits_in<S: modref_core::EffectSet>(
    out: &mut dyn Write,
    file: &str,
    program: Program,
    script_path: &str,
    no_use: bool,
    no_alias: bool,
    json: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    budget_ops: Option<u64>,
    trace_out: Option<&str>,
    metrics: bool,
    trace: &Trace,
) -> Result<RunStatus, Box<dyn Error>> {
    let text =
        fs::read_to_string(script_path).map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
    let script = Script::parse(&text).map_err(|e| format!("{script_path}: {e}"))?;

    let mut analyzer = Analyzer::new();
    analyzer.with_trace(trace.clone());
    if let Some(t) = threads {
        analyzer.threads(t);
    }
    let mut engine = analyzer.incremental_in::<S>(program);

    let guard = guard_from_flags(timeout_ms, budget_ops);
    let mut status = RunStatus::Clean;
    for (k, step) in script.steps().iter().enumerate() {
        let edit = step
            .resolve(engine.program())
            .map_err(|e| format!("{script_path}: {e}"))?;
        let outcome = engine.apply_guarded(&edit, &guard).map_err(|e| {
            format!(
                "{script_path}: script line {}: edit rejected: {e}",
                step.line
            )
        })?;
        if let IncrOutcome::Degraded { reason } = &outcome {
            eprintln!(
                "warning: edit #{k} ({script_path}:{}) degraded: {reason}",
                step.line
            );
            eprintln!("  reported sets are sound over-approximations of the exact ones");
            status = RunStatus::Degraded;
        }
        if metrics {
            let s = engine.stats();
            eprintln!(
                "edit #{k} ({script_path}:{}): {}gmod components {} reused / {} recomputed, \
                 rmod {} / {}, sites {} / {}, {} procs re-scanned, \
                 alias pairs {} added / {} removed / {} over-deleted",
                step.line,
                if s.full_rebuild { "full rebuild; " } else { "" },
                s.gmod_components_reused,
                s.gmod_components_recomputed,
                s.rmod_components_reused,
                s.rmod_components_recomputed,
                s.sites_reused,
                s.sites_recomputed,
                s.procs_flat_recomputed,
                s.alias_pairs_added,
                s.alias_pairs_removed,
                s.alias_pairs_overdeleted,
            );
        }
    }

    if let Some(path) = trace_out {
        fs::write(path, trace.export_chrome())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if metrics {
        eprint!("{}", trace.export_summary());
    }

    let program = engine.program();
    let sets = SiteSets::from_engine(&engine);
    if json {
        write!(out, "{}", render_json(program, &sets))?;
        return Ok(status);
    }
    writeln!(
        out,
        "{}: {} procedures, {} call sites, {} variables",
        file,
        program.num_procs(),
        program.num_sites(),
        program.num_vars()
    )?;
    writeln!(
        out,
        "after {} edits from {script_path}\n",
        script.steps().len()
    )?;
    print_site_report(out, program, &sets, no_use, no_alias)?;
    Ok(status)
}

fn summary(out: &mut dyn Write, file: &str) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let summary = Analyzer::new().analyze(&program);
    writeln!(out, "per-procedure summaries for {file}:\n")?;
    for p in program.procs() {
        writeln!(
            out,
            "proc {} (level {})",
            program.proc_name(p),
            program.proc_(p).level()
        )?;
        writeln!(out, "  RMOD  = {}", names(&program, summary.rmod(p)))?;
        writeln!(out, "  IMOD+ = {}", names(&program, summary.imod_plus(p)))?;
        writeln!(out, "  GMOD  = {}", names(&program, summary.gmod(p)))?;
        writeln!(out, "  GUSE  = {}", names(&program, summary.guse(p)))?;
    }
    Ok(())
}

fn sections(out: &mut dyn Write, file: &str) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let sections = analyze_sections(&program);
    writeln!(out, "regular sections per call site for {file}:\n")?;
    for site in program.sites() {
        let info = program.site(site);
        writeln!(
            out,
            "site {site}: call {} (in {})",
            program.proc_name(info.callee()),
            program.proc_name(info.caller())
        )?;
        let mut any = false;
        let mut entries: Vec<(VarId, String, String)> = Vec::new();
        for (a, sec) in sections.mod_sections_at_site(site) {
            entries.push((a, "MOD".into(), sec.display_named(&program)));
        }
        for a in program.vars().filter(|&v| program.var(v).rank() > 0) {
            if let Some(sec) = sections.use_section_at_site(site, a) {
                entries.push((a, "USE".into(), sec.display_named(&program)));
            }
        }
        entries.sort_by_key(|(a, kind, _)| (a.index(), kind.clone()));
        for (a, kind, text) in entries {
            any = true;
            writeln!(out, "  {kind} {}{text}", program.var_name(a))?;
        }
        if !any {
            writeln!(out, "  (no array accesses)")?;
        }
    }
    Ok(())
}

fn parallel(out: &mut dyn Write, file: &str) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let summary = Analyzer::new().analyze(&program);
    let section_summary = analyze_sections(&program);
    let reports = modref_sections::parallel_report(&program, &summary, &section_summary);
    if reports.is_empty() {
        writeln!(out, "{file}: no loops found")?;
        return Ok(());
    }
    writeln!(out, "loop parallelisation report for {file}:\n")?;
    for r in &reports {
        let head = format!("loop #{} in {}", r.loop_index, program.proc_name(r.proc_));
        if r.parallelizable() {
            let i = r
                .induction
                .expect("parallel loops have an induction variable");
            writeln!(out, "  {head}: PARALLELIZABLE over {}", program.var_name(i))?;
        } else {
            writeln!(out, "  {head}: serial")?;
            for b in &r.blockers {
                writeln!(out, "    - {}", b.describe(&program))?;
            }
        }
    }
    Ok(())
}

fn dot(out: &mut dyn Write, file: &str, what: DotWhat) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let text = match what {
        DotWhat::CallGraph => {
            let cg = CallGraph::build(&program);
            modref_graph::dot::to_dot(
                cg.graph(),
                "callgraph",
                |n| program.proc_name(modref_ir::ProcId::new(n)).to_owned(),
                |e| format!("s{e}"),
            )
        }
        DotWhat::Binding => {
            let beta = BindingGraph::build(&program);
            modref_graph::dot::to_dot(
                beta.graph(),
                "binding",
                |n| {
                    let f = beta.formal_of_node(n);
                    let (owner, pos) = program.formal_position(f).expect("β nodes are formals");
                    format!(
                        "{}.{} (#{pos})",
                        program.proc_name(owner),
                        program.var_name(f)
                    )
                },
                |e| beta.site_of_edge(e).to_string(),
            )
        }
    };
    write!(out, "{text}")?;
    Ok(())
}

fn run_program(
    out: &mut dyn Write,
    file: &str,
    seed: u64,
    fuel: u64,
) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let result = modref_interp::Interpreter::new(&program, seed)
        .with_fuel(fuel)
        .run();
    for v in &result.printed {
        writeln!(out, "{v}")?;
    }
    if result.truncated {
        eprintln!("(run truncated by the fuel/depth limit)");
    }
    Ok(())
}

fn check(out: &mut dyn Write, file: &str) -> Result<(), Box<dyn Error>> {
    let program = load(file)?;
    let stats = modref_ir::ProgramStats::measure(&program);
    writeln!(out, "{file}: ok")?;
    writeln!(out, "{stats}")?;
    Ok(())
}

/// Validates a `--trace` output file: well-formed JSON, a `traceEvents`
/// array, and the mandatory `name`/`ph`/`ts` keys on every event.
fn trace_check(out: &mut dyn Write, file: &str) -> Result<(), Box<dyn Error>> {
    let text = fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let root = parse_json(&text).map_err(|e| format!("`{file}` is not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{file}` has no `traceEvents` array"))?;
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;
    let mut span_names: Vec<&str> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event #{i} is missing a string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event #{i} is missing a string `ph`"))?;
        if ev.get("ts").and_then(Json::as_num).is_none() {
            return Err(format!("event #{i} is missing a numeric `ts`").into());
        }
        match ph {
            "X" => {
                spans += 1;
                span_names.push(name);
            }
            "i" => instants += 1,
            "C" => counters += 1,
            other => return Err(format!("event #{i} has unknown phase `{other}`").into()),
        }
    }
    span_names.sort_unstable();
    span_names.dedup();
    writeln!(
        out,
        "{file}: valid trace, {} events ({spans} spans, {instants} instants, {counters} counters)",
        events.len()
    )?;
    if !span_names.is_empty() {
        writeln!(out, "spans: {}", span_names.join(", "))?;
    }
    Ok(())
}
