//! The daemon: session table, per-connection frame loops, guarded
//! request dispatch, durability, admission control, and server-wide
//! counters.
//!
//! One engine per *live* session, each behind its own
//! lock, so requests against different sessions run concurrently while
//! requests against the same session serialize. Every request runs under
//! its own [`Guard`] — the server's configured budget/deadline defaults,
//! tightened or replaced by the request's `budget_ops`/`timeout_ms`
//! fields — so a pathological request degrades *that response* (status
//! `"degraded"`, sound widened sets) instead of starving sibling
//! sessions. Contained panics (injected via the `serve.*` fault sites,
//! or real bugs) follow the same ladder; see `docs/SERVER.md`.
//!
//! Three robustness layers on top of the PR 7 core:
//!
//! * **Durability** — with a [`ServerConfig::state_dir`], every session
//!   keeps an append-only journal ([`crate::journal`]): a program
//!   snapshot plus one record per applied edit line, checksummed and
//!   fsync'd per [`FsyncPolicy`]. `Server::bind` recovers journals into
//!   verified engines ([`crate::recover`]). Any journal failure — I/O
//!   error, guard fault at `serve.journal.append`/`serve.journal.fsync`,
//!   contained panic — latches the session `journal_dead`: the edit
//!   still applies, the response says `degraded` ("no longer durable"),
//!   and nothing is ever appended past a missing record, so the on-disk
//!   journal is always a *prefix* of the applied history.
//! * **Admission control** — at [`ServerConfig::max_sessions`] live
//!   engines, an idle LRU session is *parked* (evicted): its engine is
//!   dropped, its cheap text history stays in the table (and on disk
//!   when journaled), and any later request that names it transparently
//!   resurrects it by replay. A session is idle only when the table
//!   holds the sole reference to it, so an in-flight request can never
//!   be orphaned. With [`ServerConfig::evict`] off the cap is the PR 7
//!   hard error. When nothing is evictable — or at
//!   [`ServerConfig::max_conns`] live connections — the server answers
//!   `overloaded` with a retry hint instead of failing or hanging.
//! * **Graceful drain** — [`ServerHandle::drain`] stops accepting,
//!   half-closes connections so in-flight responses complete, joins the
//!   handlers, then fsyncs and closes every journal.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modref_bitset::SetRepr;
use modref_core::Analyzer;
use modref_guard::{panic_message, Budget, FaultPlan, Guard, Interrupt};
use modref_incr::render::{
    render_json, render_json_proc, render_json_site_answer, SessionRenderer, SiteSets,
};
use modref_incr::{AnyQueryEngine, IncrOutcome, Script};
use modref_ir::{CallSiteId, ProcId, Program};
use modref_trace::{escape_json, Trace};

use crate::frame::{read_frame, write_frame, FrameError};
use crate::journal::{self, FsyncPolicy, Journal, JournalRecord};
use crate::proto::{
    resp_close, resp_edit, resp_error, resp_open, resp_overloaded, resp_query, resp_stats,
    Envelope, Request, StatsSnapshot, Status,
};
use crate::recover::{quarantine, recover_dir, recover_file, RecoveryStats};

/// Server-wide configuration, fixed at bind time.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Cap on concurrently *live* sessions (engines in memory). With
    /// [`ServerConfig::evict`] on, reaching it parks the
    /// least-recently-used idle session; off, the extra `open` is an
    /// error response (never a dropped connection).
    pub max_sessions: usize,
    /// Default per-request op budget (the CLI's `--request-budget-ops`).
    pub request_budget_ops: Option<u64>,
    /// Default per-request wall-clock deadline in milliseconds
    /// (`--request-timeout-ms`).
    pub request_timeout_ms: Option<u64>,
    /// Worker-thread count for each session's pooled solver phases
    /// (`modref-par` semantics: `None` defers to `MODREF_THREADS`).
    pub threads: Option<usize>,
    /// Directory for per-session edit journals (`--state-dir`). `None`
    /// disables durability: sessions survive eviction (their history
    /// stays in memory) but not process death.
    pub state_dir: Option<PathBuf>,
    /// LRU-evict idle sessions at the cap instead of hard-failing the
    /// extra `open` (`--no-evict` turns this off). Default on.
    pub evict: bool,
    /// When journal appends reach the disk (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Cap on concurrent connections; past it, a fresh connection gets
    /// one `overloaded` frame and is closed (`--max-conns`).
    pub max_conns: usize,
    /// The `retry_after_ms` hint carried on `overloaded` responses.
    pub retry_after_ms: u64,
    /// Fault plan armed on request guards. The CLI arms this from
    /// `MODREF_FAULT` like every other guarded entry point; in-process
    /// tests pin plans explicitly. Never armed implicitly.
    pub faults: Option<FaultPlan>,
    /// When set, [`ServerConfig::faults`] arms only for requests
    /// addressed to this session — the hook the fault suite uses to
    /// poison one session while its siblings stay healthy. (The
    /// pre-session `serve.accept` and `serve.recover`-at-startup sites
    /// are armed only when this is `None`.)
    pub fault_session: Option<String>,
    /// Trace sink; every request records an `incr.serve` span into it.
    pub trace: Trace,
    /// The set representation every session this server opens runs on
    /// (`--set-repr`). Sessions inherit it at `open` and resurrection;
    /// journal recovery rebuilds dense regardless, because its
    /// bit-identity check runs against the dense from-scratch analysis.
    pub set_repr: SetRepr,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            request_budget_ops: None,
            request_timeout_ms: None,
            threads: None,
            state_dir: None,
            evict: true,
            fsync: FsyncPolicy::Always,
            max_conns: 256,
            retry_after_ms: 50,
            faults: None,
            fault_session: None,
            trace: Trace::disabled(),
            set_repr: SetRepr::Dense,
        }
    }
}

/// One live session: the engine plus everything needed to park and
/// resurrect it. The engine is a [`QueryEngine`]: sessions opened with
/// `"lazy":true` hold only a demand memo until a `target=all` query (or
/// resurrection) promotes them to the exhaustive incremental engine.
struct Session {
    engine: AnyQueryEngine,
    /// Edits applied since `open` (including degraded applies).
    edits_applied: u64,
    /// The program text the session was opened with.
    source: String,
    /// Every applied edit line, in order — the in-memory mirror of the
    /// journal, and the replay script for resurrection.
    history: Vec<String>,
    /// The durable journal, when a state dir is configured.
    journal: Option<Journal>,
    /// Latched on the first journal failure: the session stays usable
    /// but every further edit answers `degraded`, and nothing more is
    /// appended (the on-disk journal stays a prefix of the history).
    journal_dead: bool,
    /// Renders this session's `site:`/`proc:` answers through one name
    /// table, rebuilt only when an edit changes the variable universe.
    names: SessionRenderer,
}

/// An evicted session: the engine is gone, the cheap text history
/// remains. Any request that names it resurrects it by replay.
#[derive(Clone)]
struct Parked {
    source: String,
    history: Vec<String>,
    edits_applied: u64,
    journal_dead: bool,
}

/// A session-table slot.
enum Slot {
    /// Engine resident; `last_used` drives LRU eviction.
    Live {
        session: Arc<Mutex<Session>>,
        last_used: u64,
    },
    /// Evicted to history.
    Parked(Parked),
}

/// Monotone counters, updated lock-free from every handler thread.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    degraded: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    recoveries: AtomicU64,
    shed: AtomicU64,
    journal_bytes: AtomicU64,
    latency_total_us: AtomicU64,
    latency_max_us: AtomicU64,
    per_op: [AtomicU64; 5],
}

fn op_slot(op: &str) -> usize {
    match op {
        "open" => 0,
        "edit" => 1,
        "query" => 2,
        "close" => 3,
        _ => 4,
    }
}

struct Shared {
    cfg: ServerConfig,
    sessions: Mutex<HashMap<String, Slot>>,
    counters: Counters,
    stop: AtomicBool,
    /// Monotone tick source for LRU `last_used` stamps.
    use_clock: AtomicU64,
    /// Clones of live connection streams keyed by connection id,
    /// force-closed on shutdown so blocked frame reads drain promptly.
    /// Each handler removes its own entry on exit, so the table tracks
    /// *live* connections, not connection history.
    conns: Mutex<HashMap<u64, TcpStream>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Poison-tolerant lock: a handler that panicked at a `serve.*`
/// checkpoint did so *before* touching the engine (and the engine's own
/// apply path contains its panics), so the data under a poisoned lock is
/// always coherent.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn clock_tick(shared: &Shared) -> u64 {
    shared.use_clock.fetch_add(1, Ordering::Relaxed)
}

/// Adds to the journal-bytes counter and emits the cumulative trace
/// sample.
fn add_journal_bytes(shared: &Shared, n: u64) {
    let total = shared
        .counters
        .journal_bytes
        .fetch_add(n, Ordering::Relaxed)
        + n;
    shared.cfg.trace.counter("incr.serve.journal_bytes", total);
}

/// A bound, not-yet-running server. Binding with a
/// [`ServerConfig::state_dir`] runs startup recovery before any
/// connection is accepted; [`Server::recovery`] reports what it did.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    recovery: RecoveryStats,
}

/// A handle to a server running on a background thread. Dropping the
/// handle shuts the server down (idempotent with [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port; see
    /// [`Server::local_addr`]) and, with a state dir configured, runs
    /// startup recovery: every journal is scanned (torn tails
    /// truncated), the most recent ones are replayed into engines and
    /// verified bit-identical against a from-scratch analysis, untrusted
    /// files are quarantined to `.bad`.
    ///
    /// # Errors
    ///
    /// The bind or state-dir-creation failure, untouched.
    pub fn bind(addr: SocketAddr, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            use_clock: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
        });
        let mut recovery = RecoveryStats::default();
        if let Some(dir) = shared.cfg.state_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            let guard = server_guard(&shared.cfg);
            let (live, parked, stats) = recover_dir(
                &dir,
                shared.cfg.max_sessions,
                shared.cfg.threads,
                &shared.cfg.trace,
                shared.cfg.fsync,
                &guard,
            );
            recovery = stats;
            let mut sessions = relock(&shared.sessions);
            for rs in live {
                add_journal_bytes(&shared, rs.bytes);
                let total = shared.counters.recoveries.fetch_add(1, Ordering::Relaxed) + 1;
                shared.cfg.trace.counter("incr.serve.recoveries", total);
                let tick = shared.use_clock.fetch_add(1, Ordering::Relaxed);
                sessions.insert(
                    rs.name.clone(),
                    Slot::Live {
                        session: Arc::new(Mutex::new(Session {
                            engine: AnyQueryEngine::from_dense_full(rs.engine),
                            edits_applied: rs.edits_applied,
                            source: rs.source,
                            history: rs.history,
                            journal: Some(rs.journal),
                            journal_dead: false,
                            names: SessionRenderer::new(),
                        })),
                        last_used: tick,
                    },
                );
            }
            for pr in parked {
                add_journal_bytes(&shared, pr.bytes);
                sessions.insert(
                    pr.name.clone(),
                    Slot::Parked(Parked {
                        source: pr.source,
                        edits_applied: pr.history.len() as u64,
                        history: pr.history,
                        journal_dead: false,
                    }),
                );
            }
        }
        Ok(Server {
            listener,
            addr,
            shared,
            recovery,
        })
    }

    /// The actually bound address (resolves a requested port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery did (all zeros without a state dir).
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Runs the accept loop on the current thread until shut down (the
    /// CLI `serve` verb's mode — it never returns in normal operation).
    /// Each connection gets its own handler thread; a handler panic is
    /// contained to its connection. At [`ServerConfig::max_conns`] live
    /// connections, a fresh one is shed: it gets a single `overloaded`
    /// frame (with the retry hint) and is closed without a handler.
    pub fn run(self) {
        let shared = self.shared;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                }
            };
            if shared.stop.load(Ordering::Acquire) {
                break;
            }
            if relock(&shared.conns).len() >= shared.cfg.max_conns {
                let total = shared.counters.shed.fetch_add(1, Ordering::Relaxed) + 1;
                shared.cfg.trace.counter("incr.serve.shed", total);
                let mut stream = stream;
                let reply =
                    resp_overloaded(None, shared.cfg.retry_after_ms, "connection limit reached");
                let _ = write_frame(&mut stream, reply.as_bytes());
                let _ = stream.shutdown(std::net::Shutdown::Both);
                continue;
            }
            let conn_id = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                relock(&shared.conns).insert(conn_id, clone);
            }
            let conn_shared = Arc::clone(&shared);
            let worker = std::thread::spawn(move || {
                // The inner catch_unwind paths keep panics per-request;
                // this outer one keeps any residue per-connection.
                let mut stream = stream;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(&conn_shared, &mut stream);
                }));
                // The clone in `conns` keeps the socket open past this
                // fd's drop — shut the connection down explicitly (the
                // peer gets EOF even after a contained panic) and drop
                // the clone so the table only holds live connections.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                relock(&conn_shared.conns).remove(&conn_id);
                let _ = result;
            });
            // Reap finished handlers so a long-lived daemon's worker
            // table is bounded by live connections, not history.
            let mut workers = relock(&shared.workers);
            workers.retain(|w| !w.is_finished());
            workers.push(worker);
        }
    }

    /// Runs the accept loop on a background thread and returns the
    /// controlling handle (the in-process test mode).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let accept = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, force-closes live connections, and joins every
    /// handler thread. Sessions (and their engines) are dropped with the
    /// server; journals get whatever their fsync policy already wrote.
    pub fn shutdown(mut self) {
        self.shutdown_impl(std::net::Shutdown::Both);
    }

    /// Graceful drain (what SIGTERM triggers in the CLI): stop
    /// accepting, *half*-close live connections — in-flight responses
    /// still write; readers see EOF at the next frame boundary — join
    /// every handler, then fsync and close every journal. Returns the
    /// number of journals made durable.
    pub fn drain(mut self) -> usize {
        self.shutdown_impl(std::net::Shutdown::Read);
        let slots: Vec<Slot> = {
            let mut sessions = relock(&self.shared.sessions);
            sessions.drain().map(|(_, slot)| slot).collect()
        };
        let mut synced = 0;
        for slot in slots {
            if let Slot::Live { session, .. } = slot {
                if let Ok(mutex) = Arc::try_unwrap(session) {
                    let mut state = mutex.into_inner().unwrap_or_else(PoisonError::into_inner);
                    if let Some(j) = state.journal.as_mut() {
                        if !state.journal_dead && j.sync().is_ok() {
                            synced += 1;
                        }
                    }
                }
            }
        }
        synced
    }

    fn shutdown_impl(&mut self, how: std::net::Shutdown) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the no-op connection is absorbed by
        // the stop check at the top of the loop.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in relock(&self.shared.conns).drain() {
            let _ = conn.shutdown(how);
        }
        let _ = accept.join();
        let workers: Vec<JoinHandle<()>> = relock(&self.shared.workers).drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl(std::net::Shutdown::Both);
    }
}

/// Builds the per-request guard: request overrides beat server defaults;
/// the fault plan arms only when the config says so (and, with a
/// `fault_session` filter, only for that session's requests).
fn request_guard(cfg: &ServerConfig, env: &Envelope) -> Guard {
    let mut budget = Budget::unlimited();
    if let Some(ms) = env.timeout_ms.or(cfg.request_timeout_ms) {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = env.budget_ops.or(cfg.request_budget_ops) {
        budget = budget.with_ops(n);
    }
    let mut guard = Guard::new(&budget);
    if let Some(plan) = &cfg.faults {
        let armed = match &cfg.fault_session {
            None => true,
            Some(target) => env.request.session() == Some(target.as_str()),
        };
        if armed {
            guard = guard.with_faults(plan.clone());
        }
    }
    guard
}

/// The guard for server-level (no-session) checkpoints: `serve.accept`
/// on a fresh connection and `serve.recover` during startup recovery.
/// Faults only arm here when they are unfiltered — these sites belong to
/// no session.
fn server_guard(cfg: &ServerConfig) -> Guard {
    let mut guard = Guard::unlimited();
    if cfg.fault_session.is_none() {
        if let Some(plan) = &cfg.faults {
            guard = guard.with_faults(plan.clone());
        }
    }
    guard
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    // A panic injected at `serve.accept` is contained by the caller's
    // catch_unwind: this connection dies (the client sees EOF), the
    // accept loop and every other connection keep going.
    if server_guard(&shared.cfg)
        .checkpoint("serve.accept")
        .is_err()
    {
        return;
    }
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match read_frame(stream) {
            Ok(None) => return,
            Ok(Some(payload)) => {
                let reply = handle_frame(shared, &payload);
                if write_frame(stream, reply.as_bytes()).is_err() {
                    // Client went away mid-request. Session state is
                    // already committed; the next connection can reuse it.
                    return;
                }
            }
            Err(err) => {
                // Frame-level failure: the stream is unsynchronised.
                // Say why (typed, with a null id), then close.
                let reply = resp_error(None, &format!("frame: {err}"));
                let _ = write_frame(stream, reply.as_bytes());
                if !matches!(err, FrameError::Io(_)) {
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
    }
}

/// Parses, dispatches, and accounts one request. Always produces exactly
/// one response frame payload.
fn handle_frame(shared: &Shared, payload: &[u8]) -> String {
    let t0 = Instant::now();
    let counters = &shared.counters;
    let env = match Envelope::parse(payload) {
        Ok(env) => env,
        Err(e) => {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            counters.errors.fetch_add(1, Ordering::Relaxed);
            return resp_error(e.id, &e.message);
        }
    };
    counters.requests.fetch_add(1, Ordering::Relaxed);
    let op = env.request.op_name();
    counters.per_op[op_slot(op)].fetch_add(1, Ordering::Relaxed);

    let mut span = shared.cfg.trace.span("incr.serve");
    span.note("op", op);
    if let Some(s) = env.request.session() {
        span.note("session", s);
    }

    let guard = request_guard(&shared.cfg, &env);
    let (reply, status) = match catch_unwind(AssertUnwindSafe(|| dispatch(shared, &env, &guard))) {
        Ok(pair) => pair,
        Err(panic) => panic_fallback(shared, &env, panic.as_ref()),
    };
    span.note("status", status.as_str());

    match status {
        Status::Ok => counters.ok.fetch_add(1, Ordering::Relaxed),
        Status::Degraded => counters.degraded.fetch_add(1, Ordering::Relaxed),
        Status::Error => counters.errors.fetch_add(1, Ordering::Relaxed),
        Status::Overloaded => {
            let total = counters.shed.fetch_add(1, Ordering::Relaxed) + 1;
            shared.cfg.trace.counter("incr.serve.shed", total);
            total
        }
    };
    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    counters.latency_total_us.fetch_add(us, Ordering::Relaxed);
    counters.latency_max_us.fetch_max(us, Ordering::Relaxed);
    span.arg("latency_us", us);
    reply
}

/// `{"id":…,"status":"degraded",…}` for ops that carry no report.
fn resp_degraded_plain(id: u64, op: &str, session: Option<&str>, reason: &str) -> String {
    let session = session.map_or_else(String::new, |s| {
        format!(",\"session\":\"{}\"", escape_json(s))
    });
    format!(
        "{{\"id\":{id},\"status\":\"degraded\",\"op\":\"{op}\"{session},\"reason\":\"{}\"}}",
        escape_json(reason)
    )
}

/// The session's slot, cloned, when it is currently live.
fn live_slot(shared: &Shared, session: &str) -> Option<Arc<Mutex<Session>>> {
    match relock(&shared.sessions).get(session) {
        Some(Slot::Live { session, .. }) => Some(Arc::clone(session)),
        _ => None,
    }
}

/// The response when dispatch itself panicked (an injected `serve.*`
/// fault or a real bug outside the engine's own containment). Queries
/// still answer — with the sound conservative widening — so a poisoned
/// session degrades instead of going dark; everything else reports
/// `degraded` with the panic text.
fn panic_fallback(
    shared: &Shared,
    env: &Envelope,
    panic: &(dyn std::any::Any + Send),
) -> (String, Status) {
    let reason = format!("panic during request: {}", panic_message(panic));
    if let Request::Query { session, target } = &env.request {
        if let Some(slot) = live_slot(shared, session) {
            let guard = relock(&slot);
            let report = conservative_report(guard.engine.program(), target);
            drop(guard);
            if let Some(report) = report {
                return (
                    resp_query(env.id, session, Some(&reason), &report),
                    Status::Degraded,
                );
            }
        }
    }
    (
        resp_degraded_plain(
            env.id,
            env.request.op_name(),
            env.request.session(),
            &reason,
        ),
        Status::Degraded,
    )
}

/// Renders the sound widened report for `target`, or `None` when the
/// target does not resolve (out-of-range site, unknown procedure) — the
/// caller turns that into a plain degraded response.
fn conservative_report(program: &Program, target: &crate::proto::QueryTarget) -> Option<String> {
    use crate::proto::QueryTarget;
    match target {
        QueryTarget::All => Some(render_json(program, &SiteSets::conservative(program))),
        QueryTarget::Site(n) => {
            if *n >= program.num_sites() {
                return None;
            }
            // This site's slice of `SiteSets::conservative`, without
            // widening every other site too.
            let site = CallSiteId::new(*n);
            let wide = program.visible_set(program.site(site).caller());
            Some(render_json_site_answer(program, site, &wide, &wide, &wide))
        }
        QueryTarget::Proc(name) => {
            let p = find_proc(program, name)?;
            let wide = program.visible_set(p);
            Some(render_json_proc(program, name, &wide, &wide))
        }
    }
}

fn find_proc(program: &Program, name: &str) -> Option<ProcId> {
    program.procs().find(|&p| program.proc_name(p) == name)
}

fn dispatch(shared: &Shared, env: &Envelope, guard: &Guard) -> (String, Status) {
    let id = env.id;
    // The dispatch checkpoint: a panic here unwinds into the caller's
    // containment; a budget/deadline trip degrades the response.
    if let Err(interrupt) = guard.checkpoint("serve.dispatch") {
        return degraded_before_work(shared, env, interrupt);
    }
    match &env.request {
        Request::Open {
            session,
            program,
            lazy,
        } => open_session(shared, id, session, program, *lazy, guard),
        Request::Edit { session, script } => {
            with_session(shared, id, "edit", session, guard, |slot| {
                edit_session(shared, env, guard, session, slot, script)
            })
        }
        Request::Query { session, target } => {
            with_session(shared, id, "query", session, guard, |slot| {
                query_session(env, guard, session, slot, target)
            })
        }
        Request::Close { session } => close_session(shared, id, session),
        Request::Stats => {
            let snap = snapshot(shared);
            (resp_stats(id, &snap), Status::Ok)
        }
    }
}

/// A guard trip before any session work: queries still answer with the
/// conservative widening, everything else degrades plainly.
fn degraded_before_work(shared: &Shared, env: &Envelope, interrupt: Interrupt) -> (String, Status) {
    let reason = interrupt.to_string();
    if let Request::Query { session, target } = &env.request {
        if let Some(slot) = live_slot(shared, session) {
            let guard = relock(&slot);
            if let Some(report) = conservative_report(guard.engine.program(), target) {
                return (
                    resp_query(env.id, session, Some(&reason), &report),
                    Status::Degraded,
                );
            }
        }
    }
    (
        resp_degraded_plain(
            env.id,
            env.request.op_name(),
            env.request.session(),
            &reason,
        ),
        Status::Degraded,
    )
}

/// Why the table could not take one more live session.
enum CapacityError {
    /// Eviction is off and the cap is hit — the PR 7 hard error.
    HardLimit(usize),
    /// Eviction is on but impossible right now (every session busy, or
    /// an injected `serve.evict` fault); retry after the hint.
    Overloaded(&'static str),
}

fn capacity_reply(shared: &Shared, id: u64, err: CapacityError) -> (String, Status) {
    match err {
        CapacityError::HardLimit(live) => (
            resp_error(
                Some(id),
                &format!(
                    "session limit reached ({live} open, max {})",
                    shared.cfg.max_sessions
                ),
            ),
            Status::Error,
        ),
        CapacityError::Overloaded(reason) => (
            resp_overloaded(Some(id), shared.cfg.retry_after_ms, reason),
            Status::Overloaded,
        ),
    }
}

/// Makes room for one more live session, parking the least-recently-used
/// idle one if the cap is hit. Runs under the table lock. A session is
/// idle exactly when the table holds the sole `Arc` to it: every request
/// path clones the `Arc` under this same lock before touching the
/// session, so sole-ownership here proves nobody is in (or can get into)
/// the engine we are about to drop.
fn ensure_capacity(
    shared: &Shared,
    sessions: &mut HashMap<String, Slot>,
    guard: &Guard,
) -> Result<(), CapacityError> {
    let live_count = sessions
        .values()
        .filter(|s| matches!(s, Slot::Live { .. }))
        .count();
    if live_count < shared.cfg.max_sessions {
        return Ok(());
    }
    if !shared.cfg.evict {
        return Err(CapacityError::HardLimit(live_count));
    }
    // The eviction fault site; a panic here is contained to an
    // `overloaded` refusal (nothing parked, nothing lost).
    match catch_unwind(AssertUnwindSafe(|| guard.checkpoint("serve.evict"))) {
        Ok(Ok(())) => {}
        Ok(Err(_)) | Err(_) => {
            return Err(CapacityError::Overloaded(
                "eviction unavailable under fault",
            ))
        }
    }
    let mut victim: Option<(String, u64)> = None;
    for (name, slot) in sessions.iter() {
        if let Slot::Live { session, last_used } = slot {
            if Arc::strong_count(session) == 1
                && victim.as_ref().map_or(true, |(_, t)| last_used < t)
            {
                victim = Some((name.clone(), *last_used));
            }
        }
    }
    let Some((name, _)) = victim else {
        return Err(CapacityError::Overloaded(
            "session table full and every session busy",
        ));
    };
    let Some(Slot::Live { session, .. }) = sessions.remove(&name) else {
        unreachable!("victim vanished under the table lock");
    };
    let mutex = match Arc::try_unwrap(session) {
        Ok(m) => m,
        Err(arc) => {
            // Sole ownership was checked under this lock, so this arm is
            // dead — but if it were ever reached, put the session back
            // rather than orphan an in-flight request.
            sessions.insert(
                name,
                Slot::Live {
                    session: arc,
                    last_used: clock_tick(shared),
                },
            );
            return Err(CapacityError::Overloaded(
                "session table full and every session busy",
            ));
        }
    };
    let mut state = mutex.into_inner().unwrap_or_else(PoisonError::into_inner);
    // Park: make the journal durable (best-effort — a failure just means
    // the parked session is no longer crash-durable, exactly like a live
    // one whose journal died), then drop the engine and keep the text.
    if let Some(j) = state.journal.as_mut() {
        if !state.journal_dead && j.sync().is_err() {
            state.journal_dead = true;
        }
    }
    sessions.insert(
        name,
        Slot::Parked(Parked {
            source: state.source,
            history: state.history,
            edits_applied: state.edits_applied,
            journal_dead: state.journal_dead,
        }),
    );
    let total = shared.counters.evictions.fetch_add(1, Ordering::Relaxed) + 1;
    shared.cfg.trace.counter("incr.serve.evictions", total);
    Ok(())
}

/// Rebuilds a parked session into a live one by replaying its history,
/// under the table lock (resurrections serialize, exactly like opens).
fn resurrect(
    shared: &Shared,
    sessions: &mut HashMap<String, Slot>,
    name: &str,
    id: u64,
    guard: &Guard,
) -> Result<Arc<Mutex<Session>>, (String, Status)> {
    // The recovery fault site; contained to an `overloaded` refusal —
    // the parked slot is untouched and the request can be retried.
    match catch_unwind(AssertUnwindSafe(|| guard.checkpoint("serve.recover"))) {
        Ok(Ok(())) => {}
        Ok(Err(_)) | Err(_) => {
            return Err((
                resp_overloaded(
                    Some(id),
                    shared.cfg.retry_after_ms,
                    "resurrection unavailable under fault",
                ),
                Status::Overloaded,
            ))
        }
    }
    if let Err(e) = ensure_capacity(shared, sessions, guard) {
        return Err(capacity_reply(shared, id, e));
    }
    let parked = match sessions.get(name) {
        Some(Slot::Parked(p)) => p.clone(),
        _ => unreachable!("resurrect called on a non-parked slot"),
    };
    let program = match modref_frontend::parse_program(&parked.source) {
        Ok(p) => p,
        Err(e) => {
            return Err((
                resp_error(
                    Some(id),
                    &format!("session `{name}` cannot be resurrected: parse error: {e}"),
                ),
                Status::Error,
            ))
        }
    };
    let mut analyzer = Analyzer::new();
    analyzer.with_trace(shared.cfg.trace.clone());
    if let Some(t) = shared.cfg.threads {
        analyzer.threads(t);
    }
    let mut engine = AnyQueryEngine::new_full_with(&analyzer, program, shared.cfg.set_repr);
    if let Err(e) = engine.replay_history(parked.history.iter().map(String::as_str)) {
        return Err((
            resp_error(
                Some(id),
                &format!("session `{name}` cannot be resurrected: {e}"),
            ),
            Status::Error,
        ));
    }
    let mut journal_dead = parked.journal_dead;
    let journal = match &shared.cfg.state_dir {
        Some(dir) if !journal_dead => {
            match Journal::append_to(&journal::path_for(dir, name), shared.cfg.fsync) {
                Ok(j) => Some(j),
                Err(_) => {
                    journal_dead = true;
                    None
                }
            }
        }
        _ => None,
    };
    let session = Arc::new(Mutex::new(Session {
        engine,
        edits_applied: parked.edits_applied,
        source: parked.source,
        history: parked.history,
        journal,
        journal_dead,
        names: SessionRenderer::new(),
    }));
    sessions.insert(
        name.to_owned(),
        Slot::Live {
            session: Arc::clone(&session),
            last_used: clock_tick(shared),
        },
    );
    let total = shared.counters.recoveries.fetch_add(1, Ordering::Relaxed) + 1;
    shared.cfg.trace.counter("incr.serve.recoveries", total);
    Ok(session)
}

/// Creates the journal for a freshly opened session and writes its
/// snapshot record, with the `serve.journal.*` fault sites armed and
/// panics contained.
fn open_fresh_journal(
    shared: &Shared,
    dir: &std::path::Path,
    session: &str,
    source: &str,
    guard: &Guard,
) -> Result<Journal, String> {
    let contained = catch_unwind(AssertUnwindSafe(|| -> Result<Journal, String> {
        let mut j = Journal::create(dir, session, shared.cfg.fsync)
            .map_err(|e| format!("journal create failed: {e}"))?;
        guard
            .checkpoint("serve.journal.append")
            .map_err(|i| format!("journal append interrupted: {i}"))?;
        let n = j
            .append(&JournalRecord::Snapshot {
                session: session.to_owned(),
                program: source.to_owned(),
            })
            .map_err(|e| format!("journal append failed: {e}"))?;
        add_journal_bytes(shared, n);
        guard
            .checkpoint("serve.journal.fsync")
            .map_err(|i| format!("journal fsync interrupted: {i}"))?;
        j.commit()
            .map_err(|e| format!("journal fsync failed: {e}"))?;
        Ok(j)
    }));
    match contained {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic during journal write: {}",
            panic_message(p.as_ref())
        )),
    }
}

/// Appends one applied edit line to the session's journal. Any failure —
/// guard fault, I/O error, contained panic — latches `journal_dead`:
/// the journal on disk stays a strict prefix of the applied history and
/// is never appended to again.
fn journal_edit(
    shared: &Shared,
    guard: &Guard,
    state: &mut Session,
    line: &str,
) -> Result<(), String> {
    if state.journal_dead {
        return Err("session is no longer durable (its journal failed earlier)".to_owned());
    }
    let Some(jrnl) = state.journal.as_mut() else {
        return Ok(());
    };
    let rec = JournalRecord::Edit {
        line: line.to_owned(),
    };
    let contained = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        guard
            .checkpoint("serve.journal.append")
            .map_err(|i| format!("journal append interrupted: {i}"))?;
        let n = jrnl
            .append(&rec)
            .map_err(|e| format!("journal append failed: {e}"))?;
        add_journal_bytes(shared, n);
        guard
            .checkpoint("serve.journal.fsync")
            .map_err(|i| format!("journal fsync interrupted: {i}"))?;
        jrnl.commit()
            .map_err(|e| format!("journal fsync failed: {e}"))?;
        Ok(())
    }));
    let res = match contained {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic during journal append: {}",
            panic_message(p.as_ref())
        )),
    };
    if res.is_err() {
        state.journal_dead = true;
    }
    res
}

fn open_session(
    shared: &Shared,
    id: u64,
    session: &str,
    source: &str,
    lazy: bool,
    guard: &Guard,
) -> (String, Status) {
    let program = match modref_frontend::parse_program(source) {
        Ok(p) => p,
        Err(e) => {
            return (
                resp_error(Some(id), &format!("parse error: {e}")),
                Status::Error,
            )
        }
    };
    // Check-then-insert under one lock so two racing opens of the same
    // name (or the last two slots) resolve consistently.
    let mut sessions = relock(&shared.sessions);
    match sessions.get(session) {
        Some(Slot::Live { .. }) => {
            return (
                resp_error(Some(id), &format!("session `{session}` is already open")),
                Status::Error,
            )
        }
        Some(Slot::Parked(p)) => {
            // Transparent resurrection: re-opening a parked session with
            // the identical program text revives it, history included.
            if p.source != source {
                return (
                    resp_error(
                        Some(id),
                        &format!(
                            "session `{session}` is already open (parked with different \
                             program text)"
                        ),
                    ),
                    Status::Error,
                );
            }
            return match resurrect(shared, &mut sessions, session, id, guard) {
                Ok(slot) => resurrected_open_reply(id, session, &slot),
                Err(pair) => pair,
            };
        }
        None => {}
    }
    if let Err(e) = ensure_capacity(shared, &mut sessions, guard) {
        return capacity_reply(shared, id, e);
    }
    // A journal on disk but not in the table (startup recovery skipped
    // it under a fault): recover it now if the offered program matches.
    if let Some(dir) = &shared.cfg.state_dir {
        let path = journal::path_for(dir, session);
        if path.exists() {
            match recover_file(
                &path,
                shared.cfg.threads,
                &shared.cfg.trace,
                shared.cfg.fsync,
            ) {
                Ok((rs, _truncated)) if rs.source == source => {
                    add_journal_bytes(shared, rs.bytes);
                    let slot = Arc::new(Mutex::new(Session {
                        engine: AnyQueryEngine::from_dense_full(rs.engine),
                        edits_applied: rs.edits_applied,
                        source: rs.source,
                        history: rs.history,
                        journal: Some(rs.journal),
                        journal_dead: false,
                        names: SessionRenderer::new(),
                    }));
                    sessions.insert(
                        session.to_owned(),
                        Slot::Live {
                            session: Arc::clone(&slot),
                            last_used: clock_tick(shared),
                        },
                    );
                    let total = shared.counters.recoveries.fetch_add(1, Ordering::Relaxed) + 1;
                    shared.cfg.trace.counter("incr.serve.recoveries", total);
                    return resurrected_open_reply(id, session, &slot);
                }
                Ok(_) => {
                    return (
                        resp_error(
                            Some(id),
                            &format!(
                                "session `{session}` has a journal on disk with different \
                                 program text; close it first"
                            ),
                        ),
                        Status::Error,
                    )
                }
                Err(_) => {
                    // Untrusted journal: quarantine it and open fresh.
                    quarantine(&path);
                }
            }
        }
    }
    // The initial full analysis runs inside the table lock: opens are
    // rare and bounded, and it keeps "name reserved" and "engine ready"
    // one atomic step. A lazy open skips the analysis entirely — the
    // session holds just the program and an empty demand memo, and the
    // first point query solves only the slice it needs.
    let engine = if lazy {
        AnyQueryEngine::new_lazy_with(
            program,
            shared.cfg.threads,
            shared.cfg.trace.clone(),
            shared.cfg.set_repr,
        )
    } else {
        let mut analyzer = Analyzer::new();
        analyzer.with_trace(shared.cfg.trace.clone());
        if let Some(t) = shared.cfg.threads {
            analyzer.threads(t);
        }
        AnyQueryEngine::new_full_with(&analyzer, program, shared.cfg.set_repr)
    };
    let (procs, sites, vars) = {
        let p = engine.program();
        (p.num_procs(), p.num_sites(), p.num_vars())
    };
    let mut jrnl = None;
    let mut degraded_note = None;
    if let Some(dir) = shared.cfg.state_dir.clone() {
        match open_fresh_journal(shared, &dir, session, source, guard) {
            Ok(j) => jrnl = Some(j),
            Err(reason) => {
                degraded_note = Some(format!("session opened without durability: {reason}"));
            }
        }
    }
    let journal_dead = shared.cfg.state_dir.is_some() && jrnl.is_none();
    sessions.insert(
        session.to_owned(),
        Slot::Live {
            session: Arc::new(Mutex::new(Session {
                engine,
                edits_applied: 0,
                source: source.to_owned(),
                history: Vec::new(),
                journal: jrnl,
                journal_dead,
                names: SessionRenderer::new(),
            })),
            last_used: clock_tick(shared),
        },
    );
    match degraded_note {
        None => (
            resp_open(id, session, procs, sites, vars, false, None),
            Status::Ok,
        ),
        Some(note) => (
            resp_open(id, session, procs, sites, vars, false, Some(&note)),
            Status::Degraded,
        ),
    }
}

/// The `open` response for a session that was resurrected rather than
/// analysed fresh.
fn resurrected_open_reply(id: u64, session: &str, slot: &Arc<Mutex<Session>>) -> (String, Status) {
    let state = relock(slot);
    let p = state.engine.program();
    let (procs, sites, vars) = (p.num_procs(), p.num_sites(), p.num_vars());
    let dead = state.journal_dead;
    drop(state);
    if dead {
        (
            resp_open(
                id,
                session,
                procs,
                sites,
                vars,
                true,
                Some("session is not durable (its journal failed)"),
            ),
            Status::Degraded,
        )
    } else {
        (
            resp_open(id, session, procs, sites, vars, true, None),
            Status::Ok,
        )
    }
}

fn close_session(shared: &Shared, id: u64, session: &str) -> (String, Status) {
    let removed = relock(&shared.sessions).remove(session);
    match removed {
        Some(slot) => {
            // Dropping the slot closes any journal fd before the unlink.
            drop(slot);
            if let Some(dir) = &shared.cfg.state_dir {
                let _ = std::fs::remove_file(journal::path_for(dir, session));
            }
            (resp_close(id, session), Status::Ok)
        }
        None => {
            // A journal on disk but not in the table (skipped during a
            // faulted recovery): `close` still disposes of it.
            if let Some(dir) = &shared.cfg.state_dir {
                let path = journal::path_for(dir, session);
                if path.exists() {
                    let _ = std::fs::remove_file(&path);
                    return (resp_close(id, session), Status::Ok);
                }
            }
            (
                resp_error(Some(id), &format!("unknown session `{session}`")),
                Status::Error,
            )
        }
    }
}

/// Resolves `session` and runs `body` with its live slot, bumping the
/// LRU stamp; a parked session is transparently resurrected first.
/// Unknown names are error responses (never dropped connections).
fn with_session<F>(
    shared: &Shared,
    id: u64,
    op: &str,
    session: &str,
    guard: &Guard,
    body: F,
) -> (String, Status)
where
    F: FnOnce(&Arc<Mutex<Session>>) -> (String, Status),
{
    let mut sessions = relock(&shared.sessions);
    let parked = matches!(sessions.get(session), Some(Slot::Parked(_)));
    let slot = if parked {
        match resurrect(shared, &mut sessions, session, id, guard) {
            Ok(slot) => slot,
            Err(pair) => return pair,
        }
    } else {
        match sessions.get_mut(session) {
            Some(Slot::Live {
                session: arc,
                last_used,
            }) => {
                *last_used = shared.use_clock.fetch_add(1, Ordering::Relaxed);
                Arc::clone(arc)
            }
            _ => {
                return (
                    resp_error(Some(id), &format!("unknown session `{session}` (op {op})")),
                    Status::Error,
                )
            }
        }
    };
    drop(sessions);
    body(&slot)
}

fn edit_session(
    shared: &Shared,
    env: &Envelope,
    guard: &Guard,
    session: &str,
    slot: &Arc<Mutex<Session>>,
    script_text: &str,
) -> (String, Status) {
    let id = env.id;
    let script = match Script::parse(script_text) {
        Ok(s) => s,
        Err(e) => return (resp_error(Some(id), &e.to_string()), Status::Error),
    };
    let mut state = relock(slot);
    // The session checkpoint runs with the lock held but before the
    // engine is touched: an injected panic here leaves the engine intact
    // for the conservative-query fallback.
    if let Err(interrupt) = guard.checkpoint("serve.session") {
        drop(state);
        return degraded_before_work(shared, env, interrupt);
    }
    let mut applied = 0usize;
    for step in script.steps() {
        let edit = match step.resolve(state.engine.program()) {
            Ok(e) => e,
            Err(e) => {
                return (
                    resp_error(Some(id), &format!("{e} ({applied} steps applied)")),
                    Status::Error,
                )
            }
        };
        let outcome = match state.engine.apply_guarded(&edit, guard) {
            Err(e) => {
                return (
                    resp_error(
                        Some(id),
                        &format!(
                            "script line {}: edit rejected: {e} ({applied} steps applied)",
                            step.line
                        ),
                    ),
                    Status::Error,
                )
            }
            Ok(outcome) => outcome,
        };
        // The edit is committed to the program (even a degraded apply):
        // record it in the history and the journal before anything else
        // can happen to this session.
        applied += 1;
        state.edits_applied += 1;
        let line = script_text
            .lines()
            .nth(step.line - 1)
            .unwrap_or_default()
            .to_owned();
        state.history.push(line.clone());
        let journaled = journal_edit(shared, guard, &mut state, &line);
        match outcome {
            IncrOutcome::Clean(_) => {
                if let Err(reason) = journaled {
                    // Applied, but durability is gone: say so and stop —
                    // the client knows exactly which prefix is on disk.
                    return (
                        resp_edit(
                            id,
                            session,
                            applied,
                            Some(&format!("applied but no longer durable: {reason}")),
                        ),
                        Status::Degraded,
                    );
                }
            }
            IncrOutcome::Degraded { reason } => {
                // The edit is in the program; the results are the sound
                // widened fallback until the next clean apply rebuilds.
                let mut reason = reason.to_string();
                if let Err(jr) = journaled {
                    reason.push_str(&format!("; also: {jr}"));
                }
                return (
                    resp_edit(id, session, applied, Some(&reason)),
                    Status::Degraded,
                );
            }
        }
    }
    (resp_edit(id, session, applied, None), Status::Ok)
}

fn query_session(
    env: &Envelope,
    guard: &Guard,
    session: &str,
    slot: &Arc<Mutex<Session>>,
    target: &crate::proto::QueryTarget,
) -> (String, Status) {
    use crate::proto::QueryTarget;
    let id = env.id;
    let mut state = relock(slot);
    if let Err(interrupt) = guard.checkpoint("serve.session") {
        let reason = interrupt.to_string();
        let program = state.engine.program();
        return match conservative_report(program, target) {
            Some(report) => (
                resp_query(id, session, Some(&reason), &report),
                Status::Degraded,
            ),
            None => (
                resp_error(Some(id), &bad_target_message(program, target)),
                Status::Error,
            ),
        };
    }
    // Point queries go through the query engine: a Full session reads
    // its cache, a lazy session resolves the slice on demand (and may
    // answer degraded *for this query only* if the guard trips mid-walk).
    // `target=all` promotes a lazy session to Full first.
    let state = &mut *state;
    let (report, note): (String, Option<String>) = match target {
        QueryTarget::All => {
            let sets = state.engine.all_sets();
            let note = state
                .engine
                .holds_degraded()
                .then(|| "session holds degraded (sound, widened) results".to_owned());
            (render_json(state.engine.program(), &sets), note)
        }
        QueryTarget::Site(n) => {
            if *n >= state.engine.program().num_sites() {
                return (
                    resp_error(
                        Some(id),
                        &bad_target_message(state.engine.program(), target),
                    ),
                    Status::Error,
                );
            }
            let s = CallSiteId::new(*n);
            let out = state.engine.site_answer(s, guard);
            let a = out.answer;
            let program = state.engine.program();
            let report = state
                .names
                .site_answer(program, s, &a.mods, &a.uses, &a.dmod);
            (report, out.degraded)
        }
        QueryTarget::Proc(name) => match find_proc(state.engine.program(), name) {
            Some(p) => {
                let out = state.engine.proc_answer(p, guard);
                let a = out.answer;
                let program = state.engine.program();
                let report = state.names.proc_answer(program, name, &a.gmod, &a.guse);
                (report, out.degraded)
            }
            None => {
                return (
                    resp_error(
                        Some(id),
                        &bad_target_message(state.engine.program(), target),
                    ),
                    Status::Error,
                )
            }
        },
    };
    match note {
        Some(reason) => (
            resp_query(id, session, Some(&reason), &report),
            Status::Degraded,
        ),
        None => (resp_query(id, session, None, &report), Status::Ok),
    }
}

fn bad_target_message(program: &Program, target: &crate::proto::QueryTarget) -> String {
    use crate::proto::QueryTarget;
    match target {
        QueryTarget::All => unreachable!("`all` always resolves"),
        QueryTarget::Site(n) => format!(
            "call site {n} out of range (program has {})",
            program.num_sites()
        ),
        QueryTarget::Proc(name) => format!("unknown procedure `{name}`"),
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let c = &shared.counters;
    let (live, parked) = {
        let sessions = relock(&shared.sessions);
        sessions.values().fold((0, 0), |(l, p), slot| match slot {
            Slot::Live { .. } => (l + 1, p),
            Slot::Parked(_) => (l, p + 1),
        })
    };
    StatsSnapshot {
        sessions: live,
        parked,
        connections: c.connections.load(Ordering::Relaxed),
        requests: c.requests.load(Ordering::Relaxed),
        ok: c.ok.load(Ordering::Relaxed),
        degraded: c.degraded.load(Ordering::Relaxed),
        errors: c.errors.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
        recoveries: c.recoveries.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
        journal_bytes: c.journal_bytes.load(Ordering::Relaxed),
        latency_total_us: c.latency_total_us.load(Ordering::Relaxed),
        latency_max_us: c.latency_max_us.load(Ordering::Relaxed),
        per_op: std::array::from_fn(|i| c.per_op[i].load(Ordering::Relaxed)),
    }
}
