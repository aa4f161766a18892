//! `editor_nested` and `browse_lazy`: sessions served over loopback by a
//! child `serve` process, driven by one closed-loop client.
//!
//! An op is one `edit` request (the write) followed by a screen of K
//! `query` requests (the read); the K query times are summed into one
//! read sample. The two workloads share the session, edit and query
//! layers and differ in where the work lands: an eager session pays for
//! analysis on each edit, a lazy one on each query.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use modref_core::{Guard, SetRepr, Trace};
use modref_incr::render::{render_json_proc, render_json_site_answer};
use modref_incr::{AnyQueryEngine, IncrOutcome, Script};
use modref_ir::CallSiteId;
use modref_serve::proto::{resp_edit, resp_query};
use modref_serve::{
    encode_frame, read_frame, write_frame, Envelope, FsyncPolicy, Journal, JournalRecord,
    QueryTarget, Request, Response, Status,
};

use crate::check::{self, Answers};
use crate::child::ServeChild;
use crate::inputs::{self, Cycle, Op};
use crate::layers::{analyzer, decomposed};
use crate::spans::Recorder;
use crate::util::{derive, median, op_medians, percentile, Metrics, Tally, Yardstick};
use crate::{layer_metrics, print_layer_shares, SETUP_REPEATS};

/// Which served workload.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub lazy: bool,
    /// K, the queries per op.
    pub screen: usize,
    /// Programs a run serves, one session each, all open on the same
    /// server; ops take the sessions in turn. Editor programs differ in
    /// structural-edit cost even inside the alias band (`op_ms_p90` moved
    /// ±15% between seeds with one program per run), so an editor run
    /// pools three.
    pub programs: u64,
    /// Ops in each program's cycle (see `inputs::Cycle`). The distinct
    /// ops of a run, `programs × cycle`, are at least 100, so that ten
    /// lie beyond `op_ms_p90`.
    pub cycle: usize,
}

pub const EDITOR: Kind = Kind {
    lazy: false,
    screen: 32,
    programs: 3,
    cycle: 34,
};
pub const BROWSE: Kind = Kind {
    lazy: true,
    screen: 8,
    programs: 1,
    cycle: 100,
};

/// Every this-many ops of a session (and its last op), answers are kept
/// and checked against a scratch analysis.
const CHECK_EVERY: usize = 16;

/// The session serving program `k`.
fn session(k: usize) -> String {
    format!("bench{k}")
}

impl Kind {
    /// Program `k`; it does not depend on the run's seed (see
    /// `inputs::editor_program`).
    fn source(&self, k: u64) -> String {
        if self.lazy {
            inputs::browse_program()
        } else {
            inputs::editor_program(k)
        }
    }

    fn cycle(&self, program: &modref_ir::Program, seed: u64, k: u64) -> Cycle {
        inputs::cycle(
            program,
            derive(seed, 7 + k),
            self.cycle,
            self.screen,
            self.lazy,
        )
    }
}

/// One client connection speaking the framed protocol, counting bytes.
struct Wire {
    stream: TcpStream,
    next_id: u64,
    sent: u64,
    received: u64,
}

impl Wire {
    fn connect(child: &ServeChild) -> Result<Wire, String> {
        let stream = TcpStream::connect(child.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Wire {
            stream,
            next_id: 1,
            sent: 0,
            received: 0,
        })
    }

    fn call(&mut self, request: Request) -> Result<Response, String> {
        let env = Envelope {
            id: self.next_id,
            request,
            budget_ops: None,
            timeout_ms: None,
        };
        self.next_id += 1;
        let payload = env.render();
        write_frame(&mut self.stream, payload.as_bytes()).map_err(|e| e.to_string())?;
        let reply = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        self.sent += payload.len() as u64 + 4;
        self.received += reply.len() as u64 + 4;
        Response::parse(&reply)
    }

    fn stats_field(&mut self, key: &str) -> Result<u64, String> {
        self.call(Request::Stats)?
            .uint_field(key)
            .ok_or_else(|| format!("stats lacks `{key}`"))
    }

    fn open(&mut self, k: usize, source: &str, lazy: bool) -> Result<(), String> {
        let resp = self.call(Request::Open {
            session: session(k),
            program: source.to_owned(),
            lazy,
        })?;
        if resp.status != Status::Ok {
            return Err(format!("open failed: {:?}", resp.body));
        }
        Ok(())
    }
}

/// Spawns a server and opens a session per program: one complete set-up.
fn set_up(kind: Kind, sources: &[String]) -> Result<(ServeChild, Wire, f64), String> {
    let t = Instant::now();
    let child = ServeChild::spawn()?;
    let mut wire = Wire::connect(&child)?;
    for (k, source) in sources.iter().enumerate() {
        wire.open(k, source, kind.lazy)?;
    }
    Ok((child, wire, t.elapsed().as_secs_f64()))
}

/// A complete set-up on a child of its own, which is stopped again; its
/// time scaled by the yardstick.
fn spare_set_up(kind: Kind, sources: &[String], yardstick: &mut Yardstick) -> Result<f64, String> {
    let (child, wire, secs) = set_up(kind, sources)?;
    let scaled = secs * yardstick.measure();
    drop(wire);
    child.finish()?;
    Ok(scaled)
}

/// Everything one session was sent, the priming edits first, with each
/// op's status and the answers kept for checking.
#[derive(Default)]
struct SessionLog {
    ops: Vec<Op>,
    status_ok: Vec<bool>,
    kept: Vec<Answers>,
}

/// Sends session `k` its cycle's priming edits, untimed.
fn prime(wire: &mut Wire, k: usize, cycle: &Cycle) -> Result<SessionLog, String> {
    let mut log = SessionLog::default();
    for edit in &cycle.priming {
        let resp = wire.call(Request::Edit {
            session: session(k),
            script: edit.clone(),
        })?;
        log.ops.push(Op {
            edit: edit.clone(),
            queries: Vec::new(),
        });
        log.status_ok.push(resp.status == Status::Ok);
    }
    Ok(log)
}

/// One timed op: which distinct op it was (session and cycle position,
/// numbered across sessions), how long its parts took, and the host-speed
/// factor measured right after it.
struct Timed {
    op: usize,
    write_ms: f64,
    read_ms: f64,
    factor: f64,
}

/// Runs closed-loop ops for `seconds`, and at least one whole pass of
/// every cycle: the sessions take turns, each replaying its cycle.
/// Before each op, `between` gets the seconds run so far; the time it
/// takes does not count.
fn client_loop(
    wire: &mut Wire,
    cycles: &[Cycle],
    logs: &mut [SessionLog],
    yardstick: &mut Yardstick,
    seconds: f64,
    mut between: impl FnMut(f64, &mut Yardstick) -> Result<(), String>,
) -> Result<Vec<Timed>, String> {
    let mut timed = Vec::new();
    let mut done = vec![0usize; cycles.len()];
    let mut last: Vec<Option<Answers>> = cycles.iter().map(|_| None).collect();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut turn = 0;
    while (start.elapsed() - paused).as_secs_f64() < seconds
        || done.iter().zip(cycles).any(|(n, c)| *n < c.ops.len())
    {
        let t = Instant::now();
        between((start.elapsed() - paused).as_secs_f64(), yardstick)?;
        paused += t.elapsed();
        let k = turn % cycles.len();
        turn += 1;
        let pos = done[k] % cycles[k].ops.len();
        done[k] += 1;
        let op = &cycles[k].ops[pos];
        let t0 = Instant::now();
        let edit = wire.call(Request::Edit {
            session: session(k),
            script: op.edit.clone(),
        })?;
        let t1 = Instant::now();
        let mut ok = edit.status == Status::Ok;
        let mut reports = Vec::with_capacity(op.queries.len());
        for q in &op.queries {
            let resp = wire.call(Request::Query {
                session: session(k),
                target: q.clone(),
            })?;
            ok &= resp.status == Status::Ok;
            reports.push(resp);
        }
        let t2 = Instant::now();
        timed.push(Timed {
            op: cycles[..k].iter().map(|c| c.ops.len()).sum::<usize>() + pos,
            write_ms: (t1 - t0).as_secs_f64() * 1e3,
            read_ms: (t2 - t1).as_secs_f64() * 1e3,
            factor: yardstick.measure(),
        });
        let log = &mut logs[k];
        let i = log.ops.len();
        let answers = keep(i, &reports);
        if done[k].is_multiple_of(CHECK_EVERY) {
            log.kept.push(answers);
            last[k] = None;
        } else {
            last[k] = Some(answers);
        }
        log.ops.push(op.clone());
        log.status_ok.push(ok);
    }
    // Every session's last op is checked too.
    for (log, last) in logs.iter_mut().zip(last) {
        log.kept.extend(last);
    }
    Ok(timed)
}

fn keep(op: usize, reports: &[Response]) -> Answers {
    Answers {
        op,
        reports: reports
            .iter()
            .map(|r| r.str_field("report").unwrap_or("").to_owned())
            .collect(),
    }
}

/// Counts each op as ok only if every request was `ok` and, at
/// checkpoints, its answers matched the scratch analysis.
fn tally_ops(source: &str, log: &SessionLog) -> Result<Tally, String> {
    let bad = check::served_answers(source, &log.ops, &log.kept)?;
    let mut tally = Tally::default();
    for (i, ok) in log.status_ok.iter().enumerate() {
        tally.record(*ok && bad.binary_search(&i).is_err());
    }
    Ok(tally)
}

/// The untraced run: the seven end-to-end metrics over the distinct ops
/// of every program's cycle, each timed by its median repetition, scaled
/// to the reference host by the yardstick.
pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Result<(Metrics, Tally), String> {
    let sources: Vec<String> = (0..kind.programs).map(|k| kind.source(k)).collect();
    let mut cycles = Vec::new();
    for (k, source) in sources.iter().enumerate() {
        cycles.push(kind.cycle(&check::parse(source)?, seed, k as u64));
    }
    // The first set-up serves the run. The others, each on a child of its
    // own that is stopped again, are spread over the run: within one run
    // a set-up's time varies by up to 2x, and the yardstick does not
    // follow it, so set-ups bunched at the start sample only the host's
    // first seconds.
    let mut yardstick = Yardstick::default();
    let (child, mut wire, secs) = set_up(kind, &sources)?;
    let mut setups = vec![secs * yardstick.measure()];
    let mut logs = Vec::new();
    for (k, cycle) in cycles.iter().enumerate() {
        logs.push(prime(&mut wire, k, cycle)?);
    }
    let timed = client_loop(
        &mut wire,
        &cycles,
        &mut logs,
        &mut yardstick,
        seconds,
        |elapsed, yardstick| {
            if setups.len() < SETUP_REPEATS
                && elapsed * SETUP_REPEATS as f64 >= seconds * setups.len() as f64
            {
                setups.push(spare_set_up(kind, &sources, yardstick)?);
            }
            Ok(())
        },
    )?;
    while setups.len() < SETUP_REPEATS {
        setups.push(spare_set_up(kind, &sources, &mut yardstick)?);
    }
    drop(wire);
    let peak_kb = child.finish()?;
    let mut tally = Tally::default();
    for (source, log) in sources.iter().zip(&logs) {
        tally.absorb(tally_ops(source, log)?);
    }
    let distinct: usize = cycles.iter().map(|c| c.ops.len()).sum();
    let scaled = |part: fn(&Timed) -> f64| {
        op_medians(timed.iter().map(|t| (t.op, part(t) * t.factor)), distinct)
    };
    let op_ms = scaled(|t| t.write_ms + t.read_ms);
    let write_ms = scaled(|t| t.write_ms);
    let read_ms = scaled(|t| t.read_ms);
    let factors: Vec<f64> = timed.iter().map(|t| t.factor).collect();
    let raw = op_medians(
        timed.iter().map(|t| (t.op, t.write_ms + t.read_ms)),
        distinct,
    );
    println!(
        "unscaled op p50 {:.3} ms, p90 {:.3} ms",
        median(&raw),
        percentile(&raw, 0.9)
    );
    println!(
        "ops {} (K = {} queries each), {distinct} distinct over {} program(s), {:.1} passes, set-ups {}, checkpoints {}, median host factor {:.3}",
        timed.len(),
        kind.screen,
        kind.programs,
        timed.len() as f64 / distinct as f64,
        setups.len(),
        logs.iter().map(|l| l.kept.len()).sum::<usize>(),
        median(&factors)
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    m.set("op_ms_p50", median(&op_ms), "ms");
    m.set("op_ms_p90", percentile(&op_ms, 0.9), "ms");
    m.set("write_ms_p50", median(&write_ms), "ms");
    m.set("read_ms_p50", median(&read_ms), "ms");
    m.set("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    m.set("ok_rate", tally.ok_rate(), "ratio");
    Ok((m, tally))
}

/// Per-op counts the in-process replay collects from public return values.
#[derive(Default)]
struct OpCounts {
    demand_ops: u64,
    answer_bytes: u64,
    answer_heap: u64,
    gmod_recomputed: u64,
    gmod_total: u64,
    sites_recomputed: u64,
    sites_total: u64,
    sites_changed: u64,
}

/// Encodes a request as the client would and decodes it as the server
/// would: the codec share of a round trip.
fn wire_in(request: Request) -> Envelope {
    let env = Envelope {
        id: 1,
        request,
        budget_ops: None,
        timeout_ms: None,
    };
    let frame = encode_frame(env.render().as_bytes()).expect("request fits a frame");
    Envelope::parse(&frame[4..]).expect("request round-trips")
}

fn wire_out(response: &str) {
    let frame = encode_frame(response.as_bytes()).expect("response fits a frame");
    Response::parse(&frame[4..]).expect("response round-trips");
}

/// One op replayed in-process through each layer's public functions, in
/// the order the server calls them. Returns the query reports.
fn replay_op(
    rec: &mut Recorder,
    engine: &mut AnyQueryEngine,
    journal: &mut Journal,
    op: &Op,
    lazy: bool,
    counts: &mut OpCounts,
) -> Result<Vec<String>, String> {
    let guard = Guard::unlimited();
    rec.span("op", |rec| {
        rec.span("write", |rec| {
            rec.span("serve.wire", |_| {
                wire_in(Request::Edit {
                    session: session(0),
                    script: op.edit.clone(),
                })
            });
            let edit = rec.span("incr.script", |_| {
                Script::parse(&op.edit)
                    .map_err(|e| e.to_string())
                    .and_then(|s| {
                        s.steps()[0]
                            .resolve(engine.program())
                            .map_err(|e| e.to_string())
                    })
            })?;
            let layer = if lazy { "ir.apply_edit" } else { "incr.apply" };
            let outcome = rec
                .span(layer, |_| engine.apply_guarded(&edit, &guard))
                .map_err(|e| e.to_string())?;
            let IncrOutcome::Clean(delta) = outcome else {
                return Err("edit degraded".to_owned());
            };
            if let AnyQueryEngine::Dense(qe) = engine {
                if let Some(e) = qe.engine() {
                    let s = e.stats();
                    counts.gmod_recomputed += s.gmod_components_recomputed as u64;
                    counts.gmod_total +=
                        (s.gmod_components_recomputed + s.gmod_components_reused) as u64;
                    counts.sites_recomputed += s.sites_recomputed as u64;
                    counts.sites_total += (s.sites_recomputed + s.sites_reused) as u64;
                    counts.sites_changed += delta.changed_sites.len() as u64;
                }
            }
            rec.span("serve.journal", |_| {
                journal.append(&JournalRecord::Edit {
                    line: op.edit.clone(),
                })?;
                journal.commit()
            })
            .map_err(|e| format!("journal: {e}"))?;
            rec.span("serve.wire", |_| {
                wire_out(&resp_edit(1, &session(0), 1, None))
            });
            Ok(())
        })?;
        rec.span("read", |rec| {
            let mut reports = Vec::with_capacity(op.queries.len());
            let lookup = if lazy {
                "core.demand.query"
            } else {
                "incr.query"
            };
            for q in &op.queries {
                let env = rec.span("serve.wire", |_| {
                    wire_in(Request::Query {
                        session: session(0),
                        target: q.clone(),
                    })
                });
                let Request::Query { target, .. } = env.request else {
                    return Err("query did not round-trip".to_owned());
                };
                let report = match target {
                    QueryTarget::Site(n) => {
                        let s = CallSiteId::new(n);
                        let out = rec.span(lookup, |_| engine.site_answer(s, &guard));
                        counts.demand_ops += out.ops.bitvec_steps + out.ops.bool_steps;
                        let a = out.answer;
                        counts.answer_heap += [&a.mods, &a.uses, &a.dmod]
                            .iter()
                            .map(|b| modref_bitset::EffectSet::heap_bytes(*b) as u64)
                            .sum::<u64>();
                        rec.span("incr.render.answer", |_| {
                            render_json_site_answer(engine.program(), s, &a.mods, &a.uses, &a.dmod)
                        })
                    }
                    QueryTarget::Proc(name) => {
                        let out = rec.span(lookup, |_| {
                            let p = engine
                                .program()
                                .procs()
                                .find(|&p| engine.program().proc_name(p) == name);
                            p.map(|p| engine.proc_answer(p, &guard))
                        });
                        let out = out.ok_or_else(|| format!("unknown procedure {name}"))?;
                        counts.demand_ops += out.ops.bitvec_steps + out.ops.bool_steps;
                        let a = out.answer;
                        counts.answer_heap += [&a.gmod, &a.guse]
                            .iter()
                            .map(|b| modref_bitset::EffectSet::heap_bytes(*b) as u64)
                            .sum::<u64>();
                        rec.span("incr.render.answer", |_| {
                            render_json_proc(engine.program(), &name, &a.gmod, &a.guse)
                        })
                    }
                    QueryTarget::All => return Err("the workloads never query `all`".to_owned()),
                };
                counts.answer_bytes += report.len() as u64;
                rec.span("serve.wire", |_| {
                    wire_out(&resp_query(1, &session(0), None, &report))
                });
                reports.push(report);
            }
            Ok(reports)
        })
    })
}

/// The traced run. Phase A replays the op sequence in-process, layer by
/// layer, alternating traced and untraced ops; phase B replays it over
/// the wire against a served child to time the `serve` layer from
/// outside (round trip, and server-side busy time from `stats`).
pub fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace_out: &Path,
) -> Result<(Metrics, Tally), String> {
    let source = kind.source(0);
    let mut m = layer_metrics();
    let mut tally = Tally::default();
    let mut rec = Recorder::new();

    // Set-up, op 0.
    let program = rec.span("frontend.parse", |_| check::parse(&source))?;
    m.set("frontend.source_kb", source.len() as f64 / 1024.0, "KB");
    if !kind.lazy {
        let d = decomposed(&mut rec, &program);
        let summary = analyzer().analyze(&program);
        let same = crate::batch::same_report(&program, &d, &summary);
        tally.record(same);
        m.set("binding.beta_nodes", d.beta_nodes as f64, "count");
        m.set("binding.beta_edges", d.beta_edges as f64, "count");
        m.set("core.alias_pairs", d.alias_pairs as f64, "count");
        let (bv, bo) = d.counts.steps();
        m.set("core.bitvec_steps", bv as f64, "count");
        m.set("core.bool_steps", bo as f64, "count");
        m.set(
            "bitset.heap_mb",
            d.heap_bytes as f64 / (1 << 20) as f64,
            "MB",
        );
    }
    let mut engine = rec.span("incr.open", |_| {
        if kind.lazy {
            AnyQueryEngine::new_lazy_with(
                program.clone(),
                Some(1),
                Trace::disabled(),
                SetRepr::Dense,
            )
        } else {
            AnyQueryEngine::new_full_with(&analyzer(), program.clone(), SetRepr::Dense)
        }
    });
    let journal_dir = PathBuf::from("perfbench/.run").join(format!("trace-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let mut journal = rec
        .span("serve.journal", |_| {
            let mut j = Journal::create(&journal_dir, &session(0), FsyncPolicy::Never)?;
            j.append(&JournalRecord::Snapshot {
                session: session(0),
                program: source.clone(),
            })?;
            j.commit().map(|()| j)
        })
        .map_err(|e| format!("journal: {e}"))?;
    let setup = rec.self_ms(|op| op == 0);
    for (span, metric) in [
        ("frontend.parse", "frontend.parse_ms"),
        ("ir.local_effects", "ir.local_effects_ms"),
        ("binding.build", "binding.build_ms"),
        ("binding.rmod", "binding.rmod_ms"),
        ("core.imod_plus", "core.imod_plus_ms"),
        ("core.gmod", "core.gmod_ms"),
        ("core.dmod", "core.dmod_ms"),
        ("core.alias", "core.alias_ms"),
        ("core.modsets", "core.modsets_ms"),
    ] {
        m.set(metric, setup.get(span).copied().unwrap_or(0.0), "ms");
    }

    // Phase A: in-process, the priming untraced and uncounted, then the
    // cycle with every other op traced. The parity flips each pass, so
    // each op of the cycle runs traced and untraced in turn.
    let cycle = kind.cycle(&program, seed, 0);
    let mut log = SessionLog::default();
    rec.on = false;
    for edit in &cycle.priming {
        let op = Op {
            edit: edit.clone(),
            queries: Vec::new(),
        };
        replay_op(
            &mut rec,
            &mut engine,
            &mut journal,
            &op,
            kind.lazy,
            &mut OpCounts::default(),
        )?;
        log.ops.push(op);
    }
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut counts = OpCounts::default();
    let start = Instant::now();
    let phase_a = seconds / 2.0;
    let mut i = 0;
    while start.elapsed().as_secs_f64() < phase_a {
        let (pass, pos) = (i / cycle.ops.len(), i % cycle.ops.len());
        let op = &cycle.ops[pos];
        rec.set_op(i as u64 + 1);
        rec.on = (pass + pos) % 2 == 0;
        let t = Instant::now();
        let reports = replay_op(
            &mut rec,
            &mut engine,
            &mut journal,
            op,
            kind.lazy,
            &mut counts,
        )?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if rec.on {
            traced_ms.push((pos, ms))
        } else {
            plain_ms.push((pos, ms))
        }
        i += 1;
        if i % CHECK_EVERY == 0 || start.elapsed().as_secs_f64() >= phase_a {
            log.kept.push(Answers {
                op: log.ops.len(),
                reports,
            });
        }
        log.ops.push(op.clone());
    }
    rec.on = true;
    log.status_ok = vec![true; log.ops.len()];
    tally.absorb(tally_ops(&source, &log)?);
    let _ = std::fs::remove_dir_all(&journal_dir);

    let n_traced = traced_ms.len().max(1) as f64;
    let n_ops = i.max(1) as f64;
    let per_op = rec.self_ms(|op| op >= 1);
    let layer = |name: &str| per_op.get(name).copied().unwrap_or(0.0) / n_traced;
    m.set("ir.apply_edit_ms", layer("ir.apply_edit"), "ms");
    m.set("incr.apply_ms", layer("incr.apply"), "ms");
    m.set("incr.script_ms", layer("incr.script"), "ms");
    m.set("incr.query_ms", layer("incr.query"), "ms");
    m.set("core.demand.query_ms", layer("core.demand.query"), "ms");
    m.set("incr.render.answer_ms", layer("incr.render.answer"), "ms");
    m.set("serve.wire_ms", layer("serve.wire"), "ms");
    m.set("serve.journal_ms", layer("serve.journal"), "ms");
    m.set("core.demand.ops", counts.demand_ops as f64 / n_ops, "count");
    m.set(
        "incr.render.answer_kb",
        counts.answer_bytes as f64 / 1024.0 / n_ops,
        "KB",
    );
    if kind.lazy {
        m.set(
            "bitset.heap_mb",
            counts.answer_heap as f64 / n_ops / (1 << 20) as f64,
            "MB",
        );
    } else {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.set(
            "incr.gmod_recompute_ratio",
            ratio(counts.gmod_recomputed, counts.gmod_total),
            "ratio",
        );
        m.set(
            "incr.sites_recompute_ratio",
            ratio(counts.sites_recomputed, counts.sites_total),
            "ratio",
        );
        m.set(
            "incr.useful_ratio",
            ratio(counts.sites_changed, counts.sites_recomputed),
            "ratio",
        );
    }
    let op_total = rec.total_ms("op", |op| op >= 1);
    let glue = ["op", "write", "read"]
        .iter()
        .map(|s| per_op.get(s).copied().unwrap_or(0.0))
        .sum::<f64>();
    m.set(
        "trace.unattributed_pct",
        100.0 * glue / op_total.max(f64::MIN_POSITIVE),
        "%",
    );
    // Over the ops timed both ways: the sum of their median traced times
    // against the sum of their median untraced times.
    let both = |samples: &[(usize, f64)]| -> Vec<f64> {
        let mut per_op = vec![Vec::new(); cycle.ops.len()];
        for &(pos, ms) in samples {
            per_op[pos].push(ms);
        }
        per_op
            .iter()
            .map(|v| if v.is_empty() { f64::NAN } else { median(v) })
            .collect()
    };
    let (on, off) = (both(&traced_ms), both(&plain_ms));
    let timed_both = || {
        on.iter()
            .zip(&off)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
    };
    m.set(
        "trace.overhead_pct",
        100.0
            * (timed_both().map(|p| p.0).sum::<f64>() / timed_both().map(|p| p.1).sum::<f64>()
                - 1.0),
        "%",
    );
    print_layer_shares(&per_op, op_total);

    // Phase B: the same op sequence over the wire.
    let t = Instant::now();
    let child = ServeChild::spawn()?;
    let mut wire = Wire::connect(&child)?;
    wire.open(0, &source, kind.lazy)?;
    m.set("serve.open_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let mut logs = vec![prime(&mut wire, 0, &cycle)?];
    let busy0 = wire.stats_field("latency_total_us")?;
    let journal0 = wire.stats_field("journal_bytes")?;
    let (sent0, recv0) = (wire.sent, wire.received);
    let run = client_loop(
        &mut wire,
        std::slice::from_ref(&cycle),
        &mut logs,
        &mut Yardstick::default(),
        seconds - phase_a,
        |_, _| Ok(()),
    )?;
    let (sent, recv) = (wire.sent - sent0, wire.received - recv0);
    let busy_ms = (wire.stats_field("latency_total_us")? - busy0) as f64 / 1e3;
    let journal = wire.stats_field("journal_bytes")? - journal0;
    drop(wire);
    child.finish()?;
    tally.absorb(tally_ops(&source, &logs[0])?);
    let n = run.len().max(1) as f64;
    let roundtrip = run.iter().map(|t| t.write_ms + t.read_ms).sum::<f64>() / n;
    m.set("serve.roundtrip_ms", roundtrip, "ms");
    m.set("serve.busy_ms", busy_ms / n, "ms");
    m.set("serve.wait_ms", roundtrip - busy_ms / n, "ms");
    m.set("serve.request_kb", sent as f64 / 1024.0 / n, "KB");
    m.set("serve.response_kb", recv as f64 / 1024.0 / n, "KB");
    m.set("serve.journal_kb", journal as f64 / 1024.0 / n, "KB");
    println!(
        "traced ops {i} (phase A, {} traced), wire ops {} (phase B), cycle of {} ops",
        traced_ms.len(),
        run.len(),
        cycle.ops.len()
    );
    rec.write_chrome(trace_out)
        .map_err(|e| format!("cannot write trace: {e}"))?;
    Ok((m, tally))
}
