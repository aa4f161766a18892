//! Concurrency soak wall: many scripted clients × many sessions against
//! one live in-process server, every answer checked against a scratch
//! [`Analyzer`] oracle.
//!
//! Eight client threads each drive two sessions (16 sessions total)
//! through interleaved `open` / `edit` / `query` rounds over one shared
//! server. Each thread keeps a *replica* [`Program`] per session and
//! pushes the same textual edit scripts through the same
//! `Script::parse → resolve → apply_edit` path the server uses, so after
//! every round the server's `query all` / `query site` / `query proc`
//! reports must be **byte-identical** to rendering a from-scratch
//! analysis of the replica. `scripts/ci.sh` runs this at
//! `MODREF_THREADS=1` and `=4`; failures replay with
//! `MODREF_SEED=<seed> cargo test -p modref-serve --test soak`.

use std::sync::Barrier;

use modref_bitset::BitSet;
use modref_check::Rng;
use modref_core::Analyzer;
use modref_frontend::parse_program;
use modref_incr::render::{render_json, render_json_site, SiteSets};
use modref_incr::Script;
use modref_ir::{CallSiteId, ProcId, Program, VarId};
use modref_serve::{Client, QueryTarget, Request, RetryPolicy, Server, ServerConfig, Status};
use modref_trace::escape_json;

const CLIENTS: usize = 8;
const SESSIONS_PER_CLIENT: usize = 2; // 16 sessions server-wide
const ROUNDS: usize = 5;
const MAX_STEPS_PER_ROUND: usize = 3;

/// Four program shapes: nested-with-arrays, a call chain, Pascal-style
/// nesting with reference aliasing, and a flat fortran-like graph.
const SOURCES: [&str; 4] = [
    "var total, count, grid[*, *];\n\
     proc bump(x, amount) {\n  x = x + amount;\n  count = count + 1;\n}\n\
     proc zero_row(row[*], n) {\n  var j;\n  j = 0;\n  while (j < n) { row[j] = 0; j = j + 1; }\n}\n\
     main {\n  var i;\n  call bump(total, value 5);\n  i = 0;\n  while (i < 3) { call zero_row(grid[i, *], value 3); i = i + 1; }\n}\n",
    "var g1, g2, g3;\n\
     proc inc(x) {\n  x = x + g1;\n  g2 = g2 + 1;\n}\n\
     proc twice(y) {\n  call inc(y);\n  call inc(g3);\n}\n\
     main {\n  var t;\n  t = 0;\n  call inc(g1);\n  call twice(g2);\n  g3 = t;\n}\n",
    "var a, b, c;\n\
     proc outer(p) {\n  proc inner() {\n    a = a + p;\n  }\n  call inner();\n  b = p;\n}\n\
     main {\n  call outer(a);\n  call outer(value 2);\n  c = a + b;\n}\n",
    "var u, v, w, z;\n\
     proc f1() { u = v; }\n\
     proc f2() { v = w; }\n\
     proc f3() { w = z; call f1(); }\n\
     proc f4() { z = u; call f2(); }\n\
     main {\n  call f1();\n  call f2();\n  call f3();\n  call f4();\n}\n",
];

fn soak_seed() -> u64 {
    std::env::var("MODREF_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x50AC_2026)
}

/// Global (rank-0) variables visible from `p`, as resolvable names.
fn visible_globals(program: &Program, p: ProcId) -> Vec<String> {
    program
        .visible_set(p)
        .iter()
        .map(VarId::new)
        .filter(|&v| program.var(v).rank() == 0)
        .map(|v| program.var_name(v).to_string())
        .collect()
}

/// One candidate edit line. May not resolve/validate against the current
/// replica — the caller filters with a try-apply.
fn candidate_line(rng: &mut Rng, program: &Program, fresh: &mut u32) -> String {
    let procs: Vec<ProcId> = program.procs().collect();
    match rng.gen_range(0..10u32) {
        // set-local: rewrite a procedure's flat effects over its globals.
        0..=4 => {
            let p = *rng.choose(&procs);
            let globals = visible_globals(program, p);
            let pick = |rng: &mut Rng, pool: &[String]| -> String {
                if pool.is_empty() {
                    return String::new();
                }
                let mut chosen: Vec<&str> = pool
                    .iter()
                    .filter(|_| rng.gen_bool(0.5))
                    .map(String::as_str)
                    .collect();
                if chosen.is_empty() {
                    chosen.push(pool[rng.gen_range(0..pool.len())].as_str());
                }
                chosen.join(",")
            };
            let mods = pick(rng, &globals);
            let uses = pick(rng, &globals);
            format!("set-local {} mod={mods} use={uses}", program.proc_name(p))
        }
        // add-call: main calls a top-level procedure with fresh actuals.
        5..=6 => {
            let tops: Vec<ProcId> = procs
                .iter()
                .copied()
                .filter(|&p| p != ProcId::MAIN && program.proc_(p).parent() == Some(ProcId::MAIN))
                .collect();
            if tops.is_empty() {
                return "set-local main mod= use=".to_string();
            }
            let callee = *rng.choose(&tops);
            let globals = visible_globals(program, ProcId::MAIN);
            let args: Vec<String> = program
                .proc_(callee)
                .formals()
                .iter()
                .map(|_| {
                    if !globals.is_empty() && rng.gen_bool(0.5) {
                        globals[rng.gen_range(0..globals.len())].clone()
                    } else {
                        format!("{}", rng.gen_range(0..9u32))
                    }
                })
                .collect();
            format!(
                "add-call {} {} args={}",
                program.proc_name(ProcId::MAIN),
                program.proc_name(callee),
                args.join(",")
            )
        }
        // remove-call: drop a random current site.
        7..=8 => {
            if program.num_sites() == 0 {
                return "set-local main mod= use=".to_string();
            }
            format!("remove-call {}", rng.gen_range(0..program.num_sites()))
        }
        // add-proc: a fresh leaf under main.
        _ => {
            *fresh += 1;
            format!("add-proc np{fresh} parent=main formals=x,y")
        }
    }
}

/// Generates a resolvable edit script of `steps` lines against `replica`,
/// advancing the replica exactly as the server will.
fn gen_script(rng: &mut Rng, replica: &mut Program, fresh: &mut u32, steps: usize) -> String {
    let mut lines = Vec::new();
    for _ in 0..steps {
        for _attempt in 0..16 {
            let line = candidate_line(rng, replica, fresh);
            let script = match Script::parse(&line) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let step = script.steps().first().expect("one line, one step");
            let Ok(edit) = step.resolve(replica) else {
                continue;
            };
            let Ok((next, _)) = replica.apply_edit(&edit) else {
                continue;
            };
            *replica = next;
            lines.push(line);
            break;
        }
    }
    lines.join("\n")
}

/// The expected `query <s> proc <name>` report, mirroring the server's
/// renderer: sorted, quoted variable names.
fn expected_proc_report(program: &Program, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
    let names = |set: &BitSet| -> String {
        let mut parts: Vec<String> = set
            .iter()
            .map(|i| format!("\"{}\"", escape_json(program.var_name(VarId::new(i)))))
            .collect();
        parts.sort();
        format!("[{}]", parts.join(","))
    };
    format!(
        "{{\"proc\":\"{}\",\"gmod\":{},\"guse\":{}}}\n",
        escape_json(name),
        names(gmod),
        names(guse)
    )
}

struct SessionState {
    name: String,
    replica: Program,
    fresh: u32,
}

/// One full client: opens its sessions, then rounds of edit+query with
/// oracle checks after every round.
fn drive_client(
    addr: std::net::SocketAddr,
    client_idx: usize,
    seed: u64,
    opened: &Barrier,
    checked: &Barrier,
    closed: &Barrier,
) {
    let ctx = format!("client {client_idx} (seed {seed})");
    let mut rng =
        Rng::seed_from_u64(seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut client = Client::connect(addr).expect("connects");
    let mut sessions = Vec::new();
    for s in 0..SESSIONS_PER_CLIENT {
        let name = format!("c{client_idx}-s{s}");
        let source = SOURCES[(client_idx * SESSIONS_PER_CLIENT + s) % SOURCES.len()];
        let resp = client
            .request(Request::Open {
                session: name.clone(),
                program: source.to_string(),
                lazy: false,
            })
            .unwrap_or_else(|e| panic!("{ctx}: open {name}: {e}"));
        assert_eq!(resp.status, Status::Ok, "{ctx}: open {name} not ok");
        sessions.push(SessionState {
            name,
            replica: parse_program(source).expect("soak sources parse"),
            fresh: 0,
        });
    }
    opened.wait();
    checked.wait(); // thread 0 verifies the server-wide session count between these

    let mut edits_sent = 0u64;
    for round in 0..ROUNDS {
        for s in &mut sessions {
            let rctx = format!("{ctx}, session {}, round {round}", s.name);
            let steps = 1 + rng.gen_range(0..MAX_STEPS_PER_ROUND);
            let script = gen_script(&mut rng, &mut s.replica, &mut s.fresh, steps);
            if !script.is_empty() {
                let resp = client
                    .request(Request::Edit {
                        session: s.name.clone(),
                        script,
                    })
                    .unwrap_or_else(|e| panic!("{rctx}: edit: {e}"));
                assert_eq!(resp.status, Status::Ok, "{rctx}: edit degraded or errored");
                edits_sent += resp.uint_field("applied").unwrap_or(0);
            }

            // Oracle: a from-scratch analysis of the replica prefix.
            let summary = Analyzer::new().analyze(&s.replica);
            let sets = SiteSets::from_summary(&s.replica, &summary);

            let resp = client
                .request(Request::Query {
                    session: s.name.clone(),
                    target: QueryTarget::All,
                })
                .unwrap_or_else(|e| panic!("{rctx}: query all: {e}"));
            assert_eq!(resp.status, Status::Ok, "{rctx}: query all not ok");
            assert_eq!(
                resp.str_field("report").expect("query carries a report"),
                render_json(&s.replica, &sets),
                "{rctx}: query-all report diverged from scratch"
            );

            if s.replica.num_sites() > 0 {
                let site = rng.gen_range(0..s.replica.num_sites());
                let resp = client
                    .request(Request::Query {
                        session: s.name.clone(),
                        target: QueryTarget::Site(site),
                    })
                    .unwrap_or_else(|e| panic!("{rctx}: query site {site}: {e}"));
                assert_eq!(resp.status, Status::Ok, "{rctx}: query site not ok");
                assert_eq!(
                    resp.str_field("report").expect("report"),
                    render_json_site(&s.replica, &sets, CallSiteId::new(site)),
                    "{rctx}: site {site} report diverged"
                );
            }

            let procs: Vec<ProcId> = s.replica.procs().collect();
            let p = *rng.choose(&procs);
            let pname = s.replica.proc_name(p).to_string();
            let resp = client
                .request(Request::Query {
                    session: s.name.clone(),
                    target: QueryTarget::Proc(pname.clone()),
                })
                .unwrap_or_else(|e| panic!("{rctx}: query proc {pname}: {e}"));
            assert_eq!(resp.status, Status::Ok, "{rctx}: query proc not ok");
            assert_eq!(
                resp.str_field("report").expect("report"),
                expected_proc_report(&s.replica, &pname, summary.gmod(p), summary.guse(p)),
                "{rctx}: proc {pname} report diverged"
            );
        }
    }

    // The generator must be producing real churn, not empty scripts.
    assert!(
        edits_sent >= (ROUNDS * SESSIONS_PER_CLIENT) as u64,
        "{ctx}: only {edits_sent} edits applied across {ROUNDS} rounds"
    );

    for s in &sessions {
        let resp = client
            .request(Request::Close {
                session: s.name.clone(),
            })
            .unwrap_or_else(|e| panic!("{ctx}: close {}: {e}", s.name));
        assert_eq!(resp.status, Status::Ok, "{ctx}: close {} not ok", s.name);
    }
    closed.wait();
}

#[test]
fn concurrent_sessions_stay_bit_identical_to_scratch() {
    let seed = soak_seed();
    let server = Server::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        ServerConfig {
            max_sessions: CLIENTS * SESSIONS_PER_CLIENT,
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let handle = server.spawn();
    let addr = handle.addr();

    // CLIENTS drive threads plus one auditor share every barrier.
    let opened = Barrier::new(CLIENTS + 1);
    let checked = Barrier::new(CLIENTS + 1);
    let closed = Barrier::new(CLIENTS + 1);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for c in 0..CLIENTS {
            let (opened, checked, closed) = (&opened, &checked, &closed);
            workers.push(scope.spawn(move || {
                drive_client(addr, c, seed, opened, checked, closed);
            }));
        }

        // The auditor probes server-wide invariants at the barriers while
        // every drive thread is parked.
        let audit = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("audit client connects");
            let stats = |client: &mut Client| {
                let resp = client.request(Request::Stats).expect("stats answers");
                assert_eq!(resp.status, Status::Ok, "stats not ok");
                resp
            };
            opened.wait();
            // Every session is open and none has been closed yet.
            let resp = stats(&mut client);
            assert_eq!(
                resp.uint_field("sessions"),
                Some((CLIENTS * SESSIONS_PER_CLIENT) as u64),
                "full occupancy while drives are parked (seed {seed})"
            );
            checked.wait();
            closed.wait();
            // All closed: the table is empty, nothing errored or degraded,
            // and every finished request is accounted exactly once. (This
            // stats request is in `requests` but not yet in `ok`.)
            let resp = stats(&mut client);
            assert_eq!(resp.uint_field("sessions"), Some(0), "sessions leaked");
            assert_eq!(resp.uint_field("errors"), Some(0), "soak produced errors");
            assert_eq!(resp.uint_field("degraded"), Some(0), "soak degraded");
            let total = resp.uint_field("requests").expect("requests counter");
            let ok = resp.uint_field("ok").expect("ok counter");
            assert_eq!(ok, total - 1, "counter accounting broke (seed {seed})");
        });
        audit.join().expect("audit thread");
        for w in workers {
            w.join().expect("client thread");
        }
    });

    handle.shutdown();
}

/// The between-barriers session-count audit needs its own test body so
/// the auditing client sees the fully opened table: all 16 sessions
/// live at once, and — with eviction off — the 17th open is refused
/// without disturbing them.
#[test]
fn session_table_reaches_full_occupancy_and_enforces_the_cap() {
    let server = Server::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        ServerConfig {
            max_sessions: CLIENTS * SESSIONS_PER_CLIENT,
            evict: false,
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    for i in 0..CLIENTS * SESSIONS_PER_CLIENT {
        let resp = client
            .request(Request::Open {
                session: format!("s{i}"),
                program: SOURCES[i % SOURCES.len()].to_string(),
                lazy: false,
            })
            .expect("open answers");
        assert_eq!(resp.status, Status::Ok, "open s{i} not ok");
    }
    let resp = client.request(Request::Stats).expect("stats answers");
    assert_eq!(resp.uint_field("sessions"), Some(16), "full occupancy");

    let resp = client
        .request(Request::Open {
            session: "one-too-many".to_string(),
            program: SOURCES[0].to_string(),
            lazy: false,
        })
        .expect("over-limit open still answers");
    assert_eq!(resp.status, Status::Error, "over-limit open must refuse");
    assert!(
        resp.str_field("error")
            .expect("refusal carries a message")
            .contains("session limit"),
        "refusal names the limit"
    );
    // The refusal disturbed nothing.
    let resp = client.request(Request::Stats).expect("stats answers");
    assert_eq!(resp.uint_field("sessions"), Some(16));
    handle.shutdown();
}

/// Churn soak: a session cap well below the 16 session names forces
/// constant LRU eviction and resurrection while eight client threads
/// interleave edits and queries. Every answer must stay bit-identical to
/// scratch; a thread that catches the table with every session busy
/// retries on the typed `overloaded` response like a real client.
const CHURN_CAP: usize = 6;

fn churn_client(addr: std::net::SocketAddr, client_idx: usize, seed: u64) {
    let ctx = format!("churn client {client_idx} (seed {seed})");
    let policy = RetryPolicy {
        attempts: 12,
        base_ms: 5,
        cap_ms: 200,
        seed: seed ^ client_idx as u64,
    };
    let mut rng =
        Rng::seed_from_u64(seed ^ (client_idx as u64).wrapping_mul(0xC0FF_EE00_D15E_A5ED));
    let mut client = Client::connect(addr).expect("connects");
    let retrying = |client: &mut Client, req: Request, rctx: &str| {
        let resp = client
            .request_retrying(req, &policy)
            .unwrap_or_else(|e| panic!("{rctx}: {e}"));
        assert_eq!(resp.status, Status::Ok, "{rctx}: not ok after retries");
        resp
    };

    let mut sessions = Vec::new();
    for s in 0..SESSIONS_PER_CLIENT {
        let name = format!("c{client_idx}-s{s}");
        let source = SOURCES[(client_idx * SESSIONS_PER_CLIENT + s) % SOURCES.len()];
        retrying(
            &mut client,
            Request::Open {
                session: name.clone(),
                program: source.to_string(),
                lazy: false,
            },
            &format!("{ctx}: open {name}"),
        );
        sessions.push(SessionState {
            name,
            replica: parse_program(source).expect("soak sources parse"),
            fresh: 0,
        });
    }

    for round in 0..ROUNDS {
        for s in &mut sessions {
            let rctx = format!("{ctx}, session {}, round {round}", s.name);
            let steps = 1 + rng.gen_range(0..MAX_STEPS_PER_ROUND);
            let script = gen_script(&mut rng, &mut s.replica, &mut s.fresh, steps);
            if !script.is_empty() {
                retrying(
                    &mut client,
                    Request::Edit {
                        session: s.name.clone(),
                        script,
                    },
                    &format!("{rctx}: edit"),
                );
            }

            // Every query lands on a session that was likely parked and
            // resurrected since its last request — and must still be
            // bit-identical to a from-scratch analysis of the replica.
            let summary = Analyzer::new().analyze(&s.replica);
            let sets = SiteSets::from_summary(&s.replica, &summary);
            let resp = retrying(
                &mut client,
                Request::Query {
                    session: s.name.clone(),
                    target: QueryTarget::All,
                },
                &format!("{rctx}: query all"),
            );
            assert_eq!(
                resp.str_field("report").expect("query carries a report"),
                render_json(&s.replica, &sets),
                "{rctx}: churned report diverged from scratch"
            );
        }
    }
}

#[test]
fn eviction_churn_keeps_every_session_bit_identical() {
    let seed = soak_seed();
    let server = Server::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        ServerConfig {
            max_sessions: CHURN_CAP,
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let handle = server.spawn();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for c in 0..CLIENTS {
            workers.push(scope.spawn(move || churn_client(addr, c, seed)));
        }
        for w in workers {
            w.join().expect("churn client thread");
        }
    });

    // Occupancy audit: the cap held, nothing leaked, nothing silently
    // failed, and the table really churned.
    let mut client = Client::connect(addr).expect("audit connects");
    let resp = client.request(Request::Stats).expect("stats answers");
    assert_eq!(resp.status, Status::Ok);
    let live = resp.uint_field("sessions").expect("sessions counter");
    let parked = resp.uint_field("parked").expect("parked counter");
    assert!(
        live <= CHURN_CAP as u64,
        "cap breached: {live} live > {CHURN_CAP} (seed {seed})"
    );
    assert_eq!(
        live + parked,
        (CLIENTS * SESSIONS_PER_CLIENT) as u64,
        "sessions leaked or vanished (seed {seed})"
    );
    assert!(
        resp.uint_field("evictions").expect("evictions counter") > 0,
        "cap {CHURN_CAP} under 16 sessions never evicted (seed {seed})"
    );
    assert!(
        resp.uint_field("recoveries").expect("recoveries counter") > 0,
        "churn never resurrected a parked session (seed {seed})"
    );
    assert_eq!(
        resp.uint_field("errors"),
        Some(0),
        "churn produced error responses (seed {seed})"
    );
    assert_eq!(
        resp.uint_field("degraded"),
        Some(0),
        "churn degraded (seed {seed})"
    );
    handle.shutdown();
}
