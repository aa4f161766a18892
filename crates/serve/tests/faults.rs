//! Fault-injection wall for the server's containment sites
//! (`serve.accept`, `serve.dispatch`, `serve.session`).
//!
//! The contract under test, from `docs/SERVER.md`:
//!
//! 1. a fault poisons **one session's responses**, never the server —
//!    sibling sessions answer exactly (bit-identical to scratch) while
//!    the poisoned one degrades;
//! 2. degradation is sound — any report a degraded response carries is a
//!    per-site **superset** of the exact answer (`exact ⊆ reported`);
//! 3. the three-valued `ok`/`degraded`/`error` status contract survives
//!    every injected panic, budget exhaust, and stall; and
//! 4. a client that vanishes mid-request leaves the session engine
//!    reusable for the next connection.
//!
//! In-process servers pin [`FaultPlan`]s explicitly (the CLI `serve` verb
//! arms the same plans from `MODREF_FAULT`); the seeded sweep mirrors the
//! env-armed CI pass deterministically.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use modref_core::Analyzer;
use modref_frontend::parse_program;
use modref_guard::FaultPlan;
use modref_incr::render::{render_json, render_json_site, SiteSets};
use modref_incr::Script;
use modref_ir::{CallSiteId, Program};
use modref_serve::frame::write_frame;
use modref_serve::{Client, Envelope, QueryTarget, Request, Server, ServerConfig, Status};
use modref_trace::{parse_json, Json};

const SICK_SRC: &str = "var a, b, c;\n\
     proc stepper(x) {\n  x = x + a;\n  b = b + 1;\n}\n\
     main {\n  call stepper(a);\n  call stepper(c);\n}\n";

const WELL_SRC: &str = "var g, h;\n\
     proc probe() {\n  g = h;\n}\n\
     main {\n  call probe();\n  h = g;\n}\n";

fn spawn(cfg: ServerConfig) -> modref_serve::ServerHandle {
    Server::bind("127.0.0.1:0".parse().expect("loopback parses"), cfg)
        .expect("binds")
        .spawn()
}

fn open(client: &mut Client, session: &str, source: &str) -> Status {
    client
        .request(Request::Open {
            session: session.to_string(),
            program: source.to_string(),
            lazy: false,
        })
        .expect("open answers")
        .status
}

/// Per-site `(mod, use, dmod)` name sets parsed from a `query all`
/// report, keyed by site id.
fn site_sets(report: &str) -> Vec<[BTreeSet<String>; 3]> {
    let json = parse_json(report.trim()).expect("report parses as JSON");
    let sites = match json.get("sites") {
        Some(Json::Arr(sites)) => sites.clone(),
        other => panic!("report has no sites array: {other:?}"),
    };
    sites
        .iter()
        .map(|site| {
            ["mod", "use", "dmod"].map(|key| match site.get(key) {
                Some(Json::Arr(names)) => names
                    .iter()
                    .map(|n| n.as_str().expect("names are strings").to_string())
                    .collect(),
                other => panic!("site field {key} missing: {other:?}"),
            })
        })
        .collect()
}

/// `exact ⊆ reported`, site by site, set by set.
fn assert_report_superset(exact: &str, reported: &str, ctx: &str) {
    let exact = site_sets(exact);
    let reported = site_sets(reported);
    assert_eq!(exact.len(), reported.len(), "{ctx}: site count diverged");
    for (id, (e, r)) in exact.iter().zip(&reported).enumerate() {
        for (k, key) in ["mod", "use", "dmod"].iter().enumerate() {
            assert!(
                e[k].is_subset(&r[k]),
                "{ctx}: site {id} {key} lost bits: exact {:?} ⊄ reported {:?}",
                e[k],
                r[k]
            );
        }
    }
}

fn scratch_report(program: &Program) -> String {
    let summary = Analyzer::new().analyze(program);
    render_json(program, &SiteSets::from_summary(program, &summary))
}

fn query_all(client: &mut Client, session: &str) -> modref_serve::Response {
    client
        .request(Request::Query {
            session: session.to_string(),
            target: QueryTarget::All,
        })
        .expect("query answers")
}

#[test]
fn session_site_panic_poisons_one_session_not_the_server() {
    let handle = spawn(ServerConfig {
        faults: Some(FaultPlan::new().panic_at("serve.session")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connects");

    // Opens never touch `serve.session`, so both sessions come up.
    assert_eq!(open(&mut client, "sick", SICK_SRC), Status::Ok);
    assert_eq!(open(&mut client, "well", WELL_SRC), Status::Ok);

    let sick_program = parse_program(SICK_SRC).expect("parses");
    let well_program = parse_program(WELL_SRC).expect("parses");

    // Repeated hits on the poisoned session: every response is degraded,
    // every report stays sound, the connection never drops.
    for round in 0..3 {
        let resp = client
            .request(Request::Edit {
                session: "sick".to_string(),
                script: "set-local stepper mod=a,b use=c".to_string(),
            })
            .expect("edit answers despite the panic");
        assert_eq!(resp.status, Status::Degraded, "round {round}: edit status");
        assert!(
            resp.str_field("reason")
                .expect("degraded carries a reason")
                .contains("panic"),
            "round {round}: reason names the panic"
        );

        let resp = query_all(&mut client, "sick");
        assert_eq!(resp.status, Status::Degraded, "round {round}: query status");
        // The panic fired before any engine mutation, so the exact answer
        // is still the unedited program's.
        assert_report_superset(
            &scratch_report(&sick_program),
            resp.str_field("report").expect("degraded query answers"),
            &format!("round {round}: poisoned query"),
        );

        // The sibling session keeps answering exactly, interleaved.
        let resp = query_all(&mut client, "well");
        assert_eq!(resp.status, Status::Ok, "round {round}: sibling status");
        assert_eq!(
            resp.str_field("report").expect("report"),
            scratch_report(&well_program),
            "round {round}: sibling report diverged"
        );
    }

    // Server-wide surfaces are unaffected.
    let resp = client.request(Request::Stats).expect("stats answers");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.uint_field("sessions"), Some(2));
    assert_eq!(resp.uint_field("degraded"), Some(6));
    handle.shutdown();
}

#[test]
fn dispatch_site_exhaust_degrades_only_the_targeted_session() {
    let handle = spawn(ServerConfig {
        faults: Some(FaultPlan::new().exhaust_at("serve.dispatch")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connects");

    // The dispatch site fires before session work, so even the poisoned
    // open degrades — and the session is never created.
    assert_eq!(open(&mut client, "sick", SICK_SRC), Status::Degraded);
    let resp = query_all(&mut client, "sick");
    assert_eq!(
        resp.status,
        Status::Degraded,
        "query on the never-opened session"
    );
    assert!(resp.str_field("report").is_none(), "no session, no report");

    // The sibling's whole lifecycle is untouched.
    assert_eq!(open(&mut client, "well", WELL_SRC), Status::Ok);
    let mut replica = parse_program(WELL_SRC).expect("parses");
    let script = "set-local probe mod=g,h use=g";
    let resp = client
        .request(Request::Edit {
            session: "well".to_string(),
            script: script.to_string(),
        })
        .expect("edit answers");
    assert_eq!(resp.status, Status::Ok);
    let parsed = Script::parse(script).expect("script parses");
    for step in parsed.steps() {
        let edit = step.resolve(&replica).expect("resolves");
        replica = replica.apply_edit(&edit).expect("applies").0;
    }
    let resp = query_all(&mut client, "well");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica),
        "sibling diverged while the poisoned session was being refused"
    );
    handle.shutdown();
}

#[test]
fn session_site_exhaust_answers_queries_with_the_conservative_widening() {
    let handle = spawn(ServerConfig {
        faults: Some(FaultPlan::new().exhaust_at("serve.session")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connects");
    assert_eq!(open(&mut client, "sick", SICK_SRC), Status::Ok);

    let program = parse_program(SICK_SRC).expect("parses");
    let resp = query_all(&mut client, "sick");
    assert_eq!(resp.status, Status::Degraded);
    let report = resp.str_field("report").expect("degraded query answers");
    // The widening is exactly the renderer's conservative sets — and
    // therefore a superset of the exact answer.
    assert_eq!(
        report,
        render_json(&program, &SiteSets::conservative(&program)),
        "degraded report is the documented conservative widening"
    );
    assert_report_superset(&scratch_report(&program), report, "exhausted query");
    handle.shutdown();
}

/// Nested scopes, so the conservative widening differs by caller: `main`
/// sees `m`, `outer` sees `x`/`o`, `inner` sees all of those plus `y`/`i`.
const NESTED_SRC: &str = "var g, h;\n\
     proc outer(x) {\n  var o;\n  \
       proc inner(y) {\n    var i;\n    y = o + i;\n    g = h;\n    call leaf(i);\n  }\n  \
       call inner(o);\n  call inner(x);\n  o = x;\n}\n\
     proc leaf(z) {\n  z = g;\n}\n\
     main {\n  var m;\n  call outer(g);\n  call leaf(m);\n  call outer(m);\n  call leaf(h);\n}\n";

#[test]
fn session_site_exhaust_widens_one_site_query_to_its_callers_visible_set() {
    let handle = spawn(ServerConfig {
        faults: Some(FaultPlan::new().exhaust_at("serve.session")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connects");
    assert_eq!(open(&mut client, "sick", NESTED_SRC), Status::Ok);

    let program = parse_program(NESTED_SRC).expect("parses");
    let wide = SiteSets::conservative(&program);
    assert!(program.num_sites() >= 6, "every caller scope has a site");
    for n in 0..program.num_sites() {
        let resp = client
            .request(Request::Query {
                session: "sick".to_string(),
                target: QueryTarget::Site(n),
            })
            .expect("query answers");
        assert_eq!(resp.status, Status::Degraded, "site {n}");
        let report = resp.str_field("report").expect("degraded query answers");
        assert_eq!(
            report,
            render_json_site(&program, &wide, CallSiteId::new(n)),
            "site {n}: degraded report is that site's slice of the conservative widening"
        );
    }
    handle.shutdown();
}

#[test]
fn accept_site_panic_kills_the_connection_never_the_listener() {
    let handle = spawn(ServerConfig {
        faults: Some(FaultPlan::new().panic_at("serve.accept")),
        ..ServerConfig::default()
    });

    // Every connection dies at accept — as a clean close, not a hang or
    // a server crash — and the listener keeps accepting.
    for attempt in 0..3 {
        let mut client = Client::connect(handle.addr())
            .unwrap_or_else(|e| panic!("attempt {attempt}: listener stopped accepting: {e}"));
        let err = client
            .request(Request::Stats)
            .expect_err("poisoned connection must not answer");
        assert!(
            err.contains("closed") || err.contains("i/o") || err.contains("frame"),
            "attempt {attempt}: unexpected failure shape: {err}"
        );
    }
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_the_engine_reusable() {
    let handle = spawn(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connects");
    assert_eq!(open(&mut client, "s", SICK_SRC), Status::Ok);

    // Fire an edit and vanish without reading the response.
    let script = "set-local stepper mod=a,c use=b";
    {
        let mut raw = TcpStream::connect(addr).expect("raw connects");
        let env = Envelope {
            id: 1,
            request: Request::Edit {
                session: "s".to_string(),
                script: script.to_string(),
            },
            budget_ops: None,
            timeout_ms: None,
        };
        write_frame(&mut raw, env.render().as_bytes()).expect("frame writes");
        raw.shutdown(std::net::Shutdown::Both).expect("shutdown");
        // drop without reading the reply
    }

    // A half-frame from another vanishing client must not disturb anyone:
    // the server sees a truncated frame and closes that connection only.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connects");
        raw.write_all(&[0, 0, 1, 0, b'{', b'"'])
            .expect("partial frame");
        raw.shutdown(std::net::Shutdown::Both).expect("shutdown");
    }

    // The abandoned edit still commits; the engine answers the next
    // connection exactly. Poll briefly — the vanished client's request is
    // racing this one.
    let mut replica = parse_program(SICK_SRC).expect("parses");
    let parsed = Script::parse(script).expect("parses");
    for step in parsed.steps() {
        let edit = step.resolve(&replica).expect("resolves");
        replica = replica.apply_edit(&edit).expect("applies").0;
    }
    let want = scratch_report(&replica);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = query_all(&mut client, "s");
        assert_eq!(resp.status, Status::Ok, "query after disconnect not ok");
        let got = resp.str_field("report").expect("report").to_string();
        if got == want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned edit never committed: got {got}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // And the session still takes new edits afterwards.
    let resp = client
        .request(Request::Edit {
            session: "s".to_string(),
            script: "set-local stepper mod=b use=a".to_string(),
        })
        .expect("edit answers");
    assert_eq!(resp.status, Status::Ok, "engine no longer reusable");
    handle.shutdown();
}

/// The CI `MODREF_FAULT` pass, in miniature and deterministic: seeded
/// plans fire a pseudo-random mix of panic/stall/exhaust across *all*
/// sites (server checkpoints and engine-internal ones alike). Whatever
/// fires, the poisoned session's responses stay inside the three-valued
/// contract and sound, and the sibling stays exact.
#[test]
fn seeded_plans_keep_every_response_sound() {
    for seed in [7u64, 40, 1988] {
        let ctx = format!("fault seed {seed}");
        let handle = spawn(ServerConfig {
            faults: Some(FaultPlan::seeded(seed)),
            fault_session: Some("sick".to_string()),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(handle.addr()).expect("connects");

        assert_eq!(open(&mut client, "well", WELL_SRC), Status::Ok, "{ctx}");
        let well_program = parse_program(WELL_SRC).expect("parses");

        let sick_open = open(&mut client, "sick", SICK_SRC);
        assert_ne!(sick_open, Status::Error, "{ctx}: open must not error");
        let mut replica = parse_program(SICK_SRC).expect("parses");

        if sick_open == Status::Ok {
            for (round, script) in [
                "set-local stepper mod=a use=b,c",
                "add-call main stepper args=b",
                "set-local main mod=c use=a",
            ]
            .iter()
            .enumerate()
            {
                let rctx = format!("{ctx}, round {round}");
                let resp = client
                    .request(Request::Edit {
                        session: "sick".to_string(),
                        script: (*script).to_string(),
                    })
                    .expect("edit answers");
                assert_ne!(resp.status, Status::Error, "{rctx}: edit errored");
                // Advance the replica by exactly the steps the server
                // reports applied (a panic fallback applies none).
                let applied = if resp.status == Status::Ok {
                    usize::MAX
                } else {
                    resp.uint_field("applied").unwrap_or(0) as usize
                };
                let parsed = Script::parse(script).expect("scripts parse");
                for step in parsed.steps().iter().take(applied) {
                    let edit = step.resolve(&replica).expect("resolves");
                    replica = replica.apply_edit(&edit).expect("applies").0;
                }

                let resp = query_all(&mut client, "sick");
                assert_ne!(resp.status, Status::Error, "{rctx}: query errored");
                let report = resp.str_field("report").expect("query answers");
                if resp.status == Status::Ok {
                    assert_eq!(report, scratch_report(&replica), "{rctx}: ok ≠ exact");
                } else {
                    assert_report_superset(&scratch_report(&replica), report, &rctx);
                }
            }
        }

        // Whatever happened to `sick`, the sibling is exact.
        let resp = query_all(&mut client, "well");
        assert_eq!(resp.status, Status::Ok, "{ctx}: sibling degraded");
        assert_eq!(
            resp.str_field("report").expect("report"),
            scratch_report(&well_program),
            "{ctx}: sibling diverged"
        );
        handle.shutdown();
    }
}
