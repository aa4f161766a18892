//! The session name table follows the variable universe. A served
//! session renders its `site:`/`proc:` answers through a name table it
//! keeps across requests and rebuilds only when the program's variable
//! table changes. This wall drives one session through every way that
//! table can change or be rebuilt under it, and after each step requires
//! every point answer to equal the one-shot renderer over a scratch
//! analysis of the same program:
//!
//! 1. `add-proc` with formals, then `add-call`s whose actuals name the
//!    new formals;
//! 2. `remove-proc`, which renumbers the variables declared after the
//!    removed procedure's;
//! 3. eviction under `max_sessions: 1`, then resurrection by replay;
//! 4. a restart that recovers the session from its journal.
//!
//! Each scenario runs for an eager and for a lazy session.

use std::path::PathBuf;

use modref_core::Analyzer;
use modref_frontend::parse_program;
use modref_incr::render::{render_json_proc, render_json_site_answer};
use modref_incr::Script;
use modref_ir::Program;
use modref_serve::{Client, QueryTarget, Request, Response, Server, ServerConfig, Status};

/// `spare` is call-free and declared first, so removing it renumbers
/// `stepper`'s formal.
const SRC: &str = "var a, b, c;\n\
     proc spare(z) {\n  z = a;\n}\n\
     proc stepper(x) {\n  x = x + a;\n  b = b + 1;\n}\n\
     main {\n  call stepper(a);\n  call stepper(c);\n}\n";

const OTHER: &str = "var g, h;\n\
     proc probe() {\n  g = h;\n}\n\
     main {\n  call probe();\n  h = g;\n}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modref-names-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

fn bind(dir: &std::path::Path) -> Server {
    let cfg = ServerConfig {
        max_sessions: 1,
        state_dir: Some(dir.to_owned()),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0".parse().expect("loopback parses"), cfg).expect("binds")
}

fn request(client: &mut Client, request: Request) -> Response {
    let resp = client.request(request).expect("server answers");
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.body);
    resp
}

fn open(client: &mut Client, session: &str, source: &str, lazy: bool) {
    request(
        client,
        Request::Open {
            session: session.to_owned(),
            program: source.to_owned(),
            lazy,
        },
    );
}

/// Applies `script` on the server and to `replica`, through the same
/// parse → resolve → apply path the server uses.
fn edit(client: &mut Client, session: &str, replica: &mut Program, script: &str) {
    request(
        client,
        Request::Edit {
            session: session.to_owned(),
            script: script.to_owned(),
        },
    );
    for step in Script::parse(script).expect("script parses").steps() {
        let edit = step.resolve(replica).expect("resolves");
        *replica = replica.apply_edit(&edit).expect("applies").0;
    }
}

/// Every `site:N` and `proc:NAME` answer of `session` equals the
/// one-shot renderer over a scratch analysis of `replica`.
fn assert_answers_match_scratch(client: &mut Client, session: &str, replica: &Program, ctx: &str) {
    let summary = Analyzer::new().analyze(replica);
    let mut ask = |target: QueryTarget| {
        let resp = request(
            client,
            Request::Query {
                session: session.to_owned(),
                target,
            },
        );
        resp.str_field("report").expect("report").to_owned()
    };
    for s in replica.sites() {
        let want = render_json_site_answer(
            replica,
            s,
            summary.mod_site(s),
            summary.use_site(s),
            summary.dmod_site(s),
        );
        assert_eq!(ask(QueryTarget::Site(s.index())), want, "{ctx}: site {s}");
    }
    for p in replica.procs() {
        let name = replica.proc_name(p);
        let want = render_json_proc(replica, name, summary.gmod(p), summary.guse(p));
        assert_eq!(
            ask(QueryTarget::Proc(name.to_owned())),
            want,
            "{ctx}: proc {name}"
        );
    }
}

fn run(lazy: bool) {
    let dir = temp_dir(if lazy { "lazy" } else { "eager" });
    let handle = bind(&dir).spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut replica = parse_program(SRC).expect("parses");
    open(&mut client, "s", SRC, lazy);
    assert_answers_match_scratch(&mut client, "s", &replica, "opened");

    // 1. New formals grow the universe; the calls then use them.
    let vars = replica.num_vars();
    edit(
        &mut client,
        "s",
        &mut replica,
        "add-proc helper parent=main formals=h1,h2",
    );
    assert_eq!(replica.num_vars(), vars + 2);
    assert_answers_match_scratch(&mut client, "s", &replica, "add-proc");
    edit(
        &mut client,
        "s",
        &mut replica,
        "add-call helper stepper args=h2\nadd-call main helper args=a,b",
    );
    assert_answers_match_scratch(&mut client, "s", &replica, "add-call");

    // 2. Removing `spare` drops `z` and shifts every later variable down.
    let stepper = |program: &Program| {
        let p = program
            .procs()
            .find(|&p| program.proc_name(p) == "stepper")
            .expect("stepper");
        program.proc_(p).formals()[0]
    };
    let x_before = stepper(&replica);
    edit(&mut client, "s", &mut replica, "remove-proc spare");
    assert_eq!(
        stepper(&replica).index() + 1,
        x_before.index(),
        "renumbered"
    );
    assert_answers_match_scratch(&mut client, "s", &replica, "remove-proc");

    // 3. A second session parks `s`; the next query resurrects it.
    open(&mut client, "other", OTHER, lazy);
    assert_answers_match_scratch(&mut client, "s", &replica, "resurrected");
    let stats = request(&mut client, Request::Stats);
    assert!(stats.uint_field("evictions") >= Some(2), "{:?}", stats.body);
    assert!(
        stats.uint_field("recoveries") >= Some(1),
        "{:?}",
        stats.body
    );

    // 4. A restart recovers `s` from its journal.
    drop(client);
    handle.drain();
    let handle = bind(&dir).spawn();
    let mut client = Client::connect(handle.addr()).expect("reconnects");
    assert_answers_match_scratch(&mut client, "s", &replica, "recovered");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eager_session_answers_follow_the_variable_universe() {
    run(false);
}

#[test]
fn lazy_session_answers_follow_the_variable_universe() {
    run(true);
}
