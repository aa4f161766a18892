//! Crash-safety wall for the server's durability layer: eviction and
//! resurrection, startup recovery from journals, torn-tail repair,
//! quarantine of untrustworthy files, and the journal fault sites
//! (`serve.journal.append`, `serve.journal.fsync`, `serve.evict`,
//! `serve.recover`).
//!
//! The contract, from `docs/SERVER.md`:
//!
//! 1. an evicted-then-resurrected session answers **bit-identical** to
//!    one that was never evicted (and to a from-scratch [`Analyzer`]);
//! 2. restart recovery replays each journal's durable prefix and proves
//!    it against scratch before serving; torn tails truncate to the last
//!    complete record, never panic;
//! 3. journal failure costs durability, never correctness — the edit
//!    applies, the response says `degraded`, siblings stay exact; and
//! 4. when a fault blocks eviction or resurrection the server sheds the
//!    request with a typed `overloaded` + retry hint instead of lying.

use std::path::PathBuf;

use modref_core::Analyzer;
use modref_frontend::parse_program;
use modref_guard::FaultPlan;
use modref_incr::render::{render_json, SiteSets};
use modref_incr::Script;
use modref_ir::Program;
use modref_serve::journal::{FsyncPolicy, Journal, JournalRecord};
use modref_serve::{Client, QueryTarget, Request, Server, ServerConfig, Status};

const SRC_A: &str = "var a, b, c;\n\
     proc stepper(x) {\n  x = x + a;\n  b = b + 1;\n}\n\
     main {\n  call stepper(a);\n  call stepper(c);\n}\n";

const SRC_B: &str = "var g, h;\n\
     proc probe() {\n  g = h;\n}\n\
     main {\n  call probe();\n  h = g;\n}\n";

const SRC_C: &str = "var u, v, w;\n\
     proc f1() { u = v; }\n\
     proc f2() { v = w; call f1(); }\n\
     main {\n  call f1();\n  call f2();\n}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modref-recover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

fn bind(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0".parse().expect("loopback parses"), cfg).expect("binds")
}

fn open(client: &mut Client, session: &str, source: &str) -> modref_serve::Response {
    client
        .request(Request::Open {
            session: session.to_string(),
            program: source.to_string(),
            lazy: false,
        })
        .expect("open answers")
}

fn edit(client: &mut Client, session: &str, script: &str) -> modref_serve::Response {
    client
        .request(Request::Edit {
            session: session.to_string(),
            script: script.to_string(),
        })
        .expect("edit answers")
}

fn query_all(client: &mut Client, session: &str) -> modref_serve::Response {
    client
        .request(Request::Query {
            session: session.to_string(),
            target: QueryTarget::All,
        })
        .expect("query answers")
}

fn stats(client: &mut Client) -> modref_serve::Response {
    let resp = client.request(Request::Stats).expect("stats answers");
    assert_eq!(resp.status, Status::Ok, "stats not ok");
    resp
}

/// Advances a replica through the same parse → resolve → apply path the
/// server uses, then renders the from-scratch report — the oracle every
/// recovered answer must match byte-for-byte.
fn apply(replica: &mut Program, script: &str) {
    for step in Script::parse(script).expect("script parses").steps() {
        let edit = step.resolve(replica).expect("resolves");
        *replica = replica.apply_edit(&edit).expect("applies").0;
    }
}

fn scratch_report(program: &Program) -> String {
    let summary = Analyzer::new().analyze(program);
    render_json(program, &SiteSets::from_summary(program, &summary))
}

#[test]
fn evicted_sessions_resurrect_bit_identical_without_a_state_dir() {
    // No --state-dir: parking keeps history in memory only.
    let handle = bind(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    })
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    assert_eq!(open(&mut client, "a", SRC_A).status, Status::Ok);
    assert_eq!(
        edit(&mut client, "a", "set-local stepper mod=a,b use=c").status,
        Status::Ok
    );
    let mut replica_a = parse_program(SRC_A).expect("parses");
    apply(&mut replica_a, "set-local stepper mod=a,b use=c");

    // The second open parks `a` (the table holds one live engine).
    assert_eq!(open(&mut client, "b", SRC_B).status, Status::Ok);
    assert_eq!(
        edit(&mut client, "b", "set-local probe mod=g,h use=g").status,
        Status::Ok
    );
    let mut replica_b = parse_program(SRC_B).expect("parses");
    apply(&mut replica_b, "set-local probe mod=g,h use=g");

    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("sessions"), Some(1), "one live engine");
    assert_eq!(resp.uint_field("parked"), Some(1), "one parked session");
    assert_eq!(resp.uint_field("evictions"), Some(1));

    // Querying `a` resurrects it (parking `b`): post-edit bit-identity.
    let resp = query_all(&mut client, "a");
    assert_eq!(resp.status, Status::Ok, "resurrected query not ok");
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica_a),
        "resurrected `a` diverged from scratch"
    );

    // And back again: `b` resurrects with *its* edit intact.
    let resp = query_all(&mut client, "b");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica_b),
        "twice-parked `b` diverged from scratch"
    );

    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("evictions"), Some(3));
    assert_eq!(resp.uint_field("recoveries"), Some(2));
    assert_eq!(resp.uint_field("errors"), Some(0), "churn produced errors");
    handle.shutdown();
}

#[test]
fn restart_recovers_journaled_sessions_bit_identical_to_scratch() {
    let dir = temp_dir("restart");
    let cfg = || ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First life: two sessions, edits on each, graceful drain.
    let handle = bind(cfg()).spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");
    assert_eq!(open(&mut client, "alpha", SRC_A).status, Status::Ok);
    assert_eq!(open(&mut client, "beta", SRC_B).status, Status::Ok);
    assert_eq!(
        edit(
            &mut client,
            "alpha",
            "set-local stepper mod=a,b use=c\nadd-call main stepper args=b"
        )
        .status,
        Status::Ok
    );
    assert_eq!(
        edit(&mut client, "beta", "set-local probe mod=g,h use=g").status,
        Status::Ok
    );
    drop(client);
    assert_eq!(handle.drain(), 2, "drain syncs both journals");

    let mut replica_a = parse_program(SRC_A).expect("parses");
    apply(&mut replica_a, "set-local stepper mod=a,b use=c");
    apply(&mut replica_a, "add-call main stepper args=b");
    let mut replica_b = parse_program(SRC_B).expect("parses");
    apply(&mut replica_b, "set-local probe mod=g,h use=g");

    // Second life: both sessions come back verified, and answer exactly.
    let server = bind(cfg());
    let rec = server.recovery();
    assert_eq!(rec.recovered, 2, "both journals recover live");
    assert_eq!(rec.parked, 0);
    assert_eq!(rec.quarantined, 0);
    assert_eq!(rec.truncated_tails, 0);
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("reconnects");
    for (name, replica) in [("alpha", &replica_a), ("beta", &replica_b)] {
        let resp = query_all(&mut client, name);
        assert_eq!(resp.status, Status::Ok, "recovered `{name}` not ok");
        assert_eq!(
            resp.str_field("report").expect("report"),
            scratch_report(replica),
            "recovered `{name}` diverged from scratch"
        );
    }
    assert_eq!(stats(&mut client).uint_field("recoveries"), Some(2));

    // Recovered sessions keep journaling: edit, drain, restart again.
    assert_eq!(
        edit(&mut client, "alpha", "remove-call 0").status,
        Status::Ok
    );
    apply(&mut replica_a, "remove-call 0");
    drop(client);
    assert_eq!(handle.drain(), 2);

    let handle = bind(cfg()).spawn();
    let mut client = Client::connect(handle.addr()).expect("third life connects");
    let resp = query_all(&mut client, "alpha");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica_a),
        "post-recovery edit was not durable"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tails_truncate_to_the_durable_prefix() {
    let dir = temp_dir("torn");

    // Hand-build a journal: snapshot + two edits, then a half-written
    // third record simulating a crash mid-append.
    let mut journal = Journal::create(&dir, "torn", FsyncPolicy::Never).expect("creates");
    journal
        .append(&JournalRecord::Snapshot {
            session: "torn".into(),
            program: SRC_A.into(),
        })
        .expect("snapshot");
    for line in [
        "set-local stepper mod=a,b use=c",
        "add-call main stepper args=b",
    ] {
        journal
            .append(&JournalRecord::Edit { line: line.into() })
            .expect("edit record");
    }
    journal.sync().expect("sync");
    let path = journal.path().to_owned();
    drop(journal);
    let torn = modref_serve::journal::encode_record(&JournalRecord::Edit {
        line: "remove-call 0".into(),
    })
    .expect("fits the cap");
    let mut raw = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopens");
    std::io::Write::write_all(&mut raw, &torn[..torn.len() - 2]).expect("tears");
    drop(raw);

    let server = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let rec = server.recovery();
    assert_eq!(rec.recovered, 1, "torn journal still recovers");
    assert_eq!(rec.truncated_tails, 1, "the tear was noticed and cut");
    assert_eq!(rec.quarantined, 0);

    // The recovered session holds exactly the durable prefix: the two
    // complete edits, not the torn third.
    let mut replica = parse_program(SRC_A).expect("parses");
    apply(&mut replica, "set-local stepper mod=a,b use=c");
    apply(&mut replica, "add-call main stepper args=b");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let resp = query_all(&mut client, "torn");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica),
        "recovered prefix diverged from scratch"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untrustworthy_journals_are_quarantined_never_fatal() {
    let dir = temp_dir("quarantine");

    // One good journal...
    let mut journal = Journal::create(&dir, "good", FsyncPolicy::Never).expect("creates");
    journal
        .append(&JournalRecord::Snapshot {
            session: "good".into(),
            program: SRC_B.into(),
        })
        .expect("snapshot");
    journal.sync().expect("sync");
    drop(journal);
    // ...one that is pure garbage, and one whose first record is an edit
    // (valid framing, untrustworthy shape).
    std::fs::write(dir.join("junk.journal"), b"this was never a journal").expect("junk writes");
    std::fs::write(
        dir.join("headless.journal"),
        modref_serve::journal::encode_record(&JournalRecord::Edit {
            line: "remove-call 0".into(),
        })
        .expect("fits the cap"),
    )
    .expect("headless writes");

    let server = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let rec = server.recovery();
    assert_eq!(rec.recovered, 1, "the good journal recovers");
    assert_eq!(rec.quarantined, 2, "both bad files quarantined");
    assert!(dir.join("junk.journal.bad").exists(), "junk renamed aside");
    assert!(dir.join("headless.journal.bad").exists());
    assert!(!dir.join("junk.journal").exists());

    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let resp = query_all(&mut client, "good");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&parse_program(SRC_B).expect("parses"))
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_beyond_the_cap_parks_the_excess_and_resurrects_on_demand() {
    let dir = temp_dir("overflow");
    for (name, source) in [("j1", SRC_A), ("j2", SRC_B), ("j3", SRC_C)] {
        let mut journal = Journal::create(&dir, name, FsyncPolicy::Never).expect("creates");
        journal
            .append(&JournalRecord::Snapshot {
                session: name.into(),
                program: source.into(),
            })
            .expect("snapshot");
        journal.sync().expect("sync");
    }

    let server = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        max_sessions: 2,
        ..ServerConfig::default()
    });
    let rec = server.recovery();
    assert_eq!(rec.recovered, 2, "cap bounds the live engines");
    assert_eq!(rec.parked, 1, "the overflow parks instead of dropping");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    // Every session answers exactly, parked ones via resurrection.
    for (name, source) in [("j1", SRC_A), ("j2", SRC_B), ("j3", SRC_C)] {
        let resp = query_all(&mut client, name);
        assert_eq!(resp.status, Status::Ok, "`{name}` not ok");
        assert_eq!(
            resp.str_field("report").expect("report"),
            scratch_report(&parse_program(source).expect("parses")),
            "`{name}` diverged"
        );
    }
    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("sessions"), Some(2));
    assert_eq!(resp.uint_field("parked"), Some(1));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_append_fault_costs_durability_never_correctness() {
    let dir = temp_dir("append-fault");
    let handle = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        faults: Some(FaultPlan::new().panic_at("serve.journal.append")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    })
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    // The sibling journals normally.
    assert_eq!(open(&mut client, "well", SRC_B).status, Status::Ok);

    // The poisoned open still opens — degraded, without durability.
    let resp = open(&mut client, "sick", SRC_A);
    assert_eq!(resp.status, Status::Degraded, "open must survive the fault");
    assert!(
        resp.str_field("reason")
            .expect("degraded open carries a reason")
            .contains("without durability"),
        "reason: {:?}",
        resp.str_field("reason")
    );

    // Edits on the dead-journal session: applied, answered degraded.
    let resp = edit(&mut client, "sick", "set-local stepper mod=a,b use=c");
    assert_eq!(resp.status, Status::Degraded);
    assert!(
        resp.str_field("reason")
            .expect("reason")
            .contains("no longer durable"),
        "reason: {:?}",
        resp.str_field("reason")
    );
    assert_eq!(
        resp.uint_field("applied"),
        Some(1),
        "the edit still applied"
    );

    // The engine is exact despite the lost journal.
    let mut replica = parse_program(SRC_A).expect("parses");
    apply(&mut replica, "set-local stepper mod=a,b use=c");
    let resp = query_all(&mut client, "sick");
    assert_eq!(resp.status, Status::Ok, "query is exact, not degraded");
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica)
    );

    // Sibling session: fully durable, fully exact.
    assert_eq!(
        edit(&mut client, "well", "set-local probe mod=g,h use=g").status,
        Status::Ok
    );
    drop(client);
    assert_eq!(handle.drain(), 1, "only the healthy journal syncs");

    // Restart: `well` comes back with its edit; `sick` has no usable
    // journal (its file never got a snapshot) and is quarantined.
    let server = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let rec = server.recovery();
    assert_eq!(rec.recovered, 1, "only `well` is durable");
    let mut replica_b = parse_program(SRC_B).expect("parses");
    apply(&mut replica_b, "set-local probe mod=g,h use=g");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("reconnects");
    let resp = query_all(&mut client, "well");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica_b)
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_fsync_fault_degrades_the_edit_but_the_apply_commits() {
    let dir = temp_dir("fsync-fault");
    let handle = bind(ServerConfig {
        state_dir: Some(dir.clone()),
        faults: Some(FaultPlan::new().exhaust_at("serve.journal.fsync")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    })
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    let resp = open(&mut client, "sick", SRC_A);
    assert_eq!(
        resp.status,
        Status::Degraded,
        "fsync fault degrades the open"
    );
    let resp = edit(&mut client, "sick", "set-local stepper mod=a use=b,c");
    assert_eq!(resp.status, Status::Degraded);
    assert_eq!(resp.uint_field("applied"), Some(1));

    let mut replica = parse_program(SRC_A).expect("parses");
    apply(&mut replica, "set-local stepper mod=a use=b,c");
    let resp = query_all(&mut client, "sick");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&replica),
        "apply did not commit under the fsync fault"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evict_fault_sheds_the_open_with_a_typed_overloaded() {
    let handle = bind(ServerConfig {
        max_sessions: 1,
        faults: Some(FaultPlan::new().panic_at("serve.evict")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    })
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    assert_eq!(open(&mut client, "well", SRC_B).status, Status::Ok);

    // The poisoned open needs an eviction it cannot get: shed, not
    // errored, with the retry hint.
    let resp = open(&mut client, "sick", SRC_A);
    assert_eq!(
        resp.status,
        Status::Overloaded,
        "fault must shed, not evict"
    );
    assert_eq!(resp.uint_field("retry_after_ms"), Some(50));
    assert!(
        resp.str_field("reason")
            .expect("overloaded carries a reason")
            .contains("eviction unavailable"),
        "reason: {:?}",
        resp.str_field("reason")
    );

    // The incumbent was not disturbed, and a healthy session name can
    // still evict it normally.
    let resp = query_all(&mut client, "well");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&parse_program(SRC_B).expect("parses"))
    );
    assert_eq!(open(&mut client, "other", SRC_C).status, Status::Ok);
    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("shed"), Some(1));
    assert_eq!(resp.uint_field("evictions"), Some(1));
    handle.shutdown();
}

#[test]
fn recover_fault_sheds_resurrection_instead_of_guessing() {
    let handle = bind(ServerConfig {
        max_sessions: 1,
        faults: Some(FaultPlan::new().panic_at("serve.recover")),
        fault_session: Some("sick".to_string()),
        ..ServerConfig::default()
    })
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");

    // Park `sick` by opening a sibling (whose requests are unarmed).
    assert_eq!(open(&mut client, "sick", SRC_A).status, Status::Ok);
    assert_eq!(open(&mut client, "well", SRC_B).status, Status::Ok);
    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("parked"), Some(1));

    // Resurrection is blocked by the fault: the query sheds.
    let resp = query_all(&mut client, "sick");
    assert_eq!(resp.status, Status::Overloaded);
    assert!(
        resp.str_field("reason")
            .expect("reason")
            .contains("resurrection unavailable"),
        "reason: {:?}",
        resp.str_field("reason")
    );

    // Nothing was lost: the parked session is still parked, the live one
    // exact.
    let resp = stats(&mut client);
    assert_eq!(resp.uint_field("parked"), Some(1));
    assert_eq!(resp.uint_field("sessions"), Some(1));
    let resp = query_all(&mut client, "well");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.str_field("report").expect("report"),
        scratch_report(&parse_program(SRC_B).expect("parses"))
    );
    handle.shutdown();
}
