//! Lazy-session differential wall: a session opened with `"lazy":true`
//! must answer every point query **byte-identically** to an eager
//! session over the same program and edit history — the demand-driven
//! path and the exhaustive path share one output contract. Also pins the
//! promotion rule (`target=all` flips a lazy session to the exhaustive
//! engine) and the budget-degradation ladder (a starved lazy query
//! answers degraded with a superset report, and the session recovers).

use modref_serve::{Client, QueryTarget, Request, Response, Server, ServerConfig, Status};

const SRC: &str = "var total, count, extra;\n\
     proc bump(x, amount) {\n  x = x + amount;\n  count = count + 1;\n}\n\
     proc churn(y) {\n  call bump(y, value 2);\n  extra = total;\n}\n\
     main {\n  call bump(total, value 5);\n  call churn(count);\n}\n";

const EDIT: &str = "set-local churn mod=extra,total use=count\n";

fn spawn(cfg: ServerConfig) -> modref_serve::ServerHandle {
    Server::bind("127.0.0.1:0".parse().expect("loopback parses"), cfg)
        .expect("binds")
        .spawn()
}

fn open(client: &mut Client, session: &str, lazy: bool) {
    let resp = client
        .request(Request::Open {
            session: session.to_string(),
            program: SRC.to_string(),
            lazy,
        })
        .expect("open answers");
    assert_eq!(resp.status, Status::Ok, "open {session}");
}

fn query(client: &mut Client, session: &str, target: QueryTarget) -> Response {
    client
        .request(Request::Query {
            session: session.to_string(),
            target,
        })
        .expect("query answers")
}

fn report(resp: &Response) -> String {
    resp.str_field("report")
        .expect("query has report")
        .to_string()
}

#[test]
fn lazy_and_eager_sessions_answer_identically() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connects");
    open(&mut client, "eager", false);
    open(&mut client, "lazy", true);

    // Every site and proc, before any edit.
    for n in 0..3 {
        let e = query(&mut client, "eager", QueryTarget::Site(n));
        let l = query(&mut client, "lazy", QueryTarget::Site(n));
        assert_eq!(e.status, Status::Ok);
        assert_eq!(l.status, Status::Ok);
        assert_eq!(report(&e), report(&l), "site {n} reports diverge");
    }
    for name in ["main", "bump", "churn"] {
        let e = query(&mut client, "eager", QueryTarget::Proc(name.into()));
        let l = query(&mut client, "lazy", QueryTarget::Proc(name.into()));
        assert_eq!(report(&e), report(&l), "proc {name} reports diverge");
    }

    // Same edit to both; the lazy session applies it at IR speed and
    // invalidates its memo — answers must still match bit for bit.
    for session in ["eager", "lazy"] {
        let resp = client
            .request(Request::Edit {
                session: session.to_string(),
                script: EDIT.to_string(),
            })
            .expect("edit answers");
        assert_eq!(resp.status, Status::Ok, "edit {session}");
    }
    for n in 0..3 {
        let e = query(&mut client, "eager", QueryTarget::Site(n));
        let l = query(&mut client, "lazy", QueryTarget::Site(n));
        assert_eq!(report(&e), report(&l), "post-edit site {n} diverges");
    }

    // `all` promotes the lazy session; the full report matches the eager
    // session's, and point queries keep answering afterwards.
    let e = query(&mut client, "eager", QueryTarget::All);
    let l = query(&mut client, "lazy", QueryTarget::All);
    assert_eq!(e.status, Status::Ok);
    assert_eq!(l.status, Status::Ok);
    assert_eq!(report(&e), report(&l), "promoted all-report diverges");
    let after = query(&mut client, "lazy", QueryTarget::Site(0));
    assert_eq!(after.status, Status::Ok);

    // Bad targets still error, not crash, on a lazy session.
    let mut client2 = Client::connect(handle.addr()).expect("connects");
    open(&mut client2, "lazy2", true);
    let bad = query(&mut client2, "lazy2", QueryTarget::Site(99));
    assert_eq!(bad.status, Status::Error);
    let bad = query(&mut client2, "lazy2", QueryTarget::Proc("nope".into()));
    assert_eq!(bad.status, Status::Error);

    handle.shutdown();
}

#[test]
fn starved_lazy_query_degrades_then_recovers() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connects");
    open(&mut client, "s", true);

    // A one-op budget cannot finish the demand walk: the answer is the
    // sound widening, flagged degraded, and names are still plausible.
    let resp = client
        .request_with(
            Request::Query {
                session: "s".to_string(),
                target: QueryTarget::Site(0),
            },
            Some(1),
            None,
        )
        .expect("query answers");
    assert_eq!(resp.status, Status::Degraded, "starved query must degrade");
    let degraded_report = report(&resp);

    // Unlimited budget on the same session now answers exactly, and the
    // exact sets are inside the degraded ones (superset soundness).
    let exact = query(&mut client, "s", QueryTarget::Site(0));
    assert_eq!(exact.status, Status::Ok, "session recovers after a trip");
    let parse_sets = |rep: &str| -> Vec<String> {
        // mod/use/dmod arrays in order; good enough for containment.
        rep.split('[')
            .skip(1)
            .map(|chunk| chunk.split(']').next().unwrap_or("").to_string())
            .collect()
    };
    let wide = parse_sets(&degraded_report);
    let tight = parse_sets(&report(&exact));
    assert_eq!(wide.len(), tight.len());
    for (w, t) in wide.iter().zip(&tight) {
        for name in t.split(',').filter(|s| !s.is_empty()) {
            assert!(
                w.contains(name),
                "exact name {name} missing from degraded set [{w}]"
            );
        }
    }
    handle.shutdown();
}
