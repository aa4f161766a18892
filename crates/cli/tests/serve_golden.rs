//! Golden tests for the `serve` and `client` verbs: query output is
//! byte-identical to the batch `analyze` report, and the failure
//! surfaces (bad `--addr`, session limit, malformed frames) are pinned
//! strings with pinned exit codes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `modref` to completion from the workspace root, with
/// `MODREF_FAULT` stripped so the CI fault pass cannot perturb these
/// byte-exact expectations.
fn modref(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
    cmd.args(args)
        .current_dir(workspace_root())
        .env_remove("MODREF_FAULT");
    cmd.output().expect("modref binary runs")
}

/// A `modref serve` child on an OS-assigned port, killed on drop. The
/// bound address is scraped from the daemon's one startup line.
struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    fn start(extra_args: &[&str]) -> ServeProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .current_dir(workspace_root())
            .env_remove("MODREF_FAULT")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("serve spawns");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut line = String::new();
        BufReader::new(stderr)
            .read_line(&mut line)
            .expect("serve prints its listen line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("listen line ends with the address")
            .to_string();
        assert!(
            line.starts_with("modref-serve listening on "),
            "unexpected startup line: {line:?}"
        );
        ServeProc { child, addr }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes a drive script into a temp dir (alongside any data files the
/// script names, which resolve relative to it) and runs `modref client`.
fn run_client(server: &ServeProc, dir: &Path, script: &str) -> Output {
    let script_path = dir.join("drive.txt");
    std::fs::write(&script_path, script).expect("script writes");
    modref(&[
        "client",
        "--addr",
        &server.addr,
        script_path.to_str().expect("utf-8 path"),
    ])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("modref-serve-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

fn stderr_str(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn client_query_all_is_byte_identical_to_analyze_json() {
    let server = ServeProc::start(&[]);
    let dir = temp_dir("query");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");

    let out = run_client(&server, &dir, "open s demo.mp\nquery s all\nclose s\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));

    let batch = modref(&["analyze", "examples/programs/demo.mp", "--json"]);
    assert_eq!(batch.status.code(), Some(0));
    assert_eq!(
        out.stdout, batch.stdout,
        "served report differs from the batch report"
    );
}

#[test]
fn client_query_after_edits_matches_analyze_edits_json() {
    let server = ServeProc::start(&[]);
    let dir = temp_dir("edits");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");
    let edits = "set-local deep mod=total,count use=total\nremove-call 0\n";
    std::fs::write(dir.join("delta.edits"), edits).expect("edits write");

    let out = run_client(
        &server,
        &dir,
        "open s demo.mp\nedit s delta.edits\nquery s all\nclose s\n",
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));

    let batch = modref(&[
        "analyze",
        "examples/programs/demo.mp",
        "--json",
        "--edits",
        dir.join("delta.edits").to_str().expect("utf-8"),
    ]);
    assert_eq!(
        batch.status.code(),
        Some(0),
        "stderr: {}",
        stderr_str(&batch)
    );
    assert_eq!(
        out.stdout, batch.stdout,
        "served post-edit report differs from `analyze --edits`"
    );
}

#[test]
fn bad_addr_is_a_pinned_usage_surface() {
    let out = modref(&["serve", "--addr", "notanaddr"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_str(&out),
        "error: invalid --addr `notanaddr` (expected host:port, e.g. 127.0.0.1:7788)\n"
    );

    let out = modref(&["client", "--addr", "also:not:an:addr", "nosuch.txt"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_str(&out),
        "error: invalid --addr `also:not:an:addr` (expected host:port, e.g. 127.0.0.1:7788)\n"
    );

    // Missing --addr entirely is a usage error (exit 2), not exit 1.
    let out = modref(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_str(&out).starts_with("missing --addr host:port"));
}

#[test]
fn session_limit_rejects_the_extra_open_with_exit_1() {
    // `--no-evict` keeps the PR 7 hard-cap contract: the extra open is a
    // pinned error, not an eviction.
    let server = ServeProc::start(&["--max-sessions", "1", "--no-evict"]);
    let dir = temp_dir("limit");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");

    let out = run_client(&server, &dir, "open a demo.mp\nopen b demo.mp\n");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_str(&out);
    assert!(
        err.contains("session limit reached (1 open, max 1)"),
        "stderr: {err}"
    );
    assert!(err.contains("drive line 2"), "stderr: {err}");

    // The rejection left the server healthy: the first session still
    // answers on a fresh connection.
    let out = run_client(&server, &dir, "query a all\nclose a\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
}

#[test]
fn session_cap_is_soft_by_default_evicting_and_resurrecting_lru() {
    let server = ServeProc::start(&["--max-sessions", "1"]);
    let dir = temp_dir("soft-cap");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");

    // The second open parks `a` instead of failing; querying `a` again
    // resurrects it (parking `b`), bit-identical to the batch report.
    let out = run_client(
        &server,
        &dir,
        "open a demo.mp\nopen b demo.mp\nquery a all\nstats\nclose a\nclose b\n",
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));

    let batch = modref(&["analyze", "examples/programs/demo.mp", "--json"]);
    assert_eq!(batch.status.code(), Some(0));
    assert_eq!(
        out.stdout, batch.stdout,
        "resurrected session's report differs from the batch report"
    );
    let err = stderr_str(&out);
    assert!(err.contains("evictions=2"), "stderr: {err}");
    assert!(err.contains("recoveries=1"), "stderr: {err}");
}

/// Sends raw bytes to the server and returns the (length-stripped)
/// response payload, if any.
fn send_raw(addr: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(bytes).expect("writes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(_) => return None,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("payload arrives");
    Some(payload)
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    let server = ServeProc::start(&[]);

    // Zero-length frame.
    let resp = send_raw(&server.addr, &[0, 0, 0, 0]).expect("a response frame");
    let text = String::from_utf8(resp).expect("UTF-8");
    assert!(text.contains("\"status\":\"error\""), "got: {text}");
    assert!(text.contains("zero-length frame"), "got: {text}");

    // Hostile length prefix.
    let resp = send_raw(&server.addr, &[0xff, 0xff, 0xff, 0xff]).expect("a response frame");
    let text = String::from_utf8(resp).expect("UTF-8");
    assert!(text.contains("oversized frame"), "got: {text}");

    // Truncated payload (declares 100 bytes, sends 3).
    let resp = send_raw(&server.addr, &[0, 0, 0, 100, b'a', b'b', b'c']).expect("a response");
    let text = String::from_utf8(resp).expect("UTF-8");
    assert!(text.contains("truncated frame payload"), "got: {text}");

    // A frame that is valid framing but not a request object.
    let mut bytes = vec![0, 0, 0, 9];
    bytes.extend_from_slice(b"\"notobj\"x"); // 9 bytes of junk
    let resp = send_raw(&server.addr, &bytes).expect("a response");
    let text = String::from_utf8(resp).expect("UTF-8");
    assert!(text.contains("\"status\":\"error\""), "got: {text}");

    // After all that abuse, a well-formed session still works.
    let dir = temp_dir("abuse");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");
    let out = run_client(&server, &dir, "open s demo.mp\nquery s all\nclose s\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
}

#[test]
fn stats_report_the_request_mix() {
    let server = ServeProc::start(&[]);
    let dir = temp_dir("stats");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");

    let out = run_client(
        &server,
        &dir,
        "open s demo.mp\nquery s all\nquery s proc bump\nstats\nclose s\n",
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
    let err = stderr_str(&out);
    // 4 requests had completed when `stats` was served (it counts itself
    // as in-flight): open + 2 queries all ok.
    assert!(
        err.contains("stats: sessions=1 connections=1 requests=4 ok=3 degraded=0 errors=0"),
        "stderr: {err}"
    );
}
