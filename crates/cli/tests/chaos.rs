//! Kill-and-restart chaos wall for `modref serve --state-dir`.
//!
//! Each test aborts the daemon at a seeded `MODREF_CRASH=<site>:<n>`
//! point mid-edit-stream (the stand-in for `kill -9`), restarts it on
//! the same state directory, and proves the recovered session answers
//! `query all` **byte-identical** to `modref analyze --json --edits`
//! over exactly the durable prefix of the edit stream:
//!
//! * `serve.journal.append:n` dies *before* the n-th record reaches the
//!   file — the prefix ends at record n-1;
//! * `serve.journal.torn:n` dies mid-write, leaving a half-record tail
//!   that recovery must truncate, never trust, never panic over;
//! * `serve.journal.fsync:n` dies after the write but before the sync —
//!   the record is in the file and must survive.
//!
//! (Record 1 is the `open` snapshot; edit line k is record k+1.)
//!
//! The wall also covers the two graceful paths: a client that boots
//! before the server and retries its way in, and SIGTERM draining
//! journals to disk before exit 0.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::time::Duration;

/// The three-line edit stream every crash test drives. Lines apply in
/// order; prefixes of it are the recovery oracles.
const EDIT_LINES: [&str; 3] = [
    "set-local deep mod=total,count use=total",
    "add-call main bump args=total,3",
    "remove-call 0",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn modref(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
    cmd.args(args)
        .current_dir(workspace_root())
        .env_remove("MODREF_FAULT")
        .env_remove("MODREF_CRASH");
    cmd.output().expect("modref binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modref-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    std::fs::copy(
        workspace_root().join("examples/programs/demo.mp"),
        dir.join("demo.mp"),
    )
    .expect("demo copies");
    dir
}

/// A `modref serve` child whose stderr stays readable after startup, so
/// tests can assert on the recovery summary and the drain line.
struct ServeProc {
    child: Child,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

impl ServeProc {
    fn start(addr: &str, extra_args: &[&str], crash: Option<&str>) -> ServeProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
        cmd.args(["serve", "--addr", addr])
            .args(extra_args)
            .current_dir(workspace_root())
            .env_remove("MODREF_FAULT")
            .env_remove("MODREF_CRASH")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(spec) = crash {
            cmd.env("MODREF_CRASH", spec);
        }
        let mut child = cmd.spawn().expect("serve spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .expect("serve prints its listen line");
        assert!(
            line.starts_with("modref-serve listening on "),
            "unexpected startup line: {line:?}"
        );
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("listen line ends with the address")
            .to_string();
        ServeProc {
            child,
            addr,
            stderr,
        }
    }

    fn next_stderr_line(&mut self) -> String {
        let mut line = String::new();
        self.stderr.read_line(&mut line).expect("stderr line reads");
        line
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_client(addr: &str, dir: &Path, script: &str) -> Output {
    let script_path = dir.join("drive.txt");
    std::fs::write(&script_path, script).expect("script writes");
    modref(&[
        "client",
        "--addr",
        addr,
        script_path.to_str().expect("utf-8 path"),
    ])
}

fn stderr_str(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

/// The scratch oracle: `analyze --json` over demo.mp with the first
/// `durable` edit lines applied.
fn oracle_report(dir: &Path, durable: usize) -> Vec<u8> {
    if durable == 0 {
        let out = modref(&["analyze", "examples/programs/demo.mp", "--json"]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
        return out.stdout;
    }
    let prefix = dir.join("prefix.edits");
    let mut text = EDIT_LINES[..durable].join("\n");
    text.push('\n');
    std::fs::write(&prefix, text).expect("prefix edits write");
    let out = modref(&[
        "analyze",
        "examples/programs/demo.mp",
        "--json",
        "--edits",
        prefix.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
    out.stdout
}

/// One full kill-and-restart cycle: crash the daemon at `spec` while a
/// client streams the three edits, then restart on the same state dir
/// and prove the recovered session equals the `durable`-line oracle.
fn crash_recover_verify(tag: &str, spec: &str, durable: usize, expect_torn: bool) {
    let dir = temp_dir(tag);
    let state = dir.join("state");
    let state_arg = state.to_str().expect("utf-8 state dir").to_string();

    let server = ServeProc::start("127.0.0.1:0", &["--state-dir", &state_arg], Some(spec));
    let mut edits = EDIT_LINES.join("\n");
    edits.push('\n');
    std::fs::write(dir.join("delta.edits"), edits).expect("edits write");

    // The drive dies with the daemon, mid-edit: a transport failure the
    // client must NOT blindly retry (the apply may or may not have
    // landed), so it exits non-zero.
    let out = run_client(&server.addr, &dir, "open s demo.mp\nedit s delta.edits\n");
    assert_ne!(
        out.status.code(),
        Some(0),
        "{tag}: client survived a dead server; stderr: {}",
        stderr_str(&out)
    );

    // The daemon really aborted — this is a crash, not a shed request.
    let mut server = server;
    let status = server.child.wait().expect("crashed serve reaps");
    assert!(!status.success(), "{tag}: daemon did not crash at {spec}");
    drop(server);

    // Restart on the same state dir: recovery announces itself, and the
    // session answers bit-identical to scratch over the durable prefix.
    let mut server = ServeProc::start("127.0.0.1:0", &["--state-dir", &state_arg], None);
    let summary = server.next_stderr_line();
    assert!(
        summary.starts_with("recovered 1 live + 0 parked sessions"),
        "{tag}: unexpected recovery summary: {summary:?}"
    );
    let torn = summary.contains("1 torn tails truncated");
    assert_eq!(
        torn, expect_torn,
        "{tag}: torn-tail accounting: {summary:?}"
    );

    let out = run_client(&server.addr, &dir, "query s all\n");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{tag}: recovered query failed; stderr: {}",
        stderr_str(&out)
    );
    assert_eq!(
        out.stdout,
        oracle_report(&dir, durable),
        "{tag}: recovered report is not the durable prefix ({durable} edits)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_before_an_append_recovers_the_prior_records() {
    // Abort before record 3 (edit 2): snapshot + edit 1 are durable.
    crash_recover_verify("append", "serve.journal.append:3", 1, false);
}

#[test]
fn crash_mid_write_truncates_the_torn_tail() {
    // Die halfway through record 4 (edit 3): recovery must cut the tail
    // back to edits 1–2 without panicking.
    crash_recover_verify("torn", "serve.journal.torn:4", 2, true);
}

#[test]
fn crash_between_write_and_fsync_keeps_the_written_record() {
    // Abort after record 4's write: the OS still has the bytes, so all
    // three edits recover.
    crash_recover_verify("fsync", "serve.journal.fsync:4", 3, false);
}

#[test]
fn client_retries_until_a_late_server_boots() {
    let dir = temp_dir("boots-late");
    // Reserve a port, free it, and boot the client against it first.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe binds");
        probe.local_addr().expect("probe addr").to_string()
    };

    let script_path = dir.join("drive.txt");
    std::fs::write(&script_path, "open s demo.mp\nquery s all\nclose s\n").expect("script");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
    cmd.args([
        "client",
        "--addr",
        &addr,
        "--retries",
        "10",
        "--retry-base-ms",
        "50",
        script_path.to_str().expect("utf-8"),
    ])
    .current_dir(workspace_root())
    .env_remove("MODREF_FAULT")
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    let client = cmd.spawn().expect("client spawns");

    // Let the client eat a few connection refusals, then show up.
    std::thread::sleep(Duration::from_millis(300));
    let _server = ServeProc::start(&addr, &[], None);

    let out = client.wait_with_output().expect("client finishes");
    assert_eq!(
        out.status.code(),
        Some(0),
        "client gave up before the server booted; stderr: {}",
        stderr_str(&out)
    );
    let batch = modref(&["analyze", "examples/programs/demo.mp", "--json"]);
    assert_eq!(out.stdout, batch.stdout, "late-boot report diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_journals_and_recovery_finds_them_synced() {
    let dir = temp_dir("drain");
    let state = dir.join("state");
    let state_arg = state.to_str().expect("utf-8 state dir").to_string();

    let mut server = ServeProc::start("127.0.0.1:0", &["--state-dir", &state_arg], None);
    let mut edits = EDIT_LINES.join("\n");
    edits.push('\n');
    std::fs::write(dir.join("delta.edits"), edits).expect("edits write");
    let out = run_client(&server.addr, &dir, "open s demo.mp\nedit s delta.edits\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));

    // SIGTERM: finish in flight, fsync, close, exit 0 with a drain line.
    let term = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success(), "kill -TERM failed");
    let status = server.child.wait().expect("drained serve reaps");
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let drain_line = server.next_stderr_line();
    assert!(
        drain_line.contains("drained (1 journals synced)"),
        "unexpected drain line: {drain_line:?}"
    );
    drop(server);

    // Everything the client sent survived the drain.
    let mut server = ServeProc::start("127.0.0.1:0", &["--state-dir", &state_arg], None);
    let summary = server.next_stderr_line();
    assert!(
        summary.starts_with("recovered 1 live"),
        "unexpected recovery summary: {summary:?}"
    );
    let out = run_client(&server.addr, &dir, "query s all\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_str(&out));
    assert_eq!(
        out.stdout,
        oracle_report(&dir, EDIT_LINES.len()),
        "drained session lost edits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
