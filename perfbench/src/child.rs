//! The analysis processes. Every workload runs the program under test in
//! a child process (this same binary, started with `--role`), so the
//! child's peak RSS is the analysis alone: input generation, the client,
//! and the correctness checkers all stay in the parent.
//!
//! * `--role serve` binds a `modref_serve::Server` on loopback with one
//!   solver thread and a `--fsync never` journal, prints `addr <a>`,
//!   serves until its stdin closes, drains, then prints `peak_kb <n>`.
//! * `--role batch` reads a corpus from stdin and runs the `batch_flat`
//!   set-ups and ops itself (see `batch.rs`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use modref_serve::{FsyncPolicy, Server, ServerConfig};

use crate::util::peak_rss_kb;

/// Where served children keep their journals; removed when each child ends.
const RUN_DIR: &str = "perfbench/.run";

/// Starts this binary in `role` with `args`, stdin and stdout piped.
pub fn spawn_role(role: &str, args: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    Command::new(exe)
        .arg("--role")
        .arg(role)
        .args(args)
        .env("MODREF_THREADS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {role} process: {e}"))
}

/// A child process that is killed (if still running) and waited for
/// when dropped, so an early error return leaves no process behind.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        reap(&mut self.0);
    }
}

fn reap(child: &mut Child) {
    if child.try_wait().ok().flatten().is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// `--role serve`.
pub fn serve_role(state_dir: PathBuf) -> ExitCode {
    let cfg = ServerConfig {
        threads: Some(1),
        state_dir: Some(state_dir),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    };
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("literal loopback address");
    let server = match Server::bind(addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.spawn();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "addr {}", handle.addr());
    let _ = out.flush();
    // The parent closes our stdin to stop us.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.drain();
    let _ = writeln!(out, "peak_kb {}", peak_rss_kb());
    let _ = out.flush();
    ExitCode::SUCCESS
}

/// A running `--role serve` child. Dropping it without [`ServeChild::finish`]
/// kills the process; either way it is waited for and its journal
/// directory removed.
pub struct ServeChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    state_dir: PathBuf,
}

impl ServeChild {
    pub fn spawn() -> Result<ServeChild, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let state_dir = PathBuf::from(RUN_DIR).join(format!(
            "serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let mut child = spawn_role(
            "serve",
            &["--state-dir".into(), state_dir.display().to_string()],
        )?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("addr ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let mut served = ServeChild {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            state_dir,
        };
        match addr {
            Some(a) => {
                served.addr = a;
                Ok(served)
            }
            None => Err(format!("serve process did not report an address: {line:?}")),
        }
    }

    /// Stops the server gracefully and returns its peak RSS in KiB.
    pub fn finish(mut self) -> Result<u64, String> {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("serve process exited with {status}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix("peak_kb "))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| "serve process did not report its peak RSS".to_owned())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        reap(&mut self.child);
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Removes the journal root once no child is left using it.
pub fn remove_run_dir() {
    let _ = std::fs::remove_dir(RUN_DIR);
}
