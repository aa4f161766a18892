//! A small synchronous client: one connection, sequential
//! request/response, plus the drive-script interpreter behind the CLI's
//! `client` verb.
//!
//! Drive scripts are line-oriented (blank lines and `#` comments
//! ignored):
//!
//! ```text
//! open  <session> <program.mp>
//! edit  <session> <script.edits>
//! query <session> all | site <n> | proc <name>
//! close <session>
//! stats
//! ```
//!
//! [`run_drive`] prints query reports **verbatim** to stdout — for
//! `query <s> all` that is byte-identical to `modref analyze <p> --json`
//! on the same program state — and everything else (acks, stats,
//! degradation notes) to stderr, so the stdout stream is pure data.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Envelope, QueryTarget, Request, Response, Status};

/// Retry behaviour for connects and `overloaded` responses: capped
/// exponential backoff with decorrelated jitter
/// (`sleep = min(cap, uniform(base, prev * 3))`), seeded so test runs
/// are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Smallest sleep between attempts, in milliseconds.
    pub base_ms: u64,
    /// Largest sleep between attempts, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_ms: 10,
            cap_ms: 1000,
            seed: 0x5eed_cafe,
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first refusal, PR 7 style.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Decorrelated-jitter sleep sequence over a [`RetryPolicy`].
struct Jitter {
    state: u64,
    prev_ms: u64,
    base_ms: u64,
    cap_ms: u64,
}

impl Jitter {
    fn new(policy: &RetryPolicy) -> Jitter {
        Jitter {
            state: policy.seed,
            prev_ms: policy.base_ms,
            base_ms: policy.base_ms,
            cap_ms: policy.cap_ms.max(policy.base_ms),
        }
    }

    /// The next sleep, never below `floor` (the server's
    /// `retry_after_ms` hint) and never above the cap.
    fn next_ms(&mut self, floor: u64) -> u64 {
        // splitmix64: small, seedable, good enough for jitter.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let hi = (self.prev_ms.saturating_mul(3)).max(self.base_ms + 1);
        let ms = (self.base_ms + z % (hi - self.base_ms))
            .min(self.cap_ms)
            .max(floor.min(self.cap_ms));
        self.prev_ms = ms.max(self.base_ms);
        ms
    }
}

/// The sleep floor for one overloaded-retry: the server's
/// `retry_after_ms` hint when present and positive, else the policy's
/// base backoff (itself clamped to ≥ 1 ms). A missing, malformed, or
/// zero hint must never collapse the floor to zero — that would turn
/// the retry loop into a zero-sleep spin hammering a server that just
/// said it was overloaded.
fn retry_floor_ms(hint: Option<u64>, policy: &RetryPolicy) -> u64 {
    hint.filter(|&ms| ms > 0)
        .unwrap_or_else(|| policy.base_ms.max(1))
}

/// How a drive run ended, mirroring the CLI's three-valued exit
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// Every response came back `"ok"` — exit 0.
    Clean,
    /// At least one response was `"degraded"` (sound, widened results)
    /// and none was an error — exit 3.
    Degraded,
    /// A response was `"error"`, the transport failed, or the script was
    /// unusable — exit 1.
    Failed,
}

/// One connection to a running server.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` with a single attempt.
    ///
    /// # Errors
    ///
    /// The connect failure, as a display string.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        Client::connect_with_retry(addr, &RetryPolicy::none())
    }

    /// Connects to `addr`, retrying refused/failed connects under
    /// `policy` — the "server boots late" path.
    ///
    /// # Errors
    ///
    /// The last connect failure, after exhausting the attempts.
    pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> Result<Client, String> {
        let attempts = policy.attempts.max(1);
        let mut jitter = Jitter::new(policy);
        let mut last = String::new();
        for attempt in 0..attempts {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        addr,
                        next_id: 1,
                    })
                }
                Err(e) => last = format!("cannot connect to {addr}: {e}"),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(Duration::from_millis(jitter.next_ms(0)));
            }
        }
        Err(format!("{last} (after {attempts} attempts)"))
    }

    /// [`Client::request`], retrying `overloaded` responses under
    /// `policy`: sleep at least the server's `retry_after_ms` hint (with
    /// decorrelated jitter on top), reconnect — the server may have shed
    /// the connection along with the request — and resend. Transport
    /// failures are **not** retried: a lost response is ambiguous (the
    /// edit may have applied), an explicit `overloaded` refusal is not.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_retrying(
        &mut self,
        request: Request,
        policy: &RetryPolicy,
    ) -> Result<Response, String> {
        let attempts = policy.attempts.max(1);
        let mut jitter = Jitter::new(policy);
        let mut attempt = 0;
        loop {
            let resp = self.request(request.clone())?;
            attempt += 1;
            if resp.status != Status::Overloaded || attempt >= attempts {
                return Ok(resp);
            }
            let floor = retry_floor_ms(resp.uint_field("retry_after_ms"), policy);
            std::thread::sleep(Duration::from_millis(jitter.next_ms(floor)));
            if let Ok(fresh) = TcpStream::connect(self.addr) {
                self.stream = fresh;
                self.next_id = 1;
            }
        }
    }

    /// Sends `request` and blocks for its response. Ids are assigned
    /// sequentially and checked on the way back.
    ///
    /// # Errors
    ///
    /// Frame failures, a server that closed the stream mid-exchange, an
    /// unparseable response, or a response id mismatch.
    pub fn request(&mut self, request: Request) -> Result<Response, String> {
        self.request_with(request, None, None)
    }

    /// [`Client::request`] with per-request budget/deadline overrides.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_with(
        &mut self,
        request: Request,
        budget_ops: Option<u64>,
        timeout_ms: Option<u64>,
    ) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope {
            id,
            request,
            budget_ops,
            timeout_ms,
        };
        let payload = env.render();
        write_frame(&mut self.stream, payload.as_bytes()).map_err(frame_err)?;
        let reply = match read_frame(&mut self.stream).map_err(frame_err)? {
            Some(bytes) => bytes,
            None => return Err("server closed the connection".to_string()),
        };
        let resp = Response::parse(&reply)?;
        match resp.id {
            Some(got) if got == id => Ok(resp),
            Some(got) => Err(format!("response id {got} does not match request id {id}")),
            // A null id is the server refusing the *frame or envelope*
            // itself; surface it against this request.
            None => Ok(resp),
        }
    }
}

fn frame_err(e: FrameError) -> String {
    format!("frame: {e}")
}

/// One parsed drive-script command.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DriveCmd {
    Open {
        session: String,
        path: String,
        lazy: bool,
    },
    Edit {
        session: String,
        path: String,
    },
    Query {
        session: String,
        target: QueryTarget,
    },
    Close {
        session: String,
    },
    Stats,
}

fn parse_drive(text: &str) -> Result<Vec<(usize, DriveCmd)>, String> {
    let mut cmds = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let verb = words.next().expect("non-empty line has a first word");
        let rest: Vec<&str> = words.collect();
        let cmd = match (verb, rest.as_slice()) {
            ("open", [session, path]) => DriveCmd::Open {
                session: (*session).to_string(),
                path: (*path).to_string(),
                lazy: false,
            },
            ("open", [session, path, "lazy"]) => DriveCmd::Open {
                session: (*session).to_string(),
                path: (*path).to_string(),
                lazy: true,
            },
            ("edit", [session, path]) => DriveCmd::Edit {
                session: (*session).to_string(),
                path: (*path).to_string(),
            },
            ("query", [session, "all"]) => DriveCmd::Query {
                session: (*session).to_string(),
                target: QueryTarget::All,
            },
            ("query", [session, "site", n]) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("drive line {line_no}: bad site index `{n}`"))?;
                DriveCmd::Query {
                    session: (*session).to_string(),
                    target: QueryTarget::Site(n),
                }
            }
            ("query", [session, "proc", name]) => DriveCmd::Query {
                session: (*session).to_string(),
                target: QueryTarget::Proc((*name).to_string()),
            },
            ("close", [session]) => DriveCmd::Close {
                session: (*session).to_string(),
            },
            ("stats", []) => DriveCmd::Stats,
            _ => {
                return Err(format!(
                    "drive line {line_no}: unrecognised command `{line}` \
                     (expected open/edit/query/close/stats)"
                ))
            }
        };
        cmds.push((line_no, cmd));
    }
    Ok(cmds)
}

/// Runs a drive script against `addr`, writing query reports verbatim to
/// `out` and everything else to `err`. Stops at the first `"error"`
/// response or transport failure.
///
/// # Errors
///
/// Returns the failure message alongside [`DriveOutcome::Failed`] via
/// the `Err` arm; the `Ok` arm is [`DriveOutcome::Clean`] or
/// [`DriveOutcome::Degraded`].
pub fn run_drive<W: Write, E: Write>(
    addr: SocketAddr,
    script: &str,
    base_dir: &Path,
    out: &mut W,
    err: &mut E,
) -> Result<DriveOutcome, String> {
    run_drive_with(addr, script, base_dir, out, err, &RetryPolicy::default())
}

/// [`run_drive`] with an explicit [`RetryPolicy`] (the CLI's
/// `--retries`/`--retry-base-ms` knobs): connects retry refused servers,
/// `overloaded` responses retry after the server's hint. An `overloaded`
/// that survives every retry fails the drive, like an error.
///
/// # Errors
///
/// See [`run_drive`].
pub fn run_drive_with<W: Write, E: Write>(
    addr: SocketAddr,
    script: &str,
    base_dir: &Path,
    out: &mut W,
    err: &mut E,
    policy: &RetryPolicy,
) -> Result<DriveOutcome, String> {
    let cmds = parse_drive(script)?;
    let mut client = Client::connect_with_retry(addr, policy)?;
    let mut degraded = false;
    for (line_no, cmd) in cmds {
        let request = match &cmd {
            DriveCmd::Open {
                session,
                path,
                lazy,
            } => Request::Open {
                session: session.clone(),
                program: read_rel(base_dir, path)
                    .map_err(|e| format!("drive line {line_no}: {e}"))?,
                lazy: *lazy,
            },
            DriveCmd::Edit { session, path } => Request::Edit {
                session: session.clone(),
                script: read_rel(base_dir, path)
                    .map_err(|e| format!("drive line {line_no}: {e}"))?,
            },
            DriveCmd::Query { session, target } => Request::Query {
                session: session.clone(),
                target: target.clone(),
            },
            DriveCmd::Close { session } => Request::Close {
                session: session.clone(),
            },
            DriveCmd::Stats => Request::Stats,
        };
        let resp = client
            .request_retrying(request, policy)
            .map_err(|e| format!("drive line {line_no}: {e}"))?;
        match resp.status {
            Status::Error => {
                let msg = resp.str_field("error").unwrap_or("unknown error");
                return Err(format!("drive line {line_no}: server error: {msg}"));
            }
            Status::Overloaded => {
                let msg = resp.str_field("reason").unwrap_or("server overloaded");
                return Err(format!(
                    "drive line {line_no}: still overloaded after {} attempts: {msg}",
                    policy.attempts.max(1)
                ));
            }
            Status::Degraded => degraded = true,
            Status::Ok => {}
        }
        report_response(&cmd, &resp, out, err).map_err(|e| format!("i/o: {e}"))?;
    }
    Ok(if degraded {
        DriveOutcome::Degraded
    } else {
        DriveOutcome::Clean
    })
}

fn read_rel(base: &Path, path: &str) -> Result<String, String> {
    let full = base.join(path);
    std::fs::read_to_string(&full).map_err(|e| format!("cannot read `{}`: {e}", full.display()))
}

fn report_response<W: Write, E: Write>(
    cmd: &DriveCmd,
    resp: &Response,
    out: &mut W,
    err: &mut E,
) -> std::io::Result<()> {
    let note = |err: &mut E, prefix: &str| -> std::io::Result<()> {
        if let Some(reason) = resp.str_field("reason") {
            writeln!(err, "{prefix} [degraded: {reason}]")
        } else {
            writeln!(err, "{prefix}")
        }
    };
    match cmd {
        DriveCmd::Open { session, .. } => note(
            err,
            &format!(
                "opened `{session}`: {} procs, {} sites, {} vars",
                resp.uint_field("procs").unwrap_or(0),
                resp.uint_field("sites").unwrap_or(0),
                resp.uint_field("vars").unwrap_or(0)
            ),
        ),
        DriveCmd::Edit { session, .. } => note(
            err,
            &format!(
                "edited `{session}`: {} steps applied",
                resp.uint_field("applied").unwrap_or(0)
            ),
        ),
        DriveCmd::Query { session, .. } => {
            // The report is the payload; stdout gets it untouched.
            if let Some(report) = resp.str_field("report") {
                write!(out, "{report}")?;
                out.flush()?;
            }
            if resp.status == Status::Degraded {
                note(err, &format!("query `{session}`"))?;
            }
            Ok(())
        }
        DriveCmd::Close { session } => note(err, &format!("closed `{session}`")),
        DriveCmd::Stats => {
            let field = |k: &str| resp.uint_field(k).unwrap_or(0);
            note(
                err,
                &format!(
                    "stats: sessions={} connections={} requests={} ok={} degraded={} errors={} \
                     parked={} evictions={} recoveries={} shed={} journal_bytes={}",
                    field("sessions"),
                    field("connections"),
                    field("requests"),
                    field("ok"),
                    field("degraded"),
                    field("errors"),
                    field("parked"),
                    field("evictions"),
                    field("recoveries"),
                    field("shed"),
                    field("journal_bytes")
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_command_forms() {
        let script = "\
# comment
open  s1 prog.mp

edit s1 delta.edits
query s1 all
query s1 site 3
query s1 proc bump
stats
close s1
";
        let cmds = parse_drive(script).expect("parses");
        assert_eq!(cmds.len(), 7);
        assert_eq!(
            cmds[3].1,
            DriveCmd::Query {
                session: "s1".to_string(),
                target: QueryTarget::Site(3)
            }
        );
        assert_eq!(
            cmds[6].1,
            DriveCmd::Close {
                session: "s1".to_string()
            }
        );
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = parse_drive("open s1 a.mp\nquery s1 sideways\n").unwrap_err();
        assert!(err.contains("drive line 2"), "got: {err}");
        let err = parse_drive("query s1 site notanumber\n").unwrap_err();
        assert!(err.contains("bad site index"), "got: {err}");
    }

    #[test]
    fn retry_floor_never_collapses_to_a_hot_spin() {
        let policy = RetryPolicy::default();
        // A sane server hint wins as-is.
        assert_eq!(retry_floor_ms(Some(250), &policy), 250);
        // Missing, malformed (uint_field yields None), or zero hints all
        // fall back to the policy's base backoff.
        assert_eq!(retry_floor_ms(None, &policy), policy.base_ms);
        assert_eq!(retry_floor_ms(Some(0), &policy), policy.base_ms);
        // Even a pathological zero-base policy keeps a 1 ms floor.
        let hot = RetryPolicy {
            base_ms: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(retry_floor_ms(None, &hot), 1);

        // And the jitter sequence respects that floor on every draw.
        let mut jitter = Jitter::new(&hot);
        for _ in 0..64 {
            assert!(jitter.next_ms(retry_floor_ms(None, &hot)) >= 1);
        }
    }
}
