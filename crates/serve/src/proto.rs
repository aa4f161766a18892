//! The JSON-RPC request/response vocabulary.
//!
//! Every frame carries one JSON object. Requests have an `id` (echoed on
//! the response), an `op`, and op-specific fields; responses have the
//! echoed `id` plus a three-valued `status` that mirrors the CLI's exit
//! codes: `"ok"` (exact results — exit 0), `"error"` (the request was
//! rejected, session state unchanged beyond any named applied prefix —
//! exit 1), `"degraded"` (the request was served under a tripped budget,
//! deadline, or contained fault; any reported sets are sound
//! over-approximations — exit 3). A fourth status, `"overloaded"`,
//! carries no result at all: the server shed the request under
//! admission control and the client should retry after the
//! `retry_after_ms` hint. See `docs/SERVER.md` for the full schema.
//!
//! Parsing uses the dependency-free [`modref_trace::parse_json`]; both
//! sides render with [`modref_trace::escape_json`], so the wire format
//! shares one escaping implementation with every other JSON the
//! workspace emits.

use modref_trace::{escape_json, escape_json_into, parse_json, Json};

/// What a `query` asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// Every call site's `MOD`/`DMOD`/`USE` (the `analyze --json` report).
    All,
    /// One call site by current index.
    Site(usize),
    /// One procedure's `GMOD`/`GUSE` by name.
    Proc(String),
}

impl QueryTarget {
    /// The wire form: `all`, `site:<n>`, or `proc:<name>`.
    pub fn render(&self) -> String {
        match self {
            QueryTarget::All => "all".to_owned(),
            QueryTarget::Site(n) => format!("site:{n}"),
            QueryTarget::Proc(p) => format!("proc:{p}"),
        }
    }

    fn parse(text: &str) -> Result<QueryTarget, String> {
        if text == "all" {
            return Ok(QueryTarget::All);
        }
        if let Some(n) = text.strip_prefix("site:") {
            return n
                .parse::<usize>()
                .map(QueryTarget::Site)
                .map_err(|_| format!("bad site index in target `{text}`"));
        }
        if let Some(p) = text.strip_prefix("proc:") {
            if p.is_empty() {
                return Err("empty procedure name in query target".to_owned());
            }
            return Ok(QueryTarget::Proc(p.to_owned()));
        }
        Err(format!(
            "unknown query target `{text}` (expected all, site:<n>, or proc:<name>)"
        ))
    }
}

/// One request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a session from program source text.
    Open {
        /// Session name (client-chosen, unique per server).
        session: String,
        /// MiniProc source text.
        program: String,
        /// Open in demand-driven mode: no up-front solve; `site:`/`proc:`
        /// queries resolve lazily and a `target=all` query promotes the
        /// session to the exhaustive engine.
        lazy: bool,
    },
    /// Apply a batched edit script (the `--edits` grammar) to a session.
    Edit {
        /// Target session.
        session: String,
        /// Edit script text, one edit per line.
        script: String,
    },
    /// Read MOD/USE results from a session.
    Query {
        /// Target session.
        session: String,
        /// What to report.
        target: QueryTarget,
    },
    /// Drop a session.
    Close {
        /// Target session.
        session: String,
    },
    /// Server-wide request/latency/session counters.
    Stats,
}

impl Request {
    /// The `op` string this request carries on the wire.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Edit { .. } => "edit",
            Request::Query { .. } => "query",
            Request::Close { .. } => "close",
            Request::Stats => "stats",
        }
    }

    /// The session the request addresses, if any (`stats` has none).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Edit { session, .. }
            | Request::Query { session, .. }
            | Request::Close { session } => Some(session),
            Request::Stats => None,
        }
    }
}

/// A full request frame: id, body, and optional per-request guard
/// overrides (tighter than the server's configured defaults or, when the
/// server has none, the only limits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Client-chosen id, echoed verbatim on the response.
    pub id: u64,
    /// The operation.
    pub request: Request,
    /// Per-request op budget (bit-vector + boolean steps).
    pub budget_ops: Option<u64>,
    /// Per-request wall-clock deadline, milliseconds.
    pub timeout_ms: Option<u64>,
}

/// A request that could not be understood. Carries the id when one was
/// recoverable so the error response can still be correlated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, if the frame got far enough to contain one.
    pub id: Option<u64>,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

fn get_str(obj: &Json, key: &str) -> Option<String> {
    obj.get(key).and_then(Json::as_str).map(str::to_owned)
}

/// A JSON number field as an exact non-negative integer (the parser
/// reads numbers as `f64`; ids and budgets must be whole).
fn get_uint(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_num()
                .ok_or_else(|| format!("`{key}` must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err(format!("`{key}` must be a non-negative integer"));
            }
            Ok(Some(n as u64))
        }
    }
}

impl Envelope {
    /// Parses one request payload.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] naming the first problem; the id is
    /// included whenever the payload parsed far enough to contain one.
    pub fn parse(payload: &[u8]) -> Result<Envelope, ProtoError> {
        let fail = |id: Option<u64>, message: String| ProtoError { id, message };
        let text = std::str::from_utf8(payload)
            .map_err(|_| fail(None, "request payload is not UTF-8".to_owned()))?;
        let root = parse_json(text).map_err(|e| fail(None, format!("bad request JSON: {e}")))?;
        if !matches!(root, Json::Obj(_)) {
            return Err(fail(None, "request must be a JSON object".to_owned()));
        }
        let id = get_uint(&root, "id")
            .map_err(|m| fail(None, m))?
            .ok_or_else(|| fail(None, "request is missing a numeric `id`".to_owned()))?;
        let some = Some(id);
        let op = get_str(&root, "op")
            .ok_or_else(|| fail(some, "request is missing a string `op`".to_owned()))?;
        let need = |key: &str| {
            get_str(&root, key).ok_or_else(|| fail(some, format!("`{op}` needs a string `{key}`")))
        };
        let request = match op.as_str() {
            "open" => Request::Open {
                session: need("session")?,
                program: need("program")?,
                lazy: match root.get("lazy") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(fail(some, "`lazy` must be a boolean".to_owned())),
                },
            },
            "edit" => Request::Edit {
                session: need("session")?,
                script: need("script")?,
            },
            "query" => Request::Query {
                session: need("session")?,
                target: QueryTarget::parse(&need("target")?).map_err(|m| fail(some, m))?,
            },
            "close" => Request::Close {
                session: need("session")?,
            },
            "stats" => Request::Stats,
            other => return Err(fail(some, format!("unknown op `{other}`"))),
        };
        Ok(Envelope {
            id,
            request,
            budget_ops: get_uint(&root, "budget_ops").map_err(|m| fail(some, m))?,
            timeout_ms: get_uint(&root, "timeout_ms").map_err(|m| fail(some, m))?,
        })
    }

    /// Renders the wire JSON for this request (the client side of
    /// [`Envelope::parse`]; the two round-trip).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{{\"id\":{},\"op\":\"{}\"", self.id, self.request.op_name());
        let mut field = |k: &str, v: &str| {
            let _ = write!(out, ",\"{k}\":\"{}\"", escape_json(v));
        };
        match &self.request {
            Request::Open {
                session,
                program,
                lazy,
            } => {
                field("session", session);
                field("program", program);
                if *lazy {
                    out.push_str(",\"lazy\":true");
                }
            }
            Request::Edit { session, script } => {
                field("session", session);
                field("script", script);
            }
            Request::Query { session, target } => {
                field("session", session);
                field("target", &target.render());
            }
            Request::Close { session } => field("session", session),
            Request::Stats => {}
        }
        if let Some(n) = self.budget_ops {
            let _ = write!(out, ",\"budget_ops\":{n}");
        }
        if let Some(ms) = self.timeout_ms {
            let _ = write!(out, ",\"timeout_ms\":{ms}");
        }
        out.push('}');
        out
    }
}

/// Response status — the wire form of the CLI's 0/1/3 exit contract,
/// plus the admission-control refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Exact results.
    Ok,
    /// Served, but under a trip or contained fault; sets are sound
    /// over-approximations.
    Degraded,
    /// Rejected; nothing (beyond any named applied prefix) changed.
    Error,
    /// Shed under load: the server is at capacity (session table full
    /// with nothing evictable, or too many connections). Nothing
    /// changed; the response carries a `retry_after_ms` hint and the
    /// request is safe to resend after backing off.
    Overloaded,
}

impl Status {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Degraded => "degraded",
            Status::Error => "error",
            Status::Overloaded => "overloaded",
        }
    }
}

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_owned(), |n| n.to_string())
}

/// `{"id":…,"status":"error","error":"…"}` — also used for frame-level
/// failures, where no id is recoverable (`id` becomes `null`).
pub fn resp_error(id: Option<u64>, message: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"error\",\"error\":\"{}\"}}",
        id_json(id),
        escape_json(message)
    )
}

/// A successful `open`. `resurrected` is set when the session was
/// rebuilt from its journal or parked history rather than analysed
/// fresh; `degraded` carries a reason when the session opened but its
/// durability could not be established (journal create/append failed).
pub fn resp_open(
    id: u64,
    session: &str,
    procs: usize,
    sites: usize,
    vars: usize,
    resurrected: bool,
    degraded: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let status = if degraded.is_some() { "degraded" } else { "ok" };
    let mut out = format!(
        "{{\"id\":{id},\"status\":\"{status}\",\"op\":\"open\",\"session\":\"{}\",\
         \"procs\":{procs},\"sites\":{sites},\"vars\":{vars}",
        escape_json(session)
    );
    if resurrected {
        out.push_str(",\"resurrected\":true");
    }
    if let Some(reason) = degraded {
        let _ = write!(out, ",\"reason\":\"{}\"", escape_json(reason));
    }
    out.push('}');
    out
}

/// An admission-control refusal: the server shed this request and the
/// client should retry after roughly `retry_after_ms` milliseconds.
pub fn resp_overloaded(id: Option<u64>, retry_after_ms: u64, reason: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\
         \"reason\":\"{}\"}}",
        id_json(id),
        escape_json(reason)
    )
}

/// An `edit` response; `degraded` carries the reason when the apply was
/// cut short (the applied count includes the degraded step — its edit
/// *is* in the program, with conservative sets).
pub fn resp_edit(id: u64, session: &str, applied: usize, degraded: Option<&str>) -> String {
    match degraded {
        None => format!(
            "{{\"id\":{id},\"status\":\"ok\",\"op\":\"edit\",\"session\":\"{}\",\
             \"applied\":{applied}}}",
            escape_json(session)
        ),
        Some(reason) => format!(
            "{{\"id\":{id},\"status\":\"degraded\",\"op\":\"edit\",\"session\":\"{}\",\
             \"applied\":{applied},\"reason\":\"{}\"}}",
            escape_json(session),
            escape_json(reason)
        ),
    }
}

/// A `query` response. `report` is the rendered report text (for
/// `target=all`, byte-identical to `analyze --json` output on the same
/// program), carried as an escaped JSON string.
pub fn resp_query(id: u64, session: &str, degraded: Option<&str>, report: &str) -> String {
    use std::fmt::Write as _;
    // A report is JSON text, so many of its bytes are quotes that escape
    // to two: half again its length covers that, and the response is
    // allocated once instead of grown while the report is copied in.
    let reason = degraded.map_or(0, str::len);
    let mut out = String::with_capacity(96 + session.len() + reason + report.len() * 3 / 2);
    let status = if degraded.is_some() { "degraded" } else { "ok" };
    let _ = write!(
        out,
        "{{\"id\":{id},\"status\":\"{status}\",\"op\":\"query\",\"session\":\""
    );
    escape_json_into(&mut out, session);
    if let Some(reason) = degraded {
        out.push_str("\",\"reason\":\"");
        escape_json_into(&mut out, reason);
    }
    out.push_str("\",\"report\":\"");
    escape_json_into(&mut out, report);
    out.push_str("\"}");
    out
}

/// A successful `close`.
pub fn resp_close(id: u64, session: &str) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"ok\",\"op\":\"close\",\"session\":\"{}\"}}",
        escape_json(session)
    )
}

/// A point-in-time copy of the server's counters, rendered by
/// [`resp_stats`] and parsed back by the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions currently live (engine resident in memory).
    pub sessions: usize,
    /// Sessions evicted to their journal/history, resurrectable on the
    /// next request that names them.
    pub parked: usize,
    /// Connections accepted so far.
    pub connections: u64,
    /// Requests parsed (including ones answered with an error).
    pub requests: u64,
    /// Responses by status.
    pub ok: u64,
    /// See [`StatsSnapshot::ok`].
    pub degraded: u64,
    /// See [`StatsSnapshot::ok`].
    pub errors: u64,
    /// Sessions evicted (parked) to make room under `--max-sessions`.
    pub evictions: u64,
    /// Sessions rebuilt from a journal or parked history (startup
    /// recovery + transparent resurrection).
    pub recoveries: u64,
    /// Requests/connections answered `overloaded` and shed.
    pub shed: u64,
    /// Journal bytes written by this process plus bytes recovered at
    /// startup.
    pub journal_bytes: u64,
    /// Sum of per-request latencies, microseconds.
    pub latency_total_us: u64,
    /// Worst single request latency, microseconds.
    pub latency_max_us: u64,
    /// Requests per op, in `open, edit, query, close, stats` order.
    pub per_op: [u64; 5],
}

/// A `stats` response.
pub fn resp_stats(id: u64, s: &StatsSnapshot) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"ok\",\"op\":\"stats\",\"sessions\":{},\"parked\":{},\
         \"connections\":{},\"requests\":{},\"ok\":{},\"degraded\":{},\"errors\":{},\
         \"evictions\":{},\"recoveries\":{},\"shed\":{},\"journal_bytes\":{},\
         \"latency_total_us\":{},\"latency_max_us\":{},\
         \"per_op\":{{\"open\":{},\"edit\":{},\"query\":{},\"close\":{},\"stats\":{}}}}}",
        s.sessions,
        s.parked,
        s.connections,
        s.requests,
        s.ok,
        s.degraded,
        s.errors,
        s.evictions,
        s.recoveries,
        s.shed,
        s.journal_bytes,
        s.latency_total_us,
        s.latency_max_us,
        s.per_op[0],
        s.per_op[1],
        s.per_op[2],
        s.per_op[3],
        s.per_op[4],
    )
}

/// A parsed response, as the client sees it.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id (`None` when the server could not recover one —
    /// frame-level errors).
    pub id: Option<u64>,
    /// The three-valued status.
    pub status: Status,
    /// The whole response object, for op-specific fields.
    pub body: Json,
}

impl Response {
    /// Parses one response payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_owned())?;
        let body = parse_json(text).map_err(|e| format!("bad response JSON: {e}"))?;
        let status = match body.get("status").and_then(Json::as_str) {
            Some("ok") => Status::Ok,
            Some("degraded") => Status::Degraded,
            Some("error") => Status::Error,
            Some("overloaded") => Status::Overloaded,
            Some(other) => return Err(format!("unknown response status `{other}`")),
            None => return Err("response is missing `status`".to_owned()),
        };
        let id = match body.get("id") {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            Some(Json::Null) | None => None,
            Some(_) => return Err("response `id` must be a number or null".to_owned()),
        };
        Ok(Response { id, status, body })
    }

    /// A string field of the response object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.body.get(key).and_then(Json::as_str)
    }

    /// A non-negative integer field of the response object.
    pub fn uint_field(&self, key: &str) -> Option<u64> {
        let n = self.body.get(key).and_then(Json::as_num)?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let cases = vec![
            Envelope {
                id: 1,
                request: Request::Open {
                    session: "s \"quoted\"".into(),
                    program: "main { }\nvar g;\n".into(),
                    lazy: false,
                },
                budget_ops: None,
                timeout_ms: None,
            },
            Envelope {
                id: 11,
                request: Request::Open {
                    session: "lazy1".into(),
                    program: "main { }\n".into(),
                    lazy: true,
                },
                budget_ops: None,
                timeout_ms: None,
            },
            Envelope {
                id: 2,
                request: Request::Edit {
                    session: "s1".into(),
                    script: "set-local p mod=g\n# tab\there".into(),
                },
                budget_ops: Some(12345),
                timeout_ms: None,
            },
            Envelope {
                id: 3,
                request: Request::Query {
                    session: "s1".into(),
                    target: QueryTarget::Site(7),
                },
                budget_ops: None,
                timeout_ms: Some(250),
            },
            Envelope {
                id: 4,
                request: Request::Query {
                    session: "s1".into(),
                    target: QueryTarget::Proc("bump".into()),
                },
                budget_ops: None,
                timeout_ms: None,
            },
            Envelope {
                id: 5,
                request: Request::Close {
                    session: "s1".into(),
                },
                budget_ops: None,
                timeout_ms: None,
            },
            Envelope {
                id: 6,
                request: Request::Stats,
                budget_ops: Some(1),
                timeout_ms: Some(1),
            },
        ];
        for env in cases {
            let wire = env.render();
            let back = Envelope::parse(wire.as_bytes()).expect("parses own rendering");
            assert_eq!(back, env, "round-trip of {wire}");
        }
    }

    #[test]
    fn parse_rejections_keep_the_id_when_recoverable() {
        let e = Envelope::parse(b"{\"id\":9,\"op\":\"open\"}").unwrap_err();
        assert_eq!(e.id, Some(9));
        assert!(e.message.contains("session"), "{}", e.message);

        let e = Envelope::parse(b"{\"op\":\"stats\"}").unwrap_err();
        assert_eq!(e.id, None);
        assert!(e.message.contains("id"), "{}", e.message);

        let e = Envelope::parse(b"not json").unwrap_err();
        assert!(e.message.contains("JSON"), "{}", e.message);

        let e = Envelope::parse(b"{\"id\":1,\"op\":\"frobnicate\"}").unwrap_err();
        assert!(e.message.contains("unknown op"), "{}", e.message);

        let e = Envelope::parse(b"{\"id\":1.5,\"op\":\"stats\"}").unwrap_err();
        assert!(e.message.contains("id"), "{}", e.message);

        let e =
            Envelope::parse(b"{\"id\":1,\"op\":\"query\",\"session\":\"s\",\"target\":\"site:x\"}")
                .unwrap_err();
        assert!(e.message.contains("site index"), "{}", e.message);

        let e = Envelope::parse(
            b"{\"id\":1,\"op\":\"open\",\"session\":\"s\",\"program\":\"\",\"lazy\":\"yes\"}",
        )
        .unwrap_err();
        assert!(
            e.message.contains("`lazy` must be a boolean"),
            "{}",
            e.message
        );
    }

    #[test]
    fn open_lazy_defaults_to_false_when_absent() {
        let env = Envelope::parse(
            b"{\"id\":2,\"op\":\"open\",\"session\":\"s\",\"program\":\"main { }\"}",
        )
        .expect("parses");
        assert!(matches!(env.request, Request::Open { lazy: false, .. }));
    }

    #[test]
    fn responses_parse_status_and_fields() {
        let r =
            Response::parse(resp_open(3, "s1", 2, 1, 4, false, None).as_bytes()).expect("parses");
        assert_eq!(r.id, Some(3));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.uint_field("procs"), Some(2));
        assert!(r.body.get("resurrected").is_none());

        let r = Response::parse(
            resp_open(4, "s1", 2, 1, 4, true, Some("journal unavailable")).as_bytes(),
        )
        .expect("parses");
        assert_eq!(r.status, Status::Degraded);
        assert_eq!(r.str_field("reason"), Some("journal unavailable"));
        assert!(matches!(r.body.get("resurrected"), Some(Json::Bool(true))));

        let r = Response::parse(resp_overloaded(Some(9), 50, "session table busy").as_bytes())
            .expect("parses");
        assert_eq!(r.id, Some(9));
        assert_eq!(r.status, Status::Overloaded);
        assert_eq!(r.uint_field("retry_after_ms"), Some(50));
        assert_eq!(r.str_field("reason"), Some("session table busy"));

        let r = Response::parse(resp_error(None, "frame: zero-length frame").as_bytes())
            .expect("parses");
        assert_eq!(r.id, None);
        assert_eq!(r.status, Status::Error);
        assert!(r.str_field("error").unwrap().contains("zero-length"));

        let r =
            Response::parse(resp_query(8, "s", Some("deadline"), "{\"sites\":[]}\n").as_bytes())
                .expect("parses");
        assert_eq!(r.status, Status::Degraded);
        assert_eq!(r.str_field("report"), Some("{\"sites\":[]}\n"));
    }

    /// `resp_query` writes the bytes of the `format!` it replaced, with
    /// and without a reason, on names and reports that need escaping.
    #[test]
    fn query_responses_keep_their_bytes() {
        fn old(id: u64, session: &str, degraded: Option<&str>, report: &str) -> String {
            match degraded {
                None => format!(
                    "{{\"id\":{id},\"status\":\"ok\",\"op\":\"query\",\"session\":\"{}\",\
                     \"report\":\"{}\"}}",
                    escape_json(session),
                    escape_json(report)
                ),
                Some(reason) => format!(
                    "{{\"id\":{id},\"status\":\"degraded\",\"op\":\"query\",\"session\":\"{}\",\
                     \"reason\":\"{}\",\"report\":\"{}\"}}",
                    escape_json(session),
                    escape_json(reason),
                    escape_json(report)
                ),
            }
        }
        let reports = [
            "",
            "{\"sites\":[]}\n",
            "{\"proc\":\"p\\\"q\",\"gmod\":[\"a\\tb\",\"é\"],\"guse\":[]}\n",
        ];
        for report in reports {
            for session in ["s", "s\"1\\\u{1}"] {
                for degraded in [None, Some("budget\nexhausted")] {
                    assert_eq!(
                        resp_query(7, session, degraded, report),
                        old(7, session, degraded, report)
                    );
                }
            }
        }
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let snap = StatsSnapshot {
            sessions: 2,
            parked: 3,
            connections: 5,
            requests: 41,
            ok: 38,
            degraded: 2,
            errors: 1,
            evictions: 6,
            recoveries: 4,
            shed: 9,
            journal_bytes: 2048,
            latency_total_us: 123456,
            latency_max_us: 9001,
            per_op: [4, 10, 24, 2, 1],
        };
        let r = Response::parse(resp_stats(7, &snap).as_bytes()).expect("parses");
        assert_eq!(r.uint_field("sessions"), Some(2));
        assert_eq!(r.uint_field("parked"), Some(3));
        assert_eq!(r.uint_field("requests"), Some(41));
        assert_eq!(r.uint_field("evictions"), Some(6));
        assert_eq!(r.uint_field("recoveries"), Some(4));
        assert_eq!(r.uint_field("shed"), Some(9));
        assert_eq!(r.uint_field("journal_bytes"), Some(2048));
        assert_eq!(r.uint_field("latency_max_us"), Some(9001));
        let per_op = r.body.get("per_op").expect("per_op");
        assert_eq!(per_op.get("query").and_then(Json::as_num), Some(24.0));
    }
}
