//! Hand-rolled argument parsing for the `modref` CLI.

use modref_core::SetRepr;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  modref analyze  <file.mp> [--no-use] [--no-alias] [--parallel] [--json]
                            [--threads N]
                            [--set-repr dense|hybrid|auto]
                            [--timeout-ms N] [--budget-ops N]
                            [--trace <out.json>] [--metrics]
                            [--edits <script>] [--query site:N|proc:NAME]
  modref summary  <file.mp>
  modref sections <file.mp>
  modref parallel <file.mp>
  modref dot      <file.mp> --what callgraph|binding
  modref run      <file.mp> [--seed N] [--fuel N]
  modref check    <file.mp>
  modref trace-check <trace.json>
  modref serve    --addr <host:port> [--max-sessions N] [--threads N]
                  [--set-repr dense|hybrid|auto]
                  [--request-budget-ops N] [--request-timeout-ms N]
                  [--state-dir <dir>] [--fsync always|never] [--no-evict]
                  [--max-conns N]
  modref client   --addr <host:port> <drive.script>
                  [--retries N] [--retry-base-ms N]

exit codes:
  0 success   1 input/analysis error   2 usage error
  3 analysis degraded (budget, deadline, or injected fault); the
    printed sets are still sound over-approximations";

/// A point query: answer for one call site or one procedure only,
/// demand-driven (the analysis touches only the slice the query needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// `site:N` — `MOD`/`USE`/`DMOD` at call site `N`.
    Site(usize),
    /// `proc:NAME` — `GMOD`/`GUSE` of the named procedure.
    Proc(String),
}

impl QuerySpec {
    /// Parses a `--query` value (`site:N` or `proc:NAME`).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the problem.
    pub fn parse(text: &str) -> Result<QuerySpec, String> {
        if let Some(n) = text.strip_prefix("site:") {
            let idx: usize = n
                .parse()
                .map_err(|_| format!("bad --query site index `{n}`"))?;
            Ok(QuerySpec::Site(idx))
        } else if let Some(name) = text.strip_prefix("proc:") {
            if name.is_empty() {
                Err("--query proc: needs a procedure name".into())
            } else {
                Ok(QuerySpec::Proc(name.to_owned()))
            }
        } else {
            Err(format!(
                "bad --query `{text}` (expected site:N or proc:NAME)"
            ))
        }
    }
}

/// Which graph `modref dot` emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotWhat {
    /// The call multi-graph.
    CallGraph,
    /// The binding multi-graph.
    Binding,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Full per-call-site MOD/USE report.
    Analyze {
        /// Input path.
        file: String,
        /// Skip the USE side.
        no_use: bool,
        /// Skip alias factoring.
        no_alias: bool,
        /// Run the MOD and USE halves on separate threads.
        parallel: bool,
        /// Emit machine-readable JSON instead of the text report.
        json: bool,
        /// Worker-thread count for the pooled phases (0 = one per core).
        threads: Option<usize>,
        /// Wall-clock deadline for the whole analysis, in milliseconds.
        timeout_ms: Option<u64>,
        /// Combined bit-vector + boolean operation budget.
        budget_ops: Option<u64>,
        /// Write a Chrome trace-event JSON recording of the run here.
        trace: Option<String>,
        /// Print the trace summary table to stderr after the run.
        metrics: bool,
        /// Edit script to apply incrementally before reporting.
        edits: Option<String>,
        /// Point query: answer for one site/procedure only, lazily.
        query: Option<QuerySpec>,
        /// Set representation for every solver phase (`--set-repr`).
        set_repr: SetRepr,
    },
    /// Per-procedure summary table.
    Summary {
        /// Input path.
        file: String,
    },
    /// Regular sections per call site.
    Sections {
        /// Input path.
        file: String,
    },
    /// Loop-parallelisation verdicts.
    Parallel {
        /// Input path.
        file: String,
    },
    /// Graphviz export.
    Dot {
        /// Input path.
        file: String,
        /// Which graph.
        what: DotWhat,
    },
    /// Parse and validate only.
    Check {
        /// Input path.
        file: String,
    },
    /// Validate a previously written `--trace` file.
    TraceCheck {
        /// Path of the trace JSON.
        file: String,
    },
    /// Execute the program in the reference interpreter.
    Run {
        /// Input path.
        file: String,
        /// Input-stream seed.
        seed: u64,
        /// Statement budget.
        fuel: u64,
    },
    /// Run the analysis daemon until killed (SIGTERM/SIGINT drain
    /// gracefully).
    Serve {
        /// Listen address, `host:port` (port 0 picks a free port).
        addr: String,
        /// Cap on concurrently *live* sessions (a soft cap unless
        /// `no_evict`).
        max_sessions: usize,
        /// Default per-request op budget.
        request_budget_ops: Option<u64>,
        /// Default per-request deadline in milliseconds.
        request_timeout_ms: Option<u64>,
        /// Worker-thread count for each session's pooled phases.
        threads: Option<usize>,
        /// Directory for per-session durable edit journals.
        state_dir: Option<String>,
        /// Hard-fail opens at the session cap instead of LRU-evicting.
        no_evict: bool,
        /// Journal fsync policy: `always` (default) or `never`.
        fsync: String,
        /// Cap on concurrent connections before load shedding.
        max_conns: usize,
        /// Set representation sessions inherit (`--set-repr`).
        set_repr: SetRepr,
    },
    /// Drive a running daemon from a script.
    Client {
        /// Server address, `host:port`.
        addr: String,
        /// Drive-script path (program/edit paths resolve relative to it).
        script: String,
        /// Attempts for refused connects and `overloaded` responses
        /// (1 = no retries).
        retries: u32,
        /// Base backoff sleep in milliseconds.
        retry_base_ms: u64,
    },
}

impl Command {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the problem.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let verb = it.next().ok_or("missing command")?;
        match verb.as_str() {
            "analyze" => {
                let mut file = None;
                let mut no_use = false;
                let mut no_alias = false;
                let mut parallel = false;
                let mut json = false;
                let mut threads = None;
                let mut timeout_ms = None;
                let mut budget_ops = None;
                let mut trace = None;
                let mut metrics = false;
                let mut edits = None;
                let mut query = None;
                let mut set_repr = SetRepr::Dense;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--no-use" => no_use = true,
                        "--no-alias" => no_alias = true,
                        "--parallel" => parallel = true,
                        "--json" => json = true,
                        "--threads" => {
                            let v = it.next().ok_or("--threads needs a value")?;
                            let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                            if n == 0 {
                                return Err("--threads must be at least 1 \
                                     (set MODREF_THREADS=0 for one worker per core)"
                                    .into());
                            }
                            threads = Some(n);
                        }
                        "--timeout-ms" => {
                            let v = it.next().ok_or("--timeout-ms needs a value")?;
                            timeout_ms =
                                Some(v.parse().map_err(|_| format!("bad --timeout-ms `{v}`"))?);
                        }
                        "--budget-ops" => {
                            let v = it.next().ok_or("--budget-ops needs a value")?;
                            budget_ops =
                                Some(v.parse().map_err(|_| format!("bad --budget-ops `{v}`"))?);
                        }
                        "--trace" => {
                            let v = it.next().ok_or("--trace needs an output path")?;
                            trace = Some(v.clone());
                        }
                        "--metrics" => metrics = true,
                        "--set-repr" => {
                            let v = it.next().ok_or("--set-repr needs dense|hybrid|auto")?;
                            set_repr = parse_set_repr(v)?;
                        }
                        "--edits" => {
                            let v = it.next().ok_or("--edits needs a script path")?;
                            edits = Some(v.clone());
                        }
                        "--query" => {
                            let v = it.next().ok_or("--query needs site:N or proc:NAME")?;
                            query = Some(QuerySpec::parse(v)?);
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag `{flag}`"))
                        }
                        path => set_file(&mut file, path)?,
                    }
                }
                Ok(Command::Analyze {
                    file: file.ok_or("missing input file")?,
                    no_use,
                    no_alias,
                    parallel,
                    json,
                    threads,
                    timeout_ms,
                    budget_ops,
                    trace,
                    metrics,
                    edits,
                    query,
                    set_repr,
                })
            }
            "trace-check" => {
                let mut file = None;
                for a in it {
                    if a.starts_with('-') {
                        return Err(format!("unknown flag `{a}`"));
                    }
                    set_file(&mut file, a)?;
                }
                Ok(Command::TraceCheck {
                    file: file.ok_or("missing trace file")?,
                })
            }
            "summary" | "sections" | "parallel" | "check" => {
                let mut file = None;
                for a in it {
                    if a.starts_with('-') {
                        return Err(format!("unknown flag `{a}`"));
                    }
                    set_file(&mut file, a)?;
                }
                let file = file.ok_or("missing input file")?;
                Ok(match verb.as_str() {
                    "summary" => Command::Summary { file },
                    "sections" => Command::Sections { file },
                    "parallel" => Command::Parallel { file },
                    _ => Command::Check { file },
                })
            }
            "run" => {
                let mut file = None;
                let mut seed = 0u64;
                let mut fuel = 100_000u64;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                        }
                        "--fuel" => {
                            let v = it.next().ok_or("--fuel needs a value")?;
                            fuel = v.parse().map_err(|_| format!("bad --fuel `{v}`"))?;
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag `{flag}`"))
                        }
                        path => set_file(&mut file, path)?,
                    }
                }
                Ok(Command::Run {
                    file: file.ok_or("missing input file")?,
                    seed,
                    fuel,
                })
            }
            "dot" => {
                let mut file = None;
                let mut what = None;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--what" => {
                            let v = it.next().ok_or("--what needs a value")?;
                            what = Some(match v.as_str() {
                                "callgraph" => DotWhat::CallGraph,
                                "binding" => DotWhat::Binding,
                                other => return Err(format!("unknown --what value `{other}`")),
                            });
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag `{flag}`"))
                        }
                        path => set_file(&mut file, path)?,
                    }
                }
                Ok(Command::Dot {
                    file: file.ok_or("missing input file")?,
                    what: what.ok_or("missing --what callgraph|binding")?,
                })
            }
            "serve" => {
                let mut addr = None;
                let mut max_sessions = 64usize;
                let mut request_budget_ops = None;
                let mut request_timeout_ms = None;
                let mut threads = None;
                let mut state_dir = None;
                let mut no_evict = false;
                let mut fsync = "always".to_owned();
                let mut max_conns = 256usize;
                let mut set_repr = SetRepr::Dense;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--state-dir" => {
                            let v = it.next().ok_or("--state-dir needs a directory")?;
                            state_dir = Some(v.clone());
                        }
                        "--set-repr" => {
                            let v = it.next().ok_or("--set-repr needs dense|hybrid|auto")?;
                            set_repr = parse_set_repr(v)?;
                        }
                        "--no-evict" => no_evict = true,
                        "--fsync" => {
                            let v = it.next().ok_or("--fsync needs always|never")?;
                            if v != "always" && v != "never" {
                                return Err(format!(
                                    "bad --fsync `{v}` (expected always or never)"
                                ));
                            }
                            fsync = v.clone();
                        }
                        "--max-conns" => {
                            let v = it.next().ok_or("--max-conns needs a value")?;
                            let n: usize =
                                v.parse().map_err(|_| format!("bad --max-conns `{v}`"))?;
                            if n == 0 {
                                return Err("--max-conns must be at least 1".into());
                            }
                            max_conns = n;
                        }
                        "--addr" => {
                            let v = it.next().ok_or("--addr needs a host:port value")?;
                            addr = Some(v.clone());
                        }
                        "--max-sessions" => {
                            let v = it.next().ok_or("--max-sessions needs a value")?;
                            let n: usize =
                                v.parse().map_err(|_| format!("bad --max-sessions `{v}`"))?;
                            if n == 0 {
                                return Err("--max-sessions must be at least 1".into());
                            }
                            max_sessions = n;
                        }
                        "--request-budget-ops" => {
                            let v = it.next().ok_or("--request-budget-ops needs a value")?;
                            request_budget_ops = Some(
                                v.parse()
                                    .map_err(|_| format!("bad --request-budget-ops `{v}`"))?,
                            );
                        }
                        "--request-timeout-ms" => {
                            let v = it.next().ok_or("--request-timeout-ms needs a value")?;
                            request_timeout_ms = Some(
                                v.parse()
                                    .map_err(|_| format!("bad --request-timeout-ms `{v}`"))?,
                            );
                        }
                        "--threads" => {
                            let v = it.next().ok_or("--threads needs a value")?;
                            let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                            if n == 0 {
                                return Err("--threads must be at least 1 \
                                     (set MODREF_THREADS=0 for one worker per core)"
                                    .into());
                            }
                            threads = Some(n);
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag `{flag}`"))
                        }
                        extra => return Err(format!("unexpected extra argument `{extra}`")),
                    }
                }
                Ok(Command::Serve {
                    addr: addr.ok_or("missing --addr host:port")?,
                    max_sessions,
                    request_budget_ops,
                    request_timeout_ms,
                    threads,
                    state_dir,
                    no_evict,
                    fsync,
                    max_conns,
                    set_repr,
                })
            }
            "client" => {
                let mut addr = None;
                let mut script = None;
                let mut retries = 8u32;
                let mut retry_base_ms = 10u64;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--addr" => {
                            let v = it.next().ok_or("--addr needs a host:port value")?;
                            addr = Some(v.clone());
                        }
                        "--retries" => {
                            let v = it.next().ok_or("--retries needs a value")?;
                            let n: u32 = v.parse().map_err(|_| format!("bad --retries `{v}`"))?;
                            if n == 0 {
                                return Err("--retries must be at least 1 (1 = no retries)".into());
                            }
                            retries = n;
                        }
                        "--retry-base-ms" => {
                            let v = it.next().ok_or("--retry-base-ms needs a value")?;
                            retry_base_ms = v
                                .parse()
                                .map_err(|_| format!("bad --retry-base-ms `{v}`"))?;
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag `{flag}`"))
                        }
                        path => set_file(&mut script, path)?,
                    }
                }
                Ok(Command::Client {
                    addr: addr.ok_or("missing --addr host:port")?,
                    script: script.ok_or("missing drive script")?,
                    retries,
                    retry_base_ms,
                })
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// Parses a `--set-repr` value.
fn parse_set_repr(v: &str) -> Result<SetRepr, String> {
    match v {
        "dense" => Ok(SetRepr::Dense),
        "hybrid" => Ok(SetRepr::Hybrid),
        "auto" => Ok(SetRepr::Auto),
        other => Err(format!(
            "unknown --set-repr value `{other}` (expected dense, hybrid, or auto)"
        )),
    }
}

fn set_file(slot: &mut Option<String>, path: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("unexpected extra argument `{path}`"));
    }
    *slot = Some(path.to_owned());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = words.iter().map(|&w| w.to_owned()).collect();
        Command::parse(&owned)
    }

    #[test]
    fn analyze_with_flags() {
        let cmd = parse(&["analyze", "x.mp", "--no-use", "--json"]).expect("parses");
        assert_eq!(
            cmd,
            Command::Analyze {
                file: "x.mp".into(),
                no_use: true,
                no_alias: false,
                parallel: false,
                json: true,
                threads: None,
                timeout_ms: None,
                budget_ops: None,
                trace: None,
                metrics: false,
                edits: None,
                query: None,
                set_repr: SetRepr::Dense,
            }
        );
    }

    #[test]
    fn analyze_threads_and_levels() {
        // More than one thread is also what selects level-scheduled GMOD.
        let cmd = parse(&["analyze", "x.mp", "--threads", "4"]).expect("parses");
        assert_eq!(
            cmd,
            Command::Analyze {
                file: "x.mp".into(),
                no_use: false,
                no_alias: false,
                parallel: false,
                json: false,
                threads: Some(4),
                timeout_ms: None,
                budget_ops: None,
                trace: None,
                metrics: false,
                edits: None,
                query: None,
                set_repr: SetRepr::Dense,
            }
        );
        assert!(parse(&["analyze", "x.mp", "--threads"])
            .unwrap_err()
            .contains("--threads needs a value"));
        assert!(parse(&["analyze", "x.mp", "--threads", "many"])
            .unwrap_err()
            .contains("bad --threads"));
    }

    #[test]
    fn set_repr_flag_parses_and_rejects() {
        let cmd = parse(&["analyze", "x.mp", "--set-repr", "hybrid"]).expect("parses");
        assert!(matches!(
            cmd,
            Command::Analyze {
                set_repr: SetRepr::Hybrid,
                ..
            }
        ));
        let cmd = parse(&["serve", "--addr", "x:1", "--set-repr", "auto"]).expect("parses");
        assert!(matches!(
            cmd,
            Command::Serve {
                set_repr: SetRepr::Auto,
                ..
            }
        ));
        assert!(parse(&["analyze", "x.mp", "--set-repr", "bogus"])
            .unwrap_err()
            .contains("unknown --set-repr"));
        assert!(parse(&["analyze", "x.mp", "--set-repr"])
            .unwrap_err()
            .contains("--set-repr needs"));
    }

    #[test]
    fn analyze_budget_flags() {
        let cmd = parse(&[
            "analyze",
            "x.mp",
            "--timeout-ms",
            "250",
            "--budget-ops",
            "9000",
        ])
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Analyze {
                file: "x.mp".into(),
                no_use: false,
                no_alias: false,
                parallel: false,
                json: false,
                threads: None,
                timeout_ms: Some(250),
                budget_ops: Some(9000),
                trace: None,
                metrics: false,
                edits: None,
                query: None,
                set_repr: SetRepr::Dense,
            }
        );
        assert!(parse(&["analyze", "x.mp", "--timeout-ms"])
            .unwrap_err()
            .contains("--timeout-ms needs a value"));
        assert!(parse(&["analyze", "x.mp", "--timeout-ms", "soon"])
            .unwrap_err()
            .contains("bad --timeout-ms"));
        assert!(parse(&["analyze", "x.mp", "--budget-ops", "-3"])
            .unwrap_err()
            .contains("bad --budget-ops"));
    }

    #[test]
    fn analyze_rejects_zero_threads() {
        let err = parse(&["analyze", "x.mp", "--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        assert!(err.contains("MODREF_THREADS=0"), "{err}");
    }

    #[test]
    fn analyze_trace_and_metrics() {
        let cmd = parse(&["analyze", "x.mp", "--trace", "out.json", "--metrics"]).expect("parses");
        match cmd {
            Command::Analyze { trace, metrics, .. } => {
                assert_eq!(trace.as_deref(), Some("out.json"));
                assert!(metrics);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&["analyze", "x.mp", "--trace"])
            .unwrap_err()
            .contains("--trace needs an output path"));
    }

    #[test]
    fn analyze_edits_flag() {
        let cmd = parse(&["analyze", "x.mp", "--edits", "session.edits"]).expect("parses");
        match cmd {
            Command::Analyze { edits, .. } => {
                assert_eq!(edits.as_deref(), Some("session.edits"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&["analyze", "x.mp", "--edits"])
            .unwrap_err()
            .contains("--edits needs a script path"));
    }

    #[test]
    fn analyze_query_flag() {
        let cmd = parse(&["analyze", "x.mp", "--query", "site:3"]).expect("parses");
        match cmd {
            Command::Analyze { query, .. } => assert_eq!(query, Some(QuerySpec::Site(3))),
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse(&["analyze", "x.mp", "--query", "proc:solver"]).expect("parses");
        match cmd {
            Command::Analyze { query, .. } => {
                assert_eq!(query, Some(QuerySpec::Proc("solver".into())));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&["analyze", "x.mp", "--query"])
            .unwrap_err()
            .contains("--query needs"));
        assert!(parse(&["analyze", "x.mp", "--query", "site:many"])
            .unwrap_err()
            .contains("bad --query site index"));
        assert!(parse(&["analyze", "x.mp", "--query", "proc:"])
            .unwrap_err()
            .contains("needs a procedure name"));
        assert!(parse(&["analyze", "x.mp", "--query", "global:g"])
            .unwrap_err()
            .contains("expected site:N or proc:NAME"));
    }

    #[test]
    fn trace_check_verb() {
        assert_eq!(
            parse(&["trace-check", "t.json"]).expect("parses"),
            Command::TraceCheck {
                file: "t.json".into()
            }
        );
        assert!(parse(&["trace-check"])
            .unwrap_err()
            .contains("missing trace file"));
    }

    #[test]
    fn dot_requires_what() {
        assert!(parse(&["dot", "x.mp"]).is_err());
        let cmd = parse(&["dot", "x.mp", "--what", "binding"]).expect("parses");
        assert_eq!(
            cmd,
            Command::Dot {
                file: "x.mp".into(),
                what: DotWhat::Binding
            }
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&[]).unwrap_err().contains("missing command"));
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&["analyze"])
            .unwrap_err()
            .contains("missing input file"));
        assert!(parse(&["analyze", "a", "b"])
            .unwrap_err()
            .contains("extra argument"));
        assert!(parse(&["analyze", "x", "--gmod", "fused"])
            .unwrap_err()
            .contains("unknown flag `--gmod`"));
    }

    #[test]
    fn serve_flags_and_defaults() {
        let cmd = parse(&["serve", "--addr", "127.0.0.1:0"]).expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                max_sessions: 64,
                request_budget_ops: None,
                request_timeout_ms: None,
                threads: None,
                state_dir: None,
                no_evict: false,
                fsync: "always".into(),
                max_conns: 256,
                set_repr: SetRepr::Dense,
            }
        );
        let cmd = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:7788",
            "--max-sessions",
            "8",
            "--request-budget-ops",
            "50000",
            "--request-timeout-ms",
            "250",
            "--threads",
            "4",
            "--state-dir",
            "/tmp/modref-state",
            "--no-evict",
            "--fsync",
            "never",
            "--max-conns",
            "32",
        ])
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:7788".into(),
                max_sessions: 8,
                request_budget_ops: Some(50_000),
                request_timeout_ms: Some(250),
                threads: Some(4),
                state_dir: Some("/tmp/modref-state".into()),
                no_evict: true,
                fsync: "never".into(),
                max_conns: 32,
                set_repr: SetRepr::Dense,
            }
        );
        assert!(parse(&["serve"]).unwrap_err().contains("missing --addr"));
        assert!(parse(&["serve", "--addr", "x:1", "--max-sessions", "0"])
            .unwrap_err()
            .contains("--max-sessions must be at least 1"));
        assert!(parse(&["serve", "--addr", "x:1", "--fsync", "sometimes"])
            .unwrap_err()
            .contains("bad --fsync"));
        assert!(parse(&["serve", "--addr", "x:1", "--max-conns", "0"])
            .unwrap_err()
            .contains("--max-conns must be at least 1"));
    }

    #[test]
    fn client_needs_addr_and_script() {
        let cmd = parse(&["client", "--addr", "127.0.0.1:7788", "drive.txt"]).expect("parses");
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:7788".into(),
                script: "drive.txt".into(),
                retries: 8,
                retry_base_ms: 10,
            }
        );
        let cmd = parse(&[
            "client",
            "--addr",
            "127.0.0.1:7788",
            "drive.txt",
            "--retries",
            "3",
            "--retry-base-ms",
            "25",
        ])
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:7788".into(),
                script: "drive.txt".into(),
                retries: 3,
                retry_base_ms: 25,
            }
        );
        assert!(parse(&["client", "drive.txt"])
            .unwrap_err()
            .contains("missing --addr"));
        assert!(parse(&["client", "--addr", "x:1"])
            .unwrap_err()
            .contains("missing drive script"));
        assert!(
            parse(&["client", "--addr", "x:1", "d.txt", "--retries", "0"])
                .unwrap_err()
                .contains("--retries must be at least 1")
        );
    }

    #[test]
    fn simple_verbs() {
        assert_eq!(
            parse(&["check", "p.mp"]).expect("parses"),
            Command::Check {
                file: "p.mp".into()
            }
        );
        assert_eq!(
            parse(&["summary", "p.mp"]).expect("parses"),
            Command::Summary {
                file: "p.mp".into()
            }
        );
    }
}
