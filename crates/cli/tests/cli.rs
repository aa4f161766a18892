//! End-to-end tests of the `modref` binary.

use std::io::Write as _;
use std::process::Command;

fn modref() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_modref"));
    // These tests assert exact output; keep them deterministic even when
    // the CI fault pass arms MODREF_FAULT in the environment.
    cmd.env_remove("MODREF_FAULT");
    cmd
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("modref-cli-test-{name}.mp"));
    let mut f = std::fs::File::create(&path).expect("create temp program");
    f.write_all(contents.as_bytes())
        .expect("write temp program");
    path
}

const DEMO: &str = "
var g, grid[*, *];
proc bump(x) { x = x + 1; g = g * 2; }
proc zero(row[*]) { row[0] = 0; }
main {
  var m;
  m = 20;
  call bump(m);
  call zero(grid[3, *]);
  print m;
}
";

#[test]
fn analyze_reports_mod_and_use() {
    let path = write_temp("analyze", DEMO);
    let out = modref().arg("analyze").arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("call bump (in main)"));
    assert!(text.contains("MOD  = {g, m}"));
    assert!(text.contains("USE  = {g, m}"));
    assert!(text.contains("call zero (in main)"));
    assert!(text.contains("MOD  = {grid}"));
}

#[test]
fn summary_lists_procedures() {
    let path = write_temp("summary", DEMO);
    let out = modref().arg("summary").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("proc bump (level 1)"));
    assert!(text.contains("RMOD"));
    assert!(text.contains("GMOD"));
}

#[test]
fn sections_show_row_write() {
    let path = write_temp("sections", DEMO);
    let out = modref().arg("sections").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MOD grid[3, 0]"), "got:\n{text}");
}

#[test]
fn parallel_reports_loop_verdicts() {
    let path = write_temp(
        "parallel",
        "var a[*, *], n;
         proc zero(row[*]) { row[0] = 0; }
         main {
           var i, acc;
           i = 0;
           while (i < n) { call zero(a[i, *]); i = i + 1; }
           i = 0;
           while (i < n) { acc = acc + i; i = i + 1; }
         }",
    );
    let out = modref().arg("parallel").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("loop #0 in main: PARALLELIZABLE over i"),
        "{text}"
    );
    assert!(text.contains("loop #1 in main: serial"), "{text}");
    assert!(text.contains("scalar `acc`"), "{text}");
}

#[test]
fn run_executes_the_program() {
    let path = write_temp("run", DEMO);
    let out = modref().arg("run").arg(&path).output().expect("runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "21");
}

#[test]
fn dot_emits_graphviz() {
    let path = write_temp("dot", DEMO);
    let out = modref()
        .args([
            "dot",
            path.to_str().expect("utf-8 path"),
            "--what",
            "callgraph",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph callgraph {"));
    assert!(text.contains("bump"));
}

#[test]
fn check_reports_shape() {
    let path = write_temp("check", DEMO);
    let out = modref().arg("check").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("procedures: 3"), "{text}");
    assert!(text.contains("d_P = 1"), "{text}");
}

#[test]
fn analyze_json_is_well_formed() {
    let path = write_temp("json", DEMO);
    let out = modref()
        .args(["analyze", path.to_str().expect("utf-8"), "--json"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"sites\":["));
    assert!(text.trim_end().ends_with("]}"));
    assert!(text.contains("\"callee\":\"bump\""));
    assert!(text.contains("\"mod\":[\"g\",\"m\"]"));
    // Balanced braces/brackets as a cheap well-formedness check.
    let depth_ok = text.chars().try_fold(0i32, |d, c| match c {
        '{' | '[' => Some(d + 1),
        '}' | ']' => {
            if d > 0 {
                Some(d - 1)
            } else {
                None
            }
        }
        _ => Some(d),
    });
    assert_eq!(depth_ok, Some(0));
}

#[test]
fn walkthrough_numbers_match_docs_algorithms_md() {
    // docs/ALGORITHMS.md walks this exact program; its published sets
    // must stay true.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/walkthrough.mp"
    );
    let out = modref().args(["summary", path]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "proc update (level 1)\n  RMOD  = {y}",
        "proc relay (level 1)\n  RMOD  = {x}\n  IMOD+ = {g, x}\n  GMOD  = {g, x}",
        "proc driver (level 1)\n  RMOD  = ∅\n  IMOD+ = {h, t}\n  GMOD  = {g, h, t}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let out = modref().args(["analyze", path]).output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("site s0: call update (in relay)"));
    assert!(text.contains("MOD  = {g, h, x}"), "{text}");
    assert!(text.contains("DMOD = {x}"), "{text}");
}

#[test]
fn parse_errors_fail_with_location() {
    let path = write_temp("bad", "main { oops }");
    let out = modref().arg("analyze").arg(&path).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1:"), "stderr: {err}");
}

#[test]
fn usage_on_bad_arguments() {
    for args in [&["frobnicate"][..], &["analyze"][..], &["dot", "x.mp"][..]] {
        let out = modref().args(args).output().expect("runs");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn threads_zero_is_a_usage_error() {
    let path = write_temp("threads-zero", DEMO);
    let out = modref()
        .args(["analyze", path.to_str().expect("utf-8"), "--threads", "0"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--threads must be at least 1"),
        "stderr: {err}"
    );
    assert!(err.contains("MODREF_THREADS=0"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn closed_stdout_ends_the_report_quietly() {
    // A report far larger than a pipe's buffer, so the writer is still
    // writing when the reader goes away.
    let mut source = String::from("var g;\n");
    for k in 0..4000 {
        source.push_str(&format!("proc p{k}() {{ g = g + 1; }}\n"));
    }
    source.push_str("main {\n");
    for k in 0..4000 {
        source.push_str(&format!("  call p{k}();\n"));
    }
    source.push_str("}\n");
    let path = write_temp("broken-pipe", &source);
    let mut child = modref()
        .args(["analyze", path.to_str().expect("utf-8")])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("runs");
    let mut first = String::new();
    std::io::BufRead::read_line(
        &mut std::io::BufReader::new(child.stdout.take().expect("piped stdout")),
        &mut first,
    )
    .expect("reads the first line");
    // The reader (and with it the pipe's only read end) is gone here.
    let out = child.wait_with_output().expect("exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(first.contains("4001 procedures"), "first line: {first}");
    assert_ne!(out.status.code(), Some(101), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(!err.contains("Broken pipe"), "stderr: {err}");
}

#[test]
fn gmod_naive_is_a_usage_error() {
    let path = write_temp("gmod-naive", DEMO);
    let out = modref()
        .args(["analyze", path.to_str().expect("utf-8"), "--gmod", "naive"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "exit code");
    assert!(out.stdout.is_empty(), "no report on a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    // The pipeline picks its GMOD algorithm itself; `--gmod` is no
    // option at all.
    assert!(err.contains("unknown flag `--gmod`"), "stderr: {err}");
    assert!(!err.contains("--gmod one"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn trace_flag_emits_valid_chrome_json() {
    let path = write_temp("trace", DEMO);
    let trace_path = std::env::temp_dir().join("modref-cli-test-trace-out.json");
    let plain = modref().arg("analyze").arg(&path).output().expect("runs");
    let traced = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--trace",
            trace_path.to_str().expect("utf-8"),
        ])
        .output()
        .expect("runs");
    assert!(traced.status.success());
    // Recording must not change the report.
    assert_eq!(plain.stdout, traced.stdout);

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(text.starts_with("{\"traceEvents\":["), "got: {text}");

    // The binary's own validator accepts it and sees the phase spans.
    let check = modref()
        .args(["trace-check", trace_path.to_str().expect("utf-8")])
        .output()
        .expect("runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let report = String::from_utf8_lossy(&check.stdout);
    assert!(report.contains("valid trace"), "{report}");
    for phase in [
        "analyze", "frontend", "local", "rmod", "gmod", "dmod", "modsets",
    ] {
        assert!(
            report.contains(phase),
            "missing span `{phase}` in:\n{report}"
        );
    }
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn metrics_flag_keeps_stdout_identical() {
    let path = write_temp("metrics", DEMO);
    let plain = modref().arg("analyze").arg(&path).output().expect("runs");
    let metered = modref()
        .args(["analyze", path.to_str().expect("utf-8"), "--metrics"])
        .output()
        .expect("runs");
    assert!(metered.status.success());
    assert_eq!(plain.stdout, metered.stdout);
    let err = String::from_utf8_lossy(&metered.stderr);
    assert!(err.contains("analyze"), "summary on stderr, got: {err}");
}

#[test]
fn trace_check_rejects_malformed_input() {
    let bad = std::env::temp_dir().join("modref-cli-test-bad-trace.json");
    std::fs::write(&bad, "{\"traceEvents\":[{\"ph\":\"X\"}]}").expect("write");
    let out = modref()
        .args(["trace-check", bad.to_str().expect("utf-8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a string `name`"));
    std::fs::write(&bad, "not json at all").expect("write");
    let out = modref()
        .args(["trace-check", bad.to_str().expect("utf-8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not valid JSON"));
    std::fs::remove_file(&bad).ok();
}

fn write_script(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("modref-cli-test-{name}.edits"));
    std::fs::write(&path, contents).expect("write edit script");
    path
}

#[test]
fn analyze_edits_applies_the_script() {
    let path = write_temp("edits", DEMO);
    let script = write_script(
        "edits",
        "# narrow bump to writing only the global\n\
         set-local bump mod=g\n\
         add-call main bump args=g\n",
    );
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("after 2 edits from"), "{text}");
    // The rewritten bump no longer touches its formal, so `m` drops out.
    assert!(text.contains("site s0: call bump (in main)"), "{text}");
    assert!(text.contains("MOD  = {g}"), "{text}");
    assert!(!text.contains("MOD  = {g, m}"), "{text}");
    // The appended call shows up as a fresh site.
    assert!(text.contains("site s2: call bump (in main)"), "{text}");
}

#[test]
fn analyze_edits_json_reflects_the_edited_program() {
    let path = write_temp("edits-json", DEMO);
    let script = write_script("edits-json", "set-local bump mod=g use=g\n");
    let incr = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(
        incr.status.success(),
        "{}",
        String::from_utf8_lossy(&incr.stderr)
    );
    let text = String::from_utf8_lossy(&incr.stdout);
    assert!(text.starts_with("{\"sites\":["), "{text}");
    assert!(text.contains("\"mod\":[\"g\"]"), "{text}");
    assert!(text.contains("\"use\":[\"g\"]"), "{text}");
    assert!(!text.contains("\"mod\":[\"g\",\"m\"]"), "{text}");
}

#[test]
fn analyze_edits_bad_script_is_a_clean_error() {
    let path = write_temp("edits-bad", DEMO);
    let script = write_script("edits-bad", "set-local nosuchproc mod=g\n");
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("script line 1"), "stderr: {err}");
}

#[test]
fn analyze_edits_metrics_reports_per_edit_counters() {
    let path = write_temp("edits-metrics", DEMO);
    let script = write_script("edits-metrics", "set-local bump mod=g\n");
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
            "--metrics",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("edit #0"), "stderr: {err}");
    assert!(err.contains("reused"), "stderr: {err}");
    // The trace summary still prints, with the incremental span in it
    // and the IR edit attributed to its own span.
    assert!(err.contains("incr.apply"), "stderr: {err}");
    assert!(err.contains("incr.phase.edit"), "stderr: {err}");

    // A structural edit reports what it did to the alias relation.
    // `bump(g)` adds `⟨x,g⟩` to `bump`, and removing it (site 2, after
    // the two calls in `main`) over-deletes and loses that one pair.
    // `bump(m)` adds nothing — `bump(m)` at site 0 already put `⟨x,m⟩`
    // there — and removing it over-deletes `⟨x,m⟩`, which site 0 then
    // re-derives.
    let script = write_script(
        "edits-metrics-structural",
        "add-call main bump args=g\nremove-call 2\nadd-call main bump args=m\nremove-call 2\n",
    );
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
            "--metrics",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let line = |k: usize| {
        err.lines()
            .find(|l| l.starts_with(&format!("edit #{k}")))
            .unwrap_or_else(|| panic!("no edit #{k} metrics line in:\n{err}"))
            .to_string()
    };
    for (k, counts) in [
        "1 added / 0 removed / 0 over-deleted",
        "0 added / 1 removed / 1 over-deleted",
        "0 added / 0 removed / 0 over-deleted",
        "0 added / 0 removed / 1 over-deleted",
    ]
    .into_iter()
    .enumerate()
    {
        let line = line(k);
        assert!(line.ends_with(&format!("alias pairs {counts}")), "{line}");
    }
}

#[test]
fn analyze_edits_zero_budget_degrades_with_exit_code_3() {
    let path = write_temp("edits-budget", DEMO);
    let script = write_script("edits-budget", "set-local bump mod=g\n");
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
            "--budget-ops",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded"), "stderr: {err}");
    assert!(err.contains("sound over-approximations"), "stderr: {err}");
    // Degraded output is still a full report.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("site s0"), "{text}");
}

#[test]
fn analyze_edits_malformed_scripts_pin_stderr_and_exit_one() {
    // Every malformed script must exit 1 with a message naming the
    // offending line — parse errors, resolve errors, and rejected edits
    // alike — and must never print a (possibly wrong) report on stdout.
    let cases: &[(&str, &str, &str)] = &[
        (
            "bad-verb",
            "frobnicate bump\n",
            "script line 1: unknown edit verb `frobnicate`",
        ),
        (
            "bad-arity",
            "set-local bump mod=g\nrebind 0\n",
            "script line 2: `rebind` takes 3 positional operand(s), got 1",
        ),
        (
            "bad-index",
            "\n# leading comment\nremove-call abc\n",
            "script line 3: `abc` is not a site index",
        ),
        (
            "empty-list",
            "set-local bump mod=\n",
            "script line 1: empty `mod=` list",
        ),
        (
            "site-range",
            "remove-call 99\n",
            "script line 1: call site 99 out of range (program has 2)",
        ),
        (
            "bad-var",
            "set-local bump mod=nosuchvar\n",
            "script line 1: unknown variable `nosuchvar`",
        ),
        (
            "bad-proc",
            "add-call main nosuchproc\n",
            "script line 1: unknown procedure `nosuchproc`",
        ),
        (
            "rejected",
            "set-local bump mod=g\nremove-proc main\n",
            "script line 2: edit rejected",
        ),
    ];
    for &(name, script_text, want) in cases {
        let path = write_temp(&format!("edits-{name}"), DEMO);
        let script = write_script(&format!("edits-{name}"), script_text);
        let out = modref()
            .args([
                "analyze",
                path.to_str().expect("utf-8"),
                "--edits",
                script.to_str().expect("utf-8"),
            ])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(1), "{name}: exit code");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{name}: stderr was:\n{err}");
        assert!(
            out.stdout.is_empty(),
            "{name}: a failed script must not print a report"
        );
    }
}

#[test]
fn analyze_edits_metrics_pin_full_cutoff_on_a_reasserted_edit() {
    // Re-asserting identical local effects is the canonical early-cutoff
    // workload: the second edit must recompute *zero* components on every
    // phase and reuse every site, and the counters must say so exactly.
    let path = write_temp("edits-cutoff", DEMO);
    let script = write_script(
        "edits-cutoff",
        "set-local bump mod=g use=g\nset-local bump mod=g use=g\n",
    );
    let out = modref()
        .args([
            "analyze",
            path.to_str().expect("utf-8"),
            "--edits",
            script.to_str().expect("utf-8"),
            "--metrics",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err
        .lines()
        .find(|l| l.starts_with("edit #1"))
        .unwrap_or_else(|| panic!("no edit #1 metrics line in:\n{err}"));
    let expected = format!(
        "edit #1 ({}:2): gmod components 6 reused / 0 recomputed, \
         rmod 0 / 0, sites 2 / 0, 1 procs re-scanned, \
         alias pairs 0 added / 0 removed / 0 over-deleted",
        script.to_str().expect("utf-8")
    );
    assert_eq!(line, expected, "full stderr:\n{err}");
    // The first edit really changed things, so it must show recomputation
    // — the zero row above is a cutoff, not a broken counter.
    let first = err
        .lines()
        .find(|l| l.starts_with("edit #0"))
        .expect("edit #0 metrics line");
    assert!(
        first.contains("4 recomputed"),
        "edit #0 should recompute: {first}"
    );
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = modref()
        .args(["analyze", "/nonexistent/nowhere.mp"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
