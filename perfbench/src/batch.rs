//! `batch_flat`: what `modref analyze --json` does, over a corpus.
//!
//! Set-up parses the whole corpus. An op takes the next program
//! round-robin: the write is `Analyzer::analyze` with one thread, the read
//! is `SiteSets::from_summary` plus `render_json` of every site. Runs
//! cover whole rounds, so every program contributes equally to the
//! percentiles. The analysis runs in a child process (`--role batch`);
//! the first report of each program is streamed back and checked against
//! the oracle, and every later op's report must hash to the same value.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use modref_core::{Guard, Summary};
use modref_incr::render::render_json;
use modref_incr::SiteSets;
use modref_ir::Program;

use crate::check;
use crate::child::{spawn_role, Reaped};
use crate::inputs::batch_corpus;
use crate::layers::{analyzer, decomposed, Decomposed, PhaseCounts};
use crate::spans::Recorder;
use crate::util::{fnv64, median, op_medians, peak_rss_kb, percentile, Metrics, Tally, Yardstick};
use crate::{layer_metrics, print_layer_shares, SETUP_REPEATS};

fn parse_all(corpus: &[String]) -> Vec<Program> {
    corpus
        .iter()
        .map(|s| check::parse(s).expect("generated programs parse"))
        .collect()
}

/// `--role batch`: reads `<count>\n` then `<len>\n<bytes>` per program on
/// stdin; writes `report <j> <len>\n<bytes>` for each program's first
/// op as it happens, then `setup_s`, `op` and `peak_kb` lines.
pub fn batch_role(seconds: f64) -> ExitCode {
    let mut input = BufReader::new(std::io::stdin().lock());
    let mut corpus = Vec::new();
    let mut line = String::new();
    let _ = input.read_line(&mut line);
    let count: usize = line.trim().parse().unwrap_or(0);
    for _ in 0..count {
        line.clear();
        let _ = input.read_line(&mut line);
        let mut buf = vec![0u8; line.trim().parse().unwrap_or(0)];
        if input.read_exact(&mut buf).is_err() {
            eprintln!("batch: truncated corpus");
            return ExitCode::FAILURE;
        }
        corpus.push(String::from_utf8(buf).unwrap_or_default());
    }
    // The set-ups run back to back in the fresh process, before the first
    // op: one spread over the run would parse in a process whose heap
    // the ops have grown, which no user's set-up does.
    let mut yardstick = Yardstick::default();
    let mut setup_s = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        programs = std::hint::black_box(parse_all(&corpus));
        let secs = t.elapsed().as_secs_f64();
        setup_s.push((secs, yardstick.measure()));
    }
    let analyzer = analyzer();
    let guard = Guard::unlimited();
    let mut out = std::io::stdout().lock();
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for (j, program) in programs.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = analyzer.analyze_guarded(program, &guard);
            let t1 = Instant::now();
            let sets = SiteSets::from_summary(program, outcome.summary());
            let report = render_json(program, &sets);
            let t2 = Instant::now();
            let report = std::hint::black_box(report);
            let ok = !outcome.is_degraded();
            ops.push((
                j,
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                fnv64(report.as_bytes()),
                ok,
                yardstick.measure(),
            ));
            if round == 0 {
                let _ = write!(out, "report {j} {}\n{report}", report.len());
            }
        }
        round += 1;
    }
    let peak = peak_rss_kb();
    for (s, f) in setup_s {
        let _ = writeln!(out, "setup_s {s} {f}");
    }
    for (j, w, r, h, ok, f) in ops {
        let _ = writeln!(out, "op {j} {w} {r} {h} {ok} {f}");
    }
    let _ = writeln!(out, "peak_kb {peak}");
    let _ = out.flush();
    ExitCode::SUCCESS
}

/// One timed op as the batch process reports it: program, write and read
/// ms, report hash, status, yardstick factor.
type Op = (usize, f64, f64, u64, bool, f64);

/// The untraced run: the seven end-to-end metrics.
pub fn untraced(seed: u64, seconds: f64) -> Result<(Metrics, Tally), String> {
    let corpus = batch_corpus(seed);
    let mut child = Reaped(spawn_role(
        "batch",
        &["--seconds".into(), seconds.to_string()],
    )?);
    {
        let mut stdin = child.0.stdin.take().expect("stdin is piped");
        let mut payload = format!("{}\n", corpus.len()).into_bytes();
        for text in &corpus {
            payload.extend_from_slice(format!("{}\n", text.len()).as_bytes());
            payload.extend_from_slice(text.as_bytes());
        }
        stdin
            .write_all(&payload)
            .map_err(|e| format!("cannot feed the batch process: {e}"))?;
    }
    let mut out = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
    let mut reports: Vec<Option<String>> = vec![None; corpus.len()];
    let (mut setups, mut ops, mut peak_kb) = (Vec::new(), Vec::new(), 0u64);
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["report", j, len] => {
                let mut buf = vec![0u8; len.parse().map_err(|_| "bad report length")?];
                out.read_exact(&mut buf).map_err(|e| e.to_string())?;
                let j: usize = j.parse().map_err(|_| "bad report index")?;
                reports[j] = Some(String::from_utf8(buf).map_err(|_| "report is not UTF-8")?);
            }
            ["setup_s", s, f] => setups.push(
                s.parse::<f64>().map_err(|_| "bad setup time")?
                    * f.parse::<f64>().map_err(|_| "bad factor")?,
            ),
            ["op", j, w, r, h, ok, f] => ops.push((
                j.parse::<usize>().map_err(|_| "bad op")?,
                w.parse::<f64>().map_err(|_| "bad op")? * 1e3,
                r.parse::<f64>().map_err(|_| "bad op")? * 1e3,
                h.parse::<u64>().map_err(|_| "bad op")?,
                *ok == "true",
                f.parse::<f64>().map_err(|_| "bad factor")?,
            )),
            ["peak_kb", n] => peak_kb = n.parse().map_err(|_| "bad peak")?,
            _ => return Err(format!("unexpected batch output: {line:?}")),
        }
    }
    let status = child.0.wait().map_err(|e| e.to_string())?;
    if !status.success() || ops.is_empty() {
        return Err(format!("batch process failed: {status}"));
    }
    // Checks, after every clock has stopped.
    let mut expected = Vec::with_capacity(corpus.len());
    for (j, text) in corpus.iter().enumerate() {
        let report = reports[j]
            .as_deref()
            .ok_or("a program's report is missing")?;
        let verdict = check::batch_report(text, report);
        if let Err(e) = &verdict {
            eprintln!("program {j}: {e}");
        }
        expected.push(verdict.is_ok().then(|| fnv64(report.as_bytes())));
    }
    let mut tally = Tally::default();
    for &(j, _, _, h, ok, _) in &ops {
        tally.record(ok && expected[j] == Some(h));
    }
    // Every program is one distinct op, repeated once per round; its times
    // are scaled by the yardstick factor measured after it.
    let n = corpus.len();
    let scaled = |ms: fn(&Op) -> f64| op_medians(ops.iter().map(|o| (o.0, ms(o) * o.5)), n);
    let op_ms = scaled(|o| o.1 + o.2);
    let write_ms = scaled(|o| o.1);
    let read_ms = scaled(|o| o.2);
    let raw = op_medians(ops.iter().map(|o| (o.0, o.1 + o.2)), n);
    let factors: Vec<f64> = ops.iter().map(|o| o.5).collect();
    println!(
        "unscaled op p50 {:.3} ms, p90 {:.3} ms",
        median(&raw),
        percentile(&raw, 0.9)
    );
    println!(
        "ops {} in {} rounds over {n} programs of {}..{} procedures, set-ups {}, median host factor {:.3}",
        ops.len(),
        ops.len() / n,
        crate::inputs::BATCH_MIN_PROCS,
        crate::inputs::BATCH_MAX_PROCS,
        setups.len(),
        median(&factors)
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    m.set("op_ms_p50", median(&op_ms), "ms");
    m.set("op_ms_p90", percentile(&op_ms, 0.9), "ms");
    m.set("write_ms_p50", median(&write_ms), "ms");
    m.set("read_ms_p50", median(&read_ms), "ms");
    m.set("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    m.set("ok_rate", tally.ok_rate(), "ratio");
    Ok((m, tally))
}

/// The decomposed pipeline reproduces the analyzer: same report bytes,
/// same per-phase op counts.
pub fn same_report(program: &Program, d: &Decomposed, summary: &Summary) -> bool {
    let want = render_json(program, &SiteSets::from_summary(program, summary));
    let ok = render_json(program, &d.sets) == want && d.counts == PhaseCounts::of(summary.stats());
    if !ok {
        eprintln!("layer decomposition differs from Analyzer::analyze");
    }
    ok
}

/// The traced run: every op decomposed into layer calls, alternating
/// traced and untraced, in-process.
pub fn traced(seed: u64, seconds: f64, trace_out: &Path) -> Result<(Metrics, Tally), String> {
    let corpus = batch_corpus(seed);
    let mut m = layer_metrics();
    let mut rec = Recorder::new();
    let programs: Vec<Program> = corpus
        .iter()
        .map(|text| rec.span("frontend.parse", |_| check::parse(text)))
        .collect::<Result<_, _>>()?;
    let setup = rec.self_ms(|op| op == 0);
    m.set(
        "frontend.parse_ms",
        setup.get("frontend.parse").copied().unwrap_or(0.0),
        "ms",
    );
    m.set(
        "frontend.source_kb",
        corpus.iter().map(String::len).sum::<usize>() as f64 / 1024.0,
        "KB",
    );

    let analyzer = analyzer();
    let mut reference: Vec<Option<(bool, u64)>> = vec![None; programs.len()];
    let mut tally = Tally::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut report_bytes, mut heap, mut beta, mut pairs, mut steps) =
        (0f64, 0f64, (0f64, 0f64), 0f64, (0f64, 0f64));
    // Tracing alternates per op and flips parity each round, so over an
    // even number of whole rounds every program runs traced and untraced
    // equally often.
    let start = Instant::now();
    let mut i = 0u64;
    let mut round = 0u64;
    while round < 2 || round % 2 == 1 || start.elapsed().as_secs_f64() < seconds {
        round += 1;
        for (j, program) in programs.iter().enumerate() {
            i += 1;
            rec.set_op(i);
            rec.on = (j as u64 + round) % 2 == 1;
            let t = Instant::now();
            let (d, report) = rec.span("op", |rec| {
                let d = rec.span("write", |rec| decomposed(rec, program));
                let report = rec.span("read", |rec| {
                    rec.span("incr.render.report", |_| render_json(program, &d.sets))
                });
                (d, report)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if rec.on {
                traced_ms.push(ms)
            } else {
                plain_ms.push(ms)
            }
            // Check against the untraced path once per program: bytes and
            // op counts; later ops of the program must match it too.
            let hash = fnv64(report.as_bytes());
            let (first_ok, first_hash) = *reference[j].get_or_insert_with(|| {
                let summary = analyzer.analyze(program);
                let ok = same_report(program, &d, &summary)
                    && check::batch_report(&corpus[j], &report).is_ok();
                (ok, hash)
            });
            tally.record(first_ok && hash == first_hash);
            report_bytes += report.len() as f64;
            heap += d.heap_bytes as f64;
            beta.0 += d.beta_nodes as f64;
            beta.1 += d.beta_edges as f64;
            pairs += d.alias_pairs as f64;
            let s = d.counts.steps();
            steps.0 += s.0 as f64;
            steps.1 += s.1 as f64;
        }
    }
    let n = i as f64;
    let n_traced = traced_ms.len() as f64;
    let per_op = rec.self_ms(|op| op >= 1);
    let layer = |name: &str| per_op.get(name).copied().unwrap_or(0.0) / n_traced;
    for (span, metric) in [
        ("ir.local_effects", "ir.local_effects_ms"),
        ("binding.build", "binding.build_ms"),
        ("binding.rmod", "binding.rmod_ms"),
        ("core.imod_plus", "core.imod_plus_ms"),
        ("core.gmod", "core.gmod_ms"),
        ("core.dmod", "core.dmod_ms"),
        ("core.alias", "core.alias_ms"),
        ("core.modsets", "core.modsets_ms"),
        ("incr.render.report", "incr.render.report_ms"),
    ] {
        m.set(metric, layer(span), "ms");
    }
    m.set(
        "incr.render.report_mb",
        report_bytes / n / (1 << 20) as f64,
        "MB",
    );
    m.set("bitset.heap_mb", heap / n / (1 << 20) as f64, "MB");
    m.set("binding.beta_nodes", beta.0 / n, "count");
    m.set("binding.beta_edges", beta.1 / n, "count");
    m.set("core.alias_pairs", pairs / n, "count");
    m.set("core.bitvec_steps", steps.0 / n, "count");
    m.set("core.bool_steps", steps.1 / n, "count");
    let op_total = rec.total_ms("op", |op| op >= 1);
    let glue = ["op", "write", "read"]
        .iter()
        .map(|s| per_op.get(s).copied().unwrap_or(0.0))
        .sum::<f64>();
    m.set(
        "trace.unattributed_pct",
        100.0 * glue / op_total.max(f64::MIN_POSITIVE),
        "%",
    );
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    m.set(
        "trace.overhead_pct",
        100.0 * (sum(&traced_ms) / sum(&plain_ms) - 1.0),
        "%",
    );
    print_layer_shares(&per_op, op_total);
    println!("ops {} in {round} rounds ({} traced)", i, traced_ms.len());
    rec.write_chrome(trace_out)
        .map_err(|e| format!("cannot write trace: {e}"))?;
    Ok((m, tally))
}
