//! A hermetic wall-clock micro-benchmark runner (the criterion
//! replacement).
//!
//! Each benchmark is timed as: **warmup** (until the measured iteration
//! cost stabilises enough to calibrate a batch size), then **K samples**
//! of `iters` iterations each, reporting the **median** sample — the
//! standard robust estimator for wall-clock microbenchmarks.
//!
//! Results stream to stdout as human-readable lines and are appended as
//! JSON lines to `target/modref-bench/BENCH_<group>.json` (override the
//! directory with `MODREF_BENCH_DIR`), one object per benchmark:
//!
//! ```json
//! {"group":"rmod","bench":"figure1","param":"256","median_ns":123456,
//!  "min_ns":120000,"max_ns":130000,"samples":5,"iters":10}
//! ```
//!
//! The file format is append-friendly on purpose: successive runs build a
//! trajectory that `EXPERIMENTS.md` and future regression tooling can
//! diff. Set `MODREF_BENCH_QUICK=1` to cut sample counts for smoke runs.

use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// A named group of benchmarks, mirroring one criterion `benchmark_group`.
pub struct BenchGroup {
    group: String,
    samples: u32,
    target_sample: Duration,
    quick: bool,
    dir: String,
    seed: Option<String>,
    results: Vec<BenchResult>,
}

/// Knobs for a [`BenchGroup`], resolved once at construction so tests can
/// inject them without mutating the process environment.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// Output directory for the JSON lines; `None` means the workspace
    /// `target/modref-bench` default.
    pub dir: Option<String>,
    /// Cut sample counts and warmup budgets for smoke runs.
    pub quick: bool,
    /// Workload seed recorded verbatim on every JSON line, so a bench
    /// trajectory can be replayed (`MODREF_SEED=<seed> cargo bench …`).
    pub seed: Option<String>,
}

impl BenchOptions {
    /// The environment-driven defaults (`MODREF_BENCH_DIR`,
    /// `MODREF_BENCH_QUICK`, `MODREF_SEED`) used by [`BenchGroup::new`].
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            dir: std::env::var("MODREF_BENCH_DIR").ok(),
            quick: quick_mode(),
            seed: std::env::var("MODREF_SEED").ok(),
        }
    }
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (one per bench binary, by convention).
    pub group: String,
    /// Benchmark name within the group.
    pub bench: String,
    /// The workload parameter (size, rank, …) as a string.
    pub param: String,
    /// Median of the per-iteration sample means, in nanoseconds.
    pub median_ns: u128,
    /// Fastest sample, ns/iter.
    pub min_ns: u128,
    /// Slowest sample, ns/iter.
    pub max_ns: u128,
    /// Number of samples taken.
    pub samples: u32,
    /// Iterations per sample.
    pub iters: u64,
    /// The `MODREF_SEED` the run was launched with, if any; rides along
    /// in the JSON so every recorded case names its replay seed.
    pub seed: Option<String>,
}

impl BenchResult {
    /// The JSON-lines encoding (no external serializer needed: every
    /// field is a number or a name we control, escaped conservatively).
    #[must_use]
    pub fn to_json(&self) -> String {
        // The full JSON escaper (carriage returns, tabs, and the other
        // C0 controls included — a bare `\n`-only escaper silently emits
        // invalid JSON for a param like "256\r").
        use modref_trace::escape_json as esc;
        let seed = self
            .seed
            .as_deref()
            .map_or_else(String::new, |s| format!(",\"seed\":\"{}\"", esc(s)));
        format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"param\":\"{}\",\
             \"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"samples\":{},\"iters\":{}{seed}}}",
            esc(&self.group),
            esc(&self.bench),
            esc(&self.param),
            self.median_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters,
        )
    }
}

fn quick_mode() -> bool {
    std::env::var("MODREF_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// `<workspace root>/target/modref-bench`: cargo runs bench binaries with
/// the *package* directory as cwd, so walk up to the first ancestor that
/// owns a `Cargo.lock` (the workspace root) before anchoring `target/`.
fn default_bench_dir() -> String {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() || dir.join("target").is_dir() {
            return dir
                .join("target/modref-bench")
                .to_string_lossy()
                .into_owned();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return "target/modref-bench".to_owned(),
        }
    }
}

impl BenchGroup {
    /// Starts a group named `group` with the environment-driven knobs.
    #[must_use]
    pub fn new(group: &str) -> Self {
        Self::with_options(group, BenchOptions::from_env())
    }

    /// Starts a group with explicit knobs; nothing is read from the
    /// environment, so concurrent tests cannot interfere.
    #[must_use]
    pub fn with_options(group: &str, opts: BenchOptions) -> Self {
        let (samples, target_sample) = if opts.quick {
            (3, Duration::from_millis(5))
        } else {
            (7, Duration::from_millis(40))
        };
        Self {
            group: group.to_owned(),
            samples,
            target_sample,
            quick: opts.quick,
            dir: opts.dir.unwrap_or_else(default_bench_dir),
            seed: opts.seed,
            results: Vec::new(),
        }
    }

    /// Overrides the sample count (median-of-K).
    #[must_use]
    pub fn samples(mut self, k: u32) -> Self {
        self.samples = k.max(1);
        self
    }

    /// Records an already-measured raw value (an operation count, a byte
    /// size) as a result row: `median_ns`/`min_ns`/`max_ns` all carry the
    /// value verbatim, with 1 sample × 1 iter marking it as recorded
    /// rather than timed. Deterministic metrics ride the same JSON-lines
    /// stream as timings, so gates (`bench_gate --pair`) can compare
    /// op-count rows exactly like timed rows.
    pub fn record(&mut self, bench: &str, param: impl ToString, value: u128) {
        let result = BenchResult {
            group: self.group.clone(),
            bench: bench.to_owned(),
            param: param.to_string(),
            median_ns: value,
            min_ns: value,
            max_ns: value,
            samples: 1,
            iters: 1,
            seed: self.seed.clone(),
        };
        println!(
            "{:>24} / {:<10} {:>14} (recorded)",
            format!("{}::{}", result.group, result.bench),
            result.param,
            result.median_ns,
        );
        self.results.push(result);
    }

    /// Times `f`, labelled `bench` with workload parameter `param`.
    /// Wrap returned values in [`black_box`] yourself only if the
    /// computation could otherwise be optimised away; the runner already
    /// black-boxes the closure result.
    pub fn bench<R>(&mut self, bench: &str, param: impl ToString, mut f: impl FnMut() -> R) {
        self.bench_with_setup(bench, param, || (), |()| f());
    }

    /// Times `routine` with a fresh `setup()` value per iteration; only
    /// the routine is on the clock (criterion's `iter_batched`). Use when
    /// the routine consumes or mutates its input.
    pub fn bench_with_setup<T, R>(
        &mut self,
        bench: &str,
        param: impl ToString,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) {
        let param = param.to_string();

        // Warmup + calibration: run single iterations until we have both
        // warmed caches and a cost estimate for batching. Only the
        // routine counts toward the estimate.
        let mut est = Duration::ZERO;
        let mut warm_iters = 0u32;
        let warm_budget = if self.quick {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(100)
        };
        let warm_start = Instant::now();
        while warm_start.elapsed() < warm_budget && warm_iters < 1000 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            est = t.elapsed();
            warm_iters += 1;
            if est > warm_budget {
                break; // One iteration blows the budget; stop warming.
            }
        }

        // Batch size: enough iterations to fill the target sample time,
        // at least one.
        let iters = if est.is_zero() {
            1000
        } else {
            (self.target_sample.as_nanos() / est.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        let mut per_iter: Vec<u128> = (0..self.samples)
            .map(|_| {
                let mut busy = Duration::ZERO;
                for _ in 0..iters {
                    let input = setup();
                    let t = Instant::now();
                    black_box(routine(input));
                    busy += t.elapsed();
                }
                busy.as_nanos() / u128::from(iters)
            })
            .collect();
        per_iter.sort_unstable();

        let result = BenchResult {
            group: self.group.clone(),
            bench: bench.to_owned(),
            param,
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            samples: self.samples,
            iters,
            seed: self.seed.clone(),
        };
        println!(
            "{:>24} / {:<10} {:>14} ns/iter  (min {}, max {}, {}x{} iters)",
            format!("{}::{}", result.group, result.bench),
            result.param,
            result.median_ns,
            result.min_ns,
            result.max_ns,
            result.samples,
            result.iters,
        );
        self.results.push(result);
    }

    /// Writes the group's JSON lines and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written — a
    /// bench run whose results vanish silently is worse than a loud stop.
    pub fn finish(self) -> Vec<BenchResult> {
        let dir = self.dir.clone();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create bench output dir {dir}: {e}"));
        let path = format!("{dir}/BENCH_{}.json", self.group);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        for r in &self.results {
            writeln!(file, "{}", r.to_json()).expect("bench result write failed");
        }
        println!("-- {} results appended to {path}", self.results.len());
        self.results
    }

    /// Like [`finish`](Self::finish), but also drops the recording from
    /// `trace` next to the `BENCH_*.json` lines: the span summary table
    /// as `TRACE_<group>.txt` and the Chrome trace-event JSON as
    /// `TRACE_<group>.json` (truncate, not append — each run replaces the
    /// last recording). A disabled trace writes nothing extra.
    ///
    /// # Panics
    ///
    /// Panics on output I/O failure, like [`finish`](Self::finish).
    pub fn finish_with_trace(self, trace: &modref_trace::Trace) -> Vec<BenchResult> {
        let dir = self.dir.clone();
        let group = self.group.clone();
        let results = self.finish();
        if trace.is_enabled() {
            let txt = format!("{dir}/TRACE_{group}.txt");
            std::fs::write(&txt, trace.export_summary())
                .unwrap_or_else(|e| panic!("cannot write {txt}: {e}"));
            let json = format!("{dir}/TRACE_{group}.json");
            std::fs::write(&json, trace.export_chrome())
                .unwrap_or_else(|e| panic!("cannot write {json}: {e}"));
            println!("-- span summary written to {txt} (chrome trace: {json})");
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_param(param: &str) -> BenchResult {
        BenchResult {
            group: "g".into(),
            bench: "b".into(),
            param: param.into(),
            median_ns: 42,
            min_ns: 40,
            max_ns: 44,
            samples: 5,
            iters: 10,
            seed: None,
        }
    }

    #[test]
    fn json_escapes_and_round_numbers() {
        let r = BenchResult {
            group: "g\"x".into(),
            ..result_with_param("256")
        };
        let json = r.to_json();
        assert!(json.contains("\\\"x"));
        assert!(json.contains("\"median_ns\":42"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_escapes_every_control_character() {
        // The old escaper only handled `"` `\` and `\n`; each row here is
        // (raw param, expected escaped form inside the JSON string).
        let table: &[(&str, &str)] = &[
            ("plain", "plain"),
            ("qu\"ote", "qu\\\"ote"),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ("carriage\rreturn", "carriage\\rreturn"),
            ("tab\there", "tab\\there"),
            ("bell\u{7}", "bell\\u0007"),
            ("nul\u{0}", "nul\\u0000"),
            ("esc\u{1b}[0m", "esc\\u001b[0m"),
            ("unit\u{1f}sep", "unit\\u001fsep"),
        ];
        for (raw, escaped) in table {
            let json = result_with_param(raw).to_json();
            let want = format!("\"param\":\"{escaped}\"");
            assert!(
                json.contains(&want),
                "param {raw:?}: missing {want} in {json}"
            );
            assert!(
                !json.bytes().any(|b| b < 0x20),
                "param {raw:?}: raw control byte leaked into {json:?}"
            );
        }
    }

    #[test]
    fn seed_rides_along_in_every_json_line() {
        // No seed configured: the key is absent entirely, keeping old
        // consumers' parsers and the append-friendly trajectory intact.
        assert!(!result_with_param("1").to_json().contains("seed"));

        let r = BenchResult {
            seed: Some("0xdead\"beef".into()),
            ..result_with_param("64")
        };
        let json = r.to_json();
        assert!(json.contains("\"seed\":\"0xdead\\\"beef\""), "{json}");
        assert!(json.ends_with('}'), "{json}");

        // Group-level plumbing: a seed in the options stamps every
        // measured case, exactly as MODREF_SEED would via from_env.
        let dir = std::env::temp_dir().join(format!("modref-bench-seed-{}", std::process::id()));
        let opts = BenchOptions {
            dir: Some(dir.to_string_lossy().into_owned()),
            quick: true,
            seed: Some("42".into()),
        };
        let mut g = BenchGroup::with_options("seedtest", opts);
        g.bench("spin", 8, || 0u64);
        g.bench("spin", 16, || 1u64);
        let results = g.finish();
        assert!(results.iter().all(|r| r.seed.as_deref() == Some("42")));
        let text = std::fs::read_to_string(dir.join("BENCH_seedtest.json")).expect("written");
        for line in text.lines() {
            assert!(line.contains("\"seed\":\"42\""), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_measures_and_writes_hermetically() {
        // Explicit options, not env vars: parallel tests in this process
        // must not observe our knobs.
        let dir = std::env::temp_dir().join(format!("modref-bench-test-{}", std::process::id()));
        let opts = BenchOptions {
            dir: Some(dir.to_string_lossy().into_owned()),
            quick: true,
            seed: None,
        };
        let mut g = BenchGroup::with_options("selftest", opts);
        g.bench("spin", 64, || {
            let mut acc = 0u64;
            for i in 0..64u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let results = g.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].median_ns > 0);
        let path = dir.join("BENCH_selftest.json");
        let text = std::fs::read_to_string(&path).expect("json lines written");
        assert!(text.lines().count() >= 1);
        assert!(text.contains("\"group\":\"selftest\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_with_trace_writes_span_summary_next_to_results() {
        let dir = std::env::temp_dir().join(format!("modref-bench-trace-{}", std::process::id()));
        let opts = BenchOptions {
            dir: Some(dir.to_string_lossy().into_owned()),
            quick: true,
            seed: None,
        };
        let trace = modref_trace::Trace::enabled();
        let mut g = BenchGroup::with_options("tracedtest", opts.clone());
        g.bench("spin", 8, || {
            let span = trace.span("bench.iter");
            drop(span);
        });
        g.finish_with_trace(&trace);
        let summary =
            std::fs::read_to_string(dir.join("TRACE_tracedtest.txt")).expect("summary written");
        assert!(summary.contains("bench.iter"), "{summary}");
        let chrome =
            std::fs::read_to_string(dir.join("TRACE_tracedtest.json")).expect("chrome written");
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");

        // A disabled trace adds no files.
        let mut g = BenchGroup::with_options("quiettest", opts);
        g.bench("spin", 8, || 0u64);
        g.finish_with_trace(&modref_trace::Trace::disabled());
        assert!(!dir.join("TRACE_quiettest.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
