//! End-to-end and per-layer benchmark of the modref workspace.
//!
//! ```text
//! perfbench --workload <batch_flat|editor_nested|browse_lazy> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --steadiness <runs> --workload <w> --seed <n> --seconds <s>
//! ```
//!
//! `--trace 0` prints the seven end-to-end metrics, `--trace 1` the
//! per-layer ones; the last stdout line is the result object. See
//! `perfbench/README.md` for the workloads, metrics and trace format.

mod batch;
mod check;
mod child;
mod inputs;
mod layers;
mod served;
mod spans;
mod steady;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use util::{result_line, Metrics, Tally};

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Later claims must also hold on this seed (stated in every run's output).
pub const SECOND_SEED: u64 = 1988;

pub const WORKLOADS: [&str; 3] = ["batch_flat", "editor_nested", "browse_lazy"];

/// Every per-layer metric the traced run reports, with its unit. A layer
/// a workload does not run reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("frontend.parse_ms", "ms"),
    ("frontend.source_kb", "KB"),
    ("ir.local_effects_ms", "ms"),
    ("ir.apply_edit_ms", "ms"),
    ("binding.build_ms", "ms"),
    ("binding.rmod_ms", "ms"),
    ("binding.beta_nodes", "count"),
    ("binding.beta_edges", "count"),
    ("core.imod_plus_ms", "ms"),
    ("core.gmod_ms", "ms"),
    ("core.dmod_ms", "ms"),
    ("core.modsets_ms", "ms"),
    ("core.alias_ms", "ms"),
    ("core.alias_pairs", "count"),
    ("core.bitvec_steps", "count"),
    ("core.bool_steps", "count"),
    ("core.demand.query_ms", "ms"),
    ("core.demand.ops", "count"),
    ("core.rmod.ops_slope", "slope"),
    ("core.imod_plus.ops_slope", "slope"),
    ("core.gmod.ops_slope", "slope"),
    ("core.dmod.ops_slope", "slope"),
    ("core.modsets.ops_slope", "slope"),
    ("incr.apply_ms", "ms"),
    ("incr.script_ms", "ms"),
    ("incr.query_ms", "ms"),
    ("incr.gmod_recompute_ratio", "ratio"),
    ("incr.sites_recompute_ratio", "ratio"),
    ("incr.useful_ratio", "ratio"),
    ("incr.render.report_ms", "ms"),
    ("incr.render.report_mb", "MB"),
    ("incr.render.answer_ms", "ms"),
    ("incr.render.answer_kb", "KB"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.busy_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.request_kb", "KB"),
    ("serve.response_kb", "KB"),
    ("serve.wire_ms", "ms"),
    ("serve.journal_ms", "ms"),
    ("serve.journal_kb", "KB"),
    ("serve.open_ms", "ms"),
    ("bitset.heap_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// All per-layer metrics at 0, for a traced run to fill in.
pub fn layer_metrics() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        m.set(name, 0.0, unit);
    }
    m
}

/// Prints each span's share of the traced op time, largest first. The
/// `op`/`write`/`read` grouping spans' self time is the unattributed part.
pub fn print_layer_shares(self_ms: &BTreeMap<&'static str, f64>, op_total_ms: f64) {
    let mut rows: Vec<(&str, f64)> = self_ms.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("layer share of traced op time ({op_total_ms:.1} ms over traced ops):");
    for (name, ms) in rows {
        let label = if matches!(name, "op" | "write" | "read") {
            format!("(unattributed: {name})")
        } else {
            name.to_owned()
        };
        println!(
            "  {label:<28} {:>6.2}%",
            100.0 * ms / op_total_ms.max(f64::MIN_POSITIVE)
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
    role: Option<String>,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steadiness: None,
        role: None,
        state_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--steadiness" => {
                let v = value()?;
                a.steadiness = Some(v.parse().ok().filter(|n| *n >= 2).ok_or_else(|| bad(&v))?);
            }
            "--role" => a.role = Some(value()?),
            "--state-dir" => a.state_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn run(a: &Args) -> Result<(Metrics, Tally), String> {
    let trace_out =
        PathBuf::from("perfbench/.trace").join(format!("{}-{}.json", a.workload, a.seed));
    let (mut m, tally) = match (a.workload.as_str(), a.trace) {
        ("batch_flat", false) => batch::untraced(a.seed, a.seconds)?,
        ("batch_flat", true) => batch::traced(a.seed, a.seconds, &trace_out)?,
        ("editor_nested", false) => served::untraced(served::EDITOR, a.seed, a.seconds)?,
        ("editor_nested", true) => served::traced(served::EDITOR, a.seed, a.seconds, &trace_out)?,
        ("browse_lazy", false) => served::untraced(served::BROWSE, a.seed, a.seconds)?,
        ("browse_lazy", true) => served::traced(served::BROWSE, a.seed, a.seconds, &trace_out)?,
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    if a.trace {
        let nested = a.workload == "editor_nested";
        for (phase, slope) in layers::growth_slopes(a.seed, nested) {
            let name = format!("core.{phase}.ops_slope");
            let unit = LAYER_METRICS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("slope", |(_, u)| u);
            m.set(&name, slope, unit);
        }
        println!("trace written to {}", trace_out.display());
    }
    Ok((m, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.role.as_deref() {
        Some("serve") => {
            let dir = args
                .state_dir
                .unwrap_or_else(|| PathBuf::from("perfbench/.run/serve"));
            return child::serve_role(dir);
        }
        Some("batch") => return batch::batch_role(args.seconds),
        Some(other) => {
            eprintln!("perfbench: unknown role `{other}`");
            return ExitCode::from(2);
        }
        None => {}
    }
    if let Some(runs) = args.steadiness {
        return steady::report(&args.workload, args.seed, args.seconds, runs);
    }
    println!(
        "workload {} seed {} seconds {} trace {}; claims must also hold on seed {SECOND_SEED}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = run(&args);
    child::remove_run_dir();
    match outcome {
        Ok((metrics, tally)) => {
            println!("{}", result_line(tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
