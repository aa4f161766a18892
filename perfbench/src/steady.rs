//! Steadiness report: runs one workload untraced on consecutive seeds and
//! prints, per end-to-end metric, the median, quartiles and spread (the
//! interquartile range as a share of the median) next to the metric's
//! bound in `BENCHMARK.json`. A spread above a third of its bound is
//! flagged; this is the evidence behind each bound.

use std::process::{Command, ExitCode, Stdio};

use modref_trace::{parse_json, Json};

use crate::util::quartiles;

fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(json) = parse_json(&text) else {
        return Vec::new();
    };
    json.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some((name, m.get("bound")?.as_num()?))
        })
        .collect()
}

pub fn report(workload: &str, seed: u64, seconds: f64, runs: usize) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own binary");
        return ExitCode::FAILURE;
    };
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..runs as u64 {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output();
        let line = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().last().map(str::to_owned));
        let Some(json) = line.as_deref().and_then(|l| parse_json(l).ok()) else {
            eprintln!("perfbench: run with seed {} failed", seed + i);
            return ExitCode::FAILURE;
        };
        let correct = matches!(json.get("correct"), Some(Json::Bool(true)));
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            eprintln!("perfbench: run with seed {} printed no metrics", seed + i);
            return ExitCode::FAILURE;
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
        println!("seed {}: done, correct = {correct}", seed + i);
    }
    let bounds = bounds();
    println!(
        "{workload}: {runs} runs, seeds {seed}..{}, {seconds} s each",
        seed + runs as u64 - 1
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, vs) in &values {
        let (q1, q2, q3) = quartiles(vs);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        let bound = bounds.iter().find(|(n, _)| n == name).map(|b| b.1);
        let flag = match bound {
            Some(b) if spread > b => "  OVER BOUND",
            Some(b) if spread > b / 3.0 => "  above a third of bound",
            _ => "",
        };
        let bound_text = bound.map_or("-".to_owned(), |b| format!("{b}"));
        println!(
            "{name:<14} {q2:>12.4} {q1:>12.4} {q3:>12.4} {:>7.1}% {bound_text:>7}{flag}",
            100.0 * spread
        );
    }
    println!("values by seed:");
    for (name, vs) in &values {
        let shown: Vec<String> = vs.iter().map(|v| format!("{v:.4}")).collect();
        println!("  {name:<14} {}", shown.join(" "));
    }
    ExitCode::SUCCESS
}
