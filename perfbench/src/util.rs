//! Small helpers: a seeded PRNG, order statistics, peak RSS, hashing, and
//! the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// splitmix64: one `u64` seed determines the whole stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed of `seed` for stream `k`, so inputs drawn for different
/// purposes never share a PRNG stream.
pub fn derive(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Linear-interpolation percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median repetition of each of `n` distinct ops, from `(op, value)`
/// samples. Every op must have at least one sample. Percentiles over
/// these describe how op cost varies across inputs; pooling every
/// sample instead would let the host's slow stretches set the tail.
pub fn op_medians(samples: impl IntoIterator<Item = (usize, f64)>, n: usize) -> Vec<f64> {
    let mut per_op = vec![Vec::new(); n];
    for (op, v) in samples {
        per_op[op].push(v);
    }
    assert!(
        per_op.iter().all(|v| !v.is_empty()),
        "an op was never timed"
    );
    per_op.iter().map(|v| median(v)).collect()
}

/// What one pass of [`yardstick_kernel`] takes on the reference host, in
/// milliseconds.
pub const YARDSTICK_REF_MS: f64 = 0.5;

/// Yardstick passes the correction factor is the median of.
const YARDSTICK_WINDOW: usize = 9;

/// Host-speed correction. The reference host runs other tenants' work
/// beside ours and slows allocation- and memory-heavy code by up to 1.5x
/// for seconds at a time, by a varying share of each run; an ALU loop is
/// not slowed. A fixed kernel of the benchmark's own (formatting records
/// into strings, as report rendering does) is timed after every op and
/// every set-up, outside their clocks, and slows down the same way. Times
/// are reported scaled by `YARDSTICK_REF_MS` over the median of the last
/// [`YARDSTICK_WINDOW`] kernel times, i.e. as they would be on the
/// reference host when it runs at the kernel's reference speed. The
/// kernel calls nothing in the workspace, so a change to the program
/// moves the scaled times exactly as it moves the raw ones.
#[derive(Debug, Default)]
pub struct Yardstick {
    recent: std::collections::VecDeque<f64>,
}

impl Yardstick {
    /// Times one kernel pass and returns the factor that scales a time
    /// measured just before to the reference host.
    pub fn measure(&mut self) -> f64 {
        let t = std::time::Instant::now();
        std::hint::black_box(yardstick_kernel());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if self.recent.len() == YARDSTICK_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        YARDSTICK_REF_MS / median(self.recent.make_contiguous())
    }
}

/// The fixed kernel: 100 strings of 40 JSON-like records each. Changing
/// it rescales every reported time.
pub fn yardstick_kernel() -> Vec<String> {
    (0..100u64)
        .map(|k| {
            let mut s = String::new();
            for q in 0..40u64 {
                let _ = write!(s, "{{\"v\":\"name{}\",\"k\":{k}}},", q * k);
            }
            s
        })
        .collect()
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

/// This process's resident-set high-water mark in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// FNV-1a, 64-bit: a cheap fingerprint for comparing reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Named metrics with units, printed as the run's last line.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Ops attempted and ops that failed a status or correctness check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn slope_of_a_power_law_is_its_exponent() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, 3.0 * x * x)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
