//! The benchmark's own span recorder for the traced run.
//!
//! Spans are opened around calls into each layer's public functions.
//! Each records a name, start, end, parent span and op id. They stay in
//! memory and are written out once, at the end of the run, as a Chrome
//! trace (`chrome://tracing` or Perfetto open it). A layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Records spans while `on`; with recording off every call is a no-op
/// apart from running the closure, which is how the same op is timed
/// traced and untraced.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    pub on: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            on: true,
        }
    }

    /// Spans opened from now on belong to op `op` (0 is set-up).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, in ms, summed over spans whose op id
    /// satisfies `ops`.
    pub fn self_ms(&self, ops: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if ops(s.op) {
                let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
            }
        }
        out
    }

    /// Total duration, in ms, of root spans called `name` with op ids
    /// satisfying `ops`.
    pub fn total_ms(&self, name: &str, ops: impl Fn(u64) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none() && ops(s.op))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as a Chrome trace-event file (`ph: "X"`,
    /// microsecond timestamps; `args` carries the op id and parent index).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
