#![warn(missing_docs)]

//! Structured tracing and metrics for the `modref` pipeline.
//!
//! The paper's whole argument is a *cost* argument — §5 claims the binding
//! multi-graph solver does linear work where coarser baselines are
//! quadratic — and the solvers already measure that cost model through
//! `OpCounter`. This crate adds the *observability* half: hierarchical
//! spans with monotonic timestamps, named counters fed from `OpCounter`
//! deltas, guard-budget consumption, and `modref-par` pool statistics, so
//! an experiment can see where *inside* a phase the operations and the
//! wall-clock go (per condensation level, per solver stage) instead of
//! only per-phase totals.
//!
//! # Design
//!
//! * **A no-op by default.** A [`Trace`] is an `Option<Arc<TraceSink>>`;
//!   [`Trace::disabled`] carries `None` and every recording method is a
//!   single branch on it. Code instruments unconditionally and pays
//!   nothing until a caller opts in with [`Trace::enabled`]. Tracing
//!   never changes analysis results — it only records.
//! * **Safe under the pool.** The sink's event buffer is *lock-sharded
//!   per thread*: each recording thread hashes its thread id to one of a
//!   fixed set of `Mutex<Vec<Event>>` shards, so worker threads almost
//!   never contend and a span recorded mid-`par_map` costs one
//!   uncontended lock.
//! * **Hierarchy from nesting.** Spans are RAII guards ([`Trace::span`]);
//!   a span that opens while another is open on the same thread nests
//!   under it, which is exactly how the Chrome trace-event viewer infers
//!   hierarchy from `"ph":"X"` complete events.
//! * **Two exporters.** [`Trace::export_chrome`] renders the buffer as
//!   Chrome trace-event JSON (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>); [`Trace::export_summary`] renders a
//!   deterministic human-readable table aggregated per span name.
//!
//! # Examples
//!
//! ```
//! use modref_trace::Trace;
//!
//! let trace = Trace::enabled();
//! {
//!     let mut span = trace.span("gmod");
//!     span.arg("bitvec_steps", 42);
//!     span.note("algorithm", "levels");
//! }
//! trace.counter("guard_bitvec", 42);
//! let json = trace.export_chrome();
//! assert!(json.contains("\"name\":\"gmod\""));
//! let table = trace.export_summary();
//! assert!(table.contains("gmod"));
//!
//! // Disabled tracing compiles to a branch and records nothing.
//! let off = Trace::disabled();
//! off.span("gmod").arg("bitvec_steps", 42);
//! assert_eq!(off.export_chrome(), "{\"traceEvents\":[]}\n");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod export;
mod json;

pub use json::{escape_json, escape_json_into, parse_json, Json, JsonError};

/// Number of buffer shards. Thread ids are spread over these; 16 is far
/// above the pool sizes this workspace runs, so shard collisions (and thus
/// lock contention) are rare.
const SHARDS: usize = 16;

/// What one recorded [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: something with a start and an end on one thread.
    Span,
    /// A point in time (e.g. "the run degraded here").
    Instant,
    /// A sampled counter value (e.g. cumulative guard charge).
    Counter,
}

/// One recorded trace event. Timestamps are nanoseconds of monotonic time
/// since the owning sink was created.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span, instant, or counter.
    pub kind: EventKind,
    /// The event name (span names double as aggregation keys).
    pub name: &'static str,
    /// A small process-unique id for the recording thread.
    pub tid: u64,
    /// Start (or occurrence) time, ns since the sink's origin.
    pub start_ns: u64,
    /// Duration in ns; 0 for instants and counters.
    pub dur_ns: u64,
    /// The sampled value, for counters.
    pub value: u64,
    /// Numeric attributes (operation counts in the paper's units,
    /// level/component indices, …).
    pub args: Vec<(&'static str, u64)>,
    /// String attributes (algorithm choice, degradation reason, …).
    pub notes: Vec<(&'static str, String)>,
}

/// The shared buffer a [`Trace`] records into.
#[derive(Debug)]
pub struct TraceSink {
    origin: Instant,
    shards: Vec<Mutex<Vec<Event>>>,
}

impl TraceSink {
    fn new() -> Self {
        TraceSink {
            origin: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of one analysis run.
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, event: Event) {
        let shard = (event.tid as usize) % SHARDS;
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }

    /// Every event recorded so far, in (start, tid, name) order — a stable
    /// order for exporters regardless of which shard a thread landed on.
    fn snapshot(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        all
    }
}

/// A small process-unique integer id for the current thread (assigned
/// lazily, starting at 1). Chrome trace events key lanes by `tid`.
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            id
        } else {
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

/// A cheap, cloneable handle to a trace buffer — or to nothing.
///
/// Clones share one [`TraceSink`]; the handle is `Send + Sync`, so the
/// pipeline can hand it to the `USE`-half thread and to pool workers. The
/// [`Trace::disabled`] handle records nothing and exports empty output.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    sink: Option<Arc<TraceSink>>,
}

impl Trace {
    /// A handle that records nothing. This is also `Trace::default()` —
    /// instrumented code paths are no-ops unless a caller opts in.
    #[must_use]
    pub fn disabled() -> Self {
        Trace { sink: None }
    }

    /// A fresh recording trace; the monotonic clock starts now.
    #[must_use]
    pub fn enabled() -> Self {
        Trace {
            sink: Some(Arc::new(TraceSink::new())),
        }
    }

    /// `true` if this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span named `name`, recorded when the returned guard drops.
    /// Attach numeric attributes with [`Span::arg`] and string attributes
    /// with [`Span::note`] before the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start_ns = self.sink.as_ref().map(|s| s.now_ns());
        Span {
            trace: self,
            name,
            start_ns,
            args: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records an instant event.
    pub fn instant(&self, name: &'static str) {
        self.instant_note(name, &[]);
    }

    /// Records an instant event carrying string attributes.
    pub fn instant_note(&self, name: &'static str, notes: &[(&'static str, &str)]) {
        if let Some(sink) = &self.sink {
            sink.record(Event {
                kind: EventKind::Instant,
                name,
                tid: current_tid(),
                start_ns: sink.now_ns(),
                dur_ns: 0,
                value: 0,
                args: Vec::new(),
                notes: notes.iter().map(|&(k, v)| (k, v.to_owned())).collect(),
            });
        }
    }

    /// Records a counter sample. Successive samples of the same name form
    /// a time series in the Chrome viewer; the summary table reports the
    /// last (largest-timestamp) sample, which for cumulative counters like
    /// guard charge is the total.
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.record(Event {
                kind: EventKind::Counter,
                name,
                tid: current_tid(),
                start_ns: sink.now_ns(),
                dur_ns: 0,
                value,
                args: Vec::new(),
                notes: Vec::new(),
            });
        }
    }

    /// A snapshot of every event recorded so far, in stable order.
    /// Non-destructive: exporting and further recording can interleave.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.sink.as_ref().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// Renders the buffer as Chrome trace-event JSON (the
    /// `{"traceEvents":[…]}` object form Perfetto and `chrome://tracing`
    /// load directly). Disabled traces render an empty event list.
    #[must_use]
    pub fn export_chrome(&self) -> String {
        export::chrome_json(&self.events())
    }

    /// Renders a deterministic human-readable summary: spans aggregated
    /// by name (count, total wall, summed numeric args) and the final
    /// value of every counter.
    #[must_use]
    pub fn export_summary(&self) -> String {
        export::summary_table(&self.events())
    }
}

/// An open span; records a [`EventKind::Span`] event when dropped.
/// Obtained from [`Trace::span`]. On a disabled trace every method is a
/// no-op and dropping records nothing.
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a Trace,
    name: &'static str,
    /// `None` exactly when the trace is disabled.
    start_ns: Option<u64>,
    args: Vec<(&'static str, u64)>,
    notes: Vec<(&'static str, String)>,
}

impl Span<'_> {
    /// Attaches a numeric attribute (an operation count, a level index…).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.start_ns.is_some() {
            self.args.push((key, value));
        }
    }

    /// Attaches a string attribute.
    pub fn note(&mut self, key: &'static str, value: impl Into<String>) {
        if self.start_ns.is_some() {
            self.notes.push((key, value.into()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(start_ns), Some(sink)) = (self.start_ns, self.trace.sink.as_ref()) else {
            return;
        };
        let end_ns = sink.now_ns();
        sink.record(Event {
            kind: EventKind::Span,
            name: self.name,
            tid: current_tid(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            value: 0,
            args: std::mem::take(&mut self.args),
            notes: std::mem::take(&mut self.notes),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_and_exports_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        {
            let mut s = t.span("phase");
            s.arg("ops", 3);
            s.note("kind", "test");
        }
        t.instant("nothing");
        t.counter("c", 9);
        assert!(t.events().is_empty());
        assert_eq!(t.export_chrome(), "{\"traceEvents\":[]}\n");
        assert!(t.export_summary().contains("(no events)"));
    }

    #[test]
    fn spans_record_name_args_and_duration_order() {
        let t = Trace::enabled();
        {
            let mut outer = t.span("outer");
            outer.arg("n", 1);
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let mut inner = t.span("inner");
                inner.note("detail", "x");
            }
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        // Outer starts first but drops last; snapshot sorts by start time.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].name, "inner");
        assert!(events[0].dur_ns >= events[1].dur_ns, "outer contains inner");
        assert!(events[0].start_ns <= events[1].start_ns);
        assert_eq!(events[0].args, vec![("n", 1)]);
        assert_eq!(events[1].notes, vec![("detail", "x".to_owned())]);
    }

    #[test]
    fn recording_is_safe_and_complete_across_threads() {
        let t = Trace::enabled();
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let mut s = t.span("worker");
                        s.arg("id", worker);
                    }
                });
            }
        });
        let events = t.events();
        assert_eq!(events.len(), 800);
        // Every event carries some thread id, and at least two distinct
        // ids show up (the scope spawned eight recording threads).
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 2);
    }

    #[test]
    fn counters_and_instants_are_recorded_in_time_order() {
        let t = Trace::enabled();
        t.counter("guard_bitvec", 10);
        t.counter("guard_bitvec", 25);
        t.instant_note("degraded", &[("reason", "deadline")]);
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].value, 10);
        assert_eq!(events[1].value, 25);
        assert_eq!(events[2].kind, EventKind::Instant);
        assert_eq!(events[2].notes[0].1, "deadline");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Trace::enabled();
        let u = t.clone();
        u.instant("from-clone");
        assert_eq!(t.events().len(), 1);
    }
}
