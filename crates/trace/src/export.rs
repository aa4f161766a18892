//! Exporters: Chrome trace-event JSON and the summary table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape_json;
use crate::{Event, EventKind};

/// Microseconds with a 3-digit nanosecond fraction, rendered without
/// floating point (`1234567ns` → `"1234.567"`). Chrome trace timestamps
/// are in microseconds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders events as the `{"traceEvents":[…]}` object form of the Chrome
/// trace-event format, loadable at `chrome://tracing` and
/// <https://ui.perfetto.dev>. Spans become `"ph":"X"` complete events
/// (the viewer infers nesting per thread lane), instants `"ph":"i"`, and
/// counters `"ph":"C"`.
pub(crate) fn chrome_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"modref\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            escape_json(e.name),
            match e.kind {
                EventKind::Span => "X",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            },
            e.tid,
            us(e.start_ns),
        );
        if e.kind == EventKind::Span {
            let _ = write!(out, ",\"dur\":{}", us(e.dur_ns));
        }
        if e.kind == EventKind::Instant {
            // Thread-scoped instant marker.
            out.push_str(",\"s\":\"t\"");
        }
        let has_args = e.kind == EventKind::Counter || !e.args.is_empty() || !e.notes.is_empty();
        if has_args {
            out.push_str(",\"args\":{");
            let mut first = true;
            let mut field = |out: &mut String, key: &str, rendered: String| {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{}", escape_json(key), rendered);
            };
            if e.kind == EventKind::Counter {
                field(&mut out, "value", e.value.to_string());
            }
            for (k, v) in &e.args {
                field(&mut out, k, v.to_string());
            }
            for (k, v) in &e.notes {
                field(&mut out, k, format!("\"{}\"", escape_json(v)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Per-span-name aggregate for the summary table.
#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    args: BTreeMap<&'static str, u64>,
    notes: BTreeMap<&'static str, String>,
}

/// Renders a deterministic human-readable table: spans aggregated by name
/// (count, total and max wall time, numeric args summed — the `OpCounter`
/// units add meaningfully), then instants, then the last sample of every
/// counter. Sorted by name so two runs of the same workload line up.
pub(crate) fn summary_table(events: &[Event]) -> String {
    if events.is_empty() {
        return "trace summary: (no events)\n".to_owned();
    }
    let mut spans: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut instants: Vec<&Event> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Span => {
                let agg = spans.entry(e.name).or_default();
                agg.count += 1;
                agg.total_ns += e.dur_ns;
                agg.max_ns = agg.max_ns.max(e.dur_ns);
                for (k, v) in &e.args {
                    *agg.args.entry(k).or_insert(0) += v;
                }
                for (k, v) in &e.notes {
                    agg.notes.insert(k, v.clone());
                }
            }
            // Events are in time order, so the last write wins per name.
            EventKind::Counter => {
                counters.insert(e.name, e.value);
            }
            EventKind::Instant => instants.push(e),
        }
    }

    let ms = |ns: u64| format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000);
    let mut out = String::from("trace summary\n");
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>12} {:>12}  attributes",
        "span", "count", "total_ms", "max_ms"
    );
    for (name, agg) in &spans {
        let mut attrs = String::new();
        for (k, v) in &agg.args {
            let _ = write!(attrs, " {k}={v}");
        }
        for (k, v) in &agg.notes {
            let _ = write!(attrs, " {k}={v}");
        }
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12} {:>12} {}",
            name,
            agg.count,
            ms(agg.total_ns),
            ms(agg.max_ns),
            attrs
        );
    }
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<24} {:>12}", "counter", "last");
        for (name, value) in &counters {
            let _ = writeln!(out, "{name:<24} {value:>12}");
        }
    }
    for e in &instants {
        let mut attrs = String::new();
        for (k, v) in &e.notes {
            let _ = write!(attrs, " {k}={v}");
        }
        let _ = writeln!(out, "event {}{}", e.name, attrs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::Trace;

    fn sample_trace() -> Trace {
        let t = Trace::enabled();
        {
            let mut s = t.span("gmod");
            s.arg("bitvec_steps", 7);
            s.note("algorithm", "levels");
        }
        {
            let _s = t.span("gmod");
        }
        t.counter("guard_bitvec", 5);
        t.counter("guard_bitvec", 12);
        t.instant_note("degraded", &[("reason", "deadline \"now\"")]);
        t
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_structure() {
        let json = sample_trace().export_chrome();
        let v = parse_json(&json).expect("chrome export parses");
        let events = v
            .get("traceEvents")
            .expect("traceEvents key")
            .as_array()
            .expect("traceEvents is an array");
        assert_eq!(events.len(), 5);
        for e in events {
            assert!(e.get("name").is_some());
            assert!(e.get("ph").is_some());
            assert!(e.get("ts").is_some());
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
        }
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|e| e.get("dur").is_some()));
        let with_args = spans
            .iter()
            .find(|e| e.get("args").is_some())
            .expect("one span has args");
        let args = with_args.get("args").unwrap();
        assert_eq!(args.get("bitvec_steps").unwrap().as_num(), Some(7.0));
        assert_eq!(args.get("algorithm").unwrap().as_str(), Some("levels"));
        // The instant's note contains a quote; escaping must keep the
        // whole document valid (parse_json above already proved it) and
        // decode back to the original.
        let degraded = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("degraded"))
            .expect("instant exported");
        assert_eq!(
            degraded
                .get("args")
                .unwrap()
                .get("reason")
                .unwrap()
                .as_str(),
            Some("deadline \"now\"")
        );
    }

    #[test]
    fn summary_aggregates_spans_and_reports_last_counter() {
        let table = sample_trace().export_summary();
        assert!(table.contains("gmod"), "{table}");
        // Two gmod spans aggregated into one row with count 2.
        let row = table.lines().find(|l| l.starts_with("gmod")).expect("row");
        assert!(row.contains(" 2 "), "count column: {row}");
        assert!(row.contains("bitvec_steps=7"), "summed args: {row}");
        assert!(table.contains("guard_bitvec"));
        let counter_row = table
            .lines()
            .find(|l| l.starts_with("guard_bitvec"))
            .expect("counter row");
        assert!(
            counter_row.contains("12"),
            "last sample wins: {counter_row}"
        );
        assert!(table.contains("event degraded reason=deadline"));
    }

    #[test]
    fn timestamp_rendering_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
