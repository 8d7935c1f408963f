//! Exporters: human text report, machine JSON report, span-tree
//! rendering.
//!
//! The JSON report is self-serialized (no serde) against the stable
//! schema **`p2auth.obs.v1`**:
//!
//! ```json
//! {
//!   "schema": "p2auth.obs.v1",
//!   "enabled": true,
//!   "recording": true,
//!   "counters": { "<name>": 0 },
//!   "gauges": { "<name>": 0.0 },
//!   "histograms": { "<name>": { "count": 0, "sum": 0, "max": 0,
//!                                "p50": 0, "p95": 0, "p99": 0 } },
//!   "events": [ { "t_ns": 0, "stage": "", "label": "",
//!                 "fields": { "<key>": 0 } } ]
//! }
//! ```
//!
//! `"enabled"` is always `true`; it stays in the schema so readers of
//! older reports keep working.
//!
//! The golden-schema test in `tests/schema.rs` parses this with
//! [`crate::json`] and pins the key set, so the format cannot drift
//! silently.

use crate::metrics::{self, MetricsSnapshot};
use crate::recorder::{self, Event, Value};
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Identifier of the JSON report schema emitted by [`render_json`].
pub const SCHEMA: &str = "p2auth.obs.v1";

/// Point-in-time copy of everything the registry and flight recorder
/// hold.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Runtime recording switch at collection time.
    pub recording: bool,
    /// All registered metrics.
    pub metrics: MetricsSnapshot,
    /// Flight-recorder contents, oldest first.
    pub events: Vec<Event>,
}

/// Collects a [`Report`] from the global registry and flight recorder.
#[must_use]
pub fn collect() -> Report {
    Report {
        recording: crate::recording(),
        metrics: metrics::snapshot(),
        events: recorder::snapshot(),
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.3}s", v / 1e9)
    }
}

/// Renders the human-readable metrics report.
#[must_use]
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== p2auth-obs report (recording={}) ==",
        report.recording
    );
    if !report.metrics.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &report.metrics.counters {
            let _ = writeln!(out, "  {name:<44} {v}");
        }
    }
    if !report.metrics.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &report.metrics.gauges {
            let _ = writeln!(out, "  {name:<44} {v:.4}");
        }
    }
    if !report.metrics.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in &report.metrics.histograms {
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                fmt_ns(h.p50),
                fmt_ns(h.p95),
                fmt_ns(h.p99),
                fmt_ns(h.max)
            );
        }
    }
    let _ = writeln!(
        out,
        "flight recorder: {} event(s) retained (cap {})",
        report.events.len(),
        recorder::CAPACITY
    );
    out
}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => push_f64(*n, out),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => escape_json(s, out),
        Value::Text(s) => escape_json(s, out),
    }
}

/// Renders the machine-readable JSON report (schema [`SCHEMA`]).
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"enabled\":true,\"recording\":{},",
        report.recording
    );
    out.push_str("\"counters\":{");
    for (i, (name, v)) in report.metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(name, &mut out);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in report.metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(name, &mut out);
        out.push(':');
        push_f64(*v, &mut out);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in report.metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(name, &mut out);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            h.count, h.sum, h.max, h.p50, h.p95, h.p99
        );
    }
    out.push_str("},\"events\":[");
    for (i, ev) in report.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"t_ns\":{},\"stage\":", ev.t_ns);
        escape_json(ev.stage, &mut out);
        out.push_str(",\"label\":");
        escape_json(ev.label, &mut out);
        out.push_str(",\"fields\":{");
        for (j, (k, v)) in ev.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            escape_json(k, &mut out);
            out.push(':');
            push_value(v, &mut out);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Aggregated statistics of one name-path in the span tree.
#[derive(Debug, Clone, Copy, Default)]
struct PathStats {
    count: u64,
    total_ns: u64,
}

/// Resolves each record to its full name path (`root/child/...`) by
/// walking parent ids; spans whose parent was not captured become
/// roots. Returns aggregated `(path, stats)` sorted by path, which
/// places parents directly before their children.
fn aggregate_paths(records: &[SpanRecord]) -> BTreeMap<String, PathStats> {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut agg: BTreeMap<String, PathStats> = BTreeMap::new();
    for rec in records {
        let mut names = vec![rec.name];
        let mut cursor = rec.parent;
        while let Some(parent) = by_id.get(&cursor) {
            names.push(parent.name);
            cursor = parent.parent;
        }
        names.reverse();
        let path = names.join("/");
        let entry = agg.entry(path).or_default();
        entry.count += 1;
        entry.total_ns += rec.dur_ns;
    }
    agg
}

/// Renders captured spans as an indented tree, merging same-name
/// siblings (count, total and mean duration per node). Deterministic:
/// siblings are ordered by name.
#[must_use]
pub fn span_tree(records: &[SpanRecord]) -> String {
    let agg = aggregate_paths(records);
    let mut out = String::new();
    for (path, stats) in &agg {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let mean = stats.total_ns / stats.count.max(1);
        let _ = writeln!(
            out,
            "{:indent$}{name:<width$} x{:<5} total {:>10}  mean {:>10}",
            "",
            stats.count,
            fmt_ns(stats.total_ns),
            fmt_ns(mean),
            indent = depth * 2,
            width = 36_usize.saturating_sub(depth * 2),
        );
    }
    out
}

/// The sorted, deduplicated name paths of captured spans — the
/// *structure* of the span tree without timings, suitable for golden
/// files.
#[must_use]
pub fn span_paths(records: &[SpanRecord]) -> Vec<String> {
    aggregate_paths(records).into_keys().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    fn rec(id: u64, parent: u64, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: id,
            dur_ns,
        }
    }

    #[test]
    fn span_paths_merge_and_sort() {
        let records = vec![
            rec(1, 0, "root", 100),
            rec(2, 1, "stage_b", 10),
            rec(3, 1, "stage_a", 10),
            rec(4, 1, "stage_a", 30),
            rec(5, 99, "orphan", 5), // parent not captured -> root
        ];
        let paths = span_paths(&records);
        assert_eq!(
            paths,
            vec![
                "orphan".to_string(),
                "root".to_string(),
                "root/stage_a".to_string(),
                "root/stage_b".to_string(),
            ]
        );
        let tree = span_tree(&records);
        assert!(tree.contains("stage_a"));
        assert!(tree.contains("x2"));
        assert!(tree.contains("40ns"));
    }

    #[test]
    fn json_report_round_trips_through_own_parser() {
        let _g = lock();
        crate::reset();
        crate::counter!("obs.test.report_counter").add(2);
        crate::gauge!("obs.test.report_gauge").set(1.5);
        crate::histogram!("obs.test.report_hist").record(9);
        crate::event!("obs.test", "quote\"and\\slash", note = "hi");
        let json = render_json(&collect());
        let doc = crate::json::parse(&json).expect("self-emitted JSON must parse");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("obs.test.report_counter"))
                .and_then(crate::json::JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|c| c.get("obs.test.report_gauge"))
                .and_then(crate::json::JsonValue::as_f64),
            Some(1.5)
        );
        let h = doc
            .get("histograms")
            .and_then(|c| c.get("obs.test.report_hist"))
            .expect("histogram present");
        assert_eq!(
            h.get("count").and_then(crate::json::JsonValue::as_f64),
            Some(1.0)
        );
        let events = doc.get("events").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0]
                .get("label")
                .and_then(crate::json::JsonValue::as_str),
            Some("quote\"and\\slash")
        );
        crate::reset();
    }

    #[test]
    fn text_report_lists_sections() {
        let _g = lock();
        crate::reset();
        crate::counter!("obs.test.text_counter").incr();
        let text = render_text(&collect());
        assert!(text.contains("p2auth-obs report"));
        assert!(text.contains("obs.test.text_counter"));
        assert!(text.contains("flight recorder"));
        crate::reset();
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
