//! Golden-schema test: the JSON exporter's output is parsed with the
//! crate's own dependency-free parser and its key set pinned, so the
//! documented `p2auth.obs.v1` format cannot drift silently.

use p2auth_obs::json::{parse, JsonValue};
use p2auth_obs::report;

#[test]
fn json_report_matches_documented_schema() {
    p2auth_obs::reset();
    p2auth_obs::counter!("schema.test.counter").add(5);
    p2auth_obs::gauge!("schema.test.gauge").set(0.75);
    p2auth_obs::histogram!("schema.test.hist").record(1234);
    p2auth_obs::event!("schema.test", "probe", seq = 1_u64, ok = true, note = "x");

    let json = report::render_json(&report::collect());
    let doc = parse(&json).expect("report must be valid JSON");

    // Top-level key set, exactly.
    let top = doc.as_object().expect("top level is an object");
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        vec![
            "counters",
            "enabled",
            "events",
            "gauges",
            "histograms",
            "recording",
            "schema"
        ],
        "top-level schema keys drifted"
    );
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some(report::SCHEMA)
    );
    assert_eq!(doc.get("enabled").and_then(JsonValue::as_bool), Some(true));

    // Every histogram entry carries exactly the documented summary.
    let hists = doc
        .get("histograms")
        .and_then(JsonValue::as_object)
        .expect("histograms object");
    let h = hists.get("schema.test.hist").expect("registered histogram");
    let hkeys: Vec<&str> = h
        .as_object()
        .expect("histogram summary is an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        hkeys,
        vec!["count", "max", "p50", "p95", "p99", "sum"],
        "histogram schema keys drifted"
    );
    assert_eq!(h.get("count").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(h.get("max").and_then(JsonValue::as_f64), Some(1234.0));

    // Counters / gauges are flat name -> number maps.
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("schema.test.counter"))
            .and_then(JsonValue::as_f64),
        Some(5.0)
    );
    assert_eq!(
        doc.get("gauges")
            .and_then(|c| c.get("schema.test.gauge"))
            .and_then(JsonValue::as_f64),
        Some(0.75)
    );

    // Events carry t_ns / stage / label / fields, exactly.
    let events = doc
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    let ev = events
        .iter()
        .find(|e| e.get("stage").and_then(JsonValue::as_str) == Some("schema.test"))
        .expect("recorded event present");
    let ekeys: Vec<&str> = ev
        .as_object()
        .expect("event is an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        ekeys,
        vec!["fields", "label", "stage", "t_ns"],
        "event schema keys drifted"
    );
    let fields = ev
        .get("fields")
        .and_then(JsonValue::as_object)
        .expect("fields object");
    assert_eq!(fields.get("seq").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(fields.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(fields.get("note").and_then(JsonValue::as_str), Some("x"));

    p2auth_obs::reset();
}

/// Escaping audit: metric and span names are caller-controlled static
/// strings, so the exporter must survive names built to break JSON —
/// embedded quotes, backslashes, newlines, tabs, and raw control
/// bytes. The report is built directly (no global registry) and must
/// round-trip byte-identically through the crate's own parser.
#[test]
fn hostile_metric_and_span_names_round_trip_through_json() {
    const HOSTILE_COUNTER: &str = "evil\"quote\\back\nline";
    const HOSTILE_GAUGE: &str = "ctrl\u{1}\u{1f}tab\tend";
    const HOSTILE_HIST: &str = "carriage\rreturn\"\"";
    const HOSTILE_STAGE: &str = "stage\\\"inject\": {\"not\": 1}";
    const HOSTILE_LABEL: &str = "label\u{0}nul";
    const HOSTILE_VALUE: &str = "value with \"all\\ of\nit\t\u{2}";

    let mut metrics = p2auth_obs::metrics::MetricsSnapshot::default();
    metrics.counters.push((HOSTILE_COUNTER, 7));
    metrics.gauges.push((HOSTILE_GAUGE, 0.5));
    metrics.histograms.push((
        HOSTILE_HIST,
        p2auth_obs::metrics::HistogramSnapshot {
            count: 1,
            sum: 10,
            max: 10,
            p50: 10,
            p95: 10,
            p99: 10,
        },
    ));
    let report = report::Report {
        recording: true,
        metrics,
        events: vec![p2auth_obs::recorder::Event {
            t_ns: 1,
            stage: HOSTILE_STAGE,
            label: HOSTILE_LABEL,
            fields: vec![("note", p2auth_obs::recorder::Value::Str(HOSTILE_VALUE))],
        }],
    };

    let json = report::render_json(&report);
    let doc = parse(&json).expect("hostile names must still produce valid JSON");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get(HOSTILE_COUNTER))
            .and_then(JsonValue::as_f64),
        Some(7.0),
        "counter name failed to round-trip: {json}"
    );
    assert_eq!(
        doc.get("gauges")
            .and_then(|g| g.get(HOSTILE_GAUGE))
            .and_then(JsonValue::as_f64),
        Some(0.5)
    );
    assert_eq!(
        doc.get("histograms")
            .and_then(|h| h.get(HOSTILE_HIST))
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let ev = &doc.get("events").and_then(JsonValue::as_array).unwrap()[0];
    assert_eq!(
        ev.get("stage").and_then(JsonValue::as_str),
        Some(HOSTILE_STAGE),
        "span stage must not be able to inject structure"
    );
    assert_eq!(
        ev.get("label").and_then(JsonValue::as_str),
        Some(HOSTILE_LABEL)
    );
    assert_eq!(
        ev.get("fields")
            .and_then(|f| f.get("note"))
            .and_then(JsonValue::as_str),
        Some(HOSTILE_VALUE)
    );
}

/// The same hostility pushed through the event-log metadata channel:
/// worker-stamped metadata values travel `encode` → shard file →
/// `decode`, so quotes, separators, and control bytes in a value must
/// survive the canonical text framing.
#[test]
fn hostile_metadata_values_round_trip_through_event_log() {
    let mut log = p2auth_obs::EventLog::new(p2auth_obs::SessionSeeds::default());
    let hostile = "v=1 \"quoted\\\" \u{1}ctrl\ttab";
    log.meta_push("note", hostile.to_string());
    log.meta_push("empty", String::new());
    let encoded = log.encode();
    let back = p2auth_obs::EventLog::decode(&encoded).expect("decode");
    assert_eq!(back.meta_get("note"), Some(hostile));
    assert_eq!(back.meta_get("empty"), Some(""));
    assert_eq!(back.encode(), encoded, "canonical form must be stable");
    assert!(log.first_divergence(&back).is_none());
}
