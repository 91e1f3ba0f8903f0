//! Chrome `trace_event` export.
//!
//! Renders a [`TelemetrySnapshot`] as the JSON object format understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! `{"traceEvents": [...]}` where each sampled series becomes a stream
//! of counter events (`ph:"C"`), phase events become duration pairs
//! (`ph:"B"`/`"E"`), and everything else becomes global instants
//! (`ph:"i"`, `s:"g"`). Timestamps (`ts`) are simulation cycles — the
//! viewer labels them microseconds, which is harmless: relative spacing
//! is what matters.
//!
//! The workspace has no JSON dependency by design, so emission is
//! hand-rolled; the CLI, examples and tests prove the emitted trace
//! parses with [`crate::json::parse`].

use crate::event::EventKind;
use crate::json;
use crate::sink::TelemetrySnapshot;

/// Renders the snapshot as Chrome `trace_event` JSON.
pub fn chrome_trace(snap: &TelemetrySnapshot) -> String {
    let mut events: Vec<String> = Vec::new();
    // Counter events: one per sample. pid/tid 0 keeps every counter in
    // one process group; the counter name is the metric name.
    for (name, series) in &snap.series {
        for (cycle, value) in &series.points {
            events.push(format!(
                r#"{{"name":"{}","ph":"C","ts":{},"pid":0,"tid":0,"args":{{"value":{}}}}}"#,
                json::escape(name),
                cycle,
                json_number(*value)
            ));
        }
    }
    for event in &snap.events {
        let ts = event.cycle;
        match &event.kind {
            EventKind::PhaseBegin { name } => {
                events.push(format!(
                    r#"{{"name":"{}","ph":"B","ts":{ts},"pid":0,"tid":0}}"#,
                    json::escape(name)
                ));
            }
            EventKind::PhaseEnd { name } => {
                events.push(format!(
                    r#"{{"name":"{}","ph":"E","ts":{ts},"pid":0,"tid":0}}"#,
                    json::escape(name)
                ));
            }
            EventKind::Stall { detail } => {
                events.push(format!(
                    r#"{{"name":"stall","ph":"i","ts":{ts},"pid":0,"tid":0,"s":"g","args":{{"detail":"{}"}}}}"#,
                    json::escape(detail)
                ));
            }
            EventKind::Fault { partition, class, kind, detected } => {
                let detected = match detected {
                    None => "null".to_string(),
                    Some(d) => d.to_string(),
                };
                events.push(format!(
                    r#"{{"name":"fault","ph":"i","ts":{ts},"pid":0,"tid":0,"s":"g","args":{{"partition":{partition},"class":"{}","kind":"{}","detected":{detected}}}}}"#,
                    json::escape(class),
                    json::escape(kind)
                ));
            }
            EventKind::ThrashBegin { partition, class } => {
                events.push(format!(
                    r#"{{"name":"thrash:{}","ph":"B","ts":{ts},"pid":0,"tid":{}}}"#,
                    json::escape(class),
                    partition + 1
                ));
            }
            EventKind::ThrashEnd { partition, class } => {
                events.push(format!(
                    r#"{{"name":"thrash:{}","ph":"E","ts":{ts},"pid":0,"tid":{}}}"#,
                    json::escape(class),
                    partition + 1
                ));
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Renders an `f64` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values render as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use crate::json::{parse, Json};
    use crate::sink::{Telemetry, TelemetryConfig};

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::enabled(TelemetryConfig::default());
        t.record_delta("dram.ctr_bytes", 512, 96.0);
        t.record_gauge("l2.hit_rate", 512, 0.875);
        t.record_event(TelemetryEvent { cycle: 0, kind: EventKind::PhaseBegin { name: "run".into() } });
        t.record_event(TelemetryEvent {
            cycle: 300,
            kind: EventKind::Fault { partition: 7, class: "ctr", kind: "BitFlip", detected: Some(true) },
        });
        t.record_event(TelemetryEvent {
            cycle: 400,
            kind: EventKind::ThrashBegin { partition: 2, class: "bmt" },
        });
        t.record_event(TelemetryEvent {
            cycle: 600,
            kind: EventKind::ThrashEnd { partition: 2, class: "bmt" },
        });
        t.record_event(TelemetryEvent {
            cycle: 900,
            kind: EventKind::Stall { detail: "no progress".into() },
        });
        t.record_event(TelemetryEvent { cycle: 1000, kind: EventKind::PhaseEnd { name: "run".into() } });
        t.snapshot().expect("enabled")
    }

    #[test]
    fn trace_is_valid_json_and_nonempty() {
        let trace = chrome_trace(&sample_snapshot());
        parse(&trace).expect("emitted trace must parse");
        assert!(trace.contains(r#""traceEvents""#));
        assert!(trace.contains(r#""ph":"C""#), "counter events present");
        assert!(trace.contains(r#""ph":"B""#), "span begin present");
        assert!(trace.contains(r#""ph":"i""#), "instant present");
        assert!(trace.contains("thrash:bmt"));
    }

    #[test]
    fn empty_snapshot_still_valid() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        let trace = chrome_trace(&t.snapshot().expect("enabled"));
        parse(&trace).expect("empty trace parses");
    }

    #[test]
    fn strings_are_escaped() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        t.record_event(TelemetryEvent {
            cycle: 1,
            kind: EventKind::Stall { detail: "line1\nline2 \"quoted\"".into() },
        });
        let trace = chrome_trace(&t.snapshot().expect("enabled"));
        let doc = parse(&trace).expect("escaped trace parses");
        let stall = &doc.get("traceEvents").and_then(Json::as_arr).expect("events")[0];
        let detail = stall.get("args").and_then(|a| a.get("detail")).and_then(Json::as_str);
        assert_eq!(detail, Some("line1\nline2 \"quoted\""));
    }

    #[test]
    fn non_finite_numbers_render_as_zero() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(1.5), "1.5");
    }
}
