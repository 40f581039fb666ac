//! Trace exporters: JSONL lines and the Chrome trace-event format.
//!
//! Both exporters are pure functions from a slice of merged
//! [`TraceEvent`]s to a `String`, so callers decide where the bytes go
//! (a file behind `--trace`, a test assertion, stdout). The JSONL form
//! is one compact object per line — easy to grep and to diff; the
//! Chrome form is the `traceEvents` array that Perfetto and
//! `chrome://tracing` open directly.

use crate::trace::{AttrValue, TraceEvent, ACTOR_ENGINE};
use cyclosa_util::json::Json;

impl AttrValue {
    /// The JSON form of the attribute value.
    pub(crate) fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::U64(*v),
            AttrValue::I64(v) => Json::I64(*v),
            AttrValue::F64(v) => Json::F64(*v),
            AttrValue::Bool(v) => Json::Bool(*v),
            AttrValue::Str(v) => Json::Str(v.clone()),
        }
    }
}

fn attrs_json(event: &TraceEvent) -> Json {
    Json::Obj(
        event
            .attrs
            .iter()
            .map(|(key, value)| ((*key).to_owned(), value.to_json()))
            .collect(),
    )
}

/// One event as a single-line JSON object.
///
/// Keys in order: `at_ns`, `node` (`null` for engine-attributed events),
/// `name`, then optionally `query`, `dur_ns` and `attrs` (when
/// non-empty).
pub(crate) fn event_to_jsonl(event: &TraceEvent) -> String {
    let mut fields = vec![
        ("at_ns".to_owned(), Json::U64(event.at.as_nanos())),
        (
            "node".to_owned(),
            if event.actor == ACTOR_ENGINE {
                Json::Null
            } else {
                Json::U64(event.actor)
            },
        ),
        ("name".to_owned(), Json::Str(event.name.to_owned())),
    ];
    if let Some(seq) = event.query {
        fields.push(("query".to_owned(), Json::U64(seq)));
    }
    if let Some(dur) = event.dur {
        fields.push(("dur_ns".to_owned(), Json::U64(dur.as_nanos())));
    }
    if !event.attrs.is_empty() {
        fields.push(("attrs".to_owned(), attrs_json(event)));
    }
    Json::Obj(fields).compact()
}

/// A merged timeline as JSONL: one compact object per line, trailing
/// newline included. Byte-identical for byte-identical timelines, so the
/// determinism tests compare this output directly.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_jsonl(event));
        out.push('\n');
    }
    out
}

/// A merged timeline in the Chrome trace-event format.
///
/// Spans (events with a duration) become complete events (`"ph": "X"`),
/// instants become instant events (`"ph": "i"` with thread scope). All
/// events share `pid` 1; the `tid` is the actor id (0 for
/// engine-attributed events, which Perfetto renders as its own track).
/// Timestamps are microseconds, per the format. Spans are stamped at
/// completion in the trace model (so a timeline read mid-run is a prefix
/// of the final one), so the exporter back-dates each
/// slice's `ts` by its duration: the rendered slice covers the operation
/// it measures.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let trace_events: Vec<Json> = events
        .iter()
        .map(|event| {
            let tid = if event.actor == ACTOR_ENGINE {
                0
            } else {
                // Perfetto track ids are more readable starting at 1;
                // node 0 (the search engine) keeps a distinct track
                // from the engine pseudo-track.
                event.actor + 1
            };
            let ts = match event.dur {
                Some(dur) => event.at.saturating_sub(dur),
                None => event.at,
            };
            let mut fields = vec![
                ("name".to_owned(), Json::Str(event.name.to_owned())),
                (
                    "ph".to_owned(),
                    Json::Str(if event.dur.is_some() { "X" } else { "i" }.to_owned()),
                ),
                ("ts".to_owned(), Json::F64(ts.as_micros_f64())),
                ("pid".to_owned(), Json::U64(1)),
                ("tid".to_owned(), Json::U64(tid)),
            ];
            if let Some(dur) = event.dur {
                fields.push(("dur".to_owned(), Json::F64(dur.as_micros_f64())));
            } else {
                fields.push(("s".to_owned(), Json::Str("t".to_owned())));
            }
            let mut args = Vec::new();
            if let Some(seq) = event.query {
                args.push(("query".to_owned(), Json::U64(seq)));
            }
            args.extend(
                event
                    .attrs
                    .iter()
                    .map(|(key, value)| ((*key).to_owned(), value.to_json())),
            );
            if !args.is_empty() {
                fields.push(("args".to_owned(), Json::Obj(args)));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(trace_events))]).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventName;
    use cyclosa_net::time::SimTime;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::named(SimTime::from_millis(1), 3, EventName::QueryLaunch)
                .query(0)
                .attr("k", 4u64),
            TraceEvent::named(
                SimTime::from_millis(2),
                ACTOR_ENGINE,
                EventName::FaultLinkLoss,
            )
            .attr("p", 0.25),
            TraceEvent::named(SimTime::from_millis(5), 3, EventName::QueryAnswered)
                .query(0)
                .span(SimTime::from_millis(4)),
        ]
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"at_ns\":1000000,\"node\":3,\"name\":\"query.launch\",\"query\":0,\"attrs\":{\"k\":4}}"
        );
        assert_eq!(
            lines[1],
            "{\"at_ns\":2000000,\"node\":null,\"name\":\"fault.link_loss\",\"attrs\":{\"p\":0.25}}"
        );
        assert!(lines[2].contains("\"dur_ns\":4000000"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_has_spans_and_instants() {
        let text = to_chrome_trace(&sample());
        assert!(text.starts_with("{\n  \"traceEvents\": ["));
        assert!(text.contains("\"ph\": \"X\""), "span event present");
        assert!(text.contains("\"ph\": \"i\""), "instant event present");
        assert!(text.contains("\"dur\": 4000.0"), "duration in microseconds");
        // The span completed at 5 ms with dur 4 ms: the slice is
        // back-dated to start at 1 ms.
        assert!(text.contains("\"ts\": 1000.0"), "span ts back-dated");
        // Engine events land on tid 0, node 3 on tid 4.
        assert!(text.contains("\"tid\": 0"));
        assert!(text.contains("\"tid\": 4"));
    }

    #[test]
    fn empty_timeline_exports_cleanly() {
        assert_eq!(to_jsonl(&[]), "");
        assert_eq!(to_chrome_trace(&[]), "{\n  \"traceEvents\": []\n}");
    }
}
