//! Causal trace analysis: per-query timelines and critical-path
//! decomposition reconstructed from an exported JSONL trace.
//!
//! The analyzer joins the per-query event families emitted by the clients,
//! relays, and engine (`query.launch` → `query.repair`/`query.top_up` →
//! `relay.forward` → `engine.service` → `query.answered`, all keyed by the
//! query sequence number) back into a [`QueryTimeline`], and decomposes each
//! answered query's end-to-end latency into an *exact* [`CriticalPath`]: the
//! six components are non-negative by construction and sum to the recorded
//! `dur_ns` of the `query.answered` span to the nanosecond.
//!
//! # Critical-path construction
//!
//! Spans are stamped at completion time, so the chain is selected backwards
//! from the answer: the last `engine.service` span that completed before the
//! answer, the last `relay.forward` span that completed before that request
//! *arrived* at the engine (`at - dur`), and the last repair (retry) that
//! fired before the chosen forward's receipt. Everything between launch and
//! that chain start is attributed to repair/retry **stall**; the remaining
//! gaps are uplink serialization, relay service, WAN transfer, engine
//! service, and the response path. Backward selection keeps every component
//! non-negative even under retry races (an answer arriving from an attempt
//! older than the newest retry).
//!
//! Because the analyzer is a pure function of the timeline — which the
//! trace sink guarantees is byte-identical across sequential and sharded
//! executions — every derived artifact (timelines, paths, rollups) is
//! byte-identical across shard counts too.

use crate::check::parse_json;
use crate::sketch::QuantileSketch;
use crate::trace::{AttrValue, EventName, TraceEvent, ACTOR_ENGINE};
use cyclosa_net::time::SimTime;
use cyclosa_util::json::Json;
use std::collections::BTreeMap;

/// An owned trace event parsed back from a JSONL export (or converted from an
/// in-memory [`TraceEvent`]). Attribute values are kept as [`Json`] scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated completion timestamp.
    pub at: SimTime,
    /// Emitting actor, or `None` for the engine pseudo-actor.
    pub actor: Option<u64>,
    /// Event name (dotted family, e.g. `query.answered`).
    pub name: String,
    /// Query sequence number, when the event is query-scoped.
    pub query: Option<u64>,
    /// Span duration, when the event is a span rather than an instant.
    pub dur: Option<SimTime>,
    /// Schema-specific attributes (scalar JSON values).
    pub attrs: Vec<(String, Json)>,
}

impl TraceRecord {
    /// Convert an in-memory trace event into an owned record.
    pub fn from_event(event: &TraceEvent) -> Self {
        let attrs = event
            .attrs
            .iter()
            .map(|(key, value)| {
                let json = match value {
                    AttrValue::U64(v) => Json::U64(*v),
                    AttrValue::I64(v) => Json::I64(*v),
                    AttrValue::F64(v) => Json::F64(*v),
                    AttrValue::Bool(v) => Json::Bool(*v),
                    AttrValue::Str(v) => Json::Str(v.clone()),
                };
                ((*key).to_string(), json)
            })
            .collect();
        Self {
            at: event.at,
            actor: if event.actor == ACTOR_ENGINE {
                None
            } else {
                Some(event.actor)
            },
            name: event.name.to_string(),
            query: event.query,
            dur: event.dur,
            attrs,
        }
    }

    /// Look up an unsigned attribute by name.
    pub(crate) fn attr_u64(&self, name: &str) -> Option<u64> {
        self.attrs
            .iter()
            .find(|(key, _)| key == name)
            .and_then(|(_, value)| match value {
                Json::U64(v) => Some(*v),
                Json::I64(v) if *v >= 0 => Some(*v as u64),
                _ => None,
            })
    }

    /// Look up a boolean attribute by name.
    pub(crate) fn attr_bool(&self, name: &str) -> Option<bool> {
        self.attrs
            .iter()
            .find(|(key, _)| key == name)
            .and_then(|(_, value)| match value {
                Json::Bool(v) => Some(*v),
                _ => None,
            })
    }
}

fn obj_field<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
}

/// Parse a single JSONL trace line into a [`TraceRecord`].
pub(crate) fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let json = parse_json(line)?;
    let Json::Obj(fields) = json else {
        return Err("trace event must be a JSON object".to_string());
    };
    let at = match obj_field(&fields, "at_ns") {
        Some(Json::U64(ns)) => SimTime::from_nanos(*ns),
        _ => return Err("missing or non-unsigned at_ns".to_string()),
    };
    let actor = match obj_field(&fields, "node") {
        Some(Json::U64(id)) => Some(*id),
        Some(Json::Null) | None => None,
        _ => return Err("node must be unsigned or null".to_string()),
    };
    let name = match obj_field(&fields, "name") {
        Some(Json::Str(name)) if !name.is_empty() => name.clone(),
        _ => return Err("missing or empty name".to_string()),
    };
    let query = match obj_field(&fields, "query") {
        Some(Json::U64(q)) => Some(*q),
        None => None,
        _ => return Err("query must be unsigned".to_string()),
    };
    let dur = match obj_field(&fields, "dur_ns") {
        Some(Json::U64(ns)) => Some(SimTime::from_nanos(*ns)),
        None => None,
        _ => return Err("dur_ns must be unsigned".to_string()),
    };
    let attrs = match obj_field(&fields, "attrs") {
        Some(Json::Obj(pairs)) => pairs.clone(),
        None => Vec::new(),
        _ => return Err("attrs must be an object".to_string()),
    };
    Ok(TraceRecord {
        at,
        actor,
        name,
        query,
        dur,
        attrs,
    })
}

/// Parse a full JSONL trace export into records, with line context on error.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_record(line).map_err(|msg| format!("line {}: {msg}", lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Exact decomposition of one answered query's end-to-end latency.
///
/// All components are non-negative and [`CriticalPath::total`] equals the
/// recorded `query.answered` span duration exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Time lost to failed attempts before the answering chain started
    /// (repair/retry stalls; zero for first-attempt answers).
    pub stall: SimTime,
    /// Chain start → receipt at the answering relay (uplink serialization
    /// slots plus the client→relay link).
    pub(crate) to_relay: SimTime,
    /// In-relay processing of the answering forward.
    pub relay_service: SimTime,
    /// Relay → engine WAN transfer of the answering request.
    pub(crate) to_engine: SimTime,
    /// Engine service time for the answering request.
    pub engine_service: SimTime,
    /// Engine completion → answer recorded at the client (response path,
    /// plus any segment not covered by relay/engine instrumentation).
    pub(crate) response: SimTime,
}

impl CriticalPath {
    /// Sum of all components; equals the end-to-end latency exactly.
    pub fn total(&self) -> SimTime {
        SimTime::from_nanos(
            self.stall.as_nanos()
                + self.to_relay.as_nanos()
                + self.relay_service.as_nanos()
                + self.to_engine.as_nanos()
                + self.engine_service.as_nanos()
                + self.response.as_nanos(),
        )
    }

    /// Component names in report order, paired with values.
    pub fn components(&self) -> [(&'static str, SimTime); 6] {
        [
            ("stall", self.stall),
            ("to_relay", self.to_relay),
            ("relay_service", self.relay_service),
            ("to_engine", self.to_engine),
            ("engine_service", self.engine_service),
            ("response", self.response),
        ]
    }
}

/// The reconstructed causal timeline of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTimeline {
    /// Query sequence number.
    pub query: u64,
    /// Launch timestamp (from `query.launch`).
    pub(crate) launched_at: Option<SimTime>,
    /// Relay the real query was initially assigned to.
    pub(crate) relay: Option<u64>,
    /// Fake-query count drawn at launch (the privacy assessment's k).
    pub(crate) launch_fakes: Option<u64>,
    /// Assessed k at answer time (`assessed_k` attr on `query.answered`).
    pub assessed_k: Option<u64>,
    /// Achieved k at answer time (`achieved_k` attr on `query.answered`).
    pub achieved_k: Option<u64>,
    /// Number of repair (retry) events observed for this query.
    pub attempts: u64,
    /// Answer timestamp, when the query was answered.
    pub answered_at: Option<SimTime>,
    /// Recorded end-to-end latency (the `query.answered` span duration).
    pub end_to_end: Option<SimTime>,
    /// Relays blamed for injected faults on this query's path (deduplicated,
    /// sorted). Only populated from repairs flagged `fault_injected`.
    pub blamed_relays: Vec<u64>,
    /// Exact critical-path decomposition, when the query was answered with a
    /// recorded duration.
    pub path: Option<CriticalPath>,
    /// Indices into the analyzed record slice forming this query's causal
    /// chain, in timeline order.
    pub events: Vec<usize>,
}

/// Reconstruct per-query causal timelines from a merged trace.
///
/// Records must be in timeline order (non-decreasing `at`), which every
/// exported trace guarantees. Queries are returned in ascending sequence
/// order.
pub fn reconstruct(records: &[TraceRecord]) -> Vec<QueryTimeline> {
    let mut by_query: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (index, record) in records.iter().enumerate() {
        if let Some(query) = record.query {
            by_query.entry(query).or_default().push(index);
        }
    }
    by_query
        .into_iter()
        .map(|(query, events)| build_timeline(query, events, records))
        .collect()
}

fn build_timeline(query: u64, events: Vec<usize>, records: &[TraceRecord]) -> QueryTimeline {
    let mut timeline = QueryTimeline {
        query,
        launched_at: None,
        relay: None,
        launch_fakes: None,
        assessed_k: None,
        achieved_k: None,
        attempts: 0,
        answered_at: None,
        end_to_end: None,
        blamed_relays: Vec::new(),
        path: None,
        events: events.clone(),
    };
    let mut repairs: Vec<SimTime> = Vec::new();
    let mut forwards: Vec<(SimTime, SimTime)> = Vec::new(); // (completed, dur)
    let mut services: Vec<(SimTime, SimTime)> = Vec::new();
    for &index in &events {
        let record = &records[index];
        match EventName::parse(&record.name) {
            Some(EventName::QueryLaunch) if timeline.launched_at.is_none() => {
                timeline.launched_at = Some(record.at);
                timeline.relay = record.attr_u64("relay");
                timeline.launch_fakes = record.attr_u64("fakes");
            }
            Some(EventName::QueryRepair) => {
                timeline.attempts += 1;
                repairs.push(record.at);
                if record.attr_bool("fault_injected") == Some(true) {
                    if let Some(failed) = record.attr_u64("failed") {
                        timeline.blamed_relays.push(failed);
                    }
                }
            }
            Some(EventName::RelayForward) => {
                if let Some(dur) = record.dur {
                    forwards.push((record.at, dur));
                }
            }
            Some(EventName::EngineService) => {
                if let Some(dur) = record.dur {
                    services.push((record.at, dur));
                }
            }
            Some(EventName::QueryAnswered) if timeline.answered_at.is_none() => {
                timeline.answered_at = Some(record.at);
                timeline.end_to_end = record.dur;
                timeline.assessed_k = record.attr_u64("assessed_k");
                timeline.achieved_k = record.attr_u64("achieved_k");
            }
            _ => {}
        }
    }
    timeline.blamed_relays.sort_unstable();
    timeline.blamed_relays.dedup();
    if let (Some(answered_at), Some(end_to_end)) = (timeline.answered_at, timeline.end_to_end) {
        timeline.path = Some(critical_path(
            answered_at,
            end_to_end,
            &repairs,
            &forwards,
            &services,
        ));
    }
    timeline
}

/// Backward-chain critical-path selection. See the module docs for the
/// argument that every component is non-negative and the sum is exact.
fn critical_path(
    answered_at: SimTime,
    end_to_end: SimTime,
    repairs: &[SimTime],
    forwards: &[(SimTime, SimTime)],
    services: &[(SimTime, SimTime)],
) -> CriticalPath {
    let t_end = answered_at.as_nanos();
    let t0 = t_end.saturating_sub(end_to_end.as_nanos());
    // Last engine.service span completed by the answer.
    let service = services
        .iter()
        .rfind(|(at, _)| at.as_nanos() <= t_end)
        .copied();
    let Some((service_done, service_dur)) = service else {
        return fallback_path(t0, t_end, repairs);
    };
    let engine_arrival = service_done
        .as_nanos()
        .saturating_sub(service_dur.as_nanos());
    // Last relay.forward span completed by the time the request reached the
    // engine.
    let forward = forwards
        .iter()
        .rfind(|(at, _)| at.as_nanos() <= engine_arrival)
        .copied();
    let Some((forward_done, forward_dur)) = forward else {
        return fallback_path(t0, t_end, repairs);
    };
    // A relay that received the request before the query started is a
    // hostile or corrupt trace: no chain through it sums to the latency.
    let relay_receipt = forward_done
        .as_nanos()
        .checked_sub(forward_dur.as_nanos())
        .filter(|&receipt| receipt >= t0);
    let Some(relay_receipt) = relay_receipt else {
        return fallback_path(t0, t_end, repairs);
    };
    // The answering chain started at the last repair that fired before the
    // relay received the forwarded request, or at launch for first attempts.
    let chain_start = repairs
        .iter()
        .map(|at| at.as_nanos())
        .filter(|&at| at <= relay_receipt)
        .fold(t0, u64::max);
    CriticalPath {
        stall: SimTime::from_nanos(chain_start - t0),
        to_relay: SimTime::from_nanos(relay_receipt - chain_start),
        relay_service: forward_dur,
        to_engine: SimTime::from_nanos(engine_arrival.saturating_sub(forward_done.as_nanos())),
        engine_service: service_dur,
        response: SimTime::from_nanos(t_end - service_done.as_nanos()),
    }
}

/// Degraded decomposition when relay/engine instrumentation is absent from
/// the trace: stalls still come from repairs, the remainder is attributed to
/// the response component, and the sum stays exact.
fn fallback_path(t0: u64, t_end: u64, repairs: &[SimTime]) -> CriticalPath {
    let chain_start = repairs
        .iter()
        .map(|at| at.as_nanos())
        .filter(|&at| at <= t_end)
        .fold(t0, u64::max);
    CriticalPath {
        stall: SimTime::from_nanos(chain_start - t0),
        response: SimTime::from_nanos(t_end - chain_start),
        ..CriticalPath::default()
    }
}

/// Fold critical-path components of all answered queries into per-component
/// quantile sketches (nanosecond samples), plus an `end_to_end` rollup.
pub fn critical_path_rollup(timelines: &[QueryTimeline]) -> Vec<(&'static str, QuantileSketch)> {
    let mut rollup: Vec<(&'static str, QuantileSketch)> = [
        "end_to_end",
        "stall",
        "to_relay",
        "relay_service",
        "to_engine",
        "engine_service",
        "response",
    ]
    .iter()
    .map(|&name| (name, QuantileSketch::new()))
    .collect();
    for timeline in timelines {
        let (Some(end_to_end), Some(path)) = (timeline.end_to_end, timeline.path) else {
            continue;
        };
        rollup[0].1.record(end_to_end.as_nanos());
        for (name, value) in path.components() {
            if let Some((_, sketch)) = rollup.iter_mut().find(|(slot, _)| *slot == name) {
                sketch.record(value.as_nanos());
            }
        }
    }
    rollup
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_ns: u64, name: &str, query: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            actor: Some(1),
            name: name.to_string(),
            query: Some(query),
            dur: None,
            attrs: Vec::new(),
        }
    }

    fn span(at_ns: u64, name: &str, query: u64, dur_ns: u64) -> TraceRecord {
        TraceRecord {
            dur: Some(SimTime::from_nanos(dur_ns)),
            ..record(at_ns, name, query)
        }
    }

    #[test]
    fn parse_roundtrip() {
        let line = r#"{"at_ns":1000000,"node":3,"name":"query.launch","query":0,"attrs":{"k":4}}"#;
        let parsed = parse_record(line).expect("valid line");
        assert_eq!(parsed.at, SimTime::from_nanos(1_000_000));
        assert_eq!(parsed.actor, Some(3));
        assert_eq!(parsed.name, "query.launch");
        assert_eq!(parsed.query, Some(0));
        assert_eq!(parsed.attr_u64("k"), Some(4));
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let err = parse_trace("{\"at_ns\":1,\"name\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_trace_never_panics_on_mutated_traces() {
        use crate::check::mutations;
        use crate::export::to_jsonl;
        use crate::trace::TraceEvent;
        let trace = to_jsonl(&[
            TraceEvent::named(SimTime::from_millis(1), 3, EventName::QueryLaunch)
                .query(0)
                .attr("k", 4u64)
                .attr("topic", "santé → ✓"),
            TraceEvent::named(SimTime::from_millis(5), 3, EventName::QueryAnswered)
                .query(0)
                .span(SimTime::from_millis(4))
                .attr("exposed", false),
        ]);
        assert_eq!(parse_trace(&trace).map(|records| records.len()), Ok(2));
        for input in mutations(&trace, 0x7ACE) {
            let parsed = std::panic::catch_unwind(|| parse_trace(&input));
            assert!(parsed.is_ok(), "parsing {input:?} panicked");
        }
    }

    #[test]
    fn first_attempt_path_is_exact() {
        // launch at 10, forward done at 40 (dur 15), engine done at 100
        // (dur 30), answered at 130 with e2e 120.
        let records = vec![
            record(10, "query.launch", 7),
            span(40, "relay.forward", 7, 15),
            span(100, "engine.service", 7, 30),
            span(130, "query.answered", 7, 120),
        ];
        let timelines = reconstruct(&records);
        assert_eq!(timelines.len(), 1);
        let path = timelines[0].path.expect("answered query has a path");
        assert_eq!(path.stall.as_nanos(), 0);
        assert_eq!(path.to_relay.as_nanos(), 15); // 10 → 25 receipt
        assert_eq!(path.relay_service.as_nanos(), 15);
        assert_eq!(path.to_engine.as_nanos(), 30); // 40 → 70 arrival
        assert_eq!(path.engine_service.as_nanos(), 30);
        assert_eq!(path.response.as_nanos(), 30); // 100 → 130
        assert_eq!(path.total().as_nanos(), 120);
    }

    #[test]
    fn retry_stall_is_attributed() {
        // Launch at 0, first attempt dies, repair at 3_000, answering chain
        // forwards at 3_200 (receipt 3_100), engine at 3_500, answer 3_800.
        let records = vec![
            record(0, "query.launch", 1),
            span(40, "relay.forward", 1, 10),
            record(3_000, "query.repair", 1),
            span(3_200, "relay.forward", 1, 100),
            span(3_500, "engine.service", 1, 200),
            span(3_800, "query.answered", 1, 3_800),
        ];
        let timelines = reconstruct(&records);
        let path = timelines[0].path.expect("path");
        assert_eq!(path.stall.as_nanos(), 3_000);
        assert_eq!(path.total().as_nanos(), 3_800);
        assert_eq!(timelines[0].attempts, 1);
    }

    #[test]
    fn fallback_path_still_sums_exactly() {
        let records = vec![
            record(0, "query.launch", 2),
            record(500, "query.repair", 2),
            span(900, "query.answered", 2, 900),
        ];
        let path = reconstruct(&records)[0].path.expect("path");
        assert_eq!(path.stall.as_nanos(), 500);
        assert_eq!(path.response.as_nanos(), 400);
        assert_eq!(path.total().as_nanos(), 900);
    }

    #[test]
    fn a_relay_receipt_before_launch_falls_back_and_still_sums_exactly() {
        // The relay received the request at 830, before the query started
        // at 900.
        let records = vec![
            span(930, "relay.forward", 4, 100),
            span(950, "engine.service", 4, 10),
            span(1_000, "query.answered", 4, 100),
        ];
        let path = reconstruct(&records)[0].path.expect("path");
        assert_eq!(path.total().as_nanos(), 100);
        assert_eq!(path.response.as_nanos(), 100);
    }

    #[test]
    fn names_outside_the_schema_shape_no_timeline() {
        // Only exact schema names count: a near miss is an unrelated event
        // of the same query, not a second launch or a repair.
        let records = vec![
            record(0, "query.launch", 5),
            record(100, "query.launch.retry", 5),
            record(200, "query.repairs", 5),
            span(900, "query.answered", 5, 900),
        ];
        let timeline = &reconstruct(&records)[0];
        assert_eq!(timeline.launched_at, Some(SimTime::ZERO));
        assert_eq!(timeline.attempts, 0);
        assert_eq!(timeline.events.len(), 4);
    }

    #[test]
    fn blame_only_from_fault_injected_repairs() {
        let mut repair = record(100, "query.repair", 3);
        repair.attrs = vec![
            ("failed".to_string(), Json::U64(9)),
            ("fault_injected".to_string(), Json::Bool(true)),
        ];
        let mut benign = record(200, "query.repair", 3);
        benign.attrs = vec![
            ("failed".to_string(), Json::U64(4)),
            ("fault_injected".to_string(), Json::Bool(false)),
        ];
        let records = vec![record(0, "query.launch", 3), repair, benign];
        let timeline = &reconstruct(&records)[0];
        assert_eq!(timeline.blamed_relays, vec![9]);
    }
}
