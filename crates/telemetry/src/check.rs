//! Schema checks for exported traces, plus the small JSON parser they
//! need.
//!
//! The CI telemetry-smoke job re-reads the files a traced run wrote and
//! validates them structurally — every JSONL line is an object with the
//! required typed keys, the Chrome file is a well-formed `traceEvents`
//! array — so a malformed exporter fails the build rather than silently
//! producing files Perfetto rejects. The build environment has no crate
//! registry, so the parser lives here: a recursive-descent reader into
//! the workspace's own [`Json`] value model.

use cyclosa_util::json::Json;

/// Parses one JSON document. Numbers parse as `U64` when they are
/// non-negative integers, `I64` when negative integers, `F64` otherwise
/// — mirroring what the serializer emits. Arrays and objects may nest
/// `MAX_NESTING` deep; a deeper document is an error, not a stack
/// overflow.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(byte),
            pos = *pos
        ))
    }
}

/// How deep arrays and objects may nest in a document [`parse_json`]
/// accepts. The parser recurses once per level and its input comes from
/// files named on a command line, so the bound is what keeps a hostile
/// file from exhausting the stack; the deepest record this repository
/// writes nests under ten levels.
pub(crate) const MAX_NESTING: usize = 128;

/// `depth` counts the arrays and objects enclosing the value at `pos`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth == MAX_NESTING && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // `pos` only ever advances by whole characters, so it sits on a
        // character boundary of `text`.
        match text[*pos..].chars().next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // `from_str_radix` alone would take a sign.
                        let hex = text
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                            .ok_or("\\u escape needs four hex digits")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates would need pairing; the exporter
                        // never emits them, so reject rather than mangle.
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(c) => {
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number")?;
    if text.is_empty() {
        return Err(format!("expected value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if text.starts_with('-') {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|e| e.to_string())
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_unsigned(value: &Json, what: &str) -> Result<(), String> {
    match value {
        Json::U64(_) => Ok(()),
        other => Err(format!("{what} must be an unsigned integer, got {other:?}")),
    }
}

/// The dot-namespaced families the workspace may emit trace events in.
/// Together with [`TRACE_EVENT_NAMES`] this is the *closed* trace schema:
/// the validators below reject any family-prefixed name outside the list,
/// and `cyclosa-lint`'s trace-schema cross-check statically verifies that
/// every emitter in the instrumented crates uses a registered name and
/// that every registered name still has an emitter.
// cyclosa-lint: schema-registry
pub(crate) const TRACE_EVENT_FAMILIES: [&str; 9] = [
    "plan.", "query.", "relay.", "engine.", "latency.", "fault.", "mship.", "slo.", "adv.",
];

/// Every trace event name the workspace emits, by family. Adding an
/// emitter requires adding its name here (and vice versa: a name without
/// an emitter fails the lint), so this list is the single authoritative
/// catalogue of the trace vocabulary.
// cyclosa-lint: schema-registry
pub(crate) const TRACE_EVENT_NAMES: [&str; 34] = [
    // Query-plan lifecycle (core::node).
    "plan.assess",
    "plan.fakes_drawn",
    "plan.assign",
    "plan.create",
    "plan.top_up",
    "plan.repair",
    "plan.refresh",
    // Query lifecycle (core::deployment, chaos::experiment).
    "query.launch",
    "query.answered",
    "query.repair",
    "query.top_up",
    // Relay/engine service path (chaos::experiment).
    "relay.forward",
    "engine.service",
    "latency.clamped",
    // Fault-plan application (chaos::plan).
    "fault.crash",
    "fault.leave",
    "fault.recover",
    "fault.link_loss",
    // Membership protocol (peer-sampling::membership).
    "mship.probe",
    "mship.alive",
    "mship.suspect",
    "mship.refute",
    "mship.dead",
    "mship.promote",
    "mship.quarantine",
    "mship.readmit",
    // SLO burn-rate monitors (telemetry::slo).
    "slo.privacy.burn",
    "slo.latency.burn",
    "slo.membership.burn",
    // Active-adversary annotations (chaos::plan, chaos::experiment):
    // policy activations and the byzantine tampering they cause.
    "adv.policy",
    "adv.drop",
    "adv.delay",
    "adv.lie",
    "adv.collude",
];

fn check_event_name(name: &str) -> Result<(), String> {
    if let Some(family) = TRACE_EVENT_FAMILIES.iter().find(|f| name.starts_with(**f)) {
        if !TRACE_EVENT_NAMES.contains(&name) {
            return Err(format!(
                "unknown event name {name:?} (the {family}* family is part of the closed \
                 trace schema; see TRACE_EVENT_NAMES)"
            ));
        }
    }
    Ok(())
}

/// Renders the offending line for an error message, truncated to keep a
/// pathological line from flooding CI logs.
fn offending(line: &str) -> String {
    const MAX: usize = 200;
    if line.len() <= MAX {
        return line.to_owned();
    }
    let mut cut = MAX;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &line[..cut])
}

/// Validates JSONL trace output: every line parses as an object carrying
/// `at_ns` (unsigned), `node` (unsigned or null), and a non-empty string
/// `name`; optional keys (`query`, `dur_ns`, `attrs`) must
/// have the right type; timestamps must be non-decreasing (the merged
/// timeline is sorted). Violations report the 1-based line number *and*
/// the offending JSON line (truncated), so a CI failure pinpoints the
/// bad record without re-opening the artifact. Returns the number of
/// valid lines.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0;
    let mut last_at = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let context = |msg: String| {
            format!(
                "line {}: {msg}\n  offending line: {}",
                lineno + 1,
                offending(line)
            )
        };
        let value = parse_json(line).map_err(&context)?;
        let Json::Obj(fields) = value else {
            return Err(context("not a JSON object".to_owned()));
        };
        let at = match get(&fields, "at_ns") {
            Some(Json::U64(v)) => *v,
            _ => return Err(context("missing unsigned 'at_ns'".to_owned())),
        };
        if at < last_at {
            return Err(context(format!("timestamps regress: {at} after {last_at}")));
        }
        last_at = at;
        match get(&fields, "node") {
            Some(Json::U64(_)) | Some(Json::Null) => {}
            _ => return Err(context("missing 'node' (unsigned or null)".to_owned())),
        }
        match get(&fields, "name") {
            Some(Json::Str(name)) if !name.is_empty() => {
                check_event_name(name).map_err(&context)?
            }
            _ => return Err(context("missing non-empty string 'name'".to_owned())),
        }
        for key in ["query", "dur_ns"] {
            if let Some(value) = get(&fields, key) {
                check_unsigned(value, key).map_err(&context)?;
            }
        }
        if let Some(attrs) = get(&fields, "attrs") {
            match attrs {
                Json::Obj(pairs) if !pairs.is_empty() => {}
                _ => return Err(context("'attrs' must be a non-empty object".to_owned())),
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Validates Chrome trace-event output: a top-level object with a
/// `traceEvents` array whose entries carry a string `name`, a `ph` of
/// `"X"` (with a `dur`) or `"i"`, a numeric `ts`, and unsigned
/// `pid`/`tid`. Returns the number of valid events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let value = parse_json(text)?;
    let Json::Obj(fields) = value else {
        return Err("top level is not an object".to_owned());
    };
    let Some(Json::Arr(events)) = get(&fields, "traceEvents") else {
        return Err("missing 'traceEvents' array".to_owned());
    };
    for (i, event) in events.iter().enumerate() {
        let context = |msg: String| format!("traceEvents[{i}]: {msg}");
        let Json::Obj(fields) = event else {
            return Err(context("not an object".to_owned()));
        };
        match get(fields, "name") {
            Some(Json::Str(name)) if !name.is_empty() => {
                check_event_name(name).map_err(&context)?
            }
            _ => return Err(context("missing non-empty string 'name'".to_owned())),
        }
        let ph = match get(fields, "ph") {
            Some(Json::Str(ph)) => ph.as_str(),
            _ => return Err(context("missing string 'ph'".to_owned())),
        };
        match ph {
            "X" => match get(fields, "dur") {
                Some(Json::F64(_)) | Some(Json::U64(_)) => {}
                _ => return Err(context("complete event without numeric 'dur'".to_owned())),
            },
            "i" => {}
            other => return Err(context(format!("unexpected phase {other:?}"))),
        }
        match get(fields, "ts") {
            Some(Json::F64(_)) | Some(Json::U64(_)) => {}
            _ => return Err(context("missing numeric 'ts'".to_owned())),
        }
        for key in ["pid", "tid"] {
            match get(fields, key) {
                Some(value) => check_unsigned(value, key).map_err(&context)?,
                None => return Err(context(format!("missing '{key}'"))),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_chrome_trace, to_jsonl};
    use crate::trace::{TraceEvent, ACTOR_ENGINE};
    use cyclosa_net::time::SimTime;

    #[test]
    fn trace_schema_is_internally_consistent() {
        // Every name belongs to exactly one declared family, and there are
        // no duplicates.
        for name in TRACE_EVENT_NAMES {
            assert_eq!(
                TRACE_EVENT_FAMILIES
                    .iter()
                    .filter(|f| name.starts_with(**f))
                    .count(),
                1,
                "{name} must match exactly one family"
            );
        }
        let mut sorted = TRACE_EVENT_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), TRACE_EVENT_NAMES.len(), "duplicate names");
    }

    #[test]
    fn family_names_outside_the_schema_are_rejected() {
        assert!(check_event_name("plan.assess").is_ok());
        assert!(check_event_name("adv.collude").is_ok());
        assert!(check_event_name("hop").is_ok(), "unfamilied names pass");
        let err = check_event_name("plan.bogus").unwrap_err();
        assert!(err.contains("closed"), "{err}");
        let err = check_event_name("mship.bogus").unwrap_err();
        assert!(err.contains("the mship.* family"), "{err}");
        let err = check_event_name("slo.bogus").unwrap_err();
        assert!(err.contains("the slo.* family"), "{err}");
    }

    #[test]
    fn parser_round_trips_serializer() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::U64(1), Json::I64(-2)])),
            ("b".into(), Json::F64(0.25)),
            ("c".into(), Json::Str("x\n\"y\" ü".into())),
            ("d".into(), Json::Null),
            ("e".into(), Json::Bool(true)),
            ("f".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse_json(&value.pretty()).unwrap(), value);
        assert_eq!(parse_json(&value.compact()).unwrap(), value);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse_json(r#""\u0041""#), Ok(Json::Str("A".to_owned())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u00g1""#] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        let value = "é".repeat(256 * 1024);
        let document = format!("{{\"v\":\"{value}\"}}");
        #[expect(
            clippy::disallowed_methods,
            reason = "a wall-clock guard on the parser's running time; nothing simulated reads it"
        )]
        let start = std::time::Instant::now();
        let parsed = parse_json(&document).expect("valid document");
        let elapsed = start.elapsed();
        assert_eq!(parsed, Json::Obj(vec![("v".to_owned(), Json::Str(value))]));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "a 512 KiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parser_caps_nesting_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse_json(&arrays(MAX_NESTING)).is_ok());
        assert!(parse_json(&objects(MAX_NESTING)).is_ok());
        for too_deep in [
            arrays(MAX_NESTING + 1),
            objects(MAX_NESTING + 1),
            // Mixed nesting counts both kinds against the one bound.
            "[{\"a\":".repeat(MAX_NESTING / 2) + "[]",
            // Hostile files: never closed, far past any stack.
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
        ] {
            let err = parse_json(&too_deep).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // The bound is on depth, not on size: wide and shallow is fine.
        assert!(parse_json(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn exported_traces_validate() {
        let events = vec![
            TraceEvent::new(SimTime::from_millis(1), 3, "plan.create")
                .query(0)
                .attr("k", 4u64),
            TraceEvent::new(SimTime::from_millis(2), ACTOR_ENGINE, "fault.crash"),
            TraceEvent::new(SimTime::from_millis(5), 3, "query.answered")
                .query(0)
                .span(SimTime::from_millis(4)),
        ];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&events)).unwrap(), 3);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&events)).unwrap(), 3);
    }

    #[test]
    fn validators_reject_bad_shapes() {
        assert!(validate_trace_jsonl("{\"name\":\"x\"}\n").is_err());
        assert!(
            validate_trace_jsonl(
                "{\"at_ns\":5,\"node\":1,\"name\":\"a\"}\n{\"at_ns\":3,\"node\":1,\"name\":\"b\"}\n"
            )
            .is_err(),
            "regressing timestamps rejected"
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
    }

    #[test]
    fn membership_event_family_is_a_closed_schema() {
        let known = vec![
            TraceEvent::new(SimTime::from_millis(1), 2, "mship.probe").attr("peer", 5u64),
            TraceEvent::new(SimTime::from_millis(2), 2, "mship.suspect").attr("peer", 5u64),
            TraceEvent::new(SimTime::from_millis(3), 5, "mship.refute").attr("incarnation", 1u64),
            TraceEvent::new(SimTime::from_millis(4), 2, "mship.promote").attr("peer", 7u64),
        ];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&known)).unwrap(), 4);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&known)).unwrap(), 4);
        // An unknown mship.* kind must fail both validators...
        let unknown = vec![TraceEvent::new(SimTime::from_millis(1), 2, "mship.zombie")];
        let err = validate_trace_jsonl(&to_jsonl(&unknown)).unwrap_err();
        assert!(err.contains("the mship.* family"), "{err}");
        assert!(validate_chrome_trace(&to_chrome_trace(&unknown)).is_err());
        // ...while non-membership names stay unconstrained.
        let other = vec![TraceEvent::new(SimTime::from_millis(1), 2, "query.launch")];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&other)).unwrap(), 1);
    }

    #[test]
    fn slo_event_family_is_a_closed_schema() {
        let known = vec![
            TraceEvent::new(SimTime::from_secs(10), ACTOR_ENGINE, "slo.privacy.burn")
                .attr("burn", 50.0),
            TraceEvent::new(SimTime::from_secs(10), ACTOR_ENGINE, "slo.latency.burn")
                .attr("burn", 1.2),
            TraceEvent::new(SimTime::from_secs(20), ACTOR_ENGINE, "slo.membership.burn")
                .attr("burn", 20.0),
        ];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&known)).unwrap(), 3);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&known)).unwrap(), 3);
        let unknown = vec![TraceEvent::new(
            SimTime::from_secs(10),
            ACTOR_ENGINE,
            "slo.novel",
        )];
        let err = validate_trace_jsonl(&to_jsonl(&unknown)).unwrap_err();
        assert!(err.contains("the slo.* family"), "{err}");
        assert!(validate_chrome_trace(&to_chrome_trace(&unknown)).is_err());
    }

    /// Schema violations name the line and quote the offending JSON.
    #[test]
    fn violations_quote_the_offending_line() {
        let good = "{\"at_ns\":1,\"node\":1,\"name\":\"a\"}";
        let bad = "{\"at_ns\":2,\"node\":1,\"name\":\"\"}";
        let err = validate_trace_jsonl(&format!("{good}\n{bad}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("offending line"), "{err}");
        assert!(err.contains(bad), "{err}");
        // Pathologically long lines are truncated, not dumped whole.
        let long = format!(
            "{{\"at_ns\":3,\"node\":1,\"name\":\"{}\",\"attrs\":[]}}",
            "x".repeat(500)
        );
        let err = validate_trace_jsonl(&long).unwrap_err();
        assert!(err.contains('…'), "{err}");
        assert!(err.len() < long.len(), "{err}");
    }
}
