//! Schema checks for exported traces, plus the small JSON parser they
//! need.
//!
//! The CI telemetry-smoke job re-reads the files a traced run wrote and
//! validates them structurally — every JSONL line is an object with the
//! required typed keys, the Chrome file is a well-formed `traceEvents`
//! array, and no name carries a schema family's prefix without being an
//! [`EventName`] — so a malformed exporter fails the build rather than
//! silently producing files Perfetto rejects. The build environment has no crate
//! registry, so the parser lives here: a recursive-descent reader into
//! the workspace's own [`Json`] value model.

use crate::trace::EventName;
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

/// Accepts a name of the closed schema ([`EventName`]) and any name
/// outside the schema's families; rejects a name that carries a schema
/// family's prefix but is not in the schema (`query.bogus`).
fn check_event_name(name: &str) -> Result<(), String> {
    if EventName::parse(name).is_some() {
        return Ok(());
    }
    match EventName::ALL
        .iter()
        .find(|known| name.starts_with(known.family()))
    {
        Some(known) => Err(format!(
            "unknown event name {name:?} (the {}* family is part of the closed trace \
             schema; see EventName)",
            known.family()
        )),
        None => Ok(()),
    }
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

/// Hostile variants of the valid document `valid`: every truncation, 256
/// seeded single-bit flips, 64 seeded four-bit flips and 64 random byte
/// strings up to twice its length. Bytes that are not UTF-8 are read
/// lossily, as a caller holding raw file bytes would.
#[cfg(test)]
pub(crate) fn mutations(valid: &str, seed: u64) -> Vec<String> {
    use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
    let bytes = valid.as_bytes();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut inputs: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for flips in [1; 256].into_iter().chain([4; 64]) {
        let mut flipped = bytes.to_vec();
        for _ in 0..flips {
            flipped[rng.gen_index(bytes.len())] ^= 1 << rng.gen_index(8);
        }
        inputs.push(flipped);
    }
    for _ in 0..64 {
        let mut random = vec![0; rng.gen_index(2 * bytes.len() + 1)];
        rng.fill_bytes(&mut random);
        inputs.push(random);
    }
    inputs
        .iter()
        .map(|input| String::from_utf8_lossy(input).into_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_chrome_trace, to_jsonl};
    use crate::trace::{TraceEvent, ACTOR_ENGINE};
    use cyclosa_net::time::SimTime;
    use std::collections::BTreeSet;

    /// An event whose name is outside the schema: only a hand-built
    /// `TraceEvent` can carry one.
    fn unknown(at: SimTime, name: &'static str) -> TraceEvent {
        TraceEvent {
            name,
            ..TraceEvent::named(at, 2, EventName::QueryLaunch)
        }
    }

    #[test]
    fn trace_schema_is_internally_consistent() {
        // Distinct variants could still spell one name twice: rustc
        // checks discriminants, not strings.
        let names: BTreeSet<&str> = EventName::ALL.iter().map(|n| n.as_str()).collect();
        assert_eq!(names.len(), EventName::ALL.len(), "duplicate names");
        assert_eq!(EventName::ALL.len(), 27);
        // Every name sits in one of the eight families.
        let families: BTreeSet<&str> = EventName::ALL.iter().map(|n| n.family()).collect();
        assert_eq!(
            families,
            BTreeSet::from([
                "adv.", "engine.", "fault.", "latency.", "mship.", "query.", "relay.", "slo."
            ])
        );
        for name in EventName::ALL {
            assert!(name.as_str().len() > name.family().len(), "{name:?}");
        }
    }

    #[test]
    fn every_event_name_parses_back_to_itself() {
        for &name in EventName::ALL {
            assert_eq!(EventName::parse(name.as_str()), Some(name));
        }
        for unknown in [
            "",
            "query.",
            "query.zzz",
            "Query.launch",
            "query.launch ",
            "hop",
        ] {
            assert_eq!(EventName::parse(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn family_names_outside_the_schema_are_rejected() {
        assert!(check_event_name("query.launch").is_ok());
        assert!(check_event_name("adv.collude").is_ok());
        assert!(check_event_name("hop").is_ok(), "unfamilied names pass");
        let err = check_event_name("query.bogus").unwrap_err();
        assert!(err.contains("closed"), "{err}");
        let err = check_event_name("mship.bogus").unwrap_err();
        assert!(err.contains("the mship.* family"), "{err}");
        let err = check_event_name("slo.bogus").unwrap_err();
        assert!(err.contains("the slo.* family"), "{err}");
        // A family-shaped name outside the schema fails the JSONL
        // validator in every family, with the line quoted.
        for name in EventName::ALL {
            let family = name.family();
            let line = format!("{{\"at_ns\":1,\"node\":1,\"name\":\"{family}zzz\"}}");
            let err = validate_trace_jsonl(&line).unwrap_err();
            assert!(err.starts_with("line 1: unknown event name"), "{err}");
            assert!(err.contains(&format!("the {family}* family")), "{err}");
        }
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
    fn parse_json_never_panics_on_mutated_documents() {
        let document = r#"{"name":"query.launch","at_ns":1000000,"neg":-12,"f":-1.5e-3,"ok":true,"no":false,"nil":null,"s":"tab\t \"q\" \u00e9 é → ✓","arr":[[],{},[1,{"a":[2]}]]}"#;
        assert!(parse_json(document).is_ok());
        for input in mutations(document, 0x15C) {
            let parsed = std::panic::catch_unwind(|| parse_json(&input));
            assert!(parsed.is_ok(), "parsing {input:?} panicked");
        }
    }

    #[test]
    fn exported_traces_validate() {
        let events = vec![
            TraceEvent::named(SimTime::from_millis(1), 3, EventName::QueryLaunch)
                .query(0)
                .attr("k", 4u64),
            TraceEvent::named(SimTime::from_millis(2), ACTOR_ENGINE, EventName::FaultCrash),
            TraceEvent::named(SimTime::from_millis(5), 3, EventName::QueryAnswered)
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
            TraceEvent::named(SimTime::from_millis(1), 2, EventName::MshipProbe).attr("peer", 5u64),
            TraceEvent::named(SimTime::from_millis(2), 2, EventName::MshipSuspect)
                .attr("peer", 5u64),
            TraceEvent::named(SimTime::from_millis(3), 5, EventName::MshipRefute)
                .attr("incarnation", 1u64),
            TraceEvent::named(SimTime::from_millis(4), 2, EventName::MshipPromote)
                .attr("peer", 7u64),
        ];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&known)).unwrap(), 4);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&known)).unwrap(), 4);
        // An unknown mship.* kind must fail both validators...
        let zombie = vec![unknown(SimTime::from_millis(1), "mship.zombie")];
        let err = validate_trace_jsonl(&to_jsonl(&zombie)).unwrap_err();
        assert!(err.contains("the mship.* family"), "{err}");
        assert!(validate_chrome_trace(&to_chrome_trace(&zombie)).is_err());
        // ...while names outside every family stay unconstrained.
        let other = vec![unknown(SimTime::from_millis(1), "hop")];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&other)).unwrap(), 1);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&other)).unwrap(), 1);
    }

    #[test]
    fn slo_event_family_is_a_closed_schema() {
        let known = vec![
            TraceEvent::named(
                SimTime::from_secs(10),
                ACTOR_ENGINE,
                EventName::SloPrivacyBurn,
            )
            .attr("burn", 50.0),
            TraceEvent::named(
                SimTime::from_secs(10),
                ACTOR_ENGINE,
                EventName::SloLatencyBurn,
            )
            .attr("burn", 1.2),
            TraceEvent::named(
                SimTime::from_secs(20),
                ACTOR_ENGINE,
                EventName::SloMembershipBurn,
            )
            .attr("burn", 20.0),
        ];
        assert_eq!(validate_trace_jsonl(&to_jsonl(&known)).unwrap(), 3);
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&known)).unwrap(), 3);
        let novel = vec![unknown(SimTime::from_secs(10), "slo.novel")];
        let err = validate_trace_jsonl(&to_jsonl(&novel)).unwrap_err();
        assert!(err.contains("the slo.* family"), "{err}");
        assert!(validate_chrome_trace(&to_chrome_trace(&novel)).is_err());
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
