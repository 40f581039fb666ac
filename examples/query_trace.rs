//! One query's causal timeline through a scripted relay crash.
//!
//! The telemetry layer threads every event of a query's life — launch,
//! the relay going silent, the blacklist-and-resubmit repair, the
//! adaptive fake top-up, the final answer span — onto a single merged
//! timeline keyed by the query sequence number. This example scripts a
//! crash against exactly the relay one query depends on and prints that
//! query's timeline, then shows the JSONL lines a `--trace` run would
//! export for it.
//!
//! Run with `cargo run --example query_trace`.

use cyclosa_chaos::deployment::ChurnTelemetry;
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig, ChurnOutcome};
use cyclosa_chaos::ChaosPlan;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_telemetry::export::to_jsonl;
use cyclosa_telemetry::{AttrValue, TraceEvent, TraceSink};

/// The query whose story we tell.
const VICTIM_QUERY: u64 = 3;

fn telemetry() -> ChurnTelemetry {
    ChurnTelemetry {
        trace: TraceSink::enabled(),
        metrics: None,
    }
}

fn config() -> ChurnConfig {
    ChurnConfig {
        relays: 30,
        k: 3,
        queries: 8,
        failure_rate: 0.0, // no sampled churn — the crash below is scripted
        adaptive: true,
        ..ChurnConfig::default()
    }
}

/// One traced run on the sequential simulator with `script` applied.
fn run(script: &ChaosPlan, telemetry: &ChurnTelemetry) -> ChurnOutcome {
    let config = config();
    let mut simulation = Simulation::new(config.seed);
    run_churn_experiment_on(&mut simulation, &config, script, telemetry)
}

fn attr<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a AttrValue> {
    event
        .attrs
        .iter()
        .find_map(|(k, v)| (*k == key).then_some(v))
}

fn main() {
    // Pass 1: a fault-free traced run tells us, from the timeline itself,
    // which relay the victim query launches its real message through and
    // when. Tracing is a pure read-out, so this run is bit-identical to
    // an untraced one — we are just reading the engine's diary.
    let scout = telemetry();
    run(&ChaosPlan::new(), &scout);
    let launch = scout
        .trace
        .events()
        .iter()
        .find(|e| e.name == "query.launch" && e.query == Some(VICTIM_QUERY))
        .cloned()
        .expect("the victim query launches");
    let relay = match attr(&launch, "relay") {
        Some(AttrValue::U64(id)) => NodeId(*id),
        other => panic!("query.launch carries its relay id, got {other:?}"),
    };
    println!(
        "query #{VICTIM_QUERY} launches at {:.3} s through relay {}",
        launch.at.as_secs_f64(),
        relay.0
    );

    // Pass 2: the same run, but a scripted ChaosPlan crashes exactly that
    // relay right after the launch — the real message dies with it, the
    // retry timeout fires, and the client repairs around the corpse.
    let crash_at = launch.at + SimTime::from_millis(1);
    let script = ChaosPlan::new().crash_at(crash_at, relay);
    println!(
        "scripting a crash of relay {} at {:.3} s and re-running...\n",
        relay.0,
        crash_at.as_secs_f64()
    );
    let observed = telemetry();
    let outcome = run(&script, &observed);
    assert!(outcome.retries > 0, "the crash must force a repair");

    // Walk the victim query's causal timeline: its own events plus the
    // fault annotation for the relay it was relying on.
    println!("causal timeline of query #{VICTIM_QUERY}:");
    for event in observed.trace.events() {
        let involves_query = event.query == Some(VICTIM_QUERY);
        let involves_relay = event.actor == relay.0 && event.name.starts_with("fault.");
        if !involves_query && !involves_relay {
            continue;
        }
        let attrs: Vec<String> = event
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        let dur = match event.dur {
            Some(d) => format!(" (span, {:.3} s)", d.as_secs_f64()),
            None => String::new(),
        };
        println!(
            "  {:>8.3} s  actor {:>4}  {:<14}{} {}",
            event.at.as_secs_f64(),
            event.actor,
            event.name,
            dur,
            attrs.join(" ")
        );
    }

    // The repair must be annotated as fault-injected: the relay it heals
    // around is exactly the one our script killed.
    let repair = observed
        .trace
        .events()
        .iter()
        .find(|e| e.name == "query.repair" && e.query == Some(VICTIM_QUERY))
        .cloned()
        .expect("the victim query repairs");
    assert_eq!(attr(&repair, "failed"), Some(&AttrValue::U64(relay.0)));
    assert_eq!(
        attr(&repair, "fault_injected"),
        Some(&AttrValue::Bool(true))
    );
    println!(
        "\nthe repair heals around relay {} and is annotated fault_injected=true",
        relay.0
    );

    // What `--trace` would write: the victim query's JSONL lines.
    let victim_events: Vec<TraceEvent> = observed
        .trace
        .events()
        .iter()
        .filter(|e| e.query == Some(VICTIM_QUERY))
        .cloned()
        .collect();
    println!("\nexported JSONL for query #{VICTIM_QUERY}:");
    print!("{}", to_jsonl(&victim_events));
}
