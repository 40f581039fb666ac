//! The metric names and units the benchmark prints. `BENCHMARK.json` at
//! the repository root lists the same names with direction and bound; a
//! test keeps the two in step.

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("query_host_us_p50", "us"),
    ("query_host_us_p99", "us"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. The
/// prefix is the layer (crate) the number belongs to; a layer that does no
/// work in a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // node_fullstack: span self time and calls per user query.
    ("bench.query_loop_self_us_per_query", "us"),
    ("core.plan_query_self_us_per_query", "us"),
    ("core.relay_query_self_us_per_query", "us"),
    ("core.relay_query_calls_per_query", "count"),
    ("crypto.channel_seal_self_us_per_query", "us"),
    ("crypto.channel_seal_calls_per_query", "count"),
    ("crypto.channel_open_self_us_per_query", "us"),
    ("crypto.channel_open_calls_per_query", "count"),
    ("search-engine.submit_self_us_per_query", "us"),
    ("search-engine.submit_calls_per_query", "count"),
    ("peer-sampling.round_self_us_per_query", "us"),
    ("peer-sampling.round_calls_per_query", "count"),
    // node_fullstack: counts at the same boundaries, and set-up spans.
    ("core.assignments_per_query", "count"),
    ("core.plan_errors", "count"),
    ("crypto.bytes_sealed_per_query", "B"),
    ("sgx.ecalls_per_query", "count"),
    ("sgx.modelled_transition_sim_ns_per_query", "ns"),
    ("search-engine.rate_limited", "count"),
    ("crypto.handshake_us_per_pair", "us"),
    ("core.build_node_ms", "ms"),
    // Micro-probes on fixed inputs, ns per call.
    ("nlp.tokenize_ns", "ns"),
    ("nlp.cosine_ns", "ns"),
    ("core.assess_sensitive_ns", "ns"),
    ("core.assess_plain_ns", "ns"),
    ("crypto.aead_seal_512B_ns", "ns"),
    ("crypto.aead_open_512B_ns", "ns"),
    ("crypto.x25519_ns", "ns"),
    ("sgx.ecall_ns", "ns"),
    ("sgx.seal_4KiB_ns", "ns"),
    ("search-engine.search_or_k3_ns", "ns"),
    ("attack.reidentify_198users_ns", "ns"),
    ("telemetry.emit_disabled_ns", "ns"),
    ("telemetry.emit_enabled_ns", "ns"),
    ("telemetry.sketch_record_ns", "ns"),
    ("net.push_pop_ns_per_event", "ns"),
    ("runtime.window_turn_ns", "ns"),
    // Simulator workloads: handler and engine host time per event.
    ("net.build_us_per_node", "us"),
    ("runtime.build_us_per_node", "us"),
    ("bench.ping_handler_ns_per_event", "ns"),
    ("chaos.client_ns_per_event", "ns"),
    ("chaos.relay_ns_per_event", "ns"),
    ("chaos.engine_ns_per_event", "ns"),
    ("net.engine_ns_per_event", "ns"),
    ("runtime.engine_thread_ns_per_event", "ns"),
    ("runtime.barrier_stall_ns_p50", "ns"),
    ("runtime.barrier_stall_ns_p99", "ns"),
    ("runtime.events_per_window", "count"),
    ("runtime.mailbox_events_per_window", "count"),
    // Simulator workloads: simulated counts (repeat exactly per seed).
    ("net.events", "count"),
    ("net.delivered", "count"),
    ("net.timers_fired", "count"),
    ("net.bytes_delivered", "B"),
    ("chaos.retries", "count"),
    ("chaos.fakes_topped_up", "count"),
    // privacy_eval.
    ("mechanism.protect_us_per_query", "us"),
    ("attack.reidentify_us_per_query", "us"),
    ("attack.from_training_s", "s"),
    // Cost of tracing itself.
    ("telemetry.trace_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    // The traced repetition's own end-to-end readings, for reconciling.
    ("bench.traced_setup_s", "s"),
    ("bench.traced_work_s", "s"),
    ("bench.untraced_work_s", "s"),
    ("bench.traced_us_per_op", "us"),
    ("bench.untraced_us_per_op", "us"),
    ("bench.ops", "count"),
    ("bench.failed_ops", "count"),
    ("bench.probe_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{array, field, number, string};
    use crate::workloads::WORKLOADS;
    use cyclosa_telemetry::check::parse_json;

    fn listed(json: &cyclosa_util::json::Json, list: &str) -> Vec<(String, String)> {
        array(field(json, list).unwrap())
            .unwrap()
            .iter()
            .map(|m| {
                let better = string(field(m, "better").unwrap()).unwrap();
                assert!(better == "higher" || better == "lower", "{better}");
                (
                    string(field(m, "name").unwrap()).unwrap(),
                    string(field(m, "unit").unwrap()).unwrap(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
        for metric in array(field(&json, "end_to_end").unwrap()).unwrap() {
            let bound = number(field(metric, "bound").unwrap()).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
        let workloads: Vec<String> = array(field(&json, "workloads").unwrap())
            .unwrap()
            .iter()
            .map(|w| string(field(w, "name").unwrap()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }
}
