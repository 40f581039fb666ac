//! Privacy-SLO evaluation wired into the chaos experiments.
//!
//! The churn/partition/membership experiments all trace through the same
//! [`ChurnTelemetry`] sink, so one adapter covers all three: take the
//! merged timeline the run produced, stream it through the
//! [`cyclosa_telemetry::SloMonitor`], and hand back both the burn-rate
//! report and an **alert-enriched timeline** (the original events with
//! the `slo.*` alerts spliced in at their window-end timestamps, sort
//! invariant preserved) ready for JSONL export.
//!
//! The SLO targets derive from the client's own timing
//! ([`churn_slo_config`]), so a failure-free baseline run passes by
//! construction: every answered query reports `achieved_k == assessed_k`
//! and first-attempt latency sits far below the retry timeout. Any
//! privacy alert on a baseline run is therefore a regression, which is
//! exactly the property the CI gate leans on.

use crate::deployment::{ChurnTelemetry, RETRY_TIMEOUT};
use cyclosa_telemetry::{SloConfig, SloMonitor, SloReport, TraceEvent};

/// SLO targets for a churn-family experiment:
///
/// - privacy: default error budget (one violating answer in any window
///   fires, since windows hold far fewer than 1/budget answers);
/// - latency: windowed p99 must stay under the client's retry timeout —
///   a first-attempt answer always does, so sustained p99 above it means
///   the run is resubmitting at scale;
/// - membership / window: defaults (10 s windows, 5 % false-suspicion
///   budget).
pub fn churn_slo_config() -> SloConfig {
    SloConfig {
        latency_p99_budget: RETRY_TIMEOUT,
        ..SloConfig::default()
    }
}

/// Result of an SLO pass over an observed experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// Burn-rate report (totals plus every alert, in timeline order).
    pub report: SloReport,
    /// The run's merged timeline with the burn alerts spliced in at
    /// their window-end timestamps — still sorted by `(at, actor)`, so
    /// it exports through the same JSONL/Chrome paths as the raw trace.
    pub timeline: Vec<TraceEvent>,
}

/// Evaluate the SLOs over the timeline an observed churn-family run left
/// in `telemetry.trace`. Pure function of the merged timeline, which is
/// byte-identical across sequential and sharded runs of the same seed —
/// so the report and the enriched timeline are too.
pub fn evaluate_churn_slos(telemetry: &ChurnTelemetry) -> SloOutcome {
    evaluate_timeline_slos(churn_slo_config(), &telemetry.trace.events())
}

/// [`evaluate_churn_slos`] for an already-extracted timeline.
pub(crate) fn evaluate_timeline_slos(config: SloConfig, events: &[TraceEvent]) -> SloOutcome {
    let mut monitor = SloMonitor::new(config);
    for event in events {
        monitor.observe_event(event);
    }
    let report = monitor.finish();
    let timeline = cyclosa_telemetry::slo::merge_alerts(events, &report.alerts);
    SloOutcome { report, timeline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_churn_experiment_on, ChurnConfig};
    use crate::plan::ChaosPlan;
    use cyclosa_net::sim::Simulation;
    use cyclosa_net::time::SimTime;
    use cyclosa_telemetry::{SloKind, TraceSink};

    fn base_config() -> ChurnConfig {
        ChurnConfig {
            relays: 12,
            k: 3,
            queries: 30,
            failure_rate: 0.0,
            seed: 7,
            ..ChurnConfig::default()
        }
    }

    fn traced_run(config: &ChurnConfig, plan: &ChaosPlan) -> (ChurnTelemetry, SloOutcome) {
        let telemetry = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: None,
        };
        let mut simulation = Simulation::new(config.seed);
        run_churn_experiment_on(&mut simulation, config, plan, &telemetry);
        let outcome = evaluate_churn_slos(&telemetry);
        (telemetry, outcome)
    }

    #[test]
    fn failure_free_baseline_has_zero_privacy_violations() {
        let config = base_config();
        let (_telemetry, outcome) = traced_run(&config, &ChaosPlan::new());
        assert!(outcome.report.answered > 0);
        assert_eq!(outcome.report.privacy_violations, 0);
        assert_eq!(outcome.report.alert_count(SloKind::Privacy), 0);
    }

    #[test]
    fn heavy_relay_failures_fire_privacy_alerts_deterministically() {
        // Crash half the relays early: fixed-k planning keeps entrusting
        // fakes to dead relays, so achieved_k dips below assessed_k and
        // the privacy SLO burns.
        let config = base_config();
        let mut plan = ChaosPlan::new();
        for relay in 1..=(config.relays / 2) {
            plan = plan.crash_at(SimTime::from_secs(2), cyclosa_net::NodeId(relay as u64));
        }
        let (_telemetry, first) = traced_run(&config, &plan);
        assert!(
            first.report.privacy_violations > 0,
            "expected achieved_k dips under 50% crashes"
        );
        assert!(first.report.alert_count(SloKind::Privacy) > 0);
        let (_telemetry, second) = traced_run(&config, &plan);
        assert_eq!(
            first, second,
            "SLO outcome must be deterministic for a fixed seed"
        );
    }

    #[test]
    fn enriched_timeline_keeps_sort_invariant_and_contains_alerts() {
        let config = base_config();
        let mut plan = ChaosPlan::new();
        for relay in 1..=(config.relays / 2) {
            plan = plan.crash_at(SimTime::from_secs(2), cyclosa_net::NodeId(relay as u64));
        }
        let (telemetry, outcome) = traced_run(&config, &plan);
        let raw = telemetry.trace.events();
        assert_eq!(
            outcome.timeline.len(),
            raw.len() + outcome.report.alerts.len()
        );
        assert!(outcome
            .timeline
            .iter()
            .any(|event| event.name.starts_with("slo.")));
        for pair in outcome.timeline.windows(2) {
            assert!((pair[0].at, pair[0].actor) <= (pair[1].at, pair[1].actor));
        }
    }
}
