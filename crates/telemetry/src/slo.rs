//! Live privacy/latency/membership SLO monitoring with burn-rate alerts.
//!
//! [`SloMonitor`] consumes the merged timeline in order (streaming: one pass,
//! O(windows) state) and evaluates three SLOs per fixed simulated-time
//! window:
//!
//! - **privacy** — the fraction of answered queries whose `achieved_k` fell
//!   below their `assessed_k` must stay within the error budget;
//! - **latency** — the windowed p99 of end-to-end latency (from a
//!   [`QuantileSketch`] over `query.answered` spans) must stay under budget;
//! - **membership** — the false-suspicion rate (refuted suspicions over
//!   suspicions raised) must stay within budget.
//!
//! When a window overspends its budget the monitor emits a burn-rate alert
//! from the closed `slo.*` event family (`check::TRACE_EVENT_NAMES`),
//! stamped at the window's end on the simulated clock. Because the monitor
//! is a pure function of the merged timeline — which is byte-identical
//! across sequential and 1/2/4/8-shard runs — the alert stream is
//! byte-identical too, which is what makes it usable as a CI gate.

use crate::analyze::TraceRecord;
use crate::sketch::QuantileSketch;
use crate::trace::{TraceEvent, ACTOR_ENGINE};
use cyclosa_net::time::SimTime;
use cyclosa_util::json::Json;

/// SLO targets and the evaluation window. Settings, not constants: the
/// `observe` bin's flags set each of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Evaluation window on the simulated clock.
    pub window: SimTime,
    /// Privacy error budget: max tolerated fraction of answered queries with
    /// `achieved_k < assessed_k` per window.
    pub privacy_budget: f64,
    /// Latency budget: windowed p99 end-to-end latency must stay under this.
    pub latency_p99_budget: SimTime,
    /// Membership error budget: max tolerated false-suspicion rate (refuted
    /// suspicions over suspicions raised) per window.
    pub suspicion_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            window: SimTime::from_secs(10),
            privacy_budget: 0.001,
            latency_p99_budget: SimTime::from_secs(3),
            suspicion_budget: 0.05,
        }
    }
}

/// Which SLO an alert belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// `achieved_k ≥ assessed_k` fraction of answered queries.
    Privacy,
    /// Windowed p99 end-to-end latency budget.
    Latency,
    /// False-suspicion rate of the membership layer.
    Membership,
}

impl SloKind {
    /// The closed-schema event name for this SLO's burn alerts.
    pub(crate) fn event_name(&self) -> &'static str {
        match self {
            SloKind::Privacy => "slo.privacy.burn",
            SloKind::Latency => "slo.latency.burn",
            SloKind::Membership => "slo.membership.burn",
        }
    }
}

/// One burn-rate alert: a window that overspent its error budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Which SLO burned.
    pub(crate) kind: SloKind,
    /// Window start on the simulated clock.
    pub(crate) window_start: SimTime,
    /// Window end (the alert's timestamp).
    pub(crate) window_end: SimTime,
    /// Bad events in the window (violating answers, refuted suspicions), or
    /// the observed p99 in nanoseconds for latency alerts.
    pub(crate) bad: u64,
    /// Total events in the window (answered queries, suspicions raised), or
    /// the p99 budget in nanoseconds for latency alerts.
    pub(crate) total: u64,
    /// Burn rate: observed error rate divided by the budget (≥ 1 when the
    /// alert fires).
    pub(crate) burn: f64,
}

impl SloAlert {
    /// Render the alert as a closed-schema trace event, stamped at the
    /// window's end with the engine pseudo-actor.
    pub(crate) fn to_event(&self) -> TraceEvent {
        let event = TraceEvent::new(self.window_end, ACTOR_ENGINE, self.kind.event_name())
            .attr("window_start_ns", self.window_start.as_nanos());
        let event = match self.kind {
            SloKind::Latency => event.attr("p99_ns", self.bad).attr("budget_ns", self.total),
            _ => event.attr("bad", self.bad).attr("total", self.total),
        };
        event.attr("burn", self.burn)
    }
}

/// Summary of a full monitoring pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Answered queries observed.
    pub answered: u64,
    /// Answered queries whose `achieved_k` fell below `assessed_k`.
    pub privacy_violations: u64,
    /// Suspicions raised by the membership layer.
    pub suspicions: u64,
    /// Suspicions later refuted (false suspicions).
    pub false_suspicions: u64,
    /// All burn alerts, in timeline order.
    pub alerts: Vec<SloAlert>,
}

impl SloReport {
    /// Count alerts of one kind.
    pub fn alert_count(&self, kind: SloKind) -> usize {
        self.alerts
            .iter()
            .filter(|alert| alert.kind == kind)
            .count()
    }

    /// Deterministic JSON rendering of the report.
    pub fn to_json(&self) -> Json {
        let alerts = self
            .alerts
            .iter()
            .map(|alert| {
                Json::Obj(vec![
                    (
                        "name".to_string(),
                        Json::Str(alert.kind.event_name().to_string()),
                    ),
                    (
                        "window_start_ns".to_string(),
                        Json::U64(alert.window_start.as_nanos()),
                    ),
                    (
                        "window_end_ns".to_string(),
                        Json::U64(alert.window_end.as_nanos()),
                    ),
                    ("bad".to_string(), Json::U64(alert.bad)),
                    ("total".to_string(), Json::U64(alert.total)),
                    ("burn".to_string(), Json::F64(alert.burn)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("answered".to_string(), Json::U64(self.answered)),
            (
                "privacy_violations".to_string(),
                Json::U64(self.privacy_violations),
            ),
            ("suspicions".to_string(), Json::U64(self.suspicions)),
            (
                "false_suspicions".to_string(),
                Json::U64(self.false_suspicions),
            ),
            ("alerts".to_string(), Json::Arr(alerts)),
        ])
    }
}

/// Per-window accumulation state.
#[derive(Debug, Default)]
struct WindowState {
    answered: u64,
    privacy_violations: u64,
    latency: QuantileSketch,
    suspicions: u64,
    refutes: u64,
}

/// Streaming SLO monitor. Feed the merged timeline in order via
/// `SloMonitor::observe` (or [`SloMonitor::observe_event`]), then call
/// [`SloMonitor::finish`] to close the last window and collect the report.
#[derive(Debug)]
pub struct SloMonitor {
    config: SloConfig,
    window_index: u64,
    state: WindowState,
    report: SloReport,
}

impl SloMonitor {
    /// Create a monitor with the given targets.
    pub fn new(config: SloConfig) -> Self {
        assert!(config.window.as_nanos() > 0, "SLO window must be non-zero");
        assert!(
            config.privacy_budget > 0.0,
            "privacy budget must be positive"
        );
        assert!(
            config.suspicion_budget > 0.0,
            "suspicion budget must be positive"
        );
        Self {
            config,
            window_index: 0,
            state: WindowState::default(),
            report: SloReport::default(),
        }
    }

    /// Observe one timeline record. Records must arrive in non-decreasing
    /// `at` order (the merged-timeline invariant).
    pub(crate) fn observe(&mut self, record: &TraceRecord) {
        self.advance_to(record.at);
        match record.name.as_str() {
            "query.answered" => {
                self.state.answered += 1;
                self.report.answered += 1;
                if let Some(dur) = record.dur {
                    self.state.latency.record(dur.as_nanos());
                }
                if let (Some(achieved), Some(assessed)) =
                    (record.attr_u64("achieved_k"), record.attr_u64("assessed_k"))
                {
                    if achieved < assessed {
                        self.state.privacy_violations += 1;
                        self.report.privacy_violations += 1;
                    }
                }
            }
            "mship.suspect" => {
                self.state.suspicions += 1;
                self.report.suspicions += 1;
            }
            "mship.refute" => {
                self.state.refutes += 1;
                self.report.false_suspicions += 1;
            }
            _ => {}
        }
    }

    /// Observe an in-memory trace event.
    pub fn observe_event(&mut self, event: &TraceEvent) {
        self.observe(&TraceRecord::from_event(event));
    }

    /// Close the current window and every later window up to `at`.
    fn advance_to(&mut self, at: SimTime) {
        let target = at.as_nanos() / self.config.window.as_nanos();
        while self.window_index < target {
            self.close_window();
            self.window_index += 1;
        }
    }

    /// Evaluate the current window's budgets and emit alerts.
    fn close_window(&mut self) {
        let window_ns = self.config.window.as_nanos();
        let window_start = SimTime::from_nanos(self.window_index * window_ns);
        let window_end = SimTime::from_nanos((self.window_index + 1) * window_ns);
        let state = std::mem::take(&mut self.state);
        if state.answered > 0 {
            let rate = state.privacy_violations as f64 / state.answered as f64;
            let burn = rate / self.config.privacy_budget;
            if burn >= 1.0 {
                self.report.alerts.push(SloAlert {
                    kind: SloKind::Privacy,
                    window_start,
                    window_end,
                    bad: state.privacy_violations,
                    total: state.answered,
                    burn,
                });
            }
            let p99 = state.latency.quantile(0.99);
            let budget = self.config.latency_p99_budget.as_nanos();
            let burn = p99 as f64 / budget as f64;
            if burn >= 1.0 {
                self.report.alerts.push(SloAlert {
                    kind: SloKind::Latency,
                    window_start,
                    window_end,
                    bad: p99,
                    total: budget,
                    burn,
                });
            }
        }
        if state.suspicions > 0 {
            let rate = state.refutes as f64 / state.suspicions as f64;
            let burn = rate / self.config.suspicion_budget;
            if burn >= 1.0 {
                self.report.alerts.push(SloAlert {
                    kind: SloKind::Membership,
                    window_start,
                    window_end,
                    bad: state.refutes,
                    total: state.suspicions,
                    burn,
                });
            }
        }
    }

    /// Close the final window and return the report.
    pub fn finish(mut self) -> SloReport {
        self.close_window();
        self.report
    }
}

/// Run a full monitoring pass over a timeline in `(at, actor)` order, the
/// order `TraceSink::events` returns and the exporters write.
pub fn evaluate(records: &[TraceRecord], config: SloConfig) -> SloReport {
    let mut monitor = SloMonitor::new(config);
    for record in records {
        monitor.observe(record);
    }
    monitor.finish()
}

/// Merge burn alerts into a timeline of trace events, preserving the
/// `(at, actor)` sort invariant the exporters rely on. Alerts are stamped at
/// window ends, which generally lie *before* the last experiment event, so
/// they cannot simply be appended; a stable sort keeps the relative order of
/// the original events (and of the alerts) unchanged.
pub fn merge_alerts(events: &[TraceEvent], alerts: &[SloAlert]) -> Vec<TraceEvent> {
    let mut merged: Vec<TraceEvent> = events.to_vec();
    merged.extend(alerts.iter().map(SloAlert::to_event));
    merged.sort_by_key(|event| (event.at, event.actor));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(at_ns: u64, dur_ns: u64, achieved: u64, assessed: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            actor: Some(1),
            name: "query.answered".to_string(),
            query: Some(0),
            dur: Some(SimTime::from_nanos(dur_ns)),
            attrs: vec![
                ("achieved_k".to_string(), Json::U64(achieved)),
                ("assessed_k".to_string(), Json::U64(assessed)),
            ],
        }
    }

    fn mship(at_ns: u64, name: &str) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            actor: Some(2),
            name: name.to_string(),
            query: None,
            dur: None,
            attrs: Vec::new(),
        }
    }

    fn config() -> SloConfig {
        SloConfig {
            window: SimTime::from_secs(1),
            privacy_budget: 0.001,
            latency_p99_budget: SimTime::from_secs(1),
            suspicion_budget: 0.05,
        }
    }

    #[test]
    fn clean_window_emits_no_alerts() {
        let records = vec![
            answered(100_000_000, 400_000_000, 4, 4),
            answered(500_000_000, 300_000_000, 4, 4),
        ];
        let report = evaluate(&records, config());
        assert_eq!(report.answered, 2);
        assert_eq!(report.privacy_violations, 0);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn privacy_violation_fires_burn_alert() {
        let records = vec![answered(100_000_000, 400_000_000, 2, 4)];
        let report = evaluate(&records, config());
        assert_eq!(report.privacy_violations, 1);
        assert_eq!(report.alert_count(SloKind::Privacy), 1);
        let alert = &report.alerts[0];
        assert_eq!(alert.bad, 1);
        assert_eq!(alert.total, 1);
        assert!(alert.burn >= 1.0);
        assert_eq!(alert.window_end, SimTime::from_secs(1));
    }

    #[test]
    fn latency_budget_overrun_fires() {
        let records = vec![answered(2_500_000_000, 2_000_000_000, 4, 4)];
        let report = evaluate(&records, config());
        assert_eq!(report.alert_count(SloKind::Latency), 1);
    }

    #[test]
    fn false_suspicions_fire_membership_alert() {
        let records = vec![mship(100, "mship.suspect"), mship(200, "mship.refute")];
        let report = evaluate(&records, config());
        assert_eq!(report.suspicions, 1);
        assert_eq!(report.false_suspicions, 1);
        assert_eq!(report.alert_count(SloKind::Membership), 1);
    }

    #[test]
    fn alerts_land_in_their_own_window() {
        // Violation in window 0, clean answer in window 2: exactly one
        // privacy alert, stamped at the end of window 0.
        let records = vec![
            answered(100_000_000, 100_000_000, 1, 4),
            answered(2_100_000_000, 100_000_000, 4, 4),
        ];
        let report = evaluate(&records, config());
        assert_eq!(report.alert_count(SloKind::Privacy), 1);
        assert_eq!(report.alerts[0].window_end, SimTime::from_secs(1));
    }

    #[test]
    fn merge_alerts_preserves_sort_invariant() {
        let events = vec![
            TraceEvent::new(SimTime::from_millis(1), 2, "query.launch").query(0),
            TraceEvent::new(SimTime::from_secs(5), 2, "query.answered").query(0),
        ];
        let alerts = vec![SloAlert {
            kind: SloKind::Privacy,
            window_start: SimTime::from_secs(0),
            window_end: SimTime::from_secs(1),
            bad: 1,
            total: 1,
            burn: 1000.0,
        }];
        let merged = merge_alerts(&events, &alerts);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[1].name, "slo.privacy.burn");
        for pair in merged.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }
}
