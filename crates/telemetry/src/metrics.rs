//! Lightweight, thread-safe metrics: counters and latency histograms with
//! percentile export.
//!
//! Every handle is a cheap [`Arc`]-backed clone, so the same counter can be
//! incremented from node behaviours running on different shards of the
//! parallel engine without contention beyond an atomic add. A histogram is
//! a handle to one [`QuantileSketch`] (32 linear sub-buckets per power of
//! two, ≤ 3.2 % relative error, exact count/sum/min/max): every read path
//! is that sketch, so per-shard histograms merge associatively and
//! percentiles are exact to bucket resolution.
//!
//! Metrics are observability, not simulation state: recording never draws
//! randomness and never feeds back into scheduling, so instrumented runs
//! remain bit-identical to uninstrumented ones.

use crate::sketch::QuantileSketch;
use cyclosa_net::time::SimTime;
use cyclosa_util::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to one [`QuantileSketch`] of `u64` samples (typically
/// nanoseconds): every clone records into the same sketch.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<QuantileSketch>>);

impl Histogram {
    /// Locks the sketch, recovering a poisoned mutex the way
    /// [`Registry`] does: a record either happened or did not, so a
    /// thread that panicked while holding the lock left it intact.
    fn lock(&self) -> MutexGuard<'_, QuantileSketch> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.lock().record(value);
    }

    /// Records a simulated duration in nanoseconds.
    pub fn record_time(&self, t: SimTime) {
        self.record(t.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// A copy of the sketch at one instant. Per-shard histograms roll up
    /// by merging their sketches.
    pub fn sketch(&self) -> QuantileSketch {
        self.lock().clone()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics.
///
/// Cloning a registry clones a handle to the same underlying metrics, so a
/// registry can be handed to every subsystem of a deployment and read out
/// once at the end.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the name maps, recovering a poisoned mutex: they hold only
    /// handles, and an insert either happened or did not, so a thread
    /// that panicked while holding the lock left them intact.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        inner.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.lock();
        inner.histograms.entry(name.to_owned()).or_default().clone()
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.sketch()))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram sketches, sorted by name.
    pub histograms: Vec<(String, QuantileSketch)>,
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::U64(*value)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, sketch)| (name.clone(), sketch.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_uniform_data() {
        let histogram = Histogram::default();
        for value in 1..=10_000u64 {
            histogram.record(value);
        }
        let sketch = histogram.sketch();
        assert_eq!(sketch.count(), 10_000);
        assert_eq!(sketch.min(), 1);
        assert_eq!(sketch.max(), 10_000);
        let relative = |observed: u64, expected: f64| (observed as f64 - expected).abs() / expected;
        for (q, expected) in [(0.50, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let observed = sketch.quantile(q);
            assert!(relative(observed, expected) < 0.05, "q{q} = {observed}");
        }
        assert!((sketch.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let sketch = Histogram::default().sketch();
        assert_eq!(sketch.count(), 0);
        assert_eq!(sketch.quantile(0.5), 0);
        assert_eq!(sketch.min(), 0);
    }

    #[test]
    fn counters_are_shared_through_the_registry() {
        let registry = Registry::new();
        let a = registry.counter("relay.forwarded");
        let b = registry.counter("relay.forwarded");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("relay.forwarded").get(), 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let histogram = Histogram::default();
        let counter = Counter::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let histogram = histogram.clone();
                let counter = counter.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        histogram.record(t * 10_000 + i);
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(histogram.count(), 40_000);
        assert_eq!(counter.get(), 40_000);
    }

    /// Four threads record the constant 1 000 while a fifth takes
    /// snapshots: each snapshot is one instant, so its sum is always
    /// exactly 1 000 per sample counted.
    #[test]
    fn a_snapshot_reads_one_instant() {
        let registry = Registry::new();
        let histogram = registry.histogram("constant");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let histogram = histogram.clone();
                scope.spawn(move || (0..20_000).for_each(|_| histogram.record(1_000)));
            }
            scope.spawn(|| {
                for _ in 0..2_000 {
                    let snapshot = registry.snapshot();
                    let sketch = &snapshot.histograms[0].1;
                    assert_eq!(sketch.sum(), 1_000 * sketch.count());
                }
            });
        });
        assert_eq!(histogram.sketch().sum(), 80_000_000);
    }

    #[test]
    fn a_registry_poisoned_by_a_panicking_thread_keeps_working() {
        let registry = Registry::new();
        registry.counter("before").add(4);
        let poisoner = registry.clone();
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.lock();
            panic!("dies holding the registry lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(registry.inner.is_poisoned());
        registry.counter("after").inc();
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counters,
            [("after".to_owned(), 1), ("before".to_owned(), 4)]
        );
    }

    #[test]
    fn a_histogram_poisoned_by_a_panicking_thread_keeps_recording() {
        let histogram = Histogram::default();
        histogram.record(7);
        let poisoner = histogram.clone();
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.lock();
            panic!("dies holding the sketch lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(histogram.0.is_poisoned());
        histogram.record(9);
        assert_eq!(histogram.sketch().sum(), 16);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").inc();
        registry.histogram("latency").record(1);
        registry.histogram("barrier").record(2);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters[0].0, "alpha");
        assert_eq!(snapshot.counters[1].0, "zeta");
        assert_eq!(snapshot.histograms[0].0, "barrier");
        assert_eq!(snapshot.histograms[1].1.count(), 1);
    }

    #[test]
    fn snapshot_exports_as_json() {
        let registry = Registry::new();
        registry.counter("queries.clamped").add(2);
        registry.histogram("latency_ns").record(1_000);
        let json = registry.snapshot().to_json().pretty();
        assert!(json.contains("\"queries.clamped\": 2"));
        assert!(json.contains("\"latency_ns\""));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"mean\":"));
        assert!(!json.contains("gauges"));
    }

    /// Pins what a histogram fed from 4 threads reports for a seeded
    /// sample set: exact count, sum, min, max and mean, and the bucket-low
    /// p50 / p99 under the `ceil(q · count)` rank rule.
    #[test]
    fn four_thread_recording_reports_pinned_values() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let samples: Vec<u64> = (0..4_000).map(|_| next() % 5_000_000_000).collect();
        let histogram = Histogram::default();
        std::thread::scope(|scope| {
            for part in samples.chunks(1_000) {
                let histogram = histogram.clone();
                scope.spawn(move || part.iter().for_each(|&s| histogram.record(s)));
            }
        });
        let sketch = histogram.sketch();
        assert_eq!(sketch.count(), 4_000);
        assert_eq!(sketch.sum(), 10_099_462_230_736);
        assert_eq!(sketch.min(), 903_606);
        assert_eq!(sketch.max(), 4_999_203_071);
        assert_eq!(sketch.mean(), 2_524_865_557.684);
        assert_eq!(sketch.quantile(0.50), 2_550_136_832);
        assert_eq!(sketch.quantile(0.99), 4_831_838_208);
    }

    #[test]
    fn record_secs_rounds_to_nanoseconds() {
        let histogram = Histogram::default();
        histogram.record_time(SimTime::from_millis(500));
        assert_eq!(histogram.count(), 1);
        assert_eq!(histogram.sketch().max(), 500_000_000);
    }
}
