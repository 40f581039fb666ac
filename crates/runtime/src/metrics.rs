//! Lightweight, thread-safe metrics: counters, gauges and log-linear
//! latency histograms with percentile export.
//!
//! Every handle is a cheap [`Arc`]-backed clone, so the same counter can be
//! incremented from node behaviours running on different shards of the
//! parallel engine without contention beyond an atomic add. Histograms use
//! log-linear bucketing (32 linear sub-buckets per power of two, ≤ 3.2 %
//! relative error), the classic HDR layout, so recording is a single atomic
//! increment and p50/p95/p99 export is exact to bucket resolution.
//!
//! Metrics are observability, not simulation state: recording never draws
//! randomness and never feeds back into scheduling, so instrumented runs
//! remain bit-identical to uninstrumented ones.

use cyclosa_net::time::SimTime;
use cyclosa_telemetry::sketch::{bucket_index, bucket_low, QuantileSketch, BUCKETS};
use cyclosa_util::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a free-standing counter (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

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

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a free-standing gauge (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-linear histogram of `u64` samples (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a free-standing histogram (not attached to a registry).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Self {
            core: Arc::new(HistogramCore {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let core = &self.core;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a simulated duration in nanoseconds.
    pub fn record_time(&self, t: SimTime) {
        self.record(t.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Converts the histogram's dense atomic buckets into a mergeable
    /// [`QuantileSketch`]. The sketch shares the exact bucket layout, so
    /// recording each bucket's low value `count` times lands in the same
    /// bucket index: quantiles of the sketch equal quantiles of the
    /// histogram exactly (the sketch's `sum`/`min`/`max` are to bucket
    /// resolution, not exact). This is how per-shard histograms roll up:
    /// sketch each, merge associatively, query once.
    pub fn sketch(&self) -> QuantileSketch {
        let mut sketch = QuantileSketch::new();
        for (i, bucket) in self.core.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                sketch.record_n(bucket_low(i), count);
            }
        }
        sketch
    }

    /// A consistent point-in-time summary of the histogram. Percentiles
    /// are computed from one sketch conversion.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sketch = self.sketch();
        HistogramSnapshot {
            count,
            sum: self.core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.core.min.load(Ordering::Relaxed)
            },
            max: self.core.max.load(Ordering::Relaxed),
            p50: sketch.quantile(0.50),
            p95: sketch.quantile(0.95),
            p99: sketch.quantile(0.99),
        }
    }
}

/// A point-in-time summary of a [`Histogram`] (all values in the recorded
/// unit, conventionally nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median, to bucket resolution.
    pub p50: u64,
    /// 95th percentile, to bucket resolution.
    pub p95: u64,
    /// 99th percentile, to bucket resolution.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_owned(), Json::U64(self.count)),
            ("sum".to_owned(), Json::U64(self.sum)),
            ("min".to_owned(), Json::U64(self.min)),
            ("max".to_owned(), Json::U64(self.max)),
            ("mean".to_owned(), Json::F64(self.mean())),
            ("p50".to_owned(), Json::U64(self.p50)),
            ("p95".to_owned(), Json::U64(self.p95)),
            ("p99".to_owned(), Json::U64(self.p99)),
        ])
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} p50={} p95={} p99={} min={} max={}",
            self.count,
            format_ns(self.p50),
            format_ns(self.p95),
            format_ns(self.p99),
            format_ns(self.min),
            format_ns(self.max),
        )
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
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

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        inner.gauges.entry(name.to_owned()).or_default().clone()
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
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        let object = |fields: Vec<(String, Json)>| Json::Obj(fields);
        Json::Obj(vec![
            (
                "counters".to_owned(),
                object(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::U64(*value)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                object(
                    self.gauges
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::I64(*value)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                object(
                    self.histograms
                        .iter()
                        .map(|(name, snapshot)| (name.clone(), snapshot.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name:<40} {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "{name:<40} {value}")?;
        }
        for (name, snapshot) in &self.histograms {
            writeln!(f, "{name:<40} {snapshot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_covers_u64() {
        let mut last = None;
        for value in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "index {index} out of range for {value}");
            assert!(bucket_low(index) <= value);
            if let Some((prev_value, prev_index)) = last {
                assert!(index >= prev_index, "{value} < {prev_value:?} bucket order");
            }
            last = Some((value, index));
        }
        // Relative error bound: the bucket low is within 1/32 of the value.
        for value in [100u64, 12_345, 999_999_999, 7_777_777_777] {
            let low = bucket_low(bucket_index(value));
            assert!((value - low) as f64 / value as f64 <= 1.0 / 32.0 + 1e-12);
        }
    }

    #[test]
    fn histogram_percentiles_match_uniform_data() {
        let histogram = Histogram::new();
        for value in 1..=10_000u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 10_000);
        assert_eq!(snapshot.min, 1);
        assert_eq!(snapshot.max, 10_000);
        let relative = |observed: u64, expected: f64| (observed as f64 - expected).abs() / expected;
        assert!(
            relative(snapshot.p50, 5_000.0) < 0.05,
            "p50 = {}",
            snapshot.p50
        );
        assert!(
            relative(snapshot.p95, 9_500.0) < 0.05,
            "p95 = {}",
            snapshot.p95
        );
        assert!(
            relative(snapshot.p99, 9_900.0) < 0.05,
            "p99 = {}",
            snapshot.p99
        );
        assert!((snapshot.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let histogram = Histogram::new();
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 0);
        assert_eq!(snapshot.p50, 0);
        assert_eq!(snapshot.min, 0);
    }

    #[test]
    fn counters_and_gauges_are_shared_through_the_registry() {
        let registry = Registry::new();
        let a = registry.counter("relay.forwarded");
        let b = registry.counter("relay.forwarded");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("relay.forwarded").get(), 3);
        let gauge = registry.gauge("queue.depth");
        gauge.set(5);
        gauge.add(-2);
        assert_eq!(registry.gauge("queue.depth").get(), 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let histogram = Histogram::new();
        let counter = Counter::new();
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
    fn snapshot_is_sorted_and_displays() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").inc();
        registry
            .histogram("latency")
            .record_time(SimTime::from_millis(500));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters[0].0, "alpha");
        assert_eq!(snapshot.counters[1].0, "zeta");
        assert_eq!(snapshot.histograms[0].1.count, 1);
        let text = snapshot.to_string();
        assert!(text.contains("alpha"));
        assert!(text.contains("latency"));
    }

    #[test]
    fn snapshot_exports_as_json() {
        let registry = Registry::new();
        registry.counter("queries.clamped").add(2);
        registry.gauge("depth").set(-1);
        registry.histogram("latency_ns").record(1_000);
        let json = registry.snapshot().to_json().pretty();
        assert!(json.contains("\"queries.clamped\": 2"));
        assert!(json.contains("\"depth\": -1"));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"mean\":"));
    }

    /// Seeded property test: per-shard histograms sketched and merged in
    /// any grouping are bit-identical to the sketch of one histogram that
    /// saw every sample — and their quantiles match the histogram's own.
    #[test]
    fn sketch_merge_is_associative_and_shard_identical() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let samples: Vec<u64> = (0..4_000).map(|_| next() % 5_000_000_000).collect();
        let global = Histogram::new();
        for &s in &samples {
            global.record(s);
        }
        for shards in [1usize, 2, 4, 8] {
            // Round-robin the sample stream over per-shard histograms, the
            // way per-shard metrics see an interleaved workload.
            let per_shard: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
            for (i, &s) in samples.iter().enumerate() {
                per_shard[i % shards].record(s);
            }
            // Left fold and reverse fold of the per-shard sketches.
            let mut forward = QuantileSketch::new();
            for h in &per_shard {
                forward.merge(&h.sketch());
            }
            let mut backward = QuantileSketch::new();
            for h in per_shard.iter().rev() {
                backward.merge(&h.sketch());
            }
            assert_eq!(
                forward, backward,
                "{shards} shards: merge order changed the sketch"
            );
            assert_eq!(
                forward,
                global.sketch(),
                "{shards} shards: rollup diverged from global"
            );
            assert_eq!(
                forward.to_json().pretty(),
                global.sketch().to_json().pretty(),
                "{shards} shards: serialized bytes diverged"
            );
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(forward.quantile(q), global.sketch().quantile(q));
            }
        }
    }

    #[test]
    fn record_secs_rounds_to_nanoseconds() {
        let histogram = Histogram::new();
        histogram.record_time(SimTime::from_millis(500));
        assert_eq!(histogram.count(), 1);
        assert_eq!(histogram.snapshot().max, 500_000_000);
    }
}
