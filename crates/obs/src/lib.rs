//! Process-wide, lock-free service metrics: atomic counters, gauges and
//! log₂-bucketed latency histograms, registered once by static name and
//! snapshot-able at any time without stopping writers.
//!
//! The registry hands out `&'static` handles (the backing storage is
//! leaked on first registration), so instrumented hot paths pay exactly
//! one relaxed atomic RMW per update — no locks, no allocation, no
//! branching on whether anyone is scraping. The registry's mutex is
//! taken only at registration time and when building a [`Snapshot`].
//!
//! A [`Snapshot`] is what the daemon's `metrics` request replies with,
//! and [`log`] provides the structured JSONL event log with per-request
//! trace ids used by the daemon.

pub mod log;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotonically non-decreasing event count. All updates saturate so a
/// counter can never wrap, no matter the daemon uptime.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_update never fails with an always-Some closure; the CAS
        // loop only matters within one contended cache line.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(n)));
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (in-flight requests, open connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets. Bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i < BUCKETS-1) holds values in `[2^(i-1), 2^i)`, and the last
/// bucket is the overflow (`+Inf`) bucket. 40 buckets cover ~2^38 —
/// about 76 hours when observations are microseconds.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Lock-free log₂-bucketed histogram, backed by atomics so concurrent
/// writers never block a snapshot reader.
///
/// The observation count is derived from the bucket array at snapshot
/// time (never stored separately), so a snapshot can lag individual
/// writers but can never show a count with no matching bucket — there
/// are no torn count/bucket pairs to observe.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `value`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (the `le` of a `metrics`
    /// reply's bucket pairs); `u64::MAX` for the overflow bucket.
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        // Bucket before sum, with Release on the sum: `snapshot` reads
        // in the reverse order (sum first, Acquire), so any observation
        // a snapshot's sum includes already has its bucket increment
        // visible — the sum can lag the count but never outrun it.
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Release, Ordering::Relaxed, |v| {
                Some(v.saturating_add(value))
            });
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        // Sum first — see `observe` for why the mirror order matters.
        let sum = self.sum.load(Ordering::Acquire);
        let buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().fold(0u64, |a, &b| a.saturating_add(b));
        HistogramSnapshot { buckets, count, sum }
    }
}

/// Point-in-time copy of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per log₂ bucket (see [`LogHistogram::bucket_bound`]).
    pub buckets: Vec<u64>,
    /// Total observations (sum of `buckets`).
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
}

/// A registered metric handle.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static LogHistogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

/// Process-wide metric registry. Registration is idempotent: asking for
/// the same (name, labels) again returns the existing handle, so every
/// subsystem can lazily register its own metrics without coordination.
///
/// Every registration method takes a `help` text: the metric's
/// description where it is registered, for the reader of that source. It
/// is neither stored nor reported.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b == b'_' || b.is_ascii_alphabetic() || (i > 0 && b.is_ascii_digit()))
}

impl Registry {
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        self.counter_with(name, &[], help)
    }

    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        _help: &'static str,
    ) -> &'static Counter {
        match self.register(name, labels, || Metric::Counter(Box::leak(Box::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        self.gauge_with(name, &[], help)
    }

    pub fn gauge_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        _help: &'static str,
    ) -> &'static Gauge {
        match self.register(name, labels, || Metric::Gauge(Box::leak(Box::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static LogHistogram {
        self.histogram_with(name, &[], help)
    }

    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        _help: &'static str,
    ) -> &'static LogHistogram {
        match self.register(name, labels, || Metric::Histogram(Box::leak(Box::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    fn register(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return e.metric;
        }
        let metric = make();
        entries.push(Entry {
            name,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            metric,
        });
        metric
    }

    /// Consistent point-in-time read of every registered metric, sorted
    /// by (name, labels) so families come out contiguous.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<SnapshotEntry> = entries
            .iter()
            .map(|e| SnapshotEntry {
                name: e.name.to_string(),
                labels: e
                    .labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match e.metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries: out }
    }
}

/// One metric (one label combination) at snapshot time.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: SnapshotValue,
}

#[derive(Debug, Clone)]
pub enum SnapshotValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

impl SnapshotValue {
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotValue::Counter(_) => "counter",
            SnapshotValue::Gauge(_) => "gauge",
            SnapshotValue::Histogram(_) => "histogram",
        }
    }
}

/// Point-in-time view of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub entries: Vec<SnapshotEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_levels() {
        let g = Gauge::new();
        g.inc();
        g.add(4);
        g.dec();
        assert_eq!(g.get(), 4);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_bucket_math() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_bound(0), 0);
        assert_eq!(LogHistogram::bucket_bound(2), 3);
        assert_eq!(LogHistogram::bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_observe_counts_and_sums() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1105);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = LogHistogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let r = Registry::default();
        let a = r.counter("test_total", "help");
        let b = r.counter("test_total", "help");
        assert!(std::ptr::eq(a, b));
        let l1 = r.counter_with("test_labeled_total", &[("type", "x")], "help");
        let l2 = r.counter_with("test_labeled_total", &[("type", "y")], "help");
        assert!(!std::ptr::eq(l1, l2));
        assert!(std::ptr::eq(
            l1,
            r.counter_with("test_labeled_total", &[("type", "x")], "help")
        ));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::default();
        r.counter("test_kind", "help");
        r.gauge("test_kind", "help");
    }
}
