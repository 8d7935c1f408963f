//! Counters, gauges and log2-bucket histograms in a global registry.
//!
//! Metric names follow `<crate>.<stage>.<metric>` (e.g.
//! `device.link.frames_dropped`); span durations land in a histogram
//! named after the span. Handles are `&'static` and lock-free on the
//! hot path (one relaxed atomic op); only registration takes a mutex.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `k`
/// (1..=64) holds values in `[2^(k-1), 2^k)`.
pub const NUM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

/// A last-written f64 value (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

/// A fixed-bucket log2 histogram of `u64` samples (typically
/// nanoseconds), with p50/p95/p99 extraction.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Gauge {
    const fn new() -> Self {
        Self {
            bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    /// Stores a new value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Last stored value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`, so
/// bucket `k` covers `[2^(k-1), 2^k)`. The per-worker histograms in
/// [`crate::local`] share the exact bucket layout.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `k` (what quantiles report).
#[must_use]
pub fn bucket_upper_edge(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1_u64 << k) - 1
    }
}

impl Histogram {
    const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping in the absurd-overflow case).
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    #[inline]
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper edge of the bucket
    /// containing the rank-`ceil(q*n)` sample. Returns 0 when empty.
    ///
    /// Rank saturates into `1..=n`, so `q <= 0` reads the smallest
    /// sample's bucket and `q >= 1` the largest. A NaN `q` saturates to
    /// the *top* rank: quantiles feed SLO gates, so malformed input
    /// must fail conservative (report the max), not optimistic (the
    /// min, which a NaN-to-zero cast would silently give).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = if q.is_nan() {
            n
        } else {
            ((q * n as f64).ceil() as u64).clamp(1, n)
        };
        let mut cum = 0_u64;
        for (k, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper_edge(k).min(self.max());
            }
        }
        self.max()
    }

    /// Folds a per-worker [`crate::LocalHistogram`] into this global
    /// histogram bucket-wise — the publish half of the snapshot/merge
    /// pattern (see [`crate::local`]).
    pub fn merge_from(&self, local: &crate::LocalHistogram) {
        for (k, &b) in local.buckets().iter().enumerate() {
            if b > 0 {
                self.buckets[k].fetch_add(b, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count(), Ordering::Relaxed);
        self.sum.fetch_add(local.sum(), Ordering::Relaxed);
        self.max.fetch_max(local.max(), Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// A name already registered as another kind gets a detached handle:
// writes to it land nowhere visible instead of panicking mid-session.
static DETACHED_COUNTER: Counter = Counter::new();
static DETACHED_GAUGE: Gauge = Gauge::new();
static DETACHED_HISTOGRAM: Histogram = Histogram::new();

/// Looks up (registering on first use) the counter named `name`.
/// Prefer the caching [`crate::counter!`] macro at instrumentation
/// sites.
#[must_use]
pub fn counter_handle(name: &'static str) -> &'static Counter {
    match registry()
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
    {
        Metric::Counter(c) => c,
        _ => &DETACHED_COUNTER,
    }
}

/// Looks up (registering on first use) the gauge named `name`.
#[must_use]
pub fn gauge_handle(name: &'static str) -> &'static Gauge {
    match registry()
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
    {
        Metric::Gauge(g) => g,
        _ => &DETACHED_GAUGE,
    }
}

/// Looks up (registering on first use) the histogram named `name`.
#[must_use]
pub fn histogram_handle(name: &'static str) -> &'static Histogram {
    match registry()
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
    {
        Metric::Histogram(h) => h,
        _ => &DETACHED_HISTOGRAM,
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (bucket upper edge).
    pub p50: u64,
    /// 95th percentile (bucket upper edge).
    pub p95: u64,
    /// 99th percentile (bucket upper edge).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }
}

/// Point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, summary)` for every registered histogram.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Summary of the named histogram, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, h)| h)
    }
}

/// Snapshots every registered metric.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (&name, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name, c.get())),
            Metric::Gauge(g) => snap.gauges.push((name, g.get())),
            Metric::Histogram(h) => snap.histograms.push((
                name,
                HistogramSnapshot {
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                },
            )),
        }
    }
    snap
}

/// Zeroes every registered metric without unregistering names.
pub fn reset_values() {
    for metric in registry().values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Hand-computed: 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2;
        // 4..8 -> bucket 3; 2^k exactly opens bucket k+1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(10), 1023);
        assert_eq!(bucket_upper_edge(64), u64::MAX);
    }

    #[test]
    fn quantiles_match_hand_computed_values() {
        let _g = lock();
        // Values 1..=100. Cumulative bucket counts: b1:1, b2:3, b3:7,
        // b4:15, b5:31, b6:63, b7:100. p50 rank 50 -> bucket 6 (edge
        // 63); p95 rank 95 -> bucket 7 (edge 127, clamped to max 100);
        // p99 rank 99 -> bucket 7 likewise.
        let h = Histogram::new();
        for v in 1..=100_u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(0.50), 63);
        assert_eq!(h.quantile(0.95), 100);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1 -> bucket 1
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantile_rank_pinned_at_small_counts() {
        let _g = lock();
        // Samples of the form 2^k - 1 sit exactly on bucket upper
        // edges, so the reported value identifies the rank unambiguously.
        let s = [15_u64, 1023, 65_535];

        // count = 1: every q reads the only sample, malformed q included.
        let h = Histogram::new();
        h.record(s[0]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, -0.5, 1.5, f64::NAN] {
            assert_eq!(h.quantile(q), 15, "count=1 q={q}");
        }

        // count = 2: p50 is rank ceil(0.5*2) = 1 (lower sample — the
        // pinned median-low convention); p95/p99 rank 2.
        let h = Histogram::new();
        h.record(s[0]);
        h.record(s[1]);
        assert_eq!(h.quantile(0.50), 15);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(0.0), 15); // rank saturates up to 1
        assert_eq!(h.quantile(-0.5), 15);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(1.5), 1023); // rank saturates down to n

        // count = 3: p50 is rank ceil(1.5) = 2, the true median.
        let h = Histogram::new();
        for v in s {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 1023);
        assert_eq!(h.quantile(0.95), 65_535);
        assert_eq!(h.quantile(0.99), 65_535);

        // count = 99: p99 rank ceil(98.01) = 99 — the largest sample,
        // not rank 0 and not past the end.
        let h = Histogram::new();
        for v in 1..=99_u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 63); // rank 50 -> bucket edge 63
        assert_eq!(h.quantile(0.95), 99);
        assert_eq!(h.quantile(0.99), 99);

        // count = 100: p99 rank is exactly 99 (q*n lands on an integer,
        // ceil must not bump it to 100's bucket prematurely — both sit
        // in the top bucket here, clamped to max).
        let h = Histogram::new();
        for v in 1..=100_u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.01), 1); // rank 1 -> bucket edge 1
    }

    #[test]
    fn nan_quantile_reads_the_top_not_the_bottom() {
        let _g = lock();
        // A NaN q used to cast to rank 1 and report the fastest
        // latency — an SLO gate fed a malformed quantile would always
        // pass. It must fail conservative: report the max.
        let h = Histogram::new();
        h.record(15);
        h.record(1023);
        h.record(65_535);
        assert_eq!(h.quantile(f64::NAN), 65_535);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_round_trips_all_kinds() {
        let _g = lock();
        crate::reset();
        counter_handle("obs.test.counter").add(7);
        gauge_handle("obs.test.gauge").set(0.25);
        histogram_handle("obs.test.hist").record(5);
        let snap = snapshot();
        assert_eq!(snap.counter("obs.test.counter"), Some(7));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|(n, _)| *n == "obs.test.gauge")
                .map(|&(_, v)| v),
            Some(0.25)
        );
        let h = snap.histogram("obs.test.hist").unwrap();
        assert_eq!((h.count, h.max), (1, 5));
        // Same handle comes back; values survive re-lookup.
        assert_eq!(counter_handle("obs.test.counter").get(), 7);
        // Kind collision falls back to a detached handle instead of
        // panicking.
        let c = counter_handle("obs.test.gauge");
        c.add(1);
        assert_eq!(snapshot().counter("obs.test.counter"), Some(7));
    }

    #[test]
    fn merge_from_folds_local_histograms_bucket_wise() {
        let _g = lock();
        let h = Histogram::new();
        h.record(10);
        let mut local = crate::LocalHistogram::new();
        local.record(1000);
        local.record(3);
        h.merge_from(&local);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1013);
        assert_eq!(h.max(), 1000);
        // The merged distribution quantiles like one recorded in place.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let _g = lock();
        counter_handle("obs.test.reset").add(3);
        reset_values();
        assert_eq!(snapshot().counter("obs.test.reset"), Some(0));
    }
}
