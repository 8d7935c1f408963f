//! Per-worker metrics registries with snapshot merge.
//!
//! The global registry in [`crate::metrics`] is a set of shared
//! atomics: correct, but every worker's hot path hammers the same
//! cache lines, and per-worker / per-shard breakdowns are impossible
//! once counts are folded together. A [`MetricsLocal`] is the
//! contention-free alternative: each worker owns one outright (no
//! atomics, no locks, plain integers), records into it for the whole
//! serve region, and hands it back when the region drains. The
//! scheduler then merges the locals — counters sum, histograms merge
//! bucket-wise — into one [`MetricsLocal`] for reporting, and
//! publishes a known subset into the global registry so existing
//! handles keep observing fleet totals.
//!
//! Unlike the global registry, names here are owned strings, so
//! dynamic names (`server.shard.07.latency_ns`) are fine: locals are
//! dropped with the serve region, so there is no leaked-interning
//! concern.

use std::collections::BTreeMap;

use crate::metrics::{bucket_index, bucket_upper_edge, HistogramSnapshot, NUM_BUCKETS};

/// A single-owner log₂ histogram with the exact bucket layout and
/// quantile convention of the global [`crate::metrics::Histogram`],
/// minus the atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`: buckets add element-wise, counts and
    /// sums add, max takes the larger.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts (for bucket-wise merges into the global
    /// registry).
    #[must_use]
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile, `q` in `[0, 1]`, same convention as the
    /// global histogram: rank `ceil(q·n)` clamped to `[1, n]` (a NaN
    /// `q` lands on the top rank), answered as the upper edge of the
    /// rank's bucket, clamped to the observed max. Returns 0 when
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = if q.is_nan() {
            // Fail conservative, exactly like the global histogram: a
            // malformed quantile reads the max, never the min.
            self.count
        } else {
            ((q * self.count as f64).ceil() as u64).clamp(1, self.count)
        };
        let mut seen = 0_u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_edge(k).min(self.max);
            }
        }
        self.max
    }

    /// A point-in-time summary in the same shape the global registry
    /// snapshots to.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A single-owner registry of counters and histograms, merged after
/// the fact instead of contended during.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsLocal {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LocalHistogram>,
}

impl MetricsLocal {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter (allocates the name only on first
    /// touch).
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Adds 1 to the named counter.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Records one observation into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = LocalHistogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named counter's value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was recorded into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LocalHistogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters sum, histograms merge
    /// bucket-wise.
    pub fn merge(&mut self, other: &MetricsLocal) {
        for (name, v) in &other.counters {
            if let Some(mine) = self.counters.get_mut(name) {
                *mine += v;
            } else {
                self.counters.insert(name.clone(), *v);
            }
        }
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(h);
            } else {
                self.histograms.insert(name.clone(), h.clone());
            }
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LocalHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_histogram_matches_global_conventions() {
        let mut h = LocalHistogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram answers 0");
        for v in [0_u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // Rank math: p50 of 6 observations is rank 3, which falls in
        // the bucket covering {2, 3} — quantiles answer its upper edge.
        assert_eq!(h.quantile(0.50), 3);
        // Top quantiles clamp to the observed max, not the bucket edge.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(f64::NAN), 1000, "NaN lands on the top rank");
        assert_eq!(h.quantile(-1.0), h.quantile(0.0), "rank clamps to 1");
    }

    #[test]
    fn merge_is_exact_not_approximate() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        let mut whole = LocalHistogram::new();
        for v in 0..50_u64 {
            a.record(v * 7);
            whole.record(v * 7);
        }
        for v in 0..30_u64 {
            b.record(v * 1000);
            whole.record(v * 1000);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge == having recorded everything in one");
        assert_eq!(a.snapshot(), whole.snapshot());
    }

    #[test]
    fn metrics_local_counters_and_merge() {
        let mut w0 = MetricsLocal::new();
        let mut w1 = MetricsLocal::new();
        w0.incr("accepts");
        w0.add("accepts", 2);
        w0.record("latency", 10);
        w1.incr("accepts");
        w1.incr("sheds");
        w1.record("latency", 1000);
        w1.record("slow", 9999);

        let mut merged = MetricsLocal::new();
        merged.merge(&w0);
        merged.merge(&w1);
        assert_eq!(merged.counter("accepts"), 4);
        assert_eq!(merged.counter("sheds"), 1);
        assert_eq!(merged.counter("never"), 0);
        let lat = merged.histogram("latency").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.max(), 1000);
        assert_eq!(merged.histogram("slow").unwrap().count(), 1);
        assert!(merged.histogram("absent").is_none());
        assert_eq!(merged.counters().count(), 2);
        assert_eq!(merged.histograms().count(), 2);
    }
}
