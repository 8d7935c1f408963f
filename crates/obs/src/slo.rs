//! Rolling-window SLO / error-budget tracking.
//!
//! A [`SloTracker`] watches a stream of `(latency, error?)` outcomes —
//! the scheduler feeds it one sample per served session — through a
//! ring of 1-second buckets. Two windows are read off the same ring:
//!
//! * the **slow window** (default 60 s) answers "is the p99 within the
//!   objective, and what fraction of the error budget is the current
//!   error rate burning?";
//! * the **fast window** (default 5 s) answers "is it burning *right
//!   now*?".
//!
//! The alert condition is the standard multi-window burn-rate rule: it
//! fires only when **both** windows exceed their burn thresholds, so a
//! single bad second cannot page (the slow window vetoes it) and a
//! long-recovered incident cannot page (the fast window vetoes it).
//! Burn rate is `observed error rate / error budget` — 1.0 means the
//! budget is being consumed exactly as provisioned.
//!
//! Buckets are invalidated lazily by second-stamp, so an idle tracker
//! costs nothing and a burst after a quiet hour does not read stale
//! data. Reports export as text and as the standard `p2auth.obs.v1`
//! JSON document (SLO figures ride in gauges/counters/histograms, so
//! the schema is unchanged).

use std::sync::Mutex;

use crate::local::LocalHistogram;
use crate::report::{self, Report};

/// Objectives and window shape for one tracked SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// p99 latency objective in nanoseconds.
    pub p99_objective_ns: u64,
    /// Fraction of sessions allowed to fail (shed or abort) over the
    /// slow window.
    pub error_budget: f64,
    /// Slow-window length in seconds; also the ring size.
    pub window_s: u64,
    /// Fast-window length in seconds (clamped to the slow window).
    pub fast_window_s: u64,
    /// Fast-window burn-rate threshold for the alert.
    pub fast_burn_threshold: f64,
    /// Slow-window burn-rate threshold for the alert.
    pub slow_burn_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            p99_objective_ns: 500_000_000, // 500 ms
            error_budget: 0.01,
            window_s: 60,
            fast_window_s: 5,
            // The classic page-worthy pairing: the budget is burning
            // 14x too fast and has been for the whole fast window,
            // while the slow window confirms it is not a blip.
            fast_burn_threshold: 14.0,
            slow_burn_threshold: 1.0,
        }
    }
}

/// One second of outcomes.
#[derive(Debug, Clone)]
struct Bucket {
    /// Which wall-second this bucket currently holds; `u64::MAX` marks
    /// a never-written bucket.
    second: u64,
    total: u64,
    errors: u64,
    latency: LocalHistogram,
}

impl Bucket {
    fn empty() -> Self {
        Self {
            second: u64::MAX,
            total: 0,
            errors: 0,
            latency: LocalHistogram::new(),
        }
    }
}

#[derive(Debug)]
struct Ring {
    buckets: Vec<Bucket>,
    /// Highest second ever recorded (drives [`SloTracker::report`]).
    last_second: u64,
}

/// Rolling-window latency / error-rate tracker with burn-rate alerts.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    ring: Mutex<Ring>,
}

/// Point-in-time evaluation of the tracked SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The configuration the report was evaluated against.
    pub cfg: SloConfig,
    /// The second the windows end at.
    pub now_s: u64,
    /// Sessions in the slow window.
    pub total: u64,
    /// Errors (shed or aborted sessions) in the slow window.
    pub errors: u64,
    /// `errors / total` over the slow window (0 when idle).
    pub error_rate: f64,
    /// Slow-window latency quantiles (bucket upper edges).
    pub p50_ns: u64,
    /// 95th percentile over the slow window.
    pub p95_ns: u64,
    /// 99th percentile over the slow window.
    pub p99_ns: u64,
    /// Largest latency in the slow window.
    pub max_ns: u64,
    /// Sessions in the fast window.
    pub fast_total: u64,
    /// Errors in the fast window.
    pub fast_errors: u64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Whether the slow-window p99 meets the objective.
    pub p99_ok: bool,
    /// Whether both burn thresholds are exceeded (page-worthy).
    pub alert: bool,
}

impl SloTracker {
    /// A tracker with `cfg` (windows clamped to ≥ 1 s, fast ≤ slow).
    #[must_use]
    pub fn new(cfg: SloConfig) -> Self {
        let window_s = cfg.window_s.max(1);
        let cfg = SloConfig {
            window_s,
            fast_window_s: cfg.fast_window_s.clamp(1, window_s),
            ..cfg
        };
        #[allow(clippy::cast_possible_truncation)]
        let len = window_s as usize;
        Self {
            cfg,
            ring: Mutex::new(Ring {
                buckets: vec![Bucket::empty(); len],
                last_second: 0,
            }),
        }
    }

    /// The tracker's configuration (after clamping).
    #[must_use]
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Records one session outcome stamped with the current wall
    /// clock.
    pub fn record(&self, latency_ns: u64, error: bool) {
        self.record_at(crate::now_ns() / 1_000_000_000, latency_ns, error);
    }

    /// Records one session outcome at an explicit second (the
    /// deterministic entry point tests and replays use).
    ///
    /// A record older than the second its ring slot already holds is
    /// dropped: it is at least a full window older than data already
    /// recorded, so no window containing that data can contain it, and
    /// replacing the slot would erase the newer second.
    pub fn record_at(&self, second: u64, latency_ns: u64, error: bool) {
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        #[allow(clippy::cast_possible_truncation)]
        let idx = (second % self.cfg.window_s) as usize;
        let bucket = &mut ring.buckets[idx];
        if bucket.second != u64::MAX && second < bucket.second {
            return;
        }
        if bucket.second != second {
            *bucket = Bucket::empty();
            bucket.second = second;
        }
        bucket.total += 1;
        if error {
            bucket.errors += 1;
        }
        bucket.latency.record(latency_ns);
        ring.last_second = ring.last_second.max(second);
    }

    /// Evaluates the SLO with windows ending at the last recorded
    /// second.
    #[must_use]
    pub fn report(&self) -> SloReport {
        let last = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .last_second;
        self.report_at(last)
    }

    /// Evaluates the SLO with windows ending at `now_s` inclusive.
    #[must_use]
    pub fn report_at(&self, now_s: u64) -> SloReport {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let in_window =
            |second: u64, len: u64| second != u64::MAX && second <= now_s && now_s - second < len;
        let mut total = 0_u64;
        let mut errors = 0_u64;
        let mut latency = LocalHistogram::new();
        let mut fast_total = 0_u64;
        let mut fast_errors = 0_u64;
        for b in &ring.buckets {
            if in_window(b.second, self.cfg.window_s) {
                total += b.total;
                errors += b.errors;
                latency.merge(&b.latency);
            }
            if in_window(b.second, self.cfg.fast_window_s) {
                fast_total += b.total;
                fast_errors += b.errors;
            }
        }
        drop(ring);
        #[allow(clippy::cast_precision_loss)]
        let rate = |e: u64, t: u64| if t == 0 { 0.0 } else { e as f64 / t as f64 };
        let burn = |r: f64| {
            if self.cfg.error_budget > 0.0 {
                r / self.cfg.error_budget
            } else if r > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        };
        let error_rate = rate(errors, total);
        let fast_rate = rate(fast_errors, fast_total);
        let p99_ns = latency.quantile(0.99);
        let fast_burn = burn(fast_rate);
        let slow_burn = burn(error_rate);
        SloReport {
            cfg: self.cfg,
            now_s,
            total,
            errors,
            error_rate,
            p50_ns: latency.quantile(0.50),
            p95_ns: latency.quantile(0.95),
            p99_ns,
            max_ns: latency.max(),
            fast_total,
            fast_errors,
            fast_burn,
            slow_burn,
            p99_ok: p99_ns <= self.cfg.p99_objective_ns,
            alert: fast_burn >= self.cfg.fast_burn_threshold
                && slow_burn >= self.cfg.slow_burn_threshold,
        }
    }
}

impl SloReport {
    /// One-glance operator summary.
    #[must_use]
    pub fn render_text(&self) -> String {
        format!(
            "SLO[{}s]: {} sessions, {} errors ({:.2}% of budget {:.2}%) | \
             p99 {} (objective {}, {}) | burn fast {:.2}x slow {:.2}x | {}",
            self.cfg.window_s,
            self.total,
            self.errors,
            self.error_rate * 100.0,
            self.cfg.error_budget * 100.0,
            report::fmt_ns(self.p99_ns),
            report::fmt_ns(self.cfg.p99_objective_ns),
            if self.p99_ok { "ok" } else { "VIOLATED" },
            self.fast_burn,
            self.slow_burn,
            if self.alert { "ALERT" } else { "alert: none" },
        )
    }

    /// The standard `p2auth.obs.v1` JSON document with the SLO figures
    /// carried in `slo.*` gauges, counters and one histogram.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut metrics = crate::metrics::MetricsSnapshot::default();
        metrics.counters.push(("slo.window.errors", self.errors));
        metrics
            .counters
            .push(("slo.window.fast_errors", self.fast_errors));
        metrics
            .counters
            .push(("slo.window.fast_total", self.fast_total));
        metrics.counters.push(("slo.window.total", self.total));
        metrics
            .gauges
            .push(("slo.alert", if self.alert { 1.0 } else { 0.0 }));
        metrics.gauges.push(("slo.burn.fast", self.fast_burn));
        metrics.gauges.push(("slo.burn.slow", self.slow_burn));
        metrics
            .gauges
            .push(("slo.error_budget", self.cfg.error_budget));
        metrics.gauges.push(("slo.error_rate", self.error_rate));
        #[allow(clippy::cast_precision_loss)]
        metrics
            .gauges
            .push(("slo.objective.p99_ns", self.cfg.p99_objective_ns as f64));
        metrics
            .gauges
            .push(("slo.p99_ok", if self.p99_ok { 1.0 } else { 0.0 }));
        #[allow(clippy::cast_precision_loss)]
        metrics
            .gauges
            .push(("slo.window_s", self.cfg.window_s as f64));
        metrics.histograms.push((
            "slo.window.latency_ns",
            crate::metrics::HistogramSnapshot {
                count: self.total,
                sum: 0,
                max: self.max_ns,
                p50: self.p50_ns,
                p95: self.p95_ns,
                p99: self.p99_ns,
            },
        ));
        report::render_json(&Report {
            recording: crate::recording(),
            metrics,
            events: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            p99_objective_ns: 1_000,
            error_budget: 0.1,
            window_s: 10,
            fast_window_s: 2,
            fast_burn_threshold: 5.0,
            slow_burn_threshold: 1.0,
        }
    }

    #[test]
    fn windows_aggregate_only_recent_seconds() {
        let t = SloTracker::new(cfg());
        for s in 0..20_u64 {
            t.record_at(s, 100, false);
        }
        let r = t.report_at(19);
        assert_eq!(r.total, 10, "slow window holds exactly window_s seconds");
        assert_eq!(r.fast_total, 2);
        assert_eq!(r.errors, 0);
        assert!(r.p99_ok);
        assert!(!r.alert);
        // A report far in the future sees an empty window.
        let r = t.report_at(100);
        assert_eq!(r.total, 0);
        assert_eq!(r.error_rate, 0.0);
    }

    #[test]
    fn stale_buckets_are_invalidated_on_wraparound() {
        let t = SloTracker::new(cfg());
        t.record_at(3, 100, true);
        // Second 13 maps to the same ring slot as second 3; the stale
        // error must not leak into the new second's stats.
        t.record_at(13, 100, false);
        let r = t.report_at(13);
        assert_eq!(r.total, 1);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn alert_requires_both_windows_burning() {
        let t = SloTracker::new(cfg());
        // Sustained 100% errors: slow burn 10x (>1), fast burn 10x (>5).
        for s in 0..10_u64 {
            for _ in 0..4 {
                t.record_at(s, 50, true);
            }
        }
        let r = t.report_at(9);
        assert_eq!(r.errors, 40);
        assert!(r.slow_burn > 1.0 && r.fast_burn > 5.0);
        assert!(r.alert, "sustained burn must alert");

        // One bad second nine seconds ago: slow window still burning,
        // fast window clean — the fast window vetoes the page.
        let t = SloTracker::new(cfg());
        for _ in 0..40 {
            t.record_at(0, 50, true);
        }
        for s in 1..10_u64 {
            t.record_at(s, 50, false);
        }
        let r = t.report_at(9);
        assert!(r.slow_burn > 1.0, "slow window still sees the incident");
        assert_eq!(r.fast_errors, 0);
        assert!(!r.alert, "recovered incident must not alert");
    }

    #[test]
    fn p99_objective_evaluation() {
        let t = SloTracker::new(cfg());
        for _ in 0..99 {
            t.record_at(5, 100, false);
        }
        let r = t.report_at(5);
        assert!(r.p99_ok);
        for _ in 0..99 {
            t.record_at(5, 1_000_000, false);
        }
        let r = t.report_at(5);
        assert!(!r.p99_ok, "a slow majority must violate the objective");
        assert!(r.p99_ns > 1_000);
    }

    #[test]
    fn zero_budget_burns_infinite_on_any_error() {
        let t = SloTracker::new(SloConfig {
            error_budget: 0.0,
            ..cfg()
        });
        let r = t.report_at(0);
        assert_eq!(r.slow_burn, 0.0, "no traffic, no burn");
        t.record_at(0, 10, true);
        let r = t.report_at(0);
        assert!(r.slow_burn.is_infinite());
    }

    #[test]
    fn report_renders_text_and_schema_json() {
        let t = SloTracker::new(cfg());
        t.record_at(1, 500, false);
        t.record_at(1, 2_000, true);
        let r = t.report_at(1);
        let text = r.render_text();
        assert!(text.contains("SLO[10s]"));
        assert!(text.contains("2 sessions"));
        let json = r.render_json();
        let doc = crate::json::parse(&json).expect("SLO JSON must parse");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(report::SCHEMA),
            "SLO export rides the standard obs schema"
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("slo.window.total"))
                .and_then(crate::json::JsonValue::as_f64),
            Some(2.0)
        );
        assert!(doc
            .get("gauges")
            .and_then(|g| g.get("slo.burn.slow"))
            .is_some());
        assert!(doc
            .get("histograms")
            .and_then(|h| h.get("slo.window.latency_ns"))
            .is_some());
    }

    #[test]
    fn empty_window_reports_zero_burn_and_no_alert() {
        let t = SloTracker::new(cfg());
        let r = t.report_at(0);
        assert_eq!(
            (r.total, r.errors, r.fast_total, r.fast_errors),
            (0, 0, 0, 0)
        );
        assert_eq!(r.error_rate, 0.0);
        assert_eq!(r.fast_burn, 0.0);
        assert_eq!(r.slow_burn, 0.0);
        assert!(!r.alert, "an idle tracker must never page");
        assert!(r.p99_ok, "no samples cannot violate the latency objective");
        // report() with nothing recorded evaluates at second 0: same.
        assert!(!t.report().alert);
    }

    #[test]
    fn burn_exactly_at_both_thresholds_alerts() {
        // cfg(): budget 0.1, fast threshold 5.0, slow threshold 1.0,
        // window 10 s, fast window 2 s. Construct rates that land the
        // burns *exactly* on the thresholds: fast rate 0.5 (burn 5.0),
        // slow rate 0.1 (burn 1.0).
        let t = SloTracker::new(cfg());
        for s in 0..8_u64 {
            for _ in 0..10 {
                t.record_at(s, 100, false);
            }
        }
        for s in 8..10_u64 {
            for i in 0..10 {
                t.record_at(s, 100, i < 5);
            }
        }
        let r = t.report_at(9);
        assert_eq!((r.total, r.errors), (100, 10));
        assert_eq!((r.fast_total, r.fast_errors), (20, 10));
        assert!((r.fast_burn - 5.0).abs() < 1e-12);
        assert!((r.slow_burn - 1.0).abs() < 1e-12);
        assert!(r.alert, "thresholds are inclusive: exactly-at must page");

        // One error fewer in the fast window: fast burn 4.5 < 5.0 —
        // the alert condition is a strict conjunction, so no page.
        let t = SloTracker::new(cfg());
        for s in 0..8_u64 {
            for _ in 0..10 {
                t.record_at(s, 100, false);
            }
        }
        for s in 8..10_u64 {
            for i in 0..10 {
                t.record_at(s, 100, i < 5 && !(s == 9 && i == 4));
            }
        }
        let r = t.report_at(9);
        assert!(r.fast_burn < 5.0 && r.slow_burn < 1.0);
        assert!(!r.alert);
    }

    #[test]
    fn ring_wraps_at_the_default_sixty_seconds() {
        let t = SloTracker::new(SloConfig::default());
        assert_eq!(t.config().window_s, 60);
        // Second 0 and second 60 share a ring slot; the wrap must
        // invalidate, not accumulate.
        for _ in 0..7 {
            t.record_at(0, 100, true);
        }
        t.record_at(60, 100, false);
        let r = t.report_at(60);
        assert_eq!(r.total, 1, "second 0 is outside [1, 60] and evicted");
        assert_eq!(r.errors, 0, "stale errors must not leak across the wrap");
        // Fill a full window across the wrap boundary: every second
        // counted exactly once.
        let t = SloTracker::new(SloConfig::default());
        for s in 30..120_u64 {
            t.record_at(s, 100, false);
        }
        let r = t.report_at(119);
        assert_eq!(r.total, 60, "exactly one window of seconds, despite wrap");
    }

    #[test]
    fn clock_going_backwards_saturates_never_panics() {
        let t = SloTracker::new(cfg());
        t.record_at(100, 100, false);
        // The clock jumps backwards: records must land without panic.
        t.record_at(95, 100, true);
        t.record_at(0, 100, true);
        let r = t.report_at(100);
        assert_eq!(r.total, 2, "second 95 is in [91,100]; second 0 is not");
        assert_eq!(r.errors, 1);
        // A report older than recorded data must not underflow the
        // window arithmetic: buckets ahead of now_s are excluded. Second
        // 0 shares slot 0 with second 100, which it may not evict, so
        // nothing is visible this far back.
        let r = t.report_at(9);
        assert_eq!(r.total, 0, "seconds 95 and 100 are ahead of now_s = 9");
        assert_eq!(r.errors, 0);
        let r = t.report_at(0);
        assert_eq!(r.total, 0);
        // last_second never rewinds, so report() stays at the high
        //-water mark after the backwards jump.
        assert_eq!(t.report().now_s, 100);
    }

    #[test]
    fn degenerate_windows_clamp() {
        let t = SloTracker::new(SloConfig {
            window_s: 0,
            fast_window_s: 0,
            ..cfg()
        });
        assert_eq!(t.config().window_s, 1);
        assert_eq!(t.config().fast_window_s, 1);
        t.record_at(0, 1, false);
        assert_eq!(t.report().total, 1);
    }
}
