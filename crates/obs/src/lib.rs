//! # P²Auth observability — spans, metrics, flight recorder
//!
//! Dependency-free (std-only) telemetry for the P²Auth pipeline:
//!
//! * **Spans** ([`span`](mod@span)) — hierarchical wall-clock timing with a
//!   thread-local parent stack. Parentage survives `p2auth-par`'s
//!   scoped worker threads via [`current_ctx`]/[`adopt`]: the caller
//!   captures its context before fanning out and each worker adopts it,
//!   so child time is attributed to the right parent.
//! * **Metrics** ([`metrics`]) — counters, f64 gauges and log2-bucket
//!   histograms (p50/p95/p99 extraction) in a global static registry
//!   keyed by `<crate>.<stage>.<metric>` names.
//! * **Flight recorder** ([`recorder`]) — a bounded ring buffer of
//!   recent structured events, dumped on auth failure for post-mortem.
//! * **Exporters** ([`report`]) — a human text report and a
//!   self-serialized JSON report with a stable schema
//!   (`p2auth.obs.v1`), plus a span-tree renderer.
//! * **JSON** ([`json`]) — a minimal dependency-free JSON parser used
//!   by the golden-schema tests (and available to tooling).
//! * **Event log** ([`events`]) — an append-only, versioned session
//!   event stream (`p2auth.events.v1`) with logical sequence numbers
//!   and RNG seeds, the substrate for deterministic record/replay.
//! * **Persistence** ([`persist`]) — a sharded, CRC-framed segment
//!   store for event logs with a crash-truncation-tolerant reader, so
//!   any fleet session is a one-command local repro.
//! * **Local metrics** ([`local`]) — single-owner per-worker registries
//!   merged after the fact (counters sum, histograms merge
//!   bucket-wise) instead of contended during.
//! * **SLO tracking** ([`slo`]) — rolling-window latency / error-rate
//!   windows with multi-window burn-rate error-budget alerts.
//!
//! Recording can be paused at runtime with [`set_recording`] (used by
//! `obs_bench` and `p2bench --trace` to measure the instrumented-vs-
//! paused delta in a single binary). Counters and gauges are *not*
//! gated on the runtime switch — they are single relaxed atomic ops —
//! only spans and flight events, which are the measurable part, are.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod local;
pub mod metrics;
pub mod persist;
pub mod recorder;
pub mod report;
pub mod slo;
pub mod span;

pub use events::{EventLog, EventLogError, LogDivergence, LoggedEvent, SessionEvent, SessionSeeds};
pub use local::{LocalHistogram, MetricsLocal};
pub use persist::ShardedEventStore;
pub use recorder::{Event, Value};
pub use slo::{SloConfig, SloReport, SloTracker};
pub use span::{adopt, current_ctx, reset_ctx, AdoptGuard, Span, SpanCtx, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static RECORDING: AtomicBool = AtomicBool::new(true);

/// Pauses (`false`) or resumes (`true`) span timing and flight-recorder
/// events at runtime.
#[inline]
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether spans and flight events are currently being recorded.
#[inline]
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process's observability epoch (the
/// first call into this crate).
#[inline]
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Resets all recorded state: zeroes every registered metric, clears
/// the flight recorder and discards any captured spans. Registration
/// itself (metric names) is kept. Intended for tests and for the start
/// of a traced session.
pub fn reset() {
    metrics::reset_values();
    recorder::clear();
    span::reset_capture();
}

/// Opens a timed span named by a `&'static str` (metric-name
/// convention: `<crate>.<stage>`). Returns a guard; the span closes and
/// records its duration (into the histogram of the same name) when the
/// guard drops.
///
/// ```
/// let _span = p2auth_obs::span!("core.preprocess");
/// // ... stage body ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: $crate::span::SpanSite = $crate::span::SpanSite::new($name);
        SITE.enter()
    }};
}

/// Returns the `&'static Counter` registered under `$name`, caching the
/// registry lookup at the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::counter_handle($name))
    }};
}

/// Returns the `&'static Gauge` registered under `$name` (see
/// [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::gauge_handle($name))
    }};
}

/// Returns the `&'static Histogram` registered under `$name` (see
/// [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::histogram_handle($name))
    }};
}

/// Appends a structured event to the flight recorder:
/// `event!("stage", "label", key = value, ...)`. Keys are identifiers;
/// values are anything `recorder::Value: From` covers (integers,
/// floats, bools, strings). Skipped when recording is paused.
#[macro_export]
macro_rules! event {
    ($stage:expr, $label:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::recording() {
            $crate::recorder::record(
                $stage,
                $label,
                ::std::vec![$((stringify!($key), $crate::recorder::Value::from($value))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    /// Serializes tests that touch the global registry / recorder.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn recording_toggle_round_trips() {
        let _g = lock();
        assert!(super::recording());
        super::set_recording(false);
        assert!(!super::recording());
        super::set_recording(true);
        assert!(super::recording());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = super::now_ns();
        let b = super::now_ns();
        assert!(b >= a);
    }

    #[test]
    fn paused_recording_skips_spans_and_events() {
        let _g = lock();
        super::reset();
        super::set_recording(false);
        {
            let _s = crate::span!("obs.test.paused");
            crate::event!("obs.test", "paused", n = 1_u64);
        }
        super::set_recording(true);
        let snap = crate::metrics::snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|(n, _)| *n == "obs.test.paused");
        assert!(hist.is_none() || hist.is_some_and(|(_, h)| h.count == 0));
        assert!(crate::recorder::snapshot().is_empty());
    }
}
