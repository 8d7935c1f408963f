//! Hierarchical timed spans with a thread-local parent stack.
//!
//! A span opened with [`crate::span!`] becomes the current span of its
//! thread; spans opened while it is current become its children. On
//! drop, the span records its duration into the histogram of the same
//! name and (when capture is on) appends a [`SpanRecord`].
//!
//! `p2auth-par` workers get parentage explicitly: the caller snapshots
//! [`current_ctx`] before fanning out and each worker closure holds an
//! [`adopt`] guard, so spans opened on the worker are children of the
//! caller's span even though they run on a different thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{self, Histogram};

/// One closed span, as captured for span-tree rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-global, never 0).
    pub id: u64,
    /// Id of the parent span, or 0 for a root.
    pub parent: u64,
    /// Span name (`<crate>.<stage>`).
    pub name: &'static str,
    /// Start time, ns since the observability epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

static CAPTURE_ON: AtomicBool = AtomicBool::new(false);
static CAPTURED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn captured() -> std::sync::MutexGuard<'static, Vec<SpanRecord>> {
    CAPTURED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts capturing closed spans (clearing any previous capture).
pub fn enable_capture() {
    captured().clear();
    CAPTURE_ON.store(true, Ordering::Relaxed);
}

/// Stops capturing and returns everything captured so far.
#[must_use]
pub fn take_capture() -> Vec<SpanRecord> {
    CAPTURE_ON.store(false, Ordering::Relaxed);
    std::mem::take(&mut *captured())
}

/// Stops and clears capture (part of [`crate::reset`]).
pub fn reset_capture() {
    CAPTURE_ON.store(false, Ordering::Relaxed);
    captured().clear();
}

/// A copyable handle to "the span that is current right now", for
/// carrying parentage into `p2auth-par` worker closures.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx(u64);

/// Snapshots the calling thread's current span as a [`SpanCtx`].
#[inline]
#[must_use]
pub fn current_ctx() -> SpanCtx {
    SpanCtx(CURRENT.with(Cell::get))
}

/// Forcibly clears the calling thread's span context, returning whether
/// a stale context was actually cleared.
///
/// [`current_ctx`]/[`adopt`] were designed for fork-join workers that
/// die after one task: a leaked [`AdoptGuard`] (a task that panicked
/// into a `catch_unwind`, or plain `mem::forget`) leaves the dead
/// task's parent id in this thread's slot, and on a *pooled* worker the
/// next task's spans would be silently attributed to the previous
/// session's tree. A scheduler must call this at every task-completion
/// boundary so sequential sessions on one worker produce disjoint span
/// trees; the `bool` lets it count leaks it papered over.
#[inline]
pub fn reset_ctx() -> bool {
    CURRENT.with(|c| c.replace(0)) != 0
}

/// Guard that makes an adopted [`SpanCtx`] the current span of this
/// thread until dropped (restoring whatever was current before).
#[derive(Debug)]
pub struct AdoptGuard {
    prev: u64,
}

/// Adopts `ctx` as the calling thread's current span. Hold the guard
/// for the duration of the worker closure body.
#[inline]
#[must_use]
pub fn adopt(ctx: SpanCtx) -> AdoptGuard {
    let prev = CURRENT.with(|c| c.replace(ctx.0));
    AdoptGuard { prev }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Per-call-site state for [`crate::span!`]: the span name plus a
/// cached histogram handle.
#[derive(Debug)]
pub struct SpanSite {
    name: &'static str,
    hist: OnceLock<&'static Histogram>,
}

impl SpanSite {
    /// Const constructor, usable in a `static`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            hist: OnceLock::new(),
        }
    }

    /// Opens a span at this site. Inert (no timing, no registry
    /// access) when recording is paused. The returned [`Span`] is
    /// itself `#[must_use]`.
    #[inline]
    pub fn enter(&'static self) -> Span {
        if !crate::recording() {
            return Span(None);
        }
        let hist = *self
            .hist
            .get_or_init(|| metrics::histogram_handle(self.name));
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(id));
        let start_ns = crate::now_ns();
        Span(Some(ActiveSpan {
            id,
            prev,
            name: self.name,
            hist,
            start: Instant::now(),
            start_ns,
        }))
    }
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    prev: u64,
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
    start_ns: u64,
}

/// An open span; closes (records duration, restores the parent) when
/// dropped. Holds nothing while recording is paused.
#[must_use = "a span records its duration when the guard drops"]
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        a.hist.record(dur_ns);
        CURRENT.with(|c| c.set(a.prev));
        if CAPTURE_ON.load(Ordering::Relaxed) {
            captured().push(SpanRecord {
                id: a.id,
                parent: a.prev,
                name: a.name,
                start_ns: a.start_ns,
                dur_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn nesting_attributes_children_to_parents() {
        let _g = lock();
        crate::reset();
        enable_capture();
        {
            let _outer = crate::span!("obs.test.outer");
            {
                let _inner = crate::span!("obs.test.inner");
            }
        }
        let records = take_capture();
        assert_eq!(records.len(), 2);
        // Inner closes first.
        let inner = &records[0];
        let outer = &records[1];
        assert_eq!(inner.name, "obs.test.inner");
        assert_eq!(outer.name, "obs.test.outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn span_duration_lands_in_same_named_histogram() {
        let _g = lock();
        crate::reset();
        {
            let _s = crate::span!("obs.test.timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = metrics::snapshot();
        let h = snap.histogram("obs.test.timed").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 2_000_000, "slept 2ms but max = {} ns", h.max);
    }

    #[test]
    fn adopt_carries_parent_across_threads() {
        let _g = lock();
        crate::reset();
        enable_capture();
        let parent_id;
        {
            let _parent = crate::span!("obs.test.parent");
            let ctx = current_ctx();
            parent_id = ctx.0;
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _adopt = adopt(ctx);
                    let _child = crate::span!("obs.test.child");
                });
            });
        }
        let records = take_capture();
        let child = records.iter().find(|r| r.name == "obs.test.child").unwrap();
        assert_eq!(child.parent, parent_id);
        assert_ne!(parent_id, 0);
    }

    #[test]
    fn pooled_worker_sessions_produce_disjoint_trees_after_reset() {
        let _g = lock();
        crate::reset();
        enable_capture();
        let submitter_id;
        {
            let _submitter = crate::span!("obs.test.pool.submitter");
            let ctx = current_ctx();
            submitter_id = ctx.0;
            std::thread::scope(|s| {
                s.spawn(move || {
                    // Session 1 on the pooled worker: adopts the
                    // submitter's context, but the guard is never
                    // dropped — the bug scenario this fix targets.
                    std::mem::forget(adopt(ctx));
                    {
                        let _s1 = crate::span!("obs.test.pool.s1");
                    }
                    // Task-completion boundary: the scheduler resets,
                    // and the reset reports that it caught a leak.
                    assert!(reset_ctx(), "leaked adopt guard went undetected");
                    assert_eq!(current_ctx().0, 0);
                    // Session 2 on the same worker thread must start a
                    // fresh tree, not hang off session 1's parent.
                    {
                        let _s2 = crate::span!("obs.test.pool.s2");
                    }
                    // A clean boundary reports no leak.
                    assert!(!reset_ctx());
                });
            });
        }
        let records = take_capture();
        let s1 = records
            .iter()
            .find(|r| r.name == "obs.test.pool.s1")
            .unwrap();
        let s2 = records
            .iter()
            .find(|r| r.name == "obs.test.pool.s2")
            .unwrap();
        assert_ne!(submitter_id, 0);
        assert_eq!(s1.parent, submitter_id, "session 1 adopted the submitter");
        assert_eq!(s2.parent, 0, "session 2 leaked session 1's parent stack");
    }

    #[test]
    fn adopt_guard_restores_previous_context() {
        let _g = lock();
        let before = current_ctx().0;
        {
            let _s = crate::span!("obs.test.restore");
            let mid = current_ctx().0;
            {
                let _a = adopt(SpanCtx(0));
                assert_eq!(current_ctx().0, 0);
            }
            assert_eq!(current_ctx().0, mid);
        }
        assert_eq!(current_ctx().0, before);
    }
}
