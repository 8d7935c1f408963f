//! Flight recorder: a bounded ring buffer of recent structured events.
//!
//! Hot paths append via [`crate::event!`]; when an authentication
//! session ends in `AuthError`/`Abort`, the caller dumps
//! [`snapshot`] for post-mortem — the last [`CAPACITY`] events across
//! the whole stack (frames fed, NACKs, resyncs, degradation reasons,
//! reject reasons) in arrival order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Maximum number of retained events (oldest evicted first).
pub const CAPACITY: usize = 256;

/// A structured event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed static string.
    Str(&'static str),
    /// Owned string.
    Text(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Self::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Self::I64(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Self::Str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Text(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::U64(v) => write!(f, "{v}"),
            Self::I64(v) => write!(f, "{v}"),
            Self::F64(v) => write!(f, "{v:.4}"),
            Self::Bool(v) => write!(f, "{v}"),
            Self::Str(v) => write!(f, "{v}"),
            Self::Text(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Time of recording, ns since the observability epoch.
    pub t_ns: u64,
    /// Stage name (`<crate>.<stage>` convention, like span names).
    pub stage: &'static str,
    /// Short event label (what happened).
    pub label: &'static str,
    /// Structured fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<22} {}",
            self.t_ns as f64 / 1e9,
            self.stage,
            self.label
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

static RING: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

fn ring() -> std::sync::MutexGuard<'static, VecDeque<Event>> {
    RING.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Appends one event, evicting the oldest past [`CAPACITY`]. Prefer
/// [`crate::event!`], which skips building the fields while recording
/// is paused.
pub fn record(stage: &'static str, label: &'static str, fields: Vec<(&'static str, Value)>) {
    if !crate::recording() {
        return;
    }
    let ev = Event {
        t_ns: crate::now_ns(),
        stage,
        label,
        fields,
    };
    let mut ring = ring();
    if ring.len() == CAPACITY {
        ring.pop_front();
    }
    ring.push_back(ev);
}

/// Copies out the retained events, oldest first.
#[must_use]
pub fn snapshot() -> Vec<Event> {
    ring().iter().cloned().collect()
}

/// Number of retained events.
#[must_use]
pub fn len() -> usize {
    ring().len()
}

/// Drops all retained events.
pub fn clear() {
    ring().clear();
}

/// Renders events as a line-per-event post-mortem dump (newest last),
/// keeping at most the trailing `last` events.
#[must_use]
pub fn render_dump(events: &[Event], last: usize) -> String {
    let skip = events.len().saturating_sub(last);
    let mut out = String::new();
    if skip > 0 {
        out.push_str(&format!("... ({skip} earlier events elided)\n"));
    }
    for ev in &events[skip..] {
        out.push_str(&format!("{ev}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn ring_wraps_preserving_newest() {
        let _g = lock();
        clear();
        for i in 0..(CAPACITY + 50) {
            crate::event!("obs.test", "tick", i = i);
        }
        let events = snapshot();
        assert_eq!(events.len(), CAPACITY);
        // Oldest retained is #50, newest is #(CAPACITY+49).
        assert_eq!(events[0].fields[0], ("i", Value::U64(50)));
        assert_eq!(
            events[CAPACITY - 1].fields[0],
            ("i", Value::U64((CAPACITY + 49) as u64))
        );
        clear();
    }

    #[test]
    fn event_macro_records_typed_fields() {
        let _g = lock();
        clear();
        crate::event!(
            "obs.test",
            "mixed",
            count = 3_usize,
            ratio = 0.5_f64,
            ok = true,
            tag = "hello",
        );
        let events = snapshot();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.stage, "obs.test");
        assert_eq!(ev.label, "mixed");
        assert_eq!(ev.fields[0], ("count", Value::U64(3)));
        assert_eq!(ev.fields[1], ("ratio", Value::F64(0.5)));
        assert_eq!(ev.fields[2], ("ok", Value::Bool(true)));
        assert_eq!(ev.fields[3], ("tag", Value::Str("hello")));
        clear();
    }

    #[test]
    fn dump_keeps_trailing_events() {
        let _g = lock();
        clear();
        for i in 0..10 {
            crate::event!("obs.test", "d", i = i);
        }
        let dump = render_dump(&snapshot(), 3);
        assert!(dump.contains("7 earlier events elided"));
        assert!(dump.contains("i=9"));
        assert!(!dump.contains("i=6"));
        clear();
    }
}
