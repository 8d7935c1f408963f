//! Span parentage must survive `p2auth-par`'s scoped worker threads:
//! a caller snapshots its context, workers adopt it, and every span a
//! worker opens is attributed to the caller's span.

use p2auth_obs::{adopt, current_ctx, span};
use p2auth_par::par_map;
use std::sync::Mutex;

/// Serializes tests sharing the global capture buffer.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn par_workers_attribute_spans_to_adopting_parent() {
    let _serial = lock();
    p2auth_obs::reset();
    p2auth_obs::span::enable_capture();

    let items: Vec<u64> = (0..64).collect();
    let out: Vec<u64>;
    {
        let _parent = span!("test.parent");
        let ctx = current_ctx();
        out = par_map(&items, |&i| {
            let _g = adopt(ctx);
            let _child = span!("test.child");
            // Burn a few cycles so spans have nonzero duration.
            (0..100).fold(i, |acc, x| acc.wrapping_add(x))
        });
    }
    assert_eq!(out.len(), items.len());

    let records = p2auth_obs::span::take_capture();
    let parent = records
        .iter()
        .find(|r| r.name == "test.parent")
        .expect("parent span captured");
    let children: Vec<_> = records.iter().filter(|r| r.name == "test.child").collect();
    assert_eq!(children.len(), items.len());
    for child in &children {
        assert_eq!(
            child.parent, parent.id,
            "worker span must be attributed to the adopted parent"
        );
    }

    // The rendered structure shows the nesting.
    let paths = p2auth_obs::report::span_paths(&records);
    assert_eq!(
        paths,
        vec![
            "test.parent".to_string(),
            "test.parent/test.child".to_string()
        ]
    );

    // Child time also landed in the histogram named after the span.
    let snap = p2auth_obs::metrics::snapshot();
    let h = snap.histogram("test.child").expect("child histogram");
    assert_eq!(h.count, items.len() as u64);
}

#[test]
fn unadopted_threads_start_at_root() {
    let _serial = lock();
    p2auth_obs::reset();
    p2auth_obs::span::enable_capture();

    {
        let _parent = span!("test.lone_parent");
        // A fresh thread that does NOT adopt the caller's context: its
        // spans are roots (the thread-local parent stack starts empty).
        std::thread::spawn(|| {
            let _child = span!("test.lone_child");
        })
        .join()
        .expect("worker thread");
    }

    let records = p2auth_obs::span::take_capture();
    let child = records
        .iter()
        .find(|r| r.name == "test.lone_child")
        .expect("child captured");
    assert_eq!(
        child.parent, 0,
        "without adopt(), a new thread's spans are roots"
    );
}
