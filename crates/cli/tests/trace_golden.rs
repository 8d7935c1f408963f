//! Golden test for `p2auth trace --structure-only`: the span-tree
//! structure of a traced enroll + auth session is pinned against a
//! committed golden file. Timings and counter values vary run to run
//! and RNG backend to RNG backend; the *set of span paths* — which
//! stages ran, nested under what — must not drift silently.

use p2auth_cli::args::ParsedArgs;
use p2auth_cli::commands::dispatch;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Both tests run `trace`, which drains the process-wide span capture;
/// run concurrently, one would steal the other's spans.
fn capture_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn trace_structure_matches_golden() {
    let _capture = capture_lock();
    let args = ParsedArgs::parse(["trace", "--structure-only"]).expect("parse");
    let got = dispatch(&args).expect("trace runs");
    let want = include_str!("golden/trace_structure.txt");
    assert_eq!(
        got.trim(),
        want.trim(),
        "span structure drifted; regenerate with \
         `cargo run -p p2auth-cli -- trace --structure-only` if intended"
    );
}

#[test]
fn trace_report_covers_the_link_path() {
    let _capture = capture_lock();
    let args = ParsedArgs::parse(["trace"]).expect("parse");
    let out = dispatch(&args).expect("trace runs");
    // The acceptance checklist: the default report must show the
    // pipeline stages and the device link path with frame/retransmit
    // counters under loss.
    for needle in [
        "core.preprocess.calibrate",
        "core.preprocess.case_id",
        "core.segmentation",
        "core.fusion",
        "rocket.transform",
        "core.decision",
        "device.reliable.transmit",
        "device.host.frames",
        "device.reliable.retransmissions",
        "flight recorder",
    ] {
        assert!(out.contains(needle), "trace output lacks {needle}:\n{out}");
    }
}
