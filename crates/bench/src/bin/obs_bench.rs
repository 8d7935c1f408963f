//! Observability overhead benchmark: the cost of the telemetry layer
//! itself, measured in one binary by toggling the runtime recording
//! switch (`p2auth_obs::set_recording`).
//!
//! Reports:
//! * per-stage latency (p50/p95/p99) of a traced enroll + auth run,
//! * the instrumented-vs-paused overhead of the hot authentication
//!   path (median of several batches, so one scheduler hiccup does not
//!   fail the run),
//! * the per-primitive cost (span enter/exit, counter increment,
//!   flight-recorder event).
//!
//! The acceptance budget is ~3% end-to-end overhead
//! (`P2AUTH_OBS_BUDGET_PCT` overrides); the process exits non-zero when
//! the budget is blown, so CI catches a telemetry regression.
//!
//! Writes `BENCH_obs.json` in the current directory.
//!
//! Usage: `cargo run -p p2auth-bench --release --bin obs_bench`

use p2auth_bench::harness::print_stage_latency_table;
use p2auth_core::{HandMode, P2Auth, P2AuthConfig, Pin, Recording};
use p2auth_sim::{Population, PopulationConfig, SessionConfig};
use std::time::Instant;

/// Authentications per timed batch.
const BATCH: usize = 12;
/// Timed batches per lane; the median batch time is compared.
const ROUNDS: usize = 7;
/// Iterations for the per-primitive micro-measurements.
const PRIM_ITERS: u64 = 200_000;

fn budget_pct() -> f64 {
    std::env::var("P2AUTH_OBS_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0)
}

/// One timed batch of authentications, in ns.
fn batch_ns(
    sys: &P2Auth,
    profile: &p2auth_core::UserProfile,
    pin: &Pin,
    attempts: &[Recording],
) -> u64 {
    let t0 = Instant::now();
    for rec in attempts {
        let d = sys.authenticate(profile, pin, rec).expect("auth runs");
        std::hint::black_box(d.score);
    }
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn prim_ns<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..PRIM_ITERS {
        f();
    }
    t0.elapsed().as_nanos() as f64 / PRIM_ITERS as f64
}

fn main() {
    println!("# obs_bench — telemetry overhead");

    let pop = Population::generate(&PopulationConfig {
        num_users: 4,
        seed: 0xfa_0175,
        ..Default::default()
    });
    let session = SessionConfig::default();
    let pin = Pin::new("1628").unwrap();
    let sys = P2Auth::new(P2AuthConfig::fast());
    let enroll: Vec<Recording> = (0..6)
        .map(|i| pop.record_entry(0, &pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<Recording> = (0..12)
        .map(|i| {
            pop.record_entry(
                1 + (i as usize % 3),
                &pin,
                HandMode::OneHanded,
                &session,
                500 + i,
            )
        })
        .collect();
    let profile = sys.enroll(&pin, &enroll, &third).expect("enrollment");
    let attempts: Vec<Recording> = (0..BATCH)
        .map(|i| pop.record_entry(0, &pin, HandMode::OneHanded, &session, 7000 + i as u64))
        .collect();

    // Warm-up, then the two lanes — recording on (spans timed, events
    // appended) vs paused — *interleaved* batch by batch, so clock
    // ramping or cache drift hits both lanes equally instead of
    // masquerading as telemetry overhead.
    for rec in &attempts {
        let _ = sys.authenticate(&profile, &pin, rec);
    }
    let mut on_times = Vec::with_capacity(ROUNDS);
    let mut off_times = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        p2auth_obs::set_recording(true);
        on_times.push(batch_ns(&sys, &profile, &pin, &attempts));
        p2auth_obs::set_recording(false);
        off_times.push(batch_ns(&sys, &profile, &pin, &attempts));
    }
    p2auth_obs::set_recording(true);
    let on_ns = median(on_times);
    let off_ns = median(off_times);

    let overhead_pct = if off_ns == 0 {
        0.0
    } else {
        (on_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0
    };
    let per_auth_on = on_ns / BATCH as u64;
    let per_auth_off = off_ns / BATCH as u64;

    // Per-primitive costs with recording on.
    let span_ns = prim_ns(|| {
        let _s = p2auth_obs::span!("bench.obs.probe");
    });
    let counter = p2auth_obs::counter!("bench.obs.probe_count");
    let counter_ns = prim_ns(|| counter.incr());
    let event_ns = prim_ns(|| p2auth_obs::event!("bench.obs", "probe", n = 1_u64));

    // Per-stage breakdown of a fresh traced run.
    p2auth_obs::reset();
    let d = sys
        .authenticate(&profile, &pin, &attempts[0])
        .expect("auth runs");
    std::hint::black_box(d.score);
    println!();
    println!("per-stage latency (one traced authentication):");
    print_stage_latency_table();
    println!();
    println!(
        "auth path: instrumented {per_auth_on} ns, paused {per_auth_off} ns, \
         overhead {overhead_pct:+.2}%"
    );
    println!(
        "primitives: span {span_ns:.1} ns, counter {counter_ns:.1} ns, event {event_ns:.1} ns"
    );

    let budget = budget_pct();
    let within = overhead_pct <= budget;
    println!(
        "budget: {budget:.1}% -> {}",
        if within { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \
         \"auth_ns_instrumented\": {per_auth_on},\n  \
         \"auth_ns_paused\": {per_auth_off},\n  \
         \"overhead_pct\": {overhead_pct:.4},\n  \
         \"budget_pct\": {budget:.2},\n  \
         \"within_budget\": {within},\n  \
         \"primitive_ns\": {{ \"span\": {span_ns:.2}, \"counter\": {counter_ns:.2}, \
         \"event\": {event_ns:.2} }}\n}}\n"
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
    if !within {
        std::process::exit(1);
    }
}
