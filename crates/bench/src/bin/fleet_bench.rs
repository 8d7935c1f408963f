//! Fleet-scale serving benchmark: throughput and session-latency
//! quantiles of the `p2auth-server` worker pool as concurrency scales.
//!
//! One chaos fleet workload (sensor-fault presets + faulty links +
//! periodic hang sessions, all pre-acquired and seeded) is replayed
//! through serve regions at several worker counts. Latency comes from
//! the scheduler's merged per-worker metrics (`ServeReport::metrics`) —
//! completed, shed, and aborted sessions each land in their own
//! outcome-labelled histogram so a shed storm can't hide inside the
//! completion quantiles. Throughput is the wall clock around the
//! region. Every level runs under a watchdog: a region that fails to
//! finish is a hang, reported with a nonzero exit — never a silent
//! stall.
//!
//! After the worker sweep, an **observability lane** measures what the
//! durable plane costs: interleaved batches at a fixed worker count,
//! alternating plain serving against serving with sharded event-log
//! persistence plus SLO tracking (interleaving absorbs thermal /
//! frequency drift, same as `obs_bench`). The medians are compared and
//! the overhead must stay inside `P2AUTH_FLEET_OBS_BUDGET_PCT`
//! (default 3%). The final persisted store is left in `fleet-shards/`
//! for `p2auth replay --from-shard`, and the lane's SLO report is
//! written to `SLO_fleet.json` (`p2auth.obs.v1`).
//!
//! Writes `BENCH_fleet.json` in the current directory.
//!
//! SLO gate (CI): with `P2AUTH_FLEET_GATE` set (and not `0`), exits
//! nonzero when any level's p99 exceeds `P2AUTH_FLEET_P99_MS`
//! (default 500 ms), when any request goes unanswered, or when nothing
//! accepts. `P2AUTH_FLEET_OBS_GATE` additionally fails the run when
//! the observability lane blows its overhead budget.
//! `P2AUTH_FLEET_TIMEOUT_S` (default 120) bounds each level.
//!
//! With `--chaos`, the worker sweep is replaced by the fault-injection
//! suite (see [`chaos_main`]): an injected-panic lane (supervision must
//! contain every panic to exactly one `Crashed` verdict), a
//! kill-restart cycle over the persisted store (recovery time and
//! accounting digests), and a synthetic overload ramp through the
//! brownout ladder (engage + release with hysteresis). The seed comes
//! from `P2AUTH_CHAOS_SEED` (default 814).
//!
//! Usage: `cargo run -p p2auth-bench --release --bin fleet_bench [devices] [--chaos]`

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use p2auth_bench::harness::{print_header, print_row, users_arg};
use p2auth_obs::{ShardedEventStore, SloConfig, SloTracker};
use p2auth_server::{
    build_fleet, kill_restart_cycle, run_fleet_obs, BrownoutConfig, BrownoutLadder, BrownoutLevel,
    ChaosPlan, FleetConfig, FleetScenario, ServeObs, ServerConfig,
};

/// Worker-pool sizes swept (the bench contract: at least three).
const WORKERS: [usize; 3] = [1, 4, 16];

/// Worker count of the observability-overhead lane.
const OBS_WORKERS: usize = 4;

/// Interleaved rounds in the observability lane (each round = one
/// plain region + one persisted region, order alternating).
const OBS_ROUNDS: usize = 5;

/// Quantiles of one outcome-labelled latency histogram.
#[derive(Default, Clone, Copy)]
struct HistStats {
    count: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    mean_ns: f64,
}

impl HistStats {
    fn from_local(h: Option<&p2auth_obs::LocalHistogram>) -> Self {
        h.map_or_else(Self::default, |h| Self {
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            mean_ns: h.sum() as f64 / h.count().max(1) as f64,
        })
    }

    fn json(&self) -> String {
        format!(
            "{{ \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"mean_ns\": {:.0} }}",
            self.count, self.p50_ns, self.p95_ns, self.p99_ns, self.mean_ns
        )
    }
}

/// One concurrency level's measurements.
struct Level {
    workers: usize,
    sessions: usize,
    shed: usize,
    accepts: usize,
    aborts: usize,
    wall_s: f64,
    throughput_sps: f64,
    completed: HistStats,
    shed_hist: HistStats,
    aborted_hist: HistStats,
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn gate_enabled(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| v != "0")
}

/// Runs one serve region under the hang watchdog, returning the report,
/// the at-submit sheds, and the region wall time.
fn timed_region(
    scenario: &FleetScenario,
    server: &ServerConfig,
    obs: ServeObs<'_>,
    timeout: Duration,
) -> (p2auth_server::ServeReport, usize, f64) {
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let (report, shed) = std::thread::scope(|s| {
        s.spawn(|| {
            let out = run_fleet_obs(scenario, server, obs);
            let _ = tx.send(out);
        });
        match rx.recv_timeout(timeout) {
            Ok(out) => out,
            Err(_) => {
                eprintln!(
                    "FLEET_HANG: {}-worker region exceeded {:.0}s",
                    server.num_workers,
                    timeout.as_secs_f64()
                );
                std::process::exit(2);
            }
        }
    });
    (report, shed.len(), t0.elapsed().as_secs_f64())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The `--chaos` suite: injected worker panics, a kill-restart cycle,
/// and a synthetic overload ramp through the brownout ladder. Writes
/// its own `BENCH_fleet.json` (`"bench": "fleet_chaos"`); with
/// `P2AUTH_FLEET_GATE` set, exits nonzero on any violated invariant
/// (crash amplification ≠ 1, accounting mismatch across the restart,
/// ladder failing to engage or release).
#[allow(clippy::too_many_lines)]
fn chaos_main() {
    let devices = users_arg(12).max(2);
    let seed = std::env::var("P2AUTH_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(814_u64);
    let fleet = FleetConfig {
        num_devices: devices,
        sessions_per_device: 6,
        enrolled_users: 4.min(devices),
        seed,
        chaos: true,
        hang_every: 0,
    };
    println!(
        "# fleet_bench --chaos — {} devices x {} sessions, seed {seed}",
        fleet.num_devices, fleet.sessions_per_device
    );
    let scenario = build_fleet(&fleet);
    let total = scenario.requests.len();
    let server = ServerConfig {
        num_workers: 4,
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let mut violations: Vec<String> = Vec::new();

    // ---- lane 1: injected worker panics -------------------------------
    // Every 9th request panics mid-session; supervision must convert
    // each into exactly one Crashed verdict (zero crash amplification)
    // and the respawned workers must finish everything else.
    let panic_ids: Vec<u64> = scenario
        .requests
        .iter()
        .map(|r| r.request_id)
        .step_by(9)
        .collect();
    let plan = ChaosPlan::panics(panic_ids.iter().copied());
    let t0 = Instant::now();
    let (report, shed_at_submit) = run_fleet_obs(
        &scenario,
        &server,
        ServeObs {
            chaos: Some(&plan),
            ..ServeObs::default()
        },
    );
    let panic_wall_s = t0.elapsed().as_secs_f64();
    let crashed = report
        .sessions
        .iter()
        .filter(|r| r.response.verdict.crashed())
        .count();
    let injected = plan.injected_panics();
    let amplification = crashed as f64 / injected.max(1) as f64;
    let respawns = report.metrics.counter("server.worker.respawns");
    let responses = report.sessions.len() + shed_at_submit.len();
    println!(
        "panic lane: {injected} injected -> {crashed} crashed verdicts \
         (amplification {amplification:.2}), {respawns} respawns, \
         {responses}/{total} responses in {panic_wall_s:.3}s"
    );
    if injected == 0 || crashed as u64 != injected {
        violations.push(format!(
            "crash amplification: {injected} injected panics but {crashed} crashed verdicts"
        ));
    }
    if responses != total {
        violations.push(format!("panic lane lost responses: {responses}/{total}"));
    }

    // ---- lane 2: kill-restart cycle -----------------------------------
    let dir = Path::new("fleet-chaos-shards");
    let _ = std::fs::remove_dir_all(dir);
    let kr = kill_restart_cycle(&scenario, &server, dir, total / 2);
    let accounting_ok = kr.final_completed == total as u64;
    println!(
        "kill-restart lane: {} served pre-crash, {} recovered from disk \
         (digest {:016x}), {} in-flight re-admitted, {} re-served, \
         final {}/{total} (digest {:016x}), recovery {:.4}s",
        kr.served_before,
        kr.completed_recovered,
        kr.recovered_digest,
        kr.in_flight,
        kr.served_after,
        kr.final_completed,
        kr.final_digest,
        kr.recovery_wall_s
    );
    if !accounting_ok {
        violations.push(format!(
            "kill-restart accounting: {}/{total} sessions in the final store",
            kr.final_completed
        ));
    }
    if kr.interrupted_journaled != kr.in_flight {
        violations.push(format!(
            "interruption journal: {} in-flight but {} markers",
            kr.in_flight, kr.interrupted_journaled
        ));
    }

    // ---- lane 3: brownout ladder under a synthetic overload ramp ------
    // Errors ramp to 100% for 30 s, then recover: the ladder must
    // engage (climb at least one rung), not flap, and release back to
    // Normal once the burn clears the windows.
    let ladder = BrownoutLadder::new(BrownoutConfig {
        enabled: true,
        eval_every: 1,
        up_hold: 2,
        down_hold: 3,
        ..BrownoutConfig::default()
    });
    let slo = SloTracker::new(SloConfig {
        error_budget: 0.05,
        fast_burn_threshold: 4.0,
        slow_burn_threshold: 1.0,
        ..SloConfig::default()
    });
    let mut peak = BrownoutLevel::Normal;
    for second in 0..240_u64 {
        let overload = (20..50).contains(&second);
        for _ in 0..20 {
            slo.record_at(second, 2_000_000, overload);
        }
        if second % 2 == 0 {
            let level = ladder.evaluate(&slo.report_at(second));
            peak = peak.max(level);
        }
    }
    let final_level = ladder.level();
    let transitions = ladder.transitions();
    let occupancy = ladder.occupancy();
    println!(
        "brownout lane: peak {peak}, final {final_level}, {} transitions, \
         occupancy [normal {}, b1 {}, b2 {}, shed {}]",
        transitions.len(),
        occupancy[0],
        occupancy[1],
        occupancy[2],
        occupancy[3]
    );
    if peak == BrownoutLevel::Normal {
        violations.push("brownout ladder never engaged under the overload ramp".to_string());
    }
    if final_level != BrownoutLevel::Normal {
        violations.push(format!(
            "brownout ladder failed to release: final level {final_level}"
        ));
    }

    let transitions_json = transitions
        .iter()
        .map(|t| {
            format!(
                "{{ \"from\": \"{}\", \"to\": \"{}\", \"eval\": {}, \
                 \"fast_burn\": {:.2}, \"slow_burn\": {:.2} }}",
                t.from, t.to, t.eval, t.fast_burn, t.slow_burn
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"fleet_chaos\",\n  \"devices\": {devices},\n  \
         \"sessions_per_device\": {},\n  \"requests\": {total},\n  \"seed\": {seed},\n  \
         \"panic_lane\": {{ \"injected\": {injected}, \"crashed\": {crashed}, \
         \"amplification\": {amplification:.3}, \"respawns\": {respawns}, \
         \"responses\": {responses}, \"wall_s\": {panic_wall_s:.4} }},\n  \
         \"kill_restart\": {{ \"served_before\": {}, \"completed_recovered\": {}, \
         \"recovered_digest\": \"{:016x}\", \"in_flight\": {}, \
         \"interrupted_journaled\": {}, \"torn_repaired\": {}, \"served_after\": {}, \
         \"final_completed\": {}, \"final_digest\": \"{:016x}\", \
         \"recovery_wall_s\": {:.5}, \"accounting_ok\": {accounting_ok} }},\n  \
         \"brownout\": {{ \"peak\": \"{peak}\", \"final\": \"{final_level}\", \
         \"occupancy\": [{}, {}, {}, {}], \"transitions\": [{transitions_json}] }}\n}}\n",
        fleet.sessions_per_device,
        kr.served_before,
        kr.completed_recovered,
        kr.recovered_digest,
        kr.in_flight,
        kr.interrupted_journaled,
        kr.torn_repaired,
        kr.served_after,
        kr.final_completed,
        kr.final_digest,
        kr.recovery_wall_s,
        occupancy[0],
        occupancy[1],
        occupancy[2],
        occupancy[3],
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");

    if violations.is_empty() {
        println!("CHAOS: ok (panics contained, restart accounted, ladder cycled)");
    } else {
        for v in &violations {
            eprintln!("CHAOS_VIOLATION: {v}");
        }
        if gate_enabled("P2AUTH_FLEET_GATE") {
            std::process::exit(1);
        }
        println!("(gate disabled; set P2AUTH_FLEET_GATE=1 to fail on violations)");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--chaos") {
        chaos_main();
        return;
    }
    let devices = users_arg(16).max(2);
    let fleet = FleetConfig {
        num_devices: devices,
        sessions_per_device: 8,
        enrolled_users: 4.min(devices),
        seed: 814,
        chaos: true,
        hang_every: 7,
    };
    let timeout = Duration::from_secs_f64(env_f64("P2AUTH_FLEET_TIMEOUT_S", 120.0));
    let p99_budget_ns = env_f64("P2AUTH_FLEET_P99_MS", 500.0) * 1e6;
    let obs_budget_pct = env_f64("P2AUTH_FLEET_OBS_BUDGET_PCT", 3.0);

    println!(
        "# fleet_bench — {} devices x {} sessions, chaos on, hang every {}",
        fleet.num_devices, fleet.sessions_per_device, fleet.hang_every
    );
    let scenario = build_fleet(&fleet);
    let total = scenario.requests.len();
    print_header(&[
        "workers", "sessions", "shed", "accepts", "aborts", "wall_s", "ses/s", "p50_us", "p95_us",
        "p99_us",
    ]);

    let mut levels: Vec<Level> = Vec::new();
    for &workers in &WORKERS {
        let server = ServerConfig {
            num_workers: workers,
            queue_capacity: (2 * workers).max(4),
            ..ServerConfig::default()
        };
        let (report, shed_at_submit, wall_s) =
            timed_region(&scenario, &server, ServeObs::default(), timeout);

        let m = &report.metrics;
        let completed = HistStats::from_local(m.histogram("server.session.latency_ns"));
        let shed_hist = HistStats::from_local(m.histogram("server.session.latency.shed_ns"));
        let aborted_hist = HistStats::from_local(m.histogram("server.session.latency.aborted_ns"));
        let accepts = report
            .sessions
            .iter()
            .filter(|r| r.response.verdict.accepted())
            .count();
        let level = Level {
            workers,
            sessions: report.sessions.len(),
            shed: shed_at_submit + shed_hist.count as usize,
            accepts,
            aborts: aborted_hist.count as usize,
            wall_s,
            throughput_sps: report.sessions.len() as f64 / wall_s.max(1e-9),
            completed,
            shed_hist,
            aborted_hist,
        };
        print_row(&[
            format!("{workers}"),
            format!("{}", level.sessions),
            format!("{}", level.shed),
            format!("{}", level.accepts),
            format!("{}", level.aborts),
            format!("{wall_s:.3}"),
            format!("{:.1}", level.throughput_sps),
            format!("{:.0}", level.completed.p50_ns as f64 / 1e3),
            format!("{:.0}", level.completed.p95_ns as f64 / 1e3),
            format!("{:.0}", level.completed.p99_ns as f64 / 1e3),
        ]);
        levels.push(level);
    }

    // ---- observability lane: what does the durable plane cost? ----
    // Interleaved plain/persisted batches (odd rounds flip the order)
    // so slow drift hits both sides equally; medians are compared.
    println!("# obs lane — {OBS_WORKERS} workers, {OBS_ROUNDS} interleaved rounds");
    let obs_server = ServerConfig {
        num_workers: OBS_WORKERS,
        queue_capacity: (2 * OBS_WORKERS).max(4),
        ..ServerConfig::default()
    };
    let slo = SloTracker::new(SloConfig {
        p99_objective_ns: p99_budget_ns as u64,
        ..SloConfig::default()
    });
    let shard_dir = Path::new("fleet-shards");
    let mut plain_sps: Vec<f64> = Vec::with_capacity(OBS_ROUNDS);
    let mut obs_sps: Vec<f64> = Vec::with_capacity(OBS_ROUNDS);
    let mut persisted_records = 0_u64;
    for round in 0..OBS_ROUNDS {
        let run_plain = |plain_sps: &mut Vec<f64>| {
            let (report, _, wall_s) =
                timed_region(&scenario, &obs_server, ServeObs::default(), timeout);
            plain_sps.push(report.sessions.len() as f64 / wall_s.max(1e-9));
        };
        let run_obs = |obs_sps: &mut Vec<f64>, persisted: &mut u64| {
            // Recreate the store each round: every lane measures the
            // same work, and the last round leaves a fresh store behind
            // for `replay --from-shard`.
            let store = ShardedEventStore::create(shard_dir, obs_server.shard_count, 8)
                .expect("create fleet-shards store");
            let obs = ServeObs {
                persist: Some(&store),
                slo: Some(&slo),
                ..ServeObs::default()
            };
            let (report, _, wall_s) = timed_region(&scenario, &obs_server, obs, timeout);
            store.flush().expect("flush fleet-shards store");
            *persisted = store.appended();
            obs_sps.push(report.sessions.len() as f64 / wall_s.max(1e-9));
        };
        if round % 2 == 0 {
            run_plain(&mut plain_sps);
            run_obs(&mut obs_sps, &mut persisted_records);
        } else {
            run_obs(&mut obs_sps, &mut persisted_records);
            run_plain(&mut plain_sps);
        }
    }
    let plain_med = median(&mut plain_sps);
    let obs_med = median(&mut obs_sps);
    let obs_overhead_pct = (plain_med - obs_med) / plain_med.max(1e-9) * 100.0;
    let obs_within = obs_overhead_pct <= obs_budget_pct;
    println!(
        "obs lane: plain {plain_med:.1} ses/s, persisted {obs_med:.1} ses/s, \
         overhead {obs_overhead_pct:.2}% (budget {obs_budget_pct:.1}%) — \
         {persisted_records} records in {}",
        shard_dir.display()
    );
    let slo_json = slo.report().render_json();
    std::fs::write("SLO_fleet.json", &slo_json).expect("write SLO_fleet.json");
    println!("wrote SLO_fleet.json");

    let per_level = levels
        .iter()
        .map(|l| {
            format!(
                "    {{ \"workers\": {}, \"sessions\": {}, \"shed\": {}, \
                 \"accepts\": {}, \"aborts\": {}, \"wall_s\": {:.4}, \
                 \"throughput_sps\": {:.2}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.0},\n      \
                 \"completed\": {},\n      \"shed_sessions\": {},\n      \
                 \"aborted\": {} }}",
                l.workers,
                l.sessions,
                l.shed,
                l.accepts,
                l.aborts,
                l.wall_s,
                l.throughput_sps,
                l.completed.p50_ns,
                l.completed.p95_ns,
                l.completed.p99_ns,
                l.completed.mean_ns,
                l.completed.json(),
                l.shed_hist.json(),
                l.aborted_hist.json(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"devices\": {devices},\n  \
         \"sessions_per_device\": {},\n  \"requests\": {total},\n  \
         \"chaos\": {},\n  \"hang_every\": {},\n  \"seed\": {},\n  \
         \"p99_budget_ns\": {:.0},\n  \"levels\": [\n{per_level}\n  ],\n  \
         \"obs_lane\": {{ \"workers\": {OBS_WORKERS}, \"rounds\": {OBS_ROUNDS}, \
         \"plain_sps\": {plain_med:.2}, \"persisted_sps\": {obs_med:.2}, \
         \"obs_overhead_pct\": {obs_overhead_pct:.2}, \
         \"obs_budget_pct\": {obs_budget_pct:.1}, \"within_budget\": {obs_within}, \
         \"persisted_records\": {persisted_records} }}\n}}\n",
        fleet.sessions_per_device, fleet.chaos, fleet.hang_every, fleet.seed, p99_budget_ns,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");

    // SLO gate: exactly-once responses, someone must accept, and every
    // level's p99 stays inside the budget.
    let mut violations: Vec<String> = Vec::new();
    for l in &levels {
        if l.sessions + l.shed - l.shed_hist.count as usize != total {
            violations.push(format!(
                "workers={}: {} responses + {} shed-at-submit != {total} requests",
                l.workers,
                l.sessions,
                l.shed - l.shed_hist.count as usize
            ));
        }
        if l.completed.p99_ns as f64 > p99_budget_ns {
            violations.push(format!(
                "workers={}: p99 {:.1} ms exceeds budget {:.1} ms",
                l.workers,
                l.completed.p99_ns as f64 / 1e6,
                p99_budget_ns / 1e6
            ));
        }
    }
    if levels.iter().all(|l| l.accepts == 0) {
        violations.push("no level accepted a single legitimate session".to_string());
    }
    let mut obs_violation = false;
    if !obs_within {
        obs_violation = true;
        eprintln!(
            "OBS_VIOLATION: observability lane overhead {obs_overhead_pct:.2}% \
             exceeds budget {obs_budget_pct:.1}%"
        );
    }
    if violations.is_empty() {
        println!("SLO: ok (p99 budget {:.0} ms)", p99_budget_ns / 1e6);
    } else {
        for v in &violations {
            eprintln!("SLO_VIOLATION: {v}");
        }
        if gate_enabled("P2AUTH_FLEET_GATE") {
            std::process::exit(1);
        }
        println!("(gate disabled; set P2AUTH_FLEET_GATE=1 to fail on violations)");
    }
    if obs_violation {
        if gate_enabled("P2AUTH_FLEET_OBS_GATE") {
            std::process::exit(1);
        }
        println!("(obs gate disabled; set P2AUTH_FLEET_OBS_GATE=1 to fail on overhead)");
    }
}
