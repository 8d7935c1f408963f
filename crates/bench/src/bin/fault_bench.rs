//! Fault-injection sweep over the device link: end-to-end auth success
//! and FAR/FRR as a function of frame-loss (and proportional
//! corruption) rate, with NACK-based retransmission enabled. The
//! acceptance bar for the recovery layer is that auth success at 2%
//! frame loss stays within 1 point of the clean channel.
//!
//! Every session streams through [`p2auth_device::transmit_reliable`]
//! over a seeded [`p2auth_device::FaultyLink`] pair and is decided by
//! the coverage-gated policy of [`p2auth_device::decide_session`], so
//! degraded and aborted sessions are first-class outcomes, not errors.
//!
//! Writes `BENCH_fault.json` in the current directory.
//!
//! Usage: `cargo run -p p2auth-bench --release --bin fault_bench [users]`

use p2auth_bench::harness::{mean, paper_pins, print_header, print_row, users_arg};
use p2auth_core::{HandMode, P2Auth, P2AuthConfig, Pin, UserProfile};
use p2auth_device::clock::VirtualClock;
use p2auth_device::link::{FaultConfig, LinkConfig};
use p2auth_device::{
    decide_session, transmit_reliable, FaultyLink, ReliableConfig, SessionOutcome, WearableDevice,
};
use p2auth_sim::{Population, PopulationConfig, Recording, SessionConfig};

/// Frame-loss rates swept (corruption rides along at a quarter of the
/// loss rate).
const LOSS_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
/// Channel seeds per rate — three independent fault realizations.
const SEEDS: [u64; 3] = [1, 2, 3];
/// Legitimate / attack sessions per (rate, seed) cell.
const SESSIONS: usize = 4;

struct Cell {
    loss: f64,
    legit_accepted: usize,
    legit_total: usize,
    attacks_accepted: usize,
    attacks_total: usize,
    degraded: usize,
    aborted: usize,
    retransmissions: usize,
    backoff_waits: usize,
    gap_blocks: usize,
    coverage_sum: f64,
    coverage_n: usize,
    /// `TransferStats` line of the cell's last session, for the log.
    last_transfer: String,
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    system: &P2Auth,
    profile: &UserProfile,
    pin: &Pin,
    rec: &Recording,
    device: &WearableDevice,
    loss: f64,
    seed: u64,
    cell: &mut Cell,
) -> bool {
    let faults = FaultConfig {
        drop_rate: loss,
        corrupt_rate: loss / 4.0,
        seed,
        ..FaultConfig::default()
    };
    let mut data = FaultyLink::new(LinkConfig::default(), faults);
    let mut keys = FaultyLink::new(
        LinkConfig {
            seed: seed ^ 0x4b,
            ..LinkConfig::default()
        },
        FaultConfig {
            seed: seed ^ 0x1234,
            ..faults
        },
    );
    let (result, stats) = transmit_reliable(
        rec,
        device,
        &mut data,
        &mut keys,
        &ReliableConfig::default(),
    );
    cell.retransmissions += stats.retransmissions;
    cell.backoff_waits += stats.backoff_waits;
    cell.last_transfer = stats.to_string();
    match result {
        Ok((rebuilt, quality)) => {
            cell.coverage_sum += quality.coverage;
            cell.coverage_n += 1;
            cell.gap_blocks += quality.gap_blocks;
            let outcome = decide_session(system, profile, Some(pin), &rebuilt, quality);
            match &outcome {
                SessionOutcome::Degraded { .. } => cell.degraded += 1,
                SessionOutcome::Abort { .. } => cell.aborted += 1,
                SessionOutcome::Decision(_) => {}
            }
            outcome.accepted()
        }
        Err(_) => {
            cell.aborted += 1;
            false
        }
    }
}

fn main() {
    let users = users_arg(5).max(4);
    let pop = Population::generate(&PopulationConfig {
        num_users: users,
        seed: 0xfa_0175,
        ..Default::default()
    });
    let session = SessionConfig::default();
    let cfg = P2AuthConfig::fast();
    let system = P2Auth::new(cfg);
    let pin = &paper_pins()[0];
    let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));

    // Enroll user 0 once, on clean data; the sweep degrades only the
    // authentication-time link.
    let enroll: Vec<Recording> = (0..9)
        .map(|i| pop.record_entry(0, pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<Recording> = (0..24)
        .map(|i| {
            pop.record_entry(
                1 + (i as usize % (users - 1)),
                pin,
                HandMode::OneHanded,
                &session,
                300 + i,
            )
        })
        .collect();
    let profile = system.enroll(pin, &enroll, &third).expect("enrollment");

    println!("# fault_bench — auth vs link fault rate (NACK recovery on)");
    print_header(&[
        "loss", "seed", "success", "far", "frr", "degraded", "aborted", "retx", "coverage",
    ]);

    let mut cells: Vec<Cell> = Vec::new();
    for &loss in &LOSS_RATES {
        for &seed in &SEEDS {
            let mut cell = Cell {
                loss,
                legit_accepted: 0,
                legit_total: 0,
                attacks_accepted: 0,
                attacks_total: 0,
                degraded: 0,
                aborted: 0,
                retransmissions: 0,
                backoff_waits: 0,
                gap_blocks: 0,
                coverage_sum: 0.0,
                coverage_n: 0,
                last_transfer: String::new(),
            };
            for s in 0..SESSIONS {
                let nonce = 900 + s as u64;
                let legit = pop.record_entry(0, pin, HandMode::OneHanded, &session, nonce);
                cell.legit_total += 1;
                if run_session(
                    &system,
                    &profile,
                    pin,
                    &legit,
                    &device,
                    loss,
                    seed * 101 + s as u64,
                    &mut cell,
                ) {
                    cell.legit_accepted += 1;
                }
                let attacker = 1 + (s % (users - 1));
                let attack = pop.record_emulating_attack(
                    attacker,
                    0,
                    pin,
                    HandMode::OneHanded,
                    &session,
                    nonce,
                );
                cell.attacks_total += 1;
                if run_session(
                    &system,
                    &profile,
                    pin,
                    &attack,
                    &device,
                    loss,
                    seed * 211 + s as u64,
                    &mut cell,
                ) {
                    cell.attacks_accepted += 1;
                }
            }
            let success = cell.legit_accepted as f64 / cell.legit_total as f64;
            let far = cell.attacks_accepted as f64 / cell.attacks_total as f64;
            let coverage = if cell.coverage_n > 0 {
                cell.coverage_sum / cell.coverage_n as f64
            } else {
                0.0
            };
            print_row(&[
                format!("{loss:.2}"),
                format!("{seed}"),
                format!("{success:.3}"),
                format!("{far:.3}"),
                format!("{:.3}", 1.0 - success),
                format!("{}", cell.degraded),
                format!("{}", cell.aborted),
                format!("{}", cell.retransmissions),
                format!("{coverage:.3}"),
            ]);
            println!("  last transfer: {}", cell.last_transfer);
            cells.push(cell);
        }
    }

    // Per-rate aggregates across seeds.
    let mut entries = Vec::new();
    let mut clean_success = None;
    let mut success_at_2pct = None;
    for &loss in &LOSS_RATES {
        let at: Vec<&Cell> = cells.iter().filter(|c| c.loss == loss).collect();
        let success = mean(
            &at.iter()
                .map(|c| c.legit_accepted as f64 / c.legit_total as f64)
                .collect::<Vec<_>>(),
        );
        let far = mean(
            &at.iter()
                .map(|c| c.attacks_accepted as f64 / c.attacks_total as f64)
                .collect::<Vec<_>>(),
        );
        let coverage = mean(
            &at.iter()
                .map(|c| {
                    if c.coverage_n > 0 {
                        c.coverage_sum / c.coverage_n as f64
                    } else {
                        0.0
                    }
                })
                .collect::<Vec<_>>(),
        );
        let degraded: usize = at.iter().map(|c| c.degraded).sum();
        let aborted: usize = at.iter().map(|c| c.aborted).sum();
        let retx: usize = at.iter().map(|c| c.retransmissions).sum();
        let backoffs: usize = at.iter().map(|c| c.backoff_waits).sum();
        let gaps: usize = at.iter().map(|c| c.gap_blocks).sum();
        if loss == 0.0 {
            clean_success = Some(success);
        }
        if loss == 0.02 {
            success_at_2pct = Some(success);
        }
        entries.push(format!(
            "    {{ \"loss_rate\": {loss:.2}, \"auth_success\": {success:.4}, \
             \"far\": {far:.4}, \"frr\": {:.4}, \"mean_coverage\": {coverage:.4}, \
             \"degraded_sessions\": {degraded}, \"aborted_sessions\": {aborted}, \
             \"retransmissions\": {retx}, \"backoff_waits\": {backoffs}, \
             \"gap_blocks\": {gaps} }}",
            1.0 - success
        ));
    }

    let clean = clean_success.expect("0.0 is swept");
    let lossy = success_at_2pct.expect("0.02 is swept");
    let delta = (clean - lossy).abs();
    println!();
    println!(
        "clean success {clean:.3}, 2% loss success {lossy:.3}, delta {delta:.3} \
         (acceptance: within 0.01)"
    );

    let json = format!(
        "{{\n  \"bench\": \"fault\",\n  \"users\": {users},\n  \"sessions_per_cell\": {SESSIONS},\n  \
         \"seeds\": {:?},\n  \
         \"clean_auth_success\": {clean:.4},\n  \
         \"auth_success_at_2pct_loss\": {lossy:.4},\n  \
         \"success_delta_at_2pct\": {delta:.4},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        SEEDS,
        entries.join(",\n"),
    );
    std::fs::write("BENCH_fault.json", &json).expect("write BENCH_fault.json");
    println!("wrote BENCH_fault.json");
}
