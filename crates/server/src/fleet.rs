//! Fleet simulator: N virtual devices generating the server's arrival
//! and fault mix.
//!
//! Each device re-uses the chaos idiom from the device crate's session
//! suites: a recording is synthesized per session, degraded by a
//! rotating [`SensorFaultConfig::preset`] family, then carried over a
//! [`FaultyLink`] pair by the reliable-transfer protocol — so the
//! attempts a request carries have realistic coverage, gap and
//! keystroke-timing damage, all seeded and deterministic. Acquisition
//! is **pre-generated** (in parallel, via `p2auth-par`) so a serve
//! region measures scheduling and scoring, not signal synthesis.

use p2auth_core::{HandMode, P2Auth, P2AuthConfig, Pin, Recording};
use p2auth_device::clock::VirtualClock;
use p2auth_device::host::LinkQuality;
use p2auth_device::{
    transmit_reliable, FaultConfig, FaultyLink, LinkConfig, ReliableConfig, WearableDevice,
};
use p2auth_sim::{
    inject_sensor_faults, Population, PopulationConfig, SensorFaultConfig, SensorFaultKind,
    SessionConfig,
};

use crate::messages::{AuthRequest, AuthResponse, ServerConfig, SessionVerdict};
use crate::scheduler::{serve_obs, ServeObs, ServeReport};
use crate::store::ShardedProfileStore;

/// Shape of the simulated fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Virtual devices; device `d` authenticates as `user_id = d`.
    pub num_devices: usize,
    /// Sessions each device submits.
    pub sessions_per_device: usize,
    /// Distinct enrolled profiles; devices cycle over them (enrollment
    /// is the expensive part — the store still holds one interned
    /// arena per device id, which is what sharding distributes).
    pub enrolled_users: usize,
    /// Master seed for cohort synthesis and fault draws.
    pub seed: u64,
    /// Whether sessions run under the sensor + link fault mix.
    pub chaos: bool,
    /// Every `hang_every`-th session delivers nothing at all (watchdog
    /// path); 0 disables.
    pub hang_every: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_devices: 8,
            sessions_per_device: 4,
            enrolled_users: 2,
            seed: 814,
            chaos: true,
            hang_every: 0,
        }
    }
}

/// A built fleet: the system, the populated store, and every device's
/// pre-acquired requests in submission order.
#[derive(Debug)]
pub struct FleetScenario {
    /// The pipeline configuration shared by all sessions.
    pub system: P2Auth,
    /// Profile store with one interned arena per device id.
    pub store: ShardedProfileStore,
    /// All requests, in submission order.
    pub requests: Vec<AuthRequest>,
    /// The PIN every simulated user claims.
    pub pin: Pin,
}

/// The rotating fault families of the chaos arrival mix.
const FAULT_KINDS: [SensorFaultKind; 3] = [
    SensorFaultKind::Motion,
    SensorFaultKind::Saturation,
    SensorFaultKind::Dropout,
];

fn perfect_link() -> LinkQuality {
    LinkQuality {
        coverage: 1.0,
        expected_blocks: 1,
        received_blocks: 1,
        gap_blocks: 0,
    }
}

/// One acquisition under the fleet's fault mix (the device-crate chaos
/// idiom): sensor faults degrade what the ADC sampled, link faults
/// degrade what the host received; `None` is a transfer the recovery
/// layer could not complete.
fn acquire(
    rec: &Recording,
    chaos: bool,
    seed: u64,
    nonce: u64,
) -> Option<(Recording, LinkQuality)> {
    if !chaos {
        return Some((rec.clone(), perfect_link()));
    }
    let kind = FAULT_KINDS[(nonce % FAULT_KINDS.len() as u64) as usize];
    let preset = SensorFaultConfig::preset(kind, 0.4, seed);
    let (sampled, _stats) = inject_sensor_faults(rec, &preset, nonce);
    let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
    // The CLI `fault` defaults: lossy enough that some sessions lose
    // their transfer (and re-prompt or abort), light enough that the
    // fleet mostly scores — a serving bench, not a link post-mortem.
    let faults = FaultConfig {
        drop_rate: 0.02,
        corrupt_rate: 0.005,
        seed: seed ^ (nonce << 8),
        ..FaultConfig::default()
    };
    let mut data = FaultyLink::new(LinkConfig::default(), faults);
    let mut keys = FaultyLink::new(
        LinkConfig {
            seed: 0x4b,
            ..LinkConfig::default()
        },
        FaultConfig {
            seed: faults.seed ^ 0x1234,
            ..faults
        },
    );
    let (result, _stats) = transmit_reliable(
        &sampled,
        &device,
        &mut data,
        &mut keys,
        &ReliableConfig::default(),
    );
    result.ok()
}

/// Synthesizes the cohort, enrolls the profile pool, interns one arena
/// per device id, and pre-acquires every session's attempts.
///
/// Deterministic in `config`: same config, same requests bit-for-bit.
#[must_use]
pub fn build_fleet(config: &FleetConfig) -> FleetScenario {
    let _span = p2auth_obs::span!("server.fleet.build");
    let enrolled = config.enrolled_users.max(1);
    // A few extra identities supply the third-party enrollment pool.
    let pop = Population::generate(&PopulationConfig {
        num_users: enrolled + 3,
        seed: config.seed,
        ..Default::default()
    });
    let pin = Pin::new("1628").expect("static PIN is valid");
    let session = SessionConfig::default();
    let system = P2Auth::new(P2AuthConfig::fast());

    // One real enrollment per distinct user; devices share arenas by
    // value (each store entry interns its own copy under its own id).
    let arenas: Vec<_> = (0..enrolled)
        .map(|u| {
            let enroll: Vec<_> = (0..6)
                .map(|i| pop.record_entry(u, &pin, HandMode::OneHanded, &session, 40 + i))
                .collect();
            let third: Vec<_> = (0..12)
                .map(|i| {
                    pop.record_entry(
                        enrolled + (i as usize % 3),
                        &pin,
                        HandMode::OneHanded,
                        &session,
                        70 + i,
                    )
                })
                .collect();
            let profile = system
                .enroll(&pin, &enroll, &third)
                .expect("fleet enrollment");
            system.arena(&profile)
        })
        .collect();
    let store = ShardedProfileStore::new(16);
    for d in 0..config.num_devices {
        store.insert_arena(d as u64, arenas[d % enrolled].clone());
    }

    // Pre-acquire every session's attempts in parallel; the result is
    // order-preserving, so request order (and every fault draw) is
    // independent of worker count.
    let specs: Vec<(u64, u64)> = (0..config.num_devices as u64)
        .flat_map(|d| (0..config.sessions_per_device as u64).map(move |k| (d, k)))
        .collect();
    let chaos = config.chaos;
    let hang_every = config.hang_every;
    let seed = config.seed;
    let spd = config.sessions_per_device as u64;
    let requests = p2auth_par::par_map(&specs, |&(d, k)| {
        let global = d * spd + k;
        let user = (d as usize) % enrolled;
        let attempts = if hang_every != 0 && (global + 1).is_multiple_of(hang_every as u64) {
            // A device that never completes collection: the watchdog
            // must end this session, not a worker hang.
            vec![None]
        } else {
            let rec = pop.record_entry(user, &pin, HandMode::OneHanded, &session, 5000 + global);
            let n_attempts = if chaos { 2 } else { 1 };
            (0..n_attempts)
                .map(|a| acquire(&rec, chaos, seed, global * 4 + a))
                .collect()
        };
        AuthRequest {
            request_id: global,
            user_id: d,
            claimed_pin: Some(pin.clone()),
            attempts,
        }
    });
    FleetScenario {
        system,
        store,
        requests,
        pin,
    }
}

/// Submits every request of the scenario through blocking admission
/// (FIFO backpressure) and returns the serve report plus the responses
/// of requests that were shed at submission (e.g. during shutdown).
pub fn run_fleet(
    scenario: &FleetScenario,
    server: &ServerConfig,
) -> (ServeReport, Vec<AuthResponse>) {
    run_fleet_obs(scenario, server, ServeObs::default())
}

/// [`run_fleet`] with observability sinks: optional sharded event-log
/// persistence and SLO tracking (see [`ServeObs`]).
pub fn run_fleet_obs(
    scenario: &FleetScenario,
    server: &ServerConfig,
    obs: ServeObs<'_>,
) -> (ServeReport, Vec<AuthResponse>) {
    serve_obs(
        &scenario.system,
        &scenario.store,
        server,
        obs,
        |submitter| {
            let mut shed = Vec::new();
            for req in scenario.requests.iter().cloned() {
                if let Err((req, why)) = submitter.submit_blocking(req) {
                    shed.push(AuthResponse {
                        request_id: req.request_id,
                        user_id: req.user_id,
                        verdict: SessionVerdict::Shed(why),
                        latency_ns: 0,
                        worker: usize::MAX,
                    });
                }
            }
            shed
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ShedReason;
    use crate::scheduler::serve;

    fn tiny() -> FleetConfig {
        FleetConfig {
            num_devices: 3,
            sessions_per_device: 2,
            enrolled_users: 1,
            seed: 11,
            chaos: false,
            hang_every: 0,
        }
    }

    #[test]
    fn every_request_gets_exactly_one_response() {
        let scenario = build_fleet(&tiny());
        assert_eq!(scenario.requests.len(), 6);
        assert_eq!(scenario.store.len(), 3);
        let (report, shed) = run_fleet(
            &scenario,
            &ServerConfig {
                num_workers: 2,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
        );
        assert!(shed.is_empty(), "blocking submission never sheds pre-close");
        assert_eq!(report.sessions.len(), 6, "one response per request");
        let mut ids: Vec<_> = report
            .sessions
            .iter()
            .map(|r| r.response.request_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        // Legitimate users on a clean link: sessions complete (and at
        // least some accept).
        assert!(report.sessions.iter().all(|r| !r.response.verdict.shed()));
        assert!(report
            .sessions
            .iter()
            .any(|r| r.response.verdict.accepted()));
        assert_eq!(report.ctx_leaks_repaired, 0);
    }

    #[test]
    fn unknown_user_sheds_typed() {
        let scenario = build_fleet(&tiny());
        let (report, _) = serve(
            &scenario.system,
            &scenario.store,
            &ServerConfig::default(),
            |submitter| {
                submitter
                    .submit_blocking(AuthRequest {
                        request_id: 99,
                        user_id: 4242, // never enrolled
                        claimed_pin: Some(scenario.pin.clone()),
                        attempts: vec![None],
                    })
                    .unwrap();
            },
        );
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(
            report.sessions[0].response.verdict,
            SessionVerdict::Shed(ShedReason::UnknownUser)
        );
        assert!(
            report.sessions[0].log.is_empty(),
            "shed session logs no events"
        );
    }

    #[test]
    fn hang_sessions_end_by_watchdog_not_by_hanging() {
        let cfg = FleetConfig {
            hang_every: 2,
            ..tiny()
        };
        let scenario = build_fleet(&cfg);
        let (report, _) = run_fleet(&scenario, &ServerConfig::default());
        assert_eq!(report.sessions.len(), 6);
        let aborted = report
            .sessions
            .iter()
            .filter(|r| {
                matches!(
                    r.response.verdict,
                    SessionVerdict::Completed {
                        state: p2auth_device::SupervisorState::Abort,
                        ..
                    }
                )
            })
            .count();
        assert!(aborted >= 3, "every hang session must watchdog-abort");
    }

    #[test]
    fn fleet_build_is_deterministic() {
        let a = build_fleet(&tiny());
        let b = build_fleet(&tiny());
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.request_id, y.request_id);
            assert_eq!(x.user_id, y.user_id);
            assert_eq!(x.attempts.len(), y.attempts.len());
            for (ax, ay) in x.attempts.iter().zip(&y.attempts) {
                match (ax, ay) {
                    (Some((ra, qa)), Some((rb, qb))) => {
                        assert_eq!(ra, rb);
                        assert_eq!(qa, qb);
                    }
                    (None, None) => {}
                    _ => panic!("attempt presence diverged"),
                }
            }
        }
    }
}
