//! The CLI commands: each returns its report as a `String` so the
//! binary stays a thin shell and the logic is testable.

use crate::args::{ArgError, ParsedArgs};
use crate::replay::{self, ChaosMode, RecordSpec, ReplayError};
use p2auth_core::preprocess::wear::{detect_wear, WearConfig};
use p2auth_core::{HandMode, P2Auth, P2AuthConfig, Pin, PinPolicy, UserProfile};
use p2auth_device::clock::VirtualClock;
use p2auth_device::{
    decide_session, transmit_reliable, FaultConfig, FaultyLink, LinkConfig, ReliableConfig,
    SessionOutcome, WearableDevice,
};
use p2auth_obs::events::Fnv64;
use p2auth_obs::{persist, ShardedEventStore, SloConfig, SloTracker};
use p2auth_server::{
    build_fleet, run_fleet_obs, FleetConfig, ServeObs, ServeRegion, ServeReport, ServerConfig,
    SessionVerdict,
};
use p2auth_sim::{Population, PopulationConfig, SessionConfig};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Error running a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Bad PIN.
    Pin(p2auth_core::PinError),
    /// Pipeline failure.
    Auth(p2auth_core::AuthError),
    /// Profile file I/O or (de)serialization failure.
    Io(String),
    /// Recording or replaying an event-sourced session failed (this is
    /// the variant a diverging `replay --verify` exits through).
    Replay(ReplayError),
    /// Unknown subcommand.
    UnknownCommand(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "argument error: {e}"),
            CliError::Pin(e) => write!(f, "PIN error: {e}"),
            CliError::Auth(e) => write!(f, "pipeline error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Replay(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try `p2auth help`"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<p2auth_core::PinError> for CliError {
    fn from(e: p2auth_core::PinError) -> Self {
        CliError::Pin(e)
    }
}

impl From<p2auth_core::AuthError> for CliError {
    fn from(e: p2auth_core::AuthError) -> Self {
        CliError::Auth(e)
    }
}

impl From<ReplayError> for CliError {
    fn from(e: ReplayError) -> Self {
        CliError::Replay(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
p2auth — PIN + keystroke-induced PPG two-factor authentication (ICDCS'23 reproduction)

USAGE:
    p2auth <command> [options]

COMMANDS:
    enroll    Enroll a simulated user and write the profile to a file
                --user N (0)  --pin DDDD (1628)  --out FILE (profile.json)
                --users N (8) --seed S (42)      [--boost] [--no-pin]
    verify    Authenticate an attempt against a stored profile
                --profile FILE (profile.json)  --pin DDDD (1628)
                --user N (0) | --attacker N --victim N (emulating attack)
                --nonce K (0) [--two-handed] [--no-pin]
    wear      Check watch-wear detection on a simulated signal
                --user N (0)  --seed S (42)
    fault     Stream sessions over a faulty link with NACK recovery
                --loss P (0.02)   --corrupt P (0.005)  --fault-seed S (1)
                --sessions N (3)  --user N (0)  --pin DDDD (1628)
                (uses the reduced feature budget for speed)
    trace     Trace one simulated enroll + authentication session:
              span tree, metrics report and flight-recorder tail
                --loss P (0.02)  --fault-seed S (1)  --user N (0)
                --pin DDDD (1628)  [--structure-only] [--json]
    quality   Assess per-keystroke signal quality under an injected
              sensor fault and run one supervised session
                --fault KIND (saturation: motion|saturation|detach|
                dropout|wander)  --intensity I (0.6)  --fault-seed S (1)
                --user N (0)  --pin DDDD (1628)  [--json]
    record    Record one supervised chaos session as an event log
              (schema p2auth.events.v1)
                --out FILE (session.events.json)
                --chaos MODE (none|sensor|link|both; default
                $P2AUTH_CHAOS_MODE or both)
                --chaos-seed S ($P2AUTH_CHAOS_SEED or 1)
                --users N (4)  --seed S (811)  --user N (0)
                --pin DDDD (1628)  --nonce K (0)
                --loss P (0.05)  --corrupt P (0.0125)
                [--fault KIND --intensity I] (named sensor preset)
    replay    Inspect or deterministically re-execute a recorded log
                p2auth replay <log> [--verify|--json|--summary]
                --verify re-runs the session from the log's embedded
                spec and diffs every event; a mismatch reports the
                first divergent event and exits nonzero. --summary
                (the default) and --json never re-execute.
              With --from-shard, <log> is a directory written by
              `fleet --persist`: lists every persisted session per
              shard; --request N selects one session (then --json
              dumps its canonical log); --verify checks every
              record's CRC framing, canonical re-encoding and digest
              against the recorded manifest and exits nonzero on any
              divergence.
    fleet     Serve a simulated device fleet through the sharded
              profile store and supervised worker pool; reports
              accept/abort mix, shed counts and latency quantiles
                --devices N (6)  --sessions N (3)  --workers N (4)
                --seed S (814)   --chaos MODE (on|off; default on)
                --p99-ms N (500, the SLO objective)
                --persist DIR (append session event logs to sharded
                segment files + manifest, then verify the read-back
                against the in-memory logs)
                [--inspect] (append the fleet introspection view)
                [--json]
              `p2auth fleet top` renders only the introspection view:
              per-shard sessions/sheds/latency, per-worker load, the
              SQI-rejection mix, SLO burn rate and top-5 slow sessions
              `p2auth fleet recover --persist DIR` replays a persisted
              shard store after a crash: completed-session accounting,
              its FNV-64 digest, and any in-flight (interrupted)
              sessions the intent journal surfaced
    help      Show this message

All data comes from the seeded simulator; the same seed always produces
the same cohort, so profiles and attempts are reproducible.";

fn population(args: &ParsedArgs) -> Result<(Population, SessionConfig), CliError> {
    let users = args.get_parsed("users", 8_usize)?;
    let seed = args.get_parsed("seed", 42_u64)?;
    let pop = Population::generate(&PopulationConfig {
        num_users: users,
        seed,
        ..Default::default()
    });
    Ok((pop, SessionConfig::default()))
}

fn pin_arg(args: &ParsedArgs) -> Result<Pin, CliError> {
    Ok(Pin::new(args.get("pin").unwrap_or("1628"))?)
}

fn system(args: &ParsedArgs) -> P2Auth {
    let mut cfg = P2AuthConfig::default();
    if args.has("boost") {
        cfg.privacy_boost = true;
    }
    if args.has("no-pin") {
        cfg.pin_policy = PinPolicy::NoPinAllowed;
    }
    P2Auth::new(cfg)
}

/// `p2auth enroll`.
pub fn enroll(args: &ParsedArgs) -> Result<String, CliError> {
    let (pop, session) = population(args)?;
    let user = args.get_parsed("user", 0_usize)?;
    let pin = pin_arg(args)?;
    let out = args.get("out").unwrap_or("profile.json").to_string();
    let sys = system(args);

    let enroll_recs: Vec<_> = (0..9)
        .map(|i| pop.record_entry(user, &pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<_> = (0..60)
        .map(|i| {
            let other = (user + 1 + (i as usize % (pop.num_users() - 1))) % pop.num_users();
            pop.record_entry(other, &pin, HandMode::OneHanded, &session, 5000 + i as u64)
        })
        .collect();
    let profile = if args.has("no-pin") {
        sys.enroll_no_pin(&enroll_recs, &third)?
    } else {
        sys.enroll(&pin, &enroll_recs, &third)?
    };
    write_profile(&profile, Path::new(&out))?;
    Ok(format!(
        "enrolled user {user} (PIN {pin}{}) -> {out}\nmodels: full={} boost={} per-key digits {:?}",
        if args.has("no-pin") {
            ", no-PIN mode"
        } else {
            ""
        },
        profile.has_full_model(),
        profile.has_boost_model(),
        profile.enrolled_keys(),
    ))
}

/// `p2auth verify`.
pub fn verify(args: &ParsedArgs) -> Result<String, CliError> {
    let (pop, session) = population(args)?;
    let pin = pin_arg(args)?;
    let path = args.get("profile").unwrap_or("profile.json").to_string();
    let profile = read_profile(Path::new(&path))?;
    let sys = system(args);
    let nonce = args.get_parsed("nonce", 0_u64)?;
    let mode = if args.has("two-handed") {
        HandMode::TwoHanded
    } else {
        HandMode::OneHanded
    };

    let (attempt, who) = match (args.get("attacker"), args.get("victim")) {
        (Some(_), Some(_)) => {
            let attacker = args.get_parsed("attacker", 1_usize)?;
            let victim = args.get_parsed("victim", 0_usize)?;
            (
                pop.record_emulating_attack(attacker, victim, &pin, mode, &session, nonce),
                format!("emulating attack: user {attacker} imitating user {victim}"),
            )
        }
        _ => {
            let user = args.get_parsed("user", 0_usize)?;
            (
                pop.record_entry(user, &pin, mode, &session, 9000 + nonce),
                format!("legitimate attempt by user {user}"),
            )
        }
    };
    let decision = if args.has("no-pin") {
        sys.authenticate_no_pin(&profile, &attempt)?
    } else {
        sys.authenticate(&profile, &pin, &attempt)?
    };
    Ok(format!(
        "{who}\ncase: {:?}\nresult: {} (score {:+.3}{})",
        decision.case,
        if decision.accepted {
            "ACCEPTED"
        } else {
            "REJECTED"
        },
        decision.score,
        decision
            .reason
            .map(|r| format!(", reason {r:?}"))
            .unwrap_or_default(),
    ))
}

/// `p2auth wear`.
pub fn wear(args: &ParsedArgs) -> Result<String, CliError> {
    let (pop, session) = population(args)?;
    let user = args.get_parsed("user", 0_usize)?;
    // Wear detection monitors idle signal between authentications
    // (paper §VI), not PIN entries.
    let idle = pop.record_idle(user, 8.0, &session, 0);
    let status = detect_wear(&idle[0], session.sample_rate, &WearConfig::default());
    let mut out = format!(
        "worn: {} (periodicity {:.2})",
        status.worn, status.periodicity
    );
    if let Some(hr) = status.heart_rate_hz {
        out.push_str(&format!(", estimated heart rate {:.0} bpm", hr * 60.0));
    }
    Ok(out)
}

/// `p2auth fault`: end-to-end sessions over a lossy, corrupting link
/// with the retransmission layer and coverage-gated decisions.
pub fn fault(args: &ParsedArgs) -> Result<String, CliError> {
    let (pop, session) = population(args)?;
    let pin = pin_arg(args)?;
    let loss = args.get_parsed("loss", 0.02_f64)?;
    let corrupt = args.get_parsed("corrupt", 0.005_f64)?;
    let fault_seed = args.get_parsed("fault-seed", 1_u64)?;
    let sessions = args.get_parsed("sessions", 3_usize)?;
    let user = args.get_parsed("user", 0_usize)?;

    let sys = P2Auth::new(P2AuthConfig::fast());
    let enroll_recs: Vec<_> = (0..6)
        .map(|i| pop.record_entry(user, &pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<_> = (0..12)
        .map(|i| {
            let other = (user + 1 + (i as usize % (pop.num_users() - 1))) % pop.num_users();
            pop.record_entry(other, &pin, HandMode::OneHanded, &session, 5000 + i as u64)
        })
        .collect();
    let profile = sys.enroll(&pin, &enroll_recs, &third)?;

    let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
    let faults = FaultConfig {
        drop_rate: loss,
        corrupt_rate: corrupt,
        ..FaultConfig::default()
    };
    let mut out =
        format!("link faults: loss {loss:.3}, corruption {corrupt:.4}, seed {fault_seed}\n");
    let mut accepted = 0_usize;
    for s in 0..sessions {
        let rec = pop.record_entry(user, &pin, HandMode::OneHanded, &session, 7000 + s as u64);
        let mut data = FaultyLink::new(
            LinkConfig::default(),
            FaultConfig {
                seed: fault_seed + 2 * s as u64,
                ..faults
            },
        );
        let mut keys = FaultyLink::new(
            LinkConfig {
                seed: 0x4b,
                ..LinkConfig::default()
            },
            FaultConfig {
                seed: fault_seed + 2 * s as u64 + 1,
                ..faults
            },
        );
        let (result, stats) = transmit_reliable(
            &rec,
            &device,
            &mut data,
            &mut keys,
            &ReliableConfig::default(),
        );
        match result {
            Ok((rebuilt, quality)) => {
                let outcome = decide_session(&sys, &profile, Some(&pin), &rebuilt, quality);
                if outcome.accepted() {
                    accepted += 1;
                }
                let label = match &outcome {
                    SessionOutcome::Decision(d) => {
                        if d.accepted {
                            "ACCEPTED".to_string()
                        } else {
                            "REJECTED".to_string()
                        }
                    }
                    SessionOutcome::Degraded {
                        decision,
                        coverage,
                        gap_blocks,
                    } => {
                        let why = format!("coverage {coverage:.3}, {gap_blocks} gap blocks");
                        if decision.accepted {
                            format!("ACCEPTED (degraded, PIN only: {why})")
                        } else {
                            format!("REJECTED (degraded: {why})")
                        }
                    }
                    SessionOutcome::Abort {
                        reason, gap_blocks, ..
                    } => format!("ABORTED ({reason}, {gap_blocks} gap blocks)"),
                };
                out.push_str(&format!("session {s}: {label}, link {quality}, {stats}\n"));
            }
            Err(e) => {
                out.push_str(&format!("session {s}: TRANSFER FAILED ({e}), {stats}\n"));
            }
        }
    }
    out.push_str(&format!(
        "accepted {accepted}/{sessions} legitimate sessions"
    ));
    Ok(out)
}

/// `p2auth trace`: one simulated enroll + authentication session with
/// span capture on, reported as a span tree, the metrics registry and
/// the flight-recorder tail. `--structure-only` prints just the sorted
/// span paths (the golden-file format); `--json` emits the machine
/// report (schema `p2auth.obs.v1`).
pub fn trace(args: &ParsedArgs) -> Result<String, CliError> {
    let (pop, session) = population(args)?;
    let pin = pin_arg(args)?;
    let user = args.get_parsed("user", 0_usize)?;
    let loss = args.get_parsed("loss", 0.02_f64)?;
    let fault_seed = args.get_parsed("fault-seed", 1_u64)?;

    p2auth_obs::reset();
    p2auth_obs::span::enable_capture();

    // Enrollment (reduced feature budget: the trace is about structure
    // and per-stage cost, not accuracy).
    let sys = P2Auth::new(P2AuthConfig::fast());
    let enroll_recs: Vec<_> = (0..6)
        .map(|i| pop.record_entry(user, &pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<_> = (0..12)
        .map(|i| {
            let other = (user + 1 + (i as usize % (pop.num_users() - 1))) % pop.num_users();
            pop.record_entry(other, &pin, HandMode::OneHanded, &session, 5000 + i as u64)
        })
        .collect();
    let profile = sys.enroll(&pin, &enroll_recs, &third)?;

    // One authentication streamed over a lossy link with NACK recovery.
    // The loss realization depends on the RNG backend, so scan fault
    // seeds until the transfer recovers to full-path coverage; failed
    // attempts only produce a subset of the successful span paths, so
    // the traced structure stays deterministic.
    let rec = pop.record_entry(user, &pin, HandMode::OneHanded, &session, 7000);
    let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
    let mut recovered = None;
    for s in 0..40_u64 {
        let faults = FaultConfig {
            drop_rate: loss,
            corrupt_rate: loss / 4.0,
            seed: fault_seed + 2 * s,
            ..FaultConfig::default()
        };
        let mut data = FaultyLink::new(LinkConfig::default(), faults);
        let mut keys = FaultyLink::new(
            LinkConfig {
                seed: 0x4b,
                ..LinkConfig::default()
            },
            FaultConfig {
                seed: fault_seed + 2 * s + 1,
                ..faults
            },
        );
        let (result, stats) = transmit_reliable(
            &rec,
            &device,
            &mut data,
            &mut keys,
            &ReliableConfig::default(),
        );
        match result {
            Ok((rebuilt, quality)) if quality.coverage >= sys.config().min_ppg_coverage => {
                recovered = Some((rebuilt, quality, stats));
                break;
            }
            _ => {}
        }
    }
    let Some((rebuilt, quality, stats)) = recovered else {
        return Err(CliError::Io(format!(
            "no transfer realization recovered at loss {loss}"
        )));
    };
    let outcome = decide_session(&sys, &profile, Some(&pin), &rebuilt, quality);

    let records = p2auth_obs::span::take_capture();
    if args.has("structure-only") {
        return Ok(p2auth_obs::report::span_paths(&records).join("\n"));
    }
    let report = p2auth_obs::report::collect();
    if args.has("json") {
        return Ok(p2auth_obs::report::render_json(&report));
    }

    let mut out = format!(
        "traced enroll + 1 auth session (user {user}, loss {loss:.3})\n\
         link {quality}\ntransfer {stats}\noutcome: {}\n\nspan tree:\n{}\n{}",
        match &outcome {
            SessionOutcome::Decision(d) =>
                if d.accepted {
                    "ACCEPTED".to_string()
                } else {
                    format!("REJECTED ({:?})", d.reason)
                },
            SessionOutcome::Degraded {
                coverage,
                gap_blocks,
                ..
            } => format!("DEGRADED (coverage {coverage:.3}, {gap_blocks} gap blocks)"),
            SessionOutcome::Abort { reason, .. } => format!("ABORTED ({reason})"),
        },
        p2auth_obs::report::span_tree(&records),
        p2auth_obs::report::render_text(&report),
    );
    let tail = p2auth_obs::recorder::render_dump(&report.events, 12);
    if !tail.is_empty() {
        out.push_str(&format!("flight recorder tail:\n{tail}"));
    }
    Ok(out)
}

/// `p2auth quality`: inject a sensor fault into one simulated PIN
/// entry, score every keystroke's SQI against the enrolled profile,
/// and run the attempt through a supervised session (SQI gating +
/// bounded re-prompts). `--json` emits a machine-readable report.
pub fn quality(args: &ParsedArgs) -> Result<String, CliError> {
    use p2auth_device::{run_supervised, SupervisorConfig};
    use p2auth_sim::{inject_sensor_faults, SensorFaultConfig, SensorFaultKind};

    let (pop, session) = population(args)?;
    let pin = pin_arg(args)?;
    let user = args.get_parsed("user", 0_usize)?;
    let kind_name = args.get("fault").unwrap_or("saturation");
    let kind = SensorFaultKind::parse(kind_name).ok_or_else(|| {
        CliError::Io(format!(
            "unknown fault kind {kind_name:?}; expected motion|saturation|detach|dropout|wander"
        ))
    })?;
    let intensity = args.get_parsed("intensity", 0.6_f64)?;
    let fault_seed = args.get_parsed("fault-seed", 1_u64)?;

    let sys = P2Auth::new(P2AuthConfig::fast());
    let enroll_recs: Vec<_> = (0..6)
        .map(|i| pop.record_entry(user, &pin, HandMode::OneHanded, &session, i))
        .collect();
    let third: Vec<_> = (0..12)
        .map(|i| {
            let other = (user + 1 + (i as usize % (pop.num_users() - 1))) % pop.num_users();
            pop.record_entry(other, &pin, HandMode::OneHanded, &session, 5000 + i as u64)
        })
        .collect();
    let profile = sys.enroll(&pin, &enroll_recs, &third)?;

    let faults = SensorFaultConfig::preset(kind, intensity, fault_seed);
    let attempt = pop.record_entry(user, &pin, HandMode::OneHanded, &session, 8000);
    let (faulted, stats) = inject_sensor_faults(&attempt, &faults, 0);
    let assessment = sys.assess_quality(&profile, &faulted)?;

    // Perfect link: this command isolates sensor faults.
    let link = p2auth_device::LinkQuality {
        coverage: 1.0,
        expected_blocks: 1,
        received_blocks: 1,
        gap_blocks: 0,
    };
    let outcome = run_supervised(
        &sys,
        &profile,
        Some(&pin),
        &SupervisorConfig::default(),
        |attempt_no| {
            let rec = pop.record_entry(
                user,
                &pin,
                HandMode::OneHanded,
                &session,
                8000 + u64::from(attempt_no),
            );
            let (f, _) = inject_sensor_faults(&rec, &faults, u64::from(attempt_no));
            Some((f, link))
        },
    );

    if args.has("json") {
        let keystrokes = assessment
            .per_keystroke
            .iter()
            .map(|k| {
                let (sqi, flags) = match &k.quality {
                    Some(q) => (format!("{:.4}", q.sqi), format!("\"{}\"", q.flags)),
                    None => ("null".to_string(), "null".to_string()),
                };
                format!(
                    "    {{ \"index\": {}, \"digit\": {}, \"detected\": {}, \
                     \"sqi\": {sqi}, \"flags\": {flags} }}",
                    k.index, k.digit, k.detected
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        return Ok(format!(
            "{{\n  \"fault\": \"{kind}\",\n  \"intensity\": {intensity},\n  \
             \"fault_seed\": {fault_seed},\n  \"detected\": {},\n  \"usable\": {},\n  \
             \"mean_sqi\": {:.4},\n  \"keystrokes\": [\n{keystrokes}\n  ],\n  \
             \"session\": {{ \"state\": \"{}\", \"attempts\": {}, \"accepted\": {} }}\n}}",
            assessment.detected,
            assessment.usable,
            assessment.mean_sqi,
            outcome.state,
            outcome.attempts,
            outcome.accepted(),
        ));
    }

    let mut out = format!(
        "sensor fault: {kind} at intensity {intensity:.2} (seed {fault_seed})\n\
         injected: {} motion bursts, {} saturation episodes, {} detach episodes, \
         {} dropout runs\n\n  key  digit  detected  sqi     flags\n",
        stats.motion_bursts, stats.saturation_episodes, stats.detach_episodes, stats.dropout_runs,
    );
    for k in &assessment.per_keystroke {
        let (sqi, flags) = match &k.quality {
            Some(q) => (format!("{:.3}", q.sqi), q.flags.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "  {:<4} {:<6} {:<9} {:<7} {}\n",
            k.index, k.digit, k.detected, sqi, flags
        ));
    }
    out.push_str(&format!(
        "\ndetected {} / usable {} keystrokes, mean SQI {:.3}\n\
         supervised session: {} after {} attempt(s){}",
        assessment.detected,
        assessment.usable,
        assessment.mean_sqi,
        outcome.state.as_str().to_uppercase(),
        outcome.attempts,
        outcome
            .outcome
            .as_ref()
            .and_then(|o| o.decision())
            .and_then(|d| d.reason)
            .map(|r| format!(", reason {r:?}"))
            .unwrap_or_default(),
    ));
    Ok(out)
}

/// `p2auth record`: run one supervised chaos session (the
/// `session_chaos` CI flow: seeded sensor faults + seeded link faults,
/// SQI gating, bounded re-prompts) with the event recorder tapped in,
/// and write the `p2auth.events.v1` log to a file. The log embeds the
/// full record spec, so `p2auth replay --verify` needs nothing else.
pub fn record(args: &ParsedArgs) -> Result<String, CliError> {
    use p2auth_sim::SensorFaultKind;

    // CLI flags win; the chaos-matrix environment variables supply the
    // defaults so the CI lane can drive this without repeating them.
    let chaos_env = std::env::var("P2AUTH_CHAOS_MODE").ok();
    let chaos_name = args
        .get("chaos")
        .map(str::to_string)
        .or(chaos_env)
        .unwrap_or_else(|| "both".to_string());
    let chaos = ChaosMode::parse(&chaos_name).ok_or_else(|| {
        CliError::Io(format!(
            "unknown chaos mode {chaos_name:?}; expected none|sensor|link|both"
        ))
    })?;
    let chaos_seed_env = std::env::var("P2AUTH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_u64);
    let sensor_preset = match args.get("fault") {
        None => None,
        Some(name) => {
            let kind = SensorFaultKind::parse(name).ok_or_else(|| {
                CliError::Io(format!(
                    "unknown fault kind {name:?}; expected motion|saturation|detach|dropout|wander"
                ))
            })?;
            Some((kind, args.get_parsed("intensity", 0.6_f64)?))
        }
    };
    let spec = RecordSpec {
        users: args.get_parsed("users", 4_usize)?,
        population_seed: args.get_parsed("seed", 811_u64)?,
        user: args.get_parsed("user", 0_usize)?,
        pin: args.get("pin").unwrap_or("1628").to_string(),
        nonce: args.get_parsed("nonce", 0_u64)?,
        chaos,
        chaos_seed: args.get_parsed("chaos-seed", chaos_seed_env)?,
        loss: args.get_parsed("loss", 0.05_f64)?,
        corrupt: args.get_parsed("corrupt", 0.0125_f64)?,
        sensor_preset,
    };
    let out = args.get("out").unwrap_or("session.events.json").to_string();
    let (log, outcome) = replay::record_session(&spec)?;
    std::fs::write(&out, log.encode()).map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    Ok(format!(
        "recorded session (chaos {chaos}, seed {}): {} after {} attempt(s), \
         {} events -> {out}",
        spec.chaos_seed,
        outcome.state.as_str(),
        outcome.attempts,
        log.len(),
    ))
}

/// `p2auth replay <log>`: summarize (default / `--summary`), dump the
/// canonical encoding (`--json`), or re-execute and diff (`--verify`).
/// With `--from-shard` the argument is a shard **directory** written by
/// `fleet --persist`: list its sessions, pick one with `--request N`,
/// or `--verify` every record against `manifest.json`.
pub fn replay_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args
        .arg
        .as_deref()
        .ok_or_else(|| CliError::Io("replay requires a log path argument".to_string()))?;
    if args.has("from-shard") {
        return replay_from_shard(path, args);
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let log = p2auth_obs::EventLog::decode(&text).map_err(ReplayError::Log)?;
    if args.has("verify") {
        let outcome = replay::verify_replay(&log)?;
        return Ok(format!(
            "replay verified: {} events bit-identical; session {} after {} attempt(s)",
            log.len(),
            outcome.state.as_str(),
            outcome.attempts,
        ));
    }
    if args.has("json") {
        return Ok(log.encode());
    }
    Ok(replay::summarize(&log))
}

/// One session pulled back out of a shard directory.
struct ShardSession {
    shard_idx: u32,
    payload_len: usize,
    request_id: u64,
    log: p2auth_obs::EventLog,
}

/// Decodes every record of every readable shard in `dir`. Returns the
/// sessions plus a list of per-shard warnings (torn tails, unreadable
/// shards) so the default listing can surface them without failing.
fn read_shard_sessions(dir: &str) -> Result<(Vec<ShardSession>, Vec<String>), CliError> {
    let mut sessions = Vec::new();
    let mut warnings = Vec::new();
    for (path, read) in persist::read_store_dir(Path::new(dir))
        .map_err(|e| CliError::Io(format!("reading {dir}: {e}")))?
    {
        let read = match read {
            Ok(read) => read,
            Err(e) => {
                warnings.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        if read.torn_bytes > 0 {
            warnings.push(format!(
                "{}: dropped torn tail ({} bytes) — crash before flush",
                path.display(),
                read.torn_bytes
            ));
        }
        for payload in &read.records {
            let text = std::str::from_utf8(payload)
                .map_err(|e| CliError::Io(format!("{}: non-utf8 record: {e}", path.display())))?;
            let log = p2auth_obs::EventLog::decode(text).map_err(ReplayError::Log)?;
            let request_id = log
                .meta_get("request_id")
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX);
            sessions.push(ShardSession {
                shard_idx: read.shard_idx,
                payload_len: payload.len(),
                request_id,
                log,
            });
        }
    }
    sessions.sort_by_key(|s| s.request_id);
    Ok((sessions, warnings))
}

/// The `--from-shard` side of `replay`: list, select, or verify the
/// persisted fleet session logs in a shard directory.
fn replay_from_shard(dir: &str, args: &ParsedArgs) -> Result<String, CliError> {
    let (sessions, warnings) = read_shard_sessions(dir)?;
    if args.has("verify") {
        return verify_shard_dir(dir, &sessions, &warnings);
    }
    if let Some(request) = args.get("request") {
        let want: u64 = request.parse().map_err(|e| {
            CliError::Args(ArgError::BadValue {
                flag: "request".to_string(),
                detail: format!("{e}"),
            })
        })?;
        let hit = sessions
            .iter()
            .find(|s| s.request_id == want)
            .ok_or_else(|| {
                CliError::Io(format!("request {want} not found in {dir} shard files"))
            })?;
        if args.has("json") {
            return Ok(hit.log.encode());
        }
        return Ok(replay::summarize(&hit.log));
    }
    let mut out = format!("{dir}: {} persisted session logs\n", sessions.len());
    for w in &warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    out.push_str("request  user  shard  events  bytes\n");
    for s in &sessions {
        let user = s.log.meta_get("user_id").unwrap_or("?");
        let _ = writeln!(
            out,
            "  {:>6} {:>5} {:>6} {:>7} {:>6}",
            s.request_id,
            user,
            s.shard_idx,
            s.log.len(),
            s.payload_len,
        );
    }
    out.push_str("pick one with --request N (--json dumps, default summarizes); --verify checks manifest.json");
    Ok(out)
}

/// `replay <dir> --from-shard --verify`: every persisted record must
/// re-encode canonically to its own bytes, hash to the digest the fleet
/// recorded in `manifest.json`, and sit in the shard its user id maps
/// to — and every manifest entry must be present. Any mismatch is a
/// hard error (nonzero exit).
fn verify_shard_dir(
    dir: &str,
    sessions: &[ShardSession],
    warnings: &[String],
) -> Result<String, CliError> {
    if let Some(w) = warnings.first() {
        return Err(CliError::Io(format!("shard store not clean: {w}")));
    }
    let manifest_path = Path::new(dir).join("manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| CliError::Io(format!("{}: {e}", manifest_path.display())))?;
    let manifest = p2auth_obs::json::parse(&manifest_text)
        .map_err(|e| CliError::Io(format!("{}: {e}", manifest_path.display())))?;
    if manifest
        .get("schema")
        .and_then(p2auth_obs::json::JsonValue::as_str)
        != Some("p2auth.fleet-shards.v1")
    {
        return Err(CliError::Io(format!(
            "{}: not a p2auth.fleet-shards.v1 manifest",
            manifest_path.display()
        )));
    }
    let shard_count = manifest
        .get("shard_count")
        .and_then(p2auth_obs::json::JsonValue::as_f64)
        .ok_or_else(|| CliError::Io("manifest missing shard_count".to_string()))?
        as usize;
    let entries = manifest
        .get("sessions")
        .and_then(p2auth_obs::json::JsonValue::as_array)
        .ok_or_else(|| CliError::Io("manifest missing sessions array".to_string()))?;
    let mut expected: std::collections::BTreeMap<u64, (u64, u64, String)> =
        std::collections::BTreeMap::new();
    for e in entries {
        let field = |k: &str| -> Result<f64, CliError> {
            e.get(k)
                .and_then(p2auth_obs::json::JsonValue::as_f64)
                .ok_or_else(|| CliError::Io(format!("manifest session missing {k}")))
        };
        let digest = e
            .get("digest")
            .and_then(p2auth_obs::json::JsonValue::as_str)
            .ok_or_else(|| CliError::Io("manifest session missing digest".to_string()))?;
        expected.insert(
            field("request_id")? as u64,
            (
                field("user_id")? as u64,
                field("events")? as u64,
                digest.to_string(),
            ),
        );
    }
    let mut verified = 0_usize;
    for s in sessions {
        let (user_id, events, digest) = expected.get(&s.request_id).ok_or_else(|| {
            CliError::Io(format!(
                "request {} persisted but absent from the manifest",
                s.request_id
            ))
        })?;
        let encoded = s.log.encode();
        if log_digest(&encoded) != *digest {
            return Err(CliError::Io(format!(
                "request {}: digest mismatch vs manifest (persisted log altered?)",
                s.request_id
            )));
        }
        if s.log.len() as u64 != *events {
            return Err(CliError::Io(format!(
                "request {}: {} events persisted, manifest says {events}",
                s.request_id,
                s.log.len()
            )));
        }
        let want_shard = persist::shard_of(*user_id, shard_count);
        if s.shard_idx as usize != want_shard {
            return Err(CliError::Io(format!(
                "request {}: found in shard {} but user {user_id} routes to {want_shard}",
                s.request_id, s.shard_idx
            )));
        }
        verified += 1;
    }
    if verified != expected.len() {
        let missing: Vec<u64> = expected
            .keys()
            .filter(|id| sessions.iter().all(|s| s.request_id != **id))
            .copied()
            .collect();
        return Err(CliError::Io(format!(
            "manifest lists {} sessions but only {verified} persisted; missing requests {missing:?}",
            expected.len()
        )));
    }
    Ok(format!(
        "shard replay verified: {verified} session logs across {shard_count} shards, \
         zero divergence (canonical re-encode + digest + shard routing all match)"
    ))
}

/// `p2auth fleet`: a miniature of the `fleet_bench` sweep — one serve
/// region over a simulated device fleet, reported interactively.
/// `--persist DIR` additionally appends every session's event log to a
/// sharded segment store (then verifies the read-back bit-for-bit
/// against the in-memory logs and writes a digest manifest for
/// `replay --from-shard --verify`); `--inspect` appends the fleet
/// introspection view, and `p2auth fleet top` renders only that view.
pub fn fleet(args: &ParsedArgs) -> Result<String, CliError> {
    let top_only = args.arg.as_deref() == Some("top");
    if args.arg.as_deref() == Some("recover") {
        return fleet_recover(args);
    }
    if let Some(other) = args.arg.as_deref().filter(|a| *a != "top") {
        return Err(CliError::Io(format!(
            "unknown fleet view {other:?}; try `p2auth fleet top` or `p2auth fleet recover`"
        )));
    }
    let devices = args.get_parsed("devices", 6_usize)?.max(1);
    let sessions = args.get_parsed("sessions", 3_usize)?.max(1);
    let workers = args.get_parsed("workers", 4_usize)?.max(1);
    let seed = args.get_parsed("seed", 814_u64)?;
    let p99_ms = args.get_parsed("p99-ms", 500_u64)?;
    let chaos = match args.get("chaos").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                flag: "chaos".to_string(),
                detail: format!("expected on|off, got {other:?}"),
            }))
        }
    };
    let scenario = build_fleet(&FleetConfig {
        num_devices: devices,
        sessions_per_device: sessions,
        enrolled_users: devices.min(3),
        seed,
        chaos,
        hang_every: 0,
    });
    let server = ServerConfig {
        num_workers: workers,
        queue_capacity: (2 * workers).max(4),
        ..ServerConfig::default()
    };
    let slo = SloTracker::new(SloConfig {
        p99_objective_ns: p99_ms.saturating_mul(1_000_000),
        ..SloConfig::default()
    });
    let persist_dir = args.get("persist").map(str::to_string);
    let store = match &persist_dir {
        Some(dir) => Some(
            ShardedEventStore::create(Path::new(dir), server.shard_count, 8)
                .map_err(|e| CliError::Io(format!("{dir}: {e}")))?,
        ),
        None => None,
    };
    let (report, shed_at_submit) = run_fleet_obs(
        &scenario,
        &server,
        ServeObs {
            persist: store.as_ref(),
            slo: Some(&slo),
            ..ServeObs::default()
        },
    );
    // Durable read-back verification: every persisted record must be
    // bit-identical to the in-memory log the worker produced.
    let persist_note = match (&store, &persist_dir) {
        (Some(st), Some(dir)) => {
            st.flush()
                .map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
            Some(persist_verify_and_manifest(&report, st, dir)?)
        }
        _ => None,
    };

    let total = scenario.requests.len();
    let mut accepts = 0_usize;
    let mut rejects = 0_usize;
    let mut aborts = 0_usize;
    let mut crashes = 0_usize;
    let mut shed = shed_at_submit.len();
    let mut latencies: Vec<u64> = Vec::with_capacity(report.sessions.len());
    for r in &report.sessions {
        latencies.push(r.response.latency_ns);
        match &r.response.verdict {
            SessionVerdict::Completed { accepted: true, .. } => accepts += 1,
            SessionVerdict::Completed { state, .. }
                if *state == p2auth_device::SupervisorState::Abort =>
            {
                aborts += 1;
            }
            SessionVerdict::Completed { .. } => rejects += 1,
            SessionVerdict::Shed(_) => shed += 1,
            SessionVerdict::Crashed { .. } => crashes += 1,
        }
    }
    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let n = latencies.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        latencies[rank - 1]
    };
    let (p50, p95, p99) = (quantile(0.50), quantile(0.95), quantile(0.99));
    let slo_report = slo.report();

    if top_only {
        return Ok(fleet_top_view(
            &report,
            shed_at_submit.len(),
            &slo_report,
            server.shard_count,
            workers,
        ));
    }
    if args.has("json") {
        return Ok(format!(
            "{{ \"devices\": {devices}, \"sessions_per_device\": {sessions}, \
             \"workers\": {workers}, \"seed\": {seed}, \"chaos\": {chaos}, \
             \"requests\": {total}, \"responses\": {}, \"accepts\": {accepts}, \
             \"rejects\": {rejects}, \"aborts\": {aborts}, \"crashes\": {crashes}, \
             \"shed\": {shed}, \
             \"p50_ns\": {p50}, \"p95_ns\": {p95}, \"p99_ns\": {p99}, \
             \"slo_alert\": {}, \"persisted\": {}, \
             \"ctx_leaks_repaired\": {} }}",
            report.sessions.len() + shed_at_submit.len(),
            slo_report.alert,
            store.as_ref().map_or(0, ShardedEventStore::appended),
            report.ctx_leaks_repaired,
        ));
    }
    let mut out = format!(
        "fleet: {devices} devices x {sessions} sessions, {workers} workers, \
         chaos {}, seed {seed}\n\
         responses: {}/{total} (accepted {accepts}, rejected {rejects}, \
         aborted {aborts}, crashed {crashes}, shed {shed})\n\
         latency: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us\n\
         ctx leaks repaired: {}",
        if chaos { "on" } else { "off" },
        report.sessions.len() + shed_at_submit.len(),
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3,
        report.ctx_leaks_repaired,
    );
    if let Some(note) = persist_note {
        out.push('\n');
        out.push_str(&note);
    }
    if args.has("inspect") {
        out.push('\n');
        out.push_str(&fleet_top_view(
            &report,
            shed_at_submit.len(),
            &slo_report,
            server.shard_count,
            workers,
        ));
    }
    Ok(out)
}

/// `p2auth fleet recover --persist DIR`: warm-restart view of a
/// persisted shard store — replays every shard, rebuilds the
/// completed-session accounting and its digest, and lists the
/// in-flight sessions the intent journal says a crash interrupted.
fn fleet_recover(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args
        .get("persist")
        .ok_or_else(|| CliError::Io("fleet recover needs --persist DIR".to_string()))?;
    let region =
        ServeRegion::recover(Path::new(dir)).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    let acc = region.completed;
    let mut out = format!(
        "recovered {dir}: {} completed sessions (accepted {}, rejected {}, \
         aborted {}, crashed {}, shed {})\n\
         accounting digest: {:016x}\n\
         torn bytes dropped: {}, undecodable records: {}, failed shards: {}",
        acc.sessions,
        acc.accepts,
        acc.rejects,
        acc.aborts,
        acc.crashes,
        acc.sheds,
        region.accounting_digest(),
        region.torn_bytes,
        region.undecodable_records,
        region.failed_shards.len(),
    );
    for (path, err) in &region.failed_shards {
        let _ = write!(out, "\n  failed shard {}: {err}", path.display());
    }
    if region.in_flight.is_empty() {
        out.push_str("\nin-flight: none (clean shutdown or no intent journal)");
    } else {
        let _ = write!(out, "\nin-flight ({} interrupted):", region.in_flight.len());
        for s in &region.in_flight {
            let _ = write!(out, "\n  request {} user {}", s.request_id, s.user_id);
        }
    }
    if region.prior_interruptions > 0 {
        let _ = write!(
            out,
            "\nprior restarts left {} interruption markers",
            region.prior_interruptions
        );
    }
    Ok(out)
}

/// Short human label for a session verdict.
fn verdict_label(verdict: &SessionVerdict) -> String {
    match verdict {
        SessionVerdict::Completed { accepted: true, .. } => "accepted".to_string(),
        SessionVerdict::Completed { state, .. } => state.as_str().to_string(),
        SessionVerdict::Shed(why) => format!("shed:{why:?}"),
        SessionVerdict::Crashed { .. } => "crashed".to_string(),
    }
}

/// Renders the fleet introspection view (`fleet top` / `--inspect`):
/// per-shard load and latency from the merged per-worker metrics,
/// per-worker session counts, the shed and SQI-rejection mix mined
/// from the session logs, the SLO burn line, and the top-5 slowest
/// sessions.
fn fleet_top_view(
    report: &ServeReport,
    shed_at_submit: usize,
    slo: &p2auth_obs::SloReport,
    shard_count: usize,
    workers: usize,
) -> String {
    let m = &report.metrics;
    let mut out = format!(
        "fleet top — {shard_count} shards, {workers} workers, {} sessions\n",
        report.sessions.len()
    );
    out.push_str("shard  sessions  accepts  sheds       p50       p99\n");
    for s in 0..shard_count {
        let sessions = m.counter(&format!("server.shard.{s:02}.sessions"));
        if sessions == 0 {
            continue;
        }
        let accepts = m.counter(&format!("server.shard.{s:02}.accepts"));
        let sheds = m.counter(&format!("server.shard.{s:02}.sheds"));
        let (p50, p99) = m
            .histogram(&format!("server.shard.{s:02}.latency_ns"))
            .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
        let _ = writeln!(
            out,
            "  {s:3} {sessions:9} {accepts:8} {sheds:6} {:>9} {:>9}",
            p2auth_obs::report::fmt_ns(p50),
            p2auth_obs::report::fmt_ns(p99),
        );
    }
    out.push_str("workers:");
    for w in 0..workers {
        let count = report
            .sessions
            .iter()
            .filter(|r| r.response.worker == w)
            .count();
        let _ = write!(out, " w{w}={count}");
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shed: at_submit={shed_at_submit} unknown_user={}",
        m.counter("server.shed_unknown_user"),
    );
    // SQI-rejection mix: the last decision of every non-accepted
    // session, keyed by its recorded reason.
    let mut mix: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for r in &report.sessions {
        if matches!(
            r.response.verdict,
            SessionVerdict::Completed { accepted: true, .. } | SessionVerdict::Shed(_)
        ) {
            continue;
        }
        let reason = r
            .log
            .events
            .iter()
            .rev()
            .find_map(|e| match &e.event {
                p2auth_obs::SessionEvent::Decision { kind, reason, .. } => Some(
                    reason
                        .clone()
                        .map_or_else(|| kind.clone(), |why| format!("{kind}:{why}")),
                ),
                _ => None,
            })
            .unwrap_or_else(|| verdict_label(&r.response.verdict));
        *mix.entry(reason).or_insert(0) += 1;
    }
    out.push_str("rejection mix:");
    if mix.is_empty() {
        out.push_str(" none");
    }
    for (reason, count) in &mix {
        let _ = write!(out, " {reason}={count}");
    }
    out.push('\n');
    out.push_str(&slo.render_text());
    out.push('\n');
    let mut slow: Vec<_> = report.sessions.iter().collect();
    slow.sort_by(|a, b| {
        b.response
            .latency_ns
            .cmp(&a.response.latency_ns)
            .then(a.response.request_id.cmp(&b.response.request_id))
    });
    out.push_str("top 5 slow sessions:\n");
    for r in slow.iter().take(5) {
        let _ = writeln!(
            out,
            "  req {:>4}  user {:>4}  worker {}  {:>9}  {}",
            r.response.request_id,
            r.response.user_id,
            r.response.worker,
            p2auth_obs::report::fmt_ns(r.response.latency_ns),
            verdict_label(&r.response.verdict),
        );
    }
    out
}

/// Hex digest of a canonical event-log encoding (FNV-64 over the
/// bytes) — the manifest currency `replay --from-shard --verify`
/// checks against.
fn log_digest(encoded: &str) -> String {
    let mut h = Fnv64::new();
    h.update_bytes(encoded.as_bytes());
    format!("{:016x}", h.finish())
}

/// Reads every shard back, proves each persisted record bit-identical
/// to the in-memory log of the same session, and writes
/// `DIR/manifest.json` (request id → digest) for offline verification.
fn persist_verify_and_manifest(
    report: &ServeReport,
    store: &ShardedEventStore,
    dir: &str,
) -> Result<String, CliError> {
    let by_request: std::collections::BTreeMap<u64, &p2auth_obs::EventLog> = report
        .sessions
        .iter()
        .map(|r| (r.response.request_id, &r.log))
        .collect();
    let mut persisted = 0_usize;
    for (path, read) in persist::read_store_dir(Path::new(dir))
        .map_err(|e| CliError::Io(format!("reading {dir}: {e}")))?
    {
        let read = read.map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        if read.torn_bytes > 0 {
            return Err(CliError::Io(format!(
                "{}: torn tail right after writing (flush failed?)",
                path.display()
            )));
        }
        for payload in &read.records {
            let text = std::str::from_utf8(payload)
                .map_err(|e| CliError::Io(format!("{}: non-utf8 record: {e}", path.display())))?;
            let log = p2auth_obs::EventLog::decode(text).map_err(ReplayError::Log)?;
            let request_id: u64 = log
                .meta_get("request_id")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    CliError::Io(format!("{}: record without request_id", path.display()))
                })?;
            let in_memory = by_request.get(&request_id).ok_or_else(|| {
                CliError::Io(format!("persisted request {request_id} was never served"))
            })?;
            if let Some(div) = in_memory.first_divergence(&log) {
                return Err(CliError::Io(format!(
                    "persisted log for request {request_id} diverged from memory: {div:?}"
                )));
            }
            persisted += 1;
        }
    }
    if persisted != report.sessions.len() {
        return Err(CliError::Io(format!(
            "persisted {persisted} records but served {} sessions",
            report.sessions.len()
        )));
    }
    // The manifest: one digest per session, so a later process can
    // verify the shard files against what the fleet actually recorded.
    let mut manifest = String::from("{ \"schema\": \"p2auth.fleet-shards.v1\",");
    let _ = write!(
        manifest,
        " \"shard_count\": {}, \"sessions\": [",
        store.shard_count()
    );
    for (i, r) in report.sessions.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        let encoded = r.log.encode();
        let _ = write!(
            manifest,
            " {{ \"request_id\": {}, \"user_id\": {}, \"shard\": {}, \"events\": {}, \
             \"digest\": \"{}\" }}",
            r.response.request_id,
            r.response.user_id,
            persist::shard_of(r.response.user_id, store.shard_count()),
            r.log.len(),
            log_digest(&encoded),
        );
    }
    manifest.push_str(" ] }");
    let manifest_path = Path::new(dir).join("manifest.json");
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| CliError::Io(format!("{}: {e}", manifest_path.display())))?;
    Ok(format!(
        "persisted {persisted} session logs across {} shards -> {dir} \
         (read-back verified, zero divergence; manifest.json written)",
        store.shard_count()
    ))
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands or failures inside one.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_deref() {
        None | Some("help") => Ok(USAGE.to_string()),
        Some("enroll") => enroll(args),
        Some("verify") => verify(args),
        Some("wear") => wear(args),
        Some("fault") => fault(args),
        Some("trace") => trace(args),
        Some("quality") => quality(args),
        Some("record") => record(args),
        Some("replay") => replay_cmd(args),
        Some("fleet") => fleet(args),
        Some(other) => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn write_profile(profile: &UserProfile, path: &Path) -> Result<(), CliError> {
    std::fs::write(path, profile.to_json()).map_err(|e| CliError::Io(e.to_string()))
}

fn read_profile(path: &Path) -> Result<UserProfile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    UserProfile::from_json(&text).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_and_unknown() {
        let help = dispatch(&ParsedArgs::parse(["help"]).unwrap()).unwrap();
        assert!(help.contains("USAGE"));
        assert!(matches!(
            dispatch(&ParsedArgs::parse(["frobnicate"]).unwrap()),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn enroll_verify_round_trip() {
        let out = tmp("p2auth_cli_test_profile.json");
        let msg = dispatch(
            &ParsedArgs::parse(["enroll", "--user", "0", "--out", &out, "--users", "6"]).unwrap(),
        )
        .unwrap();
        assert!(msg.contains("enrolled user 0"), "{msg}");

        let msg = dispatch(
            &ParsedArgs::parse(["verify", "--profile", &out, "--user", "0", "--users", "6"])
                .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("ACCEPTED"), "{msg}");

        let msg = dispatch(
            &ParsedArgs::parse([
                "verify",
                "--profile",
                &out,
                "--attacker",
                "2",
                "--victim",
                "0",
                "--users",
                "6",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("REJECTED"), "{msg}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn wear_reports_pulse() {
        let msg = dispatch(&ParsedArgs::parse(["wear", "--users", "4"]).unwrap()).unwrap();
        assert!(msg.contains("worn: true"), "{msg}");
    }

    #[test]
    fn fleet_serves_every_request() {
        let msg = dispatch(
            &ParsedArgs::parse([
                "fleet",
                "--devices",
                "2",
                "--sessions",
                "2",
                "--workers",
                "2",
                "--chaos",
                "off",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("responses: 4/4"), "{msg}");
        assert!(msg.contains("ctx leaks repaired: 0"), "{msg}");
        let json = dispatch(
            &ParsedArgs::parse(["fleet", "--devices", "2", "--sessions", "1", "--json"]).unwrap(),
        )
        .unwrap();
        assert!(json.contains("\"requests\": 2"), "{json}");
        assert!(
            dispatch(&ParsedArgs::parse(["fleet", "--chaos", "sideways"]).unwrap()).is_err(),
            "bad chaos mode must be rejected"
        );
    }

    #[test]
    fn fault_streams_and_reports() {
        let msg = dispatch(
            &ParsedArgs::parse(["fault", "--users", "4", "--sessions", "1", "--loss", "0.02"])
                .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("link faults: loss 0.020"), "{msg}");
        assert!(msg.contains("session 0:"), "{msg}");
        assert!(msg.contains("/1 legitimate sessions"), "{msg}");
    }

    #[test]
    fn quality_reports_gated_keystrokes() {
        let msg = dispatch(
            &ParsedArgs::parse([
                "quality",
                "--users",
                "4",
                "--fault",
                "saturation",
                "--intensity",
                "1.0",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("sensor fault: saturation"), "{msg}");
        assert!(msg.contains("mean SQI"), "{msg}");
        assert!(msg.contains("supervised session:"), "{msg}");
    }

    #[test]
    fn quality_json_is_machine_readable() {
        let msg = dispatch(
            &ParsedArgs::parse(["quality", "--users", "4", "--fault", "motion", "--json"]).unwrap(),
        )
        .unwrap();
        assert!(msg.starts_with('{'), "{msg}");
        assert!(msg.contains("\"fault\": \"motion\""), "{msg}");
        assert!(msg.contains("\"keystrokes\""), "{msg}");
        assert!(msg.contains("\"session\""), "{msg}");
    }

    #[test]
    fn quality_rejects_unknown_fault_kind() {
        let r = dispatch(&ParsedArgs::parse(["quality", "--fault", "gremlins"]).unwrap());
        assert!(matches!(r, Err(CliError::Io(_))));
    }

    #[test]
    fn missing_profile_is_io_error() {
        let r =
            dispatch(&ParsedArgs::parse(["verify", "--profile", "/nonexistent/p.json"]).unwrap());
        assert!(matches!(r, Err(CliError::Io(_))));
    }

    #[test]
    fn fleet_persist_round_trips_through_shard_replay() {
        let dir = tmp(&format!("p2auth_cli_shards_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let msg = dispatch(
            &ParsedArgs::parse([
                "fleet",
                "--devices",
                "3",
                "--sessions",
                "2",
                "--workers",
                "2",
                "--persist",
                &dir,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("read-back verified, zero divergence"), "{msg}");
        assert!(Path::new(&dir).join("manifest.json").is_file());

        // The persisted store lists every session...
        let listing =
            dispatch(&ParsedArgs::parse(["replay", &dir, "--from-shard"]).unwrap()).unwrap();
        assert!(listing.contains("6 persisted session logs"), "{listing}");

        // ...verifies offline against the manifest...
        let verified =
            dispatch(&ParsedArgs::parse(["replay", &dir, "--from-shard", "--verify"]).unwrap())
                .unwrap();
        assert!(verified.contains("zero divergence"), "{verified}");

        // ...and a single request dumps its canonical log.
        let dumped = dispatch(
            &ParsedArgs::parse(["replay", &dir, "--from-shard", "--request", "0", "--json"])
                .unwrap(),
        )
        .unwrap();
        assert!(
            dumped.starts_with("{\"schema\":\"p2auth.events.v1\""),
            "{dumped}"
        );

        // Tampering with a persisted byte must turn verification into
        // a hard error.
        let shard = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| {
                p.extension().is_some_and(|x| x == "shard")
                    && std::fs::metadata(p).unwrap().len() > persist::HEADER_LEN as u64
            })
            .expect("at least one non-empty shard");
        let mut bytes = std::fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&shard, bytes).unwrap();
        let r = dispatch(&ParsedArgs::parse(["replay", &dir, "--from-shard", "--verify"]).unwrap());
        assert!(
            matches!(r, Err(CliError::Io(_))),
            "tampered store must fail verify"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_top_renders_introspection_view() {
        let msg = dispatch(
            &ParsedArgs::parse(["fleet", "top", "--devices", "3", "--sessions", "2"]).unwrap(),
        )
        .unwrap();
        assert!(msg.contains("fleet top —"), "{msg}");
        assert!(msg.contains("shard  sessions  accepts  sheds"), "{msg}");
        assert!(msg.contains("SLO[60s]:"), "{msg}");
        assert!(msg.contains("top 5 slow sessions:"), "{msg}");
        assert!(
            dispatch(&ParsedArgs::parse(["fleet", "sideways"]).unwrap()).is_err(),
            "unknown fleet view must be rejected"
        );
    }
}
