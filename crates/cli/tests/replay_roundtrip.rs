//! End-to-end record/replay determinism: a recorded chaos session
//! replays bit-identically within one build, a mutated log reports the
//! first divergent event, and a truncated log yields a typed error.

use p2auth_cli::replay::{record_session, verify_replay, ChaosMode, RecordSpec, ReplayError};
use p2auth_obs::events::{EventLog, LogDivergence, SessionEvent};

fn chaos_spec() -> RecordSpec {
    RecordSpec {
        chaos: ChaosMode::Both,
        chaos_seed: 1,
        ..RecordSpec::default()
    }
}

#[test]
fn recorded_session_replays_bit_identically() {
    let (log, outcome) = record_session(&chaos_spec()).expect("recording runs");
    assert!(!log.is_empty());
    assert!(outcome.attempts >= 1);
    // The log survives its own serialization...
    let decoded = EventLog::decode(&log.encode()).expect("log round-trips");
    assert_eq!(decoded, log);
    // ...and re-executing from nothing but the decoded log reproduces
    // every event — every digest, SQI, vote weight and transition.
    let replayed = verify_replay(&decoded).expect("replay is bit-identical");
    assert_eq!(replayed.state, outcome.state);
    assert_eq!(replayed.attempts, outcome.attempts);
}

#[test]
fn sensorless_and_linkless_modes_replay_too() {
    for chaos in [ChaosMode::None, ChaosMode::Sensor, ChaosMode::Link] {
        let spec = RecordSpec {
            chaos,
            ..chaos_spec()
        };
        let (log, _) = record_session(&spec).expect("recording runs");
        verify_replay(&log).unwrap_or_else(|e| panic!("{chaos} replay diverged: {e}"));
    }
}

#[test]
fn mutated_log_reports_the_first_divergent_event() {
    // Sensor-only chaos: the link is bypassed, so a sample batch is
    // always delivered and recorded regardless of the RNG backend.
    let spec = RecordSpec {
        chaos: ChaosMode::Sensor,
        ..chaos_spec()
    };
    let (mut log, _) = record_session(&spec).expect("recording runs");
    // Corrupt one recorded value the way a buggy recorder (or a tampered
    // file) would: the replay must pinpoint exactly that event.
    let victim = log
        .events
        .iter()
        .position(|e| matches!(e.event, SessionEvent::SampleBatch { .. }))
        .expect("chaos session records sample batches");
    if let SessionEvent::SampleBatch { digest, .. } = &mut log.events[victim].event {
        *digest ^= 1;
    }
    match verify_replay(&log) {
        Err(ReplayError::Divergence(d)) => match *d {
            LogDivergence::Event { seq, .. } => {
                assert_eq!(seq, log.events[victim].seq, "wrong event blamed");
            }
            other => panic!("expected event divergence, got {other}"),
        },
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn truncated_log_is_a_typed_error_not_a_partial_replay() {
    let (log, _) = record_session(&chaos_spec()).expect("recording runs");
    let text = log.encode();
    let cut = text.len() / 2;
    let mut prefix = &text[..cut];
    while !text.is_char_boundary(prefix.len()) {
        prefix = &prefix[..prefix.len() - 1];
    }
    assert!(EventLog::decode(prefix).is_err());
}

#[test]
fn log_without_a_spec_cannot_be_replayed() {
    let log = EventLog::new(Default::default());
    assert!(matches!(verify_replay(&log), Err(ReplayError::Spec(_))));
}
