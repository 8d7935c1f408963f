//! An authenticating host: the deployed composition of the acquisition
//! chain and the pipeline. Frames stream in (in arrival order); when a
//! session completes, the attempt is authenticated against the enrolled
//! profile and a decision is emitted — what the paper's PC-side
//! prototype does online.

use crate::frame::{resync_offset, Frame};
use crate::host::{AssembleError, HostAssembler, LinkQuality};
use p2auth_core::{
    AttemptAnalysis, AttemptQuality, AuthDecision, AuthError, P2Auth, Pin, ProfileArena, Recording,
    SessionScratch, UserProfile,
};

/// Error from the authenticating host.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamAuthError {
    /// Frame decoding / session assembly failed.
    Assemble(AssembleError),
    /// The assembled attempt could not be evaluated.
    Auth(AuthError),
}

impl std::fmt::Display for StreamAuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamAuthError::Assemble(e) => write!(f, "assembly failed: {e}"),
            StreamAuthError::Auth(e) => write!(f, "authentication failed: {e}"),
        }
    }
}

impl std::error::Error for StreamAuthError {}

impl From<AssembleError> for StreamAuthError {
    fn from(e: AssembleError) -> Self {
        StreamAuthError::Assemble(e)
    }
}

impl From<AuthError> for StreamAuthError {
    fn from(e: AuthError) -> Self {
        StreamAuthError::Auth(e)
    }
}

/// Outcome of one streamed session under the degraded-mode policy.
///
/// Unlike the strict [`AuthenticatingHost::feed_bytes`] path, faults
/// are not errors here: a session that lost data still produces a
/// typed outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Full coverage: the normal two-factor decision.
    Decision(AuthDecision),
    /// Coverage fell below the configured threshold; the decision came
    /// from the degraded fallback policy (e.g. PIN-only).
    Degraded {
        /// The fallback decision.
        decision: AuthDecision,
        /// PPG block coverage of the session (0.0–1.0).
        coverage: f64,
        /// Missing PPG blocks that had to be gap-filled — the reason
        /// the session was degraded.
        gap_blocks: usize,
    },
    /// The session could not be evaluated at all.
    Abort {
        /// Human-readable cause.
        reason: String,
        /// PPG block coverage at the time of the abort.
        coverage: f64,
        /// Missing PPG blocks at the time of the abort.
        gap_blocks: usize,
    },
}

impl SessionOutcome {
    /// The decision, unless the session aborted.
    pub fn decision(&self) -> Option<&AuthDecision> {
        match self {
            SessionOutcome::Decision(d) | SessionOutcome::Degraded { decision: d, .. } => Some(d),
            SessionOutcome::Abort { .. } => None,
        }
    }

    /// Whether the user was accepted (aborted sessions never accept).
    pub fn accepted(&self) -> bool {
        self.decision().is_some_and(|d| d.accepted)
    }
}

/// Applies the coverage-gated decision policy to one assembled session:
/// at or above the configured `min_ppg_coverage` the normal two-factor
/// path runs; below it, the degraded fallback
/// (`P2AuthConfig::degraded_fallback`) decides — and the outcome
/// records *why* (the coverage and gap-block counts from
/// [`LinkQuality`]). Evaluation errors become
/// [`SessionOutcome::Abort`], never a panic — this is the deployed
/// path fed by a faulty link.
pub fn decide_session(
    system: &P2Auth,
    profile: &UserProfile,
    claimed_pin: Option<&Pin>,
    recording: &Recording,
    quality: LinkQuality,
) -> SessionOutcome {
    decide_session_impl(
        system,
        quality,
        || match claimed_pin {
            Some(pin) => system.authenticate(profile, pin, recording),
            None => system.authenticate_no_pin(profile, recording),
        },
        || system.assess_quality(profile, recording),
        || system.authenticate_degraded(profile, claimed_pin, recording),
    )
}

/// [`decide_session`] against a prebuilt [`ProfileArena`]: the same
/// coverage-gated policy (identical counters, events and precedence
/// rules) routed through the fused transform-and-score hot path.
/// Decisions are bit-identical to [`decide_session`] on the source
/// profile; the caller's [`SessionScratch`] is reused across sessions
/// so the steady state allocates nothing in the rocket/ml layers.
pub fn decide_session_arena(
    system: &P2Auth,
    arena: &ProfileArena,
    scratch: &mut SessionScratch,
    claimed_pin: Option<&Pin>,
    recording: &Recording,
    quality: LinkQuality,
) -> SessionOutcome {
    decide_session_impl(
        system,
        quality,
        || match claimed_pin {
            Some(pin) => system.authenticate_arena(arena, scratch, pin, recording),
            None => system.authenticate_arena_no_pin(arena, scratch, recording),
        },
        || system.assess_quality_arena(arena, recording),
        || system.authenticate_degraded_arena(arena, claimed_pin, recording),
    )
}

/// [`decide_session_arena`] on an attempt already analyzed against
/// `arena` ([`P2Auth::analyze_arena`]): the same policy, but the
/// two-factor decision and the link-degraded SQI-precedence check both
/// read `analysis` instead of running preprocessing, segmentation and
/// SQI again. The outcome is bit-identical to
/// [`decide_session_arena`] on `analysis.recording()`. This is how the
/// session supervisor decides: it analyzes once in Assessing and hands
/// the same analysis to Deciding.
pub fn decide_session_analyzed(
    system: &P2Auth,
    arena: &ProfileArena,
    scratch: &mut SessionScratch,
    claimed_pin: Option<&Pin>,
    analysis: &AttemptAnalysis<'_>,
    quality: LinkQuality,
) -> SessionOutcome {
    decide_session_impl(
        system,
        quality,
        || system.authenticate_analyzed_arena(arena, scratch, claimed_pin, analysis),
        || Ok(analysis.quality(system.config())),
        || system.authenticate_degraded_arena(arena, claimed_pin, analysis.recording()),
    )
}

/// Shared body of [`decide_session`], [`decide_session_arena`] and
/// [`decide_session_analyzed`]: the policy is written once, so no
/// entry point can drift from another in gating, precedence, or
/// telemetry. `assess` yields the attempt's quality verdict for the
/// link-degraded precedence check; it runs only on that branch.
fn decide_session_impl(
    system: &P2Auth,
    quality: LinkQuality,
    authenticate: impl FnOnce() -> Result<AuthDecision, AuthError>,
    assess: impl FnOnce() -> Result<AttemptQuality, AuthError>,
    degraded: impl FnOnce() -> Result<AuthDecision, AuthError>,
) -> SessionOutcome {
    let abort = |e: String| {
        p2auth_obs::counter!("device.session.aborts").incr();
        p2auth_obs::event!(
            "device.session",
            "abort",
            coverage = quality.coverage,
            gap_blocks = quality.gap_blocks,
            reason = e.clone(),
        );
        SessionOutcome::Abort {
            reason: e,
            coverage: quality.coverage,
            gap_blocks: quality.gap_blocks,
        }
    };
    if quality.coverage >= system.config().min_ppg_coverage {
        match authenticate() {
            Ok(d) => SessionOutcome::Decision(d),
            Err(e) => abort(e.to_string()),
        }
    } else {
        p2auth_obs::counter!("device.session.degraded_entries").incr();
        p2auth_obs::event!(
            "device.session",
            "degraded",
            coverage = quality.coverage,
            gap_blocks = quality.gap_blocks,
            expected_blocks = quality.expected_blocks,
            received_blocks = quality.received_blocks,
        );
        // Precedence: link-degraded AND SQI-gated takes the stricter
        // path. The PIN-only fallback exists for sessions whose
        // *transport* lost data; if the samples that did arrive show
        // the sensor itself was bad (keystrokes visible but below the
        // SQI floor), falling back would let a single knowledge factor
        // decide on two independently broken channels — reject with
        // the quality verdict instead.
        let cfg = system.config();
        if cfg.sqi_gating {
            if let Ok(q) = assess() {
                if q.detected >= cfg.sqi_min_keystrokes && q.usable < cfg.sqi_min_keystrokes {
                    p2auth_obs::counter!("device.session.degraded_poor_signal").incr();
                    p2auth_obs::event!(
                        "device.session",
                        "degraded_poor_signal",
                        coverage = quality.coverage,
                        detected = q.detected,
                        usable = q.usable,
                        mean_sqi = q.mean_sqi,
                    );
                    return SessionOutcome::Degraded {
                        decision: AuthDecision {
                            accepted: false,
                            case: p2auth_core::InputCase::Insufficient,
                            reason: Some(p2auth_core::RejectReason::PoorSignal),
                            keystroke_votes: Vec::new(),
                            score: 0.0,
                        },
                        coverage: quality.coverage,
                        gap_blocks: quality.gap_blocks,
                    };
                }
            }
        }
        match degraded() {
            Ok(d) => SessionOutcome::Degraded {
                decision: d,
                coverage: quality.coverage,
                gap_blocks: quality.gap_blocks,
            },
            Err(e) => abort(e.to_string()),
        }
    }
}

/// Streams acquisition frames and authenticates each completed session.
///
/// Create with an enrolled profile, feed frames with
/// [`AuthenticatingHost::feed`], and receive an [`AuthDecision`] when a
/// `SessionEnd` frame closes an entry. The host resets itself after
/// each session, so one instance serves a whole unlock stream.
#[derive(Debug)]
pub struct AuthenticatingHost {
    system: P2Auth,
    claimed_pin: Option<Pin>,
    /// The profile's models folded into the fused-scorer constant
    /// tables once at construction; every session decision routes
    /// through it (bit-identical to deciding on the profile directly).
    arena: ProfileArena,
    /// Conv/score workspace reused across sessions, so steady-state
    /// decisions allocate nothing in the rocket/ml layers.
    scratch: SessionScratch,
    assembler: HostAssembler,
    stream_buf: Vec<u8>,
    sessions_completed: usize,
}

impl AuthenticatingHost {
    /// Creates a host for `profile`. `claimed_pin` of `None` selects
    /// the no-PIN flow. The profile is folded into a [`ProfileArena`]
    /// here; the host keeps only the arena.
    pub fn new(system: P2Auth, profile: UserProfile, claimed_pin: Option<Pin>) -> Self {
        let arena = system.arena(&profile);
        Self {
            system,
            claimed_pin,
            arena,
            scratch: SessionScratch::new(),
            assembler: HostAssembler::new(),
            stream_buf: Vec::new(),
            sessions_completed: 0,
        }
    }

    /// Feeds a raw byte chunk from the link — any framing, any
    /// alignment, possibly corrupted. Complete frames are extracted
    /// and absorbed; garbage is skipped by resynchronizing on the next
    /// frame magic; a `SessionEnd` closes the session with degraded
    /// assembly and the coverage-gated decision policy. Returns the
    /// outcomes of all sessions completed within this chunk (usually
    /// zero or one).
    ///
    /// This is the graceful-degradation counterpart of
    /// [`AuthenticatingHost::feed_bytes`]: it never errors and never
    /// panics on hostile input, at the cost of deferring all
    /// trouble reporting to the typed [`SessionOutcome`].
    pub fn feed_stream(&mut self, chunk: &[u8]) -> Vec<SessionOutcome> {
        self.stream_buf.extend_from_slice(chunk);
        let mut outcomes = Vec::new();
        let mut pos = 0_usize;
        while pos < self.stream_buf.len() {
            match Frame::decode(&self.stream_buf[pos..]) {
                Ok((frame, used)) => {
                    pos += used;
                    if let Some(result) = self.assembler.feed_lossy(frame) {
                        let quality_at_end = self.assembler.quality();
                        self.assembler = HostAssembler::new();
                        match result {
                            Ok((recording, quality)) => {
                                self.sessions_completed += 1;
                                outcomes.push(decide_session_arena(
                                    &self.system,
                                    &self.arena,
                                    &mut self.scratch,
                                    self.claimed_pin.as_ref(),
                                    &recording,
                                    quality,
                                ));
                            }
                            Err(e) => {
                                p2auth_obs::counter!("device.session.aborts").incr();
                                p2auth_obs::event!(
                                    "device.session",
                                    "abort",
                                    coverage = quality_at_end.coverage,
                                    gap_blocks = quality_at_end.gap_blocks,
                                    reason = e.to_string(),
                                );
                                outcomes.push(SessionOutcome::Abort {
                                    reason: e.to_string(),
                                    coverage: quality_at_end.coverage,
                                    gap_blocks: quality_at_end.gap_blocks,
                                });
                            }
                        }
                    }
                }
                Err(e) if e.needs_more_data() => break,
                Err(_) => {
                    // Garbage: skip to the next candidate frame start.
                    let skipped = resync_offset(&self.stream_buf[pos..]);
                    p2auth_obs::counter!("device.host.resyncs").incr();
                    p2auth_obs::event!("device.host", "resync", skipped = skipped);
                    pos += skipped;
                }
            }
        }
        self.stream_buf.drain(..pos);
        outcomes
    }

    /// Feeds one encoded frame (in arrival order). Returns the decision
    /// when this frame completed a session.
    ///
    /// # Errors
    ///
    /// Returns [`StreamAuthError`] on malformed frames, incomplete
    /// sessions or evaluation failures; the host resets and can accept
    /// the next session either way.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> Result<Option<AuthDecision>, StreamAuthError> {
        let result = self.assembler.feed_bytes(bytes);
        self.handle(result)
    }

    /// Feeds one decoded frame (in arrival order).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AuthenticatingHost::feed_bytes`].
    pub fn feed(&mut self, frame: Frame) -> Result<Option<AuthDecision>, StreamAuthError> {
        let result = self.assembler.feed(frame);
        self.handle(result)
    }

    fn handle(
        &mut self,
        result: Result<Option<p2auth_core::Recording>, AssembleError>,
    ) -> Result<Option<AuthDecision>, StreamAuthError> {
        match result {
            Ok(None) => Ok(None),
            Ok(Some(recording)) => {
                self.assembler = HostAssembler::new();
                self.sessions_completed += 1;
                let decision = match &self.claimed_pin {
                    Some(pin) => self.system.authenticate_arena(
                        &self.arena,
                        &mut self.scratch,
                        pin,
                        &recording,
                    )?,
                    None => self.system.authenticate_arena_no_pin(
                        &self.arena,
                        &mut self.scratch,
                        &recording,
                    )?,
                };
                Ok(Some(decision))
            }
            Err(e) => {
                self.assembler = HostAssembler::new();
                Err(e.into())
            }
        }
    }

    /// Number of sessions authenticated so far.
    pub fn sessions_completed(&self) -> usize {
        self.sessions_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::device::WearableDevice;
    use crate::link::{Link, LinkConfig};
    use p2auth_core::{HandMode, P2AuthConfig};
    use p2auth_sim::{Population, PopulationConfig, SessionConfig};

    fn setup() -> (Population, Pin, SessionConfig, P2Auth, UserProfile) {
        let pop = Population::generate(&PopulationConfig {
            num_users: 8,
            seed: 501,
            ..Default::default()
        });
        let pin = Pin::new("1628").unwrap();
        let session = SessionConfig::default();
        let system = P2Auth::new(P2AuthConfig::default());
        // Enroll from *streamed* recordings — in deployment the host
        // only ever sees what came over the link.
        let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
        let mut data = Link::new(LinkConfig::default());
        let mut keys = Link::new(LinkConfig {
            seed: 4,
            ..LinkConfig::default()
        });
        let mut stream = |rec: &p2auth_core::Recording| {
            crate::host::transmit(rec, &device, &mut data, &mut keys).expect("transmit")
        };
        let enroll: Vec<_> = (0..9)
            .map(|i| stream(&pop.record_entry(0, &pin, HandMode::OneHanded, &session, i)))
            .collect();
        let third: Vec<_> = (0..32)
            .map(|i| {
                stream(&pop.record_entry(
                    1 + (i as usize % 7),
                    &pin,
                    HandMode::OneHanded,
                    &session,
                    300 + i,
                ))
            })
            .collect();
        let profile = system.enroll(&pin, &enroll, &third).unwrap();
        (pop, pin, session, system, profile)
    }

    fn stream_frames(
        host: &mut AuthenticatingHost,
        rec: &p2auth_core::Recording,
    ) -> Option<AuthDecision> {
        let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
        let mut data = Link::new(LinkConfig::default());
        let mut keys = Link::new(LinkConfig {
            seed: 3,
            ..LinkConfig::default()
        });
        data.start_session();
        keys.start_session();
        let mut inbox: Vec<(f64, Frame)> = device
            .packetize(rec)
            .into_iter()
            .map(|tf| {
                let arrival = match tf.frame {
                    Frame::Key { .. } => keys.deliver(tf.send_time_s),
                    _ => data.deliver(tf.send_time_s),
                };
                (arrival, tf.frame)
            })
            .collect();
        inbox.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut decision = None;
        for (_, frame) in inbox {
            if let Some(d) = host.feed(frame).expect("stream ok") {
                decision = Some(d);
            }
        }
        decision
    }

    #[test]
    fn streams_sessions_to_decisions() {
        let (pop, pin, session, system, profile) = setup();
        let mut host = AuthenticatingHost::new(system, profile, Some(pin.clone()));
        // Alternating legitimate sessions and attacks on the same host.
        let mut legit_ok = 0;
        let mut attacks_rejected = 0;
        let trials = 4_u64;
        for n in 0..trials {
            let legit = pop.record_entry(0, &pin, HandMode::OneHanded, &session, 900 + n);
            if stream_frames(&mut host, &legit)
                .expect("decision emitted")
                .accepted
            {
                legit_ok += 1;
            }
            let attacker = 2 + (n as usize % 3);
            let attack =
                pop.record_emulating_attack(attacker, 0, &pin, HandMode::OneHanded, &session, n);
            if !stream_frames(&mut host, &attack)
                .expect("decision emitted")
                .accepted
            {
                attacks_rejected += 1;
            }
        }
        assert!(legit_ok >= 3, "streamed legit accepted {legit_ok}/{trials}");
        assert!(
            attacks_rejected >= 3,
            "streamed attacks rejected {attacks_rejected}/{trials}"
        );
        assert_eq!(host.sessions_completed() as u64, 2 * trials);
    }

    #[test]
    fn garbage_frame_is_an_error_not_a_decision() {
        let (_, pin, _, system, profile) = setup();
        let mut host = AuthenticatingHost::new(system, profile, Some(pin));
        assert!(host.feed_bytes(&[1, 2, 3]).is_err());
        assert_eq!(host.sessions_completed(), 0);
    }

    /// A cheaper enrollment for the streaming-path tests, which assert
    /// plumbing (resync, coverage gating), not accuracy.
    fn light_setup() -> (Population, Pin, SessionConfig, P2Auth, UserProfile) {
        let pop = Population::generate(&PopulationConfig {
            num_users: 4,
            seed: 733,
            ..Default::default()
        });
        let pin = Pin::new("1628").unwrap();
        let session = SessionConfig::default();
        let system = P2Auth::new(P2AuthConfig::fast());
        let enroll: Vec<_> = (0..6)
            .map(|i| pop.record_entry(0, &pin, HandMode::OneHanded, &session, 40 + i))
            .collect();
        let third: Vec<_> = (0..12)
            .map(|i| {
                pop.record_entry(
                    1 + (i as usize % 3),
                    &pin,
                    HandMode::OneHanded,
                    &session,
                    70 + i,
                )
            })
            .collect();
        let profile = system.enroll(&pin, &enroll, &third).unwrap();
        (pop, pin, session, system, profile)
    }

    #[test]
    fn feed_stream_resyncs_after_garbage() {
        let (pop, pin, session, system, profile) = light_setup();
        let mut host = AuthenticatingHost::new(system, profile, Some(pin.clone()));
        let legit = pop.record_entry(0, &pin, HandMode::OneHanded, &session, 990);
        let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
        // Leading garbage (with a fake magic byte) plus junk between
        // frames; frames themselves are intact.
        let mut wire = vec![0x00, 0xA5, 0x17];
        for (i, tf) in device.packetize(&legit).into_iter().enumerate() {
            wire.extend_from_slice(&tf.frame.encode());
            if i % 7 == 0 {
                wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            }
        }
        // Arbitrary chunking must not matter.
        let mut outcomes = Vec::new();
        for chunk in wire.chunks(13) {
            outcomes.extend(host.feed_stream(chunk));
        }
        assert_eq!(outcomes.len(), 1, "exactly one session completed");
        assert!(
            matches!(outcomes[0], SessionOutcome::Decision(_)),
            "full coverage takes the normal path, got {:?}",
            outcomes[0]
        );
        assert_eq!(host.sessions_completed(), 1);
    }

    #[test]
    fn lossy_stream_falls_back_to_pin_only() {
        let (pop, pin, session, system, profile) = light_setup();
        let mut host = AuthenticatingHost::new(system.clone(), profile.clone(), Some(pin.clone()));
        let legit = pop.record_entry(0, &pin, HandMode::OneHanded, &session, 991);
        let device = WearableDevice::new(VirtualClock::new(0.4, 20.0));
        // Drop every third PPG frame: coverage ~2/3, below the 0.9
        // threshold, with key events intact.
        let mut wire = Vec::new();
        let mut ppg_seen = 0_usize;
        let mut dropped = 0_usize;
        for tf in device.packetize(&legit) {
            if matches!(tf.frame, Frame::Ppg { .. }) {
                ppg_seen += 1;
                if ppg_seen.is_multiple_of(3) {
                    dropped += 1;
                    continue;
                }
            }
            wire.extend_from_slice(&tf.frame.encode());
        }
        assert!(dropped > 0);
        let outcomes = host.feed_stream(&wire);
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            SessionOutcome::Degraded {
                decision,
                coverage,
                gap_blocks,
            } => {
                assert!(
                    *coverage < 0.9,
                    "coverage {coverage} should gate biometrics"
                );
                assert!(*gap_blocks > 0, "dropped frames must surface as gaps");
                assert!(
                    decision.accepted,
                    "correct PIN accepted under PIN-only fallback"
                );
                assert_eq!(decision.score, 0.0, "no biometric score in degraded mode");
            }
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
        // The wrong PIN must still be rejected in degraded mode.
        let mut host2 = AuthenticatingHost::new(system, profile, Some(Pin::new("9999").unwrap()));
        let outcomes2 = host2.feed_stream(&wire);
        assert_eq!(outcomes2.len(), 1);
        assert!(!outcomes2[0].accepted(), "wrong claimed PIN rejected");
    }

    /// The arena session path is the deployed hot path; it must agree
    /// with the direct path bit-for-bit across the policy's branches:
    /// full coverage (normal two-factor), lossy link (PIN-only
    /// fallback), and a wrong claimed PIN.
    #[test]
    fn arena_session_path_matches_direct_path() {
        let (pop, pin, session, system, profile) = light_setup();
        let arena = system.arena(&profile);
        let mut scratch = SessionScratch::new();
        let legit = pop.record_entry(0, &pin, HandMode::OneHanded, &session, 995);
        let wrong = Pin::new("9999").unwrap();
        let full = LinkQuality {
            coverage: 1.0,
            expected_blocks: 20,
            received_blocks: 20,
            gap_blocks: 0,
        };
        let lossy = LinkQuality {
            coverage: 0.5,
            expected_blocks: 20,
            received_blocks: 10,
            gap_blocks: 10,
        };
        for (claimed, quality) in [
            (Some(&pin), full),
            (Some(&wrong), full),
            (None, full),
            (Some(&pin), lossy),
            (Some(&wrong), lossy),
        ] {
            let direct = decide_session(&system, &profile, claimed, &legit, quality);
            let fused =
                decide_session_arena(&system, &arena, &mut scratch, claimed, &legit, quality);
            assert_eq!(fused, direct, "claimed={claimed:?} quality={quality:?}");
        }
    }

    /// Precedence regression: a session that is link-degraded AND
    /// SQI-gated must take the stricter path (PoorSignal reject), while
    /// a clean-signal session with the same link loss still falls back
    /// to PIN-only.
    #[test]
    fn degraded_and_sqi_gated_takes_the_stricter_path() {
        use p2auth_core::RejectReason;
        use p2auth_sim::{inject_sensor_faults, SensorFaultConfig};

        let (pop, pin, session, system, profile) = light_setup();
        let legit = pop.record_entry(0, &pin, HandMode::OneHanded, &session, 992);
        let lossy = crate::host::LinkQuality {
            coverage: 0.5,
            expected_blocks: 20,
            received_blocks: 10,
            gap_blocks: 10,
        };
        // Clean sensor + lossy link: PIN-only fallback accepts.
        match decide_session(&system, &profile, Some(&pin), &legit, lossy) {
            SessionOutcome::Degraded { decision, .. } => {
                assert!(decision.accepted, "clean signal keeps the PIN-only path");
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        // Heavy saturation + the same lossy link: keystrokes are still
        // detected but their segments clip flat, so the stricter path
        // wins over the PIN-only fallback.
        let faults = SensorFaultConfig {
            saturation_rate_hz: 1.0,
            ..SensorFaultConfig::default()
        };
        let (bad, stats) = inject_sensor_faults(&legit, &faults, 1);
        assert!(stats.saturation_episodes > 0);
        match decide_session(&system, &profile, Some(&pin), &bad, lossy) {
            SessionOutcome::Degraded { decision, .. } => {
                assert!(!decision.accepted, "junk signal must not reach PIN-only");
                assert_eq!(
                    decision.reason,
                    Some(RejectReason::PoorSignal),
                    "the rejection must carry the quality verdict"
                );
            }
            other => panic!("expected a degraded poor-signal reject, got {other:?}"),
        }
    }
}
