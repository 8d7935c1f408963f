//! Brownout degradation ladder driven by SLO burn rate.
//!
//! PR 9's `SloTracker` can *say* the error budget is burning; this
//! module makes the server *do* something about it — deliberately, one
//! rung at a time, instead of failing closed:
//!
//! | rung | behaviour |
//! |---|---|
//! | `Normal` | full pipeline |
//! | `Brownout1` | skip optional obs work (per-shard breakdowns), zero the re-prompt budget |
//! | `Brownout2` | coverage-gated PIN-only fallback tier (the paper's `DegradedFallback`, served first) |
//! | `Shed` | new sessions shed with [`crate::ShedReason::Brownout`] |
//!
//! The ladder is evaluated every [`BrownoutConfig::eval_every`]
//! sessions against the tracker's multi-window burn-rate alert, and
//! moves with **hysteresis**: it climbs only after
//! [`BrownoutConfig::up_hold`] consecutive alerting evaluations and
//! descends only after [`BrownoutConfig::down_hold`] consecutive clean
//! ones — so a single noisy window cannot flap the fleet between
//! serving modes. Every transition is recorded as a typed
//! [`LadderTransition`] and counted.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use p2auth_obs::SloReport;

/// The ladder's rungs, mildest first. Ordered: a higher rung degrades
/// more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutLevel {
    /// Full pipeline.
    Normal,
    /// Skip optional observability work; no re-prompts.
    Brownout1,
    /// PIN-only fallback tier for sessions with good link coverage.
    Brownout2,
    /// Shed new sessions.
    Shed,
}

impl BrownoutLevel {
    /// All rungs, mildest first.
    pub const ALL: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::Brownout1,
        BrownoutLevel::Brownout2,
        BrownoutLevel::Shed,
    ];

    /// Stable machine-readable name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::Brownout1 => "brownout1",
            BrownoutLevel::Brownout2 => "brownout2",
            BrownoutLevel::Shed => "shed",
        }
    }

    /// Rung index, 0 (`Normal`) to 3 (`Shed`).
    #[must_use]
    pub fn rung(self) -> usize {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::Brownout1 => 1,
            BrownoutLevel::Brownout2 => 2,
            BrownoutLevel::Shed => 3,
        }
    }

    fn from_rung(rung: usize) -> Self {
        Self::ALL[rung.min(3)]
    }
}

impl std::fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Ladder policy, carried inside [`crate::ServerConfig`]. `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Whether the ladder runs at all. Defaults off: a region without
    /// an SLO tracker has nothing to drive it.
    pub enabled: bool,
    /// Sessions between ladder evaluations.
    pub eval_every: u64,
    /// Consecutive alerting evaluations before climbing one rung.
    pub up_hold: u32,
    /// Consecutive clean evaluations before descending one rung.
    pub down_hold: u32,
    /// Minimum link coverage for the `Brownout2` PIN-only tier; an
    /// attempt below it falls through to the full pipeline (the
    /// paper's precedence rule: degraded fallback must not mask a
    /// poor-signal reject).
    pub pin_only_min_coverage: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            eval_every: 16,
            up_hold: 2,
            down_hold: 4,
            pin_only_min_coverage: 0.9,
        }
    }
}

/// One ladder move: a typed event in the serve report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTransition {
    /// Rung before the move.
    pub from: BrownoutLevel,
    /// Rung after the move.
    pub to: BrownoutLevel,
    /// 1-based evaluation index at which the move happened.
    pub eval: u64,
    /// Fast-window burn rate that drove the evaluation.
    pub fast_burn: f64,
    /// Slow-window burn rate that drove the evaluation.
    pub slow_burn: f64,
}

#[derive(Debug, Default)]
struct LadderState {
    up_streak: u32,
    down_streak: u32,
    evals: u64,
    occupancy: [u64; 4],
    transitions: Vec<LadderTransition>,
}

/// The shared ladder: workers read the current rung with one relaxed
/// atomic load per session; evaluation (every `eval_every`-th session)
/// takes the state mutex.
#[derive(Debug)]
pub struct BrownoutLadder {
    cfg: BrownoutConfig,
    sessions: AtomicU64,
    current: AtomicU8,
    state: Mutex<LadderState>,
}

impl BrownoutLadder {
    /// A ladder at `Normal` with no history.
    #[must_use]
    pub fn new(cfg: BrownoutConfig) -> Self {
        Self {
            cfg,
            sessions: AtomicU64::new(0),
            current: AtomicU8::new(0),
            state: Mutex::new(LadderState::default()),
        }
    }

    /// The rung workers should serve at right now.
    #[must_use]
    pub fn level(&self) -> BrownoutLevel {
        BrownoutLevel::from_rung(self.current.load(Ordering::Relaxed) as usize)
    }

    /// Per-session hook: counts the session, and on every
    /// `eval_every`-th one evaluates the ladder against a fresh SLO
    /// report. Returns the rung for *this* session.
    pub fn on_session(&self, slo: &p2auth_obs::SloTracker) -> BrownoutLevel {
        let n = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        let every = self.cfg.eval_every.max(1);
        if n.is_multiple_of(every) {
            self.evaluate(&slo.report());
        }
        self.level()
    }

    /// One ladder evaluation against an SLO report. Public so tests
    /// and the chaos bench can drive the ladder deterministically.
    pub fn evaluate(&self, report: &SloReport) -> BrownoutLevel {
        #[allow(clippy::unwrap_used)] // INVARIANT: no panic while holding the lock.
        let mut st = self.state.lock().unwrap();
        st.evals += 1;
        let level = self.level();
        let mut next = level;
        if report.alert {
            st.up_streak += 1;
            st.down_streak = 0;
            if st.up_streak >= self.cfg.up_hold && level != BrownoutLevel::Shed {
                next = BrownoutLevel::from_rung(level.rung() + 1);
                st.up_streak = 0;
            }
        } else {
            st.down_streak += 1;
            st.up_streak = 0;
            if st.down_streak >= self.cfg.down_hold && level != BrownoutLevel::Normal {
                next = BrownoutLevel::from_rung(level.rung() - 1);
                st.down_streak = 0;
            }
        }
        if next != level {
            let eval = st.evals;
            st.transitions.push(LadderTransition {
                from: level,
                to: next,
                eval,
                fast_burn: report.fast_burn,
                slow_burn: report.slow_burn,
            });
            self.current
                .store(u8::try_from(next.rung()).unwrap_or(0), Ordering::Relaxed);
        }
        st.occupancy[next.rung()] += 1;
        next
    }

    /// Every transition so far, in order.
    #[must_use]
    pub fn transitions(&self) -> Vec<LadderTransition> {
        #[allow(clippy::unwrap_used)]
        self.state.lock().unwrap().transitions.clone()
    }

    /// Evaluations spent at each rung (indexed by
    /// [`BrownoutLevel::rung`]).
    #[must_use]
    pub fn occupancy(&self) -> [u64; 4] {
        #[allow(clippy::unwrap_used)]
        self.state.lock().unwrap().occupancy
    }

    /// Ladder evaluations run so far.
    #[must_use]
    pub fn evals(&self) -> u64 {
        #[allow(clippy::unwrap_used)]
        self.state.lock().unwrap().evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2auth_obs::{SloConfig, SloTracker};

    fn cfg() -> BrownoutConfig {
        BrownoutConfig {
            enabled: true,
            eval_every: 1,
            up_hold: 2,
            down_hold: 3,
            ..BrownoutConfig::default()
        }
    }

    fn report(alert: bool) -> SloReport {
        let t = SloTracker::new(SloConfig::default());
        // Drive a real tracker so the report carries consistent burn
        // numbers; `alert` is then forced for determinism.
        t.record_at(0, 1_000, alert);
        let mut r = t.report_at(0);
        r.alert = alert;
        r
    }

    #[test]
    fn ladder_climbs_only_after_up_hold_consecutive_alerts() {
        let ladder = BrownoutLadder::new(cfg());
        assert_eq!(ladder.evaluate(&report(true)), BrownoutLevel::Normal);
        assert_eq!(
            ladder.evaluate(&report(true)),
            BrownoutLevel::Brownout1,
            "second consecutive alert climbs"
        );
        // A clean window resets the streak: two more alerts needed.
        ladder.evaluate(&report(false));
        assert_eq!(ladder.evaluate(&report(true)), BrownoutLevel::Brownout1);
        assert_eq!(ladder.evaluate(&report(true)), BrownoutLevel::Brownout2);
    }

    #[test]
    fn ladder_descends_only_after_down_hold_clean_evals() {
        let ladder = BrownoutLadder::new(cfg());
        ladder.evaluate(&report(true));
        ladder.evaluate(&report(true));
        assert_eq!(ladder.level(), BrownoutLevel::Brownout1);
        ladder.evaluate(&report(false));
        ladder.evaluate(&report(false));
        assert_eq!(ladder.level(), BrownoutLevel::Brownout1, "holding");
        assert_eq!(
            ladder.evaluate(&report(false)),
            BrownoutLevel::Normal,
            "third clean eval releases"
        );
    }

    #[test]
    fn alternating_windows_do_not_flap_the_ladder() {
        let ladder = BrownoutLadder::new(cfg());
        for _ in 0..20 {
            ladder.evaluate(&report(true));
            ladder.evaluate(&report(false));
        }
        assert_eq!(ladder.level(), BrownoutLevel::Normal);
        assert!(
            ladder.transitions().is_empty(),
            "hysteresis absorbs alternating windows entirely"
        );
    }

    #[test]
    fn ladder_saturates_at_shed_and_records_occupancy() {
        let ladder = BrownoutLadder::new(cfg());
        for _ in 0..20 {
            ladder.evaluate(&report(true));
        }
        assert_eq!(ladder.level(), BrownoutLevel::Shed, "saturates, no panic");
        let occupancy = ladder.occupancy();
        assert_eq!(occupancy.iter().sum::<u64>(), 20);
        assert!(occupancy[3] > 0, "time was spent at Shed");
        let transitions = ladder.transitions();
        assert_eq!(transitions.len(), 3, "Normal→B1→B2→Shed");
        for w in transitions.windows(2) {
            assert_eq!(w[0].to, w[1].from, "one rung at a time, in order");
        }
    }

    #[test]
    fn on_session_evaluates_every_eval_every_sessions() {
        let ladder = BrownoutLadder::new(BrownoutConfig {
            eval_every: 4,
            ..cfg()
        });
        let slo = SloTracker::new(SloConfig::default());
        for _ in 0..12 {
            ladder.on_session(&slo);
        }
        assert_eq!(ladder.evals(), 3, "12 sessions / eval_every 4");
    }
}
