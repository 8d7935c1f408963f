//! Shared experiment protocol: cohort datasets, attack traffic and
//! row printing, mirroring the paper's methodology (§V-A):
//! 15 volunteers, five PINs (1628, 3570, 5094, 6938, 7412), repeated
//! entries, third-party data for training, and two attack models.

use p2auth_core::eval::EvalOutcome;
use p2auth_core::{P2Auth, P2AuthConfig, Pin, Recording};
use p2auth_par::{par_map, par_map_indexed};
use p2auth_sim::{HandMode, Population, SessionConfig};

/// The five PINs used in the paper's data collection.
pub fn paper_pins() -> Vec<Pin> {
    ["1628", "3570", "5094", "6938", "7412"]
        .iter()
        .map(|s| Pin::new(s).expect("paper PINs are valid"))
        .collect()
}

/// How many recordings each protocol stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Enrollment entries per user ("the user is always asked to enter
    /// up to 9 PINs").
    pub n_enroll: usize,
    /// Third-party recordings in the training pool (the paper settles
    /// on 100; Fig. 14 sweeps 20–300).
    pub n_third_party: usize,
    /// Legitimate test attempts per case.
    pub n_legit: usize,
    /// Attack attempts per attack type.
    pub n_attacks: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            n_enroll: 9,
            n_third_party: 100,
            n_legit: 12,
            n_attacks: 12,
        }
    }
}

/// All the traffic needed to evaluate one `(user, pin)` pair.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// One-handed enrollment entries.
    pub enroll: Vec<Recording>,
    /// Third-party pool (one-handed, same PIN, non-attacker users).
    pub third_party: Vec<Recording>,
    /// One-handed legitimate attempts.
    pub legit_one: Vec<Recording>,
    /// Two-handed attempts, three watch-hand keystrokes.
    pub legit_double3: Vec<Recording>,
    /// Two-handed attempts, two watch-hand keystrokes.
    pub legit_double2: Vec<Recording>,
    /// Random attacks: attackers typing the victim's PIN in their own
    /// natural style (the PIN factor is assumed breached, so the
    /// biometric factor is what is measured).
    pub ra_one: Vec<Recording>,
    /// Emulating attacks, one-handed.
    pub ea_one: Vec<Recording>,
    /// Emulating attacks, double-3.
    pub ea_double3: Vec<Recording>,
    /// Emulating attacks, double-2.
    pub ea_double2: Vec<Recording>,
}

/// The paper sets four attackers; the remaining non-victim users are
/// third parties. Returns `(attackers, third_parties)`.
pub fn identity_split(victim: usize, num_users: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(
        num_users >= 3,
        "need at least a victim, an attacker and a third party"
    );
    let n_attackers = 4.min(num_users - 2);
    let attackers: Vec<usize> = (1..=n_attackers)
        .map(|k| (victim + k) % num_users)
        .collect();
    let third: Vec<usize> = (0..num_users)
        .filter(|&u| u != victim && !attackers.contains(&u))
        .collect();
    (attackers, third)
}

// Nonce ranges keeping the generator streams of the protocol stages
// disjoint.
const NONCE_ENROLL: u64 = 0;
const NONCE_LEGIT: u64 = 10_000;
const NONCE_DOUBLE: u64 = 20_000;
const NONCE_THIRD: u64 = 40_000;
const NONCE_RA: u64 = 50_000;
const NONCE_EA: u64 = 60_000;

/// Builds the complete evaluation dataset for one `(user, pin)`.
pub fn build_dataset(
    pop: &Population,
    user: usize,
    pin: &Pin,
    session: &SessionConfig,
    proto: &ProtocolConfig,
) -> Dataset {
    let (attackers, third_users) = identity_split(user, pop.num_users());
    let enroll: Vec<Recording> = (0..proto.n_enroll)
        .map(|i| {
            pop.record_entry(
                user,
                pin,
                HandMode::OneHanded,
                session,
                NONCE_ENROLL + i as u64,
            )
        })
        .collect();
    let third_party: Vec<Recording> = (0..proto.n_third_party)
        .map(|i| {
            let u = third_users[i % third_users.len()];
            pop.record_entry(u, pin, HandMode::OneHanded, session, NONCE_THIRD + i as u64)
        })
        .collect();
    let legit_one: Vec<Recording> = (0..proto.n_legit)
        .map(|i| {
            pop.record_entry(
                user,
                pin,
                HandMode::OneHanded,
                session,
                NONCE_LEGIT + i as u64,
            )
        })
        .collect();
    let legit_double3: Vec<Recording> = (0..proto.n_legit)
        .map(|i| pop.record_entry_two_handed(user, pin, 3, session, NONCE_DOUBLE + i as u64))
        .collect();
    let legit_double2: Vec<Recording> = (0..proto.n_legit)
        .map(|i| pop.record_entry_two_handed(user, pin, 2, session, NONCE_DOUBLE + 500 + i as u64))
        .collect();
    let ra_one: Vec<Recording> = (0..proto.n_attacks)
        .map(|i| {
            let a = attackers[i % attackers.len()];
            pop.record_entry(a, pin, HandMode::OneHanded, session, NONCE_RA + i as u64)
        })
        .collect();
    let ea_one: Vec<Recording> = (0..proto.n_attacks)
        .map(|i| {
            let a = attackers[i % attackers.len()];
            pop.record_emulating_attack(
                a,
                user,
                pin,
                HandMode::OneHanded,
                session,
                NONCE_EA + i as u64,
            )
        })
        .collect();
    let ea_double3: Vec<Recording> = (0..proto.n_attacks)
        .map(|i| {
            let a = attackers[i % attackers.len()];
            pop.record_emulating_attack_two_handed(
                a,
                user,
                pin,
                3,
                session,
                NONCE_EA + 500 + i as u64,
            )
        })
        .collect();
    let ea_double2: Vec<Recording> = (0..proto.n_attacks)
        .map(|i| {
            let a = attackers[i % attackers.len()];
            pop.record_emulating_attack_two_handed(
                a,
                user,
                pin,
                2,
                session,
                NONCE_EA + 1000 + i as u64,
            )
        })
        .collect();
    Dataset {
        enroll,
        third_party,
        legit_one,
        legit_double3,
        legit_double2,
        ra_one,
        ea_one,
        ea_double3,
        ea_double2,
    }
}

/// Accuracy / TRR summary of one case.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CaseSummary {
    /// Authentication accuracy over legitimate attempts.
    pub accuracy: f64,
    /// True rejection rate against random attacks.
    pub trr_random: f64,
    /// True rejection rate against emulating attacks.
    pub trr_emulating: f64,
}

/// Evaluates one enrolled profile over one case's traffic.
///
/// # Panics
///
/// Panics if any attempt recording is malformed (simulator output never
/// is).
pub fn evaluate_case(
    system: &P2Auth,
    profile: &p2auth_core::UserProfile,
    pin: &Pin,
    legit: &[Recording],
    ra: &[Recording],
    ea: &[Recording],
) -> CaseSummary {
    // The three attempt pools are independent, and `authenticate` is a
    // pure function of `(profile, pin, rec)`, so the decisions can be
    // computed in parallel. Metric counters are updated serially
    // afterwards in the original order, keeping summaries identical to
    // the sequential loop.
    let decide = |rec: &Recording| -> bool {
        system
            .authenticate(profile, pin, rec)
            .expect("valid attempt")
            .accepted
    };
    let mut out = EvalOutcome::default();
    for accepted in par_map(legit, decide) {
        out.legit.record(accepted, true);
    }
    let mut ra_out = EvalOutcome::default();
    for accepted in par_map(ra, decide) {
        ra_out.attacks.record(accepted, false);
    }
    let mut ea_out = EvalOutcome::default();
    for accepted in par_map(ea, decide) {
        ea_out.attacks.record(accepted, false);
    }
    CaseSummary {
        accuracy: out.legit.authentication_accuracy().unwrap_or(0.0),
        trr_random: ra_out.attacks.true_rejection_rate().unwrap_or(1.0),
        trr_emulating: ea_out.attacks.true_rejection_rate().unwrap_or(1.0),
    }
}

/// Runs the standard one-handed case (build dataset → enroll →
/// evaluate legit / random-attack / emulating-attack pools) for every
/// user of the population, in parallel across [`p2auth_par`] workers.
///
/// Returns `(user, summary)` pairs in ascending user order regardless
/// of scheduling, so callers can print rows deterministically. Users
/// whose enrollment fails are skipped with a warning (see
/// [`try_enroll`]).
pub fn evaluate_users(
    pop: &Population,
    pin: &Pin,
    session: &SessionConfig,
    proto: &ProtocolConfig,
    config: &P2AuthConfig,
) -> Vec<(usize, CaseSummary)> {
    par_map_indexed(pop.num_users(), |user| {
        let data = build_dataset(pop, user, pin, session, proto);
        let profile = try_enroll(config, pin, &data)?;
        let system = P2Auth::new(config.clone());
        Some((
            user,
            evaluate_case(
                &system,
                &profile,
                pin,
                &data.legit_one,
                &data.ra_one,
                &data.ea_one,
            ),
        ))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Enrolls with the given config and returns the profile, or `None`
/// with a warning when enrollment fails (kept non-fatal so one bad
/// user/PIN does not kill a sweep).
pub fn try_enroll(
    config: &P2AuthConfig,
    pin: &Pin,
    data: &Dataset,
) -> Option<p2auth_core::UserProfile> {
    match P2Auth::new(config.clone()).enroll(pin, &data.enroll, &data.third_party) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("warning: enrollment failed: {e}");
            None
        }
    }
}

/// Extracts the z-normalized full-entry waveform of each recording
/// (the one-handed model input), using the same public preprocessing
/// blocks as the core pipeline. Recordings whose keystrokes cannot all
/// be detected are skipped.
pub fn full_waveforms(
    config: &P2AuthConfig,
    recordings: &[Recording],
) -> Vec<p2auth_rocket::MultiSeries> {
    use p2auth_core::enroll::features::znorm_series;
    use p2auth_core::enroll::segmentation::full_waveform;
    let mut out = Vec::with_capacity(recordings.len());
    for rec in recordings {
        let Ok(pre) = p2auth_core::preprocess::preprocess(config, rec) else {
            continue;
        };
        let seg_win = config.scale_window(config.segment_window, rec.sample_rate);
        let Ok(fw) = full_waveform(
            &pre.filtered,
            &pre.calibrated_times,
            seg_win / 2,
            config.full_waveform_len,
        ) else {
            continue;
        };
        out.push(znorm_series(&fw));
    }
    out
}

/// Parses the optional `--users N` / positional user-count argument of
/// the experiment binaries, defaulting to the paper's 15 volunteers.
pub fn users_arg(default: usize) -> usize {
    std::env::args()
        .skip(1)
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(default)
}

/// Mean of a slice (0.0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints a markdown table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints the per-stage latency breakdown table from the observability
/// span histograms accumulated so far (count, p50/p95/p99 and max per
/// `<crate>.<stage>` span).
pub fn print_stage_latency_table() {
    let snap = p2auth_obs::metrics::snapshot();
    print_header(&["stage", "count", "p50", "p95", "p99", "max"]);
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        print_row(&[
            (*name).to_string(),
            format!("{}", h.count),
            p2auth_obs::report::fmt_ns(h.p50),
            p2auth_obs::report::fmt_ns(h.p95),
            p2auth_obs::report::fmt_ns(h.p99),
            p2auth_obs::report::fmt_ns(h.max),
        ]);
    }
}

/// Prints a markdown table header (with separator line).
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_split_disjoint() {
        let (attackers, third) = identity_split(3, 15);
        assert_eq!(attackers.len(), 4);
        assert_eq!(third.len(), 10);
        assert!(!attackers.contains(&3) && !third.contains(&3));
        for a in &attackers {
            assert!(!third.contains(a));
        }
    }

    #[test]
    fn identity_split_small_cohort() {
        let (attackers, third) = identity_split(0, 3);
        assert_eq!(attackers.len(), 1);
        assert_eq!(third.len(), 1);
    }

    #[test]
    fn paper_pins_parse() {
        assert_eq!(paper_pins().len(), 5);
    }

    #[test]
    fn full_waveforms_have_fixed_shape() {
        use p2auth_sim::{HandMode, Population, PopulationConfig, SessionConfig};
        let pop = Population::generate(&PopulationConfig {
            num_users: 2,
            seed: 9,
            ..Default::default()
        });
        let pin = &paper_pins()[0];
        let session = SessionConfig::default();
        let recs: Vec<Recording> = (0..3)
            .map(|i| pop.record_entry(0, pin, HandMode::OneHanded, &session, i))
            .collect();
        let cfg = p2auth_core::P2AuthConfig::fast();
        let ws = full_waveforms(&cfg, &recs);
        assert_eq!(ws.len(), 3);
        for w in &ws {
            assert_eq!(w.len(), cfg.full_waveform_len);
            assert_eq!(w.num_channels(), 4);
        }
    }
}
