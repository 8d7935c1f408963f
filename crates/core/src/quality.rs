//! Per-segment signal quality assessment (SQI).
//!
//! Real wrist-worn PPG fails in ways the link layer cannot see: a
//! saturated LED, a detached band, gross wrist motion during PIN entry.
//! This module scores every keystroke segment with cheap statistics the
//! pipeline already computes nearby, so the decision logic can weight,
//! exclude, or re-prompt instead of authenticating on garbage:
//!
//! * **Clipping fraction** — samples pinned at the segment extreme
//!   (LED/ADC saturation rails).
//! * **Flatline run** — longest run of unchanging samples (saturation
//!   or sample-and-hold dropouts).
//! * **Short-time-energy outlier** — the segment's detrend-residual
//!   energy against the attempt's median segment energy (gross motion
//!   bursts dwarf real keystroke artifacts).
//! * **Inter-channel correlation** — radial/ulnar channels see the same
//!   cardiovascular signal; a detached or noise-dominated channel
//!   decorrelates.
//! * **Perfusion amplitude** — peak-to-peak against the subject's
//!   enrolled range (detached bands collapse it, saturation inflates
//!   it).
//!
//! Every statistic has a *clean margin*: a segment inside all margins
//! scores exactly `1.0`, so on fault-free input quality weighting is
//! bit-for-bit invisible (the gating-invariance tests pin this).
//! Segments below [`crate::P2AuthConfig::sqi_floor`] are excluded from
//! voting entirely and surface as
//! [`crate::RejectReason::PoorSignal`] when too few remain.

use crate::config::P2AuthConfig;
use crate::enroll::{extract_for_auth, ExtractedWaveforms, UserProfile};
use crate::error::AuthError;
use crate::preprocess::{self, Preprocessed};
use crate::types::Recording;
use p2auth_dsp::detrend::detrend;
use p2auth_dsp::stats::peak_to_peak;
use p2auth_rocket::MultiSeries;
use std::borrow::Cow;

/// Clipping fraction above which a segment is flagged as clipped. A
/// clean noisy segment touches its extreme a couple of samples out of
/// ~90; a railed one sits there for whole episodes.
const CLIP_FRAC_FLAG: f64 = 0.08;
/// Flatline fraction (longest unchanged run / segment length) above
/// which a segment is flagged.
const FLATLINE_FRAC_FLAG: f64 = 0.20;
/// Detrend-residual energy ratio (segment / attempt median) above which
/// a segment is flagged as a motion outlier. Clean keystroke coupling
/// varies the ratio by well under an order of magnitude.
const ENERGY_RATIO_FLAG: f64 = 10.0;
/// Minimum inter-channel correlation before a multi-channel segment is
/// flagged as decorrelated.
const CORR_FLAG: f64 = 0.25;
/// Allowed perfusion band relative to the enrolled `(lo, hi)` range:
/// `[PERFUSION_LO_FACTOR * lo, PERFUSION_HI_FACTOR * hi]`.
const PERFUSION_LO_FACTOR: f64 = 0.25;
/// See [`PERFUSION_LO_FACTOR`].
const PERFUSION_HI_FACTOR: f64 = 4.0;
/// Subscores never collapse below this, so one bad statistic cannot
/// zero the SQI outright (the flags carry the diagnosis).
const MIN_SUBSCORE: f64 = 0.05;

/// Which quality checks a segment failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityFlags {
    /// Too many samples pinned at the segment extreme.
    pub clipped: bool,
    /// Flatline run too long (saturation / dropout hold).
    pub flatline: bool,
    /// Detrend-residual energy is an outlier vs. the attempt median.
    pub energy_outlier: bool,
    /// Inter-channel correlation collapsed.
    pub decorrelated: bool,
    /// Perfusion amplitude outside the enrolled range.
    pub perfusion_out_of_range: bool,
}

impl QualityFlags {
    /// Whether any check failed.
    #[must_use]
    pub fn any(self) -> bool {
        self.clipped
            || self.flatline
            || self.energy_outlier
            || self.decorrelated
            || self.perfusion_out_of_range
    }

    /// Stable short names of the raised flags (empty when clean).
    #[must_use]
    pub fn labels(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.clipped {
            out.push("clipped");
        }
        if self.flatline {
            out.push("flatline");
        }
        if self.energy_outlier {
            out.push("energy_outlier");
        }
        if self.decorrelated {
            out.push("decorrelated");
        }
        if self.perfusion_out_of_range {
            out.push("perfusion");
        }
        out
    }
}

impl std::fmt::Display for QualityFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return f.write_str("clean");
        }
        f.write_str(&self.labels().join("+"))
    }
}

/// Quality verdict for one keystroke segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentQuality {
    /// Signal quality index in `[0, 1]`; exactly `1.0` for a segment
    /// inside every clean margin.
    pub sqi: f64,
    /// Which checks failed.
    pub flags: QualityFlags,
}

impl SegmentQuality {
    /// Whether the segment may vote under the given floor.
    #[must_use]
    pub fn usable(&self, floor: f64) -> bool {
        self.sqi >= floor
    }
}

/// Raw per-segment statistics, computed once during extraction and
/// scored later (scoring needs attempt-level context: the median
/// segment energy and the profile's enrolled perfusion range).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegmentStats {
    /// Fraction of samples pinned at the per-channel extreme (max over
    /// channels).
    pub(crate) clip_frac: f64,
    /// Longest unchanged-sample run / segment length (max over
    /// channels).
    pub(crate) flatline_frac: f64,
    /// Mean squared detrend residual, averaged over channels.
    pub(crate) energy: f64,
    /// Minimum pairwise inter-channel correlation (1.0 for a single
    /// channel).
    pub(crate) min_corr: f64,
    /// Mean peak-to-peak amplitude across channels.
    pub(crate) perfusion: f64,
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let ma = a[..n].iter().sum::<f64>() / n as f64;
    let mb = b[..n].iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    let denom = (va * vb).sqrt();
    if denom < 1e-18 {
        // A flat channel carries no shared cardiovascular signal.
        0.0
    } else {
        cov / denom
    }
}

/// Longest run of consecutive near-equal samples.
fn longest_flat_run(x: &[f64], tol: f64) -> usize {
    let mut best = 1_usize;
    let mut run = 1_usize;
    for w in x.windows(2) {
        if (w[1] - w[0]).abs() <= tol {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best
}

/// Statistics of one raw (pre-normalization) segment.
pub(crate) fn segment_stats(seg: &MultiSeries, detrend_lambda: f64) -> SegmentStats {
    let n = seg.len().max(1);
    let mut clip_frac = 0.0_f64;
    let mut flat_frac = 0.0_f64;
    let mut energy_sum = 0.0_f64;
    let mut perfusion_sum = 0.0_f64;
    for c in seg.channels() {
        let mx = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mn = c.iter().copied().fold(f64::INFINITY, f64::min);
        let scale = (mx - mn).abs().max(mx.abs()).max(mn.abs()).max(1e-12);
        let tol = 1e-9 * scale;
        let pinned = c
            .iter()
            .filter(|v| (**v - mx).abs() <= tol || (**v - mn).abs() <= tol)
            .count();
        clip_frac = clip_frac.max(pinned as f64 / n as f64);
        flat_frac = flat_frac.max(longest_flat_run(c, tol) as f64 / n as f64);
        let residual = if detrend_lambda > 0.0 {
            detrend(c, detrend_lambda)
        } else {
            let mean = c.iter().sum::<f64>() / n as f64;
            c.iter().map(|v| v - mean).collect()
        };
        energy_sum += residual.iter().map(|v| v * v).sum::<f64>() / n as f64;
        perfusion_sum += peak_to_peak(c);
    }
    let channels = seg.num_channels().max(1) as f64;
    let mut min_corr = 1.0_f64;
    for i in 0..seg.num_channels() {
        for j in (i + 1)..seg.num_channels() {
            min_corr = min_corr.min(pearson(seg.channel(i), seg.channel(j)));
        }
    }
    SegmentStats {
        clip_frac,
        flatline_frac: flat_frac,
        energy: energy_sum / channels,
        min_corr,
        perfusion: perfusion_sum / channels,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// Scores every segment of one attempt. Clean segments (inside every
/// margin) score exactly 1.0 with no flags.
pub(crate) fn score_all(
    stats: &[SegmentStats],
    perfusion_range: Option<(f64, f64)>,
) -> Vec<SegmentQuality> {
    let mut energies: Vec<f64> = stats.iter().map(|s| s.energy).collect();
    let median_energy = median(&mut energies);
    stats
        .iter()
        .map(|s| score_one(s, median_energy, perfusion_range))
        .collect()
}

fn score_one(
    s: &SegmentStats,
    median_energy: f64,
    perfusion_range: Option<(f64, f64)>,
) -> SegmentQuality {
    let mut flags = QualityFlags::default();
    let mut sqi = 1.0_f64;

    if s.clip_frac > CLIP_FRAC_FLAG {
        flags.clipped = true;
        sqi *= (1.0 - s.clip_frac).max(MIN_SUBSCORE);
    }
    if s.flatline_frac > FLATLINE_FRAC_FLAG {
        flags.flatline = true;
        sqi *= (1.0 - s.flatline_frac).max(MIN_SUBSCORE);
    }
    let ratio = s.energy / (median_energy + 1e-12);
    if median_energy > 0.0 && ratio > ENERGY_RATIO_FLAG {
        flags.energy_outlier = true;
        sqi *= (ENERGY_RATIO_FLAG / ratio).clamp(MIN_SUBSCORE, 1.0);
    }
    if s.min_corr < CORR_FLAG {
        flags.decorrelated = true;
        sqi *= (s.min_corr.max(0.0) / CORR_FLAG).clamp(MIN_SUBSCORE, 1.0);
    }
    if let Some((lo, hi)) = perfusion_range {
        let lo_bound = PERFUSION_LO_FACTOR * lo;
        let hi_bound = PERFUSION_HI_FACTOR * hi.max(lo);
        if lo_bound > 0.0 && s.perfusion < lo_bound {
            flags.perfusion_out_of_range = true;
            sqi *= (s.perfusion / lo_bound).clamp(MIN_SUBSCORE, 1.0);
        } else if hi_bound > 0.0 && s.perfusion > hi_bound {
            flags.perfusion_out_of_range = true;
            sqi *= (hi_bound / s.perfusion).clamp(MIN_SUBSCORE, 1.0);
        }
    }
    SegmentQuality {
        sqi: sqi.clamp(0.0, 1.0),
        flags,
    }
}

/// Quality of one keystroke position within an attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeystrokeQuality {
    /// Keystroke index within the PIN entry.
    pub index: usize,
    /// The digit typed at this position.
    pub digit: u8,
    /// Whether case identification detected the keystroke at all.
    pub detected: bool,
    /// Segment quality (`None` when not detected).
    pub quality: Option<SegmentQuality>,
}

/// Whole-attempt quality summary, as consumed by the device-layer
/// session supervisor and the CLI `quality` command.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptQuality {
    /// One entry per PIN digit, in entry order.
    pub per_keystroke: Vec<KeystrokeQuality>,
    /// Keystrokes detected by case identification.
    pub detected: usize,
    /// Detected keystrokes at or above the SQI floor.
    pub usable: usize,
    /// Mean SQI over the detected keystrokes (1.0 when none detected).
    pub mean_sqi: f64,
}

/// One delivered attempt, analyzed once: the attempt at the profile's
/// sample rate, its [`preprocess`](crate::preprocess::preprocess)
/// output, the extracted keystroke waveforms and the per-segment SQI.
///
/// Both consumers of an attempt read from it. The quality assessment
/// ([`AttemptAnalysis::quality`]) summarizes it, and the decision
/// ([`crate::auth::authenticate_analyzed_arena`]) scores its waveforms.
/// A supervised session builds one per delivered attempt in its
/// Assessing state and hands that same analysis to Deciding, so the
/// preprocess → segmentation → SQI pass runs once per attempt.
///
/// Build it with [`analyze_attempt_arena`] against the arena the
/// attempt is then decided on: the enrolled sample rate and perfusion
/// range are baked in.
#[derive(Debug)]
pub struct AttemptAnalysis<'a> {
    /// The recording as delivered; the decision's prechecks read it.
    pub(crate) source: &'a Recording,
    /// `source` at the profile's sample rate.
    pub(crate) attempt: Cow<'a, Recording>,
    pub(crate) pre: Preprocessed,
    pub(crate) extracted: ExtractedWaveforms,
    /// One entry per detected keystroke, aligned with
    /// `extracted.segments`.
    pub(crate) quals: Vec<SegmentQuality>,
}

impl<'a> AttemptAnalysis<'a> {
    /// The recording as delivered (before any resampling).
    #[must_use]
    pub fn recording(&self) -> &'a Recording {
        self.source
    }

    /// Summarizes the analysis into the supervisor's quality verdict.
    /// Equal to [`assess_attempt_arena`] on the same recording and
    /// arena.
    #[must_use]
    pub fn quality(&self, config: &P2AuthConfig) -> AttemptQuality {
        let digits = self.attempt.pin_entered.digits();
        let mut qual_iter = self.quals.iter();
        let per_keystroke = self
            .pre
            .case
            .present
            .iter()
            .enumerate()
            .map(|(i, &p)| KeystrokeQuality {
                index: i,
                digit: digits.get(i).copied().unwrap_or(0),
                detected: p,
                quality: if p { qual_iter.next().copied() } else { None },
            })
            .collect();
        let quals = &self.quals;
        let usable = quals.iter().filter(|q| q.usable(config.sqi_floor)).count();
        let mean_sqi = if quals.is_empty() {
            1.0
        } else {
            quals.iter().map(|q| q.sqi).sum::<f64>() / quals.len() as f64
        };
        AttemptQuality {
            per_keystroke,
            detected: quals.len(),
            usable,
            mean_sqi,
        }
    }
}

/// Analyzes one attempt against a prebuilt [`crate::ProfileArena`]:
/// validate, bring it to the enrolled sample rate, preprocess, segment,
/// and score every detected keystroke's SQI against the enrolled
/// perfusion range.
///
/// # Errors
///
/// Returns [`AuthError`] for malformed recordings or failed
/// segmentation.
pub fn analyze_attempt_arena<'a>(
    config: &P2AuthConfig,
    arena: &crate::ProfileArena,
    attempt: &'a Recording,
) -> Result<AttemptAnalysis<'a>, AuthError> {
    analyze_impl(config, arena.sample_rate, arena.perfusion_range, attempt)
}

/// Assesses the signal quality of one attempt without running any
/// classifier. This is not cheap: it is the full validate + resample +
/// preprocess + segmentation + SQI pass of an [`AttemptAnalysis`],
/// summarized by [`AttemptAnalysis::quality`]. A caller that goes on to
/// decide the same attempt should analyze it once with
/// [`analyze_attempt_arena`] and decide on that analysis instead, as
/// the session supervisor does.
///
/// # Errors
///
/// Returns [`AuthError`] for malformed recordings or failed
/// segmentation — the same conditions as
/// [`authenticate`](crate::auth::authenticate).
pub fn assess_attempt(
    config: &P2AuthConfig,
    profile: &UserProfile,
    attempt: &Recording,
) -> Result<AttemptQuality, AuthError> {
    analyze_impl(
        config,
        profile.sample_rate(),
        profile.perfusion_range(),
        attempt,
    )
    .map(|a| a.quality(config))
}

/// [`assess_attempt`] against a prebuilt [`crate::ProfileArena`]: the
/// verdict is identical to assessing against the source profile.
///
/// # Errors
///
/// Same conditions as [`assess_attempt`].
pub fn assess_attempt_arena(
    config: &P2AuthConfig,
    arena: &crate::ProfileArena,
    attempt: &Recording,
) -> Result<AttemptQuality, AuthError> {
    analyze_attempt_arena(config, arena, attempt).map(|a| a.quality(config))
}

fn analyze_impl<'a>(
    config: &P2AuthConfig,
    sample_rate: f64,
    perfusion_range: Option<(f64, f64)>,
    attempt: &'a Recording,
) -> Result<AttemptAnalysis<'a>, AuthError> {
    attempt
        .validate()
        .map_err(|detail| AuthError::InvalidRecording { detail })?;
    analyze_at_rate(
        config,
        attempt,
        at_rate(attempt, sample_rate),
        perfusion_range,
    )
}

/// `attempt` at `sample_rate`, resampled only when the rates differ.
pub(crate) fn at_rate(attempt: &Recording, sample_rate: f64) -> Cow<'_, Recording> {
    if (attempt.sample_rate - sample_rate).abs() > 1e-9 {
        Cow::Owned(attempt.resample(sample_rate))
    } else {
        Cow::Borrowed(attempt)
    }
}

/// The analysis of a validated `source` already brought to the
/// profile's rate (`attempt`).
pub(crate) fn analyze_at_rate<'a>(
    config: &P2AuthConfig,
    source: &'a Recording,
    attempt: Cow<'a, Recording>,
    perfusion_range: Option<(f64, f64)>,
) -> Result<AttemptAnalysis<'a>, AuthError> {
    let pre = preprocess::preprocess(config, &attempt)?;
    let extracted = extract_for_auth(config, &attempt, &pre)?;
    let quals = score_all(&extracted.seg_stats, perfusion_range);
    Ok(AttemptAnalysis {
        source,
        attempt,
        pre,
        extracted,
        quals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(channels: Vec<Vec<f64>>) -> MultiSeries {
        MultiSeries::new(channels).expect("well-formed")
    }

    fn clean_wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 100.0;
                (std::f64::consts::TAU * 1.3 * t + phase).sin()
                    + 0.15 * (std::f64::consts::TAU * 7.0 * t).sin()
            })
            .collect()
    }

    #[test]
    fn clean_segment_scores_exactly_one() {
        let seg = series(vec![clean_wave(90, 0.0), clean_wave(90, 0.05)]);
        let stats = segment_stats(&seg, 50.0);
        let q = score_all(&[stats], Some((1.0, 3.0)))[0];
        assert_eq!(q.sqi, 1.0, "clean segment must score exactly 1.0");
        assert!(!q.flags.any(), "clean segment must raise no flags");
    }

    #[test]
    fn railed_segment_is_flagged_clipped_and_flat() {
        let mut a = clean_wave(90, 0.0);
        for v in a.iter_mut().take(60).skip(20) {
            *v = 2.5;
        }
        let seg = series(vec![a]);
        let stats = segment_stats(&seg, 50.0);
        assert!(stats.clip_frac > 0.3);
        let q = score_all(&[stats], None)[0];
        assert!(q.flags.clipped && q.flags.flatline);
        assert!(q.sqi < 0.6, "railed segment must score low, got {}", q.sqi);
    }

    #[test]
    fn held_samples_are_flagged_flatline() {
        let mut a = clean_wave(90, 0.0);
        let held = a[30];
        for v in a.iter_mut().take(55).skip(30) {
            *v = held;
        }
        let seg = series(vec![a]);
        let q = score_all(&[segment_stats(&seg, 50.0)], None)[0];
        assert!(q.flags.flatline);
        assert!(q.sqi < 1.0);
    }

    #[test]
    fn energy_outlier_needs_attempt_context() {
        let calm = segment_stats(&series(vec![clean_wave(90, 0.0)]), 50.0);
        let violent: Vec<f64> = clean_wave(90, 0.0)
            .iter()
            .enumerate()
            .map(|(i, v)| v + 20.0 * (i as f64 * 0.9).sin())
            .collect();
        let hot = segment_stats(&series(vec![violent]), 50.0);
        let quals = score_all(&[calm, calm, calm, hot], None);
        assert!(!quals[0].flags.energy_outlier);
        assert!(quals[3].flags.energy_outlier, "motion burst must flag");
        assert!(quals[3].sqi < quals[0].sqi);
    }

    #[test]
    fn decorrelated_channels_are_flagged() {
        let a = clean_wave(90, 0.0);
        let noise: Vec<f64> = (0..90)
            .map(|i| ((i * 7919 % 113) as f64 - 56.0) / 56.0)
            .collect();
        let q = score_all(&[segment_stats(&series(vec![a, noise]), 50.0)], None)[0];
        assert!(q.flags.decorrelated);
        assert!(q.sqi < 1.0);
    }

    #[test]
    fn perfusion_range_flags_collapse_and_inflation() {
        let tiny: Vec<f64> = clean_wave(90, 0.0).iter().map(|v| v * 0.01).collect();
        let q = score_all(
            &[segment_stats(&series(vec![tiny]), 50.0)],
            Some((2.0, 3.0)),
        )[0];
        assert!(q.flags.perfusion_out_of_range, "collapsed perfusion");
        let huge: Vec<f64> = clean_wave(90, 0.0).iter().map(|v| v * 50.0).collect();
        let q = score_all(
            &[segment_stats(&series(vec![huge]), 50.0)],
            Some((0.5, 1.0)),
        )[0];
        assert!(q.flags.perfusion_out_of_range, "inflated perfusion");
        // No enrolled range: the component is inert.
        let q = score_all(
            &[segment_stats(&series(vec![clean_wave(90, 0.0)]), 50.0)],
            None,
        )[0];
        assert!(!q.flags.perfusion_out_of_range);
    }

    #[test]
    fn flags_render_compactly() {
        assert_eq!(QualityFlags::default().to_string(), "clean");
        let f = QualityFlags {
            clipped: true,
            flatline: true,
            ..QualityFlags::default()
        };
        assert_eq!(f.to_string(), "clipped+flatline");
        assert_eq!(f.labels(), vec!["clipped", "flatline"]);
    }

    #[test]
    fn pearson_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        let flat = [5.0; 4];
        assert_eq!(pearson(&a, &flat), 0.0, "flat channel shares nothing");
    }
}
