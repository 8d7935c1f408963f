//! Fused transform-and-score: `w · φ(x) + b` without materializing φ.
//!
//! The P²Auth decision is a linear scorer over MiniRocket PPV features.
//! Because PPV pooling emits features in a fixed (dilation, kernel,
//! bias) order, the dot product can be folded directly into the kernel
//! sweep: as each convolution output is pooled, its PPV is multiplied
//! by the matching weight and accumulated — the 9996-feature vector is
//! never built. In f64 this is **bit-identical** to transform-then-dot,
//! because `p2auth_ml::linalg::dot` is a sequential multiply-accumulate
//! from 0.0 in exactly the same feature order, and the decision adds
//! the intercept last (see `DESIGN.md` §11 for the full argument; the
//! equivalence is pinned by tests here and in `p2auth-core`).
//!
//! [`FusedScorer`] owns a compacted copy of the transform's constant
//! tables (dilations, kernels, paddings, flattened channel subsets)
//! with per-feature `(bias, weight)` pairs interleaved for locality —
//! this is the per-profile "constant arena" unit that
//! `p2auth_core`'s profile arena holds once per enrolled model and
//! shares across sessions. [`FusedScorer::arena_bytes`] reports its
//! resident size for capacity planning.

use crate::kernels::NUM_KERNELS;
use crate::series::MultiSeries;
use crate::transform::{ppv, ConvScratch, MiniRocket};

/// A linear scorer folded into the MiniRocket kernel sweep.
///
/// Build one per enrolled model with [`FusedScorer::new`], then call
/// [`FusedScorer::score`] per keystroke segment. The scorer is
/// immutable and self-contained (it does not borrow the transform it
/// was built from), so it can be cached in a long-lived arena and
/// shared across authentication sessions.
#[derive(Debug, Clone)]
pub struct FusedScorer {
    input_length: usize,
    num_channels: usize,
    dilations: Vec<usize>,
    features_per_combo: usize,
    kernels: Vec<[usize; 3]>,
    paddings: Vec<bool>,
    /// Flattened channel subsets: combo `c` spans
    /// `subset_data[subset_bounds[c] as usize..subset_bounds[c + 1] as usize]`.
    subset_bounds: Vec<u32>,
    subset_data: Vec<usize>,
    /// Interleaved per-feature `(bias, weight)` pairs, in the exact
    /// feature order `transform_into` emits.
    bias_weight: Vec<(f64, f64)>,
    intercept: f64,
}

impl FusedScorer {
    /// Folds a linear model (`weights`, `intercept`) into the fitted
    /// transform's constant tables.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from
    /// [`MiniRocket::num_output_features`].
    #[must_use]
    pub fn new(rocket: &MiniRocket, weights: &[f64], intercept: f64) -> Self {
        assert_eq!(
            weights.len(),
            rocket.num_output_features(),
            "weight vector length must match the transform's feature count"
        );
        let num_combos = rocket.dilations.len() * NUM_KERNELS;
        let mut subset_bounds = Vec::with_capacity(num_combos + 1);
        let mut subset_data = Vec::with_capacity(rocket.channel_subsets.iter().map(Vec::len).sum());
        subset_bounds.push(0_u32);
        for subset in &rocket.channel_subsets {
            subset_data.extend_from_slice(subset);
            subset_bounds.push(u32::try_from(subset_data.len()).expect("subset table fits u32"));
        }
        let bias_weight = rocket
            .biases
            .iter()
            .zip(weights)
            .map(|(&b, &w)| (b, w))
            .collect();
        Self {
            input_length: rocket.input_length,
            num_channels: rocket.num_channels,
            dilations: rocket.dilations.clone(),
            features_per_combo: rocket.features_per_combo,
            kernels: rocket.kernels.clone(),
            paddings: rocket.paddings.clone(),
            subset_bounds,
            subset_data,
            bias_weight,
            intercept,
        }
    }

    /// Input length the underlying transform was fitted for.
    #[must_use]
    pub fn input_length(&self) -> usize {
        self.input_length
    }

    /// Channel count the underlying transform was fitted for.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Number of (virtual) features the folded weight vector covers.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.bias_weight.len()
    }

    /// Resident heap + inline size of this scorer's constant tables in
    /// bytes. Used by the arena memory-budget accounting (DESIGN.md
    /// §11): the dominant term is the `(bias, weight)` table at 16
    /// bytes per feature.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.dilations.capacity() * std::mem::size_of::<usize>()
            + self.kernels.capacity() * std::mem::size_of::<[usize; 3]>()
            + self.paddings.capacity()
            + self.subset_bounds.capacity() * std::mem::size_of::<u32>()
            + self.subset_data.capacity() * std::mem::size_of::<usize>()
            + self.bias_weight.capacity() * std::mem::size_of::<(f64, f64)>()
    }

    /// Scores one segment: sensor samples in, decision margin out, with
    /// no materialized feature vector. Bit-identical (f64) to
    /// `dot(weights, transform_one(series)) + intercept`.
    ///
    /// # Panics
    ///
    /// Panics if the series shape differs from the training data.
    #[must_use]
    pub fn score(&self, series: &MultiSeries, scratch: &mut ConvScratch) -> f64 {
        let _span = p2auth_obs::span!("rocket.fused");
        p2auth_obs::counter!("rocket.fused.scores").incr();
        assert_eq!(series.len(), self.input_length, "series length mismatch");
        assert_eq!(
            series.num_channels(),
            self.num_channels,
            "channel count mismatch"
        );
        let mut acc = 0.0_f64;
        let mut feat = 0;
        for (d_idx, &dilation) in self.dilations.iter().enumerate() {
            scratch.prepare_dilation(series, dilation);
            for (k_idx, kernel) in self.kernels.iter().enumerate() {
                let combo = d_idx * NUM_KERNELS + k_idx;
                let subset = &self.subset_data
                    [self.subset_bounds[combo] as usize..self.subset_bounds[combo + 1] as usize];
                let conv = scratch.convolve_prepared(subset, *kernel, self.paddings[combo]);
                // Same accumulation order as `dot`: products added
                // left-to-right from 0.0, intercept last.
                for &(bias, w) in &self.bias_weight[feat..feat + self.features_per_combo] {
                    acc += w * ppv(conv, bias);
                }
                feat += self.features_per_combo;
            }
        }
        acc + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::MiniRocketConfig;

    fn sine_series(n: usize, freq: f64, channels: usize) -> MultiSeries {
        let data: Vec<Vec<f64>> = (0..channels)
            .map(|c| {
                (0..n)
                    .map(|i| ((i as f64 + c as f64 * 3.0) * freq).sin())
                    .collect()
            })
            .collect();
        MultiSeries::new(data).unwrap()
    }

    /// Same expression as `p2auth_ml::linalg::dot` (sequential
    /// multiply-accumulate from 0.0) — the fused path must match this
    /// composition bit-for-bit.
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn pseudo_weights(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic, sign-varying weights without an RNG dependency.
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed);
                (h % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn fused_score_bit_identical_to_transform_then_dot() {
        for (len, channels, seed) in [(90, 2, 7_u64), (64, 1, 42), (128, 4, 0xbeef)] {
            let train: Vec<MultiSeries> = (0..4)
                .map(|i| sine_series(len, 0.2 + 0.17 * i as f64, channels))
                .collect();
            let cfg = MiniRocketConfig {
                seed,
                ..Default::default()
            };
            let rocket = MiniRocket::fit(&cfg, &train).unwrap();
            let weights = pseudo_weights(rocket.num_output_features(), seed);
            let intercept = 0.137 * seed as f64;
            let scorer = FusedScorer::new(&rocket, &weights, intercept);
            let mut scratch = ConvScratch::new(len);
            for probe in &train {
                let features = rocket.transform_one(probe);
                let expect = dot(&weights, &features) + intercept;
                let got = scorer.score(probe, &mut scratch);
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "len={len} ch={channels} seed={seed}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn zero_weights_score_intercept() {
        let train = vec![sine_series(64, 0.3, 2), sine_series(64, 0.8, 2)];
        let rocket = MiniRocket::fit(&MiniRocketConfig::default(), &train).unwrap();
        let weights = vec![0.0; rocket.num_output_features()];
        let scorer = FusedScorer::new(&rocket, &weights, -1.25);
        let mut scratch = ConvScratch::new(64);
        assert_eq!(scorer.score(&train[0], &mut scratch), -1.25);
    }

    #[test]
    fn arena_bytes_dominated_by_bias_weight_table() {
        let train = vec![sine_series(90, 0.3, 2), sine_series(90, 0.8, 2)];
        let rocket = MiniRocket::fit(&MiniRocketConfig::default(), &train).unwrap();
        let weights = pseudo_weights(rocket.num_output_features(), 3);
        let scorer = FusedScorer::new(&rocket, &weights, 0.0);
        let bytes = scorer.arena_bytes();
        let bias_weight_bytes = scorer.num_features() * 16;
        assert!(bytes >= bias_weight_bytes);
        // The constant tables beyond (bias, weight) are small: combo
        // tables scale with 840 combos, not 9996 features.
        assert!(
            bytes < 4 * bias_weight_bytes,
            "arena unexpectedly large: {bytes} vs table {bias_weight_bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn mismatched_weight_length_panics() {
        let train = vec![sine_series(64, 0.3, 1)];
        let rocket = MiniRocket::fit(&MiniRocketConfig::default(), &train).unwrap();
        let _ = FusedScorer::new(&rocket, &[1.0, 2.0], 0.0);
    }
}
