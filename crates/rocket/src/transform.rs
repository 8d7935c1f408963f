//! The MiniRocket fit/transform pipeline.
//!
//! # Performance notes
//!
//! This module is the hot path of every P²Auth operation, and its inner
//! loops are built around three ideas:
//!
//! * **Flat, reusable scratch** — [`ConvScratch`] holds one contiguous
//!   `[channel][tap][i]` buffer of dilated-shifted signals plus the
//!   per-channel 9-tap sums, allocated once and reused across dilations,
//!   kernels and (in batch paths) series.
//! * **Fused `3·S3 − S9` kernel** — every MiniRocket kernel decomposes
//!   into the shared 9-tap sum and three high-weight taps; the inner
//!   loop walks equal-length slices with iterator zips so the compiler
//!   can elide bounds checks and vectorize.
//! * **Grouped bias sampling** — during [`MiniRocket::fit`], combos are
//!   grouped by `(dilation, training sample)` so the shifted buffers are
//!   prepared once per group instead of once per combo (84× less
//!   preparation per dilation in the common case), while drawing random
//!   numbers in exactly the original order so fitted transforms stay
//!   bit-identical.
//!
//! Batch entry points fan out across threads via `p2auth-par`; outputs
//! are bit-identical to the serial path because each series is
//! processed independently by the same code.

use crate::kernels::{kernel_indices, KERNEL_LENGTH, NUM_KERNELS};
use crate::series::MultiSeries;
use p2auth_par::{num_threads, par_map_init, FeatureMatrix};
use p2auth_rng::Rng;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// Configuration for fitting a [`MiniRocket`] transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniRocketConfig {
    /// Approximate total number of output features. The fitted transform
    /// rounds this to a multiple of the 84 kernels; see
    /// [`MiniRocket::num_output_features`] for the exact count.
    pub num_features: usize,
    /// Upper bound on the number of distinct dilations per kernel
    /// (32 in the reference implementation).
    pub max_dilations_per_kernel: usize,
    /// Seed for bias sampling and channel-subset selection; the same
    /// seed and training set always produce the same transform.
    pub seed: u64,
}

impl Default for MiniRocketConfig {
    fn default() -> Self {
        Self {
            num_features: 840,
            max_dilations_per_kernel: 32,
            seed: 0x9e37_79b9,
        }
    }
}

/// Error fitting a [`MiniRocket`] transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Training series had differing lengths (MiniRocket requires equal
    /// lengths; P²Auth guarantees this via fixed segmentation windows).
    UnequalLengths {
        /// Length of the first series.
        expected: usize,
        /// Conflicting length found.
        found: usize,
    },
    /// Training series had differing channel counts.
    UnequalChannels {
        /// Channel count of the first series.
        expected: usize,
        /// Conflicting channel count found.
        found: usize,
    },
    /// The series are too short for the length-9 kernels.
    TooShort {
        /// Actual input length.
        len: usize,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyTrainingSet => write!(f, "empty training set"),
            FitError::UnequalLengths { expected, found } => {
                write!(f, "training series lengths differ: {found} != {expected}")
            }
            FitError::UnequalChannels { expected, found } => {
                write!(f, "training channel counts differ: {found} != {expected}")
            }
            FitError::TooShort { len } => {
                write!(f, "series length {len} too short for length-9 kernels")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted MiniRocket transform.
///
/// Create with [`MiniRocket::fit`], then apply with
/// [`MiniRocket::transform`] or [`MiniRocket::transform_one`]. The
/// transform is fully deterministic given the config seed and training
/// data, and immutable once fitted. [`MiniRocket::write_json`] and
/// [`MiniRocket::from_json`] persist it on a device.
#[derive(Debug, Clone)]
pub struct MiniRocket {
    pub(crate) input_length: usize,
    pub(crate) num_channels: usize,
    pub(crate) dilations: Vec<usize>,
    pub(crate) features_per_combo: usize,
    /// Channel subset per (dilation, kernel) combo, row-major by dilation.
    pub(crate) channel_subsets: Vec<Vec<usize>>,
    /// Whether each (dilation, kernel) combo uses "same" (zero) padding.
    pub(crate) paddings: Vec<bool>,
    /// Biases per (dilation, kernel, feature), row-major.
    pub(crate) biases: Vec<f64>,
    pub(crate) kernels: Vec<[usize; 3]>,
}

impl MiniRocket {
    /// Fits the transform on a training set: chooses dilations from the
    /// input length, assigns channel subsets, and samples bias values
    /// from quantiles of training convolution outputs.
    ///
    /// The training set may be owned series (`&[MultiSeries]`) or
    /// borrowed ones (`&[&MultiSeries]`); callers holding slices of
    /// series need not clone them into a fresh `Vec`.
    ///
    /// Bias sampling prepares each `(dilation, training sample)` group
    /// once and fans groups out across threads; random draws happen
    /// up front in the original per-combo order, so the fitted transform
    /// is bit-identical to a fully serial, ungrouped fit.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if the training set is empty, ragged in
    /// length or channel count, or shorter than 9 samples.
    pub fn fit<S>(config: &MiniRocketConfig, train: &[S]) -> Result<Self, FitError>
    where
        S: Borrow<MultiSeries> + Sync,
    {
        let _span = p2auth_obs::span!("rocket.fit");
        let first = train.first().ok_or(FitError::EmptyTrainingSet)?.borrow();
        let input_length = first.len();
        let num_channels = first.num_channels();
        for s in train {
            let s = s.borrow();
            if s.len() != input_length {
                return Err(FitError::UnequalLengths {
                    expected: input_length,
                    found: s.len(),
                });
            }
            if s.num_channels() != num_channels {
                return Err(FitError::UnequalChannels {
                    expected: num_channels,
                    found: s.num_channels(),
                });
            }
        }
        if input_length < KERNEL_LENGTH {
            return Err(FitError::TooShort { len: input_length });
        }
        p2auth_obs::event!(
            "rocket.fit",
            "training_set",
            series = train.len(),
            input_length = input_length,
            channels = num_channels,
        );

        let mut rng = Rng::seed_from_u64(config.seed);
        let kernels = kernel_indices();

        // Dilations: exponentially spaced in [1, (L-1)/8].
        let max_dilation = ((input_length - 1) / (KERNEL_LENGTH - 1)).max(1);
        let features_per_kernel = (config.num_features / NUM_KERNELS).max(1);
        let num_dilations = config
            .max_dilations_per_kernel
            .min(features_per_kernel)
            .max(1);
        let features_per_combo = (features_per_kernel / num_dilations).max(1);
        let max_exp = (max_dilation as f64).log2();
        let dilations: Vec<usize> = (0..num_dilations)
            .map(|i| {
                let e = if num_dilations == 1 {
                    0.0
                } else {
                    max_exp * i as f64 / (num_dilations - 1) as f64
                };
                (2.0_f64.powf(e).floor() as usize).clamp(1, max_dilation)
            })
            .collect();

        // Channel subsets per combo: exponentially distributed sizes, as
        // in multivariate MiniRocket.
        let num_combos = dilations.len() * NUM_KERNELS;
        let mut channel_subsets = Vec::with_capacity(num_combos);
        for _ in 0..num_combos {
            channel_subsets.push(sample_channel_subset(&mut rng, num_channels));
        }

        // Alternating padding.
        let paddings: Vec<bool> = (0..num_combos).map(|c| c % 2 == 0).collect();

        // Training-sample draws, in combo order: the draw order (and
        // therefore the fitted transform) must match the historical
        // one-draw-per-combo loop exactly.
        let sample_idx: Vec<usize> = (0..num_combos)
            .map(|_| rng.gen_range(0..train.len()))
            .collect();

        // Group combos sharing a (dilation, sample) pair: all 84 kernels
        // of a dilation usually land on a handful of samples, and one
        // prepare_dilation serves the whole group.
        let mut grouped: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (combo, &s) in sample_idx.iter().enumerate() {
            grouped
                .entry((combo / NUM_KERNELS, s))
                .or_default()
                .push(combo);
        }
        let groups: Vec<((usize, usize), Vec<usize>)> = grouped.into_iter().collect();

        // Biases: for each combo, convolve the drawn training example
        // and take low-discrepancy quantiles of the output. The quantile
        // sequence position depends only on the combo's global feature
        // index, so groups can run in any order (and in parallel).
        let phi = 0.618_033_988_749_894_9_f64; // golden-ratio sequence
        let mut biases = vec![0.0_f64; num_combos * features_per_combo];
        let group_biases: Vec<Vec<(usize, Vec<f64>)>> = par_map_init(
            &groups,
            || ConvScratch::new(input_length),
            |scratch, group| {
                let ((d_idx, s_idx), combos) = group;
                scratch.prepare_dilation(train[*s_idx].borrow(), dilations[*d_idx]);
                combos
                    .iter()
                    .map(|&combo| {
                        let conv = scratch.convolve_prepared(
                            &channel_subsets[combo],
                            kernels[combo % NUM_KERNELS],
                            paddings[combo],
                        );
                        let mut sorted = conv.to_vec();
                        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in convolution"));
                        let mut bs = Vec::with_capacity(features_per_combo);
                        for f in 0..features_per_combo {
                            let feature_counter = (combo * features_per_combo + f + 1) as u64;
                            let q = (feature_counter as f64 * phi).fract();
                            let pos = q * (sorted.len() - 1) as f64;
                            let i0 = pos.floor() as usize;
                            let frac = pos - i0 as f64;
                            let b = if i0 + 1 < sorted.len() {
                                sorted[i0] * (1.0 - frac) + sorted[i0 + 1] * frac
                            } else {
                                sorted[i0]
                            };
                            bs.push(b);
                        }
                        (combo, bs)
                    })
                    .collect()
            },
        );
        for group in group_biases {
            for (combo, bs) in group {
                biases[combo * features_per_combo..][..features_per_combo].copy_from_slice(&bs);
            }
        }

        Ok(Self {
            input_length,
            num_channels,
            dilations,
            features_per_combo,
            channel_subsets,
            paddings,
            biases,
            kernels,
        })
    }

    /// Exact number of features produced per series.
    pub fn num_output_features(&self) -> usize {
        self.dilations.len() * NUM_KERNELS * self.features_per_combo
    }

    /// Input length this transform was fitted for.
    pub fn input_length(&self) -> usize {
        self.input_length
    }

    /// Channel count this transform was fitted for.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Transforms one series into its PPV feature vector.
    ///
    /// Allocates a fresh [`ConvScratch`] per call; in loops, prefer
    /// [`MiniRocket::transform_one_with`] (reusing one scratch) or the
    /// batch [`MiniRocket::transform`].
    ///
    /// # Panics
    ///
    /// Panics if the series length or channel count differs from the
    /// training data (P²Auth's segmentation guarantees fixed shapes).
    pub fn transform_one(&self, series: &MultiSeries) -> Vec<f64> {
        let mut scratch = ConvScratch::new(self.input_length);
        self.transform_one_with(series, &mut scratch)
    }

    /// Transforms one series, reusing the caller's scratch buffers.
    ///
    /// Equivalent to [`MiniRocket::transform_one`] but allocation-free
    /// after the scratch's first use at this shape.
    ///
    /// # Panics
    ///
    /// Panics if the series shape differs from the training data.
    pub fn transform_one_with(&self, series: &MultiSeries, scratch: &mut ConvScratch) -> Vec<f64> {
        let _span = p2auth_obs::span!("rocket.transform");
        p2auth_obs::counter!("rocket.transform.series").incr();
        let mut out = Vec::with_capacity(self.num_output_features());
        self.transform_into(series, scratch, &mut out);
        out
    }

    /// Appends the feature vector of `series` onto `out`.
    ///
    /// This is the allocation-free core of the transform: given a warm
    /// scratch and an `out` with sufficient capacity, no heap
    /// allocation occurs. Auth-path callers that score every keystroke
    /// should reuse both across calls (clear `out`, keep its capacity)
    /// instead of going through [`MiniRocket::transform_one`].
    pub fn transform_into(
        &self,
        series: &MultiSeries,
        scratch: &mut ConvScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(series.len(), self.input_length, "series length mismatch");
        assert_eq!(
            series.num_channels(),
            self.num_channels,
            "channel count mismatch"
        );
        for (d_idx, &dilation) in self.dilations.iter().enumerate() {
            scratch.prepare_dilation(series, dilation);
            for (k_idx, kernel) in self.kernels.iter().enumerate() {
                let combo = d_idx * NUM_KERNELS + k_idx;
                let conv = scratch.convolve_prepared(
                    &self.channel_subsets[combo],
                    *kernel,
                    self.paddings[combo],
                );
                let base = combo * self.features_per_combo;
                for &bias in &self.biases[base..base + self.features_per_combo] {
                    out.push(ppv(conv, bias));
                }
            }
        }
    }

    /// Transforms a batch of series into a contiguous row-major
    /// [`FeatureMatrix`], one feature row per input.
    ///
    /// The batch fans out across `p2auth-par` threads, each worker
    /// reusing one [`ConvScratch`] and writing a contiguous run of
    /// rows; rows are bit-identical to calling
    /// [`MiniRocket::transform_one`] per series, in order.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MiniRocket::transform_one`].
    pub fn transform<S>(&self, series: &[S]) -> FeatureMatrix
    where
        S: Borrow<MultiSeries> + Sync,
    {
        let _span = p2auth_obs::span!("rocket.transform");
        let dim = self.num_output_features();
        if series.is_empty() {
            return FeatureMatrix::with_capacity(0, dim);
        }
        p2auth_obs::counter!("rocket.transform.series").add(series.len() as u64);
        p2auth_obs::event!(
            "rocket.transform",
            "feature_matrix",
            rows = series.len(),
            cols = dim,
        );
        let threads = num_threads().min(series.len());
        let chunk_len = series.len().div_ceil(threads.max(1));
        let chunks: Vec<&[S]> = series.chunks(chunk_len).collect();
        let flats: Vec<Vec<f64>> = par_map_init(
            &chunks,
            || ConvScratch::new(self.input_length),
            |scratch, chunk| {
                let mut flat = Vec::with_capacity(chunk.len() * dim);
                for s in chunk.iter() {
                    self.transform_into(s.borrow(), scratch, &mut flat);
                }
                flat
            },
        );
        let mut data = Vec::with_capacity(series.len() * dim);
        for mut f in flats {
            data.append(&mut f);
        }
        FeatureMatrix::from_flat(data, dim)
    }
}

/// Fixed chunk width for the hand-chunked inner loops below. Eight f64
/// lanes span two 256-bit (or four 128-bit) vector registers, enough
/// for the autovectorizer to keep the fused accumulation busy without
/// spilling on the narrowest targets we build for.
pub(crate) const LANES: usize = 8;

/// Number of values strictly greater than `bias`, branchlessly: each
/// comparison becomes a 0/1 integer added to the lane accumulator, so
/// there is no data-dependent branch and the loop vectorizes as a
/// compare-and-accumulate.
pub(crate) fn ppv_count(conv: &[f64], bias: f64) -> usize {
    let mut chunks = conv.chunks_exact(LANES);
    let mut count = 0_usize;
    for c in &mut chunks {
        let mut lane = 0_usize;
        for &v in c {
            lane += usize::from(v > bias);
        }
        count += lane;
    }
    for &v in chunks.remainder() {
        count += usize::from(v > bias);
    }
    count
}

/// Proportion of values strictly greater than `bias` (paper Eq. (6),
/// written there with the sign function over `X * W_d − b`).
pub(crate) fn ppv(conv: &[f64], bias: f64) -> f64 {
    if conv.is_empty() {
        return 0.0;
    }
    ppv_count(conv, bias) as f64 / conv.len() as f64
}

/// Fused `out[i] += 3·(t0[i] + t1[i] + t2[i]) − s9[i]` over equal-length
/// slices, in fixed-width chunks of [`LANES`].
///
/// The chunked body indexes five equal-length arrays with the same
/// constant trip count, which is the shape LLVM's loop vectorizer
/// reliably turns into packed FMA/add sequences; the remainder loop
/// handles the final `len % LANES` elements. Both loops perform the
/// identical per-element expression, so results are bit-identical to
/// the straight-line scalar loop.
#[inline]
fn fused_accumulate(out: &mut [f64], t0: &[f64], t1: &[f64], t2: &[f64], s9: &[f64]) {
    let mut o = out.chunks_exact_mut(LANES);
    let mut a = t0.chunks_exact(LANES);
    let mut b = t1.chunks_exact(LANES);
    let mut c = t2.chunks_exact(LANES);
    let mut s = s9.chunks_exact(LANES);
    for ((((oc, ac), bc), cc), sc) in (&mut o).zip(&mut a).zip(&mut b).zip(&mut c).zip(&mut s) {
        for i in 0..LANES {
            oc[i] += 3.0 * (ac[i] + bc[i] + cc[i]) - sc[i];
        }
    }
    for ((((o, &a), &b), &c), &s) in o
        .into_remainder()
        .iter_mut()
        .zip(a.remainder())
        .zip(b.remainder())
        .zip(c.remainder())
        .zip(s.remainder())
    {
        *o += 3.0 * (a + b + c) - s;
    }
}

/// Chunked elementwise `acc[i] += tap[i]` (see [`fused_accumulate`] for
/// why the fixed-width chunking helps the vectorizer). Bit-identical to
/// the scalar loop.
#[inline]
fn add_assign(acc: &mut [f64], tap: &[f64]) {
    let mut a = acc.chunks_exact_mut(LANES);
    let mut t = tap.chunks_exact(LANES);
    for (ac, tc) in (&mut a).zip(&mut t) {
        for i in 0..LANES {
            ac[i] += tc[i];
        }
    }
    for (a, &t) in a.into_remainder().iter_mut().zip(t.remainder()) {
        *a += t;
    }
}

/// Samples a channel subset with exponentially distributed size, per the
/// multivariate MiniRocket scheme.
fn sample_channel_subset(rng: &mut Rng, num_channels: usize) -> Vec<usize> {
    if num_channels == 1 {
        return vec![0];
    }
    let max_exp = (num_channels as f64).log2();
    let size = 2.0_f64.powf(rng.gen_range(0.0..=max_exp)).floor() as usize;
    let size = size.clamp(1, num_channels);
    // Partial Fisher-Yates for a random subset.
    let mut idxs: Vec<usize> = (0..num_channels).collect();
    for i in 0..size {
        let j = rng.gen_range(i..num_channels);
        idxs.swap(i, j);
    }
    idxs.truncate(size);
    idxs.sort_unstable();
    idxs
}

/// Reusable scratch buffers for dilated convolution.
///
/// For a dilation `d`, the convolution of a zero-sum MiniRocket kernel
/// decomposes as `C[i] = 3·S3[i] − S9[i]` where `S9` sums all nine
/// dilated taps and `S3` sums the three high-weight taps. `S9` and the
/// shifted tap signals are shared across the 84 kernels of each
/// dilation, which is what makes MiniRocket fast.
///
/// All buffers are flat and contiguous — shifted taps are laid out
/// `[channel][tap][i]` in one allocation — and sized lazily by
/// `ConvScratch::prepare_dilation`; preparations at a previously seen
/// shape reuse them without allocating, and shape changes (length or
/// channel count) resize in place, so one scratch can serve an
/// arbitrary number of dilations, kernels, series and model shapes.
pub struct ConvScratch {
    len: usize,
    /// Channel count the buffers are currently sized for.
    channels: usize,
    /// Flat per-channel, per-tap shifted signals:
    /// `shifted[(ch * 9 + tap) * len + i]`.
    shifted: Vec<f64>,
    /// Flat per-channel full 9-tap sums: `s9[ch * len + i]`.
    s9: Vec<f64>,
    out: Vec<f64>,
    prepared_dilation: Option<usize>,
}

/// Compact: buffer contents are transient per-dilation state, so only
/// the shape is worth printing.
impl std::fmt::Debug for ConvScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvScratch")
            .field("len", &self.len)
            .field("channels", &self.channels)
            .field("prepared_dilation", &self.prepared_dilation)
            .finish_non_exhaustive()
    }
}

impl ConvScratch {
    /// Creates scratch pre-sized for series of length `len` (a hint —
    /// the scratch resizes itself if prepared at a different length).
    /// Tap and sum buffers are sized lazily on the first preparation
    /// (they depend on the channel count).
    pub fn new(len: usize) -> Self {
        Self {
            len,
            channels: 0,
            shifted: Vec::new(),
            s9: Vec::new(),
            out: vec![0.0; len],
            prepared_dilation: None,
        }
    }

    /// Precomputes shifted tap signals and 9-tap sums for every channel
    /// at one dilation, reusing the existing buffers when shapes match.
    ///
    /// The scratch resizes itself when the series shape (length or
    /// channel count) differs from the previous preparation, so one
    /// scratch can serve models fitted at different window lengths
    /// (e.g. a profile's full-window and per-keystroke models) —
    /// allocation-free once it has seen the largest shape.
    pub(crate) fn prepare_dilation(&mut self, series: &MultiSeries, dilation: usize) {
        let half = KERNEL_LENGTH / 2;
        let n = series.len();
        let nch = series.num_channels();
        if n != self.len || nch != self.channels {
            self.len = n;
            self.channels = nch;
            self.shifted.clear();
            self.shifted.resize(nch * KERNEL_LENGTH * n, 0.0);
            self.s9.clear();
            self.s9.resize(nch * n, 0.0);
            self.out.clear();
            self.out.resize(n, 0.0);
        }
        for ch in 0..nch {
            let x = series.channel(ch);
            let ch_base = ch * KERNEL_LENGTH * n;
            for j in 0..KERNEL_LENGTH {
                let tap = &mut self.shifted[ch_base + j * n..ch_base + (j + 1) * n];
                if j >= half {
                    // Shift left: tap[i] = x[i + off], zero-padded tail.
                    let off = (j - half) * dilation;
                    if off >= n {
                        tap.fill(0.0);
                    } else {
                        tap[..n - off].copy_from_slice(&x[off..]);
                        tap[n - off..].fill(0.0);
                    }
                } else {
                    // Shift right: tap[i] = x[i - off], zero-padded head.
                    let off = (half - j) * dilation;
                    if off >= n {
                        tap.fill(0.0);
                    } else {
                        tap[off..].copy_from_slice(&x[..n - off]);
                        tap[..off].fill(0.0);
                    }
                }
            }
            // Accumulate taps in index order so the sum's floating-point
            // association matches a straightforward tap-major loop.
            let s9 = &mut self.s9[ch * n..(ch + 1) * n];
            s9.fill(0.0);
            for j in 0..KERNEL_LENGTH {
                let tap = &self.shifted[ch_base + j * n..ch_base + (j + 1) * n];
                add_assign(s9, tap);
            }
        }
        self.prepared_dilation = Some(dilation);
    }

    /// Convolution for one kernel over a channel subset, using buffers
    /// prepared by [`ConvScratch::prepare_dilation`].
    ///
    /// When `padding` is true the full "same"-padded output (length
    /// `len`) is returned. When `padding` is false the output is
    /// restricted to the valid region `[margin, len - margin)` with
    /// `margin = 4 · dilation` — **except** in the degenerate case where
    /// the margins meet or cross (`margin >= len - margin`, i.e. the
    /// dilated kernel barely fits): there is then no valid interior, and
    /// the method deliberately falls back to returning the full padded
    /// output rather than an empty slice, so downstream quantile/PPV
    /// pooling always has data to work with. This fallback is pinned by
    /// `valid_padding_degenerate_falls_back_to_padded` and must be
    /// preserved by refactors: fitted biases depend on it.
    pub(crate) fn convolve_prepared(
        &mut self,
        subset: &[usize],
        kernel: [usize; 3],
        padding: bool,
    ) -> &[f64] {
        let dilation = self.prepared_dilation.expect("prepare_dilation not called");
        let n = self.len;
        self.out.fill(0.0);
        let out = &mut self.out;
        for &ch in subset {
            let ch_base = ch * KERNEL_LENGTH * n;
            let t0 = &self.shifted[ch_base + kernel[0] * n..ch_base + kernel[0] * n + n];
            let t1 = &self.shifted[ch_base + kernel[1] * n..ch_base + kernel[1] * n + n];
            let t2 = &self.shifted[ch_base + kernel[2] * n..ch_base + kernel[2] * n + n];
            let s9 = &self.s9[ch * n..ch * n + n];
            fused_accumulate(out, t0, t1, t2, s9);
        }
        if padding {
            &self.out
        } else {
            let margin = (KERNEL_LENGTH / 2) * dilation;
            let end = n.saturating_sub(margin);
            if margin >= end {
                // Degenerate: no valid interior; fall back to the padded
                // output (see method docs — this is load-bearing).
                &self.out
            } else {
                &self.out[margin..end]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::kernel_weights;
    use p2auth_rng::prop::prelude::*;

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

    fn default_fit(train: &[MultiSeries]) -> MiniRocket {
        MiniRocket::fit(&MiniRocketConfig::default(), train).unwrap()
    }

    fn json(r: &MiniRocket) -> String {
        let mut out = String::new();
        r.write_json(&mut out);
        out
    }

    /// The historical fit loop: one RNG draw and one full
    /// `prepare_dilation` per combo, biases pushed in combo order.
    /// Kept verbatim as the reference the grouped/parallel
    /// [`MiniRocket::fit`] must match bit-for-bit.
    fn fit_reference(config: &MiniRocketConfig, train: &[MultiSeries]) -> MiniRocket {
        let first = train.first().expect("non-empty");
        let input_length = first.len();
        let num_channels = first.num_channels();
        assert!(input_length >= KERNEL_LENGTH);

        let mut rng = Rng::seed_from_u64(config.seed);
        let kernels = kernel_indices();

        let max_dilation = ((input_length - 1) / (KERNEL_LENGTH - 1)).max(1);
        let features_per_kernel = (config.num_features / NUM_KERNELS).max(1);
        let num_dilations = config
            .max_dilations_per_kernel
            .min(features_per_kernel)
            .max(1);
        let features_per_combo = (features_per_kernel / num_dilations).max(1);
        let max_exp = (max_dilation as f64).log2();
        let dilations: Vec<usize> = (0..num_dilations)
            .map(|i| {
                let e = if num_dilations == 1 {
                    0.0
                } else {
                    max_exp * i as f64 / (num_dilations - 1) as f64
                };
                (2.0_f64.powf(e).floor() as usize).clamp(1, max_dilation)
            })
            .collect();

        let num_combos = dilations.len() * NUM_KERNELS;
        let mut channel_subsets = Vec::with_capacity(num_combos);
        for _ in 0..num_combos {
            channel_subsets.push(sample_channel_subset(&mut rng, num_channels));
        }
        let paddings: Vec<bool> = (0..num_combos).map(|c| c % 2 == 0).collect();

        let mut biases = Vec::with_capacity(num_combos * features_per_combo);
        let phi = 0.618_033_988_749_894_9_f64;
        let mut feature_counter = 0_u64;
        let mut scratch = ConvScratch::new(input_length);
        for (d_idx, &dilation) in dilations.iter().enumerate() {
            for (k_idx, kernel) in kernels.iter().enumerate() {
                let combo = d_idx * NUM_KERNELS + k_idx;
                let sample = &train[rng.gen_range(0..train.len())];
                scratch.prepare_dilation(sample, dilation);
                let conv =
                    scratch.convolve_prepared(&channel_subsets[combo], *kernel, paddings[combo]);
                let mut sorted = conv.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in convolution"));
                for _ in 0..features_per_combo {
                    feature_counter += 1;
                    let q = (feature_counter as f64 * phi).fract();
                    let pos = q * (sorted.len() - 1) as f64;
                    let i0 = pos.floor() as usize;
                    let frac = pos - i0 as f64;
                    let b = if i0 + 1 < sorted.len() {
                        sorted[i0] * (1.0 - frac) + sorted[i0 + 1] * frac
                    } else {
                        sorted[i0]
                    };
                    biases.push(b);
                }
            }
        }

        MiniRocket {
            input_length,
            num_channels,
            dilations,
            features_per_combo,
            channel_subsets,
            paddings,
            biases,
            kernels,
        }
    }

    #[test]
    fn feature_count_matches() {
        let train = vec![sine_series(128, 0.2, 2), sine_series(128, 0.5, 2)];
        let r = default_fit(&train);
        let f = r.transform_one(&train[0]);
        assert_eq!(f.len(), r.num_output_features());
        assert!(f.len() >= NUM_KERNELS, "at least one feature per kernel");
    }

    #[test]
    fn features_are_ppv_in_unit_interval() {
        let train = vec![sine_series(100, 0.3, 3), sine_series(100, 0.8, 3)];
        let r = default_fit(&train);
        for s in &train {
            for v in r.transform_one(s) {
                assert!((0.0..=1.0).contains(&v), "ppv {v} out of range");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let train = vec![sine_series(96, 0.4, 2), sine_series(96, 0.9, 2)];
        let cfg = MiniRocketConfig {
            seed: 42,
            ..Default::default()
        };
        let r1 = MiniRocket::fit(&cfg, &train).unwrap();
        let r2 = MiniRocket::fit(&cfg, &train).unwrap();
        assert_eq!(r1.transform_one(&train[0]), r2.transform_one(&train[0]));
    }

    #[test]
    fn different_seeds_differ() {
        let train = vec![sine_series(96, 0.4, 2), sine_series(96, 0.9, 2)];
        let r1 = MiniRocket::fit(
            &MiniRocketConfig {
                seed: 1,
                ..Default::default()
            },
            &train,
        )
        .unwrap();
        let r2 = MiniRocket::fit(
            &MiniRocketConfig {
                seed: 2,
                ..Default::default()
            },
            &train,
        )
        .unwrap();
        assert_ne!(r1.transform_one(&train[0]), r2.transform_one(&train[0]));
    }

    #[test]
    fn fit_accepts_borrowed_series() {
        let a = sine_series(96, 0.4, 2);
        let b = sine_series(96, 0.9, 2);
        let cfg = MiniRocketConfig::default();
        let owned = MiniRocket::fit(&cfg, &[a.clone(), b.clone()]).unwrap();
        let borrowed = MiniRocket::fit(&cfg, &[&a, &b]).unwrap();
        assert_eq!(owned.transform_one(&a), borrowed.transform_one(&a));
    }

    #[test]
    fn grouped_fit_matches_reference_bytes() {
        // The regrouped (prepare-once-per-(dilation, sample)) fit must
        // serialize byte-identically to the historical per-combo loop.
        for (len, channels, seed) in [(90, 2, 7_u64), (128, 4, 99), (64, 1, 0xdead_beef)] {
            let train: Vec<MultiSeries> = (0..5)
                .map(|i| sine_series(len, 0.2 + 0.17 * i as f64, channels))
                .collect();
            let cfg = MiniRocketConfig {
                seed,
                ..Default::default()
            };
            let fitted = MiniRocket::fit(&cfg, &train).unwrap();
            let reference = fit_reference(&cfg, &train);
            let (a, b) = (json(&fitted), json(&reference));
            assert_eq!(a, b, "len={len} ch={channels} seed={seed}");
        }
    }

    #[test]
    fn batch_transform_matches_transform_one() {
        let train = vec![sine_series(90, 0.3, 2), sine_series(90, 0.8, 2)];
        let r = default_fit(&train);
        let probes: Vec<MultiSeries> = (0..7)
            .map(|i| sine_series(90, 0.1 + 0.2 * i as f64, 2))
            .collect();
        let m = r.transform(&probes);
        assert_eq!(m.num_rows(), probes.len());
        assert_eq!(m.num_cols(), r.num_output_features());
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(m.row(i), r.transform_one(p).as_slice(), "row {i}");
        }
    }

    #[test]
    fn transform_one_with_reuses_scratch_across_series() {
        let train = vec![sine_series(90, 0.3, 2), sine_series(90, 0.8, 2)];
        let r = default_fit(&train);
        let mut scratch = ConvScratch::new(90);
        for s in &train {
            assert_eq!(r.transform_one_with(s, &mut scratch), r.transform_one(s));
        }
    }

    #[test]
    fn offset_invariance() {
        // Zero-sum kernels make the convolution invariant to adding a
        // constant; with "same" padding edge effects change conv values
        // near the boundary, so compare with a generous tolerance on the
        // feature vector instead of exact equality.
        let base: Vec<f64> = (0..200).map(|i| (i as f64 * 0.25).sin()).collect();
        let shifted: Vec<f64> = base.iter().map(|v| v + 100.0).collect();
        let train = vec![MultiSeries::univariate(base.clone())];
        let r = default_fit(&train);
        let f1 = r.transform_one(&MultiSeries::univariate(base));
        let f2 = r.transform_one(&MultiSeries::univariate(shifted));
        let mean_diff: f64 =
            f1.iter().zip(&f2).map(|(a, b)| (a - b).abs()).sum::<f64>() / f1.len() as f64;
        assert!(mean_diff < 0.1, "mean ppv diff {mean_diff}");
    }

    #[test]
    fn separates_distinct_signals() {
        // Feature vectors of very different signals should differ more
        // than feature vectors of noisy copies of the same signal.
        let a = sine_series(128, 0.2, 1);
        let b = sine_series(128, 1.1, 1);
        let a_noisy = MultiSeries::univariate(
            a.channel(0)
                .iter()
                .enumerate()
                .map(|(i, v)| v + 0.01 * ((i * 7) % 3) as f64)
                .collect(),
        );
        let r = default_fit(&[a.clone(), b.clone()]);
        let fa = r.transform_one(&a);
        let fb = r.transform_one(&b);
        let fan = r.transform_one(&a_noisy);
        let dist = |x: &[f64], y: &[f64]| -> f64 {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(&fa, &fb) > 3.0 * dist(&fa, &fan));
    }

    #[test]
    fn errors_on_bad_training_sets() {
        assert!(matches!(
            MiniRocket::fit(&MiniRocketConfig::default(), &[] as &[MultiSeries]),
            Err(FitError::EmptyTrainingSet)
        ));
        let a = sine_series(64, 0.3, 1);
        let b = sine_series(65, 0.3, 1);
        assert!(matches!(
            MiniRocket::fit(&MiniRocketConfig::default(), &[a.clone(), b]),
            Err(FitError::UnequalLengths { .. })
        ));
        let c = sine_series(64, 0.3, 2);
        assert!(matches!(
            MiniRocket::fit(&MiniRocketConfig::default(), &[a, c]),
            Err(FitError::UnequalChannels { .. })
        ));
        let tiny = MultiSeries::univariate(vec![1.0; 5]);
        assert!(matches!(
            MiniRocket::fit(&MiniRocketConfig::default(), &[tiny]),
            Err(FitError::TooShort { .. })
        ));
    }

    #[test]
    fn decomposition_matches_direct_convolution() {
        // Verify C = 3*S3 - S9 equals the explicit weighted convolution
        // for a handful of kernels at dilation 1 with same padding.
        let x: Vec<f64> = (0..40).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
        let series = MultiSeries::univariate(x.clone());
        let mut scratch = ConvScratch::new(x.len());
        scratch.prepare_dilation(&series, 1);
        for kernel in kernel_indices().into_iter().step_by(17) {
            let got = scratch.convolve_prepared(&[0], kernel, true).to_vec();
            let w = kernel_weights(kernel);
            let n = x.len() as i64;
            for (i, &g) in got.iter().enumerate() {
                let mut expect = 0.0;
                for (j, &wj) in w.iter().enumerate() {
                    let idx = i as i64 + j as i64 - 4;
                    if idx >= 0 && idx < n {
                        expect += wj * x[idx as usize];
                    }
                }
                assert!(
                    (g - expect).abs() < 1e-9,
                    "kernel {kernel:?} at {i}: {g} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn valid_padding_region_shorter() {
        let x = sine_series(64, 0.3, 1);
        let mut scratch = ConvScratch::new(64);
        scratch.prepare_dilation(&x, 4);
        let padded_len = scratch.convolve_prepared(&[0], [0, 4, 8], true).len();
        let valid_len = scratch.convolve_prepared(&[0], [0, 4, 8], false).len();
        assert_eq!(padded_len, 64);
        assert_eq!(valid_len, 64 - 2 * 16);
    }

    #[test]
    fn valid_padding_degenerate_falls_back_to_padded() {
        // len = 20, dilation = 4: margin = 16 >= end = 4, so there is no
        // valid interior and convolve_prepared must return the full
        // padded output instead of an empty slice. Pinned on purpose —
        // fitted biases depend on this fallback (see method docs).
        let x = sine_series(20, 0.3, 1);
        let mut scratch = ConvScratch::new(20);
        scratch.prepare_dilation(&x, 4);
        let padded = scratch.convolve_prepared(&[0], [0, 4, 8], true).to_vec();
        let valid = scratch.convolve_prepared(&[0], [0, 4, 8], false).to_vec();
        assert_eq!(
            valid.len(),
            20,
            "degenerate valid padding must not truncate"
        );
        assert_eq!(valid, padded, "fallback must equal the padded output");
    }

    #[test]
    fn scratch_reuse_across_dilations_and_channel_counts() {
        // One scratch must serve different dilations and channel counts
        // without stale data leaking between preparations.
        let mut scratch = ConvScratch::new(64);
        let one = sine_series(64, 0.3, 1);
        let four = sine_series(64, 0.5, 4);
        scratch.prepare_dilation(&four, 2);
        let via_reused = {
            scratch.prepare_dilation(&one, 4);
            scratch.convolve_prepared(&[0], [1, 3, 5], true).to_vec()
        };
        let mut fresh = ConvScratch::new(64);
        fresh.prepare_dilation(&one, 4);
        let via_fresh = fresh.convolve_prepared(&[0], [1, 3, 5], true).to_vec();
        assert_eq!(via_reused, via_fresh);
    }

    #[test]
    fn scratch_auto_resizes_across_lengths() {
        // One scratch serving models at different window lengths (the
        // arena path shares a scratch across full/boost/per-key models)
        // must produce the same results as fresh scratch at each shape.
        let mut scratch = ConvScratch::new(64);
        let long = sine_series(90, 0.4, 2);
        let short = sine_series(48, 0.7, 3);
        for series in [&long, &short, &long] {
            scratch.prepare_dilation(series, 2);
            let via_reused = scratch.convolve_prepared(&[0], [1, 4, 7], true).to_vec();
            let mut fresh = ConvScratch::new(series.len());
            fresh.prepare_dilation(series, 2);
            let via_fresh = fresh.convolve_prepared(&[0], [1, 4, 7], true).to_vec();
            assert_eq!(via_reused, via_fresh, "len {}", series.len());
        }
    }

    #[test]
    fn branchless_ppv_matches_filter_count() {
        let conv: Vec<f64> = (0..103).map(|i| ((i * 31) % 17) as f64 - 8.5).collect();
        for bias in [-9.0, -1.0, 0.0, 0.25, 8.0, 100.0] {
            let branchy = conv.iter().filter(|&&v| v > bias).count();
            assert_eq!(ppv_count(&conv, bias), branchy, "bias {bias}");
            let expect = branchy as f64 / conv.len() as f64;
            assert_eq!(ppv(&conv, bias), expect, "bias {bias}");
        }
        assert_eq!(ppv(&[], 0.0), 0.0);
    }

    #[test]
    fn chunked_kernels_match_scalar_reference() {
        // The chunked fused_accumulate / add_assign bodies must be
        // bit-identical to the straight-line scalar expressions they
        // replaced, including at lengths not divisible by LANES.
        for n in [1, 7, 8, 9, 63, 64, 65, 90] {
            let t0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let t1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let t2: Vec<f64> = (0..n).map(|i| (i as f64) * 0.01 - 0.3).collect();
            let s9: Vec<f64> = (0..n).map(|i| ((i * i) % 13) as f64 - 6.0).collect();
            let mut out = vec![0.5; n];
            let mut expect = out.clone();
            fused_accumulate(&mut out, &t0, &t1, &t2, &s9);
            for i in 0..n {
                expect[i] += 3.0 * (t0[i] + t1[i] + t2[i]) - s9[i];
            }
            assert_eq!(out, expect, "fused_accumulate n={n}");

            let mut acc = s9.clone();
            let mut acc_expect = s9.clone();
            add_assign(&mut acc, &t0);
            for i in 0..n {
                acc_expect[i] += t0[i];
            }
            assert_eq!(acc, acc_expect, "add_assign n={n}");
        }
    }

    #[test]
    fn channel_subsets_within_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for c in 1..=8 {
            for _ in 0..50 {
                let s = sample_channel_subset(&mut rng, c);
                assert!(!s.is_empty() && s.len() <= c);
                assert!(s.iter().all(|&i| i < c));
                let mut d = s.clone();
                d.dedup();
                assert_eq!(d.len(), s.len(), "duplicate channels");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The grouped, parallel fit serializes byte-identically to the
        /// historical serial per-combo fit across random shapes/seeds.
        #[test]
        fn prop_grouped_fit_bit_identical(
            len in 16_usize..120,
            channels in 1_usize..5,
            n_train in 1_usize..6,
            seed in any::<u64>(),
            num_features in 84_usize..1000,
        ) {
            let train: Vec<MultiSeries> = (0..n_train)
                .map(|i| sine_series(len, 0.15 + 0.21 * i as f64, channels))
                .collect();
            let cfg = MiniRocketConfig { seed, num_features, ..Default::default() };
            let fitted = MiniRocket::fit(&cfg, &train).unwrap();
            let reference = fit_reference(&cfg, &train);
            prop_assert_eq!(
                json(&fitted),
                json(&reference)
            );
        }

        /// Parallel batch rows are bit-identical to serial
        /// `transform_one` across random shapes/seeds.
        #[test]
        fn prop_batch_rows_bit_identical(
            len in 16_usize..100,
            channels in 1_usize..4,
            n_probe in 1_usize..9,
            seed in any::<u64>(),
        ) {
            let train = vec![
                sine_series(len, 0.3, channels),
                sine_series(len, 0.9, channels),
            ];
            let cfg = MiniRocketConfig { seed, num_features: 168, ..Default::default() };
            let r = MiniRocket::fit(&cfg, &train).unwrap();
            let probes: Vec<MultiSeries> = (0..n_probe)
                .map(|i| sine_series(len, 0.05 + 0.3 * i as f64, channels))
                .collect();
            let m = r.transform(&probes);
            prop_assert_eq!(m.num_rows(), probes.len());
            for (i, p) in probes.iter().enumerate() {
                prop_assert_eq!(m.row(i), r.transform_one(p).as_slice());
            }
        }
    }
}
