//! MiniRocket time-series feature transform.
//!
//! P²Auth extracts features from keystroke-induced PPG measurements with
//! MiniRocket (Dempster, Schmidt & Webb, KDD'21), chosen because it
//! "achieves high accuracy at very low computational cost" (paper
//! §IV-B 2.3). This crate is a from-scratch Rust implementation of the
//! transform as the paper uses it:
//!
//! * the fixed set of **84 kernels** of length 9 with weights restricted
//!   to two values (−1 and 2, three taps of weight 2: `C(9,3) = 84`),
//! * **exponential dilations** fitted to the input length (paper Eq. (5)),
//! * **bias quantiles** drawn from the convolution outputs of training
//!   examples,
//! * **PPV pooling** — the proportion of positive values (paper Eq. (6)),
//! * multivariate support via per-kernel channel subsets (the prototype
//!   has 2–6 PPG channels).
//!
//! The convolution engine runs on flat, reusable scratch buffers (see
//! [`ConvScratch`]) and the batch paths ([`MiniRocket::transform`],
//! bias sampling inside [`MiniRocket::fit`]) fan out across
//! `p2auth-par`'s scoped threads, which run serially on a one-core
//! machine. Feature values are bit-identical either way.
//!
//! # Example
//!
//! ```
//! use p2auth_rocket::{MiniRocket, MiniRocketConfig, MultiSeries};
//!
//! // Two tiny single-channel training series.
//! let train = vec![
//!     MultiSeries::univariate((0..64).map(|i| (i as f64 * 0.3).sin()).collect()),
//!     MultiSeries::univariate((0..64).map(|i| (i as f64 * 0.7).cos()).collect()),
//! ];
//! let rocket = MiniRocket::fit(&MiniRocketConfig::default(), &train).unwrap();
//! let features = rocket.transform_one(&train[0]);
//! assert!(features.iter().all(|&f| (0.0..=1.0).contains(&f)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod fused;
mod kernels;
mod series;
mod transform;

pub use fused::FusedScorer;
pub use kernels::{
    kernel_indices, kernel_weights, KERNEL_LENGTH, NUM_KERNELS, WEIGHT_HIGH, WEIGHT_LOW,
};
pub use p2auth_par::FeatureMatrix;
pub use series::{MultiSeries, ShapeError};
pub use transform::{ConvScratch, FitError, MiniRocket, MiniRocketConfig};
