//! Data-parallel primitives and the shared feature-matrix container.
//!
//! The P²Auth pipeline is embarrassingly parallel at several grains —
//! per-series MiniRocket transforms, per-key model training, per-attempt
//! evaluation — and this crate provides the one fan-out primitive they
//! all use: an order-preserving [`par_map`] over slices built on
//! [`std::thread::scope`], with a [`par_map_init`] variant that gives
//! every worker its own reusable scratch state.
//!
//! Design constraints:
//!
//! * **Zero external dependencies.** The build must work in hermetic /
//!   offline environments, so no rayon; scoped threads with static
//!   chunking cover the pipeline's uniform workloads just as well.
//! * **Determinism.** Results are returned in input order and every
//!   helper produces bit-identical output at any worker count, one
//!   included (workers only partition the input; they never reorder or
//!   re-associate floating-point reductions).
//! * **Serial fallback.** On a one-core machine, or for an input of
//!   fewer than two items, every helper is a plain serial loop.
//!
//! The crate also hosts [`FeatureMatrix`], the contiguous row-major
//! matrix handed from the rocket feature extractor to the ml classifier
//! fits, eliminating per-row `Vec` boxing on the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod pool;

pub use matrix::FeatureMatrix;
pub use pool::{num_threads, par_map, par_map_indexed, par_map_init};
