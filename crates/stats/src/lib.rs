//! Statistics for traffic-trace analysis.
//!
//! The paper characterizes its two input traces (the "MTV" JPEG video
//! trace and the Bellcore Ethernet trace) by
//!
//! * their marginal rate distribution, extracted as a constant-bin-size
//!   **histogram** with 50 bins (Sec. III, Fig. 3),
//! * their **Hurst parameter**, estimated with "a Whittle or wavelet
//!   based estimator" (`H ≈ 0.83` for MTV, `H ≈ 0.9` for Bellcore),
//! * the **mean epoch duration** — the average number of consecutive
//!   samples falling in the same histogram bin — used to calibrate the
//!   truncated-Pareto scale parameter `θ` via Eq. 25.
//!
//! This crate provides all of those building blocks plus the generic
//! machinery they rest on: descriptive statistics, FFT-accelerated
//! autocovariance, ordinary least squares on log-log plots, and five
//! independent Hurst estimators (rescaled-range, variance–time,
//! log-periodogram/GPH, Haar-wavelet energy slopes and local Whittle)
//! that can be cross-checked against each other. R/S, variance–time
//! and wavelet also run grow-only ([`onepass`]) and over a sliding
//! window ([`streaming`]) by driving the same per-scale accumulators
//! as the batch functions.

#![warn(missing_docs)]

pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod hurst;
pub mod onepass;
pub mod regression;
pub mod runs;
pub mod streaming;

pub use descriptive::{autocorrelation, autocovariance, mean, std_dev, variance, Summary};
pub use error::{EstimatorError, HistogramError};
pub use histogram::Histogram;
pub use hurst::{
    dyadic_sizes, gph_estimate, gph_std_error, haar_energies, rs_estimate, try_gph_estimate,
    try_rs_estimate, try_rs_estimate_with_sizes, try_variance_time_estimate,
    try_variance_time_estimate_with_sizes, try_wavelet_estimate, try_whittle_estimate,
    variance_time_estimate, wavelet_estimate, whittle_estimate, whittle_std_error,
    HurstEstimate,
};
pub use onepass::{OnePassHurst, OnePassRs, OnePassVt, OnePassWavelet};
pub use regression::{linear_fit, LinearFit};
pub use runs::{mean_run_length, RunLengths};
pub use streaming::{HurstPair, SlidingWindow, StreamingHurst, MIN_HURST_WINDOW};
