//! Hurst-parameter estimators.
//!
//! The paper reports `H ≈ 0.83` for the MTV trace and `H ≈ 0.9` for
//! the Bellcore trace, obtained with "a Whittle or wavelet based
//! estimator" (Sec. III, citing Abry & Veitch). Five independent
//! estimators are provided so results can be cross-checked, which is
//! standard practice in the LRD literature — individual estimators are
//! biased in different ways:
//!
//! * [`rs_estimate`] — Hurst's classical rescaled-range (R/S) analysis,
//! * [`variance_time_estimate`] — slope of the aggregated-series
//!   variance on a log-log ("variance–time") plot,
//! * [`gph_estimate`] — Geweke–Porter-Hudak log-periodogram regression
//!   (the practical frequency-domain cousin of Whittle estimation),
//! * [`wavelet_estimate`] — Haar-wavelet energy-slope estimator in the
//!   spirit of Abry–Veitch,
//! * [`whittle_estimate`] — Robinson's local Whittle (Gaussian
//!   semiparametric) estimator, the "Whittle" of the paper's quote.
//!
//! Each returns a [`HurstEstimate`] carrying the point estimate, the
//! regression behind it, and the `(x, y)` points of the diagnostic plot
//! so callers can render the classical figures.
//!
//! R/S, variance–time and wavelet each keep their per-scale state in
//! one accumulator (`RsScale`, `VtLevel`, and the Haar pyramid that is
//! [`crate::OnePassWavelet`]). The batch functions here, the grow-only
//! [`crate::onepass`] estimators and the sliding-window
//! [`crate::StreamingHurst`] all drive those same accumulators, so the
//! three paths agree bit for bit by construction.

mod periodogram;
mod rs;
mod whittle;
mod vt;
pub(crate) mod wavelet;

pub(crate) use rs::{fit_scales as rs_fit_scales, RsScale};
pub(crate) use vt::{fit_levels as vt_fit_levels, VtLevel};

pub use periodogram::{gph_estimate, try_gph_estimate};
pub use rs::{rs_estimate, try_rs_estimate, try_rs_estimate_with_sizes};
pub use vt::{
    aggregate, try_variance_time_estimate, try_variance_time_estimate_with_sizes,
    variance_time_estimate,
};
pub use wavelet::{haar_energies, try_wavelet_estimate, wavelet_estimate};
pub use whittle::{
    try_whittle_estimate, try_whittle_estimate_with_bandwidth, whittle_estimate,
    whittle_estimate_with_bandwidth,
};

use crate::error::EstimatorError;
use crate::regression::LinearFit;

/// A Hurst-parameter estimate together with its diagnostic regression.
#[derive(Debug, Clone)]
pub struct HurstEstimate {
    /// The estimated Hurst parameter.
    pub h: f64,
    /// The underlying least-squares fit.
    pub fit: LinearFit,
    /// The `(x, y)` points the fit was computed from (already in the
    /// transformed, usually logarithmic, coordinates).
    pub points: Vec<(f64, f64)>,
}

impl HurstEstimate {
    /// Clamps the estimate into the physically meaningful open interval
    /// `(0, 1)`; estimators can stray outside it on short or
    /// pathological inputs.
    pub fn clamped(&self) -> f64 {
        self.h.clamp(0.01, 0.99)
    }
}

/// Mean of the clamped point estimates, `None` when there are none:
/// the one pooled summary the one-pass and streaming bundles report.
pub(crate) fn pooled<'a>(estimates: impl IntoIterator<Item = &'a HurstEstimate>) -> Option<f64> {
    let (sum, n) = estimates
        .into_iter()
        .fold((0.0, 0u32), |(sum, n), e| (sum + e.clamped(), n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// Whether every sample equals the first, compared exactly. This is
/// the one constancy rule: a two-pass variance of identical values
/// such as `0.1` is rounding noise (~1e-30), not zero, so testing the
/// computed spread against zero would let noise pass for signal.
pub(crate) fn is_constant(x: &[f64]) -> bool {
    x.iter().all(|&v| v == x[0])
}

/// The shared minimum-length precondition of the estimators.
pub(crate) fn require_samples(
    estimator: &'static str,
    needed: usize,
    got: usize,
) -> Result<(), EstimatorError> {
    if got < needed {
        return Err(EstimatorError::TooFewSamples {
            estimator,
            needed,
            got,
        });
    }
    Ok(())
}

/// The shared final stage of the log-log estimators: regresses the
/// diagnostic `points` and maps the slope to `H`. Fewer than two
/// points is [`EstimatorError::TooFewPoints`].
pub(crate) fn fit_points(
    estimator: &'static str,
    points: Vec<(f64, f64)>,
    h_of_slope: fn(f64) -> f64,
) -> Result<HurstEstimate, EstimatorError> {
    if points.len() < 2 {
        return Err(EstimatorError::TooFewPoints {
            estimator,
            got: points.len(),
        });
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let fit = crate::regression::linear_fit(&xs, &ys);
    Ok(HurstEstimate {
        h: h_of_slope(fit.slope),
        fit,
        points,
    })
}

/// Asymptotic standard error of the GPH log-periodogram estimator with
/// bandwidth `m`: `π / (√24 · √m)` (Geweke & Porter-Hudak, 1983).
pub fn gph_std_error(bandwidth: usize) -> f64 {
    assert!(bandwidth > 0, "bandwidth must be positive");
    std::f64::consts::PI / (24.0f64.sqrt() * (bandwidth as f64).sqrt())
}

/// Asymptotic standard error of the local Whittle estimator with
/// bandwidth `m`: `1 / (2√m)` (Robinson, 1995).
pub fn whittle_std_error(bandwidth: usize) -> f64 {
    assert!(bandwidth > 0, "bandwidth must be positive");
    0.5 / (bandwidth as f64).sqrt()
}

/// Powers of two in `[lo, hi]`, ascending. Both bounds should
/// themselves be powers of two; `lo` is rounded up and `hi` down to
/// the nearest power otherwise.
///
/// The streaming and one-pass estimators regress over dyadic scales:
/// dyadic blocks nest (every size-`2n` block is two size-`n` blocks)
/// and tile a power-of-two ring, which is what lets the one-pass R/S
/// accumulator score each completed block in place. The batch
/// `*_with_sizes` estimators accept these sizes directly.
pub fn dyadic_sizes(lo: usize, hi: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo, "need 1 <= lo <= hi");
    let mut n = lo.next_power_of_two();
    let mut out = Vec::new();
    while n <= hi {
        out.push(n);
        n *= 2;
    }
    out
}

/// Logarithmically spaced block sizes in `[lo, hi]`, deduplicated.
pub(crate) fn log_spaced_sizes(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && count >= 2);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let mut out: Vec<usize> = (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1) as f64;
            (llo + t * (lhi - llo)).exp().round() as usize
        })
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_sizes_are_powers_of_two() {
        assert_eq!(dyadic_sizes(8, 64), vec![8, 16, 32, 64]);
        assert_eq!(dyadic_sizes(1, 4), vec![1, 2, 4]);
        // Non-power bounds round inward.
        assert_eq!(dyadic_sizes(5, 40), vec![8, 16, 32]);
        assert!(dyadic_sizes(9, 15).is_empty());
    }

    #[test]
    fn log_spacing_covers_range() {
        let s = log_spaced_sizes(10, 1000, 10);
        assert_eq!(*s.first().unwrap(), 10);
        assert_eq!(*s.last().unwrap(), 1000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn standard_errors_shrink_with_bandwidth() {
        assert!(gph_std_error(400) < gph_std_error(100));
        assert!((gph_std_error(100) - std::f64::consts::PI / (24.0f64.sqrt() * 10.0)).abs() < 1e-12);
        assert!((whittle_std_error(100) - 0.05).abs() < 1e-12);
        // Whittle is asymptotically more efficient than GPH at equal
        // bandwidth.
        assert!(whittle_std_error(256) < gph_std_error(256));
    }

    #[test]
    fn clamping() {
        let e = HurstEstimate {
            h: 1.3,
            fit: crate::regression::linear_fit(&[0.0, 1.0], &[0.0, 1.0]),
            points: vec![],
        };
        assert_eq!(e.clamped(), 0.99);
    }
}
