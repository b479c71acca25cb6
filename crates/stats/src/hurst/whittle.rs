//! Local Whittle (Gaussian semiparametric) estimator — the estimator
//! the paper names first for its trace analysis ("Using a Whittle or
//! wavelet based estimator [1], we obtained H_MTV ≈ 0.83 ...").
//!
//! For a long-memory process with spectral density `f(ω) ~ G ω^{-2d}`
//! near zero, Robinson's local Whittle estimator minimizes
//!
//! ```text
//! R(d) = ln( (1/m) Σ_j ω_j^{2d} I(ω_j) ) − (2d/m) Σ_j ln ω_j
//! ```
//!
//! over the lowest `m` Fourier frequencies. It is consistent and
//! asymptotically normal for `d ∈ (−1/2, 1/2)` with variance `1/(4m)`
//! — more efficient than the GPH log-periodogram regression. As
//! everywhere in this crate, `H = d + 1/2`.

use super::periodogram::periodogram;
use super::{is_constant, require_samples, HurstEstimate};
use crate::error::EstimatorError;
use crate::regression::LinearFit;
use lrd_fft::next_pow2;

const ESTIMATOR: &str = "local Whittle";

/// Local Whittle estimate with bandwidth `m = ⌊n^0.65⌋` (a standard
/// compromise between bias and variance).
///
/// # Panics
///
/// Panics on any [`EstimatorError`]; see [`try_whittle_estimate`] for
/// the fallible form.
pub fn whittle_estimate(x: &[f64]) -> HurstEstimate {
    whittle_estimate_with_bandwidth(x, 0.65)
}

/// Fallible [`whittle_estimate`].
pub fn try_whittle_estimate(x: &[f64]) -> Result<HurstEstimate, EstimatorError> {
    try_whittle_estimate_with_bandwidth(x, 0.65)
}

/// Local Whittle estimate using the lowest `⌊n^bandwidth_exp⌋` Fourier
/// frequencies.
///
/// # Panics
///
/// Panics on any [`EstimatorError`] (see
/// [`try_whittle_estimate_with_bandwidth`]) and if the bandwidth
/// exponent is outside `(0, 1)`.
pub fn whittle_estimate_with_bandwidth(x: &[f64], bandwidth_exp: f64) -> HurstEstimate {
    try_whittle_estimate_with_bandwidth(x, bandwidth_exp).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`whittle_estimate_with_bandwidth`]: a series shorter than
/// 128 samples is [`EstimatorError::TooFewSamples`] and a constant one
/// [`EstimatorError::ZeroVariance`] (its periodogram is identically
/// zero, so the objective has no minimum to find).
///
/// # Panics
///
/// Panics if the bandwidth exponent is outside `(0, 1)` — a caller
/// bug, not a property of the data.
pub fn try_whittle_estimate_with_bandwidth(
    x: &[f64],
    bandwidth_exp: f64,
) -> Result<HurstEstimate, EstimatorError> {
    assert!(
        bandwidth_exp > 0.0 && bandwidth_exp < 1.0,
        "bandwidth exponent must be in (0, 1)"
    );
    require_samples(ESTIMATOR, 128, x.len())?;
    if is_constant(x) {
        return Err(EstimatorError::ZeroVariance { estimator: ESTIMATOR });
    }
    let pgram = periodogram(x);
    let size = next_pow2(x.len());
    let m = ((x.len() as f64).powf(bandwidth_exp) as usize).clamp(8, pgram.len());

    let omegas: Vec<f64> = (1..=m)
        .map(|j| 2.0 * std::f64::consts::PI * j as f64 / size as f64)
        .collect();
    let intensities: Vec<f64> = pgram[..m].to_vec();
    let mean_log_omega = omegas.iter().map(|w| w.ln()).sum::<f64>() / m as f64;

    let objective = |d: f64| -> f64 {
        let g: f64 = omegas
            .iter()
            .zip(&intensities)
            .map(|(&w, &i)| w.powf(2.0 * d) * i)
            .sum::<f64>()
            / m as f64;
        g.max(1e-300).ln() - 2.0 * d * mean_log_omega
    };

    // Golden-section search over d ∈ (−0.49, 0.99); R is unimodal in
    // practice on this range.
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (-0.49f64, 0.99f64);
    let mut c1 = b - phi * (b - a);
    let mut c2 = a + phi * (b - a);
    let mut f1 = objective(c1);
    let mut f2 = objective(c2);
    for _ in 0..80 {
        if f1 < f2 {
            b = c2;
            c2 = c1;
            f2 = f1;
            c1 = b - phi * (b - a);
            f1 = objective(c1);
        } else {
            a = c1;
            c1 = c2;
            f1 = f2;
            c2 = a + phi * (b - a);
            f2 = objective(c2);
        }
        if (b - a).abs() < 1e-10 {
            break;
        }
    }
    let d = 0.5 * (a + b);

    // Diagnostics: report the implied log-log points and a pseudo-fit
    // (slope −2d through the periodogram), mirroring the other
    // estimators' interface.
    let points: Vec<(f64, f64)> = omegas
        .iter()
        .zip(&intensities)
        .filter(|(_, &i)| i > 0.0)
        .map(|(&w, &i)| (w.ln(), i.ln()))
        .collect();
    let fit = LinearFit {
        slope: -2.0 * d,
        intercept: objective(d),
        r_squared: f64::NAN,
    };
    Ok(HurstEstimate {
        h: d + 0.5,
        fit,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_rng::{Rng, SeedableRng};

    #[test]
    fn white_noise_reads_half() {
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(71);
        let x: Vec<f64> = (0..32_768).map(|_| rng.gen::<f64>() - 0.5).collect();
        let e = whittle_estimate(&x);
        assert!((e.h - 0.5).abs() < 0.08, "whittle H {} for white noise", e.h);
    }

    #[test]
    fn ar1_is_not_mistaken_for_strong_lrd() {
        // An AR(1) with moderate coefficient has only short memory; the
        // local Whittle estimate should stay well below 0.9.
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(72);
        let mut x = Vec::with_capacity(32_768);
        let mut prev = 0.0;
        for _ in 0..32_768 {
            prev = 0.5 * prev + rng.gen::<f64>() - 0.5;
            x.push(prev);
        }
        let e = whittle_estimate(&x);
        assert!(e.h < 0.85, "AR(1) misread as strong LRD: H = {}", e.h);
    }

    #[test]
    #[should_panic(expected = "128 samples")]
    fn short_series_rejected() {
        whittle_estimate(&[0.0; 32]);
    }

    #[test]
    fn short_and_constant_series_are_typed_errors() {
        assert!(matches!(
            try_whittle_estimate(&[0.5; 100]),
            Err(EstimatorError::TooFewSamples { needed: 128, got: 100, .. })
        ));
        assert!(matches!(
            try_whittle_estimate(&[0.1; 4096]),
            Err(EstimatorError::ZeroVariance { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn bad_bandwidth_rejected() {
        whittle_estimate_with_bandwidth(&vec![0.0; 256], 0.0);
    }
}
