//! Geweke–Porter-Hudak (GPH) log-periodogram estimator.
//!
//! For a long-memory process with memory parameter `d = H - 1/2`, the
//! spectral density behaves as `f(ω) ~ c ω^{-2d}` near the origin.
//! Regressing `ln I(ω_j)` on `ln(4 sin²(ω_j/2))` over the lowest `m`
//! Fourier frequencies gives a slope of `-d`. This is the practical
//! frequency-domain estimator closest to the Whittle estimator the
//! paper cites for its trace analysis.

use super::{fit_points, is_constant, require_samples, HurstEstimate};
use crate::error::EstimatorError;
use lrd_fft::{Complex, Fft, next_pow2};

const ESTIMATOR: &str = "GPH estimator";

/// Periodogram `I(ω_j) = |Σ_t x_t e^{-iω_j t}|² / (2π n)` at the Fourier
/// frequencies `ω_j = 2π j / N`, `j = 1 .. N/2`, where `N` is `x.len()`
/// zero-padded to a power of two. The series is mean-centered first.
pub fn periodogram(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    assert!(n >= 2, "periodogram needs at least 2 samples");
    let m = x.iter().sum::<f64>() / n as f64;
    let size = next_pow2(n);
    let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v - m, 0.0)).collect();
    buf.resize(size, Complex::ZERO);
    Fft::new(size).forward(&mut buf);
    let norm = 2.0 * std::f64::consts::PI * n as f64;
    (1..=size / 2).map(|j| buf[j].norm_sqr() / norm).collect()
}

/// GPH estimate of the Hurst parameter using the lowest
/// `⌊n^bandwidth_exp⌋` Fourier frequencies (the classical choice is
/// `bandwidth_exp = 0.5`).
///
/// # Panics
///
/// Panics on any [`EstimatorError`] (see
/// [`try_gph_estimate_with_bandwidth`]) and if the bandwidth exponent
/// is outside `(0, 1)`.
pub fn gph_estimate_with_bandwidth(x: &[f64], bandwidth_exp: f64) -> HurstEstimate {
    try_gph_estimate_with_bandwidth(x, bandwidth_exp).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`gph_estimate_with_bandwidth`]: a series shorter than 128
/// samples is [`EstimatorError::TooFewSamples`], a constant one
/// [`EstimatorError::ZeroVariance`], and fewer than two positive
/// periodogram ordinates [`EstimatorError::TooFewPoints`].
///
/// # Panics
///
/// Panics if the bandwidth exponent is outside `(0, 1)` — a caller
/// bug, not a property of the data.
pub fn try_gph_estimate_with_bandwidth(
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
    let m = ((x.len() as f64).powf(bandwidth_exp) as usize)
        .clamp(8, pgram.len());
    let mut points = Vec::with_capacity(m);
    for j in 1..=m {
        let omega = 2.0 * std::f64::consts::PI * j as f64 / size as f64;
        let i_j = pgram[j - 1];
        if i_j > 0.0 {
            let reg = (4.0 * (omega / 2.0).sin().powi(2)).ln();
            points.push((reg, i_j.ln()));
        }
    }
    // slope = -d, H = d + 1/2.
    fit_points(ESTIMATOR, points, |slope| 0.5 - slope)
}

/// GPH estimate with the classical `m = ⌊√n⌋` bandwidth.
///
/// # Panics
///
/// Panics on any [`EstimatorError`]; see [`try_gph_estimate`] for the
/// fallible form.
pub fn gph_estimate(x: &[f64]) -> HurstEstimate {
    gph_estimate_with_bandwidth(x, 0.5)
}

/// Fallible [`gph_estimate`].
pub fn try_gph_estimate(x: &[f64]) -> Result<HurstEstimate, EstimatorError> {
    try_gph_estimate_with_bandwidth(x, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodogram_parseval_like() {
        // Sum of periodogram ordinates relates to the variance:
        // Σ_j I(ω_j) ≈ n·var/(2π·2) over half the spectrum (within
        // zero-padding distortion). We only check it is positive and
        // finite here; the GPH tests exercise the shape.
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
        let p = periodogram(&x);
        assert!(p.iter().all(|&v| v.is_finite() && v >= 0.0));
        // A pure sinusoid concentrates energy near its frequency.
        let peak = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // ω = 0.3 rad/sample => j ≈ 0.3·256/(2π) ≈ 12 (zero-padded: same
        // fraction of the padded size).
        let expect = (0.3 * 256.0 / (2.0 * std::f64::consts::PI)).round() as usize;
        assert!(
            (peak + 1).abs_diff(expect) <= 2,
            "peak at j={} expected near {}",
            peak + 1,
            expect
        );
    }

    #[test]
    fn iid_like_series_near_half() {
        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(42);
        let x: Vec<f64> = (0..32_768).map(|_| rng.gen::<f64>() - 0.5).collect();
        let e = gph_estimate(&x);
        assert!(
            (e.h - 0.5).abs() < 0.2,
            "expected H near 0.5 for iid-like input, got {}",
            e.h
        );
    }

    #[test]
    #[should_panic(expected = "128 samples")]
    fn short_series_rejected() {
        gph_estimate(&[0.0; 16]);
    }

    #[test]
    fn short_and_constant_series_are_typed_errors() {
        assert!(matches!(
            try_gph_estimate(&[0.5; 100]),
            Err(EstimatorError::TooFewSamples { needed: 128, got: 100, .. })
        ));
        assert!(matches!(
            try_gph_estimate(&[0.1; 4096]),
            Err(EstimatorError::ZeroVariance { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn bad_bandwidth_rejected() {
        gph_estimate_with_bandwidth(&vec![0.0; 256], 1.5);
    }
}
