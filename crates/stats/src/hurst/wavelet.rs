//! Haar-wavelet energy-slope estimator (Abry–Veitch style).
//!
//! The discrete Haar wavelet transform produces detail coefficients
//! `d_{j,k}` at octave `j`. For fractional Gaussian noise with Hurst
//! parameter `H`, the per-octave energy `μ_j = E[d_{j,k}²]` scales as
//! `μ_j ~ c · 2^{j(2H-1)}`, so the slope `γ` of `log₂ μ_j` against `j`
//! gives `H = (γ + 1) / 2`. This is the wavelet estimator the paper
//! cites (Abry & Veitch, ref. [1]) restricted to the Haar wavelet,
//! which is exact enough for cross-checking synthetic traces.

use super::{fit_points, require_samples, HurstEstimate};
use crate::error::EstimatorError;

const ESTIMATOR: &str = "wavelet estimator";

/// Octave cap of the estimator's pyramid.
const MAX_OCTAVES: usize = 24;
/// Minimum detail coefficients per usable octave.
const MIN_COEFFS: usize = 8;

/// Per-octave Haar detail energies `μ_j` for `j = 1..=octaves`,
/// starting from the finest scale: a fold of `x` through the Haar
/// pyramid ([`OnePassWavelet`]).
///
/// The input is truncated to the largest usable power-of-two prefix of
/// each level; levels with fewer than `min_coeffs` detail coefficients
/// are dropped.
pub fn haar_energies(x: &[f64], max_octaves: usize, min_coeffs: usize) -> Vec<(usize, f64)> {
    let mut pyramid = OnePassWavelet::with_max_octaves(max_octaves);
    x.iter().for_each(|&v| pyramid.push(v));
    pyramid.energies_with(min_coeffs)
}

/// Estimates the Hurst parameter from the Haar wavelet energy slope.
///
/// # Panics
///
/// Panics on any [`EstimatorError`]; see [`try_wavelet_estimate`] for
/// the fallible form.
pub fn wavelet_estimate(x: &[f64]) -> HurstEstimate {
    try_wavelet_estimate(x).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`wavelet_estimate`]: rejects series shorter than 128
/// samples, pyramids with fewer than three usable octaves, and inputs
/// where fewer than two octaves retain positive detail energy (a
/// constant series has zero energy at every octave).
pub fn try_wavelet_estimate(x: &[f64]) -> Result<HurstEstimate, EstimatorError> {
    let mut pyramid = OnePassWavelet::new();
    x.iter().for_each(|&v| pyramid.push(v));
    pyramid.estimate()
}

/// One octave of the Haar pyramid.
#[derive(Debug, Clone)]
struct Octave {
    /// The unpaired approximation coefficient, when the octave has
    /// received an odd number of them.
    pending: f64,
    /// Sum of squared detail coefficients, in pair order.
    energy: f64,
}

/// The Haar pyramid: a one-pass wavelet energy accumulator fed one
/// sample at a time, with one pending coefficient per octave
/// (O(24) state). Octave `j` has received `count >> j` approximation
/// coefficients and pairs them left to right, so a series folded
/// through it yields the same energies at every prefix length whether
/// it arrives at once ([`try_wavelet_estimate`], [`haar_energies`]) or
/// as a stream.
#[derive(Debug, Clone)]
pub struct OnePassWavelet {
    octaves: Vec<Octave>,
    max_octaves: usize,
    count: u64,
}

impl OnePassWavelet {
    /// An empty pyramid with the estimator's 24-octave cap.
    pub fn new() -> Self {
        OnePassWavelet::with_max_octaves(MAX_OCTAVES)
    }

    pub(crate) fn with_max_octaves(max_octaves: usize) -> Self {
        OnePassWavelet {
            octaves: Vec::new(),
            max_octaves,
            count: 0,
        }
    }

    /// Samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one sample, cascading completed pairs up the pyramid:
    /// every octave holding a pending coefficient (the trailing one
    /// bits of the count) closes a pair, and the next octave up keeps
    /// the carried approximation.
    pub fn push(&mut self, v: f64) {
        let sqrt2 = std::f64::consts::SQRT_2;
        let depth = (self.count.trailing_ones() as usize).min(self.max_octaves);
        self.count += 1;
        let mut carry = v;
        for octave in &mut self.octaves[..depth] {
            let d = (octave.pending - carry) / sqrt2;
            octave.energy += d * d;
            carry = (octave.pending + carry) / sqrt2;
        }
        match self.octaves.get_mut(depth) {
            Some(octave) => octave.pending = carry,
            None if depth < self.max_octaves => self.octaves.push(Octave {
                pending: carry,
                energy: 0.0,
            }),
            None => {}
        }
    }

    /// Per-octave mean detail energies, identical to
    /// `haar_energies(prefix, 24, 8)`.
    pub fn energies(&self) -> Vec<(usize, f64)> {
        self.energies_with(MIN_COEFFS)
    }

    /// Mean detail energy per octave, finest first, stopping at the
    /// first octave fed fewer than `2 * min_coeffs` coefficients.
    fn energies_with(&self, min_coeffs: usize) -> Vec<(usize, f64)> {
        let needed = 2 * min_coeffs.max(1) as u64;
        self.octaves
            .iter()
            .enumerate()
            .take_while(|&(j, _)| self.count >> j >= needed)
            .map(|(j, o)| (j + 1, o.energy / (self.count >> (j + 1)) as f64))
            .collect()
    }

    /// The wavelet estimate over the full stream so far; bit-equal to
    /// `try_wavelet_estimate(prefix)`.
    pub fn estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        require_samples(ESTIMATOR, 128, self.count as usize)?;
        let energies = self.energies();
        if energies.len() < 3 {
            return Err(EstimatorError::TooFewOctaves {
                estimator: ESTIMATOR,
                needed: 3,
                got: energies.len(),
            });
        }
        let points: Vec<(f64, f64)> = energies
            .iter()
            .filter(|(_, e)| *e > 0.0)
            .map(|&(j, e)| (j as f64, e.log2()))
            .collect();
        fit_points(ESTIMATOR, points, |slope| (slope + 1.0) / 2.0)
    }
}

impl Default for OnePassWavelet {
    fn default() -> Self {
        OnePassWavelet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haar_preserves_energy() {
        // One level of Haar transform is orthonormal: detail + approx
        // energy equals input energy.
        let x = [3.0, 1.0, -2.0, 4.0];
        let sqrt2 = std::f64::consts::SQRT_2;
        let a = [(3.0 + 1.0) / sqrt2, (-2.0 + 4.0) / sqrt2];
        let d = [(3.0f64 - 1.0) / sqrt2, (-2.0f64 - 4.0) / sqrt2];
        let input_energy: f64 = x.iter().map(|v| v * v).sum();
        let out_energy: f64 =
            a.iter().map(|v| v * v).sum::<f64>() + d.iter().map(|v| v * v).sum::<f64>();
        assert!((input_energy - out_energy).abs() < 1e-12);
        // And our function reports mean detail energy at level 1:
        let e = haar_energies(&x, 1, 1);
        let want = d.iter().map(|v| v * v).sum::<f64>() / 2.0;
        assert!((e[0].1 - want).abs() < 1e-12);
    }

    #[test]
    fn octave_count_shrinks() {
        let x = vec![1.0; 1024];
        let e = haar_energies(&x, 24, 1);
        // Level j has 1024/2^j detail coefficients; with min_coeffs=1 we
        // iterate while the approximation still has >= 2 samples, giving
        // 10 usable octaves for a length-1024 input.
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn iid_like_series_near_half() {
        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(42);
        let x: Vec<f64> = (0..65_536).map(|_| rng.gen::<f64>() - 0.5).collect();
        let e = wavelet_estimate(&x);
        assert!(
            (e.h - 0.5).abs() < 0.2,
            "expected H near 0.5 for iid-like input, got {}",
            e.h
        );
    }

    #[test]
    #[should_panic(expected = "128 samples")]
    fn short_series_rejected() {
        wavelet_estimate(&[0.0; 64]);
    }

    #[test]
    fn constant_series_is_a_typed_error_not_a_panic() {
        // Zero detail energy at every octave: three octaves are usable
        // but no point survives the e > 0 filter; the legacy path
        // panicked inside `linear_fit`.
        match try_wavelet_estimate(&[1.0; 1024]) {
            Err(EstimatorError::TooFewPoints { got: 0, .. }) => {}
            other => panic!("expected TooFewPoints, got {other:?}"),
        }
        assert!(matches!(
            try_wavelet_estimate(&[0.0; 64]),
            Err(EstimatorError::TooFewSamples { needed: 128, .. })
        ));
    }
}
