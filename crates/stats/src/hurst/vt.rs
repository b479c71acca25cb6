//! Variance–time estimator.
//!
//! For an exactly or asymptotically second-order self-similar process,
//! the variance of the aggregated series
//! `X^{(m)}_k = (X_{km+1} + … + X_{(k+1)m}) / m`
//! decays as `Var[X^{(m)}] ~ σ² m^{2H-2}` (Leland et al., the paper's
//! ref. [23]). The slope `β` of the variance–time log-log plot
//! therefore gives `H = 1 + β/2`.

use super::{fit_points, is_constant, log_spaced_sizes, require_samples, HurstEstimate};
use crate::error::EstimatorError;

const ESTIMATOR: &str = "variance-time";

/// Estimates the Hurst parameter from the variance of aggregated
/// series at log-spaced aggregation levels.
///
/// # Panics
///
/// Panics on any [`EstimatorError`]; see [`try_variance_time_estimate`]
/// for the fallible form.
pub fn variance_time_estimate(x: &[f64]) -> HurstEstimate {
    try_variance_time_estimate(x).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`variance_time_estimate`]: rejects series shorter than 64
/// samples, constant series, and windows where fewer than two
/// aggregation levels retain positive variance — reachable even when
/// the overall variance is positive (e.g. a prime-length window whose
/// only deviant sample is truncated away at every level `m ≥ 2`).
pub fn try_variance_time_estimate(x: &[f64]) -> Result<HurstEstimate, EstimatorError> {
    require_samples(ESTIMATOR, 64, x.len())?;
    // Keep at least ~8 aggregated points per level so the variance
    // estimate is meaningful.
    try_variance_time_estimate_with_sizes(x, &log_spaced_sizes(1, x.len() / 8, 16))
}

/// [`try_variance_time_estimate`] over caller-chosen aggregation levels
/// (strictly increasing, each ≥ 1), e.g. the dyadic levels the one-pass
/// and streaming estimators regress over; levels leaving fewer than two
/// aggregated blocks drop out, exactly as in the log-spaced path. A
/// constant series (all samples equal) is [`EstimatorError::ZeroVariance`].
pub fn try_variance_time_estimate_with_sizes(
    x: &[f64],
    sizes: &[usize],
) -> Result<HurstEstimate, EstimatorError> {
    if sizes.is_empty() {
        return Err(EstimatorError::NoUsableScales { estimator: ESTIMATOR });
    }
    if is_constant(x) {
        return Err(EstimatorError::ZeroVariance {
            estimator: ESTIMATOR,
        });
    }
    let mut levels: Vec<VtLevel> = sizes.iter().map(|&m| VtLevel::new(m)).collect();
    for &v in x {
        levels.iter_mut().for_each(|level| level.push(v));
    }
    fit_levels(&levels)
}

/// One aggregation level's accumulator: the running sum of the block in
/// progress plus a Welford summary of the completed block means. The
/// batch path and [`crate::OnePassVt`] both feed it sample by sample,
/// so both see the same block means and the same variance bits.
#[derive(Debug, Clone)]
pub(crate) struct VtLevel {
    pub(crate) size: usize,
    cur_sum: f64,
    cur_n: usize,
    blocks: u64,
    mean: f64,
    m2: f64,
}

impl VtLevel {
    pub(crate) fn new(size: usize) -> Self {
        assert!(size >= 1);
        VtLevel {
            size,
            cur_sum: 0.0,
            cur_n: 0,
            blocks: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Absorbs one sample, folding the block mean in when it completes.
    pub(crate) fn push(&mut self, v: f64) {
        self.cur_sum += v;
        self.cur_n += 1;
        if self.cur_n == self.size {
            let block_mean = self.cur_sum / self.size as f64;
            self.cur_sum = 0.0;
            self.cur_n = 0;
            self.blocks += 1;
            let delta = block_mean - self.mean;
            self.mean += delta / self.blocks as f64;
            self.m2 += delta * (block_mean - self.mean);
        }
    }
}

/// Regresses `ln Var[X^{(m)}]` on `ln m` over the levels with at least
/// two blocks and positive variance.
pub(crate) fn fit_levels<'a>(
    levels: impl IntoIterator<Item = &'a VtLevel>,
) -> Result<HurstEstimate, EstimatorError> {
    let points: Vec<(f64, f64)> = levels
        .into_iter()
        .filter(|l| l.blocks >= 2)
        .map(|l| (l.size as f64, l.m2 / l.blocks as f64))
        .filter(|&(_, v)| v > 0.0)
        .map(|(m, v)| (m.ln(), v.ln()))
        .collect();
    fit_points(ESTIMATOR, points, |slope| 1.0 + slope / 2.0)
}

/// Non-overlapping block means at aggregation level `m`.
pub fn aggregate(x: &[f64], m: usize) -> Vec<f64> {
    assert!(m >= 1);
    x.chunks_exact(m)
        .map(|c| c.iter().sum::<f64>() / m as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::variance;

    #[test]
    fn aggregate_means() {
        let x = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(aggregate(&x, 2), vec![2.0, 6.0]);
        assert_eq!(aggregate(&x, 1), x.to_vec());
        assert_eq!(aggregate(&x, 5), vec![5.0]);
    }

    #[test]
    fn iid_like_series_near_half() {
        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(42);
        let x: Vec<f64> = (0..65_536).map(|_| rng.gen::<f64>() - 0.5).collect();
        let e = variance_time_estimate(&x);
        assert!(
            (e.h - 0.5).abs() < 0.1,
            "expected H near 0.5 for iid-like input, got {}",
            e.h
        );
    }

    #[test]
    fn strong_positive_dependence_raises_h() {
        // A slowly varying series (random walk increments smoothed) has
        // aggregated variance decaying slower than 1/m => H > 0.5.
        let mut x = Vec::with_capacity(32_768);
        let mut level = 0.0;
        for i in 0..32_768 {
            // Long deterministic cycles emulate slowly-decaying
            // correlations.
            level = 0.999 * level + ((i as f64 * 0.618_033_988_75) % 1.0 - 0.5);
            x.push(level);
        }
        let e = variance_time_estimate(&x);
        assert!(e.h > 0.7, "expected high H for smooth series, got {}", e.h);
    }

    #[test]
    #[should_panic(expected = "constant series")]
    fn constant_rejected() {
        variance_time_estimate(&[1.0; 128]);
    }

    #[test]
    fn with_sizes_default_spacing_matches_the_legacy_path() {
        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(11);
        let x: Vec<f64> = (0..4096).map(|_| rng.gen::<f64>()).collect();
        let sizes = log_spaced_sizes(1, x.len() / 8, 16);
        let a = variance_time_estimate(&x);
        let b = try_variance_time_estimate_with_sizes(&x, &sizes).unwrap();
        assert_eq!(a.h.to_bits(), b.h.to_bits());
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn positive_variance_with_one_surviving_level_is_a_typed_error() {
        // A 127-sample (prime length) window whose only deviant value
        // sits at the last index: every level m ≥ 2 truncates it away,
        // leaving constant aggregates with zero variance, so only the
        // m = 1 point survives. The legacy path panicked inside
        // `linear_fit` despite variance(x) > 0.
        let mut w = vec![1.0; 126];
        w.push(2.0);
        assert!(variance(&w) > 0.0);
        match try_variance_time_estimate(&w) {
            Err(EstimatorError::TooFewPoints { got: 1, .. }) => {}
            other => panic!("expected TooFewPoints, got {other:?}"),
        }
    }

    #[test]
    fn typed_errors_cover_the_cheap_preconditions() {
        assert!(matches!(
            try_variance_time_estimate(&[1.0; 10]),
            Err(EstimatorError::TooFewSamples { needed: 64, got: 10, .. })
        ));
        for v in [1.0, 0.1, 12.7] {
            assert!(
                matches!(
                    try_variance_time_estimate(&[v; 128]),
                    Err(EstimatorError::ZeroVariance { .. })
                ),
                "constant series at {v}"
            );
        }
        assert!(matches!(
            try_variance_time_estimate_with_sizes(&[1.0; 128], &[]),
            Err(EstimatorError::NoUsableScales { .. })
        ));
    }
}
