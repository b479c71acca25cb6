//! Rescaled-range (R/S) analysis, the original Hurst estimator from
//! hydrology (Hurst 1950, cited as [19] in the paper).
//!
//! For a block `x_1..x_n`, let `y_k` be the cumulative deviations from
//! the block mean. The rescaled range is
//! `R/S = (max_k y_k − min_k y_k) / s` where `s` is the block standard
//! deviation. For an LRD process, `E[R/S] ~ c·n^H`, so the slope of
//! `log(R/S)` against `log n` estimates `H`.

use super::{fit_points, is_constant, log_spaced_sizes, require_samples, HurstEstimate};
use crate::descriptive::mean;
use crate::error::EstimatorError;

const ESTIMATOR: &str = "R/S analysis";

/// Estimates the Hurst parameter of `x` by R/S analysis.
///
/// Block sizes are log-spaced between 8 and `n / 4`; each block size
/// averages the R/S statistic over all non-overlapping blocks.
///
/// # Panics
///
/// Panics on any [`EstimatorError`]; see [`try_rs_estimate`] for the
/// fallible form.
pub fn rs_estimate(x: &[f64]) -> HurstEstimate {
    try_rs_estimate(x).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`rs_estimate`]: rejects series shorter than 64 samples and
/// windows where fewer than two block sizes yield a usable (non-constant
/// block) R/S average — including the "overall variance positive but
/// every block constant" window that used to panic deep inside the
/// regression.
pub fn try_rs_estimate(x: &[f64]) -> Result<HurstEstimate, EstimatorError> {
    require_samples(ESTIMATOR, 64, x.len())?;
    try_rs_estimate_with_sizes(x, &log_spaced_sizes(8, x.len() / 4, 16))
}

/// [`try_rs_estimate`] over caller-chosen block sizes (strictly
/// increasing, each ≥ 2), e.g. the dyadic sizes the one-pass and
/// streaming estimators regress over; sizes exceeding `x.len()`
/// contribute no blocks and drop out, exactly as in the log-spaced
/// path.
pub fn try_rs_estimate_with_sizes(
    x: &[f64],
    sizes: &[usize],
) -> Result<HurstEstimate, EstimatorError> {
    if sizes.is_empty() {
        return Err(EstimatorError::NoUsableScales { estimator: ESTIMATOR });
    }
    let scales: Vec<RsScale> = sizes
        .iter()
        .map(|&n| {
            let mut scale = RsScale::new(n);
            x.chunks_exact(n).for_each(|block| scale.score(block));
            scale
        })
        .collect();
    fit_scales(&scales)
}

/// One block size's R/S accumulator: the sum of the statistics of the
/// non-constant blocks scored so far, in block order. The batch path
/// scores `chunks_exact` blocks and [`crate::OnePassRs`] scores each
/// block as the stream completes it — the same blocks in the same
/// order, hence the same bits.
#[derive(Debug, Clone)]
pub(crate) struct RsScale {
    pub(crate) size: usize,
    acc: f64,
    blocks: u64,
}

impl RsScale {
    pub(crate) fn new(size: usize) -> Self {
        RsScale {
            size,
            acc: 0.0,
            blocks: 0,
        }
    }

    /// Adds one block's R/S statistic; constant blocks are skipped.
    pub(crate) fn score(&mut self, block: &[f64]) {
        if let Some(rs) = rescaled_range(block) {
            self.acc += rs;
            self.blocks += 1;
        }
    }
}

/// Regresses `ln avg R/S` on `ln n` over the scales that scored at
/// least one block.
pub(crate) fn fit_scales<'a>(
    scales: impl IntoIterator<Item = &'a RsScale>,
) -> Result<HurstEstimate, EstimatorError> {
    let points: Vec<(f64, f64)> = scales
        .into_iter()
        .filter(|s| s.blocks > 0)
        .map(|s| ((s.size as f64).ln(), (s.acc / s.blocks as f64).ln()))
        .collect();
    fit_points(ESTIMATOR, points, |slope| slope)
}

/// R/S statistic of one block; `None` if the block is constant (all
/// samples equal, see [`is_constant`]) or its spread underflows to zero.
fn rescaled_range(block: &[f64]) -> Option<f64> {
    if is_constant(block) {
        return None;
    }
    let m = mean(block);
    // One pass over the deviations: the squared sum (the population
    // variance's second pass, same order) and the cumulative range.
    let (mut squares, mut cum, mut lo, mut hi) = (0.0, 0.0, 0.0f64, 0.0f64);
    for &v in block {
        let d = v - m;
        squares += d * d;
        cum += d;
        lo = lo.min(cum);
        hi = hi.max(cum);
    }
    let s = (squares / block.len() as f64).sqrt();
    (s != 0.0).then(|| (hi - lo) / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaled_range_simple() {
        // Block [0, 1]: mean 0.5, cumdev [-0.5, 0.0]; R = 0.5, S = 0.5.
        let rs = rescaled_range(&[0.0, 1.0]).unwrap();
        assert!((rs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_block_is_none() {
        for v in [2.0, 0.1, 12.7] {
            assert!(rescaled_range(&[v; 3]).is_none(), "constant block at {v}");
        }
    }

    #[test]
    fn iid_like_series_near_half() {


        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(42);
        let x: Vec<f64> = (0..65_536).map(|_| rng.gen::<f64>() - 0.5).collect();
        let e = rs_estimate(&x);
        assert!(
            (e.h - 0.5).abs() < 0.15,
            "expected H near 0.5 for iid-like input, got {}",
            e.h
        );
    }

    #[test]
    #[should_panic(expected = "64 samples")]
    fn short_series_rejected() {
        rs_estimate(&[1.0; 10]);
    }

    #[test]
    fn with_sizes_default_spacing_matches_the_legacy_path() {
        use lrd_rng::{Rng, SeedableRng};
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(9);
        let x: Vec<f64> = (0..4096).map(|_| rng.gen::<f64>()).collect();
        let sizes = log_spaced_sizes(8, x.len() / 4, 16);
        let a = rs_estimate(&x);
        let b = try_rs_estimate_with_sizes(&x, &sizes).unwrap();
        assert_eq!(a.h.to_bits(), b.h.to_bits());
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn every_block_constant_is_a_typed_error_not_a_panic() {
        // Overall variance is positive (one deviant sample at the end)
        // but among the log-spaced sizes 8..=16 only 11 divides 66, so
        // every other size truncates the deviant away and sees only
        // constant blocks — a single regression point survives. The
        // legacy path panicked inside `linear_fit` on this window.
        let mut w = vec![1.0; 65];
        w.push(2.0);
        assert!(crate::descriptive::variance(&w) > 0.0);
        match try_rs_estimate(&w) {
            Err(EstimatorError::TooFewPoints { got, .. }) => assert_eq!(got, 1),
            other => panic!("expected TooFewPoints, got {other:?}"),
        }
    }

    #[test]
    fn dyadic_all_blocks_constant_is_a_typed_error() {
        // Two constant halves: every dyadic block of size 8..=16 sits
        // entirely inside one half, so zero points survive. This is the
        // window the streaming (dyadic-size) backend must survive.
        let mut w = vec![1.0; 32];
        w.extend_from_slice(&[2.0; 32]);
        match try_rs_estimate_with_sizes(&w, &[8, 16]) {
            Err(EstimatorError::TooFewPoints { got: 0, .. }) => {}
            other => panic!("expected TooFewPoints, got {other:?}"),
        }
    }

    #[test]
    fn short_series_is_a_typed_error() {
        match try_rs_estimate(&[1.0; 10]) {
            Err(EstimatorError::TooFewSamples { needed: 64, got: 10, .. }) => {}
            other => panic!("expected TooFewSamples, got {other:?}"),
        }
        assert!(matches!(
            try_rs_estimate_with_sizes(&[1.0; 128], &[]),
            Err(EstimatorError::NoUsableScales { .. })
        ));
    }
}
