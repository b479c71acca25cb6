//! One-pass, grow-only Hurst estimators for out-of-core trace
//! ingestion.
//!
//! The batch estimators in [`crate::hurst`] need the whole series in
//! memory; the paper's empirical backbone is Hurst estimation over
//! multi-million-packet traces, which `lrd-trace` streams through in
//! fixed-size chunks. These accumulators absorb one sample at a time
//! and hold **bounded** state regardless of stream length:
//!
//! * [`OnePassRs`] — per-dyadic-block-size R/S averages. Block sizes
//!   are capped at [`MAX_ONEPASS_BLOCK`]; a ring of the most recent
//!   `MAX_ONEPASS_BLOCK` samples holds every completing block
//!   contiguously, and each is scored by the same per-scale
//!   accumulator the batch path folds `chunks_exact` blocks into.
//! * [`OnePassVt`] — one Welford level accumulator per dyadic
//!   aggregation level, the same accumulator batch variance–time runs.
//! * [`OnePassWavelet`] — the Haar pyramid itself, with one pending
//!   coefficient per octave (O(24) state);
//!   [`haar_energies`](crate::hurst::haar_energies) and the batch
//!   wavelet estimator fold a slice through it.
//!
//! Sharing the accumulators makes each estimate bit-equal to its batch
//! counterpart on the same prefix by construction:
//! [`try_rs_estimate_with_sizes`](crate::hurst::try_rs_estimate_with_sizes)
//! and
//! [`try_variance_time_estimate_with_sizes`](crate::hurst::try_variance_time_estimate_with_sizes)
//! over the (capped) dyadic sizes below, and
//! [`try_wavelet_estimate`](crate::hurst::try_wavelet_estimate).
//!
//! [`OnePassHurst`] bundles all three with a running [`Summary`] for
//! the callers (the trace CLI, the trace-driven figures) that want one
//! object per stream.

use crate::descriptive::Summary;
use crate::error::EstimatorError;
use crate::hurst::{
    dyadic_sizes, pooled, require_samples, rs_fit_scales, vt_fit_levels, HurstEstimate,
    RsScale, VtLevel,
};
pub use crate::hurst::wavelet::OnePassWavelet;

/// Largest analysis block (samples) the one-pass estimators maintain.
///
/// This caps both the R/S ring and the deepest VT aggregation level:
/// state is at most ~`MAX_ONEPASS_BLOCK` f64s (512 KiB) no matter how
/// long the stream runs. Scales beyond it contribute nothing — exactly
/// as if the batch estimators were called with the same capped size
/// list.
pub const MAX_ONEPASS_BLOCK: usize = 1 << 16;

/// Dyadic R/S block sizes the one-pass estimator regresses over for a
/// series of `len` samples: powers of two in `[8, min(len/4, max_block)]`.
///
/// Feed these to
/// [`try_rs_estimate_with_sizes`](crate::hurst::try_rs_estimate_with_sizes)
/// to reproduce a [`OnePassRs`] estimate from the raw series.
pub fn onepass_rs_sizes(len: usize, max_block: usize) -> Vec<usize> {
    let hi = (len / 4).min(max_block);
    if hi < 8 {
        Vec::new()
    } else {
        dyadic_sizes(8, hi)
    }
}

/// Dyadic VT aggregation levels for a series of `len` samples: powers
/// of two in `[1, min(len/8, max_block)]`.
pub fn onepass_vt_sizes(len: usize, max_block: usize) -> Vec<usize> {
    let hi = (len / 8).min(max_block);
    if hi < 1 {
        Vec::new()
    } else {
        dyadic_sizes(1, hi)
    }
}

/// One-pass rescaled-range analysis over dyadic block sizes.
#[derive(Debug, Clone)]
pub struct OnePassRs {
    /// The most recent `max_block` samples (grown on demand, so a
    /// short stream touches only what it fills). Every block size
    /// divides `max_block` and blocks are aligned to their size, so a
    /// completing block is always one contiguous ring slice.
    ring: Vec<f64>,
    max_block: usize,
    scales: Vec<RsScale>,
    count: u64,
}

impl OnePassRs {
    /// An accumulator with the default [`MAX_ONEPASS_BLOCK`] cap.
    pub fn new() -> Self {
        OnePassRs::with_max_block(MAX_ONEPASS_BLOCK)
    }

    /// An accumulator whose largest block size is `max_block`
    /// (a power of two, at least 8).
    pub fn with_max_block(max_block: usize) -> Self {
        assert!(
            max_block.is_power_of_two() && max_block >= 8,
            "max block must be a power of two >= 8"
        );
        OnePassRs {
            ring: Vec::new(),
            max_block,
            scales: dyadic_sizes(8, max_block)
                .into_iter()
                .map(RsScale::new)
                .collect(),
            count: 0,
        }
    }

    /// Samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one sample, scoring every block it completes.
    pub fn push(&mut self, v: f64) {
        let end = (self.count % self.max_block as u64) as usize + 1;
        if end > self.ring.len() {
            self.ring.push(v);
        } else {
            self.ring[end - 1] = v;
        }
        self.count += 1;
        for scale in &mut self.scales {
            if end.is_multiple_of(scale.size) {
                scale.score(&self.ring[end - scale.size..end]);
            }
        }
    }

    /// The R/S estimate over the full stream so far; bit-equal to
    /// `try_rs_estimate_with_sizes(prefix, onepass_rs_sizes(len, max_block))`.
    pub fn estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        require_samples("R/S analysis", 64, self.count as usize)?;
        let hi = self.count as usize / 4;
        rs_fit_scales(self.scales.iter().take_while(|s| s.size <= hi))
    }
}

impl Default for OnePassRs {
    fn default() -> Self {
        OnePassRs::new()
    }
}

/// One-pass variance–time analysis over dyadic aggregation levels
/// (hierarchy of running block sums — O(levels) state).
#[derive(Debug, Clone)]
pub struct OnePassVt {
    levels: Vec<VtLevel>,
    count: u64,
    first: f64,
    /// Whether any sample differed from the first (the exact constancy
    /// rule the batch path applies to its slice).
    varied: bool,
}

impl OnePassVt {
    /// An accumulator with the default [`MAX_ONEPASS_BLOCK`] cap.
    pub fn new() -> Self {
        OnePassVt::with_max_block(MAX_ONEPASS_BLOCK)
    }

    /// An accumulator whose deepest aggregation level is `max_block`
    /// (a power of two).
    pub fn with_max_block(max_block: usize) -> Self {
        assert!(max_block.is_power_of_two(), "max block must be a power of two");
        OnePassVt {
            levels: dyadic_sizes(1, max_block)
                .into_iter()
                .map(VtLevel::new)
                .collect(),
            count: 0,
            first: 0.0,
            varied: false,
        }
    }

    /// Samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one sample into every aggregation level.
    pub fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.first = v;
        }
        self.varied |= v != self.first;
        self.count += 1;
        self.levels.iter_mut().for_each(|level| level.push(v));
    }

    /// The variance–time estimate over the full stream so far;
    /// bit-equal to `try_variance_time_estimate_with_sizes(prefix,
    /// onepass_vt_sizes(len, max_block))`.
    pub fn estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        require_samples("variance-time", 64, self.count as usize)?;
        if !self.varied {
            return Err(EstimatorError::ZeroVariance {
                estimator: "variance-time",
            });
        }
        let hi = self.count as usize / 8;
        vt_fit_levels(self.levels.iter().take_while(|l| l.size <= hi))
    }
}

impl Default for OnePassVt {
    fn default() -> Self {
        OnePassVt::new()
    }
}

/// All three one-pass Hurst estimators plus a running moment summary,
/// for callers that ingest a trace once and want everything.
#[derive(Debug, Clone)]
pub struct OnePassHurst {
    rs: OnePassRs,
    vt: OnePassVt,
    wavelet: OnePassWavelet,
    summary: Summary,
}

impl OnePassHurst {
    /// An empty bundle with the default block cap.
    pub fn new() -> Self {
        OnePassHurst {
            rs: OnePassRs::new(),
            vt: OnePassVt::new(),
            wavelet: OnePassWavelet::new(),
            summary: Summary::new(),
        }
    }

    /// Absorbs one sample into every estimator.
    pub fn push(&mut self, v: f64) {
        self.rs.push(v);
        self.vt.push(v);
        self.wavelet.push(v);
        self.summary.push(v);
    }

    /// Samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// The running moment summary (mean/variance/min/max).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The R/S estimate (see [`OnePassRs::estimate`]).
    pub fn rs_estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        self.rs.estimate()
    }

    /// The variance–time estimate (see [`OnePassVt::estimate`]).
    pub fn variance_time_estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        self.vt.estimate()
    }

    /// The wavelet estimate (see [`OnePassWavelet::estimate`]).
    pub fn wavelet_estimate(&self) -> Result<HurstEstimate, EstimatorError> {
        self.wavelet.estimate()
    }

    /// Mean of the clamped point estimates of whichever estimators
    /// currently succeed; `None` if all of them fail (short or
    /// degenerate stream).
    pub fn pooled(&self) -> Option<f64> {
        let estimates = [
            self.rs_estimate(),
            self.variance_time_estimate(),
            self.wavelet_estimate(),
        ];
        pooled(estimates.iter().flatten())
    }
}

impl Default for OnePassHurst {
    fn default() -> Self {
        OnePassHurst::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hurst::{
        try_rs_estimate_with_sizes, try_variance_time_estimate_with_sizes, try_wavelet_estimate,
    };
    use lrd_rng::{Rng, SeedableRng};

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()
    }

    #[test]
    fn rs_is_bit_equal_to_the_capped_batch_path() {
        // Including a cap small enough that the ring wraps many times.
        for &(n, max_block) in &[(5000, 64), (5000, 1 << 16), (70_000, 256)] {
            let x = noise(n, 100 + max_block as u64);
            let mut op = OnePassRs::with_max_block(max_block);
            for &v in &x {
                op.push(v);
            }
            let stream = op.estimate().unwrap();
            let batch =
                try_rs_estimate_with_sizes(&x, &onepass_rs_sizes(n, max_block)).unwrap();
            assert_eq!(stream.h.to_bits(), batch.h.to_bits());
            assert_eq!(stream.points, batch.points);
        }
    }

    #[test]
    fn vt_is_bit_equal_to_the_capped_batch_path() {
        for &(n, max_block) in &[(5000, 64), (70_000, 1 << 16)] {
            let x = noise(n, 200 + max_block as u64);
            let mut op = OnePassVt::with_max_block(max_block);
            for &v in &x {
                op.push(v);
            }
            let stream = op.estimate().unwrap();
            let batch =
                try_variance_time_estimate_with_sizes(&x, &onepass_vt_sizes(n, max_block))
                    .unwrap();
            assert_eq!(stream.points.len(), batch.points.len());
            assert_eq!(
                stream.h.to_bits(),
                batch.h.to_bits(),
                "one-pass VT {} vs batch {}",
                stream.h,
                batch.h
            );
        }
    }

    #[test]
    fn wavelet_is_bit_equal_at_every_checkpoint() {
        let x = noise(20_000, 300);
        let mut op = OnePassWavelet::new();
        for (i, &v) in x.iter().enumerate() {
            op.push(v);
            let n = i + 1;
            // Odd lengths exercise pending coefficients at every level.
            if [128, 129, 1000, 4097, 16_384, 20_000].contains(&n) {
                let stream = op.estimate().unwrap();
                let batch = try_wavelet_estimate(&x[..n]).unwrap();
                assert_eq!(
                    stream.h.to_bits(),
                    batch.h.to_bits(),
                    "wavelet split from batch at prefix {n}"
                );
                assert_eq!(stream.points, batch.points);
            }
        }
    }

    #[test]
    fn degenerate_streams_are_typed_errors_not_panics() {
        for c in [3.25, 0.1, 12.7] {
            let mut all = OnePassHurst::new();
            assert!(matches!(
                all.rs_estimate(),
                Err(EstimatorError::TooFewSamples { .. })
            ));
            for _ in 0..10_000 {
                all.push(c);
            }
            // Constant stream: every estimator fails, none panics.
            assert!(all.rs_estimate().is_err(), "R/S estimated a constant {c}");
            assert!(matches!(
                all.variance_time_estimate(),
                Err(EstimatorError::ZeroVariance { .. })
            ));
            assert!(
                all.wavelet_estimate().is_err(),
                "wavelet estimated a constant {c}"
            );
            assert!(all.pooled().is_none());
            // Variability arriving later unlocks the estimates.
            let x = noise(60_000, 400);
            for &v in &x {
                all.push(v);
            }
            assert!(all.rs_estimate().is_ok());
            assert!(all.variance_time_estimate().is_ok());
            assert!(all.wavelet_estimate().is_ok());
            let pooled = all.pooled().unwrap();
            assert!((0.0..=1.0).contains(&pooled));
            assert_eq!(all.count(), 70_000);
        }
    }

    #[test]
    fn size_helpers_cap_and_empty_correctly() {
        assert_eq!(onepass_rs_sizes(256, 1 << 16), vec![8, 16, 32, 64]);
        assert_eq!(onepass_rs_sizes(256, 16), vec![8, 16]);
        assert!(onepass_rs_sizes(20, 1 << 16).is_empty());
        assert_eq!(onepass_vt_sizes(64, 1 << 16), vec![1, 2, 4, 8]);
        assert_eq!(onepass_vt_sizes(64, 4), vec![1, 2, 4]);
    }
}
