//! Block shuffling of traces (paper Fig. 6).
//!
//! **External shuffling** divides a trace into fixed-length blocks and
//! permutes the blocks uniformly at random, leaving each block's
//! interior untouched. This destroys all correlation at lags longer
//! than one block while preserving the marginal distribution exactly
//! and the short-lag correlation almost exactly — which is why the
//! paper uses it as the model-free counterpart of the truncated-Pareto
//! cutoff `T_c` (Figs. 7, 8, 14).
//!
//! **Internal shuffling** (Erramilli, Narayan & Willinger, the paper's
//! ref. \[12\]) is the dual operation: it permutes the samples *within*
//! each block, destroying correlation at lags shorter than a block
//! while preserving the long-lag structure. It is included as an
//! extension for ablation experiments.

use crate::trace::Trace;
use lrd_rng::seq::SliceRandom;
use lrd_rng::Rng;

/// Externally shuffles `trace` with blocks of `block_len` samples.
///
/// The trailing partial block (if any) participates in the permutation
/// as a shorter block, so the sample population — and hence the
/// marginal — is exactly preserved.
///
/// # Panics
///
/// Panics if `block_len == 0`.
pub fn external_shuffle<R: Rng + ?Sized>(trace: &Trace, block_len: usize, rng: &mut R) -> Trace {
    assert!(block_len > 0, "block length must be positive");
    let _span = lrd_obs::span!(
        "traffic.external_shuffle",
        block_len = block_len,
        len = trace.len(),
    );
    let rates = trace.rates();
    let mut blocks: Vec<&[f64]> = rates.chunks(block_len).collect();
    blocks.shuffle(rng);
    let mut out = Vec::with_capacity(rates.len());
    for b in blocks {
        out.extend_from_slice(b);
    }
    Trace::new(trace.dt(), out)
}

/// Externally shuffles with the block length given in **seconds**; the
/// block length in samples is rounded to at least one sample.
pub fn external_shuffle_seconds<R: Rng + ?Sized>(
    trace: &Trace,
    block_seconds: f64,
    rng: &mut R,
) -> Trace {
    assert!(block_seconds > 0.0, "block duration must be positive");
    let samples = ((block_seconds / trace.dt()).round() as usize).max(1);
    external_shuffle(trace, samples, rng)
}

/// Internally shuffles `trace`: permutes samples within each
/// `block_len`-sample block, preserving correlation beyond the block
/// length and destroying it below.
pub fn internal_shuffle<R: Rng + ?Sized>(trace: &Trace, block_len: usize, rng: &mut R) -> Trace {
    assert!(block_len > 0, "block length must be positive");
    let _span = lrd_obs::span!(
        "traffic.internal_shuffle",
        block_len = block_len,
        len = trace.len(),
    );
    let mut rates = trace.rates().to_vec();
    for chunk in rates.chunks_mut(block_len) {
        chunk.shuffle(rng);
    }
    Trace::new(trace.dt(), rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_rng::SeedableRng;

    fn ramp(n: usize) -> Trace {
        Trace::new(0.01, (0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn external_preserves_population() {
        let t = ramp(1000);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(1);
        let s = external_shuffle(&t, 32, &mut rng);
        let mut a = t.rates().to_vec();
        let mut b = s.rates().to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b, "shuffling must preserve the sample population");
    }

    #[test]
    fn external_preserves_block_interiors() {
        let t = ramp(100);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(2);
        let s = external_shuffle(&t, 10, &mut rng);
        // Every full block of the output must be a contiguous run of
        // the input (ramps of step 1).
        for block in s.rates().chunks(10) {
            for w in block.windows(2) {
                assert!((w[1] - w[0] - 1.0).abs() < 1e-12, "block interior broken");
            }
        }
    }

    #[test]
    fn external_destroys_long_lag_correlation() {
        // A slow sinusoid has strong correlation at long lags; after
        // shuffling with small blocks the long-lag correlation should
        // collapse while short-lag correlation survives.
        let n = 1 << 14;
        let t = Trace::new(
            0.01,
            (0..n)
                .map(|i| 5.0 + (i as f64 * 2.0 * std::f64::consts::PI / 2048.0).sin())
                .collect(),
        );
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(3);
        let block = 64;
        let s = external_shuffle(&t, block, &mut rng);
        let rho_orig = lrd_stats::autocorrelation(t.rates(), 512);
        let rho_shuf = lrd_stats::autocorrelation(s.rates(), 512);
        // Long-lag (4 blocks): gone.
        assert!(rho_orig[256].abs() > 0.5);
        assert!(
            rho_shuf[256].abs() < 0.2,
            "long-lag correlation survived: {}",
            rho_shuf[256]
        );
        // Short-lag (fraction of a block): retained.
        assert!(rho_shuf[8] > 0.5 * rho_orig[8], "short-lag correlation destroyed");
    }

    #[test]
    fn internal_preserves_block_sums() {
        let t = ramp(100);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(4);
        let s = internal_shuffle(&t, 10, &mut rng);
        for (a, b) in t.rates().chunks(10).zip(s.rates().chunks(10)) {
            let sa: f64 = a.iter().sum();
            let sb: f64 = b.iter().sum();
            assert!((sa - sb).abs() < 1e-9, "block sum changed");
        }
    }

    #[test]
    fn seconds_variant_rounds_to_samples() {
        let t = ramp(100);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(5);
        // 0.095 s at dt = 0.01 -> 10-sample blocks.
        let s = external_shuffle_seconds(&t, 0.095, &mut rng);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn block_longer_than_trace_is_identity() {
        let t = ramp(50);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(6);
        let s = external_shuffle(&t, 1000, &mut rng);
        assert_eq!(s.rates(), t.rates());
    }
}
