//! Property tests for the incremental Hurst estimators: the one-pass
//! (grow-only) accumulators against the batch estimators at arbitrary
//! prefixes, and the sliding-window streaming estimators against the
//! batch estimators on the trailing window under randomized push
//! schedules, window sizes and eviction-heavy long streams.
//!
//! "Bit-equal" below means `f64::to_bits` equality — the incremental
//! paths drive the same per-scale accumulators as the batch estimators
//! (R/S, variance–time and wavelet alike), so they must reproduce the
//! batch arithmetic exactly.

use lrd::stats::{
    dyadic_sizes, try_rs_estimate_with_sizes, try_variance_time_estimate_with_sizes,
    try_wavelet_estimate, OnePassHurst, StreamingHurst,
};
use lrd::traffic::fgn;
use lrd_rng::{Rng, SeedableRng};
use lrd_stats::onepass::{onepass_rs_sizes, onepass_vt_sizes, MAX_ONEPASS_BLOCK};

fn fgn_series(h: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(seed);
    fgn::davies_harte(&mut rng, h, n)
}

#[test]
fn onepass_matches_batch_at_random_prefixes() {
    let series = fgn_series(0.8, 1 << 14, 9100);
    let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(9101);
    // Random prefix lengths, deliberately including odd / non-dyadic
    // ones: the contract holds at *every* prefix, not just round ones.
    let mut prefixes: Vec<usize> = (0..12)
        .map(|_| rng.gen_range(64..series.len()))
        .collect();
    prefixes.push(series.len());
    prefixes.push(96);
    prefixes.sort_unstable();

    let mut onepass = OnePassHurst::new();
    let mut fed = 0usize;
    for &n in &prefixes {
        for &v in &series[fed..n] {
            onepass.push(v);
        }
        fed = n;
        let prefix = &series[..n];
        let rs_sizes = onepass_rs_sizes(n, MAX_ONEPASS_BLOCK);
        match (
            onepass.rs_estimate(),
            try_rs_estimate_with_sizes(prefix, &rs_sizes),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.h.to_bits(),
                b.h.to_bits(),
                "one-pass R/S split from batch at prefix {n}"
            ),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("R/S estimability diverged at prefix {n}: {a:?} vs {b:?}"),
        }
        let vt_sizes = onepass_vt_sizes(n, MAX_ONEPASS_BLOCK);
        match (
            onepass.variance_time_estimate(),
            try_variance_time_estimate_with_sizes(prefix, &vt_sizes),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.h.to_bits(),
                b.h.to_bits(),
                "one-pass VT split from batch at prefix {n}"
            ),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("VT estimability diverged at prefix {n}: {a:?} vs {b:?}"),
        }
        match (onepass.wavelet_estimate(), try_wavelet_estimate(prefix)) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.h.to_bits(),
                b.h.to_bits(),
                "one-pass wavelet split from batch at prefix {n}"
            ),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("wavelet estimability diverged at prefix {n}: {a:?} vs {b:?}"),
        }
    }
}

/// The streaming estimate after any refresh must be bit-equal to the
/// batch estimators applied to a snapshot of the trailing window, over
/// the backend's dyadic sizes — whatever the window size and however
/// the pushes were batched.
fn assert_streaming_matches_batch(s: &StreamingHurst, window: usize, context: &str) {
    let Some(pair) = s.current() else {
        return;
    };
    let tail = s.window().snapshot();
    assert_eq!(tail.len(), window, "{context}: snapshot size");
    let rs = try_rs_estimate_with_sizes(&tail, &dyadic_sizes(8, window / 4))
        .unwrap_or_else(|e| panic!("{context}: batch R/S failed: {e}"));
    let vt = try_variance_time_estimate_with_sizes(&tail, &dyadic_sizes(1, window / 8))
        .unwrap_or_else(|e| panic!("{context}: batch VT failed: {e}"));
    assert_eq!(pair.rs.h.to_bits(), rs.h.to_bits(), "{context}: R/S split");
    assert_eq!(pair.vt.h.to_bits(), vt.h.to_bits(), "{context}: VT split");
}

#[test]
fn streaming_matches_batch_across_window_sizes_and_schedules() {
    // Window sizes include non-powers-of-two (96, 200, 1000); cadence
    // 1 so every push refreshes and any drift is caught immediately.
    for (i, &window) in [64usize, 96, 200, 256, 1000].iter().enumerate() {
        let series = fgn_series(0.75, 4 * window + 257, 9200 + i as u64);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(9300 + i as u64);
        let mut s = StreamingHurst::new(window, 1);
        let mut fed = 0usize;
        while fed < series.len() {
            // Random burst sizes emulate irregular tick deliveries.
            let take = rng.gen_range(1usize..64).min(series.len() - fed);
            for &v in &series[fed..fed + take] {
                s.push(v);
            }
            fed += take;
            assert_streaming_matches_batch(&s, window, &format!("window {window}, fed {fed}"));
        }
    }
}

#[test]
fn eviction_heavy_long_stream_stays_exact() {
    // A small window fed a long stream: ~50k evictions exercise the
    // wrap-around paths far past the first fill. Checks are sampled at
    // random refresh points (cadence 1) to keep the test fast.
    let window = 96;
    let series = fgn_series(0.85, 50_000 + window, 9400);
    let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(9401);
    let mut s = StreamingHurst::new(window, 1);
    let mut checks = 0usize;
    for (i, &v) in series.iter().enumerate() {
        s.push(v);
        if i > 10 * window && rng.gen_range(0usize..500) == 0 {
            assert_streaming_matches_batch(&s, window, &format!("sample {i}"));
            checks += 1;
        }
    }
    assert_streaming_matches_batch(&s, window, "end of stream");
    assert!(checks >= 50, "only {checks} sampled checks ran");
}
