//! Sliding-window statistics for live traffic: a fixed-capacity ring
//! of recent rate samples and streaming Hurst estimates over it.
//!
//! The online loss-bound service (`lrd-serve`) watches each flow
//! through these types: the window supplies the recent marginal, and
//! the streaming estimator keeps a Hurst estimate that is refreshed at
//! a configurable cadence rather than on every sample, so the staleness
//! of the cached estimate is bounded by construction (the property the
//! daemon's bounded-staleness contract leans on).
//!
//! A refresh copies the window into a reused scratch buffer and runs
//! the batch [`try_rs_estimate_with_sizes`] and
//! [`try_variance_time_estimate_with_sizes`] over it, at dyadic block
//! sizes (`8..=W/4` for R/S, `1..=W/8` for variance–time): streaming is
//! batch on a window copy, so the two agree bit for bit by
//! construction.
//!
//! # Failure policy
//!
//! A refresh can fail with a typed [`EstimatorError`] — a constant
//! window, or the nastier "overall variance positive but every block
//! constant" window. [`StreamingHurst::push`] never panics on these:
//! it keeps the previous cached estimate (staleness clock still
//! running) and retries no sooner than one cadence later, which is what
//! lets a long-running daemon survive a pathological flow.

use crate::error::EstimatorError;
use crate::hurst::{
    dyadic_sizes, pooled, try_rs_estimate_with_sizes, try_variance_time_estimate_with_sizes,
    HurstEstimate,
};

/// Fixed-capacity ring buffer over the most recent `capacity` samples.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    /// Index the *next* push writes to.
    head: usize,
    len: usize,
}

impl SlidingWindow {
    /// An empty window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Appends a sample, evicting the oldest once full.
    pub fn push(&mut self, v: f64) {
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window has wrapped at least once.
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// The held sample at logical position `i` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "window index {i} out of range {}", self.len);
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        self.buf[(start + i) % cap]
    }

    /// The held samples, oldest first.
    pub fn snapshot(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Mean of the held samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.iter().sum::<f64>() / self.len as f64
    }

    /// Iterates the held samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let cap = self.buf.len();
        let (wrapped, oldest) = self.buf.split_at((self.head + cap - self.len) % cap);
        oldest.iter().chain(wrapped).take(self.len).copied()
    }
}

/// Both window Hurst estimates from one refresh.
#[derive(Debug, Clone)]
pub struct HurstPair {
    /// Rescaled-range (R/S) estimate of the window.
    pub rs: HurstEstimate,
    /// Variance–time estimate of the window.
    pub vt: HurstEstimate,
}

impl HurstPair {
    /// The two clamped point estimates averaged — the robust summary
    /// a consumer that wants one number should read.
    pub fn pooled(&self) -> f64 {
        pooled([&self.rs, &self.vt]).expect("a pair holds two estimates")
    }
}

/// Minimum window the estimators accept.
pub const MIN_HURST_WINDOW: usize = 64;

/// A sliding-window Hurst estimator with bounded estimate staleness.
///
/// Samples stream in through [`push`](Self::push); once the window has
/// filled, the R/S and variance–time estimates are recomputed at most
/// every `refresh_every` pushes and served from cache in between. The
/// invariant tests pin: after any push sequence,
/// [`staleness`](Self::staleness) < `refresh_every` whenever an
/// estimate exists. A refreshed estimate *is* the batch dyadic-size
/// estimators applied to a copy of the window.
#[derive(Debug, Clone)]
pub struct StreamingHurst {
    window: SlidingWindow,
    refresh_every: usize,
    /// Pushes since the cached estimate was computed.
    since: usize,
    cached: Option<HurstPair>,
    /// Total pushes ever absorbed.
    total: u64,
    /// Don't attempt another refresh before this push count — bounds
    /// the cost of repeated estimator failures on pathological streams.
    skip_until: u64,
    rs_sizes: Vec<usize>,
    vt_sizes: Vec<usize>,
    /// The window copy a refresh estimates from.
    scratch: Vec<f64>,
}

impl StreamingHurst {
    /// A streaming estimator over the last `window` samples,
    /// refreshing at most every `refresh_every` pushes.
    ///
    /// # Panics
    ///
    /// Panics if `window < `[`MIN_HURST_WINDOW`] or `refresh_every`
    /// is zero.
    pub fn new(window: usize, refresh_every: usize) -> Self {
        assert!(
            window >= MIN_HURST_WINDOW,
            "Hurst window must hold at least {MIN_HURST_WINDOW} samples"
        );
        assert!(refresh_every > 0, "refresh cadence must be positive");
        Self {
            window: SlidingWindow::new(window),
            refresh_every,
            since: 0,
            cached: None,
            total: 0,
            skip_until: 0,
            rs_sizes: dyadic_sizes(8, window / 4),
            vt_sizes: dyadic_sizes(1, window / 8),
            scratch: Vec::with_capacity(window),
        }
    }

    /// Feeds one sample and refreshes the cached estimate if due.
    ///
    /// Never panics: estimator failures on degenerate windows keep the
    /// previous cached estimate (its staleness clock still running) and
    /// back off one cadence before retrying.
    pub fn push(&mut self, v: f64) {
        self.window.push(v);
        self.total += 1;
        self.since += 1;
        let due = self.cached.is_none() || self.since >= self.refresh_every;
        if self.window.is_full() && due && self.total >= self.skip_until {
            match self.try_refresh() {
                Ok(pair) => {
                    self.cached = Some(pair);
                    self.since = 0;
                }
                Err(_) => {
                    self.skip_until = self.total + self.refresh_every as u64;
                }
            }
        }
    }

    /// Recomputes both estimates over a copy of the (full) window.
    fn try_refresh(&mut self) -> Result<HurstPair, EstimatorError> {
        self.scratch.clear();
        self.scratch.extend(self.window.iter());
        Ok(HurstPair {
            rs: try_rs_estimate_with_sizes(&self.scratch, &self.rs_sizes)?,
            vt: try_variance_time_estimate_with_sizes(&self.scratch, &self.vt_sizes)?,
        })
    }

    /// The most recent estimate pair; `None` until the window first
    /// fills with non-degenerate data.
    pub fn current(&self) -> Option<&HurstPair> {
        self.cached.as_ref()
    }

    /// Pushes absorbed since the cached estimate was computed.
    pub fn staleness(&self) -> usize {
        self.since
    }

    /// The configured refresh cadence — the staleness bound.
    pub fn refresh_every(&self) -> usize {
        self.refresh_every
    }

    /// The underlying sample window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hurst::{try_rs_estimate_with_sizes, try_variance_time_estimate_with_sizes};

    #[test]
    fn window_evicts_oldest_first() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        for v in [1.0, 2.0] {
            w.push(v);
        }
        assert_eq!(w.snapshot(), vec![1.0, 2.0]);
        assert!(!w.is_full());
        for v in [3.0, 4.0, 5.0] {
            w.push(v);
        }
        assert!(w.is_full());
        assert_eq!(w.snapshot(), vec![3.0, 4.0, 5.0]);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![3.0, 4.0, 5.0]);
        assert_eq!(w.get(0), 3.0);
        assert_eq!(w.get(2), 5.0);
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    /// The batch reference the streaming backend is pinned to.
    fn batch_pair(window: &[f64]) -> HurstPair {
        let w = window.len();
        HurstPair {
            rs: try_rs_estimate_with_sizes(window, &dyadic_sizes(8, w / 4)).unwrap(),
            vt: try_variance_time_estimate_with_sizes(window, &dyadic_sizes(1, w / 8)).unwrap(),
        }
    }

    #[test]
    fn streaming_equals_batch_on_the_same_window() {
        // Deterministic non-constant series: the streaming estimate
        // after the window fills must equal the batch dyadic-size
        // estimate of the identical snapshot bit for bit.
        let mut s = StreamingHurst::new(128, 1_000_000);
        let series: Vec<f64> = (0..128).map(|i| ((i * 37 + 11) % 97) as f64).collect();
        for &v in &series {
            s.push(v);
        }
        let pair = s.current().expect("full window yields an estimate");
        let want = batch_pair(&series);
        assert_eq!(pair.rs.h.to_bits(), want.rs.h.to_bits());
        assert_eq!(pair.vt.h.to_bits(), want.vt.h.to_bits());
    }

    #[test]
    fn aligned_and_unaligned_cadences_both_match_batch() {
        // Cadence 32 divides every dyadic block size, 24 only the
        // small ones and 17 none: whatever the phase of the window
        // against the block grid, every refresh must reproduce the
        // batch estimate of the trailing window.
        let series: Vec<f64> = (0..2048).map(|i| ((i * 193 + 71) % 509) as f64).collect();
        for cadence in [32usize, 24, 17] {
            let mut s = StreamingHurst::new(128, cadence);
            let mut last_seen = 0;
            for (i, &v) in series.iter().enumerate() {
                s.push(v);
                if s.staleness() == 0 && i + 1 >= 128 {
                    last_seen = i + 1;
                    let tail = &series[i + 1 - 128..=i];
                    let want = batch_pair(tail);
                    let got = s.current().unwrap();
                    assert_eq!(
                        got.rs.h.to_bits(),
                        want.rs.h.to_bits(),
                        "R/S split at push {} cadence {cadence}",
                        i + 1
                    );
                    assert_eq!(
                        got.vt.h.to_bits(),
                        want.vt.h.to_bits(),
                        "VT split at push {} cadence {cadence}",
                        i + 1
                    );
                }
            }
            assert!(last_seen > 1024, "refreshes kept happening");
        }
    }

    #[test]
    fn staleness_stays_below_the_cadence() {
        let mut s = StreamingHurst::new(64, 7);
        for i in 0..1000 {
            s.push(((i * 13 + 5) % 31) as f64);
            if s.current().is_some() {
                assert!(
                    s.staleness() < s.refresh_every(),
                    "staleness {} at push {i} breached cadence {}",
                    s.staleness(),
                    s.refresh_every()
                );
            }
        }
    }

    #[test]
    fn constant_stream_never_panics_and_yields_nothing() {
        for v in [2.5, 0.1, 12.7] {
            let mut s = StreamingHurst::new(64, 4);
            for _ in 0..300 {
                s.push(v);
            }
            assert!(
                s.current().is_none(),
                "constant stream at {v} yielded an estimate"
            );
            // Variability arriving later unlocks the estimate.
            for i in 0..64 {
                s.push((i % 9) as f64);
            }
            assert!(s.current().is_some());
        }
    }

    #[test]
    fn every_block_constant_window_degrades_instead_of_panicking() {
        // Two constant half-windows: overall variance is positive but
        // every dyadic R/S block is constant, so the R/S regression has
        // zero points. The legacy backend panicked here; the estimator
        // must stay up with no estimate, then recover.
        let mut s = StreamingHurst::new(64, 4);
        for i in 0..64 {
            s.push(if i < 32 { 1.0 } else { 2.0 });
        }
        assert!(s.current().is_none(), "degenerate window produced an estimate");
        for i in 0..64 {
            s.push(((i * 13 + 5) % 31) as f64);
        }
        assert!(s.current().is_some(), "estimator did not recover");
    }

    #[test]
    fn failures_keep_the_stale_estimate_and_its_clock_running() {
        let mut s = StreamingHurst::new(64, 8);
        for i in 0..64 {
            s.push(((i * 13 + 5) % 31) as f64);
        }
        assert!(s.current().is_some());
        // Flood with a constant: once the window is fully constant,
        // every refresh attempt fails, the last good estimate survives,
        // and staleness keeps growing past the cadence (the daemon
        // reads this as "stale").
        for _ in 0..100 {
            s.push(2.5);
        }
        let frozen = s.current().expect("stale estimate retained").pooled();
        let stale = s.staleness();
        assert!(stale > s.refresh_every(), "staleness {stale} not past cadence");
        for _ in 0..50 {
            s.push(2.5);
        }
        assert_eq!(s.current().unwrap().pooled().to_bits(), frozen.to_bits());
        assert_eq!(s.staleness(), stale + 50);
    }
}
