//! Heavy-tailed on/off sources and their superposition.
//!
//! The paper's physical explanation for LRD in network traffic (via
//! Willinger et al., its refs. \[36\], \[7\]) is that "the superposition of
//! many on/off sources with heavy-tailed on- and off-periods results in
//! aggregate traffic with LRD". This module provides that generative
//! model: individual sources alternate between emitting at a peak rate
//! for a Pareto-distributed duration and staying silent for another
//! Pareto-distributed duration; aggregating many of them onto a binned
//! trace produces LRD traffic "from first principles", independent of
//! the fGn-based synthesizer.

use crate::trace::Trace;
use lrd_rng::Rng;

/// A single on/off source with Pareto-distributed sojourn times.
#[derive(Debug, Clone, Copy)]
pub struct OnOffSource {
    /// Emission rate while on (Mb/s).
    pub peak_rate: f64,
    /// Pareto shape of the on-period distribution (`1 < α < 2` gives
    /// infinite variance and hence LRD in the aggregate).
    pub on_alpha: f64,
    /// Minimum on-period duration (Pareto scale), seconds.
    pub on_min: f64,
    /// Pareto shape of the off-period distribution.
    pub off_alpha: f64,
    /// Minimum off-period duration (Pareto scale), seconds.
    pub off_min: f64,
}

impl OnOffSource {
    /// Creates a source, validating parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or a shape is `<= 1`
    /// (the sojourn mean must exist for stationarity).
    pub fn new(peak_rate: f64, on_alpha: f64, on_min: f64, off_alpha: f64, off_min: f64) -> Self {
        assert!(peak_rate > 0.0, "peak rate must be positive");
        assert!(on_alpha > 1.0 && off_alpha > 1.0, "shapes must exceed 1");
        assert!(on_min > 0.0 && off_min > 0.0, "scales must be positive");
        OnOffSource {
            peak_rate,
            on_alpha,
            on_min,
            off_alpha,
            off_min,
        }
    }

    /// Mean on-period `α·m/(α−1)`… for the classical Pareto on `[m, ∞)`
    /// with shape `α`: `E = α m / (α − 1)`.
    pub fn mean_on(&self) -> f64 {
        self.on_alpha * self.on_min / (self.on_alpha - 1.0)
    }

    /// Mean off-period.
    pub fn mean_off(&self) -> f64 {
        self.off_alpha * self.off_min / (self.off_alpha - 1.0)
    }

    /// Long-run mean rate: `peak · E[on] / (E[on] + E[off])`.
    pub fn mean_rate(&self) -> f64 {
        self.peak_rate * self.mean_on() / (self.mean_on() + self.mean_off())
    }

    /// The Hurst parameter of the aggregate of many such sources:
    /// `H = (3 − α_min)/2` with `α_min` the heavier (smaller) of the
    /// two sojourn shapes (Willinger et al.).
    pub fn aggregate_hurst(&self) -> f64 {
        let a = self.on_alpha.min(self.off_alpha);
        if a >= 2.0 {
            0.5
        } else {
            (3.0 - a) / 2.0
        }
    }

    fn sample_pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64, min: f64) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        min * u.powf(-1.0 / alpha)
    }

    /// Draws one sojourn duration for the given phase (`on = true` for
    /// an emission period).
    pub fn sample_sojourn<R: Rng + ?Sized>(&self, rng: &mut R, on: bool) -> f64 {
        if on {
            Self::sample_pareto(rng, self.on_alpha, self.on_min)
        } else {
            Self::sample_pareto(rng, self.off_alpha, self.off_min)
        }
    }

    /// Stationary probability of finding the source in an on-period.
    pub fn on_probability(&self) -> f64 {
        self.mean_on() / (self.mean_on() + self.mean_off())
    }

    /// Adds this source's contribution over `[0, dt·bins.len())` to a
    /// rate accumulator (used by [`aggregate_trace`]). The source
    /// starts in a uniformly random phase of a fresh sojourn.
    fn add_to<R: Rng + ?Sized>(&self, rng: &mut R, dt: f64, bins: &mut [f64]) {
        let total = dt * bins.len() as f64;
        let mut t = 0.0;
        let mut on = rng.gen_bool(self.on_probability());
        while t < total {
            let dur = if on {
                Self::sample_pareto(rng, self.on_alpha, self.on_min)
            } else {
                Self::sample_pareto(rng, self.off_alpha, self.off_min)
            };
            let end = (t + dur).min(total);
            if on {
                spread_rate(self.peak_rate, t, end, dt, bins);
            }
            t = end;
            on = !on;
        }
    }
}

/// Adds `rate` over the time window `[start, end)` to the bin
/// accumulator, splitting the contribution by overlap. Iterates bins by
/// integer index, which (unlike stepping a float cursor to computed bin
/// boundaries) is immune to rounding-induced non-progress.
fn spread_rate(rate: f64, start: f64, end: f64, dt: f64, bins: &mut [f64]) {
    if end <= start {
        return;
    }
    let first = (start / dt) as usize;
    let last = ((end / dt).ceil() as usize).min(bins.len());
    // Index loop is deliberate: the bin index also determines the
    // overlap geometry, not just the slot to write.
    #[allow(clippy::needless_range_loop)]
    for bin in first..last {
        let lo = bin as f64 * dt;
        let hi = lo + dt;
        let overlap = (end.min(hi) - start.max(lo)).max(0.0);
        if overlap > 0.0 {
            bins[bin] += rate * overlap / dt;
        }
    }
}

/// Aggregates `n` i.i.d. copies of `source` into a binned [`Trace`] of
/// `samples` bins at interval `dt`.
pub fn aggregate_trace<R: Rng + ?Sized>(
    source: &OnOffSource,
    n: usize,
    dt: f64,
    samples: usize,
    rng: &mut R,
) -> Trace {
    assert!(n > 0 && samples > 0 && dt > 0.0);
    let mut bins = vec![0.0f64; samples];
    for _ in 0..n {
        source.add_to(rng, dt, &mut bins);
    }
    Trace::new(dt, bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_rng::SeedableRng;

    fn src() -> OnOffSource {
        OnOffSource::new(1.0, 1.4, 0.05, 1.4, 0.15)
    }

    #[test]
    fn sojourn_means() {
        let s = src();
        assert!((s.mean_on() - 1.4 * 0.05 / 0.4).abs() < 1e-12);
        assert!((s.mean_off() - 1.4 * 0.15 / 0.4).abs() < 1e-12);
        // mean rate = peak * on/(on+off) = 1 * 0.05/(0.05+0.15) = 0.25
        assert!((s.mean_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn aggregate_hurst_mapping() {
        assert!((src().aggregate_hurst() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn aggregate_mean_rate() {
        let s = src();
        let n = 20;
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(21);
        let t = aggregate_trace(&s, n, 0.1, 20_000, &mut rng);
        let want = n as f64 * s.mean_rate();
        let got = t.mean_rate();
        assert!(
            (got - want).abs() / want < 0.1,
            "aggregate mean {got} vs {want}"
        );
    }

    #[test]
    fn aggregate_is_long_range_dependent() {
        let s = src();
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(22);
        let t = aggregate_trace(&s, 50, 0.1, 1 << 15, &mut rng);
        let est = lrd_stats::variance_time_estimate(t.rates());
        assert!(
            est.h > 0.65,
            "expected LRD aggregate (H≈0.8), estimated {}",
            est.h
        );
    }

    #[test]
    fn rates_bounded_by_peak_sum() {
        let s = src();
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(23);
        let n = 5;
        let t = aggregate_trace(&s, n, 0.1, 1000, &mut rng);
        assert!(t
            .rates()
            .iter()
            .all(|&r| r >= 0.0 && r <= n as f64 * s.peak_rate + 1e-9));
    }

    #[test]
    #[should_panic(expected = "shapes must exceed 1")]
    fn invalid_shape() {
        OnOffSource::new(1.0, 0.9, 0.1, 1.5, 0.1);
    }
}
