//! The M/G/∞ input model: Poisson session arrivals with heavy-tailed
//! durations.
//!
//! The third classical LRD traffic generator referenced by the paper
//! (Parulekar & Makowski, its ref. \[28\]): sessions arrive as a Poisson
//! process of rate `ν`, each transmits at a unit rate for a
//! Pareto-distributed holding time, and the instantaneous traffic rate
//! is the number of busy servers of an M/G/∞ queue. With holding-time
//! tail index `1 < α < 2` the busy-server process is long-range
//! dependent with `H = (3 − α)/2` — the same tail-to-Hurst law as the
//! on/off superposition, reached through a different physical story
//! (many short flows instead of few heavy ones).

use crate::trace::Trace;
use lrd_rng::Rng;

/// An M/G/∞ traffic source: Poisson session arrivals, Pareto holding
/// times, unit rate per active session.
#[derive(Debug, Clone, Copy)]
pub struct MGInfSource {
    /// Session arrival rate ν (sessions/second).
    pub arrival_rate: f64,
    /// Pareto shape of the holding-time distribution (`> 1` so the
    /// mean exists; `< 2` for LRD).
    pub duration_alpha: f64,
    /// Minimum holding time (Pareto scale), seconds.
    pub duration_min: f64,
    /// Rate contributed by one active session (Mb/s).
    pub rate_per_session: f64,
}

impl MGInfSource {
    /// Creates a source, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `duration_alpha <= 1`.
    pub fn new(arrival_rate: f64, duration_alpha: f64, duration_min: f64, rate_per_session: f64) -> Self {
        assert!(arrival_rate > 0.0, "arrival rate must be positive");
        assert!(duration_alpha > 1.0, "duration shape must exceed 1");
        assert!(duration_min > 0.0, "duration scale must be positive");
        assert!(rate_per_session > 0.0, "per-session rate must be positive");
        MGInfSource {
            arrival_rate,
            duration_alpha,
            duration_min,
            rate_per_session,
        }
    }

    /// Mean holding time `α·m/(α − 1)`.
    pub fn mean_duration(&self) -> f64 {
        self.duration_alpha * self.duration_min / (self.duration_alpha - 1.0)
    }

    /// Mean number of concurrently active sessions (Little's law:
    /// `ν · E[D]`).
    pub fn mean_active(&self) -> f64 {
        self.arrival_rate * self.mean_duration()
    }

    /// Long-run mean traffic rate.
    pub fn mean_rate(&self) -> f64 {
        self.mean_active() * self.rate_per_session
    }

    /// Hurst parameter of the busy-server process for `α < 2`
    /// (`H = (3 − α)/2`), or `0.5` for light-tailed durations.
    pub fn hurst(&self) -> f64 {
        if self.duration_alpha >= 2.0 {
            0.5
        } else {
            (3.0 - self.duration_alpha) / 2.0
        }
    }

    fn sample_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.duration_min * u.powf(-1.0 / self.duration_alpha)
    }

    /// Generates a binned [`Trace`] of `samples` bins at interval `dt`.
    ///
    /// The process is warmed up by pre-seeding the stationary number
    /// of sessions active at time zero with their *residual* (length-
    /// biased) durations, so the output is stationary from the first
    /// bin — without this, the busy-server count would ramp up from
    /// zero over the (heavy-tailed, slowly converging) warm-up period.
    pub fn sample_trace<R: Rng + ?Sized>(&self, rng: &mut R, dt: f64, samples: usize) -> Trace {
        assert!(dt > 0.0 && samples > 0);
        let _span = lrd_obs::span!("traffic.mginf", samples = samples, hurst = self.hurst());
        let total = dt * samples as f64;
        let mut bins = vec![0.0f64; samples];

        let add_session = |start: f64, dur: f64, bins: &mut [f64]| {
            let end = (start + dur).min(total);
            if end <= 0.0 || start >= total {
                return;
            }
            let s = start.max(0.0);
            let first = (s / dt) as usize;
            let last = ((end / dt).ceil() as usize).min(samples);
            #[allow(clippy::needless_range_loop)]
            for bin in first..last {
                let lo = bin as f64 * dt;
                let hi = lo + dt;
                let overlap = (end.min(hi) - s.max(lo)).max(0.0);
                if overlap > 0.0 {
                    bins[bin] += self.rate_per_session * overlap / dt;
                }
            }
        };

        // Stationary initial sessions: Poisson(mean_active) many, each
        // with a residual life drawn from the equilibrium distribution
        // of the Pareto. For Pareto(α, m) the equilibrium ccdf is
        // integrable in closed form; sampling via the inverse of
        // F_e(t) = 1 − (m/(m ∨ t))^{α−1} · correction is subtle, so use
        // the standard construction instead: a length-biased duration
        // D* (density ∝ t·f(t), sampled as m·U^{-1/(α−1)}) with a
        // uniform age — the elapsed fraction is uniform on [0, D*].
        let n0 = poisson(rng, self.mean_active());
        for _ in 0..n0 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let biased = self.duration_min * u.powf(-1.0 / (self.duration_alpha - 1.0));
            let age: f64 = rng.gen_range(0.0..1.0) * biased;
            add_session(-age, biased, &mut bins);
        }

        // Fresh Poisson arrivals over (0, total].
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / self.arrival_rate;
            if t >= total {
                break;
            }
            let dur = self.sample_duration(rng);
            add_session(t, dur, &mut bins);
        }
        Trace::new(dt, bins)
    }
}

/// Draws a Poisson variate by inversion (adequate for the moderate
/// means used here).
fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    assert!(mean >= 0.0 && mean.is_finite());
    // For large means use the normal approximation to avoid long loops.
    if mean > 500.0 {
        let z = crate::fgn::standard_normal(rng);
        return (mean + mean.sqrt() * z).round().max(0.0) as usize;
    }
    let limit = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_rng::SeedableRng;

    fn src() -> MGInfSource {
        MGInfSource::new(20.0, 1.5, 0.1, 1.0)
    }

    #[test]
    fn littles_law() {
        let s = src();
        assert!((s.mean_duration() - 0.3).abs() < 1e-12);
        assert!((s.mean_active() - 6.0).abs() < 1e-12);
        assert!((s.mean_rate() - 6.0).abs() < 1e-12);
        assert!((s.hurst() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn trace_mean_matches_littles_law() {
        let s = src();
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(81);
        let t = s.sample_trace(&mut rng, 0.1, 40_000);
        assert!(
            (t.mean_rate() - s.mean_rate()).abs() / s.mean_rate() < 0.1,
            "trace mean {} vs {}",
            t.mean_rate(),
            s.mean_rate()
        );
    }

    #[test]
    fn stationary_from_the_start() {
        // Without equilibrium seeding the first bins would be near
        // zero; with it, the first 5% of the trace has (roughly) the
        // same mean as the rest.
        let s = src();
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(82);
        let t = s.sample_trace(&mut rng, 0.1, 20_000);
        let head = lrd_stats::mean(&t.rates()[..1000]);
        let tail = lrd_stats::mean(&t.rates()[1000..]);
        assert!(
            (head - tail).abs() < 0.35 * tail,
            "warm-up visible: head {head:.2} vs tail {tail:.2}"
        );
    }

    #[test]
    fn heavy_tails_give_lrd() {
        let s = MGInfSource::new(30.0, 1.4, 0.1, 1.0);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(83);
        let t = s.sample_trace(&mut rng, 0.1, 1 << 15);
        let est = lrd_stats::variance_time_estimate(t.rates());
        assert!(
            est.h > 0.65,
            "M/G/∞ with α = 1.4 should read as LRD, got H = {}",
            est.h
        );
    }

    #[test]
    fn light_tails_do_not() {
        // α close to 2 and modest horizon: much weaker dependence.
        let heavy = MGInfSource::new(30.0, 1.2, 0.1, 1.0);
        let light = MGInfSource::new(30.0, 1.95, 0.1, 1.0);
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(84);
        let th = heavy.sample_trace(&mut rng, 0.1, 1 << 15);
        let tl = light.sample_trace(&mut rng, 0.1, 1 << 15);
        let hh = lrd_stats::variance_time_estimate(th.rates()).h;
        let hl = lrd_stats::variance_time_estimate(tl.rates()).h;
        assert!(hh > hl, "heavier tails must read more LRD: {hh} vs {hl}");
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(85);
        for &mean in &[0.5f64, 5.0, 50.0, 800.0] {
            let n = 20_000;
            let s: usize = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let emp = s as f64 / n as f64;
            assert!(
                (emp - mean).abs() < 0.05 * mean.max(1.0),
                "poisson mean {emp} vs {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duration shape must exceed 1")]
    fn invalid_alpha() {
        MGInfSource::new(1.0, 1.0, 0.1, 1.0);
    }
}
