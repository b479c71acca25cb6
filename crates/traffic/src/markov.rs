//! Multi-time-scale Markovian interval model: hyperexponential
//! interarrivals fitted to the truncated-Pareto correlation.
//!
//! Sec. IV of the paper argues that, because only correlation up to
//! the correlation horizon matters, "Markov models could have been
//! another possible choice since they can capture correlations up to a
//! given value CH", noting that "a power law decay can be approximated
//! arbitrarily closely by enough exponential decay functions" (its
//! ref. \[24\]) and that multi-state models with one state per time
//! scale tame the parameter explosion (ref. \[30\], Robert &
//! Le Boudec).
//!
//! [`HyperExponential`] is exactly that model: a probabilistic mixture
//! of exponentials, one per time scale. Because the modulated fluid
//! construction only sees the interval distribution through the
//! [`Interarrival`] trait, the *same* loss solver runs on it
//! unchanged — the paper's "the numerical procedure developed in
//! Section II can be used independent of the particular model".
//!
//! [`fit_to_pareto`] builds the mixture on a geometric ladder of time
//! scales and matches the truncated-Pareto interval *ccdf* on a log
//! grid by non-negative least squares (projected Landweber
//! iterations), which in turn matches the fluid autocovariance (the
//! residual-life transform of the ccdf, Eq. 5) over the fitted range.

use crate::interarrival::Interarrival;
use crate::pareto::TruncatedPareto;
use lrd_rng::Rng;

/// A mixture of exponential interval lengths: with probability `w_i`
/// the interval is `Exp(rate_i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperExponential {
    /// Mixture weights, summing to one.
    weights: Vec<f64>,
    /// Exponential rates (1/mean) per branch, ascending time scale.
    rates: Vec<f64>,
}

impl HyperExponential {
    /// Creates a mixture from `(weight, mean)` pairs.
    ///
    /// Weights are renormalized; zero-weight branches are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no branch has positive weight, or any mean is not
    /// positive and finite.
    pub fn new(branches: &[(f64, f64)]) -> Self {
        assert!(!branches.is_empty(), "need at least one branch");
        let mut weights = Vec::new();
        let mut rates = Vec::new();
        for &(w, mean) in branches {
            assert!(w >= 0.0 && w.is_finite(), "weight must be non-negative");
            assert!(
                mean > 0.0 && mean.is_finite(),
                "branch mean must be positive and finite"
            );
            if w > 0.0 {
                weights.push(w);
                rates.push(1.0 / mean);
            }
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "total weight must be positive");
        for w in &mut weights {
            *w /= total;
        }
        HyperExponential { weights, rates }
    }

    /// Number of exponential branches (Markov states).
    pub fn branches(&self) -> usize {
        self.weights.len()
    }

    /// The `(weight, mean)` pairs of the mixture.
    pub fn components(&self) -> Vec<(f64, f64)> {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(&w, &r)| (w, 1.0 / r))
            .collect()
    }
}

impl Interarrival for HyperExponential {
    fn ccdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 1.0;
        }
        let v: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(&w, &r)| w * (-r * t).exp())
            .sum();
        // Guard against the summed weights exceeding 1 by an ulp.
        v.min(1.0)
    }

    fn prob_ge(&self, t: f64) -> f64 {
        self.ccdf(t)
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(&w, &r)| w / r)
            .sum()
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        let m2: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(&w, &r)| 2.0 * w / (r * r))
            .sum();
        (m2 - m * m).max(0.0)
    }

    fn int_ccdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return -t + self.int_ccdf(0.0);
        }
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(&w, &r)| w / r * (-r * t).exp())
            .sum()
    }

    fn sup(&self) -> f64 {
        f64::INFINITY
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut idx = self.weights.len() - 1;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                idx = i;
                break;
            }
        }
        let v: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -v.ln() / self.rates[idx]
    }
}

/// Fits a hyperexponential to a truncated Pareto so the interval ccdfs
/// (and hence the fluid autocovariances, via Eq. 5) agree up to
/// `horizon` seconds.
///
/// `states` exponential branches are placed on a geometric ladder of
/// time scales spanning `[θ/2, horizon]` — the "one state per time
/// scale" construction of the paper's ref. \[30\]. Weights are obtained
/// by minimizing the squared ccdf error on a logarithmic grid under
/// non-negativity (projected gradient iterations), then the mixture is
/// rescaled so its mean matches the Pareto's exactly.
///
/// # Panics
///
/// Panics if `states < 2` or `horizon` is not positive and finite.
pub fn fit_to_pareto(pareto: &TruncatedPareto, horizon: f64, states: usize) -> HyperExponential {
    assert!(states >= 2, "need at least two states");
    assert!(
        horizon > 0.0 && horizon.is_finite(),
        "horizon must be positive and finite"
    );
    // Time-scale ladder: geometric from θ/2 to the horizon.
    let lo = pareto.theta() / 2.0;
    let hi = horizon.max(lo * 4.0);
    let means: Vec<f64> = (0..states)
        .map(|i| lo * (hi / lo).powf(i as f64 / (states - 1) as f64))
        .collect();

    // Fit grid: logarithmic in t over [lo/4, horizon].
    let grid_n = 24 * states;
    let t0 = lo / 4.0;
    let grid: Vec<f64> = (0..grid_n)
        .map(|i| t0 * (hi / t0).powf(i as f64 / (grid_n - 1) as f64))
        .collect();
    let target: Vec<f64> = grid.iter().map(|&t| pareto.ccdf(t)).collect();

    // Design matrix A[t][j] = exp(-t/means[j]).
    let a: Vec<Vec<f64>> = grid
        .iter()
        .map(|&t| means.iter().map(|&m| (-t / m).exp()).collect())
        .collect();

    // Non-negative least squares by Lee–Seung multiplicative updates:
    // w_j <- w_j · (Aᵀy)_j / (AᵀAw)_j. Non-negativity is preserved by
    // construction and the squared error is non-increasing; the final
    // weights are normalized so the mixture ccdf is 1 at the origin.
    let at_y: Vec<f64> = (0..states)
        .map(|j| a.iter().zip(&target).map(|(row, &y)| row[j] * y).sum())
        .collect();
    let mut w = vec![1.0 / states as f64; states];
    for _ in 0..5000 {
        // AᵀA w via two passes (A is tall and thin).
        let aw: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&w).map(|(&x, &wi)| x * wi).sum())
            .collect();
        let mut moved = 0.0f64;
        for j in 0..states {
            let denom: f64 = a.iter().zip(&aw).map(|(row, &v)| row[j] * v).sum();
            if denom > 0.0 {
                let next = w[j] * at_y[j] / denom;
                moved = moved.max((next - w[j]).abs());
                w[j] = next;
            }
        }
        if moved < 1e-12 {
            break;
        }
    }
    let total: f64 = w.iter().sum();
    assert!(total > 0.0, "fit collapsed to the zero mixture");
    for wi in &mut w {
        *wi /= total;
    }

    let mut mix = HyperExponential::new(
        &w.iter()
            .zip(&means)
            .map(|(&wi, &m)| (wi, m))
            .collect::<Vec<_>>(),
    );
    // Exact mean match: scale every branch mean by the mean ratio
    // (scaling time scales uniformly preserves the fitted shape to
    // first order).
    let ratio = pareto.mean() / mix.mean();
    mix = HyperExponential::new(
        &mix.components()
            .into_iter()
            .map(|(wi, m)| (wi, m * ratio))
            .collect::<Vec<_>>(),
    );
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interarrival::check_distribution_invariants;
    use lrd_rng::SeedableRng;

    fn mix() -> HyperExponential {
        HyperExponential::new(&[(0.6, 0.05), (0.3, 0.5), (0.1, 5.0)])
    }

    #[test]
    fn invariants_hold() {
        check_distribution_invariants(&mix(), &[0.0, 0.01, 0.1, 1.0, 10.0, 100.0]);
    }

    #[test]
    fn mean_and_variance() {
        let m = mix();
        let want_mean = 0.6 * 0.05 + 0.3 * 0.5 + 0.1 * 5.0;
        assert!((m.mean() - want_mean).abs() < 1e-12);
        // Mixtures of exponentials are hyper-dispersed: CoV >= 1.
        assert!(m.variance() >= m.mean() * m.mean());
    }

    #[test]
    fn single_branch_is_exponential() {
        let h = HyperExponential::new(&[(1.0, 0.25)]);
        let e = crate::pareto::Exponential::new(0.25);
        for &t in &[0.0, 0.1, 0.5, 2.0] {
            assert!((h.ccdf(t) - e.ccdf(t)).abs() < 1e-12);
            assert!((h.int_ccdf(t) - e.int_ccdf(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let m = mix();
        let mut rng = lrd_rng::rngs::SmallRng::seed_from_u64(5);
        let n = 300_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut rng)).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        assert!((emp_mean - m.mean()).abs() / m.mean() < 0.03);
        for &t in &[0.05, 0.5, 2.0] {
            let emp = samples.iter().filter(|&&s| s > t).count() as f64 / n as f64;
            assert!(
                (emp - m.ccdf(t)).abs() < 0.01,
                "ccdf mismatch at {t}: {emp} vs {}",
                m.ccdf(t)
            );
        }
    }

    #[test]
    fn fit_matches_pareto_ccdf_below_horizon() {
        let pareto = TruncatedPareto::new(0.02, 1.4, f64::INFINITY);
        let horizon = 2.0;
        let mix = fit_to_pareto(&pareto, horizon, 8);
        // Mean matched exactly.
        assert!((mix.mean() - pareto.mean()).abs() / pareto.mean() < 1e-9);
        // ccdf matched within a few percent (absolute) across the
        // fitted range.
        for i in 0..30 {
            let t = 0.01 * (horizon / 0.01f64).powf(i as f64 / 29.0);
            let err = (mix.ccdf(t) - pareto.ccdf(t)).abs();
            assert!(
                err < 0.05,
                "ccdf error {err:.3} at t={t:.3}: {} vs {}",
                mix.ccdf(t),
                pareto.ccdf(t)
            );
        }
    }

    #[test]
    fn more_states_fit_better() {
        let pareto = TruncatedPareto::new(0.02, 1.4, f64::INFINITY);
        let horizon = 2.0;
        let err_of = |states: usize| {
            let mix = fit_to_pareto(&pareto, horizon, states);
            let mut acc: f64 = 0.0;
            for i in 0..50 {
                let t = 0.005 * (horizon / 0.005f64).powf(i as f64 / 49.0);
                acc += (mix.ccdf(t) - pareto.ccdf(t)).powi(2);
            }
            acc
        };
        let coarse = err_of(3);
        let fine = err_of(10);
        assert!(
            fine < coarse,
            "10-state fit ({fine:.2e}) should beat 3-state fit ({coarse:.2e})"
        );
    }

    #[test]
    #[should_panic(expected = "at least two states")]
    fn fit_needs_states() {
        fit_to_pareto(&TruncatedPareto::new(0.02, 1.4, 1.0), 1.0, 1);
    }
}
