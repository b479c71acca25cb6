//! The bounding iteration (paper Eq. 16–24 and Proposition II.1).
//!
//! [`BoundSolver`] holds the two discretized occupancy chains and
//! exposes single-step iteration (used to reproduce Fig. 2);
//! [`solve`] wraps it in the paper's full convergence protocol:
//! iterate until the loss-bound gap is below 20 % of the midpoint,
//! report zero when the upper bound drops below `1e-10`, and when the
//! bounds stall at a discretization-limited gap, double `M` and
//! warm-restart from the re-binned coarse solution (footnote 3).
//!
//! [`solve_warm`] extends footnote 3 *across lattice points*: a
//! converged solve exports a [`WarmState`] (the re-binnable bound
//! distributions plus the final bracket), and a neighbouring point can
//! consult it to certify zero loss in a handful of iterations instead
//! of running the cold protocol. The warm path is sound by
//! construction (a runtime stochastic-dominance check makes every
//! probe iterate a provable upper bound) and never changes solved
//! values: it only ever returns the exact same `(0.0, 0.0)` constant
//! the cold floor rule produces, and on any doubt it falls back to a
//! from-scratch cold solve.

use crate::error::{DegradationReason, SolverError};
use crate::history::GapHistory;
use crate::kernel::LossKernel;
use crate::model::QueueModel;
use crate::wdist::WorkDistribution;
use lrd_fft::Convolver;
use lrd_traffic::Interarrival;

/// Mass-conservation tolerance: drift beyond this (before the
/// per-step renormalization) is reported as
/// [`DegradationReason::MassLeak`].
pub const MASS_TOLERANCE: f64 = 1e-6;

/// Iteration cap on the warm zero-certification probe, across all its
/// grid levels. The probe drains the donor's re-binned tail mass at
/// the chain's physical mixing rate (typically 0.85–0.95 per step),
/// so dropping the two-to-three decades from the re-binning transient
/// to the zero floor takes some tens of steps, plus a level change or
/// two. Deliberately a constant rather than a [`SolverOptions`]
/// field: the probe never changes solved values (it either certifies
/// the cold protocol's exact zero constant or is discarded), so it
/// does not belong in the options that parameterize the answer — and
/// keeping it out of `SolverOptions` keeps every sweep plan hash, and
/// with it every existing checkpoint, stable.
const PROBE_ITERATIONS: usize = 192;

/// The probe refines to the next grid level when this many
/// consecutive dominated steps each shrank the upper bound by less
/// than [`PROBE_PLATEAU_RATIO`]: the remaining loss is discretization
/// error of the current grid, which iteration cannot remove.
const PROBE_PLATEAU_STEPS: usize = 3;

/// Per-step shrink ratio above which a probe step counts as slow (see
/// [`PROBE_PLATEAU_STEPS`]). Productive drain runs well below this;
/// a grid-limited orbit trends toward 1.
const PROBE_PLATEAU_RATIO: f64 = 0.97;

/// Round-off allowance for the probe's stochastic-dominance check:
/// the per-step clamp/renormalize perturbs the CDF by at most a few
/// ulps of accumulated mass, far below any real dominance violation.
const DOMINANCE_TOLERANCE: f64 = 1e-12;

/// The resumable session API ([`SolveSession`] and friends) — the
/// single implementation every entry point above drives. A child
/// module so the probe machinery can reach the solver internals.
#[path = "session.rs"]
pub mod session;

pub use session::{
    session_run_chunk, set_session_run_chunk, SessionBuilder, SessionPhase, SolveSession,
    DEFAULT_RUN_CHUNK,
};

/// Options controlling the convergence protocol. The defaults are the
/// paper's published settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Initial number of quantization bins `M` (the paper starts
    /// around 100).
    pub initial_bins: usize,
    /// Refinement ceiling: the solver gives up (returning the best
    /// available bounds, `converged = false`) rather than exceed this.
    pub max_bins: usize,
    /// Stop when `upper − lower <= rel_gap · (upper + lower)/2`
    /// (paper: 20 %).
    pub rel_gap: f64,
    /// Report zero loss when the upper bound falls below this floor
    /// (paper: 1e-10).
    pub zero_floor: f64,
    /// Hard cap on iterations at one grid level.
    pub max_iterations_per_level: usize,
    /// The bounds are declared stalled — triggering grid refinement —
    /// when the gap shrinks by less than this relative amount for
    /// [`SolverOptions::stall_window`] consecutive iterations.
    pub stall_tolerance: f64,
    /// Consecutive slow iterations before refining.
    pub stall_window: usize,
    /// Total-work budget in units of `iterations × bins` across all
    /// grid levels. One unit is roughly one convolution lattice point,
    /// so the default of `5e7` bounds a solve to a few seconds on one
    /// core. When exhausted the solver returns its best (still
    /// provable) bounds with `converged = false`.
    pub max_total_cost: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            initial_bins: 128,
            max_bins: 1 << 16,
            rel_gap: 0.2,
            zero_floor: 1e-10,
            max_iterations_per_level: 200_000,
            stall_tolerance: 1e-4,
            stall_window: 5,
            max_total_cost: 5e7,
        }
    }
}

impl SolverOptions {
    /// The convergence protocol shared by every figure sweep: the
    /// paper's settings with a lower refinement ceiling and a tighter
    /// per-point work cap. Sweeps contain many deep-loss points whose
    /// bounds converge slowly; capping per-point work keeps a full
    /// surface in the minutes range on one core, and capped points
    /// still return valid (just looser) bounds. The protocol is the
    /// same for quick and full profiles — only the lattice resolution
    /// changes with the profile, never the per-point solve.
    pub fn sweep_profile() -> SolverOptions {
        SolverOptions {
            initial_bins: 128,
            max_bins: 1 << 14,
            max_total_cost: 1e7,
            ..SolverOptions::default()
        }
    }
}

/// The solver's verdict: provable loss bounds plus diagnostics.
#[derive(Debug, Clone)]
pub struct LossSolution {
    /// Lower bound `l(Q_L^M(n))`.
    pub lower: f64,
    /// Upper bound `l(Q_H^M(n))`.
    pub upper: f64,
    /// Total iterations across all grid levels.
    pub iterations: usize,
    /// Final grid resolution `M`.
    pub bins: usize,
    /// Whether the gap criterion (or the zero floor) was met.
    pub converged: bool,
    /// Why the solution is weaker than requested, when it is: the
    /// machine-readable degradation reason, `None` for a clean solve.
    /// The bounds are valid (finite, ordered, provable for the grid
    /// reached) regardless.
    pub degradation: Option<DegradationReason>,
    /// The trailing `(iteration, lower, upper)` bound samples — the
    /// convergence endgame, capped at
    /// [`GAP_HISTORY_CAPACITY`](crate::history::GAP_HISTORY_CAPACITY)
    /// entries.
    pub gap_history: GapHistory,
    /// Every grid refinement as `(iteration, bins_after)`, in order.
    /// Empty when the initial grid sufficed.
    pub refinement_epochs: Vec<(usize, usize)>,
}

impl LossSolution {
    /// The midpoint estimate the paper reports (average of the
    /// bounds); exactly zero for below-floor solutions.
    pub fn loss(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Whether the solution was clamped to zero by the floor rule.
    pub fn is_zero(&self) -> bool {
        self.upper == 0.0
    }

    /// Whether the solver had to degrade (budget, grid ceiling, mass
    /// leak, or numerical breakdown) to produce this answer.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_some()
    }
}

/// A converged point's exportable state: the re-binnable occupancy
/// distributions of both bounding chains plus the final loss-bound
/// bracket. Produced by every [`solve_warm`] / [`try_solve_warm`]
/// call and consumable as the donor seed for a neighbouring lattice
/// point's solve.
///
/// The state is tied to the buffer size it was solved under (the grid
/// covers `[0, B]`); [`WarmState::rebin_upper`] transplants the
/// upper-chain distribution onto any other `(buffer, bins)` grid
/// conservatively, i.e. the re-binned distribution stochastically
/// dominates the original.
#[derive(Debug, Clone)]
pub struct WarmState {
    /// Buffer size `B` the distributions were solved under.
    buffer: f64,
    /// Grid resolution `M` of the exporting solve.
    bins: usize,
    /// Final upper-chain occupancy `Pr{Q_H = j·d}`, `j = 0..=M`.
    upper: Vec<f64>,
    /// Final lower-chain occupancy `Pr{Q_L = j·d}`.
    lower: Vec<f64>,
    /// Final loss-bound bracket `(lower, upper)`.
    bracket: (f64, f64),
    /// Whether the exporting solve certified zero loss (the floor
    /// rule). Only zero states are usable as probe donors.
    zero: bool,
}

impl WarmState {
    /// Whether the exporting solve certified zero loss.
    pub fn is_zero(&self) -> bool {
        self.zero
    }

    /// The exporting solve's final loss-bound bracket.
    pub fn bracket(&self) -> (f64, f64) {
        self.bracket
    }

    /// Grid resolution of the exporting solve.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The exported occupancy distribution of one bounding chain on
    /// the donor grid (`upper = true` for `Q_H`).
    pub fn occupancy(&self, upper: bool) -> &[f64] {
        if upper {
            &self.upper
        } else {
            &self.lower
        }
    }

    /// Conservatively re-bins the upper-chain occupancy onto a grid of
    /// `bins` bins over `[0, buffer]`: every donor atom moves to the
    /// smallest target grid point at or above its position, with
    /// out-of-range mass folded onto the top atom (a smaller buffer
    /// cannot hold more). Rounding *up* means the result
    /// stochastically dominates the donor distribution whenever
    /// `buffer` covers the donor's range; either way the re-binned
    /// seed is only a heuristic — the warm probe's runtime
    /// super-invariance check is what carries the soundness proof.
    pub fn rebin_upper(&self, buffer: f64, bins: usize) -> Vec<f64> {
        let d_new = buffer / bins as f64;
        let d_old = self.buffer / self.bins as f64;
        let mut out = vec![0.0; bins + 1];
        for (j, &p) in self.upper.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let x = j as f64 * d_old;
            let idx = ((x / d_new).ceil().max(0.0) as usize).min(bins);
            out[idx] += p;
        }
        out
    }
}

/// The pair of discretized bounding chains at a fixed grid resolution,
/// steppable one arrival at a time.
///
/// [`BoundSolver::step`] advances both chains on the calling thread
/// through one batched transform ([`Convolver::conv_pair`]); only
/// [`BoundSolver::refine`] forks onto the [`lrd_pool::current`] pool,
/// to rebuild the two chains' grids side by side. Each chain's
/// floating-point work is identical for every thread count, so the
/// bounds are bit-for-bit reproducible regardless of parallelism.
#[derive(Debug)]
pub struct BoundSolver<D> {
    model: QueueModel<D>,
    bins: usize,
    q_lower: Vec<f64>,
    q_upper: Vec<f64>,
    conv_lower: Convolver,
    conv_upper: Convolver,
    /// Per-chain next-distribution scratch, reused every step so the
    /// steady-state iteration performs no heap allocation.
    scratch_lower: Vec<f64>,
    scratch_upper: Vec<f64>,
    kernel: LossKernel,
    iterations: usize,
    worst_mass_drift: f64,
}

impl<D: Interarrival + Clone> BoundSolver<D> {
    /// Creates the solver at resolution `bins`, with the lower chain
    /// starting empty (`q_L = δ_0`) and the upper chain starting full
    /// (`q_H = δ_B`), per paper Eq. 17.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2`. Use [`BoundSolver::try_new`] for a
    /// fallible variant.
    pub fn new(model: QueueModel<D>, bins: usize) -> Self {
        BoundSolver::try_new(model, bins).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns a typed [`SolverError`] instead of
    /// panicking on a degenerate grid.
    pub fn try_new(model: QueueModel<D>, bins: usize) -> Result<Self, SolverError> {
        if bins < 2 {
            return Err(SolverError::InvalidOption {
                option: "bins",
                value: bins as f64,
                constraint: "must be at least 2 (the chains need at least two bins)",
            });
        }
        let wdist = WorkDistribution::build(&model, bins);
        let kernel = LossKernel::build(&model, bins);
        let mut q_lower = vec![0.0; bins + 1];
        q_lower[0] = 1.0;
        let mut q_upper = vec![0.0; bins + 1];
        q_upper[bins] = 1.0;
        let conv_lower = Convolver::new(wdist.lower(), bins + 1);
        let conv_upper = Convolver::new(wdist.upper(), bins + 1);
        Ok(BoundSolver {
            model,
            bins,
            q_lower,
            q_upper,
            conv_lower,
            conv_upper,
            scratch_lower: Vec::new(),
            scratch_upper: Vec::new(),
            kernel,
            iterations: 0,
            worst_mass_drift: 0.0,
        })
    }

    /// Grid resolution `M`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Grid step `d = B/M`.
    pub fn step_size(&self) -> f64 {
        self.model.buffer() / self.bins as f64
    }

    /// Iterations performed so far (at the current resolution plus any
    /// inherited from coarser levels).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The lower-bound occupancy distribution `Pr{Q_L = j·d}`,
    /// `j = 0..=M`.
    pub fn occupancy_lower(&self) -> &[f64] {
        &self.q_lower
    }

    /// The upper-bound occupancy distribution `Pr{Q_H = j·d}`.
    pub fn occupancy_upper(&self) -> &[f64] {
        &self.q_upper
    }

    /// Current loss bounds `(l(Q_L), l(Q_H))`.
    pub fn loss_bounds(&self) -> (f64, f64) {
        (
            self.kernel.loss_rate(&self.q_lower),
            self.kernel.loss_rate(&self.q_upper),
        )
    }

    /// Advances both chains by one arrival epoch: convolve with the
    /// respective work-increment discretization, then fold the
    /// out-of-range mass onto the boundary atoms at `0` and `B`
    /// (Eq. 19–20). Both chains' convolutions — same signal and kernel
    /// lengths every iteration — run through one batched transform
    /// ([`Convolver::conv_pair`]), so the per-step cost is a single
    /// full-length FFT pass instead of two independent half-size
    /// pipelines. The path depends only on the grid size, never on
    /// thread count, so results stay bit-identical across pools.
    pub fn step(&mut self) {
        let bins = self.bins;
        let (u_lower, u_upper) = Convolver::conv_pair(
            &mut self.conv_lower,
            &mut self.conv_upper,
            &self.q_lower,
            &self.q_upper,
        );
        let drift_lower = Self::fold_chain(&mut self.q_lower, u_lower, bins, &mut self.scratch_lower);
        let drift_upper = Self::fold_chain(&mut self.q_upper, u_upper, bins, &mut self.scratch_upper);
        self.worst_mass_drift = self.worst_mass_drift.max(drift_lower).max(drift_upper);
        self.iterations += 1;
    }

    /// Advances only the upper chain — the warm probe's working chain —
    /// returning that step's pre-renormalization mass deviation.
    fn step_upper(&mut self) -> f64 {
        let drift = Self::step_chain(
            &mut self.q_upper,
            &mut self.conv_upper,
            self.bins,
            &mut self.scratch_upper,
        );
        self.worst_mass_drift = self.worst_mass_drift.max(drift);
        self.iterations += 1;
        drift
    }

    /// Worst observed `|Σq − 1|` across all steps so far, measured
    /// before the per-step renormalization. Values above
    /// [`MASS_TOLERANCE`] indicate the convolution is leaking mass and
    /// surface as [`DegradationReason::MassLeak`] in [`try_solve`].
    pub fn mass_drift(&self) -> f64 {
        self.worst_mass_drift
    }

    /// Advances one chain and returns the pre-renormalization mass
    /// deviation `|Σq − 1|` of that step. `next` is the chain's
    /// persistent scratch: the new distribution is built there and
    /// swapped into `q`, so warm steps allocate nothing.
    fn step_chain(q: &mut Vec<f64>, conv: &mut Convolver, bins: usize, next: &mut Vec<f64>) -> f64 {
        let u = conv.conv(q);
        Self::fold_chain(q, u, bins, next)
    }

    /// Folds one chain's convolution output back onto the `[0, B]`
    /// grid (the boundary-atom step of Eq. 19–20), renormalizes, and
    /// swaps the result into `q`. `u` has length `3M+1`; output index
    /// `k` corresponds to occupancy index `i = k − M` in `−M..=2M`.
    fn fold_chain(q: &mut Vec<f64>, u: &[f64], bins: usize, next: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(u.len(), 3 * bins + 1);
        next.clear();
        next.resize(bins + 1, 0.0);
        // i <= 0  ⇔  k <= M → atom at 0.
        next[0] = u[..=bins].iter().sum::<f64>();
        // 0 < i < M.
        for j in 1..bins {
            next[j] = u[j + bins].max(0.0);
        }
        // i >= M  ⇔  k >= 2M → atom at B.
        next[bins] = u[2 * bins..].iter().sum::<f64>();
        // FFT round-off control: clamp and renormalize (mass is
        // conserved analytically). The deviation is returned rather
        // than asserted so release builds surface it as a
        // MassLeak degradation instead of silently renormalizing.
        let mut total = 0.0;
        for v in next.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
            total += *v;
        }
        if total > 0.0 {
            for v in next.iter_mut() {
                *v /= total;
            }
        }
        std::mem::swap(q, next);
        (total - 1.0).abs()
    }

    /// Doubles the grid resolution, transplanting the current bound
    /// distributions onto the finer grid (mass at `j·d` moves to the
    /// coincident fine grid point `2j·d/2`). This is the paper's
    /// footnote-3 warm restart: the transplanted chains remain valid
    /// bounds because every coarse grid point is also a fine grid
    /// point and `φ_L^{2M} >= φ_L^{M}` pointwise (Prop. II.1, step v).
    pub fn refine(&mut self) {
        let new_bins = self.bins * 2;
        let pool = lrd_pool::current();
        // The work-increment discretization and the loss kernel are
        // independent constructions over the same model; so are the
        // two chains' transplants and convolution plans. Each branch
        // is deterministic on its own, so the refined solver is
        // identical for any thread count.
        let (wdist, kernel) = pool.join(
            || WorkDistribution::build(&self.model, new_bins),
            || LossKernel::build(&self.model, new_bins),
        );
        self.kernel = kernel;
        fn transplant(q: &[f64], new_bins: usize) -> Vec<f64> {
            let mut out = vec![0.0; new_bins + 1];
            for (j, &p) in q.iter().enumerate() {
                out[2 * j] = p;
            }
            out
        }
        let ((q_lower, conv_lower), (q_upper, conv_upper)) = pool.join(
            || {
                (
                    transplant(&self.q_lower, new_bins),
                    Convolver::new(wdist.lower(), new_bins + 1),
                )
            },
            || {
                (
                    transplant(&self.q_upper, new_bins),
                    Convolver::new(wdist.upper(), new_bins + 1),
                )
            },
        );
        self.q_lower = q_lower;
        self.q_upper = q_upper;
        self.conv_lower = conv_lower;
        self.conv_upper = conv_upper;
        self.bins = new_bins;
    }
}

/// Validates a [`SolverOptions`], returning the typed reason for the
/// first field found outside its domain.
fn validate_options(opts: &SolverOptions) -> Result<(), SolverError> {
    if opts.initial_bins < 2 {
        return Err(SolverError::InvalidOption {
            option: "initial_bins",
            value: opts.initial_bins as f64,
            constraint: "must be at least 2",
        });
    }
    if opts.max_bins < 2 {
        return Err(SolverError::InvalidOption {
            option: "max_bins",
            value: opts.max_bins as f64,
            constraint: "must be at least 2",
        });
    }
    if opts.rel_gap <= 0.0 || !opts.rel_gap.is_finite() {
        return Err(SolverError::InvalidOption {
            option: "rel_gap",
            value: opts.rel_gap,
            constraint: "must be positive",
        });
    }
    if opts.zero_floor < 0.0 || !opts.zero_floor.is_finite() {
        return Err(SolverError::InvalidOption {
            option: "zero_floor",
            value: opts.zero_floor,
            constraint: "must be non-negative and finite",
        });
    }
    if opts.max_iterations_per_level == 0 {
        return Err(SolverError::InvalidOption {
            option: "max_iterations_per_level",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    if !(opts.stall_tolerance >= 0.0 && opts.stall_tolerance < 1.0) {
        return Err(SolverError::InvalidOption {
            option: "stall_tolerance",
            value: opts.stall_tolerance,
            constraint: "must lie in [0, 1)",
        });
    }
    if opts.stall_window == 0 {
        return Err(SolverError::InvalidOption {
            option: "stall_window",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    if opts.max_total_cost <= 0.0 || opts.max_total_cost.is_nan() {
        return Err(SolverError::InvalidOption {
            option: "max_total_cost",
            value: opts.max_total_cost,
            constraint: "must be positive",
        });
    }
    Ok(())
}

/// The cold protocol's starting resolution: `initial_bins` clamped to
/// the refinement ceiling.
fn cold_solver_bins(opts: &SolverOptions) -> usize {
    opts.initial_bins.min(opts.max_bins)
}

/// Runs the full convergence protocol and returns the loss bounds.
///
/// # Panics
///
/// Panics on options [`try_solve`] rejects; degraded-but-valid
/// outcomes (budget or grid exhaustion, mass leak, numerical
/// breakdown) never panic in either variant.
#[deprecated(note = "use `SolveSession::builder(model).options(opts).solve()`")]
pub fn solve<D: Interarrival + Clone>(model: &QueueModel<D>, opts: &SolverOptions) -> LossSolution {
    SolveSession::builder(model).options(opts).solve()
}

/// Fallible variant of [`solve`].
///
/// `Err` is returned **only** for a malformed [`SolverOptions`] — a
/// question the solver cannot even start on. Every outcome of the
/// iteration itself, including running out of budget or grid
/// resolution, yields `Ok` with the best provable bounds reached and a
/// [`DegradationReason`] explaining what was given up; such solutions
/// always satisfy `0 <= lower <= upper < ∞`.
#[deprecated(note = "use `SolveSession::builder(model).options(opts).run()`")]
pub fn try_solve<D: Interarrival + Clone>(
    model: &QueueModel<D>,
    opts: &SolverOptions,
) -> Result<LossSolution, SolverError> {
    Ok(SolveSession::builder(model).options(opts).run()?.0)
}

/// [`solve`] with an optional lattice-neighbour warm start, also
/// returning this point's own exportable [`WarmState`].
///
/// # Panics
///
/// Panics on options [`try_solve_warm`] rejects.
#[deprecated(note = "use `SolveSession::builder(model).options(opts).donor(donor).solve_warm()`")]
pub fn solve_warm<D: Interarrival + Clone>(
    model: &QueueModel<D>,
    opts: &SolverOptions,
    donor: Option<&WarmState>,
) -> (LossSolution, WarmState) {
    SolveSession::builder(model).options(opts).donor(donor).solve_warm()
}

/// Runs the full convergence protocol, optionally seeded by a
/// neighbouring point's [`WarmState`], and returns the verdict plus
/// this point's own exportable warm state.
///
/// # Donor precondition
///
/// Passing `Some(donor)` asserts the donor was solved on a model
/// **identical to `model` except possibly the buffer size**. Sweep
/// closures whose lattice axes change anything else (Hurst, scaling,
/// stream count, …) must pass `None` for donors across those axes.
///
/// # How the warm path certifies
///
/// The warm path never changes solved values: it only ever produces
/// the exact `(0.0, 0.0)` constant the cold floor rule returns, and
/// on any doubt it runs the cold protocol on a fresh solver,
/// bit-identical to a never-warmed solve. A donor is consulted only
/// when it certified **zero** loss, via one of two mechanisms:
///
/// * **Monotone certificate** (donor buffer ≤ this buffer): losing
///   work is pathwise monotone in the buffer — for the same input, a
///   larger buffer never loses more — so the donor's certified
///   below-floor upper bound transfers directly:
///   `true_loss(B) <= true_loss(B_donor) < zero_floor`. Zero
///   iterations; the donor state is passed through for further
///   chaining.
/// * **Dominance probe** (donor buffer > this buffer): the donor's
///   upper-chain occupancy is re-binned conservatively onto this
///   point's grid and iterated for at most `PROBE_ITERATIONS` steps,
///   looking for a step that is both *stochastically dominated by its
///   predecessor* and below the zero floor (see the [`session`]'s
///   soundness argument; the check is self-validating, so a bad seed
///   can waste the probe but never corrupt the verdict).
#[deprecated(note = "use `SolveSession::builder(model).options(opts).donor(donor).run()`")]
pub fn try_solve_warm<D: Interarrival + Clone>(
    model: &QueueModel<D>,
    opts: &SolverOptions,
    donor: Option<&WarmState>,
) -> Result<(LossSolution, WarmState), SolverError> {
    SolveSession::builder(model).options(opts).donor(donor).run()
}

/// Whether `smaller ⪯_st larger`: the CDF of `smaller` lies pointwise
/// at or above the CDF of `larger`, within round-off allowance.
fn stochastically_dominated(smaller: &[f64], larger: &[f64]) -> bool {
    debug_assert_eq!(smaller.len(), larger.len());
    let mut cdf_s = 0.0f64;
    let mut cdf_l = 0.0f64;
    smaller.iter().zip(larger).all(|(&s, &l)| {
        cdf_s += s;
        cdf_l += l;
        cdf_s >= cdf_l - DOMINANCE_TOLERANCE
    })
}

/// Snapshots a finished solver as the point's exportable [`WarmState`].
fn export_state<D: Interarrival + Clone>(
    model: &QueueModel<D>,
    solver: &BoundSolver<D>,
    sol: &LossSolution,
) -> WarmState {
    WarmState {
        buffer: model.buffer(),
        bins: solver.bins,
        upper: solver.q_upper.clone(),
        lower: solver.q_lower.clone(),
        bracket: (sol.lower, sol.upper),
        zero: sol.is_zero(),
    }
}

/// Closes out a solution: attaches the mass-conservation diagnostic
/// (unless a more fundamental reason is already recorded), publishes
/// the mass-drift gauge and any degradation event, and stamps the
/// `solver.solve` span with the final verdict.
fn seal(mut sol: LossSolution, drift: f64, span: &mut lrd_obs::Span) -> LossSolution {
    if sol.degradation.is_none() && drift > MASS_TOLERANCE {
        sol.degradation = Some(DegradationReason::MassLeak { deficit: drift });
    }
    lrd_obs::gauge("solver.mass_drift", drift);
    if let Some(reason) = &sol.degradation {
        reason.emit();
    }
    span.record("iterations", sol.iterations);
    span.record("bins", sol.bins);
    span.record("converged", sol.converged);
    span.record("loss", sol.loss());
    sol
}

#[cfg(test)]
#[allow(deprecated)] // the shims stay covered against the session path
mod tests {
    use super::*;
    use lrd_traffic::{Exponential, Marginal, TruncatedPareto};

    fn two_rate_model(cutoff: f64, buffer: f64) -> QueueModel<TruncatedPareto> {
        QueueModel::new(
            Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
            TruncatedPareto::new(0.05, 1.4, cutoff),
            10.0,
            buffer,
        )
    }

    #[test]
    fn bounds_order_and_monotonicity() {
        // Prop. II.1: l(Q_L) increasing in n, l(Q_H) decreasing in n,
        // and l(Q_L) <= l(Q_H) throughout.
        let mut s = BoundSolver::new(two_rate_model(1.0, 2.0), 100);
        let mut prev_l = 0.0;
        let mut prev_h = f64::INFINITY;
        for n in 0..200 {
            s.step();
            let (l, h) = s.loss_bounds();
            assert!(l <= h + 1e-12, "order violated at n={n}: {l} > {h}");
            assert!(l >= prev_l - 1e-9, "lower bound decreased at n={n}");
            assert!(h <= prev_h + 1e-9, "upper bound increased at n={n}");
            prev_l = l;
            prev_h = h;
        }
    }

    #[test]
    fn refinement_tightens_bounds() {
        // Prop. II.1 step (v): for the stationary chains, doubling M
        // raises l(Q_L) and lowers l(Q_H). Run each grid to (near)
        // stationarity before comparing.
        let model = two_rate_model(1.0, 2.0);
        let run = |bins: usize| {
            let mut s = BoundSolver::new(model.clone(), bins);
            for _ in 0..3000 {
                s.step();
            }
            s.loss_bounds()
        };
        let (l_coarse, h_coarse) = run(50);
        let (l_fine, h_fine) = run(200);
        assert!(l_fine >= l_coarse - 1e-9, "{l_fine} < {l_coarse}");
        assert!(h_fine <= h_coarse + 1e-9, "{h_fine} > {h_coarse}");
        assert!(h_fine - l_fine < h_coarse - l_coarse);
    }

    #[test]
    fn occupancy_distributions_are_probabilities() {
        let mut s = BoundSolver::new(two_rate_model(1.0, 2.0), 64);
        for _ in 0..50 {
            s.step();
        }
        for q in [s.occupancy_lower(), s.occupancy_upper()] {
            let total: f64 = q.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(q.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn solve_converges_on_lossy_system() {
        let sol = solve(&two_rate_model(1.0, 2.0), &SolverOptions::default());
        assert!(sol.converged, "solver did not converge: {sol:?}");
        assert!(sol.lower > 0.0);
        assert!(sol.upper >= sol.lower);
        assert!(sol.upper - sol.lower <= 0.2 * sol.loss() + 1e-12);
        // Sanity: utilization 0.8 with bursty input and a small buffer
        // loses a visible fraction.
        assert!(sol.loss() > 1e-5 && sol.loss() < 0.5, "loss {}", sol.loss());
    }

    #[test]
    fn solve_reports_zero_for_underload() {
        // All rates below the service rate: nothing is ever lost.
        let model = QueueModel::new(
            Marginal::new(&[2.0, 6.0], &[0.5, 0.5]),
            TruncatedPareto::new(0.05, 1.4, 1.0),
            10.0,
            1.0,
        );
        let sol = solve(&model, &SolverOptions::default());
        assert!(sol.converged);
        assert!(sol.is_zero());
        assert_eq!(sol.loss(), 0.0);
    }

    #[test]
    fn loss_decreases_with_buffer() {
        let opts = SolverOptions::default();
        let mut prev = f64::INFINITY;
        for &b in &[0.5, 1.0, 2.0, 4.0] {
            let sol = solve(&two_rate_model(0.5, b), &opts);
            assert!(sol.converged);
            assert!(
                sol.loss() < prev,
                "loss did not decrease at B={b}: {} vs {prev}",
                sol.loss()
            );
            prev = sol.loss();
        }
    }

    #[test]
    fn loss_increases_with_cutoff() {
        // Longer correlation ⇒ longer overload bursts ⇒ more loss.
        let opts = SolverOptions::default();
        let mut prev = 0.0;
        for &tc in &[0.1, 0.5, 2.0, 8.0] {
            let sol = solve(&two_rate_model(tc, 2.0), &opts);
            assert!(sol.converged);
            assert!(
                sol.loss() >= prev - 1e-9,
                "loss decreased at T_c={tc}: {} vs {prev}",
                sol.loss()
            );
            prev = sol.loss();
        }
    }

    #[test]
    fn exponential_intervals_solve() {
        let model = QueueModel::new(
            Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
            Exponential::new(0.08),
            10.0,
            2.0,
        );
        let sol = solve(&model, &SolverOptions::default());
        assert!(sol.converged);
        assert!(sol.loss() > 0.0 && sol.loss() < 1.0);
    }

    #[test]
    fn loss_bounded_by_overload_fraction() {
        // The loss rate can never exceed the mean overload fraction
        // E[(λ−c)⁺]/λ̄ (work can only be lost while the input exceeds
        // the service rate).
        let model = two_rate_model(4.0, 0.5);
        let sol = solve(&model, &SolverOptions::default());
        let cap = 0.5 * (14.0 - 10.0) / 8.0;
        assert!(sol.upper <= cap + 1e-9, "upper {} vs cap {cap}", sol.upper);
    }

    /// An underloaded model (zero loss) at the given buffer.
    fn underload_model(buffer: f64) -> QueueModel<TruncatedPareto> {
        QueueModel::new(
            Marginal::new(&[2.0, 6.0], &[0.5, 0.5]),
            TruncatedPareto::new(0.05, 1.4, 1.0),
            10.0,
            buffer,
        )
    }

    #[test]
    fn warm_monotone_certificate_matches_cold() {
        // A zero donor at a smaller buffer certifies a larger-buffer
        // point of the same model with zero iterations, returning the
        // exact cold constant and passing the donor state through for
        // further chaining.
        let opts = SolverOptions::default();
        let (donor_sol, donor_state) = solve_warm(&underload_model(1.0), &opts, None);
        assert!(donor_sol.is_zero());
        assert!(donor_state.is_zero());

        let cold = solve(&underload_model(1.5), &opts);
        let (warm, state) = solve_warm(&underload_model(1.5), &opts, Some(&donor_state));
        assert!(cold.is_zero());
        assert_eq!(warm.lower.to_bits(), cold.lower.to_bits());
        assert_eq!(warm.upper.to_bits(), cold.upper.to_bits());
        assert_eq!(warm.iterations, 0, "monotone certificate must be free");
        assert!(warm.converged);
        assert!(state.is_zero());
        assert_eq!(state.bins(), donor_state.bins(), "state must pass through");

        // The pass-through state keeps certifying down the chain.
        let cold2 = solve(&underload_model(2.0), &opts);
        let (warm2, _) = solve_warm(&underload_model(2.0), &opts, Some(&state));
        assert!(cold2.is_zero());
        assert_eq!(warm2.upper.to_bits(), cold2.upper.to_bits());
        assert_eq!(warm2.iterations, 0);
    }

    #[test]
    fn warm_descending_probe_certifies() {
        // A donor at a *larger* buffer cannot use the monotone
        // certificate; its occupancy seeds the dominance probe, which
        // must certify this hard zero point (cold takes >1000
        // iterations) in at most PROBE_ITERATIONS steps and return
        // the exact cold constant.
        let opts = SolverOptions::sweep_profile();
        let (donor_sol, donor_state) = solve_warm(&two_rate_model(0.01, 3.0), &opts, None);
        assert!(donor_sol.is_zero(), "donor not zero: {donor_sol:?}");

        let (warm, state) = solve_warm(&two_rate_model(0.01, 2.0), &opts, Some(&donor_state));
        assert!(
            warm.iterations <= PROBE_ITERATIONS,
            "probe did not certify: {} iterations",
            warm.iterations
        );
        assert_eq!(warm.lower.to_bits(), 0.0f64.to_bits());
        assert_eq!(warm.upper.to_bits(), 0.0f64.to_bits());
        assert!(warm.converged);
        assert!(state.is_zero());
    }

    #[test]
    fn warm_fallback_matches_cold_bitwise() {
        // A lossy point warmed from a (handcrafted) zero donor at a
        // larger buffer must fail the dominance probe — its loss never
        // approaches the floor — and fall back to a solve bit-identical
        // to cold.
        let opts = SolverOptions::default();
        let bins = 64;
        let donor_state = WarmState {
            buffer: 5.0,
            bins,
            upper: vec![1.0 / (bins + 1) as f64; bins + 1],
            lower: vec![1.0 / (bins + 1) as f64; bins + 1],
            bracket: (0.0, 0.0),
            zero: true,
        };
        let model = two_rate_model(1.0, 2.0);
        let cold = solve(&model, &opts);
        let (warm, _) = solve_warm(&model, &opts, Some(&donor_state));
        assert!(!cold.is_zero());
        assert_eq!(warm.lower.to_bits(), cold.lower.to_bits());
        assert_eq!(warm.upper.to_bits(), cold.upper.to_bits());
        assert_eq!(warm.bins, cold.bins);
        assert_eq!(warm.converged, cold.converged);
    }

    #[test]
    fn nonzero_donor_is_ignored() {
        // Donors that did not certify zero must not be consulted: the
        // solve is plain cold, bit for bit.
        let opts = SolverOptions::default();
        let (donor_sol, donor_state) = solve_warm(&two_rate_model(1.0, 2.0), &opts, None);
        assert!(!donor_sol.is_zero());
        let model = two_rate_model(1.0, 3.0);
        let cold = solve(&model, &opts);
        let (warm, _) = solve_warm(&model, &opts, Some(&donor_state));
        assert_eq!(warm.lower.to_bits(), cold.lower.to_bits());
        assert_eq!(warm.upper.to_bits(), cold.upper.to_bits());
        assert_eq!(warm.iterations, cold.iterations);
    }

    #[test]
    fn rebin_upper_is_conservative() {
        // The re-binned distribution must stochastically dominate the
        // original: mass only ever moves up.
        let opts = SolverOptions::default();
        let (_, state) = solve_warm(&underload_model(1.0), &opts, None);
        for &(buffer, bins) in &[(1.0, 64), (1.5, 128), (0.8, 200), (2.0, 37)] {
            let rebinned = state.rebin_upper(buffer, bins);
            let total: f64 = rebinned.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "mass lost: {total}");
            assert!(rebinned.iter().all(|&p| p >= 0.0));
            if buffer < 1.0 {
                // Donor range exceeds the target grid: out-of-range
                // mass folds to the top atom, so dominance over the
                // original need not hold (the probe's runtime check
                // carries soundness there).
                continue;
            }
            // CDF comparison on the common value axis: at every value
            // x, Pr{rebinned <= x} <= Pr{original <= x}.
            let d_old = 1.0 / state.bins() as f64;
            let d_new = buffer / bins as f64;
            let orig = state.occupancy(true);
            for j in 0..=bins {
                let x = j as f64 * d_new;
                let cdf_new: f64 = rebinned[..=j].iter().sum();
                let cdf_old: f64 = orig
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i as f64 * d_old <= x)
                    .map(|(_, &p)| p)
                    .sum();
                assert!(
                    cdf_new <= cdf_old + 1e-9,
                    "dominance violated at x={x}: {cdf_new} > {cdf_old}"
                );
            }
        }
    }

    #[test]
    fn stochastic_dominance_check() {
        let a = [0.2, 0.3, 0.5];
        let b = [0.5, 0.3, 0.2];
        // b has more mass low, so b ⪯st a.
        assert!(stochastically_dominated(&b, &a));
        assert!(!stochastically_dominated(&a, &b));
        let c = [0.2, 0.3, 0.5];
        assert!(stochastically_dominated(&a, &c));
    }

    #[test]
    fn cost_budget_cuts_off_gracefully() {
        // An absurdly small budget must still return valid (ordered)
        // bounds, flagged as not converged.
        let opts = SolverOptions {
            max_total_cost: 300.0,
            rel_gap: 1e-9, // unreachable, forces the budget path
            ..SolverOptions::default()
        };
        let sol = solve(&two_rate_model(1.0, 2.0), &opts);
        assert!(!sol.converged);
        assert!(sol.lower <= sol.upper);
        assert!(
            sol.iterations <= 4,
            "budget ignored: {} iterations",
            sol.iterations
        );
    }
}
