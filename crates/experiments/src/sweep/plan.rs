//! The declarative sweep description: axes, point lattice, plan hash.

use crate::figures::Profile;
use crate::output::Grid;
use crate::sweep::ShardSpec;
use lrd_fluidq::{LossSolution, SolverOptions};

/// One named sweep axis: an ordered list of coordinate values.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis label; becomes the grid/CSV axis label (`"buffer_s"`).
    pub name: String,
    /// The coordinate values, in sweep order.
    pub values: Vec<f64>,
}

impl Axis {
    /// An axis over explicit values.
    ///
    /// # Panics
    ///
    /// Panics on an empty value list — a lattice axis needs at least
    /// one point.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Axis {
        assert!(!values.is_empty(), "axis needs at least one value");
        Axis {
            name: name.into(),
            values,
        }
    }

    /// Logarithmically spaced values from `lo` to `hi` inclusive.
    pub fn log_space(name: impl Into<String>, lo: f64, hi: f64, count: usize) -> Axis {
        Axis::new(name, crate::figures::log_space(lo, hi, count))
    }

    /// Linearly spaced values from `lo` to `hi` inclusive.
    pub fn lin_space(name: impl Into<String>, lo: f64, hi: f64, count: usize) -> Axis {
        Axis::new(name, crate::figures::lin_space(lo, hi, count))
    }

    /// Appends one extra value (the idiom for the `T_c = ∞` column).
    pub fn with_value(mut self, value: f64) -> Axis {
        self.values.push(value);
        self
    }

    /// Number of lattice points along this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis is empty (never true for a constructed axis).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One lattice point: its stable index and per-axis coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Stable row-major index into the plan's lattice.
    pub index: usize,
    /// Coordinates, one per plan axis, in axis order.
    pub coords: Vec<f64>,
}

impl PointSpec {
    /// The coordinate along axis `axis`.
    pub fn coord(&self, axis: usize) -> f64 {
        self.coords[axis]
    }
}

/// The solved value at one lattice point plus the solver diagnostics
/// the bench/regression layers track.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Stable point index (matches [`PointSpec::index`]).
    pub index: usize,
    /// The figure value at this point (loss-rate midpoint).
    pub value: f64,
    /// Solver iterations spent on this point.
    pub iterations: u64,
    /// Final grid resolution `M`.
    pub bins: u64,
    /// Whether the solver's gap criterion was met.
    pub converged: bool,
    /// Measured wall-clock solve cost in µs, read from the point's
    /// `solver.solve` telemetry span by the checkpointing runner.
    /// `None` when the point was solved without a checkpoint or read
    /// from a duration-less (pre-cost-model) checkpoint. Never enters
    /// the plan hash or the solved values — it is a timing record for
    /// offline inspection only.
    pub solve_us: Option<f64>,
}

impl PointResult {
    /// Builds the result for point `index` from a solver verdict.
    pub fn from_solution(index: usize, solution: &LossSolution) -> PointResult {
        PointResult {
            index,
            value: solution.loss(),
            iterations: solution.iterations as u64,
            bins: solution.bins as u64,
            converged: solution.converged,
            solve_us: None,
        }
    }
}

/// A declarative sweep: named axes, a profile, the solver options every
/// point shares, and a stable total order over the point lattice.
///
/// The order is row-major over the axes (first axis slowest), matching
/// the nested loops the figures historically ran — so a ported figure
/// reproduces its historical surface bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The figure this plan belongs to (registry name / results stem).
    pub figure: String,
    /// Grid-resolution profile the axes were built for.
    pub profile: Profile,
    /// Label of the solved value (`"loss_rate"`).
    pub value_label: String,
    /// The axes, slowest-varying first. Two axes for grid figures:
    /// `axes[0]` becomes the grid rows (y), `axes[1]` the columns (x).
    pub axes: Vec<Axis>,
    /// Solver options applied at every point; hashed into the plan
    /// identity so shards solved under different protocols never merge.
    pub solver: SolverOptions,
    /// The axis along which neighbouring points may donate solver
    /// [`WarmState`](lrd_fluidq::WarmState)s (the buffer axis, for
    /// every current figure). `None` disables warm starts.
    ///
    /// Declaring a warm axis asserts the figure's point models differ
    /// **only in the buffer size** along that axis — the donor
    /// precondition of
    /// [`try_solve_warm`](lrd_fluidq::try_solve_warm). Figures whose
    /// axes change anything else about the model (Hurst, marginal
    /// scaling, stream count) must leave it `None`.
    ///
    /// Deliberately **excluded from [`hash`](SweepPlan::hash)**: a
    /// warm start never changes solved values (only iteration counts),
    /// so surfaces solved with and without it merge bit-identically —
    /// and old checkpoints stay resumable.
    pub warm_axis: Option<usize>,
}

impl SweepPlan {
    /// A two-axis (grid) plan; `y` varies slowest.
    pub fn grid_plan(
        figure: impl Into<String>,
        profile: Profile,
        value_label: impl Into<String>,
        y: Axis,
        x: Axis,
        solver: SolverOptions,
    ) -> SweepPlan {
        SweepPlan {
            figure: figure.into(),
            profile,
            value_label: value_label.into(),
            axes: vec![y, x],
            solver,
            warm_axis: None,
        }
    }

    /// Declares `axis` as the warm-start (buffer) axis. See
    /// [`SweepPlan::warm_axis`] for the contract this asserts.
    ///
    /// # Panics
    ///
    /// Panics when `axis` is out of range.
    pub fn with_warm_axis(mut self, axis: usize) -> SweepPlan {
        assert!(axis < self.axes.len(), "warm axis {axis} out of range");
        self.warm_axis = Some(axis);
        self
    }

    /// Row-major stride of `axis`: the index distance between two
    /// points that differ by one step along it.
    fn stride(&self, axis: usize) -> usize {
        self.axes[axis + 1..].iter().map(Axis::len).product()
    }

    /// The fixed lattice predecessor that donates a warm state to
    /// `index`: the same point one step earlier along the warm axis.
    /// `None` when the plan has no warm axis or `index` sits on the
    /// axis's first value (those points always run cold).
    ///
    /// The donor is a pure function of the plan — independent of
    /// execution order, shard split, batch composition, or thread
    /// count — which is what keeps the wavefront schedule
    /// deterministic: whether a donor's state is *available* at solve
    /// time depends only on the deterministic chunk partition, never
    /// on which worker thread finished first.
    pub fn donor(&self, index: usize) -> Option<usize> {
        let axis = self.warm_axis?;
        let stride = self.stride(axis);
        let pos = (index / stride) % self.axes[axis].len();
        (pos > 0).then(|| index - stride)
    }

    /// The wavefront a point belongs to: its position along the warm
    /// axis (0 for every point when no warm axis is declared). A
    /// point's donor always lives in the previous wave, so executing
    /// wave-by-wave guarantees every in-partition donor has been
    /// solved before its acceptor starts.
    pub fn wave_of(&self, index: usize) -> usize {
        match self.warm_axis {
            Some(axis) => (index / self.stride(axis)) % self.axes[axis].len(),
            None => 0,
        }
    }

    /// Total number of lattice points (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the lattice is empty (never true for constructed axes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lattice point at stable index `index` (row-major decode).
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn point(&self, index: usize) -> PointSpec {
        assert!(index < self.len(), "point index {index} out of range");
        let mut coords = vec![0.0; self.axes.len()];
        let mut rest = index;
        for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
            *slot = axis.values[rest % axis.len()];
            rest /= axis.len();
        }
        PointSpec { index, coords }
    }

    /// The lattice points owned by `shard`, in stable-index order.
    pub fn points_for(&self, shard: &ShardSpec) -> Vec<PointSpec> {
        (0..self.len())
            .filter(|&i| shard.owns(i))
            .map(|i| self.point(i))
            .collect()
    }

    /// FNV-1a 64-bit content hash over the canonical plan description:
    /// figure, profile, value label, every axis name and value
    /// (`f64::to_bits`, so `∞` and signed zeros are distinguished) and
    /// every solver-option field. Equal hashes ⇒ bit-identical
    /// surfaces; the checkpoint manifests carry it so merge can reject
    /// shards solved under a different plan.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(self.figure.as_bytes());
        h.sep();
        h.update(self.profile.tag().as_bytes());
        h.sep();
        h.update(self.value_label.as_bytes());
        h.sep();
        h.u64(self.axes.len() as u64);
        for axis in &self.axes {
            h.update(axis.name.as_bytes());
            h.sep();
            h.u64(axis.len() as u64);
            for &v in &axis.values {
                h.u64(v.to_bits());
            }
        }
        let s = &self.solver;
        h.u64(s.initial_bins as u64);
        h.u64(s.max_bins as u64);
        h.u64(s.rel_gap.to_bits());
        h.u64(s.zero_floor.to_bits());
        h.u64(s.max_iterations_per_level as u64);
        h.u64(s.stall_tolerance.to_bits());
        h.u64(s.stall_window as u64);
        h.u64(s.max_total_cost.to_bits());
        h.finish()
    }

    /// The plan hash as the 16-digit hex string stored in manifests.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Assembles the full surface into a [`Grid`] (rows = `axes[0]`,
    /// columns = `axes[1]`).
    ///
    /// # Panics
    ///
    /// Panics when the plan is not two-axis or `results` is not the
    /// complete lattice in stable-index order — callers obtain results
    /// from [`run_points`](crate::sweep::run_points) (full shard) or
    /// [`merge_checkpoints`](crate::sweep::merge_checkpoints), both of
    /// which guarantee completeness.
    pub fn to_grid(&self, results: &[PointResult]) -> Grid {
        assert_eq!(self.axes.len(), 2, "to_grid needs a two-axis plan");
        assert_eq!(results.len(), self.len(), "incomplete surface");
        let nx = self.axes[1].len();
        let values = results
            .chunks(nx)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(j, r)| {
                        debug_assert_eq!(r.index % nx, j, "results out of order");
                        r.value
                    })
                    .collect()
            })
            .collect();
        Grid {
            x_label: self.axes[1].name.clone(),
            y_label: self.axes[0].name.clone(),
            value_label: self.value_label.clone(),
            xs: self.axes[1].values.clone(),
            ys: self.axes[0].values.clone(),
            values,
        }
    }
}

/// Minimal FNV-1a 64-bit hasher (the workspace carries no external
/// hash crates; stability across platforms and releases matters more
/// than speed here).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Field separator so `("ab","c")` and `("a","bc")` hash apart.
    fn sep(&mut self) {
        self.update(&[0xff]);
    }

    fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SweepPlan {
        SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "loss_rate",
            Axis::new("b", vec![0.1, 1.0]),
            Axis::new("tc", vec![0.5, 5.0, f64::INFINITY]),
            SolverOptions::sweep_profile(),
        )
    }

    #[test]
    fn row_major_point_order() {
        let p = plan();
        assert_eq!(p.len(), 6);
        assert_eq!(p.point(0).coords, vec![0.1, 0.5]);
        assert_eq!(p.point(2).coords, vec![0.1, f64::INFINITY]);
        assert_eq!(p.point(3).coords, vec![1.0, 0.5]);
        assert_eq!(p.point(5).coords, vec![1.0, f64::INFINITY]);
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let p = plan();
        assert_eq!(p.hash_hex(), plan().hash_hex());
        assert_eq!(p.hash_hex().len(), 16);

        let mut other = plan();
        other.axes[1].values[0] = 0.500000001;
        assert_ne!(p.hash_hex(), other.hash_hex(), "axis values must matter");

        let mut other = plan();
        other.profile = Profile::Full;
        assert_ne!(p.hash_hex(), other.hash_hex(), "profile must matter");

        let mut other = plan();
        other.solver.max_total_cost = 2e7;
        assert_ne!(p.hash_hex(), other.hash_hex(), "solver options must matter");

        let mut other = plan();
        other.figure = "demo2".into();
        assert_ne!(p.hash_hex(), other.hash_hex(), "figure must matter");
    }

    #[test]
    fn donor_is_the_previous_point_along_the_warm_axis() {
        let p = plan().with_warm_axis(0); // 2 buffers × 3 cutoffs
        // First buffer row: no predecessor, always cold.
        assert_eq!(p.donor(0), None);
        assert_eq!(p.donor(2), None);
        // Second row: donor is the same cutoff one buffer earlier.
        assert_eq!(p.donor(3), Some(0));
        assert_eq!(p.donor(5), Some(2));
        assert_eq!(p.wave_of(2), 0);
        assert_eq!(p.wave_of(3), 1);

        // Without a warm axis nothing donates and all points share
        // wave 0 (one unsynchronised batch).
        let cold = plan();
        assert!((0..cold.len()).all(|i| cold.donor(i).is_none()));
        assert!((0..cold.len()).all(|i| cold.wave_of(i) == 0));
    }

    #[test]
    fn warm_axis_never_enters_the_plan_hash() {
        // Warm starts change iteration counts, not values, so surfaces
        // solved either way must keep merging against each other.
        assert_eq!(plan().hash_hex(), plan().with_warm_axis(0).hash_hex());
    }

    #[test]
    fn shard_points_partition_the_lattice() {
        let p = plan();
        let all: Vec<usize> = (0..p.len()).collect();
        for count in 1..=4u32 {
            let mut seen = Vec::new();
            for index in 0..count {
                let shard = ShardSpec::new(index, count).unwrap();
                seen.extend(p.points_for(&shard).iter().map(|pt| pt.index));
            }
            seen.sort_unstable();
            assert_eq!(seen, all, "count={count}");
        }
    }

    #[test]
    fn grid_assembly_matches_axes() {
        let p = plan();
        let results: Vec<PointResult> = (0..p.len())
            .map(|i| PointResult {
                index: i,
                value: i as f64 * 0.25,
                iterations: 1,
                bins: 128,
                converged: true,
                solve_us: None,
            })
            .collect();
        let g = p.to_grid(&results);
        g.validate();
        assert_eq!(g.ys, vec![0.1, 1.0]);
        assert_eq!(g.values[1][2], 5.0 * 0.25);
        assert_eq!(g.x_label, "tc");
    }
}
