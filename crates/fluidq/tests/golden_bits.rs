//! Golden-bits regression guard for the solver's hot loop at the
//! hard-corner grid size.
//!
//! The constant is an FNV-1a fold of the raw `f64` bit patterns of
//! both bounding chains after 20 `BoundSolver::step`s at `M = 8192`
//! (32768-point batched transforms), recorded before the FFT cascade
//! was cache-blocked. Those rewrites promise to move **no** output
//! bit, so a mismatch is a behaviour change, not round-off noise; the
//! SIMD kernels are bit-identical to the scalar ones, so the fold
//! holds for every dispatch level. Recorded on x86-64 Linux; the
//! twiddles and kernels come from the platform's libm, so another libm
//! may need its own recording.

use lrd_fluidq::{BoundSolver, QueueModel};
use lrd_traffic::{Marginal, TruncatedPareto};

fn fold(mut acc: u64, xs: &[f64]) -> u64 {
    for x in xs {
        acc ^= x.to_bits();
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

#[test]
fn bound_solver_occupancy_bits_are_pinned_at_m8192() {
    let model = QueueModel::from_utilization(
        Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
        TruncatedPareto::from_hurst(0.8, 0.05, 1.0),
        0.8,
        0.2,
    );
    let mut solver = BoundSolver::new(model, 8192);
    for _ in 0..20 {
        solver.step();
    }
    let got = fold(
        fold(0xcbf2_9ce4_8422_2325, solver.occupancy_lower()),
        solver.occupancy_upper(),
    );
    let want = 0x2418_b4ef_8cb6_b99cu64;
    assert_eq!(got, want, "occupancy fold {got:#018x}, pinned {want:#018x}");
}
