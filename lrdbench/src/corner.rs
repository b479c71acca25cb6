//! `hard_corner`: the footnote-1 runtime survey — ρ ∈ {0.5, 0.8,
//! 0.95} × B ∈ {0.05, 0.5, 5} × T_c ∈ {0.1, 10, ∞} on the MTV model —
//! as 27 independent cold solves. Grids reach M = 8192, FFT
//! convolution dominates, and the budget-stopped corners take most of
//! the time. Warm starts and `par_map` are bypassed; the pool only runs
//! the two bounding chains of each solve side by side.
//!
//! The seed shuffles the solve order (the solves are independent, so
//! the values cannot depend on it). Each bracket must be finite,
//! ordered, and intersect the recorded one.

use std::time::Instant;

use lrd_experiments::Corpus;
use lrd_fluidq::{SolveSession, SolverOptions};
use lrd_rng::rngs::SmallRng;
use lrd_rng::seq::SliceRandom;
use lrd_rng::SeedableRng;

use crate::reference::{check_corner, parse_corners, CORNERS};
use crate::{run_passes, secs, solver_layers, Ctx, Outcome, SETUP_REPEATS, SOLVER_THREADS};

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut corners = parse_corners(CORNERS)?;
    corners.shuffle(&mut SmallRng::seed_from_u64(ctx.seed));

    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        corpus = Some(Corpus::full());
        out.setup_s.push(secs(t));
    }
    let corpus = corpus.expect("at least one set-up");
    let opts = SolverOptions::sweep_profile();

    lrd_trace::reset_peak_rss();
    let tally = run_passes(ctx, &mut out, 2, |op, _traced, out| {
        let t = Instant::now();
        for c in &corners {
            let model = corpus.mtv.model(c.utilization, c.buffer, c.cutoff);
            let solution = ctx.spans.time(op, 0, "fluidq.solve", |_| {
                SolveSession::builder(&model).options(&opts).solve()
            });
            out.attempted += 1;
            let verdict = check_corner(c, solution.lower, solution.upper);
            out.check(verdict.is_ok(), || verdict.unwrap_err());
        }
        secs(t)
    });
    out.peak_rss_kib = crate::peak_rss_kib();
    if ctx.trace {
        solver_layers(&mut out, &tally, SOLVER_THREADS);
    }
    Ok(out)
}
