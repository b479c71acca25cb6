//! `lattice_sweep`: the fig04 and fig05 full-profile lattices (2 × 56
//! points) through the sweep runner's `run_points` — the figure
//! reproduction path, where warm-start donor chains and `par_map` do
//! the work on small grids.
//!
//! The lattices are the paper's fixed figure parameters, so the seed
//! only decides which figure runs first; every point value is checked
//! bit-for-bit against the recorded reference.

use std::sync::Mutex;
use std::time::Instant;

use lrd_experiments::figures::{fig04_05, Profile};
use lrd_experiments::sweep::{run_points, FigureSweep, ShardSpec};
use lrd_experiments::Corpus;

use crate::reference::{check_lattice, parse_lattice, LATTICE};
use crate::{run_passes, secs, solver_layers, Ctx, Outcome, SETUP_REPEATS, SOLVER_THREADS};

/// One solved point as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
struct PointCall {
    warm: bool,
    zero: bool,
}

/// Wraps a figure sweep so each point solve is logged (and, in traced
/// runs, recorded as a `fluidq.solve` span under `parent`).
fn instrumented<'a>(
    sweep: FigureSweep<'a>,
    ctx: &'a Ctx,
    calls: &'a Mutex<Vec<PointCall>>,
    op: u64,
    parent: u64,
) -> FigureSweep<'a> {
    let FigureSweep { plan, solve } = sweep;
    FigureSweep {
        plan,
        solve: Box::new(move |spec, donor| {
            let id = ctx.spans.open();
            let start = Instant::now();
            let out = solve(spec, donor);
            let end = Instant::now();
            ctx.spans.close(id, op, parent, "fluidq.solve", start, end);
            calls
                .lock()
                .expect("a point solve panicked")
                .push(PointCall {
                    warm: donor.is_some(),
                    zero: out.0.iterations == 0,
                });
            out
        }),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reference = parse_lattice(LATTICE)?;

    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        corpus = Some(Corpus::full());
        out.setup_s.push(secs(t));
    }
    let corpus = corpus.expect("at least one set-up");
    type Build = fn(&Corpus, Profile) -> FigureSweep<'_>;
    let mut figures: [Build; 2] = [fig04_05::fig04_sweep, fig04_05::fig05_sweep];
    if ctx.seed % 2 == 1 {
        figures.reverse();
    }
    let waves: usize = figures
        .iter()
        .map(|build| {
            let plan = build(&corpus, Profile::Full).plan;
            (0..plan.len())
                .map(|i| plan.wave_of(i) + 1)
                .max()
                .unwrap_or(0)
        })
        .sum();

    lrd_trace::reset_peak_rss();
    let calls = Mutex::new(Vec::new());
    let mut traced_calls = Vec::new();
    let tally = run_passes(ctx, &mut out, 2, |op, traced, out| {
        calls.lock().expect("a point solve panicked").clear();
        let t = Instant::now();
        for build in figures {
            let sweep = build(&corpus, Profile::Full);
            let figure = sweep.plan.figure.clone();
            let len = sweep.plan.len() as u64;
            out.attempted += len;
            let id = ctx.spans.open();
            let start = Instant::now();
            let result = run_points(
                &instrumented(sweep, ctx, &calls, op, id),
                &ShardSpec::FULL,
                None,
            );
            ctx.spans
                .close(id, op, 0, "experiments.run_points", start, Instant::now());
            match result {
                Ok(points) => {
                    let got: Vec<(usize, f64)> =
                        points.iter().map(|p| (p.index, p.value)).collect();
                    let want = reference.get(&figure);
                    let verdict = want
                        .ok_or_else(|| format!("{figure} has no reference"))
                        .and_then(|want| check_lattice(&figure, &got, want));
                    out.check(verdict.is_ok(), || verdict.unwrap_err());
                }
                Err(e) => {
                    out.failed += len;
                    out.check(false, || format!("{figure}: {e}"));
                }
            }
        }
        let wall = secs(t);
        if traced {
            traced_calls.extend(
                calls
                    .lock()
                    .expect("a point solve panicked")
                    .iter()
                    .copied(),
            );
        }
        wall
    });
    out.peak_rss_kib = crate::peak_rss_kib();

    if ctx.trace {
        solver_layers(&mut out, &tally, SOLVER_THREADS);
        let passes = out.traced_pass_s.len().max(1) as f64;
        let warm = traced_calls.iter().filter(|c| c.warm).count();
        let warm_zero = traced_calls.iter().filter(|c| c.warm && c.zero).count();
        let solve_s: f64 = tally.solve_us.iter().sum::<f64>() / 1e6;
        let wall_s: f64 = out.traced_pass_s.iter().sum();
        let points = traced_calls.len() as f64;
        out.layers.extend([
            ("fluidq.warm_solves", warm as f64 / passes),
            (
                "fluidq.warm_zero_share",
                if warm > 0 {
                    warm_zero as f64 / warm as f64
                } else {
                    0.0
                },
            ),
            ("experiments.points", points / passes),
            ("experiments.waves", waves as f64),
            (
                "experiments.residual_s",
                (wall_s - solve_s / SOLVER_THREADS as f64) / passes,
            ),
        ]);
    }
    Ok(out)
}
