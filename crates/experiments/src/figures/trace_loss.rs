//! Extension figure: the out-of-core ingestion pipeline feeding the
//! solver end to end.
//!
//! Every other figure fits its model from an in-memory rate series.
//! This one exercises the path a *real* multi-gigabyte capture would
//! take: a packet corpus is written to disk (`lrd_trace::write_corpus`),
//! streamed back through the two-pass bounded-memory ingestion
//! (`lrd_trace::ingest_file`), and the resulting report — marginal
//! histogram, pooled one-pass Hurst estimate, mean epoch duration —
//! parameterizes the (buffer, cutoff) loss sweep exactly as Sec. III
//! of the paper prescribes: `α = 3 − 2Ĥ`, `θ` calibrated from the
//! measured epoch (Eq. 25). The surface should reproduce Fig. 4's
//! phenomenology (correlation horizon, buffer ineffectiveness) from
//! the estimated parameters rather than the nominal ones.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::corpus::{Corpus, MARGINAL_BINS, MTV_UTILIZATION};
use crate::figures::Profile;
use crate::sweep::{Axis, FigureSweep, PointResult, SweepPlan};
use lrd_fluidq::{QueueModel, SolveSession, SolverOptions};
use lrd_trace::{ingest_file, write_corpus, CorpusKind, CorpusSpec, IngestReport};
use lrd_traffic::TruncatedPareto;

/// Rate bins packetized per profile. Quick stays test-sized; full is
/// big enough that the estimators see several dyadic decades but the
/// corpus (tens of MiB) still round-trips in a couple of seconds —
/// the ≥ GiB scale lives in the `trace_ingest` bench, not here.
fn corpus_bins(profile: Profile) -> usize {
    profile.pick(1 << 12, 1 << 15)
}

/// The deterministic corpus recipe behind the figure (MTV family,
/// default seed): the same spec always produces byte-identical files,
/// so shards and merges re-derive identical model parameters.
fn corpus_spec(profile: Profile) -> CorpusSpec {
    CorpusSpec::new(CorpusKind::Mtv, corpus_bins(profile))
}

fn scratch_path(profile: Profile) -> PathBuf {
    // Per-process, per-call name: concurrent shard processes, and
    // concurrent callers in one process (parallel tests), each write
    // (and immediately delete) their own copy instead of racing on one
    // file. `Relaxed` suffices: the counter publishes no other data.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lrd_trace_loss_{}_{}_{call}.lrdpkt",
        profile.tag(),
        std::process::id()
    ))
}

/// Writes the corpus for `profile` to a scratch file, runs the
/// two-pass out-of-core ingestion, removes the file, and returns the
/// report. Deterministic: a pure function of the profile.
pub fn ingest(profile: Profile) -> IngestReport {
    let spec = corpus_spec(profile);
    let path = scratch_path(profile);
    let info = write_corpus(&path, &spec).expect("synthetic corpus write");
    let report = ingest_file(&path, info.dt, MARGINAL_BINS);
    std::fs::remove_file(&path).ok();
    report.expect("corpus ingestion")
}

/// The model parameters the ingestion fits, gathered for the figure's
/// closing note.
pub struct TraceFit {
    /// Packets streamed from disk.
    pub packets: u64,
    /// Pooled one-pass Hurst estimate.
    pub hurst: f64,
    /// `α = 3 − 2Ĥ`.
    pub alpha: f64,
    /// Calibrated Pareto scale (seconds).
    pub theta: f64,
    /// Mean rate of the binned trace (Mb/s).
    pub mean_rate: f64,
}

/// Re-derives the fitted parameters (for notes/reports).
pub fn fit(profile: Profile) -> TraceFit {
    let report = ingest(profile);
    let hurst = report
        .hurst
        .expect("synthetic LRD corpus must yield an estimate");
    let alpha = lrd_traffic::alpha_from_hurst(hurst);
    TraceFit {
        packets: report.packets,
        hurst,
        alpha,
        theta: TruncatedPareto::calibrate_theta(report.mean_epoch, alpha),
        mean_rate: report.mean_rate,
    }
}

/// The `(normalized buffer, cutoff lag)` sweep with every model input
/// estimated from the on-disk corpus. The corpus argument is unused —
/// the whole point is that the model comes from the trace file — but
/// the registry signature keeps all sweep builders uniform.
pub fn trace_loss_sweep<'c>(_corpus: &'c Corpus, profile: Profile) -> FigureSweep<'c> {
    let report = ingest(profile);
    let marginal = report.marginal();
    let hurst = report
        .hurst
        .expect("synthetic LRD corpus must yield an estimate");
    let alpha = lrd_traffic::alpha_from_hurst(hurst);
    let theta = TruncatedPareto::calibrate_theta(report.mean_epoch, alpha);

    let buffers = Axis::new(
        "buffer_s",
        profile.pick(
            crate::figures::log_space(0.05, 2.0, 3),
            crate::figures::log_space(0.01, 5.0, 5),
        ),
    );
    let cutoffs = Axis::new(
        "cutoff_s",
        profile.pick(
            crate::figures::log_space(0.05, 5.0, 3),
            crate::figures::log_space(0.01, 100.0, 6),
        ),
    )
    .with_value(f64::INFINITY);
    // Buffer is the only thing varying within a column, so the buffer
    // axis satisfies `try_solve_warm`'s donor precondition.
    let plan = SweepPlan::grid_plan(
        "trace_loss",
        profile,
        "loss_rate",
        buffers,
        cutoffs,
        SolverOptions::sweep_profile(),
    )
    .with_warm_axis(0);
    let opts = plan.solver;
    FigureSweep {
        plan,
        solve: Box::new(move |spec, donor| {
            let (b, tc) = (spec.coord(0), spec.coord(1));
            let model = QueueModel::from_utilization(
                marginal.clone(),
                TruncatedPareto::new(theta, alpha, tc),
                MTV_UTILIZATION,
                b,
            );
            let (solution, state) = SolveSession::builder(&model)
                .options(&opts)
                .donor(donor)
                .solve_warm();
            (
                PointResult::from_solution(spec.index, &solution),
                Some(state),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_grid;
    use lrd_traffic::synth;

    #[test]
    fn ingested_fit_lands_near_the_nominal_parameters() {
        let f = fit(Profile::Quick);
        assert!(f.packets > 0);
        assert!(
            (f.hurst - synth::MTV_HURST).abs() < 0.15,
            "estimated H {} vs nominal {}",
            f.hurst,
            synth::MTV_HURST
        );
        assert!(f.alpha > 1.0 && f.alpha < 2.0, "alpha {}", f.alpha);
        assert!(f.theta > 0.0);
    }

    #[test]
    fn ingestion_is_deterministic_across_calls() {
        // Shards in separate processes must re-derive the identical
        // model; same-process double ingestion is the proxy we can pin.
        let a = fit(Profile::Quick);
        let b = fit(Profile::Quick);
        assert_eq!(a.hurst.to_bits(), b.hurst.to_bits());
        assert_eq!(a.theta.to_bits(), b.theta.to_bits());
        assert_eq!(a.packets, b.packets);
    }

    #[test]
    fn trace_driven_surface_shows_the_paper_phenomenology() {
        let corpus = Corpus::quick();
        let g = run_grid(&trace_loss_sweep(&corpus, Profile::Quick));
        g.validate();
        // Loss non-increasing in buffer, non-decreasing in cutoff —
        // the same shape as the nominal-parameter Fig. 4 surface.
        for j in 0..g.xs.len() {
            for i in 1..g.ys.len() {
                assert!(
                    g.values[i][j] <= g.values[i - 1][j] * 1.05 + 1e-12,
                    "loss increased with buffer at cutoff {}",
                    g.xs[j]
                );
            }
        }
        for i in 0..g.ys.len() {
            for j in 1..g.xs.len() {
                assert!(
                    g.values[i][j] >= g.values[i][j - 1] * 0.95 - 1e-12,
                    "loss decreased with cutoff at buffer {}",
                    g.ys[i]
                );
            }
        }
        assert!(g
            .values
            .iter()
            .flatten()
            .all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
    }
}
