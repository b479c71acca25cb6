//! The figure registry and the shared binary entry point.
//!
//! Every figure binary used to carry the same ~25-line `main` body
//! (parse flags, install telemetry, build the corpus, run the figure,
//! print the table, print the CSV, write the results files). That body
//! now lives here once: a binary is a three-line shim calling
//! [`figure_main`] with its registry name, and the registry
//! ([`FIGURES`]) is shared by the binaries, the merge tool and the
//! telemetry budget check (`examples/telemetry_check.rs`).
//!
//! Sweep-backed figures ([`FigureKind::Sweep`]) additionally support
//! `--shard i/n --checkpoint <path>`: the binary then solves only its
//! slice of the lattice, streams results to the checkpoint, and the
//! `sweep_merge` binary reassembles the full figure bit-identically to
//! a single-process run (see DESIGN.md §11).

use std::path::PathBuf;
use std::process::ExitCode;

use crate::cli::{self, RunConfig};
use crate::corpus::Corpus;
use crate::figures::{self, Profile};
use crate::output::{self, Grid};
use crate::sweep::{merge_checkpoints, run_points, FigureSweep, ShardSpec, SweepError};

/// Everything a figure run wants to show the user. The emit order and
/// channels are fixed: `table` and `notes` go to stderr, `csv` to
/// stdout (so sharded-merged and single-process runs can be
/// byte-diffed), and the results directory receives `<stem>.csv` plus
/// `<stem>.gp` when `gnuplot_grid` is present.
#[derive(Debug, Clone)]
pub struct FigureArtifacts {
    /// Human-readable table for stderr (grid figures).
    pub table: Option<String>,
    /// The machine-readable result; the only bytes on stdout.
    pub csv: String,
    /// Grid to render as a gnuplot script, when the figure is a
    /// surface.
    pub gnuplot_grid: Option<Grid>,
    /// Closing remarks for stderr (one line each).
    pub notes: Vec<String>,
}

impl FigureArtifacts {
    /// The standard artifacts for a surface figure: table, CSV and
    /// gnuplot script straight from the grid.
    pub fn from_grid(grid: Grid) -> FigureArtifacts {
        FigureArtifacts {
            table: Some(grid.to_table()),
            csv: grid.to_csv(),
            gnuplot_grid: Some(grid),
            notes: Vec::new(),
        }
    }
}

/// How a registered figure produces its artifacts.
pub enum FigureKind {
    /// A figure with bespoke execution (simulation, report, …): one
    /// function from corpus and profile to artifacts.
    Plain(for<'c> fn(&'c Corpus, Profile) -> FigureArtifacts),
    /// A lattice figure on the sweep pipeline — shardable, resumable
    /// and mergeable.
    Sweep {
        /// Builds the declarative sweep for this corpus and profile.
        build: for<'c> fn(&'c Corpus, Profile) -> FigureSweep<'c>,
        /// Turns the solved surface into artifacts (post-processing
        /// such as horizon extraction happens here, never inside the
        /// lattice).
        finish: fn(&Corpus, Profile, Grid) -> FigureArtifacts,
    },
}

/// One registry entry: a figure's name, provenance and runner.
pub struct FigureSpec {
    /// Registry/binary name, e.g. `"fig04_mtv_model"`.
    pub name: &'static str,
    /// What the figure shows (one line, for listings).
    pub paper: &'static str,
    /// Stem of the files written under `results/`.
    pub results_stem: &'static str,
    /// How the figure runs.
    pub kind: FigureKind,
    /// Exact `solver.solve` span count of an unsharded quick run —
    /// the telemetry budget `examples/telemetry_check.rs` enforces.
    pub quick_solves: u64,
    /// Exact `solver.solve` span count of an unsharded full run.
    pub full_solves: u64,
    /// Of [`FigureSpec::quick_solves`], how many points *have a lattice
    /// donor* under the plan's warm axis — the ceiling on spans that
    /// may legitimately carry `warm: true`. Whether an eligible point
    /// actually warm-certifies depends on the solved values (the donor
    /// must have certified zero loss), so this is an upper bound, not
    /// an exact count; sharded/resumed runs only ever fall below it.
    /// Zero for plain figures and sweeps with no warm axis.
    pub quick_warm_eligible: u64,
    /// Warm-eligible point count of an unsharded full run.
    pub full_warm_eligible: u64,
}

impl FigureSpec {
    /// The telemetry budget (exact `solver.solve` span count) for one
    /// profile.
    pub fn expected_solves(&self, profile: Profile) -> u64 {
        profile.pick(self.quick_solves, self.full_solves)
    }

    /// The warm-span ceiling (points with a lattice donor) for one
    /// profile.
    pub fn warm_eligible(&self, profile: Profile) -> u64 {
        profile.pick(self.quick_warm_eligible, self.full_warm_eligible)
    }

    /// Checks one capture's `solver.solve` span counts against this
    /// figure's budget: `solves` spans total, of which `warm` carried
    /// `warm: true`. The total must match exactly (duplicated or
    /// skipped solves are both regressions); the warm count may fall
    /// anywhere below the lattice-donor ceiling (shards and resumes run
    /// donor-less points cold) but can never exceed it.
    pub fn check_solve_budget(
        &self,
        profile: Profile,
        solves: u64,
        warm: u64,
    ) -> Result<(), BudgetError> {
        let expected = self.expected_solves(profile);
        if solves != expected {
            return Err(BudgetError::Solves {
                figure: self.name,
                profile,
                expected,
                found: solves,
            });
        }
        let max_warm = self.warm_eligible(profile);
        if warm > max_warm {
            return Err(BudgetError::WarmSolves {
                figure: self.name,
                profile,
                max_warm,
                found: warm,
            });
        }
        Ok(())
    }
}

/// A telemetry-budget violation, naming the offending figure and
/// profile (consumed by `examples/telemetry_check.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The capture's `solver.solve` span count differs from the
    /// registry budget.
    Solves {
        /// The figure whose budget was violated.
        figure: &'static str,
        /// The profile the budget was checked against.
        profile: Profile,
        /// The exact span count the registry demands.
        expected: u64,
        /// The span count the capture actually contains.
        found: u64,
    },
    /// More spans carried `warm: true` than the plan has donor-bearing
    /// points — warm starts appeared where the lattice provides no
    /// donor.
    WarmSolves {
        /// The figure whose budget was violated.
        figure: &'static str,
        /// The profile the budget was checked against.
        profile: Profile,
        /// The lattice-donor ceiling for this figure and profile.
        max_warm: u64,
        /// The warm span count the capture actually contains.
        found: u64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Solves {
                figure,
                profile,
                expected,
                found,
            } => write!(
                f,
                "{figure} ({}) budget violated: expected exactly {expected} \
                 solver.solve span(s), found {found}",
                profile.tag()
            ),
            BudgetError::WarmSolves {
                figure,
                profile,
                max_warm,
                found,
            } => write!(
                f,
                "{figure} ({}) warm budget violated: {found} solver.solve span(s) \
                 carry warm: true but the plan has only {max_warm} donor-bearing \
                 point(s)",
                profile.tag()
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

fn grid_finish(_corpus: &Corpus, _profile: Profile, grid: Grid) -> FigureArtifacts {
    FigureArtifacts::from_grid(grid)
}

fn fig02_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    let fig = figures::fig02::run(corpus, profile);
    // Companion solve to stationarity: exercises the full convergence
    // protocol (gap narrowing, grid refinement, mass check), so a
    // `--telemetry` run of this figure records the solver end to end.
    let sol = figures::fig02::stationary_bounds(corpus);
    FigureArtifacts {
        table: None,
        csv: figures::fig02::to_csv(&fig),
        gnuplot_grid: None,
        notes: vec![
            format!(
                "stationary bounds: loss in [{:.3e}, {:.3e}] after {} iterations \
                 ({} refinement{}, final M = {})",
                sol.lower,
                sol.upper,
                sol.iterations,
                sol.refinement_epochs.len(),
                if sol.refinement_epochs.len() == 1 { "" } else { "s" },
                sol.bins
            ),
            "Fig. 2 reproduced: occupancy-bound CDFs at n = 5, 10, 30 (M = 100); \
             the lower/upper pairs squeeze toward the stationary law."
                .to_string(),
        ],
    }
}

fn fig03_artifacts(corpus: &Corpus, _profile: Profile) -> FigureArtifacts {
    let series = figures::fig03::run(corpus);
    FigureArtifacts {
        table: None,
        csv: figures::fig03::to_csv(&series),
        gnuplot_grid: None,
        notes: vec![
            "Fig. 3 reproduced: MTV marginal is unimodal near its mean; \
             Bellcore marginal piles mass near idle with a heavy tail."
                .to_string(),
        ],
    }
}

fn fig06_artifacts(corpus: &Corpus, _profile: Profile) -> FigureArtifacts {
    let fig = figures::fig06::run(corpus);
    let block = figures::fig06::BLOCK;
    let note = format!(
        "Fig. 6 demonstrated: at lag {} (¼ block) the shuffled ACF retains {:.0}% \
         of the original; at lag {} (2 blocks) it retains {:.0}%.",
        block / 4,
        100.0 * fig.after[block / 4] / fig.before[block / 4].max(1e-12),
        2 * block,
        100.0 * fig.after[2 * block] / fig.before[2 * block].max(1e-12),
    );
    FigureArtifacts {
        table: None,
        csv: figures::fig06::to_csv(&fig),
        gnuplot_grid: None,
        notes: vec![note],
    }
}

fn fig07_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    FigureArtifacts::from_grid(figures::fig07_08::fig07(corpus, profile))
}

fn fig08_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    FigureArtifacts::from_grid(figures::fig07_08::fig08(corpus, profile))
}

fn fig09_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    let series = figures::fig09::run(corpus, profile);
    let last = |s: &crate::output::Series| s.points.last().unwrap().1;
    let note = format!(
        "Fig. 9 reproduced: at the largest cutoff, loss(MTV) = {:.3e}, loss(BC) = {:.3e} \
         — the marginal alone changes loss by orders of magnitude.",
        last(&series[0]),
        last(&series[1])
    );
    FigureArtifacts {
        table: None,
        csv: output::series_to_csv("cutoff_s", &series),
        gnuplot_grid: None,
        notes: vec![note],
    }
}

fn fig14_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    let fig = figures::fig14::run(corpus, profile);
    let mut csv = fig.grid.to_csv();
    csv.push_str("\nbuffer_s,empirical_ch_s\n");
    for &(b, h) in &fig.horizons {
        csv.push_str(&format!("{b},{h}\n"));
    }
    csv.push_str("\nbuffer_s,eq26_tch_s\n");
    for &(b, t) in &fig.predicted {
        csv.push_str(&format!("{b},{t}\n"));
    }
    let note = format!(
        "Fig. 14 reproduced: log-log fit of empirical CH vs buffer has slope {:.2} \
         (r² = {:.2}); Eq. 26 predicts exactly linear scaling.",
        fig.fit.slope, fig.fit.r_squared
    );
    FigureArtifacts {
        table: Some(fig.grid.to_table()),
        csv,
        gnuplot_grid: Some(fig.grid),
        notes: vec![note],
    }
}

fn ch_validation_finish(corpus: &Corpus, _profile: Profile, grid: Grid) -> FigureArtifacts {
    let v = figures::ch_validation::finish(corpus, &grid);
    let mut csv = String::from("buffer_s,empirical_ch_s,eq26_tch_s\n");
    for (e, p) in v.empirical.iter().zip(&v.predicted) {
        csv.push_str(&format!("{},{},{}\n", e.0, e.1, p.1));
    }
    let note = format!(
        "empirical CH vs buffer: log-log slope {:.2} (r² {:.2}); Eq. 26 is exactly linear.",
        v.fit.slope, v.fit.r_squared
    );
    FigureArtifacts {
        table: None,
        csv,
        gnuplot_grid: None,
        notes: vec![note],
    }
}

fn markov_baseline_artifacts(corpus: &Corpus, profile: Profile) -> FigureArtifacts {
    let series = figures::markov_baseline::run(corpus, profile);
    FigureArtifacts {
        table: None,
        csv: output::series_to_csv("buffer_s", &series),
        gnuplot_grid: None,
        notes: vec![
            "Extension: Markovian and LRD interval models agree for small buffers \
             (below the correlation horizon) and diverge as the buffer grows."
                .to_string(),
        ],
    }
}

fn trace_loss_finish(_corpus: &Corpus, profile: Profile, grid: Grid) -> FigureArtifacts {
    let mut artifacts = FigureArtifacts::from_grid(grid);
    let f = figures::trace_loss::fit(profile);
    artifacts.notes.push(format!(
        "out-of-core fit: {} packets streamed from disk -> H = {:.3} \
         (alpha = {:.3}), theta = {:.5} s, mean rate {:.3} Mb/s; the \
         trace-driven surface reproduces Fig. 4's correlation horizon \
         from estimated parameters.",
        f.packets, f.hurst, f.alpha, f.theta, f.mean_rate
    ));
    artifacts
}

fn corpus_report_artifacts(corpus: &Corpus, _profile: Profile) -> FigureArtifacts {
    let mut csv = String::from(
        "trace,samples,dt_s,mean_rate_mbps,std_mbps,target_h,wavelet_h,whittle_h,mean_epoch_s,theta_s\n",
    );
    for b in [&corpus.mtv, &corpus.bellcore] {
        let wavelet = lrd_stats::wavelet_estimate(b.trace.rates()).h;
        let whittle = lrd_stats::whittle_estimate(b.trace.rates()).h;
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.4},{},{:.3},{:.3},{:.4},{:.5}\n",
            b.name,
            b.trace.len(),
            b.trace.dt(),
            b.trace.mean_rate(),
            lrd_stats::std_dev(b.trace.rates()),
            b.hurst,
            wavelet,
            whittle,
            b.mean_epoch,
            b.theta,
        ));
    }
    FigureArtifacts {
        table: None,
        csv,
        gnuplot_grid: None,
        notes: Vec::new(),
    }
}

/// Every registered figure, in paper order. The `runtime_report`
/// binary stays outside the registry: it is an instrumentation
/// harness (it installs its own collecting subscriber), not a figure.
pub static FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "fig02_bounds",
        paper: "Fig. 2: convergence of the discrete occupancy bounds",
        results_stem: "fig02_bounds",
        kind: FigureKind::Plain(fig02_artifacts),
        quick_solves: 1,
        full_solves: 1,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig03_marginals",
        paper: "Fig. 3: marginal rate distributions of both traces",
        results_stem: "fig03_marginals",
        kind: FigureKind::Plain(fig03_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig04_mtv_model",
        paper: "Fig. 4: model loss vs (buffer, cutoff), MTV at utilization 0.8",
        results_stem: "fig04_mtv_model",
        kind: FigureKind::Sweep {
            build: figures::fig04_05::fig04_sweep,
            finish: grid_finish,
        },
        quick_solves: 12,
        full_solves: 56,
        quick_warm_eligible: 8,
        full_warm_eligible: 48,
    },
    FigureSpec {
        name: "fig05_bc_model",
        paper: "Fig. 5: model loss vs (buffer, cutoff), Bellcore at utilization 0.4",
        results_stem: "fig05_bc_model",
        kind: FigureKind::Sweep {
            build: figures::fig04_05::fig05_sweep,
            finish: grid_finish,
        },
        quick_solves: 12,
        full_solves: 56,
        quick_warm_eligible: 8,
        full_warm_eligible: 48,
    },
    FigureSpec {
        name: "fig06_shuffle_demo",
        paper: "Fig. 6: external shuffling demonstrated on the MTV-like trace",
        results_stem: "fig06_shuffle_demo",
        kind: FigureKind::Plain(fig06_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig07_mtv_shuffle",
        paper: "Fig. 7: shuffle-simulation loss vs (buffer, cutoff), MTV",
        results_stem: "fig07_mtv_shuffle",
        kind: FigureKind::Plain(fig07_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig08_bc_shuffle",
        paper: "Fig. 8: shuffle-simulation loss vs (buffer, cutoff), Bellcore",
        results_stem: "fig08_bc_shuffle",
        kind: FigureKind::Plain(fig08_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig09_marginal_compare",
        paper: "Fig. 9: loss vs cutoff for the two marginals, all else equal",
        results_stem: "fig09_marginal_compare",
        kind: FigureKind::Plain(fig09_artifacts),
        quick_solves: 8,
        full_solves: 18,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig10_hurst_vs_scaling",
        paper: "Fig. 10: loss vs (Hurst, marginal scaling), MTV",
        results_stem: "fig10_hurst_vs_scaling",
        kind: FigureKind::Sweep {
            build: figures::fig10_11::fig10_sweep,
            finish: grid_finish,
        },
        quick_solves: 9,
        full_solves: 25,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig11_hurst_vs_multiplex",
        paper: "Fig. 11: loss vs (Hurst, superposed streams), MTV",
        results_stem: "fig11_hurst_vs_multiplex",
        kind: FigureKind::Sweep {
            build: figures::fig10_11::fig11_sweep,
            finish: grid_finish,
        },
        quick_solves: 9,
        full_solves: 50,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "fig12_mtv_buffer_scaling",
        paper: "Fig. 12: loss vs (buffer, marginal scaling), MTV, T_c = ∞",
        results_stem: "fig12_mtv_buffer_scaling",
        kind: FigureKind::Sweep {
            build: figures::fig12_13::fig12_sweep,
            finish: grid_finish,
        },
        quick_solves: 9,
        full_solves: 35,
        quick_warm_eligible: 6,
        full_warm_eligible: 30,
    },
    FigureSpec {
        name: "fig13_bc_buffer_scaling",
        paper: "Fig. 13: loss vs (buffer, marginal scaling), Bellcore, T_c = ∞",
        results_stem: "fig13_bc_buffer_scaling",
        kind: FigureKind::Sweep {
            build: figures::fig12_13::fig13_sweep,
            finish: grid_finish,
        },
        quick_solves: 9,
        full_solves: 35,
        quick_warm_eligible: 6,
        full_warm_eligible: 30,
    },
    FigureSpec {
        name: "fig14_ch_scaling",
        paper: "Fig. 14: correlation horizon scales linearly with buffer",
        results_stem: "fig14_ch_scaling",
        kind: FigureKind::Plain(fig14_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "ch_validation",
        paper: "Extension: Eq. 26 correlation-horizon validation via the solver",
        results_stem: "ch_validation",
        kind: FigureKind::Sweep {
            build: figures::ch_validation::ch_validation_sweep,
            finish: ch_validation_finish,
        },
        quick_solves: 24,
        full_solves: 91,
        quick_warm_eligible: 16,
        full_warm_eligible: 78,
    },
    FigureSpec {
        name: "markov_baseline",
        paper: "Extension: truncated-Pareto vs mean-matched exponential intervals",
        results_stem: "markov_baseline",
        kind: FigureKind::Plain(markov_baseline_artifacts),
        quick_solves: 8,
        full_solves: 16,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
    FigureSpec {
        name: "trace_loss",
        paper: "Extension: loss vs (buffer, cutoff) fitted from an out-of-core packet trace",
        results_stem: "trace_loss",
        kind: FigureKind::Sweep {
            build: figures::trace_loss::trace_loss_sweep,
            finish: trace_loss_finish,
        },
        quick_solves: 12,
        full_solves: 35,
        quick_warm_eligible: 8,
        full_warm_eligible: 28,
    },
    FigureSpec {
        name: "corpus_report",
        paper: "Corpus statistics table for EXPERIMENTS.md",
        results_stem: "corpus",
        kind: FigureKind::Plain(corpus_report_artifacts),
        quick_solves: 0,
        full_solves: 0,
        quick_warm_eligible: 0,
        full_warm_eligible: 0,
    },
];

/// Looks a figure up by registry name.
pub fn find_figure(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|spec| spec.name == name)
}

/// Why a figure run failed after a valid command line.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The requested figure is not in the registry (reachable through
    /// `sweep_merge` on a checkpoint naming an unknown figure).
    UnknownFigure(String),
    /// A checkpoint manifest names a profile tag the registry cannot
    /// parse.
    UnknownProfile(String),
    /// `--shard`/`--checkpoint` on a figure that is not sweep-backed.
    ShardUnsupported(&'static str),
    /// `--shard i/n` with `n > 1` but no `--checkpoint`: a shard's
    /// only output is its checkpoint file, so running one without a
    /// path would discard the work.
    ShardWithoutCheckpoint,
    /// The sweep layer failed (I/O, malformed or mismatched
    /// checkpoints).
    Sweep(SweepError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownFigure(name) => write!(f, "unknown figure `{name}`"),
            RunError::UnknownProfile(tag) => write!(f, "unknown profile tag `{tag}`"),
            RunError::ShardUnsupported(name) => write!(
                f,
                "{name} is not a sweep figure; --shard/--checkpoint are not supported"
            ),
            RunError::ShardWithoutCheckpoint => {
                write!(f, "--shard requires --checkpoint <path> (the shard's output)")
            }
            RunError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SweepError> for RunError {
    fn from(e: SweepError) -> RunError {
        RunError::Sweep(e)
    }
}

fn emit(spec: &FigureSpec, artifacts: &FigureArtifacts) {
    if let Some(table) = &artifacts.table {
        eprintln!("{table}");
    }
    print!("{}", artifacts.csv);
    match output::write_results_file(&format!("{}.csv", spec.results_stem), &artifacts.csv) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
    if let Some(grid) = &artifacts.gnuplot_grid {
        let gp = crate::gnuplot::grid_to_gnuplot(grid, spec.results_stem, spec.results_stem);
        match output::write_results_file(&format!("{}.gp", spec.results_stem), &gp) {
            Ok(p) => eprintln!("wrote {} (render with gnuplot)", p.display()),
            Err(e) => eprintln!("could not write gnuplot script: {e}"),
        }
    }
    for note in &artifacts.notes {
        eprintln!("{note}");
    }
}

/// Runs one registered figure under a parsed configuration: the whole
/// historical binary body behind one call.
///
/// * Plain figures reject `--shard`/`--checkpoint` with a typed error.
/// * Sweep figures with `--shard i/n` (n > 1) solve only their
///   round-robin slice, stream it to the
///   required `--checkpoint`, print a shard summary to stderr and emit
///   **no** artifacts; the full figure appears when `sweep_merge`
///   assembles all shards.
/// * Sweep figures without `--shard` run the full lattice (optionally
///   checkpointed/resumed) and emit artifacts identical to the
///   pre-sweep implementation.
pub fn run_figure(spec: &FigureSpec, config: &RunConfig) -> Result<(), RunError> {
    let profile = if config.quick { Profile::Quick } else { Profile::Full };
    let corpus = if config.quick { Corpus::quick() } else { Corpus::full() };

    match &spec.kind {
        FigureKind::Plain(runner) => {
            if config.shard.is_some() || config.checkpoint.is_some() {
                return Err(RunError::ShardUnsupported(spec.name));
            }
            emit(spec, &runner(&corpus, profile));
            Ok(())
        }
        FigureKind::Sweep { build, finish } => {
            let sweep = build(&corpus, profile);
            let shard = config.shard.unwrap_or(ShardSpec::FULL);
            if !shard.is_full() {
                let Some(path) = config.checkpoint.as_deref() else {
                    return Err(RunError::ShardWithoutCheckpoint);
                };
                let results = run_points(&sweep, &shard, Some(path))?;
                eprintln!(
                    "shard {shard} of {}: {} of {} lattice points solved -> {} \
                     (assemble the figure with sweep_merge)",
                    spec.name,
                    results.len(),
                    sweep.plan.len(),
                    path.display()
                );
                Ok(())
            } else {
                let results = run_points(&sweep, &ShardSpec::FULL, config.checkpoint.as_deref())?;
                let grid = sweep.plan.to_grid(&results);
                emit(spec, &finish(&corpus, profile, grid));
                Ok(())
            }
        }
    }
}

/// Merges a complete set of shard checkpoints and emits the figure
/// exactly as an unsharded run would have — same stdout bytes, same
/// results files.
///
/// The figure and profile come from the (cross-validated) manifests;
/// the plan is rebuilt from the registry and its hash must match the
/// one the shards were solved under, so artifacts can never be
/// assembled from a stale or foreign checkpoint set.
pub fn run_merge(paths: &[PathBuf]) -> Result<(), RunError> {
    let merged = merge_checkpoints(paths)?;
    let spec = find_figure(&merged.manifest.figure)
        .ok_or_else(|| RunError::UnknownFigure(merged.manifest.figure.clone()))?;
    let profile = Profile::from_tag(&merged.manifest.profile)
        .ok_or_else(|| RunError::UnknownProfile(merged.manifest.profile.clone()))?;
    let FigureKind::Sweep { build, finish } = &spec.kind else {
        return Err(RunError::ShardUnsupported(spec.name));
    };
    let corpus = match profile {
        Profile::Quick => Corpus::quick(),
        Profile::Full => Corpus::full(),
    };
    let sweep = build(&corpus, profile);
    let expected = sweep.plan.hash_hex();
    if expected != merged.manifest.plan_hash {
        return Err(RunError::Sweep(SweepError::PlanHashMismatch {
            expected,
            found: merged.manifest.plan_hash.clone(),
        }));
    }
    let grid = sweep.plan.to_grid(&merged.results);
    eprintln!(
        "merged {} shards ({} points, {} total solver iterations)",
        merged.manifest.shard.count,
        merged.results.len(),
        merged.total_iterations()
    );
    emit(spec, &finish(&corpus, profile, grid));
    Ok(())
}

/// The shared `main` body of every figure binary: parse the shared
/// flags, install telemetry, run the named figure, map failures to a
/// nonzero exit.
pub fn figure_main(name: &str) -> ExitCode {
    let config = cli::run_config();
    let _telemetry = match config.install_telemetry() {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = find_figure(name) else {
        eprintln!("error: unknown figure `{name}`");
        return ExitCode::FAILURE;
    };
    match run_figure(spec, &config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for spec in FIGURES {
            assert!(std::ptr::eq(find_figure(spec.name).unwrap(), spec));
        }
        let mut names: Vec<&str> = FIGURES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "duplicate registry names");
        assert!(find_figure("runtime_report").is_none());
    }

    #[test]
    fn sweep_budgets_match_their_plans() {
        // For sweep figures the telemetry budget must equal the
        // lattice size — one solver.solve span per point.
        let corpus = Corpus::quick();
        for spec in FIGURES {
            if let FigureKind::Sweep { build, .. } = &spec.kind {
                for profile in [Profile::Quick, Profile::Full] {
                    let sweep = build(&corpus, profile);
                    assert_eq!(
                        sweep.plan.len() as u64,
                        spec.expected_solves(profile),
                        "{} {:?}",
                        spec.name,
                        profile
                    );
                    assert_eq!(sweep.plan.figure, spec.name, "plan/registry name drift");
                    assert_eq!(sweep.plan.profile, profile);
                    // The warm ceiling must equal the number of
                    // donor-bearing lattice points.
                    let donors = (0..sweep.plan.len())
                        .filter(|&i| sweep.plan.donor(i).is_some())
                        .count() as u64;
                    assert_eq!(
                        donors,
                        spec.warm_eligible(profile),
                        "{} {:?} warm ceiling",
                        spec.name,
                        profile
                    );
                }
            }
        }
    }

    #[test]
    fn plain_figures_reject_shard_flags() {
        let spec = find_figure("fig03_marginals").unwrap();
        let config = RunConfig {
            quick: true,
            shard: ShardSpec::new(0, 2),
            checkpoint: Some(PathBuf::from("unused.jsonl")),
            ..RunConfig::default()
        };
        assert_eq!(
            run_figure(spec, &config),
            Err(RunError::ShardUnsupported("fig03_marginals"))
        );
    }

    #[test]
    fn sharding_requires_a_checkpoint() {
        let spec = find_figure("fig04_mtv_model").unwrap();
        let config = RunConfig {
            quick: true,
            shard: ShardSpec::new(0, 2),
            ..RunConfig::default()
        };
        assert_eq!(
            run_figure(spec, &config),
            Err(RunError::ShardWithoutCheckpoint)
        );
    }
}
