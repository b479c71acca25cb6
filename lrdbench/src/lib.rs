//! `lrdbench`: the end-to-end and per-layer benchmark of the `lrd`
//! workspace.
//!
//! One command runs one of four workloads for a fixed number of
//! seconds, checks every output, and prints its metrics (see
//! `NOTES.md` for why each workload exists and what each metric should
//! move):
//!
//! * [`lattice`] — the fig04 + fig05 full-profile lattices through the
//!   sweep runner (warm starts and `par_map`);
//! * [`corner`] — the 27-corner footnote-1 survey as cold solves;
//! * [`ingest`] — two-pass out-of-core ingestion of a synthetic corpus;
//! * [`serve`] — the loss-bound daemon under an open-loop request mix.

pub mod corner;
pub mod ingest;
pub mod lattice;
pub mod reference;
pub mod report;
pub mod serve;
pub mod spans;
pub mod tally;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use lrd_obs::CollectingSubscriber;

use crate::report::{mean, median};
use crate::spans::Spans;
use crate::tally::Tally;

/// How many times each workload builds its inputs; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

/// Pool threads for the solver workloads (the benchmark host's core
/// count, pinned so the numbers do not follow the host).
pub const SOLVER_THREADS: usize = 2;

/// Scratch directory, relative to the working directory, for corpus
/// files, the daemon socket and the span dumps.
pub const OUT_DIR: &str = ".bench_out";

/// One run's settings.
pub struct Ctx {
    /// The workload seed: every input is a function of it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The benchmark's own spans (recording only when traced).
    pub spans: Spans,
    /// The program's telemetry, installed around traced passes.
    pub collector: Arc<CollectingSubscriber>,
}

impl Ctx {
    /// Settings for one run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            spans: Spans::new(trace),
            collector: Arc::new(CollectingSubscriber::new()),
        }
    }

    /// The scratch directory, created on demand.
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(OUT_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        Ok(dir)
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Duration of each untraced pass over the workload's fixed unit of
    /// work (s).
    pub pass_s: Vec<f64>,
    /// Duration of each traced pass (s); traced runs only.
    pub traced_pass_s: Vec<f64>,
    /// High-water RSS of the process doing the work during the timed
    /// phase (KiB).
    pub peak_rss_kib: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that produced no answer.
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Per-layer metrics the workload exercised (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check, keeping the first few messages.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            if self.errors.len() < 20 {
                self.errors.push(message());
            } else if self.errors.len() == 20 {
                self.errors
                    .push("further check failures omitted".to_string());
            }
        }
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        if self.setup_s.is_empty() || self.pass_s.is_empty() {
            return Err("no set-up or no pass was timed".to_string());
        }
        Ok(BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("wall_s", median(&self.pass_s)),
            ("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0),
        ]))
    }

    /// The per-layer metrics: what the workload measured, its tracing
    /// overhead, and 0 for every layer it does not exercise.
    pub fn per_layer(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut values: BTreeMap<&'static str, f64> =
            report::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        // Batch workloads compare their traced and untraced passes; the
        // serving workload measures its overhead itself.
        if !self.layers.contains_key("obs.overhead_share") {
            if self.traced_pass_s.is_empty() || self.pass_s.is_empty() {
                return Err("a traced run needs traced and untraced passes".to_string());
            }
            values.insert(
                "obs.overhead_share",
                mean(&self.traced_pass_s) / mean(&self.pass_s) - 1.0,
            );
        }
        for (name, value) in &self.layers {
            if !values.contains_key(name) {
                return Err(format!("workload measured unknown metric {name}"));
            }
            values.insert(name, *value);
        }
        Ok(values)
    }
}

/// Runs passes of a batch workload until `ctx.seconds` are used: a
/// pass starts only while the mean pass so far predicts it ends in
/// time, and at least `min_passes` run. `pass(index, traced)` does one
/// pass and returns its timed duration. Traced runs alternate
/// untraced and traced passes, collecting the program's telemetry over
/// the traced ones into the returned [`Tally`].
pub fn run_passes(
    ctx: &Ctx,
    out: &mut Outcome,
    min_passes: usize,
    mut pass: impl FnMut(u64, bool, &mut Outcome) -> f64,
) -> Tally {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut index = 0u64;
    loop {
        let done = out.pass_s.len() + out.traced_pass_s.len();
        if done >= min_passes {
            let all: Vec<f64> = out
                .pass_s
                .iter()
                .chain(&out.traced_pass_s)
                .copied()
                .collect();
            if started.elapsed().as_secs_f64() + mean(&all) > ctx.seconds {
                break;
            }
        }
        let traced = ctx.trace && index % 2 == 1;
        if traced {
            let guard = lrd_obs::install(ctx.collector.clone());
            let secs = pass(index, true, out);
            drop(guard);
            tally.absorb(Tally::drain(&ctx.collector));
            out.traced_pass_s.push(secs);
        } else {
            let secs = pass(index, false, out);
            out.pass_s.push(secs);
        }
        index += 1;
    }
    tally
}

/// Per-layer metrics of the solver layers (`fft`, `fluidq`, `pool`)
/// from a tally collected over the traced passes, counts and busy
/// times normalized per pass.
pub fn solver_layers(out: &mut Outcome, tally: &Tally, threads: usize) {
    let passes = out.traced_pass_s.len().max(1) as f64;
    let wall_s: f64 = out.traced_pass_s.iter().sum();
    let solve_s: f64 = tally.solve_us.iter().sum::<f64>() / 1e6;
    let fft_s = tally.conv_us / 1e6;
    let per_pass = [
        ("fft.conv_calls", tally.conv_calls as f64),
        ("fft.convs", tally.convs as f64),
        ("fft.busy_s", fft_s),
        ("fluidq.solves", tally.solve_us.len() as f64),
        ("fluidq.iterations", tally.iterations as f64),
        ("fluidq.refines", tally.refines as f64),
        ("fluidq.solve_busy_s", solve_s),
        ("fluidq.level_self_s", tally.level_us / 1e6 - fft_s),
        ("fluidq.unconverged", tally.unconverged as f64),
    ];
    for (name, total) in per_pass {
        out.layers.insert(name, total / passes);
    }
    out.layers.insert(
        "fft.conv_us_mean",
        if tally.conv_calls > 0 {
            tally.conv_us / tally.conv_calls as f64
        } else {
            0.0
        },
    );
    out.layers.insert("fluidq.max_bins", tally.max_bins as f64);
    out.layers.insert(
        "fluidq.solve_us_p50",
        report::layer_percentile("fluidq.solve_us_p50", &tally.solve_us, 0.5),
    );
    out.layers.insert(
        "fluidq.solve_us_p90",
        report::layer_percentile("fluidq.solve_us_p90", &tally.solve_us, 0.9),
    );
    out.layers.insert("pool.threads", threads as f64);
    if wall_s > 0.0 {
        out.layers
            .insert("pool.utilization", solve_s / (wall_s * threads as f64));
    }
}

/// Pins the calling thread (and the threads it starts later) to `cpu`.
/// Best effort: on a host with fewer CPUs the thread stays unpinned.
pub fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mask: [u64; 16] =
        std::array::from_fn(|word| if word == cpu / 64 { 1 << (cpu % 64) } else { 0 });
    // SAFETY: the mask outlives the call and its size is passed along;
    // pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Builds the global pool with `threads` threads, its workers pinned to
/// CPU 1 and the calling thread (which runs pool tasks too) to CPU 0,
/// so the two halves of every fork never share or trade a CPU.
pub fn pinned_pool(threads: usize) {
    lrd_pool::set_global_threads(threads);
    pin_to_cpu(1);
    lrd_pool::global();
    pin_to_cpu(0);
}

/// Peak RSS of this process (KiB) since the last reset.
pub fn peak_rss_kib() -> u64 {
    lrd_trace::peak_rss_kb().unwrap_or(0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
