//! Shard execution: fan a plan's points through the worker pool,
//! streaming completed results to a resumable checkpoint.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::output::Grid;
use crate::sweep::checkpoint::open_checkpoint;
use crate::sweep::{point_line, PointResult, PointSpec, ShardSpec, SweepError, SweepPlan};
use lrd_fluidq::WarmState;

/// How many points are solved between checkpoint flushes. Small enough
/// that a killed run loses at most a few seconds of work on quick
/// profiles; large enough that the write amortises across a `par_map`
/// batch.
pub const CHECKPOINT_CHUNK: usize = 8;

/// How many times a transient checkpoint-append failure is attempted
/// before the shard aborts with [`SweepError::Io`].
const APPEND_ATTEMPTS: u32 = 5;

/// A runnable sweep: the declarative [`SweepPlan`] plus the function
/// that solves one lattice point.
///
/// Figure modules expose `*_sweep(corpus, profile)` constructors that
/// borrow the corpus (hence the lifetime) and capture everything a
/// point solve needs; the runner never inspects the closure, so every
/// figure-specific detail stays in its module.
pub struct FigureSweep<'a> {
    /// The declarative plan: axes, order, hash.
    pub plan: SweepPlan,
    /// Solves one point, optionally seeded by the warm state of its
    /// lattice donor ([`SweepPlan::donor`]), and exports this point's
    /// own warm state for downstream neighbours (`None` when the
    /// figure does not participate in warm starts). Must be
    /// deterministic and — given the same donor — independent across
    /// points; the runner fans it through [`lrd_pool::par_map`]. The
    /// solved **values** must not depend on the donor at all: the
    /// solver's warm path guarantees bit-identical bounds, and the
    /// merge layer asserts it.
    #[allow(clippy::type_complexity)]
    pub solve: Box<dyn Fn(&PointSpec, Option<&WarmState>) -> (PointResult, Option<WarmState>) + Sync + 'a>,
}

impl std::fmt::Debug for FigureSweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigureSweep")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// Solves one point while watching its `solver.solve` telemetry span,
/// stamping the summed span duration into the result. No new
/// stopwatch: the timing is the one the solver's own span already
/// measures, captured thread-locally (so it composes with `par_map`
/// workers and any installed telemetry sink). Durations are a timing
/// record only — they never influence the solved values.
fn solve_timed(
    sweep: &FigureSweep<'_>,
    spec: &PointSpec,
    donor: Option<&WarmState>,
) -> (PointResult, Option<WarmState>) {
    let ((mut result, state), dur) =
        lrd_obs::watch_span("solver.solve", || (sweep.solve)(spec, donor));
    result.solve_us = dur;
    if let Some(us) = dur {
        // The per-point duration stream: quantiles in the summary sink.
        lrd_obs::histogram("sweep.solve_us", us);
    }
    (result, state)
}

/// Whether lattice warm-starting is enabled (the default).
/// `LRD_WARM=off|0|none|cold` forces every point to solve cold — the
/// lever behind the pinned cold-baseline telemetry in
/// `results/telemetry/` and quick A/B comparisons. Values are
/// bit-identical either way (the solver's warm-path contract), so the
/// knob only moves iteration counts. Read once; mirrors `LRD_SIMD`.
fn warm_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("LRD_WARM").as_deref(),
            Ok("off" | "0" | "none" | "cold")
        )
    })
}

/// The warm states harvested so far within one shard run, keyed by
/// point index. Feeding a chunk through [`WarmPool::solve_chunk`] looks
/// up each point's plan-fixed donor among the already-harvested states
/// — a donor not in the pool (first wave, resumed from a checkpoint,
/// owned by another shard, or sharing the current chunk) simply seeds
/// nothing and the point runs cold.
///
/// Determinism: the pool's contents at each chunk boundary are a pure
/// function of the chunk partition, which the callers derive from the
/// plan and the resume state alone — never from thread scheduling. The
/// solver guarantees warm and cold solves agree bitwise on values, so
/// even partitions that disagree (different shard splits) merge
/// bit-identically; only iteration counts differ.
struct WarmPool {
    states: HashMap<usize, WarmState>,
}

impl WarmPool {
    /// An empty pool — every first point of a partition runs cold.
    fn new() -> WarmPool {
        WarmPool {
            states: HashMap::new(),
        }
    }

    /// Solves one chunk through the worker pool, seeding each point
    /// from its donor when already harvested, then harvests the
    /// chunk's own exported states.
    fn solve_chunk(
        &mut self,
        sweep: &FigureSweep<'_>,
        chunk: &[PointSpec],
        timed: bool,
    ) -> Vec<PointResult> {
        let states = &self.states;
        let warm = warm_enabled();
        let solved = lrd_pool::par_map(chunk, |spec| {
            let donor = if warm {
                sweep.plan.donor(spec.index).and_then(|d| states.get(&d))
            } else {
                None
            };
            if timed {
                solve_timed(sweep, spec, donor)
            } else {
                (sweep.solve)(spec, donor)
            }
        });
        let mut results = Vec::with_capacity(solved.len());
        for (result, state) in solved {
            if let Some(state) = state {
                self.states.insert(result.index, state);
            }
            results.push(result);
        }
        results
    }
}

/// Splits `specs` (stable-index order) into execution chunks of at
/// most `cap` points that never straddle a wavefront boundary
/// ([`SweepPlan::wave_of`]) — so by the time a chunk starts, every
/// in-partition donor of its points has been solved and harvested.
/// Plans without a warm axis form a single wave and this degenerates
/// to plain `chunks(cap)`.
fn wave_chunks<'p>(
    plan: &SweepPlan,
    specs: &'p [PointSpec],
    cap: usize,
) -> Vec<&'p [PointSpec]> {
    let mut chunks = Vec::new();
    let mut rest = specs;
    while let Some(first) = rest.first() {
        let wave = plan.wave_of(first.index);
        let len = rest
            .iter()
            .position(|s| plan.wave_of(s.index) != wave)
            .unwrap_or(rest.len());
        let (head, tail) = rest.split_at(len);
        for chunk in head.chunks(cap.max(1)) {
            chunks.push(chunk);
        }
        rest = tail;
    }
    chunks
}

/// Whether an I/O failure is worth retrying: the kernel interrupted or
/// back-pressured the write, or the disk is (possibly momentarily)
/// full. Anything else — permissions, a vanished file, a read-only
/// mount — will not get better by waiting.
fn is_transient(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::Interrupted
            | ErrorKind::WouldBlock
            | ErrorKind::StorageFull
            | ErrorKind::QuotaExceeded
            | ErrorKind::ResourceBusy
    )
}

/// Runs `op` up to [`APPEND_ATTEMPTS`] times, sleeping an
/// exponentially-growing backoff between attempts and emitting a
/// `sweep.checkpoint_retry` warning event per retry. Only transient
/// failures ([`is_transient`]) are retried; hard failures and an
/// exhausted budget surface as [`SweepError::Io`].
fn retry_transient(
    path: &Path,
    what: &str,
    mut op: impl FnMut() -> std::io::Result<()>,
) -> Result<(), SweepError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) if attempt + 1 < APPEND_ATTEMPTS && is_transient(e.kind()) => {
                attempt += 1;
                eprintln!(
                    "warning: {}: transient {what} failure ({e}); retrying \
                     (attempt {attempt} of {})",
                    path.display(),
                    APPEND_ATTEMPTS - 1,
                );
                lrd_obs::event!(
                    "sweep.checkpoint_retry",
                    path = path.display().to_string(),
                    what = what.to_string(),
                    attempt = u64::from(attempt),
                    error = e.to_string(),
                );
                std::thread::sleep(std::time::Duration::from_millis(1u64 << attempt));
            }
            Err(e) => return Err(SweepError::io(path, &e)),
        }
    }
}

/// Appends `text` to an open checkpoint handle with bounded retries.
/// A failed attempt may have written a partial line; each retry first
/// truncates back to the pre-append length so the file never
/// accumulates torn middles — the retried append starts on the same
/// clean boundary.
fn append_with_retry(
    file: &mut File,
    path: &Path,
    text: &str,
) -> Result<(), SweepError> {
    let start = file.metadata().map_err(|e| SweepError::io(path, &e))?.len();
    retry_transient(path, "checkpoint append", || {
        if file.metadata()?.len() != start {
            file.set_len(start)?;
        }
        file.write_all(text.as_bytes())?;
        file.flush()
    })
}

/// Runs `shard` of the sweep, returning its results in stable-index
/// order.
///
/// Execution follows the plan's deterministic wavefront schedule: the
/// shard's points run in stable-index order, chunked so no chunk
/// straddles a warm-axis wave boundary, and each point is seeded by
/// its plan-fixed donor's [`WarmState`] when that donor was solved
/// earlier in this run ([`SweepPlan::donor`]; donors outside the
/// shard, inside the current chunk, or resumed from a checkpoint seed
/// nothing and the point runs cold). For plans without a warm axis
/// this is exactly the old behaviour: without a checkpoint the points
/// fan through [`lrd_pool::par_map`] in one batch. With a checkpoint,
/// completed points are appended in [`CHECKPOINT_CHUNK`]-sized batches as
/// they finish — each point line carrying its measured `solver.solve`
/// duration — and a pre-existing file from an
/// interrupted run is **resumed**: its manifest is validated against
/// the plan (figure, plan hash, profile, shard, lattice size — any
/// disagreement is a typed [`SweepError::ManifestMismatch`]), its
/// intact points are kept without re-solving, and a torn final line
/// from a mid-write kill is dropped and re-solved. A file whose
/// *manifest* line is torn (the producer was killed before its first
/// flush, so the file holds no solved work) is discarded with a
/// warning and the shard starts fresh. Fresh manifests are fsynced
/// before the first point append, and appends themselves retry
/// transient I/O failures with backoff before giving up. Solved values
/// are bit-identical whether a shard ran straight through, was killed
/// and resumed, or never checkpointed at all.
pub fn run_points(
    sweep: &FigureSweep<'_>,
    shard: &ShardSpec,
    checkpoint: Option<&Path>,
) -> Result<Vec<PointResult>, SweepError> {
    let owned = sweep.plan.points_for(shard);

    let Some(path) = checkpoint else {
        // No checkpoint: one `par_map` batch per wavefront (a single
        // batch for cold plans), threading warm states between waves.
        let mut pool = WarmPool::new();
        let mut results = Vec::with_capacity(owned.len());
        for chunk in wave_chunks(&sweep.plan, &owned, usize::MAX) {
            results.extend(pool.solve_chunk(sweep, chunk, false));
        }
        return Ok(results);
    };

    let (mut done, mut file) = open_checkpoint(path, &sweep.plan, shard)?;

    let remaining: Vec<PointSpec> = owned
        .into_iter()
        .filter(|spec| !done.contains_key(&spec.index))
        .collect();

    // Points resumed from the checkpoint carry no warm state (only
    // their values were persisted), so their lattice dependents run
    // cold — deterministically, because the resume set is fixed before
    // any solving starts.
    let mut pool = WarmPool::new();
    for chunk in wave_chunks(&sweep.plan, &remaining, CHECKPOINT_CHUNK) {
        let results = pool.solve_chunk(sweep, chunk, true);
        let mut text = String::new();
        for (spec, result) in chunk.iter().zip(&results) {
            debug_assert_eq!(spec.index, result.index, "solve must preserve the index");
            text.push_str(&point_line(&spec.coords, result));
            text.push('\n');
        }
        append_with_retry(&mut file, path, &text)?;
        for result in results {
            done.insert(result.index, result);
        }
    }
    Ok(done.into_values().collect())
}

/// Runs the full (unsharded, uncheckpointed) sweep and assembles the
/// surface — the path every in-process figure call takes.
pub fn run_grid(sweep: &FigureSweep<'_>) -> Grid {
    let results =
        run_points(sweep, &ShardSpec::FULL, None).expect("uncheckpointed run cannot fail on I/O");
    sweep.plan.to_grid(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Profile;
    use crate::sweep::{manifest_line, Axis};
    use lrd_fluidq::SolverOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sweep() -> FigureSweep<'static> {
        let plan = SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "loss_rate",
            Axis::new("b", vec![0.1, 1.0, 10.0]),
            Axis::new("tc", vec![0.5, 5.0, f64::INFINITY]),
            SolverOptions::sweep_profile(),
        );
        FigureSweep {
            plan,
            solve: Box::new(|spec: &PointSpec, _donor| {
                (
                    PointResult {
                        index: spec.index,
                        value: spec.coords[0].min(spec.coords[1]) / 3.0,
                        iterations: 5,
                        bins: 128,
                        converged: true,
                        solve_us: None,
                    },
                    None,
                )
            }),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lrd-runner-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.jsonl")
    }

    #[test]
    fn grid_matches_direct_solve() {
        let s = sweep();
        let g = run_grid(&s);
        g.validate();
        assert_eq!(g.values[2][2], 10.0f64.min(f64::INFINITY) / 3.0);
    }

    #[test]
    fn checkpointed_shard_matches_plain_run_bitwise() {
        let s = sweep();
        let shard = ShardSpec::new(1, 2).unwrap();
        let plain = run_points(&s, &shard, None).unwrap();
        let path = tmp("bitwise");
        let _ = std::fs::remove_file(&path);
        let checkpointed = run_points(&s, &shard, Some(&path)).unwrap();
        assert_eq!(plain.len(), checkpointed.len());
        for (a, b) in plain.iter().zip(&checkpointed) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        // Re-running over the finished checkpoint solves nothing and
        // returns the identical surface.
        let again = run_points(&s, &shard, Some(&path)).unwrap();
        assert_eq!(checkpointed, again);
    }

    #[test]
    fn checkpointed_run_records_solver_span_durations() {
        let plan = sweep().plan;
        let spanning = FigureSweep {
            plan: plan.clone(),
            solve: Box::new(move |spec: &PointSpec, _donor| {
                let _span = lrd_obs::span!("solver.solve");
                (
                    PointResult {
                        index: spec.index,
                        value: spec.index as f64,
                        iterations: 1,
                        bins: 128,
                        converged: true,
                        solve_us: None,
                    },
                    None,
                )
            }),
        };
        // Uncheckpointed: no watcher, durations stay None.
        let plain = run_points(&spanning, &ShardSpec::FULL, None).unwrap();
        assert!(plain.iter().all(|r| r.solve_us.is_none()));
        // Checkpointed: every point carries its measured span duration.
        let path = tmp("durations");
        let _ = std::fs::remove_file(&path);
        let timed = run_points(&spanning, &ShardSpec::FULL, Some(&path)).unwrap();
        assert!(timed.iter().all(|r| r.solve_us.is_some_and(|d| d >= 0.0)));
        // …and the values are unchanged by the timing.
        for (a, b) in plain.iter().zip(&timed) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// A warm sweep whose stub closure exports a (cloned, real) solver
    /// state for every point and records which points received a
    /// donor, so the tests below can pin the wavefront wiring without
    /// re-proving the solver's warm/cold bit-identity (the fluidq
    /// suite owns that).
    fn warm_sweep(warmed: &std::sync::Mutex<Vec<usize>>) -> FigureSweep<'_> {
        use crate::corpus::{Corpus, MTV_UTILIZATION};
        let corpus = Corpus::quick();
        let opts = SolverOptions::sweep_profile();
        let (_, state) =
            lrd_fluidq::SolveSession::builder(&corpus.mtv.model(MTV_UTILIZATION, 0.1, 0.05))
                .options(&opts)
                .solve_warm();
        let plan = SweepPlan::grid_plan(
            "warmdemo",
            Profile::Quick,
            "v",
            Axis::new("b", vec![1.0, 2.0, 3.0]),
            Axis::new("tc", vec![0.5, 5.0]),
            opts,
        )
        .with_warm_axis(0);
        FigureSweep {
            plan,
            solve: Box::new(move |spec: &PointSpec, donor| {
                if donor.is_some() {
                    warmed.lock().unwrap().push(spec.index);
                }
                (
                    PointResult {
                        index: spec.index,
                        value: spec.index as f64,
                        iterations: 1,
                        bins: 128,
                        converged: true,
                        solve_us: None,
                    },
                    Some(state.clone()),
                )
            }),
        }
    }

    fn drain_sorted(warmed: &std::sync::Mutex<Vec<usize>>) -> Vec<usize> {
        let mut seen: Vec<usize> = std::mem::take(&mut *warmed.lock().unwrap());
        seen.sort_unstable();
        seen
    }

    #[test]
    fn wavefront_threads_donors_between_waves() {
        let warmed = std::sync::Mutex::new(Vec::new());
        let s = warm_sweep(&warmed);

        // Full run: only the first buffer wave (indices 0, 1) is cold.
        run_points(&s, &ShardSpec::FULL, None).unwrap();
        assert_eq!(drain_sorted(&warmed), vec![2, 3, 4, 5]);

        // A shard: donors outside it seed nothing. Shard 0/2 owns
        // {0, 2, 4}, so donor(2)=0 and donor(4)=2 are in-shard; shard
        // 0/3 owns {0, 3} and donor(3)=1 is not — deterministically cold.
        run_points(&s, &ShardSpec::new(0, 2).unwrap(), None).unwrap();
        assert_eq!(drain_sorted(&warmed), vec![2, 4]);
        run_points(&s, &ShardSpec::new(0, 3).unwrap(), None).unwrap();
        assert_eq!(drain_sorted(&warmed), Vec::<usize>::new());
    }

    #[test]
    fn resumed_points_donate_nothing() {
        let warmed = std::sync::Mutex::new(Vec::new());
        let s = warm_sweep(&warmed);
        let path = tmp("warm-resume");
        let _ = std::fs::remove_file(&path);

        // Simulate an interrupted run that had solved point 0 only.
        let full = run_points(&s, &ShardSpec::FULL, None).unwrap();
        drain_sorted(&warmed);
        let mut text = manifest_line(&s.plan, &ShardSpec::FULL);
        text.push('\n');
        text.push_str(&point_line(&s.plan.point(0).coords, &full[0]));
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        // On resume, point 2's donor (0) came from the checkpoint and
        // carries no state — it runs cold; everything downstream of
        // this run's own solves still warms.
        let resumed = run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();
        assert_eq!(drain_sorted(&warmed), vec![3, 4, 5]);
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.iter().zip(&resumed) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn wave_chunks_never_straddle_wave_boundaries() {
        let plan = SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "v",
            Axis::new("b", vec![1.0, 2.0, 3.0]),
            Axis::new("tc", (0..5).map(f64::from).collect()),
            SolverOptions::sweep_profile(),
        )
        .with_warm_axis(0);
        let specs = plan.points_for(&ShardSpec::FULL);
        // cap 4 < wave size 5: each 5-point wave splits 4 + 1.
        let chunks = wave_chunks(&plan, &specs, 4);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![4, 1, 4, 1, 4, 1]);
        for chunk in &chunks {
            let wave = plan.wave_of(chunk[0].index);
            assert!(chunk.iter().all(|s| plan.wave_of(s.index) == wave));
        }
        // Chunking covers every point exactly once, in order.
        let flat: Vec<usize> = chunks.iter().flat_map(|c| c.iter().map(|s| s.index)).collect();
        assert_eq!(flat, (0..plan.len()).collect::<Vec<_>>());

        // A cold plan is one wave: the unbounded cap yields one batch.
        let cold = SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "v",
            Axis::new("b", vec![1.0, 2.0, 3.0]),
            Axis::new("tc", (0..5).map(f64::from).collect()),
            SolverOptions::sweep_profile(),
        );
        assert_eq!(wave_chunks(&cold, &specs, usize::MAX).len(), 1);
    }

    #[test]
    fn torn_manifest_checkpoint_is_discarded_and_rerun_fresh() {
        let s = sweep();
        let path = tmp("torn-manifest");
        let _ = std::fs::remove_file(&path);
        // A process killed before its first flush leaves a prefix of
        // the manifest line with no newline — the exact artifact of a
        // kill between the manifest write and its flush/fsync.
        let manifest = manifest_line(&s.plan, &ShardSpec::FULL);
        std::fs::write(&path, &manifest[..manifest.len() / 2]).unwrap();

        let recovered = run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();
        let reference = run_points(&s, &ShardSpec::FULL, None).unwrap();
        assert_eq!(recovered.len(), reference.len());
        for (a, b) in reference.iter().zip(&recovered) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        // The rewritten file is a valid, complete checkpoint now.
        let again = run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();
        assert_eq!(recovered, again);
    }

    #[test]
    fn fresh_manifest_is_complete_on_disk_before_any_append() {
        // Satellite regression: open_checkpoint must leave a complete,
        // newline-terminated, fsynced manifest on disk *before* the
        // append handle is handed out — so a kill between manifest
        // write and first point line leaves a resumable file, not a
        // torn one.
        let s = sweep();
        let path = tmp("durable-manifest");
        let _ = std::fs::remove_file(&path);
        let (done, file) = open_checkpoint(&path, &s.plan, &ShardSpec::FULL).unwrap();
        assert!(done.is_empty());
        // Simulate the kill: drop the handle without appending.
        drop(file);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let mut want = manifest_line(&s.plan, &ShardSpec::FULL);
        want.push('\n');
        assert_eq!(on_disk, want);
        // And the survivor resumes cleanly, solving everything.
        let resumed = run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();
        assert_eq!(resumed.len(), s.plan.len());
    }

    #[test]
    fn transient_append_failures_are_retried() {
        use std::io::{Error, ErrorKind};
        let path = tmp("retry");
        // Two WouldBlocks then success: op runs three times, Ok.
        let calls = AtomicUsize::new(0);
        retry_transient(&path, "test append", || {
            match calls.fetch_add(1, Ordering::SeqCst) {
                0 => Err(Error::new(ErrorKind::WouldBlock, "busy")),
                1 => Err(Error::from(ErrorKind::StorageFull)),
                _ => Ok(()),
            }
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // A hard failure is not retried at all.
        let calls = AtomicUsize::new(0);
        let err = retry_transient(&path, "test append", || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(Error::new(ErrorKind::PermissionDenied, "nope"))
        })
        .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(matches!(err, SweepError::Io { .. }));

        // A persistent transient failure exhausts the budget.
        let calls = AtomicUsize::new(0);
        let err = retry_transient(&path, "test append", || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(Error::new(ErrorKind::Interrupted, "eintr"))
        })
        .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), APPEND_ATTEMPTS as usize);
        assert!(matches!(err, SweepError::Io { .. }));
    }

    #[test]
    fn retried_append_truncates_partial_writes() {
        // A partial line left by a failed attempt must be cut back
        // before the retry, so the checkpoint never holds a torn
        // middle. Simulate by writing garbage through a second handle
        // between "attempts".
        let s = sweep();
        let path = tmp("truncate");
        let _ = std::fs::remove_file(&path);
        let (_, mut file) = open_checkpoint(&path, &s.plan, &ShardSpec::FULL).unwrap();
        let start = file.metadata().unwrap().len();
        // The "failed attempt": half a point line, no newline.
        let full = run_points(&s, &ShardSpec::FULL, None).unwrap();
        let line = point_line(&s.plan.point(0).coords, &full[0]);
        file.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        file.flush().unwrap();
        assert!(file.metadata().unwrap().len() > start);
        // The retry path: append_with_retry on a fresh handle sees the
        // same pre-append length only if the caller recorded it — here
        // we exercise the truncation branch directly.
        file.set_len(start).unwrap();
        append_with_retry(&mut file, &path, &format!("{line}\n")).unwrap();
        let again = run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();
        assert_eq!(again.len(), s.plan.len());
        for (a, b) in full.iter().zip(&again) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn resume_skips_solved_points() {
        let calls = AtomicUsize::new(0);
        let base = sweep();
        let counting = FigureSweep {
            plan: base.plan.clone(),
            solve: Box::new(|spec: &PointSpec, donor| {
                calls.fetch_add(1, Ordering::SeqCst);
                (base.solve)(spec, donor)
            }),
        };
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);

        // Simulate an interrupted run: manifest plus the first two
        // solved points, with the second line torn mid-write.
        let full = run_points(&base, &ShardSpec::FULL, None).unwrap();
        let mut text = manifest_line(&base.plan, &ShardSpec::FULL);
        text.push('\n');
        text.push_str(&point_line(&base.plan.point(0).coords, &full[0]));
        text.push('\n');
        let torn = point_line(&base.plan.point(1).coords, &full[1]);
        text.push_str(&torn[..torn.len() - 5]);
        std::fs::write(&path, text).unwrap();

        let resumed = run_points(&counting, &ShardSpec::FULL, Some(&path)).unwrap();
        // Point 0 was kept; the torn point 1 and the remaining 7 were
        // re-solved.
        assert_eq!(calls.load(Ordering::SeqCst), base.plan.len() - 1);
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.iter().zip(&resumed) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn resume_rejects_other_plans_shard_and_points() {
        let s = sweep();
        let path = tmp("reject");
        let _ = std::fs::remove_file(&path);
        run_points(&s, &ShardSpec::FULL, Some(&path)).unwrap();

        // Same file, different declared shard.
        let err = run_points(&s, &ShardSpec::new(0, 2).unwrap(), Some(&path)).unwrap_err();
        assert!(matches!(
            err,
            SweepError::ManifestMismatch { field: "shard", .. }
        ));

        // Same shard, different plan (axis value changed → new hash).
        let mut other = sweep();
        other.plan.axes[0].values[0] = 0.2;
        let err = run_points(&other, &ShardSpec::FULL, Some(&path)).unwrap_err();
        assert!(matches!(
            err,
            SweepError::ManifestMismatch {
                field: "plan_hash",
                ..
            }
        ));

        // A point the declared shard does not own.
        let shard = ShardSpec::new(0, 3).unwrap();
        let mut text = manifest_line(&s.plan, &shard);
        text.push('\n');
        text.push_str(&point_line(
            &s.plan.point(1).coords,
            &(s.solve)(&s.plan.point(1), None).0,
        ));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = run_points(&s, &shard, Some(&path)).unwrap_err();
        assert!(matches!(err, SweepError::ForeignPoint { index: 1, .. }));
    }
}
