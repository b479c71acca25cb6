//! Reassembling a full sweep surface from per-shard (or per-worker)
//! checkpoint files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::sweep::checkpoint::CheckpointOrigin;
use crate::sweep::{read_checkpoint, Manifest, PointResult, SweepError};

/// A complete surface merged from a full set of checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSurface {
    /// The manifest every file agreed on (the origin is the reference
    /// file's and is not meaningful after merging).
    pub manifest: Manifest,
    /// The full lattice, in stable-index order.
    pub results: Vec<PointResult>,
    /// How many checkpoint files contributed to the merge.
    pub sources: usize,
}

impl MergedSurface {
    /// The surface values in stable-index order.
    pub fn values(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.value).collect()
    }

    /// Total solver iterations across every point — matches the
    /// `solver.iterations` telemetry counter of an equivalent
    /// single-host run.
    pub fn total_iterations(&self) -> u64 {
        self.results.iter().map(|r| r.iterations).sum()
    }
}

fn mismatch(
    path: &Path,
    field: &'static str,
    expected: impl ToString,
    found: impl ToString,
) -> SweepError {
    SweepError::ManifestMismatch {
        path: path.to_path_buf(),
        field,
        expected: expected.to_string(),
        found: found.to_string(),
    }
}

/// Merges a complete set of checkpoints into the full surface.
///
/// Validation, in order:
///
/// 1. at least one file ([`SweepError::NoCheckpoints`]);
/// 2. every manifest agrees with the first file's on figure, plan
///    hash, profile, lattice size and execution mode (static shards
///    and steal workers cannot mix —
///    [`SweepError::ManifestMismatch`] names the field);
/// 3. **static shards**: the shard counts agree, the shard indices
///    present are exactly `{0, …, n-1}`
///    ([`SweepError::IncompleteShardSet`]), every point belongs to the
///    shard whose file recorded it ([`SweepError::ForeignPoint`]) and
///    appears exactly once — a point recorded twice means one shard's
///    file was supplied twice, reported with both file paths and the
///    point's lattice coordinates
///    ([`SweepError::DuplicateAcrossShards`]);
/// 4. **steal workers**: any worker may have solved any point (a
///    lease reclaimed from a slow-but-alive worker is legitimately
///    solved twice), so duplicates resolve **first-writer-wins** — but
///    only if the values are bit-identical; a disagreement is the
///    typed [`SweepError::DuplicateMismatch`] naming both files, the
///    coordinates, and both values;
/// 5. either way, every lattice point must be present
///    ([`SweepError::MissingPoints`]).
///
/// The merged surface is bit-identical to a single-host run of the
/// same plan: point values travel through the checkpoint as
/// shortest-exact-representation JSON numbers, which round-trip every
/// `f64` bit.
pub fn merge_checkpoints(paths: &[PathBuf]) -> Result<MergedSurface, SweepError> {
    let (first_path, rest) = paths.split_first().ok_or(SweepError::NoCheckpoints)?;
    let first = read_checkpoint(first_path)?;
    let reference = first.manifest.clone();

    let mut shards_seen: Vec<u32> = Vec::new();
    let mut points: BTreeMap<usize, PointResult> = BTreeMap::new();
    // Which file first recorded each point, for duplicate reporting.
    let mut recorded_by: BTreeMap<usize, PathBuf> = BTreeMap::new();
    let mut absorb = |path: &Path, ck: crate::sweep::Checkpoint| -> Result<(), SweepError> {
        let m = &ck.manifest;
        if m.figure != reference.figure {
            return Err(mismatch(path, "figure", &reference.figure, &m.figure));
        }
        if m.plan_hash != reference.plan_hash {
            return Err(mismatch(path, "plan_hash", &reference.plan_hash, &m.plan_hash));
        }
        if m.profile != reference.profile {
            return Err(mismatch(path, "profile", &reference.profile, &m.profile));
        }
        if m.total_points != reference.total_points {
            return Err(mismatch(path, "points", reference.total_points, m.total_points));
        }
        if m.origin.mode() != reference.origin.mode() {
            return Err(mismatch(
                path,
                "mode",
                reference.origin.mode(),
                m.origin.mode(),
            ));
        }
        if let (CheckpointOrigin::Shard(shard), Some(ref_shard)) =
            (&m.origin, reference.origin.shard())
        {
            if shard.count != ref_shard.count {
                return Err(mismatch(path, "shard_count", ref_shard.count, shard.count));
            }
            shards_seen.push(shard.index);
        }
        for point in ck.points {
            if point.index >= m.total_points || !m.origin.owns(point.index) {
                return Err(SweepError::ForeignPoint {
                    path: path.to_path_buf(),
                    index: point.index,
                });
            }
            match points.get(&point.index) {
                None => {
                    recorded_by.insert(point.index, path.to_path_buf());
                    points.insert(point.index, point);
                }
                Some(kept) if m.origin.is_steal() => {
                    // A legitimate duplicate solve from a reclaimed
                    // lease: first-writer-wins, provided the answers
                    // are the same answer, to the bit.
                    if kept.value.to_bits() != point.value.to_bits() {
                        return Err(SweepError::DuplicateMismatch {
                            index: point.index,
                            coords: reference.point_coords(point.index),
                            first: recorded_by[&point.index].clone(),
                            second: path.to_path_buf(),
                            first_value: kept.value,
                            second_value: point.value,
                        });
                    }
                }
                Some(_) => {
                    return Err(SweepError::DuplicateAcrossShards {
                        index: point.index,
                        coords: reference.point_coords(point.index),
                        first: recorded_by[&point.index].clone(),
                        second: path.to_path_buf(),
                    });
                }
            }
        }
        Ok(())
    };

    absorb(first_path, first.clone())?;
    for path in rest {
        let ck = read_checkpoint(path)?;
        absorb(path, ck)?;
    }

    if let Some(ref_shard) = reference.origin.shard() {
        shards_seen.sort_unstable();
        let want: Vec<u32> = (0..ref_shard.count).collect();
        if shards_seen != want {
            return Err(SweepError::IncompleteShardSet {
                expected: ref_shard.count,
                found: shards_seen,
            });
        }
    }

    if points.len() != reference.total_points {
        let first_missing = (0..reference.total_points)
            .find(|i| !points.contains_key(i))
            .unwrap_or(0);
        return Err(SweepError::MissingPoints {
            missing: reference.total_points - points.len(),
            first: first_missing,
        });
    }

    Ok(MergedSurface {
        manifest: first.manifest,
        results: points.into_values().collect(),
        sources: paths.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Profile;
    use crate::sweep::{
        manifest_line_for, point_line, run_points, Axis, FigureSweep, PointSpec, ShardSpec,
        SweepPlan,
    };
    use lrd_fluidq::SolverOptions;

    fn sweep(figure: &str) -> FigureSweep<'static> {
        let plan = SweepPlan::grid_plan(
            figure,
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
                    crate::sweep::PointResult {
                        index: spec.index,
                        value: (spec.coords[0] * 7.0 + spec.coords[1].min(1e6)) / 3.0,
                        iterations: 3 + spec.index as u64,
                        bins: 128,
                        converged: true,
                        solve_us: None,
                    },
                    None,
                )
            }),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lrd-merge-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_shards(s: &FigureSweep<'_>, dir: &Path, count: u32) -> Vec<PathBuf> {
        (0..count)
            .map(|i| {
                let path = dir.join(format!("shard-{i}.jsonl"));
                run_points(s, &ShardSpec::new(i, count).unwrap(), Some(&path)).unwrap();
                path
            })
            .collect()
    }

    /// Hand-writes a steal-mode worker checkpoint holding the given
    /// point indices, solved with `s.solve` (plus an optional value
    /// perturbation for mismatch tests).
    fn write_worker(
        s: &FigureSweep<'_>,
        dir: &Path,
        worker: &str,
        indices: &[usize],
        perturb: f64,
    ) -> PathBuf {
        let origin = CheckpointOrigin::Steal {
            worker: worker.to_string(),
        };
        let mut text = manifest_line_for(&s.plan, &origin);
        text.push('\n');
        for &i in indices {
            let spec = s.plan.point(i);
            let mut result = (s.solve)(&spec, None).0;
            result.value += perturb;
            text.push_str(&point_line(&spec.coords, &result));
            text.push('\n');
        }
        let path = dir.join(format!("{worker}.jsonl"));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn merge_matches_single_run_bitwise() {
        let s = sweep("demo");
        let single = run_points(&s, &ShardSpec::FULL, None).unwrap();
        for count in [1u32, 2, 3] {
            let dir = tmpdir(&format!("ok{count}"));
            let merged = merge_checkpoints(&run_shards(&s, &dir, count)).unwrap();
            assert_eq!(merged.results.len(), single.len());
            assert_eq!(merged.sources, count as usize);
            for (a, b) in single.iter().zip(&merged.results) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            assert_eq!(
                merged.total_iterations(),
                single.iter().map(|r| r.iterations).sum::<u64>()
            );
        }
    }

    #[test]
    fn merge_of_steal_workers_matches_single_run_bitwise() {
        let s = sweep("demo");
        let single = run_points(&s, &ShardSpec::FULL, None).unwrap();
        let dir = tmpdir("steal-ok");
        // Three workers with uneven, interleaved batches — the shape a
        // work-stealing run produces. Worker w2 additionally re-solved
        // point 3 after a reclaim: bit-identical, so first-writer-wins
        // keeps w0's copy silently.
        let paths = vec![
            write_worker(&s, &dir, "w0", &[0, 3, 6, 8], 0.0),
            write_worker(&s, &dir, "w1", &[1, 2], 0.0),
            write_worker(&s, &dir, "w2", &[3, 4, 5, 7], 0.0),
        ];
        let merged = merge_checkpoints(&paths).unwrap();
        assert_eq!(merged.results.len(), single.len());
        assert_eq!(merged.sources, 3);
        assert!(merged.manifest.origin.is_steal());
        for (a, b) in single.iter().zip(&merged.results) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn steal_duplicate_with_different_bits_is_rejected_with_coords() {
        let s = sweep("demo");
        let dir = tmpdir("steal-mismatch");
        let paths = vec![
            write_worker(&s, &dir, "w0", &[0, 1, 2, 3, 4], 0.0),
            // Same point 4, value perturbed by one ulp-ish amount.
            write_worker(&s, &dir, "w1", &[4, 5, 6, 7, 8], 1e-13),
        ];
        let err = merge_checkpoints(&paths).unwrap_err();
        match err {
            SweepError::DuplicateMismatch {
                index,
                coords,
                first,
                second,
                first_value,
                second_value,
            } => {
                assert_eq!(index, 4);
                // Coordinates decode from the embedded axes: point 4
                // of the 3×3 row-major lattice is (b=1.0, tc=5.0).
                assert_eq!(coords, vec![1.0, 5.0]);
                assert_eq!(first, paths[0]);
                assert_eq!(second, paths[1]);
                assert_ne!(first_value.to_bits(), second_value.to_bits());
            }
            other => panic!("expected DuplicateMismatch, got {other:?}"),
        }
    }

    #[test]
    fn steal_merge_rejects_missing_points_and_mixed_modes() {
        let s = sweep("demo");
        let dir = tmpdir("steal-bad");
        // Point 5 never solved by anyone.
        let gappy = vec![
            write_worker(&s, &dir, "w0", &[0, 1, 2, 3], 0.0),
            write_worker(&s, &dir, "w1", &[4, 6, 7, 8], 0.0),
        ];
        assert!(matches!(
            merge_checkpoints(&gappy).unwrap_err(),
            SweepError::MissingPoints {
                missing: 1,
                first: 5
            }
        ));
        // A static shard file cannot slip into a steal merge.
        let shard_path = dir.join("shard.jsonl");
        run_points(&s, &ShardSpec::new(0, 2).unwrap(), Some(&shard_path)).unwrap();
        let mixed = vec![gappy[0].clone(), shard_path];
        assert!(matches!(
            merge_checkpoints(&mixed).unwrap_err(),
            SweepError::ManifestMismatch { field: "mode", .. }
        ));
    }

    #[test]
    fn merge_rejects_incomplete_and_mixed_sets() {
        let s = sweep("demo");
        let dir = tmpdir("reject");
        let paths = run_shards(&s, &dir, 3);

        assert_eq!(merge_checkpoints(&[]), Err(SweepError::NoCheckpoints));

        let err = merge_checkpoints(&paths[..2]).unwrap_err();
        assert_eq!(
            err,
            SweepError::IncompleteShardSet {
                expected: 3,
                found: vec![0, 1],
            }
        );

        let err = merge_checkpoints(&[paths[0].clone(), paths[1].clone(), paths[1].clone()])
            .unwrap_err();
        assert!(matches!(err, SweepError::DuplicateAcrossShards { .. }));

        // A shard solved under a different plan cannot slip in.
        let other = sweep("other_figure");
        let other_dir = dir.join("other");
        std::fs::create_dir_all(&other_dir).unwrap();
        let other_paths = run_shards(&other, &other_dir, 3);
        let err = merge_checkpoints(&[
            paths[0].clone(),
            paths[1].clone(),
            other_paths[2].clone(),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            SweepError::ManifestMismatch { field: "figure", .. }
        ));
    }

    #[test]
    fn merge_reports_missing_points_from_interrupted_shard() {
        let s = sweep("demo");
        let dir = tmpdir("missing");
        let paths = run_shards(&s, &dir, 2);
        // Drop the last point line of shard 1, as if it was killed
        // before finishing and merged without a resume.
        let text = std::fs::read_to_string(&paths[1]).unwrap();
        let kept: Vec<&str> = text.lines().collect();
        std::fs::write(&paths[1], format!("{}\n", kept[..kept.len() - 1].join("\n"))).unwrap();
        let err = merge_checkpoints(&paths).unwrap_err();
        assert!(matches!(err, SweepError::MissingPoints { missing: 1, .. }));
    }
}
