//! Reassembling a full sweep surface from per-shard checkpoint files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::sweep::{read_checkpoint, Manifest, PointResult, SweepError};

/// A complete surface merged from a full set of checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSurface {
    /// The manifest every file agreed on (the shard index is the
    /// reference file's and is not meaningful after merging).
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
///    hash, profile, lattice size and shard count
///    ([`SweepError::ManifestMismatch`] names the field);
/// 3. the shard indices present are exactly `{0, …, n-1}`
///    ([`SweepError::IncompleteShardSet`]), every point belongs to the
///    shard whose file recorded it ([`SweepError::ForeignPoint`]) and
///    appears exactly once — a point recorded twice means one shard's
///    file was supplied twice, reported with both file paths and the
///    point's lattice coordinates
///    ([`SweepError::DuplicateAcrossShards`]);
/// 4. every lattice point is present ([`SweepError::MissingPoints`]).
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
        if m.shard.count != reference.shard.count {
            return Err(mismatch(
                path,
                "shard_count",
                reference.shard.count,
                m.shard.count,
            ));
        }
        shards_seen.push(m.shard.index);
        for point in ck.points {
            if point.index >= m.total_points || !m.shard.owns(point.index) {
                return Err(SweepError::ForeignPoint {
                    path: path.to_path_buf(),
                    index: point.index,
                });
            }
            if let Some(first) = recorded_by.get(&point.index) {
                return Err(SweepError::DuplicateAcrossShards {
                    index: point.index,
                    coords: reference.point_coords(point.index),
                    first: first.clone(),
                    second: path.to_path_buf(),
                });
            }
            recorded_by.insert(point.index, path.to_path_buf());
            points.insert(point.index, point);
        }
        Ok(())
    };

    absorb(first_path, first.clone())?;
    for path in rest {
        let ck = read_checkpoint(path)?;
        absorb(path, ck)?;
    }

    shards_seen.sort_unstable();
    let want: Vec<u32> = (0..reference.shard.count).collect();
    if shards_seen != want {
        return Err(SweepError::IncompleteShardSet {
            expected: reference.shard.count,
            found: shards_seen,
        });
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
    use crate::sweep::{run_points, Axis, FigureSweep, PointSpec, ShardSpec, SweepPlan};
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
