//! Typed failures for checkpointed, sharded sweep execution.
//!
//! Everything the checkpoint/merge layer can reject is enumerated here
//! so callers (and the CI shard smoke) can distinguish "a shard file
//! is from a different plan" from "the disk is full". I/O errors carry
//! the rendered message rather than `std::io::Error` so the variants
//! stay `Clone + PartialEq` and tests can assert on them directly.

use std::fmt;
use std::path::PathBuf;

/// A failure while running, checkpointing, or merging a sweep.
// Not `Eq`: the duplicate variant carries the point's `f64` lattice
// coordinates so merge errors name *where* the conflict is.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// Reading or writing a checkpoint file failed at the OS level.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The rendered `std::io::Error` message.
        message: String,
    },
    /// The checkpoint's manifest line itself is torn: the file
    /// contains no complete (newline-terminated) first line, which is
    /// exactly what a process killed before its first checkpoint flush
    /// leaves behind. No solved work can be stored in such a file, so
    /// callers ([`run_points`](crate::sweep::run_points)) discard it
    /// with a warning and start the shard fresh; only genuinely
    /// malformed *complete* lines are hard errors.
    TornManifest {
        /// The checkpoint path involved.
        path: PathBuf,
    },
    /// A checkpoint line failed to parse or had the wrong shape.
    Malformed {
        /// The checkpoint path involved.
        path: PathBuf,
        /// One-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A manifest field disagrees with the plan (resume) or with the
    /// other shards (merge).
    ManifestMismatch {
        /// The checkpoint whose manifest disagrees.
        path: PathBuf,
        /// The disagreeing manifest field.
        field: &'static str,
        /// The value required by the plan / reference shard.
        expected: String,
        /// The value found in this manifest.
        found: String,
    },
    /// A checkpoint contains a point its shard does not own.
    ForeignPoint {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The stable index of the foreign point.
        index: usize,
    },
    /// A checkpoint records the same point twice.
    DuplicatePoint {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The stable index of the duplicated point.
        index: usize,
    },
    /// Two shard checkpoints both solved the same point — one
    /// shard's file was supplied twice. Unlike [`DuplicatePoint`] (a
    /// within-file defect), this names both conflicting files and the
    /// point's lattice coordinates so the offending files can be found
    /// without decoding indices by hand.
    ///
    /// [`DuplicatePoint`]: SweepError::DuplicatePoint
    DuplicateAcrossShards {
        /// The stable index of the duplicated point.
        index: usize,
        /// The point's lattice coordinates (one per plan axis),
        /// decoded from the manifest's embedded axes.
        coords: Vec<f64>,
        /// The checkpoint that recorded the point first.
        first: PathBuf,
        /// The checkpoint that recorded it again.
        second: PathBuf,
    },
    /// The merged shard files do not form the full partition
    /// `{0, …, n-1}`.
    IncompleteShardSet {
        /// The shard count every manifest declares.
        expected: u32,
        /// The sorted shard indices actually present.
        found: Vec<u32>,
    },
    /// The shard set is complete but some lattice points were never
    /// solved (an interrupted shard was merged without being resumed).
    MissingPoints {
        /// How many points are missing.
        missing: usize,
        /// The smallest missing stable index.
        first: usize,
    },
    /// The checkpoint's plan hash does not match the plan rebuilt from
    /// the registry (axes, profile, or solver protocol changed).
    PlanHashMismatch {
        /// The hash the rebuilt plan requires.
        expected: String,
        /// The hash recorded in the manifests.
        found: String,
    },
    /// `merge` was invoked with no checkpoint files.
    NoCheckpoints,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, message } => {
                write!(f, "checkpoint I/O error on {}: {message}", path.display())
            }
            SweepError::TornManifest { path } => write!(
                f,
                "{}: manifest line is torn (producing process was killed before \
                 its first flush); the file holds no solved points",
                path.display()
            ),
            SweepError::Malformed { path, line, reason } => {
                write!(f, "{} line {line}: {reason}", path.display())
            }
            SweepError::ManifestMismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "{}: manifest {field} mismatch (expected {expected}, found {found})",
                path.display()
            ),
            SweepError::ForeignPoint { path, index } => write!(
                f,
                "{}: point {index} does not belong to this shard",
                path.display()
            ),
            SweepError::DuplicatePoint { path, index } => {
                write!(f, "{}: point {index} recorded twice", path.display())
            }
            SweepError::DuplicateAcrossShards {
                index,
                coords,
                first,
                second,
            } => write!(
                f,
                "point {index} at {} solved by both {} and {} — the shard \
                 ownership sets overlap",
                fmt_coords(coords),
                first.display(),
                second.display()
            ),
            SweepError::IncompleteShardSet { expected, found } => write!(
                f,
                "incomplete shard set: need all of 0..{expected}, found {found:?}"
            ),
            SweepError::MissingPoints { missing, first } => write!(
                f,
                "merged surface is missing {missing} point(s), first missing index {first} \
                 (was a shard interrupted and not resumed?)"
            ),
            SweepError::PlanHashMismatch { expected, found } => write!(
                f,
                "plan hash mismatch: registry plan is {expected}, checkpoints were solved \
                 under {found}"
            ),
            SweepError::NoCheckpoints => write!(f, "no checkpoint files given"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Renders lattice coordinates as `(0.05, inf)` for error messages.
fn fmt_coords(coords: &[f64]) -> String {
    let mut out = String::from("(");
    for (i, &c) in coords.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c.to_string());
    }
    out.push(')');
    out
}

impl SweepError {
    /// Wraps an OS error for `path` (renders the message eagerly so
    /// the variant stays comparable).
    pub fn io(path: &std::path::Path, err: &std::io::Error) -> SweepError {
        SweepError::Io {
            path: path.to_path_buf(),
            message: err.to_string(),
        }
    }
}
