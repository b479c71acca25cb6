//! Declarative parameter sweeps with shardable, resumable, mergeable
//! execution.
//!
//! Every sweep-shaped figure (Figs. 4/5, 10/11, 12/13, the
//! CH-validation grid) is an embarrassingly parallel lattice of
//! independent point solves. This module replaces the ad-hoc nested
//! loops those figures used to carry with one declarative pipeline:
//!
//! * [`SweepPlan`] — named [`Axis`] values, a stable row-major total
//!   order over the point lattice, and a content hash
//!   ([`SweepPlan::hash_hex`]) covering the axes, profile and solver
//!   options. Two plans with the same hash produce bit-identical
//!   surfaces.
//! * [`FigureSweep`] — a plan plus the point solve function, which
//!   may accept a warm state donated by its fixed lattice predecessor
//!   ([`SweepPlan::donor`]) and export its own. Each figure module
//!   exposes a `*_sweep` constructor. Buffer-axis figures declare a
//!   warm axis and run as a deterministic wavefront: donors are fixed
//!   by the plan, so iteration savings never depend on thread count,
//!   and solved values are bit-identical warm or cold.
//! * [`ShardSpec`] — `--shard i/n` partitions the lattice round-robin
//!   by stable point index, so every shard receives a mix of cheap and
//!   deep-loss points.
//! * [`run_points`] — executes one shard, fanning points through the
//!   worker pool ([`lrd_pool::par_map`]); with a checkpoint path it
//!   streams completed [`PointResult`]s — each stamped with its
//!   measured `solver.solve` span duration — to an append-only JSONL
//!   file and **resumes** an interrupted run by skipping
//!   already-solved points.
//! * [`merge_checkpoints`] — validates the shard manifests (plan hash,
//!   profile, shard set, point ownership) and reassembles the full
//!   surface bit-identically to a single-host run, failing with a
//!   typed [`SweepError`] on any inconsistency.
//! * [`coord`] — dynamic work-stealing as the alternative to static
//!   sharding: a `sweep_coord` process serves uniform contiguous point
//!   batches under a lease/heartbeat protocol, `--steal` workers
//!   solve whatever they can lease, and expired leases (crashed or
//!   wedged workers) are reclaimed and re-issued. Duplicate solves
//!   from reclaims resolve first-writer-wins at merge, asserted
//!   bit-identical.
//!
//! The design composes one-host parallelism with many-host sharding:
//! within a shard, points still fan through `par_map`, so `--shard`
//! and `--threads` multiply. See DESIGN.md §11 for the format and
//! validation rules, and §12 for the work-stealing protocol.

mod checkpoint;
pub mod coord;
mod error;
mod merge;
mod plan;
mod runner;

pub use checkpoint::{
    manifest_line, manifest_line_for, point_line, read_checkpoint, validate_checkpoint,
    write_manifest_durable, Checkpoint, CheckpointOrigin, Manifest,
};
pub use error::SweepError;
pub use merge::{merge_checkpoints, MergedSurface};
pub use plan::{Axis, PointResult, PointSpec, SweepPlan};
pub use lrd_cli::ShardSpec;
pub use runner::{run_grid, run_points, FigureSweep, CHECKPOINT_CHUNK};
