//! Crash-tolerant work-stealing coordination for sweep execution.
//!
//! The static `--shard` split divides a sweep *ahead of time*; this module splits it *as it runs*. A single
//! **coordinator** (the `sweep_coord` binary) holds the plan's point
//! batches in a lease table and hands them to whichever worker asks
//! next; workers (figure binaries in `--steal` mode) **lease** a batch,
//! **heartbeat** while solving it, stream results to their own
//! append-only checkpoints, and report completion. A worker that
//! crashes, wedges, or merely stops heartbeating loses its lease after
//! a TTL: the batch is **reclaimed** and re-issued under a higher
//! epoch, so the sweep always drains as long as one worker survives.
//!
//! Every piece of state that matters is durable and append-only:
//!
//! * worker results live in ordinary steal-origin checkpoints, merged
//!   with first-writer-wins dedup (bit-equality asserted on overlap);
//! * the lease table itself journals every grant/reclaim/done to a
//!   **lease log**, so a killed coordinator restarts from the log and
//!   live workers never notice (they reconnect with backoff and keep
//!   heartbeating the same lease).
//!
//! The wire protocol ([`proto`]) is one JSON line per request over
//! localhost TCP or a Unix socket; see `docs/DESIGN.md` §12 for the
//! full protocol contract and failure matrix.

pub mod batch;
pub mod client;
pub mod error;
pub mod fleet;
pub mod lease;
pub mod proto;
pub mod server;

pub use batch::{plan_batches, simulate_steal_makespan, static_makespan, DEFAULT_BATCH_POINTS};
pub use client::{run_steal, worker_identity, ChaosConfig, StealOptions, StealSummary};
pub use error::CoordError;
pub use fleet::FleetRegistry;
pub use lease::{CompleteDecision, HeartbeatDecision, LeaseConfig, LeaseDecision, LeaseTable};
pub use proto::{
    trace_id, Endpoint, Listener, Request, Response, StatusReport, WorkerReport, WorkerStatus,
};
pub use server::{CoordOptions, CoordServer, CoordSummary};
