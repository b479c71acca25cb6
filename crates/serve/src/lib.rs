//! `lrd-serve`: the online loss-bound service.
//!
//! Everything else in this workspace answers questions *offline*: fit
//! a model, run a sweep, write a report. This crate turns the
//! resumable [`SolveSession`](lrd_fluidq::SolveSession) API into a
//! long-running daemon that answers them *while the traffic happens*:
//!
//! * [`flow`] drives open-loop synthetic arrivals (renewal-fluid and
//!   on/off sources) through a poll-based ticker into per-flow
//!   sliding-window marginals and streaming Hurst estimates;
//! * [`engine`] fits the paper's cutoff-correlated queueing model from
//!   each window and answers `LossBound` / `Provision` queries with
//!   **bounded staleness** from incrementally-refined solve sessions;
//! * [`proto`] is the JSON-line wire protocol (over `lrd-net`'s
//!   framing);
//! * [`server`] is the single-threaded poll loop multiplexing ticks,
//!   queries and idle refinement;
//! * [`signal`] routes `SIGINT`/`SIGTERM` to a graceful,
//!   telemetry-flushing shutdown without external dependencies.
//!
//! The load-bearing guarantee is inherited from `SolveSession`:
//! an incrementally-answered bound, once converged, is **bit-identical**
//! to a one-shot batch solve of the same fitted model. The protocol
//! exposes that contract directly — `Solve` requests run the batch
//! side live so clients (and the CI smoke) can verify the daemon
//! against itself.

#![warn(missing_docs)]

pub mod engine;
pub mod flow;
pub mod proto;
pub mod server;
pub mod signal;

pub use engine::{serve_profile, BoundAnswer, Engine, EngineError, EngineOptions};
pub use flow::{Flow, FlowSpec};
pub use proto::{FlowStatus, Request, Response};
pub use server::{serve, ServeStats};
