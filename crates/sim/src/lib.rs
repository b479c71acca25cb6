//! Finite-buffer fluid-queue simulation.
//!
//! Because the input is piecewise-constant fluid, the queue trajectory
//! within one constant-rate interval is *exactly* integrable — there is
//! no time-discretization error anywhere in this crate. The simulator
//! is the model-free counterpart of the numerical solver in
//! `lrd-fluidq`:
//!
//! * [`FluidQueue`] — the single-server queue with service rate `c`
//!   and buffer `B`, advanced one `(rate, duration)` segment at a time,
//!   tracking arrived/lost work, boundary resets, and occupancy
//!   statistics;
//! * [`simulate_trace`] — drives a queue from a binned [`Trace`](lrd_traffic::Trace)
//!   (the paper's shuffling experiments, Figs. 7/8/14);
//! * [`simulate_source`] — drives a queue from sampled paths of the
//!   modulated fluid source, recording the queue occupancy **at
//!   arrival epochs** so the result is directly comparable with the
//!   solver's `Q(n)` chain (Monte-Carlo validation of Sec. II);
//! * [`errorcontrol`] — the ARQ-vs-FEC comparison of the paper's
//!   concluding example, driven by queue-derived loss processes;
//! * [`mux`] — the segregated-vs-shared queue comparison quantifying
//!   the statistical-multiplexing gain on traces.

#![warn(missing_docs)]

pub mod errorcontrol;
pub mod mux;
mod queue;
mod report;
mod run;

pub use errorcontrol::{arq_overhead, fec_residual_loss, LossProcess};
pub use mux::{compare_multiplexing, MuxComparison};
pub use queue::FluidQueue;
pub use report::SimReport;
pub use run::{
    simulate_source, simulate_trace, try_simulate_source, try_simulate_trace, ArrivalEpochSample,
};
