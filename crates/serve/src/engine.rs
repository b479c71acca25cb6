//! The serving engine: per-flow windows in, bounded-staleness loss
//! bounds out.
//!
//! The engine owns the daemon's whole state — the live [`Flow`]s and a
//! cache of resumable [`SolveSession`]s — and is deliberately
//! synchronous and single-threaded: the server loop interleaves
//! arrival ticks, query handling and idle refinement on one thread, so
//! every answer is computed against a consistent snapshot and the
//! engine is trivially testable without sockets.
//!
//! # The staleness contract
//!
//! A query for `(flow, buffer)` is answered from a session solved on a
//! model **fitted from the flow's sliding window**. The fit is reused
//! while it is at most `max_staleness` ticks old; past that, the next
//! query refits from the current window and starts a fresh session,
//! donating the old session's warm state (the `SolveSession` seeded
//! probe turns a still-zero verdict into a cheap certification). Every
//! answer reports its model's age, so clients see exactly how stale
//! their bound is — bounded by construction, never hidden.
//!
//! # Model fitting (the paper's recipe, live)
//!
//! The fitted model is the cutoff-correlated renewal-fluid model of
//! Sec. II, calibrated from the window exactly as Sec. III calibrates
//! it from a measured trace:
//!
//! * **marginal** — the 50-bin histogram of the window samples,
//! * **α** — `3 − 2H` from the pooled streaming Hurst estimate
//!   (clamped into the valid LRD range),
//! * **θ** — Eq. 25: matched to the window's mean epoch (same-bin run
//!   length × `dt`),
//! * **T_c** — the window span: the daemon cannot observe (and per the
//!   paper, the queue cannot exploit) correlations longer than it has
//!   watched.

use std::collections::BTreeMap;
use std::fmt;

use lrd_fluidq::{QueueModel, SolveSession, SolverOptions};
use lrd_stats::{mean_run_length, Histogram};
use lrd_traffic::{Marginal, TruncatedPareto};

use crate::flow::{Flow, FlowSpec};
use crate::proto::{FlowStatus, Response};

/// Largest sliding window (samples) a flow may hold: every flow
/// allocates its window up front, so the CLI refuses anything larger.
pub const MAX_WINDOW: usize = 1 << 20;

/// Engine tuning knobs (all have serving-oriented defaults).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Seconds of traffic per arrival tick.
    pub dt: f64,
    /// Sliding-window length in samples (at most [`MAX_WINDOW`]).
    pub window: usize,
    /// Hurst-estimate refresh cadence (pushes).
    pub refresh_every: usize,
    /// Maximum age (ticks) of the fitted model behind an answer.
    pub max_staleness: u64,
    /// Session iterations spent per query (and per idle slice).
    pub query_budget: usize,
    /// Solver options for the serving sessions.
    pub solver: SolverOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            dt: 0.1,
            window: 1024,
            refresh_every: 64,
            max_staleness: 512,
            query_budget: 2048,
            solver: serve_profile(),
        }
    }
}

/// The solver profile serving queries: the sweep profile's envelope
/// shrunk further, trading bracket width for bounded per-query latency
/// — a query must never monopolize the ticker thread.
pub fn serve_profile() -> SolverOptions {
    SolverOptions {
        max_bins: 1 << 12,
        max_total_cost: 2e6,
        ..SolverOptions::default()
    }
}

/// Why the engine could not answer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The named flow is not registered.
    UnknownFlow(String),
    /// The flow's window has not filled (or holds constant data).
    NotWarmed {
        /// The flow name.
        flow: String,
        /// Samples currently held.
        have: usize,
        /// Window capacity.
        need: usize,
    },
    /// The window mean meets or exceeds the service rate: no finite
    /// buffer bounds the loss usefully.
    Overloaded {
        /// Observed window mean rate.
        mean: f64,
        /// Configured service rate.
        service: f64,
    },
    /// The request itself is malformed (negative buffer, loss target
    /// outside `(0, 1)`, …).
    BadRequest(String),
    /// A provisioning search exhausted its solve budget.
    Unsatisfiable(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFlow(name) => write!(f, "unknown flow {name:?}"),
            EngineError::NotWarmed { flow, have, need } => write!(
                f,
                "flow {flow:?} is not warmed yet ({have}/{need} window samples)"
            ),
            EngineError::Overloaded { mean, service } => write!(
                f,
                "window mean rate {mean} meets or exceeds the service rate {service}"
            ),
            EngineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EngineError::Unsatisfiable(msg) => write!(f, "unsatisfiable: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A cached query point: the fitted model, the resumable session
/// refining its bounds, and the tick the model was fitted at.
#[derive(Debug)]
struct Cached {
    model: QueueModel<TruncatedPareto>,
    session: SolveSession<TruncatedPareto>,
    model_tick: u64,
}

/// One answered bound (the typed form of [`Response::Bound`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundAnswer {
    /// Provable lower bound on the loss rate.
    pub lower: f64,
    /// Provable upper bound on the loss rate.
    pub upper: f64,
    /// Whether the answering session has converged.
    pub converged: bool,
    /// Ticks since the answering model was fitted.
    pub staleness: u64,
    /// Session grid resolution.
    pub bins: usize,
    /// Session iterations spent so far.
    pub iterations: usize,
}

impl BoundAnswer {
    fn to_response(self) -> Response {
        Response::Bound {
            lower: self.lower,
            upper: self.upper,
            converged: self.converged,
            staleness: self.staleness,
            bins: self.bins as u64,
            iterations: self.iterations as u64,
        }
    }
}

/// The serving engine. See the module docs for the contracts.
#[derive(Debug)]
pub struct Engine {
    opts: EngineOptions,
    flows: BTreeMap<String, Flow>,
    tick: u64,
    queries: u64,
    /// Sessions keyed by `(flow, buffer bits)` — bits, not the float,
    /// so the map is total over every queryable buffer.
    cache: BTreeMap<(String, u64), Cached>,
}

impl Engine {
    /// Builds an engine over `specs`, giving flow `i` the deterministic
    /// RNG stream `seed + i` (distinct flows never share a stream).
    pub fn new(opts: EngineOptions, specs: Vec<FlowSpec>, seed: u64) -> Engine {
        let flows = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let name = spec.name.clone();
                let flow = Flow::new(
                    spec,
                    seed.wrapping_add(i as u64),
                    opts.window,
                    opts.refresh_every,
                );
                (name, flow)
            })
            .collect();
        Engine {
            opts,
            flows,
            tick: 0,
            queries: 0,
            cache: BTreeMap::new(),
        }
    }

    /// The engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Arrival ticks absorbed so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Queries answered so far.
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// Absorbs one arrival tick across every flow.
    pub fn tick(&mut self) {
        for flow in self.flows.values_mut() {
            flow.tick(self.opts.dt);
        }
        self.tick += 1;
        lrd_obs::counter("serve.ticks", 1);
    }

    /// Answers one protocol request (everything except `Shutdown`,
    /// which is the server loop's business). Errors become
    /// [`Response::Error`] lines here so the wire never sees a Rust
    /// error type.
    pub fn handle(&mut self, request: &crate::proto::Request) -> Response {
        use crate::proto::Request;
        self.queries += 1;
        let answer = match request {
            Request::Status => Ok(self.status()),
            Request::LossBound { flow, buffer } => {
                self.loss_bound(flow, *buffer).map(BoundAnswer::to_response)
            }
            Request::Solve { flow, buffer } => {
                self.batch_solve(flow, *buffer).map(BoundAnswer::to_response)
            }
            Request::Provision { flow, target_loss } => self.provision(flow, *target_loss),
            Request::Shutdown => Ok(Response::Bye),
        };
        answer.unwrap_or_else(|e| Response::Error {
            message: e.to_string(),
        })
    }

    /// The tick counter and per-flow roster.
    pub fn status(&self) -> Response {
        let flows = self
            .flows
            .values()
            .map(|flow| {
                let window = flow.hurst().window();
                FlowStatus {
                    name: flow.spec().name.clone(),
                    family: flow.spec().model.family().to_string(),
                    samples: window.len() as u64,
                    mean_rate: window.mean(),
                    hurst: flow.hurst().current().map(|pair| pair.pooled()),
                    hurst_staleness: flow.hurst().staleness() as u64,
                    warmed: flow.warmed(),
                }
            })
            .collect();
        Response::Status {
            tick: self.tick,
            flows,
        }
    }

    /// Fits the paper's renewal-fluid model for `flow` at `buffer`
    /// from the flow's current window (see the module docs for the
    /// recipe). Public so tests and benches can compare engine answers
    /// against direct solves of the identical model.
    pub fn fit_model(
        &self,
        flow: &str,
        buffer: f64,
    ) -> Result<QueueModel<TruncatedPareto>, EngineError> {
        let flow = self
            .flows
            .get(flow)
            .ok_or_else(|| EngineError::UnknownFlow(flow.to_string()))?;
        let hurst = flow.hurst();
        let pair = hurst.current().ok_or_else(|| EngineError::NotWarmed {
            flow: flow.spec().name.clone(),
            have: hurst.window().len(),
            need: hurst.window().capacity(),
        })?;
        let service = flow.spec().service;
        let snapshot = hurst.window().snapshot();
        let mean = hurst.window().mean();
        if mean >= service {
            return Err(EngineError::Overloaded { mean, service });
        }
        let histogram = Histogram::from_data(&snapshot, 50);
        let marginal = Marginal::from_histogram(&histogram);
        // α = 3 − 2H, with H clamped into the open LRD range the
        // truncated-Pareto construction accepts; a window estimating
        // H ≈ 0.5 (SRD) fits a nearly-memoryless α → 2⁻ model, which
        // below the correlation horizon is exactly the paper's point.
        let h = pair.pooled().clamp(0.55, 0.95);
        let alpha = 3.0 - 2.0 * h;
        let mean_epoch = mean_run_length(&histogram.quantize(&snapshot)) * self.opts.dt;
        let theta = TruncatedPareto::calibrate_theta(mean_epoch, alpha);
        // The correlation cutoff is what the window can testify to:
        // its own span.
        let cutoff = (hurst.window().capacity() as f64 * self.opts.dt).max(theta * 8.0);
        QueueModel::try_new(
            marginal,
            TruncatedPareto::new(theta, alpha, cutoff),
            service,
            buffer,
        )
        .map_err(|e| EngineError::BadRequest(e.to_string()))
    }

    /// Answers a loss-bound query: refit if the cached model aged past
    /// `max_staleness` (donating the old warm state), then step the
    /// session until a provable bracket exists plus one query budget.
    pub fn loss_bound(&mut self, flow: &str, buffer: f64) -> Result<BoundAnswer, EngineError> {
        check_buffer(buffer)?;
        let key = (flow.to_string(), buffer.to_bits());
        let fresh = |c: &Cached| self.tick - c.model_tick <= self.opts.max_staleness;
        if !self.cache.get(&key).is_some_and(fresh) {
            let donor = self
                .cache
                .remove(&key)
                .and_then(|c| c.session.into_result())
                .map(|(_, warm)| warm);
            let model = self.fit_model(flow, buffer)?;
            let session = SolveSession::builder(&model)
                .options(&self.opts.solver)
                .donor(donor.as_ref())
                .build()
                .expect("serve profile options are valid");
            self.cache.insert(
                key.clone(),
                Cached {
                    model,
                    session,
                    model_tick: self.tick,
                },
            );
        }
        let cached = self.cache.get_mut(&key).expect("inserted above");
        let budget = self.opts.query_budget.max(1);
        // First make the answer provable (a seeded probe proves
        // nothing until it certifies or falls back), then spend one
        // query budget tightening it.
        while cached.session.bounds().is_none() && !cached.session.step_budget(budget) {}
        cached.session.step_budget(budget);
        let (lower, upper) = cached.session.bounds().expect("stepped to provable bounds");
        Ok(BoundAnswer {
            lower,
            upper,
            converged: cached.session.is_done(),
            staleness: self.tick - cached.model_tick,
            bins: cached.session.bins(),
            iterations: cached.session.iterations(),
        })
    }

    /// One-shot batch solve of the same model a [`Self::loss_bound`]
    /// query is answering from (the cached fit when fresh, a fresh fit
    /// otherwise) — the validation hook behind `Request::Solve`.
    pub fn batch_solve(&mut self, flow: &str, buffer: f64) -> Result<BoundAnswer, EngineError> {
        check_buffer(buffer)?;
        let key = (flow.to_string(), buffer.to_bits());
        let (model, staleness) = match self.cache.get(&key) {
            Some(c) if self.tick - c.model_tick <= self.opts.max_staleness => {
                (c.model.clone(), self.tick - c.model_tick)
            }
            _ => (self.fit_model(flow, buffer)?, 0),
        };
        let solution = SolveSession::builder(&model)
            .options(&self.opts.solver)
            .solve();
        Ok(BoundAnswer {
            lower: solution.lower,
            upper: solution.upper,
            converged: solution.converged,
            staleness,
            bins: solution.bins,
            iterations: solution.iterations,
        })
    }

    /// Finds the smallest buffer whose provable **upper** bound is at
    /// or below `target_loss`: geometric doubling to bracket, then
    /// bisection. Answers are conservative by construction (an upper
    /// bound that holds even for degraded solves).
    pub fn provision(&mut self, flow: &str, target_loss: f64) -> Result<Response, EngineError> {
        if !(target_loss.is_finite() && 0.0 < target_loss && target_loss < 1.0) {
            return Err(EngineError::BadRequest(format!(
                "target_loss must lie in (0, 1), got {target_loss}"
            )));
        }
        // Start at one tick's worth of drained backlog — always a
        // positive, physically meaningful buffer.
        let service = self
            .flows
            .get(flow)
            .ok_or_else(|| EngineError::UnknownFlow(flow.to_string()))?
            .spec()
            .service;
        let start = service * self.opts.dt;
        let base = self.fit_model(flow, start)?;
        let mut solves = 0u64;
        let mut solve_at = |buffer: f64| {
            solves += 1;
            SolveSession::builder(&base.with_buffer(buffer))
                .options(&self.opts.solver)
                .solve()
        };
        let mut hi = start;
        let mut sol = solve_at(hi);
        let mut lo = 0.0;
        let mut doublings = 0;
        while sol.upper > target_loss {
            doublings += 1;
            if doublings > 40 {
                return Err(EngineError::Unsatisfiable(format!(
                    "no buffer up to {hi} reaches loss {target_loss}"
                )));
            }
            lo = hi;
            hi *= 2.0;
            sol = solve_at(hi);
        }
        let mut best = (hi, sol.upper);
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            let sol = solve_at(mid);
            if sol.upper <= target_loss {
                hi = mid;
                best = (mid, sol.upper);
            } else {
                lo = mid;
            }
        }
        Ok(Response::Provision {
            buffer: best.0,
            upper: best.1,
            solves,
        })
    }

    /// Spends up to one query budget advancing the stalest unfinished
    /// cached session — the idle work the server loop runs between
    /// connections so bounds keep tightening without queries.
    /// Returns whether any work was done.
    pub fn idle_refine(&mut self) -> bool {
        let target = self
            .cache
            .values_mut()
            .filter(|c| !c.session.is_done())
            .min_by_key(|c| c.model_tick);
        match target {
            Some(c) => {
                c.session.step_budget(self.opts.query_budget.max(1));
                true
            }
            None => false,
        }
    }
}

fn check_buffer(buffer: f64) -> Result<(), EngineError> {
    if buffer.is_finite() && buffer > 0.0 {
        Ok(())
    } else {
        Err(EngineError::BadRequest(format!(
            "buffer must be finite and positive, got {buffer}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn quick_options() -> EngineOptions {
        EngineOptions {
            dt: 0.1,
            window: 64,
            refresh_every: 16,
            max_staleness: 64,
            query_budget: 512,
            ..EngineOptions::default()
        }
    }

    fn markov_engine() -> Engine {
        let spec = crate::flow::FlowSpec::parse(
            "m,family=markov,mean=0.05,low=2.0,high=14.0,service=10.0",
        )
        .unwrap();
        Engine::new(quick_options(), vec![spec], 11)
    }

    fn warmed_markov_engine() -> Engine {
        let mut engine = markov_engine();
        for _ in 0..256 {
            engine.tick();
        }
        engine
    }

    #[test]
    fn unwarmed_and_unknown_flows_are_typed_errors() {
        let mut engine = markov_engine();
        assert!(matches!(
            engine.loss_bound("nope", 1.0),
            Err(EngineError::UnknownFlow(_))
        ));
        assert!(matches!(
            engine.loss_bound("m", 1.0),
            Err(EngineError::NotWarmed { .. })
        ));
        assert!(matches!(
            engine.loss_bound("m", f64::NAN),
            Err(EngineError::BadRequest(_))
        ));
        // The roster still answers while cold.
        let Response::Status { tick, flows } = engine.status() else {
            panic!("expected status");
        };
        assert_eq!(tick, 0);
        assert_eq!(flows.len(), 1);
        assert!(!flows[0].warmed);
    }

    #[test]
    fn degenerate_flow_window_never_panics_the_daemon() {
        // The bugfix contract end to end: a window whose every dyadic
        // block is constant used to panic inside the estimators (and
        // take the daemon down mid-`tick`). Now the failed refresh is
        // swallowed, the flow simply stays cold, and every protocol
        // request still gets an answer line.
        let mut engine = markov_engine();
        let flow = engine.flows.get_mut("m").unwrap();
        for _ in 0..32 {
            flow.inject_sample(1.0);
        }
        for _ in 0..32 {
            flow.inject_sample(2.0);
        }
        // The window is full (64 samples) but no estimate exists, so
        // queries degrade to the typed cold-flow error, never a panic.
        assert!(matches!(
            engine.loss_bound("m", 1.0),
            Err(EngineError::NotWarmed { .. })
        ));
        let response = engine.handle(&Request::LossBound {
            flow: "m".to_string(),
            buffer: 1.0,
        });
        assert!(matches!(response, Response::Error { .. }));
        // The roster still answers and reports the failure honestly:
        // unwarmed, no estimate, and a staleness clock that has been
        // running since the first push.
        let Response::Status { flows, .. } = engine.status() else {
            panic!("expected status");
        };
        assert_eq!(flows[0].samples, 64);
        assert!(!flows[0].warmed);
        assert!(flows[0].hurst.is_none());
        assert_eq!(flows[0].hurst_staleness, 64);
        // Once varied samples displace the degenerate window the flow
        // warms up and answers for real.
        let flow = engine.flows.get_mut("m").unwrap();
        for i in 0..128 {
            flow.inject_sample(2.0 + (i % 7) as f64 * 0.5);
        }
        assert!(engine.loss_bound("m", 1.0).is_ok(), "flow never recovered");
    }

    #[test]
    fn constant_flood_keeps_the_stale_estimate_serving() {
        // A warmed flow whose source degenerates to a constant keeps
        // serving the last good estimate; the roster exposes the rising
        // staleness so operators can see the estimate is frozen.
        for constant in [5.0, 0.1, 12.7] {
            let mut engine = warmed_markov_engine();
            let flow = engine.flows.get_mut("m").unwrap();
            for _ in 0..256 {
                flow.inject_sample(constant);
            }
            let Response::Status { flows, .. } = engine.status() else {
                panic!("expected status");
            };
            assert!(flows[0].warmed, "stale estimate must keep the flow warm");
            assert!(flows[0].hurst.is_some());
            let cadence = quick_options().refresh_every as u64;
            assert!(
                flows[0].hurst_staleness > cadence,
                "staleness {} should have breached the cadence {cadence} (constant {constant})",
                flows[0].hurst_staleness
            );
            // Queries still answer over the wire — possibly from a
            // stale model, never via a panic. A constant above the
            // flow's service rate (10) is an overloaded queue, which
            // must come back as the typed overload error.
            let response = engine.handle(&Request::LossBound {
                flow: "m".to_string(),
                buffer: 1.0,
            });
            match &response {
                Response::Error { message } if constant >= 10.0 => assert!(
                    message.contains("meets or exceeds the service rate"),
                    "overloaded constant flow should be a typed overload error: {message}"
                ),
                response => assert!(
                    !matches!(response, Response::Error { .. }),
                    "stale-but-warm flow should still answer: {response:?}"
                ),
            }
        }
    }

    #[test]
    fn incremental_queries_match_the_one_shot_batch_solve_bitwise() {
        // The tentpole contract end to end: drive the incremental
        // session to convergence through repeated queries, then a
        // batch solve of the engine's own fitted model must agree bit
        // for bit — the SolveSession equivalence, via the engine.
        let mut engine = warmed_markov_engine();
        let buffer = 0.5;
        let mut answer = engine.loss_bound("m", buffer).unwrap();
        for _ in 0..10_000 {
            if answer.converged {
                break;
            }
            answer = engine.loss_bound("m", buffer).unwrap();
        }
        assert!(answer.converged, "session never converged: {answer:?}");
        let batch = engine.batch_solve("m", buffer).unwrap();
        assert_eq!(answer.lower.to_bits(), batch.lower.to_bits());
        assert_eq!(answer.upper.to_bits(), batch.upper.to_bits());
        assert_eq!(answer.iterations, batch.iterations);
        assert_eq!(answer.bins, batch.bins);
        assert!(answer.lower <= answer.upper);
    }

    #[test]
    fn staleness_is_bounded_and_reported_honestly() {
        let mut engine = warmed_markov_engine();
        let max = engine.options().max_staleness;
        // Irregular tick/query interleaving: every answer's reported
        // staleness must stay within the bound, and the bound must be
        // honest (ticks since the fit, not since the last answer).
        let mut fitted_at = None;
        for step in 0..12u64 {
            for _ in 0..(step * 23 % (max + 7)) {
                engine.tick();
            }
            let answer = engine.loss_bound("m", 1.0).unwrap();
            assert!(
                answer.staleness <= max,
                "staleness {} breached bound {max}",
                answer.staleness
            );
            let now = engine.tick_count();
            match fitted_at {
                Some(at) if now - at <= max => {
                    assert_eq!(answer.staleness, now - at, "staleness misreported")
                }
                _ => fitted_at = Some(now - answer.staleness),
            }
        }
    }

    #[test]
    fn refit_after_staleness_reuses_the_window_not_the_old_model() {
        let mut engine = warmed_markov_engine();
        let first = engine.loss_bound("m", 1.0).unwrap();
        assert_eq!(first.staleness, 0);
        // Age the model past the bound; the next answer must be a
        // fresh fit (staleness 0 again).
        for _ in 0..=engine.options().max_staleness {
            engine.tick();
        }
        let second = engine.loss_bound("m", 1.0).unwrap();
        assert_eq!(second.staleness, 0, "stale model must be refitted");
    }

    #[test]
    fn provision_meets_the_target_and_is_monotone() {
        let mut engine = warmed_markov_engine();
        let answer = |engine: &mut Engine, target: f64| {
            match engine.provision("m", target).unwrap() {
                Response::Provision { buffer, upper, .. } => (buffer, upper),
                other => panic!("expected provision, got {other:?}"),
            }
        };
        let (loose_buffer, loose_upper) = answer(&mut engine, 1e-2);
        let (tight_buffer, tight_upper) = answer(&mut engine, 1e-4);
        assert!(loose_upper <= 1e-2);
        assert!(tight_upper <= 1e-4);
        assert!(
            tight_buffer >= loose_buffer,
            "tighter target {tight_buffer} < looser {loose_buffer}"
        );
        assert!(matches!(
            engine.provision("m", 1.5),
            Err(EngineError::BadRequest(_))
        ));
    }

    #[test]
    fn idle_refinement_converges_sessions_without_queries() {
        let mut engine = warmed_markov_engine();
        let first = engine.loss_bound("m", 0.5).unwrap();
        if !first.converged {
            for _ in 0..10_000 {
                if !engine.idle_refine() {
                    break;
                }
            }
        }
        // All cached sessions are now done: idle_refine reports no
        // work left, and the next query answers from the converged
        // session (staleness still counted from the original fit).
        assert!(!engine.idle_refine());
        let answer = engine.loss_bound("m", 0.5).unwrap();
        assert!(answer.converged);
    }

    #[test]
    fn handle_maps_errors_onto_the_wire() {
        let mut engine = markov_engine();
        let response = engine.handle(&Request::LossBound {
            flow: "ghost".to_string(),
            buffer: 1.0,
        });
        match response {
            Response::Error { message } => assert!(message.contains("ghost")),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(engine.query_count(), 1);
    }
}
