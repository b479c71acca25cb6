//! The coordinator serve loop: a single-threaded nonblocking accept
//! loop over the lease table.
//!
//! One thread is enough because every request is a single tiny JSON
//! line and every decision is an in-memory table lookup — the solver
//! work all happens in the workers. Between accepts the loop scans for
//! expired leases, so reclaim latency is bounded by the poll interval
//! (~2 ms), not by the next incoming request.

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::batch::plan_batches;
use super::error::CoordError;
use super::fleet::FleetRegistry;
use super::lease::{CompleteDecision, HeartbeatDecision, LeaseConfig, LeaseDecision, LeaseTable};
use super::proto::{recv_line, send_line, trace_id, Endpoint, Listener, Request, Response};
use crate::sweep::{SweepError, SweepPlan};

/// How long the accept loop sleeps when no client is waiting.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Configuration for [`CoordServer::start`].
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// Where to listen (`host:port` or `unix:<path>`; TCP port 0 asks
    /// the OS for a free port, reported by [`CoordServer::endpoint`]).
    pub endpoint: Endpoint,
    /// Durable lease-log path. When the file already holds a lease
    /// log for this plan, the coordinator **resumes** it — completed
    /// batches stay completed, in-flight leases survive. `None` keeps
    /// the table in memory only (tests).
    pub lease_log: Option<std::path::PathBuf>,
    /// Lease timing.
    pub config: LeaseConfig,
    /// Points per batch (the last batch may be shorter). A resumed
    /// lease log keeps the batch list it recorded.
    pub batch_points: usize,
}

impl Default for CoordOptions {
    fn default() -> Self {
        CoordOptions {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            lease_log: None,
            config: LeaseConfig::default(),
            batch_points: super::batch::DEFAULT_BATCH_POINTS,
        }
    }
}

/// What the serve loop did, for the operator and the chaos harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordSummary {
    /// Total batches in the sweep.
    pub batches: usize,
    /// Total lattice points.
    pub points: usize,
    /// Lease grants issued (incl. re-issues).
    pub grants: u64,
    /// Leases reclaimed from expired workers.
    pub reclaims: u64,
    /// Whether the queue fully drained (false = shut down early).
    pub drained: bool,
}

/// A bound, ready-to-run coordinator.
pub struct CoordServer {
    listener: Listener,
    table: LeaseTable,
    stop: Arc<AtomicBool>,
}

impl CoordServer {
    /// Binds the endpoint and builds (or resumes) the lease table.
    ///
    /// With a lease log whose file already exists, the table is
    /// resumed from it — the restart path after a coordinator kill. A
    /// log whose manifest never flushed (torn) is discarded with a
    /// warning, exactly like a torn worker-checkpoint manifest.
    pub fn start(plan: &SweepPlan, options: CoordOptions) -> Result<CoordServer, CoordError> {
        let now = lrd_obs::now_us();
        let table = match &options.lease_log {
            Some(path) if path.exists() => {
                match LeaseTable::resume(plan, options.config, path, now) {
                    Ok(table) => table,
                    Err(CoordError::Sweep(SweepError::TornManifest { .. })) => {
                        eprintln!(
                            "warning: {}: lease log manifest is torn (previous coordinator \
                             was killed before its first flush); discarding and starting fresh",
                            path.display()
                        );
                        std::fs::remove_file(path).map_err(|e| {
                            CoordError::io(format!("removing {}", path.display()), &e)
                        })?;
                        let batches = plan_batches(plan.len(), options.batch_points);
                        LeaseTable::new(plan, batches, options.config, Some(path))?
                    }
                    Err(e) => return Err(e),
                }
            }
            _ => {
                let batches = plan_batches(plan.len(), options.batch_points);
                LeaseTable::new(plan, batches, options.config, options.lease_log.as_deref())?
            }
        };
        let listener = Listener::bind(&options.endpoint)
            .map_err(|e| CoordError::io(format!("binding {}", options.endpoint), &e))?;
        Ok(CoordServer {
            listener,
            table,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The endpoint actually bound (resolves TCP port 0).
    pub fn endpoint(&self) -> Endpoint {
        self.listener.local_endpoint()
    }

    /// A flag that makes [`CoordServer::run`] return at the next poll
    /// — the in-process equivalent of SIGKILLing the coordinator
    /// (nothing is flushed beyond what the lease log already holds).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves until the queue drains (and every worker that ever held
    /// a lease has been told so, or a linger cap passes), or until the
    /// shutdown flag is raised.
    pub fn run(mut self) -> Result<CoordSummary, CoordError> {
        let heartbeat_ms = self.table.config().heartbeat_ms;
        let lease_ttl_ms = self.table.config().lease_ttl_ms;
        // After draining, linger long enough for stragglers to ask one
        // more time and be told to exit; workers that died permanently
        // must not hold the coordinator open forever.
        let linger_us = (10 * lease_ttl_ms * 1000).max(5_000_000);
        // Seeded with the lease log's worker population (empty for a
        // fresh table): a worker named in a resumed log may be alive in
        // reconnect backoff, and exiting before it is told the queue
        // drained would strand it against a closed port. Workers that
        // are truly gone cost at most the linger cap, which exceeds the
        // client's worst-case retry span.
        let mut workers_seen: BTreeSet<String> = self.table.workers();
        let mut drain_acked: BTreeSet<String> = BTreeSet::new();
        let mut drained_at: Option<u64> = None;
        // The fleet fold behind `status` responses: piggybacked worker
        // reports, the roster, and the live cost model.
        let mut fleet = FleetRegistry::new();

        loop {
            if self.stop.load(Ordering::SeqCst) {
                let s = self.table.status();
                return Ok(CoordSummary {
                    batches: s.batches,
                    points: self.table.total_points(),
                    grants: self.table.grants(),
                    reclaims: s.reclaims,
                    drained: self.table.drained(),
                });
            }
            let now = lrd_obs::now_us();
            for (batch, worker, epoch) in self.table.reclaim_expired(now)? {
                eprintln!(
                    "coord: reclaimed batch {batch} (epoch {epoch}) from unresponsive \
                     worker {worker}"
                );
                fleet.set_lease(&worker, None);
                lrd_obs::event!(
                    "coord.lease_reclaimed",
                    batch = batch,
                    epoch = epoch,
                    worker = worker,
                    trace = trace_id(batch, epoch),
                );
                lrd_obs::counter("coord.reclaims", 1);
            }

            if self.table.drained() {
                let at = *drained_at.get_or_insert(now);
                // A coordinator resumed from an already-complete log
                // has seen no workers yet, which would make `all_acked`
                // vacuously true and close the port while the fleet is
                // still mid-reconnect-backoff — linger until at least
                // one straggler has been told the queue is drained (or
                // the cap passes; workers give up well after it).
                let all_acked = !workers_seen.is_empty()
                    && workers_seen.iter().all(|w| drain_acked.contains(w));
                if all_acked || now.saturating_sub(at) > linger_us {
                    let s = self.table.status();
                    return Ok(CoordSummary {
                        batches: s.batches,
                        points: self.table.total_points(),
                        grants: self.table.grants(),
                        reclaims: s.reclaims,
                        drained: true,
                    });
                }
            }

            let mut conn = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE_POLL);
                    continue;
                }
                Err(e) => return Err(CoordError::io("accepting a connection", &e)),
            };
            // One request per connection; a peer that dies mid-exchange
            // costs us nothing but this iteration.
            let line = match recv_line(conn.as_mut()) {
                Ok(line) => line,
                Err(_) => continue,
            };
            let request = match Request::parse(&line) {
                Ok(request) => request,
                Err(e) => {
                    let _ = send_line(
                        conn.as_mut(),
                        &Response::Mismatch {
                            field: "request".to_string(),
                            expected: "a protocol request".to_string(),
                            found: e.to_string(),
                        }
                        .to_line(),
                    );
                    continue;
                }
            };
            let now = lrd_obs::now_us();
            let response = match request {
                Request::Lease {
                    figure,
                    plan_hash,
                    profile,
                    worker,
                    report,
                } => {
                    let (want_figure, want_hash, want_profile) = self.table.identity();
                    let mismatch = [
                        ("figure", want_figure.to_string(), figure),
                        ("plan_hash", want_hash.to_string(), plan_hash),
                        ("profile", want_profile.to_string(), profile),
                    ]
                    .into_iter()
                    .find(|(_, want, got)| want != got);
                    if let Some((field, expected, found)) = mismatch {
                        Response::Mismatch {
                            field: field.to_string(),
                            expected,
                            found,
                        }
                    } else {
                        workers_seen.insert(worker.clone());
                        if let Some(report) = &report {
                            if fleet.fold(&worker, report, now) {
                                lrd_obs::counter("coord.reports", 1);
                            }
                        } else {
                            fleet.observe(&worker, now);
                        }
                        match self.table.lease(&worker, now)? {
                            LeaseDecision::Grant {
                                batch,
                                epoch,
                                points,
                            } => {
                                let trace = trace_id(batch, epoch);
                                fleet.set_lease(&worker, Some(batch));
                                lrd_obs::event!(
                                    "coord.lease_granted",
                                    batch = batch,
                                    epoch = epoch,
                                    worker = worker,
                                    points = points.len(),
                                    trace = trace.clone(),
                                );
                                Response::Grant {
                                    batch,
                                    epoch,
                                    heartbeat_ms,
                                    points,
                                    trace,
                                }
                            }
                            LeaseDecision::Wait => Response::Wait {
                                backoff_ms: heartbeat_ms.max(10),
                            },
                            LeaseDecision::Drained => {
                                drain_acked.insert(worker);
                                Response::Drained
                            }
                        }
                    }
                }
                Request::Heartbeat {
                    worker,
                    batch,
                    epoch,
                    report,
                } => {
                    if let Some(report) = &report {
                        if fleet.fold(&worker, report, now) {
                            lrd_obs::counter("coord.reports", 1);
                        }
                    } else {
                        fleet.observe(&worker, now);
                    }
                    match self.table.heartbeat(&worker, batch, epoch, now) {
                        HeartbeatDecision::Alive { interval_us } => {
                            lrd_obs::histogram("coord.heartbeat_us", interval_us as f64);
                            Response::Ack
                        }
                        HeartbeatDecision::Expired => Response::Expired,
                    }
                }
                Request::Complete {
                    worker,
                    batch,
                    epoch,
                    report,
                } => {
                    if let Some(report) = &report {
                        if fleet.fold(&worker, report, now) {
                            lrd_obs::counter("coord.reports", 1);
                        }
                    } else {
                        fleet.observe(&worker, now);
                    }
                    match self.table.complete(&worker, batch, epoch)? {
                        CompleteDecision::Accepted | CompleteDecision::AcceptedStale => {
                            fleet.set_lease(&worker, None);
                            lrd_obs::event!(
                                "coord.batch_done",
                                batch = batch,
                                epoch = epoch,
                                worker = worker,
                                points = self.table.batch_len(batch),
                                trace = trace_id(batch, epoch),
                            );
                            Response::Ack
                        }
                        CompleteDecision::AlreadyDone => Response::Ack,
                        CompleteDecision::Stale => Response::Expired,
                    }
                }
                Request::Status => {
                    let mut status = self.table.status();
                    status.workers = fleet.roster(now, |batch| self.table.batch_len(batch));
                    status.fleet = fleet.fleet_total();
                    Response::Status(status)
                }
            };
            let _ = send_line(conn.as_mut(), &response.to_line());
        }
    }
}
