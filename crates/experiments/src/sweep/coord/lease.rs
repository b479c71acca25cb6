//! The lease table: which worker holds which batch, under what epoch,
//! until what deadline — itself a resumable append-only checkpoint.
//!
//! Every transition (grant, reclaim, done) is appended to an optional
//! JSONL **lease log** before it takes effect, so a coordinator killed
//! at any instant restarts from the log with at most one torn trailing
//! line — exactly the recovery contract worker checkpoints already
//! honour. Restored in-flight leases get a fresh deadline: a live
//! worker keeps heartbeating across the coordinator restart and
//! retains its lease; a dead one misses the deadline and is reclaimed.
//!
//! Epochs are **monotonic per batch** and never reused, even across a
//! coordinator restart (resume continues past the largest logged
//! epoch). A heartbeat or completion carrying a stale epoch is
//! therefore unambiguous — there is no ABA window where a reclaimed
//! and re-issued lease could be confused with the original.
//!
//! The table takes `now` (monotonic microseconds) as an argument on
//! every call rather than reading a clock, so tests drive expiry
//! deterministically.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use lrd_obs::{parse_json, write_json_string, Json};

use super::error::CoordError;
use crate::sweep::{write_manifest_durable, SweepError, SweepPlan};

/// Lease timing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How often workers must heartbeat (advertised in every grant).
    pub heartbeat_ms: u64,
    /// How long a lease survives without a heartbeat before it is
    /// reclaimed. Should comfortably exceed `heartbeat_ms` so one
    /// dropped beat does not kill a healthy lease.
    pub lease_ttl_ms: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat_ms: 500,
            lease_ttl_ms: 2000,
        }
    }
}

/// One batch's life cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchState {
    /// Not leased. `reclaimed_from` remembers the most recent expired
    /// lease so a late completion from that worker is still honoured.
    Available {
        reclaimed_from: Option<(String, u64)>,
    },
    /// Held by `worker` under `epoch` until `deadline_us`.
    Leased {
        worker: String,
        epoch: u64,
        deadline_us: u64,
        last_beat_us: u64,
    },
    /// Completed (and the completion durably logged).
    Done { worker: String },
}

/// What [`LeaseTable::lease`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseDecision {
    /// Solve these points under `(batch, epoch)`.
    Grant {
        /// The leased batch id.
        batch: usize,
        /// The monotonic lease epoch.
        epoch: u64,
        /// Stable lattice indices to solve.
        points: Vec<usize>,
    },
    /// Everything unleased is done but leases are in flight; retry.
    Wait,
    /// Every batch is done.
    Drained,
}

/// What [`LeaseTable::heartbeat`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum HeartbeatDecision {
    /// Lease extended. `interval_us` is the time since the previous
    /// beat (or grant), for the heartbeat-latency histogram.
    Alive {
        /// Microseconds since the previous beat.
        interval_us: u64,
    },
    /// The named lease is not held by this worker under this epoch.
    Expired,
}

/// What [`LeaseTable::complete`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompleteDecision {
    /// The live lease finished normally.
    Accepted,
    /// The lease had expired and been reclaimed, but the worker
    /// finished anyway (slow, not dead) before the batch was
    /// re-granted — its results are used and the batch closed.
    AcceptedStale,
    /// The batch is already done (idempotent duplicate completion).
    AlreadyDone,
    /// The lease lapsed and the batch has moved on (re-leased or
    /// finished by someone else). The worker's solved points are not
    /// wasted: they sit in its checkpoint and dedup at merge.
    Stale,
}

/// The coordinator's whole mutable state.
#[derive(Debug)]
pub struct LeaseTable {
    figure: String,
    plan_hash: String,
    profile: String,
    total_points: usize,
    batches: Vec<Vec<usize>>,
    state: Vec<BatchState>,
    /// Largest epoch ever issued per batch (never reused).
    last_epoch: Vec<u64>,
    config: LeaseConfig,
    reclaims: u64,
    grants: u64,
    log: Option<(PathBuf, File)>,
}

fn log_io(path: &Path, e: &std::io::Error) -> CoordError {
    CoordError::io(format!("appending lease log {}", path.display()), e)
}

impl LeaseTable {
    /// Builds a fresh table for `plan` with the given point batches,
    /// optionally durably logged to `log_path`.
    pub fn new(
        plan: &SweepPlan,
        batches: Vec<Vec<usize>>,
        config: LeaseConfig,
        log_path: Option<&Path>,
    ) -> Result<LeaseTable, CoordError> {
        validate_batches(&batches, plan.len())?;
        let log = match log_path {
            None => None,
            Some(path) => {
                let mut text = String::from("{\"kind\":\"coord_manifest\",\"figure\":");
                write_json_string(&mut text, &plan.figure);
                text.push_str(",\"plan_hash\":");
                write_json_string(&mut text, &plan.hash_hex());
                text.push_str(",\"profile\":");
                write_json_string(&mut text, plan.profile.tag());
                text.push_str(&format!(",\"points\":{},\"batches\":[", plan.len()));
                for (i, batch) in batches.iter().enumerate() {
                    if i > 0 {
                        text.push(',');
                    }
                    text.push('[');
                    for (j, p) in batch.iter().enumerate() {
                        if j > 0 {
                            text.push(',');
                        }
                        text.push_str(&p.to_string());
                    }
                    text.push(']');
                }
                text.push_str("]}\n");
                write_manifest_durable(path, &text)?;
                let file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| log_io(path, &e))?;
                Some((path.to_path_buf(), file))
            }
        };
        let n = batches.len();
        Ok(LeaseTable {
            figure: plan.figure.clone(),
            plan_hash: plan.hash_hex(),
            profile: plan.profile.tag().to_string(),
            total_points: plan.len(),
            batches,
            state: vec![
                BatchState::Available {
                    reclaimed_from: None
                };
                n
            ],
            last_epoch: vec![0; n],
            config,
            reclaims: 0,
            grants: 0,
            log,
        })
    }

    /// Rebuilds the table from a lease log left by a killed
    /// coordinator, replaying every intact event. Batches that were
    /// leased at the kill are restored as leased with a fresh deadline
    /// of `now + ttl`: their workers keep heartbeating across the
    /// restart and never notice; a worker that died with the
    /// coordinator misses the new deadline and is reclaimed normally.
    pub fn resume(
        plan: &SweepPlan,
        config: LeaseConfig,
        log_path: &Path,
        now_us: u64,
    ) -> Result<LeaseTable, CoordError> {
        let text = std::fs::read_to_string(log_path)
            .map_err(|e| CoordError::io(format!("reading lease log {}", log_path.display()), &e))?;
        if !text.contains('\n') {
            // Killed before the manifest flushed: no state recorded.
            // (write_manifest_durable makes this window one syscall
            // wide, but it still exists.) Surface the same typed error
            // worker checkpoints use; the server discards the file and
            // starts fresh with its own batching options.
            return Err(CoordError::Sweep(SweepError::TornManifest {
                path: log_path.to_path_buf(),
            }));
        }
        let mut lines = text.lines();
        let first = lines.next().unwrap_or_default();
        let doc = parse_json(first).map_err(|e| {
            CoordError::protocol(format!("lease log {}: {e}", log_path.display()))
        })?;
        if doc.get("kind").and_then(Json::as_str) != Some("coord_manifest") {
            return Err(CoordError::protocol(format!(
                "lease log {}: first line is not a coord_manifest",
                log_path.display()
            )));
        }
        let logged_hash = doc
            .get("plan_hash")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        if logged_hash != plan.hash_hex() {
            return Err(CoordError::Sweep(SweepError::PlanHashMismatch {
                expected: plan.hash_hex(),
                found: logged_hash,
            }));
        }
        let batches: Vec<Vec<usize>> = doc
            .get("batches")
            .and_then(Json::as_array)
            .and_then(|items| {
                items
                    .iter()
                    .map(|b| {
                        b.as_array().and_then(|ps| {
                            ps.iter()
                                .map(|p| p.as_u64().map(|v| v as usize))
                                .collect::<Option<Vec<usize>>>()
                        })
                    })
                    .collect()
            })
            .ok_or_else(|| {
                CoordError::protocol(format!(
                    "lease log {}: coord_manifest missing batches",
                    log_path.display()
                ))
            })?;
        validate_batches(&batches, plan.len())?;

        let n = batches.len();
        let mut state = vec![
            BatchState::Available {
                reclaimed_from: None
            };
            n
        ];
        let mut last_epoch = vec![0u64; n];
        let mut reclaims = 0u64;
        let mut grants = 0u64;
        let mut rest = lines.enumerate().peekable();
        while let Some((i, line)) = rest.next() {
            let is_last = rest.peek().is_none();
            let parsed = parse_json(line).ok().and_then(|doc| {
                let kind = doc.get("kind")?.as_str()?.to_string();
                let batch = doc.get("batch")?.as_u64()? as usize;
                let epoch = doc.get("epoch")?.as_u64()?;
                let worker = doc.get("worker")?.as_str()?.to_string();
                Some((kind, batch, epoch, worker))
            });
            let Some((kind, batch, epoch, worker)) = parsed else {
                if is_last {
                    // A torn trailing line from the kill: the event it
                    // described never durably happened. Drop it.
                    break;
                }
                return Err(CoordError::protocol(format!(
                    "lease log {} line {}: unreadable event",
                    log_path.display(),
                    i + 2
                )));
            };
            if batch >= n {
                return Err(CoordError::protocol(format!(
                    "lease log {} line {}: batch {batch} out of range",
                    log_path.display(),
                    i + 2
                )));
            }
            last_epoch[batch] = last_epoch[batch].max(epoch);
            match kind.as_str() {
                "grant" => {
                    grants += 1;
                    state[batch] = BatchState::Leased {
                        worker,
                        epoch,
                        deadline_us: now_us + config.lease_ttl_ms * 1000,
                        last_beat_us: now_us,
                    };
                }
                "reclaim" => {
                    reclaims += 1;
                    state[batch] = BatchState::Available {
                        reclaimed_from: Some((worker, epoch)),
                    };
                }
                "done" => {
                    state[batch] = BatchState::Done { worker };
                }
                other => {
                    return Err(CoordError::protocol(format!(
                        "lease log {} line {}: unknown event {other:?}",
                        log_path.display(),
                        i + 2
                    )));
                }
            }
        }
        // Truncate any torn tail, then reopen for appending.
        let mut clean = String::with_capacity(text.len());
        let mut kept = 0usize;
        for line in text.lines() {
            if parse_json(line).is_err() {
                break;
            }
            clean.push_str(line);
            clean.push('\n');
            kept += 1;
        }
        let _ = kept;
        write_manifest_durable(log_path, &clean)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(log_path)
            .map_err(|e| log_io(log_path, &e))?;
        Ok(LeaseTable {
            figure: plan.figure.clone(),
            plan_hash: plan.hash_hex(),
            profile: plan.profile.tag().to_string(),
            total_points: plan.len(),
            batches,
            state,
            last_epoch,
            config,
            reclaims,
            grants,
            log: Some((log_path.to_path_buf(), file)),
        })
    }

    fn log_event(&mut self, kind: &str, batch: usize, epoch: u64, worker: &str) -> Result<(), CoordError> {
        let Some((path, file)) = &mut self.log else {
            return Ok(());
        };
        let mut line = String::from("{\"kind\":");
        write_json_string(&mut line, kind);
        line.push_str(&format!(",\"batch\":{batch},\"epoch\":{epoch},\"worker\":"));
        write_json_string(&mut line, worker);
        // Wall-clock stamp so `sweep_trace` can place lease events on
        // the same timeline as worker telemetry (whose meta line
        // anchors its process clock to unix time). Resume ignores it.
        line.push_str(&format!(",\"us\":{}", unix_us()));
        line.push_str("}\n");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| log_io(path, &e))
    }

    /// The sweep identity the table serves, for lease-request
    /// validation: `(figure, plan_hash, profile)`.
    pub fn identity(&self) -> (&str, &str, &str) {
        (&self.figure, &self.plan_hash, &self.profile)
    }

    /// The configured lease timing.
    pub fn config(&self) -> LeaseConfig {
        self.config
    }

    /// Grants the lowest available batch to `worker`, or tells it to
    /// wait (leases in flight) or that the sweep is drained.
    pub fn lease(&mut self, worker: &str, now_us: u64) -> Result<LeaseDecision, CoordError> {
        let Some(batch) = self
            .state
            .iter()
            .position(|s| matches!(s, BatchState::Available { .. }))
        else {
            let any_leased = self
                .state
                .iter()
                .any(|s| matches!(s, BatchState::Leased { .. }));
            return Ok(if any_leased {
                LeaseDecision::Wait
            } else {
                LeaseDecision::Drained
            });
        };
        let epoch = self.last_epoch[batch] + 1;
        // Log first: a grant that survives only in memory could be
        // re-issued under the same epoch after a coordinator restart.
        self.log_event("grant", batch, epoch, worker)?;
        self.last_epoch[batch] = epoch;
        self.state[batch] = BatchState::Leased {
            worker: worker.to_string(),
            epoch,
            deadline_us: now_us + self.config.lease_ttl_ms * 1000,
            last_beat_us: now_us,
        };
        self.grants += 1;
        Ok(LeaseDecision::Grant {
            batch,
            epoch,
            points: self.batches[batch].clone(),
        })
    }

    /// Extends the lease `(batch, epoch)` if `worker` still holds it.
    pub fn heartbeat(
        &mut self,
        worker: &str,
        batch: usize,
        epoch: u64,
        now_us: u64,
    ) -> HeartbeatDecision {
        match self.state.get_mut(batch) {
            Some(BatchState::Leased {
                worker: holder,
                epoch: held,
                deadline_us,
                last_beat_us,
            }) if holder == worker && *held == epoch => {
                let interval = now_us.saturating_sub(*last_beat_us);
                *last_beat_us = now_us;
                *deadline_us = now_us + self.config.lease_ttl_ms * 1000;
                HeartbeatDecision::Alive {
                    interval_us: interval,
                }
            }
            _ => HeartbeatDecision::Expired,
        }
    }

    /// Marks `(batch, epoch)` complete if the completion is honourable
    /// (live lease, or a reclaimed-but-unregranted one).
    pub fn complete(
        &mut self,
        worker: &str,
        batch: usize,
        epoch: u64,
    ) -> Result<CompleteDecision, CoordError> {
        let decision = match self.state.get(batch) {
            Some(BatchState::Leased {
                worker: holder,
                epoch: held,
                ..
            }) if holder == worker && *held == epoch => CompleteDecision::Accepted,
            Some(BatchState::Available {
                reclaimed_from: Some((w, e)),
            }) if w == worker && *e == epoch => CompleteDecision::AcceptedStale,
            Some(BatchState::Done { .. }) => CompleteDecision::AlreadyDone,
            _ => CompleteDecision::Stale,
        };
        if matches!(
            decision,
            CompleteDecision::Accepted | CompleteDecision::AcceptedStale
        ) {
            self.log_event("done", batch, epoch, worker)?;
            self.state[batch] = BatchState::Done {
                worker: worker.to_string(),
            };
        }
        Ok(decision)
    }

    /// Reclaims every lease whose deadline has passed, returning
    /// `(batch, worker, epoch)` for each so the server can emit
    /// telemetry.
    pub fn reclaim_expired(&mut self, now_us: u64) -> Result<Vec<(usize, String, u64)>, CoordError> {
        let mut reclaimed = Vec::new();
        for batch in 0..self.state.len() {
            let BatchState::Leased {
                worker,
                epoch,
                deadline_us,
                ..
            } = &self.state[batch]
            else {
                continue;
            };
            if *deadline_us > now_us {
                continue;
            }
            let (worker, epoch) = (worker.clone(), *epoch);
            self.log_event("reclaim", batch, epoch, &worker)?;
            self.state[batch] = BatchState::Available {
                reclaimed_from: Some((worker.clone(), epoch)),
            };
            self.reclaims += 1;
            reclaimed.push((batch, worker, epoch));
        }
        Ok(reclaimed)
    }

    /// Whether every batch is done.
    pub fn drained(&self) -> bool {
        self.state.iter().all(|s| matches!(s, BatchState::Done { .. }))
    }

    /// Queue counters for status responses and the final summary. The
    /// roster and fleet fold live in the server's
    /// [`FleetRegistry`](super::fleet::FleetRegistry), not here — the
    /// table only knows batches.
    pub fn status(&self) -> super::proto::StatusReport {
        super::proto::StatusReport {
            batches: self.state.len(),
            done: self
                .state
                .iter()
                .filter(|s| matches!(s, BatchState::Done { .. }))
                .count(),
            leased: self
                .state
                .iter()
                .filter(|s| matches!(s, BatchState::Leased { .. }))
                .count(),
            reclaims: self.reclaims,
            total_points: self.total_points,
            done_points: self.done_points(),
            ..super::proto::StatusReport::default()
        }
    }

    /// Points covered by completed batches.
    pub fn done_points(&self) -> usize {
        self.state
            .iter()
            .zip(&self.batches)
            .filter(|(s, _)| matches!(s, BatchState::Done { .. }))
            .map(|(_, b)| b.len())
            .sum()
    }

    /// Total lease grants issued (including re-issues after reclaims).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total points across all batches.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// Number of points in `batch` (0 when out of range).
    pub fn batch_len(&self, batch: usize) -> usize {
        self.batches.get(batch).map_or(0, Vec::len)
    }

    /// Every worker identity the table currently knows of — lease
    /// holders, completers, and the most recent reclaimees. After a
    /// resume this is the log's worker population: identities that may
    /// still be alive, mid-reconnect-backoff, and owed a drain notice.
    pub fn workers(&self) -> BTreeSet<String> {
        let mut workers = BTreeSet::new();
        for state in &self.state {
            match state {
                BatchState::Available {
                    reclaimed_from: Some((worker, _)),
                } => workers.insert(worker.clone()),
                BatchState::Leased { worker, .. } | BatchState::Done { worker } => {
                    workers.insert(worker.clone())
                }
                BatchState::Available {
                    reclaimed_from: None,
                } => false,
            };
        }
        workers
    }
}

/// Wall-clock microseconds since the unix epoch (0 if the clock is
/// before it, which only a badly skewed VM clock produces).
pub(crate) fn unix_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Every point `0..total` appears in exactly one batch, and no batch
/// is empty.
fn validate_batches(batches: &[Vec<usize>], total: usize) -> Result<(), CoordError> {
    let mut seen = BTreeSet::new();
    for batch in batches {
        if batch.is_empty() {
            return Err(CoordError::protocol("empty point batch"));
        }
        for &p in batch {
            if p >= total || !seen.insert(p) {
                return Err(CoordError::protocol(format!(
                    "batches do not partition the lattice: point {p} repeated or out of range"
                )));
            }
        }
    }
    if seen.len() != total {
        return Err(CoordError::protocol(format!(
            "batches cover {} of {total} points",
            seen.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Profile;
    use crate::sweep::Axis;
    use lrd_fluidq::SolverOptions;

    fn plan() -> SweepPlan {
        SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "loss_rate",
            Axis::new("b", vec![0.1, 1.0, 10.0]),
            Axis::new("tc", vec![0.5, 5.0, f64::INFINITY]),
            SolverOptions::sweep_profile(),
        )
    }

    fn batches() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]
    }

    fn tmplog(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lrd-lease-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("coord.jsonl")
    }

    const CFG: LeaseConfig = LeaseConfig {
        heartbeat_ms: 10,
        lease_ttl_ms: 50,
    };

    #[test]
    fn lease_heartbeat_complete_happy_path() {
        let p = plan();
        let mut t = LeaseTable::new(&p, batches(), CFG, None).unwrap();
        let LeaseDecision::Grant {
            batch,
            epoch,
            points,
        } = t.lease("w0", 0).unwrap()
        else {
            panic!("expected a grant");
        };
        assert_eq!((batch, epoch), (0, 1));
        assert_eq!(points, vec![0, 1, 2]);
        assert!(matches!(
            t.heartbeat("w0", batch, epoch, 10_000),
            HeartbeatDecision::Alive {
                interval_us: 10_000
            }
        ));
        assert_eq!(t.complete("w0", batch, epoch).unwrap(), CompleteDecision::Accepted);
        // Second completion is idempotent.
        assert_eq!(
            t.complete("w0", batch, epoch).unwrap(),
            CompleteDecision::AlreadyDone
        );
        // Other two batches drain normally.
        for _ in 0..2 {
            let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
                panic!("expected a grant");
            };
            t.complete("w0", batch, epoch).unwrap();
        }
        assert!(t.drained());
        assert_eq!(t.lease("w0", 0).unwrap(), LeaseDecision::Drained);
        assert_eq!(t.status().done, 3);
    }

    #[test]
    fn expired_leases_are_reclaimed_and_reissued_with_higher_epoch() {
        let p = plan();
        let mut t = LeaseTable::new(&p, batches(), CFG, None).unwrap();
        let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
            panic!("expected a grant");
        };
        // No beat before the ttl: reclaimed.
        let reclaimed = t.reclaim_expired(CFG.lease_ttl_ms * 1000 + 1).unwrap();
        assert_eq!(reclaimed, vec![(batch, "w0".to_string(), epoch)]);
        assert_eq!(t.status().reclaims, 1);
        // Dead worker's heartbeat and the re-issue: new epoch, never
        // reused.
        assert_eq!(
            t.heartbeat("w0", batch, epoch, 60_000),
            HeartbeatDecision::Expired
        );
        let LeaseDecision::Grant {
            batch: b2,
            epoch: e2,
            ..
        } = t.lease("w1", 60_000).unwrap()
        else {
            panic!("expected a grant");
        };
        assert_eq!(b2, batch);
        assert!(e2 > epoch);
        // The original holder's completion is now stale; w1's lands.
        assert_eq!(t.complete("w0", batch, epoch).unwrap(), CompleteDecision::Stale);
        assert_eq!(t.complete("w1", b2, e2).unwrap(), CompleteDecision::Accepted);
    }

    #[test]
    fn slow_but_alive_worker_completion_is_honoured_after_reclaim() {
        let p = plan();
        let mut t = LeaseTable::new(&p, batches(), CFG, None).unwrap();
        let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
            panic!("expected a grant");
        };
        t.reclaim_expired(u64::MAX).unwrap();
        // Reclaimed but not yet re-granted: the straggler's completion
        // still counts.
        assert_eq!(
            t.complete("w0", batch, epoch).unwrap(),
            CompleteDecision::AcceptedStale
        );
        assert_eq!(t.status().done, 1);
    }

    #[test]
    fn heartbeats_keep_a_lease_alive_indefinitely() {
        let p = plan();
        let mut t = LeaseTable::new(&p, batches(), CFG, None).unwrap();
        let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
            panic!("expected a grant");
        };
        let ttl_us = CFG.lease_ttl_ms * 1000;
        let mut now = 0u64;
        for _ in 0..20 {
            now += ttl_us / 2;
            assert!(matches!(
                t.heartbeat("w0", batch, epoch, now),
                HeartbeatDecision::Alive { .. }
            ));
            assert!(t.reclaim_expired(now).unwrap().is_empty());
        }
    }

    #[test]
    fn table_resumes_from_lease_log_with_epochs_continuing() {
        let p = plan();
        let log = tmplog("resume");
        {
            let mut t = LeaseTable::new(&p, batches(), CFG, Some(&log)).unwrap();
            // Batch 0 done by w0; batch 1 leased to w1 (in flight at
            // the kill); batch 2 reclaimed from w2.
            let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
                panic!()
            };
            t.complete("w0", batch, epoch).unwrap();
            let LeaseDecision::Grant { .. } = t.lease("w1", 0).unwrap() else {
                panic!()
            };
            let LeaseDecision::Grant { batch: b2, .. } = t.lease("w2", 0).unwrap() else {
                panic!()
            };
            assert_eq!(b2, 2);
            t.reclaim_expired(u64::MAX).unwrap();
            // w1's lease was also reclaimed by now_us = MAX; re-grant
            // batch 1 to w1 so the log ends with it leased again.
            let LeaseDecision::Grant { batch: b1, epoch: e1, .. } = t.lease("w1", 0).unwrap()
            else {
                panic!()
            };
            assert_eq!((b1, e1), (1, 2));
            // Coordinator "killed" here: table dropped.
        }
        let now = 1_000_000u64;
        let mut t = LeaseTable::resume(&p, CFG, &log, now).unwrap();
        let status = t.status();
        assert_eq!((status.batches, status.done, status.leased), (3, 1, 1));
        // w1 keeps its lease across the restart as long as it beats.
        assert!(matches!(
            t.heartbeat("w1", 1, 2, now + 10_000),
            HeartbeatDecision::Alive { .. }
        ));
        // Batch 2 was reclaimed from w2 pre-kill; its epoch continues
        // past the logged maximum on re-grant.
        let LeaseDecision::Grant { batch, epoch, points } = t.lease("w3", now).unwrap() else {
            panic!()
        };
        assert_eq!(batch, 2);
        assert_eq!(epoch, 2);
        assert_eq!(points, vec![6, 7, 8]);
        // And w2's ancient completion for epoch 1 is honoured as
        // stale-but-too-late now that the batch is re-leased.
        assert_eq!(t.complete("w2", 2, 1).unwrap(), CompleteDecision::Stale);
    }

    #[test]
    fn resume_tolerates_torn_tail_and_rejects_other_plans() {
        let p = plan();
        let log = tmplog("torn");
        {
            let mut t = LeaseTable::new(&p, batches(), CFG, Some(&log)).unwrap();
            let LeaseDecision::Grant { batch, epoch, .. } = t.lease("w0", 0).unwrap() else {
                panic!()
            };
            t.complete("w0", batch, epoch).unwrap();
        }
        // Tear the last line mid-write.
        let text = std::fs::read_to_string(&log).unwrap();
        std::fs::write(&log, &text[..text.len() - 7]).unwrap();
        let t = LeaseTable::resume(&p, CFG, &log, 0).unwrap();
        // The torn "done" never durably happened: batch 0 is back to
        // available-after-grant replay… actually the grant survives,
        // so it is leased.
        assert_eq!(t.status().leased, 1);
        assert_eq!(t.status().done, 0);

        // A different plan refuses to adopt the log.
        let mut other = plan();
        other.axes[0].values[0] = 0.2;
        let err = LeaseTable::resume(&other, CFG, &log, 0).unwrap_err();
        assert!(matches!(
            err,
            CoordError::Sweep(SweepError::PlanHashMismatch { .. })
        ));
    }

    #[test]
    fn batches_must_partition_the_lattice() {
        let p = plan();
        for bad in [
            vec![vec![0, 1, 2]],                                   // misses points
            vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]],              // out of range
            vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7, 8]],        // repeat
            vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8], vec![]],         // empty batch
        ] {
            assert!(LeaseTable::new(&p, bad, CFG, None).is_err());
        }
    }
}
