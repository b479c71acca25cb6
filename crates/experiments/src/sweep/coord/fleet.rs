//! The coordinator's fleet-wide metrics fold and worker roster.
//!
//! Workers piggyback cumulative-per-incarnation [`WorkerReport`]s on
//! heartbeats and completions (see [`proto`](super::proto)); this
//! module folds them into one [`FleetRegistry`] that can answer the
//! `status` query: per-worker last-seen, points/sec, outstanding
//! lease, and a predicted time-to-finish derived from the **live**
//! `sweep.solve_us` stream, so no prior cost profile is needed.
//!
//! ## Why cumulative snapshots, not deltas
//!
//! The wire loses messages (a worker re-sends a heartbeat whose ack
//! died) and workers restart (a killed process re-leases under the
//! same identity). Raw deltas double-count on redelivery; raw
//! cumulative-replace forgets the pre-crash contribution on restart.
//! The fold here keeps, per worker, a **settled** snapshot (the sum of
//! all dead incarnations) and a **live** one (the latest snapshot of
//! the current incarnation, replaced — never added — when a higher
//! sequence number arrives):
//!
//! * same incarnation, higher `seq` → replace `live` (idempotent on
//!   redelivery, monotone under reordering);
//! * new incarnation → merge `live` into `settled`, then start the new
//!   `live` (restart-tolerant);
//! * stale or duplicate `seq` → dropped.
//!
//! A worker's total is `settled ⊕ live`; the fleet total merges every
//! worker's total with [`MetricsSnapshot::merge`] (histograms add
//! bucket-wise, exactly as [`LogHistogram::merge`] does in-process).
//!
//! [`LogHistogram::merge`]: lrd_obs::LogHistogram::merge

use std::collections::BTreeMap;

use lrd_obs::MetricsSnapshot;

use super::proto::{WorkerReport, WorkerStatus};

/// The counter a worker reports its solved-point total under.
pub const POINTS_COUNTER: &str = "sweep.points";
/// The histogram a worker reports per-point solve durations under.
pub const SOLVE_US_HISTOGRAM: &str = "sweep.solve_us";

#[derive(Debug, Default)]
struct WorkerEntry {
    /// Sum of every finished incarnation's final snapshot.
    settled: MetricsSnapshot,
    /// Latest snapshot of the current incarnation.
    live: MetricsSnapshot,
    live_incarnation: String,
    live_seq: u64,
    first_seen_us: u64,
    last_seen_us: u64,
    lease: Option<usize>,
    reports: u64,
}

impl WorkerEntry {
    fn total(&self) -> MetricsSnapshot {
        let mut total = self.settled.clone();
        total.merge(&self.live);
        total
    }
}

/// Per-worker report folds plus the roster bookkeeping behind the
/// coordinator's `status` response.
#[derive(Debug, Default)]
pub struct FleetRegistry {
    workers: BTreeMap<String, WorkerEntry>,
}

impl FleetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a contact from `worker` at `now_us` (any lease,
    /// heartbeat, or complete request), creating the roster entry on
    /// first sight.
    pub fn observe(&mut self, worker: &str, now_us: u64) {
        let entry = self
            .workers
            .entry(worker.to_string())
            .or_insert_with(|| WorkerEntry {
                first_seen_us: now_us,
                ..WorkerEntry::default()
            });
        entry.last_seen_us = entry.last_seen_us.max(now_us);
    }

    /// Updates which batch `worker` holds a lease on (`None` clears).
    pub fn set_lease(&mut self, worker: &str, lease: Option<usize>) {
        if let Some(entry) = self.workers.get_mut(worker) {
            entry.lease = lease;
        }
    }

    /// Folds one piggybacked report. Returns `true` when the report
    /// advanced the fold, `false` when it was a stale or duplicate
    /// delivery (same incarnation, `seq` not above the highest seen) —
    /// redelivering any prefix of the report stream is a no-op.
    pub fn fold(&mut self, worker: &str, report: &WorkerReport, now_us: u64) -> bool {
        self.observe(worker, now_us);
        let entry = self.workers.get_mut(worker).expect("observed above");
        if entry.live_incarnation != report.incarnation {
            // A respawned worker process: its predecessor will never
            // report again, so its last snapshot becomes settled.
            let live = std::mem::take(&mut entry.live);
            entry.settled.merge(&live);
            report.incarnation.clone_into(&mut entry.live_incarnation);
        } else if report.seq <= entry.live_seq && entry.reports > 0 {
            return false;
        }
        entry.live = report.snapshot.clone();
        entry.live_seq = report.seq;
        entry.reports += 1;
        true
    }

    /// The named worker's folded total (settled ⊕ live), if it ever
    /// contacted the coordinator.
    pub fn worker_total(&self, worker: &str) -> Option<MetricsSnapshot> {
        self.workers.get(worker).map(WorkerEntry::total)
    }

    /// The fleet-wide fold: every worker's total merged into one
    /// snapshot.
    pub fn fleet_total(&self) -> MetricsSnapshot {
        let mut fleet = MetricsSnapshot::new();
        for entry in self.workers.values() {
            fleet.merge(&entry.total());
        }
        fleet
    }

    /// Reports folded across the fleet (for telemetry counters).
    pub fn reports(&self) -> u64 {
        self.workers.values().map(|e| e.reports).sum()
    }

    /// The roster rows for a `status` response. `now_us` supplies the
    /// clock for last-seen ages and throughput windows;
    /// `batch_remaining(batch)` reports how many points of the
    /// worker's outstanding lease are still unsolved (the batch size
    /// is a fine answer — prediction errs conservative).
    pub fn roster(
        &self,
        now_us: u64,
        mut batch_remaining: impl FnMut(usize) -> usize,
    ) -> Vec<WorkerStatus> {
        self.workers
            .iter()
            .map(|(worker, entry)| {
                let total = entry.total();
                let points = total.counter(POINTS_COUNTER);
                let window_us = entry.last_seen_us.saturating_sub(entry.first_seen_us);
                let points_per_sec = if window_us > 0 {
                    points as f64 / (window_us as f64 / 1e6)
                } else {
                    0.0
                };
                // The live cost model: the worker's own measured mean
                // solve duration prices its outstanding lease.
                let mean_solve_us = total
                    .histogram(SOLVE_US_HISTOGRAM)
                    .map(|h| h.mean())
                    .filter(|m| m.is_finite())
                    .unwrap_or(0.0);
                let lease_remaining_us = entry
                    .lease
                    .map(|batch| batch_remaining(batch) as f64 * mean_solve_us)
                    .unwrap_or(0.0);
                WorkerStatus {
                    worker: worker.clone(),
                    last_seen_us: now_us.saturating_sub(entry.last_seen_us),
                    points,
                    points_per_sec,
                    lease: entry.lease,
                    lease_remaining_us,
                    reports: entry.reports,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(incarnation: &str, seq: u64, points: u64, solve_us: &[f64]) -> WorkerReport {
        let mut snapshot = MetricsSnapshot::new();
        snapshot.add_counter(POINTS_COUNTER, points);
        for &us in solve_us {
            snapshot.record_histogram(SOLVE_US_HISTOGRAM, us);
        }
        WorkerReport {
            incarnation: incarnation.to_string(),
            seq,
            snapshot,
        }
    }

    #[test]
    fn redelivered_reports_are_idempotent() {
        let mut fleet = FleetRegistry::new();
        assert!(fleet.fold("w-1", &report("i-a", 1, 3, &[10.0]), 100));
        assert!(fleet.fold("w-1", &report("i-a", 2, 7, &[10.0, 20.0]), 200));
        let before = fleet.fleet_total();

        // Redeliver both, out of order: neither changes the fold.
        assert!(!fleet.fold("w-1", &report("i-a", 1, 3, &[10.0]), 300));
        assert!(!fleet.fold("w-1", &report("i-a", 2, 7, &[10.0, 20.0]), 400));
        assert_eq!(fleet.fleet_total(), before);
        assert_eq!(before.counter(POINTS_COUNTER), 7);
        assert_eq!(before.histogram(SOLVE_US_HISTOGRAM).unwrap().count, 2);
    }

    #[test]
    fn respawn_settles_the_previous_incarnation() {
        let mut fleet = FleetRegistry::new();
        // First incarnation solves 5 points, then the process dies.
        fleet.fold("w-1", &report("i-a", 3, 5, &[10.0, 10.0]), 100);
        // The respawn starts its counters from zero.
        fleet.fold("w-1", &report("i-b", 1, 2, &[30.0]), 200);
        let total = fleet.worker_total("w-1").unwrap();
        assert_eq!(total.counter(POINTS_COUNTER), 7, "5 pre-crash + 2 fresh");
        assert_eq!(total.histogram(SOLVE_US_HISTOGRAM).unwrap().count, 3);
        // A seq-1 report from the *new* incarnation is not stale even
        // though the old one had reached seq 3.
        assert!(fleet.fold("w-1", &report("i-b", 2, 4, &[30.0, 40.0]), 300));
        assert_eq!(
            fleet.worker_total("w-1").unwrap().counter(POINTS_COUNTER),
            9
        );
    }

    #[test]
    fn fleet_total_merges_across_workers() {
        let mut fleet = FleetRegistry::new();
        fleet.fold("w-1", &report("i-a", 1, 3, &[8.0]), 100);
        fleet.fold("w-2", &report("i-b", 1, 4, &[128.0]), 100);
        let total = fleet.fleet_total();
        assert_eq!(total.counter(POINTS_COUNTER), 7);
        let h = total.histogram(SOLVE_US_HISTOGRAM).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 8.0);
        assert_eq!(h.max, 128.0);
    }

    #[test]
    fn roster_reports_throughput_lease_and_prediction() {
        let mut fleet = FleetRegistry::new();
        fleet.observe("w-1", 1_000_000);
        fleet.set_lease("w-1", Some(4));
        // 10 points over a 2-second contact window → 5 points/sec;
        // mean solve 100 µs over 3 remaining points → 300 µs left.
        fleet.fold("w-1", &report("i-a", 1, 10, &[100.0, 100.0]), 3_000_000);
        let roster = fleet.roster(3_500_000, |batch| {
            assert_eq!(batch, 4);
            3
        });
        assert_eq!(roster.len(), 1);
        let w = &roster[0];
        assert_eq!(w.worker, "w-1");
        assert_eq!(w.last_seen_us, 500_000);
        assert_eq!(w.points, 10);
        assert!((w.points_per_sec - 5.0).abs() < 1e-9, "{}", w.points_per_sec);
        assert_eq!(w.lease, Some(4));
        assert!((w.lease_remaining_us - 300.0).abs() < 1e-9);
        assert_eq!(w.reports, 1);

        // Completing the lease clears the prediction.
        fleet.set_lease("w-1", None);
        let roster = fleet.roster(3_500_000, |_| unreachable!("no lease to price"));
        assert_eq!(roster[0].lease, None);
        assert_eq!(roster[0].lease_remaining_us, 0.0);
    }

    #[test]
    fn observe_without_reports_keeps_an_empty_roster_row() {
        let mut fleet = FleetRegistry::new();
        fleet.observe("w-quiet", 50);
        let roster = fleet.roster(150, |_| 0);
        assert_eq!(roster.len(), 1);
        assert_eq!(roster[0].points, 0);
        assert_eq!(roster[0].reports, 0);
        assert_eq!(roster[0].last_seen_us, 100);
        assert!(fleet.fleet_total().is_empty());
    }
}
