//! Fleet-status consistency under heartbeat chaos.
//!
//! Drives a real coordinator and two in-process `run_steal` workers
//! with aggressive heartbeat drop, polling the read-only `status`
//! query the whole time, and checks the observability contract:
//!
//! * the final status reconciles exactly — `done_points` equals the
//!   plan size, and every worker's folded `sweep.points` counter
//!   equals the point lines in its own checkpoint;
//! * the merged checkpoints reproduce the full lattice (telemetry is
//!   a view over the same run, never a second source of truth);
//! * snapshot redelivery is idempotent end-to-end: replaying the same
//!   `(incarnation, seq)` report over the wire changes nothing.
//!
//! A probe identity leases once and never acks the drain, which holds
//! the coordinator in its post-drain linger window — the final status
//! polls are deterministic, not a race against server exit.

use std::path::PathBuf;
use std::time::Duration;

use lrd_experiments::figures::Profile;
use lrd_experiments::sweep::coord::proto::{connect, recv_line, send_line};
use lrd_experiments::sweep::coord::{
    run_steal, worker_identity, ChaosConfig, CoordOptions, CoordServer, Endpoint, LeaseConfig,
    Request, Response, StatusReport, StealOptions, WorkerReport,
};
use lrd_experiments::sweep::{
    merge_checkpoints, Axis, FigureSweep, PointResult, PointSpec, SweepPlan,
};
use lrd_fluidq::SolverOptions;
use lrd_obs::MetricsSnapshot;

/// A synthetic sweep: deterministic values, a small per-point sleep so
/// the run is long enough to observe mid-flight.
fn plan() -> SweepPlan {
    SweepPlan::grid_plan(
        "fleet_status_demo",
        Profile::Quick,
        "loss_rate",
        Axis::new("b", vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0]),
        Axis::new("tc", vec![0.5, 1.0, 2.0, 5.0, 20.0, f64::INFINITY]),
        SolverOptions::sweep_profile(),
    )
}

fn sweep() -> FigureSweep<'static> {
    FigureSweep {
        plan: plan(),
        solve: Box::new(|spec: &PointSpec, _donor| {
            std::thread::sleep(Duration::from_millis(2));
            (
                PointResult {
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
    let dir = std::env::temp_dir().join(format!("lrd-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request/response round trip on a fresh connection.
fn roundtrip(endpoint: &Endpoint, request: &Request) -> Option<Response> {
    let mut conn = connect(endpoint).ok()?;
    send_line(conn.as_mut(), &request.to_line()).ok()?;
    let line = recv_line(conn.as_mut()).ok()?;
    Some(Response::parse(&line).expect("well-formed response"))
}

fn poll_status(endpoint: &Endpoint) -> Option<StatusReport> {
    match roundtrip(endpoint, &Request::Status)? {
        Response::Status(status) => Some(status),
        other => panic!("unexpected status response {other:?}"),
    }
}

/// Point lines in a worker checkpoint (total lines minus the manifest).
fn checkpoint_points(path: &PathBuf) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().filter(|l| !l.trim().is_empty()).count() - 1
}

#[test]
fn final_status_reconciles_with_checkpoints_under_heartbeat_chaos() {
    let dir = tmpdir("chaos");
    let plan = plan();
    let total_points = plan.len();

    let server = CoordServer::start(
        &plan,
        CoordOptions {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            lease_log: Some(dir.join("coord.leases")),
            config: LeaseConfig {
                heartbeat_ms: 25,
                lease_ttl_ms: 200,
            },
            batch_points: 3,
        },
    )
    .unwrap();
    let endpoint = server.endpoint();
    let server = std::thread::spawn(move || server.run().unwrap());

    // Register a probe identity that never acks the drain: the
    // coordinator lingers after the queue empties, so the final
    // status polls below cannot race its exit. The probe never
    // heartbeats, so any batch it is granted is reclaimed and
    // re-issued to a real worker — more chaos, no lost work.
    let probe_lease = Request::Lease {
        figure: plan.figure.clone(),
        plan_hash: plan.hash_hex(),
        profile: plan.profile.tag().to_string(),
        worker: "w-probe".to_string(),
        report: None,
    };
    assert!(
        roundtrip(&endpoint, &probe_lease).is_some(),
        "probe lease must reach the coordinator"
    );

    let checkpoints: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("worker-{i}.jsonl"))).collect();
    let workers: Vec<_> = checkpoints
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, checkpoint)| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let sweep = sweep();
                let options = StealOptions {
                    endpoint,
                    chaos: ChaosConfig {
                        heartbeat_drop: 0.6,
                        heartbeat_delay_ms: 0,
                        seed: 41 + i as u64,
                    },
                    ..StealOptions::default()
                };
                run_steal(&sweep, &checkpoint, &options).unwrap()
            })
        })
        .collect();

    // Poll the read-only status query while the sweep runs. Totals
    // must stay within the plan and never regress.
    let mut mid_flight_polls = 0usize;
    let mut last_done = 0usize;
    while !workers.iter().all(|w| w.is_finished()) {
        if let Some(status) = poll_status(&endpoint) {
            assert_eq!(status.total_points, total_points);
            assert!(status.done_points <= total_points);
            assert!(
                status.done_points >= last_done,
                "done_points regressed: {} -> {}",
                last_done,
                status.done_points
            );
            last_done = status.done_points;
            mid_flight_polls += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(mid_flight_polls > 0, "never observed the sweep mid-flight");

    let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(summaries.iter().all(|s| s.drained));

    // The probe holds the linger open: this poll is deterministic.
    let status = poll_status(&endpoint).expect("coordinator lingers until the probe acks");
    assert_eq!(status.done, status.batches, "every batch done");
    assert_eq!(status.done_points, total_points);
    assert_eq!(status.total_points, total_points);
    assert_eq!(status.leased, 0);

    // Per-worker reconciliation: the folded sweep.points counter in
    // the roster equals the worker's own durable checkpoint, exactly.
    // (The final lease request piggybacks the last cumulative
    // snapshot, so lost heartbeats cannot leave the fold short.)
    for (summary, checkpoint) in summaries.iter().zip(&checkpoints) {
        let identity = worker_identity(checkpoint);
        assert_eq!(summary.worker, identity);
        let row = status
            .workers
            .iter()
            .find(|w| w.worker == identity)
            .unwrap_or_else(|| panic!("{identity} missing from the roster"));
        let on_disk = checkpoint_points(checkpoint);
        assert_eq!(
            row.points as usize, on_disk,
            "{identity}: roster points != checkpoint points"
        );
        assert_eq!(summary.solved, on_disk);
        assert!(row.reports > 0, "{identity}: no reports folded");
    }
    let fleet_points = status.fleet.counter("sweep.points") as usize;
    let disk_points: usize = checkpoints.iter().map(checkpoint_points).sum();
    assert_eq!(fleet_points, disk_points, "fleet fold != sum of checkpoints");
    assert!(
        disk_points >= total_points,
        "checkpoints must cover the lattice (dups allowed after reclaims)"
    );

    // Telemetry is a view, not the source of truth: the merged
    // checkpoints still reproduce the full deduplicated lattice.
    let merged = merge_checkpoints(&checkpoints).unwrap();
    assert_eq!(merged.results.len(), total_points);

    // Snapshot redelivery is idempotent end-to-end: replaying the
    // same (incarnation, seq) report over the wire changes nothing.
    // The heartbeat is for a long-gone lease — the coordinator answers
    // Expired but still folds the piggybacked report.
    let mut snapshot = MetricsSnapshot::new();
    snapshot.add_counter("sweep.points", 5);
    let replay = Request::Heartbeat {
        worker: "w-probe".to_string(),
        batch: 0,
        epoch: u64::MAX,
        report: Some(WorkerReport {
            incarnation: "i-replay".to_string(),
            seq: 7,
            snapshot,
        }),
    };
    assert_eq!(roundtrip(&endpoint, &replay), Some(Response::Expired));
    let once = poll_status(&endpoint).expect("still lingering");
    assert_eq!(roundtrip(&endpoint, &replay), Some(Response::Expired));
    let twice = poll_status(&endpoint).expect("still lingering");
    assert_eq!(once.fleet.counter("sweep.points"), fleet_points as u64 + 5);
    assert_eq!(twice.fleet.counter("sweep.points"), fleet_points as u64 + 5);
    let probe_row = |s: &StatusReport| {
        s.workers
            .iter()
            .find(|w| w.worker == "w-probe")
            .map(|w| (w.points, w.reports))
            .expect("probe is on the roster")
    };
    assert_eq!(probe_row(&once), (5, 1));
    assert_eq!(probe_row(&twice), (5, 1), "redelivered report was re-folded");

    // Release the linger: the probe asks again, is told Drained, and
    // the coordinator exits cleanly.
    assert_eq!(roundtrip(&endpoint, &probe_lease), Some(Response::Drained));
    let summary = server.join().unwrap();
    assert!(summary.drained);
    assert_eq!(summary.points, total_points);

    let _ = std::fs::remove_dir_all(&dir);
}
