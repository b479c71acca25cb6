//! Sharded sweep execution is a pure partition of the unsharded run:
//! any shard count, any kill-and-resume history, static round-robin
//! shards or work-stealing workers, and a final merge must reproduce
//! the single-process surface bit for bit.

use std::path::PathBuf;

use lrd_experiments::figures::{fig04_05, Profile};
use lrd_experiments::sweep::{merge_checkpoints, read_checkpoint, run_points, ShardSpec};
use lrd_experiments::Corpus;

#[test]
fn round_robin_shards_partition_any_lattice() {
    // Property: for arbitrary i/n, the shards' index sets are disjoint
    // and their union is the full lattice.
    let corpus = Corpus::quick();
    let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
    let total = sweep.plan.len();
    for n in 1..=7u32 {
        let mut seen = vec![0u32; total];
        for i in 0..n {
            let shard = ShardSpec::new(i, n).unwrap();
            for p in sweep.plan.points_for(&shard) {
                assert!(shard.owns(p.index));
                seen[p.index] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "n={n}: some point not covered exactly once: {seen:?}"
        );
    }
}

fn solve_sharded(dir: &std::path::Path, count: u32) -> Vec<PathBuf> {
    let corpus = Corpus::quick();
    (0..count)
        .map(|i| {
            let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
            let path = dir.join(format!("shard{i}of{count}.jsonl"));
            let shard = ShardSpec::new(i, count).unwrap();
            run_points(&sweep, &shard, Some(&path)).unwrap();
            path
        })
        .collect()
}

#[test]
fn sharded_merge_is_bit_identical_to_unsharded() {
    let corpus = Corpus::quick();
    let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
    let reference = run_points(&sweep, &ShardSpec::FULL, None).unwrap();
    let ref_grid = sweep.plan.to_grid(&reference);

    let dir = std::env::temp_dir().join("lrd-sweep-shard-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for count in [1u32, 2, 3] {
        let paths = solve_sharded(&dir, count);
        let merged = merge_checkpoints(&paths).unwrap();
        assert_eq!(merged.manifest.shard().unwrap().count, count);
        assert_eq!(merged.results.len(), reference.len());
        for (m, r) in merged.results.iter().zip(&reference) {
            assert_eq!(m.index, r.index);
            assert_eq!(
                m.value.to_bits(),
                r.value.to_bits(),
                "count={count}, point {}: merged {} != unsharded {}",
                m.index,
                m.value,
                r.value
            );
            // Iteration counts (and the grid resolution a warm
            // certificate inherits from its donor) are the one thing
            // sharding may change: a shard that does not own a
            // point's lattice donor runs it cold. The full reference
            // run always has every donor, so a shard can only *lose*
            // warm starts — a discrepancy is legal only where the
            // reference certified the point warm in zero iterations.
            assert!(
                m.iterations == r.iterations || r.iterations == 0,
                "count={count}, point {}: iterations {} vs reference {}",
                m.index,
                m.iterations,
                r.iterations
            );
            if m.iterations == r.iterations {
                assert_eq!(m.bins, r.bins);
            }
            assert_eq!(m.converged, r.converged);
        }
        let grid = sweep.plan.to_grid(&merged.results);
        assert_eq!(grid.values, ref_grid.values);
        let total: u64 = reference.iter().map(|r| r.iterations).sum();
        assert!(merged.total_iterations() >= total);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_resumes_without_resolving_or_drifting() {
    let corpus = Corpus::quick();
    let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
    let shard = ShardSpec::new(0, 2).unwrap();
    let owned = sweep.plan.points_for(&shard).len();
    assert!(owned >= 3, "test needs a few points per shard, got {owned}");

    let dir = std::env::temp_dir().join("lrd-sweep-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard0.jsonl");

    // A completed run of the shard, then a simulated mid-write kill:
    // drop the last point line and leave a torn half-line behind.
    let full = run_points(&sweep, &shard, Some(&path)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let torn = &lines.pop().unwrap()[..10];
    let truncated = format!("{}\n{torn}", lines.join("\n"));
    std::fs::write(&path, truncated).unwrap();

    let ck = read_checkpoint(&path).unwrap();
    assert!(ck.truncated_tail, "the torn tail must be detected");
    assert_eq!(ck.points.len(), owned - 1);

    // Resume: only the lost point is re-solved; the stream of results
    // is bit-identical to the uninterrupted run.
    let resumed = run_points(&sweep, &shard, Some(&path)).unwrap();
    assert_eq!(resumed.len(), full.len());
    for (a, b) in resumed.iter().zip(&full) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }

    // The rewritten checkpoint is clean and complete.
    let ck = read_checkpoint(&path).unwrap();
    assert!(!ck.truncated_tail);
    assert_eq!(ck.points.len(), owned);

    // And the resumed shard still merges with its partner into the
    // reference surface.
    let other = dir.join("shard1.jsonl");
    run_points(&sweep, &ShardSpec::new(1, 2).unwrap(), Some(&other)).unwrap();
    let merged = merge_checkpoints(&[path, other]).unwrap();
    let reference = run_points(&sweep, &ShardSpec::FULL, None).unwrap();
    for (m, r) in merged.results.iter().zip(&reference) {
        assert_eq!(m.value.to_bits(), r.value.to_bits());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Strips the `solve_us` field from every point line, producing the
/// exact byte format checkpoints had before the cost model existed.
fn strip_durations(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.find(",\"solve_us\":") {
            Some(cut) => {
                out.push_str(&line[..cut]);
                out.push('}');
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn durationless_checkpoints_resume_and_merge_byte_identically() {
    // Checkpoints written before point lines carried solve_us must
    // keep working: resume must not re-solve (or rewrite) anything,
    // and the merged surface must be unchanged.
    let corpus = Corpus::quick();
    let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
    let reference = run_points(&sweep, &ShardSpec::FULL, None).unwrap();

    let dir = std::env::temp_dir().join("lrd-sweep-durationless-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let paths = solve_sharded(&dir, 2);
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let stripped = strip_durations(&text);
        assert!(
            !stripped.contains("solve_us") && stripped != text,
            "fixture must exercise the duration-less format"
        );
        std::fs::write(path, stripped).unwrap();
    }

    // Resume over the old-format file: all points are present, so
    // nothing is solved and the file bytes stay exactly as they were.
    for (i, path) in paths.iter().enumerate() {
        let before = std::fs::read(path).unwrap();
        let shard = ShardSpec::new(i as u32, paths.len() as u32).unwrap();
        let resumed = run_points(&sweep, &shard, Some(path)).unwrap();
        assert!(resumed.iter().all(|r| r.solve_us.is_none()));
        assert_eq!(
            std::fs::read(path).unwrap(),
            before,
            "resume must not rewrite a clean duration-less checkpoint"
        );
    }

    let merged = merge_checkpoints(&paths).unwrap();
    for (m, r) in merged.results.iter().zip(&reference) {
        assert_eq!(m.index, r.index);
        assert_eq!(m.value.to_bits(), r.value.to_bits());
        assert_eq!(m.iterations, r.iterations);
        assert_eq!(m.solve_us, None);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The work-stealing kill-and-resume matrix: crash a worker mid-lease,
/// crash the coordinator under a live worker, or crash both, resume
/// everything, and the merged surface must still be bit-identical to
/// the unsharded run — including when the reclaimed batch is re-solved
/// by a different worker (duplicate points, resolved at merge).
#[test]
fn steal_kill_and_resume_matrix_merges_bit_identically() {
    use lrd_experiments::sweep::coord::proto::{connect, recv_line, send_line};
    use lrd_experiments::sweep::coord::{
        run_steal, CoordOptions, CoordServer, Endpoint, LeaseConfig, Request, Response,
        StealOptions, StealSummary,
    };
    use std::sync::atomic::Ordering;

    let corpus = Corpus::quick();
    let sweep = fig04_05::fig04_sweep(&corpus, Profile::Quick);
    let reference = run_points(&sweep, &ShardSpec::FULL, None).unwrap();
    let total = reference.len();

    let dir = std::env::temp_dir().join("lrd-steal-matrix-test");
    let _ = std::fs::remove_dir_all(&dir);

    // Tight timing so a crashed lease expires and is reclaimed within
    // the test, and small batches so both workers see work.
    let config = LeaseConfig {
        heartbeat_ms: 25,
        lease_ttl_ms: 150,
    };
    let start = |endpoint: Endpoint, lease_log: &PathBuf| {
        CoordServer::start(
            &sweep.plan,
            CoordOptions {
                endpoint,
                lease_log: Some(lease_log.clone()),
                config,
                batch_points: 3,
            },
        )
        .unwrap()
    };
    let fresh = || Endpoint::Tcp("127.0.0.1:0".to_string());
    let steal = |endpoint: &Endpoint| StealOptions {
        endpoint: endpoint.clone(),
        ..StealOptions::default()
    };
    // Best-effort queue probe; None once the coordinator is gone.
    let probe = |endpoint: &Endpoint| -> Option<(usize, usize)> {
        let mut conn = connect(endpoint).ok()?;
        send_line(conn.as_mut(), &Request::Status.to_line()).ok()?;
        let line = recv_line(conn.as_mut()).ok()?;
        match Response::parse(&line).ok()? {
            Response::Status(s) => Some((s.leased, s.done)),
            _ => None,
        }
    };
    let check_merge = |scenario: &str, paths: &[PathBuf]| {
        let existing: Vec<PathBuf> = paths.iter().filter(|p| p.exists()).cloned().collect();
        let merged = merge_checkpoints(&existing).unwrap();
        assert!(merged.manifest.origin.is_steal());
        assert_eq!(merged.results.len(), total);
        for (m, r) in merged.results.iter().zip(&reference) {
            assert_eq!(m.index, r.index);
            assert_eq!(
                m.value.to_bits(),
                r.value.to_bits(),
                "{scenario}: merge drifted at point {}",
                m.index
            );
            // Steal batches are their own warm partitions: a point
            // whose donor sat in another batch (or in the crashed
            // prefix of a reclaimed lease) ran cold. Only warm
            // certificates (zero reference iterations) may differ.
            assert!(
                m.iterations == r.iterations || r.iterations == 0,
                "{scenario}: point {} iterations {} vs reference {}",
                m.index,
                m.iterations,
                r.iterations
            );
        }
    };
    // A worker crash: lease a batch, durably append its points, vanish
    // without completing — the lease stays outstanding until reclaim.
    let crash_worker = |endpoint: &Endpoint, checkpoint: &PathBuf| -> StealSummary {
        let crash = run_steal(
            &sweep,
            checkpoint,
            &StealOptions {
                stop_after_points: Some(1),
                ..steal(endpoint)
            },
        )
        .unwrap();
        assert!(crash.solved >= 1, "crash run must solve at least a chunk");
        assert_eq!(crash.batches, 0, "crashed lease must not complete");
        crash
    };

    // --- kill worker: the coordinator reclaims the expired lease and
    // re-issues the batch to the *other* worker, which re-solves the
    // crashed points into its own checkpoint (duplicates at merge).
    {
        let sdir = dir.join("worker");
        std::fs::create_dir_all(&sdir).unwrap();
        let (lease_log, w0, w1) = (
            sdir.join("coord-lease.jsonl"),
            sdir.join("worker0.jsonl"),
            sdir.join("worker1.jsonl"),
        );
        let server = start(fresh(), &lease_log);
        let endpoint = server.endpoint();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let crash = crash_worker(&endpoint, &w0);
        let s1 = run_steal(&sweep, &w1, &steal(&endpoint)).unwrap();
        let s0 = run_steal(&sweep, &w0, &steal(&endpoint)).unwrap();
        let summary = handle.join().unwrap();

        assert!(summary.drained && s0.drained && s1.drained);
        assert!(summary.reclaims >= 1, "expected the crashed lease reclaimed");
        assert_eq!(s1.solved, total, "worker 1 must re-solve the crashed batch");
        assert_eq!(s0.solved, 0);
        assert_eq!(s0.reused, crash.solved);
        check_merge("worker", &[w0, w1]);
    }

    // --- kill coordinator: a live mid-sweep worker rides out the
    // restart (same endpoint, same lease log) without losing its lease.
    {
        let sdir = dir.join("coordinator");
        std::fs::create_dir_all(&sdir).unwrap();
        let (lease_log, w0, w1) = (
            sdir.join("coord-lease.jsonl"),
            sdir.join("worker0.jsonl"),
            sdir.join("worker1.jsonl"),
        );
        let server = start(fresh(), &lease_log);
        let endpoint = server.endpoint();
        let stop = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        std::thread::scope(|scope| {
            let t0 = scope.spawn(|| run_steal(&sweep, &w0, &steal(&endpoint)).unwrap());
            // Wait until the worker actually holds a lease, then kill.
            for _ in 0..1000 {
                match probe(&endpoint) {
                    Some((leased, done)) if leased > 0 || done > 0 => break,
                    Some(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
                    None => break,
                }
            }
            stop.store(true, Ordering::SeqCst);
            let partial = handle.join().unwrap();

            if partial.drained {
                // The sweep outran the kill; nothing left to serve.
                let s0 = t0.join().unwrap();
                assert!(s0.drained);
                check_merge("coordinator", &[w0.clone(), w1.clone()]);
            } else {
                // Rebind the *same* endpoint so the in-flight worker's
                // retries find the restarted coordinator.
                let server = start(endpoint.clone(), &lease_log);
                let handle = std::thread::spawn(move || server.run().unwrap());
                let t1 = scope.spawn(|| run_steal(&sweep, &w1, &steal(&endpoint)).unwrap());
                let s0 = t0.join().unwrap();
                let s1 = t1.join().unwrap();
                let summary = handle.join().unwrap();
                assert!(summary.drained && s0.drained && s1.drained);
                assert!(
                    s0.solved + s1.solved >= total,
                    "both workers together must cover the lattice"
                );
                check_merge("coordinator", &[w0.clone(), w1.clone()]);
            }
        });
    }

    // --- kill both: the worker crashes mid-lease, the coordinator is
    // killed with that lease outstanding, and the restarted coordinator
    // must restore the lease from the log, expire it, and re-issue it.
    {
        let sdir = dir.join("both");
        std::fs::create_dir_all(&sdir).unwrap();
        let (lease_log, w0, w1) = (
            sdir.join("coord-lease.jsonl"),
            sdir.join("worker0.jsonl"),
            sdir.join("worker1.jsonl"),
        );
        let server = start(fresh(), &lease_log);
        let endpoint = server.endpoint();
        let stop = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let crash = crash_worker(&endpoint, &w0);
        stop.store(true, Ordering::SeqCst);
        let partial = handle.join().unwrap();
        assert!(!partial.drained, "the first coordinator must die mid-sweep");

        let server = start(fresh(), &lease_log);
        let endpoint = server.endpoint();
        let handle = std::thread::spawn(move || server.run().unwrap());
        // Both workers resume concurrently: the fresh coordinator only
        // lingers for workers it has seen, so worker 0 must introduce
        // itself before the queue drains.
        let (s0, s1) = std::thread::scope(|scope| {
            let t0 = scope.spawn(|| run_steal(&sweep, &w0, &steal(&endpoint)).unwrap());
            let t1 = scope.spawn(|| run_steal(&sweep, &w1, &steal(&endpoint)).unwrap());
            (t0.join().unwrap(), t1.join().unwrap())
        });
        let summary = handle.join().unwrap();

        assert!(summary.drained && s0.drained && s1.drained);
        assert!(summary.reclaims >= 1, "the restored lease must be reclaimed");
        assert_eq!(s0.reused, crash.solved);
        assert!(
            crash.solved + s0.solved + s1.solved >= total,
            "the resumed workers must cover the rest of the lattice"
        );
        check_merge("both", &[w0, w1]);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_mixed_and_incomplete_shard_sets() {
    use lrd_experiments::sweep::SweepError;

    let corpus = Corpus::quick();
    let dir = std::env::temp_dir().join("lrd-sweep-reject-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let paths = solve_sharded(&dir, 2);

    // Incomplete: one shard of two.
    match merge_checkpoints(&paths[..1]) {
        Err(SweepError::IncompleteShardSet { expected, found }) => {
            assert_eq!(expected, 2);
            assert_eq!(found, vec![0]);
        }
        other => panic!("expected IncompleteShardSet, got {other:?}"),
    }

    // Mixed figures: a fig05 shard next to a fig04 shard.
    let foreign = dir.join("foreign.jsonl");
    let sweep5 = fig04_05::fig05_sweep(&corpus, Profile::Quick);
    run_points(&sweep5, &ShardSpec::new(1, 2).unwrap(), Some(&foreign)).unwrap();
    match merge_checkpoints(&[paths[0].clone(), foreign]) {
        Err(SweepError::ManifestMismatch { field, .. }) => {
            assert!(field == "figure" || field == "plan_hash", "field: {field}");
        }
        other => panic!("expected ManifestMismatch, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
