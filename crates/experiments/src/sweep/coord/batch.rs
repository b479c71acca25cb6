//! Batch construction, and the scheduling models that justify
//! work-stealing over a static split.
//!
//! The coordinator hands out **batches** of lattice points rather than
//! single points so one lease round-trip amortises over several
//! solves, but keeps batches small enough that a crashed worker
//! strands little work and a fast worker can steal often. Batches are
//! uniform: stealing already balances skewed per-point costs, because
//! a worker stuck on an expensive batch simply leases less
//! (DESIGN.md §12).

/// Default points per batch when the caller does not override it —
/// matches [`CHECKPOINT_CHUNK`](crate::sweep::CHECKPOINT_CHUNK) so one
/// batch is one checkpoint append.
pub const DEFAULT_BATCH_POINTS: usize = crate::sweep::CHECKPOINT_CHUNK;

/// Splits points `0..points` into `ceil(points / batch_points)`
/// contiguous-in-index batches of equal size, except possibly a
/// shorter last one. Every point lands in exactly one batch; no batch
/// is empty. Contiguity in stable index keeps batches cache- and
/// checkpoint-friendly.
pub fn plan_batches(points: usize, batch_points: usize) -> Vec<Vec<usize>> {
    if points == 0 {
        return Vec::new();
    }
    let batches = points.div_ceil(batch_points.max(1));
    let size = points.div_ceil(batches);
    (0..points)
        .collect::<Vec<_>>()
        .chunks(size)
        .map(<[usize]>::to_vec)
        .collect()
}

/// Simulated makespan of work-stealing execution: list scheduling,
/// where each batch goes to the worker that frees up first.
/// `worker_speed[w]` is a cost multiplier (4.0 = four times slower).
/// This is the idealised model — no lease latency — but the protocol's
/// overhead is microseconds against solve times of milliseconds to
/// minutes, so it predicts real behaviour closely.
pub fn simulate_steal_makespan(
    batches: &[Vec<usize>],
    costs: &[f64],
    worker_speed: &[f64],
) -> f64 {
    let mut free_at = vec![0.0f64; worker_speed.len()];
    for batch in batches {
        let cost: f64 = batch.iter().map(|&p| costs[p].max(0.0)).sum();
        // The worker that frees up earliest takes the next batch.
        let (w, _) = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one worker");
        free_at[w] += cost * worker_speed[w];
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// Simulated makespan of a static split: each worker solves exactly
/// its pre-assigned point set, however long that takes.
pub fn static_makespan(assignment: &[Vec<usize>], costs: &[f64], worker_speed: &[f64]) -> f64 {
    assignment
        .iter()
        .zip(worker_speed)
        .map(|(points, speed)| points.iter().map(|&p| costs[p].max(0.0)).sum::<f64>() * speed)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_partition_and_respect_target_count() {
        for n in [1usize, 2, 7, 8, 9, 56, 100] {
            let batches = plan_batches(n, 8);
            assert_eq!(batches.len(), n.div_ceil(8), "n={n}");
            let mut seen = vec![false; n];
            for b in &batches {
                assert!(!b.is_empty());
                for &p in b {
                    assert!(!seen[p], "point {p} twice (n={n})");
                    seen[p] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n}");
        }
        assert!(plan_batches(0, 8).is_empty());
        // The batch count is fixed first, then points are spread over
        // it: 9 points at 4 per batch make three batches of 3.
        let sizes = |n, b| plan_batches(n, b).iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(sizes(9, 4), [3, 3, 3]);
        assert_eq!(sizes(10, 3), [3, 3, 3, 1]);
        assert_eq!(plan_batches(5, 2), [vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn straggler_makespan_steal_beats_static_split() {
        // The acceptance benchmark: one worker 4× slower than the
        // other, on the skewed cost surface a real sweep produces
        // (deep-loss corner points dominating). Work-stealing must be
        // strictly better than the best static LPT split computed from
        // the same costs, even though the coordinator's batches know
        // nothing about cost — the static split is fixed before
        // anyone knows which *host* is slow, so the straggler drags
        // exactly its preassigned share, while stealing lets the fast
        // worker drain the queue.
        let n = 56; // fig04 full-profile lattice size
        let costs: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 7919) % 23) as f64 + if i % 9 == 0 { 40.0 } else { 0.0 })
            .collect();
        let speeds = [1.0, 4.0];

        // The static side gets every advantage: perfect knowledge of
        // every point's cost, LPT-packed into two balanced shards.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
        let mut loads = [0.0f64; 2];
        for p in order {
            let w = usize::from(loads[1] < loads[0]);
            assignment[w].push(p);
            loads[w] += costs[p];
        }
        // Try both host-to-shard mappings and take the better one —
        // stealing must beat even a lucky static placement.
        let static_best = static_makespan(&assignment, &costs, &speeds).min(static_makespan(
            &[assignment[1].clone(), assignment[0].clone()],
            &costs,
            &speeds,
        ));

        // Uniform 8-point batches: steal 1156 against 1900 static.
        let batches = plan_batches(n, 8);
        let steal = simulate_steal_makespan(&batches, &costs, &speeds);

        assert!(
            steal < static_best,
            "steal makespan {steal} must beat best static {static_best}"
        );
    }

    #[test]
    fn steal_makespan_degenerates_to_static_with_one_worker() {
        let costs = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let batches = plan_batches(costs.len(), 2);
        let total: f64 = costs.iter().sum();
        assert!(
            (simulate_steal_makespan(&batches, &costs, &[2.0]) - total * 2.0).abs() < 1e-9
        );
    }
}
