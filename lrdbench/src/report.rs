//! The metric tables, the percentile rule and the result line.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit; the result line is refused unless it carries exactly the
//! metrics of the table it was built for. The tables must agree with
//! `BENCHMARK.json` at the repository root (pinned by
//! `tests/contract.rs`).

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a percentile before it may be
/// reported.
pub const MIN_TAIL: usize = 10;

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Per-layer metrics: the end-to-end metric (workload/metric) the
    /// layer should move, then the workloads where it should not.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> Metric {
    Metric { name, unit, moves }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", ""),
    m("wall_s", "s", ""),
    m("peak_rss_mib", "MiB", ""),
];

const FFT: &str =
    "moves hard_corner/wall_s most, lattice_sweep/wall_s, serve_mix/wall_s; not trace_ingest";
const FLUIDQ: &str = "moves hard_corner/wall_s (iterations to stall); not trace_ingest";
const WARM: &str = "moves lattice_sweep/wall_s; not hard_corner (all cold)";
const POOL: &str = "moves lattice_sweep/wall_s; not hard_corner, serve_mix";
const EXPERIMENTS: &str = "moves lattice_sweep/wall_s; not the others";
const TRACE: &str = "moves trace_ingest/wall_s, trace_ingest/peak_rss_mib; not the others";
const STATS: &str =
    "moves trace_ingest/wall_s; not serve_mix (frozen clock: no StreamingHurst pushes)";
const SERVE: &str = "moves serve_mix/wall_s and the open-loop latencies; not the batch workloads";
const NET: &str = "moves serve_mix/wall_s and serve.read_us_p50; not the batch workloads";
const VALIDITY: &str = "validity only: the generator must keep its schedule";
const OBS: &str = "validity only: cost of tracing on this workload";

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    m("fft.conv_calls", "count", FFT),
    m("fft.convs", "count", FFT),
    m("fft.busy_s", "s", FFT),
    m("fft.conv_us_mean", "us", FFT),
    m("fluidq.solves", "count", FLUIDQ),
    m("fluidq.iterations", "count", FLUIDQ),
    m("fluidq.refines", "count", FLUIDQ),
    m("fluidq.max_bins", "count", FLUIDQ),
    m("fluidq.solve_busy_s", "s", FLUIDQ),
    m("fluidq.level_self_s", "s", FLUIDQ),
    m("fluidq.solve_us_p50", "us", FLUIDQ),
    m("fluidq.solve_us_p90", "us", FLUIDQ),
    m("fluidq.unconverged", "count", FLUIDQ),
    m("fluidq.warm_solves", "count", WARM),
    m("fluidq.warm_zero_share", "ratio", WARM),
    m("pool.threads", "count", POOL),
    m("pool.utilization", "ratio", POOL),
    m("experiments.points", "count", EXPERIMENTS),
    m("experiments.waves", "count", EXPERIMENTS),
    m("experiments.residual_s", "s", EXPERIMENTS),
    m("trace.packets", "count", TRACE),
    m("trace.read_s", "s", TRACE),
    m("trace.read_mib_per_s", "MiB/s", TRACE),
    m("trace.bin_s", "s", TRACE),
    m("trace.ingest_s", "s", TRACE),
    m("stats.onepass_s", "s", STATS),
    m("stats.onepass_ns_per_bin", "ns", STATS),
    m("stats.histogram_s", "s", STATS),
    m("serve.read_us_p50", "us", SERVE),
    m("serve.read_us_p99", "us", SERVE),
    m("serve.solve_us_p50", "us", SERVE),
    m("serve.solve_us_p90", "us", SERVE),
    m("serve.read_handle_us_p50", "us", SERVE),
    m("serve.solve_handle_us_p50", "us", SERVE),
    m("serve.query_span_us_p99", "us", SERVE),
    m("serve.wait_us_p99", "us", SERVE),
    m("net.read_overhead_us_p50", "us", NET),
    m("loadgen.late_us_p50", "us", VALIDITY),
    m("loadgen.late_us_p99", "us", VALIDITY),
    m("loadgen.backlog_max", "count", VALIDITY),
    m("obs.overhead_share", "ratio", OBS),
];

/// The `q`-quantile of `samples` (nearest rank), refused unless at
/// least [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return Err(format!(
            "p{} refused: {n} samples leave {} beyond it, {MIN_TAIL} needed",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// A per-layer percentile: the layer's samples may legitimately be too
/// few on a workload that barely exercises it, and then the metric
/// reads 0 with the refusal noted on stderr.
pub fn layer_percentile(name: &str, samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or_else(|why| {
        if !samples.is_empty() {
            eprintln!("lrdbench: {name} reads 0: {why}");
        }
        0.0
    })
}

/// The middle value (the mean of the middle two for an even count; 0
/// for no samples). Used for repeated whole passes and set-ups, which
/// are too few for a percentile with a tail.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Operations attempted and failed, and whether every output check
/// passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted (at least 1 in a valid run).
    pub attempted: u64,
    /// Operations that produced no valid answer.
    pub failed: u64,
}

/// Builds the final result line. Refuses a value set that is not
/// exactly `table`, or that holds a non-finite value.
pub fn result_line(
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    verdict: Verdict,
) -> Result<String, String> {
    for metric in table {
        match values.get(metric.name) {
            None => return Err(format!("metric {} was not measured", metric.name)),
            Some(v) if !v.is_finite() => {
                return Err(format!("metric {} is not finite ({v})", metric.name))
            }
            Some(_) => {}
        }
    }
    if let Some(extra) = values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
        return Err(format!("metric {extra} is not in the table"));
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, values[m.name], m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        metrics.join(", ")
    ))
}

/// The human-readable table printed above the result line: each metric
/// with its unit and, for per-layer metrics, what it should move.
pub fn human_table(table: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::new();
    for metric in table {
        let value = values.get(metric.name).copied().unwrap_or(f64::NAN);
        out.push_str(&format!(
            "  {:<28} {:>16.6} {:<6} {}\n",
            metric.name, value, metric.unit, metric.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
        // p99 of 100 samples leaves one beyond it.
        assert!(percentile(&xs, 0.99).is_err());
        assert!(percentile(&xs[..99], 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Ok(990.0));
        assert!(percentile(&many[..999], 0.99).is_err());
    }

    #[test]
    fn result_line_requires_exactly_the_table() {
        let verdict = Verdict {
            correct: true,
            attempted: 3,
            failed: 0,
        };
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, verdict).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        values.insert("extra", 1.0);
        assert!(result_line(END_TO_END, &values, verdict).is_err());
        values.remove("extra");
        values.remove("wall_s");
        assert!(result_line(END_TO_END, &values, verdict).is_err());
        values.insert("wall_s", f64::NAN);
        assert!(result_line(END_TO_END, &values, verdict).is_err());
    }
}
