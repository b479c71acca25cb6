//! The metrics side of the telemetry layer: counters, gauges and
//! log-bucketed histograms, aggregated into a [`MetricsRegistry`].
//!
//! The registry is a plain data structure (no global state, no
//! interior mutability) — sinks own one behind their own lock, and
//! the bench harness captures cloned snapshots of it alongside
//! wall-clock results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse_json, write_json_f64, write_json_string, Json};

/// Number of histogram buckets.
const BUCKETS: usize = 64;
/// Bucket `i` covers `[2^(i - OFFSET), 2^(i + 1 - OFFSET))`; with 64
/// buckets this spans `2^-32 ≈ 2.3e-10` to `2^32 ≈ 4.3e9` — ample for
/// microsecond durations, gaps and iteration counts. Values at or
/// below zero (or under the first bound) land in bucket 0; values
/// beyond the last bound land in the last bucket.
const OFFSET: i32 = 32;

/// A fixed-size histogram with log-spaced (powers-of-two) buckets.
///
/// Constant memory, O(1) record, and exact `count`/`sum`/`min`/`max`
/// alongside the bucketed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let exp = value.log2().floor() as i64 + OFFSET as i64;
        exp.clamp(0, BUCKETS as i64 - 1) as usize
    }

    /// The `[lo, hi)` bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = 2f64.powi(i as i32 - OFFSET);
        let hi = 2f64.powi(i as i32 + 1 - OFFSET);
        (lo, hi)
    }

    /// Records one observation. Non-finite values are counted (in
    /// `count`/`sum`) but land in bucket 0.
    pub fn record(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The non-empty buckets as `(lo, hi, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation within the covering log bucket, clamped to the
    /// exact observed `[min, max]`. `NaN` when empty. With power-of-two
    /// buckets the estimate is within a factor of 2 of the true order
    /// statistic; the clamp makes single-bucket histograms exact.
    pub fn quantile(&self, q: f64) -> f64 {
        let triples = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            });
        quantile_from_buckets(triples, self.count, self.min, self.max, q)
    }
}

/// Shared quantile estimator over `(lo, hi, count)` bucket triples in
/// ascending order — the interpolation behind both [`LogHistogram`]
/// and its wire-format [`HistogramSnapshot`].
fn quantile_from_buckets(
    buckets: impl Iterator<Item = (f64, f64, u64)>,
    count: u64,
    min: f64,
    max: f64,
    q: f64,
) -> f64 {
    if count == 0 {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let target = q * count as f64;
    let clamp = |v: f64| if min <= max { v.clamp(min, max) } else { v };
    let mut cum = 0u64;
    for (lo, hi, c) in buckets {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if next as f64 >= target {
            let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
            return clamp(lo + (hi - lo) * within);
        }
        cum = next;
    }
    clamp(max)
}

/// A self-contained, wire-serializable snapshot of one histogram:
/// exact `count`/`sum`/`min`/`max` plus the sparse non-empty buckets.
///
/// Unlike [`LogHistogram`] the buckets carry their own bounds, so a
/// snapshot parsed from another process (even a future build with
/// different bucket constants) still merges and quantiles correctly.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
    /// Non-empty `(lo, hi, count)` buckets in ascending `lo` order.
    pub buckets: Vec<(f64, f64, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl From<&LogHistogram> for HistogramSnapshot {
    fn from(h: &LogHistogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.nonzero_buckets(),
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate with the same interpolation as
    /// [`LogHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(
            self.buckets.iter().copied(),
            self.count,
            self.min,
            self.max,
            q,
        )
    }

    /// Merges another snapshot into this one, matching buckets by
    /// their `lo` bound (exact for the power-of-two bounds both sides
    /// produce).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(lo, hi, c) in &other.buckets {
            match self
                .buckets
                .binary_search_by(|&(l, _, _)| l.partial_cmp(&lo).unwrap_or(std::cmp::Ordering::Less))
            {
                Ok(i) => self.buckets[i].2 += c,
                Err(i) => self.buckets.insert(i, (lo, hi, c)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A compact, mergeable snapshot of a process's counters and
/// histograms, with a JSON form that round-trips ([`to_json_string`]
/// / [`parse`]) so a snapshot can cross a process boundary and be
/// folded with others ([`merge`]).
///
/// [`to_json_string`]: MetricsSnapshot::to_json_string
/// [`parse`]: MetricsSnapshot::parse
/// [`merge`]: MetricsSnapshot::merge
///
/// Names are owned strings (wire-parsed names cannot be `&'static`),
/// and gauges are deliberately absent: a gauge is a last-value-wins
/// signal that does not survive merging across processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The named counter's total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Installs (or replaces) a whole named histogram snapshot —
    /// how a worker copies its live [`LogHistogram`] into a report.
    pub fn set_histogram(&mut self, name: &str, histogram: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// Records one observation into the named histogram (bucketed with
    /// [`LogHistogram`]'s bounds).
    pub fn record_histogram(&mut self, name: &str, value: f64) {
        let mut h = LogHistogram::new();
        h.record(value);
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(&HistogramSnapshot::from(&h));
    }

    /// Merges another snapshot into this one (counters add, histograms
    /// merge bucket-wise).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Serializes as one compact JSON object:
    /// `{"counters":{…},"histograms":{name:{"count":…,"sum":…,"min":…,
    /// "max":…,"buckets":[[lo,hi,c],…]},…}}`. Non-finite bounds render
    /// as the `"inf"`/`"-inf"` strings the in-tree parser reads back.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            let _ = write!(out, ":{{\"count\":{},\"sum\":", h.count);
            write_json_f64(out, h.sum);
            out.push_str(",\"min\":");
            write_json_f64(out, h.min);
            out.push_str(",\"max\":");
            write_json_f64(out, h.max);
            out.push_str(",\"buckets\":[");
            for (j, &(lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                write_json_f64(out, lo);
                out.push(',');
                write_json_f64(out, hi);
                let _ = write!(out, ",{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }

    /// The [`write_json`](Self::write_json) text as a fresh string.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Parses a value produced by [`write_json`](Self::write_json).
    /// `None` when the shape is not a snapshot object.
    pub fn from_json(json: &Json) -> Option<MetricsSnapshot> {
        let mut snapshot = MetricsSnapshot::new();
        for (name, value) in json.get("counters")?.as_object()? {
            snapshot.counters.insert(name.clone(), value.as_u64()?);
        }
        for (name, value) in json.get("histograms")?.as_object()? {
            let mut buckets = Vec::new();
            for triple in value.get("buckets")?.as_array()? {
                let triple = triple.as_array()?;
                if triple.len() != 3 {
                    return None;
                }
                buckets.push((
                    triple[0].as_num()?,
                    triple[1].as_num()?,
                    triple[2].as_u64()?,
                ));
            }
            snapshot.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count: value.get("count")?.as_u64()?,
                    sum: value.get("sum")?.as_num()?,
                    min: value.get("min")?.as_num()?,
                    max: value.get("max")?.as_num()?,
                    buckets,
                },
            );
        }
        Some(snapshot)
    }

    /// Parses snapshot text (one JSON object) directly.
    pub fn parse(text: &str) -> Option<MetricsSnapshot> {
        Self::from_json(&parse_json(text).ok()?)
    }
}

impl From<&MetricsRegistry> for MetricsSnapshot {
    fn from(registry: &MetricsRegistry) -> Self {
        let mut snapshot = MetricsSnapshot::new();
        for (name, value) in registry.counters() {
            snapshot.counters.insert(name.to_string(), value);
        }
        for (name, h) in registry.histograms() {
            snapshot
                .histograms
                .insert(name.to_string(), HistogramSnapshot::from(h));
        }
        snapshot
    }
}

/// Aggregated counters, gauges and histograms, keyed by metric name.
///
/// Cloning yields an independent snapshot — the type the bench
/// harness reports alongside wall-clock samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge (last value wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records one observation into the named histogram.
    pub fn record_histogram(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named counter's total, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named gauge's last value, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if it ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Drops all recorded data.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// One-line rendering `name=value …` (histograms as
    /// `name[n=…, mean=…, p50=…, p95=…, p99=…]`), for compact reports
    /// such as the bench harness output. Empty string when nothing was
    /// recorded.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            let _ = write!(out, "{}{name}={value}", sep(&out));
        }
        for (name, value) in self.gauges() {
            let _ = write!(out, "{}{name}={value:.3e}", sep(&out));
        }
        for (name, h) in self.histograms() {
            let _ = write!(
                out,
                "{}{name}[n={}, mean={:.3e}, p50={:.3e}, p95={:.3e}, p99={:.3e}]",
                sep(&out),
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        out
    }
}

fn sep(out: &str) -> &'static str {
    if out.is_empty() {
        ""
    } else {
        " "
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_spaced() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.record(1.5);
        h.record(3.0);
        h.record(1e-20); // below range → bucket 0
        h.record(1e20); // above range → last bucket
        assert_eq!(h.count(), 5);
        let buckets = h.nonzero_buckets();
        // 1.0 and 1.5 share [1, 2); 3.0 is in [2, 4).
        let one_two = buckets.iter().find(|&&(lo, _, _)| lo == 1.0).unwrap();
        assert_eq!(one_two.2, 2);
        let two_four = buckets.iter().find(|&&(lo, _, _)| lo == 2.0).unwrap();
        assert_eq!(two_four.2, 1);
        // Every recorded value is inside [lo, hi) of its bucket.
        for &(lo, hi, _) in &buckets {
            assert!(lo < hi);
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = LogHistogram::new();
        assert!(h.mean().is_nan());
        for v in [2.0, 4.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 6.0);
    }

    #[test]
    fn histogram_handles_degenerate_values() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        // All landed in bucket 0 rather than panicking.
        assert_eq!(h.nonzero_buckets().len(), 1);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::new();
        a.record(1.0);
        let mut b = LogHistogram::new();
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn registry_aggregates_and_snapshots() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.add_counter("c", 1);
        r.add_counter("c", 4);
        r.set_gauge("g", 1.0);
        r.set_gauge("g", -2.0);
        r.record_histogram("h", 7.0);
        assert_eq!(r.counter("c"), Some(5));
        assert_eq!(r.gauge("g"), Some(-2.0));
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        let snap = r.clone();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(snap.counter("c"), Some(5), "snapshot is independent");
    }

    #[test]
    fn compact_rendering_is_stable() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.render_compact(), "");
        r.add_counter("b.count", 2);
        r.add_counter("a.count", 1);
        r.set_gauge("drift", 1e-9);
        r.record_histogram("t_us", 10.0);
        let s = r.render_compact();
        // BTreeMap ordering: counters sorted, then gauges, then
        // histograms.
        assert!(s.starts_with("a.count=1 b.count=2"), "{s}");
        assert!(s.contains("drift=1.000e-9"), "{s}");
        // A single observation: every quantile collapses to it via the
        // [min, max] clamp.
        assert!(
            s.contains("t_us[n=1, mean=1.000e1, p50=1.000e1, p95=1.000e1, p99=1.000e1]"),
            "{s}"
        );
    }

    #[test]
    fn quantiles_interpolate_within_log_buckets() {
        let mut h = LogHistogram::new();
        assert!(h.quantile(0.5).is_nan());
        // 100 observations spread uniformly over [1, 2) — one bucket.
        for i in 0..100 {
            h.record(1.0 + i as f64 / 100.0);
        }
        // Interpolation inside [1, 2): p50 ≈ 1.5, and the estimate is
        // monotone in q.
        let p50 = h.quantile(0.50);
        assert!((p50 - 1.5).abs() < 0.02, "p50 = {p50}");
        assert!(h.quantile(0.0) <= p50);
        assert!(p50 <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        // q outside [0,1] clamps; extremes hit the exact min/max.
        assert_eq!(h.quantile(-3.0), h.min());
        assert_eq!(h.quantile(7.0), h.max());

        // A skewed two-bucket histogram: 99 cheap points in [1, 2), one
        // expensive one in [1024, 2048). p50 stays in the cheap bucket,
        // p99+ walks into the expensive one but never exceeds max.
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(1.5);
        }
        h.record(1500.0);
        assert!(h.quantile(0.5) < 2.0);
        assert!(h.quantile(0.999) >= 1024.0);
        assert!(h.quantile(1.0) <= 1500.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        r.add_counter("sweep.hb_sent", 41);
        r.add_counter("solver.iterations", 7);
        r.record_histogram("solve_us", 10.0);
        r.record_histogram("solve_us", 1e6);
        r.set_gauge("drift", 1.0); // gauges are not snapshotted
        let snap = MetricsSnapshot::from(&r);
        assert_eq!(snap.counter("sweep.hb_sent"), 41);
        assert_eq!(snap.counter("absent"), 0);
        let text = snap.to_json_string();
        let back = MetricsSnapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
        let h = back.histogram("solve_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 1e6);
        assert_eq!(h.sum, 10.0 + 1e6);
        // Quantiles agree with the live histogram's.
        let live = r.histogram("solve_us").unwrap();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q).to_bits(), live.quantile(q).to_bits());
        }
        // An empty snapshot round-trips its non-finite min/max.
        let empty = MetricsSnapshot::from(&MetricsRegistry::new());
        assert!(empty.is_empty());
        assert_eq!(MetricsSnapshot::parse(&empty.to_json_string()), Some(empty));
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for v in [1.0, 3.0, 100.0] {
            a.record_histogram("h", v);
        }
        for v in [0.25, 5.0, 1e9] {
            b.record_histogram("h", v);
        }
        a.add_counter("c", 2);
        b.add_counter("c", 3);
        b.add_counter("only_b", 1);

        let mut merged = MetricsSnapshot::from(&a);
        merged.merge(&MetricsSnapshot::from(&b));
        assert_eq!(merged.counter("c"), 5);
        assert_eq!(merged.counter("only_b"), 1);

        // Reference: merge the live histograms, then snapshot.
        let mut reference = a.histogram("h").unwrap().clone();
        reference.merge(b.histogram("h").unwrap());
        let reference = HistogramSnapshot::from(&reference);
        assert_eq!(merged.histogram("h"), Some(&reference));
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                merged.histogram("h").unwrap().quantile(q).to_bits(),
                reference.quantile(q).to_bits()
            );
        }
    }
}
