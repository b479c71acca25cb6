//! The benchmark's own spans: one per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Spans of one operation (a pass of a batch workload, a request of
//! the serving workload) share its `op` id; `parent` links a span to
//! the span that caused it. A span's self time is its duration minus
//! the part of its interval that its children cover — computed over
//! the union of the child intervals, so children running in parallel
//! on pool workers are not counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// The operation the span belongs to.
    pub op: u64,
    /// This span's id (ids start at 1).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The layer call, `layer.function`.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// End, µs since the recorder was created.
    pub end_us: f64,
}

/// An in-memory span recorder. A disabled recorder records nothing
/// and costs one branch per call.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    next: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            next: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before
    /// the parent ends (0 when disabled).
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a reserved `id`.
    pub fn close(
        &self,
        id: u64,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.recs
            .lock()
            .expect("a traced call panicked")
            .push(SpanRec {
                op,
                id,
                parent,
                name,
                start_us: us(start),
                end_us: us(end),
            });
    }

    /// Times `f` as span `name` of operation `op` under `parent`; `f`
    /// receives the span's own id for its children.
    pub fn time<R>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, op, parent, name, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn records(&self) -> Vec<SpanRec> {
        self.recs.lock().expect("a traced call panicked").clone()
    }

    /// Self time (seconds) summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.records())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.records() {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                r.op,
                r.id,
                r.parent,
                r.name,
                r.start_us,
                r.end_us - r.start_us
            )?;
        }
        out.flush()
    }
}

/// Self time (seconds) per span name: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(recs: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.parent != 0) {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_us, r.end_us));
    }
    let mut out = BTreeMap::new();
    for r in recs {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&r.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = r.start_us;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(r.end_us));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
        }
        *out.entry(r.name).or_insert(0.0) += (r.end_us - r.start_us - covered) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_us: f64, end_us: f64) -> SpanRec {
        SpanRec {
            op: 1,
            id,
            parent,
            name,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 10..70 of
        // the parent's 0..100.
        let recs = [
            rec(1, 0, "experiments.run_points", 0.0, 100.0),
            rec(2, 1, "fluidq.solve", 10.0, 60.0),
            rec(3, 1, "fluidq.solve", 20.0, 70.0),
        ];
        let selfs = self_times(&recs);
        assert!((selfs["experiments.run_points"] - 40e-6).abs() < 1e-12);
        assert!((selfs["fluidq.solve"] - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.time(1, 0, "x.y", |id| id), 0);
        assert!(spans.records().is_empty());
        let spans = Spans::new(true);
        let parent = spans.time(1, 0, "x.y", |id| {
            spans.time(1, id, "x.z", |_| ());
            id
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].parent, parent);
    }
}
