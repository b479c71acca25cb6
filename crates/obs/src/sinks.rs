//! The built-in [`Subscriber`] implementations.

use crate::json::{write_json_f64, write_json_string};
use crate::metrics::MetricsRegistry;
use crate::{fmt_us, EventRecord, Fields, SpanRecord, Subscriber, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ------------------------------------------------------------------ null

/// The default sink: wants nothing, receives nothing. Installing it
/// reports `enabled() == false`, so the global fast path stays off and
/// instrumented code skips all telemetry work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    fn enabled(&self) -> bool {
        false
    }
    fn event(&self, _: &EventRecord) {}
    fn span_end(&self, _: &SpanRecord) {}
    fn counter(&self, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: f64) {}
    fn histogram(&self, _: &'static str, _: f64) {}
}

// ----------------------------------------------------------------- jsonl

/// Writes one JSON object per line.
///
/// Inline lines (as they happen):
///
/// ```text
/// {"kind":"event","t_us":412,"name":"solver.gap","fields":{"iteration":7,"lower":0.01,"upper":0.03},"who":"pid-811"}
/// {"kind":"span","t_us":2,"dur_us":409.5,"name":"solver.level","fields":{"bins":128},"who":"pid-811"}
/// {"kind":"gauge","t_us":413,"name":"solver.mass_drift","value":2.2e-16,"who":"pid-811"}
/// ```
///
/// Counters and histograms are high-frequency, so they are aggregated
/// in an internal [`MetricsRegistry`] and drained as one line each on
/// [`flush`](Subscriber::flush) (and therefore on uninstall/drop):
///
/// ```text
/// {"kind":"counter","name":"solver.iterations","value":412,"who":"pid-811"}
/// {"kind":"histogram","name":"fft.conv_us","count":824,"sum":1.1e4,"min":9.1,"max":44.0,"buckets":[[8.0,16.0,700],[16.0,32.0,120],[32.0,64.0,4]],"who":"pid-811"}
/// ```
///
/// Draining clears the aggregates, so repeated flushes never duplicate
/// totals; aggregation after a flush restarts from zero.
///
/// Every record carries a `"who"` field naming the producing process
/// (`pid-<n>`), and the first line of the stream is a `meta` record
/// anchoring the process-relative `t_us` clock to wall time:
///
/// ```text
/// {"kind":"meta","t_us":3,"unix_us":1754650000000000,"who":"pid-811"}
/// ```
///
/// so captures from several processes can be placed on one absolute
/// timeline (see [`chrome_trace`](crate::chrome_trace), which gives
/// each `"who"` its own track).
pub struct JsonlSubscriber {
    out: Mutex<Box<dyn Write + Send>>,
    aggregates: Mutex<MetricsRegistry>,
    identity: String,
    meta_written: AtomicBool,
}

impl JsonlSubscriber {
    /// Writes to an arbitrary sink (a file, a pipe, an in-memory
    /// buffer in tests), stamped with the default `pid-<n>` identity.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSubscriber {
            out: Mutex::new(writer),
            aggregates: Mutex::new(MetricsRegistry::new()),
            identity: format!("pid-{}", std::process::id()),
            meta_written: AtomicBool::new(false),
        }
    }

    /// Creates (truncating) `path` and writes buffered JSONL to it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(BufWriter::new(file))))
    }

    fn write_line(&self, line: &str) {
        let mut out = lock(&self.out);
        if !self.meta_written.swap(true, Ordering::SeqCst) {
            // Anchor the process-relative clock: `unix_us` and `t_us`
            // are sampled at the same instant, so readers recover the
            // offset as `unix_us - t_us`.
            let unix_us = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0);
            let mut meta = String::with_capacity(96);
            meta.push_str("{\"kind\":\"meta\",\"t_us\":");
            meta.push_str(&crate::now_us().to_string());
            meta.push_str(",\"unix_us\":");
            meta.push_str(&unix_us.to_string());
            meta.push_str(",\"who\":");
            write_json_string(&mut meta, &self.identity);
            meta.push('}');
            let _ = writeln!(out, "{meta}");
        }
        // Telemetry must never take the instrumented program down; a
        // full disk simply truncates the stream.
        let _ = writeln!(out, "{line}");
    }

    fn push_who(&self, line: &mut String) {
        line.push_str(",\"who\":");
        write_json_string(line, &self.identity);
    }
}

fn push_fields(out: &mut String, fields: &Fields) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, key);
        out.push(':');
        push_value(out, value);
    }
    out.push('}');
}

fn push_value(out: &mut String, value: &Value) {
    use std::fmt::Write as _;
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => write_json_f64(out, *v),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => write_json_string(out, s),
        Value::String(s) => write_json_string(out, s),
    }
}

impl Subscriber for JsonlSubscriber {
    fn event(&self, record: &EventRecord) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"kind\":\"event\",\"t_us\":");
        line.push_str(&record.t_us.to_string());
        line.push_str(",\"name\":");
        write_json_string(&mut line, record.name);
        line.push_str(",\"fields\":");
        push_fields(&mut line, &record.fields);
        self.push_who(&mut line);
        line.push('}');
        self.write_line(&line);
    }

    fn span_end(&self, record: &SpanRecord) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"kind\":\"span\",\"t_us\":");
        line.push_str(&record.t_us.to_string());
        line.push_str(",\"dur_us\":");
        write_json_f64(&mut line, record.dur_us);
        line.push_str(",\"name\":");
        write_json_string(&mut line, record.name);
        line.push_str(",\"fields\":");
        push_fields(&mut line, &record.fields);
        self.push_who(&mut line);
        line.push('}');
        self.write_line(&line);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        lock(&self.aggregates).add_counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        lock(&self.aggregates).set_gauge(name, value);
        let mut line = String::with_capacity(64);
        line.push_str("{\"kind\":\"gauge\",\"t_us\":");
        line.push_str(&crate::now_us().to_string());
        line.push_str(",\"name\":");
        write_json_string(&mut line, name);
        line.push_str(",\"value\":");
        write_json_f64(&mut line, value);
        self.push_who(&mut line);
        line.push('}');
        self.write_line(&line);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        lock(&self.aggregates).record_histogram(name, value);
    }

    fn flush(&self) {
        let drained = {
            let mut agg = lock(&self.aggregates);
            let snapshot = agg.clone();
            agg.clear();
            snapshot
        };
        for (name, value) in drained.counters() {
            let mut line = String::with_capacity(64);
            line.push_str("{\"kind\":\"counter\",\"name\":");
            write_json_string(&mut line, name);
            line.push_str(",\"value\":");
            line.push_str(&value.to_string());
            self.push_who(&mut line);
            line.push('}');
            self.write_line(&line);
        }
        for (name, h) in drained.histograms() {
            let mut line = String::with_capacity(128);
            line.push_str("{\"kind\":\"histogram\",\"name\":");
            write_json_string(&mut line, name);
            use std::fmt::Write as _;
            let _ = write!(line, ",\"count\":{}", h.count());
            line.push_str(",\"sum\":");
            write_json_f64(&mut line, h.sum());
            line.push_str(",\"min\":");
            write_json_f64(&mut line, h.min());
            line.push_str(",\"max\":");
            write_json_f64(&mut line, h.max());
            line.push_str(",\"buckets\":[");
            for (i, (lo, hi, count)) in h.nonzero_buckets().into_iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('[');
                write_json_f64(&mut line, lo);
                line.push(',');
                write_json_f64(&mut line, hi);
                let _ = write!(line, ",{count}]");
            }
            line.push(']');
            self.push_who(&mut line);
            line.push('}');
            self.write_line(&line);
        }
        let _ = lock(&self.out).flush();
    }
}

impl Drop for JsonlSubscriber {
    fn drop(&mut self) {
        self.flush();
    }
}

// --------------------------------------------------------------- summary

#[derive(Debug, Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_us: f64,
    max_us: f64,
}

/// Aggregates spans, events and metrics, and prints one human-readable
/// table when dropped (or on first flush) — the shared timing report
/// of the figure binaries (`--telemetry-summary`).
///
/// The table prints **once**: the first of flush/drop wins, so
/// installing behind an [`InstallGuard`](crate::InstallGuard) (whose
/// drop flushes) behaves the same as holding the subscriber directly.
pub struct SummarySubscriber {
    spans: Mutex<BTreeMap<&'static str, SpanStat>>,
    events: Mutex<BTreeMap<&'static str, u64>>,
    metrics: Mutex<MetricsRegistry>,
    out: Mutex<Box<dyn Write + Send>>,
    printed: AtomicBool,
}

impl SummarySubscriber {
    /// Prints the closing table to stderr.
    pub fn stderr() -> Self {
        Self::to_writer(Box::new(io::stderr()))
    }

    /// Prints the closing table to an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        SummarySubscriber {
            spans: Mutex::new(BTreeMap::new()),
            events: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(MetricsRegistry::new()),
            out: Mutex::new(writer),
            printed: AtomicBool::new(false),
        }
    }

    fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut t = String::new();
        let _ = writeln!(t, "── telemetry summary ─────────────────────────────────────────");
        let spans = lock(&self.spans);
        if !spans.is_empty() {
            let _ = writeln!(
                t,
                "{:<34} {:>8} {:>12} {:>12} {:>12}",
                "span", "count", "total", "mean", "max"
            );
            for (name, s) in spans.iter() {
                let _ = writeln!(
                    t,
                    "  {:<32} {:>8} {:>12} {:>12} {:>12}",
                    name,
                    s.count,
                    fmt_us(s.total_us),
                    fmt_us(s.total_us / s.count as f64),
                    fmt_us(s.max_us)
                );
            }
        }
        let events = lock(&self.events);
        if !events.is_empty() {
            let _ = writeln!(t, "{:<34} {:>8}", "event", "count");
            for (name, count) in events.iter() {
                let _ = writeln!(t, "  {:<32} {:>8}", name, count);
            }
        }
        let metrics = lock(&self.metrics);
        let mut any = false;
        for (name, value) in metrics.counters() {
            if !any {
                let _ = writeln!(t, "{:<34} {:>8}", "counter", "value");
                any = true;
            }
            let _ = writeln!(t, "  {:<32} {:>8}", name, value);
        }
        let mut any = false;
        for (name, value) in metrics.gauges() {
            if !any {
                let _ = writeln!(t, "{:<34} {:>12}", "gauge", "last");
                any = true;
            }
            let _ = writeln!(t, "  {:<32} {:>12.6e}", name, value);
        }
        let mut any = false;
        for (name, h) in metrics.histograms() {
            if !any {
                let _ = writeln!(
                    t,
                    "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    "histogram", "count", "mean", "p50", "p95", "p99", "max"
                );
                any = true;
            }
            let _ = writeln!(
                t,
                "  {:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                fmt_us(h.mean()),
                fmt_us(h.quantile(0.50)),
                fmt_us(h.quantile(0.95)),
                fmt_us(h.quantile(0.99)),
                fmt_us(h.max())
            );
        }
        let _ = writeln!(t, "──────────────────────────────────────────────────────────────");
        t
    }
}

impl Subscriber for SummarySubscriber {
    fn event(&self, record: &EventRecord) {
        *lock(&self.events).entry(record.name).or_insert(0) += 1;
    }

    fn span_end(&self, record: &SpanRecord) {
        let mut spans = lock(&self.spans);
        let stat = spans.entry(record.name).or_default();
        stat.count += 1;
        stat.total_us += record.dur_us;
        stat.max_us = stat.max_us.max(record.dur_us);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        lock(&self.metrics).add_counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        lock(&self.metrics).set_gauge(name, value);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        lock(&self.metrics).record_histogram(name, value);
    }

    fn flush(&self) {
        if self.printed.swap(true, Ordering::SeqCst) {
            return;
        }
        let table = self.render();
        let mut out = lock(&self.out);
        let _ = out.write_all(table.as_bytes());
        let _ = out.flush();
    }
}

impl Drop for SummarySubscriber {
    fn drop(&mut self) {
        self.flush();
    }
}

// ------------------------------------------------------------ collecting

/// One captured signal, as stored by [`CollectingSubscriber`].
#[derive(Debug, Clone)]
pub enum Record {
    /// A point-in-time event.
    Event {
        /// Microseconds since the telemetry epoch.
        t_us: u64,
        /// Event name.
        name: &'static str,
        /// Typed fields.
        fields: Fields,
    },
    /// A completed span.
    Span {
        /// Start time in microseconds since the telemetry epoch.
        t_us: u64,
        /// Duration in microseconds.
        dur_us: f64,
        /// Span name.
        name: &'static str,
        /// Typed fields.
        fields: Fields,
    },
}

impl Record {
    /// The record's name.
    pub fn name(&self) -> &'static str {
        match self {
            Record::Event { name, .. } | Record::Span { name, .. } => name,
        }
    }

    /// The record's fields.
    pub fn fields(&self) -> &Fields {
        match self {
            Record::Event { fields, .. } | Record::Span { fields, .. } => fields,
        }
    }

    /// Field lookup by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        crate::field(self.fields(), key)
    }

    /// The span duration in microseconds (`None` for events).
    pub fn dur_us(&self) -> Option<f64> {
        match self {
            Record::Span { dur_us, .. } => Some(*dur_us),
            Record::Event { .. } => None,
        }
    }
}

/// Captures everything in memory: events and spans verbatim, metrics
/// aggregated. Built for tests ("assert the solver emitted a refine
/// event") and for harnesses that want a [`MetricsRegistry`] snapshot
/// per run.
#[derive(Default)]
pub struct CollectingSubscriber {
    records: Mutex<Vec<Record>>,
    metrics: Mutex<MetricsRegistry>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All captured events and spans, in emission order.
    pub fn records(&self) -> Vec<Record> {
        lock(&self.records).clone()
    }

    /// The captured events with the given name.
    pub fn events(&self, name: &str) -> Vec<Record> {
        lock(&self.records)
            .iter()
            .filter(|r| matches!(r, Record::Event { .. }) && r.name() == name)
            .cloned()
            .collect()
    }

    /// The captured spans with the given name.
    pub fn spans(&self, name: &str) -> Vec<Record> {
        lock(&self.records)
            .iter()
            .filter(|r| matches!(r, Record::Span { .. }) && r.name() == name)
            .cloned()
            .collect()
    }

    /// A snapshot of the aggregated metrics.
    pub fn snapshot(&self) -> MetricsRegistry {
        lock(&self.metrics).clone()
    }

    /// Drops everything captured so far.
    pub fn clear(&self) {
        lock(&self.records).clear();
        lock(&self.metrics).clear();
    }
}

impl Subscriber for CollectingSubscriber {
    fn event(&self, record: &EventRecord) {
        lock(&self.records).push(Record::Event {
            t_us: record.t_us,
            name: record.name,
            fields: record.fields.clone(),
        });
    }

    fn span_end(&self, record: &SpanRecord) {
        lock(&self.records).push(Record::Span {
            t_us: record.t_us,
            dur_us: record.dur_us,
            name: record.name,
            fields: record.fields.clone(),
        });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        lock(&self.metrics).add_counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        lock(&self.metrics).set_gauge(name, value);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        lock(&self.metrics).record_histogram(name, value);
    }
}

// ---------------------------------------------------------------- fanout

/// Broadcasts every signal to several sinks (e.g. a JSONL file *and*
/// the closing summary table). Enabled iff any child is enabled.
pub struct Fanout {
    sinks: Vec<std::sync::Arc<dyn Subscriber>>,
}

impl Fanout {
    /// Wraps the given sinks.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Subscriber>>) -> Self {
        Fanout { sinks }
    }
}

impl Subscriber for Fanout {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn event(&self, record: &EventRecord) {
        for s in &self.sinks {
            s.event(record);
        }
    }

    fn span_end(&self, record: &SpanRecord) {
        for s in &self.sinks {
            s.span_end(record);
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter(name, delta);
        }
    }

    fn gauge(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }

    fn histogram(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.histogram(name, value);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_json, Json};
    use std::sync::Arc;

    /// A writer handing each byte to a shared buffer, so tests can
    /// read back what a subscriber wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).expect("utf8")
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_event() -> EventRecord {
        EventRecord {
            t_us: 42,
            name: "solver.gap",
            fields: vec![
                ("iteration", Value::U64(7)),
                ("lower", Value::F64(0.01)),
                ("upper", Value::F64(0.03)),
                ("kind", Value::Str("te\"st")),
                ("ok", Value::Bool(true)),
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_event_span_gauge() {
        let buf = SharedBuf::default();
        let sub = JsonlSubscriber::new(Box::new(buf.clone()));
        sub.event(&sample_event());
        sub.span_end(&SpanRecord {
            t_us: 1,
            dur_us: 123.5,
            name: "solver.level",
            fields: vec![("bins", Value::U64(128))],
        });
        sub.gauge("solver.mass_drift", 2.5e-16);
        sub.counter("solver.iterations", 412);
        sub.histogram("fft.conv_us", 10.0);
        sub.histogram("fft.conv_us", 20.0);
        sub.flush();

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        // meta anchor first, then event + span + gauge inline, counter
        // + histogram drained on flush.
        assert_eq!(lines.len(), 6, "{text}");
        for line in &lines {
            parse_json(line).unwrap_or_else(|e| panic!("{e} in {line}"));
        }

        let meta = parse_json(lines[0]).unwrap();
        assert_eq!(meta.get("kind").unwrap().as_str(), Some("meta"));
        assert!(meta.get("unix_us").unwrap().as_u64().unwrap() > 0);

        let event = parse_json(lines[1]).unwrap();
        assert_eq!(event.get("kind").unwrap().as_str(), Some("event"));
        assert_eq!(event.get("name").unwrap().as_str(), Some("solver.gap"));
        let fields = event.get("fields").unwrap();
        assert_eq!(fields.get("iteration").unwrap().as_u64(), Some(7));
        assert_eq!(fields.get("lower").unwrap().as_f64(), Some(0.01));
        assert_eq!(fields.get("kind").unwrap().as_str(), Some("te\"st"));
        assert_eq!(fields.get("ok").unwrap().as_bool(), Some(true));

        let span = parse_json(lines[2]).unwrap();
        assert_eq!(span.get("kind").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("dur_us").unwrap().as_f64(), Some(123.5));
        assert_eq!(
            span.get("fields").unwrap().get("bins").unwrap().as_u64(),
            Some(128)
        );

        let gauge = parse_json(lines[3]).unwrap();
        assert_eq!(gauge.get("kind").unwrap().as_str(), Some("gauge"));
        assert_eq!(gauge.get("value").unwrap().as_f64(), Some(2.5e-16));

        let counter = parse_json(lines[4]).unwrap();
        assert_eq!(counter.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(412));

        let hist = parse_json(lines[5]).unwrap();
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hist.get("sum").unwrap().as_f64(), Some(30.0));
        assert!(!hist.get("buckets").unwrap().as_array().unwrap().is_empty());

        // Every record (meta included) carries the same identity.
        let default_id = format!("pid-{}", std::process::id());
        for line in &lines {
            let who = parse_json(line).unwrap();
            assert_eq!(
                who.get("who").and_then(Json::as_str).map(String::from),
                Some(default_id.clone()),
                "{line}"
            );
        }
    }

    #[test]
    fn jsonl_flush_drains_without_duplicating() {
        let buf = SharedBuf::default();
        let sub = JsonlSubscriber::new(Box::new(buf.clone()));
        sub.counter("c", 1);
        sub.flush();
        sub.flush(); // nothing new → no extra line
        drop(sub); // drop flushes again → still nothing new
        let text = buf.contents();
        // The meta anchor plus the one drained counter.
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    #[test]
    fn summary_prints_once_with_all_sections() {
        let buf = SharedBuf::default();
        let sub = SummarySubscriber::to_writer(Box::new(buf.clone()));
        sub.span_end(&SpanRecord {
            t_us: 0,
            dur_us: 1000.0,
            name: "solver.solve",
            fields: vec![],
        });
        sub.event(&sample_event());
        sub.counter("solver.iterations", 3);
        sub.gauge("solver.mass_drift", 1e-12);
        sub.histogram("fft.conv_us", 5.0);
        sub.flush();
        sub.flush();
        drop(sub);
        let text = buf.contents();
        assert_eq!(
            text.matches("telemetry summary").count(),
            1,
            "must print exactly once:\n{text}"
        );
        for needle in [
            "solver.solve",
            "solver.gap",
            "solver.iterations",
            "solver.mass_drift",
            "fft.conv_us",
            "1.00 ms",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn collector_captures_and_clears() {
        let sub = CollectingSubscriber::new();
        sub.event(&sample_event());
        sub.counter("c", 2);
        assert_eq!(sub.events("solver.gap").len(), 1);
        assert_eq!(sub.records().len(), 1);
        assert_eq!(sub.snapshot().counter("c"), Some(2));
        sub.clear();
        assert!(sub.records().is_empty());
        assert!(sub.snapshot().is_empty());
    }

    #[test]
    fn fanout_broadcasts_and_reports_enabled() {
        let a = Arc::new(CollectingSubscriber::new());
        let b = Arc::new(CollectingSubscriber::new());
        let fan = Fanout::new(vec![a.clone(), b.clone()]);
        assert!(fan.enabled());
        fan.event(&sample_event());
        fan.gauge("g", 1.0);
        assert_eq!(a.events("solver.gap").len(), 1);
        assert_eq!(b.events("solver.gap").len(), 1);
        assert_eq!(b.snapshot().gauge("g"), Some(1.0));

        let null_only = Fanout::new(vec![Arc::new(NullSubscriber) as Arc<dyn Subscriber>]);
        assert!(!null_only.enabled());
    }
}
