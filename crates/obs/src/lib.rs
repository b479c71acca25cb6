//! `lrd-obs` — zero-dependency structured observability for the `lrd`
//! workspace.
//!
//! The solver, the traffic generators and the experiment binaries all
//! run long iterative numerical loops whose convergence behaviour
//! (gap per iteration, grid-refinement epochs, mass drift, degradation
//! causes) is invisible from their final return values alone. This
//! crate provides the telemetry layer that makes those trajectories
//! observable without pulling in `tracing`, `metrics` or `serde` — the
//! workspace is hermetic by construction (DESIGN.md §6).
//!
//! # Model
//!
//! Three signal kinds flow through one pluggable [`Subscriber`]:
//!
//! * **Spans** — a named region of work with monotonic start time and
//!   duration ([`Span`], created with the [`span!`] macro; the record
//!   is dispatched when the span drops).
//! * **Events** — a named point-in-time observation with typed fields
//!   ([`event!`]), e.g. one `solver.gap` event per solver iteration.
//! * **Metrics** — [`counter`], [`gauge`] and [`histogram`] updates,
//!   aggregated by sinks into a [`MetricsRegistry`] (histograms use
//!   fixed log-spaced buckets, see [`LogHistogram`]).
//!
//! # Subscribers
//!
//! * **none installed / [`NullSubscriber`]** — the default. Every
//!   entry point first checks one relaxed atomic ([`enabled`]); with
//!   no subscriber the instrumentation performs no allocation, no
//!   clock read and no dispatch — the hot paths pay a single
//!   predictable branch.
//! * [`JsonlSubscriber`] — one JSON object per line to any writer
//!   (events, span ends and gauge updates inline; counters and
//!   histograms aggregated and drained as snapshot lines on flush).
//! * [`SummarySubscriber`] — aggregates everything and prints one
//!   human-readable table (to stderr by default) when dropped.
//! * [`CollectingSubscriber`] — in-memory capture for tests and for
//!   harnesses that want [`MetricsRegistry`] snapshots.
//!
//! Install with [`install`] (or [`install_fanout`] for several sinks
//! at once); the returned [`InstallGuard`] restores the previous
//! subscriber on drop, so scoped installation composes.
//!
//! A JSONL capture, parsed back line by line with [`parse_json`],
//! renders as a Chrome trace-event timeline with [`chrome_trace`].
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(lrd_obs::CollectingSubscriber::new());
//! {
//!     let _guard = lrd_obs::install(collector.clone());
//!     let mut span = lrd_obs::span!("demo.work", size = 3u64);
//!     lrd_obs::event!("demo.tick", step = 1u64, gap = 0.5);
//!     lrd_obs::counter("demo.ticks", 1);
//!     span.record("done", true);
//! }
//! assert_eq!(collector.events("demo.tick").len(), 1);
//! assert_eq!(collector.spans("demo.work").len(), 1);
//! assert_eq!(collector.snapshot().counter("demo.ticks"), Some(1));
//! ```
//!
//! # Contract for subscribers
//!
//! Callbacks run on the emitting thread while the global subscriber
//! slot is read-locked: they must not call [`install`]/[`uninstall`]
//! (deadlock) and should be fast — expensive sinks should buffer.
//! Implementations must be `Send + Sync`.

#![warn(missing_docs)]

mod json;
mod metrics;
mod sinks;
mod trace;

pub use json::{parse_json, write_json, write_json_f64, write_json_string, Json, JsonError};
pub use metrics::{HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use sinks::{
    CollectingSubscriber, Fanout, JsonlSubscriber, NullSubscriber, Record, SummarySubscriber,
};
pub use trace::chrome_trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------- values

/// A typed field value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (iteration counts, bin counts, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (bounds, gaps, drifts, durations).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (variant names, kinds).
    Str(&'static str),
    /// Owned string.
    String(String),
}

impl Value {
    /// The value as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `u64` if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::String(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

/// Field list attached to a span or event: insertion-ordered
/// `(key, value)` pairs.
pub type Fields = Vec<(&'static str, Value)>;

/// Looks up a field by key in a field list.
pub fn field<'a>(fields: &'a Fields, key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

// --------------------------------------------------------------- records

/// A point-in-time event dispatched to the subscriber.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Microseconds since the process telemetry epoch (monotonic).
    pub t_us: u64,
    /// Event name, dot-separated by convention (`solver.gap`).
    pub name: &'static str,
    /// Typed fields.
    pub fields: Fields,
}

/// A completed span dispatched to the subscriber when it drops.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Start time: microseconds since the process telemetry epoch.
    pub t_us: u64,
    /// Duration in microseconds (fractional; monotonic clock).
    pub dur_us: f64,
    /// Span name (`solver.level`).
    pub name: &'static str,
    /// Fields recorded at creation plus any added via
    /// [`Span::record`].
    pub fields: Fields,
}

// ------------------------------------------------------------ subscriber

/// A telemetry sink. See the crate docs for the callback contract.
pub trait Subscriber: Send + Sync {
    /// Whether this subscriber wants any signals at all. Returning
    /// `false` (as [`NullSubscriber`] does) keeps the global fast path
    /// disabled so instrumented code skips all work.
    fn enabled(&self) -> bool {
        true
    }
    /// A point-in-time event.
    fn event(&self, record: &EventRecord);
    /// A completed span.
    fn span_end(&self, record: &SpanRecord);
    /// A monotonic counter increment.
    fn counter(&self, name: &'static str, delta: u64);
    /// A gauge update (last-value-wins).
    fn gauge(&self, name: &'static str, value: f64);
    /// A histogram observation.
    fn histogram(&self, name: &'static str, value: f64);
    /// Flush buffered output / drain aggregates. Idempotent.
    fn flush(&self) {}
}

// ---------------------------------------------------------- global state

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process telemetry epoch (the first call to
/// any telemetry entry point). Monotonic.
pub fn now_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Whether a subscriber that wants signals is installed. One relaxed
/// atomic load — this is the fast path the hot loops pay when
/// telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_subscriber(f: impl FnOnce(&dyn Subscriber)) {
    let guard = SUBSCRIBER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(sub) = guard.as_ref() {
        f(sub.as_ref());
    }
}

/// Installs `subscriber` as the process-global sink, returning a guard
/// that restores the previously installed subscriber (flushing the new
/// one) when dropped.
pub fn install(subscriber: Arc<dyn Subscriber>) -> InstallGuard {
    let mut slot = SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner());
    let previous = slot.take();
    ENABLED.store(subscriber.enabled(), Ordering::SeqCst);
    *slot = Some(subscriber);
    InstallGuard { previous }
}

/// Installs several sinks at once: zero sinks is a no-op guard, one
/// sink installs directly, more are wrapped in a [`Fanout`].
pub fn install_fanout(mut sinks: Vec<Arc<dyn Subscriber>>) -> InstallGuard {
    match sinks.len() {
        0 => InstallGuard { previous: None },
        1 => install(sinks.pop().expect("len checked")),
        _ => install(Arc::new(Fanout::new(sinks))),
    }
}

/// Flushes the installed subscriber in place without uninstalling it.
///
/// Long-running processes (the `lrd-serve` daemon) call this
/// periodically so that buffered sinks — notably the `BufWriter` inside
/// a file-backed [`JsonlSubscriber`] — have durable output even if the
/// process is later killed without unwinding (SIGKILL). No-op when no
/// subscriber is installed.
pub fn flush_current() {
    with_subscriber(|s| s.flush());
}

/// Removes the installed subscriber (if any), flushing it first.
pub fn uninstall() {
    let mut slot = SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner());
    if let Some(sub) = slot.take() {
        sub.flush();
    }
    ENABLED.store(false, Ordering::SeqCst);
}

/// Restores the previously installed subscriber on drop, flushing the
/// one installed by the matching [`install`] call first.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub struct InstallGuard {
    previous: Option<Arc<dyn Subscriber>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let mut slot = SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner());
        if let Some(current) = slot.take() {
            current.flush();
        }
        *slot = self.previous.take();
        let on = matches!(&*slot, Some(s) if s.enabled());
        ENABLED.store(on, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallGuard").finish_non_exhaustive()
    }
}

// ------------------------------------------------------------- emitters

/// Dispatches a pre-built event. Prefer the [`event!`] macro, which
/// skips field construction entirely when telemetry is disabled.
pub fn dispatch_event(name: &'static str, fields: Fields) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        t_us: now_us(),
        name,
        fields,
    };
    with_subscriber(|s| s.event(&record));
}

/// Increments the named counter by `delta`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_subscriber(|s| s.counter(name, delta));
}

/// Sets the named gauge to `value` (last-value-wins).
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_subscriber(|s| s.gauge(name, value));
}

/// Records one observation into the named histogram.
#[inline]
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_subscriber(|s| s.histogram(name, value));
}

// ----------------------------------------------------------------- span

/// A timed region of work. Created via the [`span!`] macro; the
/// [`SpanRecord`] is dispatched when the span drops. When telemetry is
/// disabled the span is an empty shell: no clock read, no allocation,
/// no dispatch.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    t_us: u64,
    start: Instant,
    fields: Fields,
}

impl Span {
    /// Starts a recording span. Call sites should use [`span!`], which
    /// only builds the field list when telemetry is enabled.
    pub fn new(name: &'static str, fields: Fields) -> Span {
        Span {
            inner: Some(SpanInner {
                name,
                t_us: now_us(),
                start: Instant::now(),
                fields,
            }),
        }
    }

    /// A span that records nothing and dispatches nothing.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this span will dispatch a record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a field to the span's end record. No-op when the span
    /// is not recording.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let record = SpanRecord {
                t_us: inner.t_us,
                dur_us: inner.start.elapsed().as_secs_f64() * 1e6,
                name: inner.name,
                fields: inner.fields,
            };
            feed_span_watch(&record);
            with_subscriber(|s| s.span_end(&record));
        }
    }
}

// ------------------------------------------------------------ span watch

thread_local! {
    /// The active [`watch_span`] frame on this thread: the watched span
    /// name and the accumulated duration of matching spans so far.
    static SPAN_WATCH: std::cell::Cell<Option<(&'static str, Option<f64>)>> =
        const { std::cell::Cell::new(None) };
}

/// Whether a [`watch_span`] frame on this thread wants spans named
/// `name`. Checked by [`span!`] so watched spans record even when no
/// global subscriber is installed; a single thread-local read when
/// telemetry is otherwise off.
pub fn span_watched(name: &'static str) -> bool {
    SPAN_WATCH.with(|w| matches!(w.get(), Some((n, _)) if n == name))
}

fn feed_span_watch(record: &SpanRecord) {
    SPAN_WATCH.with(|w| {
        if let Some((name, total)) = w.get() {
            if name == record.name {
                w.set(Some((name, Some(total.unwrap_or(0.0) + record.dur_us))));
            }
        }
    });
}

/// Runs `f` while watching for spans named `name` **on this thread**,
/// returning `f`'s result and the summed duration (µs) of every
/// matching span that ended during the call — `None` when no such span
/// ended.
///
/// This is how a caller reads the timing a callee's own telemetry span
/// already measures, without installing a subscriber and without a
/// second stopwatch: the sweep runner wraps each point solve in
/// `watch_span("solver.solve", …)` and records the duration into the
/// checkpoint. Watching is independent of the global subscriber — a
/// watched span still dispatches to any installed sink, and when none
/// is installed the span records for the watcher alone. Frames do not
/// nest: an inner `watch_span` on the same thread replaces the outer
/// frame for its duration, and the outer frame resumes (duration
/// already accumulated) when the inner returns.
pub fn watch_span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Option<f64>) {
    let previous = SPAN_WATCH.with(|w| w.replace(Some((name, None))));
    let result = f();
    let captured = SPAN_WATCH.with(|w| w.replace(previous));
    (result, captured.and_then(|(_, total)| total))
}

/// Starts a [`Span`] with typed fields, skipping all work when
/// telemetry is disabled:
///
/// ```
/// let mut span = lrd_obs::span!("solver.level", bins = 128u64);
/// span.record("iterations", 42u64);
/// // record dispatched on drop (if a subscriber is installed)
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let name = $name;
        if $crate::enabled() || $crate::span_watched(name) {
            $crate::Span::new(name, vec![$((stringify!($key), $crate::Value::from($val))),*])
        } else {
            $crate::Span::disabled()
        }
    }};
}

/// Emits a point-in-time event with typed fields, skipping field
/// construction when telemetry is disabled:
///
/// ```
/// lrd_obs::event!("solver.gap", iteration = 7u64, lower = 0.1, upper = 0.3);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::dispatch_event(
                $name,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

/// Formats a duration given in (possibly fractional) microseconds with
/// an auto-selected unit — the one timing format shared by the
/// summary table, the bench harness and the figure binaries.
pub fn fmt_us(us: f64) -> String {
    if !us.is_finite() {
        return format!("{us}");
    }
    if us < 1e3 {
        format!("{us:.2} µs")
    } else if us < 1e6 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.3} s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The global subscriber slot is process-wide; serialize the tests
    // that install one.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_null_subscriber_stays_disabled() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let _guard = install(Arc::new(NullSubscriber));
        assert!(!enabled(), "NullSubscriber must keep the fast path off");
        let span = span!("x");
        assert!(!span.is_recording());
    }

    #[test]
    fn install_guard_restores_previous_subscriber() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let outer = Arc::new(CollectingSubscriber::new());
        let inner = Arc::new(CollectingSubscriber::new());
        let _g1 = install(outer.clone());
        {
            let _g2 = install(inner.clone());
            event!("scoped", n = 1u64);
        }
        event!("outer", n = 2u64);
        assert_eq!(inner.events("scoped").len(), 1);
        assert_eq!(inner.events("outer").len(), 0);
        assert_eq!(outer.events("outer").len(), 1);
        assert_eq!(outer.events("scoped").len(), 0);
        uninstall();
        assert!(!enabled());
    }

    #[test]
    fn spans_measure_time_and_carry_fields() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Arc::new(CollectingSubscriber::new());
        {
            let _guard = install(collector.clone());
            let mut span = span!("work", size = 7u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
            span.record("ok", true);
        }
        let spans = collector.spans("work");
        assert_eq!(spans.len(), 1);
        let Record::Span { dur_us, fields, .. } = &spans[0] else {
            panic!("expected span record");
        };
        assert!(*dur_us >= 1e3, "slept 2 ms but measured {dur_us} µs");
        assert_eq!(field(fields, "size").and_then(Value::as_u64), Some(7));
        assert_eq!(field(fields, "ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn metric_emitters_reach_the_registry() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Arc::new(CollectingSubscriber::new());
        {
            let _guard = install(collector.clone());
            counter("c", 2);
            counter("c", 3);
            gauge("g", 1.5);
            gauge("g", 2.5);
            histogram("h", 10.0);
            histogram("h", 1000.0);
        }
        let snap = collector.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(2.5));
        let h = snap.histogram("h").expect("histogram recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1010.0);
    }

    #[test]
    fn value_conversions_and_accessors() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(-2i64).as_f64(), Some(-2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(String::from("t")).as_str(), Some("t"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7u32).as_u64(), Some(7));
    }

    #[test]
    fn watch_span_times_without_a_subscriber() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(!enabled());
        // Watched spans record even though telemetry is globally off…
        let ((), dur) = watch_span("watched.work", || {
            let _span = span!("watched.work", size = 1u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(dur.unwrap() >= 1e3, "slept 2 ms but watched {dur:?} µs");
        // …other spans and a watch-free call record nothing.
        let ((), dur) = watch_span("watched.work", || {
            let _span = span!("other.work");
        });
        assert_eq!(dur, None);
        let span = span!("watched.work");
        assert!(!span.is_recording(), "watch must not outlive its frame");
    }

    #[test]
    fn watch_span_sums_matching_spans_and_coexists_with_sinks() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Arc::new(CollectingSubscriber::new());
        let _guard = install(collector.clone());
        let ((), dur) = watch_span("w.sum", || {
            for _ in 0..3 {
                let _span = span!("w.sum");
            }
        });
        let spans = collector.spans("w.sum");
        assert_eq!(spans.len(), 3, "watched spans still reach the sink");
        let total: f64 = spans
            .iter()
            .map(|r| match r {
                Record::Span { dur_us, .. } => *dur_us,
                _ => 0.0,
            })
            .sum();
        assert_eq!(dur, Some(total), "watch must sum every matching span");
    }

    #[test]
    fn flush_current_drains_buffered_sinks_in_place() {
        let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let _guard = install(Arc::new(JsonlSubscriber::new(Box::new(buf.clone()))));
        counter("flush.test", 3);
        // Counters are aggregated, not written inline: the snapshot
        // line only appears after an explicit in-place flush.
        let before = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(!before.contains("flush.test"));
        flush_current();
        let after = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(after.contains("flush.test"), "flush must drain aggregates");
        // Telemetry keeps flowing afterwards — the subscriber was
        // flushed, not uninstalled.
        assert!(enabled());
        // No subscriber installed at all: a bare flush is a no-op.
        uninstall();
        flush_current();
    }

    #[test]
    fn duration_formatting_selects_units() {
        assert!(fmt_us(3.5).ends_with("µs"));
        assert!(fmt_us(3.5e3).ends_with("ms"));
        assert!(fmt_us(3.5e6).ends_with('s'));
    }
}
