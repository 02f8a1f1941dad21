//! # spg-obs
//!
//! Observability for training and simulation: hierarchical spans with
//! monotonic wall-clock timing, named counters / gauges / histograms, and
//! a JSONL event sink. Its only dependencies are the std-only `serde` and
//! `serde_json` shims, which read and write the event lines.
//!
//! Design constraints (enforced by tests in `spg` / `spg-core`):
//!
//! * **Opt-in and invisible.** The default [`TelemetrySink`] is disabled
//!   and every instrument call is a branch on an `Option` — no clock
//!   reads, no allocation, no locking. Telemetry never feeds back into
//!   results: `TrainStats` is bitwise identical with the sink on or off.
//! * **Thread-safe.** Sinks are cheap `Arc` clones and can be written
//!   from rollout worker threads. By convention only the *driving* thread
//!   opens spans (so span nesting in the file is well-formed); workers
//!   emit point events (histograms, counters).
//! * **Self-describing.** One JSON object per line; the schema is fixed
//!   (see [`Event`]) and [`report::Summary`] turns a metrics file back
//!   into a per-phase time breakdown, cache hit rates, and metric curves.
//!
//! Cross-crate instrumentation of pure hot paths (the simulators, the
//! k-way partitioner) goes through process-wide [`probe`] counters instead
//! of a sink handle, so their signatures stay untouched; the trainer
//! snapshots probe deltas into its sink once per epoch.
//!
//! ## Event schema
//!
//! ```text
//! {"t_us":12,"ev":"span_open","name":"epoch","depth":0}
//! {"t_us":9317,"ev":"span_close","name":"epoch","depth":0,"dur_us":9305}
//! {"t_us":9318,"ev":"counter","name":"cache.hits","value":12}
//! {"t_us":9318,"ev":"gauge","name":"reward.mean","value":0.5321}
//! {"t_us":421,"ev":"hist","name":"rollout.sample_us","value":389.0}
//! ```
//!
//! `t_us` is microseconds since the sink was created (monotonic clock).
//! Counters carry additive deltas; gauges carry absolute values;
//! histograms carry one observation per event.

use serde::{Deserialize, Value};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod probe;
pub mod report;

pub use probe::{Probe, ProbeSnapshot};
pub use report::Summary;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One telemetry event — one line of a JSONL metrics file.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span started. `depth` is the nesting level (0 = top).
    SpanOpen {
        /// Microseconds since sink creation.
        t_us: u64,
        /// Span name (e.g. `epoch`, `step.rollout`).
        name: String,
        /// Nesting depth at open time.
        depth: u64,
    },
    /// A span finished; `dur_us` is its wall-clock duration.
    SpanClose {
        /// Microseconds since sink creation (at close).
        t_us: u64,
        /// Span name, matching the corresponding open.
        name: String,
        /// Nesting depth the span was opened at.
        depth: u64,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
    },
    /// An additive counter increment.
    Counter {
        /// Microseconds since sink creation.
        t_us: u64,
        /// Counter name (e.g. `cache.hits`).
        name: String,
        /// Delta added at this point.
        value: u64,
    },
    /// An absolute gauge observation.
    Gauge {
        /// Microseconds since sink creation.
        t_us: u64,
        /// Gauge name (e.g. `reward.mean`).
        name: String,
        /// Value at this point.
        value: f64,
    },
    /// One histogram observation.
    Hist {
        /// Microseconds since sink creation.
        t_us: u64,
        /// Histogram name (e.g. `rollout.sample_us`).
        name: String,
        /// The observation.
        value: f64,
    },
}

/// `value` as JSON text: a string quoted and escaped, a non-finite
/// float as `null`.
fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("strings and floats always render")
}

impl Event {
    /// Render as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Event::SpanOpen { t_us, name, depth } => format!(
                "{{\"t_us\":{t_us},\"ev\":\"span_open\",\"name\":{},\"depth\":{depth}}}",
                json(name)
            ),
            Event::SpanClose {
                t_us,
                name,
                depth,
                dur_us,
            } => format!(
                "{{\"t_us\":{t_us},\"ev\":\"span_close\",\"name\":{},\"depth\":{depth},\"dur_us\":{dur_us}}}",
                json(name)
            ),
            Event::Counter { t_us, name, value } => format!(
                "{{\"t_us\":{t_us},\"ev\":\"counter\",\"name\":{},\"value\":{value}}}",
                json(name)
            ),
            Event::Gauge { t_us, name, value } => format!(
                "{{\"t_us\":{t_us},\"ev\":\"gauge\",\"name\":{},\"value\":{}}}",
                json(name),
                json(value)
            ),
            Event::Hist { t_us, name, value } => format!(
                "{{\"t_us\":{t_us},\"ev\":\"hist\",\"name\":{},\"value\":{}}}",
                json(name),
                json(value)
            ),
        }
    }

    /// Parse one JSONL line back into an [`Event`]. The line is read by
    /// `serde_json`, so it may be any JSON object: fields the schema does
    /// not name are skipped, whatever they hold. Errors name what was
    /// malformed or missing.
    pub fn parse(line: &str) -> Result<Event, String> {
        fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, String> {
            v.field(key).and_then(T::deserialize).map_err(|e| e.0)
        }
        let v: Value = serde_json::from_str(line).map_err(|e| e.0)?;
        let name = field(&v, "name")?;
        let t_us = field(&v, "t_us")?;
        match field::<String>(&v, "ev")?.as_str() {
            "span_open" => Ok(Event::SpanOpen {
                t_us,
                name,
                depth: field(&v, "depth")?,
            }),
            "span_close" => Ok(Event::SpanClose {
                t_us,
                name,
                depth: field(&v, "depth")?,
                dur_us: field(&v, "dur_us")?,
            }),
            "counter" => Ok(Event::Counter {
                t_us,
                name,
                value: field(&v, "value")?,
            }),
            "gauge" => Ok(Event::Gauge {
                t_us,
                name,
                value: field(&v, "value")?,
            }),
            "hist" => Ok(Event::Hist {
                t_us,
                name,
                value: field(&v, "value")?,
            }),
            other => Err(format!("unknown event kind `{other}`")),
        }
    }

    /// The event's name field.
    pub fn name(&self) -> &str {
        match self {
            Event::SpanOpen { name, .. }
            | Event::SpanClose { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Hist { name, .. } => name,
        }
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// Where emitted lines go.
enum Out {
    /// In-memory buffer (tests, benches, `spg report` round-trips).
    Memory(Vec<String>),
    /// Any writer — `spg train --metrics` uses a buffered file.
    Writer(Box<dyn Write + Send>),
}

struct SinkInner {
    start: Instant,
    depth: AtomicU64,
    out: Mutex<Out>,
}

/// A telemetry sink: disabled by default, cheap to clone (`Arc`), safe to
/// write from worker threads.
///
/// ```
/// let sink = spg_obs::TelemetrySink::memory();
/// {
///     let _epoch = sink.span("epoch");
///     sink.counter("cache.hits", 3);
///     sink.gauge("reward.mean", 0.5);
/// }
/// assert_eq!(sink.lines().len(), 4); // open + counter + gauge + close
/// ```
#[derive(Clone, Default)]
pub struct TelemetrySink(Option<Arc<SinkInner>>);

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "TelemetrySink(enabled)"
        } else {
            "TelemetrySink(disabled)"
        })
    }
}

impl TelemetrySink {
    /// The no-op sink: every instrument call is a single branch.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Collect lines in memory; read them back with [`Self::lines`].
    pub fn memory() -> Self {
        Self::with_out(Out::Memory(Vec::new()))
    }

    /// Append JSONL to `path` (truncates an existing file).
    pub fn jsonl_file(path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::with_out(Out::Writer(Box::new(
            std::io::BufWriter::new(f),
        ))))
    }

    /// Emit JSONL to an arbitrary writer.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Self::with_out(Out::Writer(w))
    }

    fn with_out(out: Out) -> Self {
        // Any live sink turns on probe timing (sticky, process-wide): the
        // pure hot paths then pay two clock reads per probed call, which
        // the trainer reads back as per-epoch deltas.
        probe::enable_timing();
        Self(Some(Arc::new(SinkInner {
            start: Instant::now(),
            depth: AtomicU64::new(0),
            out: Mutex::new(out),
        })))
    }

    /// Whether events are recorded. Callers may use this to skip
    /// *computing* expensive metric inputs; emission itself is always safe.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn now_us(inner: &SinkInner) -> u64 {
        inner.start.elapsed().as_micros() as u64
    }

    fn write_line(inner: &SinkInner, line: &str) {
        let mut out = inner.out.lock().expect("telemetry sink poisoned");
        match &mut *out {
            Out::Memory(lines) => lines.push(line.to_string()),
            Out::Writer(w) => {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Emit a pre-built event (timestamp is taken as-is).
    pub fn emit(&self, event: &Event) {
        if let Some(inner) = &self.0 {
            Self::write_line(inner, &event.to_json_line());
        }
    }

    /// Open a span; the returned guard emits the matching close (with
    /// wall-clock duration) when dropped. Only the driving thread should
    /// open spans — workers use [`Self::hist`] / [`Self::counter`].
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.0 {
            None => SpanGuard(None),
            Some(inner) => {
                let depth = inner.depth.fetch_add(1, Ordering::Relaxed);
                let opened = Instant::now();
                let t_us = Self::now_us(inner);
                Self::write_line(
                    inner,
                    &Event::SpanOpen {
                        t_us,
                        name: name.to_string(),
                        depth,
                    }
                    .to_json_line(),
                );
                SpanGuard(Some(SpanGuardInner {
                    sink: Arc::clone(inner),
                    name,
                    depth,
                    opened,
                }))
            }
        }
    }

    /// Add `delta` to counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.0 {
            Self::write_line(
                inner,
                &Event::Counter {
                    t_us: Self::now_us(inner),
                    name: name.to_string(),
                    value: delta,
                }
                .to_json_line(),
            );
        }
    }

    /// Record the absolute value of gauge `name`.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            Self::write_line(
                inner,
                &Event::Gauge {
                    t_us: Self::now_us(inner),
                    name: name.to_string(),
                    value,
                }
                .to_json_line(),
            );
        }
    }

    /// Record one observation of histogram `name`.
    pub fn hist(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            Self::write_line(
                inner,
                &Event::Hist {
                    t_us: Self::now_us(inner),
                    name: name.to_string(),
                    value,
                }
                .to_json_line(),
            );
        }
    }

    /// Flush a writer-backed sink (no-op otherwise).
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            if let Out::Writer(w) = &mut *inner.out.lock().expect("telemetry sink poisoned") {
                let _ = w.flush();
            }
        }
    }

    /// Snapshot of a memory sink's lines (empty for other sinks).
    pub fn lines(&self) -> Vec<String> {
        match &self.0 {
            Some(inner) => match &*inner.out.lock().expect("telemetry sink poisoned") {
                Out::Memory(lines) => lines.clone(),
                Out::Writer(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in `0.0..=100.0`).
/// Returns NaN for an empty sample.
///
/// **This is the authority for benchmark reports** (every latency
/// p50/p99 in `BENCH_serve.json` and the serve/drift bench paths).
/// Nearest-rank always returns an *observed* sample — a latency that
/// actually happened — and pins `p=0` to the minimum and `p=100` to the
/// maximum. It deliberately differs from `spg_eval::stats::quantile`,
/// which linearly interpolates between ranks for the paper's Fig. 8
/// boxplots; the two disagree on even-length samples (see the
/// divergence pin in this module's tests), so do not swap one for the
/// other.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct SpanGuardInner {
    sink: Arc<SinkInner>,
    name: &'static str,
    depth: u64,
    opened: Instant,
}

/// RAII guard for an open span; emits `span_close` on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard(Option<SpanGuardInner>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.0.take() {
            g.sink.depth.fetch_sub(1, Ordering::Relaxed);
            let ev = Event::SpanClose {
                t_us: TelemetrySink::now_us(&g.sink),
                name: g.name.to_string(),
                depth: g.depth,
                dur_us: g.opened.elapsed().as_micros() as u64,
            };
            TelemetrySink::write_line(&g.sink, &ev.to_json_line());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert!(percentile(&[], 50.0).is_nan());
        // Order-independent.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn percentile_diverges_from_interpolation_by_design() {
        // The divergence pin against `spg_eval::stats::quantile`: on an
        // even-length sample the bench authority returns the lower
        // observed sample (nearest rank), never the interpolated
        // midpoint. If this fails, someone unified the two definitions —
        // every historical BENCH_serve.json row would silently re-rank.
        let s = [10.0, 20.0];
        assert_eq!(percentile(&s, 50.0), 10.0, "not 15.0: never interpolate");
        assert_eq!(percentile(&s, 0.0), 10.0, "p=0 pins the minimum");
        assert_eq!(percentile(&s, 100.0), 20.0, "p=100 pins the maximum");
        // len-1: every p collapses onto the only observation.
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());
        let _g = sink.span("epoch");
        sink.counter("c", 1);
        sink.gauge("g", 1.0);
        sink.hist("h", 1.0);
        sink.flush();
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            Event::SpanOpen {
                t_us: 3,
                name: "epoch".into(),
                depth: 0,
            },
            Event::SpanClose {
                t_us: 90,
                name: "epoch".into(),
                depth: 0,
                dur_us: 87,
            },
            Event::Counter {
                t_us: 91,
                name: "cache.hits".into(),
                value: 17,
            },
            Event::Gauge {
                t_us: 92,
                name: "reward.mean".into(),
                value: 0.53125,
            },
            Event::Hist {
                t_us: 93,
                name: "rollout.sample_us".into(),
                value: 412.25,
            },
        ];
        for ev in events {
            let line = ev.to_json_line();
            let back = Event::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn event_line_bytes_are_pinned() {
        let name = || "q\"b\\s\n\r\t\u{1}é/".to_string();
        let cases = [
            (
                Event::SpanOpen {
                    t_us: 12,
                    name: "epoch".into(),
                    depth: 0,
                },
                r#"{"t_us":12,"ev":"span_open","name":"epoch","depth":0}"#,
            ),
            (
                Event::SpanClose {
                    t_us: 9317,
                    name: name(),
                    depth: 3,
                    dur_us: 9305,
                },
                r#"{"t_us":9317,"ev":"span_close","name":"q\"b\\s\n\r\t\u0001é/","depth":3,"dur_us":9305}"#,
            ),
            (
                Event::Counter {
                    t_us: u64::MAX,
                    name: "cache.hits".into(),
                    value: 18_446_744_073_709_551_615,
                },
                r#"{"t_us":18446744073709551615,"ev":"counter","name":"cache.hits","value":18446744073709551615}"#,
            ),
            (
                Event::Gauge {
                    t_us: 1,
                    name: name(),
                    value: f64::NAN,
                },
                r#"{"t_us":1,"ev":"gauge","name":"q\"b\\s\n\r\t\u0001é/","value":null}"#,
            ),
            (
                Event::Gauge {
                    t_us: 2,
                    name: "reward.mean".into(),
                    value: -0.1,
                },
                r#"{"t_us":2,"ev":"gauge","name":"reward.mean","value":-0.1}"#,
            ),
            (
                Event::Hist {
                    t_us: 421,
                    name: "rollout.sample_us".into(),
                    value: 1e300,
                },
                &format!(
                    r#"{{"t_us":421,"ev":"hist","name":"rollout.sample_us","value":1{}}}"#,
                    "0".repeat(300)
                ),
            ),
            (
                Event::Hist {
                    t_us: 0,
                    name: String::new(),
                    value: f64::NEG_INFINITY,
                },
                r#"{"t_us":0,"ev":"hist","name":"","value":null}"#,
            ),
        ];
        for (event, line) in &cases {
            assert_eq!(event.to_json_line(), *line);
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ev = Event::Gauge {
            t_us: 0,
            name: "weird \"name\"\n\\with\tescapes".into(),
            value: 1.0,
        };
        assert_eq!(Event::parse(&ev.to_json_line()).unwrap(), ev);
    }

    #[test]
    fn non_finite_gauge_serialises_as_null() {
        let ev = Event::Gauge {
            t_us: 0,
            name: "g".into(),
            value: f64::NAN,
        };
        let line = ev.to_json_line();
        assert!(line.contains("null"), "{line}");
        match Event::parse(&line).unwrap() {
            Event::Gauge { value, .. } => assert!(value.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"t_us\":1}",                                // missing ev/name
            "{\"t_us\":1,\"ev\":\"nope\",\"name\":\"x\"}", // unknown kind
            "{\"t_us\":\"x\",\"ev\":\"gauge\",\"name\":\"g\",\"value\":1}", // bad t_us
            "{\"t_us\":1,\"ev\":\"gauge\",\"name\":\"g\",\"value\":1}}", // trailing
            // Numbers are JSON numbers, not anything `f64::from_str` takes.
            "{\"t_us\":1,\"ev\":\"gauge\",\"name\":\"g\",\"value\":inf}",
            "{\"t_us\":1,\"ev\":\"gauge\",\"name\":\"g\",\"value\":NaN}",
            "{\"t_us\":1,\"ev\":\"gauge\",\"name\":\"g\",\"value\":+1}",
            "{\"t_us\":1,\"ev\":\"gauge\",\"name\":\"g\",\"value\":.5}",
            "{\"t_us\":+1,\"ev\":\"counter\",\"name\":\"c\",\"value\":1}",
            // Only JSON whitespace surrounds a line.
            "\u{a0}{\"t_us\":1,\"ev\":\"counter\",\"name\":\"c\",\"value\":1}",
            "{\"t_us\":1,\"ev\":\"counter\",\"name\":\"c\",\"value\":1}\u{2003}",
        ] {
            assert!(Event::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_reads_any_json_object() {
        let gauge = |name: &str| Event::Gauge {
            t_us: 1,
            name: name.into(),
            value: 0.5,
        };
        for (line, event) in [
            // Every JSON escape, and raw multibyte UTF-8.
            (
                r#"{"t_us":1,"ev":"gauge","name":"a\/b\b\fé","value":0.5}"#,
                gauge("a/b\u{8}\u{c}é"),
            ),
            (
                r#"{"t_us":1,"ev":"gauge","name":"réseau","value":0.5}"#,
                gauge("réseau"),
            ),
            // Unknown fields are skipped whatever they hold.
            (
                r#"{"x":[1,{"y":[]}],"t_us":1,"z":{"k":null},"ev":"gauge","w":true,"name":"g","value":0.5}"#,
                gauge("g"),
            ),
            // JSON whitespace anywhere between tokens.
            (
                " \t{ \"t_us\" : 1 ,\r\n\"ev\":\"gauge\", \"name\":\"g\" ,\"value\": 5e-1 }\n",
                gauge("g"),
            ),
        ] {
            assert_eq!(Event::parse(line), Ok(event), "{line}");
        }
    }

    #[test]
    fn memory_sink_records_nested_spans_in_order() {
        let sink = TelemetrySink::memory();
        {
            let _outer = sink.span("epoch");
            {
                let _inner = sink.span("step.rollout");
                sink.hist("rollout.sample_us", 10.0);
            }
            sink.gauge("reward.mean", 0.4);
        }
        let lines = sink.lines();
        let events: Vec<Event> = lines
            .iter()
            .map(|l| Event::parse(l).expect("valid line"))
            .collect();
        assert_eq!(events.len(), 6);
        // Balanced, properly nested spans.
        let mut stack = Vec::new();
        for ev in &events {
            match ev {
                Event::SpanOpen { name, depth, .. } => {
                    assert_eq!(*depth as usize, stack.len());
                    stack.push(name.clone());
                }
                Event::SpanClose { name, depth, .. } => {
                    assert_eq!(stack.pop().as_deref(), Some(name.as_str()));
                    assert_eq!(*depth as usize, stack.len());
                }
                _ => {}
            }
        }
        assert!(stack.is_empty());
        // Timestamps are monotone for a single-threaded emitter.
        let ts: Vec<u64> = events
            .iter()
            .map(|e| match e {
                Event::SpanOpen { t_us, .. }
                | Event::SpanClose { t_us, .. }
                | Event::Counter { t_us, .. }
                | Event::Gauge { t_us, .. }
                | Event::Hist { t_us, .. } => *t_us,
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn writer_sink_writes_lines() {
        let dir = std::env::temp_dir().join("spg-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let sink = TelemetrySink::jsonl_file(&path).unwrap();
        sink.counter("c", 2);
        sink.flush();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(matches!(
            Event::parse(lines[0]).unwrap(),
            Event::Counter { value: 2, .. }
        ));
    }
}
