//! Pluggable trace sinks: where span, counter, and event records go.
//!
//! Three sinks ship with the crate:
//!
//! * [`MemorySink`] — collects records in memory for programmatic
//!   assertions (tests use the thread-local scope instead when possible);
//! * [`SummarySink`] — aggregates and prints a human-readable table on
//!   [`TraceSink::flush`];
//! * [`JsonlSink`] — streams one JSON object per record (and per
//!   manifest) to a file or to stderr.

use crate::json::Json;
use crate::{HistSnapshot, Record, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// Destination for trace records.
pub trait TraceSink: Send + Sync {
    /// Consumes one record.
    fn record(&self, r: &Record);

    /// Consumes a complete run manifest (already serialized).
    fn manifest(&self, json: &str) {
        let _ = json;
    }

    /// Final flush: called by [`crate::finish`] after counters are drained.
    fn flush(&self) {}
}

/// Collects every record in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
    manifests: Mutex<Vec<String>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of the records seen so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("memory sink").clone()
    }

    /// Manifests received so far (serialized JSON lines).
    pub fn manifests(&self) -> Vec<String> {
        self.manifests.lock().expect("memory sink").clone()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, r: &Record) {
        self.records.lock().expect("memory sink").push(r.clone());
    }

    fn manifest(&self, json: &str) {
        self.manifests
            .lock()
            .expect("memory sink")
            .push(json.to_string());
    }
}

#[derive(Debug, Default)]
struct SummaryState {
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnapshot>,
    events: BTreeMap<String, u64>,
}

/// Aggregates spans/counters/events and prints a table to stderr on flush.
#[derive(Debug, Default)]
pub struct SummarySink {
    state: Mutex<SummaryState>,
}

impl SummarySink {
    /// Creates an empty summary.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }
}

impl TraceSink for SummarySink {
    fn record(&self, r: &Record) {
        let mut s = self.state.lock().expect("summary sink");
        match r {
            Record::Span { name, nanos, .. } => {
                let e = s.spans.entry(name.clone()).or_insert((0, 0));
                e.0 += 1;
                e.1 += nanos;
            }
            Record::Count { name, value } => {
                *s.counters.entry(name.clone()).or_insert(0) += value;
            }
            Record::Event { name, .. } => {
                *s.events.entry(name.clone()).or_insert(0) += 1;
            }
            Record::Hist { name, hist } => {
                s.hists.entry(name.clone()).or_default().merge(hist);
            }
            Record::Flight { events } => {
                for e in events {
                    *s.events.entry(format!("flight:{}", e.kind)).or_insert(0) += 1;
                }
            }
        }
    }

    fn flush(&self) {
        let s = self.state.lock().expect("summary sink");
        let mut out = String::from("== vp-trace summary ==\n");
        if !s.spans.is_empty() {
            out.push_str("-- stage wall times --\n");
            for (name, (count, nanos)) in &s.spans {
                out.push_str(&format!(
                    "{name:<40} {count:>8} x  {:>12.3} ms total\n",
                    *nanos as f64 / 1e6
                ));
            }
        }
        if !s.counters.is_empty() {
            out.push_str("-- counters --\n");
            for (name, value) in &s.counters {
                out.push_str(&format!("{name:<40} {value:>12}\n"));
            }
        }
        if !s.hists.is_empty() {
            out.push_str("-- histograms --\n");
            for (name, h) in &s.hists {
                out.push_str(&format!(
                    "{name:<40} {:>10} x  mean {:>10.1}  p50 {:>8}  max {:>10}\n",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.max
                ));
            }
        }
        if !s.events.is_empty() {
            out.push_str("-- events --\n");
            for (name, count) in &s.events {
                out.push_str(&format!("{name:<40} {count:>12}\n"));
            }
        }
        eprint!("{out}");
    }
}

enum JsonlTarget {
    Stderr,
    File(std::fs::File),
}

/// Streams records as JSON lines to stderr or an append-mode file.
pub struct JsonlSink {
    target: Mutex<JsonlTarget>,
}

impl JsonlSink {
    /// Creates a sink writing to stderr.
    pub fn stderr() -> JsonlSink {
        JsonlSink {
            target: Mutex::new(JsonlTarget::Stderr),
        }
    }

    /// Creates a sink appending to `path`, creating any missing parent
    /// directories first (so `VP_TRACE=json:out/run/trace.jsonl` works on a
    /// fresh checkout).
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the offending path named in the message,
    /// if a parent directory cannot be created or the file cannot be opened.
    pub fn file(path: &str) -> std::io::Result<JsonlSink> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("creating parent directory {}: {e}", parent.display()),
                    )
                })?;
            }
        }
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("opening {path}: {e}")))?;
        Ok(JsonlSink {
            target: Mutex::new(JsonlTarget::File(f)),
        })
    }

    fn write_with(&self, f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
        let mut t = self.target.lock().expect("jsonl sink");
        let _ = match &mut *t {
            JsonlTarget::Stderr => f(&mut std::io::stderr().lock()),
            JsonlTarget::File(file) => f(file),
        };
    }

    fn write_line(&self, line: &str) {
        self.write_with(|w| writeln!(w, "{line}"));
    }
}

/// Writes the line `record_json(&Record::Flight { events })` renders, one
/// event at a time: a dump holds up to the whole flight ring, which as one
/// [`Json`] tree would be the run's largest allocation.
fn write_flight(w: &mut impl Write, events: &[crate::FlightEvent]) -> std::io::Result<()> {
    w.write_all(br#"{"t":"flight","events":["#)?;
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        w.write_all(flight_event_json(e).render().as_bytes())?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

impl TraceSink for JsonlSink {
    fn record(&self, r: &Record) {
        match r {
            Record::Flight { events } => {
                self.write_with(|w| write_flight(&mut std::io::BufWriter::new(w), events));
            }
            _ => self.write_line(&record_json(r).render()),
        }
    }

    fn manifest(&self, json: &str) {
        self.write_line(json);
    }

    fn flush(&self) {
        if let JsonlTarget::File(f) = &mut *self.target.lock().expect("jsonl sink") {
            let _ = f.flush();
        }
    }
}

/// The JSONL encoding of one record.
pub fn record_json(r: &Record) -> Json {
    let mut j = Json::obj();
    match r {
        Record::Span {
            name,
            nanos,
            id,
            parent,
        } => {
            j.set("t", "span".into());
            j.set("name", name.as_str().into());
            j.set("ns", Json::U64(*nanos));
            j.set("id", Json::U64(*id));
            j.set("parent", Json::U64(*parent));
        }
        Record::Count { name, value } => {
            j.set("t", "count".into());
            j.set("name", name.as_str().into());
            j.set("value", Json::U64(*value));
        }
        Record::Event { name, fields } => {
            j.set("t", "event".into());
            j.set("name", name.as_str().into());
            let mut obj = Json::obj();
            for (k, v) in fields {
                obj.set(k, v.to_json());
            }
            j.set("fields", obj);
        }
        Record::Hist { name, hist } => {
            j.set("t", "hist".into());
            j.set("name", name.as_str().into());
            for (k, v) in hist_json_fields(hist) {
                j.set(k, v);
            }
        }
        Record::Flight { events } => {
            j.set("t", "flight".into());
            j.set(
                "events",
                Json::Arr(events.iter().map(flight_event_json).collect()),
            );
        }
    }
    j
}

/// The shared JSON encoding of one flight-recorder event, used by both
/// the JSONL record stream and [`crate::Manifest::stamp`].
pub fn flight_event_json(e: &crate::FlightEvent) -> Json {
    let mut o = Json::obj();
    o.set("seq", Json::U64(e.seq));
    o.set("kind", e.kind.as_str().into());
    o.set("a", Json::U64(e.a));
    o.set("b", Json::U64(e.b));
    o
}

/// The shared JSON encoding of a histogram snapshot, used by both the
/// JSONL record stream and [`crate::Manifest::stamp`].
pub fn hist_json_fields(h: &HistSnapshot) -> Vec<(&'static str, Json)> {
    vec![
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("min", Json::U64(h.min)),
        ("max", Json::U64(h.max)),
        ("p50", Json::U64(h.quantile(0.5))),
        ("p99", Json::U64(h.quantile(0.99))),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(lo, n)| Json::Arr(vec![Json::U64(lo), Json::U64(n)]))
                    .collect(),
            ),
        ),
    ]
}

impl Value {
    /// The JSON encoding of this field value.
    pub fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::U64(*v),
            Value::I64(v) => Json::I64(*v),
            Value::F64(v) => Json::F64(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_shapes() {
        let r = Record::Span {
            name: "pack".into(),
            nanos: 1500,
            id: 42,
            parent: 7,
        };
        assert_eq!(
            record_json(&r).render(),
            r#"{"t":"span","name":"pack","ns":1500,"id":42,"parent":7}"#
        );
        let r = Record::Count {
            name: "hsd.detections".into(),
            value: 7,
        };
        assert_eq!(
            record_json(&r).render(),
            r#"{"t":"count","name":"hsd.detections","value":7}"#
        );
        let r = Record::Event {
            name: "inline".into(),
            fields: vec![("depth".into(), Value::U64(2))],
        };
        assert_eq!(
            record_json(&r).render(),
            r#"{"t":"event","name":"inline","fields":{"depth":2}}"#
        );
    }

    #[test]
    fn hist_record_json_shape() {
        let r = Record::Hist {
            name: "diff.residency".into(),
            hist: HistSnapshot {
                count: 3,
                sum: 7,
                min: 1,
                max: 4,
                buckets: vec![(1, 2), (4, 1)],
            },
        };
        assert_eq!(
            record_json(&r).render(),
            r#"{"t":"hist","name":"diff.residency","count":3,"sum":7,"min":1,"max":4,"p50":1,"p99":4,"buckets":[[1,2],[4,1]]}"#
        );
    }

    #[test]
    fn flight_record_json_shape() {
        let r = Record::Flight {
            events: vec![crate::FlightEvent {
                seq: 9,
                kind: "hsd.detect".into(),
                a: 1000,
                b: 3,
            }],
        };
        assert_eq!(
            record_json(&r).render(),
            r#"{"t":"flight","events":[{"seq":9,"kind":"hsd.detect","a":1000,"b":3}]}"#
        );
    }

    #[test]
    fn span_record_json_round_trips() {
        let r = Record::Span {
            name: "metrics.profile.run".into(),
            nanos: 123_456,
            id: 11,
            parent: 3,
        };
        let j = Json::parse(&record_json(&r).render()).unwrap();
        assert_eq!(j.get("t").and_then(Json::as_str), Some("span"));
        assert_eq!(
            j.get("name").and_then(Json::as_str),
            Some("metrics.profile.run")
        );
        assert_eq!(j.get("ns").and_then(Json::as_u64), Some(123_456));
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(11));
        assert_eq!(j.get("parent").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn flight_record_json_round_trips() {
        let r = Record::Flight {
            events: vec![
                crate::FlightEvent {
                    seq: 1,
                    kind: "trace_store.hit".into(),
                    a: 4096,
                    b: 17,
                },
                crate::FlightEvent {
                    seq: 5,
                    kind: "diff.divergence".into(),
                    a: 0,
                    b: 2,
                },
            ],
        };
        let j = Json::parse(&record_json(&r).render()).unwrap();
        let events = j.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(
            events[1].get("kind").and_then(Json::as_str),
            Some("diff.divergence")
        );
        assert_eq!(events[1].get("b").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn jsonl_flight_line_streams_the_record_json_bytes() {
        let events = (0..300)
            .map(|i| crate::FlightEvent {
                seq: i,
                kind: if i % 2 == 0 {
                    "hsd.detect".into()
                } else {
                    "odd \"kind\"\n".into()
                },
                a: i * 4096,
                b: u64::MAX - i,
            })
            .collect();
        let r = Record::Flight { events };
        let dir = std::env::temp_dir().join(format!("vp-trace-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("flight.jsonl");
        let sink = JsonlSink::file(path.to_str().unwrap()).unwrap();
        sink.record(&r);
        sink.flush();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, format!("{}\n", record_json(&r).render()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_sink_counts_flight_events() {
        let s = SummarySink::new();
        s.record(&Record::Flight {
            events: vec![
                crate::FlightEvent {
                    seq: 1,
                    kind: "hsd.detect".into(),
                    a: 0,
                    b: 0,
                },
                crate::FlightEvent {
                    seq: 2,
                    kind: "hsd.detect".into(),
                    a: 0,
                    b: 0,
                },
            ],
        });
        let state = s.state.lock().unwrap();
        assert_eq!(state.events.get("flight:hsd.detect"), Some(&2));
    }

    #[test]
    fn jsonl_file_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("vp-trace-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/trace.jsonl");
        let sink = JsonlSink::file(path.to_str().unwrap()).expect("parent dirs created");
        sink.manifest("{}");
        sink.flush();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_file_error_names_the_path() {
        // A path whose parent is a *file* cannot be created.
        let dir = std::env::temp_dir().join(format!("vp-trace-sink-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"x").unwrap();
        let path = blocker.join("trace.jsonl");
        let err = match JsonlSink::file(path.to_str().unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("opening under a file should fail"),
        };
        assert!(
            err.to_string().contains("blocker"),
            "error should name the path: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_sink_collects() {
        let s = MemorySink::new();
        s.record(&Record::Count {
            name: "a".into(),
            value: 1,
        });
        s.manifest("{}");
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.manifests(), vec!["{}".to_string()]);
    }
}
