//! Per-run manifests: one JSON object capturing everything needed to
//! reproduce and diff a bench run — binary name, config, scale/seed,
//! per-stage wall times, counter totals, and the emitted tables/figures.

use crate::json::Json;
use std::time::Instant;

/// How many trailing flight-recorder events a stamped manifest retains.
const MANIFEST_FLIGHT_TAIL: usize = 256;

/// Builder for a run manifest.
///
/// ```
/// let mut m = vp_trace::Manifest::new("fig8");
/// m.set("scale", 1u64.into());
/// m.table("fig8", &["config".into()], &[vec!["baseline".into()]]);
/// let line = m.render();
/// assert!(line.starts_with(r#"{"t":"manifest","schema":"vp-manifest/2","bin":"fig8""#));
/// ```
#[derive(Debug, Clone)]
pub struct Manifest {
    root: Json,
    tables: Vec<Json>,
    started: Instant,
}

impl Manifest {
    /// Starts a manifest for the binary `bin`; run duration is measured
    /// from this call.
    pub fn new(bin: &str) -> Manifest {
        let mut root = Json::obj();
        root.set("t", "manifest".into());
        root.set("schema", "vp-manifest/2".into());
        root.set("bin", bin.into());
        Manifest {
            root,
            tables: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Attaches an arbitrary top-level field.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Manifest {
        self.root.set(key, value);
        self
    }

    /// Attaches a named result table (headers plus stringified rows).
    pub fn table(&mut self, name: &str, headers: &[String], rows: &[Vec<String>]) -> &mut Manifest {
        let mut t = Json::obj();
        t.set("name", name.into());
        t.set(
            "headers",
            Json::Arr(headers.iter().map(|h| h.as_str().into()).collect()),
        );
        t.set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
                    .collect(),
            ),
        );
        self.tables.push(t);
        self
    }

    /// Captures the current global counter totals, aggregated span wall
    /// times (flat and tree), the sequence ceiling, run duration, and a
    /// bounded flight-recorder tail into the manifest. When a live feed
    /// is attached (`VP_LIVE_FEED`) its path is stamped as `live_feed`;
    /// when the flight recorder is disabled (`VP_FLIGHT_EVENTS=0`) an
    /// all-zero `flight` object is stamped in place of the tail.
    pub fn stamp(&mut self) -> &mut Manifest {
        self.root.set(
            "duration_ms",
            Json::F64(self.started.elapsed().as_secs_f64() * 1e3),
        );
        self.root.set("seq", Json::U64(crate::seq_ceiling()));
        let mut spans = Json::obj();
        for (name, (count, nanos)) in crate::spans_snapshot() {
            let mut s = Json::obj();
            s.set("count", Json::U64(count));
            s.set("ms", Json::F64(nanos as f64 / 1e6));
            spans.set(&name, s);
        }
        self.root.set("spans", spans);
        let tree = crate::tree_snapshot();
        if !tree.is_empty() {
            let mut t = Json::obj();
            for node in &tree {
                let mut s = Json::obj();
                s.set("count", Json::U64(node.count));
                s.set("ms", Json::F64(node.nanos as f64 / 1e6));
                t.set(&node.path, s);
            }
            self.root.set("span_tree", t);
        }
        if crate::flight::is_disabled() {
            // Distinguish "recorder turned off" from "nothing happened":
            // stamp an explicit all-zero flight object instead of
            // omitting the field.
            let mut f = Json::obj();
            f.set("capacity", Json::U64(0));
            f.set("recorded", Json::U64(0));
            f.set("dropped", Json::U64(0));
            self.root.set("flight", f);
        }
        if let Some(path) = crate::feed::feed_target() {
            self.root
                .set("live_feed", path.display().to_string().into());
        }
        let flights = crate::flight::snapshot();
        if flights.recorded > 0 {
            let mut f = Json::obj();
            f.set("capacity", Json::U64(flights.capacity as u64));
            f.set("recorded", Json::U64(flights.recorded));
            f.set("dropped", Json::U64(flights.dropped));
            f.set(
                "tail",
                Json::Arr(
                    flights
                        .tail(MANIFEST_FLIGHT_TAIL)
                        .iter()
                        .map(crate::sink::flight_event_json)
                        .collect(),
                ),
            );
            self.root.set("flight", f);
        }
        let mut counters = Json::obj();
        for (name, value) in crate::counters_snapshot() {
            if value > 0 {
                counters.set(&name, Json::U64(value));
            }
        }
        self.root.set("counters", counters);
        let mut hists = Json::obj();
        for (name, h) in crate::histograms_snapshot() {
            if h.count > 0 {
                let mut o = Json::obj();
                for (k, v) in crate::sink::hist_json_fields(&h) {
                    o.set(k, v);
                }
                hists.set(&name, o);
            }
        }
        self.root.set("histograms", hists);
        self
    }

    /// Serializes to one compact JSON line.
    pub fn render(&self) -> String {
        let mut root = self.root.clone();
        if !self.tables.is_empty() {
            root.set("tables", Json::Arr(self.tables.clone()));
        }
        root.render()
    }

    /// Renders and sends the manifest to the installed sink; returns the
    /// serialized line either way.
    pub fn emit(&self) -> String {
        let line = self.render();
        crate::emit_manifest(&line);
        line
    }
}

/// Parses one JSONL line as a `vp-manifest/2` manifest object.
///
/// This is the read side of [`Manifest::render`]: shard-merge tooling uses
/// it to join the per-shard manifests of a sharded sweep back into one
/// report, and `manifest-diff` uses it to load both sides of a
/// comparison. Non-manifest lines (other `t` values), any other schema
/// (including the pre-`/2` `vp-manifest/1`, which nothing writes any
/// more) and malformed JSON are rejected with a descriptive message.
///
/// ```
/// let mut m = vp_trace::Manifest::new("sweep");
/// m.set("shard", "0/2".into());
/// let parsed = vp_trace::parse_manifest_line(&m.render()).unwrap();
/// assert_eq!(parsed.get("bin").and_then(vp_trace::Json::as_str), Some("sweep"));
/// ```
///
/// # Errors
///
/// Returns a message describing the first syntax or schema violation.
pub fn parse_manifest_line(line: &str) -> Result<Json, String> {
    let j = Json::parse(line.trim())?;
    match j.get("t").and_then(Json::as_str) {
        Some("manifest") => {}
        Some(other) => return Err(format!("not a manifest line (t={other:?})")),
        None => return Err("not a manifest line (missing \"t\")".to_string()),
    }
    match j.get("schema").and_then(Json::as_str) {
        Some("vp-manifest/2") => Ok(j),
        Some(other) => Err(format!("unsupported manifest schema {other:?}")),
        None => Err("manifest line missing \"schema\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_shape() {
        let mut m = Manifest::new("table1");
        m.set("scale", Json::U64(2));
        m.table(
            "t",
            &["a".to_string(), "b".to_string()],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        let line = m.render();
        assert!(line.contains(r#""bin":"table1""#));
        assert!(line.contains(r#""scale":2"#));
        assert!(line.contains(r#""tables":[{"name":"t","headers":["a","b"],"rows":[["1","2"]]}]"#));
    }

    #[test]
    fn parse_manifest_line_round_trips() {
        let mut m = Manifest::new("sweep");
        m.set("shard", "1/2".into());
        m.table(
            "cells",
            &["workload".to_string()],
            &[vec!["gzip".to_string()]],
        );
        let line = m.render();
        let j = parse_manifest_line(&line).unwrap();
        assert_eq!(j.get("bin").and_then(Json::as_str), Some("sweep"));
        assert_eq!(j.get("shard").and_then(Json::as_str), Some("1/2"));
        let tables = j.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables[0].get("name").and_then(Json::as_str), Some("cells"));
    }

    #[test]
    fn parse_manifest_line_rejects_non_manifests() {
        assert!(parse_manifest_line("{}").is_err());
        assert!(parse_manifest_line(r#"{"t":"span"}"#).is_err());
        assert!(parse_manifest_line(r#"{"t":"manifest","schema":"vp-manifest/9"}"#).is_err());
        assert!(parse_manifest_line("not json").is_err());
    }

    #[test]
    fn parse_manifest_line_refuses_legacy_v1() {
        let legacy = r#"{"t":"manifest","schema":"vp-manifest/1","bin":"sweep","shard":"0/2"}"#;
        let err = parse_manifest_line(legacy).unwrap_err();
        assert!(err.contains("unsupported manifest schema"), "{err}");
    }

    #[test]
    fn stamp_attaches_v2_fields() {
        let ((), _report) = crate::scoped(|| {
            let _outer = crate::span("test.manifest.outer");
            let _inner = crate::span("test.manifest.inner");
        });
        let mut m = Manifest::new("x");
        m.stamp();
        let j = Json::parse(&m.render()).unwrap();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("vp-manifest/2")
        );
        assert!(j.get("duration_ms").is_some());
        assert!(j.get("seq").and_then(Json::as_u64).unwrap() > 0);
        let tree = j.get("span_tree").expect("span tree stamped");
        assert!(
            tree.get("test.manifest.outer/test.manifest.inner")
                .is_some(),
            "nested path present in span_tree: {}",
            m.render()
        );
    }

    #[test]
    fn stamped_manifest_round_trips_through_parse() {
        let mut m = Manifest::new("roundtrip");
        m.stamp();
        let j = parse_manifest_line(&m.render()).unwrap();
        assert_eq!(j.get("bin").and_then(Json::as_str), Some("roundtrip"));
        assert!(j.get("duration_ms").is_some());
    }

    #[test]
    fn stamp_attaches_counters_and_spans() {
        static C: crate::Counter = crate::Counter::new("test.manifest.c");
        let ((), _report) = crate::scoped(|| {
            let _s = crate::span("test.manifest.stage");
            C.add(2);
        });
        let mut m = Manifest::new("x");
        m.stamp();
        let line = m.render();
        assert!(line.contains(r#""test.manifest.c":"#));
        assert!(line.contains(r#""test.manifest.stage""#));
    }

    #[test]
    fn stamp_attaches_histograms() {
        static H: crate::Histogram = crate::Histogram::new("test.manifest.h");
        let ((), _report) = crate::scoped(|| {
            H.observe(3);
            H.observe(9);
        });
        let mut m = Manifest::new("x");
        m.stamp();
        let j = Json::parse(&m.render()).unwrap();
        let h = j.get("histograms").and_then(|h| h.get("test.manifest.h"));
        let h = h.expect("histogram stamped");
        assert!(h.get("count").and_then(Json::as_u64).unwrap() >= 2);
        assert!(h.get("buckets").and_then(Json::as_arr).is_some());
    }
}
