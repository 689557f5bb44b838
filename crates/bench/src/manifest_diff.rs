//! Regression attribution between two `vp-manifest` runs.
//!
//! `manifest-diff OLD NEW` loads one manifest line from each file
//! (`vp-manifest/2`), aligns their stamped span,
//! counter, and histogram aggregates by name, and reports what moved —
//! so a slowdown shows up attributed to the stage that regressed rather
//! than as one opaque wall-time number. The worst span regression gates
//! CI: the binary exits non-zero when it exceeds the threshold.
//!
//! Two gating modes share the reporting above:
//!
//! * **single-baseline** (the original): a span fails when it moved more
//!   than `max_pct` against the one old manifest;
//! * **history-aware** (`--history DIR`): a span fails when it lands
//!   above the tolerance band of its last-K warehoused runs — median +
//!   max(3·MAD, `max_pct`) (see [`crate::history`]). One noisy baseline
//!   sample no longer decides the verdict; spans without enough history
//!   fall back to the single-baseline rule.

use crate::history::{Band, RunRecord, GATE_K, GATE_LAST_K, GATE_MIN_SAMPLES};
use std::collections::BTreeMap;
use vp_trace::Json;

/// Spans faster than this on the old side are not gated: percentage
/// movement on sub-millisecond stages is noise, not regression.
pub const MIN_GATED_SPAN_MS: f64 = 1.0;

/// One span's movement between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// Span name (flat aggregate key).
    pub name: String,
    /// Total milliseconds in the old run (`None` if the span is new).
    pub old_ms: Option<f64>,
    /// Total milliseconds in the new run (`None` if the span vanished).
    pub new_ms: Option<f64>,
}

impl SpanDelta {
    /// Percent change new-vs-old, when both sides exist and the old side
    /// is big enough to gate on. Positive = regression.
    pub fn gated_pct(&self) -> Option<f64> {
        match (self.old_ms, self.new_ms) {
            (Some(old), Some(new)) if old >= MIN_GATED_SPAN_MS => Some((new - old) / old * 100.0),
            _ => None,
        }
    }
}

/// One counter's movement between the two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Old total (0 if absent).
    pub old: u64,
    /// New total (0 if absent).
    pub new: u64,
}

/// One histogram's movement between the two runs, summarized by count
/// and mean.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    /// Histogram name.
    pub name: String,
    /// `(count, mean, p50)` in the old run.
    pub old: (u64, f64, u64),
    /// `(count, mean, p50)` in the new run.
    pub new: (u64, f64, u64),
}

/// The aligned difference between two manifest runs.
#[derive(Debug, Clone, Default)]
pub struct ManifestDiff {
    /// `bin` fields of the two manifests.
    pub bins: (String, String),
    /// `duration_ms` of each side, when stamped.
    pub duration_ms: (Option<f64>, Option<f64>),
    /// Every span present on either side, sorted by name.
    pub spans: Vec<SpanDelta>,
    /// Counters whose totals differ, sorted by name.
    pub counters: Vec<CounterDelta>,
    /// Histograms present on either side whose summary moved, sorted by
    /// name.
    pub histograms: Vec<HistDelta>,
}

fn named_ms(j: &Json, section: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = j.get(section) {
        for (name, v) in pairs {
            if let Some(ms) = v.get("ms").and_then(Json::as_f64) {
                out.insert(name.clone(), ms);
            }
        }
    }
    out
}

fn named_u64(j: &Json, section: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = j.get(section) {
        for (name, v) in pairs {
            if let Some(n) = v.as_u64() {
                out.insert(name.clone(), n);
            }
        }
    }
    out
}

fn hist_summary(v: &Json) -> (u64, f64, u64) {
    let count = v.get("count").and_then(Json::as_u64).unwrap_or(0);
    let sum = v.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
    let p50 = v.get("p50").and_then(Json::as_u64).unwrap_or(0);
    let mean = if count == 0 { 0.0 } else { sum / count as f64 };
    (count, mean, p50)
}

/// Aligns two parsed manifests (see [`vp_trace::parse_manifest_line`])
/// into a [`ManifestDiff`].
pub fn diff_manifests(old: &Json, new: &Json) -> ManifestDiff {
    let bin = |j: &Json| {
        j.get("bin")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let dur = |j: &Json| j.get("duration_ms").and_then(Json::as_f64);

    let (old_spans, new_spans) = (named_ms(old, "spans"), named_ms(new, "spans"));
    let mut span_names: Vec<&String> = old_spans.keys().chain(new_spans.keys()).collect();
    span_names.sort();
    span_names.dedup();
    let spans = span_names
        .into_iter()
        .map(|name| SpanDelta {
            name: name.clone(),
            old_ms: old_spans.get(name).copied(),
            new_ms: new_spans.get(name).copied(),
        })
        .collect();

    let (old_c, new_c) = (named_u64(old, "counters"), named_u64(new, "counters"));
    let mut counter_names: Vec<&String> = old_c.keys().chain(new_c.keys()).collect();
    counter_names.sort();
    counter_names.dedup();
    let counters = counter_names
        .into_iter()
        .filter_map(|name| {
            let (o, n) = (
                old_c.get(name).copied().unwrap_or(0),
                new_c.get(name).copied().unwrap_or(0),
            );
            (o != n).then(|| CounterDelta {
                name: name.clone(),
                old: o,
                new: n,
            })
        })
        .collect();

    let hists = |j: &Json| -> BTreeMap<String, (u64, f64, u64)> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = j.get("histograms") {
            for (name, v) in pairs {
                out.insert(name.clone(), hist_summary(v));
            }
        }
        out
    };
    let (old_h, new_h) = (hists(old), hists(new));
    let mut hist_names: Vec<&String> = old_h.keys().chain(new_h.keys()).collect();
    hist_names.sort();
    hist_names.dedup();
    let histograms = hist_names
        .into_iter()
        .filter_map(|name| {
            let o = old_h.get(name).copied().unwrap_or((0, 0.0, 0));
            let n = new_h.get(name).copied().unwrap_or((0, 0.0, 0));
            (o != n).then(|| HistDelta {
                name: name.clone(),
                old: o,
                new: n,
            })
        })
        .collect();

    ManifestDiff {
        bins: (bin(old), bin(new)),
        duration_ms: (dur(old), dur(new)),
        spans,
        counters,
        histograms,
    }
}

impl ManifestDiff {
    /// The largest gated span regression in percent (0 when nothing
    /// regressed). Only spans at least [`MIN_GATED_SPAN_MS`] on the old
    /// side participate.
    pub fn worst_span_regression_pct(&self) -> f64 {
        self.spans
            .iter()
            .filter_map(SpanDelta::gated_pct)
            .fold(0.0, f64::max)
    }

    /// Span-gate failure descriptions under the history-aware rule.
    ///
    /// Each span on the new side is judged against its tolerance band in
    /// `bands` when one exists (`new > band.ceil` fails; bands whose
    /// median is below [`MIN_GATED_SPAN_MS`] never gate), and against
    /// the single-baseline `max_pct` rule otherwise. Returns one line
    /// per failing span; empty means the gate passes.
    pub fn gate_failures(&self, bands: &BTreeMap<String, Band>, max_pct: f64) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.spans {
            let Some(new) = s.new_ms else { continue };
            match bands.get(&s.name) {
                Some(band) if band.median >= MIN_GATED_SPAN_MS => {
                    let ceil = band.ceil(GATE_K, max_pct / 100.0);
                    if new > ceil {
                        out.push(format!(
                            "span {} = {new:.3} ms exceeds history band ceil {ceil:.3} ms \
                             (median {:.3} ms, MAD {:.3}, n={})",
                            s.name, band.median, band.mad, band.n
                        ));
                    }
                }
                Some(_) => {}
                None => {
                    if let Some(pct) = s.gated_pct() {
                        if pct > max_pct {
                            out.push(format!(
                                "span {} regressed {pct:+.1}% vs the old manifest \
                                 (gate {max_pct:.0}%, no history band)",
                                s.name
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Renders the diff as a plain-text report, spans sorted worst
    /// regression first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "manifest-diff: {} -> {}\n",
            self.bins.0, self.bins.1
        ));
        if let (Some(o), Some(n)) = self.duration_ms {
            out.push_str(&format!(
                "run duration: {o:.1} ms -> {n:.1} ms ({:+.1}%)\n",
                (n - o) / o.max(1e-9) * 100.0
            ));
        }

        let mut spans: Vec<&SpanDelta> = self.spans.iter().collect();
        spans.sort_by(|a, b| {
            b.gated_pct()
                .unwrap_or(f64::MIN)
                .total_cmp(&a.gated_pct().unwrap_or(f64::MIN))
        });
        out.push_str("\nspans (worst regression first):\n");
        if spans.is_empty() {
            out.push_str("  (none on either side)\n");
        }
        for s in spans {
            let fmt = |v: Option<f64>| v.map_or("-".to_string(), |ms| format!("{ms:.3} ms"));
            let tag = match (s.gated_pct(), s.old_ms, s.new_ms) {
                (Some(pct), _, _) => format!("{pct:+.1}%"),
                (None, Some(_), Some(_)) => "below gate".to_string(),
                (None, None, _) => "added".to_string(),
                (None, _, None) => "removed".to_string(),
            };
            out.push_str(&format!(
                "  {:<44} {:>14} -> {:>14}  {}\n",
                s.name,
                fmt(s.old_ms),
                fmt(s.new_ms),
                tag
            ));
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters (changed):\n");
            for c in &self.counters {
                let delta = c.new as i128 - c.old as i128;
                out.push_str(&format!(
                    "  {:<44} {:>14} -> {:>14}  ({delta:+})\n",
                    c.name, c.old, c.new
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms (changed):\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} count {} -> {}, mean {:.1} -> {:.1}, p50 {} -> {}\n",
                    h.name, h.old.0, h.new.0, h.old.1, h.new.1, h.old.2, h.new.2
                ));
            }
        }
        out
    }
}

/// Builds per-span tolerance bands from warehoused runs of `bin`.
///
/// Each span seen across the filtered records contributes its last
/// [`GATE_LAST_K`] values; spans with fewer than [`GATE_MIN_SAMPLES`]
/// samples get no band (the diff falls back to single-baseline gating
/// for them).
pub fn history_span_bands(records: &[RunRecord], bin: &str) -> BTreeMap<String, Band> {
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rec in records.iter().filter(|r| r.bin == bin) {
        for (name, &ms) in &rec.spans {
            series.entry(name.clone()).or_default().push(ms);
        }
    }
    series
        .into_iter()
        .filter_map(|(name, values)| {
            if values.len() < GATE_MIN_SAMPLES {
                return None;
            }
            let tail = &values[values.len().saturating_sub(GATE_LAST_K)..];
            crate::history::band(tail).map(|b| (name, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(spans: &[(&str, f64)], counters: &[(&str, u64)]) -> Json {
        let mut line = String::from(r#"{"t":"manifest","schema":"vp-manifest/2","bin":"sweep""#);
        line.push_str(r#","duration_ms":100.0,"spans":{"#);
        line.push_str(
            &spans
                .iter()
                .map(|(n, ms)| format!(r#""{n}":{{"count":1,"ms":{ms}}}"#))
                .collect::<Vec<_>>()
                .join(","),
        );
        line.push_str(r#"},"counters":{"#);
        line.push_str(
            &counters
                .iter()
                .map(|(n, v)| format!(r#""{n}":{v}"#))
                .collect::<Vec<_>>()
                .join(","),
        );
        line.push_str("}}");
        vp_trace::parse_manifest_line(&line).unwrap()
    }

    #[test]
    fn clean_diff_has_no_regression() {
        let old = manifest(&[("pack", 10.0), ("measure", 50.0)], &[("hits", 4)]);
        let new = manifest(&[("pack", 10.2), ("measure", 49.0)], &[("hits", 4)]);
        let d = diff_manifests(&old, &new);
        assert!(d.worst_span_regression_pct() < 25.0);
        assert!(d.counters.is_empty(), "unchanged counters are not listed");
    }

    #[test]
    fn injected_span_regression_is_attributed() {
        let old = manifest(&[("pack", 10.0), ("measure", 50.0)], &[]);
        let new = manifest(&[("pack", 10.0), ("measure", 100.0)], &[]);
        let d = diff_manifests(&old, &new);
        let worst = d.worst_span_regression_pct();
        assert!((worst - 100.0).abs() < 1e-9, "worst = {worst}");
        let report = d.render();
        let measure_at = report.find("measure").unwrap();
        let pack_at = report.find("pack").unwrap();
        assert!(
            measure_at < pack_at,
            "regressed span sorts first:\n{report}"
        );
        assert!(report.contains("+100.0%"), "{report}");
    }

    #[test]
    fn sub_millisecond_spans_do_not_gate() {
        let old = manifest(&[("tiny", 0.01)], &[]);
        let new = manifest(&[("tiny", 0.09)], &[]);
        let d = diff_manifests(&old, &new);
        assert_eq!(d.worst_span_regression_pct(), 0.0);
        assert!(d.render().contains("below gate"));
    }

    #[test]
    fn added_and_removed_spans_are_listed_not_gated() {
        let old = manifest(&[("gone", 30.0)], &[]);
        let new = manifest(&[("fresh", 30.0)], &[]);
        let d = diff_manifests(&old, &new);
        assert_eq!(d.worst_span_regression_pct(), 0.0);
        let report = d.render();
        assert!(
            report.contains("added") && report.contains("removed"),
            "{report}"
        );
    }

    #[test]
    fn counter_and_duration_movement_is_reported() {
        let old = manifest(&[], &[("trace_store.hits", 10), ("same", 1)]);
        let new = manifest(&[], &[("trace_store.hits", 4), ("same", 1)]);
        let d = diff_manifests(&old, &new);
        assert_eq!(
            d.counters,
            vec![CounterDelta {
                name: "trace_store.hits".to_string(),
                old: 10,
                new: 4
            }]
        );
        assert!(d.render().contains("(-6)"));
    }

    #[test]
    fn histogram_mean_shift_is_reported() {
        let mk = |sum: u64| {
            let line = format!(
                r#"{{"t":"manifest","schema":"vp-manifest/2","bin":"x","histograms":{{"h":{{"count":4,"sum":{sum},"min":1,"max":9,"p50":2,"p99":9,"buckets":[[1,4]]}}}}}}"#
            );
            vp_trace::parse_manifest_line(&line).unwrap()
        };
        let d = diff_manifests(&mk(8), &mk(80));
        assert_eq!(d.histograms.len(), 1);
        assert_eq!(d.histograms[0].old.1, 2.0);
        assert_eq!(d.histograms[0].new.1, 20.0);
    }

    fn history_recs(span: &str, values: &[f64]) -> Vec<RunRecord> {
        values
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                let mut r = RunRecord {
                    ts: i as u64,
                    bin: "sweep".into(),
                    label: format!("run{i}"),
                    ..RunRecord::default()
                };
                r.spans.insert(span.to_string(), ms);
                r
            })
            .collect()
    }

    #[test]
    fn history_band_tolerates_spread_the_single_baseline_would_gate() {
        // History: the span bounces between 40 and 60 ms run to run. A
        // single-baseline diff of a lucky 40 against an unlucky 58 gates
        // at 25% (+45%); the history band knows that spread is normal.
        let recs = history_recs("measure", &[50.0, 40.0, 60.0, 45.0, 55.0]);
        let bands = history_span_bands(&recs, "sweep");
        let old = manifest(&[("measure", 40.0)], &[]);
        let new = manifest(&[("measure", 58.0)], &[]);
        let d = diff_manifests(&old, &new);
        assert!(d.worst_span_regression_pct() > 25.0, "baseline rule fires");
        assert!(
            d.gate_failures(&bands, 25.0).is_empty(),
            "history band absorbs normal spread"
        );
        // A genuine blowup still fails against the band.
        let blown = manifest(&[("measure", 200.0)], &[]);
        let d = diff_manifests(&old, &blown);
        let failures = d.gate_failures(&bands, 25.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("history band"), "{failures:?}");
    }

    #[test]
    fn spans_without_history_fall_back_to_single_baseline() {
        let bands = history_span_bands(&history_recs("other", &[1.0, 1.0, 1.0]), "sweep");
        let old = manifest(&[("measure", 50.0)], &[]);
        let new = manifest(&[("measure", 100.0)], &[]);
        let d = diff_manifests(&old, &new);
        let failures = d.gate_failures(&bands, 25.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no history band"), "{failures:?}");
        // And with no bands at all, behaves exactly like the old gate.
        let none = BTreeMap::new();
        assert_eq!(d.gate_failures(&none, 25.0).len(), 1);
        assert!(d.gate_failures(&none, 150.0).is_empty());
    }

    #[test]
    fn history_bands_require_min_samples_and_matching_bin() {
        let thin = history_span_bands(&history_recs("measure", &[50.0, 51.0]), "sweep");
        assert!(thin.is_empty(), "two samples are not enough");
        let other_bin = history_span_bands(&history_recs("measure", &[50.0; 5]), "report");
        assert!(other_bin.is_empty(), "bands are per-bin");
        // Sub-millisecond spans never gate even with a band.
        let tiny = history_span_bands(&history_recs("tiny", &[0.01, 0.01, 0.01]), "sweep");
        let old = manifest(&[("tiny", 0.01)], &[]);
        let new = manifest(&[("tiny", 0.9)], &[]);
        let d = diff_manifests(&old, &new);
        assert!(d.gate_failures(&tiny, 25.0).is_empty());
    }
}
