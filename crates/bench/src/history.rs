//! The run-history warehouse: append-only cross-run telemetry under
//! `VP_HISTORY_DIR`.
//!
//! Single-run observability (spans, counters, the flight recorder) dies
//! with the run: every manifest is printed once and thrown away, so
//! "did this get slower over the last ten runs?" has no answer. The
//! warehouse is the longitudinal store production phase-profiling
//! systems (BOLT, AutoFDO-style counter PGO) are built around, scaled to
//! this repo's constraints: offline, zero new dependencies, plain files.
//!
//! ## Layout
//!
//! ```text
//! $VP_HISTORY_DIR/
//!   seg-000001.jsonl   # vp-history/1 run records, append order
//!   seg-000002.jsonl   # opened when the previous segment fills
//! ```
//!
//! Each ingested run becomes one [`RunRecord`] line (`vp-history/1`): a
//! compact extraction of a `vp-manifest/2` JSONL line or a
//! `vp-bench/1` baseline file, keyed by **binary × config × workload**
//! (hashed to a FNV-1a fingerprint) **× timestamp**. Segments rotate on
//! a size budget (`VP_HISTORY_MB`, default 64): when the store exceeds
//! the budget the oldest whole segment is dropped, so the warehouse
//! self-bounds like the flight recorder does — the most recent history
//! survives, byte cost stays fixed.
//!
//! The warehouse is deliberately not a client of the `vp_exec::blob`
//! store the trace and result caches share: it is an append-ordered log
//! with no blobs to frame, and one file per record would lose append
//! order within a timestamp second.
//!
//! Everything here is observability-only: ingestion failures warn on
//! stderr and never fail the run, and nothing the warehouse does alters
//! report bytes (pinned by `tests/history_report.rs`).
//!
//! ## Tolerance bands
//!
//! The second half of this module is the statistics the history-aware
//! regression gates share ([`Band`], [`changepoints`]): a
//! median-of-last-K center with a MAD (median absolute deviation)
//! tolerance, which one noisy CI sample cannot drag around the way a
//! single committed baseline can. `bench-smoke` and `manifest-diff`
//! gate against these bands when the warehouse holds at least
//! [`GATE_MIN_SAMPLES`] runs, falling back to their committed-baseline
//! behaviour when history is thin.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use vacuum_packing::isa::Fnv;
use vp_trace::Json;

/// Default total size budget for the warehouse, in MiB (`VP_HISTORY_MB`).
pub const DEFAULT_HISTORY_MB: u64 = 64;

/// MAD multiplier of the gate tolerance band (≈3σ for normal noise).
pub const GATE_K: f64 = 3.0;

/// Relative floor of the tolerance band: even a dead-flat history
/// tolerates a 10% excursion before gating (MAD of identical samples is
/// zero; without a floor every repeat run would fail).
pub const GATE_MIN_REL: f64 = 0.10;

/// Minimum history samples before a band gates anything; thinner
/// history falls back to the committed-baseline comparison.
pub const GATE_MIN_SAMPLES: usize = 3;

/// How many trailing samples feed a gate band by default.
pub const GATE_LAST_K: usize = 8;

/// Replay-vs-re-execution throughput ratio of a `vp-bench/1` replay
/// baseline (`eps.replay_batched / eps.execute`), derived by
/// [`RunRecord::from_bench_json`].
pub const REPLAY_SPEEDUP: &str = "replay_speedup_vs_execute";

/// The warehouse root selected by `VP_HISTORY_DIR`, if any.
///
/// Read per call (not cached): subprocess tests point different runs at
/// different warehouses.
pub fn dir_from_env() -> Option<PathBuf> {
    let dir = std::env::var("VP_HISTORY_DIR").ok()?;
    let dir = dir.trim();
    if dir.is_empty() {
        None
    } else {
        Some(PathBuf::from(dir))
    }
}

fn budget_from_env() -> u64 {
    let mb = std::env::var("VP_HISTORY_MB")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_HISTORY_MB);
    mb.max(1) * 1024 * 1024
}

/// 64-bit FNV-1a over `bytes` — the warehouse's key fingerprint hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write_raw(bytes);
    h.finish()
}

/// A compact histogram summary retained per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples observed.
    pub count: u64,
    /// Mean sample value (`sum / count`).
    pub mean: f64,
    /// Median sample value.
    pub p50: u64,
}

/// One warehoused run: the durable extraction of a manifest or bench
/// baseline (`vp-history/1` line).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Ingestion timestamp, unix seconds.
    pub ts: u64,
    /// Emitting binary (`sweep`, `report`, …) or `bench:<name>`.
    pub bin: String,
    /// Human label for trend rows; the source file stem for ingested
    /// baselines (`BENCH_8`), otherwise the bin.
    pub label: String,
    /// Canonical machine-independent run configuration
    /// (`mode=cross,scale=1,timing=true`-style).
    pub config: String,
    /// Workload selection: joined `--only` filters, a `workload` field,
    /// or `suite`.
    pub workload: String,
    /// Run wall time (absent on `vp-bench/1` baselines).
    pub duration_ms: Option<f64>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Aggregated span wall ms by name.
    pub spans: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, HistSummary>,
    /// Scalar run metrics: top-level numeric manifest fields
    /// (`cells_done`, `coverage`, the process's `peak_rss_mb`, …),
    /// `sched.*` scheduler totals, and for bench records `eps.<stage>`
    /// plus the speedup ratios.
    pub metrics: BTreeMap<String, f64>,
}

/// Manifest top-level numeric fields that are machine- or run-instance-
/// specific, not run *results* — excluded from [`RunRecord::metrics`].
const NON_METRIC_FIELDS: &[&str] = &[
    "scale",
    "threads",
    "jobs",
    "seq",
    "duration_ms",
    "trace_cache_mb",
];

impl RunRecord {
    /// The warehouse key this run aggregates under.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.bin, self.config, self.workload)
    }

    /// FNV-1a fingerprint of [`RunRecord::key`], as 16 hex digits.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(self.key().as_bytes()))
    }

    /// Extracts a run record from one `vp-manifest/2` JSONL line.
    ///
    /// # Errors
    ///
    /// Propagates [`vp_trace::parse_manifest_line`] rejections.
    pub fn from_manifest_line(line: &str, ts: u64) -> Result<RunRecord, String> {
        let j = vp_trace::parse_manifest_line(line)?;
        let bin = j
            .get("bin")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();

        let mut config = Vec::new();
        if let Some(mode) = j.get("mode").and_then(Json::as_str) {
            config.push(format!("mode={mode}"));
        }
        for key in ["figure", "table"] {
            if let Some(v) = j.get(key).and_then(Json::as_u64) {
                config.push(format!("{key}={v}"));
            }
        }
        if let Some(v) = j.get("scale").and_then(Json::as_u64) {
            config.push(format!("scale={v}"));
        }
        if let Some(Json::Bool(t)) = j.get("timing") {
            config.push(format!("timing={t}"));
        }
        if let Some(s) = j.get("shard").and_then(Json::as_str) {
            config.push(format!("shard={s}"));
        }

        let workload = if let Some(only) = j.get("only").and_then(Json::as_arr) {
            let parts: Vec<&str> = only.iter().filter_map(Json::as_str).collect();
            parts.join("+")
        } else if let Some(w) = j.get("workload").and_then(Json::as_str) {
            w.to_string()
        } else {
            "suite".to_string()
        };

        let mut rec = RunRecord {
            ts,
            label: bin.clone(),
            bin,
            config: config.join(","),
            workload,
            duration_ms: j.get("duration_ms").and_then(Json::as_f64),
            ..RunRecord::default()
        };

        if let Some(Json::Obj(pairs)) = j.get("counters") {
            for (name, v) in pairs {
                if let Some(v) = v.as_u64() {
                    rec.counters.insert(name.clone(), v);
                }
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("spans") {
            for (name, s) in pairs {
                if let Some(ms) = s.get("ms").and_then(Json::as_f64) {
                    rec.spans.insert(name.clone(), ms);
                }
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("histograms") {
            for (name, h) in pairs {
                let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
                if count == 0 {
                    continue;
                }
                let sum = h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                rec.hists.insert(
                    name.clone(),
                    HistSummary {
                        count,
                        mean: sum / count as f64,
                        p50: h.get("p50").and_then(Json::as_u64).unwrap_or(0),
                    },
                );
            }
        }
        // Every remaining top-level numeric field is a run result
        // (cells_done, coverage, speedup, …) — future manifest fields
        // warehouse themselves without code changes here.
        if let Json::Obj(pairs) = &j {
            for (name, v) in pairs {
                if NON_METRIC_FIELDS.contains(&name.as_str()) {
                    continue;
                }
                if let Some(v) = v.as_f64() {
                    rec.metrics.insert(name.clone(), v);
                }
            }
        }
        if let Some(sched) = j.get("sweep") {
            for key in ["runs", "tasks", "steals", "wall_ms"] {
                if let Some(v) = sched.get(key).and_then(Json::as_f64) {
                    rec.metrics.insert(format!("sched.{key}"), v);
                }
            }
        }
        Ok(rec)
    }

    /// Extracts a run record from a `vp-bench/1` baseline document
    /// (`BENCH_*.json`); `label` is usually the file stem.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON and non-`vp-bench/1` documents.
    pub fn from_bench_json(text: &str, label: &str, ts: u64) -> Result<RunRecord, String> {
        let j = Json::parse(text)?;
        match j.get("schema").and_then(Json::as_str) {
            Some("vp-bench/1") => {}
            other => return Err(format!("not a vp-bench/1 document (schema {other:?})")),
        }
        let bench = j.get("bench").and_then(Json::as_str).unwrap_or("unknown");
        let mut rec = RunRecord {
            ts,
            bin: format!("bench:{bench}"),
            label: label.to_string(),
            config: format!(
                "scale={}",
                j.get("scale").and_then(Json::as_u64).unwrap_or(1)
            ),
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("suite")
                .to_string(),
            ..RunRecord::default()
        };
        if let Some(Json::Obj(pairs)) = j.get("events_per_sec") {
            for (name, v) in pairs {
                if let Some(v) = v.as_f64() {
                    rec.metrics.insert(format!("eps.{name}"), v);
                }
            }
        }
        for key in ["events", "trace_v3_bytes"] {
            if let Some(v) = j.get(key).and_then(Json::as_f64) {
                rec.metrics.insert(key.to_string(), v);
            }
        }
        // Derived rather than stored, so every committed baseline carries
        // it: both throughputs come from one process, so host speed
        // cancels.
        if let (Some(&replay), Some(&execute)) = (
            rec.metrics.get("eps.replay_batched"),
            rec.metrics.get("eps.execute"),
        ) {
            if execute > 0.0 {
                rec.metrics
                    .insert(REPLAY_SPEEDUP.to_string(), replay / execute);
            }
        }
        Ok(rec)
    }

    /// Serializes to one `vp-history/1` line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut j = Json::obj();
        j.set("t", "run".into());
        j.set("schema", "vp-history/1".into());
        j.set("ts", Json::U64(self.ts));
        j.set("bin", self.bin.as_str().into());
        j.set("label", self.label.as_str().into());
        j.set("config", self.config.as_str().into());
        j.set("workload", self.workload.as_str().into());
        j.set("fp", self.fingerprint().into());
        if let Some(d) = self.duration_ms {
            j.set("duration_ms", Json::F64(d));
        }
        let mut c = Json::obj();
        for (k, v) in &self.counters {
            c.set(k, Json::U64(*v));
        }
        j.set("counters", c);
        let mut s = Json::obj();
        for (k, v) in &self.spans {
            s.set(k, Json::F64(*v));
        }
        j.set("spans", s);
        let mut h = Json::obj();
        for (k, v) in &self.hists {
            let mut o = Json::obj();
            o.set("count", Json::U64(v.count));
            o.set("mean", Json::F64(v.mean));
            o.set("p50", Json::U64(v.p50));
            h.set(k, o);
        }
        j.set("hists", h);
        let mut m = Json::obj();
        for (k, v) in &self.metrics {
            m.set(k, Json::F64(*v));
        }
        j.set("metrics", m);
        j.render()
    }

    /// Parses one `vp-history/1` segment line back into a record.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON and lines of other types/schemas.
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let j = Json::parse(line.trim())?;
        match j.get("t").and_then(Json::as_str) {
            Some("run") => {}
            other => return Err(format!("not a history run line (t={other:?})")),
        }
        match j.get("schema").and_then(Json::as_str) {
            Some("vp-history/1") => {}
            other => return Err(format!("unsupported history schema {other:?}")),
        }
        let str_field = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let mut rec = RunRecord {
            ts: j.get("ts").and_then(Json::as_u64).unwrap_or(0),
            bin: str_field("bin"),
            label: str_field("label"),
            config: str_field("config"),
            workload: str_field("workload"),
            duration_ms: j.get("duration_ms").and_then(Json::as_f64),
            ..RunRecord::default()
        };
        if let Some(Json::Obj(pairs)) = j.get("counters") {
            for (k, v) in pairs {
                if let Some(v) = v.as_u64() {
                    rec.counters.insert(k.clone(), v);
                }
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("spans") {
            for (k, v) in pairs {
                if let Some(v) = v.as_f64() {
                    rec.spans.insert(k.clone(), v);
                }
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("hists") {
            for (k, v) in pairs {
                rec.hists.insert(
                    k.clone(),
                    HistSummary {
                        count: v.get("count").and_then(Json::as_u64).unwrap_or(0),
                        mean: v.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                        p50: v.get("p50").and_then(Json::as_u64).unwrap_or(0),
                    },
                );
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("metrics") {
            for (k, v) in pairs {
                if let Some(v) = v.as_f64() {
                    rec.metrics.insert(k.clone(), v);
                }
            }
        }
        Ok(rec)
    }

    /// Resolves a metric spec against this record:
    ///
    /// * `duration_ms`
    /// * `counter:NAME`
    /// * `span:NAME` (aggregated wall ms)
    /// * `hist:NAME:count|mean|p50`
    /// * `metric:NAME` (scalar run metrics, e.g.
    ///   `metric:replay_speedup_vs_execute`)
    pub fn metric(&self, spec: &str) -> Option<f64> {
        if spec == "duration_ms" {
            return self.duration_ms;
        }
        if let Some(name) = spec.strip_prefix("counter:") {
            return self.counters.get(name).map(|&v| v as f64);
        }
        if let Some(name) = spec.strip_prefix("span:") {
            return self.spans.get(name).copied();
        }
        if let Some(rest) = spec.strip_prefix("hist:") {
            let (name, field) = rest.rsplit_once(':')?;
            let h = self.hists.get(name)?;
            return match field {
                "count" => Some(h.count as f64),
                "mean" => Some(h.mean),
                "p50" => Some(h.p50 as f64),
                _ => None,
            };
        }
        if let Some(name) = spec.strip_prefix("metric:") {
            return self.metrics.get(name).copied();
        }
        None
    }
}

/// An open warehouse directory.
#[derive(Debug, Clone)]
pub struct Warehouse {
    dir: PathBuf,
    budget_bytes: u64,
}

impl Warehouse {
    /// Opens (creating if needed) the warehouse at `dir`, budget from
    /// `VP_HISTORY_MB`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Warehouse> {
        Warehouse::open_with_budget(dir, budget_from_env())
    }

    /// Opens with an explicit total byte budget (rotation tests).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open_with_budget(dir: &Path, budget_bytes: u64) -> std::io::Result<Warehouse> {
        std::fs::create_dir_all(dir)?;
        Ok(Warehouse {
            dir: dir.to_path_buf(),
            budget_bytes: budget_bytes.max(1),
        })
    }

    /// The warehouse root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment files, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates directory read failures.
    pub fn segments(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".jsonl"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                segs.push((num, entry.path()));
            }
        }
        segs.sort();
        Ok(segs.into_iter().map(|(_, p)| p).collect())
    }

    /// Total bytes across all segments.
    ///
    /// # Errors
    ///
    /// Propagates filesystem metadata failures.
    pub fn total_bytes(&self) -> std::io::Result<u64> {
        let mut total = 0;
        for seg in self.segments()? {
            total += std::fs::metadata(&seg)?.len();
        }
        Ok(total)
    }

    /// Appends one record, rotating segments to stay inside the byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (callers at end-of-run downgrade
    /// these to warnings — the warehouse never fails a run).
    pub fn ingest(&self, rec: &RunRecord) -> std::io::Result<()> {
        let mut line = rec.to_line();
        line.push('\n');
        // A segment caps at 1/8 of the total budget so rotation drops
        // history in ~12% increments rather than all at once.
        let seg_cap = (self.budget_bytes / 8).max(4096);

        let segs = self.segments()?;
        let seg_path = match segs.last() {
            Some(last) if std::fs::metadata(last)?.len() + line.len() as u64 <= seg_cap => {
                last.clone()
            }
            Some(last) => {
                let num = seg_number(last).unwrap_or(1) + 1;
                self.dir.join(format!("seg-{num:06}.jsonl"))
            }
            None => self.dir.join("seg-000001.jsonl"),
        };
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)?
            .write_all(line.as_bytes())?;

        self.enforce_budget()
    }

    fn enforce_budget(&self) -> std::io::Result<()> {
        loop {
            let segs = self.segments()?;
            if segs.len() <= 1 || self.total_bytes()? <= self.budget_bytes {
                return Ok(());
            }
            std::fs::remove_file(&segs[0])?;
        }
    }

    /// Ingests one manifest JSONL line, stamping the current wall clock.
    ///
    /// # Errors
    ///
    /// Returns a message on parse or filesystem failure.
    pub fn ingest_manifest_line(&self, line: &str) -> Result<(), String> {
        let rec = RunRecord::from_manifest_line(line, now_secs())?;
        self.ingest(&rec).map_err(|e| e.to_string())
    }

    /// Ingests a file: a `vp-bench/1` baseline (`.json`) or a JSONL
    /// stream containing manifest lines. Returns the records ingested.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable or contains no
    /// ingestible record.
    pub fn ingest_file(&self, path: &Path) -> Result<usize, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if let Ok(rec) = RunRecord::from_bench_json(&text, &label, now_secs()) {
            self.ingest(&rec).map_err(|e| e.to_string())?;
            return Ok(1);
        }
        let mut n = 0;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(rec) = RunRecord::from_manifest_line(line, now_secs()) {
                self.ingest(&rec).map_err(|e| e.to_string())?;
                n += 1;
            }
        }
        if n == 0 {
            return Err(format!(
                "{}: no vp-bench/1 document or vp-manifest lines found",
                path.display()
            ));
        }
        Ok(n)
    }

    /// All retained records, oldest segment first, append order within a
    /// segment. Malformed lines are skipped (a torn final line from a
    /// killed run must not poison the store).
    ///
    /// # Errors
    ///
    /// Propagates segment read failures.
    pub fn records(&self) -> std::io::Result<Vec<RunRecord>> {
        let mut out = Vec::new();
        for seg in self.segments()? {
            for line in std::fs::read_to_string(&seg)?.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Ok(rec) = RunRecord::parse_line(line) {
                    out.push(rec);
                }
            }
        }
        Ok(out)
    }
}

fn seg_number(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_string_lossy()
        .strip_prefix("seg-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

fn now_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// End-of-run ingestion hook: warehouses a rendered manifest line when
/// `VP_HISTORY_DIR` is set. Failures warn on stderr; the run's own
/// output and exit status are never affected.
pub fn ingest_at_exit(manifest_line: &str) {
    let Some(dir) = dir_from_env() else {
        return;
    };
    let result = Warehouse::open(&dir)
        .map_err(|e| e.to_string())
        .and_then(|w| w.ingest_manifest_line(manifest_line));
    if let Err(e) = result {
        eprintln!("vp-obs: history ingest into {} failed: {e}", dir.display());
    }
}

// ---------------------------------------------------------------- bands

/// A robust tolerance band: median center, MAD spread, sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Median of the samples.
    pub median: f64,
    /// Median absolute deviation from that median.
    pub mad: f64,
    /// Samples the band was computed from.
    pub n: usize,
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median + MAD of `values`; `None` when empty.
pub fn band(values: &[f64]) -> Option<Band> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = median_of(&sorted);
    let mut devs: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
    devs.sort_by(|a, b| a.total_cmp(b));
    Some(Band {
        median,
        mad: median_of(&devs),
        n: values.len(),
    })
}

impl Band {
    /// The half-width of the tolerance interval: `max(k·MAD,
    /// min_rel·|median|)`.
    pub fn slack(&self, k: f64, min_rel: f64) -> f64 {
        (k * self.mad).max(min_rel * self.median.abs())
    }

    /// Lowest non-regressing value for a higher-is-better metric.
    pub fn floor(&self, k: f64, min_rel: f64) -> f64 {
        self.median - self.slack(k, min_rel)
    }

    /// Highest non-regressing value for a lower-is-better metric.
    pub fn ceil(&self, k: f64, min_rel: f64) -> f64 {
        self.median + self.slack(k, min_rel)
    }
}

/// The gate band over the last [`GATE_LAST_K`] values of `spec` across
/// `records`, or `None` when fewer than [`GATE_MIN_SAMPLES`] records
/// carry the metric (history too thin to gate — fall back to the
/// committed baseline).
pub fn gate_band(records: &[RunRecord], spec: &str) -> Option<Band> {
    let values: Vec<f64> = records.iter().filter_map(|r| r.metric(spec)).collect();
    if values.len() < GATE_MIN_SAMPLES {
        return None;
    }
    let tail = &values[values.len().saturating_sub(GATE_LAST_K)..];
    band(tail)
}

/// Indices where a series breaks out of the tolerance band of the
/// preceding window (the dashboard's changepoint markers).
///
/// A point qualifies when at least [`GATE_MIN_SAMPLES`] earlier points
/// exist and it falls outside `median ± slack` of the previous
/// [`GATE_LAST_K`] points.
pub fn changepoints(values: &[f64]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in GATE_MIN_SAMPLES..values.len() {
        let window = &values[i.saturating_sub(GATE_LAST_K)..i];
        if let Some(b) = band(window) {
            let v = values[i];
            if v < b.floor(GATE_K, GATE_MIN_REL) || v > b.ceil(GATE_K, GATE_MIN_REL) {
                out.push(i);
            }
        }
    }
    out
}

// ------------------------------------------------------------- trends

/// Loads every committed `BENCH_<n>.json` under `dir` (ascending `n`)
/// as bench run records — the trend source when no warehouse exists.
pub fn bench_baseline_records(dir: &Path) -> Vec<RunRecord> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                found.push((num, entry.path()));
            }
        }
    }
    found.sort();
    let mut out = Vec::new();
    for (num, path) in found {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let label = format!("BENCH_{num}");
        if let Ok(rec) = RunRecord::from_bench_json(&text, &label, num) {
            out.push(rec);
        }
    }
    out
}

/// Renders a trend table over `records` grouped by warehouse key.
///
/// Bench records get throughput/ratio columns; everything else gets
/// duration and headline counters. The `Δ%` column tracks the first
/// metric column against the previous run; rows outside the tolerance
/// band of their trailing window are marked `*` (see [`changepoints`]).
pub fn render_trend(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    if records.is_empty() {
        return "history: no runs recorded\n".to_string();
    }
    let mut groups: Vec<(String, Vec<&RunRecord>)> = Vec::new();
    for rec in records {
        let key = rec.key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(rec),
            None => groups.push((key, vec![rec])),
        }
    }
    let mut out = String::new();
    for (_key, group) in &groups {
        let head = group[0];
        let title = if head.config.is_empty() {
            format!("{} · {}", head.bin, head.workload)
        } else {
            format!("{} · {} · {}", head.bin, head.workload, head.config)
        };
        let _ = writeln!(out, "== {title} ({} runs) ==", group.len());
        let is_bench = group
            .iter()
            .any(|r| r.metrics.contains_key("eps.replay_batched"));
        let primary_spec = if is_bench {
            "metric:eps.replay_batched"
        } else {
            "duration_ms"
        };
        let primary: Vec<f64> = group
            .iter()
            .map(|r| r.metric(primary_spec).unwrap_or(0.0))
            .collect();
        let marks = changepoints(&primary);
        let mut t = if is_bench {
            vacuum_packing::metrics::TextTable::new(vec![
                "run",
                "replay_batched Mev/s",
                "replay/execute",
                "Δ%",
            ])
        } else {
            vacuum_packing::metrics::TextTable::new(vec![
                "run",
                "duration ms",
                "cells",
                "store hits",
                "Δ%",
            ])
        };
        for (i, rec) in group.iter().enumerate() {
            let delta = if i == 0 || primary[i - 1] == 0.0 {
                "-".to_string()
            } else {
                let pct = (primary[i] / primary[i - 1] - 1.0) * 100.0;
                let mark = if marks.contains(&i) { " *" } else { "" };
                format!("{pct:+.1}{mark}")
            };
            if is_bench {
                t.row(vec![
                    rec.label.clone(),
                    format!("{:.2}", primary[i] / 1e6),
                    rec.metrics
                        .get(REPLAY_SPEEDUP)
                        .map(|v| format!("{v:.2}x"))
                        .unwrap_or_else(|| "-".to_string()),
                    delta,
                ]);
            } else {
                t.row(vec![
                    rec.label.clone(),
                    rec.duration_ms
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".to_string()),
                    rec.metrics
                        .get("cells_done")
                        .map(|v| format!("{v:.0}"))
                        .unwrap_or_else(|| "-".to_string()),
                    rec.counters
                        .get("trace_store.hits")
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                    delta,
                ]);
            }
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_with_metric(ts: u64, name: &str, v: f64) -> RunRecord {
        let mut rec = RunRecord {
            ts,
            bin: "test".into(),
            label: format!("run{ts}"),
            config: "scale=1".into(),
            workload: "suite".into(),
            ..RunRecord::default()
        };
        rec.metrics.insert(name.to_string(), v);
        rec
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn run_record_round_trips_through_its_line() {
        let mut rec = RunRecord {
            ts: 42,
            bin: "sweep".into(),
            label: "sweep".into(),
            config: "scale=2,timing=true".into(),
            workload: "gzip+twolf".into(),
            duration_ms: Some(12.5),
            ..RunRecord::default()
        };
        rec.counters.insert("trace_store.hits".into(), 7);
        rec.spans.insert("bench.cell".into(), 3.25);
        rec.hists.insert(
            "h".into(),
            HistSummary {
                count: 4,
                mean: 2.5,
                p50: 2,
            },
        );
        rec.metrics.insert("cells_done".into(), 8.0);
        let back = RunRecord::parse_line(&rec.to_line()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.fingerprint(), rec.fingerprint());
    }

    #[test]
    fn manifest_extraction_keys_and_metrics() {
        let line = r#"{"t":"manifest","schema":"vp-manifest/2","bin":"sweep","scale":1,"threads":4,"jobs":2,"trace_cache_mb":512,"only":["gzip","vpr"],"timing":false,"duration_ms":88.5,"seq":100,"cells_total":4,"cells_done":4,"spans":{"bench.cell":{"count":4,"ms":80.0}},"counters":{"trace_store.hits":3},"histograms":{"hsd.len":{"count":2,"sum":10,"min":4,"max":6,"p50":5,"p99":6}},"sweep":{"jobs":2,"runs":1,"tasks":4,"steals":1,"wall_ms":90.0,"workers":[]}}"#;
        let rec = RunRecord::from_manifest_line(line, 7).unwrap();
        assert_eq!(rec.bin, "sweep");
        assert_eq!(rec.workload, "gzip+vpr");
        assert_eq!(rec.config, "scale=1,timing=false");
        assert_eq!(rec.duration_ms, Some(88.5));
        assert_eq!(rec.counters.get("trace_store.hits"), Some(&3));
        assert_eq!(rec.spans.get("bench.cell"), Some(&80.0));
        assert_eq!(rec.metrics.get("cells_done"), Some(&4.0));
        assert_eq!(rec.metrics.get("sched.steals"), Some(&1.0));
        // machine-specific fields stay out of metrics
        assert!(!rec.metrics.contains_key("threads"));
        assert!(!rec.metrics.contains_key("jobs"));
        assert!(!rec.metrics.contains_key("seq"));
        let h = rec.hists.get("hsd.len").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.mean - 5.0).abs() < 1e-9);
        // metric spec resolution
        assert_eq!(rec.metric("duration_ms"), Some(88.5));
        assert_eq!(rec.metric("counter:trace_store.hits"), Some(3.0));
        assert_eq!(rec.metric("span:bench.cell"), Some(80.0));
        assert_eq!(rec.metric("hist:hsd.len:p50"), Some(5.0));
        assert_eq!(rec.metric("metric:cells_done"), Some(4.0));
        assert_eq!(rec.metric("metric:nope"), None);
    }

    #[test]
    fn peak_rss_is_warehoused_as_a_run_metric() {
        let line = r#"{"t":"manifest","schema":"vp-manifest/2","bin":"sweep","timing":true,"duration_ms":610.0,"peak_rss_mb":41.25,"counters":{}}"#;
        let rec = RunRecord::from_manifest_line(line, 1).unwrap();
        assert_eq!(rec.metric("metric:peak_rss_mb"), Some(41.25));
        let back = RunRecord::parse_line(&rec.to_line()).unwrap();
        assert_eq!(back.metric("metric:peak_rss_mb"), Some(41.25));
        // A manifest from a host that reports none simply lacks it.
        let line = line.replace(r#""peak_rss_mb":41.25,"#, "");
        let rec = RunRecord::from_manifest_line(&line, 1).unwrap();
        assert_eq!(rec.metric("metric:peak_rss_mb"), None);
    }

    #[test]
    fn bench_json_extraction() {
        let text = r#"{"schema":"vp-bench/1","bench":"replay_throughput","workload":"300.twolf","scale":1,"events":1000,"trace_v3_bytes":500,"events_per_sec":{"execute":1000000,"replay_batched":2000000}}"#;
        let rec = RunRecord::from_bench_json(text, "BENCH_9", 9).unwrap();
        assert_eq!(rec.bin, "bench:replay_throughput");
        assert_eq!(rec.label, "BENCH_9");
        assert_eq!(rec.workload, "300.twolf");
        assert_eq!(rec.metric("metric:eps.replay_batched"), Some(2_000_000.0));
        assert_eq!(rec.metric("metric:replay_speedup_vs_execute"), Some(2.0));
        assert!(RunRecord::from_bench_json("{}", "x", 0).is_err());
    }

    #[test]
    fn committed_baselines_carry_the_replay_speedup() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let recs = bench_baseline_records(&root);
        assert!(recs.len() >= 6, "committed BENCH_*.json baselines");
        for rec in &recs {
            let ratio = rec
                .metric("metric:replay_speedup_vs_execute")
                .unwrap_or_else(|| panic!("{}: no derived ratio", rec.label));
            assert!(ratio > 1.0, "{}: replay must beat re-execution", rec.label);
        }
        let of = |label: &str| {
            let rec = recs.iter().find(|r| r.label == label).unwrap();
            (rec.metrics[REPLAY_SPEEDUP] * 100.0).round() / 100.0
        };
        assert_eq!((of("BENCH_5"), of("BENCH_12")), (2.12, 2.05));
    }

    #[test]
    fn band_median_mad_and_gates() {
        // The committed baseline ratios: median 0.8226, MAD 0.0503.
        let vals = [0.8226, 0.7723, 1.2640];
        let b = band(&vals).unwrap();
        assert!((b.median - 0.8226).abs() < 1e-9);
        assert!((b.mad - 0.0503).abs() < 1e-9);
        let floor = b.floor(GATE_K, GATE_MIN_REL);
        assert!(floor < 0.7723, "band tolerates the committed spread");
        assert!(1.2640 > floor, "current committed value passes");
        assert!(0.6320 < floor, "an injected 2x regression fails");
        // A flat series gates on the relative floor, not MAD=0.
        let flat = band(&[10.0, 10.0, 10.0]).unwrap();
        assert_eq!(flat.mad, 0.0);
        assert!((flat.floor(GATE_K, GATE_MIN_REL) - 9.0).abs() < 1e-9);
        assert!((flat.ceil(GATE_K, GATE_MIN_REL) - 11.0).abs() < 1e-9);
        assert!(band(&[]).is_none());
    }

    #[test]
    fn gate_band_requires_min_samples_and_uses_tail() {
        let recs: Vec<RunRecord> = (0..2).map(|i| rec_with_metric(i, "x", 1.0)).collect();
        assert!(gate_band(&recs, "metric:x").is_none(), "thin history");
        let recs: Vec<RunRecord> = (0..20)
            .map(|i| rec_with_metric(i, "x", if i < 12 { 100.0 } else { 1.0 }))
            .collect();
        let b = gate_band(&recs, "metric:x").unwrap();
        assert_eq!(b.n, GATE_LAST_K);
        assert_eq!(b.median, 1.0, "band reads the trailing window only");
    }

    #[test]
    fn changepoints_flag_breakouts_only() {
        let mut series = vec![10.0, 10.2, 9.9, 10.1, 10.0];
        assert!(changepoints(&series).is_empty());
        series.push(20.0);
        assert_eq!(changepoints(&series), vec![5]);
    }

    #[test]
    fn render_trend_groups_and_marks() {
        let mut recs: Vec<RunRecord> = (0..4)
            .map(|i| {
                let mut r = rec_with_metric(i, "eps.replay_batched", 2e6);
                r.metrics.insert(REPLAY_SPEEDUP.into(), 2.0);
                r.bin = "bench:replay_throughput".into();
                r.label = format!("BENCH_{i}");
                r
            })
            .collect();
        recs.push({
            let mut r = RunRecord {
                ts: 9,
                bin: "sweep".into(),
                label: "sweep".into(),
                config: "scale=1".into(),
                workload: "suite".into(),
                duration_ms: Some(120.0),
                ..RunRecord::default()
            };
            r.metrics.insert("cells_done".into(), 8.0);
            r
        });
        let out = render_trend(&recs);
        assert!(out.contains("bench:replay_throughput"), "{out}");
        assert!(out.contains("BENCH_3"), "{out}");
        assert!(out.contains("sweep · suite"), "{out}");
        assert!(out.contains("replay/execute"), "{out}");
        assert!(out.contains("2.00x"), "{out}");
        assert!(render_trend(&[]).contains("no runs"));
    }
}
