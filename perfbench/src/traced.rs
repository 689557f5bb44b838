//! The traced run: the strict matrix evaluated layer by layer.
//!
//! Instead of `vp_metrics::profile`/`evaluate`, this run calls each
//! layer's public function itself, in harness order, and times every call
//! from outside:
//!
//! | layer          | calls                                                     |
//! |----------------|-----------------------------------------------------------|
//! | `workloads`    | `suite`                                                   |
//! | `exec`         | `CapturedTrace::capture`/`capture_with`, `DiskTier::store`/`load` |
//! | `hsd`          | `CapturedTrace::replay` into `HotSpotDetector` + `BranchCounts`, `filter_hot_spots`, `MergedProfile::resolve` |
//! | `sim`          | `TimingModel::replay_trace`                               |
//! | `core` / `opt` | `pack`, `optimize_packages`                               |
//! | `diff`         | `diff_traces` (with its peak heap)                        |
//! | `result_cache` | `ResultCache::store`/`load`                               |
//!
//! The run is always cold: every trace is captured once (a repeated key —
//! a cross cell that shares a sweep cell's packed binary — replays the
//! first capture, as the harness's memory tier would), persisted to a
//! temporary disk tier and loaded back, so both the write and the read
//! path are timed on every run. Cells run on `jobs` threads, sweep then
//! cross, like `bench::sweep::sweep_cells` and `bench::cross::cross_cells`.
//!
//! After the timed matrix, every cell is evaluated once more through
//! `vp_metrics::evaluate_with_diff` (strict) on the run's own profile
//! and packed capture; any field that differs is reported as an
//! equivalence mismatch.

use crate::{alloc, rows_json, secs, Matrix};
use bench::cross::{cross_row, families, CrossCell, Kind, MERGED};
use bench::CONFIG_LABELS;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vacuum_packing::core::{pack, PackConfig};
use vacuum_packing::exec::{
    diff_traces, CapturedTrace, DiffMode, DiffOptions, DiskTier, InstCounts, RunConfig, TraceKey,
    TraceStore, DEFAULT_DISK_MB,
};
use vacuum_packing::hsd::{
    filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig, MergeConfig, MergedProfile,
};
use vacuum_packing::isa::Fnv;
use vacuum_packing::metrics::{
    evaluate_with_diff, pct, BranchCounts, ConfigOutcome, ProfiledWorkload, ResultCache, ResultKey,
    DEFAULT_RESULT_MB,
};
use vacuum_packing::opt::{optimize_packages, OptConfig};
use vacuum_packing::program::{Layout, Program};
use vacuum_packing::sim::{MachineConfig, TimingModel};
use vacuum_packing::workloads::{suite, Workload};
use vp_trace::Json;

/// Named layer totals: times in ms, counts, and byte peaks.
#[derive(Default)]
struct Tally(BTreeMap<&'static str, f64>);

/// The one tally entry combined by maximum instead of sum.
const PEAK_KEY: &str = "diff.peak_alloc_bytes";

impl Tally {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    fn peak(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_default();
        *e = e.max(v);
    }

    /// Runs `f`, adding its wall time in ms under `key`.
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(key, secs(t0) * 1e3);
        out
    }

    fn absorb(&mut self, other: Tally) {
        for (k, v) in other.0 {
            if k == PEAK_KEY {
                self.peak(k, v);
            } else {
                self.add(k, v);
            }
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// Maps `f` over `items` on `jobs` scoped threads, preserving order.
fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every item ran")
        })
        .collect()
}

/// Captured traces by key: each key is captured, stored and loaded once.
struct Traces {
    disk: DiskTier,
    memo: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<CapturedTrace>>>>>,
}

impl Traces {
    /// The trace for `key`: captured (feeding `counts` live, if given),
    /// persisted and read back on first request; replayed into `counts`
    /// on a repeated one.
    fn acquire(
        &self,
        key: &TraceKey,
        program: &Program,
        layout: &Layout,
        mut counts: Option<&mut InstCounts>,
        t: &mut Tally,
    ) -> Arc<CapturedTrace> {
        let packed = counts.is_some();
        let slot = Arc::clone(
            self.memo
                .lock()
                .expect("trace memo lock")
                .entry(key.clone())
                .or_default(),
        );
        let mut fresh = false;
        let trace = slot.get_or_init(|| {
            fresh = true;
            let cfg = RunConfig::default();
            let capture_key = if packed {
                "exec.capture_packed_ms"
            } else {
                "exec.capture_orig_ms"
            };
            let captured = t
                .time(capture_key, || match counts.as_deref_mut() {
                    Some(c) => CapturedTrace::capture_with(program, layout, &cfg, c),
                    None => CapturedTrace::capture(program, layout, &cfg),
                })
                .expect("drawn workloads run without executor errors");
            t.add("exec.captured_events", captured.events() as f64);
            let store_key = if packed {
                "exec.disk_store_packed_ms"
            } else {
                "exec.disk_store_orig_ms"
            };
            t.time(store_key, || self.disk.store(key, &captured))
                .expect("the traced run's trace dir is writable");
            let bytes = std::fs::metadata(self.disk.path_for(key)).map_or(0, |m| m.len());
            t.add("exec.trace_bytes", bytes as f64);
            let loaded = t
                .time("exec.disk_load_ms", || self.disk.load(key))
                .expect("a stored trace loads back");
            Arc::new(loaded)
        });
        let trace = Arc::clone(trace);
        if let (false, Some(c)) = (fresh, counts) {
            t.time("exec.hit_replay_ms", || trace.replay(c));
        }
        trace
    }
}

/// `vp_metrics::profile`, one layer call at a time.
fn profile(w: &Workload, m: &MachineConfig, traces: &Traces, t: &mut Tally) -> ProfiledWorkload {
    let label = w.label();
    let program = w.program.clone();
    let layout = Layout::natural(&program);
    let key = TraceKey::new(&label, &program, &layout, &RunConfig::default());
    let trace = traces.acquire(&key, &program, &layout, None, t);

    let mut hsd = HotSpotDetector::new(HsdConfig::table2());
    let mut counts = BranchCounts::new();
    let stats = t.time("hsd.replay_ms", || {
        trace.replay(&mut (&mut hsd, &mut counts))
    });
    let base_cycles = t.time("sim.base_ms", || {
        let mut timing = TimingModel::new(*m);
        timing.replay_trace(&trace);
        timing.cycles()
    });
    t.add("sim.events", trace.events() as f64);
    t.add("sim.cycles", base_cycles as f64);
    let raw_detections = hsd.records().len();
    let phases = t.time("hsd.filter_ms", || {
        filter_hot_spots(hsd.records(), &FilterConfig::default())
    });
    t.add("hsd.detections", raw_detections as f64);
    t.add("hsd.phases", phases.len() as f64);
    ProfiledWorkload {
        label,
        program,
        layout,
        phases,
        branch_counts: counts,
        dyn_insts: stats.retired,
        base_cycles: Some(base_cycles),
        raw_detections,
        trace,
    }
}

/// An owned copy of `pw` under its own profile and label — what the
/// harness evaluates by reference for a same-input cell.
fn own(pw: &ProfiledWorkload) -> ProfiledWorkload {
    ProfiledWorkload {
        label: pw.label.clone(),
        ..pw.with_phases(pw.phases.clone(), "own")
    }
}

/// Splits per-task `(tally, output)` pairs, folding the tallies into
/// `total`.
fn absorb<O>(total: &mut Tally, parts: Vec<(Tally, O)>) -> Vec<O> {
    parts
        .into_iter()
        .map(|(t, o)| {
            total.absorb(t);
            o
        })
        .collect()
}

/// One evaluated cell, kept for the equivalence check.
struct Cell {
    pw: ProfiledWorkload,
    cfg: PackConfig,
    key: TraceKey,
    packed: Arc<CapturedTrace>,
    outcome: ConfigOutcome,
}

/// `vp_metrics::evaluate_with_diff`, one layer call at a time, plus a
/// result-cache store and load of the outcome.
fn evaluate(
    pw: ProfiledWorkload,
    cfg: PackConfig,
    m: &MachineConfig,
    traces: &Traces,
    rc: &ResultCache,
    rkey: &ResultKey,
    t: &mut Tally,
) -> Result<Cell, String> {
    let out = t.time("core.pack_ms", || {
        pack(&pw.program, &pw.layout, &pw.phases, &cfg)
    });
    t.add("core.packages", out.packages.len() as f64);
    t.add("core.launch_points", out.launch_points as f64);
    let (prog, order) = t.time("opt.optimize_ms", || {
        optimize_packages(&out, m, &OptConfig::default())
    });
    let layout = Layout::new(&prog, &order);
    let run_cfg = RunConfig::default();
    let key = TraceKey::packed(&pw.label, &prog, &layout, &run_cfg, out.fingerprint());
    let mut counts = InstCounts::new();
    let packed = traces.acquire(&key, &prog, &layout, Some(&mut counts), t);

    let opt_cycles = t.time("sim.packed_ms", || {
        let mut timing = TimingModel::new(*m);
        timing.replay_trace(&packed);
        timing.cycles()
    });
    t.add("sim.events", packed.events() as f64);
    t.add("sim.cycles", opt_cycles as f64);

    let (report, peak) = t.time("diff.ms", || {
        alloc::peak_during(|| {
            diff_traces(
                &pw.trace,
                &packed,
                &out.identity_map(),
                &DiffOptions::default(),
            )
        })
    });
    t.add(
        "diff.visits",
        (report.orig_visits + report.packed_visits) as f64,
    );
    t.peak(PEAK_KEY, peak as f64);

    let base = pw.base_cycles.expect("the traced profile is timed");
    let outcome = ConfigOutcome {
        coverage: counts.package_coverage(),
        expansion: out.expansion(),
        selected_fraction: out.selected_fraction(),
        replication: out.replication_factor(),
        packages: out.packages.len(),
        phases: pw.phases.len(),
        launch_points: out.launch_points,
        opt_cycles: Some(opt_cycles),
        speedup: Some(base as f64 / opt_cycles.max(1) as f64),
        diff: Some(report),
    };

    t.time("result_cache.store_ms", || rc.store(rkey, &outcome));
    let loaded = t.time("result_cache.load_ms", || rc.load(rkey));
    let round_trip = loaded
        .as_ref()
        .map_or_else(|| Err("not stored".to_string()), |l| same(l, &outcome));
    let cell = Cell {
        pw,
        cfg,
        key,
        packed,
        outcome,
    };
    round_trip
        .map(|()| cell)
        .map_err(|e| format!("result cache round trip: {e}"))
}

/// Compares the fields a cell's row and speedup derive from.
fn same(a: &ConfigOutcome, b: &ConfigOutcome) -> Result<(), String> {
    let verdict = |o: &ConfigOutcome| o.diff.as_ref().map(|d| d.verdict.to_string());
    let fields = [
        ("coverage", a.coverage == b.coverage),
        ("expansion", a.expansion == b.expansion),
        ("packages", a.packages == b.packages),
        ("cycles", a.opt_cycles == b.opt_cycles),
        ("speedup", a.speedup == b.speedup),
        ("diff verdict", verdict(a) == verdict(b)),
    ];
    let bad: Vec<&str> = fields.iter().filter(|f| !f.1).map(|f| f.0).collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{} differ", bad.join(", ")))
    }
}

fn profile_fp(source: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_str(source);
    h.finish()
}

fn result_key(cell: String, pw: &ProfiledWorkload, source: &str, cfg: &PackConfig) -> ResultKey {
    let key = TraceKey::new(&pw.label, &pw.program, &pw.layout, &RunConfig::default());
    ResultKey {
        cell,
        trace_fp: ResultKey::trace_fingerprint(&key),
        profile_fp: profile_fp(source),
        config_fp: cfg.fingerprint(),
    }
}

fn sweep_row(j: usize, label: &str, config: &str, o: &ConfigOutcome) -> Vec<String> {
    vec![
        j.to_string(),
        label.to_string(),
        config.to_string(),
        pct(o.coverage),
        format!("{:.3}", o.expansion),
        o.phases.to_string(),
        o.packages.to_string(),
        o.speedup
            .map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
        o.diff
            .as_ref()
            .map_or_else(|| "-".to_string(), |d| d.verdict.to_string()),
    ]
}

/// `(user + sys CPU seconds, peak RSS in MiB)` of this process so far.
fn self_usage() -> (f64, f64) {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `Rusage` mirrors its layout on 64-bit Linux (two timevals, then
    // fourteen longs) and `ru` is a live, writable instance of it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) with a valid buffer");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (tv(&ru.utime) + tv(&ru.stime), ru.maxrss_kb as f64 / 1024.0)
}

/// Runs the traced matrix and returns its JSON report.
pub fn run(matrix: &Matrix, jobs: usize, dir: &Path) -> Json {
    let machine = MachineConfig::table2();
    let traces = Traces {
        disk: DiskTier::new(dir.join("traces"), DEFAULT_DISK_MB * 1024 * 1024)
            .expect("the traced run's dir is creatable"),
        memo: Mutex::new(HashMap::new()),
    };
    let rc = ResultCache::new(dir.join("results"), DEFAULT_RESULT_MB * 1024 * 1024)
        .expect("the traced run's dir is creatable");
    let mut total = Tally::default();
    let t0 = Instant::now();

    let all = total.time("workloads.build_ms", || suite(1));
    // Sweep cells are numbered over the drawn workloads in suite order,
    // as `sweep_cells` numbers its filtered matrix.
    let sweep_wl: Vec<&Workload> = all
        .iter()
        .filter(|w| matrix.sweep.iter().any(|f| w.label().contains(f.as_str())))
        .collect();

    // Sweep: profile the drawn workloads, then every (workload, config).
    let profiled = par_map(jobs, &sweep_wl, |w| {
        let mut t = Tally::default();
        let pw = profile(w, &machine, &traces, &mut t);
        (t, pw)
    });
    let profiled: Vec<ProfiledWorkload> = absorb(&mut total, profiled);
    let configs = PackConfig::evaluation_matrix();
    let sweep_specs: Vec<(usize, usize)> = (0..profiled.len())
        .flat_map(|w| (0..configs.len()).map(move |c| (w, c)))
        .collect();
    let sweep_cells = par_map(jobs, &sweep_specs, |&(w, c)| {
        let mut t = Tally::default();
        let pw = &profiled[w];
        let j = w * configs.len() + c;
        let label = format!("{} [{}]", pw.label, CONFIG_LABELS[c]);
        let rkey = result_key(label, pw, "own", &configs[c]);
        let cell = evaluate(own(pw), configs[c], &machine, &traces, &rc, &rkey, &mut t);
        (t, (j, c, cell))
    });
    let sweep_cells = absorb(&mut total, sweep_cells);

    // Cross: profile every input of the drawn family, merge, then the
    // drawn input under each profile source.
    let family = matrix.family();
    let (_, inputs) = families(1)
        .into_iter()
        .find(|(b, _)| b == family)
        .unwrap_or_else(|| panic!("{family} is not a multi-input family"));
    let fam_profiled = par_map(jobs, &inputs, |w| {
        let mut t = Tally::default();
        let pw = profile(w, &machine, &traces, &mut t);
        (t, pw)
    });
    let fam_profiled: Vec<ProfiledWorkload> = absorb(&mut total, fam_profiled);
    let merged = total.time("hsd.merge_ms", || {
        MergedProfile::of(
            MergeConfig::from_env(),
            fam_profiled.iter().map(ProfiledWorkload::dump),
        )
        .resolve()
    });
    let eval = fam_profiled
        .iter()
        .find(|pw| pw.label == matrix.cross)
        .unwrap_or_else(|| panic!("{} is not an input of {family}", matrix.cross));
    let eval_input = matrix.cross.rsplit(' ').next().unwrap_or_default();
    let sources: Vec<String> = inputs
        .iter()
        .map(|w| w.input.to_string())
        .chain([MERGED.to_string()])
        .collect();
    let cross_cells = par_map(jobs, &sources, |source| {
        let mut t = Tally::default();
        let (kind, pw) = if source == MERGED {
            (Kind::Merged, eval.with_phases(merged.clone(), MERGED))
        } else if source == eval_input {
            (Kind::Same, own(eval))
        } else {
            let src = fam_profiled
                .iter()
                .find(|p| p.label == format!("{family} {source}"))
                .expect("family input profiled");
            (
                Kind::Foreign,
                eval.with_phases(src.phases.clone(), &src.label),
            )
        };
        let cfg = PackConfig::default();
        let rkey = result_key(
            format!("{family} {eval_input} <- {source}"),
            eval,
            source,
            &cfg,
        );
        let cell = evaluate(pw, cfg, &machine, &traces, &rc, &rkey, &mut t);
        (t, (kind, cell))
    });
    let cross_cells = absorb(&mut total, cross_cells);

    let matrix_s = secs(t0);
    let (cpu_s, peak_rss_mb) = self_usage();

    // Rows, in the shapes the sweep and cross reports use.
    let mut mismatches: Vec<Json> = Vec::new();
    let mut evaluated: Vec<(String, Cell)> = Vec::new();
    let mut sweep_rows = Vec::new();
    for (j, c, cell) in sweep_cells {
        let label = format!(
            "{} [{}]",
            sweep_wl[j / configs.len()].label(),
            CONFIG_LABELS[c]
        );
        match cell {
            Ok(cell) => {
                sweep_rows.push(sweep_row(
                    j,
                    &cell.pw.label,
                    CONFIG_LABELS[c],
                    &cell.outcome,
                ));
                evaluated.push((label, cell));
            }
            Err(e) => mismatches.push(format!("{label}: {e}").as_str().into()),
        }
    }
    let mut cross_rows = Vec::new();
    for (i, (source, (kind, cell))) in sources.iter().zip(cross_cells).enumerate() {
        let label = format!("{family} {eval_input} <- {source}");
        match cell {
            Ok(cell) => {
                cross_rows.push(cross_row(&CrossCell {
                    cell: i,
                    family: family.to_string(),
                    eval: eval_input.to_string(),
                    profile: source.clone(),
                    kind,
                    outcome: cell.outcome.clone(),
                }));
                evaluated.push((label, cell));
            }
            Err(e) => mismatches.push(format!("{label}: {e}").as_str().into()),
        }
    }

    // Equivalence: the harness's own evaluation of each traced cell,
    // replaying the traced packed capture through the global store.
    let verdicts = par_map(jobs, &evaluated, |(label, cell)| {
        TraceStore::global().insert(cell.key.clone(), Arc::clone(&cell.packed));
        let reference = catch_unwind(AssertUnwindSafe(|| {
            evaluate_with_diff(
                &cell.pw,
                &cell.cfg,
                &OptConfig::default(),
                Some(&machine),
                DiffMode::Strict,
            )
        }));
        match reference {
            Ok(Ok(r)) => same(&r, &cell.outcome).err(),
            Ok(Err(e)) => Some(format!("evaluate failed: {e}")),
            Err(_) => Some("evaluate panicked".to_string()),
        }
        .map(|e| format!("{label}: {e}"))
    });
    mismatches.extend(verdicts.into_iter().flatten().map(|e| e.as_str().into()));

    let ms = |k: &str| total.get(k);
    let capture_ms = ms("exec.capture_orig_ms") + ms("exec.capture_packed_ms");
    let captured_minst = ms("exec.captured_events") / 1e6;
    let sim_ms = ms("sim.base_ms") + ms("sim.packed_ms");
    let mut layers = Json::obj();
    for (name, v) in [
        ("workloads.build_ms", ms("workloads.build_ms")),
        ("exec.capture_ms", capture_ms),
        (
            "exec.capture_minst_per_s",
            captured_minst / (capture_ms / 1e3),
        ),
        ("exec.captured_minst", captured_minst),
        (
            "exec.disk_store_ms",
            ms("exec.disk_store_orig_ms") + ms("exec.disk_store_packed_ms"),
        ),
        ("exec.disk_load_ms", ms("exec.disk_load_ms")),
        ("exec.trace_mb", ms("exec.trace_bytes") / (1024.0 * 1024.0)),
        ("hsd.replay_ms", ms("hsd.replay_ms")),
        ("hsd.detections", ms("hsd.detections")),
        ("hsd.phases", ms("hsd.phases")),
        ("hsd.filter_ms", ms("hsd.filter_ms")),
        ("hsd.merge_ms", ms("hsd.merge_ms")),
        ("sim.base_ms", ms("sim.base_ms")),
        ("sim.packed_ms", ms("sim.packed_ms")),
        ("sim.minst_per_s", ms("sim.events") / 1e6 / (sim_ms / 1e3)),
        ("sim.cycles", ms("sim.cycles")),
        ("core.pack_ms", ms("core.pack_ms")),
        ("core.packages", ms("core.packages")),
        ("core.launch_points", ms("core.launch_points")),
        ("opt.optimize_ms", ms("opt.optimize_ms")),
        ("diff.ms", ms("diff.ms")),
        ("diff.visits", ms("diff.visits")),
        (
            "diff.mvisits_per_s",
            ms("diff.visits") / 1e6 / (ms("diff.ms") / 1e3),
        ),
        ("diff.peak_alloc_mb", ms(PEAK_KEY) / (1024.0 * 1024.0)),
        ("result_cache.load_ms", ms("result_cache.load_ms")),
        ("result_cache.store_ms", ms("result_cache.store_ms")),
    ] {
        layers.set(name, Json::F64(v));
    }
    // Harness-span equivalents, for the span-tree cross-check.
    let mut spans = Json::obj();
    for (name, v) in [
        (
            "metrics.profile.run",
            ms("exec.capture_orig_ms") + ms("exec.disk_store_orig_ms") + ms("hsd.replay_ms"),
        ),
        ("metrics.profile.base_timing", ms("sim.base_ms")),
        (
            "metrics.evaluate.measure",
            ms("exec.capture_packed_ms")
                + ms("exec.disk_store_packed_ms")
                + ms("exec.hit_replay_ms"),
        ),
        ("metrics.evaluate.opt_timing", ms("sim.packed_ms")),
        ("metrics.evaluate.diff", ms("diff.ms")),
    ] {
        spans.set(name, Json::F64(v));
    }

    let mut j = Json::obj();
    j.set("layers", layers);
    j.set("spans", spans);
    j.set("matrix_s", Json::F64(matrix_s));
    j.set("cpu_s", Json::F64(cpu_s));
    j.set("peak_rss_mb", Json::F64(peak_rss_mb));
    j.set("sweep_rows", rows_json(&sweep_rows));
    j.set("cross_rows", rows_json(&cross_rows));
    j.set("mismatches", Json::Arr(mismatches));
    j
}
