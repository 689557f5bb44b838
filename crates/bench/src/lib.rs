//! Shared machinery for the paper's table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md's experiment index); this
//! module provides the suite sweep they share, plus the tracing/manifest
//! glue ([`init`], [`emit_manifest`]) and a dependency-free micro-benchmark
//! harness ([`micro`]) for the `benches/` targets.
//!
//! The `sweep` binary's two matrices — [`sweep::sweep_cells`] (own
//! profile × the four Figure 8/10 configurations) and
//! [`cross::cross_cells`] (same/foreign/merged profile under inf/link) —
//! are two cell lists over one private cell engine (`cells`): one suite
//! build, one result-cache probe, one profiling pass and one claim table
//! per call.
//!
//! Environment knobs:
//!
//! * `VP_SCALE` — workload scale multiplier (default 1);
//! * `VP_THREADS` — sweep parallelism (default: available cores, capped at
//!   the suite size);
//! * `VP_TRACE` — `summary`, `json`, or `json:<path>` (see `vp-trace`);
//!   every binary also accepts `--json` as a shorthand for `VP_TRACE=json`;
//! * `VP_TRACE_CACHE_MB` — byte budget of the retired-trace capture cache
//!   (default 512) that lets repeated profiles of one workload replay a
//!   recorded stream instead of re-executing (see
//!   `vp_exec::TraceStore`); the `trace_store.*` counters in each run
//!   manifest report captures/replays/hits/evictions;
//! * `VP_TRACE_DIR` / `VP_TRACE_DISK_MB` — on-disk persistence tier of the
//!   trace cache (see `vp_exec::DiskTier`): captures survive across
//!   processes, so warmed reruns and sharded sweeps skip live execution;
//! * `VP_SHARD` — `i/n` cell partition for the `sweep` binary (see
//!   [`sweep::ShardSpec`]); shard manifests are joined by `sweep merge`;
//! * `VP_MERGE_WEIGHT` — `retired` (default) or `uniform` weighting of
//!   per-run counts when merging profiles (see
//!   `vp_hsd::merge::Weighting`).

mod cache;
mod cells;
pub mod cross;
pub mod dashboard;
pub mod history;
pub mod manifest_diff;
pub mod micro;
pub mod steal;
pub mod sweep;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use vacuum_packing::exec::{CapturedTrace, RunConfig, TraceKey};
use vacuum_packing::hsd::{HsdConfig, Phase};
use vacuum_packing::metrics::{profile, BranchCounts, ClaimTable, ProfiledWorkload, TextTable};
use vacuum_packing::program::Layout;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::{suite, Workload};
use vp_trace::{Manifest, Value};

/// Workload scale from `VP_SCALE` (default 1).
pub fn scale() -> u32 {
    std::env::var("VP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Sweep parallelism from `VP_THREADS` (default: available cores); also
/// the worker count of the work-stealing sweep scheduler (see [`steal`])
/// unless a binary's `--jobs N` flag overrides it.
pub fn threads() -> usize {
    std::env::var("VP_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .max(1)
}

/// `--jobs N` override installed by a binary's argument parser; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs the `--jobs N` CLI override consulted by [`jobs`].
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Worker count of the in-process work-stealing sweep scheduler.
///
/// Precedence: the `--jobs N` CLI flag (via [`set_jobs`]), then
/// [`threads`] (i.e. `VP_THREADS` or the machine's core count).
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => threads(),
        cli => cli,
    }
}

/// Scheduler telemetry accumulated across every [`parallel_sweep`] of this
/// process (a sweep binary runs several: profiling, then evaluation).
#[derive(Debug, Clone, Default)]
struct SchedTotals {
    runs: u64,
    jobs: usize,
    tasks: u64,
    steals: u64,
    wall_ms: f64,
    /// Summed per-worker busy/executed/stolen, indexed by worker id.
    workers: Vec<steal::WorkerStats>,
}

static SCHED_TOTALS: Mutex<Option<SchedTotals>> = Mutex::new(None);

fn record_sched(stats: &steal::SchedStats) {
    let Ok(mut guard) = SCHED_TOTALS.lock() else {
        return;
    };
    let t = guard.get_or_insert_with(SchedTotals::default);
    t.runs += 1;
    t.jobs = t.jobs.max(stats.jobs);
    t.tasks += stats.tasks as u64;
    t.steals += stats.steals;
    t.wall_ms += stats.wall_ms;
    if t.workers.len() < stats.workers.len() {
        t.workers.resize(stats.workers.len(), Default::default());
    }
    for (acc, w) in t.workers.iter_mut().zip(&stats.workers) {
        acc.executed += w.executed;
        acc.stolen += w.stolen;
        acc.busy_ms += w.busy_ms;
    }
}

/// The process's aggregated scheduler telemetry as a manifest value:
/// `{jobs, runs, tasks, steals, workers: [{executed, stolen, busy_ms,
/// utilization}]}`, where a worker's utilization is its busy time over the
/// summed scheduler wall time. `None` before the first parallel sweep.
pub fn sched_manifest_value() -> Option<vp_trace::Json> {
    use vp_trace::Json;
    let totals = SCHED_TOTALS.lock().ok()?.clone()?;
    let workers: Vec<Json> = totals
        .workers
        .iter()
        .map(|w| {
            let util = if totals.wall_ms > 0.0 {
                (w.busy_ms / totals.wall_ms).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Json::Obj(vec![
                ("executed".to_string(), w.executed.into()),
                ("stolen".to_string(), w.stolen.into()),
                ("busy_ms".to_string(), Json::F64(round3(w.busy_ms))),
                ("utilization".to_string(), Json::F64(round3(util))),
            ])
        })
        .collect();
    Some(Json::Obj(vec![
        ("jobs".to_string(), (totals.jobs as u64).into()),
        ("runs".to_string(), totals.runs.into()),
        ("tasks".to_string(), totals.tasks.into()),
        ("steals".to_string(), totals.steals.into()),
        ("wall_ms".to_string(), Json::F64(round3(totals.wall_ms))),
        ("workers".to_string(), Json::Arr(workers)),
    ]))
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Initializes tracing for a table/figure binary and starts its run
/// manifest: honours `VP_TRACE`, treats a `--json` CLI flag as
/// `VP_TRACE=json`, and pre-populates the manifest with the run
/// configuration (`scale`, `threads`).
pub fn init(bin: &str) -> Manifest {
    if std::env::args().skip(1).any(|a| a == "--json") && !vp_trace::installed() {
        vp_trace::init_from_spec("json");
    } else {
        vp_trace::init_from_env();
    }
    let mut mf = Manifest::new(bin);
    mf.set("scale", Value::from(scale() as u64).to_json());
    mf.set("threads", Value::from(threads() as u64).to_json());
    mf.set("jobs", Value::from(jobs() as u64).to_json());
    let cache = vacuum_packing::exec::TraceStore::global().capacity_bytes() / (1024 * 1024);
    mf.set("trace_cache_mb", Value::from(cache as u64).to_json());
    mf
}

/// CLI arguments after the binary name, with the flags [`init`] consumes
/// (`--json`) removed — use in binaries that parse their own arguments.
pub fn cli_args() -> Vec<String> {
    std::env::args().skip(1).filter(|a| a != "--json").collect()
}

/// Attaches a rendered [`TextTable`] to a manifest under `name`.
pub fn add_table(mf: &mut Manifest, name: &str, t: &TextTable) {
    mf.table(name, t.headers(), t.rows());
}

/// Stamps span/counter totals plus the work-stealing scheduler's
/// process-wide telemetry (`sweep` object: jobs, steals, per-worker
/// utilization) into the manifest, emits it to the installed sink, and
/// flushes. Call once at the end of a binary's `main`.
///
/// When `VP_HISTORY_DIR` is set the stamped manifest is also ingested
/// into the run-history warehouse ([`history`]) — with or without a
/// trace sink installed, so `VP_HISTORY_DIR` alone is enough to start
/// accumulating cross-run telemetry. Warehouse failures warn on stderr
/// and never affect the run.
pub fn emit_manifest(mut mf: Manifest) {
    let history_dir = history::dir_from_env();
    if vp_trace::installed() || history_dir.is_some() {
        if let Some(sched) = sched_manifest_value() {
            mf.set("sweep", sched);
        }
        mf.stamp();
    }
    if vp_trace::installed() {
        mf.emit();
    }
    if history_dir.is_some() {
        history::ingest_at_exit(&mf.render());
    }
    vp_trace::finish();
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs labeled `jobs` on [`jobs()`](jobs) workers of the work-stealing
/// scheduler ([`steal::run_stealing`]), preserving input order. Worker
/// panics are caught per job, so one failure neither starves the queues
/// nor takes down the other workers; a failed job's `Err` string carries
/// both the originating job's label and the panic payload, so a crash
/// deep inside a sweep names its cell. Scheduler telemetry (steals,
/// per-worker utilization) accumulates process-wide and is stamped into
/// the run manifest by [`emit_manifest`].
pub(crate) fn parallel_sweep<J, T>(
    labeled: Vec<(String, J)>,
    f: impl Fn(&J) -> T + Sync,
) -> Vec<(String, Result<T, String>)>
where
    J: Send + Sync,
    T: Send,
{
    let n = labeled.len();
    let (labels, inputs): (Vec<String>, Vec<J>) = labeled.into_iter().unzip();
    let (outs, stats) = steal::run_stealing(jobs(), n, |t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&inputs[t])))
            .map_err(|p| format!("{}: {}", labels[t], panic_message(p.as_ref())))
    });
    record_sched(&stats);
    let outs = outs
        .into_iter()
        .zip(&labels)
        .map(|(o, l)| o.unwrap_or_else(|| Err(format!("{l}: job was never run"))));
    labels.iter().cloned().zip(outs).collect()
}

/// Per-job observability captured by [`parallel_sweep_scoped`]: wall time
/// plus the job's own vp-trace scope report (counters, spans, flight
/// events recorded on the worker thread while the job ran — and nothing
/// from any other job).
#[derive(Debug, Clone)]
pub(crate) struct JobTelemetry {
    /// Wall-clock job duration in milliseconds.
    pub wall_ms: f64,
    /// The job's isolated trace scope.
    pub report: vp_trace::TraceReport,
}

/// A labeled job outcome paired with the job's [`JobTelemetry`].
pub(crate) type ScopedSweepResults<T> = Vec<(String, Result<(T, JobTelemetry), String>)>;

/// Trace-store hit ratio from a job's counter deltas: hits (memory +
/// disk) over hits + live captures. `None` when the job never touched
/// the store.
pub(crate) fn store_hit_ratio(report: &vp_trace::TraceReport) -> Option<f64> {
    let hits = report.counter("trace_store.hits") + report.counter("trace_store.disk_hits");
    let total = hits + report.counter("trace_store.captures");
    (total > 0).then(|| hits as f64 / total as f64)
}

/// Like [`parallel_sweep`], with per-job observability:
///
/// * each job runs inside its own [`vp_trace::scoped`] region, so span and
///   counter aggregates are attributed to the cell that produced them
///   instead of leaking across concurrently-running cells;
/// * each job's outermost span (`bench.cell`) adopts the *dispatching*
///   thread's span context, keeping worker work attached to the caller's
///   span tree;
/// * start/finish progress lines go to stderr with wall time and
///   trace-store hit ratio, so long sharded sweeps are not silent.
pub(crate) fn parallel_sweep_scoped<J, T>(
    what: &'static str,
    jobs: Vec<(String, J)>,
    f: impl Fn(&J) -> T + Sync,
) -> ScopedSweepResults<T>
where
    J: Send + Sync,
    T: Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ctx = vp_trace::current_span_context();
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    let jobs: Vec<(String, (String, J))> = jobs
        .into_iter()
        .map(|(label, j)| (label.clone(), (label, j)))
        .collect();
    parallel_sweep(jobs, |(label, j)| {
        eprintln!("{what}: {label} ...");
        let start = std::time::Instant::now();
        let (out, report) = vp_trace::scoped(|| {
            let _cell = vp_trace::span_in(&ctx, "bench.cell");
            f(j)
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        let ratio = store_hit_ratio(&report)
            .map_or_else(|| "-".to_string(), |r| format!("{:.0}%", r * 100.0));
        eprintln!(
            "{what}: {label} done in {wall_ms:.1} ms (store hits {ratio}) [{finished}/{total}]"
        );
        (out, JobTelemetry { wall_ms, report })
    })
}

/// Unwraps a sweep's outcomes, reporting *every* failing label before
/// panicking once with a clean summary.
fn collect_or_report<T>(what: &str, labeled: Vec<(String, Result<T, String>)>) -> Vec<T> {
    let total = labeled.len();
    let mut ok = Vec::with_capacity(total);
    let mut failed: Vec<String> = Vec::new();
    for (label, res) in labeled {
        match res {
            Ok(v) => ok.push(v),
            Err(e) => {
                eprintln!("{what}: {e}");
                failed.push(label);
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{what}: {}/{} jobs failed: {}",
        failed.len(),
        total,
        failed.join(", ")
    );
    ok
}

/// Profiles the whole Table 1 suite in parallel, preserving suite order.
/// Timing (the original binary's cycles) is collected when `machine` is
/// given — required by the Figure 10 speedup binary.
///
/// # Panics
///
/// Panics after the sweep completes if any workload failed, listing every
/// failing label (a single bad workload no longer masks the others behind
/// a poisoned-mutex double panic).
pub fn profile_suite(machine: Option<&MachineConfig>) -> Vec<ProfiledWorkload> {
    profile_workloads(suite(scale()), machine)
}

/// Profiles an explicit workload list in parallel, preserving input order —
/// [`profile_suite`] over the full suite, the shard sweep over the subset
/// of workloads its cells actually need.
///
/// Every profile goes through a process-wide memo keyed on the original's
/// `TraceKey`, the detector configuration and the machine, so a workload
/// this process has already profiled is not replayed again; a timed entry
/// also answers an untimed request. An entry holds its capture weakly, so
/// the memo never keeps a capture alive past the trace store's budget:
/// once the store has dropped it, the entry is a miss.
///
/// # Panics
///
/// Panics after the sweep completes if any workload failed, listing every
/// failing label.
pub fn profile_workloads(
    workloads: Vec<Workload>,
    machine: Option<&MachineConfig>,
) -> Vec<ProfiledWorkload> {
    profile_each(workloads.into_iter().map(|w| (w, machine)).collect())
}

/// [`profile_workloads`] with a timing choice per workload: each is timed
/// on its own machine (untimed for `None`).
///
/// # Panics
///
/// Panics after the sweep completes if any workload failed, listing every
/// failing label.
pub(crate) fn profile_each(
    workloads: Vec<(Workload, Option<&MachineConfig>)>,
) -> Vec<ProfiledWorkload> {
    let _s = vp_trace::span("bench.profile_suite");
    let jobs: Vec<(String, (Workload, Option<&MachineConfig>))> = workloads
        .into_iter()
        .map(|(w, m)| (w.label(), (w, m)))
        .collect();
    let results = parallel_sweep(jobs, |(w, machine)| profile_memoized(w, *machine));
    collect_or_report("profile_suite", results)
}

/// A memoized profile: a [`ProfiledWorkload`]'s results without its
/// program, plus a weak handle on its capture.
struct Memo {
    key: TraceKey,
    hsd: HsdConfig,
    machine: Option<MachineConfig>,
    trace: Weak<CapturedTrace>,
    phases: Vec<Phase>,
    branch_counts: BranchCounts,
    dyn_insts: u64,
    base_cycles: Option<u64>,
    raw_detections: usize,
}

static PROFILES: Mutex<Vec<Memo>> = Mutex::new(Vec::new());

/// Profiles answered from the memo of [`profile_each`].
static PROFILE_REUSED: vp_trace::Counter = vp_trace::Counter::new("bench.profile.reused");

/// `w` profiled with the Table 2 detector (timed on `machine` when
/// given): from the memo when a live entry answers, else profiled and
/// memoized. Either way the result equals a fresh [`profile`].
fn profile_memoized(w: &Workload, machine: Option<&MachineConfig>) -> ProfiledWorkload {
    let hsd = HsdConfig::table2();
    let label = w.label();
    let layout = Layout::natural(&w.program);
    let key = TraceKey::new(&label, &w.program, &layout, &RunConfig::default());
    let answers =
        |m: &Memo| m.key == key && m.hsd == hsd && machine.is_none_or(|mc| m.machine == Some(*mc));
    let hit = {
        let mut memo = PROFILES.lock().expect("profile memo");
        memo.retain(|m| m.trace.strong_count() > 0);
        memo.iter().find(|m| answers(m)).and_then(|m| {
            Some(ProfiledWorkload {
                label: label.clone(),
                program: w.program.clone(),
                layout,
                phases: m.phases.clone(),
                branch_counts: m.branch_counts.clone(),
                dyn_insts: m.dyn_insts,
                base_cycles: machine.and(m.base_cycles),
                raw_detections: m.raw_detections,
                trace: m.trace.upgrade()?,
            })
        })
    };
    if let Some(pw) = hit {
        PROFILE_REUSED.incr();
        return pw;
    }
    let pw = profile(&label, w.program.clone(), &hsd, machine).unwrap_or_else(|e| panic!("{e}"));
    let mut memo = PROFILES.lock().expect("profile memo");
    // The new entry answers everything an entry of the same key it
    // replaces did: that entry was untimed or timed on the same machine.
    memo.retain(|m| {
        !(m.key == key && m.hsd == hsd && (m.machine.is_none() || m.machine == machine.copied()))
    });
    memo.push(Memo {
        key,
        hsd,
        machine: machine.copied(),
        trace: Arc::downgrade(&pw.trace),
        phases: pw.phases.clone(),
        branch_counts: pw.branch_counts.clone(),
        dyn_insts: pw.dyn_insts,
        base_cycles: pw.base_cycles,
        raw_detections: pw.raw_detections,
    });
    pw
}

/// The paper's four-bar configuration labels, in Figure 8/10 order.
pub const CONFIG_LABELS: [&str; 4] = ["noInf/noLink", "noInf/link", "inf/noLink", "inf/link"];

/// Evaluates every (workload, configuration) cell in parallel; the result
/// is indexed `[workload][config]`. Cells that build the same packed
/// binary — in this call or an earlier sweep of the process — share one
/// measurement through the process-wide [`ClaimTable`].
///
/// # Panics
///
/// Panics after the sweep completes if any cell failed, listing every
/// failing (workload, config) pair.
pub fn evaluate_matrix(
    profiled: &[ProfiledWorkload],
    configs: &[vacuum_packing::core::PackConfig],
    machine: Option<&MachineConfig>,
) -> Vec<Vec<vacuum_packing::metrics::ConfigOutcome>> {
    use vacuum_packing::opt::OptConfig;

    let _s = vp_trace::span("bench.evaluate_matrix");
    let cells: Vec<(String, (usize, usize))> = (0..profiled.len())
        .flat_map(|w| (0..configs.len()).map(move |c| (w, c)))
        .map(|(w, c)| (format!("{} [config {c}]", profiled[w].label), (w, c)))
        .collect();
    let table = ClaimTable::shared(&OptConfig::default(), machine);
    let results = parallel_sweep(cells, |&(w, c)| {
        table
            .evaluate(&profiled[w], &configs[c])
            .unwrap_or_else(|e| panic!("{e}"))
    });
    let results = settle(results, |ev| table.resolve(ev));
    let flat = collect_or_report("evaluate_matrix", results);
    flat.chunks(configs.len()).map(|c| c.to_vec()).collect()
}

/// Maps every successful job of a finished sweep through `f` — how twin
/// cells get their outcome from a [`ClaimTable`] after the join. An `f`
/// error fails that job under its label, like a panic inside it would.
fn settle<T, U>(
    labeled: Vec<(String, Result<T, String>)>,
    mut f: impl FnMut(T) -> Result<U, String>,
) -> Vec<(String, Result<U, String>)> {
    labeled
        .into_iter()
        .map(|(label, r)| {
            let r = r.and_then(|v| f(v).map_err(|e| format!("{label}: {e}")));
            (label, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        assert!(scale() >= 1);
        assert!(threads() >= 1);
    }

    fn labeled(range: std::ops::Range<i32>) -> Vec<(String, i32)> {
        range.map(|i| (format!("job{i}"), i)).collect()
    }

    #[test]
    fn sweep_preserves_order() {
        let out = parallel_sweep(labeled(0..32), |&i| i * 2);
        let vals: Vec<i32> = out.into_iter().map(|(_, r)| r.unwrap()).collect();
        assert_eq!(vals, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_reports_individual_failures_with_labels() {
        let out = parallel_sweep(labeled(0..8), |&i: &i32| {
            assert!(i != 3 && i != 6, "job {i} exploded");
            i
        });
        let mut failed: Vec<usize> = Vec::new();
        for (i, (label, r)) in out.iter().enumerate() {
            assert_eq!(label, &format!("job{i}"), "labels stay in input order");
            match r {
                Ok(v) => assert_eq!(*v, i as i32),
                Err(e) => {
                    assert!(e.contains("exploded"), "lost the panic message: {e}");
                    assert!(
                        e.starts_with(&format!("job{i}: ")),
                        "Err must name the originating cell: {e}"
                    );
                    failed.push(i);
                }
            }
        }
        assert_eq!(failed, vec![3, 6], "exactly the panicking jobs fail");
    }

    #[test]
    fn scoped_sweep_isolates_cell_telemetry() {
        static ISO_A: vp_trace::Counter = vp_trace::Counter::new("test.bench.iso_a");
        static ISO_B: vp_trace::Counter = vp_trace::Counter::new("test.bench.iso_b");
        let results = parallel_sweep_scoped(
            "test-sweep",
            vec![("cell-a".to_string(), 0usize), ("cell-b".to_string(), 1)],
            |&which| {
                if which == 0 {
                    ISO_A.add(3);
                } else {
                    ISO_B.add(5);
                }
            },
        );
        let by_label: std::collections::BTreeMap<String, JobTelemetry> = results
            .into_iter()
            .map(|(l, r)| (l, r.expect("job succeeds").1))
            .collect();
        let a = &by_label["cell-a"];
        let b = &by_label["cell-b"];
        assert_eq!(a.report.counter("test.bench.iso_a"), 3);
        assert_eq!(
            a.report.counter("test.bench.iso_b"),
            0,
            "cell A's report must not contain cell B's counters"
        );
        assert_eq!(b.report.counter("test.bench.iso_b"), 5);
        assert_eq!(b.report.counter("test.bench.iso_a"), 0);
        assert!(a.wall_ms >= 0.0);
        assert!(
            a.report.has_span("bench.cell") && b.report.has_span("bench.cell"),
            "every cell times itself under a bench.cell span"
        );
    }

    #[test]
    fn scoped_sweep_isolates_spans_across_cells() {
        let results = parallel_sweep_scoped(
            "test-sweep",
            vec![("span-a".to_string(), 0usize), ("span-b".to_string(), 1)],
            |&which| {
                let _s = vp_trace::span(if which == 0 {
                    "test.bench.stage_a"
                } else {
                    "test.bench.stage_b"
                });
            },
        );
        for (label, r) in results {
            let t = r.expect("job succeeds").1;
            let (own, other) = if label == "span-a" {
                ("test.bench.stage_a", "test.bench.stage_b")
            } else {
                ("test.bench.stage_b", "test.bench.stage_a")
            };
            assert!(t.report.has_span(own), "{label} has its own span");
            assert!(
                !t.report.has_span(other),
                "{label} must not be attributed the other cell's span"
            );
        }
    }

    #[test]
    fn profile_memo_never_keeps_a_capture_alive() {
        let w = suite(1)
            .into_iter()
            .find(|w| w.label() == "130.li B")
            .expect("suite workload");
        let first = profile_memoized(&w, None);
        let (second, report) = vp_trace::scoped(|| profile_memoized(&w, None));
        assert!(
            !report.has_span("metrics.profile.run"),
            "a live entry answers"
        );
        assert_eq!(second.phases, first.phases);
        assert!(Arc::ptr_eq(&first.trace, &second.trace));

        // Once the store and every profile have let go of the capture,
        // the entry is a miss.
        let capture = Arc::downgrade(&first.trace);
        drop((first, second));
        vacuum_packing::exec::TraceStore::global().clear();
        assert_eq!(capture.strong_count(), 0, "the memo holds it weakly");
        let (_, report) = vp_trace::scoped(|| profile_memoized(&w, None));
        assert!(report.has_span("metrics.profile.run"));
    }

    #[test]
    #[should_panic(expected = "profile_suite")]
    fn collect_or_report_names_failures() {
        collect_or_report::<u32>(
            "profile_suite",
            vec![
                ("a".to_string(), Ok(1)),
                ("b".to_string(), Err("boom".to_string())),
            ],
        );
    }
}
