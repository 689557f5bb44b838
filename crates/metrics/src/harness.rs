//! End-to-end experiment driver.
//!
//! One profiled workload ([`profile`]) can be evaluated under many pipeline
//! configurations ([`evaluate`]) — exactly how the paper's Figures 8 and 10
//! sweep the {inference} × {linking} matrix over each benchmark/input.
//!
//! Collection is decoupled from consumption through the capture/replay
//! layer in `vp-exec`: [`profile`] obtains the original binary's retired
//! stream through the global [`TraceStore`] — one architectural execution
//! per `(workload, RunConfig)` key, process-wide — and every consumer
//! (the Hot Spot Detector, the branch-count oracle, baseline timing on
//! the Table 2 machine) runs off that shared capture. Re-profiling the
//! same workload under a different detector configuration, as the
//! ablation sweeps do, replays instead of re-executing; with
//! `VP_TRACE_DIR` set, captures persist to disk, so even a fresh process
//! (a re-run, a CI job, another shard of a multi-process sweep) profiles
//! at replay cost. Packed binaries go through the same store under a
//! [`TraceKey::packed`] key (the package-set fingerprint distinguishes
//! variants), their cycles are timed from replay, and every packed
//! capture is differentially replayed against the original one
//! (`vp_exec::diff`), strictly, to prove the rewrite did the same
//! architectural work. Sweeps evaluate their cells through a
//! process-wide [`ClaimTable`], which measures each distinct packed
//! binary once per process.
//!
//! Profiles are also *transferable*: [`ProfiledWorkload::dump`] exports a
//! run's phases into the merge algebra (`vp_hsd::merge`), and
//! [`ProfiledWorkload::with_phases`] evaluates a foreign or merged
//! profile against this workload's input — the
//! train-on-A/evaluate-on-B generalization cells of the cross-input
//! sweep (`bench`'s `sweep cross`).

use crate::branches::BranchCounts;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use vp_core::{pack, PackConfig, PackOutput};
use vp_exec::{
    CapturedTrace, DiffMode, DiffOptions, DiffReport, Differ, ExecError, IdentityMap, InstCounts,
    RunConfig, StopReason, TraceKey, TraceStore,
};
use vp_hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig, Phase};
use vp_opt::{optimize_packages, OptConfig};
use vp_program::{Layout, LayoutOrder, Program};
use vp_sim::{MachineConfig, TimingModel};

/// A workload after its profiling run: the inputs to region formation.
#[derive(Debug)]
pub struct ProfiledWorkload {
    /// Display label.
    pub label: String,
    /// The original program.
    pub program: Program,
    /// Natural layout of the original program (BBB addresses refer to it).
    pub layout: Layout,
    /// Unique phases after software filtering.
    pub phases: Vec<Phase>,
    /// Ground-truth per-branch dynamic counts.
    pub branch_counts: BranchCounts,
    /// Dynamic instructions of the run (Table 1's "# of Inst").
    pub dyn_insts: u64,
    /// Cycles of the original binary on the Table 2 machine, when timing
    /// was requested.
    pub base_cycles: Option<u64>,
    /// Raw (unfiltered) hot-spot detections.
    pub raw_detections: usize,
    /// The captured retired stream of the profiling run, shared with
    /// [`evaluate`] (baseline timing) and any later consumer.
    pub trace: Arc<CapturedTrace>,
}

impl ProfiledWorkload {
    /// Exports this profile as a merge-algebra dump
    /// ([`vp_hsd::merge`]): the filtered phases plus the run's
    /// retired-instruction count, ready to be absorbed into a
    /// [`MergedProfile`](vp_hsd::MergedProfile).
    pub fn dump(&self) -> vp_hsd::ProfileDump {
        vp_hsd::ProfileDump::new(&self.label, self.dyn_insts, self.phases.clone())
    }

    /// This workload's evaluation state with a *substituted* phase set —
    /// how a foreign (train-on-A/evaluate-on-B) or merged profile is
    /// evaluated against this input.
    ///
    /// Everything that defines the evaluation — the program, its layout,
    /// the captured original retired stream, baseline cycles — stays this
    /// workload's; only the profile driving region formation changes.
    /// Foreign branch addresses that do not resolve in this layout are
    /// skipped by region identification, so a stale profile can shrink
    /// coverage but never corrupt the packed binary (differential replay
    /// still proves equivalence). `source` names the profile's provenance
    /// in the returned label, which also keys packed trace-store entries
    /// apart from the same-input ones.
    pub fn with_phases(&self, phases: Vec<Phase>, source: &str) -> ProfiledWorkload {
        ProfiledWorkload {
            label: format!("{} [profile: {source}]", self.label),
            program: self.program.clone(),
            layout: self.layout.clone(),
            phases,
            branch_counts: self.branch_counts.clone(),
            dyn_insts: self.dyn_insts,
            base_cycles: self.base_cycles,
            raw_detections: self.raw_detections,
            trace: Arc::clone(&self.trace),
        }
    }
}

/// Profiles `program` with the Hot Spot Detector attached, optionally
/// timing the original binary on `machine`.
///
/// The retired stream comes from [`TraceStore::global`]: the first
/// profile of a `(workload, RunConfig)` key executes the program once
/// while recording; later profiles (e.g. detector-configuration sweeps)
/// reuse the capture. Either way the capture is replayed once, into the
/// detector, the branch-count oracle and (when timed) the timing model
/// together.
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor (a malformed workload).
pub fn profile(
    label: &str,
    program: Program,
    hsd_cfg: &HsdConfig,
    machine: Option<&MachineConfig>,
) -> Result<ProfiledWorkload, ExecError> {
    let layout = Layout::natural(&program);
    let mut hsd = HotSpotDetector::new(*hsd_cfg);
    let mut counts = BranchCounts::new();
    let run_cfg = RunConfig::default();
    let store = TraceStore::global();
    let key = TraceKey::new(label, &program, &layout, &run_cfg);

    let mut timing = machine.map(|m| TimingModel::new(*m));
    let (trace, stats) = {
        let _s = vp_trace::span("metrics.profile.run");
        let trace = store.obtain(key, &program, &layout, &run_cfg)?;
        let stats =
            trace.replay(&mut (&mut hsd, &mut counts, timing.as_mut().map(TimingModel::run)));
        (trace, stats)
    };
    debug_assert_eq!(
        stats.stop,
        StopReason::Halted,
        "{label}: workload must halt"
    );
    let base_cycles = timing.map(|t| {
        t.emit_trace();
        t.cycles()
    });

    let raw_detections = hsd.records().len();
    let phases = {
        let _s = vp_trace::span("metrics.profile.filter");
        filter_hot_spots(hsd.records(), &FilterConfig::default())
    };
    for phase in &phases {
        // Flight payload: (branches retired when first detected, phase id)
        // — the phase-begin timeline as the software filter sees it.
        vp_trace::flight("metrics.phase", phase.first_detected_at, phase.id as u64);
    }
    Ok(ProfiledWorkload {
        label: label.to_string(),
        program,
        layout,
        phases,
        branch_counts: counts,
        dyn_insts: stats.retired,
        base_cycles,
        raw_detections,
        trace,
    })
}

/// Outcome of one (workload, configuration) cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigOutcome {
    /// Fraction of dynamic instructions retired inside packages
    /// (Figure 8).
    pub coverage: f64,
    /// Static-size increase fraction (Table 3 col 1).
    pub expansion: f64,
    /// Fraction of original static instructions selected (Table 3 col 2).
    pub selected_fraction: f64,
    /// Replication factor of selected instructions.
    pub replication: f64,
    /// Number of packages built.
    pub packages: usize,
    /// Number of unique phases.
    pub phases: usize,
    /// Launch points patched.
    pub launch_points: usize,
    /// Cycles of the vacuum-packed, optimized binary (when timed).
    pub opt_cycles: Option<u64>,
    /// Speedup over the original binary (when timed).
    pub speedup: Option<f64>,
    /// Differential-replay result for the packed run. The harness always
    /// diffs, so every outcome it returns carries `Some`.
    pub diff: Option<DiffReport>,
}

/// Runs the Vacuum Packing pipeline on a profiled workload under one
/// configuration, measuring coverage and (optionally) speedup, and
/// strictly diffing the packed run against the original capture.
///
/// Nothing executes live more than once per key: the packed binary's
/// retired stream goes through [`TraceStore::global`] under a
/// [`TraceKey::packed`] key (workload × packed-program structure ×
/// package-set fingerprint), and one replay of that capture feeds the
/// coverage counts, the [`TimingModel`] — the same measurement path
/// baseline cycles use — and the differential replay together. Baseline
/// cycles come from [`ProfiledWorkload::base_cycles`] or a replay of the
/// profile's shared capture.
///
/// # Errors
///
/// Propagates [`ExecError`] from the measurement run.
///
/// # Panics
///
/// Panics when the packed run diverges from the original, with
/// first-divergence forensics in the message.
pub fn evaluate(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
    opt_cfg: &OptConfig,
    machine: Option<&MachineConfig>,
) -> Result<ConfigOutcome, ExecError> {
    evaluate_with_diff(pw, cfg, opt_cfg, machine, DiffMode::Strict)
}

/// [`evaluate`] with an explicit diff mode; [`DiffMode::Report`] returns
/// a diverged outcome instead of panicking.
///
/// One evaluation is three steps: `prepare` (pack, optimize, identity
/// map), `measure` (one replay of the packed capture into coverage,
/// timing and differential replay) with its strict check, and
/// `assemble`. A [`ClaimTable`] runs the same steps but measures each
/// distinct packed binary once.
///
/// # Errors
///
/// Propagates [`ExecError`] from the measurement run.
///
/// # Panics
///
/// Panics under [`DiffMode::Strict`] when the packed run diverges.
pub fn evaluate_with_diff(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
    opt_cfg: &OptConfig,
    machine: Option<&MachineConfig>,
    diff_mode: DiffMode,
) -> Result<ConfigOutcome, ExecError> {
    let prep = prepare(pw, cfg, opt_cfg, machine);
    let measured = measure(&prep, &pw.trace, machine)?;
    measured.assert_strict(&prep.label, diff_mode);
    Ok(assemble(&prep, measured))
}

/// The measurement-independent half of one evaluation: the packed,
/// optimized binary plus every [`ConfigOutcome`] field that does not come
/// from running it.
#[derive(Debug)]
struct Prepared {
    label: String,
    /// The profile's original capture, the diff's reference side. Weak, so
    /// a claim never keeps a capture alive past the trace store's budget;
    /// the evaluating cell holds it strongly while it measures.
    original: Weak<CapturedTrace>,
    program: Program,
    order: LayoutOrder,
    identity: IdentityMap,
    fingerprint: u64,
    /// The static fields; [`assemble`] fills in the measured ones.
    outcome: ConfigOutcome,
    /// Cycles of the original binary, when timed.
    base_cycles: Option<u64>,
}

impl Prepared {
    /// Whether running `self` measures exactly what running `other` does:
    /// the same original capture and an equal packed program, layout
    /// order and identity map. The fingerprint only short-cuts the
    /// comparison; it never decides equality on its own.
    ///
    /// A weak reference keeps its capture's allocation, so no later
    /// capture shares its address: once the original is dropped, nothing
    /// is a twin of `self` any more.
    fn twin_of(&self, other: &Prepared) -> bool {
        Weak::ptr_eq(&self.original, &other.original)
            && self.fingerprint == other.fingerprint
            && self.order == other.order
            && self.identity == other.identity
            && self.program == other.program
    }
}

/// What running one packed binary measured — everything its twins share.
#[derive(Debug, Clone)]
struct Measured {
    coverage: f64,
    opt_cycles: Option<u64>,
    diff: DiffReport,
}

impl Measured {
    /// The verdict of `mode` on this measurement for the cell labeled
    /// `label`.
    fn check_strict(&self, label: &str, mode: DiffMode) -> Result<(), String> {
        if mode == DiffMode::Strict && !self.diff.is_clean() {
            return Err(format!(
                "{label}: packed run diverged from the original (strict diff)\n{}",
                self.diff
            ));
        }
        Ok(())
    }

    fn assert_strict(&self, label: &str, mode: DiffMode) {
        if let Err(e) = self.check_strict(label, mode) {
            panic!("{e}");
        }
    }
}

/// Packs and optimizes `pw` under `cfg`, resolving the baseline cycles
/// the speedup divides. The optimizer schedules for `machine`, or for the
/// Table 2 machine when the cell is untimed: untimed means not simulated,
/// so an untimed cell measures the very binary a timed one does.
fn prepare(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
    opt_cfg: &OptConfig,
    machine: Option<&MachineConfig>,
) -> Prepared {
    let out: PackOutput = {
        let _s = vp_trace::span("metrics.evaluate.pack");
        pack(&pw.program, &pw.layout, &pw.phases, cfg)
    };
    // Flight payload: (packages built, launch points patched).
    vp_trace::flight(
        "metrics.pack",
        out.packages.len() as u64,
        out.launch_points as u64,
    );
    let (program, order) = {
        let _s = vp_trace::span("metrics.evaluate.optimize");
        let target = machine.copied().unwrap_or_else(MachineConfig::table2);
        optimize_packages(&out, &target, opt_cfg)
    };
    let base_cycles = match (pw.base_cycles, machine) {
        (Some(base), _) => Some(base),
        (None, Some(m)) => {
            // The profile ran untimed; recover baseline cycles from its
            // capture instead of re-executing the original binary.
            let _s = vp_trace::span("metrics.evaluate.base_timing");
            let mut timing = TimingModel::new(*m);
            timing.replay_trace(&pw.trace);
            Some(timing.cycles())
        }
        (None, None) => None,
    };
    let outcome = ConfigOutcome {
        expansion: out.expansion(),
        selected_fraction: out.selected_fraction(),
        replication: out.replication_factor(),
        packages: out.packages.len(),
        phases: pw.phases.len(),
        launch_points: out.launch_points,
        ..ConfigOutcome::default()
    };
    let identity = out.identity_map();
    let fingerprint = out.fingerprint();
    Prepared {
        label: pw.label.clone(),
        original: Arc::downgrade(&pw.trace),
        program,
        order,
        identity,
        fingerprint,
        outcome,
        base_cycles,
    }
}

/// Runs the prepared packed binary: its capture from
/// [`TraceStore::global`], replayed once into the coverage counts, the
/// timing model and the [`Differ`] against `original`, the capture
/// `prep` was prepared from. The strict verdict is
/// [`Measured::check_strict`], taken separately so a [`ClaimTable`] can
/// publish a diverged measurement to its twins before failing.
fn measure(
    prep: &Prepared,
    original: &CapturedTrace,
    machine: Option<&MachineConfig>,
) -> Result<Measured, ExecError> {
    let run_cfg = RunConfig::default();
    let layout = Layout::new(&prep.program, &prep.order);
    let key = TraceKey::packed(
        &prep.label,
        &prep.program,
        &layout,
        &run_cfg,
        prep.fingerprint,
    );
    let mut counts = InstCounts::new();
    let mut timing = machine.map(|m| TimingModel::new(*m));
    // The diff rides the packed replay.
    let mut differ = Differ::new(original, &prep.identity, &DiffOptions::default());
    let stats = {
        let _s = vp_trace::span("metrics.evaluate.measure");
        let packed = TraceStore::global().obtain(key, &prep.program, &layout, &run_cfg)?;
        packed.replay(&mut (
            &mut counts,
            timing.as_mut().map(TimingModel::run),
            &mut differ,
        ))
    };
    debug_assert_eq!(
        stats.stop,
        StopReason::Halted,
        "{}: packed binary must halt",
        prep.label
    );
    let diff = differ.finish(stats.stop);
    // Packed cycles come from the same kind of replay as baseline cycles.
    let opt_cycles = timing.map(|t| {
        t.emit_trace();
        t.cycles()
    });
    Ok(Measured {
        coverage: counts.package_coverage(),
        opt_cycles,
        diff,
    })
}

/// The cell's [`ConfigOutcome`]: `prep`'s static fields plus `measured`.
fn assemble(prep: &Prepared, measured: Measured) -> ConfigOutcome {
    let speedup = match (prep.base_cycles, measured.opt_cycles) {
        (Some(base), Some(opt)) => Some(base as f64 / opt.max(1) as f64),
        _ => None,
    };
    ConfigOutcome {
        coverage: measured.coverage,
        opt_cycles: measured.opt_cycles,
        speedup,
        diff: Some(measured.diff),
        ..prep.outcome.clone()
    }
}

/// Cells resolved from a twin's measurement instead of running their own.
static EVAL_SHARED: vp_trace::Counter = vp_trace::Counter::new("metrics.evaluate.shared");

/// Measures each distinct packed binary once per process.
///
/// In a sweep over the `{inference} × {linking}` matrix many cells build
/// the same packed binary: inference often changes no package, and
/// linking often adds no link. Across sweeps the same binary recurs too:
/// a cross-input matrix's same-input cell packs exactly what the standard
/// sweep's inf/link cell packed. Such *twin* cells would replay the same
/// capture through the same timing model and differential replay. The
/// first cell to claim a packed binary measures it; every later claim of
/// an equal binary (same original capture, equal program, layout order
/// and identity map) returns [`Evaluation::Twin`] at once, and
/// [`ClaimTable::resolve`] fills its outcome in from the table after the
/// parallel join. No worker ever waits on another cell, so a twin
/// scheduled ahead of its leader cannot stall a worker.
///
/// [`ClaimTable::shared`] hands every sweep of a process the one strict
/// table of its `(OptConfig, machine)`. Claims hold their original
/// capture weakly: a table never keeps a capture alive past the trace
/// store's budget, and a claim whose capture was dropped matches nothing
/// and is pruned. A claim whose leader fails before publishing is dropped
/// from the table as the leader unwinds, so a later sweep measures that
/// binary again; the failed leader's twins in its own sweep fail with it.
///
/// Every cell goes through the same `prepare`/`measure`/`assemble` steps
/// as [`evaluate_with_diff`], so a resolved twin's [`ConfigOutcome`]
/// equals what evaluating it on its own would return.
pub struct ClaimTable {
    opt_cfg: OptConfig,
    machine: Option<MachineConfig>,
    diff_mode: DiffMode,
    claims: Mutex<Vec<Arc<Claim>>>,
}

struct Claim {
    prepared: Arc<Prepared>,
    /// Unset while the leader measures; `Some` once it published, `None`
    /// if it failed first.
    measured: OnceLock<Option<Measured>>,
}

impl std::fmt::Debug for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim")
            .field("label", &self.prepared.label)
            .field("measured", &self.measured.get().map(Option::is_some))
            .finish()
    }
}

/// One cell's result from [`ClaimTable::evaluate`].
#[derive(Debug)]
pub enum Evaluation {
    /// The cell measured its packed binary (or was answered otherwise,
    /// e.g. from a result cache).
    Outcome(Box<ConfigOutcome>),
    /// Another cell claimed an equal packed binary; resolve after the
    /// join with [`ClaimTable::resolve`].
    Twin(Twin),
}

/// A cell's prepared half, waiting for its twin's measurement.
#[derive(Debug)]
pub struct Twin {
    prepared: Arc<Prepared>,
    /// The cell's original capture, held until it resolves.
    original: Arc<CapturedTrace>,
    claim: Arc<Claim>,
}

/// Drops the leader's claim from the table unless the leader published a
/// measurement, so a failure never poisons a later sweep.
struct Leading<'t> {
    table: &'t ClaimTable,
    claim: Arc<Claim>,
}

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        if self.claim.measured.set(None).is_ok() {
            self.table
                .claims
                .lock()
                .expect("claim table")
                .retain(|c| !Arc::ptr_eq(c, &self.claim));
        }
    }
}

impl ClaimTable {
    /// An empty table for cells evaluated with `opt_cfg`, `machine` and
    /// `diff_mode` — the settings every cell of its sweeps share.
    pub fn new(
        opt_cfg: OptConfig,
        machine: Option<MachineConfig>,
        diff_mode: DiffMode,
    ) -> ClaimTable {
        ClaimTable {
            opt_cfg,
            machine,
            diff_mode,
            claims: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide strict table for `opt_cfg` and `machine`, created
    /// on first use: every sweep of the process that evaluates under these
    /// settings shares its claims.
    pub fn shared(opt_cfg: &OptConfig, machine: Option<&MachineConfig>) -> Arc<ClaimTable> {
        static TABLES: Mutex<Vec<Arc<ClaimTable>>> = Mutex::new(Vec::new());
        let mut tables = TABLES.lock().expect("claim tables");
        let found = tables
            .iter()
            .find(|t| t.opt_cfg == *opt_cfg && t.machine.as_ref() == machine);
        if let Some(table) = found {
            return Arc::clone(table);
        }
        let table = Arc::new(ClaimTable::new(
            *opt_cfg,
            machine.copied(),
            DiffMode::Strict,
        ));
        tables.push(Arc::clone(&table));
        table
    }

    /// Evaluates one cell: prepares it, then measures and assembles it if
    /// its packed binary is unclaimed, or returns it as a [`Twin`].
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the measurement run.
    ///
    /// # Panics
    ///
    /// Panics under [`DiffMode::Strict`] when the packed run diverges —
    /// after publishing the report, so the cell's twins fail too.
    pub fn evaluate(
        &self,
        pw: &ProfiledWorkload,
        cfg: &PackConfig,
    ) -> Result<Evaluation, ExecError> {
        let prep = Arc::new(prepare(pw, cfg, &self.opt_cfg, self.machine.as_ref()));
        let claim = {
            let mut claims = self.claims.lock().expect("claim table");
            claims.retain(|c| c.prepared.original.strong_count() > 0);
            if let Some(leader) = claims.iter().find(|c| c.prepared.twin_of(&prep)) {
                EVAL_SHARED.incr();
                return Ok(Evaluation::Twin(Twin {
                    prepared: prep,
                    original: Arc::clone(&pw.trace),
                    claim: Arc::clone(leader),
                }));
            }
            let claim = Arc::new(Claim {
                prepared: Arc::clone(&prep),
                measured: OnceLock::new(),
            });
            claims.push(Arc::clone(&claim));
            claim
        };
        let leading = Leading { table: self, claim };
        let measured = measure(&prep, &pw.trace, self.machine.as_ref())?;
        let _ = leading.claim.measured.set(Some(measured.clone()));
        drop(leading);
        measured.assert_strict(&prep.label, self.diff_mode);
        Ok(Evaluation::Outcome(Box::new(assemble(&prep, measured))))
    }

    /// The outcome of an evaluated cell; a twin takes its leader's
    /// measurement. Call after every cell of the sweep has finished. A
    /// twin whose leader belongs to a sweep still running on another
    /// thread measures its binary itself.
    ///
    /// # Errors
    ///
    /// A twin fails when its leader's measurement failed, or, under
    /// [`DiffMode::Strict`], when the shared report is not clean.
    pub fn resolve(&self, evaluation: Evaluation) -> Result<ConfigOutcome, String> {
        let twin = match evaluation {
            Evaluation::Outcome(outcome) => return Ok(*outcome),
            Evaluation::Twin(twin) => twin,
        };
        let label = &twin.prepared.label;
        let measured = match twin.claim.measured.get() {
            Some(Some(measured)) => measured.clone(),
            Some(None) => {
                return Err(format!(
                    "{label}: the cell measuring its packed binary failed"
                ))
            }
            None => measure(&twin.prepared, &twin.original, self.machine.as_ref())
                .map_err(|e| format!("{label}: {e}"))?,
        };
        measured.check_strict(label, self.diff_mode)?;
        Ok(assemble(&twin.prepared, measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_workloads::twolf;

    #[test]
    fn profile_then_evaluate_twolf() {
        // twolf has three annealing regimes: the detector must find
        // multiple phases and the packed binary must reach high coverage.
        let program = twolf::build(1);
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), None).unwrap();
        assert!(
            pw.phases.len() >= 2,
            "expected multiple phases, got {}",
            pw.phases.len()
        );
        assert!(pw.raw_detections >= pw.phases.len());

        let cfg = PackConfig::default();
        let out = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
        assert!(out.packages >= 1);
        assert!(out.coverage > 0.5, "coverage {:.3} too low", out.coverage);
        assert!(out.expansion > 0.0);
        assert!(out.replication >= 1.0);
    }

    #[test]
    fn linking_does_not_reduce_coverage() {
        let program = twolf::build(1);
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), None).unwrap();
        let base = PackConfig::default();
        let no_link = PackConfig {
            linking: false,
            ..base
        };
        let with = evaluate(&pw, &base, &OptConfig::default(), None).unwrap();
        let without = evaluate(&pw, &no_link, &OptConfig::default(), None).unwrap();
        assert!(
            with.coverage + 1e-9 >= without.coverage,
            "linking must not hurt coverage: {} vs {}",
            with.coverage,
            without.coverage
        );
    }

    #[test]
    fn reprofile_replays_instead_of_reexecuting() {
        // First profile may capture or hit (the store is process-global and
        // other tests share it); the point is that the *second* profile of
        // the same workload must be a pure cache hit. Scoped counter deltas
        // are thread-local, so parallel tests don't perturb them.
        let first = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let (second, report) = vp_trace::scoped(|| {
            profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap()
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.hits"), 1);
        assert_eq!(report.counter("trace_store.replays"), 1);
        assert_eq!(first.phases, second.phases);
        assert_eq!(first.dyn_insts, second.dyn_insts);
    }

    #[test]
    fn untimed_profile_still_yields_speedup_via_replay() {
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        assert!(pw.base_cycles.is_none());
        let out = evaluate(
            &pw,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();

        let timed = profile(
            "300.twolf A",
            twolf::build(1),
            &HsdConfig::table2(),
            Some(&machine),
        )
        .unwrap();
        let out_timed = evaluate(
            &timed,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();
        assert_eq!(out.opt_cycles, out_timed.opt_cycles);
        assert_eq!(out.speedup, out_timed.speedup);
    }

    #[test]
    fn untimed_cell_measures_the_timed_binary() {
        // Untimed means not simulated: the cell still optimizes its
        // packages (for the Table 2 machine), so Figure 8 has one value.
        // 130.li B's coverage depends on the optimizer's relayout.
        use vp_workloads::li;
        let pw = profile(
            "130.li B",
            li::build(li::Input::B, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        let machine = MachineConfig::table2();
        for cfg in PackConfig::evaluation_matrix() {
            let untimed = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
            let timed = evaluate(&pw, &cfg, &OptConfig::default(), Some(&machine)).unwrap();
            assert_eq!(untimed.coverage, timed.coverage, "{cfg:?}");
            assert_eq!(untimed.expansion, timed.expansion, "{cfg:?}");
            assert_eq!(untimed.packages, timed.packages, "{cfg:?}");
            assert!(untimed.speedup.is_none() && timed.speedup.is_some());
        }
    }

    #[test]
    fn evaluation_diffs_clean_in_strict_mode() {
        use vp_exec::DiffVerdict;
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        for cfg in PackConfig::evaluation_matrix() {
            let ((out, ()), report) = vp_trace::scoped(|| {
                let out = evaluate_with_diff(
                    &pw,
                    &cfg,
                    &OptConfig::default(),
                    Some(&machine),
                    vp_exec::DiffMode::Strict,
                )
                .unwrap();
                (out, ())
            });
            let diff = out.diff.expect("strict mode always diffs");
            assert_eq!(diff.verdict, DiffVerdict::Clean, "{cfg:?}: {diff}");
            assert!(diff.aligned_visits > 0);
            assert_eq!(report.counter("diff.divergences"), 0);
            assert_eq!(report.counter("diff.runs"), 1);
            assert!(report.histogram("diff.alignment_run").count >= 1);
            if out.packages > 0 {
                assert!(
                    report.histogram("diff.package_residency").count > 0,
                    "{cfg:?}: packaged runs must record residency"
                );
            }
        }
    }

    #[test]
    fn packed_runs_replay_from_the_store_on_reevaluation() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let cfg = PackConfig::default();
        // Warm the store for this exact (workload, packed variant) key.
        evaluate_with_diff(&pw, &cfg, &OptConfig::default(), None, DiffMode::Strict).unwrap();
        let (_, report) = vp_trace::scoped(|| {
            evaluate_with_diff(&pw, &cfg, &OptConfig::default(), None, DiffMode::Strict).unwrap()
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.hits"), 1);
        // The packed replay plus the diff's pull of the original capture.
        assert_eq!(report.counter("trace_store.replays"), 2);
    }

    #[test]
    fn foreign_and_merged_profiles_evaluate_clean_under_strict() {
        use vp_exec::DiffVerdict;
        use vp_hsd::{MergeConfig, MergedProfile};
        use vp_workloads::li;
        let a = profile(
            "130.li A",
            li::build(li::Input::A, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        let b = profile(
            "130.li B",
            li::build(li::Input::B, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();

        // Foreign: pack input B's binary with input A's profile. Stale
        // addresses degrade coverage at worst; correctness must hold.
        let foreign = b.with_phases(a.phases.clone(), "130.li A");
        assert!(foreign.label.contains("[profile: 130.li A]"));
        let out_foreign = evaluate_with_diff(
            &foreign,
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Strict,
        )
        .unwrap();
        assert_eq!(out_foreign.diff.unwrap().verdict, DiffVerdict::Clean);

        // Merged: A ∪ B contains B's own phases, so evaluating it on B
        // must recover at least the foreign profile's coverage.
        let merged = MergedProfile::of(MergeConfig::default(), [a.dump(), b.dump()]).resolve();
        let out_merged = evaluate_with_diff(
            &b.with_phases(merged, "merged"),
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Strict,
        )
        .unwrap();
        assert_eq!(out_merged.diff.unwrap().verdict, DiffVerdict::Clean);
        assert!(
            out_merged.coverage + 1e-9 >= out_foreign.coverage,
            "merged profile must not cover less than the foreign one: {} vs {}",
            out_merged.coverage,
            out_foreign.coverage
        );
    }

    /// Evaluates every cell of the Figure 8/10 matrix through one claim
    /// table, one cell after another, resolving twins after the last.
    fn claim_matrix(
        pw: &ProfiledWorkload,
        machine: Option<&MachineConfig>,
        mode: DiffMode,
    ) -> Vec<Result<ConfigOutcome, String>> {
        let table = ClaimTable::new(OptConfig::default(), machine.copied(), mode);
        let evaluations: Vec<Option<Evaluation>> = PackConfig::evaluation_matrix()
            .iter()
            .map(|cfg| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    table.evaluate(pw, cfg).unwrap()
                }))
                .ok()
            })
            .collect();
        evaluations
            .into_iter()
            .map(|ev| ev.map_or_else(|| Err("panicked".to_string()), |ev| table.resolve(ev)))
            .collect()
    }

    #[test]
    fn claim_table_outcomes_equal_per_cell_evaluation() {
        use vp_workloads::li;
        let machine = MachineConfig::table2();
        let cases = [
            ("300.twolf A", twolf::build(1), 2),
            ("130.li A", li::build(li::Input::A, 1), 1),
        ];
        for (label, program, distinct) in cases {
            let pw = profile(label, program, &HsdConfig::table2(), Some(&machine)).unwrap();
            let (claimed, report) =
                vp_trace::scoped(|| claim_matrix(&pw, Some(&machine), DiffMode::Strict));
            assert_eq!(report.counter("diff.runs"), distinct, "{label}");
            assert_eq!(
                report.counter("metrics.evaluate.shared"),
                4 - distinct,
                "{label}: every cell is diffed or shared, once"
            );
            for (cfg, claimed) in PackConfig::evaluation_matrix().iter().zip(claimed) {
                let alone = evaluate_with_diff(
                    &pw,
                    cfg,
                    &OptConfig::default(),
                    Some(&machine),
                    DiffMode::Strict,
                )
                .unwrap();
                assert_eq!(claimed.unwrap(), alone, "{label} {cfg:?}");
            }
        }
    }

    /// Input A's binary diffed against input B's capture: the packed run
    /// does A's work, so its diff diverges, and all four cells of 130.li A
    /// build the same packed binary.
    fn crossed_li() -> ProfiledWorkload {
        use vp_workloads::li;
        let a = profile(
            "130.li A",
            li::build(li::Input::A, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        let b = profile(
            "130.li B",
            li::build(li::Input::B, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        ProfiledWorkload {
            trace: Arc::clone(&b.trace),
            ..a
        }
    }

    #[test]
    fn evaluate_is_strict_without_being_asked() {
        use vp_exec::DiffVerdict;
        let pw = crossed_li();
        let cfg = PackConfig::default();
        let reported =
            evaluate_with_diff(&pw, &cfg, &OptConfig::default(), None, DiffMode::Report).unwrap();
        assert_eq!(reported.diff.unwrap().verdict, DiffVerdict::Diverged);

        let panicked = std::panic::catch_unwind(|| {
            evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
        })
        .expect_err("evaluate must fail a diverged packed run");
        let msg = panicked
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.starts_with("130.li A: packed run diverged"), "{msg}");
    }

    #[test]
    fn diverged_measurement_reaches_every_twin() {
        use vp_exec::DiffVerdict;
        let pw = crossed_li();

        let (reported, report) = vp_trace::scoped(|| claim_matrix(&pw, None, DiffMode::Report));
        assert_eq!(report.counter("diff.runs"), 1);
        assert_eq!(report.counter("metrics.evaluate.shared"), 3);
        for out in reported {
            let diff = out.unwrap().diff.unwrap();
            assert_eq!(
                diff.verdict,
                DiffVerdict::Diverged,
                "a twin must not render clean"
            );
        }

        // Strict: the leader panics after publishing its report, and each
        // twin fails its own strict check on that report.
        let errors: Vec<String> = claim_matrix(&pw, None, DiffMode::Strict)
            .into_iter()
            .map(Result::unwrap_err)
            .collect();
        assert_eq!(errors[0], "panicked");
        for err in &errors[1..] {
            assert!(err.starts_with("130.li A: packed run diverged"), "{err}");
            assert!(err.contains("(strict diff)"), "{err}");
        }
    }

    #[test]
    fn claims_never_keep_an_original_capture_alive() {
        use vp_workloads::li;
        let pw = profile(
            "130.li B",
            li::build(li::Input::B, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        // The profile under a capture of its own, held by nothing else.
        let private = || ProfiledWorkload {
            trace: Arc::new(
                CapturedTrace::capture(&pw.program, &pw.layout, &RunConfig::default()).unwrap(),
            ),
            ..pw.with_phases(pw.phases.clone(), "own")
        };
        let cfg = PackConfig::default();
        let table = ClaimTable::new(OptConfig::default(), None, DiffMode::Report);

        let first = private();
        let ev = table.evaluate(&first, &cfg).unwrap();
        assert!(matches!(ev, Evaluation::Outcome(_)));
        table.resolve(ev).unwrap();
        assert_eq!(Arc::strong_count(&first.trace), 1, "claims hold it weakly");
        // While the capture lives, an equal binary is a twin.
        let (ev, report) = vp_trace::scoped(|| table.evaluate(&first, &cfg).unwrap());
        assert!(matches!(ev, Evaluation::Twin(_)));
        assert_eq!(report.counter("metrics.evaluate.shared"), 1);
        table.resolve(ev).unwrap();

        // Once it is gone, nothing is its twin: the same binary over a
        // fresh capture is measured, and the dead claim is pruned.
        drop(first);
        let (ev, report) = vp_trace::scoped(|| table.evaluate(&private(), &cfg).unwrap());
        assert!(matches!(ev, Evaluation::Outcome(_)));
        assert_eq!(report.counter("metrics.evaluate.shared"), 0);
        assert_eq!(table.claims.lock().unwrap().len(), 1);
    }

    #[test]
    fn every_stage_shares_the_original_data_image() {
        use vp_workloads::li;
        let original = li::build(li::Input::A, 1);
        let shares = |what: &str, program: &Program| {
            assert_eq!(program.data.len(), original.data.len(), "{what}");
            for (seg, orig) in program.data.iter().zip(&original.data) {
                assert!(
                    Arc::ptr_eq(&seg.words, &orig.words),
                    "{what} copied its data"
                );
            }
        };
        let machine = MachineConfig::table2();
        let pw = profile(
            "130.li A",
            original.clone(),
            &HsdConfig::table2(),
            Some(&machine),
        )
        .unwrap();
        shares("profile", &pw.program);
        shares(
            "with_phases",
            &pw.with_phases(pw.phases.clone(), "own").program,
        );
        let cfg = PackConfig::default();
        let out = pack(&pw.program, &pw.layout, &pw.phases, &cfg);
        assert!(!out.packages.is_empty());
        shares("pack", &out.program);
        let (optimized, _) = optimize_packages(&out, &machine, &OptConfig::default());
        shares("optimize_packages", &optimized);
        let table = ClaimTable::new(OptConfig::default(), Some(machine), DiffMode::Strict);
        table.resolve(table.evaluate(&pw, &cfg).unwrap()).unwrap();
        shares(
            "the claim",
            &table.claims.lock().unwrap()[0].prepared.program,
        );
    }

    #[test]
    fn dump_round_trips_the_profile() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let d = pw.dump();
        assert_eq!(d.label, pw.label);
        assert_eq!(d.retired, pw.dyn_insts);
        assert_eq!(d.phases, pw.phases);
    }

    #[test]
    fn timed_evaluation_produces_speedup() {
        let program = twolf::build(1);
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), Some(&machine)).unwrap();
        assert!(pw.base_cycles.unwrap() > 0);
        let out = evaluate(
            &pw,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();
        let s = out.speedup.unwrap();
        assert!(s > 0.8 && s < 2.0, "speedup {s:.3} out of plausible range");
    }
}
