//! The one cell engine behind `sweep` and `sweep cross`.
//!
//! A cell asks one question: how does input X do when packed under
//! profile source S with configuration C? [`crate::sweep::sweep_cells`]
//! lists own-profile × [`PackConfig::evaluation_matrix`] cells and
//! [`crate::cross::cross_cells`] lists same/foreign/merged cells under
//! inf/link; [`run`] answers either list the same way:
//!
//! 1. keep only the suite workloads the cells name (evaluated inputs and
//!    profile sources);
//! 2. probe the result cache (`VP_RESULT_DIR`) with every cell's key,
//!    derived from workload structure alone (see [`crate::cache`]);
//! 3. profile the workloads the live cells name, in suite order — each
//!    timed only if a live cell evaluates it;
//! 4. resolve one merged profile per family a live cell packs under;
//! 5. evaluate in parallel through [`ClaimTable::shared`], one vp-trace
//!    scope per cell, and store the misses.

use std::collections::BTreeMap;
use vacuum_packing::core::PackConfig;
use vacuum_packing::exec::{DiffMode, DiffVerdict};
use vacuum_packing::hsd::{MergeConfig, MergedProfile, Phase};
use vacuum_packing::metrics::{
    ClaimTable, ConfigOutcome, Evaluation, ProfiledWorkload, ResultCache, ResultKey,
};
use vacuum_packing::opt::OptConfig;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::Workload;

use crate::cache::{
    cell_config_fp, foreign_profile_fp, merged_profile_fp, own_profile_fp, workload_trace_fp,
};
use crate::cross::MERGED;
use crate::{parallel_sweep_scoped, profile_each, store_hit_ratio, JobTelemetry};

/// Where a cell's phases come from.
#[derive(Debug)]
pub(crate) enum Source {
    /// The evaluated workload's own profile.
    Own,
    /// Another workload's profile, by label (a sibling input).
    Input(String),
    /// The merged profile of a benchmark family, by bench name.
    Merged(String),
}

/// One cell to evaluate.
#[derive(Debug)]
pub(crate) struct Cell {
    /// Label of the evaluated workload, e.g. `"130.li B"`.
    pub eval: String,
    /// The profile the packer uses.
    pub source: Source,
    /// The packer configuration.
    pub config: PackConfig,
    /// The result-key cell name; also the cell's job label.
    pub key: String,
}

impl Cell {
    /// Whether this cell evaluates or profiles from the workload
    /// `label` of benchmark `bench`.
    fn names(&self, label: &str, bench: &str) -> bool {
        self.eval == label
            || match &self.source {
                Source::Own => false,
                Source::Input(src) => src == label,
                Source::Merged(fam) => fam == bench,
            }
    }
}

/// One evaluated cell.
#[derive(Debug)]
pub(crate) struct Done {
    /// The pipeline outcome.
    pub outcome: ConfigOutcome,
    /// `"hit"` or `"miss"` in the result cache, `"-"` without one.
    pub cache: &'static str,
    /// The cell's wall time and trace scope.
    pub telemetry: JobTelemetry,
}

/// A [`run`]'s cells, in list order, with result-cache totals.
#[derive(Debug)]
pub(crate) struct Evaluated {
    pub cells: Vec<Done>,
    /// Cells answered from the result cache (0 when caching is off).
    pub cache_hits: usize,
    /// Cells evaluated live (0 when caching is off).
    pub cache_misses: usize,
}

/// Evaluates `cells` over `suite` (built once by the caller, dropped here
/// but for the workloads the cells name). `what` labels progress lines
/// and the failure summary.
///
/// # Panics
///
/// Panics if any profile or evaluation fails (including strict-mode
/// divergences), naming every failing cell.
pub(crate) fn run(
    what: &'static str,
    suite: Vec<Workload>,
    cells: &[Cell],
    machine: Option<&MachineConfig>,
) -> Evaluated {
    let named: Vec<(String, Workload)> = suite
        .into_iter()
        .map(|w| (w.label(), w))
        .filter(|(l, w)| cells.iter().any(|c| c.names(l, w.bench)))
        .collect();
    let merge_cfg = cells
        .iter()
        .any(|c| matches!(c.source, Source::Merged(_)))
        .then(MergeConfig::from_env);

    // Result-cache probe: every key derives from workload structure, so
    // cached cells are known before anything is profiled.
    let cache = ResultCache::from_env();
    let mut keys: Vec<ResultKey> = Vec::new();
    let mut cached: Vec<Option<ConfigOutcome>> = vec![None; cells.len()];
    if let Some(rc) = &cache {
        let trace_fps: BTreeMap<&str, u64> = named
            .iter()
            .map(|(l, w)| (l.as_str(), workload_trace_fp(w)))
            .collect();
        let own = own_profile_fp();
        keys = cells
            .iter()
            .map(|c| {
                let profile_fp = match &c.source {
                    Source::Own => own,
                    Source::Input(src) => foreign_profile_fp(trace_fps[src.as_str()]),
                    Source::Merged(fam) => {
                        // The family's inputs folded in suite order.
                        let fold: Vec<u64> = named
                            .iter()
                            .filter(|(_, w)| w.bench == fam)
                            .map(|(l, _)| trace_fps[l.as_str()])
                            .collect();
                        merged_profile_fp(&fold, &merge_cfg.expect("merge config"))
                    }
                };
                ResultKey {
                    cell: c.key.clone(),
                    trace_fp: trace_fps[c.eval.as_str()],
                    profile_fp,
                    config_fp: cell_config_fp(&c.config, &OptConfig::default(), machine),
                }
            })
            .collect();
        for (slot, key) in cached.iter_mut().zip(&keys) {
            *slot = rc.load(key);
        }
    }

    // Profile only what a live cell names: a fully-cached list never
    // replays, simulates, or profiles. Suite order is kept — the order a
    // merge folds its dumps in.
    let live: Vec<&Cell> = cells
        .iter()
        .zip(&cached)
        .filter(|(_, hit)| hit.is_none())
        .map(|(c, _)| c)
        .collect();
    let (needed, benches): (Vec<_>, Vec<&str>) = named
        .into_iter()
        .filter(|(l, w)| live.iter().any(|c| c.names(l, w.bench)))
        .map(|(l, w)| {
            let timed = live.iter().any(|c| c.eval == l);
            let bench = w.bench;
            ((w, machine.filter(|_| timed)), bench)
        })
        .unzip();
    let profiled = profile_each(needed);
    let by_label: BTreeMap<&str, &ProfiledWorkload> =
        profiled.iter().map(|pw| (pw.label.as_str(), pw)).collect();

    // One merged profile per family, resolved outside the cells so its
    // profile.merge.* counters land in the run manifest exactly once.
    let mut merged: BTreeMap<&str, Vec<Phase>> = BTreeMap::new();
    for c in &live {
        if let Source::Merged(fam) = &c.source {
            if !merged.contains_key(fam.as_str()) {
                let dumps = profiled
                    .iter()
                    .zip(&benches)
                    .filter(|(_, b)| **b == fam)
                    .map(|(pw, _)| pw.dump());
                let cfg = merge_cfg.expect("merge config");
                merged.insert(fam, MergedProfile::of(cfg, dumps).resolve());
            }
        }
    }

    let jobs: Vec<(String, usize)> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.key.clone(), i))
        .collect();
    let miss = if cache.is_some() { "miss" } else { "-" };
    let table = ClaimTable::shared(&OptConfig::default(), machine, DiffMode::from_env());
    let results = parallel_sweep_scoped(what, jobs, |&i| {
        if let Some(out) = &cached[i] {
            // Cached cell: no profile, replay, or simulation ran.
            return (Evaluation::Outcome(Box::new(out.clone())), "hit");
        }
        let c = &cells[i];
        let pw = by_label[c.eval.as_str()];
        let ev = match &c.source {
            Source::Own => table.evaluate(pw, &c.config),
            Source::Input(src) => {
                let src = by_label[src.as_str()];
                table.evaluate(&pw.with_phases(src.phases.clone(), &src.label), &c.config)
            }
            Source::Merged(fam) => table.evaluate(
                &pw.with_phases(merged[fam.as_str()].clone(), MERGED),
                &c.config,
            ),
        }
        .unwrap_or_else(|e| panic!("{e}"));
        (ev, miss)
    });
    let results = crate::settle(results, |((ev, status), t)| {
        Ok(((table.resolve(ev)?, status), t))
    });
    if let Some(rc) = &cache {
        for (key, (_, r)) in keys.iter().zip(&results) {
            if let Ok(((out, "miss"), _)) = r {
                rc.store(key, out);
            }
        }
    }

    let cache_hits = cached.iter().flatten().count();
    let cache_misses = if cache.is_some() {
        cells.len() - cache_hits
    } else {
        0
    };
    let cells = crate::collect_or_report(&format!("{what}_cells"), results)
        .into_iter()
        .map(|((outcome, cache), telemetry)| Done {
            outcome,
            cache,
            telemetry,
        })
        .collect();
    Evaluated {
        cells,
        cache_hits,
        cache_misses,
    }
}

/// One [`crate::sweep::TELEMETRY_HEADERS`] row. The `divergences` column
/// comes from the cell's own diff verdict: a twin cell never runs the
/// diff, so its scope's `diff.divergences` counter says nothing about it.
pub(crate) fn telemetry_row(cell: &str, done: &Done) -> Vec<String> {
    let t = &done.telemetry;
    let diverged = done
        .outcome
        .diff
        .as_ref()
        .is_some_and(|d| d.verdict == DiffVerdict::Diverged);
    vec![
        cell.to_string(),
        format!("{:.1}", t.wall_ms),
        (t.report.counter("trace_store.hits") + t.report.counter("trace_store.disk_hits"))
            .to_string(),
        t.report.counter("trace_store.captures").to_string(),
        store_hit_ratio(&t.report).map_or_else(|| "-".to_string(), |r| format!("{:.0}", r * 100.0)),
        u64::from(diverged).to_string(),
        done.cache.to_string(),
    ]
}

/// The mean of a column's numeric cells over formatted rows (`None` when
/// no cell parses) — how both reports recompute averages from the very
/// strings they print.
pub(crate) fn mean_of(rows: &[&Vec<String>], col: usize) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r[col].parse().ok()).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}
