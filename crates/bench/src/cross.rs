//! Cross-input generalization sweeps: train-on-A / evaluate-on-B cells.
//!
//! The standard sweep trains and evaluates every workload on the same
//! input. This module measures what the paper never did: how well a
//! phase profile *transfers*. For every multi-input benchmark family
//! (130.li, 132.ijpeg, 134.perl — the Table 1 rows with three inputs),
//! each input is evaluated under every family member's profile plus the
//! family's merged profile (`vp_hsd::merge`), giving a
//! (eval input × profile source) matrix per family:
//!
//! * **same** cells (profile == eval input) reproduce the standard
//!   sweep's numbers;
//! * **foreign** cells quantify stale-profile robustness — coverage and
//!   speedup retained when packing with another input's profile;
//! * **merged** cells measure whether the weighted union recovers what
//!   any single foreign profile loses.
//!
//! Every cell runs under the `VP_DIFF` mode of the environment; foreign
//! phases whose branch addresses do not resolve in the evaluation
//! layout are dropped by region identification, so transfer degrades
//! coverage at worst — differential replay still proves the packed
//! binary does the original's architectural work.
//!
//! The `VP_PROFILE_FROM` knob applies the same substitution to the
//! *standard* sweep ([`substitute_profiles`]): `VP_PROFILE_FROM=A`
//! evaluates every family member under input A's profile,
//! `VP_PROFILE_FROM=merged` under the family merge.

use std::collections::BTreeMap;
use vacuum_packing::core::PackConfig;
use vacuum_packing::exec::DiffMode;
use vacuum_packing::hsd::{MergeConfig, MergedProfile, Phase};
use vacuum_packing::metrics::{
    pct, ClaimTable, ConfigOutcome, Evaluation, ProfiledWorkload, ResultKey, TextTable,
};
use vacuum_packing::opt::OptConfig;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::{suite, Workload};

use crate::cache::{
    active_cache, cell_config_fp, foreign_profile_fp, merged_profile_fp, own_profile_fp,
    workload_trace_fp,
};
use crate::{parallel_sweep_scoped, profile_each, profile_workloads, scale};

/// Column headers of the generalization table; the `sweep cross`
/// manifest and [`render_cross_report`] both use this exact shape.
pub const CROSS_HEADERS: [&str; 10] = [
    "cell",
    "family",
    "eval",
    "profile",
    "kind",
    "coverage%",
    "speedup",
    "phases",
    "packages",
    "diff",
];

const COL_KIND: usize = 4;
const COL_COVERAGE: usize = 5;
const COL_SPEEDUP: usize = 6;
const COL_DIFF: usize = 9;

/// The profile-source column label of a family's merged profile.
pub const MERGED: &str = "merged";

/// Provenance kind of one generalization cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Profile trained on the evaluation input itself.
    Same,
    /// Profile trained on a sibling input.
    Foreign,
    /// The family's merged profile.
    Merged,
}

impl Kind {
    /// The `kind` column string.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Same => "same",
            Kind::Foreign => "foreign",
            Kind::Merged => "merged",
        }
    }
}

/// One evaluated generalization cell.
#[derive(Debug, Clone)]
pub struct CrossCell {
    /// Dense cell index over the filtered matrix.
    pub cell: usize,
    /// Benchmark family, e.g. `"130.li"`.
    pub family: String,
    /// Input evaluated, e.g. `"A"`.
    pub eval: String,
    /// Profile source: an input name, or [`MERGED`].
    pub profile: String,
    /// Same/foreign/merged provenance.
    pub kind: Kind,
    /// The pipeline outcome under the strongest configuration.
    pub outcome: ConfigOutcome,
}

/// The evaluated matrix plus the formatted rows the manifest carries.
#[derive(Debug)]
pub struct CrossOutcome {
    /// Structured cells in cell order (the dashboard's input).
    pub cells: Vec<CrossCell>,
    /// Formatted rows shaped like [`CROSS_HEADERS`].
    pub rows: Vec<Vec<String>>,
    /// Per-cell telemetry rows shaped like
    /// [`crate::sweep::TELEMETRY_HEADERS`].
    pub telemetry: Vec<Vec<String>>,
    /// Cells answered from the result cache (0 when caching is off).
    pub cache_hits: usize,
    /// Cells evaluated live this run.
    pub cache_misses: usize,
}

/// The suite's multi-input families at the given scale: benchmarks with
/// at least three inputs, in suite order, each with its inputs in suite
/// order.
pub fn families(scale: u32) -> Vec<(String, Vec<Workload>)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_bench: BTreeMap<String, Vec<Workload>> = BTreeMap::new();
    for w in suite(scale) {
        if !by_bench.contains_key(w.bench) {
            order.push(w.bench.to_string());
        }
        by_bench.entry(w.bench.to_string()).or_default().push(w);
    }
    order
        .into_iter()
        .filter_map(|b| {
            let inputs = by_bench.remove(&b)?;
            (inputs.len() >= 3).then_some((b, inputs))
        })
        .collect()
}

/// One (eval, profile) pair of a family's matrix, before evaluation.
#[derive(Debug, Clone)]
struct CellSpec {
    family: String,
    eval_label: String,
    eval_input: String,
    profile: String,
    kind: Kind,
}

/// Enumerates the filtered cell specs in matrix order: families filtered
/// by `only` (substring on the bench name), rows by `eval` (substring on
/// the input or full label), columns by `from` (substring on the profile
/// source, its kind, or — for input columns — the source's full label).
fn cell_specs(only: &[String], eval: &[String], from: &[String]) -> Vec<CellSpec> {
    let hit = |filters: &[String], hay: &[&str]| {
        filters.is_empty()
            || filters
                .iter()
                .any(|f| hay.iter().any(|h| h.contains(f.as_str())))
    };
    let mut specs = Vec::new();
    for (family, inputs) in families(scale()) {
        if !hit(only, &[family.as_str()]) {
            continue;
        }
        let input_names: Vec<String> = inputs.iter().map(|w| w.input.to_string()).collect();
        for w in &inputs {
            let label = w.label();
            if !hit(eval, &[w.input, label.as_str()]) {
                continue;
            }
            let columns = input_names.iter().cloned().chain([MERGED.to_string()]);
            for profile in columns {
                let kind = if profile == MERGED {
                    Kind::Merged
                } else if profile == w.input {
                    Kind::Same
                } else {
                    Kind::Foreign
                };
                let source_label = format!("{family} {profile}");
                if !hit(
                    from,
                    &[profile.as_str(), kind.label(), source_label.as_str()],
                ) {
                    continue;
                }
                specs.push(CellSpec {
                    family: family.clone(),
                    eval_label: label.clone(),
                    eval_input: w.input.to_string(),
                    profile,
                    kind,
                });
            }
        }
    }
    specs
}

/// Evaluates the filtered generalization matrix under the paper's
/// strongest configuration (inf/link), in parallel, one vp-trace scope
/// per cell.
///
/// Profiling covers every input of each selected family (foreign and
/// merged columns need the siblings as sources even when their own rows
/// are filtered out); an input no live cell evaluates is profiled
/// untimed. Profiles and packed-binary measurements an earlier sweep of
/// the process already made are reused (see [`crate::profile_workloads`]
/// and [`ClaimTable::shared`]). The merged profile is resolved once per
/// family with [`MergeConfig::from_env`] — `VP_MERGE_WEIGHT` selects the
/// weighting.
///
/// # Panics
///
/// Panics if any profile or evaluation fails (including strict-mode
/// divergences), naming every failing cell.
pub fn cross_cells(
    machine: Option<&MachineConfig>,
    only: &[String],
    eval: &[String],
    from: &[String],
) -> CrossOutcome {
    let _s = vp_trace::span("bench.cross_cells");
    let specs = cell_specs(only, eval, from);
    assert!(
        !specs.is_empty(),
        "no generalization cells match the filters (families need >= 3 inputs)"
    );

    let fams = families(scale());
    let cfg = PackConfig::default();
    let merge_cfg = MergeConfig::from_env();

    // Result-cache probe: each cell's content address folds the
    // evaluated input's trace fingerprint with a per-kind profile
    // fingerprint (own chain / source input's trace / whole-family fold
    // + merge config) — all derivable from workload structure alone.
    let cache = active_cache();
    let mut keys: BTreeMap<usize, ResultKey> = BTreeMap::new();
    let mut cached: BTreeMap<usize, ConfigOutcome> = BTreeMap::new();
    if let Some(rc) = &cache {
        let config_fp = cell_config_fp(&cfg, &OptConfig::default(), machine);
        // input name -> trace fp, per family, inputs in suite order.
        let fam_fps: BTreeMap<&str, Vec<(&str, u64)>> = fams
            .iter()
            .filter(|(b, _)| specs.iter().any(|s| &s.family == b))
            .map(|(b, inputs)| {
                (
                    b.as_str(),
                    inputs
                        .iter()
                        .map(|w| (w.input, workload_trace_fp(w)))
                        .collect(),
                )
            })
            .collect();
        for (i, s) in specs.iter().enumerate() {
            let inputs = &fam_fps[s.family.as_str()];
            let fp_of = |input: &str| {
                inputs
                    .iter()
                    .find(|(inp, _)| *inp == input)
                    .expect("spec input present in family")
                    .1
            };
            let profile_fp = match s.kind {
                Kind::Same => own_profile_fp(),
                Kind::Foreign => foreign_profile_fp(fp_of(&s.profile)),
                Kind::Merged => {
                    let fold: Vec<u64> = inputs.iter().map(|&(_, fp)| fp).collect();
                    merged_profile_fp(&fold, &merge_cfg)
                }
            };
            let key = ResultKey {
                cell: format!("{} {} <- {}", s.family, s.eval_input, s.profile),
                trace_fp: fp_of(&s.eval_input),
                profile_fp,
                config_fp,
            };
            if let Some(out) = rc.load(&key) {
                cached.insert(i, out);
            }
            keys.insert(i, key);
        }
    }

    // Profile every input of every family that still owns a live cell —
    // a family whose selected cells are all cached never profiles. Only
    // inputs a live cell evaluates are timed: the others only supply
    // phases. Suite order is kept, the order the merge folds dumps in.
    let live: Vec<&CellSpec> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| !cached.contains_key(i))
        .map(|(_, s)| s)
        .collect();
    let needed: Vec<(Workload, Option<&MachineConfig>)> = fams
        .into_iter()
        .filter(|(b, _)| live.iter().any(|s| &s.family == b))
        .flat_map(|(_, inputs)| inputs)
        .map(|w| {
            let evaluated = live.iter().any(|s| s.eval_label == w.label());
            (w, machine.filter(|_| evaluated))
        })
        .collect();
    let profiled = profile_each(needed);
    let by_label: BTreeMap<String, &ProfiledWorkload> =
        profiled.iter().map(|pw| (pw.label.clone(), pw)).collect();

    // One merged profile per family with a live cell, resolved outside
    // the cells so its profile.merge.* counters land in the run manifest
    // exactly once.
    let mut merged: BTreeMap<String, Vec<Phase>> = BTreeMap::new();
    for (i, s) in specs.iter().enumerate() {
        if !cached.contains_key(&i) && !merged.contains_key(&s.family) {
            let family_dumps = profiled
                .iter()
                .filter(|pw| pw.label.starts_with(s.family.as_str()))
                .map(|pw| pw.dump());
            let m = MergedProfile::of(merge_cfg, family_dumps);
            merged.insert(s.family.clone(), m.resolve());
        }
    }
    let jobs: Vec<(String, usize)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("{} {} <- {}", s.family, s.eval_input, s.profile), i))
        .collect();
    let table = ClaimTable::shared(&OptConfig::default(), machine, DiffMode::from_env());
    let results = parallel_sweep_scoped("cross", jobs, |&i| {
        if let Some(out) = cached.get(&i) {
            // Cached cell: no profile, replay, or simulation ran.
            return (Evaluation::Outcome(Box::new(out.clone())), "hit");
        }
        let s = &specs[i];
        let pw = by_label[&s.eval_label];
        let ev = match s.kind {
            Kind::Same => table.evaluate(pw, &cfg),
            Kind::Merged => {
                table.evaluate(&pw.with_phases(merged[&s.family].clone(), MERGED), &cfg)
            }
            Kind::Foreign => {
                let src = by_label[&format!("{} {}", s.family, s.profile)];
                table.evaluate(&pw.with_phases(src.phases.clone(), &src.label), &cfg)
            }
        }
        .unwrap_or_else(|e| panic!("{e}"));
        (ev, if cache.is_some() { "miss" } else { "-" })
    });
    let results = crate::settle(results, |((ev, status), t)| {
        Ok(((table.resolve(ev)?, status), t))
    });
    if let Some(rc) = &cache {
        for (i, (_, r)) in results.iter().enumerate() {
            if let Ok(((out, "miss"), _)) = r {
                rc.store(&keys[&i], out);
            }
        }
    }

    let mut cells = Vec::new();
    let mut telemetry = Vec::new();
    for (i, ((outcome, cache_status), t)) in crate::collect_or_report("cross_cells", results)
        .into_iter()
        .enumerate()
    {
        telemetry.push(crate::sweep::telemetry_row(
            &i.to_string(),
            &t,
            cache_status,
            &outcome,
        ));
        let s = &specs[i];
        cells.push(CrossCell {
            cell: i,
            family: s.family.clone(),
            eval: s.eval_input.clone(),
            profile: s.profile.clone(),
            kind: s.kind,
            outcome,
        });
    }
    let rows = cells.iter().map(cross_row).collect();
    let cache_hits = cached.len();
    let cache_misses = if cache.is_some() {
        cells.len() - cache_hits
    } else {
        0
    };
    CrossOutcome {
        cells,
        rows,
        telemetry,
        cache_hits,
        cache_misses,
    }
}

/// Formats one cell as a [`CROSS_HEADERS`] row.
pub fn cross_row(c: &CrossCell) -> Vec<String> {
    vec![
        c.cell.to_string(),
        c.family.clone(),
        c.eval.clone(),
        c.profile.clone(),
        c.kind.label().to_string(),
        pct(c.outcome.coverage),
        c.outcome
            .speedup
            .map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
        c.outcome.phases.to_string(),
        c.outcome.packages.to_string(),
        c.outcome
            .diff
            .as_ref()
            .map_or_else(|| "-".to_string(), |d| d.verdict.to_string()),
    ]
}

fn mean_of(rows: &[&Vec<String>], col: usize) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r[col].parse().ok()).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Renders the generalization report from formatted rows: the cell
/// table, per-kind coverage/speedup averages, and foreign/merged
/// *retention* relative to the same-input cells. Averages are recomputed
/// from the formatted strings, so re-rendering the same rows is
/// byte-identical — the determinism the subprocess test pins.
pub fn render_cross_report(rows: &[Vec<String>]) -> String {
    let mut sorted: Vec<&Vec<String>> = rows.iter().collect();
    sorted.sort_by_key(|r| r[0].parse::<usize>().unwrap_or(usize::MAX));

    let mut t = TextTable::new(CROSS_HEADERS.to_vec());
    for r in &sorted {
        t.row((*r).clone());
    }

    let of_kind = |kind: &str| -> Vec<&Vec<String>> {
        sorted
            .iter()
            .filter(|r| r[COL_KIND] == kind)
            .copied()
            .collect()
    };
    let fmt =
        |v: Option<f64>, prec: usize| v.map_or_else(|| "-".to_string(), |v| format!("{v:.prec$}"));
    let mut summary = String::new();
    let same_cov = mean_of(&of_kind("same"), COL_COVERAGE);
    let same_spd = mean_of(&of_kind("same"), COL_SPEEDUP);
    for kind in ["same", "foreign", "merged"] {
        let rows_k = of_kind(kind);
        if rows_k.is_empty() {
            continue;
        }
        let cov = mean_of(&rows_k, COL_COVERAGE);
        let spd = mean_of(&rows_k, COL_SPEEDUP);
        let retention = |v: Option<f64>, base: Option<f64>| match (v, base) {
            (Some(v), Some(b)) if b > 0.0 => format!(" ({:.1}% of same)", 100.0 * v / b),
            _ => String::new(),
        };
        summary.push_str(&format!(
            "{kind:>8}: avg coverage {}%{}, avg speedup {}{}\n",
            fmt(cov, 1),
            if kind == "same" {
                String::new()
            } else {
                retention(cov, same_cov)
            },
            fmt(spd, 3),
            if kind == "same" {
                String::new()
            } else {
                retention(spd, same_spd)
            },
        ));
    }

    let diverged = sorted.iter().filter(|r| r[COL_DIFF] == "diverged").count();
    let families: std::collections::BTreeSet<&str> = sorted.iter().map(|r| r[1].as_str()).collect();
    format!(
        "Cross-input generalization: {} families, {} cells, {} divergences\n\n{t}\n{summary}",
        families.len(),
        sorted.len(),
        diverged
    )
}

/// Applies a `VP_PROFILE_FROM` substitution to a profiled workload set:
/// every workload whose benchmark family has the named sibling input is
/// re-evaluated under that sibling's profile (`spec` = the input name,
/// e.g. `"A"`), or under the family's merged profile (`spec = "merged"`).
/// Workloads without a matching sibling — single-input benchmarks, or
/// the named input itself — pass through unchanged.
///
/// Sources are profiled on demand, untimed (they only supply phases;
/// the process's profile memo or trace store answer them when warm), and
/// shared across the set.
///
/// # Panics
///
/// Panics if a named source input exists for no family in the set —
/// a typo'd `VP_PROFILE_FROM` silently measuring the same-input matrix
/// would defeat the knob's purpose.
pub fn substitute_profiles(pws: Vec<ProfiledWorkload>, spec: &str) -> Vec<ProfiledWorkload> {
    let _s = vp_trace::span("bench.substitute_profiles");
    let fams: BTreeMap<String, Vec<Workload>> = families(scale()).into_iter().collect();
    let family_of = |label: &str| -> Option<&str> {
        fams.keys()
            .find(|b| label.starts_with(b.as_str()))
            .map(String::as_str)
    };

    // Which families need which sources.
    let mut needed: BTreeMap<String, Vec<Workload>> = BTreeMap::new();
    let mut applies = false;
    for pw in &pws {
        let Some(fam) = family_of(&pw.label) else {
            continue;
        };
        let inputs = &fams[fam];
        if spec == MERGED {
            applies = true;
            needed.entry(fam.to_string()).or_insert_with(|| {
                suite(scale())
                    .into_iter()
                    .filter(|w| w.bench == fam)
                    .collect()
            });
        } else if inputs.iter().any(|w| w.input == spec) {
            applies = true;
            if format!("{fam} {spec}") != pw.label {
                needed.entry(fam.to_string()).or_insert_with(|| {
                    suite(scale())
                        .into_iter()
                        .filter(|w| w.bench == fam && w.input == spec)
                        .collect()
                });
            }
        }
    }
    assert!(
        applies,
        "VP_PROFILE_FROM={spec:?} matches no multi-input family in this sweep \
         (expected an input name like \"A\" or \"merged\")"
    );

    let sources: Vec<Workload> = needed.into_values().flatten().collect();
    let source_profiles = profile_workloads(sources, None);
    let by_label: BTreeMap<String, &ProfiledWorkload> = source_profiles
        .iter()
        .map(|pw| (pw.label.clone(), pw))
        .collect();
    let merge_cfg = MergeConfig::from_env();
    let mut merged: BTreeMap<String, Vec<Phase>> = BTreeMap::new();
    if spec == MERGED {
        for fam in fams.keys() {
            let dumps: Vec<_> = source_profiles
                .iter()
                .filter(|pw| pw.label.starts_with(fam.as_str()))
                .map(|pw| pw.dump())
                .collect();
            if !dumps.is_empty() {
                merged.insert(fam.clone(), MergedProfile::of(merge_cfg, dumps).resolve());
            }
        }
    }

    pws.into_iter()
        .map(|pw| {
            let Some(fam) = family_of(&pw.label) else {
                return pw;
            };
            if spec == MERGED {
                match merged.get(fam) {
                    Some(phases) => pw.with_phases(phases.clone(), MERGED),
                    None => pw,
                }
            } else {
                let source_label = format!("{fam} {spec}");
                if source_label == pw.label {
                    return pw; // its own profile: the same-input cell
                }
                match by_label.get(&source_label) {
                    Some(src) => pw.with_phases(src.phases.clone(), &source_label),
                    None => pw,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_the_three_input_rows() {
        let f = families(1);
        let names: Vec<&str> = f.iter().map(|(b, _)| b.as_str()).collect();
        assert_eq!(names, vec!["130.li", "132.ijpeg", "134.perl"]);
        for (b, inputs) in &f {
            assert_eq!(inputs.len(), 3, "{b}");
            let letters: Vec<&str> = inputs.iter().map(|w| w.input).collect();
            assert_eq!(letters, vec!["A", "B", "C"], "{b}");
        }
    }

    #[test]
    fn cell_specs_cover_the_full_matrix() {
        let specs = cell_specs(&[], &[], &[]);
        // 3 families x 3 eval inputs x (3 sources + merged).
        assert_eq!(specs.len(), 36);
        let same = specs.iter().filter(|s| s.kind == Kind::Same).count();
        let foreign = specs.iter().filter(|s| s.kind == Kind::Foreign).count();
        let merged = specs.iter().filter(|s| s.kind == Kind::Merged).count();
        assert_eq!((same, foreign, merged), (9, 18, 9));
    }

    #[test]
    fn cell_spec_filters_compose() {
        let one = cell_specs(
            &["130.li".to_string()],
            &["B".to_string()],
            &["A".to_string()],
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].family, "130.li");
        assert_eq!(one[0].eval_input, "B");
        assert_eq!(one[0].profile, "A");
        assert_eq!(one[0].kind, Kind::Foreign);

        let merged_col = cell_specs(&[], &[], &[MERGED.to_string()]);
        assert_eq!(merged_col.len(), 9);
        assert!(merged_col.iter().all(|s| s.kind == Kind::Merged));
    }

    fn fake_rows() -> Vec<Vec<String>> {
        let mk = |cell: usize, kind: &str, cov: &str, spd: &str| {
            vec![
                cell.to_string(),
                "130.li".to_string(),
                "A".to_string(),
                "A".to_string(),
                kind.to_string(),
                cov.to_string(),
                spd.to_string(),
                "2".to_string(),
                "2".to_string(),
                "clean".to_string(),
            ]
        };
        vec![
            mk(0, "same", "90.0", "1.100"),
            mk(1, "foreign", "45.0", "1.050"),
            mk(2, "merged", "81.0", "1.080"),
        ]
    }

    #[test]
    fn cross_report_computes_retention_from_formatted_strings() {
        let report = render_cross_report(&fake_rows());
        assert!(report.contains("same: avg coverage 90.0%"), "{report}");
        assert!(
            report.contains("foreign: avg coverage 45.0% (50.0% of same)"),
            "{report}"
        );
        assert!(
            report.contains("merged: avg coverage 81.0% (90.0% of same)"),
            "{report}"
        );
        assert!(
            report.contains("1 families, 3 cells, 0 divergences"),
            "{report}"
        );

        // Canonical row order: shuffling the input changes nothing.
        let mut shuffled = fake_rows();
        shuffled.reverse();
        assert_eq!(render_cross_report(&shuffled), report);
    }
}
