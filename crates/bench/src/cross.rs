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
//! This module only lists those cells; the cell engine
//! (`bench::cells`) that runs the standard sweep evaluates them.
//! Every cell runs under the `VP_DIFF` mode of the environment; foreign
//! phases whose branch addresses do not resolve in the evaluation
//! layout are dropped by region identification, so transfer degrades
//! coverage at worst — differential replay still proves the packed
//! binary does the original's architectural work.

use std::collections::BTreeSet;
use vacuum_packing::core::PackConfig;
use vacuum_packing::metrics::{pct, ConfigOutcome, TextTable};
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::{suite, Workload};

use crate::cells::{self, mean_of, Cell, Source};
use crate::scale;

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
    let suite = suite(scale);
    let names = family_names(&suite);
    let mut fams: Vec<(String, Vec<Workload>)> =
        names.iter().map(|b| (b.to_string(), Vec::new())).collect();
    for w in suite {
        if let Some(i) = names.iter().position(|b| *b == w.bench) {
            fams[i].1.push(w);
        }
    }
    fams
}

/// The bench names of `suite`'s multi-input families, in suite order.
fn family_names(suite: &[Workload]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for w in suite {
        if !names.contains(&w.bench) {
            names.push(w.bench);
        }
    }
    names.retain(|b| suite.iter().filter(|w| w.bench == *b).count() >= 3);
    names
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
fn cell_specs(
    suite: &[Workload],
    only: &[String],
    eval: &[String],
    from: &[String],
) -> Vec<CellSpec> {
    let hit = |filters: &[String], hay: &[&str]| {
        filters.is_empty()
            || filters
                .iter()
                .any(|f| hay.iter().any(|h| h.contains(f.as_str())))
    };
    let mut specs = Vec::new();
    for family in family_names(suite) {
        if !hit(only, &[family]) {
            continue;
        }
        let inputs: Vec<&Workload> = suite.iter().filter(|w| w.bench == family).collect();
        let input_names: Vec<String> = inputs.iter().map(|w| w.input.to_string()).collect();
        for w in inputs {
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
                    family: family.to_string(),
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
/// strongest configuration (inf/link): the (eval input × profile source)
/// cell list, run by the cell engine (`bench::cells`) in parallel, one
/// vp-trace scope per cell.
///
/// Profiling covers every input a live cell evaluates or takes phases
/// from (foreign and merged columns need the siblings as sources even
/// when their own rows are filtered out); an input no live cell
/// evaluates is profiled untimed. Profiles and packed-binary
/// measurements an earlier sweep of the process already made are reused
/// (see [`crate::profile_workloads`] and
/// [`vacuum_packing::metrics::ClaimTable::shared`]). The merged profile is
/// resolved once per family with
/// [`vacuum_packing::hsd::MergeConfig::from_env`] — `VP_MERGE_WEIGHT`
/// selects the weighting.
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
    let suite = suite(scale());
    let specs = cell_specs(&suite, only, eval, from);
    assert!(
        !specs.is_empty(),
        "no generalization cells match the filters (families need >= 3 inputs)"
    );
    let list: Vec<Cell> = specs
        .iter()
        .map(|s| Cell {
            eval: s.eval_label.clone(),
            source: match s.kind {
                Kind::Same => Source::Own,
                Kind::Foreign => Source::Input(format!("{} {}", s.family, s.profile)),
                Kind::Merged => Source::Merged(s.family.clone()),
            },
            config: PackConfig::default(),
            key: format!("{} {} <- {}", s.family, s.eval_input, s.profile),
        })
        .collect();
    let run = cells::run("cross", suite, &list, machine);

    let mut cells = Vec::new();
    let mut telemetry = Vec::new();
    for (i, (s, done)) in specs.into_iter().zip(run.cells).enumerate() {
        telemetry.push(cells::telemetry_row(&i.to_string(), &done));
        cells.push(CrossCell {
            cell: i,
            family: s.family,
            eval: s.eval_input,
            profile: s.profile,
            kind: s.kind,
            outcome: done.outcome,
        });
    }
    let rows = cells.iter().map(cross_row).collect();
    CrossOutcome {
        cells,
        rows,
        telemetry,
        cache_hits: run.cache_hits,
        cache_misses: run.cache_misses,
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
    let families: BTreeSet<&str> = sorted.iter().map(|r| r[1].as_str()).collect();
    format!(
        "Cross-input generalization: {} families, {} cells, {} divergences\n\n{t}\n{summary}",
        families.len(),
        sorted.len(),
        diverged
    )
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
        let specs = cell_specs(&suite(1), &[], &[], &[]);
        // 3 families x 3 eval inputs x (3 sources + merged).
        assert_eq!(specs.len(), 36);
        let same = specs.iter().filter(|s| s.kind == Kind::Same).count();
        let foreign = specs.iter().filter(|s| s.kind == Kind::Foreign).count();
        let merged = specs.iter().filter(|s| s.kind == Kind::Merged).count();
        assert_eq!((same, foreign, merged), (9, 18, 9));
    }

    #[test]
    fn cell_spec_filters_compose() {
        let suite = suite(1);
        let one = cell_specs(
            &suite,
            &["130.li".to_string()],
            &["B".to_string()],
            &["A".to_string()],
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].family, "130.li");
        assert_eq!(one[0].eval_input, "B");
        assert_eq!(one[0].profile, "A");
        assert_eq!(one[0].kind, Kind::Foreign);

        let merged_col = cell_specs(&suite, &[], &[], &[MERGED.to_string()]);
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
