//! Sharded (workload × config) sweeps and shard-manifest merging.
//!
//! A full evaluation sweep is embarrassingly parallel across its
//! (workload, configuration) cells, but a single process tops out at
//! `VP_THREADS` cores. This module splits the cell matrix across
//! *processes*: `VP_SHARD=i/n` deterministically assigns every cell with
//! index `j % n == i` (row-major over workloads × configs) to shard `i`,
//! each shard emits its cell rows in its `vp-manifest/2` run manifest, and
//! [`merge_manifests`] joins the per-shard manifests back into the exact
//! report an unsharded run would have printed — byte for byte, because both
//! paths render from the same formatted cell rows via [`render_report`].
//!
//! Shards that share a `VP_TRACE_DIR` also share captured traces through
//! the disk tier, so concurrent shards interpret each workload once
//! machine-wide instead of once per process.

use std::collections::{BTreeMap, BTreeSet};
use vacuum_packing::core::PackConfig;
use vacuum_packing::metrics::{pct, ConfigOutcome, TextTable};
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::{suite, Workload};
use vp_trace::{parse_manifest_line, Json};

use crate::cells::{self, mean_of, Cell, Source};
use crate::{scale, CONFIG_LABELS};

/// Column headers of the per-cell sweep table; [`render_report`] and the
/// shard manifests both use this exact shape.
pub const CELL_HEADERS: [&str; 9] = [
    "cell",
    "workload",
    "config",
    "coverage%",
    "expansion",
    "phases",
    "packages",
    "speedup",
    "diff",
];

const COL_CELL: usize = 0;
const COL_CONFIG: usize = 2;
const COL_COVERAGE: usize = 3;
const COL_EXPANSION: usize = 4;
const COL_SPEEDUP: usize = 7;
const COL_DIFF: usize = 8;

/// Column headers of the per-cell telemetry table emitted alongside the
/// cell rows: wall time and trace-store behavior of each cell in
/// isolation (each cell runs in its own vp-trace scope, so these numbers
/// never include a concurrently-running cell's work).
pub const TELEMETRY_HEADERS: [&str; 7] = [
    "cell",
    "wall_ms",
    "store_hits",
    "store_captures",
    "hit_ratio%",
    "divergences",
    "result_cache",
];

/// One shard's slice of the cell matrix, parsed from `VP_SHARD=i/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// Parses `"i/n"`.
    ///
    /// # Errors
    ///
    /// Rejects anything that is not two integers separated by `/` with
    /// `i < n` and `n >= 1` — a malformed spec silently running the full
    /// matrix would defeat the point of sharding, so this is a hard error.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let bad = || format!("invalid shard spec {s:?} (expected i/n with 0 <= i < n)");
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let index: usize = i.trim().parse().map_err(|_| bad())?;
        let count: usize = n.trim().parse().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }

    /// Reads `VP_SHARD`; `Ok(None)` when unset (run the whole matrix).
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSpec::parse`] failures for a set-but-malformed
    /// value.
    pub fn from_env() -> Result<Option<ShardSpec>, String> {
        match std::env::var("VP_SHARD") {
            Ok(s) if !s.trim().is_empty() => ShardSpec::parse(s.trim()).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether cell `j` of the row-major matrix belongs to this shard.
    pub fn selects(&self, cell: usize) -> bool {
        cell % self.count == self.index
    }

    /// The `i/n` display form.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

/// The result of sweeping one shard (or, with no shard, the whole matrix).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Formatted cell rows in ascending cell order, shaped like
    /// [`CELL_HEADERS`].
    pub rows: Vec<Vec<String>>,
    /// Per-cell telemetry rows, shaped like [`TELEMETRY_HEADERS`], in the
    /// same cell order as `rows`.
    pub telemetry: Vec<Vec<String>>,
    /// Size of the full matrix (all shards combined).
    pub cells_total: usize,
    /// Cells answered from the result cache (0 when caching is off).
    pub cache_hits: usize,
    /// Cells evaluated live this run.
    pub cache_misses: usize,
    /// Each cell's pipeline outcome, in the same cell order as `rows`.
    pub outcomes: Vec<ConfigOutcome>,
}

impl SweepOutcome {
    /// The whole matrix by workload, in suite order: each workload's label
    /// and its outcomes in [`CONFIG_LABELS`] order. How the figure
    /// binaries and the report read a sweep.
    ///
    /// # Panics
    ///
    /// Panics on a shard's outcome, which holds only part of the matrix.
    pub fn matrix(&self) -> Vec<(&str, &[ConfigOutcome])> {
        assert_eq!(
            self.outcomes.len(),
            self.cells_total,
            "a shard's sweep holds only part of the matrix"
        );
        let n_cfg = CONFIG_LABELS.len();
        self.rows
            .chunks(n_cfg)
            .zip(self.outcomes.chunks(n_cfg))
            .map(|(rows, outs)| (rows[0][1].as_str(), outs))
            .collect()
    }
}

/// Evaluates this shard's cells of the (workload × config) matrix: the
/// own-profile × [`PackConfig::evaluation_matrix`] cell list, run by the
/// cell engine (`bench::cells`).
///
/// Workloads are filtered by `only` (case-sensitive substring match on the
/// label; empty = whole suite) *before* sharding, so every shard of a
/// filtered sweep partitions the same reduced matrix. Only the workloads
/// that own at least one selected, uncached cell are profiled, which is
/// what makes an `n`-way shard roughly `n`× cheaper rather than just `n`×
/// smaller. Profiles and packed-binary measurements are shared with the
/// other sweeps of the process (see [`crate::profile_workloads`] and
/// [`vacuum_packing::metrics::ClaimTable::shared`]).
///
/// # Panics
///
/// Panics if any profile or evaluation fails, naming every failing cell.
pub fn sweep_cells(
    shard: Option<&ShardSpec>,
    machine: Option<&MachineConfig>,
    only: &[String],
) -> SweepOutcome {
    let _s = vp_trace::span("bench.sweep_cells");
    let suite = suite(scale());
    let labels: Vec<String> = suite
        .iter()
        .map(Workload::label)
        .filter(|l| only.is_empty() || only.iter().any(|f| l.contains(f.as_str())))
        .collect();
    let configs = PackConfig::evaluation_matrix();
    let n_cfg = configs.len();
    let cells_total = labels.len() * n_cfg;
    let mine: Vec<usize> = (0..cells_total)
        .filter(|&j| shard.is_none_or(|s| s.selects(j)))
        .collect();
    let cells: Vec<Cell> = mine
        .iter()
        .map(|&j| {
            let (w, c) = (j / n_cfg, j % n_cfg);
            Cell {
                eval: labels[w].clone(),
                source: Source::Own,
                config: configs[c],
                key: format!("{} [{}]", labels[w], CONFIG_LABELS[c]),
            }
        })
        .collect();
    let run = cells::run("sweep", suite, &cells, machine);

    let mut rows = Vec::new();
    let mut telemetry = Vec::new();
    let mut outcomes = Vec::new();
    for (&j, done) in mine.iter().zip(run.cells) {
        let (w, c) = (j / n_cfg, j % n_cfg);
        let row = cell_row(j, &labels[w], CONFIG_LABELS[c], &done.outcome);
        telemetry.push(cells::telemetry_row(&row[COL_CELL], &done));
        rows.push(row);
        outcomes.push(done.outcome);
    }
    SweepOutcome {
        rows,
        telemetry,
        cells_total,
        cache_hits: run.cache_hits,
        cache_misses: run.cache_misses,
        outcomes,
    }
}

fn cell_row(cell: usize, workload: &str, config: &str, out: &ConfigOutcome) -> Vec<String> {
    vec![
        cell.to_string(),
        workload.to_string(),
        config.to_string(),
        pct(out.coverage),
        format!("{:.3}", out.expansion),
        out.phases.to_string(),
        out.packages.to_string(),
        out.speedup
            .map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
        out.diff
            .as_ref()
            .map_or_else(|| "-".to_string(), |d| d.verdict.to_string()),
    ]
}

/// Renders the canonical sweep report from formatted cell rows.
///
/// Both the unsharded `sweep` binary and `sweep merge` print exactly this —
/// averages are recomputed from the *formatted* strings, never from carried
/// floats, so a merged report is byte-identical to an unsharded one.
pub fn render_report(rows: &[Vec<String>]) -> String {
    let mut sorted: Vec<&Vec<String>> = rows.iter().collect();
    sorted.sort_by_key(|r| r[COL_CELL].parse::<usize>().unwrap_or(usize::MAX));

    let workloads: BTreeSet<&str> = sorted.iter().map(|r| r[1].as_str()).collect();
    let mut t = TextTable::new(CELL_HEADERS.to_vec());
    for r in &sorted {
        t.row((*r).clone());
    }

    // Per-config averages, in first-appearance (matrix) order.
    let mut config_order: Vec<&str> = Vec::new();
    for r in &sorted {
        if !config_order.contains(&r[COL_CONFIG].as_str()) {
            config_order.push(r[COL_CONFIG].as_str());
        }
    }
    for cfg in config_order {
        let of_cfg: Vec<&Vec<String>> = sorted
            .iter()
            .filter(|r| r[COL_CONFIG] == cfg)
            .copied()
            .collect();
        let fmt = |v: Option<f64>, prec: usize| {
            v.map_or_else(|| "-".to_string(), |v| format!("{v:.prec$}"))
        };
        t.row(vec![
            "avg".to_string(),
            "average".to_string(),
            cfg.to_string(),
            fmt(mean_of(&of_cfg, COL_COVERAGE), 1),
            fmt(mean_of(&of_cfg, COL_EXPANSION), 3),
            "-".to_string(),
            "-".to_string(),
            fmt(mean_of(&of_cfg, COL_SPEEDUP), 3),
            "-".to_string(),
        ]);
    }
    let diverged = sorted.iter().filter(|r| r[COL_DIFF] == "diverged").count();
    format!(
        "Sweep report: {} workloads, {} cells, {} divergences\n\n{t}",
        workloads.len(),
        sorted.len(),
        diverged
    )
}

/// Joins per-shard `vp-manifest/2` JSONL into the unsharded report.
///
/// `inputs` is `(source name, file contents)` per shard manifest; the
/// source name only decorates error messages. Every line that parses as a
/// `sweep` manifest contributes its `cells` table.
///
/// # Errors
///
/// * a shard file contains no sweep manifest line;
/// * shards disagree on the total cell count (mixed `--only` filters or
///   scales);
/// * a cell index appears in more than one shard (duplicate coverage);
/// * a cell index of `0..cells_total` appears in no shard (a missing
///   shard, or a shard that died mid-run).
pub fn merge_manifests(inputs: &[(String, String)]) -> Result<String, String> {
    let mut cells_total: Option<(u64, String)> = None;
    let mut rows: BTreeMap<usize, (String, Vec<String>)> = BTreeMap::new();

    for (source, contents) in inputs {
        let mut found = false;
        for line in contents.lines() {
            let Ok(m) = parse_manifest_line(line) else {
                continue;
            };
            if m.get("bin").and_then(Json::as_str) != Some("sweep") {
                continue;
            }
            let total = m
                .get("cells_total")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{source}: sweep manifest lacks cells_total"))?;
            match &cells_total {
                None => cells_total = Some((total, source.clone())),
                Some((t, first)) if *t != total => {
                    return Err(format!(
                        "shards disagree on matrix size: {first} says {t} cells, \
                         {source} says {total} (mixed --only filters or scales?)"
                    ));
                }
                Some(_) => {}
            }
            for table in m.get("tables").and_then(Json::as_arr).unwrap_or(&[]) {
                if table.get("name").and_then(Json::as_str) != Some("cells") {
                    continue;
                }
                found = true;
                for row in table.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
                    let cols: Vec<String> = row
                        .as_arr()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|c| c.as_str().map(str::to_string))
                        .collect();
                    if cols.len() != CELL_HEADERS.len() {
                        return Err(format!("{source}: malformed cell row {row:?}"));
                    }
                    let idx: usize = cols[COL_CELL]
                        .parse()
                        .map_err(|_| format!("{source}: bad cell index {:?}", cols[COL_CELL]))?;
                    if let Some((prev, _)) = rows.get(&idx) {
                        return Err(format!(
                            "cell {idx} appears in both {prev} and {source} \
                             (overlapping shards?)"
                        ));
                    }
                    rows.insert(idx, (source.clone(), cols));
                }
            }
        }
        if !found {
            return Err(format!("{source}: no sweep manifest line found"));
        }
    }

    let (total, _) = cells_total.ok_or("no shard manifests given")?;
    let missing: Vec<String> = (0..total as usize)
        .filter(|j| !rows.contains_key(j))
        .map(|j| j.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{} of {total} cells missing (is a shard absent or incomplete?): {}",
            missing.len(),
            missing.join(", ")
        ));
    }
    let merged: Vec<Vec<String>> = rows.into_values().map(|(_, cols)| cols).collect();
    Ok(render_report(&merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.label(), "1/3");
        let selected: Vec<usize> = (0..9).filter(|&j| s.selects(j)).collect();
        assert_eq!(selected, vec![1, 4, 7]);

        // Every cell lands in exactly one shard.
        let shards: Vec<ShardSpec> = (0..3)
            .map(|i| ShardSpec::parse(&format!("{i}/3")).unwrap())
            .collect();
        for j in 0..100 {
            assert_eq!(shards.iter().filter(|s| s.selects(j)).count(), 1);
        }
    }

    #[test]
    fn shard_spec_rejects_malformed() {
        for bad in ["", "1", "2/2", "3/2", "a/b", "0/0", "-1/2", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    fn fake_rows(n_workloads: usize, n_cfg: usize) -> Vec<Vec<String>> {
        (0..n_workloads * n_cfg)
            .map(|j| {
                vec![
                    j.to_string(),
                    format!("wl{}", j / n_cfg),
                    format!("cfg{}", j % n_cfg),
                    format!("{:.1}", 50.0 + j as f64),
                    "1.100".to_string(),
                    "2".to_string(),
                    "3".to_string(),
                    "-".to_string(),
                    "clean".to_string(),
                ]
            })
            .collect()
    }

    fn fake_manifest(rows: &[Vec<String>], total: usize, shard: &str) -> String {
        let mut m = vp_trace::Manifest::new("sweep");
        m.set("shard", shard.into());
        m.set("cells_total", (total as u64).into());
        let headers: Vec<String> = CELL_HEADERS.iter().map(|h| (*h).to_string()).collect();
        m.table("cells", &headers, rows);
        m.render()
    }

    #[test]
    fn merge_reproduces_unsharded_report() {
        let rows = fake_rows(3, 2);
        let unsharded = render_report(&rows);

        let (a, b): (Vec<Vec<String>>, Vec<Vec<String>>) = rows
            .iter()
            .cloned()
            .partition(|r| r[0].parse::<usize>().unwrap() % 2 == 0);
        let inputs = vec![
            ("s0".to_string(), fake_manifest(&a, 6, "0/2")),
            ("s1".to_string(), fake_manifest(&b, 6, "1/2")),
        ];
        assert_eq!(merge_manifests(&inputs).unwrap(), unsharded);
    }

    #[test]
    fn merge_detects_missing_and_duplicate_cells() {
        let rows = fake_rows(2, 2);
        let some = rows[..3].to_vec();
        let err =
            merge_manifests(&[("s0".to_string(), fake_manifest(&some, 4, "0/1"))]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(err.contains('3'), "{err}");

        let inputs = vec![
            ("s0".to_string(), fake_manifest(&rows, 4, "0/2")),
            ("s1".to_string(), fake_manifest(&rows[1..2], 4, "1/2")),
        ];
        let err = merge_manifests(&inputs).unwrap_err();
        assert!(err.contains("cell 1 appears in both"), "{err}");
    }

    #[test]
    fn merge_rejects_mismatched_totals_and_junk() {
        let rows = fake_rows(1, 2);
        let inputs = vec![
            ("s0".to_string(), fake_manifest(&rows, 2, "0/2")),
            ("s1".to_string(), fake_manifest(&rows, 4, "1/2")),
        ];
        assert!(merge_manifests(&inputs).unwrap_err().contains("disagree"));
        assert!(
            merge_manifests(&[("x".to_string(), "not json\n".to_string())])
                .unwrap_err()
                .contains("no sweep manifest")
        );
        assert!(merge_manifests(&[]).unwrap_err().contains("no shard"));
    }

    #[test]
    fn report_averages_come_from_formatted_strings() {
        let rows = fake_rows(2, 2);
        let report = render_report(&rows);
        // cfg0 coverage strings are "50.0" and "52.0" -> mean "51.0".
        assert!(report.contains("51.0"), "{report}");
        assert!(report.lines().any(|l| l.contains("average")), "{report}");
        // Row order is canonical even if input is shuffled.
        let mut shuffled = rows.clone();
        shuffled.reverse();
        assert_eq!(render_report(&shuffled), report);
    }
}
