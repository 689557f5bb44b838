//! The paper's evaluation tables, one builder each: Table 1, Figure 8,
//! Table 3, Figure 9 and Figure 10.
//!
//! Each builder returns its table as a [`TextTable`]. The `report` prints
//! it with [`TextTable::markdown`] (EXPERIMENTS.md), the figure binary of
//! the same name with [`TextTable::render`], and both attach it to their
//! run manifest under the binary's table name, so a figure has one set of
//! columns, one cell format and one average wherever it is printed.
//!
//! The matrix builders read [`SweepOutcome::matrix`](crate::sweep::SweepOutcome::matrix):
//! each workload's label and its outcomes in [`CONFIG_LABELS`] order.

use crate::CONFIG_LABELS;
use vacuum_packing::metrics::{
    categorize, pct, ConfigOutcome, ProfiledWorkload, TextTable, CATEGORIES,
};

/// Paper Table 1 "# of Inst" (millions), by suite label.
const PAPER_TABLE1_M: &[(&str, f64)] = &[
    ("099.go A", 338.0),
    ("124.m88ksim A", 89.0),
    ("130.li A", 122.0),
    ("130.li B", 32.0),
    ("130.li C", 362.0),
    ("132.ijpeg A", 1094.0),
    ("132.ijpeg B", 57.0),
    ("132.ijpeg C", 320.0),
    ("134.perl A", 1512.0),
    ("134.perl B", 28.0),
    ("134.perl C", 8.0),
    ("164.gzip A", 1902.0),
    ("175.vpr A", 1012.0),
    ("181.mcf A", 105.0),
    ("197.parser A", 178.0),
    ("255.vortex A", 63.0),
    ("255.vortex B", 315.0),
    ("300.twolf A", 167.0),
    ("mpeg2dec A", 99.0),
];

/// Paper Table 3 (% size increase, % static selected), by suite label.
const PAPER_TABLE3: &[(&str, f64, f64)] = &[
    ("099.go A", 37.4, 10.1),
    ("124.m88ksim A", 3.9, 2.5),
    ("130.li A", 17.4, 7.2),
    ("130.li B", 12.2, 7.2),
    ("130.li C", 17.4, 7.2),
    ("132.ijpeg A", 7.9, 4.2),
    ("132.ijpeg B", 7.6, 4.4),
    ("132.ijpeg C", 9.4, 5.7),
    ("134.perl A", 3.6, 1.4),
    ("134.perl B", 3.8, 1.4),
    ("134.perl C", 3.8, 1.3),
    ("164.gzip A", 9.2, 5.8),
    ("175.vpr A", 6.0, 2.7),
    ("181.mcf A", 23.9, 7.7),
    ("197.parser A", 19.7, 3.5),
    ("255.vortex A", 15.0, 3.0),
    ("255.vortex B", 15.7, 3.2),
    ("300.twolf A", 7.2, 4.0),
    ("mpeg2dec A", 5.8, 3.6),
];

/// The sweep's matrix by workload: label and the four configurations'
/// outcomes in [`CONFIG_LABELS`] order.
pub type Matrix<'a> = [(&'a str, &'a [ConfigOutcome])];

/// A percentage average over `n` rows, as `100 * sum / n`, the arithmetic
/// behind EXPERIMENTS.md's averages. [`pct`]`(sum / n)` rounds through one
/// more division and can differ in the last printed digit.
fn avg_pct(sum: f64, n: usize) -> String {
    format!("{:.1}", 100.0 * sum / n as f64)
}

/// `benchmark`, the four configuration labels, then `extra`.
fn config_headers(extra: &[&str]) -> Vec<String> {
    let mut h = vec!["benchmark".to_string()];
    h.extend(CONFIG_LABELS.iter().chain(extra).map(|s| s.to_string()));
    h
}

/// Table 1: the paper's and the measured dynamic instruction counts,
/// measured branches and the phases the filter found.
pub fn table1(profiled: &[ProfiledWorkload]) -> TextTable {
    let mut t = TextTable::new(vec![
        "benchmark",
        "paper #inst",
        "measured #inst",
        "measured branches",
        "phases found",
    ]);
    for pw in profiled {
        let paper = PAPER_TABLE1_M
            .iter()
            .find(|(l, _)| *l == pw.label)
            .map_or(0.0, |(_, v)| *v);
        t.row(vec![
            pw.label.clone(),
            format!("{paper:.0}M"),
            format!("{:.2}M", pw.dyn_insts as f64 / 1e6),
            format!("{:.2}M", pw.branch_counts.total() as f64 / 1e6),
            pw.phases.len().to_string(),
        ]);
    }
    t
}

/// Figure 8: percent of dynamic instructions retired inside packages per
/// configuration, with an average row.
pub fn fig8(matrix: &Matrix) -> TextTable {
    let mut t = TextTable::new(config_headers(&[]));
    let mut sums = [0.0f64; 4];
    for (label, outs) in matrix {
        let mut row = vec![label.to_string()];
        for (s, o) in sums.iter_mut().zip(outs.iter()) {
            *s += o.coverage;
            row.push(pct(o.coverage));
        }
        t.row(row);
    }
    let mut row = vec!["average".to_string()];
    row.extend(sums.iter().map(|&s| avg_pct(s, matrix.len())));
    t.row(row);
    t
}

/// Table 3: code expansion of the inf/link configuration beside the
/// paper's, with an average row (the paper's averages: 12.0% and 4.5%).
pub fn table3(matrix: &Matrix) -> TextTable {
    let mut t = TextTable::new(vec![
        "benchmark",
        "paper %incr",
        "measured %incr",
        "paper %sel",
        "measured %sel",
        "measured repl",
    ]);
    let (mut se, mut ss, mut sr) = (0.0f64, 0.0f64, 0.0f64);
    for (label, outs) in matrix {
        let o = &outs[3];
        let (p_incr, p_sel) = PAPER_TABLE3
            .iter()
            .find(|(l, _, _)| l == label)
            .map_or((0.0, 0.0), |(_, a, b)| (*a, *b));
        se += o.expansion;
        ss += o.selected_fraction;
        sr += o.replication;
        t.row(vec![
            label.to_string(),
            format!("{p_incr:.1}"),
            pct(o.expansion),
            format!("{p_sel:.1}"),
            pct(o.selected_fraction),
            format!("{:.2}", o.replication),
        ]);
    }
    let n = matrix.len();
    t.row(vec![
        "average".to_string(),
        "12.0".to_string(),
        avg_pct(se, n),
        "4.5".to_string(),
        avg_pct(ss, n),
        format!("{:.2}", sr / n as f64),
    ]);
    t
}

/// Figure 9: each branch category's share of hot-spot branch executions
/// and the hot spots' dynamic coverage, with an average row.
pub fn fig9(profiled: &[ProfiledWorkload]) -> TextTable {
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(CATEGORIES.iter().map(|c| c.label().to_string()));
    headers.push("hot cov %".to_string());
    let mut t = TextTable::new(headers);
    let mut sums = [0.0f64; 6];
    for pw in profiled {
        let cat = categorize(&pw.phases, &pw.branch_counts, 0.7);
        let mut row = vec![pw.label.clone()];
        for (s, &f) in sums.iter_mut().zip(&cat.fraction) {
            *s += f;
            row.push(pct(f));
        }
        row.push(pct(cat.hot_coverage()));
        t.row(row);
    }
    let mut row = vec!["average".to_string()];
    row.extend(sums.iter().map(|&s| avg_pct(s, profiled.len())));
    row.push(String::new());
    t.row(row);
    t
}

/// Figure 10: speedup per configuration and the original binary's cycles,
/// with an average row. `profiled` gives the base cycles, `matrix` the
/// speedups.
///
/// # Panics
///
/// Panics unless `profiled` and `matrix` name the same workloads in the
/// same order.
pub fn fig10(profiled: &[ProfiledWorkload], matrix: &Matrix) -> TextTable {
    assert_eq!(
        profiled.len(),
        matrix.len(),
        "profiles and matrix cover different workloads"
    );
    let mut t = TextTable::new(config_headers(&["base Mcycles"]));
    let mut sums = [0.0f64; 4];
    for (pw, (label, outs)) in profiled.iter().zip(matrix) {
        assert_eq!(
            pw.label, *label,
            "profile row and matrix row name different workloads"
        );
        let mut row = vec![pw.label.clone()];
        for (s, o) in sums.iter_mut().zip(outs.iter()) {
            let speedup = o.speedup.unwrap_or(0.0);
            *s += speedup;
            row.push(format!("{speedup:.3}"));
        }
        row.push(format!("{:.2}", pw.base_cycles.unwrap_or(0) as f64 / 1e6));
        t.row(row);
    }
    let mut row = vec!["average".to_string()];
    row.extend(
        sums.iter()
            .map(|&s| format!("{:.3}", s / matrix.len() as f64)),
    );
    row.push(String::new());
    t.row(row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(coverage: f64, expansion: f64, selected: f64, replication: f64) -> ConfigOutcome {
        ConfigOutcome {
            coverage,
            expansion,
            selected_fraction: selected,
            replication,
            ..Default::default()
        }
    }

    /// Two workloads: one the paper lists, one it does not.
    fn two_workloads() -> Vec<(&'static str, Vec<ConfigOutcome>)> {
        vec![
            (
                "099.go A",
                vec![
                    outcome(0.5, 0.0, 0.0, 0.0),
                    outcome(0.6, 0.0, 0.0, 0.0),
                    outcome(0.7, 0.0, 0.0, 0.0),
                    outcome(0.812, 0.25, 0.1, 2.5),
                ],
            ),
            (
                "toy A",
                vec![
                    outcome(0.25, 0.0, 0.0, 0.0),
                    outcome(0.3, 0.0, 0.0, 0.0),
                    outcome(0.35, 0.0, 0.0, 0.0),
                    outcome(0.9, 0.05, 0.02, 2.0),
                ],
            ),
        ]
    }

    #[test]
    fn fig8_markdown_is_pinned() {
        let w = two_workloads();
        let matrix: Vec<(&str, &[ConfigOutcome])> =
            w.iter().map(|(l, o)| (*l, o.as_slice())).collect();
        assert_eq!(
            fig8(&matrix).markdown(),
            "| benchmark | noInf/noLink | noInf/link | inf/noLink | inf/link |\n\
             |---|---|---|---|---|\n\
             | 099.go A | 50.0 | 60.0 | 70.0 | 81.2 |\n\
             | toy A | 25.0 | 30.0 | 35.0 | 90.0 |\n\
             | **average** | **37.5** | **45.0** | **52.5** | **85.6** |\n"
        );
    }

    #[test]
    fn table3_markdown_is_pinned() {
        let w = two_workloads();
        let matrix: Vec<(&str, &[ConfigOutcome])> =
            w.iter().map(|(l, o)| (*l, o.as_slice())).collect();
        assert_eq!(
            table3(&matrix).markdown(),
            "| benchmark | paper %incr | measured %incr | paper %sel | measured %sel | measured repl |\n\
             |---|---|---|---|---|---|\n\
             | 099.go A | 37.4 | 25.0 | 10.1 | 10.0 | 2.50 |\n\
             | toy A | 0.0 | 5.0 | 0.0 | 2.0 | 2.00 |\n\
             | **average** | **12.0** | **15.0** | **4.5** | **6.0** | **2.25** |\n"
        );
    }

    #[test]
    #[should_panic(expected = "name different workloads")]
    fn fig10_refuses_misaligned_labels() {
        use vacuum_packing::prelude::*;
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main");
        pb.define(main, |f| f.halt());
        pb.set_entry(main);
        let pw = profile("toy A", pb.build(), &HsdConfig::table2(), None).expect("toy runs");
        let outs = vec![ConfigOutcome::default(); 4];
        fig10(&[pw], &[("toy B", &outs[..])]);
    }
}
