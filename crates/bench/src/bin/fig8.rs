//! Figure 8: percent of dynamic instructions executed from within
//! packages, for the four {inference} x {linking} configurations.
//!
//! The cells come from the cell engine untimed: each packed binary is
//! optimized as in Figure 10 but not simulated, so the coverage printed
//! here is the report's Figure 8.

use bench::sweep::sweep_cells;
use bench::CONFIG_LABELS;
use vacuum_packing::metrics::{bar, pct, TextTable};

fn main() {
    let mut mf = bench::init("fig8");
    mf.set("figure", 8u64.into());
    let sweep = sweep_cells(None, None, &[]);
    let matrix = sweep.matrix();

    println!("Figure 8: Percent of dynamic instructions from within packages\n");
    let mut t = TextTable::new(vec![
        "benchmark",
        CONFIG_LABELS[0],
        CONFIG_LABELS[1],
        CONFIG_LABELS[2],
        CONFIG_LABELS[3],
        "phases",
        "packages",
        "bar(inf/link)",
    ]);
    let mut sums = [0.0f64; 4];
    for (label, outs) in &matrix {
        for (i, o) in outs.iter().enumerate() {
            sums[i] += o.coverage;
        }
        t.row(vec![
            label.to_string(),
            pct(outs[0].coverage),
            pct(outs[1].coverage),
            pct(outs[2].coverage),
            pct(outs[3].coverage),
            outs[3].phases.to_string(),
            outs[3].packages.to_string(),
            bar(outs[3].coverage, 1.0, 25),
        ]);
    }
    let n = matrix.len() as f64;
    t.row(vec![
        "average".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
        String::new(),
        String::new(),
        bar(sums[3] / n, 1.0, 25),
    ]);
    println!("{t}");
    println!("Paper reference: >80% average coverage with inference and linking enabled.");
    bench::add_table(&mut mf, "fig8_coverage", &t);
    bench::emit_manifest(mf);
}
