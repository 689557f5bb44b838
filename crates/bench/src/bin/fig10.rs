//! Figure 10: performance speedup from basic rescheduling of packages.

use bench::sweep::sweep_cells;
use bench::{profile_suite, CONFIG_LABELS};
use vacuum_packing::metrics::{bar, TextTable};
use vacuum_packing::sim::MachineConfig;

fn main() {
    let mut mf = bench::init("fig10");
    mf.set("figure", 10u64.into());
    let machine = MachineConfig::table2();
    // The profiles give the base cycles; holding them keeps their
    // captures alive, so the sweep takes every profile from the memo.
    let profiled = profile_suite(Some(&machine));
    let sweep = sweep_cells(None, Some(&machine), &[]);
    let matrix = sweep.matrix();

    println!("Figure 10: Speedup from package relayout and rescheduling\n");
    let mut t = TextTable::new(vec![
        "benchmark",
        CONFIG_LABELS[0],
        CONFIG_LABELS[1],
        CONFIG_LABELS[2],
        CONFIG_LABELS[3],
        "base Mcyc",
        "bar(inf/link)",
    ]);
    let mut sums = [0.0f64; 4];
    for (pw, (_, outs)) in profiled.iter().zip(&matrix) {
        let mut row = vec![pw.label.clone()];
        for (i, o) in outs.iter().enumerate() {
            let s = o.speedup.unwrap_or(0.0);
            sums[i] += s;
            row.push(format!("{s:.3}"));
        }
        row.push(format!("{:.2}", pw.base_cycles.unwrap_or(0) as f64 / 1e6));
        row.push(bar(outs[3].speedup.unwrap_or(1.0) - 0.9, 0.4, 25));
        t.row(row);
    }
    let n = profiled.len() as f64;
    let mut row = vec!["average".to_string()];
    for s in sums {
        row.push(format!("{:.3}", s / n));
    }
    row.push(String::new());
    row.push(String::new());
    t.row(row);
    println!("{t}");
    println!("Paper reference: average speedup improves across the four configurations,");
    println!("correlating with coverage; 197.parser gains ~8% extra from linking.");
    bench::add_table(&mut mf, "fig10_speedup", &t);
    bench::emit_manifest(mf);
}
