//! Figure 10: performance speedup from basic rescheduling of packages —
//! the report's table from [`bench::figures::fig10`].

use bench::sweep::sweep_cells;
use bench::{figures, profile_suite};
use vacuum_packing::sim::MachineConfig;

fn main() {
    let mut mf = bench::init("fig10");
    mf.set("figure", 10u64.into());
    let machine = MachineConfig::table2();
    // The profiles give the base cycles; holding them keeps their
    // captures alive, so the sweep takes every profile from the memo.
    let profiled = profile_suite(Some(&machine));
    let t = figures::fig10(&profiled, &sweep_cells(None, Some(&machine), &[]).matrix());
    println!("Figure 10: Speedup from package relayout and rescheduling\n");
    println!("{t}");
    println!("Paper reference: average speedup improves across the four configurations,");
    println!("correlating with coverage; 197.parser gains ~8% extra from linking.");
    bench::add_table(&mut mf, "fig10_speedup", &t);
    bench::emit_manifest(mf);
}
