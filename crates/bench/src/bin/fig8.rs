//! Figure 8: percent of dynamic instructions executed from within
//! packages, for the four {inference} x {linking} configurations — the
//! report's table from [`bench::figures::fig8`].
//!
//! The cells come from the cell engine untimed: each packed binary is
//! optimized as in Figure 10 but not simulated, so the coverage printed
//! here is the report's Figure 8.

use bench::figures;
use bench::sweep::sweep_cells;

fn main() {
    let mut mf = bench::init("fig8");
    mf.set("figure", 8u64.into());
    let t = figures::fig8(&sweep_cells(None, None, &[]).matrix());
    println!("Figure 8: Percent of dynamic instructions from within packages\n");
    println!("{t}");
    println!("Paper reference: >80% average coverage with inference and linking enabled.");
    bench::add_table(&mut mf, "fig8_coverage", &t);
    bench::emit_manifest(mf);
}
