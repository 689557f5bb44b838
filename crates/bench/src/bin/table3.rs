//! Table 3: code expansion from package construction, read from the
//! inf/link column of the cell engine's matrix — the report's table from
//! [`bench::figures::table3`].

use bench::figures;
use bench::sweep::sweep_cells;

fn main() {
    let mut mf = bench::init("table3");
    mf.set("table", 3u64.into());
    let t = figures::table3(&sweep_cells(None, None, &[]).matrix());
    println!("Table 3: Code expansion\n");
    println!("{t}");
    println!("Paper reference: average 12% growth, 4.5% selected, replication ~2.6.");
    bench::add_table(&mut mf, "table3", &t);
    bench::emit_manifest(mf);
}
