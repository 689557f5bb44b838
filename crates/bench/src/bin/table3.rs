//! Table 3: code expansion from package construction, read from the
//! inf/link column of the cell engine's matrix.

use bench::sweep::sweep_cells;
use vacuum_packing::metrics::{pct, TextTable};

fn main() {
    let mut mf = bench::init("table3");
    mf.set("table", 3u64.into());
    let sweep = sweep_cells(None, None, &[]);
    let matrix = sweep.matrix();

    println!("Table 3: Code expansion\n");
    let mut t = TextTable::new(vec![
        "benchmark",
        "% incr in size",
        "% static inst selected",
        "replication",
        "packages",
    ]);
    let (mut se, mut ss, mut sr) = (0.0f64, 0.0f64, 0.0f64);
    for (label, outs) in &matrix {
        let o = &outs[3];
        se += o.expansion;
        ss += o.selected_fraction;
        sr += o.replication;
        t.row(vec![
            label.to_string(),
            pct(o.expansion),
            pct(o.selected_fraction),
            format!("{:.2}", o.replication),
            o.packages.to_string(),
        ]);
    }
    let n = matrix.len() as f64;
    t.row(vec![
        "average".to_string(),
        pct(se / n),
        pct(ss / n),
        format!("{:.2}", sr / n),
        String::new(),
    ]);
    println!("{t}");
    println!("Paper reference: average 12% growth, 4.5% selected, replication ~2.6.");
    bench::add_table(&mut mf, "table3", &t);
    bench::emit_manifest(mf);
}
