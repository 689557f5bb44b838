//! Table 1: benchmarks, inputs, and dynamic instruction counts — the
//! report's table from [`bench::figures::table1`].

use bench::{figures, profile_suite};

fn main() {
    let mut mf = bench::init("table1");
    mf.set("table", 1u64.into());
    let t = figures::table1(&profile_suite(None));
    println!("Table 1: Benchmarks and inputs\n");
    println!("{t}");
    println!("(Workloads are scaled-down synthetic counterparts; the paper's runs");
    println!(" span 8M-1902M instructions on real SPEC/MediaBench binaries.)");
    bench::add_table(&mut mf, "table1", &t);
    bench::emit_manifest(mf);
}
