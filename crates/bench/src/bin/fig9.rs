//! Figure 9: categorization of hot spot branch behavior across
//! benchmarks — the report's table from [`bench::figures::fig9`].

use bench::{figures, profile_suite};

fn main() {
    let mut mf = bench::init("fig9");
    mf.set("figure", 9u64.into());
    let t = figures::fig9(&profile_suite(None));
    println!(
        "Figure 9: Categorization of hot spot branch behavior (% of hot-spot branch executions)\n"
    );
    println!("{t}");
    println!("Paper reference: unique branches mostly biased; Multi High+Low are the");
    println!("phase-customization opportunity (e.g. ~3% Multi High for 099.go).");
    bench::add_table(&mut mf, "fig9_categorization", &t);
    bench::emit_manifest(mf);
}
