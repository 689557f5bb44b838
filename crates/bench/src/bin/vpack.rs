//! `vpack` — the command-line face of the pipeline: profile a workload,
//! vacuum-pack it, and report (or dump) the result.
//!
//! ```text
//! vpack <workload> [--no-inference] [--no-linking] [--max-blocks N]
//!                  [--opt none|paper] [--timing] [--dump] [--list]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p bench --bin vpack -- --list
//! cargo run --release -p bench --bin vpack -- "300.twolf A" --timing
//! cargo run --release -p bench --bin vpack -- "134.perl A" --no-linking --dump
//! ```

use vacuum_packing::core::{pack, PackConfig};
use vacuum_packing::hsd::HsdConfig;
use vacuum_packing::metrics::{evaluate, profile};
use vacuum_packing::opt::OptConfig;
use vacuum_packing::prelude::*;
use vacuum_packing::program::pretty;

fn usage() -> ! {
    eprintln!(
        "usage: vpack <workload> [--no-inference] [--no-linking] [--max-blocks N]\n\
         \x20                    [--opt none|paper] [--timing] [--dump] [--list]"
    );
    std::process::exit(2);
}

fn main() {
    let mut mf = bench::init("vpack");
    let args: Vec<String> = bench::cli_args();
    if args.iter().any(|a| a == "--list") {
        for w in vacuum_packing::workloads::suite(bench::scale()) {
            println!("{:<16} {}", w.label(), w.input_desc);
        }
        return;
    }
    let mut label: Option<String> = None;
    let mut cfg = PackConfig::default();
    let mut opt = OptConfig::default();
    let mut timing = false;
    let mut dump = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-inference" => cfg.inference = false,
            "--no-linking" => cfg.linking = false,
            "--max-blocks" => {
                cfg.max_growth_blocks = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--opt" => match it.next().as_deref() {
                Some("none") => {
                    opt = OptConfig {
                        relayout: false,
                        reschedule: false,
                    }
                }
                Some("paper") => opt = OptConfig::default(),
                _ => usage(),
            },
            "--timing" => timing = true,
            "--dump" => dump = true,
            "--help" | "-h" => usage(),
            other if label.is_none() && !other.starts_with('-') => label = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(label) = label else { usage() };
    let Some(w) = vacuum_packing::workloads::by_label(&label, bench::scale()) else {
        eprintln!("unknown workload {label:?}; --list shows the suite");
        std::process::exit(1);
    };

    let machine = MachineConfig::table2();
    let pw = profile(
        &label,
        w.program,
        &HsdConfig::table2(),
        timing.then_some(&machine),
    )
    .expect("profiling succeeds");
    println!(
        "{label}: {} dynamic instructions, {} phases ({} raw detections)",
        pw.dyn_insts,
        pw.phases.len(),
        pw.raw_detections
    );

    let out = evaluate(&pw, &cfg, &opt, timing.then_some(&machine)).expect("evaluation succeeds");
    println!("packages:        {}", out.packages);
    println!("launch points:   {}", out.launch_points);
    println!("coverage:        {:.1}%", 100.0 * out.coverage);
    println!("code expansion:  {:.1}%", 100.0 * out.expansion);
    println!("selected:        {:.1}%", 100.0 * out.selected_fraction);
    println!("replication:     {:.2}x", out.replication);
    if let Some(s) = out.speedup {
        println!(
            "speedup:         {s:.3}x over {} Mcycles",
            pw.base_cycles.unwrap_or(0) / 1_000_000
        );
    }

    mf.set("workload", label.as_str().into());
    mf.set("dyn_insts", pw.dyn_insts.into());
    mf.set("phases", (pw.phases.len() as u64).into());
    mf.set("packages", (out.packages as u64).into());
    mf.set("launch_points", (out.launch_points as u64).into());
    mf.set("coverage", out.coverage.into());
    mf.set("expansion", out.expansion.into());
    if let Some(s) = out.speedup {
        mf.set("speedup", s.into());
    }

    if dump {
        let packed = pack(&pw.program, &pw.layout, &pw.phases, &cfg);
        println!("\n=== package listing ===");
        for pi in &packed.packages {
            println!(
                "--- {} (phase {}, root `{}`, links in/out {}/{})",
                packed.program.func(pi.func).name,
                pi.phase,
                packed.program.func(pi.root).name,
                pi.links_in,
                pi.links_out
            );
            print!("{}", pretty::dump_function(&packed.program, pi.func, None));
        }
    }
    bench::emit_manifest(mf);
}
