//! Phase timeline: when each hot spot was detected over a workload's run,
//! and which unique phase every detection belongs to — the view the
//! Vacuum Packing software side has of the program's temporal behavior.
//! The capture comes from the trace store (so `VP_TRACE_DIR` serves it)
//! and the timeline from [`vacuum_packing::metrics::phase_timeline`].
//!
//! ```text
//! cargo run --release -p bench --bin phases -- "124.m88ksim A"
//! ```

use vacuum_packing::metrics::phase_timeline;
use vacuum_packing::prelude::*;

fn main() {
    let mut mf = bench::init("phases");
    let label = bench::cli_args()
        .into_iter()
        .next()
        .unwrap_or_else(|| "124.m88ksim A".to_string());
    let Some(w) = vacuum_packing::workloads::by_label(&label, bench::scale()) else {
        eprintln!("unknown workload {label:?}; try e.g. \"300.twolf A\"");
        std::process::exit(1);
    };
    let layout = Layout::natural(&w.program);
    let cfg = RunConfig::default();
    let key = TraceKey::new(&label, &w.program, &layout, &cfg);
    let trace = TraceStore::global()
        .obtain(key, &w.program, &layout, &cfg)
        .expect("workload runs");
    let (phases, marks, branches) =
        phase_timeline(&trace, &HsdConfig::table2(), &FilterConfig::default());

    println!(
        "{label}: {} retired instructions, {} raw detections, {} phases\n",
        trace.events(),
        marks.len(),
        phases.len()
    );

    // Timeline: bucket detections over the branch axis.
    const COLS: usize = 72;
    let total = branches.max(1);
    let mut lanes = vec![vec![b' '; COLS]; phases.len()];
    for mark in &marks {
        let col = ((mark.at_branch * COLS as u64) / total).min(COLS as u64 - 1) as usize;
        lanes[mark.phase][col] = b'#';
    }
    println!("detections over the run (one row per phase, time left to right):");
    for (i, lane) in lanes.iter().enumerate() {
        let ph = &phases[i];
        println!(
            "  phase {i:>2} |{}| {} branches, {} detections",
            String::from_utf8_lossy(lane),
            ph.branches.len(),
            ph.detections
        );
    }

    println!("\nper-phase hot branches:");
    for ph in &phases {
        println!(
            "  phase {} (first at branch {}):",
            ph.id, ph.first_detected_at
        );
        for (addr, b) in ph.branches.iter().take(8) {
            if let Some(loc) = layout.branch_at(*addr) {
                println!(
                    "    {:>10} in `{}`: taken {:>5.1}%  weight {}",
                    format!("{loc}"),
                    w.program.func(loc.func).name,
                    100.0 * b.taken_fraction(),
                    b.avg_exec()
                );
            }
        }
        if ph.branches.len() > 8 {
            println!("    ... and {} more", ph.branches.len() - 8);
        }
    }

    mf.set("workload", label.as_str().into());
    mf.set("retired", trace.events().into());
    mf.set("raw_detections", (marks.len() as u64).into());
    mf.set("phases", (phases.len() as u64).into());
    bench::emit_manifest(mf);
}
