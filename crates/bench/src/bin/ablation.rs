//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **BBB geometry × inference** — with a generously sized Branch
//!    Behavior Buffer the profile is nearly complete and inference has
//!    little to recover (as in the paper's Figure 8, where it "does not
//!    greatly effect the average"); shrinking the BBB loses branches to
//!    contention, and inference recovers coverage.
//! 2. **MAX_BLOCKS** — the heuristic-growth budget (Section 3.2.3).
//! 3. **Hot-arc thresholds** — the 25%-flow / execution-threshold rule
//!    (Section 3.2.1).

use bench::scale;
use vacuum_packing::core::PackConfig;
use vacuum_packing::hsd::HsdConfig;
use vacuum_packing::metrics::{evaluate, pct, profile, TextTable};
use vacuum_packing::opt::OptConfig;

fn main() {
    let mut mf = bench::init("ablation");
    let workloads: Vec<(&str, vacuum_packing::program::Program)> = vec![
        ("175.vpr A", vacuum_packing::workloads::vpr::build(scale())),
        (
            "300.twolf A",
            vacuum_packing::workloads::twolf::build(scale()),
        ),
        (
            "134.perl A",
            vacuum_packing::workloads::perl::build(
                vacuum_packing::workloads::perl::Input::A,
                scale(),
            ),
        ),
    ];

    // --- 1. BBB geometry x inference -----------------------------------
    println!("Ablation 1: BBB geometry x inference (coverage %)\n");
    let mut t = TextTable::new(vec![
        "benchmark",
        "BBB",
        "phases",
        "noInf %",
        "inf %",
        "inf gain",
    ]);
    for (label, program) in &workloads {
        for (sets, ways) in [(512usize, 4usize), (16, 4), (4, 4), (2, 2)] {
            let hsd = HsdConfig {
                bbb_sets: sets,
                bbb_ways: ways,
                ..HsdConfig::table2()
            };
            let pw = profile(label, program.clone(), &hsd, None).expect("profile");
            let no_inf = PackConfig {
                inference: false,
                ..PackConfig::default()
            };
            let with = evaluate(&pw, &PackConfig::default(), &OptConfig::default(), None).unwrap();
            let without = evaluate(&pw, &no_inf, &OptConfig::default(), None).unwrap();
            t.row(vec![
                label.to_string(),
                format!("{sets}x{ways}"),
                pw.phases.len().to_string(),
                pct(without.coverage),
                pct(with.coverage),
                format!("{:+.1}", 100.0 * (with.coverage - without.coverage)),
            ]);
        }
    }
    println!("{t}");
    bench::add_table(&mut mf, "ablation1_bbb_geometry", &t);

    // --- 2. MAX_BLOCKS ---------------------------------------------------
    println!("Ablation 2: heuristic growth budget MAX_BLOCKS (coverage / expansion %)\n");
    let mut t = TextTable::new(vec!["benchmark", "MAX_BLOCKS", "coverage %", "expansion %"]);
    for (label, program) in &workloads {
        let pw = profile(label, program.clone(), &HsdConfig::table2(), None).expect("profile");
        for mb in [0usize, 1, 2, 8] {
            let cfg = PackConfig {
                max_growth_blocks: mb,
                ..PackConfig::default()
            };
            let out = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
            t.row(vec![
                label.to_string(),
                mb.to_string(),
                pct(out.coverage),
                pct(out.expansion),
            ]);
        }
    }
    println!("{t}");
    bench::add_table(&mut mf, "ablation2_max_blocks", &t);

    // --- 4. Optimization passes (timed) ----------------------------------
    println!("Ablation 4: optimization passes (speedup on the Table 2 machine)\n");
    let machine = vacuum_packing::sim::MachineConfig::table2();
    let mut t4 = TextTable::new(vec!["benchmark", "passes", "speedup"]);
    for (label, program) in &workloads {
        let pw =
            profile(label, program.clone(), &HsdConfig::table2(), Some(&machine)).expect("profile");
        for (name, ocfg) in [
            (
                "none",
                OptConfig {
                    relayout: false,
                    reschedule: false,
                },
            ),
            (
                "resched",
                OptConfig {
                    relayout: false,
                    reschedule: true,
                },
            ),
            (
                "relayout",
                OptConfig {
                    relayout: true,
                    reschedule: false,
                },
            ),
            ("both (paper)", OptConfig::default()),
        ] {
            let out = evaluate(&pw, &PackConfig::default(), &ocfg, Some(&machine)).unwrap();
            t4.row(vec![
                label.to_string(),
                name.to_string(),
                format!("{:.3}", out.speedup.unwrap_or(0.0)),
            ]);
        }
    }
    println!("{t4}");
    bench::add_table(&mut mf, "ablation4_opt_passes", &t4);

    // --- 5. Hardware detection history -----------------------------------
    println!("Ablation 5: hardware detection history (Section 3.1 enhancement)\n");
    let mut t5 = TextTable::new(vec![
        "benchmark",
        "history",
        "raw records",
        "suppressed",
        "phases",
        "coverage %",
    ]);
    for (label, program) in &workloads {
        for depth in [0usize, 1, 2, 4] {
            let hsd = HsdConfig {
                history_depth: depth,
                ..HsdConfig::table2()
            };
            let pw = profile(label, program.clone(), &hsd, None).expect("profile");
            let out = evaluate(&pw, &PackConfig::default(), &OptConfig::default(), None).unwrap();
            t5.row(vec![
                label.to_string(),
                depth.to_string(),
                pw.raw_detections.to_string(),
                "-".to_string(),
                pw.phases.len().to_string(),
                pct(out.coverage),
            ]);
        }
    }
    println!("{t5}");
    bench::add_table(&mut mf, "ablation5_history", &t5);
    println!("A deeper history transfers far fewer records to software while the");
    println!("software filter still recovers the same phases (coverage holds).\n");

    // --- 3. Hot-arc thresholds ------------------------------------------
    println!("Ablation 3: hot-arc rule (fraction, execution threshold)\n");
    let mut t = TextTable::new(vec![
        "benchmark",
        "frac/thresh",
        "coverage %",
        "expansion %",
        "packages",
    ]);
    for (label, program) in &workloads {
        let pw = profile(label, program.clone(), &HsdConfig::table2(), None).expect("profile");
        for (frac, thresh) in [(0.25f64, 16u64), (0.10, 16), (0.25, 64), (0.50, 4)] {
            let cfg = PackConfig {
                hot_arc_fraction: frac,
                hot_arc_threshold: thresh,
                ..PackConfig::default()
            };
            let out = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
            t.row(vec![
                label.to_string(),
                format!("{frac:.2}/{thresh}"),
                pct(out.coverage),
                pct(out.expansion),
                out.packages.to_string(),
            ]);
        }
    }
    println!("{t}");
    bench::add_table(&mut mf, "ablation3_hot_arc", &t);
    bench::emit_manifest(mf);
}
