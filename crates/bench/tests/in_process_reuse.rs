//! Reuse across the sweeps of one process: a `cross_cells` call after a
//! `sweep_cells` call answers profiles from the process-wide profile
//! memo, resolves its same-input cell as a twin of the sweep's claim, and
//! still prints exactly what a process running the cross matrix alone
//! prints. A leader whose measurement fails leaves no claim behind for
//! the next sweep to trip over.
//!
//! One test, because it reads process-wide counters and span totals.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

use bench::cross::{cross_cells, render_cross_report};
use bench::sweep::sweep_cells;
use vacuum_packing::core::PackConfig;
use vacuum_packing::exec::{CapturedTrace, DiffMode, RunConfig};
use vacuum_packing::isa::Reg;
use vacuum_packing::metrics::{BranchCounts, ClaimTable, ProfiledWorkload};
use vacuum_packing::opt::OptConfig;
use vacuum_packing::program::{Layout, ProgramBuilder};
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::{suite, Workload};

/// Process-wide counter totals plus span counts (as `span:NAME`).
fn totals() -> BTreeMap<String, u64> {
    let mut t = vp_trace::counters_snapshot();
    for (name, (count, _)) in vp_trace::spans_snapshot() {
        t.insert(format!("span:{name}"), count);
    }
    t
}

/// What `name` grew by between two [`totals`].
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

fn workload(label: &str) -> Workload {
    suite(1)
        .into_iter()
        .find(|w| w.label() == label)
        .expect("suite workload")
}

/// `sweep cross` run alone in a fresh process: its stdout and the
/// counters of its manifest.
fn cross_alone(args: &[&str]) -> (String, BTreeMap<String, u64>) {
    let mf_path =
        std::env::temp_dir().join(format!("vpreuse-test-{}-cross.jsonl", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("VP_")) {
        cmd.env_remove(var);
    }
    let out = cmd
        .env("VP_SCALE", "1")
        .env("VP_TRACE", format!("json:{}", mf_path.display()))
        .arg("cross")
        .args(args)
        .output()
        .expect("spawn sweep binary");
    assert!(
        out.status.success(),
        "sweep cross failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mf = std::fs::read_to_string(&mf_path).expect("manifest written");
    let _ = std::fs::remove_file(&mf_path);
    let line = mf
        .lines()
        .find(|l| l.contains("\"t\":\"manifest\""))
        .expect("manifest line");
    let m = vp_trace::parse_manifest_line(line).expect("parsable manifest");
    let counters = ["diff.runs", "metrics.evaluate.shared"]
        .into_iter()
        .map(|name| {
            let v = m
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(vp_trace::Json::as_u64)
                .unwrap_or(0);
            (name.to_string(), v)
        })
        .collect();
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        counters,
    )
}

#[test]
fn cross_after_sweep_reuses_profiles_and_claims() {
    // The defaults, as the subprocess gets them: no result cache, a
    // memory tier that holds the captures, no profile substitution.
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("VP_")) {
        std::env::remove_var(var);
    }
    std::env::set_var("VP_SCALE", "1");
    vp_trace::install(Arc::new(vp_trace::MemorySink::new()));
    let machine = MachineConfig::table2();

    let sweep = sweep_cells(
        None,
        Some(&machine),
        &["132.ijpeg A".to_string(), "132.ijpeg C".to_string()],
    );
    assert_eq!(sweep.rows.len(), 8);

    let before = totals();
    let cross = cross_cells(
        Some(&machine),
        &["132.ijpeg".to_string()],
        &["C".to_string()],
        &[],
    );
    let after = totals();
    assert_eq!(cross.rows.len(), 4, "C under A, B, C and merged");
    // A and C come from the memo; only B is profiled.
    assert_eq!(delta(&before, &after, "span:metrics.profile.run"), 1);
    assert_eq!(delta(&before, &after, "bench.profile.reused"), 2);

    // Same rows as a process that runs the cross matrix alone, where the
    // same-input cell measures its binary instead of sharing the sweep's.
    let (alone, alone_counters) = cross_alone(&["--timing", "--only", "132.ijpeg", "--eval", "C"]);
    assert_eq!(render_cross_report(&cross.rows), alone);
    let runs = delta(&before, &after, "diff.runs");
    let shared = delta(&before, &after, "metrics.evaluate.shared");
    assert_eq!(
        runs + shared,
        4,
        "every cross cell is diffed or shared once"
    );
    assert_eq!(runs + 1, alone_counters["diff.runs"], "C <- C is a twin");
    assert_eq!(shared, alone_counters["metrics.evaluate.shared"] + 1);

    // B was profiled untimed: the memo answers an untimed request for it
    // but not a timed one; C's entry from the sweep is timed.
    let t0 = totals();
    let b = bench::profile_workloads(vec![workload("132.ijpeg B")], None);
    let t1 = totals();
    assert!(b[0].base_cycles.is_none());
    assert_eq!(delta(&t0, &t1, "span:metrics.profile.run"), 0);
    let c = bench::profile_workloads(vec![workload("132.ijpeg C")], Some(&machine));
    let t2 = totals();
    assert!(c[0].base_cycles.is_some());
    assert_eq!(delta(&t1, &t2, "span:metrics.profile.run"), 0);
    let b = bench::profile_workloads(vec![workload("132.ijpeg B")], Some(&machine));
    let t3 = totals();
    assert!(b[0].base_cycles.is_some());
    assert_eq!(delta(&t2, &t3, "span:metrics.profile.run"), 1);

    // A leader that fails before publishing: a program returning from its
    // entry function cannot run. Its claim is dropped as it unwinds, so
    // the next sweep's cell measures again instead of failing as a twin
    // of the dead claim.
    let mut pb = ProgramBuilder::new();
    pb.func("main", |f| {
        f.li(Reg::int(8), 1);
        f.ret();
    });
    let bad = pb.build();
    let mut pb = ProgramBuilder::new();
    pb.func("main", |f| f.halt());
    let good = pb.build();
    let good_layout = Layout::natural(&good);
    let trace = CapturedTrace::capture(&good, &good_layout, &RunConfig::default()).unwrap();
    let pw = ProfiledWorkload {
        label: "returns from main".to_string(),
        layout: Layout::natural(&bad),
        program: bad,
        phases: Vec::new(),
        branch_counts: BranchCounts::new(),
        dyn_insts: 0,
        base_cycles: None,
        raw_detections: 0,
        trace: Arc::new(trace),
    };
    let table = ClaimTable::shared(&OptConfig::default(), None, DiffMode::Report);
    for sweep in 0..2 {
        let (result, report) = vp_trace::scoped(|| table.evaluate(&pw, &PackConfig::default()));
        assert!(
            result.is_err(),
            "sweep {sweep}: the packed run cannot execute"
        );
        assert!(
            report.has_span("metrics.evaluate.measure"),
            "sweep {sweep} measures"
        );
        assert_eq!(
            report.counter("metrics.evaluate.shared"),
            0,
            "sweep {sweep}"
        );
    }
}
