//! End-to-end tests of `sweep cross`: the generalization report must be
//! byte-identical across runs (the merge algebra and the cell schedule
//! are both deterministic), strict differential replay must hold for
//! every cell kind, and the merge knob and the filters must hard-reject
//! typos instead of silently measuring the wrong matrix.
//!
//! Each test drives the real binary via `CARGO_BIN_EXE_sweep`,
//! restricted with `--only`/`--eval` filters so debug-mode runtimes stay
//! small.

use std::process::{Command, Output};

/// Runs the sweep binary with a scrubbed environment: no inherited
/// `VP_*` knobs, everything only as given in `envs`.
fn sweep(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    for var in [
        "VP_SHARD",
        "VP_TRACE",
        "VP_TRACE_DIR",
        "VP_TRACE_DISK_MB",
        "VP_DIFF",
        "VP_MERGE_WEIGHT",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("VP_SCALE", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.args(args).output().expect("spawn sweep binary")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "sweep failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn strict_cross_report_is_byte_identical_across_runs() {
    let args = ["cross", "--only", "130.li"];
    let envs = [("VP_DIFF", "strict")];
    let first = stdout(&sweep(&args, &envs));
    // The second run also traces, which must not change the report, and
    // runs two workers, so a twin cell may finish before its leader.
    let mf_path =
        std::env::temp_dir().join(format!("vpcross-test-{}-strict.jsonl", std::process::id()));
    let spec = format!("json:{}", mf_path.display());
    let second = stdout(&sweep(
        &["cross", "--jobs", "2", "--only", "130.li"],
        &[("VP_DIFF", "strict"), ("VP_TRACE", spec.as_str())],
    ));
    assert_eq!(
        first, second,
        "two cross runs over the same family must print the identical report"
    );

    // Cells whose packed binaries are equal share one measurement, and
    // every cell is counted once: diffed, or resolved from a twin.
    let mf = std::fs::read_to_string(&mf_path).expect("manifest written");
    let _ = std::fs::remove_file(&mf_path);
    let line = mf
        .lines()
        .find(|l| l.contains("\"t\":\"manifest\""))
        .expect("manifest line");
    let m = vp_trace::parse_manifest_line(line).expect("parsable manifest");
    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(vp_trace::Json::as_u64)
            .unwrap_or(0)
    };
    let (diffed, shared) = (counter("diff.runs"), counter("metrics.evaluate.shared"));
    assert_eq!(diffed + shared, 12, "diff.runs {diffed} + shared {shared}");
    assert!(shared > 0, "130.li has twin cells");

    // The full 130.li matrix: 3 eval inputs x (3 sources + merged).
    assert!(
        first.contains("1 families, 12 cells, 0 divergences"),
        "{first}"
    );
    for kind in ["same", "foreign", "merged"] {
        assert!(
            first.contains(&format!("{kind:>8}: avg coverage")),
            "{first}"
        );
    }
    // Retention lines exist for the derived kinds only.
    assert_eq!(first.matches("% of same)").count(), 2, "{first}");
    // Every cell survived strict differential replay.
    assert_eq!(first.matches(" clean").count(), 12, "{first}");
    assert!(!first.contains("diverged  "), "{first}");
}

#[test]
fn uniform_weighting_changes_nothing_about_determinism() {
    let args = [
        "cross", "--only", "130.li", "--eval", "B", "--from", "merged",
    ];
    let retired = stdout(&sweep(&args, &[]));
    let uniform = stdout(&sweep(&args, &[("VP_MERGE_WEIGHT", "uniform")]));
    for report in [&retired, &uniform] {
        assert!(report.contains("1 families, 1 cells"), "{report}");
        assert!(report.contains("merged"), "{report}");
    }
}

#[test]
fn typoed_knobs_are_hard_errors() {
    // An unknown merge weighting must refuse to run rather than silently
    // measure under the default one.
    let out = sweep(
        &[
            "cross", "--only", "130.li", "--eval", "B", "--from", "merged",
        ],
        &[("VP_MERGE_WEIGHT", "bogus")],
    );
    assert!(
        !out.status.success(),
        "VP_MERGE_WEIGHT=bogus must be rejected"
    );
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("VP_MERGE_WEIGHT"), "{err}");

    // And filters that match no cell.
    let out = sweep(&["cross", "--only", "no-such-family"], &[]);
    assert!(!out.status.success(), "empty cross matrix must be an error");
}
