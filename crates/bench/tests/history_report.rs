//! The warehouse side channel must be invisible to the report: a strict
//! sweep with `VP_HISTORY_DIR` set prints byte-identically to one without
//! it, while still warehousing the run's manifest.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vphist-report-{}-{tag}", std::process::id()))
}

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
        "VP_THREADS",
        "VP_HISTORY_DIR",
        "VP_HISTORY_MB",
        "VP_FLIGHT_EVENTS",
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
fn history_leaves_the_strict_report_byte_identical() {
    let args = ["--only", "gzip"];
    let plain = stdout(&sweep(&args, &[("VP_DIFF", "strict")]));
    assert!(plain.contains("Sweep report"), "{plain}");

    let hist = tmp_path("warehouse");
    let _ = std::fs::remove_dir_all(&hist);
    let warehoused = stdout(&sweep(
        &args,
        &[
            ("VP_DIFF", "strict"),
            ("VP_HISTORY_DIR", hist.to_str().unwrap()),
        ],
    ));
    assert_eq!(
        warehoused, plain,
        "the warehouse side channel must never change the report"
    );

    // ... while the warehouse actually captured the run.
    let w = bench::history::Warehouse::open(&hist).expect("warehouse opens");
    let records = w.records().expect("warehouse readable");
    assert_eq!(records.len(), 1, "end-of-run manifest must be warehoused");
    assert_eq!(records[0].bin, "sweep");

    let _ = std::fs::remove_dir_all(&hist);
}
