//! End-to-end tests of `sweep --jobs`: the work-stealing in-process
//! scheduler must never change what a sweep *prints* — an 8-worker run,
//! a 1-worker run, and the pre-existing sequential path (`VP_THREADS=1`,
//! no jobs knobs) must produce byte-identical reports, under strict
//! differential replay and for `sweep cross` too. Scheduling telemetry
//! (`sweep.jobs`, steals, utilization) lands in the manifest, not the
//! report, which is what keeps this property cheap to hold.
//!
//! The filters include `130.li A`, whose four cells all build the same
//! packed binary: one cell measures it and its three twins take that
//! measurement after the join, whichever worker ran which cell.
//!
//! Each test drives the real binary via `CARGO_BIN_EXE_sweep`,
//! restricted with `--only` filters so debug-mode runtimes stay small.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp_file(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "vpjobs-test-{}-{tag}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
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
        "VP_MERGE_WEIGHT",
        "VP_THREADS",
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

/// A manifest counter's total, 0 when it never fired.
fn manifest_counter(mf: &str, name: &str) -> u64 {
    let line = mf
        .lines()
        .find(|l| l.contains("\"t\":\"manifest\""))
        .expect("manifest line");
    let m = vp_trace::parse_manifest_line(line).expect("parsable manifest");
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(vp_trace::Json::as_u64)
        .unwrap_or(0)
}

const ONLY: [&str; 4] = ["--only", "gzip", "--only", "130.li A"];

fn with_jobs(jobs: &'static str) -> Vec<&'static str> {
    let mut args = vec!["--jobs", jobs];
    args.extend(ONLY);
    args
}

#[test]
fn jobs_count_never_changes_the_strict_sweep_report() {
    let args = ONLY;
    let sequential = stdout(&sweep(&args, &[("VP_THREADS", "1")]));
    let one = stdout(&sweep(&with_jobs("1"), &[]));
    let eight = stdout(&sweep(&with_jobs("8"), &[]));
    assert!(sequential.contains("Sweep report"), "{sequential}");
    assert_eq!(
        one, sequential,
        "--jobs 1 must reproduce the sequential report byte for byte"
    );
    assert_eq!(
        eight, sequential,
        "--jobs 8 must reproduce the sequential report byte for byte"
    );

    // The env-knob spelling of the same worker count is equivalent.
    let via_env = stdout(&sweep(&args, &[("VP_THREADS", "8")]));
    assert_eq!(via_env, sequential, "VP_THREADS=8 equals --jobs 8");
}

#[test]
fn jobs_count_never_changes_the_cross_report() {
    let args =
        |jobs: &'static str| vec!["cross", "--jobs", jobs, "--only", "130.li", "--eval", "A"];
    let one = stdout(&sweep(&args("1"), &[]));
    let eight = stdout(&sweep(&args("8"), &[]));
    assert!(one.contains("Cross-input"), "{one}");
    assert_eq!(
        eight, one,
        "cross report must be independent of the worker count"
    );
}

#[test]
fn parallel_manifest_stamps_scheduler_telemetry() {
    let mf_path = tmp_file("sched");
    let spec = format!("json:{}", mf_path.display());
    let report = stdout(&sweep(&with_jobs("4"), &[("VP_TRACE", spec.as_str())]));
    let mf = std::fs::read_to_string(&mf_path).expect("manifest written");
    assert!(
        mf.contains("\"sweep\":{\"jobs\":4"),
        "manifest must stamp the sweep scheduler object with the worker count: {mf}"
    );
    for key in ["\"steals\":", "\"workers\":[", "\"utilization\":"] {
        assert!(mf.contains(key), "manifest lacks {key}: {mf}");
    }

    // Every cell is counted once: diffed, or resolved from a twin.
    assert!(report.contains("8 cells"), "{report}");
    let diffed = manifest_counter(&mf, "diff.runs");
    let shared = manifest_counter(&mf, "metrics.evaluate.shared");
    assert_eq!(diffed + shared, 8, "diff.runs {diffed} + shared {shared}");
    assert!(shared >= 3, "130.li A has three twin cells, got {shared}");
    let _ = std::fs::remove_file(&mf_path);
}

#[test]
fn jobs_composes_with_sharding() {
    // A sharded process with --jobs still runs only its own cells.
    let out = stdout(&sweep(
        &["--jobs", "2", "--only", "gzip"],
        &[("VP_SHARD", "0/2")],
    ));
    assert!(out.starts_with("shard 0/2:"), "{out}");
}

#[test]
fn malformed_jobs_is_a_hard_error() {
    for bad in [&["--jobs", "0"][..], &["--jobs", "x"], &["--jobs"]] {
        let mut args = bad.to_vec();
        args.extend(["--only", "gzip"]);
        let out = sweep(&args, &[]);
        assert!(
            !out.status.success(),
            "--jobs {bad:?} must be rejected, not silently ignored"
        );
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("--jobs"), "{err}");
    }
}
