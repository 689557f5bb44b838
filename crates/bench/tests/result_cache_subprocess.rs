//! End-to-end tests of the evaluation result cache: a warm strict sweep
//! must print the *byte-identical* report of a cold one at any `--jobs`
//! count — while doing zero replays, simulations, or profile runs for
//! the cached cells — and a run without `VP_RESULT_DIR` must match both.
//!
//! Each test drives the real binary via `CARGO_BIN_EXE_sweep` with a
//! scrubbed environment and its own cache directory, restricted with
//! `--only` filters so debug-mode runtimes stay small.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

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
        "VP_RESULT_DIR",
        "VP_RESULT_MB",
        "VP_HISTORY_DIR",
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

fn tempdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vp-rc-e2e-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `sweep` manifest line of a run traced to `path`, parsed as JSON
/// text (asserted on by substring — the manifest is JSONL).
fn manifest_line(path: &std::path::Path) -> String {
    let contents = std::fs::read_to_string(path).expect("manifest written");
    contents
        .lines()
        .find(|l| l.contains("\"bin\":\"sweep\"") || l.contains("\"bin\": \"sweep\""))
        .unwrap_or_else(|| panic!("no sweep manifest line in {contents}"))
        .to_string()
}

#[test]
fn warm_sweep_is_byte_identical_and_skips_all_work() {
    let dir = tempdir("sweep");
    let cache = dir.to_str().unwrap();
    let args = ["--only", "130.li", "--timing"];

    // No-cache reference first: the cache must never change the report.
    let uncached = stdout(&sweep(&args, &[]));

    let cold_mf = dir.join("cold.jsonl");
    let cold = stdout(&sweep(
        &args,
        &[
            ("VP_RESULT_DIR", cache),
            ("VP_TRACE", &format!("json:{}", cold_mf.display())),
        ],
    ));
    assert_eq!(uncached, cold, "a cold cached run must match no-cache");
    let cold_line = manifest_line(&cold_mf);
    assert!(
        cold_line.contains("\"result_cache\":{\"hits\":0,\"misses\":12"),
        "cold run must report 12 misses: {cold_line}"
    );

    let warm_mf = dir.join("warm.jsonl");
    let warm = stdout(&sweep(
        &args,
        &[
            ("VP_RESULT_DIR", cache),
            ("VP_TRACE", &format!("json:{}", warm_mf.display())),
        ],
    ));
    assert_eq!(cold, warm, "warm report must be byte-identical to cold");

    // The warm run answered every cell from the cache and never touched
    // the executor: no live captures, no trace replays, no profiling.
    let warm_line = manifest_line(&warm_mf);
    assert!(
        warm_line.contains("\"result_cache\":{\"hits\":12,\"misses\":0,\"hit_ratio\":1}"),
        "warm run must report 12/12 hits: {warm_line}"
    );
    assert!(
        warm_line.contains("\"result_cache.hits\":12"),
        "warm counters must show 12 hits: {warm_line}"
    );
    for never in [
        "trace_store.captures",
        "trace_store.replays",
        "hsd.",
        "core.identify",
        "metrics.evaluate",
    ] {
        assert!(
            !warm_line.contains(never),
            "warm run must not record {never}: {warm_line}"
        );
    }

    // Parallelism must not change a warm report either.
    let warm8 = stdout(&sweep(
        &["--only", "130.li", "--timing", "--jobs", "8"],
        &[("VP_RESULT_DIR", cache)],
    ));
    assert_eq!(cold, warm8, "--jobs 8 warm report must match");
}

#[test]
fn warm_cross_is_byte_identical_and_never_profiles() {
    let dir = tempdir("cross");
    let cache = dir.to_str().unwrap();
    let args = ["cross", "--only", "130.li", "--timing"];

    let uncached = stdout(&sweep(&args, &[]));
    let cold = stdout(&sweep(&args, &[("VP_RESULT_DIR", cache)]));
    assert_eq!(uncached, cold, "a cold cached cross must match no-cache");

    let warm_mf = dir.join("warm.jsonl");
    let warm = stdout(&sweep(
        &args,
        &[
            ("VP_RESULT_DIR", cache),
            ("VP_TRACE", &format!("json:{}", warm_mf.display())),
        ],
    ));
    assert_eq!(cold, warm, "warm cross report must be byte-identical");
    let warm_line = manifest_line(&warm_mf);
    assert!(
        warm_line.contains("\"result_cache\":{\"hits\":12,\"misses\":0,\"hit_ratio\":1}"),
        "warm cross must report 12/12 hits: {warm_line}"
    );
    assert!(
        !warm_line.contains("\"trace_store.captures\""),
        "warm cross must not capture: {warm_line}"
    );
    assert!(
        !warm_line.contains("\"profile.merge.resolves\""),
        "fully-cached family must not resolve a merged profile: {warm_line}"
    );
}

#[test]
fn a_stray_diff_knob_is_ignored() {
    let dir = tempdir("knobs");
    let cache = dir.to_str().unwrap();
    let args = ["--only", "130.li", "--timing"];

    let cold = stdout(&sweep(&args, &[("VP_RESULT_DIR", cache)]));

    // Every packed run is strict-checked and the retired diff-mode knob
    // is read by nothing: setting it leaves the config fingerprint alone,
    // so a warm rerun serves every cell and renders the same verdicts.
    let mf = dir.join("stray-knob.jsonl");
    let warm = stdout(&sweep(
        &args,
        &[
            ("VP_DIFF", "off"),
            ("VP_RESULT_DIR", cache),
            ("VP_TRACE", &format!("json:{}", mf.display())),
        ],
    ));
    assert_eq!(cold, warm, "a stray knob must not change the report");
    let line = manifest_line(&mf);
    assert!(
        line.contains("\"result_cache\":{\"hits\":12,\"misses\":0,"),
        "a stray knob must hit every cell: {line}"
    );
    let clean = warm.lines().filter(|l| l.ends_with("  clean")).count();
    assert_eq!(clean, 12, "every cell renders clean:\n{warm}");
}

#[test]
fn one_result_dir_serves_both_drivers() {
    // The sweep and cross cell lists share one engine and one result
    // dir; their keys must never collide (130.li's inf/link sweep cells
    // and its same-input cross cells pack the identical binary).
    let dir = tempdir("both");
    let cache = dir.to_str().unwrap();
    let sweep_args = ["--only", "130.li"];
    let cross_args = ["cross", "--only", "130.li"];
    let envs = [("VP_RESULT_DIR", cache)];
    let cold_sweep = stdout(&sweep(&sweep_args, &envs));
    let cold_cross = stdout(&sweep(&cross_args, &envs));

    for (args, cold, cells) in [
        (&sweep_args[..], &cold_sweep, 12),
        (&cross_args[..], &cold_cross, 12),
    ] {
        let mf = dir.join(format!("warm-{}.jsonl", args[0]));
        let spec = format!("json:{}", mf.display());
        let warm = stdout(&sweep(
            args,
            &[("VP_RESULT_DIR", cache), ("VP_TRACE", spec.as_str())],
        ));
        assert_eq!(cold, &warm, "{args:?}: warm report must be byte-identical");
        let line = manifest_line(&mf);
        assert!(
            line.contains(&format!(
                "\"result_cache\":{{\"hits\":{cells},\"misses\":0,"
            )),
            "{args:?}: every cell must hit: {line}"
        );
    }
}
