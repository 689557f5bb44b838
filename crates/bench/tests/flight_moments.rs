//! The flight recorder keeps pipeline moments, not per-event traffic: a
//! strict sweep's ring holds one `diff.pkg_enter` per package per diff
//! run at most, so it never drops an event and the manifest tail still
//! shows the phase detections and package installs that explain a cell.
//!
//! 300.twolf A and 132.ijpeg A switch packages often enough that one
//! moment per switch (~115k events for the two) would overflow the
//! default 65536-slot ring. The test drives the real `sweep` binary via
//! `CARGO_BIN_EXE_sweep`.

use std::process::Command;
use vp_trace::Json;

#[test]
fn strict_sweep_records_moments_without_dropping_any() {
    let path = std::env::temp_dir().join(format!("vp-flight-moments-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    for var in [
        "VP_SHARD",
        "VP_TRACE_DIR",
        "VP_RESULT_DIR",
        "VP_THREADS",
        "VP_FLIGHT_EVENTS",
    ] {
        cmd.env_remove(var);
    }
    let out = cmd
        .env("VP_SCALE", "1")
        .env("VP_TRACE", format!("json:{}", path.display()))
        .args(["--only", "300.twolf A", "--only", "132.ijpeg A"])
        .output()
        .expect("spawn sweep binary");
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{report}");
    assert!(report.contains("8 cells, 0 divergences"), "{report}");

    // Phases and packages, summed over the report's cell rows.
    let (mut phases, mut packages) = (0u64, 0u64);
    for row in report.lines().filter(|l| l.ends_with("clean")) {
        let cols: Vec<&str> = row.split_whitespace().collect();
        let n = cols.len();
        phases += cols[n - 4].parse::<u64>().expect("phases column");
        packages += cols[n - 3].parse::<u64>().expect("packages column");
    }
    assert!(phases > 0 && packages > 0, "{report}");

    let jsonl = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let line = jsonl
        .lines()
        .find(|l| l.contains("\"t\":\"manifest\""))
        .expect("manifest line");
    let manifest = vp_trace::parse_manifest_line(line).expect("parsable manifest");
    let flight = manifest.get("flight").expect("flight object");
    let field = |k: &str| flight.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(field("dropped"), 0, "the ring dropped moments");
    let recorded = field("recorded");
    assert!(
        recorded <= 8 * (phases + packages),
        "{recorded} flight events for {phases} phases and {packages} packages"
    );

    let tail: Vec<&str> = flight
        .get("tail")
        .and_then(Json::as_arr)
        .expect("flight tail")
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    let count = |kind: &str| tail.iter().filter(|&&k| k == kind).count() as u64;
    assert_eq!(tail.len() as u64, recorded.min(256), "tail covers the run");
    assert!(count("hsd.detect") > 0, "{tail:?}");
    assert_eq!(count("metrics.pack"), 8, "one install moment per cell");
    assert!(
        count("diff.pkg_enter") <= packages,
        "at most one entry moment per package per diff run"
    );
}
