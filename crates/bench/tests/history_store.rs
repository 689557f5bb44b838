//! Run-history warehouse contracts: a `vp-manifest/2` line ingests to its
//! record core (and the unwritten `/1` schema is refused), and segment
//! rotation under a tiny byte budget must drop the oldest history while
//! keeping the index consistent.

use bench::history::{RunRecord, Warehouse};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vphist-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The record core of a manifest line.
const CORE: &str = r#""bin":"sweep","mode":"table3","scale":2,"shard":"0/2",
    "only":["gzip","vortex"],"cells_done":8,
    "counters":{"trace_store.hits":41,"diff.divergences":0},
    "spans":{"bench.sweep_cells":{"ms":120.5,"count":1}},
    "histograms":{"pack.sizes":{"count":4,"sum":100,"p50":25}}"#;

fn line(schema: &str) -> String {
    format!(
        r#"{{"t":"manifest","schema":"{schema}",{CORE},"duration_ms":345.6,"seq":17,
        "flight":{{"capacity":256,"recorded":3,"dropped":0}}}}"#
    )
    .replace('\n', "")
}

#[test]
fn v2_manifest_ingests_to_its_record_core() {
    let rec = RunRecord::from_manifest_line(&line("vp-manifest/2"), 100).expect("v2 parses");
    assert_eq!(rec.bin, "sweep");
    assert_eq!(rec.workload, "gzip+vortex");
    assert_eq!(rec.counters["trace_store.hits"], 41);
    assert_eq!(rec.metrics["cells_done"], 8.0);
    assert_eq!(rec.duration_ms, Some(345.6));
    assert!(
        RunRecord::from_manifest_line(&line("vp-manifest/1"), 100).is_err(),
        "nothing writes /1 any more"
    );

    // Round-trip through the warehouse keeps the record.
    let dir = tmp_dir("parity");
    let w = Warehouse::open(&dir).expect("open warehouse");
    w.ingest_manifest_line(&line("vp-manifest/2"))
        .expect("ingest /2");
    let records = w.records().expect("read back");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].counters, rec.counters);
    assert_eq!(records[0].spans, rec.spans);
    assert_eq!(records[0].fingerprint(), rec.fingerprint());
    assert_eq!(w.index().expect("index").len(), 1, "one index entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_budget_rotates_segments_and_drops_oldest_history() {
    let dir = tmp_dir("rotate");
    // 8 KiB budget → 4096-byte segment cap (the floor). Each record is
    // padded well past trivial size so a handful of runs force rotation.
    let w = Warehouse::open_with_budget(&dir, 8 * 1024).expect("open warehouse");
    let rec = |i: u64| RunRecord {
        ts: i,
        bin: "sweep".to_string(),
        label: format!("run-{i:04}-{}", "x".repeat(400)),
        config: "mode=test".to_string(),
        workload: "gzip".to_string(),
        ..RunRecord::default()
    };
    for i in 0..40 {
        w.ingest(&rec(i)).expect("ingest");
    }

    let segs = w.segments().expect("segments");
    assert!(
        segs.len() > 1,
        "40 ~450-byte records cannot fit one 4 KiB segment: {segs:?}"
    );
    assert!(
        w.total_bytes().expect("sizes") <= 8 * 1024,
        "rotation must keep the store inside its byte budget"
    );

    let records = w.records().expect("records");
    assert!(!records.is_empty());
    let kept_ts: Vec<u64> = records.iter().map(|r| r.ts).collect();
    assert!(
        !kept_ts.contains(&0),
        "the oldest run must be rotated out first"
    );
    assert!(
        kept_ts.contains(&39),
        "the newest run always survives rotation"
    );
    assert!(
        kept_ts.windows(2).all(|p| p[0] < p[1]),
        "records stay in append order across segments: {kept_ts:?}"
    );

    // Index consistency: entries reference only live segments, and every
    // retained record has exactly one entry.
    let live: Vec<String> = segs
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let index = w.index().expect("index");
    assert_eq!(
        index.len(),
        records.len(),
        "index must shrink with the rotated-out segments"
    );
    for e in &index {
        assert!(
            live.contains(&e.seg),
            "index entry points at deleted segment {}",
            e.seg
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sweep history gate --lower X` is an absolute floor: it fails a
/// breaching value even with no warehouse at all (where the band gate
/// would refuse to run), and passes a clearing value on floor alone.
#[test]
fn gate_hard_floor_works_without_any_history() {
    let gate = |value: &str| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"));
        cmd.env_remove("VP_HISTORY_DIR");
        cmd.args([
            "history",
            "gate",
            "metric:replay_speedup_vs_execute",
            "--value",
            value,
            "--lower",
            "1.0",
        ]);
        cmd.output().expect("spawn sweep binary")
    };

    let breach = gate("0.91");
    assert_eq!(breach.status.code(), Some(1), "0.91 must breach floor 1.0");
    assert!(String::from_utf8_lossy(&breach.stdout).contains("hard floor 1.0000 ... FAIL"));

    let clear = gate("1.24");
    assert_eq!(clear.status.code(), Some(0), "1.24 clears floor 1.0");
    let out = String::from_utf8_lossy(&clear.stdout);
    assert!(out.contains("hard floor 1.0000 ... ok"), "{out}");
    assert!(
        out.contains("no warehouse — hard floor only"),
        "without history the floor is the whole gate: {out}"
    );
}
