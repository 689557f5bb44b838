//! Replay-path throughput: the tracked perf baseline for the replay
//! kernels (`BENCH_15.json`).
//!
//! Measures events/sec for every stage of the capture/replay pipeline on
//! one real workload:
//!
//! * `execute` — interpret the program live (what a cache miss costs);
//! * `capture` — interpret once while recording the stream;
//! * `capture_fast` — the same recording on a sequential-heavy workload
//!   (gzip's long deflate loops), the shape the recorder's no-hash-probe
//!   straight-line append exists for;
//! * `replay_batched` — the one replay entry point
//!   (`CapturedTrace::replay`) into the `InstCounts` counting sink: the
//!   decode loop with an inlined consumer. The key is kept from the
//!   chunked kernel this row measured until `BENCH_12`, so the history
//!   trend and dashboard series stay continuous;
//! * `replay_sim` — replay into the timing model with its pipeline state
//!   hoisted (`TimingModel::replay_trace`, one `TimingRun`), the heaviest
//!   real consumer;
//! * `replay_hsd` — replay into the hot-spot detector (the profiling-side
//!   consumer);
//! * `replay_diff` — differential replay of the trace against itself
//!   (`diff_traces`): the packed side pushed into a `Differ`, the original
//!   side pulled a chunk of visits at a time, counted as both streams'
//!   events per second;
//! * `replay_measure` — one packed-side measurement as the harness runs
//!   it: a single replay into the coverage counts, a `TimingRun` and a
//!   `Differ` against the trace itself, counted as both streams' events
//!   per second;
//! * `disk_load` — bring a v3 `.vptrace` back from the disk tier on the
//!   default path (memory-mapped zero-copy where supported, owned read
//!   otherwise), CRC verified either way;
//! * `disk_load_mmap` / `disk_load_owned` — the same load with the path
//!   forced, so the zero-copy win is measured against the read+copy
//!   fallback side by side.
//!
//! Knobs (on top of the usual `VP_BENCH_MS`/`VP_BENCH_SAMPLES`):
//!
//! * `VP_BENCH_JSON=<path>` — write the measurements as a JSON baseline
//!   (the file committed as `BENCH_15.json`);
//! * `VP_BENCH_BASELINE=<path>` — compare against a committed baseline
//!   and exit non-zero if replay throughput, *normalized to re-execution
//!   measured in the same run* (`replay_speedup_vs_execute`, so host speed
//!   cancels), regressed more than 25%, or if replay no longer beats
//!   re-execution at all;
//! * `VP_HISTORY_DIR=<dir>` — ingest this run into the run-history
//!   warehouse, and when it already holds enough runs
//!   (`bench::history::GATE_MIN_SAMPLES`), gate the ratio against the
//!   median±3·MAD tolerance band of the last K warehoused runs instead
//!   of the single committed baseline.

use bench::history::{RunRecord, REPLAY_SPEEDUP};
use std::io::Write;
use vacuum_packing::exec::{
    diff_traces, CapturedTrace, DiffOptions, Differ, DiskTier, Executor, IdentityMap, InstCounts,
    RunConfig, TraceKey,
};
use vacuum_packing::hsd::{HotSpotDetector, HsdConfig};
use vacuum_packing::program::Layout;
use vacuum_packing::sim::{MachineConfig, TimingModel};

/// Maximum tolerated drop of the normalized replay throughput before the
/// baseline check fails (CI gate).
const MAX_REGRESSION: f64 = 0.25;

/// Hard floor of `replay_speedup_vs_execute`: replay must beat
/// re-execution, whatever the baseline or band allows.
const HARD_FLOOR: f64 = 1.0;

fn events_per_sec(results: &[bench::micro::BenchResult], name: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.name == name)
        .and_then(|r| r.elems.map(|e| e as f64 * 1e9 / r.ns_per_iter))
}

fn main() {
    let workload = "300.twolf";
    let program = vacuum_packing::workloads::twolf::build(bench::scale());
    let layout = Layout::natural(&program);
    let cfg = RunConfig::default();
    let trace = CapturedTrace::capture(&program, &layout, &cfg).unwrap();
    let events = trace.events();
    println!(
        "captured {events} retired instructions in {} bytes ({:.2} B/inst)",
        trace.bytes(),
        trace.bytes() as f64 / events as f64
    );

    // A throwaway disk tier: measures v3 image size and warm-load cost.
    let dir = std::env::temp_dir().join(format!("vp-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::new(&dir, u64::MAX).expect("temp disk tier");
    let key = TraceKey::new(workload, &program, &layout, &cfg);
    tier.store(&key, &trace).expect("persist trace");
    let trace_v3_bytes = tier.resident_bytes();
    println!(
        "v3 .vptrace image: {trace_v3_bytes} bytes ({:.2} B/inst)",
        trace_v3_bytes as f64 / events as f64
    );

    let machine = MachineConfig::table2();
    let mut r = bench::micro::runner();
    r.bench_throughput("retire_stream/execute", events, || {
        let mut counts = InstCounts::new();
        Executor::new(&program, &layout)
            .run(&mut counts, &cfg)
            .unwrap();
        counts.total
    });
    r.bench_throughput("retire_stream/capture", events, || {
        CapturedTrace::capture(&program, &layout, &cfg)
            .unwrap()
            .events()
    });
    // twolf above is the branch-dense adversarial capture; gzip is the
    // sequential-heavy shape where the recorder's straight-line append
    // (no per-event hash probe) dominates.
    let gzip = vacuum_packing::workloads::gzip::build(bench::scale());
    let gzip_layout = Layout::natural(&gzip);
    let gzip_trace = CapturedTrace::capture(&gzip, &gzip_layout, &cfg).unwrap();
    let gzip_events = gzip_trace.events();
    println!(
        "capture_fast workload (gzip): {gzip_events} retired instructions, \
         {:.2} B/inst (straight-line events are 1 byte)",
        gzip_trace.bytes() as f64 / gzip_events as f64
    );
    drop(gzip_trace);
    r.bench_throughput("retire_stream/capture_fast", gzip_events, || {
        CapturedTrace::capture(&gzip, &gzip_layout, &cfg)
            .unwrap()
            .events()
    });
    r.bench_throughput("retire_stream/replay_batched", events, || {
        let mut counts = InstCounts::new();
        trace.replay(&mut counts);
        counts.total
    });
    r.bench_throughput("retire_stream/replay_sim", events, || {
        let mut tm = TimingModel::new(machine);
        tm.replay_trace(&trace);
        tm.cycles()
    });
    r.bench_throughput("retire_stream/replay_hsd", events, || {
        let mut hsd = HotSpotDetector::new(HsdConfig::table2());
        trace.replay(&mut hsd);
        hsd.branches_retired()
    });
    // Differential replay of the trace against itself: both visit
    // streams decode and fold in lockstep, so each iteration processes
    // every event twice and the row counts both streams' events.
    r.bench_throughput("retire_stream/replay_diff", 2 * events, || {
        diff_traces(&trace, &trace, &IdentityMap::new(), &DiffOptions::default()).aligned_visits
    });
    // The harness's measurement of a packed binary: one replay feeding
    // coverage counts, the timing model and the differ together.
    r.bench_throughput("retire_stream/replay_measure", 2 * events, || {
        let (mut counts, mut tm) = (InstCounts::new(), TimingModel::new(machine));
        let mut differ = Differ::new(&trace, &IdentityMap::new(), &DiffOptions::default());
        let stats = trace.replay(&mut (&mut counts, tm.run(), &mut differ));
        differ.finish(stats.stop).aligned_visits + tm.cycles() + counts.total
    });
    r.bench_throughput("retire_stream/disk_load", events, || {
        tier.load(&key).expect("warm load").events()
    });
    r.bench_throughput("retire_stream/disk_load_mmap", events, || {
        tier.load_with(&key, true)
            .expect("warm mapped load")
            .events()
    });
    r.bench_throughput("retire_stream/disk_load_owned", events, || {
        tier.load_with(&key, false)
            .expect("warm owned load")
            .events()
    });

    let names = [
        "execute",
        "capture",
        "capture_fast",
        "replay_batched",
        "replay_sim",
        "replay_hsd",
        "replay_diff",
        "replay_measure",
        "disk_load",
        "disk_load_mmap",
        "disk_load_owned",
    ];
    let eps: Vec<(&str, Option<f64>)> = names
        .iter()
        .map(|n| {
            (
                *n,
                events_per_sec(r.results(), &format!("retire_stream/{n}")),
            )
        })
        .collect();
    // ------------------------------------------------- JSON baseline out
    // The body is built unconditionally: VP_BENCH_JSON writes it to a
    // file, VP_HISTORY_DIR ingests it into the run-history warehouse.
    let body = {
        let mut body = String::new();
        body.push_str("{\n");
        body.push_str("  \"schema\": \"vp-bench/1\",\n");
        body.push_str("  \"bench\": \"replay_throughput\",\n");
        body.push_str(&format!("  \"workload\": \"{workload}\",\n"));
        body.push_str(&format!("  \"scale\": {},\n", bench::scale()));
        body.push_str(&format!("  \"events\": {events},\n"));
        body.push_str(&format!("  \"trace_v3_bytes\": {trace_v3_bytes},\n"));
        body.push_str("  \"events_per_sec\": {\n");
        for (i, (name, v)) in eps.iter().enumerate() {
            let comma = if i + 1 == eps.len() { "" } else { "," };
            body.push_str(&format!("    \"{name}\": {:.0}{comma}\n", v.unwrap_or(0.0)));
        }
        body.push_str("  }\n");
        body.push_str("}\n");
        body
    };
    if let Ok(path) = std::env::var("VP_BENCH_JSON") {
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .unwrap_or_else(|e| panic!("VP_BENCH_JSON={path}: {e}"));
        println!("wrote {path}");
    }

    // Warehouse: read history for the band gate first, then ingest this
    // run (so a run never gates against itself).
    let warehouse = bench::history::dir_from_env().and_then(|dir| {
        bench::history::Warehouse::open(&dir)
            .map_err(|e| eprintln!("VP_HISTORY_DIR={}: {e}", dir.display()))
            .ok()
    });
    let hist_records = warehouse
        .as_ref()
        .and_then(|w| w.records().ok())
        .unwrap_or_default();

    // --------------------------------------------- baseline check (CI)
    // Absolute events/sec depends on the host; the gate compares the
    // replay/execute ratio, which is measured inside a single run on both
    // sides and so cancels machine speed (derived by
    // `RunRecord::from_bench_json`, like for every committed baseline).
    // With enough warehoused history the floor is the median −
    // max(3·MAD, 10%) band of the last K runs; otherwise the committed
    // baseline's single value − 25%. Either way it is at least
    // `HARD_FLOOR`.
    let ratio_of = |text: &str| {
        RunRecord::from_bench_json(text, "replay", 0)
            .ok()
            .and_then(|rec| rec.metrics.get(REPLAY_SPEEDUP).copied())
    };
    let current = ratio_of(&body).unwrap_or(0.0);
    println!("replay/execute: {current:.2}x");
    let spec = format!("metric:{REPLAY_SPEEDUP}");
    let baseline = std::env::var("VP_BENCH_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("VP_BENCH_BASELINE={path}: {e}"));
        (path, ratio_of(&text))
    });
    let floor = if let Some(band) = bench::history::gate_band(&hist_records, &spec) {
        use bench::history::{GATE_K, GATE_MIN_REL};
        let floor = band.floor(GATE_K, GATE_MIN_REL);
        println!(
            "history gate replay/execute: median {:.2}x of last {} runs (floor {floor:.2}x)",
            band.median, band.n
        );
        Some(floor)
    } else {
        match &baseline {
            Some((path, None)) => {
                println!("baseline {path} lacks {REPLAY_SPEEDUP}; hard floor only");
                Some(HARD_FLOOR)
            }
            Some((_, Some(base))) => {
                let floor = base * (1.0 - MAX_REGRESSION);
                println!("baseline check replay/execute: committed {base:.2}x (floor {floor:.2}x)");
                Some(floor)
            }
            None => None,
        }
    };
    let failed = floor.is_some_and(|floor| {
        let floor = floor.max(HARD_FLOOR);
        let ok = current >= floor;
        println!(
            "replay/execute gate: current {current:.2}x vs floor {floor:.2}x ... {}",
            if ok { "ok" } else { "FAIL" }
        );
        !ok
    });

    // ------------------------------------------- warehouse ingest (last)
    if let Some(w) = &warehouse {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        match RunRecord::from_bench_json(&body, "replay", ts)
            .map_err(std::io::Error::other)
            .and_then(|rec| w.ingest(&rec))
        {
            Ok(()) => println!("warehoused this run under {}", w.dir().display()),
            Err(e) => eprintln!("warehouse ingest failed: {e}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    r.finish("bench:replay");
    if failed {
        eprintln!("replay/execute throughput ratio fell below its gate floor");
        std::process::exit(1);
    }
}
