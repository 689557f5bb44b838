//! Capture/replay equivalence: a replayed [`CapturedTrace`] must be
//! indistinguishable from live execution for every consumer of the retired
//! stream — instruction counts, the Hot Spot Detector, and the timing
//! model — and the [`TraceStore`] cache must degrade to re-execution (not
//! wrong answers) under memory pressure.

use vacuum_packing::hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig};
use vacuum_packing::prelude::*;
use vacuum_packing::trace;
use vp_program::Program;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vptrace-it-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn three_workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("300.twolf", vacuum_packing::workloads::twolf::build(1)),
        ("164.gzip", vacuum_packing::workloads::gzip::build(1)),
        ("124.m88ksim", vacuum_packing::workloads::m88ksim::build(1)),
    ]
}

/// For three real workloads: one live run and one capture+replay must
/// produce *exactly* equal instruction counts, detector records, filtered
/// phases, and baseline cycle counts.
#[test]
fn replay_is_bit_equal_to_live_execution() {
    let cfg = RunConfig::default();
    let machine = MachineConfig::table2();
    for (name, program) in three_workloads() {
        let layout = Layout::natural(&program);

        // Live: interpret the program, fanning out to all three consumers.
        let mut live_hsd = HotSpotDetector::new(HsdConfig::table2());
        let mut live_counts = InstCounts::new();
        let mut live_timing = TimingModel::new(machine);
        let live_stats = Executor::new(&program, &layout)
            .run(
                &mut (&mut live_hsd, &mut live_counts, live_timing.run()),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{name}: live run failed: {e}"));

        // Replayed: capture once, then feed fresh consumers from the trace.
        let capture = CapturedTrace::capture(&program, &layout, &cfg)
            .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
        let mut replay_hsd = HotSpotDetector::new(HsdConfig::table2());
        let mut replay_counts = InstCounts::new();
        let mut replay_timing = TimingModel::new(machine);
        let replay_stats =
            capture.replay(&mut (&mut replay_hsd, &mut replay_counts, replay_timing.run()));

        assert_eq!(live_stats, replay_stats, "{name}: RunStats diverged");
        assert_eq!(live_counts, replay_counts, "{name}: InstCounts diverged");
        assert_eq!(
            live_hsd.records(),
            replay_hsd.records(),
            "{name}: detector records diverged"
        );
        assert_eq!(
            filter_hot_spots(live_hsd.records(), &FilterConfig::default()),
            filter_hot_spots(replay_hsd.records(), &FilterConfig::default()),
            "{name}: filtered phases diverged"
        );
        assert_eq!(
            live_timing.cycles(),
            replay_timing.cycles(),
            "{name}: baseline cycles diverged"
        );
    }
}

/// The encoding stays within its amortized byte budget on a real workload,
/// not just on synthetic loops.
#[test]
fn capture_of_real_workload_is_compact() {
    let program = vacuum_packing::workloads::twolf::build(1);
    let layout = Layout::natural(&program);
    let capture = CapturedTrace::capture(&program, &layout, &RunConfig::default()).unwrap();
    let per_inst = capture.bytes() as f64 / capture.events() as f64;
    assert!(
        per_inst <= 8.0,
        "amortized encoding must stay under 8 B/inst, got {per_inst:.2}"
    );
}

fn loop_program(label: u64, iters: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", |f| {
        let i = Reg::int(8);
        let a = Reg::int(9);
        f.li(i, 0);
        f.li(a, label as i64);
        f.for_range(i, 0, iters as i64, |f| {
            f.addi(a, a, 1);
        });
        f.halt();
    });
    pb.build()
}

/// A 1 MB store (the `VP_TRACE_CACHE_MB=1` configuration) forced to evict:
/// every run's results stay identical to direct execution — the cache only
/// trades time, never correctness — and eviction is observable in the
/// `trace_store.*` counters.
#[test]
fn one_megabyte_store_evicts_without_changing_results() {
    let cfg = RunConfig::default();
    // Each trace is a few hundred kilobytes — small enough to be cached
    // individually, but four of them overflow 1 MB.
    let programs: Vec<(String, Program)> = (0..4)
        .map(|n| (format!("loop{n}"), loop_program(n, 100_000)))
        .collect();

    let (_, report) = trace::scoped(|| {
        let store = TraceStore::with_capacity_mb(1);
        // Two sweeps over the set: the second revisits keys that may or
        // may not have survived eviction.
        for sweep in 0..2 {
            for (label, program) in &programs {
                let layout = Layout::natural(program);
                let key = TraceKey::new(label, program, &layout, &cfg);

                let mut cached = InstCounts::new();
                let stats = store
                    .obtain(key, program, &layout, &cfg)
                    .expect("run succeeds")
                    .replay(&mut cached);

                let mut direct = InstCounts::new();
                let direct_stats = Executor::new(program, &layout)
                    .run(&mut direct, &cfg)
                    .expect("run succeeds");

                assert_eq!(stats, direct_stats, "sweep {sweep} {label}: stats");
                assert_eq!(cached, direct, "sweep {sweep} {label}: counts");
            }
        }
        assert!(
            store.resident_bytes() <= store.capacity_bytes(),
            "store must respect its byte budget"
        );
    });
    assert!(
        report.counter("trace_store.evictions") > 0,
        "four ~400 KB traces must not all fit in 1 MB"
    );
    assert!(
        report.counter("trace_store.captures") > report.counter("trace_store.hits"),
        "evictions force re-capture on the second sweep"
    );
}

/// A serialize→reload round trip through the on-disk tier must be
/// invisible to every consumer: for three real workloads, a trace loaded
/// back from its `.vptrace` file replays to exactly the same instruction
/// counts, detector records, filtered phases, and baseline cycle counts as
/// the capture it was written from.
#[test]
fn disk_round_trip_replays_bit_exact_on_three_workloads() {
    let cfg = RunConfig::default();
    let machine = MachineConfig::table2();
    let dir = tmp_dir("roundtrip");
    let tier = DiskTier::new(&dir, u64::MAX).expect("create tier");
    for (name, program) in three_workloads() {
        let layout = Layout::natural(&program);
        let key = TraceKey::new(name, &program, &layout, &cfg);
        let original = CapturedTrace::capture(&program, &layout, &cfg)
            .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
        tier.store(&key, &original).expect("store");
        let loaded = tier
            .load(&key)
            .unwrap_or_else(|| panic!("{name}: reload failed"));

        let mut orig_hsd = HotSpotDetector::new(HsdConfig::table2());
        let mut orig_counts = InstCounts::new();
        let mut orig_timing = TimingModel::new(machine);
        let orig_stats = original.replay(&mut (&mut orig_hsd, &mut orig_counts, orig_timing.run()));

        let mut load_hsd = HotSpotDetector::new(HsdConfig::table2());
        let mut load_counts = InstCounts::new();
        let mut load_timing = TimingModel::new(machine);
        let load_stats = loaded.replay(&mut (&mut load_hsd, &mut load_counts, load_timing.run()));

        assert_eq!(orig_stats, load_stats, "{name}: RunStats diverged");
        assert_eq!(orig_counts, load_counts, "{name}: InstCounts diverged");
        assert_eq!(
            orig_hsd.records(),
            load_hsd.records(),
            "{name}: detector records diverged"
        );
        assert_eq!(
            filter_hot_spots(orig_hsd.records(), &FilterConfig::default()),
            filter_hot_spots(load_hsd.records(), &FilterConfig::default()),
            "{name}: filtered phases diverged"
        );
        assert_eq!(
            orig_timing.cycles(),
            load_timing.cycles(),
            "{name}: baseline cycles diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted or truncated `.vptrace` file must never produce wrong
/// results: the store refuses the file, re-executes live, and overwrites
/// the damaged capture through the normal write-through path.
#[test]
fn corrupted_disk_captures_fall_back_to_reexecution() {
    let cfg = RunConfig::default();
    let program = loop_program(42, 20_000);
    let layout = Layout::natural(&program);

    let mut direct = InstCounts::new();
    let direct_stats = Executor::new(&program, &layout)
        .run(&mut direct, &cfg)
        .expect("direct run");

    for (mode, mangle) in [
        (
            "bitflip",
            (|b: &mut Vec<u8>| {
                let mid = b.len() / 2;
                b[mid] ^= 0xff;
            }) as fn(&mut Vec<u8>),
        ),
        ("truncate", |b: &mut Vec<u8>| b.truncate(b.len() / 3)),
    ] {
        let dir = tmp_dir(mode);
        let path = {
            let tier = DiskTier::new(&dir, u64::MAX).expect("create tier");
            let key = TraceKey::new("corrupt", &program, &layout, &cfg);
            let trace = CapturedTrace::capture(&program, &layout, &cfg).expect("capture");
            tier.store(&key, &trace).expect("store");
            tier.path_for(&key)
        };
        let mut bytes = std::fs::read(&path).expect("read capture");
        mangle(&mut bytes);
        std::fs::write(&path, &bytes).expect("write damage");

        let (_, report) = trace::scoped(|| {
            let store = TraceStore::with_capacity_mb(64)
                .with_disk(Some(DiskTier::new(&dir, u64::MAX).expect("tier")));
            let key = TraceKey::new("corrupt", &program, &layout, &cfg);
            let mut counts = InstCounts::new();
            let stats = store
                .obtain(key, &program, &layout, &cfg)
                .expect("run succeeds")
                .replay(&mut counts);
            assert_eq!(stats, direct_stats, "{mode}: stats diverged");
            assert_eq!(counts, direct, "{mode}: counts diverged");
        });
        assert_eq!(
            report.counter("trace_store.disk_hits"),
            0,
            "{mode}: damaged file must not count as a hit"
        );
        assert_eq!(
            report.counter("trace_store.captures"),
            1,
            "{mode}: store must re-execute live"
        );

        // Write-through repaired the file: a fresh store loads it cleanly.
        let (_, report) = trace::scoped(|| {
            let store = TraceStore::with_capacity_mb(64)
                .with_disk(Some(DiskTier::new(&dir, u64::MAX).expect("tier")));
            let key = TraceKey::new("corrupt", &program, &layout, &cfg);
            let mut counts = InstCounts::new();
            store
                .obtain(key, &program, &layout, &cfg)
                .expect("run succeeds")
                .replay(&mut counts);
        });
        assert_eq!(report.counter("trace_store.disk_hits"), 1, "{mode}");
        assert_eq!(report.counter("trace_store.captures"), 0, "{mode}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// N threads racing `obtain` on the same key must produce exactly one
/// live execution — the rest wait on the in-flight capture and share it —
/// and every thread's replay still observes bit-identical results.
#[test]
fn concurrent_capture_or_replay_runs_one_live_execution() {
    use std::sync::Barrier;
    const N: usize = 8;
    let cfg = RunConfig::default();
    let program = loop_program(7, 50_000);
    let layout = Layout::natural(&program);
    let store = TraceStore::with_capacity_mb(64);
    let barrier = Barrier::new(N);

    let mut direct = InstCounts::new();
    let direct_stats = Executor::new(&program, &layout)
        .run(&mut direct, &cfg)
        .expect("direct run");

    let reports: Vec<trace::TraceReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                s.spawn(|| {
                    trace::scoped(|| {
                        barrier.wait();
                        let key = TraceKey::new("concurrent", &program, &layout, &cfg);
                        let mut counts = InstCounts::new();
                        let stats = store
                            .obtain(key, &program, &layout, &cfg)
                            .expect("run succeeds")
                            .replay(&mut counts);
                        (stats, counts)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let ((stats, counts), report) = h.join().expect("worker panicked");
                assert_eq!(stats, direct_stats, "stats diverged across threads");
                assert_eq!(counts, direct, "counts diverged across threads");
                report
            })
            .collect()
    });
    let sum = |name: &str| reports.iter().map(|r| r.counter(name)).sum::<u64>();
    assert_eq!(sum("trace_store.captures"), 1, "exactly one live execution");
    assert_eq!(
        sum("trace_store.replays"),
        N as u64,
        "every thread, the leader included, replays the single capture"
    );
}

/// An over-budget store behaves like an infinite cache for this working
/// set: the second sweep is all hits.
#[test]
fn large_store_serves_second_sweep_from_cache() {
    let cfg = RunConfig::default();
    let programs: Vec<(String, Program)> = (0..3)
        .map(|n| (format!("loop{n}"), loop_program(100 + n, 50_000)))
        .collect();

    let (_, report) = trace::scoped(|| {
        let store = TraceStore::with_capacity_mb(64);
        for (label, program) in programs.iter().chain(programs.iter()) {
            let layout = Layout::natural(program);
            let key = TraceKey::new(label, program, &layout, &cfg);
            let mut counts = InstCounts::new();
            store
                .obtain(key, program, &layout, &cfg)
                .expect("run succeeds")
                .replay(&mut counts);
        }
    });
    assert_eq!(report.counter("trace_store.captures"), 3);
    assert_eq!(report.counter("trace_store.hits"), 3);
    assert_eq!(report.counter("trace_store.replays"), 6);
    assert_eq!(report.counter("trace_store.evictions"), 0);
}

/// Live execution is the decode reference: for every workload of the
/// Table 1 suite, a live [`Executor`] run and `capture` + `replay` hand a
/// sink the same `ColEvent` sequence — every field, `loc` included — and
/// the same `RunStats`. The two streams are compared in lockstep (live
/// events cross a bounded channel in chunks), so memory stays O(chunk)
/// and a mismatch reports the first diverging event.
#[test]
fn replay_hands_sinks_the_live_event_stream_across_the_suite() {
    use std::sync::mpsc::sync_channel;
    use vacuum_packing::exec::{ColEvent, FnSink};

    const CHUNK: usize = 4096;
    let cfg = RunConfig::default();
    let workloads = suite(1);
    assert!(workloads.len() >= 12, "Table 1 suite");
    for w in &workloads {
        let label = w.label();
        let (program, layout) = (&w.program, &Layout::natural(&w.program));
        let capture = CapturedTrace::capture(program, layout, &cfg)
            .unwrap_or_else(|e| panic!("{label}: capture failed: {e}"));
        std::thread::scope(|s| {
            let (tx, rx) = sync_channel::<Vec<ColEvent>>(4);
            let live = s.spawn(move || {
                // Send errors mean the replay side already failed; the
                // live run then just finishes unobserved.
                let mut buf = Vec::with_capacity(CHUNK);
                let stats = Executor::new(program, layout).run(
                    &mut FnSink(|e| {
                        buf.push(e);
                        if buf.len() == CHUNK {
                            let _ = tx.send(std::mem::replace(&mut buf, Vec::with_capacity(CHUNK)));
                        }
                    }),
                    &cfg,
                );
                let _ = tx.send(buf);
                stats
            });

            let mut pending = Vec::new().into_iter();
            let mut n = 0u64;
            let replay_stats = capture.replay(&mut FnSink(|e: ColEvent| {
                let want = pending.next().or_else(|| {
                    pending = rx.recv().ok()?.into_iter();
                    pending.next()
                });
                assert_eq!(Some(e), want, "{label}: replayed event {n} diverged");
                n += 1;
            }));
            let unreplayed = pending.len() + rx.iter().map(|c| c.len()).sum::<usize>();
            assert_eq!(unreplayed, 0, "{label}: live run retired more events");
            let live_stats = live.join().expect("live thread").expect("live run");
            assert_eq!(live_stats, replay_stats, "{label}: RunStats diverged");
            assert_eq!(n, live_stats.retired, "{label}: event count");
        });
    }
}
