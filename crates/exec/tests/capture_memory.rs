//! Recording a capture into the disk tier and replaying it run in heap
//! bounded by the program's static size and one spool chunk, never by
//! the length of the run: doubling the run (`VP_SCALE` 4 → 8) doubles
//! the events but must leave the peak heap of both the capture and the
//! replay where it was.
//!
//! This test binary installs its own counting global allocator, so it
//! holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vp_exec::{DiskTier, InstCounts, RunConfig, TraceKey, TraceStore};

/// [`System`] plus per-thread live and peak byte counts.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with`: the allocator must never panic, even during thread
    // teardown.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` unchanged and only updates
// thread-local counters, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap growth of the calling thread while `f` runs.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start).max(0) as usize)
}

/// One cold capture of 300.twolf at `scale` into a fresh disk tier, then
/// one replay: (events, stream bytes, peak capture heap, peak replay
/// heap). Building the program happens outside the measured closures.
fn capture_then_replay(scale: u32) -> (u64, usize, usize, usize) {
    let program = vp_workloads::twolf::build(scale);
    let layout = vp_program::Layout::natural(&program);
    let cfg = RunConfig::default();
    let key = TraceKey::new("300.twolf A", &program, &layout, &cfg);
    let dir =
        std::env::temp_dir().join(format!("vp-capture-memory-{}-{scale}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::with_capacity_mb(64)
        .with_disk(Some(DiskTier::new(&dir, u64::MAX).expect("temp disk tier")));
    let (trace, capture_peak) = peak_growth(|| {
        store
            .obtain(key, &program, &layout, &cfg)
            .expect("capture succeeds")
    });
    assert_eq!(store.disk().unwrap().blobs().len(), 1, "persisted once");
    let mut counts = InstCounts::new();
    let (stats, replay_peak) = peak_growth(|| trace.replay(&mut counts));
    assert_eq!(counts.total, stats.retired);
    assert_eq!(trace.events(), stats.retired);
    let out = (trace.events(), trace.bytes(), capture_peak, replay_peak);
    drop(trace);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Heap a capture may hold whatever the run length: the executor, the
/// static side table and one spool chunk. The twolf stream is 6.6 MB at
/// scale 4; an owned recording would hold all of it.
const BUDGET: usize = 2 << 20;

#[test]
fn capture_heap_stays_flat_as_the_run_doubles() {
    let (events1, bytes1, capture1, replay1) = capture_then_replay(4);
    let (events2, bytes2, capture2, replay2) = capture_then_replay(8);
    assert!(
        events2 >= events1 * 19 / 10 && bytes2 > bytes1,
        "scale 8 must about double the run: {events1} -> {events2} events"
    );
    assert!(
        bytes1 > 2 * BUDGET,
        "a {bytes1}-byte trace is too short to tell O(trace) from O(chunk)"
    );
    for (scale, capture, replay) in [(4, capture1, replay1), (8, capture2, replay2)] {
        assert!(
            capture < BUDGET,
            "scale {scale}: capturing grew the heap by {capture} bytes (budget {BUDGET})"
        );
        assert!(
            replay < 64 << 10,
            "scale {scale}: replaying grew the heap by {replay} bytes"
        );
    }
    // Same static code at both scales: twice the events may add no more
    // than a little slack, far below the extra stream bytes.
    assert!(
        capture2 <= capture1 + (64 << 10),
        "doubling the run grew the capture heap {capture1} -> {capture2} bytes"
    );
}
