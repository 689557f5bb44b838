//! Differential replay runs in memory bounded by the programs' static size
//! and the forensic context, never by the length of the run: diffing a
//! multi-million-event trace pair must not grow the heap by more than a
//! small constant.
//!
//! This test binary installs its own counting global allocator, so it
//! holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vp_exec::{diff_traces, CapturedTrace, DiffOptions, DiffVerdict, IdentityMap, RunConfig};

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

/// Heap the diff may hold: per-slot tables for both traces plus the
/// context ring — independent of how many events the traces record.
const BUDGET: usize = 4 << 20;

#[test]
fn diff_heap_stays_bounded_on_a_million_event_trace() {
    let program = vp_workloads::twolf::build(1);
    let layout = vp_program::Layout::natural(&program);
    let trace = CapturedTrace::capture(&program, &layout, &RunConfig::default()).unwrap();
    assert!(
        trace.events() >= 1_000_000,
        "the pair must be long enough that O(trace) state would show: {} events",
        trace.events()
    );

    let (report, peak) =
        peak_growth(|| diff_traces(&trace, &trace, &IdentityMap::new(), &DiffOptions::default()));
    assert_eq!(report.verdict, DiffVerdict::Clean, "{report}");
    // A materialized visit sequence (48 B per visit) would exceed the
    // budget many times over.
    assert!(
        report.orig_visits as usize * std::mem::size_of::<vp_exec::Visit>() > 4 * BUDGET,
        "{} visits are too few to tell O(trace) from O(context)",
        report.orig_visits
    );
    assert!(
        peak < BUDGET,
        "diffing {} events grew the heap by {peak} bytes (budget {BUDGET})",
        trace.events()
    );
}
