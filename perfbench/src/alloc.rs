//! A counting global allocator: per-thread live and peak heap bytes.
//!
//! Counts are kept per thread so two worker threads timing layer calls
//! side by side each see only their own call's heap. A block freed on a
//! thread other than the one that allocated it lowers the freeing
//! thread's count; the layers measured here free what they allocate on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark's global allocator: [`System`] plus byte counting.
pub struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn bump(delta: isize) {
    // `try_with`: never panic inside the allocator, even while thread
    // locals are being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adjusts thread-local counters, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            bump(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            bump(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract.
        unsafe { System.dealloc(ptr, layout) };
        bump(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            bump(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak heap bytes the calling
/// thread held above its starting level while `f` ran.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - start).max(0) as u64)
}
