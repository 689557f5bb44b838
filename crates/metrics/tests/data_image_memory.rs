//! Evaluating a workload never copies its data image: the packed,
//! optimized binary of every cell shares the original's words, so
//! 132.ijpeg A's ~600 KB image is allocated once, by the workload build,
//! however many configurations are evaluated.
//!
//! This test binary installs its own counting global allocator, so it
//! holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vp_core::PackConfig;
use vp_hsd::HsdConfig;
use vp_metrics::harness::{evaluate, profile};
use vp_opt::OptConfig;
use vp_sim::MachineConfig;

/// Byte sizes of the data segments being watched (0: unused slot).
static WATCHED: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];
/// Allocations whose size equals a watched segment's.
static IMAGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHED.iter().any(|w| w.load(Ordering::Relaxed) == size) {
        IMAGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`System`] plus a count of image-sized allocations.
struct Counting;

// SAFETY: every method forwards to `System` unchanged and only updates
// atomic counters, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Image-sized allocations made while `f` runs.
fn image_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = IMAGE_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, IMAGE_ALLOCS.load(Ordering::Relaxed) - start)
}

#[test]
fn evaluating_every_config_allocates_no_data_image() {
    let program = vp_workloads::ijpeg::build(vp_workloads::ijpeg::Input::A, 1);
    // The large segments: the image and its output buffer.
    let big: Vec<_> = program
        .data
        .iter()
        .filter(|s| s.words.len() * 8 >= 64 << 10)
        .collect();
    let bytes: usize = big.iter().map(|s| s.words.len() * 8).sum();
    assert!(bytes > 500 << 10, "132.ijpeg A data image is {bytes} B");
    assert!(big.len() <= WATCHED.len());
    for (slot, seg) in WATCHED.iter().zip(&big) {
        slot.store(seg.words.len() * 8, Ordering::Relaxed);
    }

    // The counter sees a copy when one is made.
    let (copy, n) = image_allocs(|| big[0].words.to_vec());
    assert_eq!(n, 1, "a deliberate copy is counted");
    drop(copy);

    let machine = MachineConfig::table2();
    let pw = profile(
        "132.ijpeg A",
        program.clone(),
        &HsdConfig::table2(),
        Some(&machine),
    )
    .expect("132.ijpeg A profiles");
    let (outcomes, n) = image_allocs(|| {
        PackConfig::evaluation_matrix()
            .iter()
            .map(|cfg| evaluate(&pw, cfg, &OptConfig::default(), Some(&machine)).unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|o| o.packages > 0));
    assert_eq!(
        n, 0,
        "evaluating four configs copied the {bytes} B data image {n} times"
    );
}
