//! A counting global allocator for heap metrics.
//!
//! Counting is off until [`enable`] is called, so a timed run that does
//! not report memory pays one relaxed load per allocation and nothing
//! else. A process that reports memory enables it first thing in `main`;
//! earlier allocations are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Routes every allocation through [`System`], counting live and peak
/// bytes while counting is enabled. Install with `#[global_allocator]`.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every operation is delegated to `System` unchanged, with the same
// layout and pointer; the counters are bookkeeping beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts counting allocations (only ever switched on, never off).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Bytes allocated since counting started and not freed yet.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The largest [`live_bytes`] seen since counting started.
pub fn peak_bytes() -> isize {
    PEAK.load(Ordering::Relaxed)
}
