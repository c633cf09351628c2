//! A counting global allocator for the allocation and memory gates. A
//! test binary that wants it declares
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`
//! and owns its process: the counters are process-wide.
#![allow(dead_code)] // each gate reads a different subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations of at least this size are what the gates count: chunk-,
/// slice-, frame- and panel-sized buffers, not the few dozen bytes of a
/// reply channel or a trace label.
pub const BIG: usize = 4096;
/// glibc's default mmap threshold: an allocation this large is mapped
/// fresh, and faulted in again, every time.
pub const HUGE: usize = 128 << 10;

/// Counting happens, on every thread, while this is set.
pub static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations of at least [`BIG`] bytes seen while counting.
pub static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Allocations of at least [`HUGE`] bytes seen while counting.
pub static HUGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated so far, on every thread, armed or not.
pub static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, on every thread, armed or not.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest [`LIVE`] since [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counting happens on this thread, armed or not.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts (or stops counting) the calling thread's allocations.
pub fn count_this_thread(on: bool) {
    COUNTED.with(|c| c.set(on));
}

/// Starts a high-water measurement: returns the bytes live now.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

/// The most bytes live at once since [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::SeqCst)
}

pub struct CountingAlloc;

impl CountingAlloc {
    fn grow(bytes: usize) {
        ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn note(size: usize) {
        Self::grow(size);
        if size < BIG {
            return;
        }
        // (`try_with`: the allocator runs during thread teardown too.)
        if ARMED.load(Ordering::Relaxed) || COUNTED.try_with(Cell::get).unwrap_or(false) {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
            if size >= HUGE {
                HUGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain atomics and a const thread-local, none of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}
