//! A counting global allocator for the test binaries that prove an
//! allocation claim: it wraps the system allocator and counts allocations
//! (`tests/query_zero_alloc.rs`), live bytes with their peak and
//! allocations above a size (`tests/peak_memory.rs`). Included per binary with
//! `#[path = "common/counting_alloc.rs"] mod counting_alloc;`, which also
//! installs it. The counters are global to the process: such a binary runs
//! one measurement at a time (one test, or tests that take turns).

#![allow(dead_code)] // each binary reads only the counters of its claim

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

/// Calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`).
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest [`LIVE`] since [`peak_of`] last started.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The size from which [`large_allocations_of`] counts an allocation.
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Allocations of at least [`LARGE_FROM`] bytes.
static LARGE: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counters are
// relaxed atomics with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout contract to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        obtained(layout.size());
        // SAFETY: same contract as ours, passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: forwards the caller's ptr/layout contract to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        released(layout.size());
        // SAFETY: same contract as ours, passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: forwards the caller's realloc contract to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        obtained(new_size);
        released(layout.size());
        // SAFETY: same contract as ours, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: forwards the caller's layout contract to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        obtained(layout.size());
        // SAFETY: same contract as ours, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

fn obtained(bytes: usize) {
    // ORDER: statistics counters — no data is published through them.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes; // ORDER: same counters.
    PEAK.fetch_max(live, Ordering::Relaxed); // ORDER: same counters.
    let large_from = LARGE_FROM.load(Ordering::Relaxed); // ORDER: same counters.
    if bytes >= large_from {
        LARGE.fetch_add(1, Ordering::Relaxed); // ORDER: same counters.
    }
}

fn released(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed); // ORDER: same counters.
}

/// Runs `work` and returns its result with the peak of live bytes during
/// it, above the level at its start.
pub fn peak_of<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let at_entry = LIVE.load(Ordering::Relaxed); // ORDER: same counters.
    PEAK.store(at_entry, Ordering::Relaxed); // ORDER: same counters.
    let out = work();
    (out, PEAK.load(Ordering::Relaxed) - at_entry) // ORDER: same counters.
}

/// Runs `work` and returns its result with the number of allocations of
/// at least `bytes` it made (a `realloc` to that size counts as one).
pub fn large_allocations_of<T>(bytes: usize, work: impl FnOnce() -> T) -> (T, usize) {
    LARGE.store(0, Ordering::Relaxed); // ORDER: same counters.
    LARGE_FROM.store(bytes, Ordering::Relaxed); // ORDER: same counters.
    let out = work();
    LARGE_FROM.store(usize::MAX, Ordering::Relaxed); // ORDER: same counters.
    (out, LARGE.load(Ordering::Relaxed)) // ORDER: same counters.
}
