//! A counting `#[global_allocator]` for the harness binary.
//!
//! Counting is off unless [`count`] is running — which the harness does
//! only around `*.run` in traced repetitions — so timed repetitions pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough (and the harness drives the simulator on one thread).
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus two counters while counting is on.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; returns its result and the (allocations,
/// bytes requested) it made.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    (out, ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        // Tests run in parallel threads that share the counters, so this
        // asserts a lower bound, not equality.
        let (v, allocs, bytes) = count(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1);
        assert!(bytes >= 4096);
    }
}
