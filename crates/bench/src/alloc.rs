//! Allocation-audit harness: a counting `#[global_allocator]` wrapper.
//!
//! The copy-free fabric is held to a measured standard: *allocations per
//! simulated delivery*, printed by `hotpath`, asserted against a pinned
//! ceiling by `hotpath -- check` in CI, and read by the benchmark's
//! `alloc.*` metrics. This module provides the counter. It wraps
//! [`std::alloc::System`] and counts every `alloc`/`realloc` call (frees
//! are not counted: the metric is "how often does the hot path hit the
//! allocator", and every alloc eventually pairs with a free).
//!
//! The counters are process-global atomics with relaxed ordering — cheap
//! enough to leave enabled, exact on the single-threaded bench paths that
//! use them, and still meaningful (a stable upper bound) on multi-threaded
//! ones.
//!
//! Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ringnet_bench::alloc::CountingAlloc = ringnet_bench::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `System`-backed allocator that counts allocation calls and bytes.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A snapshot of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Read the current counters (zeros when [`CountingAlloc`] is not the
/// process's global allocator).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Allocator activity between two snapshots.
pub fn delta(before: AllocSnapshot, after: AllocSnapshot) -> AllocSnapshot {
    AllocSnapshot {
        calls: after.calls.saturating_sub(before.calls),
        bytes: after.bytes.saturating_sub(before.bytes),
    }
}

/// Measure `f`'s allocator activity. Only exact when nothing else
/// allocates concurrently — the bench binaries run measured sections
/// single-threaded.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = snapshot();
    let out = f();
    let d = delta(before, snapshot());
    (out, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_monotone_and_saturating() {
        let a = AllocSnapshot {
            calls: 5,
            bytes: 100,
        };
        let b = AllocSnapshot {
            calls: 9,
            bytes: 350,
        };
        assert_eq!(
            delta(a, b),
            AllocSnapshot {
                calls: 4,
                bytes: 250
            }
        );
        // Wrap-around / reversed snapshots saturate to zero instead of
        // underflowing.
        assert_eq!(delta(b, a), AllocSnapshot { calls: 0, bytes: 0 });
    }
}
