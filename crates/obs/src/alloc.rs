//! Global-allocator instrumentation: live-byte and peak-byte counters.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and keeps two atomics:
//! the bytes currently allocated and the high-water mark. Binaries that
//! want peak-memory numbers (the fleet scaling bench, `repro fleet`)
//! install it as their `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: reqblock_obs::CountingAlloc = reqblock_obs::CountingAlloc::new();
//! ...
//! let peak_mib = ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0);
//! ```
//!
//! The counters use relaxed atomics: peak tracking is a monotone
//! compare-exchange loop, so concurrent allocations can only under-report
//! the peak by the window of one race — noise far below the MiB scale the
//! scaling table reports. Overhead is two atomic RMWs per allocation,
//! which the allocation-free simulator hot path never sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`System`]-backed global allocator that tracks live and peak bytes.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A fresh counter (all zeros). `const` so it can back a
    /// `#[global_allocator]` static.
    pub const fn new() -> Self {
        Self { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    /// Bytes currently allocated through this allocator.
    pub fn current_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`CountingAlloc::current_bytes`] since process
    /// start (or the last [`CountingAlloc::reset_peak`]).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart peak tracking from the current live count, so a caller can
    /// measure the peak of one phase in isolation.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    #[inline]
    fn add(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self.peak.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => peak = cur,
            }
        }
    }

    #[inline]
    fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every allocation to `System`, adjusting counters around
// the calls; size bookkeeping matches the layouts passed through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count only the delta, so the peak reflects the larger of the
            // two sizes. A copying realloc briefly holds both blocks, which
            // this count does not show.
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_alloc_and_free() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: plain System alloc/dealloc round-trip with one layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.current_bytes(), 4096);
            assert_eq!(a.peak_bytes(), 4096);
            a.dealloc(p, layout);
        }
        assert_eq!(a.current_bytes(), 0);
        assert_eq!(a.peak_bytes(), 4096, "peak survives the free");
        a.reset_peak();
        assert_eq!(a.peak_bytes(), 0);
    }
}
