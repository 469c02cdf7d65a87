//! The two measurements that are not the benchmark's (`/benchmark`
//! measures performance end to end and per module): the
//! allocation-regression gate (`tests/alloc_regression.rs`, on the
//! counting allocator below) and the §VI-D wire-cost experiment
//! (`wire_report`, part of `run_experiments.sh`).

/// Heap-traffic metering for the training hot path.
///
/// Gated behind the `alloc-probe` feature because installing it swaps
/// the **process-wide** allocator: every allocation made by any thread
/// pays two relaxed atomic increments. That is noise-level for the
/// steady-state-zero assertion this exists to support, but it is not
/// something the default build should carry.
#[cfg(feature = "alloc-probe")]
pub mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// [`System`] with allocation counting. Deallocations are not
    /// counted: the probe's question is "does the steady state *request*
    /// heap memory", and frees without matching allocs cannot occur.
    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the counters never influence
    // the pointers returned.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow-in-place is still a heap request the steady state
            // should not be making.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Monotonic counter snapshot; subtract two to meter a region.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocStats {
        /// Allocation requests (incl. zeroed allocs and reallocs).
        pub allocs: u64,
        /// Bytes requested across those allocations.
        pub bytes: u64,
    }

    /// Current process-wide counters.
    pub fn stats() -> AllocStats {
        AllocStats { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// Runs `f` and reports the allocations made during the call — by
    /// *any* thread, so pool fan-outs (task boxing) are charged to the
    /// region that triggered them.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
        let before = stats();
        let out = f();
        let after = stats();
        (
            out,
            AllocStats { allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes },
        )
    }
}
