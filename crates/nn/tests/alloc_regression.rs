//! Steady-state allocation regression gate for the training hot path.
//!
//! The workspace-reuse contract says a warmed-up `Mlp::train_batch` /
//! `train_epoch` touches only caller-retained buffers: layer caches,
//! gradient buffers, the epoch scratch and the optimizer state are all
//! grown once and reused. This test pins that at exactly **zero**
//! allocations per step so any future `clone()`/`collect()` sneaking
//! back into the hot path fails CI instead of quietly costing 20%.
//! The same buffers are workspace, not value: cloning a warm model must
//! request about `4·num_params` bytes, not the workspace's size.
//!
//! An integration test is its own binary, so the counting
//! `#[global_allocator]` below meters this process and no other. Kept
//! to a single test function so no concurrent test can pollute the
//! process-wide counters.

use baffle_nn::{Mlp, MlpSpec, Model, Sgd};
use baffle_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] with allocation counting. Deallocations are not counted:
/// the question is "does the steady state *request* heap memory", and
/// frees without matching allocs cannot occur.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters never influence the
// pointers returned.
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

/// Allocation requests (incl. zeroed allocs and reallocs) and the bytes
/// they asked for.
struct AllocStats {
    allocs: u64,
    bytes: u64,
}

/// Runs `f` and reports the allocations made during the call — by *any*
/// thread, so pool fan-outs (task boxing) are charged to the region that
/// triggered them.
fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    let after = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    (out, AllocStats { allocs: after.0 - before.0, bytes: after.1 - before.1 })
}

#[test]
fn warm_mlp_training_makes_zero_allocations() {
    // Pin the pool to one thread before anything touches it: fan-out
    // boxes its tasks, which is a (legitimate) per-call allocation this
    // test is not about. The shapes below sit under every parallel
    // threshold anyway; this just makes the guarantee explicit.
    std::env::set_var("BAFFLE_THREADS", "1");

    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Mlp::new(&MlpSpec::new(16, &[24, 24], 4), &mut rng);
    let mut opt = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-4);
    let n = 40;
    let x = Matrix::from_fn(n, 16, |i, j| ((i * 16 + j) as f32 * 0.37).sin());
    let y: Vec<usize> = (0..n).map(|i| i % 4).collect();

    // Warm-up: first batches grow caches, scratch and velocity.
    for _ in 0..3 {
        model.train_batch(&x, &y, &mut opt);
    }
    let (_, per_batch) = measure(|| {
        for _ in 0..10 {
            model.train_batch(&x, &y, &mut opt);
        }
    });
    assert_eq!(
        per_batch.allocs, 0,
        "warm train_batch allocated {} times ({} bytes) over 10 steps",
        per_batch.allocs, per_batch.bytes
    );

    // The epoch driver (shuffle, minibatch gather, ragged last batch)
    // must also be steady-state clean. Batch 16 over 40 samples leaves
    // a ragged final minibatch of 8, so the reused scratch sees two
    // shapes per epoch.
    model.train_epoch(&x, &y, 16, &mut opt, &mut rng);
    let (_, per_epoch) = measure(|| {
        for _ in 0..3 {
            model.train_epoch(&x, &y, 16, &mut opt, &mut rng);
        }
    });
    assert_eq!(
        per_epoch.allocs, 0,
        "warm train_epoch allocated {} times ({} bytes) over 3 epochs",
        per_epoch.allocs, per_epoch.bytes
    );

    // A clone is the parameters. An epoch over 5 000 rows leaves ~100 KB
    // of order/staging/cache buffers in the model (a history entry in
    // `baffle-net` is cloned from exactly such a warm-started model);
    // none of it may ride along, and the original must keep its workspace.
    let big = 5_000;
    let xl = Matrix::from_fn(big, 16, |i, j| ((i * 16 + j) as f32 * 0.11).cos());
    let yl: Vec<usize> = (0..big).map(|i| i % 4).collect();
    model.train_epoch(&xl, &yl, 16, &mut opt, &mut rng);
    let (copy, per_clone) = measure(|| model.clone());
    let budget = 4 * model.num_params() as u64 + 2_048;
    assert!(
        per_clone.bytes <= budget,
        "cloning a warm Mlp requested {} bytes for {} parameters (budget {budget})",
        per_clone.bytes,
        model.num_params()
    );
    assert_eq!(copy.params(), model.params());
    let (_, after_clone) = measure(|| {
        model.train_epoch(&xl, &yl, 16, &mut opt, &mut rng);
    });
    assert_eq!(
        after_clone.allocs, 0,
        "cloning cost the original its workspace: the next epoch allocated {} times ({} bytes)",
        after_clone.allocs, after_clone.bytes
    );
}
