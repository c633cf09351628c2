//! Allocation gate of the dense kernels, in a process of its own (a
//! counting global allocator): once every pool lane's pack buffers have
//! grown to the shapes in use, a product allocates its result and nothing
//! else of 4 KiB or more — no per-call pack buffer, no per-block scratch.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{CountingAlloc, ARMED, BIG, BIG_ALLOCS};
use spdkfac::tensor::rng::MatrixRng;
use spdkfac::tensor::{pool, Matrix};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of at least [`BIG`] bytes during `f`, process-wide.
fn big_allocs_during(f: impl FnOnce()) -> usize {
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    BIG_ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_products_allocate_only_their_result() {
    // The factor dimension of the benchmark model with a bias column, and
    // one batch of its activations.
    const D: usize = 257;
    const BATCH: usize = 32;
    let mut rng = MatrixRng::new(17);
    let (a, b) = (
        rng.uniform_matrix(D, D, -1.0, 1.0),
        rng.uniform_matrix(D, D, -1.0, 1.0),
    );
    let x = rng.uniform_matrix(BATCH, D, -1.0, 1.0);
    let products = |a: &Matrix, b: &Matrix, x: &Matrix| {
        black_box(a.matmul(b));
        black_box(x.gramian());
    };
    // Warm-up: the barrier holds every lane of the pool (the caller and
    // each worker) inside one task, so each runs both products once —
    // serially, being nested — and grows its own pack buffers.
    let lanes = Barrier::new(pool::threads());
    pool::parallel_for(pool::threads(), |_| {
        lanes.wait();
        products(&a, &b, &x);
    });
    products(&a, &b, &x);

    let matmul = big_allocs_during(|| {
        black_box(a.matmul(&b));
    });
    assert_eq!(matmul, 1, "matmul {D}^3: allocations of >= {BIG} bytes");
    let gramian = big_allocs_during(|| {
        black_box(x.gramian());
    });
    assert_eq!(
        gramian, 1,
        "gramian {BATCH}x{D}: allocations of >= {BIG} bytes"
    );
}
