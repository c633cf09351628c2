//! Allocation gate of the dense kernels, in a process of its own (a
//! counting global allocator): once every pool lane's pack buffers have
//! grown to the shapes in use, a product allocates its result and nothing
//! else of 4 KiB or more — no per-call pack buffer, no per-block scratch —
//! and an `_into` product, the packed statistic, its fold into the
//! running factor's square, the refresh (expansion and factorization in
//! that square), an in-place inverse, or a solve into kept storage
//! allocates nothing.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{CountingAlloc, ARMED, BIG, BIG_ALLOCS};
use spdkfac::core::error::FactorSide;
use spdkfac::core::factors::FactorState;
use spdkfac::tensor::chol::Side;
use spdkfac::tensor::kron::precondition_gradient_chol_in_place;
use spdkfac::tensor::rng::MatrixRng;
use spdkfac::tensor::sym::packed_len;
use spdkfac::tensor::{chol, pool, Matrix, SymPacked};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::{Barrier, Mutex};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The tests share the allocator counters.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn warm_in_place_kernels_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The trainer's per-iteration kernels at the benchmark's sizes, into
    // storage kept from the previous iteration.
    const D: usize = 257;
    const BATCH: usize = 32;
    let mut rng = MatrixRng::new(23);
    let (a, b) = (
        rng.uniform_matrix(D, D, -1.0, 1.0),
        rng.uniform_matrix(D, D, -1.0, 1.0),
    );
    let (x, g) = (
        rng.uniform_matrix(BATCH, D, -1.0, 1.0),
        rng.uniform_matrix(BATCH, D - 1, -1.0, 1.0),
    );
    let factor = rng.spd_matrix(D, 0.1);
    let mut running = FactorState::new(0);
    let first = SymPacked::from_matrix(&factor);
    running.update_packed(FactorSide::G, D, first.as_slice(), 0.95);
    let mut packed_stat = vec![0.0; packed_len(D)];
    let bias = rng.uniform_matrix(D, 1, -1.0, 1.0);
    let (mut product, mut grad, mut stat, mut inv) = (
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
    );
    let (mut dir, mut dir_b, mut solved) = (
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
    );
    let mut kernels = || {
        a.matmul_into(&b, &mut product);
        g.matmul_tn_into(&x, &mut grad);
        factor.damped_into(0.1, &mut inv);
        chol::spd_inverse_in_place(&mut inv).expect("SPD");
        // The trainer's statistic, packed into its message slot, and its
        // landing, folded into the upper triangle of the factor's square.
        x.gramian_packed_into(BATCH as f64, &mut stat, &mut packed_stat);
        running.update_packed(FactorSide::G, D, &packed_stat, 0.95);
        // The refresh and directions: the damped factor mirrored over the
        // lower triangle, POTRF into solve form there, then a weight's
        // four solves and a bias's two.
        running.invert(FactorSide::G, 0.1).expect("SPD");
        let l = running.chol(FactorSide::G).expect("factored");
        dir.clone_from(&a);
        precondition_gradient_chol_in_place(&mut dir, l, l, &mut solved);
        dir_b.clone_from(&bias);
        chol::solve_into(l, Side::Left, false, &mut dir_b, &mut solved);
        chol::solve_into(l, Side::Left, true, &mut solved, &mut dir_b);
    };
    // Warm-up, on every lane of the pool as in the test above, then on
    // this thread: pack buffers, the inverse's scratch and the outputs.
    let lanes = Barrier::new(pool::threads());
    pool::parallel_for(pool::threads(), |_| {
        lanes.wait();
        black_box(a.matmul(&b));
        black_box(x.gramian());
    });
    kernels();
    let warm = big_allocs_during(&mut kernels);
    assert_eq!(
        warm, 0,
        "warm in-place kernels: allocations of >= {BIG} bytes"
    );
}
