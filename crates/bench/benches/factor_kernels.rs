//! Criterion benchmark of the Kronecker-factor construction kernels
//! (Eq. 7/8): Gramian accumulation and gradient preconditioning, one
//! layer's refresh plus preconditioning both ways — through the inverses
//! (POTRF + POTRI, then products) and through `L` (POTRF, then solves) —
//! and the trainer's whole factor path for one factor (`refresh`: a
//! statistic's fold into the factor's square, the expansion and POTRF
//! there), cycling ten factors so each call finds its data cold.
//!
//! ```text
//! SPDKFAC_THREADS=1 cargo bench -p spdkfac-bench --bench factor_kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spdkfac_core::error::FactorSide;
use spdkfac_core::factors::FactorState;
use spdkfac_tensor::chol::{self, Side};
use spdkfac_tensor::kron::{precondition_gradient, precondition_gradient_chol_in_place};
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::sym::packed_len;
use spdkfac_tensor::{Matrix, SymPacked};
use std::hint::black_box;
use std::time::Duration;

fn bench_gramian(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor_gramian");
    let mut rng = MatrixRng::new(1);
    for (rows, d) in [(128usize, 64usize), (128, 256), (512, 128)] {
        let x = rng.gaussian_matrix(rows, d);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{d}")),
            &x,
            |b, x| b.iter(|| black_box(x.gramian_scaled(x.rows() as f64))),
        );
    }
    group.finish();
}

fn bench_precondition(c: &mut Criterion) {
    let mut group = c.benchmark_group("precondition_gradient");
    let mut rng = MatrixRng::new(2);
    for (dout, din) in [(64usize, 64usize), (128, 256), (256, 512)] {
        let a_inv = rng.spd_matrix(din, 0.5);
        let g_inv = rng.spd_matrix(dout, 0.5);
        let grad = rng.gaussian_matrix(dout, din);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dout}x{din}")),
            &(a_inv, g_inv, grad),
            |b, (a_inv, g_inv, grad)| {
                b.iter(|| black_box(precondition_gradient(grad, a_inv, g_inv)))
            },
        );
    }
    group.finish();
}

/// One layer of the benchmark model's hidden width: damped `A` and `G`
/// (256 × 256), a weight gradient (256 × 256) and a bias gradient
/// (256 × 1), with every buffer kept from call to call as the trainer
/// keeps them.
struct Layer {
    a: Matrix,
    g: Matrix,
    grad: Matrix,
    bias: Matrix,
    a_work: Matrix,
    g_work: Matrix,
    out: Matrix,
    bias_out: Matrix,
    scratch: Matrix,
}

impl Layer {
    fn new(d: usize) -> Layer {
        let mut rng = MatrixRng::new(3);
        Layer {
            a: rng.spd_matrix(d, 0.1),
            g: rng.spd_matrix(d, 0.1),
            grad: rng.gaussian_matrix(d, d),
            bias: rng.gaussian_matrix(d, 1),
            a_work: Matrix::zeros(0, 0),
            g_work: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
            bias_out: Matrix::zeros(0, 0),
            scratch: Matrix::zeros(0, 0),
        }
    }

    /// `spd_inverse` of both factors.
    fn refresh_inverse(&mut self) {
        self.a.damped_into(0.0, &mut self.a_work);
        self.g.damped_into(0.0, &mut self.g_work);
        chol::spd_inverse_in_place(&mut self.a_work).expect("SPD");
        chol::spd_inverse_in_place(&mut self.g_work).expect("SPD");
    }

    /// `G⁻¹ · ∇W · A⁻¹` and `G⁻¹ · ∇b`: three products.
    fn precondition_inverse(&mut self) {
        self.g_work.matmul_into(&self.grad, &mut self.scratch);
        self.scratch.matmul_into(&self.a_work, &mut self.out);
        self.g_work.matmul_into(&self.bias, &mut self.bias_out);
    }

    /// POTRF of both factors, into solve form.
    fn refresh_cholesky(&mut self) {
        self.a.damped_into(0.0, &mut self.a_work);
        self.g.damped_into(0.0, &mut self.g_work);
        chol::cholesky_in_place(&mut self.a_work).expect("SPD");
        chol::cholesky_in_place(&mut self.g_work).expect("SPD");
    }

    /// The same directions by six solves.
    fn precondition_solves(&mut self) {
        self.out.clone_from(&self.grad);
        precondition_gradient_chol_in_place(
            &mut self.out,
            &self.a_work,
            &self.g_work,
            &mut self.scratch,
        );
        self.bias_out.clone_from(&self.bias);
        chol::solve_into(
            &self.g_work,
            Side::Left,
            false,
            &mut self.bias_out,
            &mut self.scratch,
        );
        chol::solve_into(
            &self.g_work,
            Side::Left,
            true,
            &mut self.scratch,
            &mut self.bias_out,
        );
    }
}

fn bench_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_256");
    let mut layer = Layer::new(256);
    group.bench_function("refresh/spd_inverse", |b| {
        b.iter(|| layer.refresh_inverse())
    });
    layer.refresh_inverse();
    group.bench_function("precondition/3_gemm", |b| {
        b.iter(|| layer.precondition_inverse())
    });
    group.bench_function("both/spd_inverse+3_gemm", |b| {
        b.iter(|| {
            layer.refresh_inverse();
            layer.precondition_inverse();
        })
    });
    group.bench_function("refresh/potrf", |b| b.iter(|| layer.refresh_cholesky()));
    layer.refresh_cholesky();
    group.bench_function("precondition/6_solves", |b| {
        b.iter(|| layer.precondition_solves())
    });
    group.bench_function("both/potrf+6_solves", |b| {
        b.iter(|| {
            layer.refresh_cholesky();
            layer.precondition_solves();
        })
    });
    group.finish();
}

/// Factors a `refresh` call cycles through: 10 squares of 257 are 5.3 MB,
/// more than a core's L2 (2 MiB on the Xeon the numbers in ROADMAP L
/// come from), as the trainer's 10 factors are.
const CYCLED: usize = 10;

/// Fold + expansion + POTRF of one factor at the trainer's sizes, the
/// factors and their statistics taken in turn from [`CYCLED`] of each.
fn bench_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("refresh");
    for d in [256usize, 257] {
        let mut rng = MatrixRng::new(4);
        let mut states: Vec<FactorState> = (0..CYCLED).map(FactorState::new).collect();
        let mut stats = Vec::with_capacity(CYCLED);
        for st in &mut states {
            let f = SymPacked::from_matrix(&rng.spd_matrix(d, 0.1));
            st.update_packed(FactorSide::G, d, f.as_slice(), 0.95);
            let mut stat = vec![0.0; packed_len(d)];
            let x = rng.gaussian_matrix(32, d);
            x.gramian_packed_into(32.0, &mut Matrix::zeros(0, 0), &mut stat);
            stats.push(stat);
        }
        let mut next = 0;
        group.bench_function(BenchmarkId::new("fold+potrf", d), |b| {
            b.iter(|| {
                let st = &mut states[next];
                st.update_packed(FactorSide::G, d, &stats[next], 0.95);
                st.invert(FactorSide::G, 0.1).expect("SPD");
                next = (next + 1) % CYCLED;
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_gramian, bench_precondition, bench_layer, bench_refresh
}
criterion_main!(benches);
