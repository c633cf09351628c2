//! Criterion benchmark of the real SPD-inverse kernel across matrix
//! dimensions — the measured counterpart of Fig. 8 (Eq. 26) — and across
//! block edges at the trainer's factor sizes (what `chol::CHOL_NB` was
//! chosen from).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spdkfac_tensor::chol::{cholesky_with_block, spd_inverse};
use spdkfac_tensor::rng::MatrixRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("spd_inverse");
    let mut rng = MatrixRng::new(42);
    for d in [64usize, 128, 256, 512] {
        let a = rng.spd_matrix(d, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(d), &a, |b, a| {
            b.iter(|| black_box(spd_inverse(black_box(a)).expect("spd")));
        });
    }
    group.finish();
}

fn bench_block_edge(c: &mut Criterion) {
    let mut group = c.benchmark_group("spd_inverse_block_edge");
    let mut rng = MatrixRng::new(43);
    for d in [256usize, 257] {
        let a = rng.spd_matrix(d, 0.5);
        for nb in [16usize, 24, 32, 48, 64] {
            group.bench_with_input(BenchmarkId::new(format!("d{d}"), nb), &a, |b, a| {
                b.iter(|| {
                    let ch = cholesky_with_block(black_box(a), nb).expect("spd");
                    black_box(ch.inverse_with_block(nb))
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_inverse, bench_block_edge
}
criterion_main!(benches);
