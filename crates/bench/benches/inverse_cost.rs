//! Criterion benchmark of the real SPD-inverse kernel across matrix
//! dimensions — the measured counterpart of Fig. 8 (Eq. 26).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spdkfac_tensor::chol::spd_inverse;
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

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_inverse
}
criterion_main!(benches);
