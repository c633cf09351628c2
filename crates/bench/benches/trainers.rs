//! Criterion benchmark of the *real* distributed trainers: one full
//! iteration of each algorithm over 4 in-process ranks with ring
//! collectives (CPU-scale model; the relative costs of the factor /
//! inverse phases are visible even at this size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac_nn::data::gaussian_blobs;
use spdkfac_nn::models::deep_mlp;
use std::hint::black_box;
use std::time::Duration;

fn bench_trainers(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_trainers_p4");
    let world = 4;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 99);
    for (name, algo) in [
        ("ssgd", Algorithm::SSgd),
        ("dkfac", Algorithm::DKfac),
        ("mpd", Algorithm::MpdKfac),
        ("spd", Algorithm::SpdKfac),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &algo, |b, &algo| {
            b.iter(|| {
                let mut cfg = DistributedConfig::new(world, algo);
                cfg.kfac.damping = 0.1;
                cfg.kfac.momentum = 0.0;
                black_box(
                    TrainSession::builder(cfg)
                        .run(&|| deep_mlp(8, 16, 4, 3, 7), &data, 2, 4)
                        .expect("local run"),
                )
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
        .measurement_time(Duration::from_secs(3));
    targets = bench_trainers
}
criterion_main!(benches);
