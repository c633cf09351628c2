//! Cross-crate integration: the three distributed K-FAC variants are
//! numerically equivalent to each other and to single-process K-FAC — over
//! MLPs and CNNs, multiple world sizes, and with inverse-update intervals.

use spdkfac::collectives::{Backend, CommGroup};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, RunResult, TrainSession};
use spdkfac::core::optimizer::{KfacConfig, KfacOptimizer};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::placement::{self, PlacementStrategy};
use spdkfac::nn::data::{gaussian_blobs, synthetic_images, Dataset};
use spdkfac::nn::loss::softmax_cross_entropy;
use spdkfac::nn::models::{deep_mlp, small_cnn};
use spdkfac::nn::Sequential;

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn run(
    algo: Algorithm,
    world: usize,
    build: &(dyn Fn() -> Sequential + Sync),
    data: &Dataset,
    iters: usize,
    batch: usize,
) -> RunResult {
    let mut cfg = DistributedConfig::new(world, algo);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    TrainSession::builder(cfg)
        .run(build, data, iters, batch)
        .expect("local run")
}

#[test]
fn variants_agree_on_mlp_across_world_sizes() {
    let build = || deep_mlp(6, 12, 3, 3, 9);
    for world in [2usize, 3, 4] {
        let data = gaussian_blobs(3, 6, 12 * world, 0.3, 31);
        let d = run(Algorithm::DKfac, world, &build, &data, 6, 4);
        let m = run(Algorithm::MpdKfac, world, &build, &data, 6, 4);
        let s = run(Algorithm::SpdKfac, world, &build, &data, 6, 4);
        assert!(
            max_diff(&d.final_params, &m.final_params) < 1e-8,
            "world={world}: D vs MPD"
        );
        assert!(
            max_diff(&d.final_params, &s.final_params) < 1e-8,
            "world={world}: D vs SPD"
        );
    }
}

#[test]
fn variants_agree_on_cnn() {
    let build = || small_cnn(2, 4, 3, 17);
    let data = synthetic_images(3, 2, 4, 8, 0.3, 23);
    let d = run(Algorithm::DKfac, 2, &build, &data, 4, 3);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 4, 3);
    assert!(max_diff(&d.final_params, &s.final_params) < 1e-8);
}

#[test]
fn variants_agree_on_residual_batchnorm_net() {
    // tiny_resnet mixes preconditionable layers (stem conv, classifier) with
    // batch-norm and residual blocks whose parameters take first-order
    // updates — the hybrid path must stay in lockstep too.
    use spdkfac::nn::models::tiny_resnet;
    let build = || tiny_resnet(2, 4, 3, 41);
    let data = synthetic_images(3, 2, 4, 8, 0.3, 43);
    let d = run(Algorithm::DKfac, 2, &build, &data, 4, 3);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 4, 3);
    assert!(max_diff(&d.final_params, &s.final_params) < 1e-8);
    assert!(d.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn world_one_spd_matches_single_process_kfac() {
    // A 1-worker distributed SPD-KFAC run must match the single-process
    // optimizer step-for-step (same statistics, same inverses, same update).
    let data = gaussian_blobs(3, 6, 24, 0.3, 41);
    let iters = 5;
    let batch = 6;

    let dist = run(
        Algorithm::SpdKfac,
        1,
        &|| deep_mlp(6, 10, 2, 3, 3),
        &data,
        iters,
        batch,
    );

    let mut net = deep_mlp(6, 10, 2, 3, 3);
    let mut opt = KfacOptimizer::new(
        &net,
        KfacConfig {
            lr: 0.05,
            momentum: 0.0,
            damping: 0.1,
            ..KfacConfig::default()
        },
    );
    for i in 0..iters {
        let start = (i * batch) % (data.len() - batch + 1);
        let (x, y) = data.batch(start, batch);
        let out = net.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&out, &y);
        net.backward(&grad);
        opt.step(&mut net).expect("step");
    }
    assert!(
        max_diff(&dist.final_params, &net.flat_params()) < 1e-9,
        "distributed world-1 diverged from single-process K-FAC"
    );
}

#[test]
fn inverse_update_interval_preserves_equivalence() {
    let build = || deep_mlp(5, 8, 2, 2, 13);
    let data = gaussian_blobs(2, 5, 24, 0.3, 47);
    for algo in [Algorithm::DKfac, Algorithm::SpdKfac] {
        let mut cfg = DistributedConfig::new(2, algo);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        cfg.kfac.inv_update_freq = 3;
        let r = TrainSession::builder(cfg)
            .run(&build, &data, 7, 4)
            .expect("local run");
        assert!(r.losses.iter().all(|l| l.is_finite()), "{algo:?} diverged");
    }
}

#[test]
fn spd_moves_less_inverse_traffic_than_mpd_when_ncts_exist() {
    // With the default cost models most small tensors are NCTs, so SPD's
    // per-iteration broadcast count is lower than MPD's (which broadcasts
    // all 2L inverses).
    let build = || deep_mlp(6, 8, 5, 3, 19);
    let data = gaussian_blobs(3, 6, 24, 0.3, 53);
    let m = run(Algorithm::MpdKfac, 2, &build, &data, 3, 4);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 3, 4);
    // Same losses...
    for (a, b) in m.losses.iter().zip(s.losses.iter()) {
        assert!((a - b).abs() < 1e-8);
    }
    // ...possibly different communication profile (SPD ≤ MPD + its extra
    // fusion/plan ops). This is a smoke check that the counters move.
    assert!(m.traffic_elements > 0 && s.traffic_elements > 0);
}

/// Runs every rank of a local `cfg.world`-rank group through the endpoint
/// API, so each replica's own result comes back (a plain local run reports
/// rank 0's only).
fn run_every_rank(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    data: &Dataset,
    iters: usize,
    batch: usize,
) -> Vec<RunResult> {
    let endpoints = CommGroup::builder()
        .world_size(cfg.world)
        .backend(Backend::Local)
        .build()
        .expect("local group")
        .into_endpoints();
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                let session = TrainSession::builder(cfg.clone()).endpoint(comm);
                s.spawn(move || session.run(build, data, iters, batch).expect("rank run"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn dependency_driven_tail_with_cts_keeps_replicas_bit_identical() {
    // The paths a 2-rank all-NCT run never reaches: four ranks, a placement
    // mixing CTs with NCTs (so inverses are broadcast the moment their
    // owner has them, in the CT-first order every rank must walk alike),
    // stale inverses every other iteration, and the KL clip after the last
    // arrival.
    let world = 4;
    let build = || deep_mlp(8, 24, 3, 3, 29);
    let data = gaussian_blobs(3, 8, 6 * world, 0.3, 59);
    // Inverting d >= 24 is modelled dearer than broadcasting it; d <= 9 not.
    let comp = ExpInverseModel::new(1e-4, 0.1);
    let comm = AlphaBetaModel::new(3e-4, 1e-9);
    let dims: Vec<usize> = build()
        .kfac_dims()
        .iter()
        .flat_map(|&(a, g)| [a, g])
        .collect();
    let placed = placement::place(&dims, world, &comp, &comm, PlacementStrategy::default());
    assert!(
        (1..dims.len()).contains(&placed.num_nct()),
        "want a mixed placement, got {:?}",
        placed.assignments()
    );

    let config = |algo| {
        let mut cfg = DistributedConfig::new(world, algo);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        cfg.kfac.inv_update_freq = 2;
        cfg.kfac.kl_clip = Some(1e-3);
        cfg.comp_model = comp;
        cfg.comm_model = comm;
        cfg
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ranks = run_every_rank(&config(Algorithm::SpdKfac), &build, &data, 7, 4);
    assert!(ranks[0].losses.iter().all(|l| l.is_finite()));
    for (r, replica) in ranks.iter().enumerate().skip(1) {
        assert_eq!(
            bits(&replica.losses),
            bits(&ranks[0].losses),
            "rank {r} losses"
        );
        assert_eq!(
            bits(&replica.final_params),
            bits(&ranks[0].final_params),
            "rank {r} parameters"
        );
    }
    let d = TrainSession::builder(config(Algorithm::DKfac))
        .run(&build, &data, 7, 4)
        .expect("local run");
    let diff = max_diff(&d.final_params, &ranks[0].final_params);
    assert!(diff < 1e-8, "D vs SPD with CTs: {diff}");
}
