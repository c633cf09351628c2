//! Allocation gate of the training iteration, in a process of its own (a
//! counting global allocator, filtered to the rank threads): once a plan
//! has run its first iteration, a steady iteration allocates nothing of
//! 128 KiB or more on a rank's compute thread, and no more blocks of 4 KiB
//! or more than a bare forward and backward pass of the same model makes —
//! message payloads, statistics, factors, inverses, directions and weight
//! gradients all live across iterations (DESIGN §2.6 "Buffers").

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_this_thread, CountingAlloc, BIG_ALLOCS, HUGE, HUGE_ALLOCS};
use spdkfac::collectives::{Backend, CommGroup};
use spdkfac::core::distributed::{iteration_graph, Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::iteration::{Op, Who};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::runtime::{Costs, Planner};
use spdkfac::core::FusionStrategy;
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::loss::softmax_cross_entropy;
use spdkfac::nn::models::deep_mlp;
use spdkfac::nn::Sequential;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Wide enough that a factor, its inverse, a weight gradient and every
/// message are at least [`HUGE`] bytes: where the heap churned before.
const HIDDEN: usize = 128;
const BATCH: usize = 8;
const SHORT: usize = 3;
const LONG: usize = 5;

fn model() -> Sequential {
    deep_mlp(16, HIDDEN, 2, 4, 7)
}

/// `(blocks >= 4 KiB, blocks >= 128 KiB)` counted so far.
fn counts() -> (usize, usize) {
    (
        BIG_ALLOCS.load(Ordering::SeqCst),
        HUGE_ALLOCS.load(Ordering::SeqCst),
    )
}

/// What the rank threads of one `iters`-iteration session allocate.
fn session(cfg: &DistributedConfig, data: &Dataset, iters: usize) -> (usize, usize) {
    let endpoints = CommGroup::builder()
        .world_size(cfg.world)
        .backend(Backend::Local)
        .build()
        .expect("local group")
        .into_endpoints();
    let before = counts();
    std::thread::scope(|s| {
        for comm in endpoints {
            s.spawn(move || {
                count_this_thread(true);
                TrainSession::builder(cfg.clone())
                    .endpoint(comm)
                    .run(&model, data, iters, BATCH)
                    .expect("in-process run");
                count_this_thread(false);
            });
        }
    });
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn steady_iterations_reuse_every_large_buffer() {
    // The yardstick: one warm forward (capturing statistics) and backward
    // pass on a rank's batch. Layer activations and deltas are `nn`'s.
    let data = gaussian_blobs(4, 16, 16 * BATCH, 0.3, 11);
    let mut net = model();
    let (x, y) = data.batch(0, BATCH);
    let pass = |net: &mut Sequential| {
        let logits = net.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        net.backward(&grad);
    };
    pass(&mut net);
    count_this_thread(true);
    let before = counts();
    pass(&mut net);
    let after = counts();
    count_this_thread(false);
    let bare = after.0 - before.0;

    let algorithms = [
        Algorithm::SpdKfac,
        Algorithm::MpdKfac,
        Algorithm::DKfac,
        Algorithm::SSgd,
    ];
    for algorithm in algorithms {
        for world in [2, 4] {
            for inv_update_freq in [1, 2] {
                let mut cfg = DistributedConfig::new(world, algorithm);
                cfg.kfac.damping = 0.1;
                cfg.kfac.lr = 0.05;
                cfg.kfac.kl_clip = Some(1e-3);
                cfg.kfac.inv_update_freq = inv_update_freq;
                // SPD-KFAC places a CT/NCT mix under LBP with these models
                // (MPD-KFAC broadcasts every inverse, D-KFAC none);
                // `LayerWise` keeps the plan, and so what a session's
                // install allocates, the same from run to run.
                cfg.comp_model = ExpInverseModel::new(1e-4, 0.1);
                cfg.comm_model = AlphaBetaModel::new(3e-4, 1e-9);
                cfg.fusion = FusionStrategy::LayerWise;
                let name = format!("{algorithm:?} world {world} inv_update_freq {inv_update_freq}");
                if algorithm == Algorithm::SpdKfac {
                    let net = model();
                    let plan =
                        Planner::new(&cfg, &net.kfac_dims(), world).plan(&Costs::default(), None);
                    let graph = iteration_graph(&cfg, &net, &plan, true);
                    let ops = graph.nodes().iter();
                    assert!(
                        ops.clone().any(|n| matches!(n.op, Op::Broadcast { .. })),
                        "{name}: no CT"
                    );
                    assert!(
                        ops.clone()
                            .any(|n| matches!(n.op, Op::Invert(_)) && n.who == Who::Every),
                        "{name}: no NCT"
                    );
                }
                // The difference of two sessions is what their extra
                // iterations cost: set-up, the first plan's iteration and
                // its install, and the teardown cancel.
                let short = session(&cfg, &data, SHORT);
                let long = session(&cfg, &data, LONG);
                let steady = (LONG - SHORT) * world;
                let (big, huge) = (long.0 - short.0, long.1 - short.1);
                eprintln!(
                    "{name}: {big} >= 4 KiB, {huge} >= 128 KiB in {steady} steady \
                     rank-iterations (a bare pass: {bare} >= 4 KiB)"
                );
                assert_eq!(
                    huge, 0,
                    "{name}: {huge} allocations >= {HUGE} bytes in {steady} steady rank-iterations"
                );
                assert!(
                    big <= bare * steady,
                    "{name}: {big} allocations >= 4 KiB in {steady} steady rank-iterations, \
                     a bare forward + backward makes {bare} per iteration"
                );
            }
        }
    }
}
