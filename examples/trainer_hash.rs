//! Trainer identity harness: one hash of the final parameters and the loss
//! trajectory per configuration, over a grid of 240 local runs.
//!
//! ```text
//! cargo run --release --example trainer_hash > /tmp/hash.txt
//! ```
//!
//! A change to the planner, the iteration graph or the worker loop that
//! claims "same optimizer, same schedule" must print the same 240 lines as
//! its parent commit: copy this file into a clone of the parent, run both,
//! `cmp` the outputs. The grid pins `Naive` / `LayerWise` fusion —
//! `Optimal` cuts its messages from measured ready times, and the bucket
//! composition decides ring chunking, so at world ≥ 3 it is not
//! reproducible from run to run — which makes the output reproducible
//! across runs too (CI runs it twice and compares). Only the public
//! trainer API is used, so the file compiles unchanged on older commits.

use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::{FusionStrategy, PlacementStrategy};
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;

/// FNV-1a over the bit patterns of `values`.
fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let algorithms = [
        Algorithm::SSgd,
        Algorithm::DKfac,
        Algorithm::MpdKfac,
        Algorithm::SpdKfac,
        Algorithm::EkfacSpd,
    ];
    for algorithm in algorithms {
        for world in [1usize, 2, 4] {
            let data = gaussian_blobs(3, 8, 6 * world.max(2), 0.3, 59);
            for placement in [None, Some(PlacementStrategy::SeqDist)] {
                for fusion in [FusionStrategy::Naive, FusionStrategy::LayerWise] {
                    for inv_update_freq in [1usize, 3] {
                        for grad_fusion_elems in [16 * 1024 * 1024, 64] {
                            let mut cfg = DistributedConfig::new(world, algorithm);
                            cfg.kfac.damping = 0.1;
                            cfg.kfac.lr = 0.05;
                            cfg.kfac.momentum = 0.0;
                            cfg.kfac.kl_clip = Some(1e-3);
                            cfg.kfac.inv_update_freq = inv_update_freq;
                            // A CT/NCT mix under LBP.
                            cfg.comp_model = ExpInverseModel::new(1e-4, 0.1);
                            cfg.comm_model = AlphaBetaModel::new(3e-4, 1e-9);
                            cfg.placement = placement;
                            cfg.fusion = fusion;
                            cfg.grad_fusion_elems = grad_fusion_elems;
                            let run = TrainSession::builder(cfg)
                                .run(&|| deep_mlp(8, 24, 3, 3, 29), &data, 7, 4)
                                .expect("local run");
                            let hash = fnv(run.final_params.iter().chain(&run.losses).copied());
                            println!(
                                "{algorithm:?} world={world} placement={placement:?} \
                                 fusion={fusion:?} inv_update_freq={inv_update_freq} \
                                 grad_fusion_elems={grad_fusion_elems} {hash:016x}"
                            );
                        }
                    }
                }
            }
        }
    }
}
