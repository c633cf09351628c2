//! Trainer identity harness: one hash of the final parameters and the loss
//! trajectory per configuration, over a grid of 192 local runs.
//!
//! ```text
//! cargo run --release --example trainer_hash > /tmp/hash.txt
//! cargo run --release --example trainer_hash -- params > /tmp/params.txt
//! cargo run --release --example trainer_hash -- compare /tmp/parent.txt /tmp/params.txt
//! ```
//!
//! A change to the planner, the iteration graph or the worker loop that
//! claims "same optimizer, same schedule" must print the same 192 lines as
//! its parent commit: copy this file into a clone of the parent, run both,
//! `cmp` the outputs. The grid pins `Naive` / `LayerWise` fusion —
//! `Optimal` cuts its messages from measured ready times, and the bucket
//! composition decides ring chunking, so at world ≥ 3 it is not
//! reproducible from run to run — which makes the output reproducible
//! across runs too (CI runs it twice and compares). Only the public
//! trainer API is used, so the file compiles unchanged on older commits.
//!
//! A change that moves the numbers on purpose (a different but equivalent
//! kernel) is compared with a tolerance instead: `params` prints each
//! configuration's final parameters (one line each, round-trip decimal),
//! and `compare PARENT CHANGE` reads two such files and prints, per
//! algorithm, the largest relative deviation `‖p − q‖∞ / ‖p‖∞` over its
//! configurations.

use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::{FusionStrategy, PlacementStrategy};
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use std::collections::BTreeMap;

/// FNV-1a over the bit patterns of `values`.
fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the grid in order and hands each configuration's label, final
/// parameters and losses to `report`.
fn run_grid(mut report: impl FnMut(&str, &[f64], &[f64])) {
    let algorithms = [
        Algorithm::SSgd,
        Algorithm::DKfac,
        Algorithm::MpdKfac,
        Algorithm::SpdKfac,
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
                            let label = format!(
                                "{algorithm:?} world={world} placement={placement:?} \
                                 fusion={fusion:?} inv_update_freq={inv_update_freq} \
                                 grad_fusion_elems={grad_fusion_elems}"
                            );
                            report(&label, &run.final_params, &run.losses);
                        }
                    }
                }
            }
        }
    }
}

/// A `params` file: label → final parameters.
fn read_params(path: &str) -> BTreeMap<String, Vec<f64>> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .map(|line| {
            let (label, values) = line.split_once('\t').expect("label<TAB>values");
            let values = values
                .split(' ')
                .map(|v| v.parse().unwrap_or_else(|e| panic!("{path}: {v}: {e}")))
                .collect();
            (label.to_string(), values)
        })
        .collect()
}

/// Per algorithm (the label's first word), the largest relative deviation
/// of `change` from `parent` over its configurations.
fn compare(parent: &str, change: &str) {
    let (parent, change) = (read_params(parent), read_params(change));
    assert_eq!(
        parent.keys().collect::<Vec<_>>(),
        change.keys().collect::<Vec<_>>(),
        "the two files hold different configurations"
    );
    let mut worst: Vec<(String, f64)> = Vec::new();
    for (label, p) in &parent {
        let q = &change[label];
        assert_eq!(p.len(), q.len(), "{label}: parameter counts differ");
        let scale = p.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let dev = p
            .iter()
            .zip(q)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / scale;
        let algorithm = label.split(' ').next().expect("non-empty label");
        match worst.iter_mut().find(|(a, _)| a == algorithm) {
            Some((_, w)) => *w = w.max(dev),
            None => worst.push((algorithm.to_string(), dev)),
        }
    }
    for (algorithm, dev) in worst {
        println!("{algorithm} {dev:.3e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => run_grid(|label, params, losses| {
            let hash = fnv(params.iter().chain(losses).copied());
            println!("{label} {hash:016x}");
        }),
        ["params"] => run_grid(|label, params, _| {
            let values: Vec<String> = params.iter().map(|v| format!("{v:?}")).collect();
            println!("{label}\t{}", values.join(" "));
        }),
        ["compare", parent, change] => compare(parent, change),
        _ => {
            eprintln!("usage: trainer_hash [params | compare PARENT CHANGE]");
            std::process::exit(2);
        }
    }
}
