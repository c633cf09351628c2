//! Cross-crate integration of the adaptive re-planning runtime
//! (`core::runtime`): a real 4-rank run whose trainer was seeded with a
//! wildly mis-calibrated inversion model must re-plan at a barrier, all
//! ranks must agree on the new plan generation, and the re-plan must be
//! numerically transparent — the loss trajectory matches a static-plan
//! baseline to floating-point noise. The causal analyzer must keep
//! attributing ≥95% of wall time across the generation boundary.

use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::runtime::ReplanPolicy;
use spdkfac::core::PlacementStrategy;
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::{deep_mlp, mlp};
use spdkfac::obs::{CollEdge, CriticalReport, Phase, Recorder, Span, TrackLayout};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A 4-rank SPD-KFAC config whose planning models believe inversion is
/// ~1e9x costlier than it is: every tensor classifies CT at startup, so a
/// calibration-driven re-plan (which sees the measured microsecond-scale
/// inversions) has room to flip small tensors to NCT.
fn miscalibrated_cfg(world: usize, replan: ReplanPolicy) -> DistributedConfig {
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    cfg.comp_model = ExpInverseModel::new(cfg.comp_model.alpha * 1e9, cfg.comp_model.beta);
    cfg.replan = replan;
    cfg
}

fn run(cfg: &DistributedConfig, iters: usize) -> (Arc<Recorder>, Vec<f64>, Vec<f64>) {
    let rec = Arc::new(Recorder::new(2 * cfg.world));
    let data = gaussian_blobs(3, 8, 8 * cfg.world, 0.3, 42);
    let out = TrainSession::builder(cfg.clone())
        .recorder(Arc::clone(&rec))
        .run(&|| deep_mlp(8, 24, 8, 3, 5), &data, iters, 4)
        .expect("local run");
    (rec, out.losses, out.final_params)
}

/// The plan generations stamped on rank `r`'s collective submissions
/// (comm-thread track `world + r` under the trainer layout).
fn generations_for_rank(spans: &[Span], world: usize, rank: usize) -> BTreeSet<u64> {
    spans
        .iter()
        .filter(|s| s.track == world + rank)
        .filter_map(|s| s.meta.generation)
        .collect()
}

/// Every rank stamped the identical set of generations onto its
/// collectives — the observable form of "all ranks swapped together".
/// Returns that set.
fn generations_all_ranks_agree_on(spans: &[Span], world: usize) -> BTreeSet<u64> {
    let gen0 = generations_for_rank(spans, world, 0);
    assert!(gen0.contains(&0));
    for r in 1..world {
        assert_eq!(
            generations_for_rank(spans, world, r),
            gen0,
            "rank {r} disagrees on plan generations"
        );
    }
    gen0
}

/// Re-planning is numerically transparent: same losses and parameters as
/// the static-plan baseline (placement/fusion move work and messages
/// around, never values).
fn assert_matches_static_baseline(run: (&[f64], &[f64]), baseline: (&[f64], &[f64])) {
    let ((losses, params), (base_losses, base_params)) = (run, baseline);
    assert_eq!(losses.len(), base_losses.len());
    for (i, (a, b)) in losses.iter().zip(base_losses).enumerate() {
        assert!(
            (a - b).abs() < 1e-8,
            "iteration {i}: loss {a} vs static baseline {b}"
        );
    }
    let dp = params
        .iter()
        .zip(base_params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(dp < 1e-8, "final params drifted {dp:.3e} from baseline");
}

#[test]
fn miscalibrated_run_replans_at_barrier_and_all_ranks_agree() {
    let world = 4;
    let iters = 8;
    let (rec, losses, params) = run(&miscalibrated_cfg(world, ReplanPolicy::EveryN(2)), iters);
    let (_, base_losses, base_params) = run(&miscalibrated_cfg(world, ReplanPolicy::Off), iters);

    // The runtime entered its barriers and actuated at least one swap.
    let snap = rec.metrics().snapshot();
    assert!(
        snap.counters["runtime/checks"] >= 2,
        "expected >=2 re-plan barriers, got {}",
        snap.counters["runtime/checks"]
    );
    assert!(
        snap.counters["runtime/swaps"] >= 1,
        "measured models never displaced the mis-calibrated plan"
    );
    assert!(snap.gauges["runtime/generation"] >= 1.0);
    assert!(snap.counters["runtime/flips_applied"] >= 1);
    assert_eq!(snap.histograms["runtime/swap_latency_s"].count, {
        snap.counters["runtime/checks"]
    });
    // The plan gauges follow the swap: every tensor started CT, so the
    // flips applied can only have made NCTs. (Fails at the parent commit,
    // which published the gauges with the first plan and never again.)
    let tensors = 2 * deep_mlp(8, 24, 8, 3, 5).kfac_dims().len();
    let (nct, ct) = (snap.gauges["placement/nct"], snap.gauges["placement/ct"]);
    assert!(nct >= 1.0, "placement/nct still describes the first plan");
    assert_eq!(nct + ct, tensors as f64);

    let spans = rec.spans();
    let generations = generations_all_ranks_agree_on(&spans, world);
    assert!(
        generations.len() >= 2,
        "no generation boundary in the trace"
    );
    assert_matches_static_baseline((&losses, &params), (&base_losses, &base_params));

    // The causal analyzer keeps per-(generation, seq) collective matching
    // sound across the swap: the critical path still tiles >=95% of the
    // iteration window even though the submission order changed mid-run.
    let report = CriticalReport::from_spans(&spans, &TrackLayout::trainer(world));
    let wall = report.wall();
    assert!(wall > 0.0);
    assert!(
        report.path_total() >= 0.95 * wall,
        "critical path covers {:.6}s of {:.6}s across the generation boundary",
        report.path_total(),
        wall
    );
    assert!(report.num_groups > 0);
}

#[test]
fn replan_off_keeps_generation_zero_and_publishes_no_runtime_metrics() {
    let world = 2;
    let (rec, _, _) = run(&miscalibrated_cfg(world, ReplanPolicy::Off), 4);
    let spans = rec.spans();
    for r in 0..world {
        let gens = generations_for_rank(&spans, world, r);
        assert!(
            gens.iter().all(|&g| g == 0),
            "rank {r} left generation 0 with re-planning off: {gens:?}"
        );
    }
    let snap = rec.metrics().snapshot();
    assert!(!snap.counters.contains_key("runtime/checks"));
    assert!(!snap.counters.contains_key("runtime/swaps"));
}

#[test]
fn on_drift_policy_swaps_and_respects_hysteresis_cadence() {
    // OnDrift{check_every: 2, hysteresis: 2} over 8 iterations: barriers
    // after iterations 1, 3, 5, 7; a swap needs two consecutive differing
    // candidates, so the earliest possible swap is the second barrier and
    // swaps can never outnumber floor(checks / hysteresis).
    let world = 4;
    let (rec, _, _) = run(
        &miscalibrated_cfg(
            world,
            ReplanPolicy::OnDrift {
                check_every: 2,
                hysteresis: 2,
            },
        ),
        8,
    );
    let snap = rec.metrics().snapshot();
    let checks = snap.counters["runtime/checks"];
    assert_eq!(checks, 4);
    let swaps = snap.counters["runtime/swaps"];
    assert!(
        swaps >= 1,
        "persistent mis-calibration never survived hysteresis"
    );
    assert!(swaps <= checks / 2, "swaps {swaps} exceed hysteresis bound");
}

#[test]
fn first_iteration_barrier_carries_ready_times_and_models_in_one_message() {
    // EveryN(1): the segment's first iteration is also due, so its barrier
    // agrees on the ready times *and* the cost lines — in one all-reduce.
    let world = 4;
    let iters = 5;
    let (rec, losses, params) = run(&miscalibrated_cfg(world, ReplanPolicy::EveryN(1)), iters);
    let (_, base_losses, base_params) = run(&miscalibrated_cfg(world, ReplanPolicy::Off), iters);

    let snap = rec.metrics().snapshot();
    assert_eq!(snap.counters["runtime/checks"], iters as u64);
    let spans = rec.spans();
    generations_all_ranks_agree_on(&spans, world);
    assert_matches_static_baseline((&losses, &params), (&base_losses, &base_params));

    // Rank 0, between the end of iteration 0's `Update` and the start of
    // iteration 1's forward pass: exactly one control all-reduce, holding
    // the 15 model slots and a ready and a tail time per factor.
    let control = control_messages(&spans, world, 0);
    let factors = 2 * deep_mlp(8, 24, 8, 3, 5).kfac_dims().len();
    assert_eq!(control.len(), 1, "{control:?}");
    assert_eq!(control[0].meta.edge, Some(CollEdge::Join));
    assert_eq!(control[0].meta.size, Some(15 + 2 * factors));
}

/// Rank 0's control all-reduces between the end of iteration `iter`'s
/// `Update` and the start of the next forward pass.
fn control_messages(spans: &[Span], world: usize, iter: usize) -> Vec<&Span> {
    let update_end = spans
        .iter()
        .find(|s| s.track == 0 && s.label == format!("iter{iter}"))
        .expect("the iteration's update span")
        .end;
    let next_forward = spans
        .iter()
        .filter(|s| s.track == 0 && s.phase == Phase::FfBp && s.start >= update_end)
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    spans
        .iter()
        .filter(|s| s.track == world && s.phase == Phase::Update)
        .filter(|s| s.start >= update_end && s.start < next_forward)
        .collect()
}

#[test]
fn every_due_barrier_agrees_on_the_times_its_own_iteration_measured() {
    // EveryN(2): barriers after iterations 1, 3 and 5; the first iteration
    // agrees on its times alone. Every due barrier carries the 15 model
    // slots and the ready and tail times measured in *that* iteration —
    // not the segment's first iteration's, which the barrier used to reuse.
    let world = 2;
    let (rec, _, _) = run(&miscalibrated_cfg(world, ReplanPolicy::EveryN(2)), 6);
    let spans = rec.spans();
    let timed = 4 * deep_mlp(8, 24, 8, 3, 5).kfac_dims().len();
    for iter in 0..6 {
        let sizes: Vec<Option<usize>> = control_messages(&spans, world, iter)
            .iter()
            .map(|s| s.meta.size)
            .collect();
        let want = match iter {
            0 => vec![Some(timed)],
            1 | 3 | 5 => vec![Some(15 + timed)],
            _ => vec![],
        };
        assert_eq!(sizes, want, "after iteration {iter}");
    }
}

#[test]
fn re_measured_times_alone_can_swap_the_plan() {
    // Fixed models: the recorder holds only the compute track, so the
    // calibrator never sees a collective and the fusion lines stay the
    // configuration's, and `NonDist` placement ignores the inversion line.
    // What moves between barriers is the measured times. Inverses are
    // refreshed every other iteration, and on those the `A` inversion of
    // the 513-wide factor keeps the compute thread busy past every `G`
    // message: tails cannot overlap the link, and the plan is Eq. 15's,
    // which merges the two `G` factors (taken well within 2α of each
    // other). In between, the last layer's preconditioning (≫ 2α) can run
    // while the 512-wide `G` is still on the wire, so the `G` pass splits.
    // Both times scale with the build; α sits between them in either.
    let alpha = if cfg!(debug_assertions) { 2e-2 } else { 8e-4 };
    let world = 1;
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    cfg.kfac.inv_update_freq = 2;
    cfg.placement = Some(PlacementStrategy::NonDist);
    cfg.comm_model = AlphaBetaModel::new(alpha, 1e-9);
    cfg.replan = ReplanPolicy::EveryN(1);
    let rec = Arc::new(Recorder::new(world));
    let data = gaussian_blobs(3, 8, 8, 0.3, 42);
    let out = TrainSession::builder(cfg)
        .recorder(Arc::clone(&rec))
        .run(&|| mlp(&[8, 512, 256], 5), &data, 4, 4)
        .expect("local run");
    assert!(out.losses.iter().all(|l| l.is_finite()));
    let snap = rec.metrics().snapshot();
    assert_eq!(snap.counters["runtime/checks"], 4);
    assert_eq!(
        snap.gauges["calib/allreduce/samples"], 0.0,
        "the calibrator saw a collective"
    );
    assert!(
        snap.counters.get("runtime/swaps").copied().unwrap_or(0) >= 1,
        "the times re-measured at each barrier never moved the plan"
    );
    assert!(snap.counters["runtime/fusion_replans"] >= 1);
}
