//! Property tests for the fusion planner, the load-balancing placement,
//! and the planner (`core::runtime`) that calls both.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac_core::distributed::{Algorithm, DistributedConfig};
use spdkfac_core::fusion::{self, FactorPipeline, FusionStrategy};
use spdkfac_core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac_core::placement::{self, LbpWeight, PlacementStrategy, TensorAssignment};
use spdkfac_core::runtime::{Costs, Planner, ReplanController, ReplanPolicy};

/// Strategy: a pipeline of 1..40 factors with non-decreasing ready times.
fn pipeline_strategy() -> impl Strategy<Value = FactorPipeline> {
    (1usize..40).prop_flat_map(|n| {
        (pvec(0.0f64..0.5, n), pvec(1usize..5_000_000, n)).prop_map(|(gaps, sizes)| {
            let mut ready = Vec::with_capacity(gaps.len());
            let mut t = 0.0;
            for g in gaps {
                t += g;
                ready.push(t);
            }
            FactorPipeline::new(ready, sizes).expect("constructed valid")
        })
    })
}

fn comm_strategy() -> impl Strategy<Value = AlphaBetaModel> {
    (1e-5f64..5e-3, 1e-11f64..1e-8).prop_map(|(a, b)| AlphaBetaModel::new(a, b))
}

fn inverse_strategy() -> impl Strategy<Value = ExpInverseModel> {
    (1e-6f64..1e-2, 1e-4f64..3e-3).prop_map(|(a, b)| ExpInverseModel::new(a, b))
}

/// Running sums of `gaps`: a non-decreasing series of ready times.
fn cumulative(gaps: &[f64]) -> impl Iterator<Item = f64> + '_ {
    gaps.iter().scan(0.0, |t, g| {
        *t += g;
        Some(*t)
    })
}

/// Strategy: the `(a_dim, g_dim)` factor dimensions of 1..20 layers, and a
/// ready time per factor in pipeline order (non-decreasing within a pass).
fn layers_strategy() -> impl Strategy<Value = (Vec<(usize, usize)>, Vec<f64>)> {
    (1usize..20).prop_flat_map(|n| {
        let dims = pvec((8usize..4096, 8usize..4096), n);
        (dims, pvec(0.0f64..0.5, 2 * n)).prop_map(move |(dims, gaps)| {
            let (a, g) = gaps.split_at(n);
            (dims, cumulative(a).chain(cumulative(g)).collect())
        })
    })
}

/// Strategy: `None` or a value of `s`, evenly.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0usize..2, s).prop_map(|(present, v)| (present == 1).then_some(v))
}

/// Strategy: a cost record with any subset of its lines present, with or
/// without `ready` and `tail` times for `factors` factors (tails only
/// beside ready times).
fn costs_strategy(factors: usize) -> impl Strategy<Value = Costs> {
    let comm = || maybe(comm_strategy());
    let lines = (comm(), comm(), maybe(inverse_strategy()), comm(), comm());
    let times = || pvec(0.0f64..2.0, factors);
    (lines, maybe((times(), maybe(times())))).prop_map(|(lines, timed)| {
        let (allreduce, broadcast, inverse, allreduce_wire, encode) = lines;
        let (ready, tail) = timed.unzip();
        Costs {
            allreduce,
            broadcast,
            inverse,
            allreduce_wire,
            encode,
            ready,
            tail: tail.flatten(),
        }
    })
}

/// Strategy: a pipeline as [`pipeline_strategy`] gives, with a tail of up
/// to 0.5 s per factor, up to 5 M trailing elements behind it (or none) and
/// the compute thread free at 0–5 s.
fn tailed_strategy() -> impl Strategy<Value = FactorPipeline> {
    pipeline_strategy().prop_flat_map(|p| {
        let n = p.len();
        let trailing = (0usize..5_000_000).prop_map(|m| m.saturating_sub(1_000_000));
        (pvec(0.0f64..0.5, n), pvec(trailing, n), 0.0f64..5.0).prop_map(
            move |(tail, trailing, free_at)| {
                p.clone()
                    .with_tail(tail, trailing, free_at)
                    .expect("constructed valid")
            },
        )
    })
}

/// The raw inputs of a pipeline — ready times, sizes, and (when tailed)
/// tails, trailing elements and the compute thread's free time — with the
/// pipeline built from them.
#[derive(Debug, Clone)]
struct Inputs {
    ready: Vec<f64>,
    sizes: Vec<usize>,
    tail: Vec<f64>,
    trailing: Vec<usize>,
    compute_free_at: f64,
    pipeline: FactorPipeline,
}

/// Strategy: [`Inputs`] of 1..40 factors, with tails and trailing elements
/// or without (zeros and a thread free from 0, the constructor's defaults).
fn inputs_strategy() -> impl Strategy<Value = Inputs> {
    (1usize..40).prop_flat_map(|n| {
        let tailed = (
            pvec(0.0f64..0.5, n),
            pvec(0usize..3_000_000, n),
            0.0f64..5.0,
        );
        // Factors ready together, often at 0, as well as spread out.
        let gap = maybe(0.0f64..0.5).prop_map(Option::unwrap_or_default);
        (pvec(gap, n), pvec(1usize..5_000_000, n), maybe(tailed)).prop_map(
            move |(gaps, sizes, tailed): (Vec<f64>, Vec<usize>, _)| {
                let ready: Vec<f64> = cumulative(&gaps).collect();
                let bare = FactorPipeline::new(ready.clone(), sizes.clone()).expect("valid");
                let (tail, trailing, compute_free_at) =
                    tailed.unwrap_or((vec![0.0; n], vec![0; n], 0.0));
                let pipeline = bare
                    .with_tail(tail.clone(), trailing.clone(), compute_free_at)
                    .expect("valid");
                Inputs {
                    ready,
                    sizes,
                    tail,
                    trailing,
                    compute_free_at,
                    pipeline,
                }
            },
        )
    })
}

/// The parent's outcome fields, as the reference loop computes them.
struct Reference {
    spans: Vec<(f64, f64)>,
    tails: Vec<(f64, f64)>,
    link_end: f64,
    tail_end: f64,
    finish: f64,
}

/// The oracle for [`fusion::simulate`]: the hand-written loop over one link
/// and one compute thread that priced every plan before the task-graph
/// engine did, kept verbatim (the link free from 0).
fn reference_simulate(x: &Inputs, buckets: &[Vec<usize>], comm: &AlphaBetaModel) -> Reference {
    let net_free_at = 0.0;
    let (mut net_free, mut compute_free) = (net_free_at, x.compute_free_at);
    let mut spans = Vec::with_capacity(buckets.len());
    let mut tails = Vec::with_capacity(buckets.len());
    for bucket in buckets {
        let ready = bucket
            .iter()
            .map(|&i| x.ready[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let start = ready.max(net_free);
        let elems: usize = bucket.iter().map(|&i| x.sizes[i]).sum();
        let trailing: usize = bucket.iter().map(|&i| x.trailing[i]).sum();
        let mut end = start + comm.time(elems);
        if trailing > 0 {
            end += comm.time(trailing);
        }
        spans.push((start, end));
        net_free = end;
        let tail: f64 = bucket.iter().map(|&i| x.tail[i]).sum();
        let tail_start = compute_free.max(end);
        compute_free = tail_start + tail;
        tails.push((tail_start, compute_free));
    }
    let link_end = spans.last().map_or(net_free_at, |&(_, e)| e);
    let tail_end = tails.last().map_or(link_end, |&(_, e)| e);
    Reference {
        spans,
        tails,
        link_end,
        tail_end,
        finish: link_end.max(tail_end),
    }
}

/// `Optimal`'s order on `(finish, link end, messages)`: each within 1e-12
/// is a tie, broken by the next.
fn better(a: (f64, f64, usize), b: (f64, f64, usize)) -> bool {
    let tie = |x: f64, y: f64| (x - y).abs() < 1e-12;
    if !tie(a.0, b.0) {
        return a.0 < b.0;
    }
    if !tie(a.1, b.1) {
        return a.1 < b.1;
    }
    a.2 < b.2
}

/// Every partition one merge of adjacent buckets or one split of a bucket
/// away from `buckets`: the moves `Optimal`'s hill climb tries.
fn neighbours(buckets: &[Vec<usize>]) -> Vec<Vec<Vec<usize>>> {
    let mut out = Vec::new();
    for i in 0..buckets.len().saturating_sub(1) {
        let mut cand = buckets.to_vec();
        let right = cand.remove(i + 1);
        cand[i].extend(right);
        out.push(cand);
    }
    for i in 0..buckets.len() {
        for cut in 1..buckets[i].len() {
            let mut cand = buckets.to_vec();
            let right = cand[i].split_off(cut);
            cand.insert(i + 1, right);
            out.push(cand);
        }
    }
    out
}

/// The bit patterns of a list of `(start, end)` pairs.
fn bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
    pairs
        .iter()
        .map(|(a, b)| (a.to_bits(), b.to_bits()))
        .collect()
}

/// Every strategy the planner offers, the threshold one with `cycle_s`.
fn strategies(cycle_s: f64) -> [FusionStrategy; 4] {
    [
        FusionStrategy::Naive,
        FusionStrategy::LayerWise,
        FusionStrategy::Threshold {
            elems: 4_000_000,
            cycle_s,
        },
        FusionStrategy::Optimal,
    ]
}

/// An SPD-KFAC planner with time-weighted LBP and Eq. 15 fusion.
fn spd_planner(dims: &[(usize, usize)], world: usize) -> Planner {
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.placement = Some(PlacementStrategy::Lbp {
        weight: LbpWeight::ModeledTime,
    });
    cfg.fusion = FusionStrategy::Optimal;
    Planner::new(&cfg, dims, world)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_produce_valid_partitions(p in pipeline_strategy(), comm in comm_strategy()) {
        for s in [
            FusionStrategy::Naive,
            FusionStrategy::LayerWise,
            FusionStrategy::Threshold { elems: 4_000_000, cycle_s: 0.01 },
            FusionStrategy::Optimal,
        ] {
            let plan = fusion::plan(&p, &comm, s);
            prop_assert!(plan.is_valid_partition(p.len()), "{s:?} broke the partition");
        }
    }

    #[test]
    fn simulate_spans_are_serialized_and_causal(p in pipeline_strategy(), comm in comm_strategy()) {
        let plan = fusion::plan(&p, &comm, FusionStrategy::Optimal);
        let out = fusion::simulate(&p, &plan, &comm);
        // Messages never overlap each other.
        for w in out.spans.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-12);
        }
        // A message never starts before its members are ready.
        for (bucket, &(start, end)) in plan.buckets().iter().zip(out.spans.iter()) {
            let ready = bucket.iter().map(|&i| p.ready()[i]).fold(f64::MIN, f64::max);
            prop_assert!(start >= ready - 1e-12);
            prop_assert!(end >= start);
        }
    }

    #[test]
    fn optimal_never_loses_to_baselines_analytically(p in pipeline_strategy(), comm in comm_strategy()) {
        let otf = fusion::simulate(&p, &fusion::plan(&p, &comm, FusionStrategy::Optimal), &comm);
        for s in [
            FusionStrategy::Naive,
            FusionStrategy::LayerWise,
            FusionStrategy::Threshold { elems: 4_000_000, cycle_s: 0.005 },
        ] {
            let alt = fusion::simulate(&p, &fusion::plan(&p, &comm, s), &comm);
            prop_assert!(
                otf.finish <= alt.finish + 1e-9,
                "Optimal {:.6} lost to {s:?} {:.6}",
                otf.finish,
                alt.finish
            );
        }
    }

    #[test]
    fn the_engine_prices_every_plan_bit_for_bit_as_the_reference_loop(
        x in inputs_strategy(),
        alpha in (maybe(-0.1f64..0.0), 0.0f64..5e-3).prop_map(|(neg, pos)| neg.unwrap_or(pos)),
        beta in 1e-11f64..1e-8,
        elems in 1usize..20_000_000,
        cycle_s in 0.0f64..0.5,
    ) {
        // A negative α (a fitted line below zero for small messages) prices
        // some messages below zero, and can end one before time 0; the
        // engine takes them as given, like the loop did.
        let comm = AlphaBetaModel::new(alpha, beta);
        let mut strategies = strategies(cycle_s);
        strategies[2] = FusionStrategy::Threshold { elems, cycle_s };
        for s in strategies {
            let plan = fusion::plan(&x.pipeline, &comm, s);
            let got = fusion::simulate(&x.pipeline, &plan, &comm);
            let want = reference_simulate(&x, plan.buckets(), &comm);
            prop_assert_eq!(bits(&got.spans), bits(&want.spans), "{:?}", s);
            prop_assert_eq!(bits(&got.tails), bits(&want.tails), "{:?}", s);
            prop_assert_eq!(got.link_end.to_bits(), want.link_end.to_bits());
            prop_assert_eq!(got.tail_end.to_bits(), want.tail_end.to_bits());
            prop_assert_eq!(got.finish.to_bits(), want.finish.to_bits());
        }
        // The `Optimal` plan ends a hill climb: priced by the reference
        // loop, no merge or split beats it.
        let plan = fusion::plan(&x.pipeline, &comm, FusionStrategy::Optimal);
        let score = |b: &[Vec<usize>]| {
            let r = reference_simulate(&x, b, &comm);
            (r.finish, r.link_end, b.len())
        };
        let here = score(plan.buckets());
        for cand in neighbours(plan.buckets()) {
            prop_assert!(!better(score(&cand), here), "{:?} beats {:?}", cand, plan.buckets());
        }
    }

    #[test]
    fn zero_tails_plan_exactly_as_no_tails(
        p in pipeline_strategy(),
        comm in comm_strategy(),
        free_at in 0.0f64..40.0,
    ) {
        // One code path: zero tails and no trailing messages score every
        // plan as the tail-free timeline does, wherever the compute thread
        // frees up.
        let n = p.len();
        let zero = p.clone().with_tail(vec![0.0; n], vec![0; n], free_at).expect("valid");
        for s in strategies(0.01) {
            prop_assert_eq!(fusion::plan(&zero, &comm, s), fusion::plan(&p, &comm, s), "{:?}", s);
        }
    }

    #[test]
    fn optimal_never_loses_to_baselines_with_tails(p in tailed_strategy(), comm in comm_strategy()) {
        let [naive, layerwise, threshold, optimal] = strategies(0.005);
        let finish = |s| fusion::simulate(&p, &fusion::plan(&p, &comm, s), &comm).finish;
        let otf = finish(optimal);
        for s in [naive, layerwise, threshold] {
            let alt = finish(s);
            prop_assert!(otf <= alt + 1e-9, "Optimal {:.6} lost to {:?} {:.6}", otf, s, alt);
        }
    }

    #[test]
    fn a_tail_starts_once_its_bucket_has_landed_and_the_compute_thread_is_free(
        p in tailed_strategy(),
        comm in comm_strategy(),
        pick in 0usize..4,
    ) {
        let plan = fusion::plan(&p, &comm, strategies(0.01)[pick]);
        let out = fusion::simulate(&p, &plan, &comm);
        let mut compute_free = f64::NEG_INFINITY;
        for (bucket, (&(_, landed), &(start, end))) in
            plan.buckets().iter().zip(out.spans.iter().zip(&out.tails))
        {
            // The bucket's factor message, and its trailing message right
            // behind it, are in: the span covers both.
            let factor: usize = bucket.iter().map(|&i| p.sizes()[i]).sum();
            let ready = bucket.iter().map(|&i| p.ready()[i]).fold(f64::MIN, f64::max);
            prop_assert!(landed >= ready + comm.time(factor) - 1e-9);
            prop_assert!(start >= landed - 1e-12, "tail at {start} before landing at {landed}");
            prop_assert!(start >= compute_free - 1e-12, "tail at {start}, thread busy until {compute_free}");
            prop_assert!(end >= start);
            compute_free = end;
        }
        prop_assert!(out.finish >= out.link_end && out.finish >= out.tail_end);
        prop_assert_eq!(out.finish, out.link_end.max(out.tail_end));
    }

    #[test]
    fn placement_covers_every_tensor_exactly(
        dims in pvec(8usize..5000, 1..60),
        world in 1usize..16,
        weight_pick in 0usize..3,
    ) {
        let comp = ExpInverseModel::new(5e-4, 1.0e-3);
        let comm = AlphaBetaModel::new(8e-4, 6e-10);
        let weight = [LbpWeight::Dim, LbpWeight::DimSquared, LbpWeight::ModeledTime][weight_pick];
        let p = placement::place(&dims, world, &comp, &comm, PlacementStrategy::Lbp { weight });
        let mut count = vec![0usize; dims.len()];
        for g in 0..world {
            for t in p.set_for_gpu(g) {
                count[t] += 1;
            }
        }
        for (i, &c) in count.iter().enumerate() {
            if p.is_nct(i) {
                prop_assert_eq!(c, world, "NCT {} not replicated", i);
                // Eq. 18 precondition: NCT iff modelled compute < comm.
                prop_assert!(comp.time(dims[i]) < comm.time_packed(dims[i]));
            } else {
                prop_assert_eq!(c, 1, "CT {} not unique", i);
                prop_assert!(comp.time(dims[i]) >= comm.time_packed(dims[i]));
            }
        }
    }

    #[test]
    fn lbp_ct_balance_within_lpt_bound(
        dims in pvec(1000usize..6000, 1..80),
        world in 1usize..12,
    ) {
        // All dims ≥ 1000 are CTs under these models; LPT greedy guarantees
        // max load ≤ 4/3 · lower bound on the d² weight.
        let comp = ExpInverseModel::new(5e-4, 1.0e-3);
        let comm = AlphaBetaModel::new(8e-4, 6e-10);
        let p = placement::lbp(&dims, world, &comp, &comm, LbpWeight::DimSquared);
        let mut loads = vec![0.0f64; world];
        let mut total = 0.0;
        let mut max_item: f64 = 0.0;
        for (i, a) in p.assignments().iter().enumerate() {
            let w = (dims[i] as f64).powi(2);
            match a {
                TensorAssignment::Gpu(g) => {
                    loads[*g] += w;
                    total += w;
                    max_item = max_item.max(w);
                }
                TensorAssignment::AllGpus => {}
            }
        }
        let makespan = loads.iter().cloned().fold(0.0, f64::max);
        let lower = (total / world as f64).max(max_item);
        prop_assert!(makespan <= lower * 4.0 / 3.0 + 1e-6);
    }

    #[test]
    fn seqdist_round_robin_is_exact(n in 1usize..100, world in 1usize..16) {
        let dims = vec![64usize; n];
        let comp = ExpInverseModel::new(5e-4, 1.0e-3);
        let comm = AlphaBetaModel::new(8e-4, 6e-10);
        let p = placement::place(&dims, world, &comp, &comm, PlacementStrategy::SeqDist);
        for (i, a) in p.assignments().iter().enumerate() {
            prop_assert_eq!(*a, TensorAssignment::Gpu(i % world));
        }
    }

    #[test]
    fn alpha_beta_fit_is_consistent(alpha in 1e-6f64..1e-2, beta in 1e-12f64..1e-7) {
        let truth = AlphaBetaModel::new(alpha, beta);
        let samples: Vec<(usize, f64)> = (1..20).map(|i| {
            let m = i * 100_000;
            (m, truth.time(m))
        }).collect();
        let fit = AlphaBetaModel::fit(&samples);
        prop_assert!((fit.alpha - alpha).abs() <= alpha.max(1e-9) * 1e-6 + 1e-12);
        prop_assert!((fit.beta - beta).abs() <= beta * 1e-6);
    }

    #[test]
    fn alpha_beta_fit_recovers_planted_model_from_noisy_samples(
        alpha in 1e-6f64..1e-2,
        crossover in 1e3f64..1e6,
        noise in pvec(0.98f64..1.02, 40),
    ) {
        // β chosen so both parameters are identifiable on the sample grid
        // (the grid straddles the α-dominated and β-dominated regimes), as
        // when calibrating from measured collectives of mixed sizes.
        let beta = alpha / crossover;
        let truth = AlphaBetaModel::new(alpha, beta);
        let samples: Vec<(usize, f64)> = noise
            .iter()
            .enumerate()
            .map(|(k, n)| {
                let m = (((k + 1) as f64) * crossover / 10.0) as usize;
                (m, truth.time(m) * n)
            })
            .collect();
        let fit = AlphaBetaModel::fit(&samples);
        prop_assert!(
            (fit.alpha - alpha).abs() / alpha < 0.2,
            "alpha {} vs {}", fit.alpha, alpha
        );
        prop_assert!(
            (fit.beta - beta).abs() / beta < 0.1,
            "beta {} vs {}", fit.beta, beta
        );
    }

    #[test]
    fn exp_fit_recovers_planted_model_from_noisy_samples(
        alpha in 1e-6f64..1e-2,
        beta in 1e-4f64..3e-3,
        noise in pvec(0.98f64..1.02, 32),
    ) {
        let truth = ExpInverseModel::new(alpha, beta);
        let samples: Vec<(usize, f64)> = noise
            .iter()
            .enumerate()
            .map(|(k, n)| {
                let d = 32 * (k + 1);
                (d, truth.time(d) * n)
            })
            .collect();
        let fit = ExpInverseModel::fit(&samples);
        prop_assert!(
            (fit.alpha - alpha).abs() / alpha < 0.2,
            "alpha {} vs {}", fit.alpha, alpha
        );
        prop_assert!(
            (fit.beta - beta).abs() / beta < 0.5,
            "beta {} vs {}", fit.beta, beta
        );
    }

    #[test]
    fn nct_threshold_is_monotone_in_the_models(
        comp_alpha in 1e-6f64..1e-3,
        comp_beta in 1e-4f64..5e-3,
        comm_alpha in 1e-6f64..1e-2,
        comm_beta in 1e-12f64..1e-8,
        ka in 1.0f64..100.0,
        kb in 1.0f64..100.0,
    ) {
        // A uniformly *more expensive* comm model can only widen the set of
        // dims where inversion beats broadcasting, so the largest NCT dim
        // never shrinks; a more expensive comp model can only shrink it.
        let comp = ExpInverseModel::new(comp_alpha, comp_beta);
        let comm = AlphaBetaModel::new(comm_alpha, comm_beta);
        let max_d = 4096;
        let as_d = |t: Option<usize>| t.unwrap_or(0);

        let costlier_comm = AlphaBetaModel::new(comm_alpha * ka, comm_beta * kb);
        prop_assert!(
            as_d(comp.nct_threshold(&costlier_comm, max_d))
                >= as_d(comp.nct_threshold(&comm, max_d)),
            "threshold shrank under a costlier comm model"
        );

        let costlier_comp = ExpInverseModel::new(comp_alpha * ka, comp_beta);
        prop_assert!(
            as_d(costlier_comp.nct_threshold(&comm, max_d))
                <= as_d(comp.nct_threshold(&comm, max_d)),
            "threshold grew under a costlier comp model"
        );
    }

    #[test]
    fn replanning_from_identical_models_is_a_fixed_point(
        layers in layers_strategy(),
        world in 1usize..12,
        allreduce in comm_strategy(),
        bcast_scale in 0.5f64..2.0,
        inverse in inverse_strategy(),
    ) {
        // The SPMD-safety argument of `core::runtime` rests on planning
        // being a pure function of the agreed costs: for *any* costs,
        // pipelines, and placement problem, re-planning from the costs that
        // produced the active epoch must reproduce it exactly — no swap, no
        // generation bump, no placement churn, ever.
        let (dims, ready) = layers;
        let agreed = Costs {
            allreduce: Some(allreduce),
            broadcast: Some(AlphaBetaModel::new(allreduce.alpha * bcast_scale, allreduce.beta)),
            inverse: Some(inverse),
            ready: Some(ready),
            ..Costs::default()
        };
        let planner = spd_planner(&dims, world);
        let p0 = planner.plan(&agreed, None);
        prop_assert!(p0.a_fusion.is_some() && p0.g_fusion.is_some());
        let mut epoch = p0.clone();
        let mut ctl = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 1,
            hysteresis: 1,
        });
        for round in 0..3 {
            // Re-planning with the standing placement as `prev` must also be
            // a fixed point: migration pricing only ever reinforces it.
            let candidate = planner.plan(&agreed, Some(&epoch.placement));
            let out = ctl.consider(&mut epoch, candidate);
            prop_assert!(!out.swapped, "round {round}: identical models swapped the epoch");
            prop_assert_eq!(out.generation, 0);
            prop_assert_eq!(out.placement_flips, 0);
        }
        prop_assert_eq!(&epoch, &p0);
    }

    #[test]
    fn plan_is_deterministic_and_starts_one_message_per_factor(
        layers in layers_strategy(),
        world in 1usize..12,
        lines in costs_strategy(0),
        strategy_pick in 0usize..3,
    ) {
        let (dims, ready) = layers;
        let lines = Costs { ready: None, tail: None, ..lines };
        let strategy = [
            PlacementStrategy::SeqDist,
            PlacementStrategy::default(),
            PlacementStrategy::Lbp { weight: LbpWeight::ModeledTime },
        ][strategy_pick];
        let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
        cfg.placement = Some(strategy);
        let planner = Planner::new(&cfg, &dims, world);
        let timed = Costs { ready: Some(ready), ..lines.clone() };
        for costs in [&lines, &timed] {
            let plan = planner.plan(costs, None);
            prop_assert_eq!(&planner.plan(costs, None), &plan);
            let prev = Some(&plan.placement);
            prop_assert_eq!(planner.plan(costs, prev), planner.plan(costs, prev));
            prop_assert_eq!(plan.generation, 0);
        }
        // No ready times: one message per factor, and the placement the
        // configured strategy gives under the lines, baselines behind them.
        let plan = planner.plan(&lines, None);
        let singletons: Vec<Vec<usize>> = (0..dims.len()).map(|i| vec![i]).collect();
        for fusion in [&plan.a_fusion, &plan.g_fusion] {
            let fusion = fusion.as_ref().expect("SPD pipelines its factors");
            prop_assert_eq!(fusion.buckets(), &singletons[..]);
        }
        let inv_dims: Vec<usize> = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
        prop_assert_eq!(planner.inv_dims(), &inv_dims[..]);
        let comp = lines.inverse.unwrap_or(cfg.comp_model);
        let comm = lines.broadcast.unwrap_or(cfg.comm_model);
        prop_assert_eq!(plan.placement, placement::place(&inv_dims, world, &comp, &comm, strategy));
    }

    #[test]
    fn agreement_of_identical_ranks_is_the_identity(
        costs in (0usize..12).prop_flat_map(costs_strategy),
        k in 1usize..7,
    ) {
        // What an averaging all-reduce over `k` ranks holding the same
        // record leaves on every one of them.
        let mean = |v: &[f64]| -> Vec<f64> {
            v.iter().map(|x| (0..k).map(|_| x).sum::<f64>() / k as f64).collect()
        };
        for models in [true, false] {
            // A record's encoding names its present lines, their
            // coefficients and its ready and tail times, so equal encodings
            // are equal records (an empty series being "no ready times",
            // absent tails being zeros).
            let sent = costs.encode(models);
            let agreed = Costs::decode(&mean(&sent), models);
            let back = agreed.encode(models);
            prop_assert_eq!(back.len(), sent.len());
            for (got, want) in back.iter().zip(&sent) {
                prop_assert!((got - want).abs() <= 1e-12 * want.abs(), "{got} vs {want}");
            }
            // Without the model slots only the times travel.
            if !models {
                prop_assert_eq!(Costs { ready: None, tail: None, ..agreed }, Costs::default());
            }
        }
    }

    #[test]
    fn exp_fit_is_consistent(alpha in 1e-6f64..1e-2, beta in 1e-5f64..3e-3) {
        let truth = ExpInverseModel::new(alpha, beta);
        let samples: Vec<(usize, f64)> = [64usize, 128, 256, 512, 1024, 2048]
            .iter()
            .map(|&d| (d, truth.time(d)))
            .collect();
        let fit = ExpInverseModel::fit(&samples);
        prop_assert!((fit.alpha - alpha).abs() / alpha < 1e-6);
        prop_assert!((fit.beta - beta).abs() / beta < 1e-6);
    }
}

/// A statistic's dimension: the tile and block edges of the packing and
/// POTRF kernels and the trainer's 256 / 257 half the time, otherwise any
/// up to 300.
fn statistic_dim() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 12] = [1, 7, 8, 9, 23, 24, 25, 63, 64, 65, 256, 257];
    (0usize..2 * EDGES.len(), 1usize..301).prop_map(|(pick, any)| *EDGES.get(pick).unwrap_or(&any))
}

/// Bit patterns, for `to_bits` equality.
fn value_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trainer's statistic, packed into its slice of a message, and
    /// its landing and refresh in the factor's square — the packed rows
    /// folded into the upper triangle, `F + γI` expanded over the lower
    /// one and factored there — against the dense path they replace: the
    /// statistic expanded and folded into a dense running factor
    /// (`Matrix::ema_update`), copied, damped, into a square of its own
    /// (`Matrix::damped_into`) and factored there.
    #[test]
    fn packed_statistic_and_its_landing_are_bit_identical(
        rows in 1usize..70, d in statistic_dim(), batch in 1usize..5,
        decay in 0.0f64..1.0, gamma in 0.01f64..1.0, seed in 0u64..1_000_000,
    ) {
        use spdkfac_core::error::{FactorSide, KfacError};
        use spdkfac_core::factors::{local_factor_g_into, FactorState};
        use spdkfac_tensor::rng::MatrixRng;
        use spdkfac_tensor::{chol, Matrix, SymPacked};
        let mut rng = MatrixRng::new(seed);
        let x = rng.uniform_matrix(rows, d, -1.0, 1.0);
        // The statistic: upper tiles only, in a dirty scratch, scaled
        // while packed into its slice of a message.
        let mut scratch = rng.uniform_matrix(d + 3, 2, -1.0, 1.0);
        let mut packed = vec![f64::NAN; d * (d + 1) / 2];
        local_factor_g_into(&x, batch, &mut scratch, &mut packed);
        let dense = x.gramian_scaled(rows as f64 / (batch * batch) as f64);
        prop_assert_eq!(value_bits(&packed), value_bits(SymPacked::from_matrix(&dense).as_slice()));
        prop_assert_eq!(value_bits(SymPacked::unpack(d, &packed).as_slice()), value_bits(dense.as_slice()));
        // Its landing on a running factor, and the refresh.
        let running = SymPacked::from_matrix(&rng.spd_matrix(d, 0.1));
        let mut st = FactorState::new(0);
        st.update_packed(FactorSide::G, d, running.as_slice(), decay);
        st.update_packed(FactorSide::G, d, &packed, decay);
        let factored = st.invert(FactorSide::G, gamma);
        let mut expanded = running.to_matrix();
        expanded.ema_update(decay, &SymPacked::unpack(d, &packed));
        let mut l = Matrix::zeros(0, 0);
        expanded.damped_into(gamma, &mut l);
        let verdict = chol::cholesky_in_place(&mut l);
        let got = st.running_factor(FactorSide::G).expect("folded");
        prop_assert_eq!(value_bits(got.to_matrix().as_slice()), value_bits(expanded.as_slice()));
        let factored = factored.map_err(|e| match e {
            KfacError::FactorInversion { source, .. } => source,
            other => panic!("not an inversion error: {other}"),
        });
        prop_assert_eq!(factored, verdict);
        if let Some(square) = st.chol(FactorSide::G) {
            let (mut want, mut have) = (vec![0.0; d * (d + 1) / 2], vec![0.0; d * (d + 1) / 2]);
            chol::pack_factor_into(&l, &mut want);
            chol::pack_factor_into(square, &mut have);
            prop_assert_eq!(value_bits(&have), value_bits(&want));
        }
    }
}
