//! Property tests for the task-graph simulator and the scheduling
//! invariants of the iteration builders.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac_core::graph::TaskGraph;
use spdkfac_core::placement::{PlacementContext, TensorAssignment};
use spdkfac_models::resnet50;
use spdkfac_obs::Phase;
use spdkfac_sim::{policy_registry, simulate_iteration, Algo, SimConfig};

/// Strategy: a random but causally-valid task graph.
fn graph_strategy() -> impl Strategy<Value = TaskGraph> {
    (1usize..5, 1usize..40).prop_flat_map(|(resources, n)| {
        pvec(
            (0usize..resources, 0.0f64..2.0, pvec(0usize..n.max(1), 0..3)),
            n,
        )
        .prop_map(move |tasks| {
            let mut g = TaskGraph::new(resources + 1);
            for (i, (res, dur, deps)) in tasks.into_iter().enumerate() {
                let deps: Vec<usize> = deps.into_iter().filter(|&d| d < i).collect();
                g.push(res, dur, &deps, Phase::FfBp);
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedule_is_feasible(g in graph_strategy()) {
        let spans = g.simulate();
        // Every task starts after its deps and never overlaps a same-resource task.
        for (i, t) in g.tasks().iter().enumerate() {
            for &d in g.deps(i) {
                prop_assert!(spans[i].start >= spans[d].end - 1e-12);
            }
            prop_assert!((spans[i].end - spans[i].start - t.duration).abs() < 1e-12);
        }
        let n = g.tasks().len();
        for i in 0..n {
            for j in (i + 1)..n {
                if g.tasks()[i].resource == g.tasks()[j].resource {
                    let (a, b) = (&spans[i], &spans[j]);
                    prop_assert!(a.end <= b.start + 1e-12 || b.end <= a.start + 1e-12,
                        "overlap on resource {}", g.tasks()[i].resource);
                }
            }
        }
    }

    #[test]
    fn makespan_monotone_in_task_duration(g in graph_strategy(), pick in 0usize..40, extra in 0.0f64..3.0) {
        let before = g.makespan();
        let mut g2 = g.clone();
        let n = g2.tasks().len();
        let idx = pick % n;
        let d = g2.tasks()[idx].duration;
        g2.set_duration(idx, d + extra);
        prop_assert!(g2.makespan() >= before - 1e-12);
    }

    #[test]
    fn iteration_breakdown_always_sums(world in 1usize..65, algo_pick in 0usize..6) {
        let algo = [Algo::SgdSingle, Algo::KfacSingle, Algo::SSgd, Algo::DKfac, Algo::MpdKfac, Algo::SpdKfac][algo_pick];
        let cfg = SimConfig::paper_testbed(world);
        let r = simulate_iteration(&resnet50(), &cfg, algo);
        prop_assert!((r.breakdown.total() - r.total).abs() < 1e-9);
        prop_assert!(r.total > 0.0);
    }

    #[test]
    fn faster_hardware_never_slows_iterations(speedup in 1.0f64..8.0, algo_pick in 0usize..4) {
        let algo = [Algo::SSgd, Algo::DKfac, Algo::MpdKfac, Algo::SpdKfac][algo_pick];
        let slow = SimConfig::paper_testbed(32);
        let mut fast = slow.clone();
        fast.hw.gemm_flops *= speedup;
        fast.hw.factor_flops *= speedup;
        fast.hw.allreduce.beta /= speedup;
        fast.hw.bcast.beta /= speedup;
        fast.hw.inverse.alpha /= speedup;
        let m = resnet50();
        let ts = simulate_iteration(&m, &slow, algo).total;
        let tf = simulate_iteration(&m, &fast, algo).total;
        prop_assert!(tf <= ts + 1e-9, "{algo:?}: {tf} > {ts}");
    }

    #[test]
    fn placement_policies_are_pure_over_shuffled_tensor_orderings(
        n in 1usize..24,
        world in 1usize..17,
        seed in pvec(0usize..1000, 24),
    ) {
        // Distinct dims: cost-sorted policies then have no index tie-breaks,
        // so the dim → assignment map must be exactly permutation-invariant.
        let mut dims = Vec::with_capacity(n);
        let mut d = 16usize;
        for i in 0..n {
            d += 1 + seed[i % seed.len()] % 50;
            dims.push(d);
        }
        // Seeded Fisher–Yates permutation of the tensor order.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, seed[i % seed.len()] % (i + 1));
        }
        let shuffled: Vec<usize> = perm.iter().map(|&i| dims[i]).collect();

        let hw = SimConfig::paper_testbed(world.max(2)).hw;
        let ctx = PlacementContext::new(&dims, world, &hw.inverse, &hw.bcast)
            .with_gpus_per_node(4);
        let ctx_s = PlacementContext::new(&shuffled, world, &hw.inverse, &hw.bcast)
            .with_gpus_per_node(4);
        for policy in policy_registry() {
            let name = policy.name();
            // Purity: the same context yields the same placement twice.
            let a = policy.place(&ctx);
            prop_assert_eq!(&a, &policy.place(&ctx), "{} is impure", &name);
            // Validity on both orderings.
            let s = policy.place(&ctx_s);
            for plc in [&a, &s] {
                prop_assert_eq!(plc.assignments().len(), n);
                for t in plc.assignments() {
                    if let TensorAssignment::Gpu(p) = t {
                        prop_assert!(*p < world, "{}: gpu {} >= world {}", &name, p, world);
                    }
                }
            }
            // seq-dist round-robins by position and topo pairs neighbours
            // by position, so only their validity is order-independent; every
            // cost-sorted policy must give each dim the identical assignment
            // no matter where it sits in the input.
            if name != "seq-dist" && name != "topo" {
                for (j, &i) in perm.iter().enumerate() {
                    prop_assert_eq!(
                        s.assignments()[j],
                        a.assignments()[i],
                        "{}: dim {} moved", &name, shuffled[j]
                    );
                }
            }
        }
    }

    #[test]
    fn spd_never_loses_to_dkfac(world in 2usize..129) {
        let cfg = SimConfig::paper_testbed(world);
        let m = resnet50();
        let d = simulate_iteration(&m, &cfg, Algo::DKfac).total;
        let spd = simulate_iteration(&m, &cfg, Algo::SpdKfac).total;
        prop_assert!(spd <= d + 1e-9, "world={world}: SPD {spd} > D {d}");
    }
}
