//! The iteration graph as the single source of truth: a real multi-rank
//! run puts exactly the graph's collectives on every rank's comm thread, the
//! simulator lowering the same graph emits the same sequence, and the
//! builder's structural invariants hold over random shapes, plans and
//! placements. No sockets: the in-process backend and pure functions only.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac::core::distributed::{iteration_graph, Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::fusion::{self, FactorPipeline, FusionPlan, FusionStrategy};
use spdkfac::core::iteration::{
    Deps, FactorComm, GradCut, IterationGraph, LayerShape, Node, Op, Spec, Who,
};
use spdkfac::core::perf::{AlphaBetaModel, ExpInverseModel};
use spdkfac::core::placement::{Placement, TensorAssignment};
use spdkfac::core::runtime::{Costs, Planner};
use spdkfac::models::{LayerSpec, ModelProfile};
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::{CollEdge, Phase, Recorder};
use spdkfac::sim::{simulate_graph, SimConfig};
use std::sync::Arc;

/// `(phase, edge, elements)` of a recorded or simulated collective.
type Collective = (Phase, CollEdge, usize);

#[test]
fn real_ranks_and_the_simulator_emit_exactly_the_graphs_collectives() {
    let (world, iters, batch) = (4, 5, 4);
    let build = || deep_mlp(8, 24, 3, 3, 29);
    let data = gaussian_blobs(3, 8, 6 * world, 0.3, 59);
    for algorithm in [Algorithm::SpdKfac, Algorithm::MpdKfac] {
        let mut cfg = DistributedConfig::new(world, algorithm);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        cfg.kfac.inv_update_freq = 2;
        // Inverting d >= 24 is modelled dearer than broadcasting it, d <= 9
        // not: SPD-KFAC's placement mixes CTs with NCTs.
        cfg.comp_model = ExpInverseModel::new(1e-4, 0.1);
        cfg.comm_model = AlphaBetaModel::new(3e-4, 1e-9);
        // The agreed plan is the initial one, whatever the ready times.
        cfg.fusion = FusionStrategy::LayerWise;

        // The graphs, through the function the trainer calls.
        let net = build();
        let plan = Planner::new(&cfg, &net.kfac_dims(), world).plan(&Costs::default(), None);
        let placement = &plan.placement;
        if algorithm == Algorithm::SpdKfac {
            let ncts = placement.num_nct();
            assert!((1..placement.assignments().len()).contains(&ncts));
        }
        let graphs = [false, true].map(|r| iteration_graph(&cfg, &net, &plan, r));
        let expected: Vec<Collective> = (0..iters)
            .flat_map(|iter: usize| graphs[usize::from(iter.is_multiple_of(2))].collectives())
            .collect();
        assert!(expected.iter().any(|c| c.0 == Phase::InverseComm));

        let rec = Arc::new(Recorder::new(2 * world));
        TrainSession::builder(cfg)
            .recorder(Arc::clone(&rec))
            .run(&build, &data, iters, batch)
            .expect("local run");
        let spans = rec.spans();
        for rank in 0..world {
            // The loss reduce and the plan agreement travel as `Update`.
            let mut sent: Vec<_> = spans
                .iter()
                .filter(|s| s.track == world + rank && s.phase.is_comm())
                .collect();
            sent.sort_by_key(|s| s.meta.seq);
            let sent: Vec<Collective> = sent
                .iter()
                .map(|s| (s.phase, s.meta.edge.unwrap(), s.meta.size.unwrap()))
                .collect();
            assert_eq!(sent, expected, "{algorithm:?}: rank {rank}");
        }

        // The simulator executing the trainer's own schedule.
        let specs = net.kfac_dims().into_iter().enumerate();
        let specs = specs.map(|(i, (a, g))| LayerSpec::linear(format!("fc{i}"), a, g));
        let model = ModelProfile::new("deep_mlp", specs.collect(), batch);
        for graph in &graphs {
            let report = simulate_graph(graph, &model, &SimConfig::paper_testbed(world));
            let mut sent: Vec<_> = report.spans.iter().filter(|s| s.phase.is_comm()).collect();
            sent.sort_by_key(|s| s.meta.seq);
            let sent: Vec<Collective> = sent
                .iter()
                .map(|s| (s.phase, s.meta.edge.unwrap(), s.meta.size.unwrap()))
                .collect();
            assert_eq!(sent, graph.collectives(), "{algorithm:?}: simulator");
            // Every rank computes: NCTs are inverted on all four GPUs.
            assert!(report.total > 0.0);
        }
    }
}

/// A plan over `n` positions cutting after every position `cuts` names.
fn plan_with_cuts(n: usize, cuts: &[usize]) -> FusionPlan {
    // Threshold fusion splits exactly where the cycle is exceeded.
    let mut ready = Vec::with_capacity(n);
    let mut t = 0.0;
    for pos in 0..n {
        ready.push(t);
        t += if cuts.contains(&pos) { 10.0 } else { 0.0 };
    }
    let pipeline = FactorPipeline::new(ready, vec![1; n]).expect("non-decreasing");
    let strategy = FusionStrategy::Threshold {
        elems: usize::MAX,
        cycle_s: 1.0,
    };
    fusion::plan(&pipeline, &AlphaBetaModel::new(1e-3, 1e-9), strategy)
}

/// Everything random about a schedule, drawn as plain numbers.
#[derive(Debug, Clone)]
struct Case {
    /// Per layer: kind (0 parameter-free, 1 parameters only, 2 with
    /// factors), gradient elements, `a_dim`, `g_dim`.
    layers: Vec<(usize, usize, usize, usize)>,
    world: usize,
    /// Entropy for owners, cuts and the modes.
    dice: Vec<usize>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        pvec((0usize..3, 1usize..40, 1usize..12, 1usize..12), 1..8),
        1usize..5,
        pvec(0usize..1000, 64),
    )
        .prop_map(|(layers, world, dice)| Case {
            layers,
            world,
            dice,
        })
}

impl Case {
    fn shapes(&self) -> Vec<LayerShape> {
        let shape = |&(kind, grad, a, g): &(usize, usize, usize, usize)| LayerShape {
            grad_elems: if kind == 0 { 0 } else { grad },
            factor: (kind == 2).then_some((a, g)),
        };
        self.layers.iter().map(shape).collect()
    }

    fn placement(&self, tensors: usize) -> Placement {
        let assign = |t: usize| match self.dice[t % 32] % (self.world + 1) {
            0 => TensorAssignment::AllGpus,
            owner => TensorAssignment::Gpu(owner - 1),
        };
        Placement::new((0..tensors).map(assign).collect(), self.world)
    }

    /// A random partition of `n` positions.
    fn plan(&self, n: usize, salt: usize) -> FusionPlan {
        let cuts: Vec<usize> = (0..n)
            .filter(|pos| self.dice[32 + (pos + salt) % 32].is_multiple_of(3))
            .collect();
        plan_with_cuts(n, &cuts)
    }
}

fn position(nodes: &[Node], pred: impl Fn(&Node) -> bool) -> Vec<usize> {
    (0..nodes.len()).filter(|&i| pred(&nodes[i])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn graph_invariants(case in case_strategy()) {
        let shapes = case.shapes();
        let nstates = shapes.iter().filter(|s| s.factor.is_some()).count();
        let placement = case.placement(2 * nstates);
        let (a, g) = (case.plan(nstates, 0), case.plan(nstates, 7));
        let grad_plan = case.plan(shapes.len(), 13);
        let factor_comm = match case.dice[0] % 3 {
            0 => FactorComm::Bulk,
            1 => FactorComm::Naive,
            _ => FactorComm::Pipelined { a: &a, g: &g },
        };
        let grad_cut = match case.dice[1] % 3 {
            0 => GradCut::Cap(1 + case.dice[2] % 60),
            1 => GradCut::CapAndGBuckets(1 + case.dice[2] % 60),
            _ => GradCut::Planned(&grad_plan),
        };
        let build = |deps, refresh| IterationGraph::build(&Spec {
            layers: &shapes,
            factor_comm,
            grad_cut,
            placement: &placement,
            refresh,
            deps,
        });
        let with_grad = shapes.iter().filter(|s| s.grad_elems > 0).count();

        for (deps, refresh) in [
            (Deps::DataDeps, false),
            (Deps::DataDeps, true),
            (Deps::PaperBarrier, false),
            (Deps::PaperBarrier, true),
        ] {
            let graph = build(deps, refresh);
            let nodes = graph.nodes();
            // Index order is a topological order, closed by the update.
            for (id, node) in nodes.iter().enumerate() {
                prop_assert!(node.deps.iter().all(|&d| d < id), "{deps:?}: node {id}");
            }
            prop_assert_eq!(position(nodes, |n| n.op == Op::Update), vec![nodes.len() - 1]);

            // Each tensor is inverted exactly once on a refresh and never
            // otherwise; an owner's inversion is followed by its broadcast,
            // and nothing else is broadcast.
            let inversions = position(nodes, |n| matches!(n.op, Op::Invert(_)));
            let mut inverted: Vec<usize> = inversions
                .iter()
                .map(|&i| match nodes[i].op { Op::Invert(t) => t, _ => unreachable!() })
                .collect();
            inverted.sort_unstable();
            let want: Vec<usize> = if refresh { (0..2 * nstates).collect() } else { Vec::new() };
            prop_assert_eq!(inverted, want, "{deps:?} refresh {refresh}");
            let broadcasts = position(nodes, |n| matches!(n.op, Op::Broadcast { .. }));
            let owned: Vec<usize> = inversions
                .iter()
                .copied()
                .filter(|&i| matches!(nodes[i].who, Who::Rank(_)))
                .collect();
            prop_assert_eq!(broadcasts.len(), owned.len());
            for &i in &owned {
                let (Op::Invert(t), Who::Rank(o)) = (&nodes[i].op, nodes[i].who) else { unreachable!() };
                prop_assert_eq!(placement.assignments()[*t], TensorAssignment::Gpu(o));
                let follows = |n: &Node| {
                    n.op == Op::Broadcast { tensor: *t, root: o } && n.deps == vec![i] && n.who == Who::Every
                };
                prop_assert_eq!(position(nodes, follows).len(), 1, "tensor {t}");
            }
            // The node that leaves tensor `t`'s fresh inverse on every rank.
            let inverse_of = |t: usize| {
                position(nodes, |n| match n.op {
                    Op::Broadcast { tensor, .. } => tensor == t,
                    Op::Invert(tensor) => tensor == t && n.who == Who::Every,
                    _ => false,
                })
            };

            let preconditions = position(nodes, |n| matches!(n.op, Op::Precondition(_)));
            match deps {
                Deps::DataDeps => {
                    // Nothing is in flight at the update.
                    for (id, node) in nodes.iter().enumerate() {
                        let used = nodes.iter().any(|n| n.deps.contains(&id));
                        prop_assert!(node.op.edge().is_none() || used, "collective {id} dangles");
                    }
                    // Every layer with a gradient is preconditioned exactly
                    // once, after its gradient message and its inverses.
                    let mut seen = Vec::new();
                    let mut state = 0;
                    for (l, shape) in shapes.iter().enumerate() {
                        let at = position(nodes, |n| matches!(&n.op, Op::Precondition(ls) if ls.contains(&l)));
                        prop_assert_eq!(at.len(), usize::from(shape.grad_elems > 0), "layer {l}");
                        for &p in &at {
                            seen.push(l);
                            let message = position(nodes, |n| matches!(&n.op, Op::AllReduceGrads(ls) if ls.contains(&l)));
                            prop_assert_eq!(message.len(), 1);
                            prop_assert!(nodes[p].deps.contains(&message[0]));
                            if let (Some(_), true) = (shape.factor, refresh) {
                                for t in [2 * state, 2 * state + 1] {
                                    prop_assert!(nodes[p].deps.contains(&inverse_of(t)[0]), "layer {l} tensor {t}");
                                }
                            }
                        }
                        state += usize::from(shape.factor.is_some());
                    }
                    prop_assert_eq!(seen.len(), with_grad);
                }
                Deps::PaperBarrier => {
                    // One block on rank 0, naming every preconditionable
                    // layer, behind rank 0's inversions and every broadcast.
                    prop_assert_eq!(preconditions.len(), usize::from(nstates > 0));
                    for &p in &preconditions {
                        let layers: Vec<usize> = (0..shapes.len()).filter(|&l| shapes[l].factor.is_some()).collect();
                        prop_assert_eq!(&nodes[p].op, &Op::Precondition(layers));
                        prop_assert_eq!(nodes[p].who, Who::Rank(0));
                        for &i in inversions.iter().chain(&broadcasts) {
                            let rank0s = matches!(nodes[i].who, Who::Every | Who::Rank(0));
                            prop_assert_eq!(nodes[p].deps.contains(&i), rank0s, "node {i}");
                        }
                    }
                }
            }
        }

        // The two policies put the same messages on the wire.
        let wire = |deps| {
            let mut sent = build(deps, true).collectives();
            sent.sort_by_key(|&(phase, _, elems)| (phase, elems));
            sent.iter().map(|&(phase, _, elems)| (phase, elems)).collect::<Vec<_>>()
        };
        prop_assert_eq!(wire(Deps::DataDeps), wire(Deps::PaperBarrier));
    }
}
