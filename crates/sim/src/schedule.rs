//! Simulating one training iteration: plan it (analytic ready times into
//! the trainer's [`Planner`], which makes the Eq. 15 fusion plans and the
//! inverse placement), build the paper's schedule of those plans as a
//! [`spdkfac_core::iteration`] graph, and lower the graph's nodes to tasks
//! on the simulated cluster.

use crate::hardware::HardwareProfile;
use crate::net::{self, NetTopology, NetworkModel};
use crate::report::{attribute, SimReport};
use spdkfac_core::fusion::{self, FactorPipeline, FusionStrategy};
use spdkfac_core::graph::{TaskGraph, TaskSpan};
use spdkfac_core::iteration::{
    Deps, FactorComm, GradCut, IterationGraph, LayerShape, Op, Spec, Who,
};
use spdkfac_core::placement::{PlacementStrategy, PolicyHandle};
use spdkfac_core::runtime::{Costs, Planner};
use spdkfac_models::{LayerSpec, ModelProfile};
use spdkfac_obs::SpanMeta;

/// Training algorithms that can be simulated (the bars of Fig. 2 plus the
/// Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// SGD on a single GPU (no communication).
    SgdSingle,
    /// K-FAC on a single GPU (no communication).
    KfacSingle,
    /// Distributed synchronous SGD with WFBP gradient aggregation.
    SSgd,
    /// D-KFAC: bulk factor aggregation, local inversion everywhere.
    DKfac,
    /// MPD-KFAC: bulk factor aggregation, sequential (round-robin) inverse
    /// placement with result broadcasts.
    MpdKfac,
    /// SPD-KFAC: pipelined factor aggregation with optimal tensor fusion +
    /// LBP inverse placement.
    SpdKfac,
}

/// How Kronecker factors are aggregated across workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorCommMode {
    /// No aggregation (single-GPU training).
    LocalOnly,
    /// One bulk all-reduce of all `A` and `G` factors after backward
    /// (the baseline of Pauloski et al., used by D-KFAC / MPD-KFAC).
    Bulk,
    /// All `A`s all-reduced at the end of forward (overlapping backward),
    /// all `G`s at the end of backward — Fig. 10's "Naive".
    Naive,
    /// Per-bucket all-reduces pipelined with compute under the given fusion
    /// strategy (Fig. 10's "LW w/o TF" = `LayerWise`, "LW w/ TTF" =
    /// `Threshold`, "SP w/ OTF" = `Optimal`).
    Pipelined(FusionStrategy),
}

/// How gradients are fused for WFBP aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradFusionMode {
    /// Horovod default: fuse until the buffer capacity
    /// (`SimConfig::grad_fusion_elems`) is reached.
    #[default]
    Threshold,
    /// MG-WFBP (Shi et al., the paper's reference \[23\]): the same Eq. 15
    /// merging rule the factor pipeline uses, applied to gradients.
    Optimal,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware cost models.
    pub hw: HardwareProfile,
    /// Number of GPUs for the distributed algorithms.
    pub world: usize,
    /// Horovod gradient fusion-buffer capacity in elements (64 MB of fp32 by
    /// default).
    pub grad_fusion_elems: usize,
    /// Override the algorithm's factor-aggregation mode (for the Fig. 10
    /// pipelining ablation).
    pub factor_mode: Option<FactorCommMode>,
    /// Override the algorithm's inverse placement (for the Fig. 12/13
    /// ablations and the scaling study's alternative policies).
    pub placement: Option<PolicyHandle>,
    /// Gradient fusion policy for the WFBP aggregation.
    pub grad_fusion: GradFusionMode,
    /// Network topology / execution model (see [`crate::net`]).
    pub topology: NetTopology,
    /// Bytes per communicated element (4 = fp32, the paper's setting;
    /// 2 = fp16 wire compression as used by later systems like KAISA).
    /// Scales the bandwidth term of both collective models.
    pub wire_bytes: f64,
    /// Wire-codec CPU cost in seconds per element (encode + decode), added
    /// to the bandwidth term of both collective models. 0 for the f64/fp32
    /// pass-through; calibrate from the real stack's `calib/encode` fit
    /// when simulating compressed formats.
    pub codec_s_per_elem: f64,
}

impl SimConfig {
    /// The paper's testbed at the given GPU count (communication models are
    /// rescaled from the 64-GPU calibration point via
    /// [`HardwareProfile::scaled_to_world`]).
    pub fn paper_testbed(world: usize) -> Self {
        SimConfig {
            hw: HardwareProfile::rtx2080ti_ib100().scaled_to_world(world),
            world,
            grad_fusion_elems: 16 * 1024 * 1024,
            grad_fusion: GradFusionMode::default(),
            factor_mode: None,
            placement: None,
            topology: NetTopology::default(),
            wire_bytes: 4.0,
            codec_s_per_elem: 0.0,
        }
    }
}

/// Simulates one training iteration of `algo` on `model` and returns the
/// schedule with its Fig. 2-style breakdown.
pub fn simulate_iteration(model: &ModelProfile, cfg: &SimConfig, algo: Algo) -> SimReport {
    simulate_iteration_planned(model, cfg, algo, None)
}

/// As [`simulate_iteration`], but plan decisions (fusion plans, inverse
/// placement) are computed from `plan_hw`'s cost models while task
/// durations come from `cfg.hw` — the drifting-hardware replay: `plan_hw`
/// is what the planner *believes*, `cfg.hw` is what the cluster *does*.
/// `None` plans from `cfg.hw` (belief matches reality), which is exactly
/// [`simulate_iteration`].
pub fn simulate_iteration_planned(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    plan_hw: Option<&HardwareProfile>,
) -> SimReport {
    let single = matches!(algo, Algo::SgdSingle | Algo::KfacSingle);
    let precond = !matches!(algo, Algo::SgdSingle | Algo::SSgd);
    let world = if single { 1 } else { cfg.world.max(1) };
    let adjust = |profile: &HardwareProfile| {
        if single {
            on_the_wire(&profile.single_gpu(), cfg)
        } else {
            on_the_wire(profile, cfg)
        }
    };
    let hw = adjust(&cfg.hw);
    let phw = plan_hw.map(adjust).unwrap_or_else(|| hw.clone());

    // What the algorithm does unless `cfg` overrides it; only a distributed
    // K-FAC aggregates statistics or distributes inversions.
    let (default_mode, default_policy) = match algo {
        Algo::DKfac => (FactorCommMode::Bulk, PlacementStrategy::NonDist),
        Algo::MpdKfac => (FactorCommMode::Bulk, PlacementStrategy::SeqDist),
        Algo::SpdKfac => (
            FactorCommMode::Pipelined(FusionStrategy::Optimal),
            PlacementStrategy::default(),
        ),
        _ => (FactorCommMode::LocalOnly, PlacementStrategy::NonDist),
    };
    let overridable = precond && !single;
    let factor_mode = cfg.factor_mode.filter(|_| overridable);
    let factor_mode = factor_mode.unwrap_or(default_mode);
    let policy = cfg.placement.clone().filter(|_| overridable);
    let policy: PolicyHandle = policy.unwrap_or_else(|| default_policy.into());

    // The network model owns resource layout and collective timing:
    // resources 0..world are the GPU streams, the rest belong to the model
    // (shared queue, per-root links, or the hierarchical fluid links).
    // `exec_net` executes with reality's models; `plan_net` prices
    // collectives with the planner's (possibly stale) beliefs.
    let mut exec_net = net::build(&cfg.topology, &hw, world);
    let plan_net = net::build(&cfg.topology, &phw, world);
    let batch = model.batch_size();
    let layers = model.layers();

    // ---------------- Planning --------------------------------------------
    // Analytic ready times on the (contention-free) representative stream,
    // in the paper's order: a layer's A statistic before its forward, its G
    // statistic after its backward.
    let (mut a_ready, mut g_ready, mut grad_ready) = (Vec::new(), Vec::new(), Vec::new());
    let mut cursor = 0.0f64;
    for l in layers {
        if precond {
            cursor += hw.factor_a_time(l, batch);
            a_ready.push(cursor);
        }
        cursor += hw.ff_time(l, batch);
    }
    for l in layers.iter().rev() {
        cursor += hw.bp_time(l, batch);
        grad_ready.push(cursor);
        if precond {
            cursor += hw.factor_g_time(l, batch);
            g_ready.push(cursor);
        }
    }
    let inv_dims = if precond {
        model.all_factor_dims()
    } else {
        Vec::new()
    };
    let fusion = match factor_mode {
        FactorCommMode::Pipelined(strategy) => Some(strategy),
        _ => None,
    };
    let planner = planner(&*plan_net, &phw, inv_dims.clone(), world, policy, fusion);
    let ready = [a_ready, g_ready].concat();
    let epoch = planner.plan(
        &Costs {
            ready: Some(ready),
            ..Costs::default()
        },
        None,
    );
    // MG-WFBP: the same Eq. 15 rule over the gradients' ready times.
    let grad_plan = (!single && cfg.grad_fusion == GradFusionMode::Optimal).then(|| {
        let sizes = layers.iter().rev().map(|l| l.params()).collect();
        let pipeline = FactorPipeline::new(grad_ready, sizes).expect("ready times increase");
        fusion::plan(
            &pipeline,
            &plan_net.plan_allreduce(),
            FusionStrategy::Optimal,
        )
    });

    // ---------------- The paper's schedule of those plans ------------------
    let shapes: Vec<LayerShape> = layers
        .iter()
        .map(|l| LayerShape {
            // A single GPU aggregates nothing.
            grad_elems: if single { 0 } else { l.params() },
            factor: precond.then(|| (l.a_dim(), l.g_dim())),
        })
        .collect();
    let graph = IterationGraph::build(&Spec {
        layers: &shapes,
        factor_comm: match (factor_mode, &epoch.a_fusion, &epoch.g_fusion) {
            (FactorCommMode::Bulk, ..) => FactorComm::Bulk,
            (FactorCommMode::Naive, ..) => FactorComm::Naive,
            (FactorCommMode::Pipelined(_), Some(a), Some(g)) => FactorComm::Pipelined { a, g },
            _ => FactorComm::Local,
        },
        grad_cut: match &grad_plan {
            Some(plan) => GradCut::Planned(plan),
            None => GradCut::Cap(cfg.grad_fusion_elems),
        },
        placement: &epoch.placement,
        refresh: true,
        deps: Deps::PaperBarrier,
    });
    lower(
        &graph,
        |l| layers.get(l),
        &inv_dims,
        batch,
        &hw,
        exec_net.as_mut(),
        world,
    )
}

/// The trainer's planner over the tensors `inv_dims` on `net`'s cluster,
/// pricing with `net`'s planning lines (§2.14 of DESIGN.md: the flat
/// queue's all-reduce is the *contended* cost the paper fits, the
/// hierarchical one its closed form) and `profile`'s inversion model.
fn planner(
    net: &dyn NetworkModel,
    profile: &HardwareProfile,
    inv_dims: Vec<usize>,
    world: usize,
    policy: PolicyHandle,
    fusion: Option<FusionStrategy>,
) -> Planner {
    let lines = Costs {
        allreduce: Some(net.plan_allreduce()),
        broadcast: Some(net.plan_bcast()),
        inverse: Some(profile.inverse),
        ..Costs::default()
    };
    Planner::from_parts(lines, inv_dims, world, net.gpus_per_node(), policy, fusion)
}

/// `profile` at `cfg`'s wire precision: β terms are calibrated for 4-byte
/// elements, and a compressed format adds its codec CPU cost per element.
fn on_the_wire(profile: &HardwareProfile, cfg: &SimConfig) -> HardwareProfile {
    let mut h = profile.clone();
    let wire = cfg.wire_bytes / 4.0;
    h.allreduce.beta = h.allreduce.beta * wire + cfg.codec_s_per_elem;
    h.bcast.beta = h.bcast.beta * wire + cfg.codec_s_per_elem;
    h
}

/// Simulates one iteration of *any* schedule — in particular the `DataDeps`
/// graph a real trainer executed — on `cfg`'s cluster. `model` describes the
/// layers statistics are taken for, in order (as [`ModelProfile`]s do); a
/// layer of the graph it has no [`LayerSpec`] for — an activation, say — is
/// priced at zero.
pub fn simulate_graph(graph: &IterationGraph, model: &ModelProfile, cfg: &SimConfig) -> SimReport {
    let world = cfg.world.max(1);
    let hw = on_the_wire(&cfg.hw, cfg);
    let mut exec_net = net::build(&cfg.topology, &hw, world);
    let factor_layers = graph.factor_layers();
    let spec_of = |l: usize| {
        let s = factor_layers.iter().position(|&fl| fl == l)?;
        model.layers().get(s)
    };
    lower(
        graph,
        spec_of,
        &model.all_factor_dims(),
        model.batch_size(),
        &hw,
        exec_net.as_mut(),
        world,
    )
}

/// Lowers every node of `graph` to tasks on `net`'s resources and runs them.
///
/// | node | task |
/// |---|---|
/// | `Forward`, `Backward`, `FactorA`, `FactorG` | the layer's FLOPs through `hw`, on the representative GPU 0 (data-parallel symmetry) |
/// | `AllReduce*`, `Broadcast` | `net`'s collective of `elems`, stamped with the running k-th-collective `seq` of the simulated Horovod queue (mirroring the counter `CommTelemetry` keeps on real comm tracks, so the causal analyzer groups simulated collectives like measured ones) |
/// | `Invert` | Eq. 26 on the owner, or on every GPU |
/// | `Precondition` | the listed layers' GEMMs, on GPU 0 |
/// | `Update` | one kernel launch — unless something was preconditioned: the paper's preconditioning block already carries it |
fn lower<'m>(
    graph: &IterationGraph,
    spec_of: impl Fn(usize) -> Option<&'m LayerSpec>,
    inv_dims: &[usize],
    batch: usize,
    hw: &HardwareProfile,
    net: &mut dyn NetworkModel,
    world: usize,
) -> SimReport {
    let mut g = TaskGraph::new(net.num_resources());
    let layer = |l: usize, cost: fn(&HardwareProfile, &LayerSpec, usize) -> f64| {
        spec_of(l).map_or(0.0, |spec| cost(hw, spec, batch))
    };
    let nodes = graph.nodes();
    let preconditions = nodes.iter().any(|n| matches!(n.op, Op::Precondition(_)));
    // Per node: its task — of an `Every` node, the one on GPU 0.
    let mut task: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut seq = 0u64;
    for node in nodes {
        let deps: Vec<usize> = node.deps.iter().map(|&d| task[d]).collect();
        let phase = node.op.phase();
        let meta = SpanMeta {
            edge: node.op.edge(),
            seq: node.op.edge().map(|_| seq),
            size: node.op.edge().map(|_| node.elems),
            ..SpanMeta::default()
        };
        seq += u64::from(meta.edge.is_some());
        task.push(match &node.op {
            Op::Forward(l) => g.push(0, layer(*l, HardwareProfile::ff_time), &deps, phase),
            Op::Backward(l) => g.push(0, layer(*l, HardwareProfile::bp_time), &deps, phase),
            Op::FactorA(l) => g.push(0, layer(*l, HardwareProfile::factor_a_time), &deps, phase),
            Op::FactorG(l) => g.push(0, layer(*l, HardwareProfile::factor_g_time), &deps, phase),
            Op::AllReduceFactors(_) | Op::AllReduceGrads(_) => {
                net.push_allreduce(&mut g, node.elems, &deps, phase, meta)
            }
            Op::Broadcast { tensor, root } => {
                net.push_bcast(&mut g, inv_dims[*tensor], *root, &deps, phase, meta)
            }
            Op::Invert(t) => {
                let gpus = match node.who {
                    Who::Every => 0..world,
                    Who::Rank(r) => r..r + 1,
                };
                let time = hw.inverse_time(inv_dims[*t]);
                let tasks = gpus.map(|p| g.push(p, time, &deps, phase));
                tasks.reduce(|first, _| first).expect("some GPU inverts")
            }
            Op::Precondition(layers) => {
                let time = |&l: &usize| {
                    spec_of(l).map_or(0.0, |spec| {
                        spec.precond_flops() / hw.gemm_flops + hw.kernel_overhead
                    })
                };
                g.push(0, layers.iter().map(time).sum(), &deps, phase)
            }
            Op::Update if preconditions => continue,
            Op::Update => g.push(0, hw.kernel_overhead, &deps, phase),
        });
    }
    attribute(net.execute(&mut g), world)
}

/// Simulates the *average* iteration time when K-FAC's second-order work
/// (factor aggregation + inversion) runs only every `kfac_interval`-th
/// iteration, with the other iterations applying the stale preconditioner —
/// the amortization later systems (e.g. KAISA) build on, and an extension of
/// the paper's timing study (which refreshes every iteration).
///
/// Iterations without second-order work cost an S-SGD iteration plus the
/// preconditioning GEMMs.
///
/// # Panics
///
/// Panics if `kfac_interval == 0`.
pub fn simulate_amortized_iteration(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    kfac_interval: usize,
) -> f64 {
    assert!(kfac_interval > 0, "kfac_interval must be positive");
    let full = simulate_iteration(model, cfg, algo).total;
    if kfac_interval == 1 {
        return full;
    }
    // Light iteration: forward/backward + gradient aggregation + stale
    // preconditioning (no factor compute/comm, no inversions).
    let ssgd = simulate_iteration(model, cfg, Algo::SSgd).total;
    let hw = &cfg.hw;
    let precond: f64 = model
        .layers()
        .iter()
        .map(|l| l.precond_flops() / hw.gemm_flops + hw.kernel_overhead)
        .sum();
    let light = ssgd + precond;
    ((kfac_interval - 1) as f64 * light + full) / kfac_interval as f64
}

/// Simulates only the inverse phase (Fig. 12): inversion + broadcasting of
/// `dims` under `policy`, starting from idle at t = 0. Returns the phase
/// report (its `total` is the Fig. 12 bar).
pub fn simulate_inverse_phase(
    dims: &[usize],
    cfg: &SimConfig,
    policy: impl Into<PolicyHandle>,
) -> SimReport {
    let world = cfg.world.max(1);
    let hw = on_the_wire(&cfg.hw, cfg);
    let mut exec_net = net::build(&cfg.topology, &hw, world);
    let planner = planner(&*exec_net, &hw, dims.to_vec(), world, policy.into(), None);
    // The paper's tail behind an empty barrier.
    let placement = planner.plan(&Costs::default(), None).placement;
    let graph = IterationGraph::inverse_phase(dims, &placement);
    lower(&graph, |_| None, dims, 1, &hw, exec_net.as_mut(), world)
}

/// Outcome of the drifting-hardware replay (see [`simulate_drift_replay`]).
#[derive(Debug, Clone)]
pub struct DriftReplay {
    /// One iteration before the drift: planned and executed on `cfg.hw`.
    pub before: SimReport,
    /// One iteration after the drift with the **stale** generation-0 plan:
    /// planned from the pre-drift models, executed on the drifted hardware
    /// — what a static-plan trainer keeps paying.
    pub stale: SimReport,
    /// One iteration after the adaptive runtime's re-plan barrier: planned
    /// from the agreed post-drift models, executed on the drifted hardware.
    pub replanned: SimReport,
    /// The stale iteration followed by the re-planned one on a shared
    /// clock, with the re-planned iteration's collectives stamped
    /// generation 1 — a two-generation trace for the causal analyzer.
    pub spans: Vec<TaskSpan>,
}

impl DriftReplay {
    /// Modelled time the re-plan recovers per post-drift iteration.
    pub fn recovered_s(&self) -> f64 {
        self.stale.total - self.replanned.total
    }
}

/// Replays the adaptive runtime's drifting-hardware scenario in the
/// simulator: mid-run, the network's startup latency α multiplies by
/// `alpha_scale` (e.g. `2.0` = congestion doubles per-collective latency).
/// A static-plan trainer keeps executing the plan fitted to the old α
/// (`stale`); the adaptive runtime re-fits at the next barrier, agrees on
/// the drifted models, and swaps to the plan they imply (`replanned`).
/// Larger α penalizes many-message plans, so the re-planned fusion merges
/// more aggressively and the LBP placement re-balances CT/NCT choices.
///
/// # Panics
///
/// Panics if `alpha_scale` is not positive and finite.
pub fn simulate_drift_replay(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    alpha_scale: f64,
) -> DriftReplay {
    assert!(
        alpha_scale.is_finite() && alpha_scale > 0.0,
        "invalid alpha_scale {alpha_scale}"
    );
    let before = simulate_iteration(model, cfg, algo);
    let mut drifted = cfg.clone();
    drifted.hw.allreduce.alpha *= alpha_scale;
    drifted.hw.bcast.alpha *= alpha_scale;
    let stale = simulate_iteration_planned(model, &drifted, algo, Some(&cfg.hw));
    let replanned = simulate_iteration(model, &drifted, algo);
    // Generation-boundary trace: the stale (generation-0) iteration, then
    // the re-planned one shifted onto the same clock with its collectives
    // stamped generation 1 — per-epoch k-th-collective matching keeps the
    // two iterations' queues separate even though both restart seq at 0.
    let offset = stale.total;
    let mut spans = stale.spans.clone();
    spans.extend(replanned.spans.iter().map(|s| {
        let mut s = *s;
        s.start += offset;
        s.end += offset;
        if s.meta.edge.is_some() {
            s.meta.generation = Some(1);
        }
        s
    }));
    DriftReplay {
        before,
        stale,
        replanned,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_models::{densenet201, paper_models, resnet50};

    fn cfg() -> SimConfig {
        SimConfig::paper_testbed(64)
    }

    #[test]
    fn sgd_single_has_no_comm() {
        let r = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        assert_eq!(r.breakdown.grad_comm, 0.0);
        assert_eq!(r.breakdown.factor_comm, 0.0);
        assert!(r.breakdown.ff_bp > 0.0);
    }

    #[test]
    fn kfac_single_is_about_4x_sgd() {
        // Fig. 2: "KFAC takes about 4 times slower than SGD".
        let sgd = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        let kfac = simulate_iteration(&resnet50(), &cfg(), Algo::KfacSingle);
        let ratio = kfac.total / sgd.total;
        assert!(
            (2.5..6.0).contains(&ratio),
            "KFAC/SGD single-GPU ratio {ratio:.2} out of range"
        );
    }

    #[test]
    fn ssgd_adds_bounded_comm() {
        let sgd = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        let ssgd = simulate_iteration(&resnet50(), &cfg(), Algo::SSgd);
        assert!(ssgd.total > sgd.total);
        assert!(ssgd.breakdown.grad_comm > 0.0);
        // WFBP hides most gradient communication behind backward.
        assert!(ssgd.breakdown.grad_comm < 0.1);
    }

    #[test]
    fn table3_ordering_holds_on_all_models() {
        // SPD < MPD < D on ResNet/Inception; SPD < D < MPD on DenseNet-201.
        for m in paper_models() {
            let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
            let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
            let spd = simulate_iteration(&m, &cfg(), Algo::SpdKfac).total;
            assert!(spd < d, "{}: SPD {spd:.4} !< D {d:.4}", m.name());
            assert!(spd < mpd, "{}: SPD {spd:.4} !< MPD {mpd:.4}", m.name());
        }
    }

    #[test]
    fn densenet_mpd_slower_than_dkfac() {
        // Fig. 9 / Table III: MPD-KFAC loses to D-KFAC on DenseNet-201
        // because broadcasting hundreds of small inverses is startup-bound.
        let m = densenet201();
        let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
        let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
        assert!(mpd > d, "DenseNet-201: MPD {mpd:.4} should exceed D {d:.4}");
    }

    #[test]
    fn spd_hides_factor_comm() {
        let m = resnet50();
        let d = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let spd = simulate_iteration(&m, &cfg(), Algo::SpdKfac);
        assert!(
            spd.breakdown.factor_comm < d.breakdown.factor_comm,
            "SPD factor comm {:.4} !< D {:.4}",
            spd.breakdown.factor_comm,
            d.breakdown.factor_comm
        );
    }

    #[test]
    fn inverse_phase_lbp_beats_baselines() {
        // Fig. 12 orderings on all four models.
        for m in paper_models() {
            let dims = m.all_factor_dims();
            let non = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::NonDist).total;
            let seq = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::SeqDist).total;
            let lbp = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::default()).total;
            assert!(
                lbp <= non * 1.001,
                "{}: LBP {lbp:.4} vs Non-Dist {non:.4}",
                m.name()
            );
            assert!(
                lbp <= seq * 1.001,
                "{}: LBP {lbp:.4} vs Seq-Dist {seq:.4}",
                m.name()
            );
        }
    }

    #[test]
    fn densenet_seqdist_worse_than_nondist() {
        // Fig. 12: Seq-Dist loses to Non-Dist on DenseNet-201.
        let m = densenet201();
        let dims = m.all_factor_dims();
        let non = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::NonDist).total;
        let seq = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::SeqDist).total;
        assert!(
            seq > non,
            "DenseNet-201: Seq-Dist {seq:.4} !> Non-Dist {non:.4}"
        );
    }

    #[test]
    fn breakdown_sums_to_total_everywhere() {
        for algo in [
            Algo::SgdSingle,
            Algo::KfacSingle,
            Algo::SSgd,
            Algo::DKfac,
            Algo::MpdKfac,
            Algo::SpdKfac,
        ] {
            let r = simulate_iteration(&resnet50(), &cfg(), algo);
            assert!(
                (r.breakdown.total() - r.total).abs() < 1e-9,
                "{algo:?}: breakdown {:.6} != total {:.6}",
                r.breakdown.total(),
                r.total
            );
        }
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let m = resnet50();
        let slow = cfg();
        let mut fast = cfg();
        fast.hw.allreduce.beta /= 4.0;
        fast.hw.bcast.beta /= 4.0;
        for algo in [Algo::SSgd, Algo::DKfac, Algo::MpdKfac, Algo::SpdKfac] {
            let ts = simulate_iteration(&m, &slow, algo).total;
            let tf = simulate_iteration(&m, &fast, algo).total;
            assert!(
                tf <= ts + 1e-9,
                "{algo:?}: faster net slower? {tf:.4} vs {ts:.4}"
            );
        }
    }

    #[test]
    fn mgwfbp_gradient_fusion_never_slower_for_ssgd() {
        // MG-WFBP's plan-based fusion should match or beat the Horovod
        // threshold buffer on S-SGD for every paper model.
        for m in paper_models() {
            let thr = simulate_iteration(&m, &cfg(), Algo::SSgd).total;
            let mut oc = cfg();
            oc.grad_fusion = GradFusionMode::Optimal;
            let opt = simulate_iteration(&m, &oc, Algo::SSgd).total;
            assert!(
                opt <= thr + 1e-4,
                "{}: MG-WFBP {opt:.4} > WFBP {thr:.4}",
                m.name()
            );
        }
    }

    #[test]
    fn per_root_parallel_network_never_slower() {
        // Removing broadcast serialization can only help (or tie).
        for m in paper_models() {
            let dims = m.all_factor_dims();
            for strategy in [PlacementStrategy::SeqDist, PlacementStrategy::default()] {
                let ser = simulate_inverse_phase(&dims, &cfg(), strategy).total;
                let mut pcfg = cfg();
                pcfg.topology = NetTopology::per_root_parallel();
                let par = simulate_inverse_phase(&dims, &pcfg, strategy).total;
                assert!(par <= ser + 1e-9, "{}: {par} > {ser}", m.name());
            }
        }
    }

    #[test]
    fn fp16_wire_halves_exposed_comm_cost() {
        let m = resnet50();
        let d32 = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let mut c16 = cfg();
        c16.wire_bytes = 2.0;
        let d16 = simulate_iteration(&m, &c16, Algo::DKfac);
        assert!(d16.total < d32.total);
        // The bulk factor all-reduce is exposed in D-KFAC; its β term halves
        // while the α term stays, so the saving is a bit under 2x.
        assert!(d16.breakdown.factor_comm < d32.breakdown.factor_comm * 0.7);
        assert!(d16.breakdown.factor_comm > d32.breakdown.factor_comm * 0.4);
    }

    #[test]
    fn codec_cost_erodes_the_compression_win() {
        // fp16 wire with a free codec beats fp32; the same wire with an
        // absurdly expensive codec is worse than not compressing at all.
        let m = resnet50();
        let d32 = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let mut free = cfg();
        free.wire_bytes = 2.0;
        let d16 = simulate_iteration(&m, &free, Algo::DKfac);
        assert!(d16.breakdown.factor_comm < d32.breakdown.factor_comm);
        let mut costly = free.clone();
        costly.codec_s_per_elem = cfg().hw.allreduce.beta * 10.0;
        let slow = simulate_iteration(&m, &costly, Algo::DKfac);
        assert!(slow.breakdown.factor_comm > d32.breakdown.factor_comm);
    }

    #[test]
    fn amortized_iterations_interpolate_between_kfac_and_ssgd() {
        let m = resnet50();
        let full = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 1);
        let sparse = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 10);
        let very_sparse = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 100);
        let ssgd = simulate_iteration(&m, &cfg(), Algo::SSgd).total;
        assert!(sparse < full);
        assert!(very_sparse < sparse);
        assert!(
            very_sparse > ssgd,
            "stale-factor K-FAC still costs more than S-SGD"
        );
        // Monotone decreasing in the interval.
        let mut prev = full;
        for k in [2usize, 4, 8, 16, 32] {
            let t = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, k);
            assert!(t <= prev + 1e-12, "interval {k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn simulated_collectives_carry_causal_metadata() {
        // Satellite: every simulated collective is stamped with edge/seq/
        // size so the causal analyzer resolves simulator stragglers exactly
        // (not via the EPS start-time heuristic).
        let r = simulate_iteration(&resnet50(), &cfg(), Algo::SpdKfac);
        let world = cfg().world;
        let comm: Vec<_> = r.spans.iter().filter(|s| s.phase.is_comm()).collect();
        assert!(!comm.is_empty());
        let mut seqs: Vec<u64> = Vec::new();
        for s in &comm {
            assert!(s.meta.edge.is_some(), "comm span missing edge: {s:?}");
            assert!(s.meta.size.is_some(), "comm span missing size: {s:?}");
            seqs.push(s.meta.seq.expect("comm span missing seq"));
        }
        seqs.sort_unstable();
        let expect: Vec<u64> = (0..comm.len() as u64).collect();
        assert_eq!(seqs, expect, "collective seqs must be 0..n unique");
        // The causal graph consumes the metadata end to end.
        let obs = spdkfac_core::graph::to_obs_spans(&r.spans);
        let report = spdkfac_obs::CriticalReport::from_spans(
            &obs,
            &spdkfac_obs::TrackLayout::simulator(world, world),
        );
        assert!(report.path_total() >= 0.95 * report.wall());
    }

    #[test]
    fn drift_replay_replans_to_a_better_plan() {
        // Network α jumps 8x mid-run: the stale plan (fitted to the cheap
        // α) pays exposed latency on every small message; the re-planned
        // iteration merges harder and re-balances, beating the stale plan.
        let m = resnet50();
        let r = simulate_drift_replay(&m, &cfg(), Algo::SpdKfac, 8.0);
        assert!(
            r.stale.total > r.before.total,
            "drift must hurt: stale {:.4} !> before {:.4}",
            r.stale.total,
            r.before.total
        );
        assert!(
            r.replanned.total < r.stale.total,
            "re-plan must beat the stale plan: {:.4} !< {:.4}",
            r.replanned.total,
            r.stale.total
        );
        assert!(r.recovered_s() > 0.0);
        // The concatenated trace spans both generations…
        assert!(r
            .spans
            .iter()
            .any(|s| s.meta.generation == Some(1) && s.meta.edge.is_some()));
        assert!(r
            .spans
            .iter()
            .any(|s| s.meta.generation.is_none() && s.meta.edge.is_some()));
        // …and the causal analyzer still attributes ≥95% of wall time
        // across the generation boundary.
        let world = cfg().world;
        let obs = spdkfac_core::graph::to_obs_spans(&r.spans);
        let report = spdkfac_obs::CriticalReport::from_spans(
            &obs,
            &spdkfac_obs::TrackLayout::simulator(world, world),
        );
        assert!(
            report.path_total() >= 0.95 * report.wall(),
            "attribution {:.1}% across generation boundary",
            100.0 * report.path_total() / report.wall()
        );
    }

    #[test]
    fn drift_replay_identity_scale_is_a_fixed_point() {
        // alpha_scale = 1 drifts nothing: the "stale" and "re-planned"
        // iterations are the same schedule (no spurious plan churn).
        let m = resnet50();
        let r = simulate_drift_replay(&m, &cfg(), Algo::SpdKfac, 1.0);
        assert!((r.stale.total - r.before.total).abs() < 1e-12);
        assert!((r.replanned.total - r.before.total).abs() < 1e-12);
    }

    #[test]
    fn fusion_strategy_ordering_fig10() {
        // Fig. 10 shape: on the non-overlapped factor-comm metric OTF beats
        // Naive and LW outright and stays within scheduling noise of TTF
        // (whose exposure OTF trades for a faster overall iteration); on
        // iteration time OTF is the best strategy on every model.
        for m in paper_models() {
            let run = |mode: FactorCommMode| {
                let mut c = cfg();
                c.factor_mode = Some(mode);
                let r = simulate_iteration(&m, &c, Algo::SpdKfac);
                (r.breakdown.factor_comm, r.total)
            };
            let naive = run(FactorCommMode::Naive);
            let lw = run(FactorCommMode::Pipelined(FusionStrategy::LayerWise));
            let ttf = run(FactorCommMode::Pipelined(FusionStrategy::Threshold {
                elems: 16 * 1024 * 1024,
                cycle_s: 0.005,
            }));
            let otf = run(FactorCommMode::Pipelined(FusionStrategy::Optimal));
            assert!(
                otf.0 <= naive.0 + 1e-9,
                "{}: OTF {:.4} > Naive {:.4}",
                m.name(),
                otf.0,
                naive.0
            );
            assert!(
                otf.0 <= lw.0 + 1e-9,
                "{}: OTF {:.4} > LW {:.4}",
                m.name(),
                otf.0,
                lw.0
            );
            assert!(
                otf.0 <= ttf.0 + 0.01,
                "{}: OTF {:.4} ≫ TTF {:.4}",
                m.name(),
                otf.0,
                ttf.0
            );
            for (name, other) in [("Naive", naive.1), ("LW", lw.1), ("TTF", ttf.1)] {
                assert!(
                    otf.1 <= other + 1e-9,
                    "{}: OTF total {:.4} > {name} total {other:.4}",
                    m.name(),
                    otf.1
                );
            }
        }
    }
}
