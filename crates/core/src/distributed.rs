//! Multi-worker trainers over real in-process collectives: S-SGD, D-KFAC,
//! MPD-KFAC and SPD-KFAC.
//!
//! All three K-FAC variants execute the *same* mathematics (Eq. 13); they
//! differ only in **how Kronecker factors are communicated** and **where the
//! inverses are computed**:
//!
//! | Variant  | factor communication | inverse placement |
//! |----------|----------------------|-------------------|
//! | D-KFAC   | one bulk all-reduce after backward | every GPU inverts everything ([`PlacementStrategy::NonDist`]) |
//! | MPD-KFAC | one bulk all-reduce after backward | round-robin, broadcast results ([`PlacementStrategy::SeqDist`]) |
//! | SPD-KFAC | pipelined per-bucket all-reduces during forward/backward with dynamic tensor fusion (Eq. 15) | Algorithm 1 (LBP) with CT/NCT classification |
//!
//! Consequently the parameter trajectories of the three variants agree to
//! floating-point reordering noise — asserted by the integration tests —
//! which is the paper's premise for comparing them on wall-clock time only
//! (§VI: *"our proposed algorithms are systemic optimizations without
//! affecting the numerical results"*).
//!
//! Those two columns are all an algorithm chooses, and it chooses them once:
//! [`iteration_graph`] turns them into a [`crate::iteration`] graph, and
//! every worker executes that graph node by node, whatever the algorithm.

use crate::calibrate::Calibrator;
use crate::elastic::{
    handoff_buffer, ElasticPolicy, FactorCheckpoint, MembershipSpan, TrainCheckpoint,
};
use crate::error::FactorSide;
use crate::factors::{local_factor_a_into, local_factor_g_into, FactorState};
use crate::fusion::FusionStrategy;
use crate::iteration::{
    Deps, FactorComm, GradCut, IterationGraph, LayerShape, Node, NodeId, Op, Spec, Who,
};
use crate::optimizer::KfacConfig;
use crate::perf::{AlphaBetaModel, ExpInverseModel};
use crate::placement::PlacementStrategy;
use crate::precond;
use crate::runtime::{self, Costs, PlanEpoch, Planner, ReplanController, ReplanPolicy};
use spdkfac_collectives::{
    connect_elastic, elastic_poll, Backend, CommError, CommGroup, JoinIntent, PendingOp,
    WirePolicy, WorkerComm,
};
use spdkfac_nn::data::Dataset;
use spdkfac_nn::loss::softmax_cross_entropy;
use spdkfac_nn::optim::Sgd;
use spdkfac_nn::{Sequential, Tensor4};
use spdkfac_obs::{Phase, Recorder, SpanGuard};
use spdkfac_tensor::sym::packed_len;
use spdkfac_tensor::Matrix;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Which training algorithm the workers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// First-order baseline: gradients all-reduced, no preconditioning.
    SSgd,
    /// D-KFAC: bulk factor aggregation, local inversion everywhere.
    DKfac,
    /// MPD-KFAC: bulk factor aggregation, round-robin distributed inversion
    /// with result broadcasts (the prior state of the art, §II-B).
    MpdKfac,
    /// SPD-KFAC: pipelined factor aggregation with dynamic tensor fusion +
    /// load-balancing inverse placement (the paper's contribution, §IV).
    SpdKfac,
}

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of worker ranks.
    pub world: usize,
    /// Training algorithm.
    pub algorithm: Algorithm,
    /// K-FAC hyper-parameters (ignored by [`Algorithm::SSgd`] except lr /
    /// momentum / weight decay).
    pub kfac: KfacConfig,
    /// Fusion strategy for SPD-KFAC's factor pipeline.
    pub fusion: FusionStrategy,
    /// Inverse placement strategy override. Defaults depend on the
    /// algorithm (NonDist / SeqDist / LBP); set explicitly for ablations.
    pub placement: Option<PlacementStrategy>,
    /// Inversion-cost model used by LBP's NCT test.
    pub comp_model: ExpInverseModel,
    /// Broadcast-cost model used by LBP's NCT test.
    pub comm_model: AlphaBetaModel,
    /// WFBP gradient fusion-buffer capacity in elements: gradients are
    /// all-reduced asynchronously during backward once this many elements
    /// have accumulated (Horovod's 64 MB buffer ≙ 16 M fp32 elements). For
    /// S-SGD, D-KFAC and MPD-KFAC this is the only flush rule. SPD-KFAC
    /// also flushes whenever a G-factor bucket flushes — Eq. 15 already
    /// decided a message boundary there pays its α — so each layer group's
    /// gradients follow its factors on the wire and can be preconditioned
    /// as they land; the cap still applies within a group.
    pub grad_fusion_elems: usize,
    /// Adaptive re-planning policy (see [`crate::runtime`]). At each due
    /// inter-iteration barrier every rank refits its calibrator, the fitted
    /// coefficients are agreement-all-reduced, and placement + fusion plans
    /// are deterministically recomputed from the agreed models; a changed
    /// plan is swapped in atomically with a generation bump. Calibration
    /// samples come off the recorder, so without one a due barrier still
    /// synchronizes but re-plans from the baseline models — a fixed point.
    pub replan: ReplanPolicy,
    /// Per-op-kind wire encoding for the collectives (see
    /// [`spdkfac_collectives::wire`]). Defaults to the bit-exact f64
    /// pass-through; the narrower formats (`WirePolicy::parse("f16")`,
    /// `"grad=f16,factor=f32"`, …) trade bounded numerical error for wire
    /// bytes. Re-plan barriers account for the format: the agreed
    /// wire-byte and codec fits are composed into an effective per-element
    /// model for the factor format before fusion planning.
    pub wire: WirePolicy,
}

impl DistributedConfig {
    /// A ready-to-run configuration for `world` workers and `algorithm`,
    /// with paper-like default cost models.
    pub fn new(world: usize, algorithm: Algorithm) -> Self {
        DistributedConfig {
            world,
            algorithm,
            kfac: KfacConfig::default(),
            fusion: FusionStrategy::Optimal,
            placement: None,
            // Arbitrary-but-plausible CPU-scale models; placement
            // correctness does not depend on the constants.
            comp_model: ExpInverseModel::new(5e-5, 2e-3),
            comm_model: AlphaBetaModel::new(2e-4, 2e-9),
            grad_fusion_elems: 16 * 1024 * 1024,
            replan: ReplanPolicy::Off,
            wire: WirePolicy::default(),
        }
    }

    pub(crate) fn effective_placement(&self) -> PlacementStrategy {
        self.placement.unwrap_or(match self.algorithm {
            Algorithm::SSgd | Algorithm::DKfac => PlacementStrategy::NonDist,
            Algorithm::MpdKfac => PlacementStrategy::SeqDist,
            Algorithm::SpdKfac => PlacementStrategy::default(),
        })
    }
}

/// Outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Globally-averaged training loss per iteration.
    pub losses: Vec<f64>,
    /// Flattened final parameters (identical on every rank up to fp noise;
    /// taken from rank 0).
    pub final_params: Vec<f64>,
    /// Total `f64` elements moved over the ring during the run.
    pub traffic_elements: u64,
    /// Total post-encoding bytes actually put on the wire — equals
    /// `8 * traffic_elements` under the f64 pass-through, less under
    /// compressed wire formats.
    pub traffic_wire_bytes: u64,
    /// Collective operations executed (per-rank executions summed).
    pub collective_ops: u64,
    /// Stable-membership intervals the run passed through. Non-elastic runs
    /// report a single epoch-0 span; elastic runs append one span per
    /// membership epoch they participated in (the resize timeline).
    pub membership: Vec<MembershipSpan>,
}

/// The unified entry point to every trainer mode — local in-process groups,
/// a single rank of an external (TCP) group, and the elastic fault-tolerant
/// runtime — configured fluently:
///
/// ```
/// use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
/// use spdkfac_nn::data::gaussian_blobs;
/// use spdkfac_nn::models::mlp;
///
/// let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
/// cfg.kfac.damping = 0.1;
/// cfg.kfac.momentum = 0.0;
/// let data = gaussian_blobs(3, 6, 16, 0.3, 17);
/// let r = TrainSession::builder(cfg)
///     .run(&|| mlp(&[6, 12, 3], 3), &data, 4, 4)
///     .expect("local run");
/// assert_eq!(r.losses.len(), 4);
/// ```
///
/// Modes (chosen by which builder methods were called):
///
/// - **Local** (default): spawns `config.world` worker threads over the
///   in-process backend.
/// - **Endpoint** ([`TrainSession::endpoint`]): runs this process as one
///   rank of an already-connected group. Peer failures surface as `Err`
///   instead of a panic.
/// - **Elastic** ([`TrainSession::elastic`]): joins a long-lived
///   [`spdkfac_collectives::RendezvousServer`] and survives membership
///   changes — rank death shrinks the world at the next barrier, joiners
///   are absorbed with a full state handoff (see [`crate::elastic`] and
///   DESIGN §2.10).
///
/// `build` must be deterministic so all replicas start identical.
#[derive(Debug)]
pub struct TrainSession {
    config: DistributedConfig,
    recorder: Option<Arc<Recorder>>,
    endpoint: Option<WorkerComm>,
    elastic: Option<ElasticPolicy>,
}

impl TrainSession {
    /// Starts configuring a session running `config`.
    pub fn builder(config: DistributedConfig) -> TrainSession {
        TrainSession {
            config,
            recorder: None,
            endpoint: None,
            elastic: None,
        }
    }

    /// Attaches a recorder: every worker records phase-tagged spans and
    /// metrics into `rec`, laid out as [`spdkfac_obs::TrackLayout::trainer`]
    /// — rank `r`'s compute thread on track `r`, its communication thread on
    /// track `world + r` (spans on out-of-range tracks are dropped, so a
    /// recorder sized for the initial world stays safe across elastic
    /// resizes). After the run,
    /// `IterationBreakdown::from_recorder(&rec, world)` yields the measured
    /// counterpart of the simulator's breakdown.
    pub fn recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Runs this process as one rank of an externally-connected group
    /// (e.g. a [`Backend::Tcp`] endpoint from a multi-process launcher)
    /// instead of spawning local worker threads. Mutually exclusive with
    /// [`TrainSession::elastic`].
    pub fn endpoint(mut self, comm: WorkerComm) -> Self {
        self.endpoint = Some(comm);
        self
    }

    /// Joins an elastic rendezvous instead of a fixed-membership group; the
    /// run then survives rank deaths (world shrinks at the next barrier)
    /// and absorbs joiners (world grows, with checkpointed state handoff).
    /// `config.world` is ignored — the rendezvous dictates the world size
    /// of each membership epoch. Mutually exclusive with
    /// [`TrainSession::endpoint`].
    pub fn elastic(mut self, policy: ElasticPolicy) -> Self {
        self.elastic = Some(policy);
        self
    }

    /// Trains `iters` iterations of `config.algorithm` on `dataset` with
    /// `batch` samples per rank per iteration, and returns rank-valid
    /// results (losses are globally averaged, so all ranks report the same
    /// values).
    ///
    /// # Errors
    ///
    /// Communication failures in endpoint mode, and unrecoverable elastic
    /// failures (world below `min_world`, epoch budget exhausted, corrupt
    /// state handoff) in elastic mode. Local mode is infallible.
    ///
    /// # Panics
    ///
    /// Panics if any rank's data shard is smaller than `batch`, or if a
    /// damped factor fails to invert (raise `config.kfac.damping`) — the
    /// numerics stay fail-fast in every mode.
    pub fn run(
        self,
        build: &(dyn Fn() -> Sequential + Sync),
        dataset: &Dataset,
        iters: usize,
        batch: usize,
    ) -> Result<RunResult, CommError> {
        match (self.endpoint, self.elastic) {
            (Some(_), Some(_)) => Err(CommError::Rendezvous(
                "TrainSession: endpoint and elastic modes are mutually exclusive".into(),
            )),
            (None, None) => Ok(local_train_impl(
                &self.config,
                build,
                dataset,
                iters,
                batch,
                self.recorder.as_ref(),
            )),
            (endpoint, policy) => run_epochs(
                &self.config,
                endpoint,
                policy.as_ref(),
                build,
                dataset,
                iters,
                batch,
                self.recorder,
            ),
        }
    }
}

fn local_train_impl(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    rec: Option<&Arc<Recorder>>,
) -> RunResult {
    let endpoints = CommGroup::builder()
        .world_size(cfg.world)
        .backend(Backend::Local)
        .wire_policy(cfg.wire)
        .build()
        .expect("local backend is infallible")
        .into_endpoints();
    // The in-process group shares one set of traffic counters.
    let stats = Arc::clone(endpoints[0].stats());
    let mut result: Option<RunResult> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for comm in endpoints {
            let cfg = cfg.clone();
            let rec = rec.map(Arc::clone);
            handles.push(s.spawn(move || {
                let rank = comm.rank();
                run_epochs(&cfg, Some(comm), None, build, dataset, iters, batch, rec)
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            let r = h.join().expect("worker panicked");
            if rank == 0 {
                result = Some(r);
            }
        }
    });
    // Rank 0 read the counters when *its* run ended, with other ranks' comm
    // threads still counting the last collective; they are final only now
    // that every rank (and with it its comm thread) has been joined.
    RunResult {
        traffic_elements: stats.elements_sent(),
        traffic_wire_bytes: stats.wire_bytes_sent(),
        collective_ops: stats.ops_executed(),
        ..result.expect("rank 0 result missing")
    }
}

/// Per-worker span handle: phase spans on the worker's compute track
/// (`track == rank`), all no-ops when no recorder is attached.
struct WorkerObs {
    rec: Option<Arc<Recorder>>,
    track: usize,
}

impl WorkerObs {
    /// Opens a phase span on this worker's compute track; recorded on drop.
    fn span(&self, phase: Phase) -> Option<SpanGuard<'_>> {
        self.rec.as_deref().map(|r| r.span(self.track, phase))
    }

    /// As [`WorkerObs::span`], carrying a payload size in the span metadata
    /// (tensor dimension for inversions) for online calibration.
    fn sized_span(&self, phase: Phase, size: usize) -> Option<SpanGuard<'_>> {
        self.span(phase).map(|g| g.sized(size))
    }

    /// As [`WorkerObs::span`], with a display label, formatted only when a
    /// recorder is attached. The per-iteration update spans are labeled
    /// `iter<N>` so merged traces have explicit iteration boundaries.
    fn labeled_span<L: Into<Cow<'static, str>>>(
        &self,
        phase: Phase,
        label: impl FnOnce() -> L,
    ) -> Option<SpanGuard<'_>> {
        self.rec
            .as_deref()
            .map(|r| r.span_labeled(self.track, phase, label()))
    }

    /// Records one realized fused-message flush (satellite of §IV-A): the
    /// planned bucket counts are gauges written when a plan is installed,
    /// but the bytes actually moved per flush are only known here. `pass`
    /// is `"a"` or `"g"`. Rank 0 reports for the group (every rank flushes
    /// alike).
    fn record_flush(&self, pass: &str, elems: usize) {
        if let Some(r) = self.rec.as_ref().filter(|_| self.track == 0) {
            let m = r.metrics();
            m.histogram("fusion/realized/elems").observe(elems as f64);
            m.counter(&format!("fusion/{pass}/flushes")).inc();
            m.counter(&format!("fusion/{pass}/realized_elems"))
                .add(elems as u64);
        }
    }
}

/// A rank's complete mutable training state, detached from any communicator
/// — the unit that survives an elastic membership change. Everything else
/// the loop needs (shard lengths, placement, fusion plans, calibration) is
/// derived per segment from this state plus the current world size.
struct WorkerState {
    net: Sequential,
    sgd: Sgd,
    states: Vec<FactorState>,
    losses: Vec<f64>,
    /// Next iteration to execute; prior iterations are complete.
    next_iter: usize,
}

impl WorkerState {
    fn fresh(cfg: &DistributedConfig, build: &(dyn Fn() -> Sequential + Sync)) -> WorkerState {
        let net = build();
        let pre = net.preconditionable();
        WorkerState {
            sgd: Sgd::new(cfg.kfac.lr, cfg.kfac.momentum, cfg.kfac.weight_decay),
            states: pre.iter().map(|&li| FactorState::new(li)).collect(),
            losses: Vec::new(),
            next_iter: 0,
            net,
        }
    }

    fn checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint::capture(
            self.next_iter,
            &self.losses,
            &self.net,
            &self.sgd,
            &self.states,
        )
    }

    fn restore(&mut self, ckpt: &TrainCheckpoint) {
        self.net.set_flat_params(&ckpt.params);
        self.sgd.set_velocity(ckpt.velocity.clone());
        self.states = ckpt.factors.iter().map(FactorCheckpoint::restore).collect();
        self.losses = ckpt.losses.clone();
        self.next_iter = ckpt.iter;
    }
}

/// How a [`train_segment`] call ended (when it didn't fail).
enum SegmentEnd {
    /// All requested iterations are complete.
    Done,
    /// The group agreed (via the loss all-reduce's piggybacked flag) to
    /// pause at the end of this iteration and re-form with pending joiners.
    ResizeRequested,
    /// This rank's `leave_after` budget is spent; the caller should drop
    /// the endpoint without rejoining.
    Leave,
}

/// The schedule of one iteration of `cfg.algorithm` on `net` under `plan` —
/// what [`TrainSession`]'s workers execute. The algorithm decides here, once,
/// how statistics travel and where gradient messages are cut; `refresh`
/// says whether the iteration recomputes the inverses.
pub fn iteration_graph(
    cfg: &DistributedConfig,
    net: &Sequential,
    plan: &PlanEpoch,
    refresh: bool,
) -> IterationGraph {
    let layers = layer_shapes(cfg, net);
    let factor_comm = match (cfg.algorithm, &plan.a_fusion, &plan.g_fusion) {
        (Algorithm::DKfac | Algorithm::MpdKfac, ..) => FactorComm::Bulk,
        (_, Some(a), Some(g)) => FactorComm::Pipelined { a, g },
        // S-SGD takes no statistics; a pipelined algorithm without a
        // preconditionable layer has none to send.
        _ => FactorComm::Local,
    };
    IterationGraph::build(&Spec {
        layers: &layers,
        factor_comm,
        grad_cut: match factor_comm {
            FactorComm::Pipelined { .. } => GradCut::CapAndGBuckets(cfg.grad_fusion_elems),
            _ => GradCut::Cap(cfg.grad_fusion_elems),
        },
        placement: &plan.placement,
        refresh,
        deps: Deps::DataDeps,
    })
}

/// `net`'s layers as the schedule of `cfg.algorithm` sees them.
fn layer_shapes(cfg: &DistributedConfig, net: &Sequential) -> Vec<LayerShape> {
    let capture = cfg.algorithm != Algorithm::SSgd;
    net.layers()
        .iter()
        .map(|l| LayerShape {
            grad_elems: l.params().iter().map(|p| p.numel()).sum(),
            factor: l.kfac_dims().filter(|_| capture),
        })
        .collect()
}

/// Installs a plan: its two graphs, `[between refreshes, on a refresh]`,
/// with `arena` sized for them as `rank` runs them.
fn plan_graphs(
    cfg: &DistributedConfig,
    net: &Sequential,
    plan: &PlanEpoch,
    rank: usize,
    arena: &mut MessageArena,
) -> [IterationGraph; 2] {
    let graphs = [false, true].map(|refresh| iteration_graph(cfg, net, plan, refresh));
    arena.install(&graphs, rank);
    graphs
}

/// Message payloads kept from one iteration to the next (DESIGN §2.6
/// "Buffers"): one buffer per *slot*, and each payload of a plan's graphs
/// travels in the slot [`MessageArena::install`] gave it. Two payloads of
/// one graph share a slot only if one lands before the other is taken, so
/// a slot is free whenever its payload is taken.
#[derive(Debug, Default)]
struct MessageArena {
    /// Per slot: its buffer, `None` while a payload is out in it.
    slots: Vec<Option<Vec<f64>>>,
    /// Per graph of the plan, per node: the slot of the payload the node
    /// takes or sends.
    slot_of: [Vec<Option<usize>>; 2],
    /// The graph the running iteration executes.
    graph: usize,
}

impl MessageArena {
    /// Packs `graphs`' payloads on `rank` into slots, largest first, each
    /// into the first slot holding no payload of its graph that is out at
    /// the same time (a slot's capacity is its first payload's length), and
    /// sizes the buffers. A buffer it holds is kept for a slot of exactly
    /// its capacity — every one when the plan's messages did not change.
    /// Nothing may be out.
    fn install(&mut self, graphs: &[IterationGraph; 2], rank: usize) {
        let mut all: Vec<(usize, Payload)> = (0..2)
            .flat_map(|g| payloads(&graphs[g], rank).into_iter().map(move |p| (g, p)))
            .collect();
        all.sort_by_key(|(_, p)| Reverse(p.len));
        self.slot_of = [0, 1].map(|g| vec![None; graphs[g].nodes().len()]);
        // Per slot: its capacity, and its payloads' graphs and lifetimes.
        let (mut caps, mut busy) = (Vec::new(), Vec::<Vec<(usize, Range<usize>)>>::new());
        for (g, p) in all {
            let clash = |(h, out): &(usize, Range<usize>)| {
                *h == g && out.start < p.out.end && p.out.start < out.end
            };
            let slot = busy.iter().position(|on| !on.iter().any(clash));
            let slot = slot.unwrap_or_else(|| {
                caps.push(p.len);
                busy.push(Vec::new());
                caps.len() - 1
            });
            busy[slot].push((g, p.out));
            self.slot_of[g][p.taken_by] = Some(slot);
            self.slot_of[g][p.sent_by] = Some(slot);
        }
        let mut old: Vec<Vec<f64>> = self
            .slots
            .drain(..)
            .map(|b| b.expect("nothing out"))
            .collect();
        let mut keep = |cap: usize| {
            let at = old.iter().position(|b| b.capacity() == cap)?;
            Some(old.swap_remove(at))
        };
        let kept: Vec<Option<Vec<f64>>> = caps.iter().map(|&cap| keep(cap)).collect();
        // Free what the new plan does not use before allocating what it
        // lacks, so an install never holds two plans' buffers.
        drop(old);
        let fresh =
            |(kept, &cap): (Option<Vec<f64>>, _)| kept.unwrap_or_else(|| Vec::with_capacity(cap));
        self.slots = kept.into_iter().zip(&caps).map(fresh).map(Some).collect();
    }

    /// The buffer of the payload node `id` of the running iteration's graph
    /// writes, cut to `len` elements of stale contents; it stays here until
    /// its collective takes it.
    fn fill(&mut self, id: NodeId, len: usize) -> &mut [f64] {
        let slot = self.slot_of[self.graph][id].expect("the node has a slot");
        let buf = self.slots[slot]
            .as_mut()
            .expect("a slot is free when its payload is taken");
        buf.resize(len, 0.0);
        buf
    }

    /// [`MessageArena::fill`]'s buffer, handed to collective `id`.
    fn take(&mut self, id: NodeId, len: usize) -> Vec<f64> {
        self.fill(id, len);
        let slot = self.slot_of[self.graph][id].expect("the node has a slot");
        self.slots[slot].take().expect("filled just now")
    }

    /// Takes back the buffer collective `c` landed.
    fn give(&mut self, c: NodeId, buf: Vec<f64>) {
        let slot = self.slot_of[self.graph][c].expect("the node has a slot");
        self.slots[slot] = Some(buf);
    }
}

/// One message payload of an iteration on one rank.
struct Payload {
    /// The node that takes it from the arena.
    taken_by: NodeId,
    /// The collective that sends it; its landing gives it back.
    sent_by: NodeId,
    len: usize,
    /// When it is out, on a clock of the executor's steps: `0` opens the
    /// iteration, `2 id + 2` lands what node `id` awaits, `2 id + 3` runs it.
    out: Range<usize>,
}

/// The payloads of an iteration of `graph` on `rank`, each out from the
/// node that first writes it — for a factor message the iteration's start
/// (its statistics are packed in as they are taken), for a CT owner's
/// inverse its `Invert`, for a non-owner's broadcast its submission. A
/// gradient message has none: it travels in its parameters' gradients.
fn payloads(graph: &IterationGraph, rank: usize) -> Vec<Payload> {
    let nodes = graph.nodes();
    let payload = |taken_by, sent_by, len, start| Payload {
        taken_by,
        sent_by,
        len,
        out: start..usize::MAX,
    };
    let mut payloads: Vec<Payload> = (nodes.iter().enumerate())
        .filter(|(_, n)| matches!(n.op, Op::AllReduceFactors(_)))
        .map(|(c, n)| payload(c, c, n.elems, 0))
        .collect();
    for (id, node) in nodes.iter().enumerate() {
        if matches!(node.who, Who::Rank(r) if r != rank) {
            continue;
        }
        // What the node awaits lands first, with everything sent before it.
        if let Some(upto) = graph.awaits(id) {
            for p in payloads.iter_mut().filter(|p| p.sent_by <= upto) {
                p.out.end = p.out.end.min(2 * id + 2);
            }
        }
        let taken = match node.op {
            Op::Invert(t) if node.who != Who::Every => {
                let bcast = |n: &Node| matches!(n.op, Op::Broadcast { tensor, .. } if tensor == t);
                let b = nodes.iter().position(bcast).expect("a CT is broadcast");
                Some((b, nodes[b].elems))
            }
            Op::Broadcast { .. } if payloads.iter().all(|p| p.sent_by != id) => {
                Some((id, node.elems))
            }
            _ => None,
        };
        if let Some((sent_by, len)) = taken {
            payloads.push(payload(id, sent_by, len, 2 * id + 3));
        }
    }
    payloads
}

/// The buffers a rank's iterations write, created with the segment and
/// reused until it ends (DESIGN §2.6 "Buffers").
struct Buffers {
    /// Factor and CT payloads.
    arena: MessageArena,
    /// Per tensor: the node of its factor message and its offset there;
    /// statistics are packed straight into the message.
    stat_at: Vec<(NodeId, usize)>,
    /// Submitted collectives in submission order — which is completion
    /// order, the comm thread being FIFO. Each travels as a list of parts:
    /// an arena buffer alone, or a gradient message's gradients.
    in_flight: VecDeque<(NodeId, PendingOp<Vec<Vec<f64>>>)>,
    /// The KL clip's term of each parameter, in the model's flat order
    /// (its direction replaces its gradient before `Update`).
    kl_terms: Vec<f64>,
    /// Results between two kernels: the Gramian product a statistic is
    /// packed from, every other solve of a direction; with a KL clip, the
    /// raw gradient until its term is taken.
    scratch: [Matrix; 2],
}

impl Buffers {
    fn new(tensors: usize, params: usize) -> Buffers {
        Buffers {
            arena: MessageArena::default(),
            stat_at: vec![(0, 0); tensors],
            in_flight: VecDeque::new(),
            kl_terms: vec![0.0; params],
            scratch: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
        }
    }

    /// Opens an iteration of the plan's graph `g` (`graph`).
    fn begin(&mut self, g: usize, graph: &IterationGraph, inv_dims: &[usize]) {
        self.arena.graph = g;
        for (c, node) in graph.nodes().iter().enumerate() {
            if let Op::AllReduceFactors(tensors) = &node.op {
                let mut at = 0;
                for &t in tensors {
                    self.stat_at[t] = (c, at);
                    at += packed_len(inv_dims[t]);
                }
            }
        }
    }
}

/// Moves the gradients of `layers`' parameters out into the parts of their
/// message, leaving each `Param::grad` empty until the message lands.
fn lend_grads(net: &mut Sequential, layers: &[usize]) -> Vec<Vec<f64>> {
    let mut parts = Vec::new();
    for &li in layers {
        for p in net.layers_mut()[li].params_mut() {
            parts.push(std::mem::replace(&mut p.grad, Matrix::zeros(0, 0)).into_vec());
        }
    }
    parts
}

/// Gives every parameter whose gradient was lent to a failed collective a
/// zeroed one of its value's shape.
fn reclaim_grads(net: &mut Sequential) {
    for p in net.parameters_mut() {
        if p.grad.shape() != p.value.shape() {
            p.grad = Matrix::zeros(p.value.rows(), p.value.cols());
        }
    }
}

/// Which factor tensor `t` is (`A_l`, `G_l` interleaved).
fn side(t: usize) -> FactorSide {
    if t.is_multiple_of(2) {
        FactorSide::A
    } else {
        FactorSide::G
    }
}

/// One rank executing one iteration's graph (DESIGN "Iteration graph"): the
/// kernels behind the nodes, over the segment's [`Buffers`].
///
/// | collective | landing it installs |
/// |---|---|
/// | factor message | the running `A`/`G` averages |
/// | gradient message | the averaged gradients, in the storage it was lent |
/// | CT broadcast | the factor's `L` |
struct Executor<'a> {
    cfg: &'a DistributedConfig,
    rank: usize,
    obs: &'a WorkerObs,
    graph: &'a IterationGraph,
    /// Dimension of every tensor (`A_l`, `G_l` interleaved).
    inv_dims: &'a [usize],
    net: &'a mut Sequential,
    states: &'a mut [FactorState],
    bufs: &'a mut Buffers,
}

impl Executor<'_> {
    /// Blocks on the in-flight collectives up to node `upto`, in completion
    /// order, and lands what each delivers.
    fn land_through(&mut self, upto: NodeId) -> Result<(), CommError> {
        while self.bufs.in_flight.front().is_some_and(|(c, _)| *c <= upto) {
            let (c, op) = self.bufs.in_flight.pop_front().expect("front checked");
            let parts = op.wait()?;
            // The landing is compute of the phase it installs for; unsized,
            // so the calibrator's inversion fit does not read it.
            let phase = match self.graph.nodes()[c].op {
                Op::AllReduceFactors(_) => Phase::FactorComp,
                Op::Broadcast { .. } => Phase::InverseComp,
                _ => Phase::Update,
            };
            let _land = self.obs.labeled_span(phase, || "land");
            self.land(c, parts);
        }
        Ok(())
    }

    /// Installs what collective `c` delivered: gives a gradient message's
    /// parts back to their parameters, or installs an arena buffer's
    /// contents and takes the buffer back.
    ///
    /// # Panics
    ///
    /// Panics, before installing anything, unless `parts` hold as many
    /// elements as the node's message.
    fn land(&mut self, c: NodeId, mut parts: Vec<Vec<f64>>) {
        let node = &self.graph.nodes()[c];
        let elems: usize = parts.iter().map(Vec::len).sum();
        assert!(
            elems == node.elems,
            "rank {}: node {c} ({:?}) landed {elems} elements, its message has {}",
            self.rank,
            node.op,
            node.elems
        );
        if let Op::AllReduceGrads(layers) = &node.op {
            return self.install_grads(layers, parts);
        }
        let data = parts.pop().expect("an arena buffer travels as one part");
        match &node.op {
            Op::AllReduceFactors(tensors) => self.install_factors(tensors, &data),
            Op::Broadcast { tensor, .. } => self.install_inverse(*tensor, &data),
            _ => unreachable!("only collectives are in flight"),
        }
        self.bufs.arena.give(c, data);
    }

    /// Folds an aggregated factor message into the running averages.
    fn install_factors(&mut self, tensors: &[usize], data: &[f64]) {
        let decay = self.cfg.kfac.stat_decay;
        let mut rest = data;
        for &t in tensors {
            let dim = self.inv_dims[t];
            let (packed, tail) = rest.split_at(packed_len(dim));
            rest = tail;
            self.states[t / 2].update_packed(side(t), dim, packed, decay);
        }
    }

    /// Gives an averaged gradient message's parts back to the parameters
    /// that lent them, in [`lend_grads`]' order.
    fn install_grads(&mut self, layers: &[usize], parts: Vec<Vec<f64>>) {
        let mut parts = parts.into_iter();
        for &li in layers {
            for p in self.net.layers_mut()[li].params_mut() {
                let (rows, cols) = p.value.shape();
                let part = parts.next().expect("one part per parameter");
                p.grad = Matrix::from_vec(rows, cols, part);
            }
        }
    }

    /// "Inverts" tensor `t`'s damped factor: its `L` in solve form, in
    /// `L`'s storage (lower triangular, so packing it for the wire loses
    /// nothing). An NCT's `L` never leaves it.
    fn invert(&mut self, t: usize) {
        // One sized span per tensor: the calibrator reads (dimension,
        // duration) pairs off these.
        let _inv = self.obs.sized_span(Phase::InverseComp, self.inv_dims[t]);
        let (rank, gamma) = (self.rank, self.cfg.kfac.damping);
        self.states[t / 2]
            .invert(side(t), gamma)
            .unwrap_or_else(|e| panic!("rank {rank}: inversion of tensor {t} failed: {e}"));
    }

    /// Inverts CT `t` and packs its `L` into the payload its broadcast
    /// sends (`Invert` node `id`'s slot).
    fn invert_to_wire(&mut self, id: NodeId, t: usize) {
        self.invert(t);
        let wire = self.bufs.arena.fill(id, packed_len(self.inv_dims[t]));
        self.states[t / 2].pack_chol_into(side(t), wire);
    }

    /// Installs CT `t`'s `L` from its packed triangle.
    fn install_inverse(&mut self, t: usize, data: &[f64]) {
        self.states[t / 2].set_chol_packed(side(t), self.inv_dims[t], data);
    }

    /// Turns layer `li`'s averaged gradients into its update directions in
    /// place (`Param::grad`), all inputs being in. With a KL clip, each
    /// parameter's term goes to its slot of `kl` (the layer's range of the
    /// flat parameter order) first.
    fn precondition(&mut self, li: usize, si: Option<usize>, kl: Range<usize>) {
        let clip = self.cfg.kfac.kl_clip.is_some();
        let kl = clip.then(|| &mut self.bufs.kl_terms[kl]);
        let mut params = self.net.layers_mut()[li].params_mut();
        let state = si.map(|si| &self.states[si]);
        precond::precondition_in_place(&mut params, state, &mut self.bufs.scratch, kl);
    }
}

/// Runs iterations `ws.next_iter..iters` of one rank's training loop over
/// `comm`, mutating `ws` in place so the caller can hand the state to a
/// successor group on membership changes. Communication failures surface as
/// `Err` with `ws` left at the last completed iteration boundary; numeric
/// failures stay panics in every mode. `elastic: None` is the classic
/// fixed-membership loop (bit-identical to the historical trainer).
#[allow(clippy::too_many_arguments)]
fn train_segment(
    cfg: &DistributedConfig,
    ws: &mut WorkerState,
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    comm: &WorkerComm,
    obs: &WorkerObs,
    elastic: Option<&ElasticPolicy>,
) -> Result<SegmentEnd, CommError> {
    let rank = comm.rank();
    let world = comm.world_size();
    let WorkerState {
        net,
        sgd,
        states,
        losses,
        next_iter,
    } = ws;
    // This rank's samples are `rank, rank + world, …` of `dataset`; each
    // batch is gathered from there into `x`, `y`.
    let shard_len = dataset.shard_len(world, rank);
    assert!(
        shard_len >= batch,
        "rank {rank}: shard of {shard_len} samples cannot supply batches of {batch}"
    );

    // Preconditionable-layer bookkeeping. The factor states live in `ws`
    // (they survive segments); only the index map is rebuilt here.
    let pre = net.preconditionable();
    let nlayers = pre.len();
    let mut state_of_layer = vec![None; net.len()];
    assert_eq!(states.len(), nlayers, "factor state count mismatch");
    for (si, &li) in pre.iter().enumerate() {
        state_of_layer[li] = Some(si);
        assert_eq!(states[si].layer(), li, "factor state layer mismatch");
    }
    // Flat index of each layer's first parameter, then the total.
    let mut param_base: Vec<usize> = Vec::with_capacity(net.len() + 1);
    param_base.push(0);
    for layer in net.layers() {
        param_base.push(param_base[param_base.len() - 1] + layer.params().len());
    }
    let mut bufs = Buffers::new(2 * nlayers, param_base[net.len()]);
    // The batch, copied in every iteration.
    let (mut x, mut y) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());

    // Every plan of the segment comes out of this planner (see
    // `crate::runtime`). It starts with nothing measured: `cfg`'s models and
    // one message per factor.
    let planner = Planner::new(cfg, &net.kfac_dims(), world).with_layers(&layer_shapes(cfg, net));
    let inv_dims = planner.inv_dims();
    // What the standing plan was decided from.
    let mut costs = Costs::default();
    let mut epoch = planner.plan(&costs, None);
    // SPD-KFAC cuts its factor messages from measured ready times.
    let pipelined = epoch.a_fusion.is_some();
    // What the workers execute: rebuilt whenever the plan changes, not per
    // iteration.
    let mut graphs = plan_graphs(cfg, net, &epoch, rank, &mut bufs.arena);
    let mut controller = ReplanController::new(cfg.replan);
    let mut calibrator = Calibrator::new(cfg.comp_model, cfg.comm_model);
    // What the calibrator has already been fed: each re-plan barrier
    // ingests only the spans recorded since the previous one.
    let mut calibrated = obs.rec.as_ref().map(|r| r.flush_cursor());

    let flight = spdkfac_obs::flight::global();
    let seg_start = *next_iter;
    // An abort between an iteration's loss and its resume point (the plan
    // agreement or a re-plan barrier failed) leaves that loss recorded; the
    // retry re-records it, so drop any tail past the last completed
    // iteration. SPMD-safe: every rank resumes from the same handed-off
    // state.
    losses.truncate(seg_start);
    // Per tensor: seconds into its pass at which its statistic was taken,
    // and seconds of compute its landing unblocked — its inversion and, for
    // a `G`, its layer's preconditioning.
    let mut ready = vec![0.0f64; 2 * nlayers];
    let mut tail = vec![0.0f64; 2 * nlayers];
    for iter in seg_start..iters {
        let start = (iter * batch) % (shard_len - batch + 1);
        dataset.shard_batch_into(world, rank, start, batch, &mut x, &mut y);
        let capture = cfg.algorithm != Algorithm::SSgd;
        let refresh = capture && iter % cfg.kfac.inv_update_freq.max(1) == 0;
        tail.fill(0.0);

        // ---------- The iteration: walk the graph front to back -----------
        // Every rank walks the same nodes in the same order and submits
        // every collective at the same position (DESIGN "Iteration graph").
        let graph = &graphs[usize::from(refresh)];
        bufs.begin(usize::from(refresh), graph, inv_dims);
        let mut ex = Executor {
            cfg,
            rank,
            obs,
            graph,
            inv_dims,
            net: &mut *net,
            states: &mut *states,
            bufs: &mut bufs,
        };
        // The activations on the way forward, the loss gradient on the way
        // back.
        let mut flow = Tensor4::zeros(0, 0, 0, 0);
        // The loss all-reduce, in flight from the start of backward.
        let mut loss_op: Option<PendingOp> = None;
        // One FfBp span per pass, statistics and submissions nested in it.
        let mut pass: Option<SpanGuard<'_>> = None;
        let mut pass_start = Instant::now();
        for (id, node) in graph.nodes().iter().enumerate() {
            if matches!(node.who, Who::Rank(r) if r != rank) {
                continue;
            }
            // A pass ends with its last layer's nodes: statistics taken
            // after backward (the bulk message's) are not part of it.
            let in_pass = match node.op {
                Op::FactorA(_) => loss_op.is_none(),
                Op::Invert(_) | Op::Broadcast { .. } | Op::Precondition(_) | Op::Update => false,
                _ => true,
            };
            if !in_pass {
                drop(pass.take());
            }
            // What the node needs off the wire has to land first; whatever
            // was submitted before that lands with it. A failed collective
            // keeps the gradients lent to it and to those queued behind it.
            if let Some(upto) = graph.awaits(id) {
                ex.land_through(upto)
                    .inspect_err(|_| reclaim_grads(ex.net))?;
            }
            match &node.op {
                Op::Forward(l) => {
                    if *l == 0 {
                        pass = obs.span(Phase::FfBp);
                        pass_start = Instant::now();
                    }
                    let input = if *l == 0 { &x } else { &flow };
                    flow = ex.net.layers_mut()[*l].forward(input, capture);
                }
                Op::Backward(l) => {
                    if *l + 1 == ex.net.len() {
                        drop(pass.take());
                        let (loss, grad) = softmax_cross_entropy(&flow, &y);
                        flow = grad;
                        // The loss travels now, not after `Update`: the last
                        // gradient message is then the iteration's barrier.
                        // Elastic mode piggybacks a resize flag on it: rank 0
                        // polls the rendezvous for pending joiners and sets
                        // element 1, so every rank reaches the same verdict
                        // at the same iteration with zero extra collectives.
                        let mut message = vec![loss];
                        if let Some(el) = elastic {
                            let poll =
                                rank == 0 && el.poll_every > 0 && (iter + 1) % el.poll_every == 0;
                            let pending = poll
                                && elastic_poll(&el.tcp).is_ok_and(|status| status.pending > 0);
                            message.push(f64::from(u8::from(pending)));
                        }
                        comm.set_phase(Phase::Update);
                        loss_op = Some(comm.allreduce_avg_async(message));
                        pass = obs.span(Phase::FfBp);
                        pass_start = Instant::now();
                    }
                    flow = ex.net.layers_mut()[*l].backward(&flow);
                }
                Op::FactorA(l) | Op::FactorG(l) => {
                    let g_side = matches!(node.op, Op::FactorG(_));
                    let state = state_of_layer[*l].expect("statistic of a layer without factors");
                    let t = 2 * state + usize::from(g_side);
                    let layer = &mut ex.net.layers_mut()[*l];
                    ready[t] = pass_start.elapsed().as_secs_f64();
                    let _fc = obs.span(Phase::FactorComp);
                    // Computed packed, straight into the statistic's slice
                    // of its message.
                    let (c, at) = ex.bufs.stat_at[t];
                    let msg = ex.bufs.arena.fill(c, graph.nodes()[c].elems);
                    let dst = &mut msg[at..at + packed_len(inv_dims[t])];
                    let scratch = &mut ex.bufs.scratch[0];
                    if g_side {
                        let (rows, n) = layer.take_g_stat().expect("G statistic not captured");
                        local_factor_g_into(&rows, n, scratch, dst);
                    } else {
                        let rows = layer.take_a_stat().expect("A statistic not captured");
                        local_factor_a_into(&rows, scratch, dst);
                    }
                }
                Op::AllReduceFactors(tensors) => {
                    let payload = ex.bufs.arena.take(id, node.elems);
                    comm.set_phase(node.op.phase());
                    ex.bufs
                        .in_flight
                        .push_back((id, comm.allreduce_avg_async(vec![payload])));
                    // A message of one pass's statistics is a realized
                    // Eq. 15 flush; the bulk message mixes both.
                    let side = |s: usize| tensors.iter().all(|t| t % 2 == s);
                    match (side(0), side(1)) {
                        (true, false) => obs.record_flush("a", node.elems),
                        (false, true) => obs.record_flush("g", node.elems),
                        _ => {}
                    }
                }
                Op::AllReduceGrads(layers) => {
                    let parts = lend_grads(ex.net, layers);
                    comm.set_phase(node.op.phase());
                    ex.bufs
                        .in_flight
                        .push_back((id, comm.allreduce_avg_async(parts)));
                }
                Op::Invert(t) => {
                    let started = Instant::now();
                    match node.who {
                        Who::Every => ex.invert(*t),
                        Who::Rank(_) => ex.invert_to_wire(id, *t),
                    }
                    tail[*t] += started.elapsed().as_secs_f64();
                }
                // Every rank submits at the same position: the owner with
                // the inverse its `Invert` wrote into the payload, the others
                // with stale contents that the broadcast overwrites. All
                // ranks — the owner included — install a CT from the
                // broadcast *result*, so replicas stay bit-identical under
                // lossy wire formats too.
                Op::Broadcast { root, .. } => {
                    let payload = ex.bufs.arena.take(id, node.elems);
                    comm.set_phase(node.op.phase());
                    ex.bufs
                        .in_flight
                        .push_back((id, comm.broadcast_async(vec![payload], *root)));
                }
                Op::Precondition(layers) => {
                    for &li in layers {
                        let _up = obs.span(Phase::Update);
                        let started = Instant::now();
                        ex.precondition(li, state_of_layer[li], param_base[li]..param_base[li + 1]);
                        if let Some(si) = state_of_layer[li] {
                            tail[2 * si + 1] += started.elapsed().as_secs_f64();
                        }
                    }
                }
                // What needs everything: the KL clip (a global sum) and the
                // step. `capture` selects the update rule.
                Op::Update => {
                    let _update = obs.labeled_span(Phase::Update, || format!("iter{iter}"));
                    // Under K-FAC every gradient is its direction by now.
                    let mut params = ex.net.parameters_mut();
                    if let Some(clip) = cfg.kfac.kl_clip.filter(|_| capture) {
                        let nu = precond::kl_clip_scale(
                            ex.bufs.kl_terms.iter().copied(),
                            cfg.kfac.lr,
                            clip,
                        );
                        if nu < 1.0 {
                            params.iter_mut().for_each(|p| p.grad.scale(nu));
                        }
                    }
                    sgd.step(&mut params);
                }
            }
        }
        debug_assert!(
            ex.bufs.in_flight.is_empty(),
            "a collective outlived its iteration"
        );
        // The loss message was submitted when the loss existed and is ahead
        // of every gradient message in the comm thread's queue: it landed
        // long ago, and nothing travels between `Update` and the next
        // forward pass.
        let agreed = loss_op.expect("an iteration runs a backward pass").wait()?;
        let loss = agreed[0];
        let resize_requested = agreed.get(1).is_some_and(|flag| *flag > 0.0);
        // Whatever else travels before the next forward pass (the plan
        // agreement, a re-plan barrier) is control traffic.
        comm.set_phase(Phase::Update);
        losses.push(loss);
        // Iteration boundary: the heartbeat picks up the new (iteration,
        // loss) pair.
        flight.record_iteration(iter as u64 + 1, loss);

        // ---------- Planning barrier (see `crate::runtime`) ----------------
        // SPMD-safe by construction: entry and the layout of the agreement
        // vector depend only on `iter`, the costs are agreed by one averaging
        // all-reduce (doubling as the barrier), and the plan + hysteresis
        // are pure functions of rank-identical inputs — so every rank
        // installs (or doesn't) together. "First" is per segment: Eq. 15 is
        // cut from times measured under the *current* world size, so each
        // membership epoch re-agrees from its own first iteration.
        let (first, due) = (iter == seg_start, controller.due(iter));
        if first || due {
            let t_barrier = Instant::now();
            let barrier_span = if due { obs.span(Phase::Update) } else { None };
            let metrics = obs.rec.as_ref().filter(|_| rank == 0).map(|r| r.metrics());
            let mut local = Costs::default();
            if due {
                if let (Some(r), Some(cursor)) = (&obs.rec, &mut calibrated) {
                    calibrator.ingest_spans(&r.flush_since(cursor));
                }
                local = calibrator.refit().clone();
            }
            if pipelined {
                // This iteration's times, in pipeline order.
                let order = (0..nlayers).map(|si| 2 * si);
                let order: Vec<usize> = order
                    .chain((0..nlayers).rev().map(|si| 2 * si + 1))
                    .collect();
                local.ready = Some(order.iter().map(|&t| ready[t]).collect());
                local.tail = Some(order.iter().map(|&t| tail[t]).collect());
            }
            // The cost lines travel only when a re-plan is due, the times
            // only for a pipelined algorithm; a barrier with neither (a bulk
            // algorithm's first iteration) sends nothing.
            let mut message = local.encode(due);
            if !message.is_empty() {
                message = comm.allreduce_avg_async(message).wait()?;
            }
            let agreed = Costs::decode(&message, due);
            if first {
                // The segment's first measured plan: the times under the
                // models the segment started from. It replaces the
                // one-message-per-factor start rather than re-planning it,
                // so it stays generation 0.
                costs.ready = agreed.ready.clone();
                costs.tail = agreed.tail.clone();
                epoch = planner.plan(&costs, None);
            }
            // A due barrier re-plans from everything agreed. The standing
            // placement prices migration: a CT only moves if the rebalancing
            // win exceeds one broadcast of its state.
            let outcome = due.then(|| {
                let candidate = planner.plan(&agreed, Some(&epoch.placement));
                controller.consider(&mut epoch, candidate)
            });
            let swapped = outcome.is_some_and(|o| o.swapped);
            if swapped {
                costs = agreed;
            }
            // The one place a plan is installed.
            if first || swapped {
                comm.set_generation(epoch.generation);
                graphs = plan_graphs(cfg, net, &epoch, rank, &mut bufs.arena);
                if let Some(m) = metrics {
                    planner.publish(m, &epoch, &costs);
                }
            }
            drop(barrier_span);
            if let (Some(outcome), Some(m)) = (&outcome, metrics) {
                let latency = t_barrier.elapsed().as_secs_f64();
                runtime::publish_replan_metrics(m, outcome, latency);
                calibrator.publish_metrics(m);
            }
        }

        if rank == 0 {
            if let Some(r) = &obs.rec {
                r.metrics().counter("train/iterations").inc();
            }
        }

        // The iteration is complete on every rank (its last gradient
        // all-reduce was the barrier); advance the resume point before
        // acting on any membership decision.
        *next_iter = iter + 1;
        if let Some(el) = elastic {
            if el.leave_after.is_some_and(|n| iter + 1 >= n) {
                return Ok(SegmentEnd::Leave);
            }
            if resize_requested && iter + 1 < iters {
                return Ok(SegmentEnd::ResizeRequested);
            }
        }
    }

    Ok(SegmentEnd::Done)
}

/// One rank's run, epoch by epoch. A `handed` endpoint is a fixed world: one
/// epoch, nothing to hand off, and a failed collective is final (see
/// `TrainSession::endpoint`). With a `policy` the rank joins the elastic
/// rendezvous instead, hands off / receives state at each membership epoch,
/// and runs segments until the iteration budget is spent (see
/// `TrainSession::elastic`).
///
/// Recovery flow on any elastic segment exit short of `Done`:
/// 1. drop the endpoint (closing ring sockets — peers blocked on a dead
///    rank's collective fail over to the same path),
/// 2. re-dial the rendezvous with `Rejoin { epoch, old_rank }`,
/// 3. on the new epoch, every rank restores from the checkpoint broadcast
///    by the new rank 0 (K-FAC state is replicated, so any survivor is an
///    authoritative source; bit-identical replicas are re-established by
///    construction, which keeps the next epoch SPMD-safe),
/// 4. run the next segment from the checkpoint's iteration.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    cfg: &DistributedConfig,
    mut handed: Option<WorkerComm>,
    policy: Option<&ElasticPolicy>,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    rec: Option<Arc<Recorder>>,
) -> Result<RunResult, CommError> {
    let flight = spdkfac_obs::flight::global();
    let mut state = WorkerState::fresh(cfg, build);
    let mut membership: Vec<MembershipSpan> = Vec::new();
    let mut traffic_elements = 0u64;
    let mut traffic_wire_bytes = 0u64;
    let mut collective_ops = 0u64;
    let mut intent = JoinIntent::Fresh;
    loop {
        let (comm, epoch, state_source) = match (handed.take(), policy) {
            (Some(comm), _) => (comm, 0, None),
            (None, Some(policy)) => {
                if membership.len() as u64 >= policy.max_epochs {
                    return Err(CommError::Rendezvous(format!(
                        "elastic run exceeded its budget of {} membership epochs",
                        policy.max_epochs
                    )));
                }
                let ep = connect_elastic(&policy.tcp, &intent, cfg.wire)?;
                if ep.comm.world_size() < policy.min_world {
                    return Err(CommError::Rendezvous(format!(
                        "epoch {}: world shrank to {}, below min_world {}",
                        ep.epoch,
                        ep.comm.world_size(),
                        policy.min_world
                    )));
                }
                (ep.comm, ep.epoch, ep.state_source)
            }
            (None, None) => unreachable!("a fixed world has no second epoch"),
        };
        let rank = comm.rank();
        let world = comm.world_size();
        // Communication threads record on tracks `world..2*world`
        // (TrackLayout::trainer); the phase of each collective is captured
        // at submission time from the worker's current phase tag.
        if let Some(r) = &rec {
            comm.set_recorder(Arc::clone(r), world + rank);
        }
        let obs = WorkerObs {
            rec: rec.clone(),
            track: rank,
        };
        flight.set_member_epoch(epoch);

        // ---------- State handoff -----------------------------------------
        // After any transition with survivors, the new rank 0 broadcasts its
        // full checkpoint (length first — joiners cannot size the payload)
        // and everyone restores from it.
        if let Some(src) = state_source {
            let _handoff = obs.labeled_span(Phase::Update, || format!("handoff-e{epoch}"));
            comm.set_phase(Phase::Update);
            let packed = if rank == src {
                state.checkpoint().pack()
            } else {
                Vec::new()
            };
            let corrupt = |e| CommError::Io(format!("epoch {epoch}: state handoff corrupt: {e}"));
            let len_buf = vec![packed.len() as f64];
            let len = comm.broadcast_async(len_buf, src).wait()?[0];
            let payload = if rank == src {
                packed
            } else {
                handoff_buffer(len).map_err(corrupt)?
            };
            let data = comm.broadcast_async(payload, src).wait()?;
            if rank != src {
                state.restore(&TrainCheckpoint::unpack(&data).map_err(corrupt)?);
            }
        }
        membership.push(MembershipSpan {
            epoch,
            world,
            from_iter: state.next_iter,
        });

        let end = train_segment(cfg, &mut state, dataset, iters, batch, &comm, &obs, policy);
        let stats = comm.stats();
        traffic_elements += stats.elements_sent();
        traffic_wire_bytes += stats.wire_bytes_sent();
        collective_ops += stats.ops_executed();
        drop(comm);
        match end {
            Ok(SegmentEnd::Done) | Ok(SegmentEnd::Leave) => {
                return Ok(RunResult {
                    final_params: state.net.flat_params(),
                    losses: state.losses,
                    traffic_elements,
                    traffic_wire_bytes,
                    collective_ops,
                    membership,
                });
            }
            Err(e) if policy.is_none() => return Err(e),
            Err(e) => eprintln!(
                "[spdkfac] epoch {epoch} rank {rank}: peer failure ({e}); rejoining rendezvous"
            ),
            Ok(SegmentEnd::ResizeRequested) => {}
        }
        intent = JoinIntent::Rejoin {
            epoch,
            old_rank: rank,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_nn::data::gaussian_blobs;
    use spdkfac_nn::models::{deep_mlp, mlp};

    fn run(algorithm: Algorithm, world: usize, iters: usize) -> RunResult {
        let mut cfg = DistributedConfig::new(world, algorithm);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 8 * world.max(2), 0.3, 17);
        TrainSession::builder(cfg)
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run")
    }

    #[test]
    fn ssgd_trains_and_syncs() {
        let r = run(Algorithm::SSgd, 3, 10);
        assert_eq!(r.losses.len(), 10);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
        assert!(r.traffic_elements > 0);
        // Non-elastic runs report a single epoch-0 membership span.
        assert_eq!(
            r.membership,
            vec![MembershipSpan {
                epoch: 0,
                world: 3,
                from_iter: 0
            }]
        );
    }

    #[test]
    fn dkfac_trains() {
        let r = run(Algorithm::DKfac, 2, 8);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
    }

    #[test]
    fn all_kfac_variants_agree_numerically() {
        let d = run(Algorithm::DKfac, 2, 6);
        let m = run(Algorithm::MpdKfac, 2, 6);
        let s = run(Algorithm::SpdKfac, 2, 6);
        let max_dm = max_diff(&d.final_params, &m.final_params);
        let max_ds = max_diff(&d.final_params, &s.final_params);
        assert!(max_dm < 1e-8, "D vs MPD diverged: {max_dm}");
        assert!(max_ds < 1e-8, "D vs SPD diverged: {max_ds}");
    }

    #[test]
    fn world_one_matches_multi_world_shapes() {
        let r = run(Algorithm::SpdKfac, 1, 4);
        assert_eq!(r.losses.len(), 4);
    }

    #[test]
    fn spd_runs_deep_models_with_fusion() {
        let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.2;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 8, 24, 0.3, 21);
        let r = TrainSession::builder(cfg)
            .run(&|| deep_mlp(8, 10, 6, 3, 5), &data, 5, 4)
            .expect("local run");
        assert_eq!(r.losses.len(), 5);
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn wfbp_bucketing_does_not_change_numerics() {
        // Tiny fusion buffers produce many gradient buckets; results must
        // match the single-bucket configuration to fp-reorder noise.
        let data = gaussian_blobs(3, 6, 16, 0.3, 71);
        let build = || mlp(&[6, 12, 3], 3);
        let mut big = DistributedConfig::new(2, Algorithm::DKfac);
        big.kfac.damping = 0.1;
        big.kfac.momentum = 0.0;
        let mut small = big.clone();
        small.grad_fusion_elems = 8; // flush almost every layer
        let r_big = TrainSession::builder(big)
            .run(&build, &data, 5, 4)
            .expect("local run");
        let r_small = TrainSession::builder(small)
            .run(&build, &data, 5, 4)
            .expect("local run");
        assert!(
            max_diff(&r_big.final_params, &r_small.final_params) < 1e-9,
            "bucketing changed results"
        );
        // The small-bucket run issues more collectives.
        assert!(r_small.collective_ops > r_big.collective_ops);
    }

    #[test]
    fn mpd_uses_fewer_or_equal_ops_than_spd_broadcasts() {
        // Smoke check on the traffic counters: MPD broadcasts every tensor,
        // SPD's LBP keeps small tensors local, so SPD executes no more
        // collective ops per iteration than MPD.
        let m = run(Algorithm::MpdKfac, 2, 3);
        let s = run(Algorithm::SpdKfac, 2, 3);
        assert!(
            s.collective_ops <= m.collective_ops + 6, // SPD adds plan agreement + bucket ops
            "spd={} mpd={}",
            s.collective_ops,
            m.collective_ops
        );
    }

    #[test]
    fn local_traffic_counters_are_read_after_every_rank_has_finished() {
        // The in-process group shares its counters; read while other ranks'
        // comm threads were still counting the last loss reduce, they used
        // to differ from run to run.
        let world = 4;
        let mut cfg = DistributedConfig::new(world, Algorithm::DKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 8, 0.3, 7);
        let counters = |r: &RunResult| (r.collective_ops, r.traffic_elements, r.traffic_wire_bytes);
        let run = || {
            TrainSession::builder(cfg.clone())
                .run(&|| deep_mlp(6, 12, 2, 3, 3), &data, 4, 4)
                .expect("local run")
        };
        let first = counters(&run());
        assert_eq!(first.0 % world as u64, 0, "every rank executes every op");
        for repeat in 1..20 {
            assert_eq!(counters(&run()), first, "repeat {repeat}");
        }
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Runs SPD-KFAC under `wire` and returns the result, on a fixed
    /// data/model so runs under different policies are comparable.
    fn run_with_wire(wire: &str, iters: usize) -> RunResult {
        let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        cfg.wire = WirePolicy::parse(wire).expect("wire policy");
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        TrainSession::builder(cfg)
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run")
    }

    #[test]
    fn f16_wire_converges_within_bounded_loss_divergence() {
        // The tentpole numerical claim: compressing gradient + factor
        // all-reduces to f16 must not change the training trajectory beyond
        // a documented bound. Per-iteration loss divergence vs the f64
        // baseline stays under 2e-2 absolute (f16 has ~3 decimal digits;
        // losses here are O(1)), and the run still converges.
        let iters = 8;
        let exact = run_with_wire("f64", iters);
        let lossy = run_with_wire("grad=f16,factor=f16", iters);
        assert!(lossy.losses.last().unwrap() < &lossy.losses[0]);
        for (i, (a, b)) in exact.losses.iter().zip(&lossy.losses).enumerate() {
            assert!(
                (a - b).abs() < 2e-2,
                "iter {i}: f64 loss {a} vs f16 loss {b}"
            );
        }
        // Wire accounting: the f64 run moves 8 B/element; the lossy run
        // strictly fewer (control traffic stays f64, so not a flat 4x).
        assert_eq!(exact.traffic_wire_bytes, exact.traffic_elements * 8);
        assert!(lossy.traffic_wire_bytes < exact.traffic_wire_bytes);
    }

    #[test]
    fn recorder_captures_trainer_phases_and_metrics() {
        let world = 2;
        let iters = 4;
        let rec = Arc::new(Recorder::new(2 * world));
        let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let r = TrainSession::builder(cfg)
            .recorder(Arc::clone(&rec))
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run");
        assert_eq!(r.losses.len(), iters);

        let spans = rec.spans();
        // Compute phases land on the rank tracks (0..world)…
        for ph in [
            Phase::FfBp,
            Phase::FactorComp,
            Phase::InverseComp,
            Phase::Update,
        ] {
            assert!(
                spans.iter().any(|s| s.phase == ph && s.track < world),
                "missing compute phase {ph}"
            );
        }
        // …and collectives on the comm tracks (world..2*world), tagged with
        // the phase current at submission time.
        for ph in [Phase::FactorComm, Phase::GradComm] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.phase == ph && (world..2 * world).contains(&s.track)),
                "missing comm phase {ph}"
            );
        }

        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counters["train/iterations"], iters as u64);
        assert!(snap.gauges.contains_key("placement/gpu0/load"));
        assert!(snap.gauges.contains_key("placement/gpu1/load"));
        assert!(snap.gauges["placement/nct"] + snap.gauges["placement/ct"] > 0.0);
        assert!(snap.gauges["fusion/a/messages"] >= 1.0);
        assert!(snap.gauges["fusion/g/messages"] >= 1.0);
        // Realized flush telemetry: every iteration flushes at least one
        // fused A and one fused G message, and the realized bytes match the
        // per-flush histogram count.
        assert!(snap.counters["fusion/a/flushes"] >= iters as u64);
        assert!(snap.counters["fusion/g/flushes"] >= iters as u64);
        assert!(snap.counters["fusion/a/realized_elems"] > 0);
        assert!(snap.counters["fusion/g/realized_elems"] > 0);
        assert_eq!(
            snap.histograms["fusion/realized/elems"].count,
            snap.counters["fusion/a/flushes"] + snap.counters["fusion/g/flushes"]
        );
        // Per-tensor inversion spans carry their dimension for calibration.
        assert!(spans
            .iter()
            .any(|s| s.phase == Phase::InverseComp && s.meta.size.is_some()));

        // The measured breakdown is the simulator's type and accounts for
        // the whole recorded interval.
        let b = spdkfac_obs::IterationBreakdown::from_recorder(&rec, world);
        assert!(b.total() > 0.0);
        assert!(b.ff_bp > 0.0);
    }

    #[test]
    fn mpd_broadcasts_are_tagged_inverse_comm() {
        // MPD-KFAC (SeqDist) makes every tensor a CT, so inverse-result
        // broadcasts must appear on the comm tracks as InverseComm.
        let world = 2;
        let rec = Arc::new(Recorder::new(2 * world));
        let mut cfg = DistributedConfig::new(world, Algorithm::MpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let _ = TrainSession::builder(cfg)
            .recorder(Arc::clone(&rec))
            .run(&|| mlp(&[6, 12, 3], 3), &data, 2, 4)
            .expect("local run");
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.phase == Phase::InverseComm && s.track >= world));
    }

    #[test]
    fn the_arena_shares_a_buffer_only_between_payloads_never_out_together() {
        let net = deep_mlp(16, 32, 2, 4, 7);
        for algorithm in [Algorithm::DKfac, Algorithm::MpdKfac] {
            let cfg = DistributedConfig::new(2, algorithm);
            let plan = Planner::new(&cfg, &net.kfac_dims(), 2).plan(&Costs::default(), None);
            let graphs = [false, true].map(|refresh| iteration_graph(&cfg, &net, &plan, refresh));
            let mut arena = MessageArena::default();
            arena.install(&graphs, 0);
            let held: usize = arena.slots.iter().flatten().map(Vec::capacity).sum();
            // Gradient messages travel in the gradients: no slot, nothing
            // held for them.
            for (g, graph) in graphs.iter().enumerate() {
                for (id, node) in graph.nodes().iter().enumerate() {
                    if matches!(node.op, Op::AllReduceGrads(_)) {
                        assert_eq!(arena.slot_of[g][id], None, "{node:?}");
                    }
                }
            }
            let messages = graphs[1].nodes().iter().filter(|n| n.op.edge().is_some());
            let sent: usize = messages
                .filter(|n| !matches!(n.op, Op::AllReduceGrads(_)))
                .map(|n| n.elems)
                .sum();
            assert!(sent > 0);
            if algorithm == Algorithm::DKfac {
                // Every factor message is out at the end of backward.
                assert_eq!(held, sent);
            } else {
                // The broadcasts travel in the landed factor messages'
                // buffers.
                assert!(held < sent, "{algorithm:?}: {held} held for {sent} sent");
            }
        }
    }

    #[test]
    fn a_failed_segment_gives_every_lent_gradient_back() {
        // Rank 1 leaves after one iteration: rank 0's second iteration
        // lends its gradients to all-reduces that fail. Its segment must
        // end in `Err` with every gradient back at its shape, and a
        // follow-on segment of both ranks must train.
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let build = || mlp(&[6, 12, 3], 3);
        let group = || {
            CommGroup::builder()
                .world_size(2)
                .build()
                .expect("local group")
                .into_endpoints()
        };
        for algorithm in [Algorithm::SSgd, Algorithm::DKfac, Algorithm::SpdKfac] {
            let mut cfg = DistributedConfig::new(2, algorithm);
            cfg.kfac.damping = 0.1;
            cfg.kfac.momentum = 0.0;
            // One gradient message per layer.
            cfg.grad_fusion_elems = 1;
            let segment = |ws: &mut WorkerState, comm: WorkerComm, iters| {
                let obs = WorkerObs {
                    rec: None,
                    track: comm.rank(),
                };
                train_segment(&cfg, ws, &data, iters, 4, &comm, &obs, None)
            };
            let mut states = [(); 2].map(|()| WorkerState::fresh(&cfg, &build));
            let ends = std::thread::scope(|s| {
                let runs: Vec<_> = (states.iter_mut().zip(group()).zip([3, 1]))
                    .map(|((ws, comm), iters)| s.spawn(move || segment(ws, comm, iters).is_ok()))
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().unwrap())
                    .collect::<Vec<_>>()
            });
            assert_eq!(ends, [false, true], "{algorithm:?}");
            let params = states[0].net.parameters();
            assert!(
                params.iter().all(|p| p.grad.shape() == p.value.shape()),
                "{algorithm:?}: a gradient was not given back"
            );
            let zeroed = params
                .iter()
                .filter(|p| p.grad.as_slice().iter().all(|&g| g == 0.0));
            assert!(zeroed.count() > 0, "{algorithm:?}: no gradient was lent");
            assert_eq!(states.each_ref().map(|ws| ws.next_iter), [1, 1]);

            let ends = std::thread::scope(|s| {
                let runs: Vec<_> = (states.iter_mut().zip(group()))
                    .map(|(ws, comm)| s.spawn(move || segment(ws, comm, 3).is_ok()))
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().unwrap())
                    .collect::<Vec<_>>()
            });
            assert_eq!(ends, [true, true], "{algorithm:?}");
            for ws in &states {
                assert_eq!(ws.losses.len(), 3);
                assert!(ws.losses.iter().all(|l| l.is_finite()));
            }
            assert_eq!(states[0].net.flat_params(), states[1].net.flat_params());
        }
    }

    #[test]
    fn a_mis_sized_message_is_refused_before_anything_is_installed() {
        let cfg = DistributedConfig::new(2, Algorithm::DKfac);
        let mut ws = WorkerState::fresh(&cfg, &|| mlp(&[6, 12, 3], 3));
        let planner = Planner::new(&cfg, &ws.net.kfac_dims(), 2);
        let graph = iteration_graph(&cfg, &ws.net, &planner.plan(&Costs::default(), None), true);
        let obs = WorkerObs {
            rec: None,
            track: 0,
        };
        let params = ws.net.flat_params().len();
        let messages = graph
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::AllReduceFactors(_) | Op::AllReduceGrads(_)));
        for (c, node) in messages {
            for len in [node.elems - 1, node.elems + 1] {
                let mut bufs = Buffers::new(ws.states.len() * 2, params);
                let mut ex = Executor {
                    cfg: &cfg,
                    rank: 0,
                    obs: &obs,
                    graph: &graph,
                    inv_dims: planner.inv_dims(),
                    net: &mut ws.net,
                    states: &mut ws.states,
                    bufs: &mut bufs,
                };
                let landing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ex.land(c, vec![vec![1.0; len]]);
                }));
                let panic = landing.expect_err("a mis-sized message landed");
                assert_eq!(
                    panic.downcast_ref::<String>().map(String::as_str),
                    Some(
                        format!(
                            "rank 0: node {c} ({:?}) landed {len} elements, its message has {}",
                            node.op, node.elems
                        )
                        .as_str()
                    )
                );
                // Nothing was installed: no factor, no gradient moved.
                assert!(ws
                    .states
                    .iter()
                    .all(|st| st.running_factor(FactorSide::A).is_none()));
                let grads = ws.net.parameters();
                assert!(grads
                    .iter()
                    .all(|p| p.grad.as_slice().iter().all(|&g| g == 0.0)));
            }
        }
    }
}
