//! One training iteration as a value: the task graph the paper draws in
//! Fig. 1 / Fig. 4 and decides about in Eq. 15 and Algorithm 1.
//!
//! [`IterationGraph::build`] is pure — no kernels, no communicator, no rank
//! argument — and the graph it returns is the single statement of the
//! schedule. Its two executors are the worker ([`crate::distributed`], which
//! runs each node against kernels and a `CommGroup`) and the simulator
//! (`spdkfac_sim::schedule`, which prices each node through its cost models).
//!
//! **Index order is a topological order and is the SPMD program order.**
//! Every rank walks the nodes front to back, runs the ones addressed to it
//! and submits every collective at the same position; since the builder
//! takes no rank, all ranks hold the same graph and therefore agree on the
//! number and order of collectives.
//!
//! Tensors are numbered as in the placement: the `s`-th layer that takes
//! Kronecker statistics owns tensor `2s` (its `A`) and `2s + 1` (its `G`).

use crate::fusion::FusionPlan;
use crate::placement::{Placement, TensorAssignment};
use spdkfac_obs::{CollEdge, Phase};
use std::collections::VecDeque;

/// Wire length of a `d × d` symmetric tensor: its packed triangle.
pub use spdkfac_tensor::sym::packed_len;

/// Index of a node in [`IterationGraph::nodes`].
pub type NodeId = usize;

/// What a node does. Layers are indices into [`Spec::layers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Forward step of a layer.
    Forward(usize),
    /// Builds a layer's local `A` statistic from its input activations.
    FactorA(usize),
    /// Backward step of a layer.
    Backward(usize),
    /// Builds a layer's local `G` statistic from its output gradients.
    FactorG(usize),
    /// One fused all-reduce of these tensors' packed statistics, back to
    /// back in this order.
    AllReduceFactors(Vec<usize>),
    /// One all-reduce of these layers' gradients, back to back in this
    /// order.
    AllReduceGrads(Vec<usize>),
    /// Inverts a tensor's damped running average.
    Invert(usize),
    /// Broadcast of a CT's inverse from its owner.
    Broadcast {
        /// The tensor whose inverse travels.
        tensor: usize,
        /// Its owner.
        root: usize,
    },
    /// Turns these layers' gradients into update directions.
    Precondition(Vec<usize>),
    /// Clips and applies the update; the end of the iteration.
    Update,
}

impl Op {
    /// The paper's task category of this operation.
    pub fn phase(&self) -> Phase {
        match self {
            Op::Forward(_) | Op::Backward(_) => Phase::FfBp,
            Op::FactorA(_) | Op::FactorG(_) => Phase::FactorComp,
            Op::AllReduceFactors(_) => Phase::FactorComm,
            Op::AllReduceGrads(_) => Phase::GradComm,
            Op::Invert(_) => Phase::InverseComp,
            Op::Broadcast { .. } => Phase::InverseComm,
            Op::Precondition(_) | Op::Update => Phase::Update,
        }
    }

    /// The cross-rank shape of a collective; `None` for compute.
    pub fn edge(&self) -> Option<CollEdge> {
        match self {
            Op::AllReduceFactors(_) | Op::AllReduceGrads(_) => Some(CollEdge::Join),
            Op::Broadcast { root, .. } => Some(CollEdge::FanOut { root: *root }),
            _ => None,
        }
    }
}

/// Which ranks run a node. A collective is always [`Who::Every`]: each rank
/// submits it, a broadcast's non-roots with a placeholder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Who {
    /// Every rank.
    Every,
    /// One rank.
    Rank(usize),
}

/// One task of the iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// What it does.
    pub op: Op,
    /// Which ranks do it.
    pub who: Who,
    /// Nodes whose results it needs; all smaller than its own index.
    pub deps: Vec<NodeId>,
    /// Elements a collective puts on the wire (0 for compute).
    pub elems: usize,
}

/// Shape of one layer, as far as the schedule depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    /// Elements the layer adds to the gradient all-reduce (0: it has no
    /// parameters, or nothing is aggregated).
    pub grad_elems: usize,
    /// `(a_dim, g_dim)` when Kronecker statistics are taken for the layer.
    pub factor: Option<(usize, usize)>,
}

/// How the statistics are aggregated across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorComm<'a> {
    /// Not at all (single-GPU K-FAC).
    Local,
    /// One message of every `A` and `G` after backward (D-KFAC, MPD-KFAC).
    Bulk,
    /// All `A`s after forward, all `G`s after backward (Fig. 10 "Naive").
    Naive,
    /// Per-bucket messages behind the passes (SPD-KFAC): `a` partitions the
    /// `A` statistics front to back, `g` the `G` statistics back to front.
    Pipelined {
        /// Buckets of the forward pass.
        a: &'a FusionPlan,
        /// Buckets of the backward pass.
        g: &'a FusionPlan,
    },
}

/// Where the WFBP gradient buffer is cut into messages. Whatever is left
/// after the last layer is flushed in every case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradCut<'a> {
    /// Whenever this many elements have accumulated (Horovod).
    Cap(usize),
    /// As `Cap`, and wherever a `G` bucket was cut: Eq. 15 already decided
    /// a message boundary there pays its α.
    CapAndGBuckets(usize),
    /// At the boundaries of a plan over the layers, back to front (MG-WFBP).
    Planned(&'a FusionPlan),
}

/// Which dependencies order the iteration. The two policies differ in five
/// places, each marked `PaperBarrier` in the builder below (DESIGN §2.6
/// tabulates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deps {
    /// The schedule of the paper's Fig. 1/9 and Table III: inversions start
    /// once *all* factor messages are in.
    PaperBarrier,
    /// The true data dependencies, as a define-by-run trainer meets them:
    /// an inversion needs its own factor message, a direction its own
    /// gradient and two inverses.
    DataDeps,
}

/// Everything a schedule depends on.
#[derive(Debug, Clone, Copy)]
pub struct Spec<'a> {
    /// The layers, front to back.
    pub layers: &'a [LayerShape],
    /// Aggregation of the statistics.
    pub factor_comm: FactorComm<'a>,
    /// Cut rule of the gradient messages.
    pub grad_cut: GradCut<'a>,
    /// Owner of every tensor's inversion.
    pub placement: &'a Placement,
    /// Whether this iteration recomputes the inverses.
    pub refresh: bool,
    /// Dependency policy.
    pub deps: Deps,
}

/// The task graph of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationGraph {
    nodes: Vec<Node>,
}

impl IterationGraph {
    /// Builds the schedule `spec` describes.
    ///
    /// # Panics
    ///
    /// Panics if a fusion plan does not partition its pass, if the placement
    /// does not cover the tensors, or if statistics are taken under
    /// `DataDeps` with [`FactorComm::Local`] (an inversion there hangs off
    /// the message that delivers its factor, and `Local` sends none).
    pub fn build(spec: &Spec<'_>) -> IterationGraph {
        let paper = spec.deps == Deps::PaperBarrier;
        let factors = spec.layers.iter().filter_map(|s| s.factor);
        let mut b = Builder::new(*spec, factors.flat_map(|(a, g)| [a, g]).collect());
        assert!(
            paper || spec.factor_comm != FactorComm::Local || b.dims.is_empty(),
            "DataDeps inverts what a factor message delivers; Local sends none"
        );
        b.forward();
        b.backward();
        if paper {
            b.paper_tail();
        } else {
            b.data_tail();
        }
        // The update waits for every direction and, under DataDeps, for
        // everything the iteration put on the wire: nothing outlives it
        // (between refreshes no direction needs the factor messages).
        let ends = |n: &Node| match n.op {
            Op::Precondition(_) => true,
            _ => !paper && n.op.edge().is_some(),
        };
        let deps = (0..b.nodes.len()).filter(|&i| ends(&b.nodes[i])).collect();
        b.push(Op::Update, Who::Every, deps, 0);
        IterationGraph { nodes: b.nodes }
    }

    /// The paper's inverse phase alone (Fig. 12): inversion and broadcast
    /// of tensors of dimensions `dims` under `placement`, nothing before it.
    pub fn inverse_phase(dims: &[usize], placement: &Placement) -> IterationGraph {
        let spec = Spec {
            layers: &[],
            factor_comm: FactorComm::Local,
            grad_cut: GradCut::Cap(usize::MAX),
            placement,
            refresh: true,
            deps: Deps::PaperBarrier,
        };
        let mut b = Builder::new(spec, dims.to_vec());
        b.paper_tail();
        IterationGraph { nodes: b.nodes }
    }

    /// The nodes, in program order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The collectives every rank submits, in order, as `(phase, edge,
    /// wire elements)`.
    pub fn collectives(&self) -> Vec<(Phase, CollEdge, usize)> {
        let sent = |n: &Node| Some((n.op.phase(), n.op.edge()?, n.elems));
        self.nodes.iter().filter_map(sent).collect()
    }

    /// The latest collective node `id` depends on. Collectives complete in
    /// submission order, so a rank that has landed this one holds every
    /// message the node needs.
    pub fn awaits(&self, id: NodeId) -> Option<NodeId> {
        let deps = self.nodes[id].deps.iter().copied();
        deps.filter(|&d| self.nodes[d].op.edge().is_some()).max()
    }

    /// The layers statistics are taken for, front to back; the `s`-th owns
    /// tensors `2s` and `2s + 1`.
    pub fn factor_layers(&self) -> Vec<usize> {
        let stat = |n: &Node| match n.op {
            Op::FactorA(l) => Some(l),
            _ => None,
        };
        self.nodes.iter().filter_map(stat).collect()
    }
}

/// The Eq. 15 bucket cut of a pass of `n` positions: per position, the
/// message it completes — `item_at` every member of its bucket in `plan`.
///
/// # Panics
///
/// Panics, naming the position, unless the buckets list `0..n` in order.
fn bucket_ends(
    plan: &FusionPlan,
    n: usize,
    item_at: impl Fn(usize) -> usize,
) -> Vec<Option<Vec<usize>>> {
    let mut ends = vec![None; n];
    let mut pos = 0;
    for bucket in plan.buckets() {
        for &listed in bucket {
            assert!(
                listed == pos && pos < n,
                "fusion plan does not partition the pass at position {pos}"
            );
            pos += 1;
        }
        if let Some(&last) = bucket.last() {
            ends[last] = Some(bucket.iter().map(|&pos| item_at(pos)).collect());
        }
    }
    assert!(
        pos == n,
        "fusion plan does not partition the pass at position {pos}"
    );
    ends
}

struct Builder<'a> {
    spec: Spec<'a>,
    nodes: Vec<Node>,
    /// Dimension of every tensor.
    dims: Vec<usize>,
    /// The layer that owns tensors `2s` and `2s + 1`, per `s`.
    layer_of: Vec<usize>,
    /// Per tensor: the node that builds its statistic.
    stat: Vec<NodeId>,
    /// The latest forward or backward step.
    last_step: Option<NodeId>,
    /// The latest compute node of the passes.
    tip: Option<NodeId>,
    /// Collectives in submission order — which is completion order.
    sent: VecDeque<NodeId>,
}

impl<'a> Builder<'a> {
    fn new(spec: Spec<'a>, dims: Vec<usize>) -> Self {
        assert!(
            spec.placement.assignments().len() >= dims.len(),
            "the placement does not cover the tensors"
        );
        let has_factor = |&l: &usize| spec.layers[l].factor.is_some();
        Builder {
            spec,
            nodes: Vec::new(),
            layer_of: (0..spec.layers.len()).filter(has_factor).collect(),
            stat: vec![0; dims.len()],
            dims,
            last_step: None,
            tip: None,
            sent: VecDeque::new(),
        }
    }

    fn paper(&self) -> bool {
        self.spec.deps == Deps::PaperBarrier
    }

    fn push(&mut self, op: Op, who: Who, deps: Vec<NodeId>, elems: usize) -> NodeId {
        let id = self.nodes.len();
        debug_assert!(deps.iter().all(|&d| d < id));
        if op.edge().is_some() {
            self.sent.push_back(id);
        }
        self.nodes.push(Node {
            op,
            who,
            deps,
            elems,
        });
        id
    }

    /// A forward or backward step, fed by the previous one.
    fn step(&mut self, op: Op) -> NodeId {
        let id = self.push(op, Who::Every, self.last_step.into_iter().collect(), 0);
        self.last_step = Some(id);
        self.tip = Some(id);
        id
    }

    /// Tensor `t`'s statistic, from what `input` produced, followed by the
    /// fused message of these tensors if the statistic completes one.
    fn statistic(&mut self, t: usize, input: Option<NodeId>, message: Option<Vec<usize>>) {
        let l = self.layer_of[t / 2];
        let op = if t.is_multiple_of(2) {
            Op::FactorA(l)
        } else {
            Op::FactorG(l)
        };
        self.stat[t] = self.push(op, Who::Every, input.into_iter().collect(), 0);
        self.tip = Some(self.stat[t]);
        if let Some(tensors) = message {
            self.factor_message(tensors);
        }
    }

    /// One fused message of `tensors`. It needs every statistic in it — the
    /// latest of which need not be the last listed.
    fn factor_message(&mut self, tensors: Vec<usize>) {
        let elems = tensors.iter().map(|&t| packed_len(self.dims[t])).sum();
        let deps = tensors.iter().map(|&t| self.stat[t]).collect();
        self.push(Op::AllReduceFactors(tensors), Who::Every, deps, elems);
    }

    /// Whether statistics are taken inside the passes. PaperBarrier: always
    /// (Fig. 1). A trainer that sends them in one message after backward
    /// builds them there too, under the gradient message.
    fn stats_in_pass(&self) -> bool {
        let mode = self.spec.factor_comm;
        self.paper() || matches!(mode, FactorComm::Naive | FactorComm::Pipelined { .. })
    }

    fn forward(&mut self) {
        let (paper, in_pass) = (self.paper(), self.stats_in_pass());
        // The forward pass meets the A statistics front to back.
        let mut cut = match self.spec.factor_comm {
            FactorComm::Pipelined { a, .. } => bucket_ends(a, self.layer_of.len(), |pos| 2 * pos),
            _ => Vec::new(),
        };
        let mut closes = |s: usize| cut.get_mut(s).and_then(Option::take);
        let mut s = 0;
        for (l, shape) in self.spec.layers.iter().enumerate() {
            let takes = in_pass && shape.factor.is_some();
            // PaperBarrier: a layer's A statistic — its input — precedes its
            // forward; a trainer can only take it after.
            if takes && paper {
                self.statistic(2 * s, self.last_step, closes(s));
            }
            self.step(Op::Forward(l));
            if takes && !paper {
                self.statistic(2 * s, self.last_step, closes(s));
            }
            s += usize::from(shape.factor.is_some());
        }
        if self.spec.factor_comm == FactorComm::Naive {
            self.factor_message((0..s).map(|pos| 2 * pos).collect());
        }
    }

    fn backward(&mut self) {
        let (paper, in_pass) = (self.paper(), self.stats_in_pass());
        let (nlayers, nstates) = (self.spec.layers.len(), self.layer_of.len());
        // The backward pass meets the G statistics back to front.
        let g_at = |pos: usize| 2 * (nstates - 1 - pos) + 1;
        let mut g_cut = match self.spec.factor_comm {
            FactorComm::Pipelined { g, .. } => bucket_ends(g, nstates, g_at),
            _ => Vec::new(),
        };
        let planned = match self.spec.grad_cut {
            GradCut::Planned(plan) => bucket_ends(plan, nlayers, |pos| pos),
            _ => Vec::new(),
        };
        // The open gradient message: its layers and its length.
        let (mut open, mut acc) = (Vec::new(), 0usize);
        let mut pos = 0;
        for (l, shape) in self.spec.layers.iter().enumerate().rev() {
            let bp = self.step(Op::Backward(l));
            let mut g_closed = false;
            if shape.factor.is_some() {
                if in_pass {
                    let message = g_cut.get_mut(pos).and_then(Option::take);
                    g_closed = message.is_some();
                    self.statistic(g_at(pos), Some(bp), message);
                }
                pos += 1;
            }
            if shape.grad_elems > 0 {
                open.push(l);
                acc += shape.grad_elems;
            }
            let cut = match self.spec.grad_cut {
                GradCut::Cap(cap) => acc >= cap,
                GradCut::CapAndGBuckets(cap) => g_closed || acc >= cap,
                GradCut::Planned(_) => planned[nlayers - 1 - l].is_some(),
            };
            if cut && !open.is_empty() {
                // PaperBarrier: the message hangs off the layer's backward,
                // not off the G statistic that follows it.
                let dep = if paper { bp } else { self.tip.unwrap_or(bp) };
                let layers = Op::AllReduceGrads(std::mem::take(&mut open));
                self.push(layers, Who::Every, vec![dep], std::mem::take(&mut acc));
            }
        }
        if !open.is_empty() {
            let deps = self.tip.into_iter().collect();
            self.push(Op::AllReduceGrads(open), Who::Every, deps, acc);
        }
        if !in_pass {
            // The trainer builds them once backward is through.
            for t in 0..2 * nstates {
                self.statistic(t, self.last_step, None);
            }
        }
        match self.spec.factor_comm {
            FactorComm::Naive => self.factor_message((0..nstates).map(g_at).collect()),
            FactorComm::Bulk => self.factor_message((0..2 * nstates).collect()),
            FactorComm::Local | FactorComm::Pipelined { .. } => {}
        }
    }

    /// §V-B inversion order: CTs before NCTs, so their broadcasts reach the
    /// network early; smallest first; ties by tensor index.
    fn inversion_order(&self, mut tensors: Vec<usize>) -> Vec<usize> {
        tensors.sort_by_key(|&t| (self.spec.placement.is_nct(t), self.dims[t], t));
        tensors
    }

    /// Tensor `t`'s inversion on the rank(s) the placement names; returns
    /// the node and the owner, if the tensor is a CT.
    fn invert(&mut self, t: usize, deps: Vec<NodeId>) -> (NodeId, Option<usize>) {
        let owner = match self.spec.placement.assignments()[t] {
            TensorAssignment::AllGpus => None,
            TensorAssignment::Gpu(owner) => Some(owner),
        };
        let who = owner.map_or(Who::Every, Who::Rank);
        (self.push(Op::Invert(t), who, deps, 0), owner)
    }

    fn broadcast(&mut self, tensor: usize, root: usize, inverted: NodeId) -> NodeId {
        // A CT travels as its `L`'s packed triangle.
        let elems = packed_len(self.dims[tensor]);
        let op = Op::Broadcast { tensor, root };
        self.push(op, Who::Every, vec![inverted], elems)
    }

    /// PaperBarrier tail. On a refresh every rank inverts its tensors in
    /// §V-B order once all factor messages are in and backward is through,
    /// and the broadcasts are issued round-robin over the owners (each
    /// owner's k-th inversion before any owner's k+1-th), so the network
    /// picks them up roughly in completion order. Then one block on rank 0
    /// preconditions every layer; it does not wait for the gradient
    /// messages (Fig. 1 lets them finish on their own).
    fn paper_tail(&mut self) {
        let factors = |c: &NodeId| matches!(self.nodes[*c].op, Op::AllReduceFactors(_));
        let barrier = self.sent.iter().copied().filter(factors);
        let barrier: Vec<NodeId> = barrier.chain(self.tip).collect();
        // What rank 0 inverts itself, then every broadcast.
        let mut inputs = Vec::new();
        // Per CT: (k, owner) — it is its owner's k-th — tensor, inversion.
        let mut cts = Vec::new();
        let mut owned = vec![0; self.spec.placement.world()];
        let all = (0..self.dims.len()).filter(|_| self.spec.refresh).collect();
        for t in self.inversion_order(all) {
            let (inverted, owner) = self.invert(t, barrier.clone());
            if let Some(owner) = owner {
                cts.push(((owned[owner], owner), t, inverted));
                owned[owner] += 1;
            }
            if owner.is_none_or(|owner| owner == 0) {
                inputs.push(inverted);
            }
        }
        cts.sort_unstable();
        for ((_, root), t, inverted) in cts {
            inputs.push(self.broadcast(t, root, inverted));
        }
        if !self.layer_of.is_empty() {
            let layers = self.layer_of.clone();
            self.push(Op::Precondition(layers), Who::Rank(0), inputs, 0);
        }
    }

    /// DataDeps tail: the messages land in submission order, and each runs
    /// what it unblocked at once. A factor message unblocks the inversions
    /// of its tensors (on a refresh), each CT followed by its broadcast,
    /// which joins the back of the queue; any arrival unblocks the layers
    /// whose gradient and — on a refresh — two inverses are now in.
    fn data_tail(&mut self) {
        let refresh = self.spec.refresh;
        // Per layer: how many inputs its directions still wait for — its
        // gradient and, on a refresh, its two inverses (between refreshes
        // the standing ones are used) — and the nodes that delivered the
        // others.
        let mut missing = vec![1; self.spec.layers.len()];
        for &l in self.layer_of.iter().filter(|_| refresh) {
            missing[l] += 2;
        }
        let mut inputs = vec![Vec::new(); missing.len()];
        while let Some(c) = self.sent.pop_front() {
            // What this arrival delivers, as `(layer, node that has it)`.
            let mut delivered = Vec::new();
            match self.nodes[c].op.clone() {
                Op::AllReduceFactors(tensors) => {
                    let landed = tensors.into_iter().filter(|_| refresh).collect();
                    for t in self.inversion_order(landed) {
                        match self.invert(t, vec![c]) {
                            (inverted, None) => delivered.push((self.layer_of[t / 2], inverted)),
                            (inverted, Some(root)) => {
                                self.broadcast(t, root, inverted);
                            }
                        }
                    }
                }
                Op::AllReduceGrads(layers) => delivered.extend(layers.into_iter().map(|l| (l, c))),
                Op::Broadcast { tensor, .. } => delivered.push((self.layer_of[tensor / 2], c)),
                _ => unreachable!("only collectives are sent"),
            }
            let (mut ready, mut deps) = (Vec::new(), Vec::new());
            for (l, node) in delivered {
                inputs[l].push(node);
                missing[l] -= 1;
                if missing[l] == 0 {
                    ready.push(l);
                    deps.append(&mut inputs[l]);
                }
            }
            if !ready.is_empty() {
                deps.sort_unstable();
                deps.dedup();
                self.push(Op::Precondition(ready), Who::Every, deps, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{self, FactorPipeline, FusionStrategy};
    use crate::perf::AlphaBetaModel;

    /// A plan over `n` positions that cuts after each position in `cuts`.
    fn plan(n: usize, cuts: &[usize]) -> FusionPlan {
        // Threshold fusion starts a new bucket where the cycle is exceeded.
        let step = |pos: usize| cuts.iter().filter(|&&c| c < pos).count() as f64;
        let pipeline = FactorPipeline::new((0..n).map(step).collect(), vec![1; n]).unwrap();
        let strategy = FusionStrategy::Threshold {
            elems: usize::MAX,
            cycle_s: 0.5,
        };
        fusion::plan(&pipeline, &AlphaBetaModel::new(1e-3, 1e-9), strategy)
    }

    /// Linear(4→5), an activation, Linear(5→6), Linear(6→3).
    fn layers() -> Vec<LayerShape> {
        let linear = |a: usize, g: usize| LayerShape {
            grad_elems: a * g + g,
            factor: Some((a, g)),
        };
        let relu = LayerShape {
            grad_elems: 0,
            factor: None,
        };
        vec![linear(4, 5), relu, linear(5, 6), linear(6, 3)]
    }

    fn build(
        factor_comm: FactorComm<'_>,
        grad_cut: GradCut<'_>,
        placement: &Placement,
        deps: Deps,
    ) -> IterationGraph {
        IterationGraph::build(&Spec {
            layers: &layers(),
            factor_comm,
            grad_cut,
            placement,
            refresh: true,
            deps,
        })
    }

    fn all_local() -> Placement {
        Placement::new(vec![TensorAssignment::AllGpus; 6], 2)
    }

    fn ops(graph: &IterationGraph) -> Vec<Op> {
        graph.nodes().iter().map(|n| n.op.clone()).collect()
    }

    #[test]
    fn buckets_are_cut_exactly_at_the_plans_boundaries() {
        let (a, g) = (plan(3, &[1]), plan(3, &[0]));
        assert_eq!(a.buckets(), &[vec![0, 1], vec![2]]);
        assert_eq!(g.buckets(), &[vec![0], vec![1, 2]]);
        let graph = build(
            FactorComm::Pipelined { a: &a, g: &g },
            GradCut::CapAndGBuckets(usize::MAX),
            &all_local(),
            Deps::DataDeps,
        );
        let passes: Vec<Op> = ops(&graph)
            .into_iter()
            .take_while(|op| !matches!(op, Op::Invert(_)))
            .collect();
        use Op::*;
        let want = vec![
            Forward(0),
            FactorA(0),
            Forward(1),
            Forward(2),
            FactorA(2),
            AllReduceFactors(vec![0, 2]),
            Forward(3),
            FactorA(3),
            AllReduceFactors(vec![4]),
            Backward(3),
            FactorG(3),
            AllReduceFactors(vec![5]),
            // The gradient buffer is cut where the G buckets are.
            AllReduceGrads(vec![3]),
            Backward(2),
            FactorG(2),
            Backward(1),
            Backward(0),
            FactorG(0),
            AllReduceFactors(vec![3, 1]),
            AllReduceGrads(vec![2, 0]),
        ];
        assert_eq!(passes, want);
        // Elements: packed triangles, whole gradients.
        let elems: Vec<usize> = graph.collectives().iter().map(|c| c.2).collect();
        assert_eq!(elems, [10 + 15, 21, 6, 21, 21 + 15, 36 + 25]);
    }

    #[test]
    #[should_panic(expected = "does not partition the pass at position 2")]
    fn a_plan_that_ends_before_its_pass_panics() {
        let (a, g) = (plan(2, &[]), plan(3, &[]));
        let pipelined = FactorComm::Pipelined { a: &a, g: &g };
        build(pipelined, GradCut::Cap(1), &all_local(), Deps::DataDeps);
    }

    #[test]
    #[should_panic(expected = "does not partition the pass at position 3")]
    fn a_plan_that_outlasts_its_pass_panics() {
        let (a, g) = (plan(3, &[]), plan(4, &[2]));
        let pipelined = FactorComm::Pipelined { a: &a, g: &g };
        build(pipelined, GradCut::Cap(1), &all_local(), Deps::PaperBarrier);
    }

    /// The orders the trainer has always put on the wire: ring chunking,
    /// and with it every bit of a run, depends on them.
    #[test]
    fn message_layouts() {
        let messages = |graph: &IterationGraph| -> Vec<Op> {
            let sent = |op: &Op| op.edge() == Some(CollEdge::Join);
            ops(graph).into_iter().filter(sent).collect()
        };
        for deps in [Deps::DataDeps, Deps::PaperBarrier] {
            // Bulk: every tensor in order, after the gradients, which list
            // their layers in backward order.
            let cap = GradCut::Cap(usize::MAX);
            let bulk = build(FactorComm::Bulk, cap, &all_local(), deps);
            let want = [
                Op::AllReduceGrads(vec![3, 2, 0]),
                Op::AllReduceFactors((0..6).collect()),
            ];
            assert_eq!(messages(&bulk), want, "{deps:?}");
            // Pipelined: an A bucket front to back, a G bucket back to front.
            let (a, g) = (plan(3, &[]), plan(3, &[]));
            let pipelined = FactorComm::Pipelined { a: &a, g: &g };
            let one_each = build(pipelined, cap, &all_local(), deps);
            let want = [
                Op::AllReduceFactors(vec![0, 2, 4]),
                Op::AllReduceFactors(vec![5, 3, 1]),
                Op::AllReduceGrads(vec![3, 2, 0]),
            ];
            assert_eq!(messages(&one_each), want, "{deps:?}");
        }
    }

    #[test]
    fn a_landed_bucket_is_inverted_cts_first_smallest_first() {
        // Dimensions 4, 5 | 5, 6 | 6, 3; tensors 1 and 4 stay local.
        use TensorAssignment::{AllGpus, Gpu};
        let placement = Placement::new(vec![Gpu(1), AllGpus, Gpu(0), Gpu(1), AllGpus, Gpu(0)], 2);
        let cap = GradCut::Cap(usize::MAX);
        let tail = |deps| -> Vec<Op> {
            let is_tail = |op: &Op| matches!(op, Op::Invert(_) | Op::Broadcast { .. });
            let graph = build(FactorComm::Bulk, cap, &placement, deps);
            ops(&graph).into_iter().filter(is_tail).collect()
        };
        let b = |tensor, root| Op::Broadcast { tensor, root };
        use Op::Invert as I;
        // Each CT is followed by its broadcast...
        let data = [
            I(5),
            b(5, 0),
            I(0),
            b(0, 1),
            I(2),
            b(2, 0),
            I(3),
            b(3, 1),
            I(1),
            I(4),
        ];
        assert_eq!(tail(Deps::DataDeps), data);
        // ...or the broadcasts follow all inversions, each owner's k-th
        // before any owner's k+1-th.
        let paper = [
            I(5),
            I(0),
            I(2),
            I(3),
            I(1),
            I(4),
            b(5, 0),
            b(0, 1),
            b(2, 0),
            b(3, 1),
        ];
        assert_eq!(tail(Deps::PaperBarrier), paper);
    }
}
