//! Planning: the one place SPD-KFAC's two standing decisions — the Eq. 15
//! fusion plans and the Algorithm 1 inverse placement — are made, from
//! whatever the run knows about its costs at that moment.
//!
//! 1. **One cost record** — [`Costs`]: the α-β / exponential lines of
//!    Eq. 14/26/27 (plus the wire-byte and codec lines), each optional, and
//!    optional measured ready and tail times. `DistributedConfig` supplies
//!    the baselines, [`Calibrator::refit`](crate::calibrate::Calibrator::refit)
//!    a rank's measured lines, and the agreement below the rank-identical
//!    ones.
//! 2. **One function** — [`Planner::plan`]`(costs, prev)`, pure and
//!    rank-free: LBP and the Eq. 15 planner both break ties
//!    deterministically, so identical costs yield the identical
//!    [`PlanEpoch`] on every rank with no further coordination. Without
//!    ready times it cuts one message per factor; with them, Eq. 15 under
//!    the configured strategy, the `G` pass priced with the compute its
//!    buckets unblock.
//! 3. **One agreement** — at an inter-iteration barrier every rank encodes
//!    its local costs ([`Costs::encode`]), one *averaging* all-reduce —
//!    which doubles as the barrier — makes every rank see the same vector,
//!    and [`Costs::decode`] turns it back into a record: each line averaged
//!    over exactly the ranks that fitted it.
//! 4. **One install** — the trainer replaces its [`PlanEpoch`], rebuilds
//!    its iteration graphs, stamps the generation onto subsequent
//!    collectives (`WorkerComm::set_generation`, so the causal analyzer's
//!    k-th-collective matching stays sound per `(generation, seq)`) and
//!    publishes the plan gauges ([`Planner::publish`]). A segment's first
//!    measured plan is installed as generation 0; a due barrier goes
//!    through [`ReplanController::consider`] (hysteresis under
//!    [`ReplanPolicy::OnDrift`]) and bumps the generation when it swaps.
//!
//! **SPMD-safety argument.** A mid-iteration re-plan would change the
//! number and order of collectives on some ranks before others, deadlocking
//! the group. Here every input to an install is rank-identical: the barrier
//! entry condition and the layout of the agreement vector depend only on
//! the iteration number ([`ReplanController::due`], "first of the
//! segment"), the costs are agreed by all-reduce, the plan is a pure
//! function of the agreed costs, and the hysteresis counter advances in
//! lockstep because its input (plan-changed?) is rank-identical. Therefore
//! all ranks install (or don't) together, and the submission order stays
//! identical on every rank within each generation.

use crate::distributed::{Algorithm, DistributedConfig};
use crate::fusion::{self, FactorPipeline, FusionPlan, FusionStrategy};
use crate::iteration::LayerShape;
use crate::perf::{AlphaBetaModel, ExpInverseModel};
use crate::placement::{Placement, PlacementContext, PolicyHandle};
use spdkfac_collectives::WireFormat;
use spdkfac_obs::MetricsRegistry;
use spdkfac_tensor::sym::packed_len;

/// One versioned set of standing decisions: what the data plane is running.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEpoch {
    /// Eq. 15 fusion plan for the A-factor (forward-pass) pipeline, when
    /// the trainer pipelines factor communication (SPD).
    pub a_fusion: Option<FusionPlan>,
    /// Fusion plan for the G-factor (backward-pass) pipeline.
    pub g_fusion: Option<FusionPlan>,
    /// Algorithm 1 inverse placement.
    pub placement: Placement,
    /// Epoch version: 0 from [`Planner::plan`], bumped by every swap of
    /// [`ReplanController::consider`].
    pub generation: u64,
}

impl PlanEpoch {
    /// `true` when the standing decisions differ (generation is ignored —
    /// it versions the decisions, it is not one).
    pub fn plan_differs(&self, other: &PlanEpoch) -> bool {
        self.a_fusion != other.a_fusion
            || self.g_fusion != other.g_fusion
            || self.placement != other.placement
    }
}

/// Number of `f64`s the cost lines occupy in the agreement vector: five
/// lines × `(presence, α, β)`.
pub const MODEL_SLOTS: usize = 15;

/// What a plan is decided from. Every line is optional — a rank whose
/// calibrator could not fit one, or a run that measured nothing yet, leaves
/// it `None` — and [`Planner::plan`] prices absent lines with its baselines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Costs {
    /// All-reduce α-β line over elements (Eq. 14; fusion planning).
    pub allreduce: Option<AlphaBetaModel>,
    /// Broadcast α-β line over elements (Eq. 27; NCT test / placement).
    pub broadcast: Option<AlphaBetaModel>,
    /// Exponential inversion model over tensor dimensions (Eq. 26).
    pub inverse: Option<ExpInverseModel>,
    /// All-reduce α-β line over post-encoding *wire bytes* (β in s/byte).
    /// No baseline: absent on a cold start, or when spans carry no wire
    /// meta.
    pub allreduce_wire: Option<AlphaBetaModel>,
    /// Wire-codec α-β line over elements (encode+decode CPU s/element). No
    /// baseline: absent under the f64 pass-through, whose codec is free.
    pub encode: Option<AlphaBetaModel>,
    /// Seconds into its pass at which each factor's statistic was taken, in
    /// pipeline order: the `A` statistics front to back, then the `G`
    /// statistics back to front. Absent until an iteration has been timed.
    pub ready: Option<Vec<f64>>,
    /// Seconds of compute each factor's landing unblocks, in the pipeline
    /// order of `ready`: an `A` factor's inversion; a `G` factor's
    /// inversion plus its layer's preconditioning. Read only beside `ready`;
    /// absent means zero.
    pub tail: Option<Vec<f64>>,
}

impl Costs {
    /// Flattens the record into an agreement vector. With `models`, the
    /// five lines come first, each as `[has, α·has, β·has]`: a rank lacking
    /// a fit contributes zeros, so after an *averaging* all-reduce the mean
    /// of a coefficient over the ranks that do have one is
    /// `avg(α·has) / avg(has)` — see [`Costs::decode`]. The ready times, if
    /// any, follow, and then as many tail times (zeros when absent).
    /// `models` and the presence of ready times decide the layout, so both
    /// must be rank-identical.
    pub fn encode(&self, models: bool) -> Vec<f64> {
        let mut v = Vec::new();
        if models {
            let inverse = self.inverse.map(|m| AlphaBetaModel::new(m.alpha, m.beta));
            let lines = [
                self.allreduce,
                self.broadcast,
                inverse,
                self.allreduce_wire,
                self.encode,
            ];
            for line in lines {
                v.extend(line.map_or([0.0; 3], |m| [1.0, m.alpha, m.beta]));
            }
        }
        if let Some(ready) = &self.ready {
            v.extend(ready);
            match &self.tail {
                Some(tail) => v.extend(tail),
                None => v.resize(v.len() + ready.len(), 0.0),
            }
        }
        v
    }

    /// Reconstructs the record from the *averaged* agreement vector of
    /// [`Costs::encode`]`(models)`. A line no rank fitted decodes to `None`
    /// — not to a zero-coefficient model that would predict free
    /// communication; [`Costs::or`] then puts a baseline behind it. Timings
    /// that are not finite times ≥ 0 (or do not split into ready and tail
    /// halves) decode to `None`: the cold start's one message per factor.
    ///
    /// # Panics
    ///
    /// Panics if `models` is set and `avg` is shorter than [`MODEL_SLOTS`].
    pub fn decode(avg: &[f64], models: bool) -> Costs {
        let (slots, timings) = if models {
            assert!(avg.len() >= MODEL_SLOTS, "short agreement vector");
            avg.split_at(MODEL_SLOTS)
        } else {
            avg.split_at(0)
        };
        let line = |i: usize| {
            let s = slots.get(3 * i..3 * i + 3)?;
            (s[0] > 0.0).then(|| AlphaBetaModel::new(s[1] / s[0], s[2] / s[0]))
        };
        let valid = !timings.is_empty()
            && timings.len().is_multiple_of(2)
            && timings.iter().all(|t| t.is_finite() && *t >= 0.0);
        let (ready, tail) = timings.split_at(timings.len() / 2);
        Costs {
            allreduce: line(0),
            broadcast: line(1),
            inverse: line(2).map(|m| ExpInverseModel::new(m.alpha, m.beta)),
            allreduce_wire: line(3),
            encode: line(4),
            ready: valid.then(|| ready.to_vec()),
            tail: valid.then(|| tail.to_vec()),
        }
    }

    /// `self`, with every absent entry taken from `fallback`. Ready and
    /// tail times are taken together.
    pub fn or(&self, fallback: &Costs) -> Costs {
        let timed = if self.ready.is_some() { self } else { fallback };
        Costs {
            allreduce: self.allreduce.or(fallback.allreduce),
            broadcast: self.broadcast.or(fallback.broadcast),
            inverse: self.inverse.or(fallback.inverse),
            allreduce_wire: self.allreduce_wire.or(fallback.allreduce_wire),
            encode: self.encode.or(fallback.encode),
            ready: timed.ready.clone(),
            tail: timed.tail.clone(),
        }
    }

    /// The per-element all-reduce line for a wire format moving
    /// `bytes_per_elem` bytes per `f64`: `β_elem = β_byte · bytes_per_elem +
    /// β_encode`, α terms summed (a missing codec line costs nothing). The
    /// plain per-element fit would bake the current format's compression
    /// ratio into β. Without a wire-byte line it is the plain line as is,
    /// so f64 runs and cold starts plan exactly as before.
    pub fn effective_allreduce(&self, bytes_per_elem: f64) -> Option<AlphaBetaModel> {
        let Some(wire) = self.allreduce_wire else {
            return self.allreduce;
        };
        let codec = self.encode.unwrap_or(AlphaBetaModel::new(0.0, 0.0));
        Some(AlphaBetaModel::new(
            wire.alpha + codec.alpha,
            wire.beta * bytes_per_elem + codec.beta,
        ))
    }
}

/// Clamps a measured time series to be non-decreasing (averaging across
/// ranks can introduce tiny inversions).
fn monotonize(ts: &[f64]) -> Vec<f64> {
    let mut cur = f64::NEG_INFINITY;
    ts.iter()
        .map(|&t| {
            cur = cur.max(t);
            cur
        })
        .collect()
}

/// Everything about a segment that planning needs and that does not change
/// while it runs: the strategies and baseline models, the model's factor
/// dimensions and gradient lengths, and the cluster's shape. Built once per
/// segment by the trainer, and once per simulated iteration by the
/// simulator.
#[derive(Debug)]
pub struct Planner {
    baselines: Costs,
    inv_dims: Vec<usize>,
    /// Per `G`-pass position: the gradient elements sent right behind it.
    trailing: Vec<usize>,
    world: usize,
    gpus_per_node: usize,
    placement: PolicyHandle,
    /// How both factor passes are cut, when factor communication is
    /// pipelined behind them (SPD-KFAC).
    fusion: Option<FusionStrategy>,
    bytes_per_elem: f64,
    grad_bytes_per_elem: f64,
}

impl Planner {
    /// A planner for `cfg` on a model whose preconditionable layers have
    /// the `(a_dim, g_dim)` factor dimensions `dims`, across `world` ranks
    /// of a flat cluster. It prices no gradient messages until
    /// [`Planner::with_layers`].
    pub fn new(cfg: &DistributedConfig, dims: &[(usize, usize)], world: usize) -> Self {
        let baselines = Costs {
            allreduce: Some(cfg.comm_model),
            broadcast: Some(cfg.comm_model),
            inverse: Some(cfg.comp_model),
            ..Costs::default()
        };
        let inv_dims = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
        let pipelined = cfg.algorithm == Algorithm::SpdKfac && !dims.is_empty();
        let (placement, fusion) = (cfg.effective_placement(), pipelined.then_some(cfg.fusion));
        Planner {
            bytes_per_elem: cfg.wire.factor.bytes_per_elem(),
            grad_bytes_per_elem: cfg.wire.grad.bytes_per_elem(),
            ..Planner::from_parts(baselines, inv_dims, world, 1, placement.into(), fusion)
        }
    }

    /// A planner over tensors of dimensions `inv_dims` (`A_l`, `G_l`
    /// interleaved), across `world` ranks in islands of `gpus_per_node`: it
    /// places their inversions with `placement` and, given a `fusion`
    /// strategy, cuts both factor passes with it. Absent cost lines are
    /// priced with `baselines`, all-reduces on the f64 wire. It prices no
    /// gradient messages until [`Planner::with_layers`].
    pub fn from_parts(
        baselines: Costs,
        inv_dims: Vec<usize>,
        world: usize,
        gpus_per_node: usize,
        placement: PolicyHandle,
        fusion: Option<FusionStrategy>,
    ) -> Self {
        let f64_wire = WireFormat::F64.bytes_per_elem();
        Planner {
            baselines,
            trailing: vec![0; inv_dims.len() / 2],
            inv_dims,
            world,
            gpus_per_node,
            placement,
            fusion,
            bytes_per_elem: f64_wire,
            grad_bytes_per_elem: f64_wire,
        }
    }

    /// The planner, told the model's `layers` (front to back): the `G` pass
    /// then prices the gradient message that `GradCut::CapAndGBuckets`
    /// sends behind each of its buckets — a factor layer's gradients and
    /// those of the factor-less layers behind it, the layers in front of
    /// the first factor layer going with the last message.
    ///
    /// # Panics
    ///
    /// Panics unless `layers` take statistics for the planner's factors
    /// (when it plans fusion at all).
    pub fn with_layers(mut self, layers: &[LayerShape]) -> Self {
        if self.fusion.is_none() {
            return self;
        }
        let (mut trailing, mut open) = (Vec::new(), 0);
        for layer in layers.iter().rev() {
            open += layer.grad_elems;
            if layer.factor.is_some() {
                trailing.push(std::mem::take(&mut open));
            }
        }
        if let Some(last) = trailing.last_mut() {
            *last += open;
        }
        assert_eq!(
            trailing.len(),
            self.trailing.len(),
            "one layer per factor pair"
        );
        self.trailing = trailing;
        self
    }

    /// Dimension of every tensor (`A_l`, `G_l` interleaved).
    pub fn inv_dims(&self) -> &[usize] {
        &self.inv_dims
    }

    /// The `(inversion, broadcast, factor all-reduce, gradient all-reduce)`
    /// lines `costs` stands for: absent lines fall back to the baselines,
    /// and each all-reduce is priced for its wire format.
    fn lines(
        &self,
        costs: &Costs,
    ) -> (
        ExpInverseModel,
        AlphaBetaModel,
        AlphaBetaModel,
        AlphaBetaModel,
    ) {
        let priced = costs.or(&self.baselines);
        let baselined = "the baselines price every line";
        let allreduce = |bytes| priced.effective_allreduce(bytes).expect(baselined);
        (
            priced.inverse.expect(baselined),
            priced.broadcast.expect(baselined),
            allreduce(self.bytes_per_elem),
            allreduce(self.grad_bytes_per_elem),
        )
    }

    /// The `[A, G]` pipelines `costs` times, `None` while it holds no ready
    /// times. The `A` pass has no tails. The `G` pass's tails run once the
    /// pass is through and the `A` inversions queued ahead of them are
    /// done, and its gradient messages are expressed in elements of the
    /// factor line `allreduce` (the gradient line `grads` may move other
    /// bytes per element).
    fn pipelines(
        &self,
        costs: &Costs,
        allreduce: &AlphaBetaModel,
        grads: &AlphaBetaModel,
    ) -> Option<[FactorPipeline; 2]> {
        let ready = costs.ready.as_deref()?;
        let layers = self.trailing.len();
        assert_eq!(ready.len(), 2 * layers, "one ready time per factor");
        let none = vec![0.0; 2 * layers];
        let tail = costs.tail.as_deref().unwrap_or(&none);
        assert_eq!(tail.len(), 2 * layers, "one tail per factor");
        let ((a_ready, g_ready), (a_tail, g_tail)) =
            (ready.split_at(layers), tail.split_at(layers));
        // Packed factor sizes in pipeline order: A front to back (forward
        // pass), G back to front (backward pass).
        let packed = |d: &usize| packed_len(*d);
        let a_sizes = self.inv_dims.iter().step_by(2).map(packed).collect();
        let g_sizes = self.inv_dims.iter().skip(1).step_by(2).rev();
        let g_sizes = g_sizes.map(packed).collect();
        let g_ready = monotonize(g_ready);
        let free_at = g_ready.last().copied().unwrap_or(0.0) + a_tail.iter().sum::<f64>();
        let scale = if allreduce.beta > 0.0 {
            grads.beta / allreduce.beta
        } else {
            1.0
        };
        let trailing = self.trailing.iter();
        let trailing = trailing.map(|&n| (n as f64 * scale).round() as usize);
        let times = "finite times ≥ 0, one per factor";
        Some([
            FactorPipeline::new(monotonize(a_ready), a_sizes).expect(times),
            FactorPipeline::new(g_ready, g_sizes)
                .and_then(|g| g.with_tail(g_tail.to_vec(), trailing.collect(), free_at))
                .expect(times),
        ])
    }

    /// The standing decisions `costs` imply, as generation 0.
    ///
    /// Pure and rank-free. The placement is the configured policy's over
    /// the 2L tensors; `prev` is the standing placement (identical on every
    /// rank — it is part of the agreed epoch): with it, LBP charges a
    /// broadcast-priced migration cost before moving tensor ownership, so
    /// marginal refits keep assignments sticky. SPD-KFAC, which pipelines
    /// factor communication behind the passes, also gets a fusion plan per
    /// pass: one message per factor while
    /// `costs` holds no ready times, Eq. 15 under the configured strategy
    /// once it does — the `G` pass scored by when its last tail is done.
    ///
    /// # Panics
    ///
    /// Panics unless `costs.ready` (and `costs.tail`, if present) hold one
    /// finite time ≥ 0 per factor.
    pub fn plan(&self, costs: &Costs, prev: Option<&Placement>) -> PlanEpoch {
        let (inverse, broadcast, allreduce, grads) = self.lines(costs);
        let ctx = PlacementContext::new(&self.inv_dims, self.world, &inverse, &broadcast)
            .with_prev(prev.map(Placement::assignments))
            .with_gpus_per_node(self.gpus_per_node);
        let fusion = self.fusion.map(|strategy| {
            let layers = self.trailing.len();
            match self.pipelines(costs, &allreduce, &grads) {
                Some(pipes) => pipes.map(|pipe| fusion::plan(&pipe, &allreduce, strategy)),
                None => [(); 2].map(|()| FusionPlan::one_each(layers)),
            }
        });
        let [a_fusion, g_fusion] = fusion.map_or([None, None], |f| f.map(Some));
        PlanEpoch {
            a_fusion,
            g_fusion,
            placement: self.placement.place(&ctx),
            generation: 0,
        }
    }

    /// Publishes the plan gauges for an installed `plan`, priced with the
    /// `costs` that made it:
    ///
    /// - `placement/{nct,ct}` — the load balancer's verdict;
    /// - `placement/gpu{g}/load` — the modelled per-GPU load it balanced
    ///   (Eq. 21);
    /// - `fusion/{a,g}/{factors,messages,merges}` — the tensor-fusion
    ///   verdict (Eq. 15): how many factors each pass fused into how many
    ///   messages;
    /// - `fusion/g/exposed_tail_s` — what the `G` plan leaves after its
    ///   last byte: the modelled end of its tails minus the end of its
    ///   link (when `costs` times the passes).
    pub fn publish(&self, m: &MetricsRegistry, plan: &PlanEpoch, costs: &Costs) {
        let (inverse, broadcast, allreduce, grads) = self.lines(costs);
        let pipes = self.pipelines(costs, &allreduce, &grads);
        if let (Some([_, pipe]), Some(g)) = (pipes, &plan.g_fusion) {
            let out = fusion::simulate(&pipe, g, &allreduce);
            m.gauge("fusion/g/exposed_tail_s")
                .set(out.tail_end - out.link_end);
        }
        let ncts = plan.placement.num_nct();
        m.gauge("placement/nct").set(ncts as f64);
        m.gauge("placement/ct")
            .set((self.inv_dims.len() - ncts) as f64);
        let loads = plan
            .placement
            .per_gpu_load(&self.inv_dims, &inverse, &broadcast);
        for (g, load) in loads.iter().enumerate() {
            m.gauge(&format!("placement/gpu{g}/load")).set(*load);
        }
        let factors = self.inv_dims.len() / 2;
        for (pass, fusion) in [("a", &plan.a_fusion), ("g", &plan.g_fusion)] {
            if let Some(f) = fusion {
                m.gauge(&format!("fusion/{pass}/factors"))
                    .set(factors as f64);
                m.gauge(&format!("fusion/{pass}/messages"))
                    .set(f.num_messages() as f64);
                m.gauge(&format!("fusion/{pass}/merges"))
                    .set((factors - f.num_messages()) as f64);
            }
        }
    }
}

/// When (and how eagerly) the runtime re-plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanPolicy {
    /// Never re-plan: the seed static-plan behavior.
    #[default]
    Off,
    /// Enter the barrier every `check_every` iterations, but swap only
    /// after the candidate plan has differed from the active one in
    /// `hysteresis` *consecutive* checks — transient drift (one noisy
    /// window) never churns the plan. `hysteresis: 1` swaps whenever the
    /// agreed models produce a different plan.
    OnDrift {
        /// Barrier cadence in iterations.
        check_every: usize,
        /// Consecutive differing checks required before a swap (≥ 1).
        hysteresis: usize,
    },
}

impl ReplanPolicy {
    /// Barrier cadence: `Some(n)` when the policy enters the re-plan
    /// barrier every `n` iterations.
    pub fn cadence(&self) -> Option<usize> {
        match self {
            ReplanPolicy::Off => None,
            ReplanPolicy::OnDrift { check_every, .. } => Some((*check_every).max(1)),
        }
    }
}

/// Outcome of one re-plan barrier, for logging and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanOutcome {
    /// `true` when the epoch was swapped.
    pub swapped: bool,
    /// The generation active after the barrier.
    pub generation: u64,
    /// Tensors whose placement assignment changed (0 when not swapped).
    pub placement_flips: usize,
    /// `true` when a fusion plan changed message grouping.
    pub fusion_changed: bool,
}

/// Per-rank re-plan state machine: barrier cadence + swap hysteresis.
///
/// All inputs to its decisions are rank-identical (module docs), so every
/// rank's controller advances in lockstep.
#[derive(Debug, Clone)]
pub struct ReplanController {
    policy: ReplanPolicy,
    pending: usize,
}

impl ReplanController {
    /// Creates a controller for `policy`.
    pub fn new(policy: ReplanPolicy) -> Self {
        ReplanController { policy, pending: 0 }
    }

    /// `true` when ranks must enter the re-plan barrier after (0-based)
    /// iteration `iter`. Deterministic in `iter` alone — the SPMD-safe
    /// entry condition.
    pub fn due(&self, iter: usize) -> bool {
        match self.policy.cadence() {
            Some(n) => (iter + 1).is_multiple_of(n),
            None => false,
        }
    }

    /// Applies the policy to a `candidate` plan and, when the policy says
    /// so, replaces `current` with it under the next generation. Call on
    /// every rank with rank-identical inputs, inside the barrier.
    ///
    /// A candidate that reproduces the current plan is a fixed point: no
    /// swap, no generation bump, and the hysteresis counter resets.
    pub fn consider(&mut self, current: &mut PlanEpoch, candidate: PlanEpoch) -> ReplanOutcome {
        let need = match self.policy {
            ReplanPolicy::OnDrift { hysteresis, .. } => hysteresis.max(1),
            _ => 1,
        };
        self.pending = if current.plan_differs(&candidate) {
            self.pending + 1
        } else {
            0
        };
        let mut outcome = ReplanOutcome {
            swapped: self.pending >= need,
            generation: current.generation,
            placement_flips: 0,
            fusion_changed: false,
        };
        if outcome.swapped {
            self.pending = 0;
            outcome.generation += 1;
            outcome.placement_flips =
                count_placement_flips(&current.placement, &candidate.placement);
            outcome.fusion_changed =
                current.a_fusion != candidate.a_fusion || current.g_fusion != candidate.g_fusion;
            *current = PlanEpoch {
                generation: outcome.generation,
                ..candidate
            };
        }
        outcome
    }
}

/// Number of tensors whose assignment differs between two placements (the
/// "flips applied" a swap actuates). Placements of different lengths or
/// world sizes count every tensor as flipped.
pub fn count_placement_flips(old: &Placement, new: &Placement) -> usize {
    if old.world() != new.world() || old.assignments().len() != new.assignments().len() {
        return new.assignments().len().max(old.assignments().len());
    }
    old.assignments()
        .iter()
        .zip(new.assignments())
        .filter(|(a, b)| a != b)
        .count()
}

/// Publishes `runtime/*` metrics for one barrier outcome:
///
/// - `runtime/generation` — gauge, the active generation;
/// - `runtime/checks` — counter, barriers entered;
/// - `runtime/swaps` — counter, epochs swapped;
/// - `runtime/flips_applied` — counter, placement assignments changed by
///   swaps;
/// - `runtime/fusion_replans` — counter, swaps that changed a fusion plan;
/// - `runtime/swap_latency_s` — histogram, wall time of the whole barrier
///   (refit + agreement all-reduce + re-plan + swap).
pub fn publish_replan_metrics(m: &MetricsRegistry, outcome: &ReplanOutcome, latency_s: f64) {
    m.gauge("runtime/generation").set(outcome.generation as f64);
    m.counter("runtime/checks").inc();
    if outcome.swapped {
        m.counter("runtime/swaps").inc();
        m.counter("runtime/flips_applied")
            .add(outcome.placement_flips as u64);
        if outcome.fusion_changed {
            m.counter("runtime/fusion_replans").inc();
        }
    }
    m.histogram("runtime/swap_latency_s").observe(latency_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{LbpWeight, PlacementStrategy};

    fn comm() -> AlphaBetaModel {
        AlphaBetaModel::new(2e-4, 2e-9)
    }

    fn comp() -> ExpInverseModel {
        ExpInverseModel::new(5e-5, 2e-3)
    }

    fn baselines() -> Costs {
        Costs {
            allreduce: Some(comm()),
            broadcast: Some(comm()),
            inverse: Some(comp()),
            ..Costs::default()
        }
    }

    /// An SPD-KFAC planner over tensors of dimensions `inv_dims` (`A_l`,
    /// `G_l` interleaved) with the baselines above.
    fn planner(inv_dims: &[usize], world: usize) -> Planner {
        let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
        cfg.comp_model = comp();
        cfg.comm_model = comm();
        cfg.placement = Some(PlacementStrategy::Lbp {
            weight: LbpWeight::DimSquared,
        });
        let dims: Vec<(usize, usize)> = inv_dims.chunks(2).map(|c| (c[0], c[1])).collect();
        Planner::new(&cfg, &dims, world)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let costs = Costs {
            allreduce: Some(AlphaBetaModel::new(1e-3, 5e-8)),
            broadcast: Some(AlphaBetaModel::new(2e-3, 7e-8)),
            inverse: Some(ExpInverseModel::new(3e-4, 1.5e-3)),
            allreduce_wire: Some(AlphaBetaModel::new(9e-4, 6e-9)),
            encode: Some(AlphaBetaModel::new(1e-6, 1.2e-9)),
            ready: None,
            tail: None,
        };
        let v = costs.encode(true);
        assert_eq!(v.len(), MODEL_SLOTS);
        let agreed = Costs::decode(&v, true);
        assert!((agreed.allreduce.expect("line").alpha - 1e-3).abs() < 1e-15);
        assert!((agreed.broadcast.expect("line").beta - 7e-8).abs() < 1e-20);
        assert!((agreed.inverse.expect("line").alpha - 3e-4).abs() < 1e-15);
        let wire = agreed.allreduce_wire.expect("wire line agreed");
        assert!((wire.beta - 6e-9).abs() < 1e-20);
        let enc = agreed.encode.expect("codec line agreed");
        assert!((enc.beta - 1.2e-9).abs() < 1e-20);
        // Ready and tail times ride behind the lines, or alone.
        let timed = Costs {
            ready: Some(vec![0.0, 0.5, 0.25, 0.75]),
            tail: Some(vec![1e-3, 2e-3, 3e-3, 4e-3]),
            ..costs.clone()
        };
        assert_eq!(Costs::decode(&timed.encode(true), true), timed);
        let alone = timed.encode(false);
        assert_eq!(alone, [0.0, 0.5, 0.25, 0.75, 1e-3, 2e-3, 3e-3, 4e-3]);
        let agreed = Costs::decode(&alone, false);
        assert_eq!((&agreed.ready, &agreed.tail), (&timed.ready, &timed.tail));
        // Untimed tails travel as zeros: the layout is 2 × the ready times.
        let untimed = Costs {
            tail: None,
            ..timed.clone()
        };
        assert_eq!(untimed.encode(false)[4..], [0.0; 4]);
        assert!(Costs::default().encode(false).is_empty());
    }

    #[test]
    fn timings_that_are_not_finite_or_negative_decode_to_a_cold_start() {
        let timed = Costs {
            ready: Some(vec![0.0, 0.5, 0.25, 0.75]),
            tail: Some(vec![1e-3; 4]),
            ..Costs::default()
        };
        let planner = planner(&[64, 256, 1024, 2048], 2);
        let cold = planner.plan(&Costs::default(), None);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            for at in [1, 6] {
                let mut v = timed.encode(true);
                v[MODEL_SLOTS + at] = bad;
                let agreed = Costs::decode(&v, true);
                assert_eq!(
                    (&agreed.ready, &agreed.tail),
                    (&None, &None),
                    "{bad} at {at}"
                );
                // One message per factor, exactly as before anything was timed.
                assert_eq!(planner.plan(&agreed, None), cold);
            }
        }
        // A timing block that does not split into ready and tail halves.
        assert_eq!(Costs::decode(&[0.0, 0.5, 0.25], false).ready, None);
    }

    #[test]
    fn the_g_pass_prices_tails_and_the_gradients_behind_its_buckets() {
        use crate::iteration::LayerShape;
        // `deep_mlp(32, 256, 4, 10)` at 2 B/element on 0.2 Gbit/s.
        let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
        cfg.comm_model = AlphaBetaModel::new(1e-4, 8e-8);
        let widths = [32, 256, 256, 256, 256, 10];
        let linear = |w: &[usize]| LayerShape {
            grad_elems: w[0] * w[1] + w[1],
            factor: Some((w[0] + 1, w[1])),
        };
        let relu = LayerShape {
            grad_elems: 0,
            factor: None,
        };
        let mut layers = Vec::new();
        for w in widths.windows(2) {
            layers.extend([linear(w), relu]);
        }
        layers.pop();
        let dims: Vec<(usize, usize)> = layers.iter().filter_map(|l| l.factor).collect();
        let bare = Planner::new(&cfg, &dims, 2);
        let planner = Planner::new(&cfg, &dims, 2).with_layers(&layers);
        assert_eq!(planner.trailing, [2570, 65792, 65792, 65792, 8448]);
        // Ready times in the pass, an inversion per `A`, inversion plus
        // preconditioning per `G`.
        let a = [0.2e-3, 0.5e-3, 0.8e-3, 1.1e-3, 1.4e-3];
        let g = [0.10e-3, 0.45e-3, 0.85e-3, 1.30e-3, 1.74e-3];
        let costs = Costs {
            ready: Some([a, g].concat()),
            tail: Some([[0.6e-3; 5], [0.05e-3, 1.5e-3, 1.5e-3, 1.5e-3, 0.7e-3]].concat()),
            ..Costs::default()
        };
        // Blind to tails and gradients, the last bucket carries three wide
        // layers.
        let blind = Costs {
            tail: None,
            ..costs.clone()
        };
        let eq15 = bare.plan(&blind, None);
        let g_plan = eq15.g_fusion.as_ref().expect("SPD pipelines");
        assert_eq!(g_plan.buckets(), &[vec![0], vec![1], vec![2, 3, 4]]);
        let seen = planner.plan(&costs, None);
        let g_plan = seen.g_fusion.as_ref().expect("SPD pipelines");
        assert!(
            g_plan.buckets().last().expect("a bucket").len() < 3,
            "{g_plan:?}"
        );
        // The `A` pass has no tails: its plan is the blind one.
        assert_eq!(seen.a_fusion, eq15.a_fusion);
        // The gauge reads what the installed plan leaves after its last byte.
        let m = MetricsRegistry::new();
        planner.publish(&m, &seen, &costs);
        let exposed = m.snapshot().gauges["fusion/g/exposed_tail_s"];
        assert!((0.0..1.5e-3).contains(&exposed), "{exposed}");
        planner.publish(&m, &eq15, &costs);
        let exposed = m.snapshot().gauges["fusion/g/exposed_tail_s"];
        assert!((exposed - 3.7e-3).abs() < 1e-9, "{exposed}");
    }

    #[test]
    fn effective_allreduce_composes_wire_and_codec() {
        let mut agreed = baselines();
        // Without a wire fit the plain per-element line is returned as-is.
        assert_eq!(agreed.effective_allreduce(2.0), agreed.allreduce);
        agreed.allreduce_wire = Some(AlphaBetaModel::new(1e-4, 3e-9));
        agreed.encode = Some(AlphaBetaModel::new(2e-5, 1e-9));
        // f16 (2 B/element): β_elem = 3e-9·2 + 1e-9, α terms summed.
        let eff = agreed.effective_allreduce(2.0).expect("line");
        assert!((eff.alpha - 1.2e-4).abs() < 1e-15);
        assert!((eff.beta - 7e-9).abs() < 1e-20);
        // Codec-free wire fit still composes.
        agreed.encode = None;
        let eff = agreed.effective_allreduce(8.0).expect("line");
        assert!((eff.beta - 24e-9).abs() < 1e-20);
    }

    #[test]
    fn wireless_ranks_decode_to_no_wire_line() {
        // No rank fit wire/codec lines: agreement must decode them to None,
        // not to a zero-coefficient model that would predict free comm.
        let v = Costs {
            allreduce: Some(AlphaBetaModel::new(1e-3, 5e-8)),
            ..Costs::default()
        }
        .encode(true);
        let agreed = Costs::decode(&v, true).or(&baselines());
        assert!(agreed.allreduce_wire.is_none());
        assert!(agreed.encode.is_none());
    }

    #[test]
    fn decode_averages_only_over_fitted_ranks() {
        // Rank A fit (α=2e-3), ranks B,C did not: the averaged vector is
        // the element-wise mean; decode must recover rank A's α exactly.
        let fitted = Costs {
            allreduce: Some(AlphaBetaModel::new(2e-3, 4e-8)),
            ..Costs::default()
        };
        let unfitted = Costs::default();
        let vecs = [
            fitted.encode(true),
            unfitted.encode(true),
            unfitted.encode(true),
        ];
        let mut avg = [0.0f64; MODEL_SLOTS];
        for v in &vecs {
            for (a, x) in avg.iter_mut().zip(v) {
                *a += x / vecs.len() as f64;
            }
        }
        let agreed = Costs::decode(&avg, true);
        let allreduce = agreed.allreduce.expect("one rank fitted it");
        assert!((allreduce.alpha - 2e-3).abs() < 1e-12);
        assert!((allreduce.beta - 4e-8).abs() < 1e-18);
        // No rank fit broadcast/inverse: baselines stand in.
        assert_eq!((agreed.broadcast, agreed.inverse), (None, None));
        let agreed = agreed.or(&baselines());
        assert_eq!(agreed.broadcast, Some(comm()));
        assert_eq!(agreed.inverse, Some(comp()));
    }

    #[test]
    #[should_panic(expected = "short agreement vector")]
    fn decode_rejects_a_short_vector() {
        Costs::decode(&[1.0; MODEL_SLOTS - 1], true);
    }

    #[test]
    fn replan_from_identical_models_is_fixed_point() {
        let planner = planner(&[64, 256, 1024, 2048, 32, 512], 4);
        let agreed = baselines();
        let p0 = planner.plan(&agreed, None);
        let mut epoch = p0.clone();
        let mut ctl = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 1,
            hysteresis: 1,
        });
        for _ in 0..5 {
            let out = ctl.consider(&mut epoch, planner.plan(&agreed, None));
            assert!(!out.swapped, "identical models must not churn the plan");
            assert_eq!(out.generation, 0);
        }
        assert_eq!(epoch, p0);
    }

    /// Inversion ~1e6x slower than the baselines believe.
    fn drifted() -> Costs {
        Costs {
            inverse: Some(ExpInverseModel::new(comp().alpha * 1e6, comp().beta)),
            ..baselines()
        }
    }

    #[test]
    fn drifted_models_swap_and_bump_generation() {
        let planner = planner(&[64, 256, 1024, 2048, 32, 512], 4);
        let mut epoch = planner.plan(&baselines(), None);
        let mut ctl = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 1,
            hysteresis: 1,
        });
        // NCTs flip to CT, the placement changes.
        let candidate = planner.plan(&drifted(), None);
        let out = ctl.consider(&mut epoch, candidate.clone());
        assert!(out.swapped);
        assert_eq!(out.generation, 1);
        assert!(out.placement_flips > 0);
        assert_eq!(epoch.generation, 1);
        assert!(!epoch.plan_differs(&candidate));
    }

    #[test]
    fn hysteresis_defers_swap_until_consecutive_flags() {
        let planner = planner(&[64, 2048], 2);
        let mut epoch = planner.plan(&baselines(), None);
        let mut ctl = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 1,
            hysteresis: 3,
        });
        for round in 0..2 {
            let out = ctl.consider(&mut epoch, planner.plan(&drifted(), None));
            assert!(!out.swapped, "round {round} swapped before hysteresis");
        }
        // A clean check in between resets the streak.
        let clean = planner.plan(&baselines(), None);
        assert!(!ctl.consider(&mut epoch, clean).swapped);
        for round in 0..3 {
            let out = ctl.consider(&mut epoch, planner.plan(&drifted(), None));
            assert_eq!(out.swapped, round == 2, "round {round}");
        }
        assert_eq!(epoch.generation, 1);
    }

    #[test]
    fn due_follows_policy_cadence() {
        assert!(!ReplanController::new(ReplanPolicy::Off).due(0));
        assert!(!ReplanController::new(ReplanPolicy::Off).due(99));
        let every3 = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 3,
            hysteresis: 1,
        });
        assert!(!every3.due(0));
        assert!(!every3.due(1));
        assert!(every3.due(2));
        assert!(every3.due(5));
        let drift = ReplanController::new(ReplanPolicy::OnDrift {
            check_every: 2,
            hysteresis: 2,
        });
        assert!(!drift.due(0));
        assert!(drift.due(1));
        assert!(drift.due(3));
    }

    #[test]
    fn plan_gauges_describe_the_plan_and_the_costs_given() {
        let planner = planner(&[64, 2048], 2);
        let m = MetricsRegistry::new();
        let costs = Costs {
            ready: Some(vec![0.0, 0.0]),
            ..Costs::default()
        };
        let plan = planner.plan(&costs, None);
        planner.publish(&m, &plan, &costs);
        let snap = m.snapshot();
        assert_eq!(snap.gauges["placement/nct"], 2.0);
        assert_eq!(snap.gauges["placement/ct"], 0.0);
        assert_eq!(snap.gauges["fusion/a/factors"], 1.0);
        assert_eq!(snap.gauges["fusion/g/messages"], 1.0);
        assert_eq!(snap.gauges["fusion/g/merges"], 0.0);
        // Everything CT under the drifted costs, and the loads priced with
        // them, not with the baselines.
        let plan = planner.plan(&drifted(), None);
        planner.publish(&m, &plan, &drifted());
        let snap = m.snapshot();
        assert_eq!(snap.gauges["placement/nct"], 0.0);
        assert_eq!(snap.gauges["placement/ct"], 2.0);
        let loads = snap.gauges["placement/gpu0/load"] + snap.gauges["placement/gpu1/load"];
        let inverse = drifted().inverse.expect("line");
        let modelled: f64 = [64, 2048]
            .iter()
            .map(|&d| inverse.time(d) + comm().time_packed(d))
            .sum();
        assert!((loads - modelled).abs() <= 1e-9 * modelled);
    }

    #[test]
    fn metrics_published_per_outcome() {
        let m = MetricsRegistry::new();
        let swap = ReplanOutcome {
            swapped: true,
            generation: 2,
            placement_flips: 3,
            fusion_changed: true,
        };
        publish_replan_metrics(&m, &swap, 0.25e-3);
        let noop = ReplanOutcome {
            swapped: false,
            generation: 2,
            placement_flips: 0,
            fusion_changed: false,
        };
        publish_replan_metrics(&m, &noop, 0.1e-3);
        let snap = m.snapshot();
        assert_eq!(snap.gauges["runtime/generation"], 2.0);
        assert_eq!(snap.counters["runtime/checks"], 2);
        assert_eq!(snap.counters["runtime/swaps"], 1);
        assert_eq!(snap.counters["runtime/flips_applied"], 3);
        assert_eq!(snap.counters["runtime/fusion_replans"], 1);
        assert_eq!(snap.histograms["runtime/swap_latency_s"].count, 2);
    }
}
