//! Load-balancing placement of matrix-inversion workloads (§IV-B,
//! Algorithm 1) and the baselines of Fig. 12.
//!
//! Given the `2L` damped Kronecker factors of a model, every GPU must end up
//! with every inverse. A tensor is either:
//!
//! - **CT** (communicated tensor): inverted on exactly one GPU and broadcast
//!   to the rest; or
//! - **NCT** (non-communicated tensor): inverted redundantly on *every* GPU
//!   (cheaper than broadcasting when the tensor is small — Fig. 11).
//!
//! Algorithm 1 (LBP) walks the tensors in decreasing dimension, classifies
//! each as NCT iff its modelled compute time is below its modelled broadcast
//! time, and assigns CTs to the currently least-loaded GPU.

use std::fmt;
use std::sync::Arc;

use crate::perf::{AlphaBetaModel, ExpInverseModel};

/// Where a tensor's inversion runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorAssignment {
    /// NCT: inverted on every GPU, never communicated (Eq. 18).
    AllGpus,
    /// CT: inverted on the given GPU and broadcast to the others.
    Gpu(usize),
}

/// A placement of `N` tensors across `world` GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignments: Vec<TensorAssignment>,
    world: usize,
}

impl Placement {
    /// Creates a placement after validating GPU indices.
    ///
    /// # Panics
    ///
    /// Panics if any CT assignment names a GPU `>= world` or `world == 0`.
    pub fn new(assignments: Vec<TensorAssignment>, world: usize) -> Self {
        assert!(world > 0, "Placement requires at least one GPU");
        for a in &assignments {
            if let TensorAssignment::Gpu(p) = a {
                assert!(*p < world, "assignment to GPU {p} out of range {world}");
            }
        }
        Placement { assignments, world }
    }

    /// Number of GPUs.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Per-tensor assignments in tensor order.
    pub fn assignments(&self) -> &[TensorAssignment] {
        &self.assignments
    }

    /// `true` if tensor `i` is an NCT.
    pub fn is_nct(&self, i: usize) -> bool {
        matches!(self.assignments[i], TensorAssignment::AllGpus)
    }

    /// Tensors that GPU `p` must invert (its `S_p`, Eq. 16): its own CTs
    /// plus every NCT.
    pub fn set_for_gpu(&self, p: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                matches!(a, TensorAssignment::AllGpus) || **a == TensorAssignment::Gpu(p)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of NCTs.
    pub fn num_nct(&self) -> usize {
        (0..self.assignments.len())
            .filter(|&i| self.is_nct(i))
            .count()
    }

    /// Per-GPU modelled load (Eq. 21's inner sums): each GPU's inversion
    /// time plus the broadcast time of its CTs. NCT inversions count toward
    /// every GPU.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the placement length.
    pub fn per_gpu_load(
        &self,
        dims: &[usize],
        comp: &ExpInverseModel,
        comm: &AlphaBetaModel,
    ) -> Vec<f64> {
        assert_eq!(dims.len(), self.assignments.len(), "dims length mismatch");
        let mut per_gpu = vec![0.0f64; self.world];
        for (i, a) in self.assignments.iter().enumerate() {
            match a {
                TensorAssignment::AllGpus => {
                    for t in per_gpu.iter_mut() {
                        *t += comp.time(dims[i]);
                    }
                }
                TensorAssignment::Gpu(p) => {
                    per_gpu[*p] += comp.time(dims[i]) + comm.time_packed(dims[i]);
                }
            }
        }
        per_gpu
    }

    /// Evaluates the paper's objective (Eq. 21): the maximum over GPUs of
    /// [`Placement::per_gpu_load`].
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the placement length.
    pub fn modeled_time(
        &self,
        dims: &[usize],
        comp: &ExpInverseModel,
        comm: &AlphaBetaModel,
    ) -> f64 {
        self.per_gpu_load(dims, comp, comm)
            .into_iter()
            .fold(0.0, f64::max)
    }
}

/// Everything a [`PlacementPolicy`] may consult when assigning tensors.
///
/// `dims` are the tensor dimensions in tensor order; `comp`/`comm` are the
/// agreed inversion / broadcast cost models (Eq. 26 / Eq. 27). `prev`
/// carries the standing assignments when a policy runs at a re-plan
/// barrier, so it can price ownership migration instead of thrashing;
/// `gpus_per_node` is the topology hint (1 = flat cluster) that
/// topology-aware policies use to reason about NVLink/PCIe islands.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// Tensor dimensions, in tensor order.
    pub dims: &'a [usize],
    /// Number of GPUs.
    pub world: usize,
    /// Inversion cost model (Eq. 26).
    pub comp: &'a ExpInverseModel,
    /// Broadcast cost model (Eq. 27).
    pub comm: &'a AlphaBetaModel,
    /// Standing assignments from the previous plan generation, if any.
    pub prev: Option<&'a [TensorAssignment]>,
    /// GPUs per node (1 when the topology is flat / unknown).
    pub gpus_per_node: usize,
}

impl<'a> PlacementContext<'a> {
    /// A flat-topology context with no standing plan.
    pub fn new(
        dims: &'a [usize],
        world: usize,
        comp: &'a ExpInverseModel,
        comm: &'a AlphaBetaModel,
    ) -> Self {
        PlacementContext {
            dims,
            world,
            comp,
            comm,
            prev: None,
            gpus_per_node: 1,
        }
    }

    /// Attaches the previous generation's assignments.
    pub fn with_prev(mut self, prev: Option<&'a [TensorAssignment]>) -> Self {
        self.prev = prev;
        self
    }

    /// Sets the GPUs-per-node topology hint.
    pub fn with_gpus_per_node(mut self, gpus_per_node: usize) -> Self {
        self.gpus_per_node = gpus_per_node.max(1);
        self
    }
}

/// A pluggable inverse-placement policy: the extraction of Algorithm 1's
/// role into a trait so LBP competes head-to-head against HEFT-style,
/// memory-aware, and topology-aware schedulers (the `sim::sched` impls).
///
/// Implementations must be **pure**: the same context (same dims in the
/// same order, same models, same `prev`) must yield the same placement on
/// every rank — placements are part of the SPMD-agreed state.
pub trait PlacementPolicy: Send + Sync {
    /// Stable identifier for reports and benchmark rows.
    fn name(&self) -> String;

    /// Computes the placement for `ctx`.
    fn place(&self, ctx: &PlacementContext<'_>) -> Placement;
}

/// Clonable, debuggable handle to any placement policy, for storage in a
/// [`Planner`](crate::runtime::Planner) or a simulator configuration.
#[derive(Clone)]
pub struct PolicyHandle(Arc<dyn PlacementPolicy>);

impl PolicyHandle {
    /// Wraps a policy.
    pub fn new(policy: impl PlacementPolicy + 'static) -> Self {
        PolicyHandle(Arc::new(policy))
    }
}

impl fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PolicyHandle").field(&self.0.name()).finish()
    }
}

impl<P: PlacementPolicy + 'static> From<P> for PolicyHandle {
    fn from(p: P) -> Self {
        PolicyHandle::new(p)
    }
}

impl std::ops::Deref for PolicyHandle {
    type Target = dyn PlacementPolicy;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl PlacementPolicy for PlacementStrategy {
    fn name(&self) -> String {
        match self {
            PlacementStrategy::NonDist => "non-dist".into(),
            PlacementStrategy::SeqDist => "seq-dist".into(),
            PlacementStrategy::Lbp { weight } => match weight {
                LbpWeight::Dim => "lbp-dim".into(),
                LbpWeight::DimSquared => "lbp".into(),
                LbpWeight::ModeledTime => "lbp-time".into(),
            },
        }
    }

    /// With `ctx.prev`, LBP charges a broadcast-priced migration cost for
    /// moving a CT away from its standing owner, so re-plans on marginally
    /// drifted models keep assignments sticky instead of thrashing
    /// ownership (and the factor state that lives with it).
    fn place(&self, ctx: &PlacementContext<'_>) -> Placement {
        let (dims, world) = (ctx.dims, ctx.world);
        assert!(world > 0, "place requires at least one GPU");
        match *self {
            PlacementStrategy::NonDist => {
                Placement::new(vec![TensorAssignment::AllGpus; dims.len()], world)
            }
            PlacementStrategy::SeqDist => Placement::new(
                (0..dims.len())
                    .map(|i| TensorAssignment::Gpu(i % world))
                    .collect(),
                world,
            ),
            PlacementStrategy::Lbp { weight } => {
                lbp_with_prev(dims, world, ctx.comp, ctx.comm, weight, ctx.prev)
            }
        }
    }
}

/// The workload weight LBP balances (DESIGN.md §4 discusses the pseudocode
/// vs Eq. 25 discrepancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LbpWeight {
    /// Pseudocode-literal: bucket grows by `d_i` (Algorithm 1, lines 10/13).
    Dim,
    /// Eq. 25 / Eq. 20: bucket grows by `d_i²` (the stated objective —
    /// default).
    #[default]
    DimSquared,
    /// Bucket grows by the modelled time `t_comp(d) (+ t_comm(d)` for CTs).
    ModeledTime,
}

/// Placement strategies evaluated in Fig. 12 / Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementStrategy {
    /// Every GPU inverts everything locally (D-KFAC).
    NonDist,
    /// Round-robin over GPUs, everything CT (MPD-KFAC, Eq. 22).
    SeqDist,
    /// Load-balancing placement with CT/NCT classification (Algorithm 1).
    Lbp {
        /// Bucket weight variant.
        weight: LbpWeight,
    },
}

impl Default for PlacementStrategy {
    fn default() -> Self {
        PlacementStrategy::Lbp {
            weight: LbpWeight::default(),
        }
    }
}

/// Computes a placement of tensors with dimensions `dims` over `world` GPUs.
///
/// `comp`/`comm` supply the time estimates Algorithm 1's NCT test and the
/// `ModeledTime` weight need; `NonDist` and `SeqDist` ignore them.
pub fn place(
    dims: &[usize],
    world: usize,
    comp: &ExpInverseModel,
    comm: &AlphaBetaModel,
    strategy: PlacementStrategy,
) -> Placement {
    strategy.place(&PlacementContext::new(dims, world, comp, comm))
}

/// Algorithm 1: Load-Balancing Placement with dynamic tensor-type
/// determination.
pub fn lbp(
    dims: &[usize],
    world: usize,
    comp: &ExpInverseModel,
    comm: &AlphaBetaModel,
    weight: LbpWeight,
) -> Placement {
    lbp_with_prev(dims, world, comp, comm, weight, None)
}

/// As [`lbp`], optionally migration-aware.
///
/// Without `prev` this is Algorithm 1 verbatim. With `prev`, the CT
/// bucket choice runs in modelled-seconds space (whatever `weight` says —
/// migration is priced in seconds, so the comparison must be too) and each
/// candidate GPU that is not the tensor's standing owner is surcharged one
/// packed broadcast of the tensor: moving ownership costs exactly one
/// fan-out of the factor state the new owner does not have.
pub fn lbp_with_prev(
    dims: &[usize],
    world: usize,
    comp: &ExpInverseModel,
    comm: &AlphaBetaModel,
    weight: LbpWeight,
    prev: Option<&[TensorAssignment]>,
) -> Placement {
    // Line 3: indices sorted by dimension, descending (ties by index for
    // determinism).
    let mut order: Vec<usize> = (0..dims.len()).collect();
    order.sort_by(|&a, &b| dims[b].cmp(&dims[a]).then(a.cmp(&b)));

    // Migration-aware selection compares seconds against seconds.
    let weight = if prev.is_some() {
        LbpWeight::ModeledTime
    } else {
        weight
    };
    let w = |d: usize, ct: bool| -> f64 {
        match weight {
            LbpWeight::Dim => d as f64,
            LbpWeight::DimSquared => (d as f64) * (d as f64),
            LbpWeight::ModeledTime => comp.time(d) + if ct { comm.time_packed(d) } else { 0.0 },
        }
    };

    let mut buckets = vec![0.0f64; world];
    let mut assignments = vec![TensorAssignment::AllGpus; dims.len()];
    for &i in &order {
        let d = dims[i];
        let t_comp = comp.time(d);
        let t_comm = comm.time_packed(d);
        if t_comp < t_comm {
            // Lines 8-10: NCT — replicate the computation everywhere.
            assignments[i] = TensorAssignment::AllGpus;
            let wv = w(d, false);
            for b in buckets.iter_mut() {
                *b += wv;
            }
        } else {
            // Lines 11-13: CT — least-loaded GPU (line 5), surcharged by
            // the migration broadcast when a standing owner exists.
            let owner = prev.and_then(|p| match p.get(i) {
                Some(TensorAssignment::Gpu(q)) => Some(*q),
                _ => None,
            });
            let p = buckets
                .iter()
                .enumerate()
                .map(|(p, &b)| {
                    let migrate = match owner {
                        Some(q) if q != p => comm.time_packed(d),
                        _ => 0.0,
                    };
                    (p, b + migrate)
                })
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite weights"))
                .map(|(p, _)| p)
                .expect("world > 0");
            assignments[i] = TensorAssignment::Gpu(p);
            buckets[p] += w(d, true);
        }
    }
    Placement::new(assignments, world)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Models under which tensors with `d < 100` are NCT.
    fn toy_models() -> (ExpInverseModel, AlphaBetaModel) {
        // comp(100) ≈ comm(100): alpha_bc + beta_bc·5050 with bcast below.
        let comp = ExpInverseModel::new(1e-3, 0.5e-2); // comp(100) = e^0.5 ms ≈ 1.65 ms
        let comm = AlphaBetaModel::new(1.2e-3, 1e-7); // comm(100) ≈ 1.2 ms + 0.5 ms
        (comp, comm)
    }

    #[test]
    fn non_dist_replicates_everything() {
        let (comp, comm) = toy_models();
        let p = place(&[10, 20, 30], 4, &comp, &comm, PlacementStrategy::NonDist);
        assert_eq!(p.num_nct(), 3);
        for g in 0..4 {
            assert_eq!(p.set_for_gpu(g), vec![0, 1, 2]);
        }
    }

    #[test]
    fn seq_dist_round_robins_all_ct() {
        let (comp, comm) = toy_models();
        let p = place(
            &[10, 20, 30, 40, 50],
            2,
            &comp,
            &comm,
            PlacementStrategy::SeqDist,
        );
        assert_eq!(p.num_nct(), 0);
        assert_eq!(p.set_for_gpu(0), vec![0, 2, 4]);
        assert_eq!(p.set_for_gpu(1), vec![1, 3]);
    }

    #[test]
    fn lbp_small_tensors_become_nct() {
        let (comp, comm) = toy_models();
        let dims = vec![8, 16, 2000, 3000];
        let p = place(&dims, 2, &comp, &comm, PlacementStrategy::default());
        assert!(p.is_nct(0), "dim 8 should be NCT");
        assert!(p.is_nct(1), "dim 16 should be NCT");
        assert!(!p.is_nct(2), "dim 2000 should be CT");
        assert!(!p.is_nct(3), "dim 3000 should be CT");
        // NCT test is exactly t_comp < t_comm:
        for (i, &d) in dims.iter().enumerate() {
            assert_eq!(p.is_nct(i), comp.time(d) < comm.time_packed(d));
        }
    }

    #[test]
    fn lbp_balances_big_tensors_across_gpus() {
        let (comp, comm) = toy_models();
        // Two big tensors on two GPUs must land on different GPUs.
        let p = place(&[3000, 3000], 2, &comp, &comm, PlacementStrategy::default());
        let a0 = p.assignments()[0];
        let a1 = p.assignments()[1];
        assert_ne!(a0, a1);
    }

    #[test]
    fn fig5_example_balanced_beats_sequential() {
        // Four CT tensors with uneven sizes on two GPUs, as in Fig. 5:
        // sequential puts {1st, 3rd} vs {2nd, 4th}; LBP pairs big-with-small.
        let (comp, comm) = toy_models();
        let dims = vec![4000, 3800, 2600, 2500];
        let seq = place(&dims, 2, &comp, &comm, PlacementStrategy::SeqDist);
        let lbp = place(&dims, 2, &comp, &comm, PlacementStrategy::default());
        let t_seq = seq.modeled_time(&dims, &comp, &comm);
        let t_lbp = lbp.modeled_time(&dims, &comp, &comm);
        assert!(
            t_lbp <= t_seq + 1e-12,
            "LBP {t_lbp} should not lose to Seq-Dist {t_seq}"
        );
        // LBP puts the two largest on different GPUs.
        assert_ne!(lbp.assignments()[0], lbp.assignments()[1]);
    }

    #[test]
    fn fig5c_ncts_save_time_over_all_ct() {
        // Small tensors waste broadcast startup; replicating their inversion
        // (NCT) beats communicating them — the Fig. 5(b) vs 5(c) comparison.
        let (comp, comm) = toy_models();
        let dims = vec![3000, 2500, 20, 24];
        let lbp = place(&dims, 2, &comp, &comm, PlacementStrategy::default());
        assert!(lbp.num_nct() >= 2);
        // Force the all-CT variant of the same balance for comparison.
        let all_ct = Placement::new(
            vec![
                TensorAssignment::Gpu(0),
                TensorAssignment::Gpu(1),
                TensorAssignment::Gpu(1),
                TensorAssignment::Gpu(0),
            ],
            2,
        );
        assert!(lbp.modeled_time(&dims, &comp, &comm) < all_ct.modeled_time(&dims, &comp, &comm));
    }

    #[test]
    fn every_tensor_is_assigned_exactly_once_or_everywhere() {
        let (comp, comm) = toy_models();
        let dims: Vec<usize> = (1..40).map(|i| i * 97 % 3000 + 8).collect();
        for world in [1usize, 2, 4, 8] {
            let p = place(&dims, world, &comp, &comm, PlacementStrategy::default());
            // Union over GPUs covers all tensors (Eq. 16)…
            let mut covered = vec![0usize; dims.len()];
            for g in 0..world {
                for i in p.set_for_gpu(g) {
                    covered[i] += 1;
                }
            }
            for (i, &c) in covered.iter().enumerate() {
                if p.is_nct(i) {
                    assert_eq!(c, world, "NCT {i} must be on all GPUs (Eq. 18)");
                } else {
                    assert_eq!(c, 1, "CT {i} must be on exactly one GPU (Eq. 19)");
                }
            }
        }
    }

    #[test]
    fn lbp_within_lpt_bound_of_lower_bound() {
        // Greedy LPT guarantee: makespan ≤ 4/3 · OPT. Check against the
        // trivial lower bound max(total/P, max_item) on the balanced weight.
        let (comp, comm) = toy_models();
        let dims: Vec<usize> = (0..60).map(|i| (i * 131 % 2900) + 150).collect();
        let world = 8;
        let p = lbp(&dims, world, &comp, &comm, LbpWeight::DimSquared);
        // All dims here are CT (≥ 150 ⇒ comp > comm under toy models? ensure).
        let mut loads = vec![0.0f64; world];
        let mut total = 0.0;
        let mut max_item: f64 = 0.0;
        for (i, &d) in dims.iter().enumerate() {
            let wv = (d * d) as f64;
            match p.assignments()[i] {
                TensorAssignment::Gpu(g) => {
                    loads[g] += wv;
                    total += wv;
                    max_item = max_item.max(wv);
                }
                TensorAssignment::AllGpus => { /* excluded from the bound */ }
            }
        }
        let makespan = loads.iter().cloned().fold(0.0, f64::max);
        let lower = (total / world as f64).max(max_item);
        assert!(
            makespan <= lower * 4.0 / 3.0 + 1e-9,
            "makespan {makespan} vs lower bound {lower}"
        );
    }

    #[test]
    fn per_gpu_load_matches_modeled_time_and_counts_ncts_everywhere() {
        let (comp, comm) = toy_models();
        let dims = vec![3000, 2500, 20];
        let p = place(&dims, 2, &comp, &comm, PlacementStrategy::default());
        let loads = p.per_gpu_load(&dims, &comp, &comm);
        assert_eq!(loads.len(), 2);
        assert_eq!(
            p.modeled_time(&dims, &comp, &comm),
            loads.iter().cloned().fold(0.0, f64::max)
        );
        // The NCT (dim 20) is replicated: both loads include its compute.
        assert!(p.is_nct(2));
        assert!(loads.iter().all(|&l| l >= comp.time(20)));
    }

    #[test]
    fn single_gpu_everything_local() {
        let (comp, comm) = toy_models();
        let p = place(&[100, 200], 1, &comp, &comm, PlacementStrategy::default());
        assert_eq!(p.set_for_gpu(0), vec![0, 1]);
    }

    #[test]
    fn migration_cost_keeps_marginal_replans_sticky() {
        // A small model drift must not flip ownership: re-planning with
        // `prev` under slightly different models keeps every CT where it
        // was, because moving it costs a full broadcast.
        let (comp, comm) = toy_models();
        let dims = vec![3000, 2900, 2800, 2700, 300, 400];
        let first = place(&dims, 4, &comp, &comm, PlacementStrategy::default());
        let drifted = AlphaBetaModel::new(comm.alpha * 1.05, comm.beta * 0.97);
        let ctx = PlacementContext::new(&dims, 4, &comp, &drifted);
        let second = PlacementStrategy::default().place(&ctx.with_prev(Some(first.assignments())));
        for (i, (a, b)) in first
            .assignments()
            .iter()
            .zip(second.assignments())
            .enumerate()
        {
            if let (TensorAssignment::Gpu(p), TensorAssignment::Gpu(q)) = (a, b) {
                assert_eq!(p, q, "tensor {i} migrated {p} -> {q} on a marginal drift");
            }
        }
    }

    #[test]
    fn migration_still_moves_under_gross_imbalance() {
        // The surcharge is one broadcast, not a veto: if the standing plan
        // is grossly imbalanced (everything on GPU 0), re-planning with
        // `prev` still spreads the load.
        let (comp, comm) = toy_models();
        let dims = vec![3000, 3000, 3000, 3000];
        let skewed = Placement::new(vec![TensorAssignment::Gpu(0); 4], 4);
        let ctx = PlacementContext::new(&dims, 4, &comp, &comm);
        let rebal = PlacementStrategy::default().place(&ctx.with_prev(Some(skewed.assignments())));
        let moved = rebal
            .assignments()
            .iter()
            .filter(|a| !matches!(a, TensorAssignment::Gpu(0)))
            .count();
        assert!(moved >= 2, "only {moved} tensors left the overloaded GPU");
        assert!(rebal.modeled_time(&dims, &comp, &comm) < skewed.modeled_time(&dims, &comp, &comm));
    }

    #[test]
    fn policy_trait_matches_free_function() {
        let (comp, comm) = toy_models();
        let dims = vec![8, 16, 2000, 3000, 450];
        for strategy in [
            PlacementStrategy::NonDist,
            PlacementStrategy::SeqDist,
            PlacementStrategy::default(),
        ] {
            let ctx = PlacementContext::new(&dims, 4, &comp, &comm);
            let via_trait = PlacementPolicy::place(&strategy, &ctx);
            let direct = place(&dims, 4, &comp, &comm, strategy);
            assert_eq!(via_trait, direct, "{}", PlacementPolicy::name(&strategy));
        }
    }

    #[test]
    fn weight_variants_produce_valid_placements() {
        let (comp, comm) = toy_models();
        let dims = vec![500, 1000, 1500, 2000, 2500];
        for w in [
            LbpWeight::Dim,
            LbpWeight::DimSquared,
            LbpWeight::ModeledTime,
        ] {
            let p = lbp(&dims, 3, &comp, &comm, w);
            assert_eq!(p.assignments().len(), 5);
        }
    }
}
