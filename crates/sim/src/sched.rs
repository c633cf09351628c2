//! Placement policies for the inverse phase, beyond the paper's own.
//!
//! `core::placement` defines the [`PlacementPolicy`] trait and implements
//! the paper's strategies (Non-Dist, Seq-Dist, LBP). This module adds the
//! competitors the scaling study benchmarks them against:
//!
//! - [`HeftPolicy`] — HEFT-style earliest-finish-time list scheduling: each
//!   communicated tensor goes to the GPU that minimizes its *finish* time
//!   (compute queue + the shared broadcast queue), not just the compute
//!   load.
//! - [`MemoryAwarePolicy`] — balances the packed-triangular bytes resident
//!   per GPU, the constraint that binds before compute does on
//!   memory-tight clusters.
//! - [`TopologyAwarePolicy`] — hierarchical-topology aware: spreads load
//!   across islands first and keeps a layer's symmetric Kronecker pair
//!   (`A_i`, `G_i`) on one island so their broadcasts share the cheap
//!   intra-island link.
//!
//! [`policy_registry`] enumerates everything the `bench_scale` sweep runs,
//! each behind the [`PolicyHandle`] a `SimConfig` stores.

use spdkfac_core::placement::{
    Placement, PlacementContext, PlacementPolicy, PlacementStrategy, PolicyHandle, TensorAssignment,
};

/// NCT rule shared with LBP (Algorithm 1): a tensor is replicated when
/// inverting it everywhere is cheaper than broadcasting it once.
fn is_nct(ctx: &PlacementContext<'_>, d: usize) -> bool {
    ctx.comp.time(d) < ctx.comm.time_packed(d)
}

/// Communicated tensors in deterministic scheduling order: largest modeled
/// inverse first (the flat-DAG analogue of HEFT's upward rank), index as
/// the tie-break.
fn cts_by_desc_cost(ctx: &PlacementContext<'_>) -> Vec<usize> {
    let mut cts: Vec<usize> = (0..ctx.dims.len())
        .filter(|&i| !is_nct(ctx, ctx.dims[i]))
        .collect();
    cts.sort_by(|&a, &b| ctx.dims[b].cmp(&ctx.dims[a]).then(a.cmp(&b)));
    cts
}

/// HEFT-style earliest-finish-time placement.
///
/// Tensors are scheduled largest-first; each goes to the GPU minimizing its
/// modeled finish time — own compute queue, then the broadcast on a
/// serialized network queue. Unlike LBP's load buckets, the shared queue
/// makes the policy account for broadcasts from *other* GPUs delaying this
/// tensor's fan-out.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeftPolicy;

impl PlacementPolicy for HeftPolicy {
    fn name(&self) -> String {
        "heft".into()
    }

    fn place(&self, ctx: &PlacementContext<'_>) -> Placement {
        let mut assignments = vec![TensorAssignment::AllGpus; ctx.dims.len()];
        let mut gpu_busy = vec![0.0f64; ctx.world];
        let mut net_free = 0.0f64;
        for i in cts_by_desc_cost(ctx) {
            let d = ctx.dims[i];
            let comp = ctx.comp.time(d);
            let bcast = ctx.comm.time_packed(d);
            let p = (0..ctx.world)
                .map(|p| {
                    let ready = gpu_busy[p] + comp;
                    (p, ready.max(net_free) + bcast)
                })
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite finish times"))
                .map(|(p, _)| p)
                .expect("world > 0");
            assignments[i] = TensorAssignment::Gpu(p);
            gpu_busy[p] += comp;
            net_free = gpu_busy[p].max(net_free) + bcast;
        }
        Placement::new(assignments, ctx.world)
    }
}

/// Balances the packed-triangular working set (`d(d+1)/2` elements per
/// communicated tensor) across GPUs; replicated tensors cost the same
/// everywhere and are ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryAwarePolicy;

impl PlacementPolicy for MemoryAwarePolicy {
    fn name(&self) -> String {
        "memory".into()
    }

    fn place(&self, ctx: &PlacementContext<'_>) -> Placement {
        let mut assignments = vec![TensorAssignment::AllGpus; ctx.dims.len()];
        let mut bytes = vec![0u128; ctx.world];
        for i in cts_by_desc_cost(ctx) {
            let d = ctx.dims[i] as u128;
            let p = bytes
                .iter()
                .enumerate()
                .min_by_key(|&(_, &b)| b)
                .map(|(p, _)| p)
                .expect("world > 0");
            assignments[i] = TensorAssignment::Gpu(p);
            bytes[p] += d * (d + 1) / 2;
        }
        Placement::new(assignments, ctx.world)
    }
}

/// Hierarchical-topology-aware placement: keep each layer's symmetric
/// factor pair on one island, spread load across islands.
///
/// `all_factor_dims()` interleaves `[A_0, G_0, A_1, G_1, …]`, so tensor
/// `i`'s Kronecker partner is `i ^ 1`. If the partner is already placed,
/// its island is reused (their broadcasts then share the cheap intra-island
/// hop); otherwise the least-loaded island wins. Within an island, the
/// least-loaded GPU takes the tensor — degenerating to exactly that
/// greedy balance (≈ LBP) when `gpus_per_node == 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopologyAwarePolicy;

impl PlacementPolicy for TopologyAwarePolicy {
    fn name(&self) -> String {
        "topo".into()
    }

    fn place(&self, ctx: &PlacementContext<'_>) -> Placement {
        let g = ctx.gpus_per_node.max(1).min(ctx.world);
        let n_islands = ctx.world.div_ceil(g);
        let mut assignments = vec![TensorAssignment::AllGpus; ctx.dims.len()];
        let mut gpu_load = vec![0.0f64; ctx.world];
        let mut island_load = vec![0.0f64; n_islands];
        for i in cts_by_desc_cost(ctx) {
            let w = ctx.comp.time(ctx.dims[i]);
            let partner_island = match assignments.get(i ^ 1) {
                Some(TensorAssignment::Gpu(q)) => Some(q / g),
                _ => None,
            };
            let island = partner_island.unwrap_or_else(|| {
                island_load
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite loads"))
                    .map(|(k, _)| k)
                    .expect("at least one island")
            });
            let lo = island * g;
            let hi = (lo + g).min(ctx.world);
            let p = (lo..hi)
                .min_by(|&a, &b| gpu_load[a].partial_cmp(&gpu_load[b]).expect("finite loads"))
                .expect("island non-empty");
            assignments[i] = TensorAssignment::Gpu(p);
            gpu_load[p] += w;
            island_load[island] += w;
        }
        Placement::new(assignments, ctx.world)
    }
}

/// Every policy the scaling sweep (`bench_scale`) pits against each other:
/// the paper's three strategies plus the three alternatives above.
pub fn policy_registry() -> Vec<PolicyHandle> {
    vec![
        PolicyHandle::new(PlacementStrategy::NonDist),
        PolicyHandle::new(PlacementStrategy::SeqDist),
        PolicyHandle::new(PlacementStrategy::default()),
        PolicyHandle::new(HeftPolicy),
        PolicyHandle::new(MemoryAwarePolicy),
        PolicyHandle::new(TopologyAwarePolicy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_core::perf::{AlphaBetaModel, ExpInverseModel};

    fn models() -> (ExpInverseModel, AlphaBetaModel) {
        (
            ExpInverseModel::new(1e-3, 0.5e-2),
            AlphaBetaModel::new(1.2e-3, 1e-7),
        )
    }

    fn dims() -> Vec<usize> {
        vec![64, 64, 256, 256, 1024, 1024, 2048, 2048, 4096, 4096]
    }

    fn check_valid(plc: &Placement, dims: &[usize], world: usize) {
        assert_eq!(plc.assignments().len(), dims.len());
        assert_eq!(plc.world(), world);
        for a in plc.assignments() {
            if let TensorAssignment::Gpu(p) = a {
                assert!(*p < world, "owner {p} out of range");
            }
        }
    }

    #[test]
    fn all_policies_emit_valid_placements() {
        let (comp, comm) = models();
        let dims = dims();
        for world in [1usize, 2, 8, 64] {
            let ctx = PlacementContext::new(&dims, world, &comp, &comm).with_gpus_per_node(4);
            for policy in policy_registry() {
                let plc = policy.place(&ctx);
                check_valid(&plc, &dims, world);
            }
        }
    }

    #[test]
    fn heft_balances_identical_tensors_across_gpus() {
        // With zero network cost in the way (tiny bcast), HEFT degenerates
        // to round-robin over equal tensors — every GPU gets its share.
        let comp = ExpInverseModel::new(1e-3, 0.5e-2);
        let comm = AlphaBetaModel::new(1e-9, 1e-12); // broadcasts ~free → all CT
        let dims = vec![2048; 8];
        let ctx = PlacementContext::new(&dims, 4, &comp, &comm);
        let plc = HeftPolicy.place(&ctx);
        let mut per_gpu = vec![0usize; 4];
        for a in plc.assignments() {
            if let TensorAssignment::Gpu(p) = a {
                per_gpu[*p] += 1;
            }
        }
        assert_eq!(per_gpu, vec![2, 2, 2, 2]);
    }

    #[test]
    fn memory_policy_balances_packed_bytes() {
        let (comp, comm) = models();
        let dims = vec![4096; 6];
        let ctx = PlacementContext::new(&dims, 3, &comp, &comm);
        let plc = MemoryAwarePolicy.place(&ctx);
        let mut per_gpu = vec![0u128; 3];
        for (i, a) in plc.assignments().iter().enumerate() {
            if let TensorAssignment::Gpu(p) = a {
                let d = dims[i] as u128;
                per_gpu[*p] += d * (d + 1) / 2;
            }
        }
        assert!(per_gpu.iter().all(|&b| b == per_gpu[0]), "{per_gpu:?}");
    }

    #[test]
    fn topology_policy_keeps_factor_pairs_on_one_island() {
        let (comp, comm) = models();
        // Big distinct CT dims, layer-major interleaved [A_i, G_i].
        let dims = vec![3000, 3001, 3002, 3003, 3004, 3005, 3006, 3007];
        let ctx = PlacementContext::new(&dims, 8, &comp, &comm).with_gpus_per_node(4);
        let plc = TopologyAwarePolicy.place(&ctx);
        for i in (0..dims.len()).step_by(2) {
            let (a, g) = (plc.assignments()[i], plc.assignments()[i + 1]);
            if let (TensorAssignment::Gpu(pa), TensorAssignment::Gpu(pg)) = (a, g) {
                assert_eq!(pa / 4, pg / 4, "pair {i}: islands {} vs {}", pa / 4, pg / 4);
            } else {
                panic!("pair {i} not communicated: {a:?} {g:?}");
            }
        }
    }

    #[test]
    fn topology_policy_spreads_pairs_across_islands() {
        let (comp, comm) = models();
        let dims = vec![3000, 3001, 3002, 3003];
        let ctx = PlacementContext::new(&dims, 8, &comp, &comm).with_gpus_per_node(4);
        let plc = TopologyAwarePolicy.place(&ctx);
        let islands: std::collections::BTreeSet<usize> = plc
            .assignments()
            .iter()
            .filter_map(|a| match a {
                TensorAssignment::Gpu(p) => Some(p / 4),
                _ => None,
            })
            .collect();
        assert_eq!(islands.len(), 2, "both islands should carry one pair");
    }

    #[test]
    fn policy_handle_debug_and_from() {
        let h: PolicyHandle = PlacementStrategy::SeqDist.into();
        assert_eq!(h.name(), "seq-dist");
        assert!(format!("{h:?}").contains("seq-dist"));
        assert_eq!(PolicyHandle::new(HeftPolicy).name(), "heft");
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = policy_registry().iter().map(|p| p.name()).collect();
        let set: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "{names:?}");
    }
}
