//! Pluggable network models for the simulator.
//!
//! The scheduler (`sim::schedule`) issues collectives through the
//! [`NetworkModel`] trait instead of hard-coding one queue discipline:
//!
//! - [`SerializedQueue`] reproduces the historical behaviour exactly — one
//!   shared α-β link on which collectives execute in issue order (Horovod's
//!   single background thread), optionally with per-root egress links for
//!   broadcasts, and the fixed `overlap_penalty` comm–compute contention
//!   fixed-point. Flat-topology results are bit-identical to the pre-trait
//!   simulator.
//! - [`HierarchicalModel`] models the two-level testbed topology (Table I:
//!   `gpus_per_node` GPUs per NVLink/PCIe island, islands joined by an
//!   inter-node fabric). Transfers are *fluid*: each one owns a route of
//!   shared links, concurrent transfers crossing the same link split its
//!   bandwidth evenly, and the engine advances by progress-based event
//!   stepping — the fixed `overlap_penalty` scalar is replaced by actual
//!   link contention on the hierarchical paths.
//!
//! Topology choice is data ([`NetTopology`]), so configurations serialize
//! into benchmark rows; [`build`] turns a topology plus a
//! [`HardwareProfile`] into the executable model.

use std::collections::VecDeque;

use crate::hardware::HardwareProfile;
use spdkfac_core::graph::{TaskGraph, TaskSpan};
use spdkfac_core::perf::AlphaBetaModel;
use spdkfac_obs::{Phase, SpanMeta};

/// Parameters of the two-level hierarchical topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierSpec {
    /// GPUs per node (island size) — 4 on the paper's testbed.
    pub gpus_per_node: usize,
    /// Startup latency of one intra-island hop (seconds).
    pub alpha_intra: f64,
    /// Per-element cost of the intra-island links (s/element, fp32).
    pub beta_intra: f64,
}

impl HierSpec {
    /// NVLink/PCIe-class islands of `gpus_per_node` GPUs (the defaults the
    /// hardware calibration uses: β_intra = 2e-10 s/elem, α_intra = 50 µs).
    pub fn islands(gpus_per_node: usize) -> Self {
        HierSpec {
            gpus_per_node: gpus_per_node.max(1),
            alpha_intra: 5e-5,
            beta_intra: 2.0e-10,
        }
    }
}

/// How the simulated cluster's network is wired and scheduled.
///
/// This replaces the old `NetworkModel` enum (`Serialized` /
/// `PerRootParallel`): root-parallel broadcasting is now a property of the
/// flat topology, and the hierarchical variant subsumes both under real
/// link contention (DESIGN.md §4 records the deprecation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetTopology {
    /// One flat α-β network. With `root_parallel`, broadcasts from
    /// distinct roots get private egress links; all-reduces always share
    /// the global queue.
    Flat {
        /// Broadcasts from distinct roots may overlap each other.
        root_parallel: bool,
    },
    /// Two-level islands + fabric with fluid link contention.
    Hierarchical(HierSpec),
}

impl Default for NetTopology {
    fn default() -> Self {
        NetTopology::serialized()
    }
}

impl NetTopology {
    /// The historical default: one serialized collective queue.
    pub fn serialized() -> Self {
        NetTopology::Flat {
            root_parallel: false,
        }
    }

    /// Flat network with per-root broadcast egress links (the old
    /// `NetworkModel::PerRootParallel`).
    pub fn per_root_parallel() -> Self {
        NetTopology::Flat {
            root_parallel: true,
        }
    }

    /// Hierarchical topology with `gpus_per_node` GPUs per island and the
    /// default NVLink/PCIe-class intra-island links.
    pub fn hierarchical(gpus_per_node: usize) -> Self {
        NetTopology::Hierarchical(HierSpec::islands(gpus_per_node))
    }

    /// Stable identifier for benchmark rows.
    pub fn label(&self) -> String {
        match self {
            NetTopology::Flat {
                root_parallel: false,
            } => "flat".into(),
            NetTopology::Flat {
                root_parallel: true,
            } => "flat-root-parallel".into(),
            NetTopology::Hierarchical(s) => format!("hier{}", s.gpus_per_node),
        }
    }

    /// GPUs per node implied by the topology (1 for flat).
    pub fn gpus_per_node(&self) -> usize {
        match self {
            NetTopology::Flat { .. } => 1,
            NetTopology::Hierarchical(s) => s.gpus_per_node.max(1),
        }
    }
}

/// A network model: prices collectives at planning time and executes them
/// at simulation time.
///
/// The scheduler pushes collectives through `push_allreduce` /
/// `push_bcast` (which place tasks on graph resources and may record
/// routing state), then hands the finished graph to `execute`, which owns
/// the timing semantics — queueing, contention, event stepping.
pub trait NetworkModel {
    /// Total graph resources, including the `world` compute streams.
    fn num_resources(&self) -> usize;

    /// GPUs per island (1 = flat).
    fn gpus_per_node(&self) -> usize;

    /// Issues an all-reduce of `elems` fp32 elements. Returns the task id.
    fn push_allreduce(
        &mut self,
        g: &mut TaskGraph,
        elems: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize;

    /// Issues a broadcast of one packed `dim × dim` factor from `root`.
    /// Returns the task id.
    fn push_bcast(
        &mut self,
        g: &mut TaskGraph,
        dim: usize,
        root: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize;

    /// Runs the schedule under this model's timing semantics.
    fn execute(&self, g: &mut TaskGraph) -> Vec<TaskSpan>;

    /// Planning-time all-reduce cost model, as the fusion planner should
    /// see it (including any expected contention uplift).
    fn plan_allreduce(&self) -> AlphaBetaModel;

    /// Planning-time broadcast cost model, as the placement policy should
    /// see it.
    fn plan_bcast(&self) -> AlphaBetaModel;
}

/// Builds the executable network model for `topology` from `hw`'s
/// calibrated cost models (`hw` must already carry any wire/codec
/// adjustments).
pub fn build(topology: &NetTopology, hw: &HardwareProfile, world: usize) -> Box<dyn NetworkModel> {
    match topology {
        NetTopology::Flat { root_parallel } => Box::new(SerializedQueue::new(
            world,
            hw.allreduce,
            hw.bcast,
            hw.overlap_penalty,
            *root_parallel,
        )),
        NetTopology::Hierarchical(spec) => Box::new(HierarchicalModel::new(world, *spec, hw)),
    }
}

// ---------------------------------------------------------------------------
// Serialized queue (the historical model)
// ---------------------------------------------------------------------------

/// One shared α-β link; collectives run in issue order. Optionally one
/// private egress link per broadcast root. Timing is
/// [`simulate_with_contention`]'s fixed point over the `overlap_penalty`
/// scalar — exactly the pre-trait simulator.
#[derive(Debug, Clone)]
pub struct SerializedQueue {
    world: usize,
    allreduce: AlphaBetaModel,
    bcast: AlphaBetaModel,
    overlap_penalty: f64,
    root_parallel: bool,
}

impl SerializedQueue {
    /// Creates the queue over `world` GPUs.
    pub fn new(
        world: usize,
        allreduce: AlphaBetaModel,
        bcast: AlphaBetaModel,
        overlap_penalty: f64,
        root_parallel: bool,
    ) -> Self {
        SerializedQueue {
            world: world.max(1),
            allreduce,
            bcast,
            overlap_penalty,
            root_parallel,
        }
    }
}

impl NetworkModel for SerializedQueue {
    fn num_resources(&self) -> usize {
        self.world + 1 + if self.root_parallel { self.world } else { 0 }
    }

    fn gpus_per_node(&self) -> usize {
        1
    }

    fn push_allreduce(
        &mut self,
        g: &mut TaskGraph,
        elems: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize {
        g.push_meta(self.world, self.allreduce.time(elems), deps, phase, meta)
    }

    fn push_bcast(
        &mut self,
        g: &mut TaskGraph,
        dim: usize,
        root: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize {
        let link = if self.root_parallel {
            self.world + 1 + root
        } else {
            self.world
        };
        g.push_meta(link, self.bcast.time_packed(dim), deps, phase, meta)
    }

    fn execute(&self, g: &mut TaskGraph) -> Vec<TaskSpan> {
        simulate_with_contention(g, self.overlap_penalty, self.world)
    }

    fn plan_allreduce(&self) -> AlphaBetaModel {
        // The paper fits its models from measurements taken during
        // training, which include compute contention.
        AlphaBetaModel::new(
            self.allreduce.alpha * (1.0 + self.overlap_penalty),
            self.allreduce.beta * (1.0 + self.overlap_penalty),
        )
    }

    fn plan_bcast(&self) -> AlphaBetaModel {
        self.bcast
    }
}

/// Simulates the graph under communication–computation contention: a
/// collective that overlaps busy compute streams for a fraction `f` of its
/// lifetime is stretched to `base · (1 + penalty · f)`. Solved by a short
/// fixed-point iteration (stretching comm moves it, which changes `f`).
pub(crate) fn simulate_with_contention(
    g: &mut TaskGraph,
    penalty: f64,
    network: usize,
) -> Vec<TaskSpan> {
    let base: Vec<f64> = g.tasks().iter().map(|t| t.duration).collect();
    let comm_ids: Vec<usize> = g
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.resource >= network)
        .map(|(i, _)| i)
        .collect();
    if penalty <= 0.0 || comm_ids.is_empty() {
        return g.simulate();
    }
    let mut spans = g.simulate();
    for _ in 0..4 {
        // Merged busy intervals of all compute streams.
        let mut busy: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.resource < network && s.end > s.start)
            .map(|s| (s.start, s.end))
            .collect();
        busy.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(busy.len());
        for (s, e) in busy {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        for &id in &comm_ids {
            let s = &spans[id];
            let len = s.end - s.start;
            let frac = if len > 0.0 {
                let ov: f64 = merged
                    .iter()
                    .map(|&(bs, be)| (s.end.min(be) - s.start.max(bs)).max(0.0))
                    .sum();
                (ov / len).clamp(0.0, 1.0)
            } else {
                0.0
            };
            g.set_duration(id, base[id] * (1.0 + penalty * frac));
        }
        spans = g.simulate();
    }
    spans
}

// ---------------------------------------------------------------------------
// Hierarchical fluid model
// ---------------------------------------------------------------------------

/// One bandwidth phase of a transfer: `work` seconds at full speed across
/// the `links` it occupies simultaneously.
#[derive(Debug, Clone)]
struct Segment {
    links: Vec<usize>,
    work: f64,
}

/// A collective as the fluid engine sees it: a latency phase followed by
/// sequential bandwidth segments.
#[derive(Debug, Clone)]
struct Transfer {
    alpha: f64,
    segments: Vec<Segment>,
}

/// Two-level topology with fluid shared-link contention.
///
/// Links: one per island (id `0..n_nodes`) plus the inter-node fabric
/// (id `n_nodes`). An all-reduce crosses every island then the fabric
/// (sharded by the island size, the §"hierarchical all-reduce" closed
/// form); a broadcast crosses its root's island then the fabric. When `k`
/// transfers occupy a link, each progresses at `1/k` of full speed;
/// transfers start as soon as their dependencies complete (no global
/// queue), so root-parallelism is emergent rather than a switch.
#[derive(Debug, Clone)]
pub struct HierarchicalModel {
    world: usize,
    spec: HierSpec,
    n_nodes: usize,
    allreduce_inter: AlphaBetaModel,
    bcast_inter: AlphaBetaModel,
    /// Task id → transfer route/work, filled during graph construction.
    transfers: std::collections::HashMap<usize, Transfer>,
}

impl HierarchicalModel {
    /// Creates the model over `world` GPUs grouped into `spec` islands;
    /// `hw` supplies the inter-node (NIC-bound) α-β models.
    pub fn new(world: usize, spec: HierSpec, hw: &HardwareProfile) -> Self {
        let world = world.max(1);
        let g = spec.gpus_per_node.clamp(1, world);
        let n_nodes = world.div_ceil(g);
        HierarchicalModel {
            world,
            spec: HierSpec {
                gpus_per_node: g,
                ..spec
            },
            n_nodes,
            allreduce_inter: hw.allreduce,
            bcast_inter: hw.bcast,
            transfers: std::collections::HashMap::new(),
        }
    }

    fn fabric_link(&self) -> usize {
        self.n_nodes
    }

    fn island_of(&self, gpu: usize) -> usize {
        gpu / self.spec.gpus_per_node
    }
}

impl NetworkModel for HierarchicalModel {
    fn num_resources(&self) -> usize {
        // All transfers share one pseudo-resource id (`world`) for span
        // bookkeeping; actual timing comes from the fluid links.
        self.world + 1
    }

    fn gpus_per_node(&self) -> usize {
        self.spec.gpus_per_node
    }

    fn push_allreduce(
        &mut self,
        g: &mut TaskGraph,
        elems: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize {
        let gpn = self.spec.gpus_per_node as f64;
        let n = self.n_nodes as f64;
        let m = elems as f64;
        let intra = m * 2.0 * (gpn - 1.0) / gpn * self.spec.beta_intra;
        let inter = m * 2.0 * (n - 1.0) / n * self.allreduce_inter.beta / gpn;
        let alpha = 2.0 * self.spec.alpha_intra + self.allreduce_inter.alpha;
        let solo = alpha + intra + inter;
        let id = g.push_meta(self.world, solo, deps, phase, meta);
        self.transfers.insert(
            id,
            Transfer {
                alpha,
                segments: vec![
                    Segment {
                        links: (0..self.n_nodes).collect(),
                        work: intra,
                    },
                    Segment {
                        links: vec![self.fabric_link()],
                        work: inter,
                    },
                ],
            },
        );
        id
    }

    fn push_bcast(
        &mut self,
        g: &mut TaskGraph,
        dim: usize,
        root: usize,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize {
        let tri = (dim * (dim + 1) / 2) as f64;
        let island = self.island_of(root.min(self.world - 1));
        let mut segments = vec![Segment {
            links: vec![island],
            work: tri * self.spec.beta_intra,
        }];
        let mut alpha = self.spec.alpha_intra;
        if self.n_nodes > 1 {
            alpha += self.bcast_inter.alpha;
            segments.push(Segment {
                links: vec![self.fabric_link()],
                work: tri * self.bcast_inter.beta,
            });
        }
        let solo = alpha + segments.iter().map(|s| s.work).sum::<f64>();
        let id = g.push_meta(self.world, solo, deps, phase, meta);
        self.transfers.insert(id, Transfer { alpha, segments });
        id
    }

    fn execute(&self, g: &mut TaskGraph) -> Vec<TaskSpan> {
        self.execute_fluid(g)
    }

    fn plan_allreduce(&self) -> AlphaBetaModel {
        // The zero-contention closed form (the
        // `HardwareProfile::with_hierarchical_allreduce` formula), without
        // an overlap-penalty uplift: contention is simulated, not assumed.
        let g = self.spec.gpus_per_node as f64;
        let n = self.n_nodes as f64;
        let beta_eff = 2.0 * (g - 1.0) / g * self.spec.beta_intra
            + 2.0 * (n - 1.0) / n * self.allreduce_inter.beta / g;
        let alpha_eff = 2.0 * self.spec.alpha_intra + self.allreduce_inter.alpha;
        AlphaBetaModel::new(alpha_eff, beta_eff)
    }

    fn plan_bcast(&self) -> AlphaBetaModel {
        if self.n_nodes > 1 {
            AlphaBetaModel::new(
                self.spec.alpha_intra + self.bcast_inter.alpha,
                self.spec.beta_intra + self.bcast_inter.beta,
            )
        } else {
            AlphaBetaModel::new(self.spec.alpha_intra, self.spec.beta_intra)
        }
    }
}

/// State of one in-flight transfer inside the fluid engine.
#[derive(Debug)]
struct ActiveTransfer {
    id: usize,
    latency_left: f64,
    seg: usize,
    work_left: f64,
}

impl HierarchicalModel {
    /// Progress-based event stepping over the task graph.
    ///
    /// Compute tasks keep the stream FIFO semantics of
    /// [`TaskGraph::simulate`] (strict issue order per resource); registered
    /// transfers instead start the moment their dependencies complete and
    /// share link bandwidth evenly with every other transfer currently on
    /// the same link. Between events all rates are constant, so the engine
    /// jumps to the next completion (compute end, latency expiry, or
    /// segment drain), updates remaining work, and re-solves the rates.
    /// It honours neither an earliest-start time nor a negative duration,
    /// and panics on a task with either.
    fn execute_fluid(&self, g: &TaskGraph) -> Vec<TaskSpan> {
        const EPS: f64 = 1e-15;
        let tasks = g.tasks();
        for (i, t) in tasks.iter().enumerate() {
            let ok = t.earliest.is_none() && t.duration >= 0.0;
            assert!(
                ok,
                "task {i}: the fluid engine honours no earliest start or negative duration"
            );
        }
        let n = tasks.len();
        let n_links = self.n_nodes + 1;

        let mut dep_count: Vec<usize> = (0..n).map(|i| g.deps(i).len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for &d in g.deps(i) {
                dependents[d].push(i);
            }
        }

        // Per-resource FIFO of compute tasks, in issue order.
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); g.num_resources()];
        for (i, t) in tasks.iter().enumerate() {
            if !self.transfers.contains_key(&i) {
                queues[t.resource].push_back(i);
            }
        }
        let mut res_busy = vec![false; g.num_resources()];

        let mut start = vec![0.0f64; n];
        let mut end = vec![0.0f64; n];
        let mut done = vec![false; n];
        let mut n_done = 0usize;

        // Min-heap of running compute completions, keyed by the bit pattern
        // of the (non-negative) end time — order-preserving for f64 ≥ 0.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut active: Vec<ActiveTransfer> = Vec::new();
        let mut t_now = 0.0f64;

        // Start every compute head / dependency-free transfer at t = 0.
        let start_compute =
            |r: usize,
             t_now: f64,
             queues: &mut Vec<VecDeque<usize>>,
             res_busy: &mut Vec<bool>,
             dep_count: &[usize],
             start: &mut Vec<f64>,
             running: &mut BinaryHeap<Reverse<(u64, usize)>>| {
                while !res_busy[r] {
                    let Some(&h) = queues[r].front() else { break };
                    if dep_count[h] > 0 {
                        break;
                    }
                    queues[r].pop_front();
                    start[h] = t_now;
                    res_busy[r] = true;
                    let t_end = t_now + tasks[h].duration;
                    running.push(Reverse((t_end.to_bits(), h)));
                }
            };
        for r in 0..g.num_resources() {
            start_compute(
                r,
                t_now,
                &mut queues,
                &mut res_busy,
                &dep_count,
                &mut start,
                &mut running,
            );
        }
        for (id, tr) in (0..n).filter_map(|i| self.transfers.get(&i).map(|t| (i, t))) {
            if dep_count[id] == 0 {
                start[id] = t_now;
                active.push(ActiveTransfer {
                    id,
                    latency_left: tr.alpha,
                    seg: 0,
                    work_left: tr.segments.first().map_or(0.0, |s| s.work),
                });
            }
        }

        while n_done < n {
            // Fair-share rates: a transfer past its latency phase runs at
            // the reciprocal of the most-contended link on its segment.
            let mut usage = vec![0u32; n_links];
            for a in &active {
                if a.latency_left <= 0.0 {
                    for &l in &self.transfers[&a.id].segments[a.seg].links {
                        usage[l] += 1;
                    }
                }
            }
            let share = |a: &ActiveTransfer| -> f64 {
                self.transfers[&a.id].segments[a.seg]
                    .links
                    .iter()
                    .map(|&l| usage[l])
                    .max()
                    .unwrap_or(1)
                    .max(1) as f64
            };

            // Next event: earliest compute end, latency expiry, or drain.
            let mut t_next = running
                .peek()
                .map(|Reverse((bits, _))| f64::from_bits(*bits))
                .unwrap_or(f64::INFINITY);
            for a in &active {
                let cand = if a.latency_left > 0.0 {
                    t_now + a.latency_left
                } else {
                    t_now + a.work_left * share(a)
                };
                t_next = t_next.min(cand);
            }
            assert!(
                t_next.is_finite(),
                "fluid engine deadlock: {} of {} tasks stuck",
                n - n_done,
                n
            );
            let dt = (t_next - t_now).max(0.0);

            // Advance in-flight transfers by dt.
            for a in &mut active {
                if a.latency_left > 0.0 {
                    a.latency_left -= dt;
                    if a.latency_left < EPS {
                        a.latency_left = 0.0;
                    }
                } else {
                    let mu = self.transfers[&a.id].segments[a.seg]
                        .links
                        .iter()
                        .map(|&l| usage[l])
                        .max()
                        .unwrap_or(1)
                        .max(1) as f64;
                    a.work_left -= dt / mu;
                }
            }
            t_now = t_next;

            // Complete compute tasks due now.
            let mut finished: Vec<usize> = Vec::new();
            while let Some(&Reverse((bits, id))) = running.peek() {
                if f64::from_bits(bits) <= t_now + EPS {
                    running.pop();
                    finished.push(id);
                } else {
                    break;
                }
            }
            for id in finished {
                done[id] = true;
                n_done += 1;
                end[id] = t_now;
                res_busy[tasks[id].resource] = false;
                for &j in &dependents[id] {
                    dep_count[j] -= 1;
                }
                // Wake the freed stream and any stream whose head unblocked.
                start_compute(
                    tasks[id].resource,
                    t_now,
                    &mut queues,
                    &mut res_busy,
                    &dep_count,
                    &mut start,
                    &mut running,
                );
                for &j in &dependents[id] {
                    if dep_count[j] == 0 {
                        if let Some(tr) = self.transfers.get(&j) {
                            start[j] = t_now;
                            active.push(ActiveTransfer {
                                id: j,
                                latency_left: tr.alpha,
                                seg: 0,
                                work_left: tr.segments.first().map_or(0.0, |s| s.work),
                            });
                        } else {
                            start_compute(
                                tasks[j].resource,
                                t_now,
                                &mut queues,
                                &mut res_busy,
                                &dep_count,
                                &mut start,
                                &mut running,
                            );
                        }
                    }
                }
            }

            // Drain transfer segments due now (possibly cascading through
            // zero-work segments), completing transfers that ran dry.
            let mut completed: Vec<usize> = Vec::new();
            for a in &mut active {
                if a.latency_left > 0.0 {
                    continue;
                }
                let segs = &self.transfers[&a.id].segments;
                while a.work_left <= EPS {
                    a.seg += 1;
                    if a.seg >= segs.len() {
                        completed.push(a.id);
                        break;
                    }
                    a.work_left = segs[a.seg].work;
                }
            }
            if !completed.is_empty() {
                active.retain(|a| !completed.contains(&a.id));
                for id in completed {
                    done[id] = true;
                    n_done += 1;
                    end[id] = t_now;
                    for &j in &dependents[id] {
                        dep_count[j] -= 1;
                    }
                    for &j in &dependents[id] {
                        if dep_count[j] == 0 {
                            if let Some(tr) = self.transfers.get(&j) {
                                start[j] = t_now;
                                active.push(ActiveTransfer {
                                    id: j,
                                    latency_left: tr.alpha,
                                    seg: 0,
                                    work_left: tr.segments.first().map_or(0.0, |s| s.work),
                                });
                            } else {
                                start_compute(
                                    tasks[j].resource,
                                    t_now,
                                    &mut queues,
                                    &mut res_busy,
                                    &dep_count,
                                    &mut start,
                                    &mut running,
                                );
                            }
                        }
                    }
                }
            }
        }

        tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskSpan {
                start: start[i],
                end: end[i],
                resource: t.resource,
                phase: t.phase,
                meta: t.meta,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareProfile {
        HardwareProfile::rtx2080ti_ib100()
    }

    fn hier(world: usize, gpn: usize) -> HierarchicalModel {
        HierarchicalModel::new(world, HierSpec::islands(gpn), &hw())
    }

    #[test]
    fn hierarchical_allreduce_matches_closed_form_at_zero_contention() {
        // One all-reduce alone on the wire must take exactly what the
        // `with_hierarchical_allreduce` closed form predicts.
        let spec = HierSpec::islands(4);
        let mut net = hier(64, 4);
        let reference = hw().with_hierarchical_allreduce(4, 64, spec.beta_intra, spec.alpha_intra);
        for elems in [1usize, 10_000, 2_500_000, 77_000_000] {
            let mut g = TaskGraph::new(net.num_resources());
            let id = net.push_allreduce(&mut g, elems, &[], Phase::FactorComm, SpanMeta::default());
            let spans = net.execute(&mut g);
            let got = spans[id].end - spans[id].start;
            let want = reference.allreduce.time(elems);
            assert!(
                (got - want).abs() < 1e-12,
                "{elems} elems: fluid {got:.9} vs closed form {want:.9}"
            );
        }
    }

    #[test]
    fn two_transfers_on_one_shared_link_each_take_about_twice_solo() {
        // Two broadcasts rooted on the same island contend on both the
        // island link and the fabric: in the fluid model each runs at half
        // speed the whole way, so both finish at α + 2·(work).
        let mut net = hier(64, 4);
        let d = 2048usize;
        let mut g1 = TaskGraph::new(net.num_resources());
        let solo_id = net.push_bcast(&mut g1, d, 0, &[], Phase::InverseComm, SpanMeta::default());
        let solo = {
            let spans = net.execute(&mut g1);
            spans[solo_id].end - spans[solo_id].start
        };
        let mut net2 = hier(64, 4);
        let mut g2 = TaskGraph::new(net2.num_resources());
        let a = net2.push_bcast(&mut g2, d, 0, &[], Phase::InverseComm, SpanMeta::default());
        let b = net2.push_bcast(&mut g2, d, 1, &[], Phase::InverseComm, SpanMeta::default());
        let spans = net2.execute(&mut g2);
        let alpha = net2.spec.alpha_intra + net2.bcast_inter.alpha;
        for id in [a, b] {
            let took = spans[id].end - spans[id].start;
            let want = alpha + 2.0 * (solo - alpha);
            assert!(
                (took - want).abs() < 1e-12,
                "contended bcast {took:.9} vs 2x-solo {want:.9}"
            );
        }
    }

    #[test]
    fn cross_island_broadcasts_overlap_their_island_phases() {
        // Roots on different islands only share the fabric, so they finish
        // strictly earlier than two same-island broadcasts.
        let d = 2048usize;
        let run = |roots: [usize; 2]| {
            let mut net = hier(64, 4);
            let mut g = TaskGraph::new(net.num_resources());
            let mut ids = Vec::new();
            for r in roots {
                ids.push(net.push_bcast(
                    &mut g,
                    d,
                    r,
                    &[],
                    Phase::InverseComm,
                    SpanMeta::default(),
                ));
            }
            let spans = net.execute(&mut g);
            ids.iter().map(|&i| spans[i].end).fold(0.0, f64::max)
        };
        let same_island = run([0, 1]);
        let cross_island = run([0, 4]);
        assert!(
            cross_island < same_island,
            "cross-island {cross_island:.9} !< same-island {same_island:.9}"
        );
    }

    #[test]
    fn fluid_engine_respects_dependencies_and_stream_order() {
        // compute(0) -> bcast -> compute(0): the transfer waits for its
        // producer; the dependent compute waits for the transfer; stream
        // order holds for the unrelated second task on the same stream.
        let mut net = hier(8, 4);
        let mut g = TaskGraph::new(net.num_resources());
        let c0 = g.push(0, 1e-3, &[], Phase::InverseComp);
        let bc = net.push_bcast(
            &mut g,
            512,
            0,
            &[c0],
            Phase::InverseComm,
            SpanMeta::default(),
        );
        let c1 = g.push(0, 2e-3, &[], Phase::FfBp);
        let c2 = g.push(1, 1e-3, &[bc], Phase::Update);
        let spans = net.execute(&mut g);
        assert!((spans[bc].start - spans[c0].end).abs() < 1e-12);
        assert!((spans[c1].start - spans[c0].end).abs() < 1e-12);
        assert!(spans[c2].start >= spans[bc].end - 1e-12);
    }

    #[test]
    #[should_panic(expected = "the fluid engine honours no earliest start")]
    fn fluid_engine_rejects_an_earliest_start() {
        let net = hier(8, 4);
        let mut g = TaskGraph::new(net.num_resources());
        let t = g.push(0, 1e-3, &[], Phase::FfBp);
        g.set_earliest(t, 2e-3);
        net.execute(&mut g);
    }

    #[test]
    fn serialized_queue_matches_direct_graph_costs() {
        // The flat model's pushes are plain α-β durations on the shared
        // link, and its planning models carry the contention uplift the
        // legacy planner used.
        let mut net =
            SerializedQueue::new(4, hw().allreduce, hw().bcast, hw().overlap_penalty, false);
        let mut g = TaskGraph::new(net.num_resources());
        let ar = net.push_allreduce(&mut g, 1000, &[], Phase::GradComm, SpanMeta::default());
        let bc = net.push_bcast(&mut g, 100, 2, &[], Phase::InverseComm, SpanMeta::default());
        assert_eq!(g.tasks()[ar].resource, 4);
        assert_eq!(g.tasks()[bc].resource, 4);
        assert!((g.tasks()[ar].duration - hw().allreduce.time(1000)).abs() < 1e-15);
        assert!((g.tasks()[bc].duration - hw().bcast.time_packed(100)).abs() < 1e-15);
        let plan = net.plan_allreduce();
        assert!((plan.alpha - hw().allreduce.alpha * 1.6).abs() < 1e-15);
        assert_eq!(net.plan_bcast(), hw().bcast);
    }

    #[test]
    fn topology_labels_are_stable() {
        assert_eq!(NetTopology::serialized().label(), "flat");
        assert_eq!(
            NetTopology::per_root_parallel().label(),
            "flat-root-parallel"
        );
        assert_eq!(NetTopology::hierarchical(4).label(), "hier4");
        assert_eq!(NetTopology::hierarchical(4).gpus_per_node(), 4);
        assert_eq!(NetTopology::serialized().gpus_per_node(), 1);
    }

    #[test]
    fn build_dispatches_on_topology() {
        let flat = build(&NetTopology::serialized(), &hw(), 8);
        assert_eq!(flat.num_resources(), 9);
        let rp = build(&NetTopology::per_root_parallel(), &hw(), 8);
        assert_eq!(rp.num_resources(), 17);
        let h = build(&NetTopology::hierarchical(4), &hw(), 8);
        assert_eq!(h.num_resources(), 9);
        assert_eq!(h.gpus_per_node(), 4);
    }
}
