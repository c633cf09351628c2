//! Pipelining Kronecker-factor communication with dynamic tensor fusion
//! (§IV-A).
//!
//! Factors become ready one at a time as the forward (for `A`) or backward
//! (for `G`) pass progresses. Each factor could be all-reduced immediately
//! (layer-wise), but small messages waste the startup latency `α_ar`
//! (Eq. 14). The paper's rule (Eq. 15) merges factor `l+1` into factor `l`'s
//! message exactly when `l+1` becomes ready before `l`'s message could have
//! effectively started — so merging costs nothing and saves one startup.
//!
//! This module computes **fusion plans** (which consecutive factors share an
//! all-reduce) for the four strategies of Fig. 10 and simulates the
//! resulting communication timeline to obtain non-overlapped communication
//! time.

use crate::error::KfacError;
use crate::perf::AlphaBetaModel;

/// How factors are grouped into all-reduce messages (the Fig. 10 variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusionStrategy {
    /// All factors of a pass in a single message, issued when the last one
    /// is ready (the overlap style of Pauloski et al. / Ueno et al. —
    /// "Naive" in Fig. 10).
    Naive,
    /// One message per factor, issued as soon as it is ready
    /// ("LW w/o TF").
    LayerWise,
    /// Layer-wise with Horovod-style threshold fusion ("LW w/ TTF"):
    /// factors that become ready within one coordination cycle of the
    /// bucket's first member are fused, up to the fusion-buffer capacity
    /// (Horovod defaults: 64 MB ≙ 16 M fp32 elements, 5 ms cycle).
    Threshold {
        /// Fusion-buffer capacity in elements.
        elems: usize,
        /// Coordination-cycle length in seconds.
        cycle_s: f64,
    },
    /// The paper's optimal dynamic fusion driven by Eq. 15 ("SP w/ OTF").
    Optimal,
}

/// A pipeline of factors in communication order: factor `i` becomes ready
/// at `ready[i]` (seconds into the pass) and occupies `sizes[i]` packed
/// elements on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorPipeline {
    /// Monotonically non-decreasing ready times.
    pub ready: Vec<f64>,
    /// Packed element count per factor.
    pub sizes: Vec<usize>,
}

impl FactorPipeline {
    /// Creates a pipeline after validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::InvalidPlanInput`] when lengths mismatch or
    /// ready times decrease.
    pub fn new(ready: Vec<f64>, sizes: Vec<usize>) -> Result<Self, KfacError> {
        if ready.len() != sizes.len() {
            return Err(KfacError::InvalidPlanInput {
                reason: format!(
                    "ready/sizes length mismatch: {} vs {}",
                    ready.len(),
                    sizes.len()
                ),
            });
        }
        if ready.windows(2).any(|w| w[1] < w[0]) {
            return Err(KfacError::InvalidPlanInput {
                reason: "ready times must be non-decreasing".into(),
            });
        }
        Ok(FactorPipeline { ready, sizes })
    }

    /// Number of factors.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// `true` when the pipeline has no factors.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

/// A fusion plan: consecutive factor indices grouped into messages, in
/// issue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    buckets: Vec<Vec<usize>>,
}

impl FusionPlan {
    /// The buckets, each a run of consecutive factor indices.
    pub fn buckets(&self) -> &[Vec<usize>] {
        &self.buckets
    }

    /// Number of messages the plan issues.
    pub fn num_messages(&self) -> usize {
        self.buckets.len()
    }

    /// Checks that the plan is a partition of `0..n` into consecutive runs.
    pub fn is_valid_partition(&self, n: usize) -> bool {
        let mut expect = 0usize;
        for b in &self.buckets {
            if b.is_empty() {
                return false;
            }
            for &i in b {
                if i != expect {
                    return false;
                }
                expect += 1;
            }
        }
        expect == n
    }
}

/// Computes the fusion plan for `pipeline` under `strategy`.
///
/// The `Optimal` strategy implements Eq. 15: walking the factors in ready
/// order, factor `l+1` is merged into the current bucket iff it becomes
/// ready before the bucket's message could effectively start
/// (`ready[l+1] < bucket_start + α_ar`), where the bucket start accounts for
/// the network still being busy with the previous message.
pub fn plan(
    pipeline: &FactorPipeline,
    comm: &AlphaBetaModel,
    strategy: FusionStrategy,
) -> FusionPlan {
    let n = pipeline.len();
    if n == 0 {
        return FusionPlan { buckets: vec![] };
    }
    let buckets = match strategy {
        FusionStrategy::Naive => vec![(0..n).collect()],
        FusionStrategy::LayerWise => (0..n).map(|i| vec![i]).collect(),
        FusionStrategy::Threshold { elems, cycle_s } => {
            let mut out: Vec<Vec<usize>> = Vec::new();
            let mut cur = vec![0usize];
            let mut cur_elems = pipeline.sizes[0];
            let mut cycle_start = pipeline.ready[0];
            for i in 1..n {
                let fits = cur_elems + pipeline.sizes[i] <= elems;
                let same_cycle = pipeline.ready[i] - cycle_start <= cycle_s;
                if fits && same_cycle {
                    cur.push(i);
                    cur_elems += pipeline.sizes[i];
                } else {
                    out.push(std::mem::take(&mut cur));
                    cur = vec![i];
                    cur_elems = pipeline.sizes[i];
                    cycle_start = pipeline.ready[i];
                }
            }
            out.push(cur);
            out
        }
        FusionStrategy::Optimal => optimal_buckets(pipeline, comm),
    };
    FusionPlan { buckets }
}

/// The Eq. 15 greedy walk: merge factor `i` into the current bucket iff it
/// becomes ready within the startup window of the bucket's message
/// (accounting for the network still draining the previous message).
fn greedy_eq15_buckets(pipeline: &FactorPipeline, comm: &AlphaBetaModel) -> Vec<Vec<usize>> {
    let n = pipeline.len();
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut cur = vec![0usize];
    let mut net_free = 0.0f64;
    for i in 1..n {
        let bucket_ready = pipeline.ready[*cur.last().expect("bucket non-empty")];
        let bucket_start = bucket_ready.max(net_free);
        if pipeline.ready[i] < bucket_start + comm.alpha {
            cur.push(i);
        } else {
            let elems: usize = cur.iter().map(|&j| pipeline.sizes[j]).sum();
            net_free = bucket_start + comm.time(elems);
            out.push(std::mem::take(&mut cur));
            cur = vec![i];
        }
    }
    out.push(cur);
    out
}

/// Optimal fusion: the Eq. 15 greedy solution refined by merge/split local
/// search on the analytic pipeline objective (finish time, then message
/// count), seeded with every baseline partition so the result never loses to
/// them on the model. MG-WFBP proves the greedy rule optimal under its
/// assumptions; the refinement recovers optimality when ready-time gaps and
/// message sizes interact (e.g. a huge late factor behind a busy network).
fn optimal_buckets(pipeline: &FactorPipeline, comm: &AlphaBetaModel) -> Vec<Vec<usize>> {
    let n = pipeline.len();
    let score = |buckets: &[Vec<usize>]| -> (f64, usize) {
        let plan = FusionPlan {
            buckets: buckets.to_vec(),
        };
        let out = simulate(pipeline, &plan, comm, 0.0);
        (out.finish, buckets.len())
    };
    let better = |a: (f64, usize), b: (f64, usize)| -> bool {
        a.0 < b.0 - 1e-12 || (a.0 < b.0 + 1e-12 && a.1 < b.1)
    };

    let mut seeds: Vec<Vec<Vec<usize>>> = vec![
        greedy_eq15_buckets(pipeline, comm),
        vec![(0..n).collect()],
        (0..n).map(|i| vec![i]).collect(),
    ];
    // A few coarse time-window seeds.
    for window in [2.0 * comm.alpha, 8.0 * comm.alpha, 32.0 * comm.alpha] {
        let mut out: Vec<Vec<usize>> = Vec::new();
        let mut cur = vec![0usize];
        let mut start = pipeline.ready[0];
        for i in 1..n {
            if pipeline.ready[i] - start <= window {
                cur.push(i);
            } else {
                out.push(std::mem::take(&mut cur));
                cur = vec![i];
                start = pipeline.ready[i];
            }
        }
        out.push(cur);
        seeds.push(out);
    }

    // Candidate bucketing with its `(modelled time, message count)` score.
    type Scored = (Vec<Vec<usize>>, (f64, usize));
    let mut best: Option<Scored> = None;
    for seed in seeds {
        let mut cur = seed;
        let mut cur_score = score(&cur);
        // Hill-climb: merge adjacent buckets or split a bucket while it
        // improves the objective.
        loop {
            let mut improved = false;
            // Merges.
            for i in 0..cur.len().saturating_sub(1) {
                let mut cand = cur.clone();
                let tail = cand.remove(i + 1);
                cand[i].extend(tail);
                let s = score(&cand);
                if better(s, cur_score) {
                    cur = cand;
                    cur_score = s;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            // Splits.
            'outer: for i in 0..cur.len() {
                if cur[i].len() < 2 {
                    continue;
                }
                for cut in 1..cur[i].len() {
                    let mut cand = cur.clone();
                    let right = cand[i].split_off(cut);
                    cand.insert(i + 1, right);
                    let s = score(&cand);
                    if better(s, cur_score) {
                        cur = cand;
                        cur_score = s;
                        improved = true;
                        break 'outer;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        match &best {
            Some((_, bs)) if !better(cur_score, *bs) => {}
            _ => best = Some((cur, cur_score)),
        }
    }
    best.expect("at least one seed").0
}

/// Timeline of one simulated pass: when each message starts/ends and how
/// much communication failed to hide behind compute.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Per-bucket `(start, end)` network occupation, in issue order.
    pub spans: Vec<(f64, f64)>,
    /// Time the last message completes.
    pub finish: f64,
    /// Time the compute pass completes (`ready.last()`).
    pub compute_end: f64,
    /// Communication time not hidden by compute: `max(0, finish − compute_end)`.
    pub non_overlapped: f64,
}

/// Simulates the serialised network executing `plan` over `pipeline`
/// starting with the network free at `net_free_at`.
///
/// Each message starts when its last member factor is ready and the network
/// is free; messages never overlap each other but freely overlap compute —
/// exactly the Horovod single-queue model the trainers and the simulator
/// share (DESIGN.md §4).
pub fn simulate(
    pipeline: &FactorPipeline,
    plan: &FusionPlan,
    comm: &AlphaBetaModel,
    net_free_at: f64,
) -> PipelineOutcome {
    let mut net_free = net_free_at;
    let mut spans = Vec::with_capacity(plan.buckets.len());
    for bucket in &plan.buckets {
        let ready = bucket
            .iter()
            .map(|&i| pipeline.ready[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let start = ready.max(net_free);
        let elems: usize = bucket.iter().map(|&i| pipeline.sizes[i]).sum();
        let end = start + comm.time(elems);
        spans.push((start, end));
        net_free = end;
    }
    let compute_end = pipeline.ready.last().copied().unwrap_or(0.0);
    let finish = spans.last().map(|&(_, e)| e).unwrap_or(net_free_at);
    PipelineOutcome {
        spans,
        finish,
        compute_end,
        non_overlapped: (finish - compute_end).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm() -> AlphaBetaModel {
        AlphaBetaModel::new(0.5, 0.01) // α = 0.5 s, β = 0.01 s/elem (toy units)
    }

    fn pipeline(ready: &[f64], sizes: &[usize]) -> FactorPipeline {
        FactorPipeline::new(ready.to_vec(), sizes.to_vec()).unwrap()
    }

    #[test]
    fn rejects_inconsistent_inputs() {
        assert!(FactorPipeline::new(vec![0.0, 1.0], vec![1]).is_err());
        assert!(FactorPipeline::new(vec![1.0, 0.5], vec![1, 1]).is_err());
    }

    #[test]
    fn layerwise_is_singletons_naive_is_one() {
        let p = pipeline(&[0.0, 1.0, 2.0], &[10, 10, 10]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        assert_eq!(lw.num_messages(), 3);
        let nv = plan(&p, &comm(), FusionStrategy::Naive);
        assert_eq!(nv.num_messages(), 1);
        assert!(lw.is_valid_partition(3));
        assert!(nv.is_valid_partition(3));
    }

    #[test]
    fn threshold_splits_at_capacity() {
        let p = pipeline(&[0.0, 0.0, 0.0, 0.0], &[6, 6, 6, 6]);
        let t = plan(
            &p,
            &comm(),
            FusionStrategy::Threshold {
                elems: 12,
                cycle_s: 100.0,
            },
        );
        assert_eq!(t.num_messages(), 2);
        assert_eq!(t.buckets()[0], vec![0, 1]);
        assert_eq!(t.buckets()[1], vec![2, 3]);
    }

    #[test]
    fn optimal_merges_factors_ready_within_startup() {
        // Factors 0 and 1 ready 0.1 s apart with α = 0.5 s ⇒ merged.
        // Factor 2 ready much later ⇒ its own message.
        let p = pipeline(&[0.0, 0.1, 10.0], &[1, 1, 1]);
        let o = plan(&p, &comm(), FusionStrategy::Optimal);
        assert_eq!(o.buckets(), &[vec![0, 1], vec![2]]);
    }

    #[test]
    fn optimal_accounts_for_busy_network() {
        // A huge factor 0 followed by two tiny stragglers: sending factor 0
        // immediately and fusing the stragglers dominates delaying factor 0
        // (the planner must not hold the big message back for them).
        let p = pipeline(&[0.0, 0.2, 1.0], &[1000, 1, 1]);
        let o = plan(&p, &comm(), FusionStrategy::Optimal);
        let out = simulate(&p, &o, &comm(), 0.0);
        for s in [
            FusionStrategy::Naive,
            FusionStrategy::LayerWise,
            FusionStrategy::Threshold {
                elems: 2000,
                cycle_s: 0.5,
            },
        ] {
            let alt = simulate(&p, &plan(&p, &comm(), s), &comm(), 0.0);
            assert!(out.finish <= alt.finish + 1e-9, "{s:?} beat Optimal");
        }
        // The big factor goes out alone; the stragglers share one message.
        assert_eq!(o.buckets()[0], vec![0]);
        assert_eq!(o.num_messages(), 2);
    }

    #[test]
    fn optimal_splits_when_spacing_exceeds_startup() {
        // Tiny factors spaced far apart: the last factor must not wait for a
        // fused mega-message (Naive loses); the planner may still merge the
        // earlier factors when that costs nothing.
        let p = pipeline(&[0.0, 2.0, 4.0], &[1, 1, 1]);
        let o = plan(&p, &comm(), FusionStrategy::Optimal);
        let out = simulate(&p, &o, &comm(), 0.0);
        let lw = simulate(
            &p,
            &plan(&p, &comm(), FusionStrategy::LayerWise),
            &comm(),
            0.0,
        );
        let naive = simulate(&p, &plan(&p, &comm(), FusionStrategy::Naive), &comm(), 0.0);
        assert!(out.finish < naive.finish);
        assert!(out.finish <= lw.finish + 1e-12);
        assert!(o.num_messages() >= 2, "last factor needs its own window");
    }

    #[test]
    fn simulate_serialises_messages() {
        let p = pipeline(&[0.0, 0.0], &[10, 10]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm(), 0.0);
        assert_eq!(out.spans.len(), 2);
        // Second message starts exactly when the first ends.
        assert!((out.spans[1].0 - out.spans[0].1).abs() < 1e-12);
    }

    #[test]
    fn simulate_respects_ready_times() {
        let p = pipeline(&[0.0, 5.0], &[1, 1]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm(), 0.0);
        assert!(out.spans[1].0 >= 5.0);
    }

    #[test]
    fn non_overlap_zero_when_comm_fits_inside_compute() {
        let p = pipeline(&[0.0, 100.0], &[1, 1]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm(), 0.0);
        // First message fully hidden; only the last message sticks out.
        assert!((out.non_overlapped - comm().time(1)).abs() < 1e-12);
    }

    #[test]
    fn optimal_beats_layerwise_on_startup_bound_pipeline() {
        // Many tiny factors arriving back-to-back: layer-wise pays n·α,
        // optimal pays ~1·α.
        let n = 20;
        let ready: Vec<f64> = (0..n).map(|i| i as f64 * 0.01).collect();
        let sizes = vec![1usize; n];
        let p = FactorPipeline::new(ready, sizes).unwrap();
        let c = comm();
        let lw_out = simulate(&p, &plan(&p, &c, FusionStrategy::LayerWise), &c, 0.0);
        let ot_out = simulate(&p, &plan(&p, &c, FusionStrategy::Optimal), &c, 0.0);
        assert!(
            ot_out.finish < lw_out.finish * 0.25,
            "optimal {:.3} vs layerwise {:.3}",
            ot_out.finish,
            lw_out.finish
        );
    }

    #[test]
    fn optimal_beats_naive_on_spread_pipeline() {
        // Large factors arriving far apart: naive waits for the last one
        // before sending anything; optimal hides earlier messages.
        let p = pipeline(&[0.0, 10.0, 20.0], &[500, 500, 500]);
        let c = comm();
        let nv = simulate(&p, &plan(&p, &c, FusionStrategy::Naive), &c, 0.0);
        let ot = simulate(&p, &plan(&p, &c, FusionStrategy::Optimal), &c, 0.0);
        assert!(ot.finish < nv.finish);
        assert!(ot.non_overlapped < nv.non_overlapped);
    }

    #[test]
    fn empty_pipeline_is_fine() {
        let p = FactorPipeline::new(vec![], vec![]).unwrap();
        let pl = plan(&p, &comm(), FusionStrategy::Optimal);
        assert_eq!(pl.num_messages(), 0);
        let out = simulate(&p, &pl, &comm(), 3.0);
        assert_eq!(out.finish, 3.0);
        assert_eq!(out.non_overlapped, 3.0); // nothing computed either
    }
}
