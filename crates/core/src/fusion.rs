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
//! all-reduce) for the four strategies of Fig. 10 and prices the resulting
//! timeline on the [`crate::graph`] engine.
//!
//! Eq. 15 asks only when the last byte lands. What a merge serialises after
//! it is priced by an optional per-factor *tail* ([`FactorPipeline::with_tail`]):
//! the compute a factor's landing unblocks, queued on one compute thread
//! beside the serial link. Every plan is scored by `finish = max(link end,
//! compute end)`; with zero tails and no trailing messages that is the
//! paper's timeline, so every plan is too.

use crate::error::KfacError;
use crate::graph::TaskGraph;
use crate::perf::AlphaBetaModel;
use spdkfac_obs::Phase;

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
/// elements on the wire. Once its message lands, `tail[i]` seconds of
/// compute become runnable — after `trailing[i]` more elements, sent right
/// behind the factor's message, have landed too — on a compute thread that
/// is free from `compute_free_at` on. All zero unless set by
/// [`FactorPipeline::with_tail`].
///
/// The fields are private, so the invariants the constructors check hold
/// for the pipeline's whole life:
///
/// ```compile_fail
/// use spdkfac_core::fusion::FactorPipeline;
///
/// let mut p = FactorPipeline::new(vec![0.0, 1.0], vec![4, 4]).unwrap();
/// p.sizes.pop(); // error: field `sizes` is private
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FactorPipeline {
    ready: Vec<f64>,
    sizes: Vec<usize>,
    tail: Vec<f64>,
    trailing: Vec<usize>,
    compute_free_at: f64,
}

/// `Err` naming `what` unless every entry of `times` is finite and ≥ 0.
fn check_times(what: &str, times: &[f64]) -> Result<(), KfacError> {
    match times.iter().position(|t| !(t.is_finite() && *t >= 0.0)) {
        Some(i) => Err(KfacError::InvalidPlanInput {
            reason: format!("{what}[{i}] = {} is not a finite time ≥ 0", times[i]),
        }),
        None => Ok(()),
    }
}

/// `Err` unless `len` is the pipeline's length `n`.
fn check_len(what: &str, len: usize, n: usize) -> Result<(), KfacError> {
    if len == n {
        return Ok(());
    }
    Err(KfacError::InvalidPlanInput {
        reason: format!("{what} has {len} entries for {n} factors"),
    })
}

impl FactorPipeline {
    /// Creates a pipeline, with no tails, after validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::InvalidPlanInput`] when lengths mismatch, a
    /// ready time is not finite or negative, or ready times decrease.
    pub fn new(ready: Vec<f64>, sizes: Vec<usize>) -> Result<Self, KfacError> {
        check_len("sizes", sizes.len(), ready.len())?;
        check_times("ready", &ready)?;
        if ready.windows(2).any(|w| w[1] < w[0]) {
            return Err(KfacError::InvalidPlanInput {
                reason: "ready times must be non-decreasing".into(),
            });
        }
        let n = ready.len();
        Ok(FactorPipeline {
            ready,
            sizes,
            tail: vec![0.0; n],
            trailing: vec![0; n],
            compute_free_at: 0.0,
        })
    }

    /// The pipeline with a tail per factor: `tail[i]` seconds of compute
    /// that factor `i`'s landing unblocks, which also wait for
    /// `trailing[i]` elements sent right behind the factor's bucket (its
    /// layer's gradients, say), on a compute thread that can first run a
    /// tail at `compute_free_at`.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::InvalidPlanInput`] when a length is not the
    /// pipeline's, or a time is not finite or negative.
    pub fn with_tail(
        self,
        tail: Vec<f64>,
        trailing: Vec<usize>,
        compute_free_at: f64,
    ) -> Result<Self, KfacError> {
        check_len("tail", tail.len(), self.len())?;
        check_len("trailing", trailing.len(), self.len())?;
        check_times("tail", &tail)?;
        check_times("compute_free_at", &[compute_free_at])?;
        Ok(FactorPipeline {
            tail,
            trailing,
            compute_free_at,
            ..self
        })
    }

    /// Ready time per factor, non-decreasing.
    pub fn ready(&self) -> &[f64] {
        &self.ready
    }

    /// Packed element count per factor.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
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
    /// One message per factor of an `n`-factor pass (`LayerWise`).
    pub(crate) fn one_each(n: usize) -> FusionPlan {
        FusionPlan {
            buckets: (0..n).map(|i| vec![i]).collect(),
        }
    }

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
/// the network still being busy with the previous message — then refines
/// that cut on the [`simulate`]d finish, tails included.
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
        FusionStrategy::LayerWise => return FusionPlan::one_each(n),
        FusionStrategy::Threshold { elems, cycle_s } => walk(n, |bucket, i| {
            let held: usize = bucket.iter().map(|&j| pipeline.sizes[j]).sum();
            let fits = held + pipeline.sizes[i] <= elems;
            fits && pipeline.ready[i] - pipeline.ready[bucket[0]] <= cycle_s
        }),
        FusionStrategy::Optimal => optimal_buckets(pipeline, comm),
    };
    FusionPlan { buckets }
}

/// Cuts factors `0..n` into runs, walking them in order: factor `i` joins
/// the open bucket when `joins(bucket, i)`, and opens the next one
/// otherwise.
fn walk(n: usize, mut joins: impl FnMut(&[usize], usize) -> bool) -> Vec<Vec<usize>> {
    let mut out = vec![vec![0]];
    for i in 1..n {
        let bucket = out.last_mut().expect("a bucket is open");
        if joins(bucket, i) {
            bucket.push(i);
        } else {
            out.push(vec![i]);
        }
    }
    out
}

/// The Eq. 15 greedy walk: merge factor `i` into the current bucket iff it
/// becomes ready within the startup window of the bucket's message
/// (accounting for the network still draining the previous message).
fn greedy_eq15_buckets(pipeline: &FactorPipeline, comm: &AlphaBetaModel) -> Vec<Vec<usize>> {
    let mut net_free = 0.0f64;
    walk(pipeline.len(), |bucket, i| {
        let last = *bucket.last().expect("bucket non-empty");
        let bucket_start = pipeline.ready[last].max(net_free);
        let joins = pipeline.ready[i] < bucket_start + comm.alpha;
        if !joins {
            let elems: usize = bucket.iter().map(|&j| pipeline.sizes[j]).sum();
            net_free = bucket_start + comm.time(elems);
        }
        joins
    })
}

/// Optimal fusion: the Eq. 15 greedy solution refined by merge/split local
/// search on the analytic pipeline objective (finish time — when the last
/// tail is done or the last byte lands, whichever is later — then link end,
/// then message count), seeded with every baseline partition so the result
/// never loses to them on the model. MG-WFBP proves the greedy rule optimal
/// under its assumptions; the refinement recovers optimality when ready-time
/// gaps and message sizes interact (e.g. a huge late factor behind a busy
/// network) and when a merge would serialise tails behind the last byte.
/// Without tails the finish is the link end, so the ordering is Eq. 15's.
fn optimal_buckets(pipeline: &FactorPipeline, comm: &AlphaBetaModel) -> Vec<Vec<usize>> {
    let n = pipeline.len();
    let mut pricer = Pricer::new();
    let mut score = |buckets: &[Vec<usize>]| -> (f64, f64, usize) {
        pricer.run(pipeline, buckets, comm);
        let (link_end, tail_end) = pricer.ends();
        (link_end.max(tail_end), link_end, buckets.len())
    };
    let better = |a: (f64, f64, usize), b: (f64, f64, usize)| -> bool {
        let tie = |x: f64, y: f64| (x - y).abs() < 1e-12;
        if !tie(a.0, b.0) {
            return a.0 < b.0;
        }
        if !tie(a.1, b.1) {
            return a.1 < b.1;
        }
        a.2 < b.2
    };

    let mut seeds: Vec<Vec<Vec<usize>>> = vec![
        greedy_eq15_buckets(pipeline, comm),
        vec![(0..n).collect()],
        (0..n).map(|i| vec![i]).collect(),
    ];
    // A few coarse time-window seeds: threshold fusion without a capacity.
    for window in [2.0 * comm.alpha, 8.0 * comm.alpha, 32.0 * comm.alpha] {
        let windowed = FusionStrategy::Threshold {
            elems: usize::MAX,
            cycle_s: window,
        };
        seeds.push(plan(pipeline, comm, windowed).buckets);
    }

    // Candidate bucketing with its `(finish, link end, message count)` score.
    type Scored = (Vec<Vec<usize>>, (f64, f64, usize));
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

/// Timeline of one simulated pass: when each message occupies the link and
/// when each bucket's tail runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Per-bucket `(start, end)` network occupation — its factor message
    /// and, right behind it, its trailing message — in issue order.
    pub spans: Vec<(f64, f64)>,
    /// Per-bucket `(start, end)` of its tail on the compute thread.
    pub tails: Vec<(f64, f64)>,
    /// Time the last byte lands (0 when nothing is sent).
    pub link_end: f64,
    /// Time the last tail is done (`link_end` when there are none).
    pub tail_end: f64,
    /// `max(link_end, tail_end)`: what the `Optimal` strategy minimises.
    pub finish: f64,
}

/// Prices `plan` over `pipeline` as a [`TaskGraph`] on two serial
/// resources: the network, and the compute thread that runs the tails,
/// free from the pipeline's `compute_free_at`.
///
/// Each message starts when its last member factor is ready and the network
/// is free; messages never overlap each other but freely overlap compute —
/// exactly the Horovod single-queue model the trainers and the simulator
/// share (DESIGN.md §4). A bucket's trailing elements go out as one more
/// message right behind it, and its members' tails run, one bucket after
/// another, once both have landed and the compute thread is free.
pub fn simulate(
    pipeline: &FactorPipeline,
    plan: &FusionPlan,
    comm: &AlphaBetaModel,
) -> PipelineOutcome {
    let mut pricer = Pricer::new();
    pricer.run(pipeline, &plan.buckets, comm);
    let (link_end, tail_end) = pricer.ends();
    let at = |id: usize| pricer.times[id];
    PipelineOutcome {
        spans: pricer
            .ids
            .iter()
            .map(|&(m, l, _)| (at(m).0, at(l).1))
            .collect(),
        tails: pricer.ids.iter().map(|&(.., r)| at(r)).collect(),
        link_end,
        tail_end,
        finish: link_end.max(tail_end),
    }
}

/// One [`TaskGraph`] (resource 0 the link, 1 the compute thread) that every
/// candidate cut is laid out on in turn, keeping its storage.
struct Pricer {
    graph: TaskGraph,
    times: Vec<(f64, f64)>,
    /// Per bucket: its factor message, its last link task and its tail.
    ids: Vec<(usize, usize, usize)>,
}

impl Pricer {
    fn new() -> Self {
        Pricer {
            graph: TaskGraph::new(2),
            times: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// [`simulate`]s the cut `buckets` of `p`, replacing the last candidate.
    fn run(&mut self, p: &FactorPipeline, buckets: &[Vec<usize>], comm: &AlphaBetaModel) {
        let g = &mut self.graph;
        g.clear();
        self.ids.clear();
        for bucket in buckets {
            let ready = bucket
                .iter()
                .map(|&i| p.ready[i])
                .fold(f64::NEG_INFINITY, f64::max);
            let elems: usize = bucket.iter().map(|&i| p.sizes[i]).sum();
            let trailing: usize = bucket.iter().map(|&i| p.trailing[i]).sum();
            let message = g.push(0, comm.time(elems), &[], Phase::FactorComm);
            g.set_earliest(message, ready);
            let landed = if trailing > 0 {
                g.push(0, comm.time(trailing), &[], Phase::GradComm)
            } else {
                message
            };
            let tail: f64 = bucket.iter().map(|&i| p.tail[i]).sum();
            let run = g.push(1, tail, &[landed], Phase::InverseComp);
            g.set_earliest(run, p.compute_free_at);
            self.ids.push((message, landed, run));
        }
        g.times_into(&mut self.times);
    }

    /// When the last cut's last byte lands (0 when it sends nothing) and
    /// when its last tail is done.
    fn ends(&self) -> (f64, f64) {
        let end = |id: usize| self.times[id].1;
        self.ids
            .last()
            .map_or((0.0, 0.0), |&(_, l, r)| (end(l), end(r)))
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
        let p = pipeline(&[0.0, 1.0], &[1, 1]);
        assert!(p.clone().with_tail(vec![0.0], vec![0, 0], 0.0).is_err());
        assert!(p.clone().with_tail(vec![0.0, 0.0], vec![0], 0.0).is_err());
    }

    #[test]
    fn rejects_times_that_are_not_finite_or_negative() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            // `w[1] < w[0]` is false for NaN: the order check alone let it in.
            assert!(
                FactorPipeline::new(vec![0.0, bad], vec![1, 1]).is_err(),
                "{bad}"
            );
            assert!(
                FactorPipeline::new(vec![bad, 1.0], vec![1, 1]).is_err(),
                "{bad}"
            );
            let p = pipeline(&[0.0, 1.0], &[1, 1]);
            let tail = p.clone().with_tail(vec![0.5, bad], vec![0, 0], 0.0);
            assert!(
                matches!(tail, Err(KfacError::InvalidPlanInput { .. })),
                "{bad}"
            );
            assert!(
                p.with_tail(vec![0.5, 0.5], vec![0, 0], bad).is_err(),
                "{bad}"
            );
        }
    }

    /// Every strategy's plan and every [`simulate`] outcome of `p`.
    fn plans(p: &FactorPipeline) -> Vec<(FusionPlan, PipelineOutcome)> {
        let strategies = [
            FusionStrategy::Naive,
            FusionStrategy::LayerWise,
            FusionStrategy::Threshold {
                elems: 40_000,
                cycle_s: 1e-3,
            },
            FusionStrategy::Optimal,
        ];
        let c = AlphaBetaModel::new(1e-4, 8e-8);
        strategies
            .into_iter()
            .map(|s| {
                let plan = plan(p, &c, s);
                let out = simulate(p, &plan, &c);
                (plan, out)
            })
            .collect()
    }

    #[test]
    fn the_benchmarks_f16_g_pass_does_not_end_in_three_wide_layers() {
        // The `G` pass of `deep_mlp(32, 256, 4, 10)` at 2 B/element on a
        // 0.2 Gbit/s link: the 10-wide last layer, then four 256-wide ones
        // (layer 0's `G` last), each followed on the wire by its gradients.
        let ready = [0.10e-3, 0.45e-3, 0.85e-3, 1.30e-3, 1.74e-3];
        let sizes = [55, 32896, 32896, 32896, 32896];
        let trailing = vec![2570, 65792, 65792, 65792, 8448];
        // Inversion + preconditioning per layer; the `A` inversions run
        // ahead of them.
        let tail = vec![0.05e-3, 1.5e-3, 1.5e-3, 1.5e-3, 0.7e-3];
        let bare = pipeline(&ready, &sizes);
        let with_tail = bare.clone().with_tail(tail, trailing, 4.2e-3).unwrap();
        let c = AlphaBetaModel::new(1e-4, 8e-8);
        // Without tails, Eq. 15 fuses the three layers behind the busy link.
        let eq15 = plan(&bare, &c, FusionStrategy::Optimal);
        assert_eq!(eq15.buckets(), &[vec![0], vec![1], vec![2, 3, 4]]);
        // With them, the last bucket no longer carries three wide layers.
        let seen = plan(&with_tail, &c, FusionStrategy::Optimal);
        let last = seen.buckets().last().unwrap();
        assert!(last.len() < 3, "{:?}", seen.buckets());
        // …and its modelled finish beats the tail-free plan's by more than
        // a layer's preconditioning.
        let finish = |plan| simulate(&with_tail, plan, &c).finish;
        assert!(finish(&seen) + 1.5e-3 < finish(&eq15));
        // Zero tails and no trailing elements: the tail-free plans exactly,
        // under every strategy.
        let zero = bare.clone().with_tail(vec![0.0; 5], vec![0; 5], 4.2e-3);
        let zero = plans(&zero.unwrap()).into_iter().map(|(p, _)| p);
        assert!(zero.eq(plans(&bare).into_iter().map(|(p, _)| p)));
    }

    #[test]
    fn a_tail_waits_for_its_bucket_its_trailing_message_and_the_compute_thread() {
        let p = pipeline(&[0.0, 0.1, 5.0], &[10, 10, 10])
            .with_tail(vec![1.0, 2.0, 0.5], vec![5, 0, 100], 3.0)
            .unwrap();
        let c = comm();
        let lw = plan(&p, &c, FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &c);
        // Bucket 0: 0 → 0.6 (factor) → 1.15 (trailing); its tail waits for
        // the compute thread (free at 3) and runs 3 → 4.
        assert!((out.spans[0].1 - 1.15).abs() < 1e-12);
        assert_eq!(out.tails[0], (3.0, 4.0));
        // Bucket 1 lands at 1.75, runs after bucket 0's tail: 4 → 6.
        assert_eq!(out.tails[1], (4.0, 6.0));
        // Bucket 2 lands at 5 + 0.6 + 1.5 = 7.1 and runs 7.1 → 7.6.
        assert!((out.tails[2].0 - 7.1).abs() < 1e-12);
        assert!((out.finish - 7.6).abs() < 1e-12);
        assert!((out.link_end - 7.1).abs() < 1e-12);
        assert_eq!(out.tail_end, out.finish);
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
        let out = simulate(&p, &o, &comm());
        for s in [
            FusionStrategy::Naive,
            FusionStrategy::LayerWise,
            FusionStrategy::Threshold {
                elems: 2000,
                cycle_s: 0.5,
            },
        ] {
            let alt = simulate(&p, &plan(&p, &comm(), s), &comm());
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
        let out = simulate(&p, &o, &comm());
        let lw = simulate(&p, &plan(&p, &comm(), FusionStrategy::LayerWise), &comm());
        let naive = simulate(&p, &plan(&p, &comm(), FusionStrategy::Naive), &comm());
        assert!(out.finish < naive.finish);
        assert!(out.finish <= lw.finish + 1e-12);
        assert!(o.num_messages() >= 2, "last factor needs its own window");
    }

    #[test]
    fn simulate_serialises_messages() {
        let p = pipeline(&[0.0, 0.0], &[10, 10]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm());
        assert_eq!(out.spans.len(), 2);
        // Second message starts exactly when the first ends.
        assert!((out.spans[1].0 - out.spans[0].1).abs() < 1e-12);
    }

    #[test]
    fn simulate_respects_ready_times() {
        let p = pipeline(&[0.0, 5.0], &[1, 1]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm());
        assert!(out.spans[1].0 >= 5.0);
    }

    #[test]
    fn non_overlap_zero_when_comm_fits_inside_compute() {
        let p = pipeline(&[0.0, 100.0], &[1, 1]);
        let lw = plan(&p, &comm(), FusionStrategy::LayerWise);
        let out = simulate(&p, &lw, &comm());
        // First message fully hidden; only the last message sticks out.
        assert!((out.finish - p.ready()[1] - comm().time(1)).abs() < 1e-12);
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
        let lw_out = simulate(&p, &plan(&p, &c, FusionStrategy::LayerWise), &c);
        let ot_out = simulate(&p, &plan(&p, &c, FusionStrategy::Optimal), &c);
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
        let nv = simulate(&p, &plan(&p, &c, FusionStrategy::Naive), &c);
        let ot = simulate(&p, &plan(&p, &c, FusionStrategy::Optimal), &c);
        assert!(ot.finish < nv.finish);
    }

    #[test]
    fn empty_pipeline_is_fine() {
        let p = FactorPipeline::new(vec![], vec![]).unwrap();
        let pl = plan(&p, &comm(), FusionStrategy::Optimal);
        assert_eq!(pl.num_messages(), 0);
        let out = simulate(&p, &pl, &comm());
        assert_eq!((out.link_end, out.tail_end, out.finish), (0.0, 0.0, 0.0));
        assert!(out.spans.is_empty() && out.tails.is_empty());
    }
}
