//! Online cost-model calibration from recorded span streams.
//!
//! LBP (Algorithm 1) and dynamic tensor fusion (Eq. 15) both decide from
//! *a-priori* cost models: [`AlphaBetaModel`] for collectives (Eq. 14/27)
//! and [`ExpInverseModel`] for inversions (Eq. 26). The paper fits those
//! models offline (Fig. 7/8); this module closes the loop online:
//!
//! 1. **Ingest** — measured `(size, seconds)` samples are streamed out of a
//!    [`Recorder`]'s spans into rolling windows, keyed by operation kind.
//!    Collective spans carry their element count and edge shape in
//!    [`spdkfac_obs::SpanMeta`] (`Join` → all-reduce, `FanOut` →
//!    broadcast); per-tensor `InverseComp` spans carry the tensor dimension.
//! 2. **Refit** — each window is re-fit with the matching least-squares
//!    fitter from [`crate::perf`], guarded so a degenerate window (too few
//!    samples, a single distinct size, non-positive times) keeps the
//!    previous fit instead of panicking.
//! 3. **Report** — predicted-vs-measured residuals and parameter drift are
//!    exported through a [`MetricsRegistry`]. The refit is a
//!    [`Costs`] record: *would the drift flip a decision?* is
//!    [`Planner::plan`](crate::runtime::Planner::plan) under it compared
//!    with the plan in force, and acting on the answer is the re-plan
//!    barrier's job (see [`crate::runtime`]).

use crate::perf::{AlphaBetaModel, ExpInverseModel};
use crate::runtime::Costs;
use spdkfac_obs::{CollEdge, MetricsRegistry, Phase, Recorder, Span};

/// Which rolling sample window a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Fused factor / gradient all-reduces: `(elements, seconds)`.
    AllReduce,
    /// Inverse-result broadcasts: `(elements, seconds)`.
    Broadcast,
    /// Matrix inversions: `(dimension, seconds)`.
    Inverse,
    /// All-reduces sized in *post-encoding wire bytes*: `(bytes, seconds)`.
    /// Under a compressed wire format the per-element fit conflates codec
    /// choice with link speed; the per-byte fit stays format-independent.
    AllReduceWire,
    /// Wire codec CPU cost: `(elements, codec seconds)`. Zero-duration
    /// samples (the f64 pass-through) are rejected like all others, so this
    /// window only fills under compressed formats.
    Encode,
}

impl SampleKind {
    /// Every kind, in display order.
    pub const ALL: [SampleKind; 5] = [
        SampleKind::AllReduce,
        SampleKind::Broadcast,
        SampleKind::Inverse,
        SampleKind::AllReduceWire,
        SampleKind::Encode,
    ];

    /// Metric-name component (`calib/<name>/...`).
    pub fn name(self) -> &'static str {
        match self {
            SampleKind::AllReduce => "allreduce",
            SampleKind::Broadcast => "broadcast",
            SampleKind::Inverse => "inverse",
            SampleKind::AllReduceWire => "allreduce_wire",
            SampleKind::Encode => "encode",
        }
    }
}

/// A bounded FIFO of `(size, seconds)` measurements.
#[derive(Debug, Clone)]
struct SampleWindow {
    cap: usize,
    samples: Vec<(usize, f64)>,
}

impl SampleWindow {
    fn new(cap: usize) -> Self {
        SampleWindow {
            cap: cap.max(2),
            samples: Vec::new(),
        }
    }

    fn push(&mut self, size: usize, secs: f64) {
        if !secs.is_finite() || secs <= 0.0 {
            return; // fitters require positive, finite times
        }
        if self.samples.len() == self.cap {
            self.samples.remove(0);
        }
        self.samples.push((size, secs));
    }

    fn distinct_sizes(&self) -> usize {
        let mut sizes: Vec<usize> = self.samples.iter().map(|&(s, _)| s).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes.len()
    }

    /// `true` when a least-squares line through the window is well-posed.
    fn fittable(&self) -> bool {
        self.samples.len() >= 2 && self.distinct_sizes() >= 2
    }
}

/// Streams measured span durations into rolling model refits. See the
/// module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct Calibrator {
    baseline_comp: ExpInverseModel,
    baseline_comm: AlphaBetaModel,
    allreduce: SampleWindow,
    broadcast: SampleWindow,
    inverse: SampleWindow,
    allreduce_wire: SampleWindow,
    encode: SampleWindow,
    /// The latest fit of every line whose window allowed one (never ready
    /// times: those are the trainer's to measure).
    refit: Costs,
    broadcast_is_prior: bool,
}

/// Default rolling-window capacity (samples per kind).
pub const DEFAULT_WINDOW: usize = 512;

impl Calibrator {
    /// Creates a calibrator around the baseline models a trainer planned
    /// with (`DistributedConfig::{comp_model, comm_model}`).
    pub fn new(baseline_comp: ExpInverseModel, baseline_comm: AlphaBetaModel) -> Self {
        Self::with_window(baseline_comp, baseline_comm, DEFAULT_WINDOW)
    }

    /// As [`Calibrator::new`] with an explicit rolling-window capacity.
    pub fn with_window(
        baseline_comp: ExpInverseModel,
        baseline_comm: AlphaBetaModel,
        window: usize,
    ) -> Self {
        Calibrator {
            baseline_comp,
            baseline_comm,
            allreduce: SampleWindow::new(window),
            broadcast: SampleWindow::new(window),
            inverse: SampleWindow::new(window),
            allreduce_wire: SampleWindow::new(window),
            encode: SampleWindow::new(window),
            refit: Costs::default(),
            broadcast_is_prior: false,
        }
    }

    /// Adds one measurement directly.
    pub fn push(&mut self, kind: SampleKind, size: usize, secs: f64) {
        match kind {
            SampleKind::AllReduce => self.allreduce.push(size, secs),
            SampleKind::Broadcast => self.broadcast.push(size, secs),
            SampleKind::Inverse => self.inverse.push(size, secs),
            SampleKind::AllReduceWire => self.allreduce_wire.push(size, secs),
            SampleKind::Encode => self.encode.push(size, secs),
        }
    }

    /// Number of samples currently held for `kind`.
    pub fn len(&self, kind: SampleKind) -> usize {
        match kind {
            SampleKind::AllReduce => self.allreduce.samples.len(),
            SampleKind::Broadcast => self.broadcast.samples.len(),
            SampleKind::Inverse => self.inverse.samples.len(),
            SampleKind::AllReduceWire => self.allreduce_wire.samples.len(),
            SampleKind::Encode => self.encode.samples.len(),
        }
    }

    /// `true` when no samples have been ingested at all.
    pub fn is_empty(&self) -> bool {
        SampleKind::ALL.iter().all(|&k| self.len(k) == 0)
    }

    /// Streams every sized span in `spans` into the matching window and
    /// returns the number of samples ingested. Spans are classified by
    /// their [`spdkfac_obs::SpanMeta`]: collective edges `Join` → all-reduce
    /// and `FanOut` → broadcast (sized in elements), and `InverseComp`
    /// compute spans → inversions (sized in tensor dimension). Spans
    /// without a size are skipped — they carry no calibration signal.
    pub fn ingest_spans(&mut self, spans: &[Span]) -> usize {
        let mut n = 0usize;
        for s in spans {
            let Some(size) = s.meta.size else { continue };
            let secs = s.end - s.start;
            let kind = match s.meta.edge {
                Some(CollEdge::Join) => Some(SampleKind::AllReduce),
                Some(CollEdge::FanOut { .. }) => Some(SampleKind::Broadcast),
                None if s.phase == Phase::InverseComp => Some(SampleKind::Inverse),
                None => None,
            };
            if let Some(k) = kind {
                if secs.is_finite() && secs > 0.0 {
                    self.push(k, size, secs);
                    n += 1;
                }
                // Wire-aware side channels: all-reduce spans re-sampled in
                // post-encoding bytes, and the codec CPU cost in elements.
                // Both come from the comm thread's `OpCodecStats` via the
                // span meta; the f64 pass-through yields zero codec seconds,
                // which the window rejects at the door.
                if k == SampleKind::AllReduce && secs.is_finite() && secs > 0.0 {
                    if let Some(wb) = s.meta.wire_bytes {
                        self.push(SampleKind::AllReduceWire, wb as usize, secs);
                        n += 1;
                    }
                    if let Some(cs) = s.meta.codec_secs {
                        if cs.is_finite() && cs > 0.0 {
                            self.push(SampleKind::Encode, size, cs);
                            n += 1;
                        }
                    }
                }
            }
        }
        n
    }

    /// [`Calibrator::ingest_spans`] over everything a recorder holds.
    pub fn ingest_recorder(&mut self, rec: &Recorder) -> usize {
        self.ingest_spans(&rec.spans())
    }

    /// Re-fits every window that is currently well-posed; windows that are
    /// not keep their previous fit. Returns the refreshed models.
    ///
    /// Broadcast cold-start: when the broadcast window cannot support a fit
    /// (all-NCT runs never broadcast inverse results) but an all-reduce fit
    /// exists, the broadcast model is seeded from the all-reduce line as a
    /// prior — both are α-β collectives over the same wire — and
    /// [`Calibrator::broadcast_is_prior`] reads `true`. A later genuine
    /// broadcast fit replaces the prior and clears the flag.
    pub fn refit(&mut self) -> &Costs {
        if self.allreduce.fittable() {
            self.refit.allreduce = Some(AlphaBetaModel::fit(&self.allreduce.samples));
        }
        if self.broadcast.fittable() {
            self.refit.broadcast = Some(AlphaBetaModel::fit(&self.broadcast.samples));
            self.broadcast_is_prior = false;
        } else if self.refit.broadcast.is_none() || self.broadcast_is_prior {
            if let Some(ar) = self.refit.allreduce {
                self.refit.broadcast = Some(ar);
                self.broadcast_is_prior = true;
            }
        }
        if self.inverse.fittable() {
            self.refit.inverse = Some(ExpInverseModel::fit(&self.inverse.samples));
        }
        if self.allreduce_wire.fittable() {
            self.refit.allreduce_wire = Some(AlphaBetaModel::fit(&self.allreduce_wire.samples));
        }
        if self.encode.fittable() {
            self.refit.encode = Some(AlphaBetaModel::fit(&self.encode.samples));
        }
        &self.refit
    }

    /// The latest refit models (possibly all `None` before any refit).
    pub fn models(&self) -> &Costs {
        &self.refit
    }

    /// `true` when the broadcast line was seeded from the all-reduce fit
    /// rather than fit from broadcast samples. All-NCT runs (small models,
    /// no CT tensors) never execute an inverse broadcast, so their
    /// broadcast window stays empty; the all-reduce line is the best
    /// available stand-in for `t_comm` and keeps re-planning well-posed.
    pub fn broadcast_is_prior(&self) -> bool {
        self.broadcast_is_prior
    }

    /// Exports calibration health to `m`:
    ///
    /// - `calib/<kind>/samples` — gauge, current window fill;
    /// - `calib/<kind>/residual` — gauge, mean relative error of the
    ///   *baseline* model on the window (`|pred − meas| / meas`);
    /// - `calib/<kind>/residual_refit` — gauge, same for the refit model;
    /// - `calib/<kind>/drift` — histogram of per-sample baseline relative
    ///   errors (the drift distribution, not just its mean);
    /// - `calib/comm/alpha_ratio`, `calib/comm/beta_ratio` — gauges, refit
    ///   all-reduce parameters relative to baseline (1.0 = no drift);
    /// - `calib/inverse/alpha_ratio`, `calib/inverse/beta_delta` — gauges,
    ///   refit inversion-model drift (β is an exponent, so its *difference*
    ///   is reported).
    pub fn publish_metrics(&self, m: &MetricsRegistry) {
        let kinds = [
            (SampleKind::AllReduce, &self.allreduce),
            (SampleKind::Broadcast, &self.broadcast),
            (SampleKind::Inverse, &self.inverse),
            (SampleKind::AllReduceWire, &self.allreduce_wire),
            (SampleKind::Encode, &self.encode),
        ];
        for (kind, win) in kinds {
            let name = kind.name();
            m.gauge(&format!("calib/{name}/samples"))
                .set(win.samples.len() as f64);
            // The baseline comm model is per *element*; wire samples are in
            // bytes (8 B/element under the baseline's f64 assumption), and
            // codec cost has no baseline at all (the baseline plans as if
            // encoding were free).
            let baseline_pred = |size: usize| -> Option<f64> {
                match kind {
                    SampleKind::AllReduce => Some(self.baseline_comm.time(size)),
                    SampleKind::Broadcast => Some(self.baseline_comm.time(size)),
                    SampleKind::Inverse => Some(self.baseline_comp.time(size)),
                    SampleKind::AllReduceWire => Some(self.baseline_comm.time(size / 8)),
                    SampleKind::Encode => None,
                }
            };
            let refit_pred = |size: usize| -> Option<f64> {
                match kind {
                    SampleKind::AllReduce => self.refit.allreduce.as_ref().map(|f| f.time(size)),
                    SampleKind::Broadcast => self.refit.broadcast.as_ref().map(|f| f.time(size)),
                    SampleKind::Inverse => self.refit.inverse.as_ref().map(|f| f.time(size)),
                    SampleKind::AllReduceWire => {
                        self.refit.allreduce_wire.as_ref().map(|f| f.time(size))
                    }
                    SampleKind::Encode => self.refit.encode.as_ref().map(|f| f.time(size)),
                }
            };
            if !win.samples.is_empty() {
                let drift_hist = m.histogram(&format!("calib/{name}/drift"));
                let mut base_sum = 0.0;
                let mut base_n = 0usize;
                let mut refit_sum = 0.0;
                let mut refit_n = 0usize;
                for &(size, secs) in &win.samples {
                    if let Some(p) = baseline_pred(size) {
                        let rel = (p - secs).abs() / secs;
                        base_sum += rel;
                        base_n += 1;
                        drift_hist.observe(rel);
                    }
                    if let Some(p) = refit_pred(size) {
                        refit_sum += (p - secs).abs() / secs;
                        refit_n += 1;
                    }
                }
                if base_n > 0 {
                    m.gauge(&format!("calib/{name}/residual"))
                        .set(base_sum / base_n as f64);
                }
                if refit_n > 0 {
                    m.gauge(&format!("calib/{name}/residual_refit"))
                        .set(refit_sum / refit_n as f64);
                }
            }
        }
        if let Some(ar) = &self.refit.allreduce {
            m.gauge("calib/comm/alpha_ratio")
                .set(ar.alpha / self.baseline_comm.alpha);
            m.gauge("calib/comm/beta_ratio")
                .set(ar.beta / self.baseline_comm.beta);
        }
        if self.refit.broadcast.is_some() {
            m.gauge("calib/broadcast/prior")
                .set(f64::from(u8::from(self.broadcast_is_prior)));
        }
        if let Some(inv) = &self.refit.inverse {
            m.gauge("calib/inverse/alpha_ratio")
                .set(inv.alpha / self.baseline_comp.alpha);
            m.gauge("calib/inverse/beta_delta")
                .set(inv.beta - self.baseline_comp.beta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{Algorithm, DistributedConfig};
    use crate::runtime::{count_placement_flips, PlanEpoch, Planner};
    use spdkfac_obs::SpanMeta;
    use std::borrow::Cow;

    fn comm() -> AlphaBetaModel {
        AlphaBetaModel::new(2e-4, 2e-9)
    }

    fn comp() -> ExpInverseModel {
        ExpInverseModel::new(5e-5, 2e-3)
    }

    fn span(phase: Phase, edge: Option<CollEdge>, size: usize, start: f64, end: f64) -> Span {
        Span {
            track: 0,
            phase,
            label: Cow::Borrowed(""),
            start,
            end,
            meta: SpanMeta {
                edge,
                seq: None,
                size: Some(size),
                ..SpanMeta::default()
            },
        }
    }

    #[test]
    fn ingest_routes_by_meta() {
        let mut c = Calibrator::new(comp(), comm());
        let spans = vec![
            span(Phase::FactorComm, Some(CollEdge::Join), 100, 0.0, 0.1),
            span(
                Phase::InverseComm,
                Some(CollEdge::FanOut { root: 0 }),
                50,
                0.1,
                0.2,
            ),
            span(Phase::InverseComp, None, 32, 0.2, 0.3),
            // unsized spans, and sized ones that are neither a collective
            // nor an inversion, carry no calibration signal
            Span {
                track: 0,
                phase: Phase::FfBp,
                label: Cow::Borrowed(""),
                start: 0.0,
                end: 1.0,
                meta: SpanMeta::default(),
            },
            span(Phase::FactorComp, None, 9, 0.3, 0.4),
        ];
        assert_eq!(c.ingest_spans(&spans), 3);
        assert_eq!(c.len(SampleKind::AllReduce), 1);
        assert_eq!(c.len(SampleKind::Broadcast), 1);
        assert_eq!(c.len(SampleKind::Inverse), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn consecutive_barriers_ingest_each_span_once() {
        // What the re-plan barrier does: drain the recorder through one
        // flush cursor. The second barrier sees only what was recorded
        // since the first — including a span that *ended* before the first
        // barrier but was written after it (another rank's late writer),
        // which a "newer than the last barrier" time filter would lose.
        let rec = Recorder::new(1);
        let mut c = Calibrator::new(comp(), comm());
        let mut cursor = rec.flush_cursor();
        let join =
            |size, start, end| span(Phase::FactorComm, Some(CollEdge::Join), size, start, end);
        rec.record(join(64, 0.0, 0.1));
        rec.record(join(128, 0.1, 0.3));
        assert_eq!(c.ingest_spans(&rec.flush_since(&mut cursor)), 2);
        rec.record(join(256, 0.05, 0.2));
        rec.record(join(512, 0.3, 0.6));
        assert_eq!(c.ingest_spans(&rec.flush_since(&mut cursor)), 2);
        assert_eq!(c.ingest_spans(&rec.flush_since(&mut cursor)), 0);
        assert_eq!(c.len(SampleKind::AllReduce), 4);
    }

    #[test]
    fn refit_recovers_planted_models() {
        let mut c = Calibrator::new(comp(), comm());
        let true_comm = AlphaBetaModel::new(1e-3, 5e-8);
        for m in [64usize, 256, 1024, 4096, 16384] {
            c.push(SampleKind::AllReduce, m, true_comm.time(m));
        }
        let true_comp = ExpInverseModel::new(2e-4, 1.5e-3);
        for d in [32usize, 128, 512, 1024] {
            c.push(SampleKind::Inverse, d, true_comp.time(d));
        }
        let models = c.refit();
        let ar = models.allreduce.as_ref().expect("allreduce fit");
        assert!((ar.alpha - true_comm.alpha).abs() / true_comm.alpha < 1e-6);
        assert!((ar.beta - true_comm.beta).abs() / true_comm.beta < 1e-6);
        let inv = models.inverse.as_ref().expect("inverse fit");
        assert!((inv.alpha - true_comp.alpha).abs() / true_comp.alpha < 1e-6);
        assert!((inv.beta - true_comp.beta).abs() < 1e-9);
        // No broadcast samples: the all-reduce fit stands in as a prior.
        let bc = models.broadcast.as_ref().expect("broadcast prior seeded");
        assert!((bc.alpha - ar.alpha).abs() < 1e-18);
        assert!((bc.beta - ar.beta).abs() < 1e-18);
        assert!(c.broadcast_is_prior());
    }

    #[test]
    fn broadcast_prior_yields_to_genuine_fit() {
        let mut c = Calibrator::new(comp(), comm());
        let true_ar = AlphaBetaModel::new(1e-3, 5e-8);
        for m in [64usize, 1024, 16384] {
            c.push(SampleKind::AllReduce, m, true_ar.time(m));
        }
        c.refit();
        assert!(c.broadcast_is_prior());
        // Real broadcast samples arrive (e.g. drift made some tensors CT):
        // the genuine fit replaces the prior.
        let true_bc = AlphaBetaModel::new(3e-3, 9e-8);
        for m in [128usize, 2048, 32768] {
            c.push(SampleKind::Broadcast, m, true_bc.time(m));
        }
        let models = c.refit();
        let bc = models.broadcast.as_ref().expect("broadcast fit");
        assert!((bc.alpha - true_bc.alpha).abs() / true_bc.alpha < 1e-6);
        assert!((bc.beta - true_bc.beta).abs() / true_bc.beta < 1e-6);
        assert!(!c.broadcast_is_prior());
    }

    #[test]
    fn degenerate_windows_never_panic() {
        let mut c = Calibrator::new(comp(), comm());
        // Zero samples, then one sample, then many samples of ONE size:
        // all three are un-fittable and must be skipped, not panic.
        c.refit();
        c.push(SampleKind::AllReduce, 100, 0.5);
        c.refit();
        for _ in 0..10 {
            c.push(SampleKind::AllReduce, 100, 0.5);
        }
        c.refit();
        assert!(c.models().allreduce.is_none());
        // Non-positive and non-finite durations are rejected at the door.
        c.push(SampleKind::Inverse, 64, 0.0);
        c.push(SampleKind::Inverse, 64, -1.0);
        c.push(SampleKind::Inverse, 64, f64::NAN);
        assert_eq!(c.len(SampleKind::Inverse), 0);
    }

    #[test]
    fn window_is_bounded() {
        let mut c = Calibrator::with_window(comp(), comm(), 4);
        for i in 0..20 {
            c.push(SampleKind::Broadcast, 10 + i, 0.1);
        }
        assert_eq!(c.len(SampleKind::Broadcast), 4);
    }

    #[test]
    fn metrics_export_residuals_and_drift() {
        let mut c = Calibrator::new(comp(), comm());
        let true_comm = AlphaBetaModel::new(4e-4, 4e-9); // 2x the baseline
        for m in [100usize, 1000, 10000] {
            c.push(SampleKind::AllReduce, m, true_comm.time(m));
        }
        c.refit();
        let reg = MetricsRegistry::new();
        c.publish_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["calib/allreduce/samples"], 3.0);
        // Baseline is 2x off -> mean relative error ~0.5; refit is exact.
        let base = snap.gauges["calib/allreduce/residual"];
        assert!((base - 0.5).abs() < 1e-6, "residual {base}");
        assert!(snap.gauges["calib/allreduce/residual_refit"] < 1e-9);
        assert!((snap.gauges["calib/comm/alpha_ratio"] - 2.0).abs() < 1e-6);
        assert!((snap.gauges["calib/comm/beta_ratio"] - 2.0).abs() < 1e-6);
        assert_eq!(snap.histograms["calib/allreduce/drift"].count, 3);
    }

    /// The planner of a `world`-rank SPD-KFAC run whose baselines are the
    /// calibrator's, over layers with `dims[l] × dims[l]` factors on both
    /// sides (so either pass pipelines one factor per entry of `dims`).
    fn planner(c: &Calibrator, dims: &[usize], world: usize) -> Planner {
        let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
        cfg.comp_model = c.baseline_comp;
        cfg.comm_model = c.baseline_comm;
        let dims: Vec<(usize, usize)> = dims.iter().map(|&d| (d, d)).collect();
        Planner::new(&cfg, &dims, world)
    }

    /// `ready` for the forward pipeline, mirrored onto the backward one.
    fn timed(costs: &Costs, ready: &[f64]) -> Costs {
        Costs {
            ready: Some([ready, ready].concat()),
            ..costs.clone()
        }
    }

    #[test]
    fn well_calibrated_run_flags_nothing() {
        let mut c = Calibrator::new(comp(), comm());
        for d in [16usize, 64, 256, 1024] {
            c.push(SampleKind::Inverse, d, comp().time(d));
            let m = d * (d + 1) / 2;
            c.push(SampleKind::Broadcast, m, comm().time(m));
            c.push(SampleKind::AllReduce, m, comm().time(m));
        }
        let refit = c.refit().clone();
        // Packed sizes 136, 2080, 32896, 524800 per pass.
        let planner = planner(&c, &[16, 64, 256, 1024], 4);
        let ready = [0.0, 0.1, 0.2, 0.3];
        let standing = planner.plan(&timed(&Costs::default(), &ready), None);
        let candidate = planner.plan(&timed(&refit, &ready), None);
        assert_eq!(candidate, standing, "the refit would decide differently");
        let (inverse, broadcast) = (refit.inverse.unwrap(), refit.broadcast.unwrap());
        assert_eq!(
            comp().nct_threshold(&comm(), 1024),
            inverse.nct_threshold(&broadcast, 1024)
        );
    }

    #[test]
    fn miscalibrated_inverse_model_flips_nct() {
        // The baseline thinks inversion is ~1e9x cheaper than it measures:
        // everything the baseline calls NCT should flip to CT on refit.
        let mut c = Calibrator::new(
            ExpInverseModel::new(comp().alpha * 1e-9, comp().beta),
            comm(),
        );
        for d in [16usize, 64, 256, 1024] {
            c.push(SampleKind::Inverse, d, comp().time(d) * 1e6);
        }
        let refit = c.refit().clone();
        let planner = planner(&c, &[16, 64, 256], 2);
        let standing = planner.plan(&Costs::default(), None).placement;
        let candidate = planner.plan(&refit, None).placement;
        assert_eq!(standing.num_nct(), 6);
        assert_eq!(candidate.num_nct(), 0, "candidate: {candidate:?}");
        assert_eq!(count_placement_flips(&standing, &candidate), 6);
    }

    fn wire_span(size: usize, wire_bytes: u64, codec_secs: f64, start: f64, end: f64) -> Span {
        Span {
            track: 0,
            phase: Phase::GradComm,
            label: Cow::Borrowed(""),
            start,
            end,
            meta: SpanMeta {
                edge: Some(CollEdge::Join),
                size: Some(size),
                wire_bytes: Some(wire_bytes),
                codec_secs: Some(codec_secs),
                ..SpanMeta::default()
            },
        }
    }

    #[test]
    fn wire_meta_feeds_byte_and_codec_windows() {
        let mut c = Calibrator::new(comp(), comm());
        // f16 wire: 2 bytes/element, codec cost 1 ns/element.
        for (i, elems) in [1000usize, 4000, 16000].iter().enumerate() {
            let t = 0.1 * i as f64;
            c.ingest_spans(&[wire_span(
                *elems,
                2 * *elems as u64,
                1e-9 * *elems as f64,
                t,
                t + 1e-4 + 2e-9 * 2.0 * *elems as f64,
            )]);
        }
        assert_eq!(c.len(SampleKind::AllReduce), 3);
        assert_eq!(c.len(SampleKind::AllReduceWire), 3);
        assert_eq!(c.len(SampleKind::Encode), 3);
        let models = c.refit();
        // The wire fit is per byte: β recovers 2e-9 s/B exactly.
        let wire = models.allreduce_wire.as_ref().expect("wire fit");
        assert!((wire.beta - 2e-9).abs() / 2e-9 < 1e-6, "beta {}", wire.beta);
        let enc = models.encode.as_ref().expect("encode fit");
        assert!((enc.beta - 1e-9).abs() / 1e-9 < 1e-6, "beta {}", enc.beta);
        // Effective per-element model at 2 B/element folds codec cost in.
        let eff = models.effective_allreduce(2.0).expect("effective");
        assert!((eff.beta - (2e-9 * 2.0 + 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn f64_passthrough_leaves_codec_window_empty() {
        let mut c = Calibrator::new(comp(), comm());
        // f64 wire: 8 B/element, zero codec seconds (rejected at the door).
        c.ingest_spans(&[wire_span(1000, 8000, 0.0, 0.0, 0.01)]);
        assert_eq!(c.len(SampleKind::AllReduce), 1);
        assert_eq!(c.len(SampleKind::AllReduceWire), 1);
        assert_eq!(c.len(SampleKind::Encode), 0);
        assert!(c.models().effective_allreduce(8.0).is_none());
    }

    #[test]
    fn fusion_flip_is_detected() {
        // Baseline α is tiny (no fusion pays off); measured α is huge
        // (everything should fuse) -> message count must drop.
        let baseline = AlphaBetaModel::new(1e-9, 1e-9);
        let mut c = Calibrator::new(comp(), baseline);
        let measured = AlphaBetaModel::new(10.0, 1e-9);
        for m in [100usize, 1000, 10000, 100000] {
            c.push(SampleKind::AllReduce, m, measured.time(m));
        }
        let refit = c.refit().clone();
        // Four factors of 10 packed elements per pass.
        let planner = planner(&c, &[4, 4, 4, 4], 1);
        let ready = [0.0, 1.0, 2.0, 3.0];
        let standing = planner.plan(&timed(&Costs::default(), &ready), None);
        let candidate = planner.plan(&timed(&refit, &ready), None);
        assert!(standing.plan_differs(&candidate));
        let messages = |p: &PlanEpoch| p.a_fusion.as_ref().unwrap().num_messages();
        assert!(
            messages(&candidate) < messages(&standing),
            "standing {standing:?}, candidate {candidate:?}"
        );
    }
}
