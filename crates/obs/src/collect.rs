//! Clock alignment of per-rank traces, after the run.
//!
//! A multi-process run (TCP backend, `spdkfac_node`) records spans against
//! *per-process* [`Recorder`](crate::Recorder) epochs, which are mutually
//! meaningless: rank 3's `t = 0.125 s` says nothing about rank 0's. Each
//! rank writes its spans to a file ([`crate::flight`]); this module puts
//! the files on one clock without any protocol of its own:
//!
//! - [`align`]: every all-reduce is a join, so each matched pair of join
//!   spans brackets the offset between two ranks. One [`ClockSample`] per
//!   pair feeds a [`ClockEstimator`], whose weighted least-squares fit of
//!   offset *and* linear drift becomes the rank's [`ClockModel`].
//! - [`comm_edge_violations`]: the merge-quality check — after rebasing,
//!   matched collective spans must be causally consistent (no member of a
//!   join completing before the last participant arrives).
//!
//! The rebased spans keep the tracks of [`TrackLayout::trainer`], so the
//! causal / critical-path / Chrome-trace exporters read them unchanged.

use crate::flight::RankDoc;
use crate::recorder::{CollEdge, Span};
use crate::ring::Ring;
use crate::trace::TrackLayout;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Clock offset + drift estimation
// ---------------------------------------------------------------------------

/// One bracketed offset measurement between a rank and the reference.
///
/// All four timestamps are epoch-relative seconds: `t0`/`t3` on the
/// *local* (rank) clock, `t1`/`t2` on the *reference* clock. The reference
/// read `t1` no earlier than the local clock read `t0`, and the local
/// clock read `t3` no earlier than the reference read `t2`, so the
/// reference-minus-local offset lies in `[t2 − t3, t1 − t0]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSample {
    /// Midpoint of the exchange on the local clock, `(t0 + t3) / 2`.
    pub local_mid: f64,
    /// Estimated reference-minus-local offset, `((t1−t0)+(t2−t3))/2`: the
    /// middle of the bracket.
    pub offset: f64,
    /// Error bound on `offset`: half the bracket, `((t3−t0)−(t2−t1))/2`.
    /// The true offset lies within `offset ± uncertainty`.
    pub uncertainty: f64,
}

impl ClockSample {
    /// Builds a sample from the four exchange timestamps.
    pub fn from_exchange(t0: f64, t1: f64, t2: f64, t3: f64) -> ClockSample {
        ClockSample {
            local_mid: 0.5 * (t0 + t3),
            offset: 0.5 * ((t1 - t0) + (t2 - t3)),
            uncertainty: (0.5 * ((t3 - t0) - (t2 - t1))).max(0.0),
        }
    }
}

/// A fitted local→reference clock mapping with a bounded error estimate.
///
/// `reference_time ≈ local_time + offset + drift · (local_time −
/// reference)`; see [`ClockModel::rebase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Offset (seconds) at the reference instant.
    pub offset: f64,
    /// Linear drift (seconds of offset per local second; ~1e-6 = 1 ppm).
    pub drift: f64,
    /// Local-clock instant the offset is anchored at.
    pub reference: f64,
    /// Error bound: within the fitted window the rebasing error is no
    /// larger than this (tightest sample uncertainty + worst residual).
    pub uncertainty: f64,
}

impl ClockModel {
    /// The identity mapping (the reference's own spans need no rebasing).
    pub fn identity() -> ClockModel {
        ClockModel {
            offset: 0.0,
            drift: 0.0,
            reference: 0.0,
            uncertainty: 0.0,
        }
    }

    /// Maps a local-clock time onto the reference clock.
    pub fn rebase(&self, t: f64) -> f64 {
        t + self.offset + self.drift * (t - self.reference)
    }
}

/// Minimum sample count and local-time spread before the estimator trusts
/// a drift (slope) term; below either bound it fits offset only.
const DRIFT_MIN_SAMPLES: usize = 8;
const DRIFT_MIN_SPREAD: f64 = 0.5;

/// Accumulates [`ClockSample`]s and fits a [`ClockModel`].
///
/// Samples with an uncertainty more than 3× the tightest observed are
/// discarded from the fit (the NTP trick: short brackets bound the offset
/// best), and the sample window is capped so long runs hold O(1) memory.
#[derive(Debug)]
pub struct ClockEstimator {
    samples: Ring<ClockSample>,
}

impl Default for ClockEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockEstimator {
    /// An empty estimator with the default sample window (1024).
    pub fn new() -> ClockEstimator {
        ClockEstimator {
            samples: Ring::new(1024),
        }
    }

    /// Records one sample, evicting the oldest past the window.
    pub fn add(&mut self, sample: ClockSample) {
        self.samples.push(sample);
    }

    /// Fits offset (and, with enough temporal spread, drift) by weighted
    /// least squares over the quality-filtered samples. `None` without
    /// samples.
    ///
    /// A drift is kept only when it moves the offset by more than the
    /// tightest used sample resolves: `|drift| × σ_t > min_u`, with `σ_t`
    /// the weighted RMS spread of the samples' local times. Offsets that
    /// stay within `±b` of a constant fit a slope with `|drift| × σ_t <=
    /// b` (Cauchy–Schwarz), so a bias that wanders inside the brackets —
    /// which end of each bracket the truth sits at — never reads as
    /// drift; the offset-only fit's `max_resid` absorbs it instead.
    pub fn fit(&self) -> Option<ClockModel> {
        if self.samples.is_empty() {
            return None;
        }
        let min_u = self
            .samples
            .iter()
            .map(|s| s.uncertainty)
            .fold(f64::INFINITY, f64::min);
        let used: Vec<&ClockSample> = self
            .samples
            .iter()
            .filter(|s| s.uncertainty <= 3.0 * min_u + 1e-9)
            .collect();
        let wsum: f64 = used.iter().map(|s| weight(s)).sum();
        let reference = used.iter().map(|s| weight(s) * s.local_mid).sum::<f64>() / wsum;
        let mean_offset = used.iter().map(|s| weight(s) * s.offset).sum::<f64>() / wsum;
        let spread = used
            .iter()
            .map(|s| s.local_mid)
            .fold(f64::NEG_INFINITY, f64::max)
            - used
                .iter()
                .map(|s| s.local_mid)
                .fold(f64::INFINITY, f64::min);
        let drift = if used.len() >= DRIFT_MIN_SAMPLES && spread >= DRIFT_MIN_SPREAD {
            let num: f64 = used
                .iter()
                .map(|s| weight(s) * (s.local_mid - reference) * (s.offset - mean_offset))
                .sum();
            let den: f64 = used
                .iter()
                .map(|s| weight(s) * (s.local_mid - reference).powi(2))
                .sum();
            let drift = if den > 0.0 { num / den } else { 0.0 };
            let rms_spread = (den / wsum).sqrt();
            if drift.abs() * rms_spread > min_u {
                drift
            } else {
                0.0
            }
        } else {
            0.0
        };
        let max_resid = used
            .iter()
            .map(|s| (s.offset - (mean_offset + drift * (s.local_mid - reference))).abs())
            .fold(0.0, f64::max);
        Some(ClockModel {
            offset: mean_offset,
            drift,
            reference,
            uncertainty: min_u + max_resid,
        })
    }
}

fn weight(s: &ClockSample) -> f64 {
    1.0 / (s.uncertainty + 1e-9).powi(2)
}

// ---------------------------------------------------------------------------
// Alignment from collective span pairs
// ---------------------------------------------------------------------------

/// One rank's clock, fitted by [`align`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankClock {
    /// The rank the document came from.
    pub rank: usize,
    /// Its local→reference mapping: the identity on the reference, and on
    /// a rank none of whose joins matched one of the reference's.
    pub model: ClockModel,
    /// Join pairs matched with the reference (0 on the reference).
    pub pairs: usize,
}

/// Per-rank documents of one run, on one clock.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// The rank whose clock the others are rebased onto: 0, or the lowest
    /// rank present.
    pub reference: usize,
    /// One per document, in the documents' order.
    pub clocks: Vec<RankClock>,
    /// Every document's spans, rebased onto the reference clock, in the
    /// recorder's `(track, start)` order.
    pub spans: Vec<Span>,
}

impl Alignment {
    /// The worst rebasing uncertainty across ranks.
    pub fn max_uncertainty(&self) -> f64 {
        self.clocks
            .iter()
            .map(|c| c.model.uncertainty)
            .fold(0.0, f64::max)
    }
}

/// Puts per-rank documents on the reference rank's clock.
///
/// A join ([`CollEdge::Join`]: every all-reduce) completes on no rank
/// before every rank has started it. So for the `(generation, seq)` pair
/// of rank r's span `[s_r, e_r]` and the reference's `[s_0, e_0]`, the
/// reference-minus-local offset lies in `[s_0 − e_r, e_0 − s_r]`: the
/// sample `ClockSample::from_exchange(s_r, e_0, s_0, e_r)`. Each rank's
/// samples are fitted by one [`ClockEstimator`], and the fit rebases every
/// span of that rank. Pure: documents in, spans and models out.
pub fn align(docs: &[RankDoc]) -> Alignment {
    let reference = docs.iter().map(|d| d.rank).min().unwrap_or(0);
    let joins = |d: &RankDoc| -> BTreeMap<(u64, u64), (f64, f64)> {
        d.spans
            .iter()
            .filter(|s| s.meta.edge == Some(CollEdge::Join))
            .filter_map(|s| Some(((s.meta.generation_or_zero(), s.meta.seq?), (s.start, s.end))))
            .collect()
    };
    let anchor = docs
        .iter()
        .find(|d| d.rank == reference)
        .map(joins)
        .unwrap_or_default();
    let mut spans = Vec::new();
    let clocks = docs
        .iter()
        .map(|d| {
            let mut est = ClockEstimator::new();
            let mut pairs = 0;
            if d.rank != reference {
                for (key, (s_r, e_r)) in joins(d) {
                    if let Some(&(s_0, e_0)) = anchor.get(&key) {
                        est.add(ClockSample::from_exchange(s_r, e_0, s_0, e_r));
                        pairs += 1;
                    }
                }
            }
            let model = est.fit().unwrap_or_else(ClockModel::identity);
            spans.extend(d.spans.iter().map(|s| Span {
                start: model.rebase(s.start),
                end: model.rebase(s.end),
                ..s.clone()
            }));
            RankClock {
                rank: d.rank,
                model,
                pairs,
            }
        })
        .collect();
    spans.sort_by(Span::by_track_then_start);
    Alignment {
        reference,
        clocks,
        spans,
    }
}

// ---------------------------------------------------------------------------
// Merge-quality check
// ---------------------------------------------------------------------------

/// Checks the merged trace's cross-rank collective edges for causal
/// consistency: within each `(generation, seq)` group, no participant may
/// complete before the arrival that determines the op (the last member
/// for joins, the root for fan-outs). `tol` absorbs clock-rebasing error —
/// pass twice the worst model uncertainty plus a small slack.
///
/// Returns human-readable violations (empty = consistent). Unrebased
/// multi-process spans — each rank on its own epoch — fail this check
/// loudly, which is exactly the point: it is the acceptance gate that the
/// alignment actually worked (no negative-latency communication edges).
pub fn comm_edge_violations(spans: &[Span], layout: &TrackLayout, tol: f64) -> Vec<String> {
    let mut groups: BTreeMap<(u64, u64), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if !layout.is_comm(s.track) {
            continue;
        }
        let (Some(seq), Some(_)) = (s.meta.seq, s.meta.edge) else {
            continue;
        };
        groups
            .entry((s.meta.generation_or_zero(), seq))
            .or_default()
            .push(s);
    }
    let mut out = Vec::new();
    for ((gen, seq), members) in &groups {
        if members.len() < 2 {
            continue;
        }
        let edge = members[0].meta.edge.expect("comm span carries an edge");
        let max_start = members
            .iter()
            .map(|s| s.start)
            .fold(f64::NEG_INFINITY, f64::max);
        let describe = |m: &Span, lag: f64, what: &str| {
            format!(
                "gen {gen} seq {seq} {} on track {}: {what} by {:.6}s (tol {:.6}s)",
                m.display_name(),
                m.track,
                lag,
                tol
            )
        };
        match edge {
            CollEdge::Join => {
                for m in members {
                    if m.end + tol < max_start {
                        out.push(describe(
                            m,
                            max_start - m.end,
                            "completes before last arrival",
                        ));
                    }
                }
            }
            CollEdge::FanOut { root } => {
                if let Some(r) = members
                    .iter()
                    .find(|s| layout.rank_of(s.track) == Some(root))
                {
                    for m in members {
                        if m.end + tol < r.start {
                            out.push(describe(
                                m,
                                r.start - m.end,
                                "completes before root submits",
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalGraph;
    use crate::phase::Phase;
    use crate::recorder::SpanMeta;
    use std::borrow::Cow;

    // Deterministic xorshift for jittered-delay simulations (no external
    // RNG dependency, reproducible across runs).
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    #[test]
    fn sample_from_symmetric_exchange_is_exact() {
        // Symmetric 1 ms path, server 10 s ahead: offset recovered exactly,
        // uncertainty equals the one-way delay.
        let s = ClockSample::from_exchange(5.0, 15.001, 15.002, 5.003);
        assert!((s.offset - 10.0).abs() < 1e-12, "offset {}", s.offset);
        assert!((s.uncertainty - 0.001).abs() < 1e-12);
        assert!((s.local_mid - 5.0015).abs() < 1e-12);
    }

    /// Simulates `rounds` timestamp exchanges with a reference clock that
    /// reads `reference = local * (1 + drift) + skew`, with asymmetric
    /// jittered path delays up to `max_delay`, spread over `window` seconds.
    fn simulate(
        skew: f64,
        drift: f64,
        rounds: usize,
        window: f64,
        max_delay: f64,
        seed: u64,
    ) -> ClockEstimator {
        let mut est = ClockEstimator::new();
        let mut rng = Lcg(seed);
        let reference = |t: f64| t * (1.0 + drift) + skew;
        for i in 0..rounds {
            let t0 = window * (i as f64) / (rounds as f64);
            let up = max_delay * (0.2 + 0.8 * rng.next_f64());
            let hold = max_delay * 0.1;
            let down = max_delay * (0.2 + 0.8 * rng.next_f64());
            let t1 = reference(t0 + up);
            let t2 = reference(t0 + up + hold);
            let t3 = t0 + up + hold + down;
            est.add(ClockSample::from_exchange(t0, t1, t2, t3));
        }
        est
    }

    #[test]
    fn fixed_skew_recovered_within_uncertainty() {
        let skew = 3.25;
        let est = simulate(skew, 0.0, 40, 2.0, 200e-6, 7);
        let m = est.fit().expect("samples present");
        assert!(m.uncertainty > 0.0 && m.uncertainty < 500e-6);
        // True offset is constant; the model must match everywhere in the
        // window to within its own reported bound.
        for t in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let err = (m.rebase(t) - (t + skew)).abs();
            assert!(
                err <= m.uncertainty,
                "t={t}: err {err} > reported uncertainty {}",
                m.uncertainty
            );
        }
    }

    #[test]
    fn linear_drift_recovered_within_uncertainty() {
        // 100 ppm drift over a 10 s window moves the offset by 1 ms —
        // 10× the path jitter, so an offset-only fit would be out of
        // bounds at the window edges.
        let (skew, drift) = (-1.75, 100e-6);
        let est = simulate(skew, drift, 100, 10.0, 100e-6, 42);
        let m = est.fit().expect("samples present");
        assert!(
            (m.drift - drift).abs() < 30e-6,
            "fitted drift {} vs true {drift}",
            m.drift
        );
        for t in [0.0, 2.5, 5.0, 7.5, 10.0] {
            let truth = t * (1.0 + drift) + skew;
            let err = (m.rebase(t) - truth).abs();
            assert!(
                err <= m.uncertainty,
                "t={t}: err {err} > reported uncertainty {}",
                m.uncertainty
            );
        }
    }

    #[test]
    fn a_bias_that_flips_inside_the_brackets_is_not_drift() {
        // No drift at all, but the truth sits 0.9 u below every bracket's
        // middle for the first half of the window and 0.9 u above it for
        // the second (which rank waits at a join changed halfway).
        let (skew, u) = (0.75, 200e-6);
        let mut est = ClockEstimator::new();
        for i in 0..64 {
            let t = 10.0 * i as f64 / 64.0;
            let bias = if i < 32 { 0.9 * u } else { -0.9 * u };
            est.add(ClockSample {
                local_mid: t,
                offset: skew + bias,
                uncertainty: u,
            });
        }
        let m = est.fit().expect("samples present");
        assert_eq!(m.drift, 0.0);
        for t in [0.0, 2.5, 5.0, 7.5, 10.0] {
            let err = (m.rebase(t) - (t + skew)).abs();
            assert!(err <= m.uncertainty, "t={t}: err {err} > {}", m.uncertainty);
        }
    }

    #[test]
    fn estimator_is_bounded_and_filters_noisy_samples() {
        let mut est = ClockEstimator {
            samples: Ring::new(8),
        };
        // One tight sample among noisy ones: the fit must stay near the
        // tight sample's offset, not the noisy mean.
        for i in 0..20 {
            let noisy = ClockSample {
                local_mid: i as f64 * 0.01,
                offset: 5.0 + 0.5,
                uncertainty: 1.0,
            };
            est.add(noisy);
        }
        assert_eq!(est.samples.len(), 8);
        est.add(ClockSample {
            local_mid: 0.25,
            offset: 5.0,
            uncertainty: 1e-4,
        });
        let m = est.fit().expect("fit");
        assert!((m.offset - 5.0).abs() < 1e-6, "offset {}", m.offset);
    }

    #[test]
    fn empty_estimator_fits_nothing() {
        assert!(ClockEstimator::new().fit().is_none());
    }

    fn comm_span(track: usize, start: f64, end: f64, seq: u64, edge: CollEdge) -> Span {
        Span {
            track,
            phase: Phase::FactorComm,
            label: Cow::Borrowed("allreduce"),
            start,
            end,
            meta: SpanMeta {
                edge: Some(edge),
                seq: Some(seq),
                size: Some(64),
                generation: Some(0),
                wire_bytes: Some(64 * 8),
                codec_secs: None,
            },
        }
    }

    fn compute_span(track: usize, start: f64, end: f64) -> Span {
        Span::new(track, Phase::FfBp, start, end)
    }

    /// Two-rank trainer-layout timeline (tracks 0,1 compute; 2,3 comm)
    /// with two join collectives, on a single coherent clock.
    fn coherent_two_rank_spans() -> Vec<Span> {
        vec![
            compute_span(0, 0.0, 1.0),
            compute_span(1, 0.0, 1.2),
            comm_span(2, 1.0, 1.5, 0, CollEdge::Join),
            comm_span(3, 1.2, 1.5, 0, CollEdge::Join),
            compute_span(0, 1.5, 2.0),
            compute_span(1, 1.5, 2.1),
            comm_span(2, 2.0, 2.4, 1, CollEdge::Join),
            comm_span(3, 2.1, 2.4, 1, CollEdge::Join),
        ]
    }

    /// Shifts rank 1's tracks (compute 1, comm 3) by `delta` — the
    /// per-process-epoch situation before rebasing.
    fn skew_rank1(spans: &[Span], delta: f64) -> Vec<Span> {
        spans
            .iter()
            .cloned()
            .map(|mut s| {
                if s.track == 1 || s.track == 3 {
                    s.start += delta;
                    s.end += delta;
                }
                s
            })
            .collect()
    }

    #[test]
    fn edge_check_catches_unrebased_clocks_and_passes_rebased_ones() {
        let layout = TrackLayout::trainer(2);
        let coherent = coherent_two_rank_spans();
        assert!(comm_edge_violations(&coherent, &layout, 1e-6).is_empty());
        // Rank 1's epoch is 2 s behind: its join members now "complete"
        // long before rank 0 submits — a negative-latency comm edge.
        let skewed = skew_rank1(&coherent, -2.0);
        assert!(!comm_edge_violations(&skewed, &layout, 1e-6).is_empty());
    }

    #[test]
    fn causal_matching_is_exact_after_rebasing() {
        let layout = TrackLayout::trainer(2);
        let coherent = coherent_two_rank_spans();
        let reference = CausalGraph::build(&coherent, &layout);

        // Skew rank 1 by -2 s, then rebase its spans with the matching
        // clock model (offset +2 s).
        let model1 = ClockModel {
            offset: 2.0,
            drift: 0.0,
            reference: 0.0,
            uncertainty: 1e-6,
        };
        let mut merged: Vec<Span> = skew_rank1(&coherent, -2.0)
            .into_iter()
            .map(|mut s| {
                if s.track == 1 || s.track == 3 {
                    s.start = model1.rebase(s.start);
                    s.end = model1.rebase(s.end);
                }
                s
            })
            .collect();
        merged.sort_by(Span::by_track_then_start);
        let rebuilt = CausalGraph::build(&merged, &layout);

        // Group structure identical: same groups, same membership sizes.
        assert_eq!(rebuilt.num_groups(), reference.num_groups());
        for seq in 0..2u64 {
            assert_eq!(
                rebuilt.group(0, seq).len(),
                reference.group(0, seq).len(),
                "seq {seq}"
            );
        }
        // Rebased span times match the coherent original to fp precision.
        let mut coherent = coherent;
        coherent.sort_by(Span::by_track_then_start);
        assert_eq!(merged.len(), coherent.len());
        for (m, c) in merged.iter().zip(coherent.iter()) {
            assert_eq!(m.track, c.track);
            assert!((m.start - c.start).abs() < 1e-12);
            assert!((m.end - c.end).abs() < 1e-12);
        }
        // And the rebased trace passes the edge-consistency gate.
        assert!(comm_edge_violations(&merged, &layout, 1e-6).is_empty());
    }

    /// Per-rank (epoch offset, drift) of [`four_skewed_ranks`]: rank r's
    /// clock reads `local` when rank 0's reads `local·(1 + drift) + offset`.
    const TRUTH: [(f64, f64); 4] = [(0.0, 0.0), (0.040, 0.0), (-0.017, 0.0), (0.003, 50e-6)];

    /// Four ranks' documents: 200 all-reduces 0.1 s apart over 20 s of
    /// rank 0's clock, each rank recorded on its own clock ([`TRUTH`]).
    /// Rank 1 always arrives 60 µs after rank 0, rank 2 40 µs before it,
    /// rank 3 20 µs after, each with up to 10 µs of jitter; every rank
    /// leaves 30–40 µs after the last arrival.
    fn four_skewed_ranks() -> Vec<RankDoc> {
        let world = 4;
        let lag = [0.0, 60e-6, -40e-6, 20e-6];
        let mut rng = Lcg(11);
        let mut spans: Vec<Vec<Span>> = vec![Vec::new(); world];
        for k in 0..200u64 {
            let base = 0.1 * k as f64 + 0.05;
            let arrive: Vec<f64> = lag
                .iter()
                .map(|l| base + l + 10e-6 * rng.next_f64())
                .collect();
            let last = arrive.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for r in 0..world {
                let (offset, drift) = TRUTH[r];
                let local = |t: f64| (t - offset) / (1.0 + drift);
                let leave = last + 30e-6 + 10e-6 * rng.next_f64();
                let (a, e) = (local(arrive[r]), local(leave));
                spans[r].push(compute_span(r, a - 0.03, a));
                spans[r].push(comm_span(world + r, a, e, k, CollEdge::Join));
            }
        }
        spans
            .into_iter()
            .enumerate()
            .map(|(rank, spans)| RankDoc {
                rank,
                world,
                spans,
                ..RankDoc::default()
            })
            .collect()
    }

    #[test]
    fn span_pairs_recover_known_offsets_and_drift() {
        let docs = four_skewed_ranks();
        let layout = TrackLayout::trainer(4);
        let raw: Vec<Span> = docs.iter().flat_map(|d| d.spans.clone()).collect();
        assert!(!comm_edge_violations(&raw, &layout, 1e-4).is_empty());

        let aligned = align(&docs);
        assert_eq!(aligned.reference, 0);
        assert_eq!(aligned.clocks[0].model, ClockModel::identity());
        for (c, &(offset, drift)) in aligned.clocks.iter().zip(&TRUTH).skip(1) {
            let m = c.model;
            assert_eq!(c.pairs, 200, "rank {}", c.rank);
            assert!(m.uncertainty < 150e-6, "rank {}: {m:?}", c.rank);
            assert!((m.drift - drift).abs() < 5e-6, "rank {}: {m:?}", c.rank);
            for t in [0.05, 5.0, 10.0, 15.0, 20.0] {
                let local = (t - offset) / (1.0 + drift);
                let err = (m.rebase(local) - t).abs();
                assert!(
                    err <= m.uncertainty,
                    "rank {} at {t} s: error {err:e} > uncertainty {:e}",
                    c.rank,
                    m.uncertainty
                );
            }
        }
        assert_eq!(aligned.spans.len(), raw.len());
        let tol = 2.0 * aligned.max_uncertainty();
        let violations = comm_edge_violations(&aligned.spans, &layout, tol);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn the_lowest_rank_present_is_the_reference_and_an_unmatched_rank_keeps_its_clock() {
        let mut docs = four_skewed_ranks();
        docs.remove(0);
        // Rank 3 recorded no collective.
        docs[2].spans.retain(|s| s.meta.edge.is_none());
        let aligned = align(&docs);
        assert_eq!(aligned.reference, 1);
        let clock = |rank| aligned.clocks.iter().find(|c| c.rank == rank).unwrap();
        assert_eq!(clock(1).model, ClockModel::identity());
        assert_eq!(
            (clock(3).pairs, clock(3).model),
            (0, ClockModel::identity())
        );
        // Rank 2 is fitted against rank 1: offset ≈ −17 ms − 40 ms.
        let m = clock(2).model;
        assert_eq!(clock(2).pairs, 200);
        assert!(
            (m.offset - (TRUTH[2].0 - TRUTH[1].0)).abs() <= m.uncertainty,
            "{m:?}"
        );
    }
}
