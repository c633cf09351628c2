//! The iteration tail, checked on recorded structure rather than on
//! wall-clock shares: under SPD-KFAC a rank starts inverting while its own
//! factor/gradient messages are still on the wire; under D-KFAC nothing can
//! start before the single bulk factor message has landed.
//!
//! Its own test binary because it paces the ring through the process
//! environment, which must be set before any group is built and must not
//! leak into other tests. The pace makes every message take milliseconds,
//! so "before the last message ends" holds by a margin of ~100 ms of
//! scheduling delay, not by luck.

use spdkfac::collectives::PACE_ENV;
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::{Phase, Recorder, Span};
use std::sync::{Arc, Once};

const WORLD: usize = 2;
const ITERS: usize = 4;

/// Trains `ITERS` paced iterations and returns everything recorded.
fn paced_spans(algorithm: Algorithm) -> Vec<Span> {
    static PACE: Once = Once::new();
    // 0.005 Gbit/s: the ~100 KB an iteration moves take ~160 ms.
    PACE.call_once(|| std::env::set_var(PACE_ENV, "0.005"));
    let rec = Arc::new(Recorder::new(2 * WORLD));
    let mut cfg = DistributedConfig::new(WORLD, algorithm);
    cfg.kfac.damping = 0.1;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(4, 16, 8, 0.3, 7);
    TrainSession::builder(cfg)
        .recorder(Arc::clone(&rec))
        .run(&|| deep_mlp(16, 48, 3, 4, 3), &data, ITERS, 4)
        .expect("local run");
    rec.spans()
}

/// One iteration of one rank: when its inversions started, and the
/// `(phase, end)` of its factor and gradient messages.
struct Iteration {
    inverse_starts: Vec<f64>,
    messages: Vec<(Phase, f64)>,
}

/// Splits `rank`'s spans at its `iter<N>` update spans (TrackLayout::trainer:
/// compute on track `rank`, comm on `WORLD + rank`).
fn iterations(spans: &[Span], rank: usize) -> Vec<Iteration> {
    let mut ends: Vec<f64> = spans
        .iter()
        .filter(|s| s.track == rank && s.label.starts_with("iter"))
        .map(|s| s.end)
        .collect();
    ends.sort_by(f64::total_cmp);
    assert_eq!(
        ends.len(),
        ITERS,
        "rank {rank}: one iter<N> span per iteration"
    );
    let mut from = f64::NEG_INFINITY;
    ends.into_iter()
        .map(|until| {
            let inside = |s: &&Span| from <= s.start && s.start < until;
            let it = Iteration {
                inverse_starts: spans
                    .iter()
                    .filter(|s| s.track == rank && s.phase == Phase::InverseComp)
                    .filter(inside)
                    .map(|s| s.start)
                    .collect(),
                messages: spans
                    .iter()
                    .filter(|s| s.track == WORLD + rank)
                    .filter(|s| matches!(s.phase, Phase::FactorComm | Phase::GradComm))
                    .filter(inside)
                    .map(|s| (s.phase, s.end))
                    .collect(),
            };
            from = until;
            it
        })
        .collect()
}

#[test]
fn spd_inverts_while_its_messages_are_still_on_the_wire() {
    let spans = paced_spans(Algorithm::SpdKfac);
    for rank in 0..WORLD {
        for (k, it) in iterations(&spans, rank).iter().enumerate() {
            let first_inverse = it
                .inverse_starts
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let last_message = it.messages.iter().map(|m| m.1).fold(0.0, f64::max);
            assert!(
                first_inverse < last_message,
                "rank {rank} iteration {k}: first inversion at {first_inverse:.6} s, \
                 last factor/gradient message done at {last_message:.6} s"
            );
        }
    }
}

#[test]
fn dkfac_inverts_only_after_its_bulk_factor_message() {
    let spans = paced_spans(Algorithm::DKfac);
    for rank in 0..WORLD {
        for (k, it) in iterations(&spans, rank).iter().enumerate() {
            let bulk: Vec<f64> = it
                .messages
                .iter()
                .filter(|m| m.0 == Phase::FactorComm)
                .map(|m| m.1)
                .collect();
            assert_eq!(bulk.len(), 1, "rank {rank} iteration {k}: one bulk message");
            assert!(!it.inverse_starts.is_empty(), "rank {rank} iteration {k}");
            for &start in &it.inverse_starts {
                assert!(
                    start >= bulk[0],
                    "rank {rank} iteration {k}: inversion at {start:.6} s precedes the \
                     bulk factor message's end at {:.6} s",
                    bulk[0]
                );
            }
        }
    }
}

#[test]
fn nothing_travels_between_an_update_and_the_next_forward_pass() {
    // The loss all-reduce is submitted when the loss exists (the start of
    // backward) and landed after `Update`, so the iteration's last gradient
    // message is its barrier. The boundary after the segment's first
    // iteration carries the one-off plan agreement and is not looked at.
    let spans = paced_spans(Algorithm::SpdKfac);
    for rank in 0..WORLD {
        let mut updates: Vec<f64> = spans
            .iter()
            .filter(|s| s.track == rank && s.label.starts_with("iter"))
            .map(|s| s.end)
            .collect();
        updates.sort_by(f64::total_cmp);
        let mut checked = 0;
        for &update_end in &updates[1..] {
            let next_pass = spans
                .iter()
                .filter(|s| s.track == rank && s.phase == Phase::FfBp && s.start >= update_end)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min);
            if next_pass.is_infinite() {
                continue; // the last iteration
            }
            checked += 1;
            for s in spans.iter().filter(|s| s.track == WORLD + rank) {
                assert!(
                    s.phase != Phase::Update || s.end <= update_end || s.start >= next_pass,
                    "rank {rank}: a {} of phase Update ran {:.6}..{:.6} s, between the update \
                     that ended at {update_end:.6} s and the pass that began at {next_pass:.6} s",
                    s.label,
                    s.start,
                    s.end
                );
            }
        }
        assert_eq!(checked, ITERS - 2, "rank {rank}: iteration boundaries");
        // The loss did travel: once per iteration, plus the plan agreement.
        let control = spans
            .iter()
            .filter(|s| s.track == WORLD + rank && s.phase == Phase::Update)
            .count();
        assert_eq!(control, ITERS + 1, "rank {rank}: control messages");
    }
}
